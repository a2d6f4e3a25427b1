package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	if h.Count() != 0 || h.Quantile(99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1106 {
		t.Errorf("sum = %d, want 1106", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-1106.0/6) > 1e-9 {
		t.Errorf("mean = %g", got)
	}
	// p100 must be the exact max; p0 the exact min.
	if got := h.Quantile(100); got != 1000 {
		t.Errorf("p100 = %g, want 1000", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %g, want 0", got)
	}
	// Negative samples clamp to zero instead of corrupting a bucket.
	h.Observe(-5)
	if h.Min() != 0 {
		t.Errorf("min after negative = %d", h.Min())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("b")
	h.Observe(0) // bucket 0: [0,0]
	h.Observe(1) // bucket 1: [1,1]
	h.Observe(5) // bucket 3: [4,7]
	h.Observe(7)
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %v, want 3 entries", bs)
	}
	if bs[0].Lo != 0 || bs[0].Hi != 0 || bs[0].Count != 1 {
		t.Errorf("bucket0 = %+v", bs[0])
	}
	if bs[2].Lo != 4 || bs[2].Hi != 7 || bs[2].Count != 2 {
		t.Errorf("bucket for 5,7 = %+v", bs[2])
	}
	// Quantiles are bucket upper bounds clamped to the observed max.
	if got := h.Quantile(99); got != 7 {
		t.Errorf("p99 = %g, want 7", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram("q")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	prev := -1.0
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
		q := h.Quantile(p)
		if q < prev {
			t.Errorf("quantile not monotone: p%g = %g < %g", p, q, prev)
		}
		prev = q
	}
	if h.Quantile(50) < 256 || h.Quantile(50) > 1000 {
		t.Errorf("p50 = %g out of plausible range", h.Quantile(50))
	}
}

func TestSamplerRingBounds(t *testing.T) {
	s := NewSampler(10, 4, "a", "b")
	for c := int64(10); c <= 200; c += 10 {
		if !s.Due(c) {
			t.Fatalf("sampler not due at %d", c)
		}
		s.Record(c, float64(c), float64(-c))
	}
	if s.Len() != 4 {
		t.Errorf("len = %d, want ring cap 4", s.Len())
	}
	if s.Dropped() != 16 {
		t.Errorf("dropped = %d, want 16", s.Dropped())
	}
	got := s.Samples()
	if len(got) != 4 || got[0].Cycle != 170 || got[3].Cycle != 200 {
		t.Errorf("ring kept %v, want cycles 170..200", got)
	}
	if col := s.Column("b"); len(col) != 4 || col[3] != -200 {
		t.Errorf("column b = %v", col)
	}
	if s.Column("nope") != nil {
		t.Error("unknown column should be nil")
	}
}

func TestSamplerDueSkipsIntervals(t *testing.T) {
	s := NewSampler(100, 8, "x")
	if s.Due(50) {
		t.Error("due before first interval")
	}
	// A big cycle jump collapses the missed intervals into one sample.
	s.Record(950, 1)
	if s.Due(999) {
		t.Error("due again inside the same interval")
	}
	if !s.Due(1000) {
		t.Error("not due at next interval boundary")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	s := NewSampler(5, 8, "wb", "pb")
	s.Record(5, 1, 2)
	s.Record(10, 3, 4.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "cycle,wb,pb\n5,1,2\n10,3,4.5\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
	b.Reset()
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dec seriesJSON
	if err := json.Unmarshal([]byte(b.String()), &dec); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	if dec.Interval != 5 || len(dec.Samples) != 2 || dec.Samples[1].Vals[1] != 4.5 {
		t.Errorf("series JSON round-trip wrong: %+v", dec)
	}
}

func TestSamplerValueCountMismatch(t *testing.T) {
	s := NewSampler(1, 4, "a", "b")
	s.Record(1, 7)          // short: b zero-filled
	s.Record(2, 1, 2, 3, 4) // long: extras dropped
	got := s.Samples()
	if got[0].Vals[1] != 0 || len(got[1].Vals) != 2 {
		t.Errorf("mismatched Record handled wrong: %v", got)
	}
}

// decodeTrace parses a written trace document.
func decodeTrace(t *testing.T, s string) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%.400s", err, s)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("trace missing traceEvents")
	}
	return doc
}

func TestTraceWriter(t *testing.T) {
	var b strings.Builder
	tr := NewTrace(&b)
	tr.ProcessName(0, "cores")
	tr.ThreadName(0, 1, "core 0")
	tr.AsyncBegin(0, 1, 42, "region", "region", 1.0, StrArg("fn", "main"))
	tr.Instant(0, 1, "persist", "persist", 1.5)
	tr.FlowStart(0, 1, 7, "persist", "persist", 1.5)
	tr.Complete(0, 1001, "wpq", "persist", 2.0, 0.5)
	tr.FlowEnd(0, 1001, 7, "persist", "persist", 2.0)
	tr.AsyncEnd(0, 1, 42, "region", "region", 3.0)
	tr.Counter(0, "occupancy", 1.0, IntArg("pb", 3))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, b.String())
	var evs []map[string]interface{}
	if err := json.Unmarshal(doc["traceEvents"], &evs); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range evs {
		phases[ev["ph"].(string)]++
	}
	for _, ph := range []string{"M", "b", "e", "i", "s", "f", "X", "C"} {
		if phases[ph] == 0 {
			t.Errorf("missing phase %q in %v", ph, phases)
		}
	}
	if tr.Events() != 7 { // metadata not counted
		t.Errorf("events = %d, want 7", tr.Events())
	}
}

func TestTraceWriterEmptyAndLimit(t *testing.T) {
	var b strings.Builder
	tr := NewTrace(&b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, b.String()) // empty trace must still be loadable

	b.Reset()
	tr = NewTrace(&b)
	tr.SetLimit(2)
	for i := 0; i < 10; i++ {
		tr.Instant(0, 0, "x", "", float64(i))
	}
	tr.ThreadName(0, 0, "meta still allowed")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, b.String())
	var evs []map[string]interface{}
	if err := json.Unmarshal(doc["traceEvents"], &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 { // 2 instants + 1 metadata
		t.Errorf("limited trace has %d events, want 3", len(evs))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	h := NewHistogram("persist_lat")
	for i := int64(1); i < 100; i++ {
		h.Observe(i * 3)
	}
	m := NewManifest("cwspsim")
	m.Workload = "lbm"
	m.Scheme = "cwsp"
	m.Scale = "quick"
	m.Config = json.RawMessage(`{"Cores":1,"PBSize":50}`)
	m.Stats = json.RawMessage(`{"Cycles":12345,"Stores":678}`)
	m.Derived = map[string]float64{"ipc": 1.25, "stall_frac.pb": 0.01}
	m.Histograms = map[string]HistSummary{"persist_lat": h.Summary()}
	m.Series = &SeriesInfo{Interval: 4096, Columns: []string{"c0.pb"}, Count: 10, Dropped: 0}
	m.Reports = []BenchReport{{
		ID: "fig21", Title: "persist bandwidth", Columns: []string{"1GB/s", "32GB/s"},
		Rows:    []BenchRow{{Label: "lbm", Vals: []float64{1.9, 1.02}}},
		Summary: map[string]float64{"gmean": 1.3},
	}}

	var b strings.Builder
	if err := m.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	// The indented writer reformats embedded raw JSON; compare those
	// fields semantically and everything else exactly.
	if !jsonEq(t, m.Config, got.Config) || !jsonEq(t, m.Stats, got.Stats) {
		t.Errorf("config/stats did not round-trip: %s / %s", got.Config, got.Stats)
	}
	m.Config, got.Config = nil, nil
	m.Stats, got.Stats = nil, nil
	if !reflect.DeepEqual(m, got) {
		t.Errorf("manifest did not round-trip:\nwrote %+v\nread  %+v", m, got)
	}
}

func jsonEq(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var av, bv interface{}
	if err := json.Unmarshal(a, &av); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(av, bv)
}

func TestManifestVersionRejected(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader(`{"schema_version":999,"tool":"x"}`)); err == nil {
		t.Error("future schema version accepted")
	}
	if _, err := ReadManifest(strings.NewReader(`{"schema_version":1}`)); err == nil {
		t.Error("missing tool accepted")
	}
	if _, err := ReadManifest(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		v      int64
		lo, hi int64
	}{
		{0, 0, 0}, {1, 1, 1}, {2, 2, 3}, {3, 2, 3}, {4, 4, 7},
		{1023, 512, 1023}, {1024, 1024, 2047},
	}
	for _, c := range cases {
		lo, hi := BucketBounds(bucketOf(c.v))
		if lo != c.lo || hi != c.hi {
			t.Errorf("bounds(%d) = [%d,%d], want [%d,%d]", c.v, lo, hi, c.lo, c.hi)
		}
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its own bucket [%d,%d]", c.v, lo, hi)
		}
	}
}
