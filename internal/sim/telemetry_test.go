package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"cwsp/internal/ir"
	"cwsp/internal/progen"
	"cwsp/internal/telemetry"
)

// storeHeavyProg builds a two-phase program: a compute-only warmup (the
// persist structures stay idle, so early samples are near zero) followed
// by a streaming store loop that saturates the persist path.
func storeHeavyProg(warmup, stores int64) *ir.Program {
	const base = int64(0x5000_0000)
	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	acc := fb.Reg()
	fb.ConstInto(acc, 1)
	i := fb.Reg()
	fb.ConstInto(i, 0)

	whead := fb.AddBlock("whead")
	wbody := fb.AddBlock("wbody")
	shead := fb.AddBlock("shead")
	sbody := fb.AddBlock("sbody")
	done := fb.AddBlock("done")
	fb.Jmp(whead)

	fb.SetBlock(whead)
	c1 := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(warmup))
	fb.Br(ir.R(c1), wbody, shead)
	fb.SetBlock(wbody)
	m3 := fb.Mul(ir.R(acc), ir.Imm(3))
	fb.BinInto(ir.OpAdd, acc, ir.R(m3), ir.Imm(1))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(whead)

	fb.SetBlock(shead)
	fb.ConstInto(i, 0)
	fb.Jmp(sbody)
	fb.SetBlock(sbody)
	off := fb.Bin(ir.OpShl, ir.R(i), ir.Imm(3))
	addr := fb.Add(ir.Imm(base), ir.R(off))
	fb.Store(ir.R(acc), ir.R(addr), 0)
	fb.BinInto(ir.OpAdd, acc, ir.R(acc), ir.R(i))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	c2 := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(stores))
	fb.Br(ir.R(c2), sbody, done)

	fb.SetBlock(done)
	fb.Ret(ir.R(acc))

	p := ir.NewProgram("storeheavy")
	p.Add(fb.MustDone())
	p.Entry = "main"
	return p
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestTelemetryHistogramsStoreHeavy(t *testing.T) {
	p := compileT(t, storeHeavyProg(200, 3000))
	m, err := New(p, DefaultConfig(), CWSP())
	if err != nil {
		t.Fatal(err)
	}
	tel := m.EnableTelemetry(TelemetryOptions{SampleInterval: 256})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tel.PersistLat.Count() == 0 {
		t.Fatal("no persist latency samples on a store-heavy run")
	}
	if p99 := tel.PersistLat.Quantile(99); p99 <= 0 {
		t.Errorf("persist latency p99 = %g, want > 0", p99)
	}
	if tel.PersistLat.Count() < res.Stats.Stores {
		t.Errorf("persist latencies (%d) < stores (%d)", tel.PersistLat.Count(), res.Stats.Stores)
	}
	// Region telemetry telescopes exactly: every instruction belongs to
	// exactly one finished region, every checkpoint to the region that
	// executed it.
	if got := tel.RegionInstrs.Sum(); got != res.Stats.Instrs {
		t.Errorf("region instr sum %d != instrs %d", got, res.Stats.Instrs)
	}
	if got := tel.RegionCkpts.Sum(); got != res.Stats.Ckpts {
		t.Errorf("region ckpt sum %d != ckpts %d", got, res.Stats.Ckpts)
	}
	if tel.RegionCycles.Count() == 0 || tel.RegionCycles.Max() <= 0 {
		t.Error("region cycle lengths not recorded")
	}
	if tel.Sampler.Len() == 0 {
		t.Error("sampler recorded nothing")
	}
}

func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	p := compileT(t, progen.Generate(9, progen.DefaultConfig()))
	run := func(enable bool, tr Tracer) Stats {
		m, err := New(p, DefaultConfig(), CWSP())
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			m.EnableTelemetry(TelemetryOptions{SampleInterval: 64})
		}
		m.SetTracer(tr)
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats
	}
	plain := run(false, nil)
	if with := run(true, nil); plain != with {
		t.Error("telemetry changed simulation results")
	}
	if with := run(true, NewPerfettoTracer(io.Discard)); plain != with {
		t.Error("perfetto tracing changed simulation results")
	}
}

func TestTelemetrySamplerMemoryBounded(t *testing.T) {
	p := compileT(t, storeHeavyProg(0, 5000))
	m, err := New(p, DefaultConfig(), CWSP())
	if err != nil {
		t.Fatal(err)
	}
	tel := m.EnableTelemetry(TelemetryOptions{SampleInterval: 16, SampleCap: 8})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tel.Sampler.Len() > 8 {
		t.Errorf("sampler kept %d samples, cap 8", tel.Sampler.Len())
	}
	if tel.Sampler.Dropped() == 0 {
		t.Error("long run at fine interval should overflow an 8-entry ring")
	}
}

// TestSamplerShowsPersistBacklog is the Figure-21 observability check: at
// 1 GB/s the persist path cannot keep up with a streaming store phase and
// the sampled send backlog climbs; at 32 GB/s it stays near zero. The
// assertion is on the sampled series, not on eyeballed CSV.
func TestSamplerShowsPersistBacklog(t *testing.T) {
	p := compileT(t, storeHeavyProg(2000, 4000))
	run := func(gbs float64) *Telemetry {
		m, err := New(p, DefaultConfig().PersistPathGBs(gbs), CWSP())
		if err != nil {
			t.Fatal(err)
		}
		tel := m.EnableTelemetry(TelemetryOptions{SampleInterval: 128, SampleCap: 1 << 16})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return tel
	}
	slow := run(1)
	fast := run(32)

	sb := slow.Sampler.Column("persist.send_backlog")
	fb := fast.Sampler.Column("persist.send_backlog")
	if len(sb) < 8 || len(fb) < 8 {
		t.Fatalf("too few samples: slow %d fast %d", len(sb), len(fb))
	}
	slowMean, fastMean := mean(sb), mean(fb)
	if slowMean < 4*fastMean || slowMean <= 0 {
		t.Errorf("1 GB/s backlog mean %.1f should dwarf 32 GB/s mean %.1f", slowMean, fastMean)
	}
	// Growth within the slow run: the warmup quarter is idle, the last
	// quarter is saturated.
	q := len(sb) / 4
	early, late := mean(sb[:q]), mean(sb[len(sb)-q:])
	if late <= early {
		t.Errorf("1 GB/s backlog should grow: early quarter %.1f, late quarter %.1f", early, late)
	}
	// PB occupancy tells the same story.
	if po := mean(slow.Sampler.Column("c0.pb")); po <= mean(fast.Sampler.Column("c0.pb")) {
		t.Errorf("PB occupancy at 1 GB/s (%.2f) should exceed 32 GB/s", po)
	}
	// The CSV export of the same series parses and carries the columns.
	var csv strings.Builder
	if err := slow.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"cycle", "c0.pb", "mc0.wpq", "persist.send_backlog"} {
		if !strings.Contains(head, col) {
			t.Errorf("CSV header %q missing %q", head, col)
		}
	}
}

func TestPerfettoTracerProducesLoadableTrace(t *testing.T) {
	p := compileT(t, progen.Generate(4, progen.DefaultConfig()))
	m, err := New(p, DefaultConfig(), CWSP())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tr := NewPerfettoTracer(&b)
	m.SetTracer(tr)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	phases, names := decodePerfetto(t, b.String())
	// Region spans (async b/e), persist flows (s/f) landing on MC slices
	// (X), and track metadata must all be present.
	for _, ph := range []string{"b", "e", "i", "X", "s", "f", "M"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (phases: %v)", ph, phases)
		}
	}
	if phases["b"] != phases["e"] {
		t.Errorf("unbalanced region spans: %d begins, %d ends", phases["b"], phases["e"])
	}
	if !names["core 0"] || !names["mc 0"] {
		t.Errorf("missing track names, got %v", names)
	}
}

// decodePerfetto parses a Perfetto trace and returns its per-phase event
// counts and the track names its metadata events declare.
func decodePerfetto(t *testing.T, trace string) (map[string]int, map[string]bool) {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("perfetto trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
		if ev["ph"] == "M" {
			if args, ok := ev["args"].(map[string]interface{}); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
	}
	return phases, names
}

// TestPerfettoLimitKeepsTrackNames: events past the limit are dropped
// before they are built, but the tracks they would have landed on are
// still named, exactly as in an unlimited trace of the same run.
func TestPerfettoLimitKeepsTrackNames(t *testing.T) {
	p := compileT(t, storeHeavyProg(100, 1500))
	trace := func(limit int64) string {
		m, err := New(p, DefaultConfig(), CWSP())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		tr := NewPerfettoTracer(&b)
		tr.SetLimit(limit)
		m.SetTracer(tr)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	_, all := decodePerfetto(t, trace(0))
	phases, limited := decodePerfetto(t, trace(1))
	if !all["mc 1"] {
		t.Fatalf("unlimited trace never reached mc 1: %v", all)
	}
	if fmt.Sprint(limited) != fmt.Sprint(all) {
		t.Errorf("limited trace names %v, unlimited %v", limited, all)
	}
	if n := len(limited); phases["M"] != n || phases["M"]+1 != sumCounts(phases) {
		t.Errorf("limit 1 trace has phases %v, want %d metadata events and one other", phases, n)
	}
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestMachineManifest(t *testing.T) {
	p := compileT(t, storeHeavyProg(100, 1500))
	m, err := New(p, DefaultConfig(), CWSP())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTelemetry(TelemetryOptions{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	man, err := m.BuildManifest("cwspsim", "storeheavy", "quick")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := man.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadManifest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if got.Scheme != "cwsp" || got.Workload != "storeheavy" {
		t.Errorf("manifest identity wrong: %+v", got)
	}
	// The embedded config/stats must decode back into the Go types.
	var cfg Config
	if err := json.Unmarshal(got.Config, &cfg); err != nil {
		t.Fatalf("config does not round-trip: %v", err)
	}
	if cfg.PBSize != m.Cfg.PBSize {
		t.Errorf("config PBSize %d != %d", cfg.PBSize, m.Cfg.PBSize)
	}
	var st Stats
	if err := json.Unmarshal(got.Stats, &st); err != nil {
		t.Fatalf("stats do not round-trip: %v", err)
	}
	if st.Stores == 0 {
		t.Error("stats lost store count")
	}
	if got.Derived["ipc"] <= 0 {
		t.Errorf("derived ipc = %g", got.Derived["ipc"])
	}
	if _, ok := got.Derived["stall_frac.pb"]; !ok {
		t.Error("derived metrics missing stall breakdown")
	}
	if s, ok := got.Histograms["persist_lat"]; !ok || s.Count == 0 || s.P99 <= 0 {
		t.Errorf("manifest persist_lat summary wrong: %+v", s)
	}
	if got.Series == nil || got.Series.Count == 0 {
		t.Error("manifest missing series info")
	}
}

func benchTelemetry(b *testing.B, enable bool) {
	p := compileT(b, progen.Generate(7, progen.DefaultConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(p, DefaultConfig(), CWSP())
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			m.EnableTelemetry(TelemetryOptions{})
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetryOff is the hot-path overhead guard: with telemetry
// disabled every probe is one nil check, so cycle throughput must stay
// within noise of the seed simulator.
func BenchmarkRunTelemetryOff(b *testing.B) { benchTelemetry(b, false) }
func BenchmarkRunTelemetryOn(b *testing.B)  { benchTelemetry(b, true) }
