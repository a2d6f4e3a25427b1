package main

import (
	"reflect"
	"testing"
	"time"

	"cwsp/internal/sim"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	p90, err := Percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", p90)
	}
	if _, err := Percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "parent", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to 90..100
		{Name: "gc", Start: 60 * ms, End: 80 * ms, Parent: 1}, // grandchild: not the parent's
		{Name: "root", Start: 200 * ms, End: 210 * ms, Parent: -1},
	}
	self := SelfTimes(spans)
	want := []time.Duration{50 * ms, 0, 30 * ms, 30 * ms, 20 * ms, 10 * ms}
	// a is 10..30 with a child at 60..80 outside it: clipped away.
	want[1] = 20 * ms
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := SelfMS(spans, self, "parent"); got != 50 {
		t.Fatalf("SelfMS(parent) = %v, want 50", got)
	}
}

func TestSameSeedSameOps(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"sweep":   func(s int64) any { return SweepOps(s, 10) },
		"recover": func(s int64) any { return RecoverOps(s, 10) },
		"daemon":  func(s int64) any { return DaemonOps(s, 10) },
		"observe": func(s int64) any { return ObserveOps(s, 10) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: two op lists for seed 7 differ", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same op list", name)
		}
	}
}

func TestOpListsAllowP90(t *testing.T) {
	n := map[string]int{
		"sweep":   len(SweepOps(1, 1)) * len(sweepCells()),
		"recover": len(RecoverOps(1, 1)),
		"daemon":  len(DaemonOps(1, 1)),
		"observe": len(ObserveOps(1, 1)),
	}
	for name, ops := range n {
		if ops < 10*minBeyond+1 {
			t.Errorf("%s: %d ops at -seconds 1, need %d for a p90", name, ops, 10*minBeyond+1)
		}
	}
}

// TestWrongPinnedOutputIsCaught simulates a real cell and checks it
// against the embedded pins, then against a copy with one perturbed value.
func TestWrongPinnedOutputIsCaught(t *testing.T) {
	pinned, err := loadPinned("")
	if err != nil {
		t.Fatal(err)
	}
	cell := SweepCell{App: "gobmk", Scheme: "cwsp"}
	ps, err := buildPrograms(nil, []SweepCell{cell})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ps.simulate(nil, cell, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.checkStats(false, pinned.Sweep, cell.Name(), st); err != nil {
		t.Fatalf("unperturbed pin: %v", err)
	}
	bad := pinned.Sweep[cell.Name()]
	bad.PersistBytes++
	pinned.Sweep[cell.Name()] = bad
	if err := pinned.checkStats(false, pinned.Sweep, cell.Name(), st); err == nil {
		t.Fatal("a perturbed pinned PersistBytes was not caught")
	}

	// The recover outcome table: one flipped pinned outcome is one failure.
	ops := RecoverOps(defaultSeed, 1)[:4]
	outcomes := make([]string, len(ops))
	for i := range outcomes {
		outcomes[i] = "clean"
	}
	env := &Env{Seed: defaultSeed, Pinned: &Pinned{RecoverOutcomes: append([]string(nil), outcomes...)}}
	res := &Result{}
	checkRecoverOutcomes(env, res, ops, outcomes)
	if res.Failed != 0 {
		t.Fatalf("matching outcome table: %d failures", res.Failed)
	}
	env.Pinned.RecoverOutcomes[2] = "detected"
	checkRecoverOutcomes(env, res, ops, outcomes)
	if res.Failed != 1 {
		t.Fatalf("one perturbed pinned outcome: %d failures, want 1", res.Failed)
	}
}

func TestDiffStatsNamesField(t *testing.T) {
	a := sim.Stats{Cycles: 10, WBAvgOcc: 1.5}
	b := a
	b.WBAvgOcc = 1.25
	err := diffStats("x", a, b)
	if err == nil || err.Error() != "x: WBAvgOcc = 1.25, pinned 1.5" {
		t.Fatalf("diffStats = %v", err)
	}
}

// BenchmarkTracerSpan is the cost of one traced span (Begin plus End), the
// unit of the traced run's overhead.
func BenchmarkTracerSpan(b *testing.B) {
	t := newTracer()
	for i := 0; i < b.N; i++ {
		t.End(t.Begin("x", -1, i))
	}
}
