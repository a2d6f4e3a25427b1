package simtest

import (
	"testing"

	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry/live"
)

// TestSteadyStateZeroAllocsNilBus pins the tentpole's zero-cost-when-
// disabled guarantee at its strongest point: a machine with an explicitly
// attached nil bus (the disabled form every CLI passes when -http is off)
// must keep the production kernel's allocation-free steady state bit for bit.
func TestSteadyStateZeroAllocsNilBus(t *testing.T) {
	m, target := steadyMachine(t)
	m.SetLiveBus(nil)
	requireSteadyZeroAllocs(t, "nil-bus", m, target)
}

// TestSteadyStateZeroAllocsEnabledBus: even with a live bus attached and
// publishing (no subscribers — the common case of a bus whose HTTP client
// disconnected), steady-state stepping must stay allocation-free: Publish
// is atomics plus a struct copy, never a heap allocation.
func TestSteadyStateZeroAllocsEnabledBus(t *testing.T) {
	m, target := steadyMachine(t)
	bus := live.NewBus()
	m.SetLiveBus(bus)
	requireSteadyZeroAllocs(t, "enabled-bus", m, target)
}

// TestLiveBusDoesNotChangeResults: attaching a bus must be observationally
// invisible to the simulation — identical stats, output, and return values
// with and without one, and the bus must have seen progress deltas that
// add up to (at most) the machine's own instruction count.
func TestLiveBusDoesNotChangeResults(t *testing.T) {
	sch, ok := schemes.ByName("cwsp")
	if !ok {
		t.Fatal("cwsp scheme missing")
	}
	cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
	p := buildSteadyLoop(t)
	const iters = 3_000_000 // long enough for several SimProgress reports

	run := func(bus *live.Bus) *sim.Result {
		m, err := sim.NewThreaded(p, cfg, sch, []sim.ThreadSpec{{Fn: "steady", Args: []int64{iters}}})
		if err != nil {
			t.Fatal(err)
		}
		m.SetLiveBus(bus)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	bus := live.NewBus()
	observed := run(bus)

	if plain.Stats != observed.Stats {
		t.Fatalf("bus changed stats:\nplain    %+v\nobserved %+v", plain.Stats, observed.Stats)
	}
	if len(plain.Ret) != len(observed.Ret) || plain.Ret[0] != observed.Ret[0] {
		t.Fatalf("bus changed return values: %v vs %v", plain.Ret, observed.Ret)
	}

	s := bus.Snapshot()
	if s.SimInstrs == 0 {
		t.Fatal("no SimProgress events from a multi-million-instruction run")
	}
	if s.SimInstrs > observed.Stats.Instrs {
		t.Fatalf("bus reports %d instrs, machine executed %d", s.SimInstrs, observed.Stats.Instrs)
	}
	if got := bus.KindCount(live.SimProgress); got == 0 {
		t.Fatal("SimProgress kind count is zero")
	}
}
