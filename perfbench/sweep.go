package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/runner"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// sweepSchemes are the fig13/fig14 columns every app runs under.
var sweepSchemes = []string{"base", "cwsp", "capri", "replaycache"}

// sweepMTCores are the multicore BuildMTWorker cells (base and cwsp each).
var sweepMTCores = []int{2, 4}

// sweepRoundSeconds is the host time one cold sweep round took on the
// reference host; -seconds is divided by it to size the op list.
const sweepRoundSeconds = 1.75

// SweepCell is one simulation cell of the figure sweep.
type SweepCell struct {
	App    string // workload name, or "mt<cores>"
	Scheme string
	Cores  int // > 0 only for BuildMTWorker cells
}

// Name is the cell's pinned-stats key.
func (c SweepCell) Name() string { return c.App + "/" + c.Scheme }

// sweepCells is the seed-independent cell set of one round, in a fixed order.
func sweepCells() []SweepCell {
	var out []SweepCell
	for _, w := range workloads.All() {
		for _, s := range sweepSchemes {
			out = append(out, SweepCell{App: w.Name, Scheme: s})
		}
	}
	for _, n := range sweepMTCores {
		for _, s := range []string{"base", "cwsp"} {
			out = append(out, SweepCell{App: fmt.Sprintf("mt%d", n), Scheme: s, Cores: n})
		}
	}
	return out
}

// rounds sizes an op list: enough rounds of roundSeconds to fill seconds,
// and at least enough ops that a p90 has minBeyond samples beyond it.
func rounds(seconds int, roundSeconds float64, opsPerRound int) int {
	r := int(math.Round(float64(seconds) / roundSeconds))
	need := int(math.Ceil(float64(10*minBeyond+1) / float64(opsPerRound)))
	if r < need {
		r = need
	}
	if r < 1 {
		r = 1
	}
	return r
}

// SweepOps is the op list: per round the cell set, rotated by a seeded
// offset. The seed changes the order cells reach the pool, never the set.
func SweepOps(seed int64, seconds int) [][]SweepCell {
	base := sweepCells()
	out := make([][]SweepCell, rounds(seconds, sweepRoundSeconds, len(base)))
	for r := range out {
		for _, i := range rotation(seed, "sweep", r, len(base)) {
			out[r] = append(out[r], base[i])
		}
	}
	return out
}

// rotation is round r's order of n ops: 0..n-1 rotated by a seeded
// offset. Every workload draws each round from a fixed mix of op classes
// and lets the seed choose the starting point and the per-op parameters,
// so runs on different seeds do the same work, and the ops that two
// workers run side by side stay the same neighbours whatever the seed.
func rotation(seed int64, tag string, r, n int) []int {
	off := int(uint64(mix(seed, tag, r)) % uint64(n))
	out := make([]int, n)
	for i := range out {
		out[i] = (off + i) % n
	}
	return out
}

// mix derives an independent stream seed from the run seed, a tag and an
// index (splitmix64 finalizer), so op i never depends on other ops.
func mix(seed int64, tag string, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for j := 0; j < len(tag); j++ {
		h = (h ^ uint64(tag[j])) * 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h & math.MaxInt64)
}

// sweepProgs are the programs one round simulates: per app the original
// binary (base) and the compiled one (every persistent scheme).
type sweepProgs struct {
	orig, compiled map[string]*ir.Program
}

// buildPrograms generates and compiles every program named by cells.
func buildPrograms(t *Tracer, cells []SweepCell) (*sweepProgs, error) {
	ps := &sweepProgs{orig: map[string]*ir.Program{}, compiled: map[string]*ir.Program{}}
	cores := map[string]int{}
	for _, c := range cells {
		cores[c.App] = c.Cores
	}
	names := make([]string, 0, len(cores))
	for a := range cores {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, app := range names {
		sp := t.Begin("workloads.build", -1, -1)
		var p *ir.Program
		if cores[app] > 0 {
			p = workloads.BuildMTWorker()
		} else {
			w, err := workloads.ByName(app)
			if err != nil {
				return nil, err
			}
			p = w.Build(workloads.Quick)
		}
		t.End(sp)
		sp = t.Begin("compiler.compile", -1, -1)
		cp, rep, err := compiler.Compile(p, compiler.DefaultOptions())
		t.End(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", app, err)
		}
		t.Add("compiler.regions", float64(rep.TotalRegions()))
		t.Add("compiler.ckpts", float64(rep.TotalCheckpoints()))
		ps.orig[app], ps.compiled[app] = p, cp
	}
	return ps, nil
}

// simulate runs one cell on a fresh machine, recording sim spans under
// parent.
func (ps *sweepProgs) simulate(t *Tracer, c SweepCell, parent, op int) (sim.Stats, error) {
	sch, ok := schemes.ByName(c.Scheme)
	if !ok {
		return sim.Stats{}, fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	prog := ps.orig[c.App]
	if schemes.NeedsCompiledProgram(sch) {
		prog = ps.compiled[c.App]
	}
	cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
	sp := t.Begin("sim.new", parent, op)
	var m *sim.Machine
	var err error
	if c.Cores > 0 {
		// Fixed total work split across the threads, as the mt experiment.
		cfg.Cores = c.Cores
		iters := int64(4096/c.Cores) / workloads.Quick.Div
		var specs []sim.ThreadSpec
		for i := 0; i < c.Cores; i++ {
			specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), iters}})
		}
		m, err = sim.NewThreaded(prog, cfg, sch, specs)
	} else {
		m, err = sim.New(prog, cfg, sch)
	}
	t.End(sp)
	if err != nil {
		return sim.Stats{}, fmt.Errorf("%s: %w", c.Name(), err)
	}
	sp = t.Begin(simRunSpan(c.Scheme), parent, op)
	res, err := m.Run()
	t.End(sp)
	if err != nil {
		return sim.Stats{}, fmt.Errorf("%s: %w", c.Name(), err)
	}
	addSimCounts(t, c.Scheme, res.Stats)
	return res.Stats, nil
}

func simRunSpan(scheme string) string {
	if scheme == "base" {
		return "sim.run.base"
	}
	return "sim.run.persist"
}

// addSimCounts records the simulated counters of one run.
func addSimCounts(t *Tracer, scheme string, s sim.Stats) {
	if t == nil {
		return
	}
	class := "persist"
	if scheme == "base" {
		class = "base"
	}
	t.Add("sim.instrs."+class, float64(s.Instrs))
	t.Add("sim.instrs", float64(s.Instrs))
	t.Add("sim.cycles", float64(s.Cycles))
	t.Add("mem.l1d_accs", float64(s.L1DAccs))
	t.Add("mem.l1d_misses", float64(s.L1DMisses))
	t.Add("mem.l2_misses", float64(s.L2Misses))
	t.Add("mem.dram_misses", float64(s.DRAMMisses))
	t.Add("mem.nvm_reads", float64(s.NVMReads))
	if class == "persist" {
		t.Add("persist.stores", float64(s.Stores))
	}
	t.Add("persist.bytes", float64(s.PersistBytes))
	t.Add("persist.log_bytes", float64(s.LogBytes))
	t.Add("persist.wpq_hits", float64(s.WPQHits))
	t.Add("persist.stall_cyc", float64(s.PBStallCyc+s.RBTStallCyc+s.DrainStallCyc+s.BoundaryStall+s.WPQLoadDelay))
}

// runSweep: cold figure sweeps. Each round opens a fresh result store,
// runs every cell on a 2-wide runner.Pool and flushes the store.
func runSweep(env *Env, res *Result) error {
	ops := SweepOps(env.Seed, env.Seconds)
	t := env.Trace
	return measure(env, res, cheapSetupReps,
		func() (*sweepProgs, error) { return buildPrograms(t, sweepCells()) },
		func(*sweepProgs) {},
		func(ps *sweepProgs) error {
			op := 0
			for r, cells := range ops {
				if err := sweepRound(env, res, ps, r, cells, &op); err != nil {
					return err
				}
				// Each round stands for one sweep process: start the
				// next from a collected heap.
				runtime.GC()
			}
			return nil
		})
}

func sweepRound(env *Env, res *Result, ps *sweepProgs, round int, cells []SweepCell, op *int) error {
	t := env.Trace
	dir := filepath.Join(env.WorkDir, fmt.Sprintf("sweep-%d", round))
	store, err := runner.OpenStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	pool := runner.NewPool[sim.Stats](runner.Options{Jobs: maxWorkers, Store: store, Reuse: true})

	lat := make([]float64, len(cells))
	starts := make([]time.Duration, len(cells))
	rc := make([]runner.Cell[sim.Stats], len(cells))
	runStart := time.Now()
	runSpan := t.Begin("runner.run", -1, -1)
	for i, c := range cells {
		id := *op + i
		rc[i] = runner.Cell[sim.Stats]{
			Key: runner.Key{Kind: "perfbench-sweep", Workload: c.App, Scale: "quick", Scheme: c.Scheme, Salt: "perfbench-v1"},
			Run: func() (sim.Stats, error) {
				t0 := time.Now()
				starts[i] = t0.Sub(runStart)
				sp := t.Begin("runner.cell", runSpan, id)
				st, err := ps.simulate(t, c, sp, id)
				t.End(sp)
				lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				return st, err
			},
		}
	}
	stats, err := pool.Run(rc)
	t.End(runSpan)
	if err != nil {
		return err
	}
	sp := t.Begin("runner.flush", -1, -1)
	err = store.Flush()
	t.End(sp)
	if err != nil {
		return err
	}
	*op += len(cells)
	res.Attempted += len(cells)
	res.LatMS = append(res.LatMS, lat...)
	for i, c := range cells {
		if err := env.Pinned.checkStats(env.Pin, env.Pinned.Sweep, c.Name(), stats[i]); err != nil {
			res.fail("sweep %v", err)
		}
	}
	if t != nil {
		var wait time.Duration
		for _, s := range starts {
			wait += s
		}
		info := pool.Progress().Info(maxWorkers)
		t.Add("runner.queue_wait_ms", float64(wait)/float64(time.Millisecond))
		t.Add("runner.cells", float64(info.Cells))
		t.Add("runner.hits", float64(info.CacheHits))
		t.Add("runner.flush_bytes", float64(store.Bytes()))
		t.Add("runner.store_records", float64(store.Len()))
	}
	return store.Close()
}
