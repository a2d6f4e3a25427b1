package bench

import (
	"fmt"

	"cwsp/internal/runner"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry"
	"cwsp/internal/workloads"
)

// ResultsSalt is the code-version component of every cell's cache key. Bump
// it whenever the simulator, compiler, or workload generators change
// results: every previously cached cell is invalidated at once (old shards
// are orphaned by signature, not deleted). It is exported so run manifests
// and bench-trajectory records can tie a sweep to its cache generation.
//
// v2: sim.Config lost its ReferenceKernel field and its "" Kernel now
// means the threaded kernel, which changes the rendered config inside
// every recovery and torture cell signature (simulated results are
// unchanged).
const ResultsSalt = "cwsp-sim-v2"

const resultsSalt = ResultsSalt

// The threaded kernel's translation cache is keyed by the same salt: a
// bump that invalidates cached cells also drops compiled code.
func init() { sim.SetCodeSalt(ResultsSalt) }

// simPool is the cell executor every experiment of one harness shares.
type simPool = *runner.Pool[sim.Stats]

// planState is the ordered, deduplicated list of cells one experiment
// needs, collected by the planning dry run.
type planState struct {
	seen  map[runKey]bool
	cells []planCell
}

type planCell struct {
	key  runKey
	w    workloads.Workload
	cfg  sim.Config // already scheme-adjusted
	sch  sim.Scheme
	mode string
}

func (p *planState) add(key runKey, w workloads.Workload, cfg sim.Config, sch sim.Scheme, mode string) {
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	p.cells = append(p.cells, planCell{key: key, w: w, cfg: cfg, sch: sch, mode: mode})
}

// cellKey is the persistent content signature of one cell: workload
// identity and scale, compile mode, the full scheme and config structures
// (not just names — ablation schemes share names' prefixes but differ in
// fields), and the code-version salt.
func (h *Harness) cellKey(pc planCell) runner.Key {
	return runner.Key{
		Kind:     "sim",
		Workload: pc.w.Name,
		Scale:    h.Opt.Scale.Name,
		Compile:  pc.mode,
		Scheme:   fmt.Sprintf("%+v", pc.sch),
		CfgSig:   cfgSig(pc.cfg),
		Salt:     resultsSalt,
	}
}

// parallel reports whether RunExperiment routes cells through the pool.
func (h *Harness) parallel() bool {
	return h.jobs() > 1 || h.Opt.CacheDir != "" || h.Opt.Store != nil
}

// ensurePool lazily builds the shared pool. An injected Options.Store is
// used as-is (the experiment service shares one store across campaigns);
// otherwise CacheDir, when set, is opened here and owned by the harness
// (Close releases it). One pool serves every experiment of the harness,
// so `cwspbench -exp all` shares workers, cache, and telemetry across the
// whole evaluation.
func (h *Harness) ensurePool() (simPool, error) {
	h.poolOnce.Do(func() {
		opts := runner.Options{
			Jobs:     h.jobs(),
			Reuse:    !h.Opt.NoResume,
			Log:      h.Opt.Log,
			Bus:      h.Opt.Bus,
			Progress: h.Opt.Progress,
		}
		switch {
		case h.Opt.Store != nil:
			opts.Store = h.Opt.Store
		case h.Opt.CacheDir != "":
			store, err := runner.OpenStore(h.Opt.CacheDir)
			if err != nil {
				h.poolErr = err
				return
			}
			store.SetBus(h.Opt.Bus)
			opts.Store = store
			h.ownedStore = store
		}
		pool := runner.NewPool[sim.Stats](opts)
		h.mu.Lock()
		h.pool = pool
		h.mu.Unlock()
	})
	return h.pool, h.poolErr
}

// LiveHistograms is the live.HistSource behind the -http /metrics
// endpoint: the pool's per-cell latency histogram, snapshotted per scrape
// so an HTTP client never races the workers. Nil before any experiment
// has gone through the pool.
func (h *Harness) LiveHistograms() map[string]*telemetry.Histogram {
	h.mu.Lock()
	pool := h.pool
	h.mu.Unlock()
	if pool == nil {
		return nil
	}
	return map[string]*telemetry.Histogram{
		"cell_latency_us": pool.Progress().LatencySnapshot(),
	}
}

// RunExperiment runs one experiment, fanning its simulation cells out to
// the worker pool (and serving them from the persistent store when one is
// configured). It is a two-phase execution: a planning dry run walks the
// experiment body with RunStats* recording cells instead of simulating;
// the pool then executes every cell; finally the body runs again against
// the now-warm result cache. The report is assembled by the same serial
// code in both phases, so its bytes are identical to a -jobs 1 run.
// Direct experiments (and jobs=1 with no cache) skip straight to the
// serial path.
func (h *Harness) RunExperiment(e Experiment) (*Report, error) {
	if e.Direct || !h.parallel() {
		return e.Run(h)
	}
	pool, err := h.ensurePool()
	if err != nil {
		return nil, err
	}

	// Phase 1: plan. The dry run returns zero stats for every uncached
	// cell; its report is discarded.
	h.mu.Lock()
	h.plan = &planState{seen: map[runKey]bool{}}
	h.mu.Unlock()
	_, planErr := e.Run(h)
	h.mu.Lock()
	plan := h.plan
	h.plan = nil
	h.mu.Unlock()
	if planErr != nil {
		return nil, fmt.Errorf("%s: planning: %w", e.ID, planErr)
	}

	// Phase 2: execute every cell on the pool.
	if len(plan.cells) > 0 {
		cells := make([]runner.Cell[sim.Stats], len(plan.cells))
		for i, pc := range plan.cells {
			pc := pc
			cells[i] = runner.Cell[sim.Stats]{
				Key: h.cellKey(pc),
				Run: func() (sim.Stats, error) {
					return h.simulate(pc.w, pc.cfg, pc.sch, pc.mode)
				},
			}
		}
		stats, err := pool.Run(cells)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		h.mu.Lock()
		for i, pc := range plan.cells {
			h.results[pc.key] = stats[i]
		}
		h.mu.Unlock()
	}

	// Phase 3: assemble the report from the warm cache.
	return e.Run(h)
}

// RunnerSummary digests the pool's cumulative telemetry for a manifest
// (nil when no experiment went through the pool).
func (h *Harness) RunnerSummary() *telemetry.RunnerInfo {
	if h.pool == nil {
		return nil
	}
	info := h.pool.Progress().Info(h.pool.Jobs())
	return &info
}

// Close flushes the persistent store and, when the harness opened it
// itself (CacheDir rather than an injected Options.Store), closes it and
// releases its directory lock. Call after the last experiment.
func (h *Harness) Close() error {
	if h.pool == nil {
		return nil
	}
	err := h.pool.Close()
	if h.ownedStore != nil {
		if cerr := h.ownedStore.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
