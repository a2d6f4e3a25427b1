package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cwsp/internal/compiler"
	"cwsp/internal/faults"
	"cwsp/internal/ir"
	"cwsp/internal/recovery"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// recoverTargets are the compiled programs the campaigns crash: the
// transactional, tree, clustering, streaming, sorting and STAMP kernels.
var recoverTargets = []string{"tatp", "rb", "kmeans", "lbm", "radix", "vacation"}

// recoverRoundSeconds is the host time of one recover round on the
// reference host; -seconds sizes the op list with it.
const recoverRoundSeconds = 1.8

// RecoverOp is one crash-recovery experiment.
type RecoverOp struct {
	Target string
	// Faults false: a clean single crash at Permille of the golden run
	// (recovery.Check). Faults true: a depth-2 recovery.CheckFaults plan
	// drawn from PlanSeed with Points fault points (0 = crashes only).
	Faults   bool
	Permille int64
	PlanSeed int64
	Points   int
}

// recoverMix is one round's op classes per target: two clean single
// crashes, one zero-fault depth-2 plan and two faulted depth-2 plans.
var recoverMix = []string{"check", "check", "zero", "faults", "faults"}

// RecoverOps is the op list: per round every target under every class of
// recoverMix, rotated by a seeded offset, with seeded crash points and
// fault plans.
func RecoverOps(seed int64, seconds int) []RecoverOp {
	n := len(recoverTargets) * len(recoverMix)
	var out []RecoverOp
	for r := 0; r < rounds(seconds, recoverRoundSeconds, n); r++ {
		for _, k := range rotation(seed, "recover", r, n) {
			rng := rand.New(rand.NewSource(mix(seed, "recover-op", r*n+k)))
			op := RecoverOp{Target: recoverTargets[k/len(recoverMix)]}
			switch recoverMix[k%len(recoverMix)] {
			case "check":
				op.Permille = 50 + rng.Int63n(901)
			case "zero":
				op.Faults, op.PlanSeed = true, rng.Int63()
			default:
				op.Faults, op.PlanSeed, op.Points = true, rng.Int63(), 1+rng.Intn(3)
			}
			out = append(out, op)
		}
	}
	return out
}

type recoverTarget struct {
	prog   *ir.Program
	specs  []sim.ThreadSpec
	golden *sim.Result
}

func recoverCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Recoverable = true
	return cfg
}

// runRecover: crash-recovery campaigns over compiled programs with
// Recoverable goldens built in set-up, on two workers.
func runRecover(env *Env, res *Result) error {
	ops := RecoverOps(env.Seed, env.Seconds)
	t := env.Trace
	setup := func() (map[string]*recoverTarget, error) {
		out := map[string]*recoverTarget{}
		for _, name := range recoverTargets {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			sp := t.Begin("workloads.build", -1, -1)
			p := w.Build(workloads.Quick)
			t.End(sp)
			sp = t.Begin("compiler.compile", -1, -1)
			cp, rep, err := compiler.Compile(p, compiler.DefaultOptions())
			t.End(sp)
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", name, err)
			}
			t.Add("compiler.regions", float64(rep.TotalRegions()))
			t.Add("compiler.ckpts", float64(rep.TotalCheckpoints()))
			specs := []sim.ThreadSpec{{Fn: cp.Entry}}
			sp = t.Begin("recovery.golden", -1, -1)
			g, err := recovery.Golden(cp, recoverCfg(), sim.CWSP(), specs)
			t.End(sp)
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			addSimCounts(t, "cwsp", g.Stats)
			if err := env.Pinned.checkStats(env.Pin, env.Pinned.RecoverGolden, name, g.Stats); err != nil {
				return nil, fmt.Errorf("golden: %w", err)
			}
			out[name] = &recoverTarget{prog: cp, specs: specs, golden: g}
		}
		return out, nil
	}
	outcomes := make([]string, len(ops))
	timed := func(targets map[string]*recoverTarget) error {
		lat := make([]float64, len(ops))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < maxWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					t0 := time.Now()
					outcomes[i] = recoverOp(t, targets[ops[i].Target], ops[i], i)
					lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				}
			}()
		}
		wg.Wait()
		res.LatMS = lat
		return nil
	}
	if err := measure(env, res, setupReps, setup, func(map[string]*recoverTarget) {}, timed); err != nil {
		return err
	}
	res.Attempted = len(ops)
	checkRecoverOutcomes(env, res, ops, outcomes)
	return nil
}

// recoverOp runs one op and returns its outcome.
func recoverOp(t *Tracer, tg *recoverTarget, op RecoverOp, id int) string {
	if !op.Faults {
		sp := t.Begin("recovery.check", -1, id)
		r, err := recovery.Check(tg.prog, recoverCfg(), sim.CWSP(), tg.specs,
			tg.golden.Stats.Cycles*op.Permille/1000, tg.golden)
		t.End(sp)
		switch {
		case err != nil:
			return string(recovery.OutcomeError)
		case !r.Match:
			return string(recovery.OutcomeDiverged)
		}
		addRecoverWork(t, tg, []int64{r.CrashCycle}, r.ReExecuted)
		return string(recovery.OutcomeClean)
	}
	plan := faults.NewPlan(op.PlanSeed, faults.GenOptions{Depth: 2, Points: op.Points})
	sp := t.Begin("recovery.faults", -1, id)
	r, err := recovery.CheckFaults(tg.prog, recoverCfg(), sim.CWSP(), tg.specs, plan, tg.golden)
	t.End(sp)
	if err != nil {
		return string(recovery.OutcomeError)
	}
	t.Add("faults.injected", float64(len(r.Injected)))
	addRecoverWork(t, tg, r.Crashes, r.ReExecuted)
	return string(r.Outcome)
}

// addRecoverWork counts the instructions one op simulated. The results
// carry the re-executed count exactly, and the crash cycles; the
// instructions before each crash are estimated from the golden run's
// instructions per cycle.
func addRecoverWork(t *Tracer, tg *recoverTarget, crashes []int64, reExecuted int64) {
	if t == nil {
		return
	}
	g := tg.golden.Stats
	instrs := float64(reExecuted)
	for _, c := range crashes {
		instrs += float64(g.Instrs) * float64(min(c, g.Cycles)) / float64(g.Cycles)
	}
	t.Add("recovery.reexec", float64(reExecuted))
	t.Add("recovery.golden_instrs", float64(g.Instrs))
	t.Add("recovery.sim_instrs", instrs)
	t.Add("sim.instrs", instrs)
}

// checkRecoverOutcomes applies the recover output checks: no diverged or
// error outcome, every zero-fault op clean, and under the default seed the
// pinned outcome table.
func checkRecoverOutcomes(env *Env, res *Result, ops []RecoverOp, outcomes []string) {
	t := env.Trace
	pinned := env.Pinned.RecoverOutcomes
	if env.Pin && env.Seed == defaultSeed {
		env.Pinned.RecoverOutcomes = outcomes
	}
	for i, o := range outcomes {
		t.Add("recovery."+o, 1)
		switch {
		case o == string(recovery.OutcomeDiverged) || o == string(recovery.OutcomeError):
			res.fail("recover op %d %+v: %s", i, ops[i], o)
		case ops[i].Points == 0 && o != string(recovery.OutcomeClean):
			res.fail("recover op %d %+v: zero-fault op is %s, want clean", i, ops[i], o)
		case !env.Pin && env.Seed == defaultSeed && i < len(pinned) && pinned[i] != o:
			res.fail("recover op %d %+v: %s, pinned %s", i, ops[i], o, pinned[i])
		}
	}
}
