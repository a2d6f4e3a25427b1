package recovery

import (
	"errors"
	"fmt"

	"cwsp/internal/faults"
	"cwsp/internal/ir"
	"cwsp/internal/sim"
)

// CorruptionError is the typed detection report the hardened recovery path
// returns when a sealed structure fails validation. (It is defined in the
// sim layer, where the seals live; the alias keeps the recovery API — the
// level callers program against — self-contained.)
type CorruptionError = sim.CorruptionError

// Outcome classifies one faulted crash/recovery experiment. The survival
// criterion is strict: an injected corruption must either be absorbed by a
// correct rollback (Clean) or be reported (Detected). Silent NVM
// divergence — and any undiagnosed hard error while executing recovered
// state — is a failure.
type Outcome string

// Outcomes.
const (
	// OutcomeClean: recovered and re-executed to the exact golden NVM
	// image (faults, if any, were rolled back or semantically absorbed).
	OutcomeClean Outcome = "clean"
	// OutcomeDetected: a validation layer reported a typed
	// CorruptionError before corrupted state could execute.
	OutcomeDetected Outcome = "detected"
	// OutcomeDiverged: the final NVM image silently differs from golden —
	// the failure the seals exist to prevent.
	OutcomeDiverged Outcome = "diverged"
	// OutcomeError: recovery or re-execution died with an untyped error
	// (wild branches, livelock, corrupt frame walks). Not silent, but not
	// a controlled detection either; counted as a failure.
	OutcomeError Outcome = "error"
)

// FaultResult reports one (possibly nested) faulted crash/recovery
// experiment. It round-trips through JSON for the runner's result cache
// and the campaign report.
type FaultResult struct {
	Outcome Outcome `json:"outcome"`
	// Crashes are the absolute crash cycles actually applied, one per
	// completed crash ordinal (machine-local clock for nested crashes).
	Crashes []int64 `json:"crashes,omitempty"`
	// Injected is every resolved fault point across all crash ordinals.
	Injected []faults.Injected `json:"injected,omitempty"`
	// Detected carries the typed corruption report (Outcome == detected).
	Detected *CorruptionError `json:"detected,omitempty"`
	// Err is the untyped failure (Outcome == error).
	Err string `json:"err,omitempty"`
	// DiffAddrs samples diverging word addresses (Outcome == diverged).
	DiffAddrs []int64 `json:"diff_addrs,omitempty"`
	// ReExecuted counts dynamic instructions after the final resume.
	ReExecuted int64 `json:"re_executed,omitempty"`
}

// Failed reports whether the experiment violated the survival criterion.
func (r *FaultResult) Failed() bool {
	return r.Outcome == OutcomeDiverged || r.Outcome == OutcomeError
}

// CheckFaults runs the plan's full crash schedule against one program:
// crash (with that ordinal's injected faults), recover, and for nested
// plans crash the *resumed* machine again — recovery code must survive
// repeated power failures — then re-execute to completion and compare the
// final NVM image with the golden run's. Detection anywhere ends the
// experiment as OutcomeDetected (a real system would fall back to a cold
// restart). Setup failures (bad program, impossible spec) return an error;
// everything the experiment itself can produce is folded into the result.
func CheckFaults(prog *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, plan *faults.Plan, golden *sim.Result) (*FaultResult, error) {
	if plan == nil || plan.Depth() == 0 {
		return nil, fmt.Errorf("recovery: CheckFaults needs a plan with at least one crash")
	}
	cfg.Recoverable = true
	// Bound re-execution: corrupted state running unsealed can livelock;
	// cap it well above any legitimate resumed run instead of burning the
	// default 100M-instruction budget per cell.
	if cfg.MaxSteps == 0 || cfg.MaxSteps > 4*golden.Stats.Instrs+100_000 {
		cfg.MaxSteps = 4*golden.Stats.Instrs + 100_000
	}

	out := &FaultResult{}
	m, err := sim.NewThreaded(prog, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	for ci := 0; ci < plan.Depth(); ci++ {
		cycle := plan.CrashCycle(ci, golden.Stats.Cycles)
		if err := m.RunUntil(cycle); err != nil {
			out.Outcome, out.Err = OutcomeError, fmt.Sprintf("run to crash %d: %v", ci, err)
			return out, nil
		}
		cf, injected := faults.Resolve(plan, ci, m, cycle)
		out.Injected = append(out.Injected, injected...)
		out.Crashes = append(out.Crashes, cycle)
		cs, err := m.CrashAtFaults(cycle, cf)
		if err != nil {
			return finishWithError(out, err, ci, cycle)
		}
		rcfg := cfg
		if ci == plan.Depth()-1 {
			rcfg = finalLeg(cfg)
		}
		m, err = sim.NewResumed(prog, rcfg, sch, specs, cs)
		if err != nil {
			return finishWithError(out, err, ci, cycle)
		}
	}
	res, err := m.Run()
	if err != nil {
		out.Outcome, out.Err = OutcomeError, fmt.Sprintf("final re-execution: %v", err)
		return out, nil
	}
	out.ReExecuted = res.Stats.Instrs
	if nvmMatches(res, golden, len(specs)) {
		out.Outcome = OutcomeClean
	} else {
		out.Outcome = OutcomeDiverged
		out.DiffAddrs = res.NVM.Diff(golden.NVM, 8)
	}
	return out, nil
}

func finishWithError(out *FaultResult, err error, crash int, cycle int64) (*FaultResult, error) {
	var ce *CorruptionError
	if errors.As(err, &ce) {
		out.Outcome, out.Detected = OutcomeDetected, ce
		return out, nil
	}
	out.Outcome, out.Err = OutcomeError, fmt.Sprintf("crash %d at cycle %d: %v", crash, cycle, err)
	return out, nil
}
