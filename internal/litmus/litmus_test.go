package litmus

import (
	"encoding/json"
	"strings"
	"testing"
)

// violatingSpec is a minimal unsealed reproducer found by a real campaign:
// a dropped WPQ tail makes the committed atomic durable while the earlier
// store is lost — CWSP101 under a drain scheme.
const violatingSpec = "t0=;t1=S1.1,A3.3;sch=cwsp;kern=fast;crashes=666;drop-wpq@0:1925955:2bb793591a43f1ae"

func TestRunSpecDeterministic(t *testing.T) {
	s, err := Parse("seed=3;t0=S0.7,F,A2.9;t1=S1.8,C,S3.10;sch=cwsp;kern=fast;crashes=420")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunSpec(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(s.Clone(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Observed != b.Observed || a.Outcome != b.Outcome || a.Crash != b.Crash {
		t.Errorf("same spec, different results: %+v vs %+v", a, b)
	}
	if a.Outcome != ResAllowed {
		t.Errorf("fault-free crash must be allowed, got %s (%s: %s)", a.Outcome, a.Code, a.Msg)
	}
}

func TestRunSpecBothKernelsAllSchemes(t *testing.T) {
	// A fault-free crash must land inside the derived set for every scheme
	// under both kernels — the core soundness contract.
	for _, sch := range AllSchemes {
		for _, kern := range AllKernels {
			spec := "t0=S0.1,F,A2.3;t1=S1.2,C,S3.4;sch=" + sch + ";kern=" + kern + ";crashes=500"
			s, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunSpec(s, RunOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", sch, kern, err)
			}
			if res.Outcome != ResAllowed {
				t.Errorf("%s/%s: fault-free crash judged %s (%s: %s), observed %s",
					sch, kern, res.Outcome, res.Code, res.Msg, res.Observed)
			}
		}
	}
}

func TestRunSpecSealedDetectsInjectedFault(t *testing.T) {
	s, err := Parse(violatingSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSpec(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ResDetected {
		t.Fatalf("sealed run must detect the injected drop, got %s (observed %s)",
			res.Outcome, res.Observed)
	}
	if res.Detected == nil {
		t.Error("detected result carries no corruption record")
	}
}

func TestRunSpecUnsealedFlagsViolation(t *testing.T) {
	s, err := Parse(violatingSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSpec(s, RunOptions{Unsealed: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ResViolation {
		t.Fatalf("unsealed run must surface the dropped drain as a violation, got %s (observed %s)",
			res.Outcome, res.Observed)
	}
	if !strings.HasPrefix(res.Code, "CWSP1") {
		t.Errorf("violation code %q is not a CWSP1xx litmus diagnostic", res.Code)
	}
	d := res.Diag()
	if d == nil || d.Code != res.Code {
		t.Errorf("violation must render a diagnostic with its code, got %+v", d)
	}
}

func TestShrinkKeepsFailureAndShrinks(t *testing.T) {
	s, err := Parse(violatingSpec)
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{Unsealed: true}
	shrunk, res, err := Shrink(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("shrunk spec no longer fails: %s", res.Outcome)
	}
	if shrunk.Events() > s.Events() {
		t.Errorf("shrink grew the program: %d -> %d events", s.Events(), shrunk.Events())
	}
	// The reproducer must itself replay to the same failure.
	replayed, err := Parse(shrunk.Render())
	if err != nil {
		t.Fatalf("shrunk spec does not parse: %v", err)
	}
	rres, err := RunSpec(replayed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Failed() {
		t.Errorf("parsed shrunk spec does not fail: %s", rres.Outcome)
	}
	cmd := ReplayCommand(shrunk)
	if !strings.HasPrefix(cmd, "cwsplitmus -replay '") {
		t.Errorf("replay command malformed: %q", cmd)
	}
}

// TestReplayKernFastReproducer: one-flag reproducers recorded before the
// batched kernel was deleted say kern=fast. They still parse, render back
// unchanged, and replay on the production kernel with the same judgment
// as the reference oracle — here the unsealed violation reproducer and a
// fault-free two-thread crash from the cwsplitmus documentation.
func TestReplayKernFastReproducer(t *testing.T) {
	for _, tc := range []struct {
		spec string
		opt  RunOptions
		want string
	}{
		{violatingSpec, RunOptions{Unsealed: true}, ResViolation},
		{"t0=S0.1,F,A2.3;t1=S1.2;sch=cwsp;kern=fast;crashes=350", RunOptions{}, ResAllowed},
	} {
		s, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Render(); got != tc.spec {
			t.Errorf("kern=fast spec renders as %q, want %q", got, tc.spec)
		}
		fast, err := RunSpec(s, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Outcome != tc.want {
			t.Errorf("%s: replayed as %s (%s: %s), want %s", tc.spec, fast.Outcome, fast.Code, fast.Msg, tc.want)
		}
		ref := s.Clone()
		ref.Kernel = KernelRef
		oracle, err := RunSpec(ref, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Spec = fast.Spec
		fj, _ := json.Marshal(fast)
		oj, _ := json.Marshal(oracle)
		if string(fj) != string(oj) {
			t.Errorf("%s: production kernel replay differs from reference\n  fast: %s\n  ref:  %s", tc.spec, fj, oj)
		}
	}
}
