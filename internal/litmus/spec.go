// Package litmus is the persistency-model litmus engine: it checks the
// memory system the way internal/check checks the compiler. A litmus test
// is a tiny generated program — stores, fences, atomics, and call
// boundaries interleaved across cores and memory controllers — plus a
// seeded crash point and an optional fault plan. The engine statically
// derives the set of post-crash NVM outcomes the paper's ordering axioms
// allow for the scheme under test (Section VIII: stores issued before a
// synchronization point persist first), executes the litmus under the real
// simulated persist path, and flags any observed crash-image outcome
// outside the derived set as a CWSP1xx diagnostic through the
// internal/check diag engine.
//
// Every test serializes to a compact single-token spec string, so a failing
// campaign cell replays standalone from one flag (`cwsplitmus -replay
// '<spec>'`), mirroring the faults subsystem's `cwsprecover -faults`
// convention — in fact the litmus spec grammar is a strict superset of the
// faults spec grammar: a litmus spec's crash schedule and fault points ARE
// a faults.Plan.
package litmus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"cwsp/internal/faults"
)

// NumTracked is the number of tracked litmus words. Tracked addresses are
// 4 KiB apart, so with the default 2-MC config word k lives on MC k%2 —
// the generator exercises both same-MC and cross-MC store pairs.
const NumTracked = 4

// EvKind is one litmus event class.
type EvKind uint8

// The event vocabulary.
const (
	// EvStore: plain store track[K] = V (asynchronous persist path).
	EvStore EvKind = iota
	// EvFence: a synchronization point with no store (OpFence).
	EvFence
	// EvAtomic: atomic exchange track[K] = V — a synchronization point
	// whose store persists synchronously at the group commit.
	EvAtomic
	// EvCall: a call to an empty helper — a plain region boundary without
	// synchronization semantics (boundary-stall schemes stall here; MC
	// speculation does not).
	EvCall
)

// Event is one litmus program event.
type Event struct {
	Kind EvKind
	K    int   // tracked-word index (EvStore, EvAtomic)
	V    int64 // stored value (EvStore, EvAtomic); unique per test
}

func (e Event) String() string {
	switch e.Kind {
	case EvStore:
		return fmt.Sprintf("S%d.%d", e.K, e.V)
	case EvAtomic:
		return fmt.Sprintf("A%d.%d", e.K, e.V)
	case EvFence:
		return "F"
	case EvCall:
		return "C"
	}
	return "?"
}

// Thread is one core's event sequence.
type Thread []Event

// Spec is one complete, reproducible litmus test: the program shape, the
// scheme and kernel under test, and the crash/fault schedule. The zero
// fields of Plan beyond Crashes[0] are unused — litmus crashes once.
type Spec struct {
	// Seed is provenance: the RNG seed the spec was generated from (0 for
	// hand-written or shrunk specs). The fields below are self-contained.
	Seed    int64
	Threads []Thread
	// Scheme is the crash-consistency scheme name (schemes.ByName).
	Scheme string
	// Kernel selects the simulation kernel: "fast" (the production
	// kernel) or "ref" (the reference oracle).
	Kernel string
	// Plan carries the crash permille (Crashes[0]) and the fault points
	// (litmus kinds only: torn-log, drop-wpq, reorder-wpq), all at crash
	// ordinal 0.
	Plan *faults.Plan
}

// Kernel names.
const (
	KernelFast = "fast"
	KernelRef  = "ref"
)

// litmusFaultKinds are the fault classes a litmus plan may carry: the ones
// that perturb the persist path's ordering. Checkpoint corruption targets
// recovery's register reconstruction, which the litmus outcome check does
// not observe.
var litmusFaultKinds = []faults.Kind{faults.TornLog, faults.DropWPQ, faults.ReorderWPQ}

func litmusKind(k faults.Kind) bool {
	for _, v := range litmusFaultKinds {
		if v == k {
			return true
		}
	}
	return false
}

// Render serializes the spec as a compact single-token string:
//
//	seed=7;t0=S0.1,F,A2.3;t1=S1.2,C,S0.4;sch=cwsp;kern=fast;crashes=350;drop-wpq@0:5:1
//
// Terms are semicolon-separated: optional provenance seed, one t<core>=
// event list per thread, the scheme and kernel, then the crash permille
// and fault points in the faults spec grammar. Parse(s.Render())
// round-trips exactly.
func (s *Spec) Render() string {
	var b strings.Builder
	if s.Seed != 0 {
		fmt.Fprintf(&b, "seed=%d;", s.Seed)
	}
	for ti, th := range s.Threads {
		fmt.Fprintf(&b, "t%d=", ti)
		for i, ev := range th {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ev.String())
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "sch=%s;kern=%s;", s.Scheme, s.Kernel)
	plan := s.Plan.Clone()
	plan.Seed = 0 // the litmus seed is the provenance; don't render it twice
	b.WriteString(plan.Spec())
	return b.String()
}

// Parse parses Render's format back into a spec.
func Parse(str string) (*Spec, error) {
	s := &Spec{}
	var faultTerms []string
	threads := map[int]Thread{}
	maxT := -1
	for _, term := range strings.Split(strings.TrimSpace(str), ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		switch {
		case strings.HasPrefix(term, "seed="):
			v, err := strconv.ParseInt(term[len("seed="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("litmus: bad seed in %q: %v", term, err)
			}
			s.Seed = v
		case strings.HasPrefix(term, "sch="):
			s.Scheme = term[len("sch="):]
		case strings.HasPrefix(term, "kern="):
			s.Kernel = term[len("kern="):]
		case len(term) > 1 && term[0] == 't' && term[1] >= '0' && term[1] <= '9':
			eq := strings.IndexByte(term, '=')
			if eq < 0 {
				return nil, fmt.Errorf("litmus: thread term %q wants t<core>=<events>", term)
			}
			ti, err := strconv.Atoi(term[1:eq])
			if err != nil || ti < 0 || ti >= 16 {
				return nil, fmt.Errorf("litmus: bad thread index in %q", term)
			}
			if _, dup := threads[ti]; dup {
				return nil, fmt.Errorf("litmus: duplicate thread t%d", ti)
			}
			th, err := parseThread(term[eq+1:])
			if err != nil {
				return nil, err
			}
			threads[ti] = th
			if ti > maxT {
				maxT = ti
			}
		default:
			faultTerms = append(faultTerms, term)
		}
	}
	if maxT < 0 {
		return nil, fmt.Errorf("litmus: spec %q has no thread terms", str)
	}
	for ti := 0; ti <= maxT; ti++ {
		th, ok := threads[ti]
		if !ok {
			return nil, fmt.Errorf("litmus: thread indices not dense: missing t%d", ti)
		}
		s.Threads = append(s.Threads, th)
	}
	if s.Scheme == "" {
		return nil, fmt.Errorf("litmus: spec %q has no sch= term", str)
	}
	switch s.Kernel {
	case KernelFast, KernelRef:
	case "":
		return nil, fmt.Errorf("litmus: spec %q has no kern= term", str)
	default:
		return nil, fmt.Errorf("litmus: unknown kernel %q (want %s or %s)", s.Kernel, KernelFast, KernelRef)
	}
	plan, err := faults.ParseSpec(strings.Join(faultTerms, ";"))
	if err != nil {
		return nil, err
	}
	if plan.Depth() != 1 {
		return nil, fmt.Errorf("litmus: plan has %d crashes; litmus tests crash exactly once", plan.Depth())
	}
	for _, pt := range plan.Points {
		if !litmusKind(pt.Kind) {
			return nil, fmt.Errorf("litmus: fault kind %q is not a litmus persist-path kind", pt.Kind)
		}
	}
	s.Plan = plan
	return s, nil
}

func parseThread(list string) (Thread, error) {
	var th Thread
	if strings.TrimSpace(list) == "" {
		return th, nil
	}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("litmus: empty event token")
		}
		switch tok[0] {
		case 'F':
			if tok != "F" {
				return nil, fmt.Errorf("litmus: bad event %q", tok)
			}
			th = append(th, Event{Kind: EvFence})
		case 'C':
			if tok != "C" {
				return nil, fmt.Errorf("litmus: bad event %q", tok)
			}
			th = append(th, Event{Kind: EvCall})
		case 'S', 'A':
			dot := strings.IndexByte(tok, '.')
			if dot < 2 {
				return nil, fmt.Errorf("litmus: event %q wants %c<k>.<v>", tok, tok[0])
			}
			k, err := strconv.Atoi(tok[1:dot])
			if err != nil || k < 0 || k >= NumTracked {
				return nil, fmt.Errorf("litmus: tracked index out of [0,%d) in %q", NumTracked, tok)
			}
			v, err := strconv.ParseInt(tok[dot+1:], 10, 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("litmus: store value in %q must be a positive integer", tok)
			}
			kind := EvStore
			if tok[0] == 'A' {
				kind = EvAtomic
			}
			th = append(th, Event{Kind: kind, K: k, V: v})
		default:
			return nil, fmt.Errorf("litmus: unrecognized event %q", tok)
		}
	}
	return th, nil
}

// Clone deep-copies the spec (the shrinker mutates copies).
func (s *Spec) Clone() *Spec {
	q := &Spec{Seed: s.Seed, Scheme: s.Scheme, Kernel: s.Kernel, Plan: s.Plan.Clone()}
	for _, th := range s.Threads {
		q.Threads = append(q.Threads, append(Thread(nil), th...))
	}
	return q
}

// Events counts the spec's total event count.
func (s *Spec) Events() int {
	n := 0
	for _, th := range s.Threads {
		n += len(th)
	}
	return n
}

// GenOptions shape NewSpec's random draw.
type GenOptions struct {
	// Cores is the thread count (1..3; default 2).
	Cores int
	// Events is the maximum events per thread (>= 1; default 5).
	Events int
	// Points is the maximum fault points (>= 0); each spec draws a uniform
	// count in [0, Points].
	Points int
}

// NewSpec draws a reproducible litmus shape from a seeded RNG: per-thread
// event sequences over the tracked words (stores 3:1 over each of fence,
// atomic, and call), globally unique store values so every crash-image
// word identifies the exact store that produced it, a crash point in
// [10, 990] permille of the golden run, and 0..Points persist-path fault
// points. Scheme and kernel are left for the campaign to fill in: the same
// shape runs under every (scheme, kernel) cell.
func NewSpec(seed int64, opt GenOptions) *Spec {
	if opt.Cores < 1 {
		opt.Cores = 2
	}
	if opt.Cores > 3 {
		opt.Cores = 3
	}
	if opt.Events < 1 {
		opt.Events = 5
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Spec{Seed: seed}
	nextVal := int64(1)
	for t := 0; t < opt.Cores; t++ {
		n := 1 + rng.Intn(opt.Events)
		th := make(Thread, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				th = append(th, Event{Kind: EvFence})
			case 1:
				th = append(th, Event{Kind: EvAtomic, K: rng.Intn(NumTracked), V: nextVal})
				nextVal++
			case 2:
				th = append(th, Event{Kind: EvCall})
			default:
				th = append(th, Event{Kind: EvStore, K: rng.Intn(NumTracked), V: nextVal})
				nextVal++
			}
		}
		s.Threads = append(s.Threads, th)
	}
	points := 0
	if opt.Points > 0 {
		points = rng.Intn(opt.Points + 1)
	}
	plan := &faults.Plan{Crashes: []int64{10 + rng.Int63n(981)}}
	for i := 0; i < points; i++ {
		pt := faults.Point{
			Kind: litmusFaultKinds[rng.Intn(len(litmusFaultKinds))],
			Pick: rng.Int63n(1 << 30),
		}
		for pt.XOR == 0 {
			pt.XOR = rng.Uint64()
		}
		plan.Points = append(plan.Points, pt)
	}
	s.Plan = plan
	return s
}
