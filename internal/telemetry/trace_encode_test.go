package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// jsonTraceEvent is the encoding/json shape the append encoder must
// reproduce byte for byte.
type jsonTraceEvent struct {
	Name string                 `json:"name,omitempty"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	ID   string                 `json:"id,omitempty"`
	S    string                 `json:"s,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// TestTraceEncodingMatchesEncodingJSON drives the append encoder with
// random events — HTML-significant and escaped characters in names
// ("a <- b", "x -> y"), non-ASCII and control characters, timestamps
// across every float formatting regime, negative ids — and requires the
// exact bytes encoding/json produces for the equivalent struct with a
// map of args (whose keys it sorts, so the Arg lists here are sorted).
func TestTraceEncodingMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "region", "persist 0x2200", "main <- leaf", "main -> leaf depth=2",
		"sync cas", `q"uo\te`, "a&b", "ünï", "tab\tnl\n", "\x01", " ", "\xff"}
	floats := []float64{0, 0.0005, 1, 1.5, -2.25, 1e-7, 3e-9, 123456.789, 1e20, 1e21, 5e22,
		float64(int64(1)<<62) / 2000, math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-7}
	phs := []byte("BEXibesfCM")
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return strs[rng.Intn(len(strs))] }
	for i := 0; i < 5000; i++ {
		ev := traceEvent{name: pick(), cat: pick(), ph: phs[rng.Intn(len(phs))],
			ts: floats[rng.Intn(len(floats))], pid: rng.Intn(3) - 1, tid: rng.Intn(70000)}
		want := jsonTraceEvent{Name: ev.name, Cat: ev.cat, Ph: string(ev.ph), TS: ev.ts, PID: ev.pid, TID: ev.tid}
		if rng.Intn(2) == 0 {
			ev.dur, ev.hasDur = floats[rng.Intn(len(floats))], true
			d := ev.dur
			want.Dur = &d
		}
		if rng.Intn(2) == 0 {
			ev.id, ev.hasID = rng.Int63n(1<<40)-1<<39, true
			want.ID = fmt.Sprintf("%#x", ev.id)
		}
		if rng.Intn(3) == 0 {
			ev.scope, want.S = "t", "t"
		}
		if rng.Intn(3) == 0 {
			ev.bind = pick()
			want.BP = ev.bind
		}
		keys := map[string]bool{}
		for n := rng.Intn(4); n > 0; n-- {
			if k := pick(); k != "" {
				keys[k] = true
			}
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		if len(sorted) > 0 {
			want.Args = map[string]interface{}{}
		}
		for _, k := range sorted {
			if rng.Intn(2) == 0 {
				v := rng.Int63() - 1<<62
				ev.args = append(ev.args, IntArg(k, v))
				want.Args[k] = v
			} else {
				v := pick()
				ev.args = append(ev.args, StrArg(k, v))
				want.Args[k] = v
			}
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := appendEvent(nil, &ev)
		if string(got) != string(wb) {
			t.Fatalf("event %d encodes differently\n  encoding/json: %s\n  append:        %s", i, wb, got)
		}
	}
}

// TestTraceTimestampsMatchStrconv pins appendFloat's fixed-point fast
// path against encoding/json over cycle/2000 timestamps (every value a
// Perfetto trace of the simulator carries) and other few-decimal values.
func TestTraceTimestampsMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = float64(rng.Int63n(1<<uint(1+rng.Intn(50)))) / 2000.0
		case 1:
			f = float64(rng.Int63n(1<<uint(1+rng.Intn(62)))) / 2000.0
		case 2:
			f = float64(rng.Int63n(1e12)) / 1e4
		default:
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(24)-8))
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := appendFloat(nil, f)
		if string(got) != string(want) {
			t.Fatalf("%v: encoding/json %s, append %s", f, want, got)
		}
	}
}

// TestTraceRejectsNonFinite: like encoding/json, the encoder refuses NaN
// and infinite timestamps, and the error sticks.
func TestTraceRejectsNonFinite(t *testing.T) {
	tr := NewTrace(io.Discard)
	tr.Instant(0, 0, "x", "", math.NaN())
	if tr.Err() == nil {
		t.Fatal("NaN timestamp accepted")
	}
	if tr.Close() == nil {
		t.Fatal("Close after an encode error returned nil")
	}
}
