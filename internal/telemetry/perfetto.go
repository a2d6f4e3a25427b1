package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Trace streams Chrome trace-event JSON (the legacy JSON format Perfetto's
// ui.perfetto.dev and chrome://tracing both load). Events are written as
// they are emitted — nothing is buffered beyond one encoded event — so
// trace memory is O(1) in run length. Timestamps are float64 microseconds;
// the caller owns the cycle→µs conversion.
//
// Each event is appended straight to bytes, with no map or reflection,
// byte-identical to what encoding/json writes for the same event object:
// field order, omitted empty fields, HTML-escaped strings, and float
// formatting all match.
//
// The format reference is the "Trace Event Format" document; only the
// phases the simulator needs are exposed: duration (B/E), complete (X),
// instant (i), async (b/e), flow (s/f), counter (C), and metadata (M).
type Trace struct {
	w     io.Writer
	buf   []byte // the event being encoded, reused
	err   error
	n     int64 // emitted non-metadata events
	limit int64 // 0 = unlimited
	open  bool
}

// Arg is one entry of an event's args object: an integer, or a string
// when IsStr is set. An event's args are written in the order given.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// IntArg is an integer-valued Arg.
func IntArg(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// StrArg is a string-valued Arg.
func StrArg(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// traceEvent is one trace event. Fields follow the Chrome trace-event
// names and are written in declaration order; empty optionals are
// omitted.
type traceEvent struct {
	name, cat   string
	ph          byte
	ts, dur     float64
	hasDur      bool
	pid, tid    int
	id          int64
	hasID       bool
	scope, bind string // "s" (instant scope), "bp" (flow binding point)
	args        []Arg
}

// NewTrace starts a trace document on w. Call Close to finish it.
func NewTrace(w io.Writer) *Trace { return &Trace{w: w} }

// SetLimit caps the number of non-metadata events (0 = unlimited); events
// past the cap are dropped silently so long runs produce loadable files.
func (t *Trace) SetLimit(n int64) { t.limit = n }

// Events returns the number of non-metadata events emitted so far.
func (t *Trace) Events() int64 { return t.n }

// Full reports whether every further non-metadata event will be dropped
// (the limit is reached or a write failed), so callers can skip building
// its name and args.
func (t *Trace) Full() bool { return t.err != nil || (t.limit > 0 && t.n >= t.limit) }

// Err returns the first write/encode error (nil when healthy).
func (t *Trace) Err() error { return t.err }

func (t *Trace) emit(ev *traceEvent, meta bool) {
	if t.err != nil {
		return
	}
	if !meta {
		if t.limit > 0 && t.n >= t.limit {
			return
		}
		t.n++
	}
	for _, f := range [2]float64{ev.ts, ev.dur} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			t.err = fmt.Errorf("telemetry: unsupported trace value %v", f)
			return
		}
	}
	b := t.buf[:0]
	if t.open {
		b = append(b, ",\n"...)
	} else {
		b = append(b, `{"displayTimeUnit":"ns","traceEvents":[`...)
		t.open = true
	}
	t.buf = appendEvent(b, ev)
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
}

// Close terminates the JSON document and returns the first error seen.
func (t *Trace) Close() error {
	if t.err != nil {
		return t.err
	}
	if !t.open {
		// No events: still produce a valid, loadable document.
		_, t.err = io.WriteString(t.w, `{"displayTimeUnit":"ns","traceEvents":[]}`)
		return t.err
	}
	_, t.err = io.WriteString(t.w, "]}\n")
	return t.err
}

// appendEvent encodes one event as encoding/json would encode the
// equivalent struct (name/cat/id/s/bp/args omitempty, dur a pointer).
func appendEvent(b []byte, ev *traceEvent) []byte {
	b = append(b, '{')
	if ev.name != "" {
		b = append(appendString(append(b, `"name":`...), ev.name), ',')
	}
	if ev.cat != "" {
		b = append(appendString(append(b, `"cat":`...), ev.cat), ',')
	}
	b = append(append(b, `"ph":"`...), ev.ph, '"')
	b = appendFloat(append(b, `,"ts":`...), ev.ts)
	if ev.hasDur {
		b = appendFloat(append(b, `,"dur":`...), ev.dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(ev.pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(ev.tid), 10)
	if ev.hasID {
		b = append(AppendHex(append(b, `,"id":"`...), ev.id), '"')
	}
	if ev.scope != "" {
		b = appendString(append(b, `,"s":`...), ev.scope)
	}
	if ev.bind != "" {
		b = appendString(append(b, `,"bp":`...), ev.bind)
	}
	for i, a := range ev.args {
		if i == 0 {
			b = append(b, `,"args":{`...)
		} else {
			b = append(b, ',')
		}
		b = append(appendString(b, a.Key), ':')
		if a.IsStr {
			b = appendString(b, a.Str)
		} else {
			b = strconv.AppendInt(b, a.Int, 10)
		}
	}
	if len(ev.args) > 0 {
		b = append(b, '}')
	}
	return append(b, '}')
}

// AppendHex appends v as fmt's %#x formats it: sign, 0x, lowercase hex.
func AppendHex(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return strconv.AppendUint(append(b, "0x"...), u, 16)
}

// appendString appends s as a JSON string the way encoding/json does:
// quotes and backslashes escaped, and <, >, & HTML-escaped to \u003c,
// \u003e, \u0026 (call and return names carry "->" and "<-"). Strings
// with control characters or non-ASCII bytes, which the simulator never
// produces, are handed to encoding/json itself.
func appendString(b []byte, s string) []byte {
	mark := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonPlain[c] {
			continue
		}
		if c < 0x20 || c >= 0x80 {
			// Marshal a copy, so s itself (and the event holding it)
			// never escapes to the heap on the common path.
			q, _ := json.Marshal(strings.Clone(s))
			return append(b[:mark], q...)
		}
		b = append(b, s[start:i]...)
		if c == '"' || c == '\\' {
			b = append(b, '\\', c)
		} else {
			b = append(b, `\u00`...)
			b = append(b, hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the bytes encoding/json copies into a string verbatim.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest decimal that round-trips, switching to exponent form below
// 1e-6 and at or above 1e21 with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	// Fast path for positive values with at most four decimals, which
	// covers every cycle/2000 timestamp. If n/1e4 parses back to f and n
	// has at most 15 digits, the decimal n/1e4 round-trips, and no other
	// decimal of at most 15 significant digits lies within f's rounding
	// interval (narrower than their spacing), so it is exactly the
	// shortest form strconv would print.
	if x := f * 1e4; x >= 1 && x < 1e15 {
		if n := int64(x + 0.5); float64(n)/1e4 == f {
			b = strconv.AppendInt(b, n/10000, 10)
			if frac := n % 10000; frac != 0 {
				d := [5]byte{'.', byte('0' + frac/1000), byte('0' + frac/100%10),
					byte('0' + frac/10%10), byte('0' + frac%10)}
				k := len(d)
				for d[k-1] == '0' {
					k--
				}
				b = append(b, d[:k]...)
			}
			return b
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b
}

// ProcessName labels a pid in the viewer.
func (t *Trace) ProcessName(pid int, name string) {
	t.emit(&traceEvent{name: "process_name", ph: 'M', pid: pid,
		args: []Arg{StrArg("name", name)}}, true)
}

// ThreadName labels a (pid, tid) track in the viewer.
func (t *Trace) ThreadName(pid, tid int, name string) {
	t.emit(&traceEvent{name: "thread_name", ph: 'M', pid: pid, tid: tid,
		args: []Arg{StrArg("name", name)}}, true)
}

// Begin opens a duration slice on a thread track (must nest with End).
func (t *Trace) Begin(pid, tid int, name, cat string, ts float64, args ...Arg) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'B', ts: ts, pid: pid, tid: tid, args: args}, false)
}

// End closes the innermost open duration slice on a thread track.
func (t *Trace) End(pid, tid int, ts float64) {
	t.emit(&traceEvent{ph: 'E', ts: ts, pid: pid, tid: tid}, false)
}

// Complete emits a self-contained slice of the given duration.
func (t *Trace) Complete(pid, tid int, name, cat string, ts, dur float64, args ...Arg) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'X', ts: ts, dur: dur, hasDur: true,
		pid: pid, tid: tid, args: args}, false)
}

// Instant emits a thread-scoped instant marker.
func (t *Trace) Instant(pid, tid int, name, cat string, ts float64, args ...Arg) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'i', ts: ts, pid: pid, tid: tid,
		scope: "t", args: args}, false)
}

// AsyncBegin opens an async span (overlapping spans on one track are fine;
// matching is by cat+id).
func (t *Trace) AsyncBegin(pid, tid int, id int64, name, cat string, ts float64, args ...Arg) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'b', ts: ts, pid: pid, tid: tid,
		id: id, hasID: true, args: args}, false)
}

// AsyncEnd closes an async span opened with the same cat+id+name.
func (t *Trace) AsyncEnd(pid, tid int, id int64, name, cat string, ts float64) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'e', ts: ts, pid: pid, tid: tid,
		id: id, hasID: true}, false)
}

// FlowStart begins a flow arrow (bind it near an enclosing slice).
func (t *Trace) FlowStart(pid, tid int, id int64, name, cat string, ts float64) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 's', ts: ts, pid: pid, tid: tid,
		id: id, hasID: true}, false)
}

// FlowEnd terminates a flow arrow at (pid, tid, ts), binding to the
// enclosing slice.
func (t *Trace) FlowEnd(pid, tid int, id int64, name, cat string, ts float64) {
	t.emit(&traceEvent{name: name, cat: cat, ph: 'f', bind: "e", ts: ts, pid: pid, tid: tid,
		id: id, hasID: true}, false)
}

// Counter emits one or more counter series points on a process track.
func (t *Trace) Counter(pid int, name string, ts float64, series ...Arg) {
	t.emit(&traceEvent{name: name, ph: 'C', ts: ts, pid: pid, args: series}, false)
}
