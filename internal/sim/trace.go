package sim

import (
	"fmt"
	"io"
	"strconv"

	"cwsp/internal/ir"
)

// TraceKind classifies trace events.
type TraceKind uint8

const (
	// TraceRegion: a region boundary committed (new region opened).
	TraceRegion TraceKind = iota
	// TracePersist: a store's data was admitted to a WPQ (persisted).
	TracePersist
	// TraceSync: a synchronizing group committed (atomic/alloc/emit).
	TraceSync
	// TraceCall / TraceRet: control transfer through the calling
	// convention.
	TraceCall
	TraceRet
	// TraceRegionEnd: a region finished (closed at Cycle, durable — fully
	// persisted — at Admit; Addr carries the region's start cycle so span
	// exporters can reconstruct [start, retire] even when the open event
	// predates tracer attachment).
	TraceRegionEnd

	// numTraceKinds counts the kinds above (keep it last).
	numTraceKinds
)

func (k TraceKind) String() string {
	switch k {
	case TraceRegion:
		return "region"
	case TracePersist:
		return "persist"
	case TraceSync:
		return "sync"
	case TraceCall:
		return "call"
	case TraceRet:
		return "ret"
	case TraceRegionEnd:
		return "region-end"
	}
	return "?"
}

// TraceEvent is one machine event. It carries structured fields only;
// consumers format what they keep (Info renders the textual detail), so
// an event a tracer drops costs no formatting.
type TraceEvent struct {
	Kind   TraceKind
	Core   int
	Cycle  int64
	Region int64 // region sequence number (when applicable)
	Addr   int64 // persist address / region start cycle (TraceRegionEnd)
	// Admit is the durability instant: WPQ admission time for TracePersist,
	// region retire time for TraceRegionEnd (0 otherwise).
	Admit int64
	// MC is the memory controller index of a TracePersist (0 otherwise).
	MC int
	// Logged marks a TracePersist whose store was undo-logged at the MC.
	Logged bool
	// Fn is the region's function (TraceRegion, TraceRegionEnd), the
	// caller (TraceCall), or the function returned to (TraceRet).
	Fn string
	// Callee is the called (TraceCall) or returning (TraceRet) function.
	Callee string
	// Block and Index locate a TraceRegion's boundary in Fn.
	Block, Index int
	// Depth is the new frame's call depth (TraceCall).
	Depth int
	// Op is the synchronizing opcode (TraceSync).
	Op ir.Op
}

// Info renders the event's kind-specific detail as text: the boundary
// location of a region, the MC and admission of a persist, the opcode of
// a sync, the caller and callee of a call or return.
func (ev TraceEvent) Info() string { return string(ev.appendInfo(nil)) }

func (ev TraceEvent) appendInfo(b []byte) []byte {
	switch ev.Kind {
	case TraceRegion:
		b = append(append(b, ev.Fn...), " b"...)
		b = append(strconv.AppendInt(b, int64(ev.Block), 10), '[')
		b = append(strconv.AppendInt(b, int64(ev.Index), 10), ']')
	case TracePersist:
		b = strconv.AppendInt(append(b, "mc"...), int64(ev.MC), 10)
		b = strconv.AppendInt(append(b, " admit="...), ev.Admit, 10)
		if ev.Logged {
			b = append(b, " logged"...)
		}
	case TraceSync:
		b = append(b, ev.Op.String()...)
	case TraceCall:
		b = append(append(append(b, ev.Fn...), " -> "...), ev.Callee...)
		b = strconv.AppendInt(append(b, " depth="...), int64(ev.Depth), 10)
	case TraceRet:
		b = append(append(append(b, ev.Fn...), " <- "...), ev.Callee...)
	case TraceRegionEnd:
		b = append(b, ev.Fn...)
	}
	return b
}

// Tracer receives machine events; SetTracer installs one. The textual
// WriteTracer is the common case (cwspsim -tracefile).
type Tracer interface {
	Event(TraceEvent)
}

// SetTracer installs a tracer (nil disables tracing).
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// WriteTracer formats events one per line to an io.Writer.
type WriteTracer struct {
	W io.Writer
	// Filter selects which kinds are emitted. A nil or empty map means
	// "all kinds" — the two are deliberately equivalent so a caller that
	// builds the map conditionally never silences the trace by accident.
	Filter map[TraceKind]bool
	n      int64
	// Limit stops output after Limit events (0 = unlimited).
	Limit int64
}

// Event implements Tracer.
func (t *WriteTracer) Event(ev TraceEvent) {
	if len(t.Filter) > 0 && !t.Filter[ev.Kind] {
		return
	}
	if t.Limit > 0 && t.n >= t.Limit {
		return
	}
	t.n++
	fmt.Fprintf(t.W, "%10d c%d %-8s region=%d addr=%#x %s\n",
		ev.Cycle, ev.Core, ev.Kind, ev.Region, ev.Addr, ev.Info())
}

// MultiTracer fans each event out to several tracers in order (e.g. a
// textual trace and a Perfetto trace from the same run).
type MultiTracer []Tracer

// Event implements Tracer.
func (ts MultiTracer) Event(ev TraceEvent) {
	for _, t := range ts {
		t.Event(ev)
	}
}

// RingTracer keeps the last N events in memory (crash forensics).
type RingTracer struct {
	buf  []TraceEvent
	next int
	full bool
}

// NewRingTracer builds a tracer retaining n events.
func NewRingTracer(n int) *RingTracer {
	if n < 1 {
		n = 1
	}
	return &RingTracer{buf: make([]TraceEvent, n)}
}

// Event implements Tracer.
func (r *RingTracer) Event(ev TraceEvent) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// Events returns the retained events, oldest first.
func (r *RingTracer) Events() []TraceEvent {
	if !r.full {
		return append([]TraceEvent(nil), r.buf[:r.next]...)
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
