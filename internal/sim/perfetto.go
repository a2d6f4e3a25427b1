package sim

import (
	"io"
	"strconv"

	"cwsp/internal/telemetry"
)

// perfettoMCBase offsets memory-controller track ids past any core id.
const perfettoMCBase = 1 << 16

// PerfettoTracer converts the machine event stream into a Chrome
// trace-event / Perfetto timeline loadable at ui.perfetto.dev: one track
// per core carrying region spans (async events, so overlapping in-flight
// regions render correctly), call/return nesting as duration slices, and
// sync-commit markers; one track per memory controller carrying WPQ
// admission slices; and a flow arrow per persist from its commit point on
// the core to its admission on the owning MC.
//
// Events stream to the writer as they happen — tracer memory is O(1) in
// run length. Timestamps map one simulated cycle to 0.5 ns (the machine's
// 2 GHz clock). Close must be called to terminate the JSON document.
type PerfettoTracer struct {
	tr      *telemetry.Trace
	began   map[int64]bool // region seq -> open span emitted
	threads map[int]bool   // tids with metadata emitted
	flow    int64
	scratch []byte
}

// NewPerfettoTracer starts a Perfetto trace on w.
func NewPerfettoTracer(w io.Writer) *PerfettoTracer {
	tr := telemetry.NewTrace(w)
	tr.ProcessName(0, "cwsp machine")
	return &PerfettoTracer{tr: tr, began: map[int64]bool{}, threads: map[int]bool{}}
}

// SetLimit caps emitted events (0 = unlimited); metadata is exempt, so a
// truncated trace still names its tracks. Set it before the run starts.
func (p *PerfettoTracer) SetLimit(n int64) { p.tr.SetLimit(n) }

// Events returns the number of trace events emitted so far.
func (p *PerfettoTracer) Events() int64 { return p.tr.Events() }

// ts converts a machine cycle to trace microseconds (2 GHz core clock).
func (p *PerfettoTracer) ts(cycle int64) float64 { return float64(cycle) / 2000.0 }

func (p *PerfettoTracer) coreTid(core int) int {
	tid := core + 1
	if !p.threads[tid] {
		p.threads[tid] = true
		p.tr.ThreadName(0, tid, "core "+strconv.Itoa(core))
	}
	return tid
}

func (p *PerfettoTracer) mcTid(mc int) int {
	tid := perfettoMCBase + mc
	if !p.threads[tid] {
		p.threads[tid] = true
		p.tr.ThreadName(0, tid, "mc "+strconv.Itoa(mc))
	}
	return tid
}

// Event implements Tracer.
func (p *PerfettoTracer) Event(ev TraceEvent) {
	if ev.Kind >= numTraceKinds {
		return
	}
	if p.tr.Full() {
		// Past the limit only track metadata is still written; skip
		// building the event's name and args.
		p.coreTid(ev.Core)
		if ev.Kind == TracePersist {
			p.mcTid(ev.MC)
		}
		return
	}
	tid := p.coreTid(ev.Core)
	switch ev.Kind {
	case TraceRegion:
		p.began[ev.Region] = true
		p.tr.AsyncBegin(0, tid, ev.Region, "region", "region", p.ts(ev.Cycle),
			telemetry.StrArg("at", p.info(ev)), telemetry.IntArg("seq", ev.Region))
	case TraceRegionEnd:
		if !p.began[ev.Region] {
			// The open predates tracer attachment (bootstrap region):
			// synthesize it from the start cycle the end event carries.
			p.tr.AsyncBegin(0, tid, ev.Region, "region", "region", p.ts(ev.Addr),
				telemetry.StrArg("at", ev.Fn), telemetry.IntArg("seq", ev.Region))
		}
		delete(p.began, ev.Region)
		retire := ev.Admit
		if retire < ev.Cycle {
			retire = ev.Cycle
		}
		p.tr.AsyncEnd(0, tid, ev.Region, "region", "region", p.ts(retire))
	case TracePersist:
		mt := p.mcTid(ev.MC)
		p.flow++
		p.scratch = telemetry.AppendHex(append(p.scratch[:0], "persist "...), ev.Addr)
		name := string(p.scratch)
		addr, region := telemetry.IntArg("addr", ev.Addr), telemetry.IntArg("region", ev.Region)
		p.tr.Instant(0, tid, name, "persist", p.ts(ev.Cycle), addr, region)
		p.tr.FlowStart(0, tid, p.flow, "persist", "persist", p.ts(ev.Cycle))
		// A one-cycle admission slice keeps the flow arrow visible.
		p.tr.Complete(0, mt, name, "persist", p.ts(ev.Admit), p.ts(1), addr, region)
		p.tr.FlowEnd(0, mt, p.flow, "persist", "persist", p.ts(ev.Admit))
	case TraceSync:
		p.tr.Instant(0, tid, "sync "+ev.Op.String(), "sync", p.ts(ev.Cycle),
			telemetry.IntArg("region", ev.Region))
	case TraceCall:
		p.tr.Begin(0, tid, p.info(ev), "call", p.ts(ev.Cycle))
	case TraceRet:
		p.tr.End(0, tid, p.ts(ev.Cycle))
	}
}

// info renders the event's detail through the tracer's scratch buffer.
func (p *PerfettoTracer) info(ev TraceEvent) string {
	p.scratch = ev.appendInfo(p.scratch[:0])
	return string(p.scratch)
}

// Close terminates the JSON document; the trace is unreadable without it.
func (p *PerfettoTracer) Close() error { return p.tr.Close() }
