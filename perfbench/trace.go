package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
type Span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int           `json:"op"`     // op id, -1 for set-up work
}

// Tracer keeps spans and counts in memory until the run ends. A nil
// *Tracer is the untraced mode: every method is a no-op, so the untraced
// runs pay one nil check per layer call.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	counts map[string]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), counts: map[string]float64{}}
}

// Begin opens a span and returns its id for End and for child spans.
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add accumulates a count taken at a layer boundary.
func (t *Tracer) Add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Reset drops everything recorded so far (earlier set-up repetitions).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.counts = nil, map[string]float64{}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Count returns one accumulated count.
func (t *Tracer) Count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		out[i] = s.End - s.Start - unionLen(iv)
	}
	return out
}

func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// SelfMS sums the self time of every span with the given name, in ms.
func SelfMS(spans []Span, self []time.Duration, name string) float64 {
	var d time.Duration
	for i, s := range spans {
		if s.Name == name {
			d += self[i]
		}
	}
	return float64(d) / float64(time.Millisecond)
}
