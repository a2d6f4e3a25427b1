package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one time-series row: a cycle timestamp plus one value per
// sampler column.
type Sample struct {
	Cycle int64     `json:"cycle"`
	Vals  []float64 `json:"vals"`
}

// Sampler collects periodic gauge snapshots into a fixed-capacity ring:
// memory is bounded by the ring regardless of run length — once full, the
// oldest samples are overwritten and counted in Dropped. The caller drives
// it: poll Due(cycle) cheaply from the hot path and call Record when it
// fires. Value storage is preallocated so a Record in the steady state
// does not allocate.
type Sampler struct {
	interval int64
	next     int64
	cols     []string

	buf     []Sample
	head    int // ring start (oldest)
	count   int
	dropped int64
}

// NewSampler builds a sampler that fires every interval cycles and retains
// the most recent capacity samples of the named columns.
func NewSampler(interval int64, capacity int, cols ...string) *Sampler {
	if interval < 1 {
		interval = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	s := &Sampler{
		interval: interval,
		next:     interval,
		cols:     append([]string(nil), cols...),
		buf:      make([]Sample, capacity),
	}
	// One backing array for every row: two allocations per sampler, not
	// one per retained sample.
	n := len(cols)
	vals := make([]float64, capacity*n)
	for i := range s.buf {
		s.buf[i].Vals = vals[i*n : (i+1)*n : (i+1)*n]
	}
	return s
}

// Interval returns the sampling period in cycles.
func (s *Sampler) Interval() int64 { return s.interval }

// Columns returns the column names.
func (s *Sampler) Columns() []string { return append([]string(nil), s.cols...) }

// Due reports whether a sample is owed at the given cycle. It is the
// single hot-path check; everything else runs only when it fires.
func (s *Sampler) Due(cycle int64) bool { return cycle >= s.next }

// Next returns the first cycle at which a sample is owed: Due(c) holds
// exactly when c >= Next(). Kernels that batch instructions stop at it.
func (s *Sampler) Next() int64 { return s.next }

// Record stores one sample at the given cycle and advances the next fire
// time past it (skipped intervals collapse into one sample). Extra values
// are dropped and missing ones zero-filled, so a column-count mismatch
// cannot corrupt the ring.
func (s *Sampler) Record(cycle int64, vals ...float64) {
	var slot *Sample
	if s.count < len(s.buf) {
		slot = &s.buf[(s.head+s.count)%len(s.buf)]
		s.count++
	} else {
		slot = &s.buf[s.head]
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
	}
	slot.Cycle = cycle
	for i := range slot.Vals {
		if i < len(vals) {
			slot.Vals[i] = vals[i]
		} else {
			slot.Vals[i] = 0
		}
	}
	if cycle >= s.next {
		s.next = (cycle/s.interval + 1) * s.interval
	}
}

// Len returns the number of retained samples.
func (s *Sampler) Len() int { return s.count }

// Dropped returns how many samples were overwritten after the ring filled.
func (s *Sampler) Dropped() int64 { return s.dropped }

// Samples returns the retained samples oldest-first (copies).
func (s *Sampler) Samples() []Sample {
	out := make([]Sample, 0, s.count)
	for i := 0; i < s.count; i++ {
		src := s.buf[(s.head+i)%len(s.buf)]
		out = append(out, Sample{Cycle: src.Cycle, Vals: append([]float64(nil), src.Vals...)})
	}
	return out
}

// Column returns the series of one named column oldest-first (nil when the
// column does not exist).
func (s *Sampler) Column(name string) []float64 {
	idx := -1
	for i, c := range s.cols {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, 0, s.count)
	for i := 0; i < s.count; i++ {
		out = append(out, s.buf[(s.head+i)%len(s.buf)].Vals[idx])
	}
	return out
}

// WriteCSV emits the series as CSV: a "cycle,<col>,..." header followed by
// one row per retained sample, oldest first.
func (s *Sampler) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("cycle")
	for _, c := range s.cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for i := 0; i < s.count; i++ {
		b.Reset()
		sm := &s.buf[(s.head+i)%len(s.buf)]
		b.WriteString(strconv.FormatInt(sm.Cycle, 10))
		for _, v := range sm.Vals {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// seriesJSON is the JSON shape of an exported sampler.
type seriesJSON struct {
	Interval int64    `json:"interval"`
	Columns  []string `json:"columns"`
	Dropped  int64    `json:"dropped"`
	Samples  []Sample `json:"samples"`
}

// WriteJSON emits the series as a single JSON document.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(seriesJSON{
		Interval: s.interval,
		Columns:  s.Columns(),
		Dropped:  s.dropped,
		Samples:  s.Samples(),
	})
}

// Info summarizes the sampler for the run manifest.
func (s *Sampler) Info() SeriesInfo {
	return SeriesInfo{
		Interval: s.interval,
		Columns:  s.Columns(),
		Count:    s.count,
		Dropped:  s.dropped,
	}
}

// String renders a one-line summary (debug / progress logs).
func (s *Sampler) String() string {
	return fmt.Sprintf("sampler{interval=%d cols=%d kept=%d dropped=%d}",
		s.interval, len(s.cols), s.count, s.dropped)
}
