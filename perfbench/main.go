// Command perfbench is the repository's host-performance benchmark: it
// drives the simulator, recovery checker, experiment runner, campaign
// daemon and telemetry exporters through their public functions on a
// seed-determined list of operations, checks every simulated output
// against pinned values, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// defaultSeed is the seed whose recover outcome table is pinned.
const defaultSeed = 1

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median, which keeps one slow repetition from moving it. Set-ups
// under a tenth of a second repeat cheapSetupReps times instead.
const (
	setupReps      = 5
	cheapSetupReps = 21
)

// maxWorkers is the host's CPU count: no workload keeps more than this
// many workers or clients busy at once.
const maxWorkers = 2

// Env is what a workload gets from the command line.
type Env struct {
	Seed    int64
	Seconds int
	Trace   *Tracer // nil in untraced runs
	WorkDir string  // scratch directory inside the checkout, removed at exit
	Pinned  *Pinned
	Pin     bool // record outputs into Pinned instead of checking them
}

// Result is what one workload run measured.
type Result struct {
	SetupS    []float64
	Wall      time.Duration
	CPU       time.Duration
	LatMS     []float64 // one per op
	Attempted int
	Failed    int
	Layers    map[string]float64 // per-layer metrics (traced run only)
	runtime0  map[string]float64 // runtime/metrics at timed-phase start
	runtime1  map[string]float64 // and at its end
	failures  []string           // first few failure messages
	offWall   time.Duration      // timed-phase work done off the clock
	offCPU    time.Duration
}

// offClock runs f inside the timed phase with the clock stopped: its wall
// and CPU time are taken out of the phase's.
func (r *Result) offClock(f func() error) error {
	t0, cpu0 := time.Now(), cpuTime()
	err := f()
	r.offWall += time.Since(t0)
	r.offCPU += cpuTime() - cpu0
	return err
}

// fail records one failed or wrong op.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(env *Env, res *Result) error

var workloadsByName = map[string]workloadFunc{
	"sweep":   runSweep,
	"recover": runRecover,
	"daemon":  runDaemon,
	"observe": runObserve,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "sweep, recover, daemon or observe")
		seed    = flag.Int64("seed", defaultSeed, "seed the op list is drawn from")
		seconds = flag.Int("seconds", 10, "nominal timed-phase length; sizes the op list")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		pin     = flag.String("pin", "", "record the pinned outputs of this workload into the given file instead of checking them")
	)
	flag.Parse()
	fn, ok := workloadsByName[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	pinned, err := loadPinned(*pin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	work, err := filepath.Abs(filepath.Join(base, fmt.Sprintf("perfbench-work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := &Env{Seed: *seed, Seconds: *seconds, WorkDir: work, Pinned: pinned, Pin: *pin != ""}
	if *trace == 1 {
		env.Trace = newTracer()
	}
	res := &Result{}
	if err := fn(env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
	if env.Pin {
		if err := pinned.save(*pin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: pinned %s outputs into %s\n", *wl, *pin)
	}

	out := map[string]any{}
	put := func(name, unit string, v float64) {
		out[name] = map[string]any{"value": v, "unit": unit}
	}
	if env.Trace == nil {
		p50 := Median(res.LatMS)
		p90, err := Percentile(res.LatMS, 0.9)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: req_p90_ms: %v\n", err)
			return 1
		}
		put("setup_s", "s", Median(res.SetupS))
		put("ops_per_s", "1/s", float64(res.Attempted)/res.Wall.Seconds())
		put("req_p50_ms", "ms", p50)
		put("req_p90_ms", "ms", p90)
		put("cpu_s", "s", res.CPU.Seconds())
		put("peak_rss_mb", "MB", peakRSSMB())
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops=%d wall=%.3fs setup=%.4f latency samples=%d\n",
			*wl, *seed, res.Attempted, res.Wall.Seconds(), res.SetupS, len(res.LatMS))
	} else {
		layers := perLayer(env, res)
		for _, m := range perLayerMetrics {
			put(m[0], m[1], layers[m[0]])
		}
		path := filepath.Join(filepath.Dir(work), "perfbench-trace-"+*wl+".jsonl")
		if err := env.Trace.WriteJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d spans written to %s\n", *wl, len(env.Trace.Spans()), path)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs a workload's set-up reps times (tearing down all but
// the last), then its timed phase once, filling the timing fields of res.
// In a traced run only the last set-up repetition and the timed phase are
// kept. The op count, latencies and failures are the workload's to fill.
func measure[S any](env *Env, res *Result, reps int, setup func() (S, error), teardown func(S), timed func(S) error) error {
	var st S
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			teardown(st)
		}
		if rep == reps-1 {
			env.Trace.Reset()
		}
		// Every repetition starts from a collected heap, so one does not
		// pay for collecting another's garbage.
		runtime.GC()
		t := time.Now()
		s, err := setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		st = s
	}
	defer teardown(st)
	runtime.GC()
	cpu0 := cpuTime()
	res.runtime0 = readRuntime()
	t0 := time.Now()
	err := timed(st)
	res.Wall = time.Since(t0) - res.offWall
	res.CPU = cpuTime() - cpu0 - res.offCPU
	res.runtime1 = readRuntime()
	return err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}
