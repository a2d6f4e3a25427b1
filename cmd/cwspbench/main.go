// Command cwspbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	cwspbench -list                # show every experiment
//	cwspbench -exp fig13           # reproduce Figure 13 (quick scale)
//	cwspbench -exp fig14 -scale full
//	cwspbench -exp all -scale quick  # the whole evaluation section
//
// Experiments decompose into independent simulation cells that run on a
// worker pool (-jobs, default GOMAXPROCS) and memoize in a persistent
// store (-cache-dir): a repeated sweep is served from the cache, and an
// interrupted one resumes where it stopped. Parallelism and caching never
// change report bytes.
//
//	cwspbench -exp all -jobs 8 -cache-dir .cwsp-cache
//	cwspbench -exp fig21 -cache-dir .cwsp-cache -resume=false  # refresh
//
// A running sweep is observable over HTTP (-http): Prometheus /metrics,
// a JSON /progress snapshot, an SSE /events stream, and /debug/pprof.
// The bench trajectory is tracked with -bench-out (emit a versioned
// BENCH_<name>.json record) and -bench-check (gate a record against a
// committed baseline; see `make bench-check`):
//
//	cwspbench -exp all -jobs 8 -http :8080
//	cwspbench -exp fig06 -bench-out BENCH_smoke.json
//	cwspbench -bench-in BENCH_smoke.json -bench-check baselines/BENCH_smoke.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cwsp/internal/bench"
	"cwsp/internal/telemetry"
	"cwsp/internal/telemetry/benchfmt"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/workloads"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id(s), comma separated, or \"all\" (fig01..fig27, hwcost, compiler, abl-*)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments and exit")
		scale    = flag.String("scale", "quick", "workload scale: smoke, quick, full")
		perApp   = flag.Bool("per-app", false, "per-application rows where the paper aggregates")
		csv      = flag.Bool("csv", false, "emit CSV instead of a text table")
		metOut   = flag.String("metrics-out", "", "also collect every report into a versioned manifest JSON file")
		jobs     = flag.Int("jobs", 0, "parallel simulation cells (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache-dir", "", "persistent per-cell result cache; repeated sweeps become cache hits")
		resume   = flag.Bool("resume", true, "serve cells from an existing cache (false recomputes and refreshes it)")
		httpAddr = flag.String("http", "", "serve the live observability endpoint (/metrics, /progress, /events, /debug/pprof) on this address")
		benchOut    = flag.String("bench-out", "", "emit a benchfmt trajectory record (BENCH_<name>.json) for this sweep")
		benchKernel = flag.Bool("bench-kernel", false, "measure the simulation-kernel comparison (reference vs threaded vs threaded+telemetry per cell) instead of running experiments")
		kernelReps  = flag.Int("bench-kernel-reps", 20, "interleaved measurement rounds per cell (each variant keeps its fastest run)")
		benchIn  = flag.String("bench-in", "", "with -bench-check: compare this existing record instead of running experiments")
		checkVs  = flag.String("bench-check", "", "gate the sweep's record against this baseline record; exit 1 on regression")
		strict   = flag.Bool("bench-strict", false, "enforce wall-clock gates even across differing host fingerprints")
		tol      = flag.Float64("bench-tol", 0.15, "fractional regression tolerance for bench-check")
		verbose  = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	// Compare-only mode: gate an existing record without simulating.
	if *benchIn != "" {
		if *checkVs == "" {
			fatal(fmt.Errorf("-bench-in needs -bench-check <baseline>"))
		}
		cur, err := benchfmt.ReadFile(*benchIn)
		if err != nil {
			fatal(err)
		}
		os.Exit(checkRecord(cur, *checkVs, *tol, *strict))
	}

	// Kernel-comparison mode: in-process measurement of every kernel
	// matrix cell, emitted as a BENCH_kernel.json trajectory record.
	if *benchKernel {
		prof, err := bench.RunKernelBench(*kernelReps, os.Stderr)
		if err != nil {
			fatal(err)
		}
		name := "kernel"
		if *benchOut != "" {
			name = benchfmt.NameFromPath(*benchOut)
		} else if *checkVs != "" {
			name = benchfmt.NameFromPath(*checkVs)
		}
		rec := benchfmt.New(name, "cwspbench")
		rec.Salt = bench.ResultsSalt
		rec.Kernel = prof
		if *benchOut != "" {
			if err := rec.WriteFile(*benchOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cwspbench: wrote trajectory record %s\n", *benchOut)
		}
		if *checkVs != "" {
			os.Exit(checkRecord(rec, *checkVs, *tol, *strict))
		}
		return
	}

	opt := bench.Options{
		Scale:    scaleOf(*scale),
		PerApp:   *perApp,
		Jobs:     *jobs,
		CacheDir: *cacheDir,
		NoResume: !*resume,
	}
	if *verbose {
		opt.Log = os.Stderr
	}

	var srv *live.Server
	liveAddr := ""
	if *httpAddr != "" {
		srv = live.NewServer(live.NewBus())
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		liveAddr = addr
		opt.Bus = srv.Bus()
		fmt.Fprintf(os.Stderr, "cwspbench: live endpoint on http://%s (/metrics /progress /events /debug/pprof)\n", addr)
		defer srv.Close()
	}
	h := bench.NewHarness(opt)
	if srv != nil {
		srv.RegisterHistograms(h.LiveHistograms)
	}

	var ids []string
	switch {
	case *all || *expID == "all":
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	case *expID != "":
		ids = strings.Split(*expID, ",")
	default:
		fmt.Fprintln(os.Stderr, "cwspbench: need -exp <id>, -exp all, or -all (see -list)")
		os.Exit(2)
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	var reports []telemetry.BenchReport
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		rep, err := h.RunExperiment(e)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			fmt.Print(rep.Table())
			fmt.Printf("(%s in %v at %s scale)\n\n", id, time.Since(start).Round(time.Millisecond), opt.Scale.Name)
		}
		if *metOut != "" {
			reports = append(reports, rep.TelemetryReport())
		}
	}

	if err := h.Close(); err != nil {
		fatal(err)
	}
	if ri := h.RunnerSummary(); ri != nil && !*csv {
		fmt.Printf("runner: %d jobs, %d cells (%d cache hits, %d shared, %d executed) in %dms pool time\n",
			ri.Jobs, ri.Cells, ri.CacheHits, ri.Shared, ri.Executed, ri.WallMS)
	}

	if *metOut != "" {
		man := telemetry.NewManifest("cwspbench")
		man.Scale = opt.Scale.Name
		man.Salt = bench.ResultsSalt
		man.LiveAddr = liveAddr
		man.Reports = reports
		man.Runner = h.RunnerSummary()
		fh, err := os.Create(*metOut)
		if err != nil {
			fatal(err)
		}
		if err := man.Write(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
	}

	if *benchOut != "" || *checkVs != "" {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		name := "smoke"
		if *benchOut != "" {
			name = benchfmt.NameFromPath(*benchOut)
		} else if *checkVs != "" {
			name = benchfmt.NameFromPath(*checkVs)
		}
		rec := benchfmt.New(name, "cwspbench")
		rec.Salt = bench.ResultsSalt
		rec.Scale = opt.Scale.Name
		rec.Experiments = ids
		rec.FromRunner(h.RunnerSummary())
		rec.Allocs = memAfter.Mallocs - memBefore.Mallocs
		rec.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		if *benchOut != "" {
			if err := rec.WriteFile(*benchOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cwspbench: wrote trajectory record %s\n", *benchOut)
		}
		if *checkVs != "" {
			os.Exit(checkRecord(rec, *checkVs, *tol, *strict))
		}
	}
}

// checkRecord gates cur against the baseline at path; returns the exit
// code (0 pass, 1 regression).
func checkRecord(cur *benchfmt.Record, baselinePath string, tol float64, strict bool) int {
	base, err := benchfmt.ReadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	cmp, err := benchfmt.Compare(base, cur, benchfmt.CompareOptions{Tol: tol, Strict: strict})
	if err != nil {
		fatal(err)
	}
	cmp.Write(os.Stdout)
	if cmp.Failed() {
		fmt.Fprintln(os.Stderr, "cwspbench: bench-check FAILED: enforced metric regressed beyond tolerance")
		return 1
	}
	fmt.Println("bench-check: ok")
	return 0
}

func scaleOf(s string) workloads.Scale {
	switch s {
	case "full":
		return workloads.Full
	case "smoke":
		return workloads.Smoke
	default:
		return workloads.Quick
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwspbench:", err)
	os.Exit(1)
}
