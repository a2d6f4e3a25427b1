// Command cwspsim runs one workload under one crash-consistency scheme on
// the cycle-level machine and prints the run statistics.
//
// Usage:
//
//	cwspsim -w lbm                          # cWSP on the default machine
//	cwspsim -w lbm -scheme base             # the uninstrumented baseline
//	cwspsim -w radix -scheme capri -bw 32   # Capri with a 32 GB/s persist path
//	cwspsim -w tatp -compare                # baseline + cWSP, with slowdown
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/nvmtech"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

func main() {
	var (
		wName   = flag.String("w", "", "workload name")
		schName = flag.String("scheme", "cwsp", "scheme: base, cwsp, capri, ido, replaycache, psp-ideal, ...")
		scale   = flag.String("scale", "quick", "workload scale: smoke, quick, full")
		bw      = flag.Float64("bw", 4, "persist path bandwidth in GB/s")
		tech    = flag.String("nvm", "PMEM", "NVM technology: PMEM, STTRAM, ReRAM, CXL-A..D")
		l3      = flag.Bool("l3", false, "use the deeper 3-level SRAM hierarchy")
		compare = flag.Bool("compare", false, "also run the baseline and print the slowdown")
		jsonOut = flag.Bool("json", false, "emit statistics as JSON")
		mt      = flag.Int("mt", 0, "run the lock-based multicore benchmark on N cores instead of -w")
		irFile  = flag.String("ir", "", "run a program from a text-IR file (see cwspc -emit-ir) instead of -w")
		traceTo = flag.String("trace", "", "write a machine event trace (regions/persists/syncs/calls) to this file")
		traceN  = flag.Int64("trace-limit", 100000, "maximum trace events")
		perfTo  = flag.String("trace-perfetto", "", "write a Chrome trace-event JSON (loadable in ui.perfetto.dev) to this file")
		metOut  = flag.String("metrics-out", "", "write a versioned run manifest (config, stats, histograms, series) to this JSON file")
		tsOut   = flag.String("timeseries", "", "write the sampled telemetry time series as CSV to this file")
		smplIv  = flag.Int64("sample-interval", 4096, "telemetry sampling interval in cycles (with -metrics-out/-timeseries)")
		kernel  = flag.String("kernel", "threaded", "simulation kernel: threaded (the production kernel; telemetry and tracing run on it) or reference (the per-instruction oracle stepper); both bit-identical, for cross-checking")
	)
	flag.Parse()
	if *wName == "" && *mt == 0 && *irFile == "" {
		fmt.Fprintln(os.Stderr, "cwspsim: need -w <workload>, -ir <file>, or -mt <cores> (see cwspc -list)")
		os.Exit(2)
	}
	sch, ok := schemes.ByName(*schName)
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *schName))
	}

	cfg := sim.DefaultConfig().PersistPathGBs(*bw)
	switch k := sim.KernelKind(*kernel); k {
	case sim.KernelThreaded, sim.KernelReference:
		cfg.Kernel = k
	default:
		fatal(fmt.Errorf("unknown kernel %q (want %s or %s)", *kernel, sim.KernelThreaded, sim.KernelReference))
	}
	if t, ok := nvmtech.All[*tech]; ok {
		cfg = cfg.WithNVM(t)
	} else {
		fatal(fmt.Errorf("unknown NVM technology %q", *tech))
	}
	if *l3 {
		cfg = cfg.WithL3()
	}
	cfg = schemes.ConfigFor(sch, cfg)

	var prog *ir.Program
	var specs []sim.ThreadSpec
	name := *wName
	preCompiled := false
	if *irFile != "" {
		fh, err := os.Open(*irFile)
		if err != nil {
			fatal(err)
		}
		prog, err = ir.UnmarshalText(fh)
		fh.Close()
		if err != nil {
			fatal(err)
		}
		name = *irFile
		specs = []sim.ThreadSpec{{Fn: prog.Entry}}
		// A file that already contains regions is treated as compiled.
		preCompiled = prog.EntryFunc().NumRegions > 0
	} else if *mt > 0 {
		name = fmt.Sprintf("mtworker x%d", *mt)
		prog = workloads.BuildMTWorker()
		cfg.Cores = *mt
		iters := int64(4096 / *mt)
		for t := 0; t < *mt; t++ {
			specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(t), iters}})
		}
	} else {
		w, err := workloads.ByName(*wName)
		if err != nil {
			fatal(err)
		}
		prog = w.Build(scaleOf(*scale))
		specs = []sim.ThreadSpec{{Fn: prog.Entry}}
	}
	run := prog
	if schemes.NeedsCompiledProgram(sch) && !preCompiled {
		var err error
		run, _, err = compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			fatal(err)
		}
	}

	// Trace output is buffered; fatal() calls os.Exit, so flushes are
	// collected and run explicitly after the run rather than deferred.
	var tracers sim.MultiTracer
	var flushes []func() error
	if *traceTo != "" {
		fh, err := os.Create(*traceTo)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(fh)
		tracers = append(tracers, &sim.WriteTracer{W: bw, Limit: *traceN})
		flushes = append(flushes, func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return fh.Close()
		})
	}
	if *perfTo != "" {
		fh, err := os.Create(*perfTo)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(fh)
		pt := sim.NewPerfettoTracer(bw)
		pt.SetLimit(*traceN)
		tracers = append(tracers, pt)
		flushes = append(flushes, func() error {
			if err := pt.Close(); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			return fh.Close()
		})
	}
	var tracer sim.Tracer
	switch len(tracers) {
	case 0:
	case 1:
		tracer = tracers[0]
	default:
		tracer = tracers
	}

	telemetryOn := *metOut != "" || *tsOut != ""
	m, st := runOne(run, cfg, sch, specs, tracer, telemetryOn, *smplIv)
	for _, fl := range flushes {
		if err := fl(); err != nil {
			fatal(err)
		}
	}
	if *metOut != "" {
		man, err := m.BuildManifest("cwspsim", name, *scale)
		if err != nil {
			fatal(err)
		}
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
	if *tsOut != "" {
		fh, err := os.Create(*tsOut)
		if err != nil {
			fatal(err)
		}
		if err := m.Telemetry().WriteSeriesCSV(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{
			"workload": name, "scheme": sch.Name, "stats": st,
			"derived": st.Derived(),
		}); err != nil {
			fatal(err)
		}
	} else {
		printStats(name, sch.Name, st)
	}

	if *compare {
		_, base := runOne(prog, cfg, sim.Baseline(), specs, nil, false, 0)
		if !*jsonOut {
			printStats(name, "base", base)
		}
		fmt.Printf("\nslowdown (%s / base): %.3f\n", sch.Name, st.Slowdown(base))
	}
}

func runOne(p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, tracer sim.Tracer, telemetry bool, sampleIv int64) (*sim.Machine, sim.Stats) {
	m, err := sim.NewThreaded(p, cfg, sch, specs)
	if err != nil {
		fatal(err)
	}
	if telemetry {
		m.EnableTelemetry(sim.TelemetryOptions{SampleInterval: sampleIv})
	}
	m.SetTracer(tracer)
	res, err := m.Run()
	if err != nil {
		fatal(err)
	}
	return m, res.Stats
}

func printStats(app, scheme string, s sim.Stats) {
	fmt.Printf("== %s under %s ==\n", app, scheme)
	fmt.Printf("cycles            %12d\n", s.Cycles)
	fmt.Printf("instructions      %12d (IPC %.2f)\n", s.Instrs, s.IPC())
	fmt.Printf("loads/stores      %12d / %d\n", s.Loads, s.Stores)
	fmt.Printf("regions           %12d (%.1f instr/region)\n", s.Regions, s.IPR())
	fmt.Printf("checkpoint stores %12d\n", s.Ckpts)
	fmt.Printf("persist bytes     %12d (+%d undo-log bytes)\n", s.PersistBytes, s.LogBytes)
	fmt.Printf("NVM reads         %12d  WPQ hits/Minstr %.2f\n", s.NVMReads, s.WPQHPMI())
	fmt.Printf("stalls: PB %d  RBT %d  WB %d  drain %d  boundary %d  wpq-load %d\n",
		s.PBStallCyc, s.RBTStallCyc, s.WBStallCyc, s.DrainStallCyc, s.BoundaryStall, s.WPQLoadDelay)
	fmt.Printf("L1D miss %.3f  WB avg occupancy %.3f\n\n", s.L1DMissRate(), s.WBAvgOcc)
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
	fmt.Fprintln(os.Stderr, "cwspsim:", err)
	os.Exit(1)
}
