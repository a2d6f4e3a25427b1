package bench

import (
	"fmt"
	"io"
	"time"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry/benchfmt"
	"cwsp/internal/workloads"
)

// kernelBenchCase is one cell of the kernel comparison matrix `make
// bench-kernel` measures: a workload at quick scale on one scheme and
// core count, timed as a full machine build + run on the reference
// oracle, on the threaded production kernel, and on the threaded kernel
// with telemetry attached. The list mirrors simtest's BenchmarkRunUntil
// so the go-test benchmarks and the recorded trajectory describe the
// same cells.
type kernelBenchCase struct {
	name          string
	scheme        string
	cores         int
	dispatchBound bool
	build         func() (*ir.Program, error)
}

func quickKernelWorkload(name string, compile bool) func() (*ir.Program, error) {
	return func() (*ir.Program, error) {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p := w.Build(workloads.Quick)
		if compile {
			p, _, err = compiler.Compile(p, compiler.DefaultOptions())
			if err != nil {
				return nil, err
			}
		}
		return p, nil
	}
}

func kernelBenchCases() []kernelBenchCase {
	compiled := func() (*ir.Program, error) {
		p, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
		return p, err
	}
	return []kernelBenchCase{
		{name: "tatp", scheme: "cwsp", cores: 1, build: quickKernelWorkload("tatp", true)},
		{name: "lbm", scheme: "cwsp", cores: 1, build: quickKernelWorkload("lbm", true)},
		{name: "sps", scheme: "cwsp", cores: 1, build: quickKernelWorkload("sps", true)},
		{name: "kmeans", scheme: "cwsp", cores: 1, build: quickKernelWorkload("kmeans", true)},
		{name: "xsbench", scheme: "base", cores: 1, build: quickKernelWorkload("xsbench", false)},
		{name: "compute", scheme: "base", cores: 1, dispatchBound: true,
			build: func() (*ir.Program, error) { return workloads.BuildComputeKernel(), nil }},
		{name: "mt", scheme: "cwsp", cores: 2, build: compiled},
		{name: "mt", scheme: "cwsp", cores: 4, build: compiled},
	}
}

// kernelSliceTarget is the minimum wall time one variant gets per
// measurement round; short cells repeat within a slice, so fast variants
// collect many timed runs per round while slow ones take one.
const kernelSliceTarget = 20 * time.Millisecond

// RunKernelBench measures every kernel comparison cell and returns the
// profile for the BENCH_kernel.json trajectory. Per cell it runs `rounds`
// rounds; each round gives the reference, threaded, and threaded+telemetry
// variants one time slice apiece, back to back, and every variant keeps
// its fastest single run. Interleaving exposes all three to the same
// machine, and co-tenant noise only ever slows a run down, so the minimum
// over many runs converges on the undisturbed time and the ratio columns
// come as close to a pure kernel comparison as a wall-clock measurement
// gets. It also cross-checks the equivalence contract cheaply: every
// variant must report identical simulated cycle and instruction counts.
func RunKernelBench(rounds int, log io.Writer) (*benchfmt.KernelProfile, error) {
	if rounds <= 0 {
		rounds = 20
	}
	type variant struct {
		name   string
		kernel sim.KernelKind
		tel    bool
	}
	variants := []variant{
		{"reference", sim.KernelReference, false},
		{"threaded", sim.KernelThreaded, false},
		{"threaded+telemetry", sim.KernelThreaded, true},
	}
	prof := &benchfmt.KernelProfile{}
	for _, bc := range kernelBenchCases() {
		p, err := bc.build()
		if err != nil {
			return nil, fmt.Errorf("kernel bench %s: %w", bc.name, err)
		}
		sch, ok := schemes.ByName(bc.scheme)
		if !ok {
			return nil, fmt.Errorf("kernel bench %s: unknown scheme %s", bc.name, bc.scheme)
		}
		specs := []sim.ThreadSpec{{Fn: p.Entry}}
		if bc.name == "mt" {
			specs = nil
			for i := 0; i < bc.cores; i++ {
				specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), 600}})
			}
		}
		run := func(v variant) (sim.Stats, error) {
			cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
			cfg.Kernel = v.kernel
			m, err := sim.NewThreaded(p, cfg, sch, specs)
			if err != nil {
				return sim.Stats{}, err
			}
			if v.tel {
				m.EnableTelemetry(sim.TelemetryOptions{})
			}
			res, err := m.Run()
			if err != nil {
				return sim.Stats{}, err
			}
			return res.Stats, nil
		}
		// Warm every variant once: pools, paged memory, and the
		// translation cache all populate outside the timed batches.
		var st sim.Stats
		for i, v := range variants {
			vs, err := run(v)
			if err != nil {
				return nil, fmt.Errorf("kernel bench %s (%s): %w", bc.name, v.name, err)
			}
			if i == 0 {
				st = vs
			} else if vs.Cycles != st.Cycles || vs.Instrs != st.Instrs {
				return nil, fmt.Errorf("kernel bench %s: %s diverged from reference (%d cycles/%d instrs, reference %d/%d)",
					bc.name, v.name, vs.Cycles, vs.Instrs, st.Cycles, st.Instrs)
			}
		}
		fastest := make([]time.Duration, len(variants))
		for r := 0; r < rounds; r++ {
			for i, v := range variants {
				for slice := time.Duration(0); slice < kernelSliceTarget; {
					start := time.Now()
					if _, err := run(v); err != nil {
						return nil, fmt.Errorf("kernel bench %s (%s): %w", bc.name, v.name, err)
					}
					d := time.Since(start)
					if fastest[i] == 0 || d < fastest[i] {
						fastest[i] = d
					}
					slice += d
				}
			}
		}
		best := make([]float64, len(variants))
		for i, d := range fastest {
			best[i] = float64(st.Instrs) / float64(d.Nanoseconds()) * 1e3
		}
		cell := benchfmt.KernelCell{
			Name:             fmt.Sprintf("%s_%s_x%d", bc.name, bc.scheme, bc.cores),
			Cycles:           st.Cycles,
			Instrs:           st.Instrs,
			ReferenceMinstrS: best[0],
			ThreadedMinstrS:  best[1],
			TelemetryMinstrS: best[2],
			DispatchBound:    bc.dispatchBound,
		}
		if best[0] > 0 {
			cell.Speedup = best[1] / best[0]
		}
		if best[2] > 0 {
			cell.TelemetryOverhead = best[1] / best[2]
		}
		if log != nil {
			fmt.Fprintf(log, "kernel %-18s reference %8.2f  threaded %8.2f  +telemetry %8.2f Minstr/s  speedup %.2fx  telemetry %.3fx\n",
				cell.Name, cell.ReferenceMinstrS, cell.ThreadedMinstrS, cell.TelemetryMinstrS, cell.Speedup, cell.TelemetryOverhead)
		}
		prof.Cells = append(prof.Cells, cell)
	}
	return prof, nil
}
