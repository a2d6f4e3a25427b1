package simtest

import (
	"fmt"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// benchCase is one BenchmarkRunUntil cell: a workload at quick scale on
// one scheme and core count. The timed unit is a full machine build + run,
// which is how every experiment driver consumes the kernel.
type benchCase struct {
	name   string
	scheme string
	cores  int
	build  func(b *testing.B) *ir.Program
}

func quickWorkload(name string, compiled bool) func(b *testing.B) *ir.Program {
	return func(b *testing.B) *ir.Program {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(workloads.Quick)
		if compiled {
			p, _, err = compiler.Compile(p, compiler.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
}

// computeKernel is the dispatch-bound extreme of the kernel matrix — on
// the app workloads the memory system and persist path bound both
// kernels, so this cell is where interpreter-dispatch cost itself (the
// thing the threaded backend removes) is actually visible.
func computeKernel(b *testing.B) *ir.Program {
	p := workloads.BuildComputeKernel()
	if err := ir.VerifyProgram(p); err != nil {
		b.Fatal(err)
	}
	return p
}

func mtWorker(b *testing.B) *ir.Program {
	p, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkRunUntil(b *testing.B) {
	cases := []benchCase{
		{name: "tatp", scheme: "cwsp", cores: 1, build: quickWorkload("tatp", true)},
		{name: "lbm", scheme: "cwsp", cores: 1, build: quickWorkload("lbm", true)},
		{name: "sps", scheme: "cwsp", cores: 1, build: quickWorkload("sps", true)},
		{name: "kmeans", scheme: "cwsp", cores: 1, build: quickWorkload("kmeans", true)},
		{name: "xsbench", scheme: "base", cores: 1, build: quickWorkload("xsbench", false)},
		{name: "compute", scheme: "base", cores: 1, build: computeKernel},
		{name: "mt", scheme: "cwsp", cores: 2, build: mtWorker},
		{name: "mt", scheme: "cwsp", cores: 4, build: mtWorker},
	}
	// Every cell runs once per kernel: the reference/threaded
	// sub-benchmark pairs are what `make bench-kernel` reports and what
	// the BENCH_kernel.json trajectory gates.
	for _, bc := range cases {
		for _, kernel := range []sim.KernelKind{sim.KernelReference, sim.KernelThreaded} {
			b.Run(fmt.Sprintf("%s_%s_x%d/%s", bc.name, bc.scheme, bc.cores, kernel), func(b *testing.B) {
				sch, ok := schemes.ByName(bc.scheme)
				if !ok {
					b.Fatalf("unknown scheme %s", bc.scheme)
				}
				cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
				cfg.Kernel = kernel
				p := bc.build(b)
				specs := []sim.ThreadSpec{{Fn: p.Entry}}
				if bc.name == "mt" {
					specs = nil
					for i := 0; i < bc.cores; i++ {
						specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), 600}})
					}
				}
				var cycles, instrs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := sim.NewThreaded(p, cfg, sch, specs)
					if err != nil {
						b.Fatal(err)
					}
					res, err := m.Run()
					if err != nil {
						b.Fatal(err)
					}
					cycles, instrs = res.Stats.Cycles, res.Stats.Instrs
				}
				b.StopTimer()
				if instrs > 0 {
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(float64(instrs)/ns*1e3, "Minstr/s")
					b.ReportMetric(float64(cycles), "cycles")
				}
			})
		}
	}
}
