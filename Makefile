# cWSP reproduction — common targets.

GO ?= go

.PHONY: all build test test-short bench bench-smoke bench-check bench-baseline bench-kernel bench-kernel-check bench-kernel-baseline bench-kernel-gotest fuzz-smoke torture-smoke torture litmus-smoke litmus cwspd-smoke chaos-smoke service-load service-check service-baseline lint repro repro-quick examples trace metrics clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the full-scale shape experiments (minutes faster).
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end exercise of the parallel experiment runner: one figure on a
# 4-wide pool with a persistent cache, run twice — the second invocation
# must be served entirely from the store. The cold run emits the bench
# trajectory record BENCH_smoke.json (gitignored; gate it with
# `make bench-check`, refresh the committed baseline with
# `make bench-baseline`).
bench-smoke:
	rm -rf .cwsp-cache-smoke
	$(GO) run ./cmd/cwspbench -exp fig06 -scale smoke -jobs 4 -cache-dir .cwsp-cache-smoke -bench-out BENCH_smoke.json
	$(GO) run ./cmd/cwspbench -exp fig06 -scale smoke -jobs 4 -cache-dir .cwsp-cache-smoke
	rm -rf .cwsp-cache-smoke

# Gate the freshest BENCH_smoke.json against the committed baseline:
# structural metrics (cell counts) always enforced; latency quantiles
# enforced when the host fingerprint matches the baseline's; wall-clock
# advisory. Exit 1 on regression beyond the 15% tolerance.
bench-check: BENCH_smoke.json
	$(GO) run ./cmd/cwspbench -bench-in BENCH_smoke.json -bench-check baselines/BENCH_smoke.json

BENCH_smoke.json:
	$(MAKE) bench-smoke

# Refresh the committed baseline from a fresh cold run on this machine.
bench-baseline:
	$(MAKE) bench-smoke
	cp BENCH_smoke.json baselines/BENCH_smoke.json

# Simulation-kernel comparison (quick-scale workloads × schemes × core
# counts; reference, threaded, and threaded with telemetry measured in
# interleaved rounds): emits the
# bench trajectory record BENCH_kernel.json (gitignored; gate it with
# `make bench-kernel-check`, refresh the committed baseline with
# `make bench-kernel-baseline`). See EXPERIMENTS.md "Kernel benchmarks"
# for the recorded numbers and the per-cell Amdahl breakdown.
bench-kernel:
	$(GO) run ./cmd/cwspbench -bench-kernel -bench-out BENCH_kernel.json

# Gate the freshest BENCH_kernel.json against the committed baseline:
# simulated cycle/instruction counts enforced exactly (a drift means the
# kernels are not running the same simulation), the dispatch-bound
# cell's >= 13.4x threaded/reference speedup and every cell's <= 1.25x
# telemetry overhead enforced on any host, absolute Minstr/s enforced
# only between matching host fingerprints.
bench-kernel-check: BENCH_kernel.json
	$(GO) run ./cmd/cwspbench -bench-in BENCH_kernel.json -bench-check baselines/BENCH_kernel.json

BENCH_kernel.json:
	$(MAKE) bench-kernel

# Refresh the committed kernel baseline from a fresh run on this machine.
bench-kernel-baseline:
	$(MAKE) bench-kernel
	cp BENCH_kernel.json baselines/BENCH_kernel.json

# The same cells as go-test benchmarks with allocation counts
# (per-kernel sub-benchmarks; slower, but -benchmem shows the threaded
# kernel's zero steady-state allocations).
bench-kernel-gotest:
	$(GO) test ./internal/simtest -run xxx -bench RunUntil -benchmem -benchtime 10x

# Short differential-fuzz passes: the kernel-equivalence target (progen
# seed × scheme × crash point, threaded must agree with reference
# byte-for-byte), its observed arm (the same plus a fuzzed telemetry
# sample interval and both tracers attached: manifests, series and
# traces must agree too), the litmus spec grammar round-trip
# (spec string → plan → spec), and the campaign-journal decoder
# (arbitrary bytes → longest verifiable prefix, re-decode stable, fold
# never panics).
fuzz-smoke:
	$(GO) test ./internal/simtest -run xxx -fuzz FuzzKernelEquivalence -fuzztime 20s
	$(GO) test ./internal/simtest -run xxx -fuzz FuzzThreadedEquivalence -fuzztime 10s
	$(GO) test ./internal/litmus -run xxx -fuzz FuzzLitmusSpec -fuzztime 10s
	$(GO) test ./internal/service -run xxx -fuzz FuzzJournalDecode -fuzztime 10s

# Small seeded fault-injection campaign with nested crash-during-recovery
# (depth 2). A failure prints the shrunk `cwsprecover -faults '<spec>'`
# reproducer command; paste it to replay the cell standalone.
torture-smoke:
	$(GO) run ./cmd/cwsptorture -seed 1 -n 4 -w tatp,rb,kmeans -depth 2 -points 3

# Acceptance-scale campaign: 500 cells (100 seeded plans x 5 workloads),
# nested crashes, zero silent divergences required.
torture:
	$(GO) run ./cmd/cwsptorture -seed 1 -n 100 -depth 2 -points 3 -out torture-report.json

# Small seeded persistency-model litmus campaign: generated litmus shapes
# crashed under the real persist path and judged against the allowed
# outcome set derived from each scheme's ordering axioms. A failure
# prints the shrunk `cwsplitmus -replay '<spec>'` reproducer.
litmus-smoke:
	$(GO) run ./cmd/cwsplitmus -seed 1 -n 5 -no-shrink -progress=false

# Acceptance-scale litmus campaign: 50 shapes x 11 schemes x 2 kernels =
# 1100 cells, every observed post-crash outcome inside the derived set.
litmus:
	$(GO) run ./cmd/cwsplitmus -seed 1 -n 50 -out litmus-report.json

# End-to-end exercise of the experiment daemon as a real subprocess:
# cwspload spawns a cwspd binary, submits a small sweep twice, asserts
# the repeat is byte-identical and served >=99% from the shared
# content-addressed cache, then SIGTERMs the daemon and requires a clean
# drain.
cwspd-smoke:
	$(GO) build -o bin/cwspd ./cmd/cwspd
	$(GO) build -o bin/cwspload ./cmd/cwspload
	./bin/cwspload -spawn-bin ./bin/cwspd -smoke

# Seeded crash-recovery campaign against a real journaled daemon: 20
# SIGKILLs at seeded points cycling the queue/run/flush phases, a restart
# after each, then the durability contract — zero accepted-but-lost
# campaigns, idempotent replay of journaled results on resubmit, and a
# final report byte-identical to an uninterrupted run.
chaos-smoke:
	$(GO) build -o bin/cwspd ./cmd/cwspd
	$(GO) build -o bin/cwspload ./cmd/cwspload
	./bin/cwspload -spawn-bin ./bin/cwspd -chaos -chaos-kills 20 -chaos-campaigns 6 -seed 1 -q

# Load-generate against an in-process daemon: 32 concurrent clients over
# mixed cold/warm campaign traffic, zero dropped campaigns required. The
# run emits the service bench trajectory record BENCH_service.json
# (gitignored; gate it with `make service-check`, refresh the committed
# baseline with `make service-baseline`).
service-load:
	$(GO) run ./cmd/cwspload -spawn -clients 32 -requests 2 -warm-seeds 2 -seed 1 -poll 5ms -q -bench-out BENCH_service.json

# Gate the freshest BENCH_service.json against the committed baseline:
# client count, dropped-campaign count, and warm cache-hit ratio enforced
# anywhere; request latency, throughput, and queue depth are wall-clock
# (queue-wait dominated) and advisory unless -bench-strict.
service-check: BENCH_service.json
	$(GO) run ./cmd/cwspload -bench-in BENCH_service.json -bench-check baselines/BENCH_service.json

BENCH_service.json:
	$(MAKE) service-load

# Refresh the committed service baseline from a fresh run on this machine.
service-baseline:
	$(MAKE) service-load
	cp BENCH_service.json baselines/BENCH_service.json

# Static soundness verification: vet, staticcheck (when installed; CI pins
# it), then the independent persistence checker over the checked-in
# example and a fixed block of generated programs (see DESIGN.md
# "Soundness checking" for the CWSP0xx codes).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi
	$(GO) build -o bin/cwsplint ./cmd/cwsplint
	./bin/cwsplint -seed 1 -count 25 examples/minic/btree.mc

# Regenerate the paper's full evaluation (tens of minutes, single core).
repro:
	$(GO) run ./cmd/cwspbench -all -scale full -per-app

repro-quick:
	$(GO) run ./cmd/cwspbench -all -scale quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crashconsistency
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/minic
	$(GO) run ./examples/sweep

# Export a Perfetto trace of the kvstore example's cWSP run
# (open kvstore-trace.json in ui.perfetto.dev).
trace:
	$(GO) run ./examples/kvstore -trace-perfetto kvstore-trace.json

# Export the kvstore run's telemetry manifest and sampled time series.
metrics:
	$(GO) run ./examples/kvstore -metrics-out kvstore-metrics.json -timeseries kvstore-series.csv

clean:
	$(GO) clean ./...
