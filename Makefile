GO ?= go

.PHONY: check fmt vet build test race bench bench-baseline bench-wormsim-baseline bench-routing-baseline bench-heuristics-baseline bench-serve-baseline bench-regression profile-wormsim results fuzz check-fault check-scale check-churn check-serve check-workload check-perfbench

## check: everything CI runs — format, vet, build, race tests, quick benchmarks
check: fmt vet build race bench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: quick performance smoke — core throughput, figure pipeline, the simulator's deadlock audit (with allocations), routing engine (cold, cached, and per path scheme with allocations), heuristic kernels, static sweep scaling
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkWormsimCyclesPerSec|BenchmarkDynamicFigures|BenchmarkSimulator' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkDetectDeadlock' -benchmem -benchtime 1000x ./internal/wormsim
	$(GO) test -run '^$$' -bench 'BenchmarkRoutingPlan' -benchmem -benchtime 100x ./internal/routing
	$(GO) test -run '^$$' -bench 'BenchmarkGreedyST|BenchmarkKMB|BenchmarkSortedMP' -benchmem -benchtime 100x ./internal/heuristics
	$(GO) test -run '^$$' -bench 'BenchmarkStaticTable' -benchmem -benchtime 1x ./internal/experiments

## bench-wormsim-baseline: regenerate the committed BENCH_wormsim.json in
## one deterministic pass — serial and per-shard-count core throughput,
## gomaxprocs, and every dynamic figure's wall time
bench-wormsim-baseline:
	$(GO) run ./cmd/mcfigures -bench -quick -parallel 1 -out .

## bench-baseline: legacy alias of bench-wormsim-baseline
bench-baseline: bench-wormsim-baseline

## bench-regression: throughput gate — re-measures the serial and sharded
## core workloads plus the scheduling-service window path against the
## committed baselines. A >25% serial wormsim cycles_per_sec regression
## FAILS (exit 1); everything else (sharded figures on the 1-core host,
## the serve path) stays warn-only, and all paths warn from 15%
bench-regression:
	$(GO) run ./cmd/mcfigures -bench-compare BENCH_wormsim.json
	$(GO) test ./internal/sched -run TestServeBenchRegression -serve-bench-compare

## profile-wormsim: CPU+alloc profile of the canonical serial core
## benchmark; inspect with `go tool pprof wormsim.test wormsim.cpu.pprof`
profile-wormsim:
	$(GO) test -run '^$$' -bench BenchmarkWormsimCyclesPerSec -benchtime 20x \
		-cpuprofile wormsim.cpu.pprof -memprofile wormsim.mem.pprof -o wormsim.test .

## bench-serve-baseline: regenerate the committed BENCH_serve.json (one
## steady-state 256-request admission window on the 64x64 mesh)
bench-serve-baseline:
	$(GO) test ./internal/sched -run TestWriteServeBenchBaseline -update-serve-bench

## bench-routing-baseline: regenerate the committed BENCH_routing.json
bench-routing-baseline:
	$(GO) test ./internal/routing -run TestWriteRoutingBenchBaseline -update-routing-bench

## bench-heuristics-baseline: regenerate the committed BENCH_heuristics.json (before/after kernel comparison)
bench-heuristics-baseline:
	$(GO) test ./internal/heuristics -run TestWriteHeuristicsBenchBaseline -update-heuristics-bench

## fuzz: 30-second smoke of every fuzz target (healthy routing invariants + fault-mask CDG acyclicity + trace-parser round-trip + deadlock audit against the full wait-for graph + KMB's on-demand closure against the full one)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPlan -fuzztime 30s ./internal/routing
	$(GO) test -run '^$$' -fuzz FuzzFaultMaskCDG -fuzztime 30s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzTraceParse -fuzztime 30s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzDetectDeadlock -fuzztime 30s ./internal/wormsim
	$(GO) test -run '^$$' -fuzz FuzzKMB -fuzztime 30s ./internal/heuristics

## check-fault: the fault-injection acceptance suite — masked-CDG acyclicity for every scheme, degraded routing, mid-run kill semantics, retry accounting, exact-vs-heuristic bounds on faulty meshes, and the mcfault parallel determinism contract
check-fault:
	$(GO) test ./internal/fault ./internal/wormsim ./internal/mcastsvc
	$(GO) test -run 'TestFaultFigures' ./internal/experiments
	$(GO) test -run 'TestKMBVsExactOnFaultyMeshes' ./internal/opt

## check-scale: the sharded-engine acceptance suite — serial/sharded
## byte-identity across schemes, topologies and fault plans, the dense
## CSR injection equivalence, the allocation-free steady state, the
## figure-level -shards contracts, and a quick end-to-end scale study
check-scale:
	$(GO) test -run 'TestSharded|TestFlatInjection|TestSetShardsGuards|TestSteadyStateAllocationFree' ./internal/wormsim
	$(GO) test -run 'TestScaleStudySmall|TestDynamicFigureShardsByteIdentical|TestFaultFiguresShardsByteIdentical' ./internal/experiments
	$(GO) run ./cmd/mcscale -quick -out $$(mktemp -d)

## check-churn: the incremental-topology acceptance suite — churn
## equivalence (live delta-driven router vs static rebuild at every
## epoch), targeted cache invalidation, the delta-driven simulator
## bridge, the reduced churn study, and byte-identity of every
## deterministic mcchurn output across -parallel/-shards
check-churn:
	$(GO) test -run 'TestChurnEquivalence|TestLiveRouterTargetedInvalidation|TestMaskedStateMemo|TestPlanDeltas|TestSimSchedule' ./internal/fault
	$(GO) test -run 'TestChurnStudySmall' ./internal/experiments
	@a=$$(mktemp -d); b=$$(mktemp -d); \
	$(GO) run ./cmd/mcchurn -quick -parallel 1 -out $$a >/dev/null; \
	$(GO) run ./cmd/mcchurn -quick -parallel 4 -shards 4 -out $$b >/dev/null; \
	for f in churn_hitrate.txt churn_hitrate.csv churn_evictions.txt churn_evictions.csv churn_sim.txt; do \
		cmp $$a/$$f $$b/$$f || { echo "check-churn: $$f differs across -parallel/-shards"; exit 1; }; \
	done; \
	echo "check-churn: deterministic mcchurn outputs byte-identical across -parallel/-shards"

## check-serve: the scheduling-service acceptance suite — window packing,
## worker-count invariance, the allocation-free steady state, the reduced
## serving study, and byte-identity of every mcserve output across
## -parallel/-shards
check-serve:
	$(GO) test ./internal/sched
	$(GO) test -run 'TestServeStudySmall' ./internal/experiments
	@a=$$(mktemp -d); b=$$(mktemp -d); \
	$(GO) run ./cmd/mcserve -quick -parallel 1 -shards 1 -out $$a >/dev/null; \
	$(GO) run ./cmd/mcserve -quick -parallel 4 -shards 4 -out $$b >/dev/null; \
	for f in serve_throughput.txt serve_throughput.csv serve_p99.txt serve_p99.csv \
		serve_window_throughput.txt serve_window_throughput.csv \
		serve_window_p99.txt serve_window_p99.csv serve_study.txt; do \
		cmp $$a/$$f $$b/$$f || { echo "check-serve: $$f differs across -parallel/-shards"; exit 1; }; \
	done; \
	echo "check-serve: mcserve outputs byte-identical across -parallel/-shards"

## check-workload: the workload-engine acceptance suite — statistical
## property tests and golden streams for every model, the trace
## round-trip contract, the workload-driven simulator/service paths, the
## reduced workload study, and byte-identity of every mcworkload output
## across -parallel/-shards
check-workload:
	$(GO) test ./internal/workload
	$(GO) test -run 'TestRunWorkload' ./internal/wormsim
	$(GO) test -run 'TestServeWorkload|TestForceAdmit' ./internal/sched
	$(GO) test -run 'TestWorkloadStudySmall|TestServeStudyWorkloadOption' ./internal/experiments
	@a=$$(mktemp -d); b=$$(mktemp -d); \
	$(GO) run ./cmd/mcworkload -quick -parallel 1 -shards 1 -out $$a >/dev/null; \
	$(GO) run ./cmd/mcworkload -quick -parallel 4 -shards 4 -out $$b >/dev/null; \
	for f in workload_scheme_mesh.txt workload_scheme_mesh.csv \
		workload_scheme_cube.txt workload_scheme_cube.csv \
		workload_packer_throughput.txt workload_packer_throughput.csv \
		workload_packer_p99.txt workload_packer_p99.csv workload_study.txt; do \
		cmp $$a/$$f $$b/$$f || { echo "check-workload: $$f differs across -parallel/-shards"; exit 1; }; \
	done; \
	$(GO) run ./cmd/mcworkload -quick -record bursty -o $$a/bursty.trace >/dev/null; \
	$(GO) run ./cmd/mcworkload -quick -replay $$a/bursty.trace >/dev/null || \
		{ echo "check-workload: trace record/replay failed"; exit 1; }; \
	echo "check-workload: mcworkload outputs byte-identical across -parallel/-shards"

## check-perfbench: the benchmark's own tests — the drive loop pinned to
## sched.Serve, BENCHMARK.json matching the code, and each workload
## reaching the layer it is meant to load (perfbench is its own module,
## so `go test ./...` at the root does not run them)
check-perfbench:
	cd perfbench && $(GO) test ./...

## results: regenerate every table and figure at full fidelity
results:
	$(GO) run ./cmd/mcfigures -out results
	$(GO) run ./cmd/mcfault -out results
	$(GO) run ./cmd/mcscale -out results
	$(GO) run ./cmd/mcchurn -out results
	$(GO) run ./cmd/mcserve -out results
	$(GO) run ./cmd/mcworkload -out results
