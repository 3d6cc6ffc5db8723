# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race lint vet analyzers verify-examples lint-interthread lint-bounds fuzz fmt trace-demo profile cpi-demo explore-demo self-profile-demo bench-report bench bench-check bench-history report-demo

all: build test lint

build:
	$(GO) build ./...

# perfbench is a nested module that ./... does not reach; vet and test it
# too, so a change to core.HostProbe, core.Observer or core.Config that
# breaks the benchmark fails here.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet . && $(GO) test .

# The self-profile overhead budget is skipped under -race, which would
# time the race detector rather than the profiler; `make test` enforces it.
race:
	$(GO) test -race -skip '^TestSelfProfileOverheadWithinBudget$$' ./...

# lint = every static check: go vet, the repository's custom Go analyzers,
# and the program verifier over the shipped examples.
lint: vet analyzers verify-examples lint-interthread lint-bounds

vet:
	$(GO) vet ./...

analyzers:
	$(GO) run ./tools/analyzers ./...

verify-examples:
	$(GO) run ./cmd/hirata-lint examples/programs

# Cross-thread abstract interpretation (L010-L014) over the shipped example
# programs and every paper workload's generated assembly (the Go test
# builds each generator and requires hirata.Lint to come back clean).
lint-interthread:
	$(GO) run ./cmd/hirata-lint -interthread examples/programs
	$(GO) test -run 'TestWorkloadsLintClean|TestExampleMinCLintClean' .

# Queue-protocol deadlock verification (L015-L017) and static performance
# bounds (docs/LINT.md, "Static performance bounds") over the shipped
# examples and every paper workload. The Go tests also check the
# differential property: static bound <= measured cycles on every program.
lint-bounds:
	$(GO) run ./cmd/hirata-lint -deadlock examples/programs
	$(GO) run ./cmd/hirata-lint -bound examples/programs
	$(GO) test -run 'TestWorkloadsDeadlockClean|TestBoundExamples|TestBoundWorkloads' .

# Short fuzz sessions against the MinC compiler, the trace reader, the
# assembler and the ledger reader (CI runs seeds only). Minimizing each new
# multi-kilobyte ledger input for the default 60 s would stall FuzzOpen for
# the whole session, so its minimization is capped.
fuzz:
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 30s ./internal/minc/
	$(GO) test -run xxx -fuzz FuzzRead -fuzztime 30s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzAssemble -fuzztime 30s ./internal/asm/
	$(GO) test -run xxx -fuzz FuzzOpen -fuzztime 30s -fuzzminimizetime 5s ./internal/runledger/

fmt:
	gofmt -w .

# Observability demos (docs/OBSERVABILITY.md). trace-demo writes a Perfetto
# timeline of the fib example — load fib-trace.json in ui.perfetto.dev.
trace-demo:
	$(GO) run ./cmd/hirata-sim -slots 2 -standby -metrics-interval 64 -chrome-trace fib-trace.json examples/programs/fib.s

# profile prints the per-PC hotspot report for the fib example.
profile:
	$(GO) run ./cmd/hirata-sim -slots 2 -standby -profile examples/programs/fib.s

# cpi-demo decomposes the 8-slot Table-2 ray trace: folded CPI stacks
# (feed raytrace-cpi.folded to flamegraph.pl), the critical path as JSON,
# and bounded what-if estimates for extra hardware on stderr.
cpi-demo:
	$(GO) run ./cmd/hirata-bench -table none -cpi-folded raytrace-cpi.folded -critpath-json raytrace-critpath.json -whatif "+1 alu,+1 ls,+1 slot"

# explore-demo runs the analytic design-space engine (docs/MODEL.md) on a
# CI-sized ray trace: calibrate on 4 runs, predict 1152 configurations,
# re-simulate the Pareto frontier, validate against Tables 2-5
# reproductions, and fail if any model error exceeds 15%. The JSON report
# (explore-report.json) is the CI artifact.
explore-demo:
	$(GO) run ./cmd/hirata-bench -explore -rays 48 -spheres 6 -n 50 -nodes 40 -explore-max-err 15 -explore-json explore-report.json

# self-profile-demo turns the observability machinery on the simulator
# itself (docs/OBSERVABILITY.md, "Host-level observability"): sampled
# cycle-loop phase attribution, a host-side Perfetto timeline
# (host-trace.json) and the JSON artifact (selfprofile.json) that
# benchdiff -history embeds, on a CI-sized ray trace.
self-profile-demo:
	$(GO) run ./cmd/hirata-bench -self-profile -rays 48 -spheres 6 -host-trace host-trace.json -self-profile-json selfprofile.json

# bench-report regenerates the JSON paper-reproduction report and records
# the 8-slot ray-trace Perfetto timeline (CI uploads both as artifacts).
# PARALLEL controls how many simulation cells run concurrently (0 = all
# CPUs, 1 = the sequential reference path); output is identical either way.
PARALLEL ?= 0
bench-report:
	$(GO) run ./cmd/hirata-bench -parallel $(PARALLEL) -chrome-trace raytrace-trace.json -json > bench-report.json

# bench runs the Go microbenchmarks the perf gate watches (docs/PERFORMANCE.md).
BENCH_COUNT ?= 5
bench:
	$(GO) test -run xxx -bench 'BenchmarkSimulatorThroughput|BenchmarkRunNoObserver|BenchmarkConcurrentMTSingleRun|BenchmarkSweepParallel' -benchmem -count $(BENCH_COUNT) . ./internal/core | tee bench-out.txt

# bench-check compares bench-out.txt against the committed BENCH_sweep.json
# baseline and fails on a >10% ns/op regression.
bench-check: bench
	$(GO) run ./tools/benchdiff -baseline BENCH_sweep.json -in bench-out.txt

# report-demo exercises cross-run observability end to end
# (docs/OBSERVABILITY.md, "Cross-run observability"): record the standard
# 8-slot ray trace under two configurations (1 vs 2 load/store units) into
# a content-addressed ledger, print the exact cycle-delta attribution
# between them, and the per-lineage trajectory. Re-running records nothing
# new — identical runs dedup by content hash.
report-demo:
	$(GO) run ./cmd/hirata-report record -ledger runs.ledger -tag ray8-ls1 -slots 8 -ls 1 -rays 48 -spheres 6
	$(GO) run ./cmd/hirata-report record -ledger runs.ledger -tag ray8-ls2 -slots 8 -ls 2 -rays 48 -spheres 6
	$(GO) run ./cmd/hirata-report ls -ledger runs.ledger
	$(GO) run ./cmd/hirata-report diff -ledger runs.ledger
	$(GO) run ./tools/benchdiff -trend -ledger runs.ledger

# bench-history appends this bench run (with the self-profile phase
# breakdown) to BENCH_history.jsonl and prints the cross-run trend
# (docs/PERFORMANCE.md, "Benchmark history and host self-profiling").
bench-history: self-profile-demo
	$(GO) run ./tools/benchdiff -in bench-out.txt -history BENCH_history.jsonl -phases selfprofile.json
	$(GO) run ./tools/benchdiff -trend
