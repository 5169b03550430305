# Ivory build/test/reproduction targets.

GO ?= go

.PHONY: all build test vet lint loc race fuzz bench bench-full bench-profile benchdiff benchgate experiments examples serve smoke smoke-cluster clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Physics- and concurrency-aware static analysis (floatcmp, nonfinite,
# powsquare, unitsuffix, droppederr, unitflow, ctxflow, locksafe,
# wgsafe) plus the whole-program deadexport gate (internal/ exports only
# tests reach); exits non-zero on any finding or stale //lint:ignore.
lint:
	$(GO) run ./cmd/ivory-lint ./...

# Non-test Go lines outside bench/ and testdata: the size measure
# ROADMAP's design-quality aim tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

test:
	$(GO) test ./...

# Race-detector pass over the model packages.
race:
	$(GO) test -race ./internal/...

# Native fuzzing, 20 s per target. FuzzRequestIdentity: respelled ivoryd
# requests (shuffled sets, elided vs explicit defaults, other
# top/timeout/async) must share one normalized engine input and one key, and
# arbitrary bodies must get a 400 or a response. FuzzNetlist: any text that
# parses as a SPICE netlist must come back from Tran with a result or an
# error, never a panic. FuzzSparseLU: the production LU must agree with the
# dense test oracle on generated sparse and near-singular systems, and a
# pattern-preserving Refactor with a fresh factorization.
# FuzzSummarizeInPlace: the bucketed quartiles must match a sort-based
# reference bit for bit, and samples with NaN or ±Inf must take the
# quickselect path. FuzzSCRegulationScreen: a configuration the SC switch
# plan's regulation screen rejects must be rejected by the full sizing and
# evaluation path, and every configuration Score accepts must pass the
# screen. FuzzRankOrder: over generated rows, rankCandidates must give the
# candidate-key sequence of a stable sort with the formatting reference
# keyRankLess under every objective. The committed seed corpora
# (testdata/fuzz in each package, f.Add seeds for FuzzSummarizeInPlace,
# FuzzSCRegulationScreen and FuzzRankOrder) also run under plain `go test`.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzRequestIdentity -fuzztime=20s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzNetlist -fuzztime=20s ./internal/spice
	$(GO) test -run='^$$' -fuzz=FuzzSparseLU -fuzztime=20s ./internal/numeric
	$(GO) test -run='^$$' -fuzz=FuzzSummarizeInPlace -fuzztime=20s ./internal/numeric
	$(GO) test -run='^$$' -fuzz=FuzzSCRegulationScreen -fuzztime=20s ./internal/sc
	$(GO) test -run='^$$' -fuzz=FuzzRankOrder -fuzztime=20s ./internal/core

# Benchmark smoke run over the root harness (Explore serial/parallel/
# cluster, PlaceIVRs, per-figure regeneration, MNA kernel Transient
# sweeps) — one iteration each — plus a focused pass over the transient
# case-study engine (Fig 10/11/13, grid scaling) and the simulation
# kernels. The raw `go test -json` streams are condensed through
# `ivory-benchdiff -compact` so the committed BENCH_*.json files hold one
# row per benchmark instead of thousands of wrapper events.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem -json . > BENCH_explore.raw
	$(GO) run ./cmd/ivory-benchdiff -compact BENCH_explore.raw > BENCH_explore.json && rm BENCH_explore.raw
	cat BENCH_explore.json
	$(GO) test -run '^$$' -bench 'Fig10|Fig11|Fig13|GridScale|Transient' -benchtime=1x -benchmem -json . > BENCH_transient.raw
	$(GO) run ./cmd/ivory-benchdiff -compact BENCH_transient.raw > BENCH_transient.json && rm BENCH_transient.raw
	cat BENCH_transient.json

# Old-vs-new comparison of the shared benchmarks in two `make bench` outputs
# (override OLD/NEW to compare arbitrary runs). Informational: the target
# never fails on a regression.
OLD ?= BENCH_baseline.json
NEW ?= BENCH_explore.json
benchdiff:
	$(GO) run ./cmd/ivory-benchdiff $(OLD) $(NEW)

# Gating flavor of benchdiff, as CI runs it: fails when any shared
# benchmark got more than FAIL_OVER (default 15) times slower than the
# committed baseline. scripts/benchgate.sh is covered by a test in
# cmd/ivory-benchdiff that seeds a >15x regression and asserts exit 1.
benchgate:
	./scripts/benchgate.sh $(OLD) $(NEW)

# Full benchmark sweep over every package (raise -benchtime for stable
# timings).
bench-full:
	$(GO) test -bench=. -benchmem ./...

# CPU + heap profile capture over the simulation kernels: the circuit-level
# Transient benchmarks and the numeric LU microbenchmarks (the production
# SparseLU refactor path, plus the dense test-oracle LU as the
# unstructured reference point), and over the exploration engine
# (BenchmarkExploreParallel: the case-study sweep at one worker per CPU,
# so the split between sizing arithmetic and the ranking, tracking and
# allocation around it shows next to the kernels), and over the experiment
# kernels (BenchmarkFig6RegulationSpectrum's Bluestein spectrum and
# BenchmarkFig10NoiseAnalysis's PDN stepping and box-plot summaries). Emits pprof
# artifacts under profiles/ (uploaded from CI); the trailing `go tool pprof
# -top` both prints the hot spots and fails the target if a profile is
# unreadable. Flame graph: `go tool pprof -http=: profiles/kernel.test
# profiles/kernel_cpu.pprof`.
bench-profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'Transient' -benchtime=50x \
		-cpuprofile profiles/kernel_cpu.pprof -memprofile profiles/kernel_mem.pprof \
		-o profiles/kernel.test .
	$(GO) test -run '^$$' -bench 'SparseLU|DenseFactorize' -benchtime=2000x \
		-cpuprofile profiles/lu_cpu.pprof -memprofile profiles/lu_mem.pprof \
		-o profiles/lu.test ./internal/numeric
	$(GO) test -run '^$$' -bench 'ExploreParallel$$' -benchtime=2000x \
		-cpuprofile profiles/explore_cpu.pprof -memprofile profiles/explore_mem.pprof \
		-o profiles/explore.test .
	$(GO) test -run '^$$' -bench 'Fig6RegulationSpectrum|Fig10NoiseAnalysis' -benchtime=20x \
		-cpuprofile profiles/experiments_cpu.pprof -o profiles/experiments.test .
	$(GO) tool pprof -top -nodecount=12 profiles/kernel.test profiles/kernel_cpu.pprof
	$(GO) tool pprof -top -nodecount=12 -sample_index=alloc_objects profiles/kernel.test profiles/kernel_mem.pprof
	$(GO) tool pprof -top -nodecount=12 profiles/explore.test profiles/explore_cpu.pprof
	$(GO) tool pprof -top -nodecount=12 -sample_index=alloc_objects profiles/explore.test profiles/explore_mem.pprof
	$(GO) tool pprof -top -nodecount=12 profiles/experiments.test profiles/experiments_cpu.pprof

# Run the exploration daemon (POST /v1/explore, /v1/transient; GET
# /healthz, /metrics). -addr :0 picks a free port.
serve:
	$(GO) run ./cmd/ivoryd -addr :7077

# End-to-end daemon smoke: build ivoryd, boot it on a random port, probe
# the API over HTTP, SIGTERM it and assert a clean drain.
smoke:
	./scripts/ivoryd_smoke.sh

# End-to-end cluster smoke: boot two worker replicas and a coordinator,
# explore through the cluster, assert the body is byte-identical to a
# single-node run of the same spec and that a repeated spec hits one
# worker's cache, poll an async job and read a stream through the
# coordinator, scrape /v1/cluster and the forwarding metrics, then SIGTERM
# everything and assert clean drains.
smoke-cluster:
	./scripts/cluster_smoke.sh

# Regenerate every paper table/figure plus the extension studies, with
# plot-ready CSVs under results/data/.
experiments:
	$(GO) run ./cmd/ivory-exp -outdir results/data all | tee results/experiments.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/topology-sweep
	$(GO) run ./examples/dvfs-transient
	$(GO) run ./examples/gpu-casestudy

clean:
	rm -rf results
