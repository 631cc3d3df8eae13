# Developer entry points. `make ci` is what the checked-in code must pass.

GO ?= go

.PHONY: all build fmt vet test race fuzz-smoke oracle-smoke chaos-smoke sweepd-smoke sample-smoke front-smoke cli-flags experiments-check shellcheck bench bench-smoke bench-test ci clean

all: build

build:
	$(GO) build ./...

# Formatting gate: fails listing any file gofmt would rewrite (bench/
# included).
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector slows the simulator ~10x, so the race pass runs the
# short suite (the behavioural shape tests are skipped; the harness and
# pool concurrency tests are what it is for).
race:
	$(GO) test -race -short ./...

# A brief native-fuzz run of the core: random programs on random machine
# modes must complete under the differential oracle and the watchdog with
# paranoid invariant checks.
fuzz-smoke:
	$(GO) test ./internal/core -run FuzzCore -fuzz FuzzCore -fuzztime 10s

# A short full-suite sweep with the lockstep differential oracle checking
# every retired uop against the functional emulator: zero divergences is
# the pass condition (a fixed seed keeps the run reproducible).
oracle-smoke: build
	$(GO) run ./cmd/cdfexperiments -exp fig13 -uops 20000 -seed 1 -oracle

# The crash-safety proof (DESIGN.md §10): a sweep run under seeded fault
# injection — panics, cache corruption, and repeated process kills — is
# resumed until it completes, and its table must be byte-identical to an
# uninterrupted run's. Deterministic: both the sweep and chaos seeds are
# fixed inside the script.
chaos-smoke:
	scripts/chaos_smoke.sh

# The sweep-service fault-isolation proof (DESIGN.md §11): a cdfsweepd
# server under seeded worker kills is SIGKILLed mid-job, restarted on the
# same cache dir, and must complete the recovered job with a table
# byte-identical to an uninterrupted server's; SIGTERM must drain with
# exit 0.
sweepd-smoke:
	scripts/sweepd_smoke.sh

# Sampled-simulation accuracy smoke (DESIGN.md §12): one kernel full vs
# sampled through the real cdfsim binary; the estimate must land within
# 5% of the full run and report a confidence interval.
sample-smoke:
	scripts/sample_smoke.sh

# Instruction-supply smoke (DESIGN.md §13): one frontend-bound kernel
# through cdfsim with the frontend off, timing-only, and FDIP+shadow-BTB;
# the timing path must agree with the legacy blocking path, FDIP must
# recover IPC, and the frontend statistics must be reported.
front-smoke:
	scripts/front_smoke.sh

# The CLI surface: the sorted -h flag names of cdfsim, cdfexperiments,
# cdftrace and cdfsweepd must match scripts/cli_flags.golden, so adding,
# removing or renaming a flag is a reviewed change to that file
# (scripts/cli_flags.sh -update rewrites it).
cli-flags:
	scripts/cli_flags.sh

# The evaluation's output: every experiment at a short fixed-seed budget
# (-uops 10000 -seed 1 -format markdown) must print exactly
# scripts/experiments.golden.md, so a refactor of the experiment layer is
# checked byte for byte and a modelling change shows its table deltas in
# the diff (scripts/experiments.sh -update rewrites it). ~10 s on 2 vCPUs.
experiments-check:
	scripts/experiments.sh

# Lint the smoke scripts. Skips gracefully where shellcheck is not
# installed (CI's ubuntu runners have it).
shellcheck:
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping"; \
	fi

# Simulator-throughput benchmarks (DESIGN.md §9): the full mode x kernel
# matrix, reporting uops/s, cycles/s, and allocations. benchstat is not
# vendored; to compare two revisions end to end, record runs of the
# repo's benchmark on each (a.jsonl, b.jsonl) and compare them against
# the BENCHMARK.json bounds (bench/README.md, "Comparing revisions"):
#   bash bench/run.sh --workload sweep --seed 1 -out a.jsonl
#   bash bench/run.sh -compare a.jsonl b.jsonl
# BenchmarkSimSpeedSlow is the same matrix on the -slowpath reference loop.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimSpeed$$' -benchmem -count 1 .

# One quick iteration per (mode, kernel) pair, then the allocation pins:
# zero allocations per steady-state cycle, and under 4 MB for a whole
# second 50k-uop run, in every mode. A regression that makes the loop or a
# run allocate fails this target, not just slows it down. CI runs this on
# every push and uploads bench-smoke.txt as the build's benchmark artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimSpeed$$' -benchtime 1x -benchmem . | tee bench-smoke.txt
	$(GO) test ./internal/core -run 'TestSteadyStateAllocs|TestRunAllocBudget' -count 1

# The benchmark in bench/ is a separate module (cdf/bench) that the root
# `go test ./...` does not reach; vet and test it so a root API change that
# breaks its build fails here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: fmt vet build test bench-test race fuzz-smoke oracle-smoke chaos-smoke sweepd-smoke sample-smoke front-smoke cli-flags experiments-check shellcheck

clean:
	$(GO) clean ./...
