GO ?= go

.PHONY: all build vet lint test race race-serve race-runner ci bench-all bench-gate fmt-check cover chaos-smoke soak violation-dump snapshot-smoke perf-smoke fuzz-smoke alloc-profile history

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus reboundlint, the repository's own four
# analyzers (determinism, trustedboundary, clockdomain, snapshotstate
# — see DESIGN.md "Static analysis & determinism contracts"). Fails on
# any violation; legitimate exceptions carry a justified //rebound:
# annotation, and a hatch that no longer suppresses anything is itself
# a violation (the annotation audit keeps the exception list honest).
#
# The whole module also has to build where cryptolite has no SHA-1
# kernel: arm64 (64-bit, the stdlib digest in assembly) and 386
# (32-bit), and cryptolite has to vet there too. On amd64, go vet's
# asmdecl check holds the kernel's assembly frames to their Go
# declarations.
lint: vet
	$(GO) run ./cmd/reboundlint ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cryptolite
	GOARCH=386 $(GO) vet ./internal/cryptolite

# -shuffle=on randomizes test (and subtest) execution order each run,
# flushing out order-dependent tests; the chosen seed is printed so a
# failure is reproducible with -shuffle=N.
test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the whole module. Most packages are
# single-goroutine and cheap under -race; the runner/sweep tests are
# the ones that genuinely exercise concurrency.
race:
	$(GO) test -race ./...

# The serve layer's concurrency, ten times over under the race
# detector: the long-poll wake-up, Close ending queued jobs under open
# waits, the pooled gzip writers, artifact fetches on both sides of
# the gzip threshold, and the tallies the scheduler keeps under its
# lock and /v1/metrics reads under it.
race-serve:
	$(GO) test -race -count=10 -run 'Wait|Close|Gzip|Artifact|Metrics|Tenant|Telemetry' ./internal/serve

# The sweep runner's worker pool, twenty times over under the race
# detector: dispatch, per-cell panic capture with every cell still
# running, input-order results, serialized OnDone and the meter.
race-runner:
	$(GO) test -race -count=20 ./internal/runner

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci: fmt-check lint build test race

# Performance numbers come from one benchmark: `go run ./benchmark` (see
# benchmark/README.md) runs the four named workloads and compares
# commits, and BENCH_history.ndjson keeps what each PR measured with it.
# The Go benchmarks below are drills and gates, not a ledger.

# The benchmark's history: checks BENCH_history.ndjson (PR order, names
# BENCHMARK.json defines, ratios and never absolutes for time rows, a
# verdict heading in EXPERIMENTS.md for every PR) and prints each
# workload's allocations per robot-tick, PR by PR.
history:
	$(GO) test -run '^TestBenchHistory$$' -count=1 -v .

# Every benchmark in the module at full benchtime (minutes).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The machine-independent bench contract, a comparison of numbers from
# the same run on the same machine, so it holds on any runner: the
# wall-clock perf plane's whole-sim overhead stays <=3%, measured by
# the paired interleaved benchmark (see bench_perf_test.go) so runner
# noise cancels instead of dominating the 3% effect. The awk line
# echoes the benchmark's output and exits 1 unless it saw an
# overhead_pct value and every one it saw is <= 3.
bench-gate:
	$(GO) test -run '^$$' -bench BenchmarkPerf_Sim_Overhead -benchtime 6x -timeout 30m . \
	  | awk '{ print; for (i = 2; i <= NF; i++) if ($$i == "overhead_pct") { seen = 1; if ($$(i-1) > 3) bad = 1 } } END { exit !seen || bad }'

# Where the quick sparse and dense cells allocate: the top sites by
# objects allocated, construction included, from a profile that records
# every allocation (-memprofilerate 1) of the cells the allocation
# ceilings hold (TestSparseCellAllocationCeiling and
# TestDenseCellAllocationCeiling). The test binary and the profiles go
# to a temporary directory that is removed afterwards. A few seconds.
alloc-profile:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -c -o "$$dir/rb.test" . && \
	for cell in Sparse Dense; do \
	  echo "== quick $$cell cell: top allocation sites by objects"; \
	  "$$dir/rb.test" -test.run "^Test$${cell}CellAllocationCeiling\$$" -test.count 1 \
	    -test.memprofile "$$dir/$$cell.out" -test.memprofilerate 1 >/dev/null || exit 1; \
	  $(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 "$$dir/rb.test" "$$dir/$$cell.out" || exit 1; \
	done

# Coverage over every package, with a per-function summary and an HTML
# report CI uploads as an artifact.
cover:
	$(GO) test -shuffle=on -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	$(GO) tool cover -html=coverage.out -o coverage.html

# The cross-seed fault-injection soak (reduced seed block): every
# controller x every fault profile, invariant-checked every tick.
# Exits nonzero on any violation. Alongside the verdict table it
# leaves the observability artifacts CI uploads: the soak's summed
# metrics snapshot and any violating cell's flight-recorder dump,
# plus a full event log + Perfetto trace of one instrumented cell.
chaos-smoke:
	$(GO) run ./cmd/roborebound -quick -progress=false \
	  -metrics obs-chaos-metrics.json -events obs-chaos-violations.ndjson chaos
	$(GO) run ./cmd/roborebound -quick -progress=false \
	  -events obs-events.ndjson -perfetto obs-trace.json -metrics obs-metrics.json trace flocking

# The latch census (ROADMAP item 1): every controller x every fault
# profile x seeds 1..256 at the chaos defaults, 5 376 cells in ~23 s on
# two cores. Fails unless the cells that latch are exactly the census
# rows of TestKnownFalsePositiveLatches, at their pinned tick and robot,
# or unless ddmin over each row's generated schedule ends at the row's
# pinned minimal schedule (~3 s). It also runs the paper-scale Figs. 6
# and 7 (40 cells) and the defended Fig. 9 over 128 runs, every one
# under the invariant checker, and fails on any latch (~20 s).
soak:
	$(GO) test -tags soak -run 'TestLatchCensus|TestLatchSchedulesDDMinToTheirMinimal|TestPaperFiguresUnderTheChecker|TestFig9DisableLatency' -count=1 -timeout 10m .

# The chaos CLI's violation-dump path, end to end. At -seed 218 the
# quick soak's 42 cells include exactly two known latches, patrol and
# warehouse under skew at seed 218 (TestKnownFalsePositiveLatches), so
# the CLI must exit nonzero and the -events file must hold exactly
# their two {"cell": ...} markers, each followed by the offending
# robot's events.
violation-dump:
	@if $(GO) run ./cmd/roborebound -quick -progress=false -seed 218 \
	  -events obs-chaos-violations-218.ndjson chaos >/dev/null; then \
	  echo "violation-dump: the chaos CLI exited 0 at seed 218, where two cells latch"; exit 1; fi
	@cells=$$(grep -o '^{"cell":"[^"]*"' obs-chaos-violations-218.ndjson | cut -d'"' -f4 | tr '\n' ';'); \
	if [ "$$cells" != "chaos patrol/skew seed=218;chaos warehouse/skew seed=218;" ]; then \
	  echo "violation-dump: dumped cells \"$$cells\", want patrol and warehouse under skew at seed 218"; exit 1; fi
	@awk '/^\{"cell":/ { if (m) bad = 1; m = 1; next } { if (NR == 1) bad = 1; m = 0; n++ } \
	  END { print "violation-dump: 2 cells, " n " events"; exit bad || m }' obs-chaos-violations-218.ndjson \
	  || { echo "violation-dump: a cell marker is not followed by events"; exit 1; }

# The snapshot/resume differential smoke: capture a 300-robot chaos
# cell at its midpoint, then resume it with -verify, which re-runs the
# cell uninterrupted and exits nonzero unless fingerprints and metrics
# are byte-identical. One command covers the envelope codecs, the
# config echo, and resume at production scale. The two committed
# snapshots an older binary captured then resume the same way, so
# cross-version resume runs through the CLI too. The cell runs 30 s, the
# dense benchmark cell's length: a mixed cell of 24 s or less schedules
# no fault, and the CLI refuses one.
snapshot-smoke:
	$(GO) run ./cmd/roborebound -progress=false \
	  -controller flocking -profile mixed -n 300 -duration 30 \
	  -o snapshot-cell.rbsn snapshot
	$(GO) run ./cmd/roborebound -progress=false \
	  -from snapshot-cell.rbsn -verify resume
	$(GO) run ./cmd/roborebound -progress=false \
	  -from testdata/parent_brute.rbsn -verify resume
	$(GO) run ./cmd/roborebound -progress=false \
	  -from testdata/parent_indexed.rbsn -verify resume

# The performance-plane smoke: one 300-robot chaos cell run twice by
# the perf subcommand — untimed, then with the full wall-clock plane
# attached (phase timer, runtime sampler) — printing the
# phase-attributed timing table and runtime telemetry, and exiting
# nonzero unless the two runs are byte-identical (fingerprint and
# metrics snapshot). Every perf report doubles as an observation-only
# proof at production scale, on the snapshot smoke's 30 s faulted cell.
perf-smoke:
	$(GO) run ./cmd/roborebound -progress=false \
	  -controller flocking -profile mixed -n 300 -duration 30 perf

# Short fuzz pass over each fuzz target (seed corpora always run as
# part of `make test`; this explores beyond them).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzFrameRoundTrip -fuzztime=20s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecoders -fuzztime=20s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzFragmentRoundTrip -fuzztime=20s ./internal/radio
	$(GO) test -run=NONE -fuzz=FuzzReassembler -fuzztime=20s ./internal/radio
	$(GO) test -run=NONE -fuzz=FuzzDecodeCheckpoint -fuzztime=20s ./internal/auditlog
	$(GO) test -run=NONE -fuzz=FuzzReplayMachineReuse -fuzztime=20s ./internal/replay
	$(GO) test -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=20s ./internal/snapshot
	$(GO) test -run=NONE -fuzz=FuzzChaosEcho -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzSnapshotApply -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzJobRequestDecode -fuzztime=20s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzAcceptedCellJob -fuzztime=20s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzJSONString -fuzztime=20s ./internal/obs
	$(GO) test -run=NONE -fuzz=FuzzSHA1Stream -fuzztime=20s ./internal/cryptolite
