#!/usr/bin/env bash
# CI gate: build, vet, and the full test suite under the race detector.
# The race detector is load-bearing here — the bench harness fans
# simulation cells across goroutines (bench.RunCells), and the determinism
# test exercises that pool at jobs=4.
set -euo pipefail
cd "$(dirname "$0")"

go build ./...
go vet ./...
# Cross-build stage: the open-loop pacer reads a Linux timerfd
# (internal/engine/pacer_linux.go); every other OS builds its time.Sleep
# fallback, and these two builds keep that fallback compiling.
GOOS=darwin GOARCH=arm64 go build ./...
GOOS=windows GOARCH=amd64 go build ./...
# perfbench is a module of its own (it replaces streamscale with the parent
# directory), so the root build and vet never compile it: vet it here, so a
# change to an API it uses breaks CI rather than the benchmark run.
(cd perfbench && go vet ./...)
# Formatting gate: every Go file in both modules is gofmt-clean.
test -z "$(gofmt -l .)" || { echo "ci: gofmt -l reports unformatted files:" >&2; gofmt -l . >&2; exit 1; }
# dsplint enforces the repo-specific invariants (determinism, cycle
# accounting, hot-path allocation discipline, and the lock-free concurrency
# discipline); see DESIGN.md "Machine-checked invariants" and "Concurrency
# discipline". Exits non-zero on any diagnostic. The count assertion keeps
# the suite honest: an analyzer that exists but is not registered in
# analysis.All() never runs, so registration is a checked property too.
analyzers=$(go run ./cmd/dsplint -list | wc -l)
if [ "$analyzers" -ne 8 ]; then
  echo "ci: dsplint -list reports $analyzers analyzers, want 8" >&2
  exit 1
fi
go run ./cmd/dsplint ./...
# -timeout raised above the go test default (10m): the race detector's
# ~10x slowdown pushes internal/bench past 10 minutes on small hosts. This
# run includes the gates of the fast tier, the joint search and the tail
# stack (TestTierSmoke, TestJointSmoke and TestTailSmoke in internal/bench).
go test -race -timeout 45m ./...
# Cache-equivalence gate: the same sweep run cold (simulate + persist)
# and warm (replay from the -cache directory, zero simulations) must
# produce byte-identical experiment tables. Run without -race so it
# exercises the exact code the CLIs ship.
go test -run TestColdVsWarmEquivalence -count=1 ./internal/bench/
# Benchmark stage: produce machine-readable trajectory records for two
# representative apps (one per engine profile). dspbench writes
# BENCH_<app>_<system>.json next to the working directory; keep them
# out of the tree.
BENCH_DIR=$(mktemp -d)
trap 'rm -rf "$BENCH_DIR"' EXIT
# Experiment-list stage: dspreport lists only report experiments (the gates
# are the tests above), and -tier adds the tiered spec matrix. -list builds
# each experiment list without running any of it.
go run ./cmd/dspreport -list > "$BENCH_DIR/list.txt"
go run ./cmd/dspreport -tier -list > "$BENCH_DIR/tier_list.txt"
if grep -q smoke "$BENCH_DIR/list.txt" "$BENCH_DIR/tier_list.txt"; then
  echo "ci: dspreport lists a smoke experiment:" >&2; grep smoke "$BENCH_DIR/list.txt" "$BENCH_DIR/tier_list.txt" >&2; exit 1
fi
grep -q '^  tier-specs ' "$BENCH_DIR/tier_list.txt" || { echo "ci: dspreport -tier -list lacks tier-specs" >&2; exit 1; }
# Every experiment either list prints has a row in DESIGN.md's
# per-experiment index that names its -experiment ID.
for id in $(awk 'FNR > 1 {print $1}' "$BENCH_DIR/list.txt" "$BENCH_DIR/tier_list.txt" | sort -u); do
  grep -Eq "^\|.*-experiment $id[\` ]" DESIGN.md || { echo "ci: DESIGN.md's experiment index has no -experiment $id row" >&2; exit 1; }
done
# Report stage: a cold full report (no -cache, default -jobs) must print
# exactly the committed report_output.txt. The report is deterministic at
# any worker count, so any difference is a changed result: regenerate and
# commit report_output.txt with the change that moved it. Its stderr must
# also count exactly the simulations the memo runs and the requests it
# dedupes, so a memo key that collapses fewer cells or more cells than
# before fails here even when the tables hold. (No -quiet: that would drop
# the count line, and the progress line prints only on a terminal.) A
# change that moves these counts updates this line together with
# report_output.txt.
go run ./cmd/dspreport > "$BENCH_DIR/report.txt" 2> "$BENCH_DIR/report.err"
diff -u report_output.txt "$BENCH_DIR/report.txt" || { echo "ci: dspreport output differs from report_output.txt" >&2; exit 1; }
grep -q '312 simulated, 313 deduped, 0 from cache' "$BENCH_DIR/report.err" || { echo "ci: dspreport memo counts moved:" >&2; cat "$BENCH_DIR/report.err" >&2; exit 1; }
go build -o "$BENCH_DIR/dspbench" ./cmd/dspbench
(cd "$BENCH_DIR" && ./dspbench -app wc -system storm -batch 8 -quiet -json >/dev/null)
(cd "$BENCH_DIR" && ./dspbench -app lr -system flink -batch 8 -quiet -json >/dev/null)
for f in BENCH_wc_storm.json BENCH_lr_flink.json; do
  test -s "$BENCH_DIR/$f" || { echo "ci: missing $f" >&2; exit 1; }
done
# Trace stage: a traced smoke cell must produce the three trace artifacts,
# and dsptrace must verify the lossless reconciliation (it exits non-zero
# when the folded stall cycles disagree with the machine's charged ledger).
(cd "$BENCH_DIR" && ./dspbench -app wc -system storm -sockets 1 -quiet -profile=false -trace trace_out >/dev/null)
for f in trace.json stalls.folded summary.json; do
  test -s "$BENCH_DIR/trace_out/$f" || { echo "ci: missing trace artifact $f" >&2; exit 1; }
done
go run ./cmd/dsptrace "$BENCH_DIR/trace_out" >/dev/null
# Native smoke stage: the lock-free runtime under the race detector (the
# goroutine-per-executor + SPSC-ring fabric is exactly what -race exists
# for), then a record-producing run on the release build. The paced flink
# run lasts about five 20 ms checkpoint intervals, so the barrier path
# runs under -race too.
go build -race -o "$BENCH_DIR/dspbench-race" ./cmd/dspbench
(cd "$BENCH_DIR" && ./dspbench-race -native -app wc -system storm -batch 4 -events 2000 >/dev/null)
(cd "$BENCH_DIR" && ./dspbench-race -native -app wc -system flink -batch 4 -events 2000 -rate 20000 >/dev/null)
(cd "$BENCH_DIR" && ./dspbench -native -app wc -system storm -batch 4 -chain -json >/dev/null)
test -s "$BENCH_DIR/BENCH_native_wc_storm.json" || { echo "ci: missing BENCH_native_wc_storm.json" >&2; exit 1; }
# Hot-path stage (non-race: the race detector's instrumentation allocates,
# so the allocation gates skip under -race). The ring hop must stay
# allocation-free, the native wc/storm/S=4 cell and the simulated
# wc/storm and vs/storm sim-cells cells on a reused machine must stay under
# their committed allocation ceilings, a Table III machine must stay under its committed footprint,
# and every transport and cost-hook method of both drivers, and the Context
# cost methods, must be //dsp:hotpath, so the dsplint run above checks them
# for allocation and blocking synchronization. ci.sh asserts no wall-clock
# figure: perfbench's workloads and layer metrics measure throughput.
go test -run 'TestRingTransferZeroAllocs|TestRingMsgTransferZeroAllocs|TestNativePipelineAllocCeiling|TestDriverMethodsAreHotPath|TestSimCellAllocCeiling|TestMachineFootprint' -count=1 ./internal/ring/ ./internal/engine/ ./internal/bench/ ./internal/hw/
# Fuzz stage: FuzzCacheMatchesReference holds hw.Cache to the tick-scan LRU
# cache it replaced (internal/hw/cache_ref_test.go) on every hit, miss, way
# index and counter, FuzzLLCMatchesReference holds the versionless LLC to
# the same cache, which keeps a version per way, on every hit, miss,
# counter and set's recency order (internal/hw/cache_fuzz_test.go),
# FuzzDataWalkMatchesReference holds the data walk over the line directory
# to the walk over that cache at every level and a map of line versions on
# every call's cycles, cost vector, ledger and Ops
# (internal/hw/walk_fuzz_test.go), FuzzCodeL1IMatchesReference holds the
# machine's L1I index to the tick-scan cache on every fetched block, counter
# and resident way (internal/hw/codel1i_fuzz_test.go), FuzzBloomMatchesDense
# holds the sparse decaying Bloom
# filter to a dense one on every estimate (internal/apps/bloom_test.go),
# FuzzHistogramGobDecode requires a decoded histogram, which the memo cache
# reads from disk, to be an error or readable without a panic
# (internal/metrics/gob_test.go), and FuzzMPSCMatchesReference holds an
# MPSC's lanes to slice queues on every push, pop, lane index and length
# (internal/ring/mpsc_fuzz_test.go). The test runs above replay their
# committed corpora (testdata/fuzz in each package); this explores new
# inputs for a fixed time. Each interesting input the fuzzer finds is
# minimized for at most 1 s (-fuzzminimizetime; the default of 60 s let
# minimization take over a target's whole -fuzztime, so it stopped
# exploring about 3 s in), and each target prints how many inputs it ran.
fuzz() { # fuzz <target> <fuzztime> <package>
  local out
  out=$(go test -run '^$' -fuzz "^$1\$" -fuzztime "$2" -fuzzminimizetime 1s "$3" 2>&1) || { echo "$out" >&2; return 1; }
  echo "ci: $1 ran $(grep -o 'execs: [0-9]*' <<<"$out" | tail -n 1 | cut -d ' ' -f 2) inputs in $2"
}
fuzz FuzzCacheMatchesReference 20s ./internal/hw/
fuzz FuzzLLCMatchesReference 10s ./internal/hw/
fuzz FuzzDataWalkMatchesReference 10s ./internal/hw/
fuzz FuzzCodeL1IMatchesReference 10s ./internal/hw/
fuzz FuzzBloomMatchesDense 10s ./internal/apps/
fuzz FuzzHistogramGobDecode 10s ./internal/metrics/
fuzz FuzzMPSCMatchesReference 10s ./internal/ring/
# Ring stress stage: the high-iteration SPSC/MPSC protocol hammer under the
# race detector (skipped without DSP_STRESS so plain `go test ./...` stays
# fast). Sequence checks catch lost/reordered items; -race catches the
# orderings the sequence checks cannot.
DSP_STRESS=1 go test -race -run TestRingStress -count=1 ./internal/ring/
# Joint-search stage. Two gates:
#   (1) worker-count independence: the bnb and joint strategies' printed
#       plan lists (the pools the report's placement and joint decisions
#       rank) must be byte-identical at -jobs 1 and -jobs 8 (the search
#       splits its assignment tree across workers; the merge must not leak
#       scheduling order);
#   (2) the joint B&B determinism test under the race detector.
go build -o "$BENCH_DIR/dspplace" ./cmd/dspplace
for strategy in bnb joint; do
  (cd "$BENCH_DIR" && ./dspplace -app wc -system storm -strategy "$strategy" -scale 2 -batch 8 -jobs 1 > "${strategy}_j1.txt")
  (cd "$BENCH_DIR" && ./dspplace -app wc -system storm -strategy "$strategy" -scale 2 -batch 8 -jobs 8 > "${strategy}_j8.txt")
  diff "$BENCH_DIR/${strategy}_j1.txt" "$BENCH_DIR/${strategy}_j8.txt" || { echo "ci: $strategy search output differs across -jobs" >&2; exit 1; }
done
go test -race -run 'TestSearchJointDeterministicAcrossWorkers' -count=1 ./internal/place/
# Tail stage. Two gates:
#   (1) an open-loop every-tuple traced run must produce the artifacts;
#   (2) dsptrace -tail must recompute the worst tuple trees from raw
#       trace.json events and match summary.json's digest exactly
#       (it exits non-zero on any field mismatch). Run at k=5 (the digest
#       depth) and k=2 (fewer rows than the digest): the cross-check must
#       cover the full digest either way.
(cd "$BENCH_DIR" && ./dspbench -app wc -system storm -sockets 1 -rate 150000 -quiet -profile=false -trace tail_trace -trace-every 1 -trace-cadence -1 >/dev/null)
go run ./cmd/dsptrace -tail 5 "$BENCH_DIR/tail_trace" >/dev/null
go run ./cmd/dsptrace -tail 2 "$BENCH_DIR/tail_trace" >/dev/null
