#!/usr/bin/env bash
# Sanitizer gate for the parallel execution engine, the tracing layer and
# the fault-injection/resilience paths.
#
# Leg 1 (TSan): configures a build tree with warnings + ThreadSanitizer,
# runs the engine's determinism/parallelism tests, the memsim
# differential/golden bit-identity suites, the distributed message-layer
# differential suite with its rank x thread bit-identity matrix, the
# fault-matrix and traced-fault suites and the tracer's
# span/metrics/attribution tests,
# then drives a traced multi-threaded end-to-end run (plus a faulted one
# that must dump the flight recorder) and validates the emitted
# trace/metrics/profile/flight JSON with python3 -m json.tool.
# Leg 2 (ASan+UBSan): rebuilds with AddressSanitizer + UBSan and runs the
# parser fuzz corpus, the fault matrix, the checkpoint suite, the
# serving suite with its 10k-job fault-storm soak gate (every job must be
# accounted exactly once under 4x overload) and the distributed suite's
# framing/recovery paths — the error paths exercised by injected faults
# and corrupted inputs must be leak-, overflow- and UB-clean, not just
# reach the right verdict.
# Finishes with the Release gates, each run to the end even when an
# earlier one fails (the script then exits non-zero naming every failed
# gate): a perf smoke (the memsim and front-end benches
# must still beat their recorded seed baselines) and the autotune gate:
# two fresh tuner runs over the device zoo must agree byte-for-byte, show
# tuned <= default everywhere, hold the recorded speedup floors, and both
# artifacts must parse. The Release leg ends with the bench-history gate:
# all seven metric-enveloped benches (including the serving SLO probe
# and the distributed weak-scaling bench) re-run fresh and must stay within
# their per-metric tolerances of the committed results/history/ baselines,
# and the gate's synthetic-regression self-test must trip. Any race,
# sanitizer report, test failure, malformed JSON or perf regression fails
# the script. Usage:
#
#   scripts/check.sh [build-dir]     # default: build-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DLASSM_BUILD_BENCH=OFF \
  -DLASSM_BUILD_EXAMPLES=ON

cmake --build "$BUILD" -j \
  --target tests_core tests_trace tests_memsim tests_resilience \
  tests_pipeline tests_serve tests_dist quickstart

# The parallel-assembler suite drives the pool across thread counts, batch
# shapes, steal interleavings and the error path; any data race in the
# engine or in the pooled kernel contexts trips TSan here. The golden
# suite re-checks the seed-pinned whole-pipeline numbers at N threads, so
# a fast path that is only "almost" bit-identical fails here too.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_core" \
  --gtest_filter='ParallelAssembler.*:ExecutionEngine.*:GoldenBitIdentity.*'

# The parallel front-end suite runs k-mer counting/filtering, contig
# generation, alignment and the whole pipeline across thread counts with
# per-shard merge phases live on the pool; a race in the sharded tables,
# the chunked partial maps or run_host_batch trips TSan here, and the
# seed-pinned golden fingerprints catch any almost-identical output. The
# concurrent-table suite is the lock-free table's dedicated TSan workload:
# interleaved insert/increment storms, concurrent shard rebuilds and the
# streaming double-buffer all run under the race detector, differenced
# against the serial merge oracle at 1/2/4/8 threads.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_pipeline" \
  --gtest_filter='FrontendParallel.*:ConcurrentKmerTable.*'

# The fault matrix crosses every injection seam with serial and 4-thread
# execution: retries, quarantines, watchdog aborts and device loss all
# happen while the pool is live, so isolation bugs (a retried task racing
# its own first attempt, a quarantine touching a neighbour's slot) trip
# TSan here. The traced-fault suite re-crosses the seams with tracing and
# the flight recorder armed: span absorption on the error path and the
# logger's ring/dump machinery must be race-clean too.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_resilience"

# The serving layer is the newest multi-threaded subsystem: client
# threads submit against the dispatcher while finish-paths update tenant
# breakers, counters and the cache concurrently. The whole suite — golden
# bit-identity at 1/4/8 workers, the seeded fault storms and the overload
# soak — runs under the race detector.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_serve"

# The distributed suite under TSan: the message-layer differential tests
# (ShardMap/MessageLayer/DistKmerTable vs their serial oracles) plus the
# end-to-end rank x thread bit-identity matrix run the sharded front-end
# and the per-rank device fleet on a live pool — a race in the batched
# queues, the adopt/recount recovery path or the per-rank merge trips
# TSan here.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_dist"

# The cache/tiered differential oracles under TSan: the memo, packed
# recency and epoch paths must match the naive model access by access.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_memsim" \
  --gtest_filter='*CacheDifferential*:TieredDifferentialTest.*'

# The trace suite hammers the same pool with per-worker span buffers and
# wait-free metric recording enabled — the tracer's deterministic-merge,
# registry and counter-attribution paths must be race-clean too (the
# attribution reconciliation tests run traced 1/2/4-thread assemblies
# right here under TSan).
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_trace"

# Traced multi-threaded end-to-end run: the emitted Chrome trace, metrics
# snapshot and attributed profile report must be valid JSON (json.tool
# exits non-zero on either a write failure above or malformed output).
TRACE_OUT="$BUILD/check_trace.json"
METRICS_OUT="$BUILD/check_metrics.json"
PROFILE_OUT="$BUILD/check_profile"
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/examples/quickstart" 21 40 4 \
  --trace "$TRACE_OUT" --metrics "$METRICS_OUT" --profile "$PROFILE_OUT"
python3 -m json.tool "$TRACE_OUT" > /dev/null
python3 -m json.tool "$METRICS_OUT" > /dev/null
python3 -m json.tool "$PROFILE_OUT.json" > /dev/null
echo "check.sh: trace/metrics/profile JSON valid."

# Faulted end-to-end run: a quarantine-heavy plan must produce flight
# recorder dumps, and every dump must be valid JSON naming its seam.
FLIGHT_DIR="$BUILD/check_flight"
rm -rf "$FLIGHT_DIR" && mkdir -p "$FLIGHT_DIR"
TSAN_OPTIONS="halt_on_error=1" \
  LASSM_FAULTPLAN="seed=4242 bad_input=0.2" LASSM_FLIGHT_DIR="$FLIGHT_DIR" \
  "$BUILD/examples/quickstart" 21 40 4
ls "$FLIGHT_DIR"/flight_*task_quarantined*.json > /dev/null
for dump in "$FLIGHT_DIR"/flight_*.json; do
  python3 -m json.tool "$dump" > /dev/null
done
echo "check.sh: flight recorder dumps present and valid."

echo "check.sh: TSan run clean."

# --- Leg 2: ASan + UBSan over the error paths. --------------------------
# The fuzz corpus (corrupted FASTA/FASTQ/dataset streams), the fault
# matrix and the checkpoint suite deliberately drive every parser and
# recovery path through its failure branches; ASan/UBSan turn a latent
# overflow, use-after-free or UB in those branches into a hard failure
# even when the test's verdict would still come out right.
ASAN_BUILD="${BUILD}-asan"
cmake -B "$ASAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DLASSM_BUILD_BENCH=OFF \
  -DLASSM_BUILD_EXAMPLES=OFF

cmake --build "$ASAN_BUILD" -j \
  --target tests_bio tests_resilience tests_pipeline tests_workload \
  tests_serve tests_dist

ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_bio" --gtest_filter='FastaFuzz.*'
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_resilience"
ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_pipeline" \
  --gtest_filter='Checkpoint.*:MultiGpuResilient.*:ConcurrentKmerTable.*'
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_workload"

# The distributed suite's framing/recovery paths under ASan+UBSan: the
# [len][payload] message frames, the shard-adoption bookkeeping and the
# orphan-recount path must be overflow- and leak-clean, not just
# bit-identical.
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_dist"

# Serving suite under ASan+UBSan, then the 10k-job fault-storm soak gate:
# every admission seam armed at once against a 4x-overloaded queue, and
# the accounting invariant (shed + completed + failed == submitted) must
# hold exactly — a leaked ticket, double resolve or lost job fails here.
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_serve"
ASAN_OPTIONS="detect_leaks=1" LASSM_SOAK_JOBS=10000 \
  "$ASAN_BUILD/tests/tests_serve" \
  --gtest_filter='ServeSoak.FaultStormOverloadAccountsEveryJobExactlyOnce'
echo "check.sh: serving soak gate clean (10000 jobs)."

echo "check.sh: ASan+UBSan run clean."

# --- Release gates. ----------------------------------------------------
# Every gate runs whatever the others report: a gate's failure is recorded
# by name, and the script exits non-zero at the end naming each failed
# gate, so one slow host metric never hides the verdicts of the gates
# after it.
PERF_BUILD="${BUILD}-perf"
cmake -B "$PERF_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLASSM_BUILD_BENCH=ON \
  -DLASSM_BUILD_EXAMPLES=OFF > /dev/null

FAILED_GATES=()
# run_gate NAME FUNCTION: runs FUNCTION in a subshell with errexit on (so
# its first failing command ends it) and records NAME if it fails.
run_gate() {
  local name="$1" rc=0
  set +e
  ( set -e; "$2" )
  rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    echo "check.sh: FAIL - gate '$name' (exit $rc)"
    FAILED_GATES+=("$name")
  fi
}

# Memsim probe gate: the hot-path bench carries its seed-build baseline;
# demand the probe loop still clears a healthy margin over it (the
# overhaul measured ~2.8x — 1.5x leaves room for machine noise without
# letting a real regression through).
memsim_probe_gate() {
cmake --build "$PERF_BUILD" -j --target bench_memsim_throughput > /dev/null
LASSM_RESULTS_DIR="$PERF_BUILD/results" "$PERF_BUILD/bench/bench_memsim_throughput"
python3 - "$PERF_BUILD/results/BENCH_memsim.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
speedup = j["speedup"]["probe"]
print(f"check.sh: probe speedup vs seed baseline: {speedup:.2f}x")
if speedup < 1.5:
    sys.exit("check.sh: FAIL - memsim probe loop regressed below 1.5x of the recorded baseline")
EOF
echo "check.sh: memsim probe gate clean."
}
run_gate memsim-probe memsim_probe_gate

# Same deal for the pipeline front-end: its bench records the seed-build
# per-stage wall clock; single-thread k-mer counting must still clear a
# healthy margin over it (the flat-table + rolling-window overhaul
# measured well above 2x — 1.5x absorbs machine noise without letting a
# real regression through).
frontend_smoke_gate() {
cmake --build "$PERF_BUILD" -j --target bench_pipeline_frontend > /dev/null
LASSM_RESULTS_DIR="$PERF_BUILD/results" "$PERF_BUILD/bench/bench_pipeline_frontend"
python3 - "$PERF_BUILD/results/BENCH_frontend.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
speedup = j["speedup"]["count"]
print(f"check.sh: k-mer count speedup vs seed baseline: {speedup:.2f}x")
if speedup < 1.5:
    sys.exit("check.sh: FAIL - k-mer counting regressed below 1.5x of the recorded baseline")
# Lock-free table acceptance gates: at one thread the concurrent path must
# not lose to the per-chunk + merge oracle (10% noise allowance — the
# deleted merge pass is its structural headroom), and with the pool the
# merge pass's elimination must show up as an outright win.
merge_1t, conc_1t = j["count_merge_1t_s"], j["count_concurrent_1t_s"]
merge_4t, conc_4t = j["count_merge_4t_s"], j["count_concurrent_4t_s"]
print(f"check.sh: count merge/concurrent 1t {merge_1t:.3f}/{conc_1t:.3f} s, 4t {merge_4t:.3f}/{conc_4t:.3f} s")
if conc_1t > merge_1t * 1.10:
    sys.exit("check.sh: FAIL - concurrent counting slower than the merge oracle at 1 thread")
if conc_4t > merge_4t:
    sys.exit("check.sh: FAIL - concurrent counting did not beat the merge path on the pool")
EOF
echo "check.sh: front-end smoke clean."
}
run_gate frontend-smoke frontend_smoke_gate

# Autotuner gate: two fresh (cache-bypassed) tuner runs over the device
# zoo must produce byte-identical artifacts — the tuner's objective is
# modelled sim-time, so any nondeterminism is a bug — and the JSON must
# show tuned <= default on every zoo device, the recorded expected-speedup
# floors holding, and a tuned improvement on at least two devices. Both
# artifacts must parse (json.tool for the JSON, csv.reader for the
# scorecard).
autotune_gate() {
cmake --build "$PERF_BUILD" -j --target bench_autotune > /dev/null
AT_RUN1="$PERF_BUILD/results"
AT_RUN2="$PERF_BUILD/results-autotune-rerun"
mkdir -p "$AT_RUN1" "$AT_RUN2"
LASSM_AUTOTUNE_NOCACHE=1 LASSM_RESULTS_DIR="$AT_RUN1" \
  "$PERF_BUILD/bench/bench_autotune"
LASSM_AUTOTUNE_NOCACHE=1 LASSM_RESULTS_DIR="$AT_RUN2" \
  "$PERF_BUILD/bench/bench_autotune" > /dev/null
cmp "$AT_RUN1/BENCH_autotune.json" "$AT_RUN2/BENCH_autotune.json"
cmp "$AT_RUN1/portability_scorecard.csv" "$AT_RUN2/portability_scorecard.csv"
echo "check.sh: autotune artifacts byte-identical across two fresh runs."
python3 -m json.tool "$AT_RUN1/BENCH_autotune.json" > /dev/null
python3 - "$AT_RUN1/BENCH_autotune.json" "$AT_RUN1/portability_scorecard.csv" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
improved = 0
for d in j["devices"]:
    slug, s = d["slug"], d["speedup"]
    if s < 1.0:
        sys.exit(f"check.sh: FAIL - tuned config slower than default on {slug} ({s:.3f}x)")
    if s > 1.0 + 1e-9:
        improved += 1
for slug, floor in j["expected_speedup_floor"].items():
    got = next(d["speedup"] for d in j["devices"] if d["slug"] == slug)
    print(f"check.sh: {slug} tuned speedup {got:.2f}x (recorded floor {floor}x)")
    if got < floor:
        sys.exit(f"check.sh: FAIL - {slug} speedup {got:.3f}x fell below the recorded floor {floor}x")
if improved < 2:
    sys.exit(f"check.sh: FAIL - tuner improved only {improved} zoo device(s); expected >= 2")
with open(sys.argv[2]) as f:
    rows = list(csv.reader(f))
if len(rows) < 2 + len(j["devices"]) or rows[-1][0] != "portability":
    sys.exit("check.sh: FAIL - portability_scorecard.csv malformed")
print(f"check.sh: tuner improved {improved}/{len(j['devices'])} zoo devices; scorecard has {len(rows)} rows.")
EOF
echo "check.sh: autotune gate clean."
}
run_gate autotune autotune_gate

# Bench-history gate: re-run the remaining metric-enveloped benches fresh
# (memsim, frontend and autotune already wrote into $PERF_BUILD/results
# above) and compare every headline metric against the committed
# per-commit baselines in results/history/ with its declared direction and
# tolerance. Then the gate's own self-test: a synthetic 20% shove in the
# bad direction must trip it — a gate that cannot fail protects nothing.
bench_history_gate() {
cmake --build "$PERF_BUILD" -j \
  --target bench_fig5_kernel_time bench_scaling_threads \
  bench_serving bench_distributed > /dev/null
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  "$PERF_BUILD/bench/bench_fig5_kernel_time" > /dev/null
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  "$PERF_BUILD/bench/bench_scaling_threads" > /dev/null
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  "$PERF_BUILD/bench/bench_serving"
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  "$PERF_BUILD/bench/bench_distributed" > /dev/null
rm -rf "$PERF_BUILD/results/history"
cp -r results/history "$PERF_BUILD/results/history"
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  python3 scripts/bench_history.py check
LASSM_RESULTS_DIR="$PERF_BUILD/results" \
  python3 scripts/bench_history.py check --synthetic-regression
echo "check.sh: bench-history gate clean."
}
run_gate bench-history bench_history_gate

if [ "${#FAILED_GATES[@]}" -ne 0 ]; then
  echo "check.sh: FAILED Release gates: ${FAILED_GATES[*]}"
  exit 1
fi
echo "check.sh: all Release gates clean."
