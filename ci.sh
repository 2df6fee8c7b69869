#!/usr/bin/env bash
# Tier-1 verification gate: docs checks, configure, build everything with
# -Werror on the dexlego library, run every registered test suite in
# parallel, then smoke the batch pipeline. A broken build, a red suite or a
# stale doc exits non-zero, so this script is the merge gate.
set -euo pipefail

cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build-ci}"
JOBS="${JOBS:-$(nproc)}"

# --- docs gate -------------------------------------------------------------
# 1. Every public header must open with a file doc comment.
docs_failed=0
for header in src/*/*.h; do
  if ! head -1 "$header" | grep -q '^//'; then
    echo "docs gate: $header lacks a file doc comment" >&2
    docs_failed=1
  fi
done
# 2. Every repo path ARCHITECTURE.md references (backticked, under a known
#    top-level dir) must exist, so the map can't silently rot.
while IFS= read -r ref; do
  if [ ! -e "$ref" ]; then
    echo "docs gate: docs/ARCHITECTURE.md references missing path: $ref" >&2
    docs_failed=1
  fi
done < <(grep -oE '`(src|tests|bench|examples|docs)/[A-Za-z0-9_./-]*`' \
           docs/ARCHITECTURE.md | tr -d '\`' | sort -u)
if [ "$docs_failed" -ne 0 ]; then
  echo "docs gate failed" >&2
  exit 1
fi
echo "docs gate passed"

# --- include-cycle lint ----------------------------------------------------
# The include graph between src/ subdirectories must stay acyclic: every
# `#include "src/<dir>/..."` in src/<dir'>/ is an edge dir -> dir' (nested
# dirs like dex/real are their own component), and tsort refuses a graph
# with a loop. A cycle means two subsystems can no longer be understood —
# or compiled — independently.
cycle_edges="$(
  find src -name '*.h' -o -name '*.cpp' | while IFS= read -r f; do
    d="$(dirname "$f" | sed 's|^src/||')"
    grep -oE '#include "src/[a-z_/]+/[A-Za-z0-9_.]+\.h"' "$f" 2>/dev/null \
      | sed -E 's|#include "src/(.+)/[A-Za-z0-9_.]+\.h"|\1|' | sort -u \
      | while IFS= read -r dep; do
          [ "$dep" != "$d" ] && echo "$dep $d"
        done
  done | sort -u
)"
if ! tsort <<<"$cycle_edges" > /dev/null; then
  echo "include-cycle lint: src/ subdirectory include graph has a cycle" >&2
  exit 1
fi
echo "include-cycle lint passed"

# --- perfbench self-tests --------------------------------------------------
# Unit tests of the benchmark's own metric math (nearest-rank percentiles,
# output digest, worker_util, metric sets vs BENCHMARK.json, the output
# gate). They need no build and run in milliseconds. Probe-gated: hosts
# without python3 skip them instead of failing.
if command -v python3 > /dev/null 2>&1; then
  PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench \
    -p 'test_*.py'
  echo "perfbench self-tests passed"
else
  echo "python3 unavailable; skipping perfbench self-tests"
fi

# --- build + tests ---------------------------------------------------------
cmake -B "$BUILD_DIR" -S . -DDEXLEGO_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
# (cd instead of --test-dir: the latter needs CTest >= 3.20, we claim 3.16.)
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# --- Release -Werror build -------------------------------------------------
# perfbench builds the library in Release (-O3), where GCC reports warnings
# the RelWithDebInfo (-O2) build above does not (GCC 12's -Wrestrict false
# positive on a short literal + std::to_string once inlined), so the library
# alone is built once more in Release with -Werror.
release_dir="${BUILD_DIR}-release"
cmake -B "$release_dir" -S . -DCMAKE_BUILD_TYPE=Release -DDEXLEGO_WERROR=ON \
  -DDEXLEGO_BUILD_TESTS=OFF -DDEXLEGO_BUILD_BENCHES=OFF \
  -DDEXLEGO_BUILD_EXAMPLES=OFF
cmake --build "$release_dir" -j "$JOBS" --target dexlego
echo "Release -Werror build passed"

# --- clang-tidy gate -------------------------------------------------------
# bugprone-*/performance-*/concurrency-* (config in .clang-tidy, warnings
# are errors) over the taint subsystem, using the compile commands the
# build above exported. Probe-gated: toolchains without clang-tidy skip the
# gate instead of failing it.
if command -v clang-tidy > /dev/null 2>&1; then
  clang-tidy -p "$BUILD_DIR" --quiet src/analysis/*.cpp
  echo "clang-tidy gate passed"
else
  echo "clang-tidy unavailable; skipping tidy gate"
fi

# --- pipeline smoke --------------------------------------------------------
# A tiny batch on 2 workers, byte-compared against the sequential path, then
# the same with ForceEngine exploration (each worker explores whole apps).
"$BUILD_DIR"/examples/dexlego_batch --scenario generated --count 4 \
  --threads 2 --compare-sequential --quiet
"$BUILD_DIR"/examples/dexlego_batch --scenario guarded --count 2 --force \
  --threads 2 --compare-sequential --quiet
# DroidBench under force: its self-modifying and reflection samples send
# forced units that walk the fold into divergences and reflective calls.
"$BUILD_DIR"/examples/dexlego_batch --scenario droidbench --force \
  --threads 2 --compare-sequential --quiet
# Packed apps under force: every unit installs the job's one parse as image
# 0 and parses the payload it unpacks itself, so each unit mixes a shared
# image with one of its own.
"$BUILD_DIR"/examples/dexlego_batch --scenario packed --force --threads 2 \
  --compare-sequential --quiet
# Real-DEX containers (classes.dex + split multidex) through the same
# pipeline, byte-compared against sequential — ARCHITECTURE invariant 12.
"$BUILD_DIR"/examples/dexlego_batch --scenario realdex --count 6 \
  --threads 2 --compare-sequential --quiet
# The market-reuse corpus, whose apps share library bodies across workers,
# byte-compared against the sequential run.
"$BUILD_DIR"/examples/dexlego_batch --scenario large --count 8 \
  --threads 2 --compare-sequential --quiet
# The fuzzer's hostile mutants through the job path, plain and under force.
"$BUILD_DIR"/examples/dexlego_batch --scenario fuzz --count 60 \
  --threads 2 --compare-sequential --quiet
"$BUILD_DIR"/examples/dexlego_batch --scenario fuzz --count 60 --force \
  --threads 2 --compare-sequential --quiet

# --- extraction service smoke ----------------------------------------------
# The long-running service on a persistent store (docs/SERVICE.md): a cold
# extraction of the market corpus head, then a RESTART of the service on the
# same store directory with 10% of the apps mutated. The second run must
# serve every unchanged app warm from the incremental manifest with zero new
# method trees, and its open must cut no torn bytes, since the first run
# exited cleanly (--expect-incremental). It must also match a cold
# in-memory run of the same corpus fingerprint-for-fingerprint
# (--compare-cold, ARCHITECTURE invariant 14). The logs are the whole
# store: the directory then holds only LOCK, apps.log and shard-*.log.
service_store="$(mktemp -d)"
"$BUILD_DIR"/examples/dexlego_service --store "$service_store/store" \
  --corpus large --count 24 --threads 2 --quiet
"$BUILD_DIR"/examples/dexlego_service --store "$service_store/store" \
  --corpus large --count 24 --threads 2 --mutate-pct 10 \
  --expect-incremental --compare-cold --quiet
stray_files="$(ls -A "$service_store/store" |
  grep -vxE 'LOCK|apps\.log|shard-[0-9]+\.log' || true)"
if [ -n "$stray_files" ]; then
  echo "service smoke: unexpected files in the store: $stray_files" >&2
  exit 1
fi
rm -rf "$service_store"
echo "service smoke passed"

# --- Tables I-V gate -------------------------------------------------------
# The packer (Table I), static-tool (II), packed-app (III), dynamic-taint
# (IV) and real-world (V) reproductions are deterministic, so their stdout
# is pinned byte for byte. They are the check that the packers, the unpacker
# baselines and the dynamic presets behave the same run after run. ~1.5 s
# together. After a deliberate change, refresh a golden with
#   "$BUILD_DIR"/bench/<table> > bench/<table>.golden
for table in table1_packers table2_static_tools table3_packed_tools \
             table4_dynamic table5_realworld; do
  table_out="$(mktemp)"
  "$BUILD_DIR/bench/$table" > "$table_out"
  if ! diff -u "bench/$table.golden" "$table_out"; then
    echo "$table: output differs from bench/$table.golden" >&2
    exit 1
  fi
  rm -f "$table_out"
done
echo "Tables I-V gate passed"

# --- Tables VI/VII gate ----------------------------------------------------
# The coverage reproduction (Sapienz-style fuzzing, then force execution
# over the five F-Droid-shaped apps) is single-threaded and deterministic,
# so its stdout is pinned byte for byte. The perfbench digest pins only the
# revealed DEX bytes; this gate is the one that sees collection dump sizes
# and class/method/line/branch/instruction coverage, so a change to the
# collector, the coverage tracker or the force engine that moves any of
# them fails here. ~20 s on one core. After a deliberate change, refresh
# the golden with
#   "$BUILD_DIR"/bench/table6_7_coverage > bench/table6_7_coverage.golden
table67_out="$(mktemp)"
"$BUILD_DIR"/bench/table6_7_coverage > "$table67_out"
if ! diff -u bench/table6_7_coverage.golden "$table67_out"; then
  echo "Tables VI/VII: output differs from bench/table6_7_coverage.golden" >&2
  exit 1
fi
rm -f "$table67_out"
echo "Tables VI/VII gate passed"

# --- pipeline scaling bench ------------------------------------------------
# The 10k-app large_corpus scaling run at 1/2/4/8 threads. The bench
# fingerprint-compares every config's per-app outputs internally and exits
# non-zero on any divergence, so byte-identity across thread counts is part
# of this gate. The >= 2x speedup bar at 4 threads only arms on hosts that
# actually have >= 4 hardware threads — below that the speedup rows are
# reporting-only (a 1-core container cannot show a multi-core speedup).
# Armed, the bench runs the 1- and 4-thread configs twice more, alternating,
# and gates on the ratio of their median walls. The median apps/sec of the
# 1-thread runs (three or more: the bench makes up any the speedup gate did
# not run) is also gated against the recorded baseline in
# bench/pipeline_baseline.json, the median of five separate 1-thread runs.
# It fails more than 25% below it. On a 4-vCPU container one binary read
# 1,510-1,850 apps/s over seven consecutive runs (median 1,764), and the
# medians of three consecutive runs 1,596-1,834, down to 9.5% under it; an
# earlier binary read 1,058 and 1,505 in two consecutive quiet runs.
# Refresh the baseline on a quiet machine with
#   DEXLEGO_UPDATE_BASELINE=1 ./ci.sh
hw_threads="$(nproc)"
scaling_args=(--corpus large --count 10000 --threads 1,2,4,8)
if [ "$hw_threads" -ge 4 ]; then
  scaling_args+=(--gate-threads 4 --min-speedup 2.0)
else
  echo "pipeline scaling: $hw_threads hardware thread(s) < 4;" \
       "speedup gate is reporting-only"
fi
baseline_file="bench/pipeline_baseline.json"
if [ -z "${DEXLEGO_UPDATE_BASELINE:-}" ] && [ -f "$baseline_file" ]; then
  baseline_rate="$(sed -n 's/.*"apps_per_sec":\([0-9.]*\).*/\1/p' \
                   "$baseline_file")"
  if [ -n "$baseline_rate" ]; then
    scaling_args+=(--baseline-apps-per-sec "$baseline_rate" \
                   --max-regression 0.25)
  fi
fi
scaling_out="$(mktemp)"
"$BUILD_DIR"/bench/pipeline_throughput "${scaling_args[@]}" | tee "$scaling_out"
# One quick DroidBench set keeps the historical trajectory line alive.
"$BUILD_DIR"/bench/pipeline_throughput --corpus droidbench --repeat 1 \
  | tee -a "$scaling_out"
# Every pipeline BENCH_JSON line must carry the full key set before it joins
# the trajectory file — a missing field silently breaks downstream parsers.
pipeline_lines=0
while IFS= read -r line; do
  pipeline_lines=$((pipeline_lines + 1))
  for key in bench corpus threads jobs wall_ms apps_per_sec \
             speedup_vs_1t dedup_hit_rate verified; do
    if ! grep -q "\"$key\":" <<<"$line"; then
      echo "pipeline scaling: BENCH_JSON line missing key '$key': $line" >&2
      exit 1
    fi
  done
done < <(grep '^BENCH_JSON ' "$scaling_out")
if [ "$pipeline_lines" -lt 8 ]; then  # 4 scaling configs + 4 droidbench
  echo "pipeline scaling: expected >= 8 BENCH_JSON lines, got $pipeline_lines" >&2
  exit 1
fi
# BENCH_pipeline.json is the perf trajectory file, one JSON object per
# line: this stanza starts it afresh and the service bench below appends to
# it.
grep '^BENCH_JSON ' "$scaling_out" | sed 's/^BENCH_JSON //' \
  > BENCH_pipeline.json
if [ -n "${DEXLEGO_UPDATE_BASELINE:-}" ]; then
  baseline_rates=()
  for _ in 1 2 3 4 5; do
    baseline_rates+=("$("$BUILD_DIR"/bench/pipeline_throughput --corpus large \
      --count 10000 --threads 1 \
      | sed -n 's/^BENCH_JSON .*"apps_per_sec":\([0-9.]*\).*/\1/p')")
  done
  baseline_median="$(printf '%s\n' "${baseline_rates[@]}" | sort -g | sed -n 3p)"
  printf '{"bench":"pipeline_throughput","corpus":"large_corpus","threads":1,"apps_per_sec":%s,"runs":5}\n' \
    "$baseline_median" > "$baseline_file"
  echo "pipeline scaling: baseline refreshed from ${baseline_rates[*]}:" \
       "$(cat "$baseline_file")"
fi
rm -f "$scaling_out"
echo "pipeline scaling passed ($pipeline_lines configs)"

# --- service throughput bench ----------------------------------------------
# Warm-vs-cold incremental extraction: the bench runs cold/base, identical
# resubmit, mutated resubmit and a cold reference, fingerprint-compares warm
# against cold internally, and exits non-zero below a 1.5x incremental
# speedup — the measurable-speedup acceptance gate for the service.
service_out="$(mktemp)"
"$BUILD_DIR"/bench/service_throughput --count 48 --threads 2 \
  --min-warm-speedup 1.5 | tee "$service_out"
service_lines=0
while IFS= read -r line; do
  service_lines=$((service_lines + 1))
  for key in bench phase jobs threads wall_ms apps_per_sec incremental_jobs \
             methods_new methods_reused store_entries speedup_vs_cold; do
    if ! grep -q "\"$key\":" <<<"$line"; then
      echo "service bench: BENCH_JSON line missing key '$key': $line" >&2
      exit 1
    fi
  done
done < <(grep '^BENCH_JSON ' "$service_out")
if [ "$service_lines" -ne 4 ]; then  # cold_v0, warm_identical, warm_mutated, cold_v1
  echo "service bench: expected 4 BENCH_JSON lines, got $service_lines" >&2
  exit 1
fi
grep '^BENCH_JSON ' "$service_out" | sed 's/^BENCH_JSON //' >> BENCH_pipeline.json
rm -f "$service_out"
echo "service bench passed ($service_lines phases)"

# --- fuzz smoke ------------------------------------------------------------
# A time-boxed fixed-seed differential-fuzzing campaign (docs/FUZZING.md).
# Exit 1 means an unminimized divergence or crash survived to HEAD: the
# campaign prints the finding's seed/ops so it can be triaged into
# tests/data/fuzz/. The campaign is fully deterministic, so its report
# fingerprint is pinned too: a change that moves any oracle verdict fails
# here. After a deliberate verdict change, refresh the pin from the
# "report_fingerprint" this prints. ~30 s on one core.
fuzz_report_pin="568c349ff89b9add"
fuzz_smoke() {  # $1: the dexlego_fuzz binary
  local fuzz_out
  fuzz_out="$(mktemp)"
  "$1" --seed 1 --iters 250 --json | tee "$fuzz_out"
  if ! grep -q "\"report_fingerprint\":\"$fuzz_report_pin\"" "$fuzz_out"; then
    echo "fuzz smoke: report fingerprint is not $fuzz_report_pin" >&2
    exit 1
  fi
  rm -f "$fuzz_out"
}
fuzz_smoke "$BUILD_DIR"/examples/dexlego_fuzz

# --- ThreadSanitizer pass --------------------------------------------------
# Rebuilds the concurrency-bearing suites (pipeline_test: the job-cursor
# scheduler + DedupStore races; force_engine_test: the frontier logic each
# force job drives; fuzz_test: the campaign worker pool sharing resolved
# seeds; service_test: the persistent store's log appends under concurrent
# intern plus the extraction service's worker pool, quotas, cancellation
# and store-directory lock; real_dex_test's container-equivalence runs)
# under TSan and runs them. Skipped where TSan can't compile, link or
# execute (older toolchains, restricted sandboxes).
TSAN_DIR="${TSAN_DIR:-${BUILD_DIR}-tsan}"
tsan_probe="$(mktemp -d)"
cat > "$tsan_probe/probe.cpp" <<'EOF'
#include <thread>
int main() { std::thread t([]{}); t.join(); return 0; }
EOF
if c++ -fsanitize=thread -o "$tsan_probe/probe" "$tsan_probe/probe.cpp" \
     2>/dev/null && "$tsan_probe/probe" 2>/dev/null; then
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DDEXLEGO_BUILD_BENCHES=OFF -DDEXLEGO_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target pipeline_test force_engine_test fuzz_test real_dex_test \
             service_test
  "$TSAN_DIR"/tests/pipeline_test
  "$TSAN_DIR"/tests/force_engine_test
  "$TSAN_DIR"/tests/fuzz_test
  "$TSAN_DIR"/tests/service_test
  # Container-equivalence runs the reveal pipeline end to end; under TSan it
  # guards the real-DEX load path against racy lazy state.
  "$TSAN_DIR"/tests/real_dex_test --gtest_filter='RealDexContainerEquivalence.*'
else
  echo "ThreadSanitizer unavailable; skipping TSan pass"
fi
rm -rf "$tsan_probe"

# --- AddressSanitizer + UndefinedBehaviorSanitizer pass --------------------
# Rebuilds every suite and dexlego_fuzz with ASan and UBSan (undefined
# behaviour is fatal, not just reported) and runs them, then the pinned
# fuzz smoke. The three hostile-input parsers (LDEX, real DEX, the service's
# store logs) and an interpreter running self-modifying code are where a
# silent out-of-bounds write would hide. _GLIBCXX_ASSERTIONS makes an
# out-of-range std::array/std::vector index fatal too: ASan misses one that
# stays inside its enclosing object. Skipped where the sanitizers can't
# compile, link or execute.
ASAN_DIR="${ASAN_DIR:-${BUILD_DIR}-asan}"
asan_flags="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
asan_flags+=" -D_GLIBCXX_ASSERTIONS"
asan_probe="$(mktemp -d)"
cat > "$asan_probe/probe.cpp" <<'EOF'
#include <vector>
int main() { std::vector<int> v(4, 1); return v[3] - 1; }
EOF
# shellcheck disable=SC2086  # asan_flags is a deliberate word list
if c++ $asan_flags -o "$asan_probe/probe" "$asan_probe/probe.cpp" \
     2>/dev/null && "$asan_probe/probe" 2>/dev/null; then
  cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_CXX_FLAGS="$asan_flags -fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="$asan_flags" \
    -DDEXLEGO_BUILD_BENCHES=OFF
  cmake --build "$ASAN_DIR" -j "$JOBS"
  (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS")
  fuzz_smoke "$ASAN_DIR"/examples/dexlego_fuzz
  echo "ASan+UBSan pass passed"
else
  echo "ASan/UBSan unavailable; skipping ASan+UBSan pass"
fi
rm -rf "$asan_probe"
