#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite, the perfbench
# self-test, the concurrency tests again under ThreadSanitizer
# (-DPDW_SANITIZE=thread), and the whole suite under AddressSanitizer
# (-DPDW_SANITIZE=address), followed by the preagg and chaos legs. A
# compiler warning in any of the three builds fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Env-knob census: src/ reads exactly these environment variables. A new
# knob doubles the configurations tests and benchmarks must cover, so it
# needs a measured reason and an edit here.
knobs="$(grep -rhoE 'getenv\("[A-Z_]+"\)' src | sort -u | tr '\n' ' ')"
expected='getenv("PDW_FAULTS") getenv("PDW_TRACE_OUT") '
if [[ "$knobs" != "$expected" ]]; then
  echo "env-knob census: src/ reads [$knobs], expected [$expected]" >&2
  exit 1
fi

# Warning gate, plain build: build/ is also the tier-1 verify command's
# tree, so -Werror stays out of its cache and the build log is searched
# instead. It holds the files this run compiles (every file on a fresh
# tree). The sanitizer trees below are this script's own and build with
# -Werror.
cmake -B build -S .
cmake --build build -j 2>&1 | tee build/tier1-build.log
if grep 'warning:' build/tier1-build.log >&2; then
  echo "the plain build printed the compiler warnings above" >&2
  exit 1
fi
(cd build && ctest --output-on-failure -j)

# Benchmark self-test: perfbench builds ../src in its own Release tree, so
# a src/ API change that breaks that build (LocalEngine::GetRows and the
# DMS producers are what it calls), or a result that stops matching the
# single-node reference inside it, fails here rather than in a benchmark
# run. It also checks that the deterministic counts (DMS bytes per query,
# DSQL steps, memo size, q-error) repeat exactly.
python3 perfbench/run.py --self-test

# Scale-4 byte gate. plan_golden_test pins every suite step at scales 0.2
# and 1, but Q5's plan cliff showed only at scale 4: with a transitivity-
# derived join conjunct counted as independent and the first-found local
# join order kept, Q5 moved 8.26 MB and built a 9.6M-row intermediate.
# report_large runs the suite at scale 4, and its DMS bytes per query and
# its largest step q-error (Q2's) are deterministic, so both are checked
# exactly: a plan or estimate that moves fails here.
counts="$(python3 perfbench/run.py --workload report_large --seed 7 \
  --seconds 2 --trace 0 | sed -n 's/^counts //p')"
python3 - "$counts" <<'EOF'
import json
import sys

want = {"dms_mb_per_query": 0.48006358333333327, "optimizer.qerror_max": 155}
got = json.loads(sys.argv[1])
if any(got.get(key) != value for key, value in want.items()):
    sys.exit(f"scale-4 byte gate: report_large counts {got}, expected {want}")
EOF

# The racy surfaces are the pool, which runs only node tasks (one per
# compute node of a step, or one DMS sender per source), the pipelined
# DMS, whose concurrent senders each write into a destination under that
# destination's mutex, the plan cache, concurrent sessions moving data
# through the same pool, and the stored columns: every plan that scans a
# table shares its columns by reference, so concurrent sessions scanning
# one node's table all touch one payload's reference count. Run their
# tests instrumented. In concurrency_test's session storm each step's one
# plan runs on every node concurrently, every query's temp tables are
# created and dropped concurrently, and the sessions scan the same stored
# tables; it repeats, as does dms_pipeline_test, so their cases see more
# than one interleaving. TSAN_OPTIONS halts on the first report.
cmake -B build-tsan -S . -DPDW_SANITIZE=thread -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-tsan -j --target concurrency_test dms_pipeline_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/concurrency_test \
  --gtest_repeat=2
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dms_pipeline_test \
  --gtest_repeat=3

# DMV leg: the live-introspection suite under TSan — a session thread
# polls sys.dm_pdw_exec_requests / _steps while a storm of queries runs,
# exercising the request registry (which stores each step's StepProfile:
# written by the step runner and the DMS progress feed while DMV snapshots
# copy it), the DMS progress feed, and virtual-table snapshot
# materialization against concurrent temp-table DDL. obs_test's
# ThreadSafetySmoke tests hammer the tracer and the metrics registry that
# every DMS worker and step writes into; ASan cannot see a data race, so
# they run instrumented here.
cmake --build build-tsan -j --target dmv_test obs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dmv_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test

# Workload leg: admission control (slot handoff, priority queue, overload
# fast-fail) and cooperative cancellation racing queued and mid-DMS
# queries are lock/condvar surfaces, so they run instrumented. It also
# runs sessions hitting and filling the plan and result caches at once;
# each cache's only synchronization is its one mutex.
cmake --build build-tsan -j --target workload_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/workload_test

# The vectorized batch engine (the default) owns raw selection-vector /
# hash-table indexing; run the whole suite under AddressSanitizer. Suites
# that pick the row engine per query run it instrumented too.
cmake -B build-asan -S . -DPDW_SANITIZE=address -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-asan -j
(cd build-asan && ASAN_OPTIONS="halt_on_error=1" ctest --output-on-failure -j)

# Pre-aggregation leg: the pushdown differential sweep (preagg on/off x
# row/batch engine, all byte-compared against the single-node reference,
# which runs the batch engine on the reference node) under ASan. Partial-aggregate kernels index raw selection vectors and
# group tables, so both plan shapes of every sweep query run instrumented.
cmake --build build-asan -j --target preagg_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/preagg_test

# Chaos leg: the seeded fault-injection differential suite under both
# sanitizers, at a fixed seed so a CI failure reproduces exactly.
# Override the seed (or widen the sweep) with PDW_CHAOS_SEED /
# PDW_CHAOS_RUNS; failures print the seed and fault schedule of the
# offending run in their SCOPED_TRACE.
: "${PDW_CHAOS_SEED:=20120520}"
cmake --build build-asan -j --target chaos_test
PDW_CHAOS_SEED="$PDW_CHAOS_SEED" ASAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tests/chaos_test
cmake --build build-tsan -j --target chaos_test
PDW_CHAOS_SEED="$PDW_CHAOS_SEED" TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/chaos_test
