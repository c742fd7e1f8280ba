#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite, then the
# concurrency tests again under ThreadSanitizer (-DPDW_SANITIZE=thread).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Benchmark self-test: perfbench builds ../src in its own Release tree, so
# a src/ API change that breaks that build, or a result that stops matching
# the single-node reference inside it, fails here rather than in a
# benchmark run. It also checks that the deterministic counts (DMS bytes
# per query, DSQL steps, memo size, q-error) repeat exactly.
python3 perfbench/run.py --self-test

# The parallel execution engine, plan cache, and the pipelined DMS
# (bounded queues + push-with-help backpressure + concurrent sessions
# moving data through the same pool) are the racy surfaces; run their
# tests instrumented. concurrency_test's session storm also compiles every
# step on every node concurrently, and creates and drops every query's temp
# tables concurrently. TSAN_OPTIONS halts on the first report.
cmake -B build-tsan -S . -DPDW_SANITIZE=thread
cmake --build build-tsan -j --target concurrency_test dms_pipeline_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/concurrency_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dms_pipeline_test

# DMV leg: the live-introspection suite under TSan — a session thread
# polls sys.dm_pdw_exec_requests / _steps while a storm of queries runs,
# exercising the request registry, the DMS progress feed, and virtual-table
# snapshot materialization against concurrent temp-table DDL.
cmake --build build-tsan -j --target dmv_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dmv_test

# Workload leg: admission control (slot handoff, priority queue, overload
# fast-fail), result-cache coalescing (leader/follower wakeups, follower
# cancel), and cooperative cancellation racing queued and mid-DMS queries —
# all lock/condvar surfaces, so they run instrumented.
cmake --build build-tsan -j --target workload_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/workload_test

# The vectorized batch engine (the default) owns raw selection-vector /
# hash-table indexing; run the whole suite through it under
# AddressSanitizer.
cmake -B build-asan -S . -DPDW_SANITIZE=address
cmake --build build-asan -j
(cd build-asan && ASAN_OPTIONS="halt_on_error=1" ctest --output-on-failure -j)

# Pre-aggregation leg: the pushdown differential sweep (preagg on/off x
# row/batch engine, all byte-compared against the single-node row oracle)
# under ASan. Partial-aggregate kernels index raw selection vectors and
# group tables, so both plan shapes of every sweep query run instrumented;
# the env-knob test inside also covers the PDW_OPT_PREAGG=0 kill switch.
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
