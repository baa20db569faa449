# Bench-regression gate (ctest, opt-in via -DFELIX_BENCH_GATE=ON,
# label "bench-gate"): run the real bench_tape / bench_serve suites
# with --json-out and diff them against the committed BENCH_*.json
# baselines with felix-bench-diff (docs/serving.md "Bench gate").
#
# The threshold defaults to 0.5 (fail only when >50% worse than the
# committed numbers) because microbenchmark noise on shared CI boxes
# routinely reaches tens of percent; the gate exists to catch
# order-of-magnitude regressions (a scalar fallback silently
# replacing a SIMD path, an accidental O(n^2) loop), not 5% drift.
# Baselines are refreshed by committing a fresh --json-out run from
# the same machine class (EXPERIMENTS.md records the provenance).
#
# Each series runs five times and the report keeps its median
# (bench/bench_json.h), so one slow repetition on a busy host does
# not fail the gate. The repetitions of all series run in a random
# interleaved order, so one series' five are spread over the whole
# run instead of sharing one slow spell of the host.
#
# With -DSTRICT_NEW=ON the diff also fails when the fresh run has a
# benchmark the committed baseline lacks — i.e. the baseline must be
# re-committed whenever a benchmark series is added, so it always
# enumerates every series (EXPERIMENTS.md "Bench gate").
#
# Invoked as
#   cmake -DBENCH_BIN=... -DBENCH_NAME=tape -DBENCH_DIFF=...
#         -DBASELINE=... -DWORK_DIR=... [-DTHRESHOLD=0.5]
#         [-DSTRICT_NEW=ON] -P bench_gate.cmake

foreach(var BENCH_BIN BENCH_NAME BENCH_DIFF BASELINE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_gate: missing -D${var}")
    endif()
endforeach()
if(NOT DEFINED THRESHOLD)
    set(THRESHOLD 0.5)
endif()
set(strict_new_flag "")
if(STRICT_NEW)
    set(strict_new_flag "--strict-new")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(current "${WORK_DIR}/bench_${BENCH_NAME}.json")

execute_process(
    COMMAND "${BENCH_BIN}" "--json-out=${current}"
        --benchmark_repetitions=5
        --benchmark_report_aggregates_only=true
        --benchmark_enable_random_interleaving=true
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "bench_${BENCH_NAME} failed (${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${current}")
    message(FATAL_ERROR
        "bench_${BENCH_NAME} wrote no ${current}")
endif()

execute_process(
    COMMAND "${BENCH_DIFF}"
        --baseline "${BASELINE}" --current "${current}"
        --threshold "${THRESHOLD}" ${strict_new_flag}
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err
    RESULT_VARIABLE diff_rc)
message(STATUS "felix-bench-diff:\n${diff_out}")
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "bench gate failed for ${BENCH_NAME} (exit ${diff_rc}): "
        "fresh run regressed past ${THRESHOLD} vs ${BASELINE}\n"
        "${diff_err}")
endif()

message(STATUS "bench gate OK: ${BENCH_NAME} within threshold "
    "${THRESHOLD} of ${BASELINE}")
