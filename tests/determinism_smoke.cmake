# Determinism smoke test (ctest): one tuning session run twice —
# --jobs 1 and --jobs 4 — must be bit-identical in everything except
# wall-clock time.
#
# Invoked as
#   cmake -DFELIX_TUNE=... -DWORK_DIR=... -DCACHE_DIR=...
#         -P determinism_smoke.cmake
#
# Steps:
#   1. felix-tune --network dcgan --budget 10 with --jobs 1, saving
#      the best schedules (--out) and round records (--metrics-out).
#   2. Same command with --jobs 4.
#   3. The schedule files must compare byte-equal.
#   4. The round-record JSONL must compare equal after normalizing
#      the only wall-clock-dependent parts: every "wall_ms" value and
#      the final metrics snapshot line (its *_ms timer counters and
#      threads.pool_size gauge legitimately differ across pool sizes).

foreach(var FELIX_TUNE WORK_DIR CACHE_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "determinism_smoke: missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_tune suffix)
    execute_process(
        COMMAND "${FELIX_TUNE}"
            --network dcgan --device a5000 --budget 10 --seed 3
            ${ARGN}
            --cache-dir "${CACHE_DIR}"
            --out "${WORK_DIR}/best_${suffix}.cfg"
            --metrics-out "${WORK_DIR}/metrics_${suffix}.jsonl"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "felix-tune ${suffix} failed (${rc}):\n${out}\n${err}")
    endif()
endfunction()

run_tune(j1 --jobs 1)
run_tune(j4 --jobs 4)

# Best schedules must match byte for byte.
foreach(other j4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/best_j1.cfg" "${WORK_DIR}/best_${other}.cfg"
        RESULT_VARIABLE cfg_diff)
    if(NOT cfg_diff EQUAL 0)
        message(FATAL_ERROR
            "best schedules differ between j1 and ${other} "
            "(${WORK_DIR}/best_j1.cfg vs best_${other}.cfg)")
    endif()
endforeach()

# Round records must match after stripping wall-clock fields.
function(normalized_metrics path out_var)
    file(READ "${path}" text)
    string(REGEX REPLACE "\"wall_ms\":[ ]*[0-9.eE+-]+" "\"wall_ms\":0"
        text "${text}")
    string(REGEX REPLACE "[^\n]*\"type\":[ ]*\"metrics\"[^\n]*\n?" ""
        text "${text}")
    set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

normalized_metrics("${WORK_DIR}/metrics_j1.jsonl" metrics1)
foreach(other j4)
    normalized_metrics("${WORK_DIR}/metrics_${other}.jsonl" metricsB)
    if(NOT metrics1 STREQUAL metricsB)
        message(FATAL_ERROR
            "round records differ between j1 and ${other} "
            "(${WORK_DIR}/metrics_j1.jsonl vs "
            "metrics_${other}.jsonl)")
    endif()
endforeach()
if(metrics1 STREQUAL "")
    message(FATAL_ERROR "no round records emitted")
endif()

message(STATUS
    "determinism smoke OK: --jobs 1 == --jobs 4")
