# Determinism smoke test (ctest): each tuning session runs twice —
# --jobs 1 and --jobs 4 — and must be bit-identical in everything
# except wall-clock time.
#
# Invoked as
#   cmake -DFELIX_TUNE=... -DWORK_DIR=... -DCACHE_DIR=...
#         -P determinism_smoke.cmake
#
# Sessions (felix-tune --network dcgan --budget 10 --seed 3):
#   felix  the default strategy, with the pretrained cache CACHE_DIR;
#   ansor  --strategy ansor, whose 128-sample fine-tune batches make
#          eight training chunks;
#   cold   an empty --cache-dir, so the session first pretrains the
#          cost model (CostModel::fit, 12 epochs at batch 128);
#   warm   --jobs 1 again on cold's --jobs 1 cache, which it loads:
#          a session that pretrains must tune exactly like one that
#          loads what it saved.
# For every pair:
#   1. the best-schedule files (--out) must compare byte-equal;
#   2. the round-record JSONL (--metrics-out) must compare equal
#      after normalizing the only wall-clock-dependent parts: every
#      "wall_ms" value and the final metrics snapshot line (its *_ms
#      timer counters and threads.pool_size gauge legitimately differ
#      across pool sizes);
#   3. for cold, the two pretrained cost_model_a5000.txt files must
#      compare byte-equal.
# warm is compared to cold at --jobs 1 by 1. and 2.

foreach(var FELIX_TUNE WORK_DIR CACHE_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "determinism_smoke: missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_tune suffix cache_dir)
    execute_process(
        COMMAND "${FELIX_TUNE}"
            --network dcgan --device a5000 --budget 10 --seed 3
            ${ARGN}
            --cache-dir "${cache_dir}"
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

function(expect_same_file a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${what} differ (${a} vs ${b})")
    endif()
endfunction()

# Round records must match after stripping wall-clock fields.
function(normalized_metrics path out_var)
    file(READ "${path}" text)
    string(REGEX REPLACE "\"wall_ms\":[ ]*[0-9.eE+-]+" "\"wall_ms\":0"
        text "${text}")
    string(REGEX REPLACE "[^\n]*\"type\":[ ]*\"metrics\"[^\n]*\n?" ""
        text "${text}")
    set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

function(expect_same_session a b)
    expect_same_file("${WORK_DIR}/best_${a}.cfg"
        "${WORK_DIR}/best_${b}.cfg" "best schedules")
    normalized_metrics("${WORK_DIR}/metrics_${a}.jsonl" metricsA)
    normalized_metrics("${WORK_DIR}/metrics_${b}.jsonl" metricsB)
    if(NOT metricsA STREQUAL metricsB)
        message(FATAL_ERROR
            "round records differ between ${a} and ${b} "
            "(${WORK_DIR}/metrics_${a}.jsonl vs metrics_${b}.jsonl)")
    endif()
    if(metricsA STREQUAL "")
        message(FATAL_ERROR "no round records emitted by ${a}")
    endif()
endfunction()

run_tune(felix_j1 "${CACHE_DIR}" --jobs 1)
run_tune(felix_j4 "${CACHE_DIR}" --jobs 4)
expect_same_session(felix_j1 felix_j4)

run_tune(ansor_j1 "${CACHE_DIR}" --strategy ansor --jobs 1)
run_tune(ansor_j4 "${CACHE_DIR}" --strategy ansor --jobs 4)
expect_same_session(ansor_j1 ansor_j4)

foreach(jobs 1 4)
    file(MAKE_DIRECTORY "${WORK_DIR}/cold_cache_j${jobs}")
    run_tune(cold_j${jobs} "${WORK_DIR}/cold_cache_j${jobs}"
        --jobs ${jobs})
endforeach()
expect_same_file("${WORK_DIR}/cold_cache_j1/cost_model_a5000.txt"
    "${WORK_DIR}/cold_cache_j4/cost_model_a5000.txt"
    "pretrained cost models")
expect_same_session(cold_j1 cold_j4)

run_tune(warm_j1 "${WORK_DIR}/cold_cache_j1" --jobs 1)
expect_same_session(cold_j1 warm_j1)

message(STATUS
    "determinism smoke OK: --jobs 1 == --jobs 4 (felix, ansor, cold), "
    "cold == warm")
