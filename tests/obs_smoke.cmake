# Observability smoke test (ctest): tune a tiny network with
# telemetry enabled and validate the emitted files.
#
# Invoked as
#   cmake -DFELIX_TUNE=... -DTRACE_SUMMARY=... -DWORK_DIR=...
#         -DCACHE_DIR=... -P obs_smoke.cmake
#
# Steps:
#   1. felix-tune --network dcgan --budget 10 with --trace-out,
#      --metrics-out and --save-records (a couple of tuning rounds on
#      one CPU core).
#   2. Check both telemetry files exist and are non-empty.
#   3. felix-trace-summary TRACE METRICS — it exits non-zero when
#      either file is not well-formed JSON / JSONL, so it doubles as
#      the format validator.
#   4. Check the JSONL contains at least one per-round record and the
#      final metrics snapshot.
#   5. Replay the saved records cut to their first two lines with
#      --out: the other tasks have no record, so felix-tune exits 2
#      and writes no module.

foreach(var FELIX_TUNE TRACE_SUMMARY WORK_DIR CACHE_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "obs_smoke: missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/trace.json")
set(metrics_file "${WORK_DIR}/metrics.jsonl")
set(records_file "${WORK_DIR}/records.log")

execute_process(
    COMMAND "${FELIX_TUNE}"
        --network dcgan --device a5000 --budget 10 --seed 3
        --cache-dir "${CACHE_DIR}"
        --trace-out "${trace_file}"
        --metrics-out "${metrics_file}"
        --save-records "${records_file}"
    RESULT_VARIABLE tune_rc
    OUTPUT_VARIABLE tune_out
    ERROR_VARIABLE tune_err)
if(NOT tune_rc EQUAL 0)
    message(FATAL_ERROR
        "felix-tune failed (${tune_rc}):\n${tune_out}\n${tune_err}")
endif()

foreach(f "${trace_file}" "${metrics_file}")
    if(NOT EXISTS "${f}")
        message(FATAL_ERROR "telemetry file not written: ${f}")
    endif()
    file(SIZE "${f}" fsize)
    if(fsize EQUAL 0)
        message(FATAL_ERROR "telemetry file empty: ${f}")
    endif()
endforeach()

# felix-trace-summary parses both files with the strict in-repo JSON
# parser and exits non-zero on any malformed line.
execute_process(
    COMMAND "${TRACE_SUMMARY}" "${trace_file}" "${metrics_file}"
    RESULT_VARIABLE summary_rc
    OUTPUT_VARIABLE summary_out
    ERROR_VARIABLE summary_err)
if(NOT summary_rc EQUAL 0)
    message(FATAL_ERROR
        "felix-trace-summary rejected the telemetry "
        "(${summary_rc}):\n${summary_out}\n${summary_err}")
endif()
message(STATUS "felix-trace-summary output:\n${summary_out}")

file(STRINGS "${metrics_file}" metric_lines)
set(round_lines 0)
set(snapshot_lines 0)
foreach(line IN LISTS metric_lines)
    if(line MATCHES "\"type\":[ ]*\"round\"")
        math(EXPR round_lines "${round_lines} + 1")
    elseif(line MATCHES "\"type\":[ ]*\"metrics\"")
        math(EXPR snapshot_lines "${snapshot_lines} + 1")
    endif()
endforeach()
if(round_lines LESS 1)
    message(FATAL_ERROR "no per-round records in ${metrics_file}")
endif()
if(NOT snapshot_lines EQUAL 1)
    message(FATAL_ERROR
        "expected exactly one metrics snapshot in ${metrics_file}, "
        "found ${snapshot_lines}")
endif()

# Round records must carry the instrumented fields.
foreach(key seeds violation_rate candidates finetune_loss wall_ms)
    if(NOT metric_lines MATCHES "\"${key}\"")
        message(FATAL_ERROR
            "round records missing \"${key}\" in ${metrics_file}")
    endif()
endforeach()

# The trace must be a Chrome trace_event document with spans from
# the tuner and search layers.
file(READ "${trace_file}" trace_text)
foreach(needle "traceEvents" "tuner.round" "search.round")
    if(NOT trace_text MATCHES "${needle}")
        message(FATAL_ERROR
            "trace missing \"${needle}\" in ${trace_file}")
    endif()
endforeach()

# A replay whose log lacks some of the network's tasks reports them
# missing, exits 2 and saves no module.
file(STRINGS "${records_file}" record_lines)
list(LENGTH record_lines record_count)
if(record_count LESS 3)
    message(FATAL_ERROR
        "expected one record per dcgan task in ${records_file}, "
        "found ${record_count}")
endif()
file(STRINGS "${records_file}" cut_lines LIMIT_COUNT 2)
set(cut_file "${WORK_DIR}/records_cut.log")
file(WRITE "${cut_file}" "")
foreach(line IN LISTS cut_lines)
    file(APPEND "${cut_file}" "${line}\n")
endforeach()
set(replay_module "${WORK_DIR}/replayed.cfg")
execute_process(
    COMMAND "${FELIX_TUNE}"
        --network dcgan --device a5000
        --cache-dir "${CACHE_DIR}"
        --replay-records "${cut_file}"
        --out "${replay_module}"
    RESULT_VARIABLE replay_rc
    OUTPUT_VARIABLE replay_out
    ERROR_VARIABLE replay_err)
if(NOT replay_rc EQUAL 2)
    message(FATAL_ERROR
        "replay of a partial log exited ${replay_rc}, not 2:\n"
        "${replay_out}\n${replay_err}")
endif()
if(EXISTS "${replay_module}")
    message(FATAL_ERROR
        "replay of a partial log wrote ${replay_module}")
endif()

message(STATUS
    "obs smoke OK: ${round_lines} round records + metrics snapshot")
