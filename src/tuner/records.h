/**
 * @file
 * Tuning records: an append-only log of every hardware measurement,
 * replayable without re-tuning.
 *
 * This mirrors TVM/Ansor's tuning-log workflow that the paper's
 * programming interface exposes (Fig. 5: `save_res="resnet50.json"`):
 * each measured (task, schedule) pair is appended as one line; a
 * later session can "apply history best" — rebuild the best
 * schedule per task from the log — and skip the search entirely.
 */
#ifndef FELIX_TUNER_RECORDS_H_
#define FELIX_TUNER_RECORDS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace felix {
namespace tuner {

/** One measured schedule. */
struct TuneRecord
{
    uint64_t taskHash = 0;          ///< SubgraphDef::structuralHash
    std::string taskLabel;
    int sketchIndex = 0;
    std::vector<double> scheduleVars;
    double latencySec = 0.0;
    double clockSec = 0.0;          ///< virtual time of measurement
};

/**
 * Append one record to a log file (creates the file if needed).
 *
 * Crash-safe: the line is formatted in memory and handed to the
 * kernel as a single O_APPEND write, so a crashed or concurrent
 * writer can truncate its own last line but never interleave or
 * tear an earlier one — loadRecords() then drops at most that one
 * trailing line.
 */
void appendRecord(const std::string &path, const TuneRecord &record);

/** Append a batch of records as one atomic O_APPEND write. */
void appendRecords(const std::string &path,
                   const std::vector<TuneRecord> &records);

/**
 * Append pre-formatted text (complete lines) with the same
 * single-write O_APPEND crash-safety contract as appendRecord().
 * Used by the sharded runner for its per-round JSONL artifacts.
 */
void appendRawText(const std::string &path, const std::string &text);

/**
 * Load every well-formed record. Corrupt lines are skipped, counted
 * into the `records.corrupt_lines` metric, and reported with one
 * warning per file. A line is corrupt when a field does not parse,
 * when it has more than 4096 schedule values or a non-finite one,
 * when its sketch index is negative, or when its latency is not
 * finite and positive. Whether the sketch index and the values fit
 * the task's sketches is left to the caller that knows the task.
 */
std::vector<TuneRecord> loadRecords(const std::string &path);

/**
 * History-best selection: the lowest-latency record per task hash.
 */
std::vector<TuneRecord> historyBest(
    const std::vector<TuneRecord> &records);

} // namespace tuner
} // namespace felix

#endif // FELIX_TUNER_RECORDS_H_
