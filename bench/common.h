/**
 * @file
 * Shared infrastructure for the experiment harnesses: option
 * parsing (--full, --device, --budget, --seed), tuned-run helpers,
 * milestone computation, and table/series printing.
 *
 * Every harness regenerates one table or figure of the paper's
 * evaluation (see DESIGN.md §4). Default settings are scaled down to
 * finish on one CPU core in minutes; `--full` switches to the
 * paper-scale search parameters (Ansor population 2048 x 4
 * generations, longer tuning budgets).
 */
#ifndef FELIX_BENCH_COMMON_H_
#define FELIX_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/felix.h"
#include "frameworks/frameworks.h"
#include "models/models.h"
#include "tuner/tuner.h"

namespace felix {
namespace bench {

/** Parsed command-line options common to all harnesses. */
struct BenchOptions
{
    bool full = false;            ///< paper-scale settings
    double budgetSec = 0.0;       ///< virtual tuning budget override
    uint64_t seed = 1;
    int jobs = 0;                 ///< worker threads (0 = hardware)
    std::string device;           ///< restrict to one device ("")
    std::string cacheDir = "pretrained";
};

BenchOptions parseArgs(int argc, char **argv);

/** Tuner options for the Felix strategy under these bench options. */
tuner::TunerOptions felixOptions(const BenchOptions &options);

/** Tuner options for the Ansor-TenSet baseline. */
tuner::TunerOptions ansorOptions(const BenchOptions &options);

/** Default virtual tuning budget per (network, device) pair. */
double defaultBudget(const BenchOptions &options);

/** Devices selected by the options (all three by default). */
std::vector<sim::DeviceKind> selectedDevices(
    const BenchOptions &options);

/** Cached pretrained cost model for a device. */
costmodel::CostModel modelFor(sim::DeviceKind device,
                              const BenchOptions &options);

/**
 * Real (wall-clock) milliseconds spent per pipeline phase, read from
 * the telemetry metrics registry (src/obs/metrics.h). "Sketch"
 * covers sketch generation, "tapes" the feature-formula tape
 * compilation, "search" the candidate search rounds, "measure" the
 * simulated hardware measurements, and "finetune" the cost-model
 * updates. Tasks build their sketches and tapes concurrently, so
 * "sketch" and "tapes" sum over tasks: busy time, which can exceed
 * the wall time of set-up.
 */
struct PhaseTimings
{
    double sketchMs = 0.0;
    double compileTapesMs = 0.0;
    double searchMs = 0.0;
    double measureMs = 0.0;
    double finetuneMs = 0.0;
};

/** Current cumulative per-phase timings from the metrics registry. */
PhaseTimings phaseTimings();

/** Difference of two snapshots (after - before). */
PhaseTimings phaseDelta(const PhaseTimings &before,
                        const PhaseTimings &after);

/** Print one "phases: ..." line for a tuning run's phase delta. */
void printPhaseBreakdown(const PhaseTimings &delta);

/**
 * Tune one network with the given strategy until the virtual budget
 * and return the tuner (timeline included). Reports the real time
 * spent per phase (sketch gen / search / measurement / fine-tune)
 * through the metrics registry rather than one end-to-end duration.
 */
std::unique_ptr<tuner::GraphTuner> tuneNetwork(
    const models::NetworkSpec &spec, int batch,
    sim::DeviceKind device, tuner::TunerOptions tuner_options,
    double budget_sec, const BenchOptions &options);

/**
 * First virtual time at which the timeline reaches a latency at or
 * below @p target_sec; negative when never reached.
 */
double timeToLatency(const std::vector<tuner::TimelinePoint> &timeline,
                     double target_sec);

/** Print a header naming the experiment and its settings. */
void printHeader(const std::string &title, const BenchOptions &options);

/** Format helpers. */
std::string fmtMs(double seconds);
std::string fmtSpeedup(double ratio);   ///< "3.4x" or "-" when <= 0

} // namespace bench
} // namespace felix

#endif // FELIX_BENCH_COMMON_H_
