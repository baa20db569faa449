/**
 * @file
 * Machine-readable output shared by the google-benchmark suites
 * (bench_tape, bench_serve): a console reporter that also captures
 * every run, and the BENCH_*.json report felix-bench-diff compares.
 *
 *   {"bench": NAME, <header fields>
 *    "results": [{"name": ..., <run fields>
 *                 "real_time_ns": ..., <counters>}, ...]}
 */
#ifndef FELIX_BENCH_BENCH_JSON_H_
#define FELIX_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace felix {
namespace bench {

/** One captured benchmark run. */
struct CapturedRun
{
    std::string name;
    double realTimeNs = 0.0;
    std::map<std::string, double> counters;
};

/**
 * Real time per iteration of @p run in nanoseconds.
 * GetAdjustedRealTime() is in the benchmark's Unit(), which may be
 * micro- or milliseconds, so it is rescaled here.
 */
double realTimeNs(const benchmark::BenchmarkReporter::Run &run);

/**
 * Console output plus a capture of every successful run. Run with
 * --benchmark_repetitions=N (N > 1), it captures only each series'
 * median aggregate, named like the series itself, so a report holds
 * one row per series either way.
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override;

    const std::vector<CapturedRun> &runs() const { return runs_; }

  private:
    std::vector<CapturedRun> runs_;
};

/** Extra per-run fields for a benchmark name, rendered as
 *  `, "key": value` pairs (or empty). */
using RunFields = std::function<std::string(const std::string &)>;

/**
 * The report text. @p header holds extra top-level fields, each
 * rendered as a `  "key": value,\n` line; @p runFields, when set,
 * adds fields to each result right after its name.
 */
std::string renderJson(const std::string &bench,
                       const std::string &header,
                       const std::vector<CapturedRun> &runs,
                       const RunFields &runFields = {});

/**
 * main() of a suite: peels --json-out=FILE off argv, runs the
 * registered benchmarks with console output, and writes the report
 * to FILE. Without --json-out no file is written, so a filtered run
 * cannot replace a committed BENCH_<bench>.json baseline by
 * accident. Returns the process exit code.
 */
int runSuite(int argc, char **argv, const std::string &bench,
             const std::string &header = "",
             const RunFields &runFields = {});

} // namespace bench
} // namespace felix

#endif // FELIX_BENCH_BENCH_JSON_H_
