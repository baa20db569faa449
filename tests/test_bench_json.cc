/**
 * @file
 * Tests for the BENCH_*.json capture shared by bench_tape and
 * bench_serve: per-iteration real time reaches the report in
 * nanoseconds whatever a benchmark's Unit(), repeated runs keep one
 * row per series (the median), the rendered report parses back with
 * the fields felix-bench-diff matches on, the bench gate's
 * interleaved repetitions still leave one median row per series,
 * and a suite writes a report only when asked to.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_json.h"
#include "obs/json.h"

namespace felix {
namespace bench {
namespace {

TEST(BenchJson, RealTimeIsNanosecondsInEveryUnit)
{
    // 58.5 us per iteration over 4 iterations.
    benchmark::BenchmarkReporter::Run run;
    run.iterations = 4;
    run.real_accumulated_time = 4 * 58.5e-6;
    const struct
    {
        benchmark::TimeUnit unit;
        double adjusted;   ///< GetAdjustedRealTime() in that unit
    } cases[] = {
        {benchmark::kNanosecond, 58.5e3},
        {benchmark::kMicrosecond, 58.5},
        {benchmark::kMillisecond, 58.5e-3},
        {benchmark::kSecond, 58.5e-6},
    };
    for (const auto &c : cases) {
        run.time_unit = c.unit;
        EXPECT_NEAR(run.GetAdjustedRealTime(), c.adjusted,
                    c.adjusted * 1e-12);
        EXPECT_NEAR(realTimeNs(run), 58.5e3, 58.5e3 * 1e-12)
            << "unit " << benchmark::GetTimeUnitString(c.unit);
    }
}

/** A run of series "series/simd=avx2" taking @p us per iteration. */
benchmark::BenchmarkReporter::Run
seriesRun(double us, int64_t repetitions)
{
    benchmark::BenchmarkReporter::Run run;
    run.run_name.function_name = "series/simd=avx2";
    run.iterations = 1;
    run.repetitions = repetitions;
    run.time_unit = benchmark::kMicrosecond;
    run.real_accumulated_time = us * 1e-6;
    run.counters["steps_per_sec"] = 1e6 / us;
    return run;
}

benchmark::BenchmarkReporter::Run
aggregateRun(const char *name, double us)
{
    benchmark::BenchmarkReporter::Run run = seriesRun(us, 5);
    run.run_type = benchmark::BenchmarkReporter::Run::RT_Aggregate;
    run.aggregate_name = name;
    return run;
}

TEST(BenchJson, RepetitionsKeepTheMedianUnderTheSeriesName)
{
    std::ostringstream console;
    CaptureReporter reporter;
    reporter.SetOutputStream(&console);
    reporter.SetErrorStream(&console);

    // --benchmark_repetitions=5 without aggregates-only: the five
    // repetitions, then mean, median and stddev.
    std::vector<benchmark::BenchmarkReporter::Run> runs;
    for (double us : {120.0, 174.0, 115.0, 118.0, 116.0})
        runs.push_back(seriesRun(us, 5));
    reporter.ReportRuns(runs);
    reporter.ReportRuns({aggregateRun("mean", 128.6),
                         aggregateRun("median", 118.0),
                         aggregateRun("stddev", 25.2)});
    ASSERT_EQ(reporter.runs().size(), 1u);
    EXPECT_EQ(reporter.runs()[0].name, "series/simd=avx2");
    EXPECT_NEAR(reporter.runs()[0].realTimeNs, 118.0e3, 1e-6);
    EXPECT_NEAR(reporter.runs()[0].counters.at("steps_per_sec"),
                1e6 / 118.0, 1e-9);

    // Without repetitions the one run is the row.
    CaptureReporter single;
    single.SetOutputStream(&console);
    single.SetErrorStream(&console);
    single.ReportRuns({seriesRun(50.0, 1)});
    ASSERT_EQ(single.runs().size(), 1u);
    EXPECT_EQ(single.runs()[0].name, "series/simd=avx2");
    EXPECT_NEAR(single.runs()[0].realTimeNs, 50.0e3, 1e-6);
}

TEST(BenchJson, RenderedReportParsesBack)
{
    std::vector<CapturedRun> runs(2);
    runs[0].name = "BM_RequestUncached";
    runs[0].realTimeNs = 7.45e6;
    runs[0].counters["requests_per_s"] = 134.2;
    runs[1].name = "BM_SchedulerPick/64";
    runs[1].realTimeNs = 25.5;
    const std::string text = renderJson(
        "serve", "  \"batch_lanes\": 16,\n", runs,
        [](const std::string &name) {
            return ", \"backend\": " + obs::jsonEscape(name + "-tag");
        });

    std::string error;
    auto doc = obs::parseJson(text, &error);
    ASSERT_TRUE(doc) << error << "\n" << text;
    EXPECT_EQ(doc->stringOr("bench", ""), "serve");
    EXPECT_EQ(doc->numberOr("batch_lanes", 0.0), 16.0);
    const obs::JsonValue *results = doc->find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->asArray().size(), 2u);
    const obs::JsonValue &first = results->asArray()[0];
    EXPECT_EQ(first.stringOr("name", ""), "BM_RequestUncached");
    EXPECT_EQ(first.stringOr("backend", ""), "BM_RequestUncached-tag");
    EXPECT_DOUBLE_EQ(first.numberOr("real_time_ns", 0.0), 7.45e6);
    EXPECT_DOUBLE_EQ(first.numberOr("requests_per_s", 0.0), 134.2);
    EXPECT_DOUBLE_EQ(
        results->asArray()[1].numberOr("real_time_ns", 0.0), 25.5);
}

/** Series for the interleaving test: a few cheap fixed iterations. */
void
BM_JsonTestSeries(benchmark::State &state)
{
    int64_t sum = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(sum += state.range(0));
    state.counters["items_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JsonTestSeries)->Arg(1)->Arg(2)->Arg(3)->Iterations(64);

TEST(BenchJson, InterleavedRepetitionsKeepOneMedianRowPerSeries)
{
    // The bench gate's flags: five repetitions per series, run in a
    // random interleaved order, aggregates only. Each series still
    // reports its own repetitions once they are all done, so the
    // report holds one median row per series.
    namespace fs = std::filesystem;
    const fs::path report =
        fs::temp_directory_path() /
        ("bench_json_interleaved_" + std::to_string(::getpid()) +
         ".json");
    std::vector<std::string> args = {
        "bench_test",
        "--benchmark_filter=^BM_JsonTestSeries/",
        "--benchmark_repetitions=5",
        "--benchmark_report_aggregates_only=true",
        "--benchmark_enable_random_interleaving=true",
        "--json-out=" + report.string()};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    ASSERT_EQ(runSuite(static_cast<int>(args.size()), argv.data(),
                       "test"),
              0);

    std::ifstream is(report);
    std::stringstream text;
    text << is.rdbuf();
    fs::remove(report);
    std::string error;
    auto doc = obs::parseJson(text.str(), &error);
    ASSERT_TRUE(doc) << error << "\n" << text.str();
    const obs::JsonValue *results = doc->find("results");
    ASSERT_NE(results, nullptr);
    std::vector<std::string> names;
    for (const obs::JsonValue &row : results->asArray()) {
        names.push_back(row.stringOr("name", ""));
        EXPECT_GT(row.numberOr("real_time_ns", 0.0), 0.0);
        EXPECT_GT(row.numberOr("items_per_s", 0.0), 0.0);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "BM_JsonTestSeries/1/iterations:64",
                  "BM_JsonTestSeries/2/iterations:64",
                  "BM_JsonTestSeries/3/iterations:64"}));
}

TEST(BenchJson, NoReportWithoutJsonOut)
{
    // A filtered run from the repository root once replaced a
    // committed baseline: without --json-out nothing may be written.
    namespace fs = std::filesystem;
    const fs::path home = fs::current_path();
    const fs::path dir =
        fs::temp_directory_path() /
        ("bench_json_no_report_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    ASSERT_TRUE(fs::create_directory(dir));
    fs::current_path(dir);
    std::string name = "bench_test";
    std::string filter = "--benchmark_filter=^NoSuchBenchmark$";
    char *argv[] = {name.data(), filter.data(), nullptr};
    const int rc = runSuite(2, argv, "test");
    fs::current_path(home);
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

} // namespace
} // namespace bench
} // namespace felix
