/**
 * @file
 * Tests for the BENCH_*.json capture shared by bench_tape and
 * bench_serve: per-iteration real time reaches the report in
 * nanoseconds whatever a benchmark's Unit(), and the rendered report
 * parses back with the fields felix-bench-diff matches on.
 */
#include <gtest/gtest.h>

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

TEST(BenchJson, RenderedReportParsesBack)
{
    std::vector<CapturedRun> runs(2);
    runs[0].name = "BM_RequestUncached";
    runs[0].realTimeNs = 7.45e6;
    runs[0].counters["requests_per_s"] = 134.2;
    runs[1].name = "BM_SketchAdd";
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

} // namespace
} // namespace bench
} // namespace felix
