/**
 * @file
 * Telemetry subsystem tests: metrics registry semantics (counter /
 * gauge / histogram, concurrent increments), Chrome-trace export
 * (well-formed JSON, balanced and properly nested spans), the JSON
 * parser itself, and the per-round JSONL record schema.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/round_log.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace felix {
namespace obs {
namespace {

TEST(Metrics, CounterAccumulates)
{
    Counter counter;
    EXPECT_DOUBLE_EQ(counter.value(), 0.0);
    counter.add();
    counter.add(2.5);
    EXPECT_DOUBLE_EQ(counter.value(), 3.5);
    counter.reset();
    EXPECT_DOUBLE_EQ(counter.value(), 0.0);
}

TEST(Metrics, GaugeKeepsLastValue)
{
    Gauge gauge;
    gauge.set(4.0);
    gauge.set(-1.5);
    EXPECT_DOUBLE_EQ(gauge.value(), -1.5);
}

TEST(Metrics, HistogramBucketsAndMean)
{
    Histogram histogram({1.0, 10.0, 100.0});
    histogram.observe(0.5);     // <= 1
    histogram.observe(1.0);     // <= 1 (bound is inclusive)
    histogram.observe(5.0);     // <= 10
    histogram.observe(1000.0);  // overflow
    auto counts = histogram.counts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(histogram.count(), 4u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 1006.5);
    EXPECT_DOUBLE_EQ(histogram.mean(), 1006.5 / 4.0);
}

TEST(Metrics, LogBoundsCoverRangeWithFixedRatio)
{
    auto bounds = Histogram::logBounds(0.1, 1e5, 9);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_DOUBLE_EQ(bounds.front(), 0.1);
    EXPECT_GE(bounds.back(), 1e5);
    const double ratio = std::pow(10.0, 1.0 / 9.0);
    for (size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_GT(bounds[i], bounds[i - 1]);
        EXPECT_NEAR(bounds[i] / bounds[i - 1], ratio, 1e-9);
    }
}

/**
 * est must be within the documented bucket-ratio error bound of the
 * true empirical quantile.
 */
void
expectQuantileWithinBound(const Histogram &histogram,
                          std::vector<double> values, double q,
                          double ratio)
{
    std::sort(values.begin(), values.end());
    // Same rank convention as bucketQuantile: the estimate lands in
    // the bucket holding the ceil(q*n)-th observation.
    const double target = q * static_cast<double>(values.size());
    size_t index =
        target <= 0.0
            ? 0
            : static_cast<size_t>(std::ceil(target)) - 1;
    index = std::min(index, values.size() - 1);
    const double truth = values[index];
    const double est = histogram.quantile(q);
    EXPECT_LE(est, truth * ratio * 1.0001)
        << "q=" << q << " truth=" << truth;
    EXPECT_GE(est, truth / ratio / 1.0001)
        << "q=" << q << " truth=" << truth;
}

TEST(Metrics, QuantileErrorBoundOnAdversarialStreams)
{
    const double ratio = std::pow(10.0, 1.0 / 9.0);
    auto bounds = Histogram::logBounds(1.0, 1e6, 9);

    // Point mass: every observation identical, landing mid-bucket.
    {
        Histogram histogram(bounds);
        std::vector<double> values(1000, 137.0);
        for (double v : values)
            histogram.observe(v);
        for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
            expectQuantileWithinBound(histogram, values, q, ratio);
    }
    // Bimodal with four decades between the modes: the p50/p95
    // split straddles the gap.
    {
        Histogram histogram(bounds);
        std::vector<double> values;
        for (int i = 0; i < 900; ++i)
            values.push_back(42.0);
        for (int i = 0; i < 100; ++i)
            values.push_back(3.7e5);
        for (double v : values)
            histogram.observe(v);
        for (double q : {0.5, 0.89, 0.91, 0.99})
            expectQuantileWithinBound(histogram, values, q, ratio);
    }
    // Geometric sweep hitting every bucket, worst case for the
    // interpolation.
    {
        Histogram histogram(bounds);
        std::vector<double> values;
        for (double v = 1.05; v < 9e5; v *= 1.17)
            values.push_back(v);
        for (double v : values)
            histogram.observe(v);
        for (double q : {0.05, 0.25, 0.5, 0.75, 0.95})
            expectQuantileWithinBound(histogram, values, q, ratio);
    }
}

TEST(Metrics, QuantileEdgeConventions)
{
    Histogram histogram(Histogram::logBounds(1.0, 100.0, 9));
    EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);   // empty
    histogram.observe(1e9);                           // overflow
    EXPECT_DOUBLE_EQ(histogram.quantile(0.99),
                     histogram.bounds().back());      // clamps
}

/** Copy a histogram's state into the mergeable snapshot form. */
MetricsSnapshot::HistogramData
dataOf(const Histogram &histogram)
{
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram.bounds();
    data.counts = histogram.counts();
    data.count = histogram.count();
    data.sum = histogram.sum();
    return data;
}

TEST(Metrics, HistogramMergeIsAssociative)
{
    auto bounds = Histogram::logBounds(1.0, 1e4, 9);
    Histogram a(bounds), b(bounds), c(bounds);
    for (double v = 1.5; v < 9e3; v *= 2.0)
        a.observe(v);
    for (double v = 3.0; v < 5e3; v *= 1.7)
        b.observe(v);
    c.observe(2.0);
    c.observe(8e3);

    // (a + b) + c
    auto left = dataOf(a);
    ASSERT_TRUE(left.merge(dataOf(b)));
    ASSERT_TRUE(left.merge(dataOf(c)));
    // a + (b + c)
    auto right = dataOf(b);
    ASSERT_TRUE(right.merge(dataOf(c)));
    auto rightTotal = dataOf(a);
    ASSERT_TRUE(rightTotal.merge(right));

    EXPECT_EQ(left.counts, rightTotal.counts);
    EXPECT_EQ(left.count, rightTotal.count);
    EXPECT_DOUBLE_EQ(left.sum, rightTotal.sum);
    for (double q : {0.25, 0.5, 0.95})
        EXPECT_DOUBLE_EQ(left.quantile(q), rightTotal.quantile(q));

    // The live-histogram merge agrees with the snapshot merge.
    Histogram folded(bounds);
    ASSERT_TRUE(folded.mergeFrom(a));
    ASSERT_TRUE(folded.mergeFrom(b));
    ASSERT_TRUE(folded.mergeFrom(c));
    EXPECT_EQ(dataOf(folded).counts, left.counts);
}

TEST(Metrics, MergeRejectsMismatchedBounds)
{
    Histogram a(Histogram::logBounds(1.0, 100.0, 9));
    Histogram b(Histogram::logBounds(1.0, 100.0, 3));
    a.observe(5.0);
    b.observe(5.0);
    EXPECT_FALSE(a.mergeFrom(b));
    EXPECT_EQ(a.count(), 1u);   // untouched on failure

    auto dataA = dataOf(a);
    EXPECT_FALSE(dataA.merge(dataOf(b)));
    EXPECT_EQ(dataA.count, 1u);
}

TEST(Metrics, SnapshotJsonCarriesQuantiles)
{
    auto &registry = MetricsRegistry::instance();
    Histogram &histogram = registry.histogram(
        "test_obs.quantile_histo",
        Histogram::logBounds(1.0, 1e4, 9));
    histogram.reset();
    for (int i = 1; i <= 100; ++i)
        histogram.observe(static_cast<double>(i));

    auto parsed = parseJson(registry.snapshot().toJson());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue *histos = parsed->find("histograms");
    ASSERT_NE(histos, nullptr);
    const JsonValue *histo =
        histos->find("test_obs.quantile_histo");
    ASSERT_NE(histo, nullptr);
    EXPECT_DOUBLE_EQ(histo->numberOr("count", 0.0), 100.0);
    const double p50 = histo->numberOr("p50", 0.0);
    const double p95 = histo->numberOr("p95", 0.0);
    const double p99 = histo->numberOr("p99", 0.0);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_NEAR(histo->numberOr("mean", 0.0), 50.5, 1e-9);
}

TEST(Window, SlidingRateEvictsOldestOnWrap)
{
    SlidingWindowRate window(4);
    EXPECT_DOUBLE_EQ(window.rate(), 0.0);
    window.observe(true);
    window.observe(true);
    EXPECT_EQ(window.occupied(), 2u);
    EXPECT_DOUBLE_EQ(window.rate(), 1.0);
    window.observe(false);
    window.observe(false);
    EXPECT_DOUBLE_EQ(window.rate(), 0.5);
    // Wrap: the two early hits fall out one by one.
    window.observe(false);
    EXPECT_DOUBLE_EQ(window.rate(), 0.25);
    window.observe(false);
    EXPECT_DOUBLE_EQ(window.rate(), 0.0);
    EXPECT_EQ(window.occupied(), 4u);
    window.observe(true);
    EXPECT_EQ(window.successes(), 1u);
    window.reset();
    EXPECT_EQ(window.occupied(), 0u);
    EXPECT_DOUBLE_EQ(window.rate(), 0.0);
}

TEST(Window, EventRateAgesOutWithFakeClock)
{
    EventRateWindow window(1000000, 10);   // 1s in 100ms buckets
    for (int i = 0; i < 5; ++i)
        window.record(i * 100000);
    EXPECT_DOUBLE_EQ(window.ratePerSec(400000), 5.0);
    // A silent second later every bucket is stale.
    EXPECT_DOUBLE_EQ(window.ratePerSec(2000000), 0.0);
    window.record(2000000);
    EXPECT_DOUBLE_EQ(window.ratePerSec(2000000), 1.0);
}

TEST(Flight, RingWrapsKeepingMostRecent)
{
    FlightRecorder recorder(8);
    for (int i = 0; i < 20; ++i) {
        recorder.record(FlightKind::CacheHit,
                        static_cast<uint64_t>(i),
                        static_cast<uint64_t>(100 + i), i);
    }
    EXPECT_EQ(recorder.totalRecorded(), 20u);
    EXPECT_EQ(recorder.dropped(), 12u);
    auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 12u + i);   // oldest first
        EXPECT_EQ(events[i].requestId, 12u + i);
        EXPECT_EQ(events[i].key, 112u + i);
    }
    recorder.reset(4);
    EXPECT_EQ(recorder.totalRecorded(), 0u);
    EXPECT_EQ(recorder.capacity(), 4u);
}

TEST(Flight, DumpToWritesOneLinePerEvent)
{
    FlightRecorder recorder(4);
    recorder.record(FlightKind::Request, 7, 2);
    recorder.record(FlightKind::Shutdown, 0, 0, -3);

    FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(recorder.dumpTo(fileno(sink)), 2u);
    std::fflush(sink);
    std::rewind(sink);
    char buffer[1024] = {};
    size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, sink);
    std::fclose(sink);
    std::string text(buffer, n);
    EXPECT_NE(text.find("flight seq=0"), std::string::npos);
    EXPECT_NE(text.find("kind=request"), std::string::npos);
    EXPECT_NE(text.find("req=7"), std::string::npos);
    EXPECT_NE(text.find("kind=shutdown"), std::string::npos);
    EXPECT_NE(text.find("value=-3"), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Trace, SpansCarryRequestCorrelationIds)
{
    Tracer &tracer = Tracer::instance();
    tracer.start("");
    EXPECT_EQ(currentRequestId(), 0u);
    {
        ScopedRequestId requestId(42);
        EXPECT_EQ(currentRequestId(), 42u);
        FELIX_SPAN("test_obs.with_req", "test");
    }
    EXPECT_EQ(currentRequestId(), 0u);
    {
        FELIX_SPAN("test_obs.without_req", "test");
    }
    auto parsed = parseJson(tracer.toJson());
    tracer.stop();
    tracer.clear();
    ASSERT_TRUE(parsed.has_value());
    const JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawTagged = false, sawUntagged = false;
    for (const JsonValue &event : events->asArray()) {
        const std::string name = event.stringOr("name", "");
        const JsonValue *args = event.find("args");
        if (name == "test_obs.with_req") {
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->stringOr("req", ""), "42");
            sawTagged = true;
        } else if (name == "test_obs.without_req") {
            EXPECT_EQ(args, nullptr);   // id 0 is omitted
            sawUntagged = true;
        }
    }
    EXPECT_TRUE(sawTagged);
    EXPECT_TRUE(sawUntagged);
}

TEST(Metrics, RegistryReturnsStableHandles)
{
    auto &registry = MetricsRegistry::instance();
    Counter &a = registry.counter("test_obs.handle");
    Counter &b = registry.counter("test_obs.handle");
    EXPECT_EQ(&a, &b);
    a.reset();
    b.add(2.0);
    EXPECT_DOUBLE_EQ(a.value(), 2.0);

    // Same name, different kinds: independent metrics.
    Gauge &g = registry.gauge("test_obs.handle");
    g.set(7.0);
    EXPECT_DOUBLE_EQ(a.value(), 2.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, ConcurrentIncrementsDontLoseUpdates)
{
    auto &registry = MetricsRegistry::instance();
    Counter &counter = registry.counter("test_obs.concurrent");
    counter.reset();
    Histogram &histogram =
        registry.histogram("test_obs.concurrent_histo", {0.5});
    histogram.reset();

    constexpr int kThreads = 8;
    constexpr int kIncrements = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                counter.add(1.0);
                histogram.observe(i % 2 == 0 ? 0.0 : 1.0);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_DOUBLE_EQ(counter.value(),
                     static_cast<double>(kThreads * kIncrements));
    EXPECT_EQ(histogram.count(),
              static_cast<uint64_t>(kThreads * kIncrements));
    auto counts = histogram.counts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], counts[1]);
}

TEST(Metrics, SnapshotJsonParses)
{
    auto &registry = MetricsRegistry::instance();
    registry.counter("test_obs.snapshot_counter").add(3.0);
    registry.gauge("test_obs.snapshot_gauge").set(1.25);
    registry.histogram("test_obs.snapshot_histo").observe(12.0);

    std::string json = registry.snapshot().toJson();
    std::string error;
    auto parsed = parseJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(
        counters->numberOr("test_obs.snapshot_counter", -1.0), 3.0);
    const JsonValue *histos = parsed->find("histograms");
    ASSERT_NE(histos, nullptr);
    const JsonValue *histo = histos->find("test_obs.snapshot_histo");
    ASSERT_NE(histo, nullptr);
    EXPECT_DOUBLE_EQ(histo->numberOr("count", 0.0), 1.0);
}

TEST(Json, ParsesScalarsAndStructure)
{
    auto v = parseJson(
        " {\"a\": [1, -2.5e2, true, null, \"x\\n\\u0041\"]} ");
    ASSERT_TRUE(v.has_value());
    const JsonValue *a = v->find("a");
    ASSERT_NE(a, nullptr);
    const auto &items = a->asArray();
    ASSERT_EQ(items.size(), 5u);
    EXPECT_DOUBLE_EQ(items[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(items[1].asNumber(), -250.0);
    EXPECT_TRUE(items[2].asBool());
    EXPECT_TRUE(items[3].isNull());
    EXPECT_EQ(items[4].asString(), "x\nA");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("{").has_value());
    EXPECT_FALSE(parseJson("{\"a\":}").has_value());
    EXPECT_FALSE(parseJson("[1,]").has_value());
    EXPECT_FALSE(parseJson("\"unterminated").has_value());
    EXPECT_FALSE(parseJson("{} trailing").has_value());
    std::string error;
    EXPECT_FALSE(parseJson("[1, x]", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(Json, EscapeRoundTrips)
{
    std::string nasty = "a\"b\\c\nd\te\x01f";
    auto parsed = parseJson(jsonEscape(nasty));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), nasty);
}

TEST(Json, NumberIsPrintfG17Text)
{
    auto printfG17 = [](double value) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return std::string(buf);
    };
    std::vector<double> values = {
        0.0, -0.0, 0.1, -0.1, 1.0, 0.5, 1.0 / 3.0, 2.0 / 3.0,
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), DBL_EPSILON,
        1e16, 1e17, 99999999999999999.0, 123456789012345678.0};
    for (int i = -100000; i <= 100000; ++i)
        values.push_back(i);
    // 1e16-1e17: 17 significant digits switch %g from fixed to
    // exponent notation there.
    for (double v = 1e16; v <= 1.1e17; v *= 1.0137) {
        values.push_back(v);
        values.push_back(std::nextafter(v, 0.0));
        values.push_back(std::nextafter(v, DBL_MAX));
    }
    std::mt19937_64 rng(20261020);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
    }
    std::uniform_real_distribution<double> exponent(-300.0, 300.0);
    for (int i = 0; i < 100000; ++i) {
        const double v = std::pow(10.0, exponent(rng));
        values.push_back(i % 2 ? v : -v);
        values.push_back(std::round(v * 1e6) / 1e6);
    }
    size_t mismatches = 0;
    for (double v : values) {
        if (jsonNumber(v) != printfG17(v) && ++mismatches <= 5) {
            ADD_FAILURE() << printfG17(v) << " printed as "
                          << jsonNumber(v);
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size();

    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
}

TEST(Trace, DisabledSpansRecordNothing)
{
    Tracer &tracer = Tracer::instance();
    tracer.clear();
    ASSERT_FALSE(Tracer::enabled());
    {
        FELIX_SPAN("test_obs.should_not_appear");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Trace, ExportIsWellFormedAndSpansBalance)
{
    Tracer &tracer = Tracer::instance();
    tracer.start("");   // collect without a file sink
    {
        FELIX_SPAN("test_obs.outer", "test");
        {
            FELIX_SPAN("test_obs.inner", "test");
        }
        {
            FELIX_SPAN("test_obs.inner", "test");
        }
    }
    std::string json = tracer.toJson();
    tracer.stop();
    tracer.clear();

    std::string error;
    auto parsed = parseJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->asArray().size(), 3u);

    // Every span must be a complete event with non-negative
    // duration...
    struct Interval { int64_t start, end; std::string name; };
    std::vector<Interval> intervals;
    for (const JsonValue &event : events->asArray()) {
        EXPECT_EQ(event.stringOr("ph", ""), "X");
        int64_t ts = static_cast<int64_t>(event.numberOr("ts", -1));
        int64_t dur =
            static_cast<int64_t>(event.numberOr("dur", -1));
        EXPECT_GE(ts, 0);
        EXPECT_GE(dur, 0);
        intervals.push_back(
            {ts, ts + dur, event.stringOr("name", "")});
    }
    // ...and intervals must nest (balanced begin/end): any two spans
    // on the single test thread either nest or are disjoint.
    for (size_t i = 0; i < intervals.size(); ++i) {
        for (size_t j = 0; j < intervals.size(); ++j) {
            if (i == j)
                continue;
            const Interval &a = intervals[i];
            const Interval &b = intervals[j];
            bool disjoint = a.end <= b.start || b.end <= a.start;
            bool aInB = a.start >= b.start && a.end <= b.end;
            bool bInA = b.start >= a.start && b.end <= a.end;
            EXPECT_TRUE(disjoint || aInB || bInA)
                << a.name << " vs " << b.name;
        }
    }
    // The outer span must contain both inners.
    auto outer = std::find_if(intervals.begin(), intervals.end(),
                              [](const Interval &iv) {
                                  return iv.name == "test_obs.outer";
                              });
    ASSERT_NE(outer, intervals.end());
    for (const Interval &iv : intervals) {
        if (iv.name == "test_obs.inner") {
            EXPECT_GE(iv.start, outer->start);
            EXPECT_LE(iv.end, outer->end);
        }
    }
}

TEST(Trace, ConcurrentRecordingIsSafe)
{
    Tracer &tracer = Tracer::instance();
    tracer.start("");
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kSpans; ++i) {
                FELIX_SPAN("test_obs.mt", "test");
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(tracer.eventCount(),
              static_cast<size_t>(kThreads * kSpans));
    auto parsed = parseJson(tracer.toJson());
    EXPECT_TRUE(parsed.has_value());
    tracer.stop();
    tracer.clear();
}

TEST(RoundLog, RecordJsonMatchesSchema)
{
    RoundRecord record;
    record.round = 3;
    record.taskLabel = "conv2d \"quoted\"";
    record.taskHash = 12345;
    record.strategy = "Felix";
    record.seedsLaunched = 8;
    record.numPredictions = 1616;
    record.roundingAttempts = 1600;
    record.roundingInvalid = 400;
    record.candidates.push_back({1e-3, 2e-3});
    record.candidates.push_back({5e-4, 4e-4});
    record.finetuneLoss = 0.125;
    record.bestLatencySec = 4e-4;
    record.networkLatencySec = 9e-3;
    record.clockSec = 42.0;
    record.wallMs = 1.5;

    EXPECT_DOUBLE_EQ(record.violationRate(), 0.25);

    auto parsed = parseJson(record.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->stringOr("type", ""), "round");
    EXPECT_EQ(parsed->stringOr("task", ""), "conv2d \"quoted\"");
    EXPECT_DOUBLE_EQ(parsed->numberOr("seeds", 0), 8.0);
    EXPECT_DOUBLE_EQ(parsed->numberOr("violation_rate", 0), 0.25);
    EXPECT_DOUBLE_EQ(parsed->numberOr("finetune_loss", 0), 0.125);
    const JsonValue *candidates = parsed->find("candidates");
    ASSERT_NE(candidates, nullptr);
    ASSERT_EQ(candidates->asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(candidates->asArray()[0].numberOr(
                         "predicted_sec", 0.0),
                     1e-3);
    EXPECT_DOUBLE_EQ(candidates->asArray()[0].numberOr(
                         "measured_sec", 0.0),
                     2e-3);
}

TEST(RoundLog, EmptyPathDisablesLogger)
{
    RoundLogger logger("");
    EXPECT_FALSE(logger.enabled());
    logger.append(RoundRecord{});   // must be a safe no-op
}

} // namespace
} // namespace obs
} // namespace felix
