/**
 * @file
 * Tests of the serving subsystem: the tuner's task pick weighted by
 * traffic share, schedule cache persistence, the NDJSON protocol
 * codec, crash-safe record appends and record validation, exact
 * traffic counts and the heavy-hitter order, and the full
 * ServeSession cache-miss -> tune -> cache-hit round trip with
 * bit-identical replay, and repeat requests answered from the task
 * list stored at a (network, batch)'s first request.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "costmodel/dataset.h"
#include "graph/graph.h"
#include "models/models.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/parallel.h"
#include "tuner/records.h"
#include "tuner/tuner.h"

namespace felix {
namespace serve {
namespace {

// ---------------------------------------------------------------
// Traffic-weighted scheduler
// ---------------------------------------------------------------

/** The tuning progress tuner::pickTask reads, per task. */
struct Progress
{
    double bestLatencySec = 0.0;
    int rounds = 0;
    int stagnantRounds = 0;
};

std::vector<tuner::TaskRecord>
progressRecords(const std::vector<Progress> &rows)
{
    std::vector<tuner::TaskRecord> records(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        records[i].bestLatencySec = rows[i].bestLatencySec;
        records[i].rounds = rows[i].rounds;
        records[i].stagnantRounds = rows[i].stagnantRounds;
    }
    return records;
}

TEST(TrafficScheduler, SkewedTrafficPicksHotTask)
{
    // Traffic 10:90. Equal remaining latency: traffic decides — and
    // the hot task wins even from the higher index (no index bias).
    auto tasks = progressRecords({{1e-3, 1, 0}, {1e-3, 1, 0}});
    const std::vector<double> shares = {0.1, 0.9};
    EXPECT_EQ(tuner::pickTask(tasks, shares), 1);
    // 9x the traffic loses to 10x the remaining latency: the score
    // is the product, exactly the paper's rule with shares for
    // weights.
    tasks[0].bestLatencySec = 1e-2;
    EXPECT_EQ(tuner::pickTask(tasks, shares), 0);
}

TEST(TrafficScheduler, VisitOnceBeforeWeighting)
{
    auto tasks = progressRecords({{1e-3, 3, 0}, {1e-3, 0, 0}});
    // Task 1 has zero traffic but has never been tuned: the
    // visit-once warm-up picks it first.
    EXPECT_EQ(tuner::pickTask(tasks, {1.0, 0.0}), 1);
}

TEST(TrafficScheduler, StagnationBacksOff)
{
    auto tasks = progressRecords({{1e-3, 5, 2}, {1e-3, 5, 0}});
    const std::vector<double> shares = {0.6, 0.4};
    // 0.6 * 0.25 < 0.4: the stagnant hot task yields.
    EXPECT_EQ(tuner::pickTask(tasks, shares), 1);
    // Without the back-off the hot task wins again.
    tasks[0].stagnantRounds = 0;
    EXPECT_EQ(tuner::pickTask(tasks, shares), 0);
}

TEST(TrafficScheduler, UniformTrafficDegeneratesToAnsorRule)
{
    // With every task equally requested, the policy must reduce to
    // remaining-latency scheduling (the paper's Algorithm 2 rule).
    auto tasks =
        progressRecords({{1e-3, 1, 0}, {5e-3, 1, 0}, {2e-3, 1, 0}});
    const std::vector<double> shares(3, 1.0 / 3.0);
    EXPECT_EQ(tuner::pickTask(tasks, shares), 1);
    EXPECT_EQ(tuner::pickTask(tasks, shares),
              tuner::pickTask(tasks, {1.0, 1.0, 1.0}));
}

// ---------------------------------------------------------------
// Schedule cache
// ---------------------------------------------------------------

tuner::TuneRecord
makeRecord(uint64_t hash, double latency, int sketch = 0)
{
    tuner::TuneRecord record;
    record.taskHash = hash;
    record.taskLabel = "task_" + std::to_string(hash);
    record.sketchIndex = sketch;
    record.scheduleVars = {2, 4, 8};
    record.latencySec = latency;
    record.clockSec = 1.0;
    return record;
}

TEST(ScheduleCache, PutKeepsTheBetterSchedule)
{
    ScheduleCache cache;
    EXPECT_TRUE(cache.put(makeRecord(7, 5e-4)));
    EXPECT_FALSE(cache.put(makeRecord(7, 6e-4)));   // worse: kept out
    EXPECT_TRUE(cache.put(makeRecord(7, 1e-4)));    // better: replaces
    ASSERT_NE(cache.lookup(7), nullptr);
    EXPECT_DOUBLE_EQ(cache.lookup(7)->best.latencySec, 1e-4);
    EXPECT_EQ(cache.lookup(8), nullptr);
}

TEST(ScheduleCache, PersistAndWarmStartRoundTrip)
{
    const char *path = "test_serve_cache_tmp.log";
    std::remove(path);
    {
        ScheduleCache cache;
        cache.put(makeRecord(7, 5e-4));
        cache.put(makeRecord(9, 2e-4, 1));
        EXPECT_EQ(cache.persist(path), 2u);
        // Nothing dirty after a persist: no duplicate writes.
        EXPECT_EQ(cache.persist(path), 0u);
        // An improvement re-dirties only that entry.
        cache.put(makeRecord(7, 1e-4));
        EXPECT_EQ(cache.persist(path), 1u);
    }
    ScheduleCache warmed;
    EXPECT_EQ(warmed.warmStart(path), 2u);
    ASSERT_NE(warmed.lookup(7), nullptr);
    EXPECT_DOUBLE_EQ(warmed.lookup(7)->best.latencySec, 1e-4);
    ASSERT_NE(warmed.lookup(9), nullptr);
    EXPECT_EQ(warmed.lookup(9)->best.sketchIndex, 1);
    // Warm-started entries are clean: nothing is rewritten.
    EXPECT_EQ(warmed.persist(path), 0u);
    std::remove(path);
}

TEST(ScheduleCache, WarmStartMissingFileIsColdStart)
{
    ScheduleCache cache;
    EXPECT_EQ(cache.warmStart("does_not_exist_tmp.log"), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------
// Records: crash-safe append + corrupt-line accounting
// ---------------------------------------------------------------

TEST(Records, AppendRecordsBatchRoundTrips)
{
    const char *path = "test_serve_records_tmp.log";
    std::remove(path);
    std::vector<tuner::TuneRecord> batch = {makeRecord(1, 1e-4),
                                            makeRecord(2, 2e-4),
                                            makeRecord(3, 3e-4)};
    tuner::appendRecords(path, batch);
    tuner::appendRecords(path, {});   // no-op, creates nothing extra
    auto loaded = tuner::loadRecords(path);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded[1].taskHash, 2u);
    EXPECT_DOUBLE_EQ(loaded[2].latencySec, 3e-4);
    std::remove(path);
}

TEST(Records, CorruptLinesAreCountedAndSkipped)
{
    const char *path = "test_serve_corrupt_tmp.log";
    std::remove(path);
    tuner::appendRecord(path, makeRecord(1, 1e-4));
    {
        std::ofstream os(path, std::ios::app);
        os << "this is not a record\n";
        os << "12 0 nan\n";                       // truncated
        os << "13 0 1e-4 2.0 3 1 2\n";            // missing one var
    }
    tuner::appendRecord(path, makeRecord(2, 2e-4));
    auto &corrupt = obs::MetricsRegistry::instance().counter(
        "records.corrupt_lines");
    const double before = corrupt.value();
    auto loaded = tuner::loadRecords(path);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(corrupt.value() - before, 3.0);
    std::remove(path);
}

TEST(Records, ImpossibleMeasurementsAreCorruptLines)
{
    const char *path = "test_serve_impossible_tmp.log";
    std::remove(path);
    tuner::appendRecord(path, makeRecord(5, 2e-4));
    {
        // Each parses and would beat the valid line in historyBest.
        std::ofstream os(path, std::ios::app);
        os << "5 0 0 1 3 2 4 8 task_5\n";        // latency 0
        os << "5 0 -1e-3 1 3 2 4 8 task_5\n";    // negative latency
        os << "5 -1 1e-5 1 3 2 4 8 task_5\n";    // sketch index -1
    }
    auto &corrupt = obs::MetricsRegistry::instance().counter(
        "records.corrupt_lines");
    const double before = corrupt.value();
    auto loaded = tuner::loadRecords(path);
    EXPECT_DOUBLE_EQ(corrupt.value() - before, 3.0);
    auto best = tuner::historyBest(loaded);
    ASSERT_EQ(best.size(), 1u);
    EXPECT_DOUBLE_EQ(best[0].latencySec, 2e-4);
    EXPECT_EQ(best[0].sketchIndex, 0);

    ScheduleCache cache;
    EXPECT_EQ(cache.warmStart(path), 1u);
    ASSERT_NE(cache.lookup(5), nullptr);
    EXPECT_DOUBLE_EQ(cache.lookup(5)->best.latencySec, 2e-4);
    EXPECT_EQ(cache.lookup(5)->best.sketchIndex, 0);
    std::remove(path);
}

// ---------------------------------------------------------------
// Protocol codec
// ---------------------------------------------------------------

TEST(Protocol, ParsesEveryOp)
{
    auto tune = parseRequest(
        R"({"op":"tune","network":"dcgan","batch":2})");
    ASSERT_TRUE(tune.has_value());
    EXPECT_EQ(tune->op, Op::Tune);
    EXPECT_EQ(tune->network, "dcgan");
    EXPECT_EQ(tune->batch, 2);

    auto rounds = parseRequest(R"({"op":"rounds","n":4})");
    ASSERT_TRUE(rounds.has_value());
    EXPECT_EQ(rounds->op, Op::Rounds);
    EXPECT_EQ(rounds->rounds, 4);

    EXPECT_EQ(parseRequest(R"({"op":"stats"})")->op, Op::Stats);
    EXPECT_EQ(parseRequest(R"({"op":"tasks"})")->op, Op::Tasks);
    EXPECT_EQ(parseRequest(R"({"op":"flush"})")->op, Op::Flush);
    EXPECT_EQ(parseRequest(R"({"op":"shutdown"})")->op,
              Op::Shutdown);
    EXPECT_EQ(parseRequest(R"({"op":"metrics"})")->op, Op::Metrics);
    EXPECT_EQ(parseRequest(R"({"op":"dump"})")->op, Op::Dump);
}

TEST(Protocol, StatsResponseRoundTripsWindowAndQuantiles)
{
    StatsResponse stats;
    stats.requests = 12;
    stats.cacheHits = 9;
    stats.cacheMisses = 3;
    stats.window = {256, 12, 9, 0.75};
    stats.answerLatency = {12, 870.5, 820.0, 1450.0, 2210.0};
    stats.heavyHitters.push_back(
        {0xffffffffffffffffull, 9, 0.75});

    auto parsed = obs::parseJson(stats.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->stringOr("type", ""), "stats");
    const obs::JsonValue *window = parsed->find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_DOUBLE_EQ(window->numberOr("size", 0), 256.0);
    EXPECT_DOUBLE_EQ(window->numberOr("filled", 0), 12.0);
    EXPECT_DOUBLE_EQ(window->numberOr("hits", 0), 9.0);
    EXPECT_DOUBLE_EQ(window->numberOr("hit_rate", 0), 0.75);
    const obs::JsonValue *latency =
        parsed->find("answer_latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_DOUBLE_EQ(latency->numberOr("count", 0), 12.0);
    EXPECT_DOUBLE_EQ(latency->numberOr("mean", 0), 870.5);
    EXPECT_DOUBLE_EQ(latency->numberOr("p50", 0), 820.0);
    EXPECT_DOUBLE_EQ(latency->numberOr("p95", 0), 1450.0);
    EXPECT_DOUBLE_EQ(latency->numberOr("p99", 0), 2210.0);
    // 64-bit hashes survive as decimal strings.
    const obs::JsonValue *hitters = parsed->find("heavy_hitters");
    ASSERT_NE(hitters, nullptr);
    ASSERT_EQ(hitters->asArray().size(), 1u);
    EXPECT_EQ(hitters->asArray()[0].stringOr("hash", ""),
              "18446744073709551615");
}

TEST(Protocol, TasksResponseRoundTrips)
{
    TasksResponse response;
    TaskProgress progress;
    progress.label = "dense \"fc1\"";
    progress.hash = 0x8000000000000001ull;
    progress.bestLatencySec = 4.5e-4;
    progress.rounds = 7;
    progress.stagnantRounds = 2;
    progress.trafficCount = 90;
    progress.trafficShare = 0.9;
    progress.cacheHits = 41;
    response.tasks.push_back(progress);

    auto parsed = obs::parseJson(response.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->stringOr("type", ""), "tasks");
    EXPECT_DOUBLE_EQ(parsed->numberOr("count", 0), 1.0);
    const obs::JsonValue *tasks = parsed->find("tasks");
    ASSERT_NE(tasks, nullptr);
    ASSERT_EQ(tasks->asArray().size(), 1u);
    const obs::JsonValue &task = tasks->asArray()[0];
    EXPECT_EQ(task.stringOr("label", ""), "dense \"fc1\"");
    EXPECT_EQ(task.stringOr("hash", ""), "9223372036854775809");
    EXPECT_DOUBLE_EQ(task.numberOr("best_latency_sec", 0), 4.5e-4);
    EXPECT_DOUBLE_EQ(task.numberOr("rounds", 0), 7.0);
    EXPECT_DOUBLE_EQ(task.numberOr("stagnant", 0), 2.0);
    EXPECT_DOUBLE_EQ(task.numberOr("traffic_count", 0), 90.0);
    EXPECT_DOUBLE_EQ(task.numberOr("traffic_share", 0), 0.9);
    EXPECT_DOUBLE_EQ(task.numberOr("cache_hits", 0), 41.0);
}

TEST(Protocol, DumpResponseRoundTrips)
{
    DumpResponse response;
    response.total = 20;
    response.droppedCount = 12;
    response.capacity = 8;
    obs::FlightEvent event;
    event.seq = 19;
    event.wallUs = 123456;
    event.kind = obs::FlightKind::CacheMiss;
    event.requestId = 4;
    event.key = 0xdeadbeefull;
    event.value = -1;
    response.events.push_back(event);

    auto parsed = obs::parseJson(response.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->stringOr("type", ""), "dump");
    EXPECT_DOUBLE_EQ(parsed->numberOr("total", 0), 20.0);
    EXPECT_DOUBLE_EQ(parsed->numberOr("dropped", 0), 12.0);
    EXPECT_DOUBLE_EQ(parsed->numberOr("capacity", 0), 8.0);
    const obs::JsonValue *events = parsed->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->asArray().size(), 1u);
    const obs::JsonValue &first = events->asArray()[0];
    EXPECT_DOUBLE_EQ(first.numberOr("seq", 0), 19.0);
    EXPECT_DOUBLE_EQ(first.numberOr("t_us", 0), 123456.0);
    EXPECT_EQ(first.stringOr("kind", ""), "cache_miss");
    EXPECT_EQ(first.stringOr("req", ""), "4");
    EXPECT_EQ(first.stringOr("key", ""), "3735928559");
    EXPECT_DOUBLE_EQ(first.numberOr("value", 0), -1.0);
}

TEST(Protocol, RejectsMalformedRequests)
{
    std::string error;
    EXPECT_FALSE(parseRequest("not json", &error).has_value());
    EXPECT_FALSE(parseRequest(R"({"op":"fly"})", &error));
    EXPECT_FALSE(parseRequest(R"({"network":"dcgan"})", &error));
    EXPECT_FALSE(parseRequest(R"({"op":"tune"})", &error));
    EXPECT_FALSE(
        parseRequest(R"({"op":"tune","network":"x","batch":0})",
                     &error));
    EXPECT_FALSE(parseRequest(R"({"op":"rounds","n":0})", &error));
    EXPECT_FALSE(error.empty());

    // batch and n, when present, must be JSON numbers holding an
    // integer in [1, 2^31 - 1]: no truncated fraction, no quoted
    // number read as the default, no out-of-range cast. The error
    // names the field.
    const struct
    {
        const char *line;
        const char *field;
    } bad[] = {
        {R"({"op":"tune","network":"x","batch":2.5})", "\"batch\""},
        {R"({"op":"tune","network":"x","batch":"4"})", "\"batch\""},
        {R"({"op":"tune","network":"x","batch":1e10})", "\"batch\""},
        {R"({"op":"tune","network":"x","batch":2147483648})",
         "\"batch\""},
        {R"({"op":"tune","network":"x","batch":-2})", "\"batch\""},
        {R"({"op":"tune","network":"x","batch":null})", "\"batch\""},
        {R"({"op":"rounds","n":2.5})", "\"n\""},
        {R"({"op":"rounds","n":"4"})", "\"n\""},
        {R"({"op":"rounds","n":1e10})", "\"n\""},
        {R"({"op":"rounds","n":1e999})", "\"n\""},
    };
    for (const auto &c : bad) {
        error.clear();
        EXPECT_FALSE(parseRequest(c.line, &error)) << c.line;
        EXPECT_NE(error.find(c.field), std::string::npos)
            << c.line << ": " << error;
    }
    // Integers in range parse, whatever their spelling; absent
    // fields default to 1.
    auto tune = parseRequest(
        R"({"op":"tune","network":"x","batch":4.0})", &error);
    ASSERT_TRUE(tune);
    EXPECT_EQ(tune->batch, 4);
    auto rounds =
        parseRequest(R"({"op":"rounds","n":2147483647})", &error);
    ASSERT_TRUE(rounds);
    EXPECT_EQ(rounds->rounds, 2147483647);
    auto defaults = parseRequest(R"({"op":"rounds"})", &error);
    ASSERT_TRUE(defaults);
    EXPECT_EQ(defaults->rounds, 1);
    auto defaultBatch =
        parseRequest(R"({"op":"tune","network":"x"})", &error);
    ASSERT_TRUE(defaultBatch);
    EXPECT_EQ(defaultBatch->batch, 1);
}

// ---------------------------------------------------------------
// ServeSession
// ---------------------------------------------------------------

/** Small deterministic cost model shared by the session tests. */
const costmodel::CostModel &
testModel()
{
    static const costmodel::CostModel model = [] {
        costmodel::DatasetOptions options;
        options.numSubgraphs = 10;
        options.schedulesPerSketch = 48;
        options.seed = 7;
        auto samples = costmodel::synthesizeDataset(
            sim::deviceConfig(sim::DeviceKind::A5000), options);
        costmodel::MlpConfig config;
        config.layerSizes = {82, 64, 64, 1};
        costmodel::CostModel model(config, 7);
        model.fit(samples, 8, 128, 1.5e-3);
        return model;
    }();
    return model;
}

ServeOptions
fastOptions()
{
    ServeOptions options;
    options.tuner.seed = 3;
    options.tuner.grad.nSeeds = 4;
    options.tuner.grad.nSteps = 48;
    options.tuner.grad.nMeasure = 8;
    return options;
}

std::vector<graph::Task>
denseTasks(const std::string &label, int64_t k)
{
    graph::Graph g(label);
    graph::DenseParams fc;
    fc.n = 64;
    fc.m = 256;
    fc.k = k;
    g.addDense(fc, -1, label);
    return graph::partition(g);
}

TEST(ServeSession, MissTuneHitRoundTrip)
{
    ServeSession session(fastOptions(), testModel());
    auto tasks = denseTasks("fc", 256);
    ASSERT_EQ(tasks.size(), 1u);

    auto miss = session.tune("tiny", tasks);
    EXPECT_EQ(miss.cacheMisses, 1);
    EXPECT_EQ(miss.cacheHits, 0);
    ASSERT_EQ(miss.tasks.size(), 1u);
    EXPECT_FALSE(miss.tasks[0].cached);
    const double untuned = miss.tasks[0].latencySec;

    auto rounds = session.runRounds(2);
    EXPECT_EQ(rounds.ran, 2);
    EXPECT_GT(rounds.measurements, 0);
    EXPECT_GT(rounds.clockSec, 0.0);

    const int measurementsAfterTuning =
        session.graphTuner().totalMeasurements();
    auto hit = session.tune("tiny", tasks);
    EXPECT_EQ(hit.cacheHits, 1);
    EXPECT_EQ(hit.cacheMisses, 0);
    ASSERT_EQ(hit.tasks.size(), 1u);
    EXPECT_TRUE(hit.tasks[0].cached);
    // Served from cache: tuned result, no new measurements.
    EXPECT_LT(hit.tasks[0].latencySec, untuned);
    EXPECT_EQ(session.graphTuner().totalMeasurements(),
              measurementsAfterTuning);

    auto stats = session.stats();
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.tasks, 1u);
    EXPECT_EQ(stats.trafficTotal, 2u);
    ASSERT_FALSE(stats.heavyHitters.empty());
    EXPECT_EQ(stats.heavyHitters[0].count, 2u);
}

TEST(ServeSession, SkewedTrafficShiftsRoundsToHotSubgraph)
{
    ServeSession session(fastOptions(), testModel());
    auto cold = denseTasks("cold_fc", 256);
    auto hot = denseTasks("hot_fc", 224);
    const uint64_t coldHash = cold[0].subgraph.structuralHash();
    const uint64_t hotHash = hot[0].subgraph.structuralHash();
    ASSERT_NE(coldHash, hotHash);

    // Register the cold task FIRST so the hot task wins on traffic,
    // not on index order, then skew the fleet 9:1.
    session.tune("cold", cold);
    session.tune("hot", hot);
    for (int i = 0; i < 8; ++i)
        session.tune("hot", hot);

    TasksResponse progress = session.tasks();
    ASSERT_EQ(progress.tasks.size(), 2u);
    EXPECT_EQ(progress.tasks[0].hash, coldHash);
    EXPECT_EQ(progress.tasks[1].hash, hotHash);
    EXPECT_GT(progress.tasks[1].trafficShare, 0.8);
    EXPECT_LT(progress.tasks[0].trafficShare, 0.2);

    // Round 1 and 2 are the visit-once warm-up; round 3 must go to
    // the hot subgraph even though it registered second.
    auto rounds = session.runRounds(3);
    ASSERT_EQ(rounds.ran, 3);
    EXPECT_EQ(rounds.tunedLabels[2], "hot_fc");
    EXPECT_GT(session.roundsOnTask(hotHash),
              session.roundsOnTask(coldHash));
}

TEST(ServeSession, TrafficCountsAreExactAndHeavyHittersOrdered)
{
    ServeSession session(fastOptions(), testModel());
    std::vector<graph::Task> pool;
    for (int i = 0; i < 10; ++i) {
        pool.push_back(
            denseTasks("fc" + std::to_string(i), 96 + 8 * i)[0]);
    }
    // The last two tie across the eighth heavy-hitter place. The one
    // with the higher hash arrives first at every count, so only the
    // hash can make the lower one win.
    if (pool[8].subgraph.structuralHash() <
        pool[9].subgraph.structuralHash())
        std::swap(pool[8], pool[9]);
    const std::vector<uint64_t> want = {20, 18, 16, 14, 14,
                                        11, 10, 1,  5,  5};
    uint64_t total = 0;
    for (uint64_t count : want)
        total += count;

    // Requests of up to three occurrences per subgraph until every
    // count is reached.
    std::vector<uint64_t> sent(pool.size(), 0);
    for (;;) {
        std::vector<graph::Task> request;
        for (size_t i = 0; i < pool.size(); ++i) {
            if (sent[i] == want[i])
                continue;
            graph::Task task = pool[i];
            task.weight = static_cast<int>(
                std::min<uint64_t>(3, want[i] - sent[i]));
            sent[i] += static_cast<uint64_t>(task.weight);
            request.push_back(std::move(task));
        }
        if (request.empty())
            break;
        session.tune("mix", request);
    }

    TasksResponse progress = session.tasks();
    ASSERT_EQ(progress.tasks.size(), pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
        const TaskProgress &task = progress.tasks[i];
        EXPECT_EQ(task.hash, pool[i].subgraph.structuralHash());
        EXPECT_EQ(task.trafficCount, want[i]) << "task " << i;
        EXPECT_EQ(task.trafficShare, static_cast<double>(want[i]) /
                                         static_cast<double>(total));
    }

    // Top kHeavyHitters by count, descending, then by hash.
    std::vector<std::pair<uint64_t, uint64_t>> expected;   // count, hash
    for (size_t i = 0; i < pool.size(); ++i)
        expected.push_back({want[i], pool[i].subgraph.structuralHash()});
    std::sort(expected.begin(), expected.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    expected.resize(ServeSession::kHeavyHitters);
    StatsResponse stats = session.stats();
    EXPECT_EQ(stats.trafficTotal, total);
    ASSERT_EQ(stats.heavyHitters.size(), ServeSession::kHeavyHitters);
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(stats.heavyHitters[i].count, expected[i].first);
        EXPECT_EQ(stats.heavyHitters[i].hash, expected[i].second);
        EXPECT_EQ(stats.heavyHitters[i].share,
                  static_cast<double>(expected[i].first) /
                      static_cast<double>(total));
    }
    // The tie across the eighth place goes to the lower hash.
    EXPECT_EQ(stats.heavyHitters[7].hash,
              pool[9].subgraph.structuralHash());
    for (const HeavyHitterInfo &hitter : stats.heavyHitters)
        EXPECT_NE(hitter.hash, pool[8].subgraph.structuralHash());
}

TEST(ServeSession, StdioReplayIsBitIdentical)
{
    const std::string trace =
        "{\"op\":\"tune\",\"network\":\"dcgan\",\"batch\":1}\n"
        "{\"op\":\"rounds\",\"n\":1}\n"
        "{\"op\":\"tune\",\"network\":\"dcgan\",\"batch\":1}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"shutdown\"}\n";
    auto run = [&]() {
        ServeSession session(fastOptions(), testModel());
        std::istringstream in(trace);
        std::ostringstream out;
        EXPECT_EQ(session.runStdio(in, out), 0);
        EXPECT_TRUE(session.shutdownRequested());
        return out.str();
    };
    const std::string first = run();
    const std::string second = run();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The replay exercises the full protocol surface.
    EXPECT_NE(first.find("\"type\":\"schedules\""),
              std::string::npos);
    EXPECT_NE(first.find("\"cache_hits\":5"), std::string::npos);
    EXPECT_NE(first.find("\"type\":\"ok\""), std::string::npos);
}

/** Network @p name at @p batch, built as felix-serve builds it. */
graph::Graph
buildNetwork(const std::string &name, int batch)
{
    if (name == "dcgan")
        return models::dcgan(batch);
    if (name == "vit_b32")
        return models::vitB32(batch);
    ADD_FAILURE() << "unknown test network " << name;
    return graph::Graph(name);
}

/** Spans named @p name in a Chrome trace document. */
int
spanCount(const obs::JsonValue &trace, const std::string &name)
{
    const obs::JsonValue *events = trace.find("traceEvents");
    if (!events)
        return -1;
    int count = 0;
    for (const obs::JsonValue &event : events->asArray())
        count += event.stringOr("name", "") == name ? 1 : 0;
    return count;
}

TEST(ServeSession, RepeatRequestsReuseTheStoredPartition)
{
    // Tune requests repeated for three (network, batch) pairs, one
    // network at two batches, with a rounds request after each.
    const std::vector<std::pair<std::string, int>> pairs = {
        {"dcgan", 1}, {"dcgan", 2}, {"vit_b32", 1}};
    std::vector<std::string> trace;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &[name, batch] : pairs) {
            trace.push_back("{\"op\":\"tune\",\"network\":\"" + name +
                            "\",\"batch\":" + std::to_string(batch) +
                            "}");
            trace.push_back(R"({"op":"rounds","n":1})");
        }
    }

    // One session answers through handle(), traced.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.start("");
    ServeSession served(fastOptions(), testModel());
    std::vector<std::string> handled;
    for (const std::string &line : trace)
        handled.push_back(served.handle(line));
    auto spans = obs::parseJson(tracer.toJson());
    tracer.stop();
    tracer.clear();

    // Its twin builds and partitions the network of every request.
    ServeSession direct(fastOptions(), testModel());
    for (size_t i = 0; i < trace.size(); ++i) {
        auto request = parseRequest(trace[i]);
        ASSERT_TRUE(request);
        const std::string answer =
            request->op == Op::Tune
                ? direct
                      .tune(request->network,
                            graph::partition(buildNetwork(
                                request->network, request->batch)))
                      .toJson()
                : direct.runRounds(request->rounds).toJson();
        EXPECT_EQ(handled[i], answer)
            << "request " << i << ": " << trace[i];
    }

    // Only the first request of each pair built and partitioned its
    // network; every tune request was answered by tune().
    ASSERT_TRUE(spans);
    EXPECT_EQ(spanCount(*spans, "serve.build_network"), 3);
    EXPECT_EQ(spanCount(*spans, "serve.partition"), 3);
    EXPECT_EQ(spanCount(*spans, "serve.tune"), 9);

    // An unknown network is not stored: every request errors.
    for (int i = 0; i < 2; ++i) {
        EXPECT_NE(served.handle(R"({"op":"tune","network":"nope"})")
                      .find("unknown network"),
                  std::string::npos);
    }
}

TEST(ServeSession, HandleRejectsBadRequestsGracefully)
{
    ServeSession session(fastOptions(), testModel());
    EXPECT_NE(session.handle("garbage").find("\"type\":\"error\""),
              std::string::npos);
    EXPECT_NE(session.handle(R"({"op":"tune","network":"nope"})")
                  .find("unknown network"),
              std::string::npos);
    EXPECT_NE(
        session
            .handle(
                R"({"op":"tune","network":"dcgan","device":"a10g"})")
            .find("\"type\":\"error\""),
        std::string::npos);
    EXPECT_FALSE(session.shutdownRequested());
}

TEST(ServeSession, WindowedHitRateIsDeterministicUnderReplay)
{
    auto run = [] {
        ServeOptions options = fastOptions();
        options.hitWindow = 4;
        ServeSession session(options, testModel());
        auto tasks = denseTasks("fc", 256);
        session.tune("tiny", tasks);   // miss
        for (int i = 0; i < 5; ++i)
            session.tune("tiny", tasks);   // hits
        return session.stats();
    };
    StatsResponse first = run();
    EXPECT_EQ(first.window.size, 4u);
    EXPECT_EQ(first.window.filled, 4u);
    // Six lookups through a window of 4: the initial miss fell out.
    EXPECT_EQ(first.window.hits, 4u);
    EXPECT_DOUBLE_EQ(first.window.hitRate, 1.0);
    // Overall rate still remembers the miss.
    EXPECT_EQ(first.cacheHits, 5u);
    EXPECT_EQ(first.cacheMisses, 1u);
    // Virtual answer latencies populate the quantile summary and
    // replay to the same values.
    EXPECT_EQ(first.answerLatency.count, 6u);
    EXPECT_GT(first.answerLatency.p50Us, 0.0);
    EXPECT_LE(first.answerLatency.p50Us, first.answerLatency.p99Us);
    StatsResponse second = run();
    EXPECT_EQ(second.toJson(), first.toJson());
}

TEST(ServeSession, TasksReportsTuningProgress)
{
    ServeSession session(fastOptions(), testModel());
    auto cold = denseTasks("cold_fc", 256);
    auto hot = denseTasks("hot_fc", 224);
    session.tune("cold", cold);
    for (int i = 0; i < 9; ++i)
        session.tune("hot", hot);
    session.runRounds(3);

    TasksResponse response = session.tasks();
    ASSERT_EQ(response.tasks.size(), 2u);
    const TaskProgress &coldTask = response.tasks[0];
    const TaskProgress &hotTask = response.tasks[1];
    EXPECT_EQ(coldTask.label, "cold_fc");
    EXPECT_EQ(hotTask.label, "hot_fc");
    EXPECT_EQ(hotTask.hash, hot[0].subgraph.structuralHash());
    EXPECT_GT(hotTask.trafficShare, coldTask.trafficShare);
    EXPECT_NEAR(hotTask.trafficShare + coldTask.trafficShare, 1.0,
                1e-9);
    EXPECT_EQ(coldTask.rounds + hotTask.rounds, 3);
    EXPECT_EQ(hotTask.cacheHits, 8u);   // 9 tunes, first missed
    EXPECT_GT(hotTask.bestLatencySec, 0.0);
}

TEST(ServeSession, DumpCarriesCorrelatedFlightEvents)
{
    obs::FlightRecorder::instance().reset(64);
    ServeSession session(fastOptions(), testModel());
    session.handle(
        R"({"op":"tune","network":"dcgan","batch":1})");
    session.handle(
        R"({"op":"tune","network":"dcgan","batch":1})");
    session.handle(R"({"op":"rounds","n":1})");

    DumpResponse dump = session.dump();
    EXPECT_EQ(dump.capacity, 64u);
    EXPECT_EQ(dump.droppedCount, 0u);
    ASSERT_FALSE(dump.events.empty());
    int requests = 0, misses = 0, hits = 0, picks = 0;
    for (const obs::FlightEvent &event : dump.events) {
        switch (event.kind) {
          case obs::FlightKind::Request: ++requests; break;
          case obs::FlightKind::CacheMiss:
              ++misses;
              EXPECT_EQ(event.requestId, 1u);   // first tune
              EXPECT_NE(event.key, 0u);
              break;
          case obs::FlightKind::CacheHit:
              ++hits;
              EXPECT_EQ(event.requestId, 2u);   // second tune
              break;
          case obs::FlightKind::RoundPick:
              ++picks;
              EXPECT_EQ(event.requestId, 3u);
              break;
          default: break;
        }
    }
    EXPECT_EQ(requests, 3);
    EXPECT_GT(misses, 0);
    EXPECT_EQ(hits, misses);   // same network served twice
    EXPECT_EQ(picks, 1);
    // Sequence numbers are strictly increasing, oldest first.
    for (size_t i = 1; i < dump.events.size(); ++i)
        EXPECT_EQ(dump.events[i].seq, dump.events[i - 1].seq + 1);
    // The response serializes and parses.
    EXPECT_TRUE(obs::parseJson(dump.toJson()).has_value());
    obs::FlightRecorder::instance().reset(
        obs::FlightRecorder::kDefaultCapacity);
}

TEST(ServeSession, MetricsAndDumpOpsAnswerOverTheWire)
{
    obs::FlightRecorder::instance().reset(64);
    ServeSession session(fastOptions(), testModel());
    std::string metrics = session.handle(R"({"op":"metrics"})");
    auto parsedMetrics = obs::parseJson(metrics);
    ASSERT_TRUE(parsedMetrics.has_value());
    EXPECT_EQ(parsedMetrics->stringOr("type", ""), "metrics");
    const obs::JsonValue *registry =
        parsedMetrics->find("registry");
    ASSERT_NE(registry, nullptr);
    EXPECT_NE(registry->find("counters"), nullptr);

    std::string dump = session.handle(R"({"op":"dump"})");
    auto parsedDump = obs::parseJson(dump);
    ASSERT_TRUE(parsedDump.has_value());
    EXPECT_EQ(parsedDump->stringOr("type", ""), "dump");
    obs::FlightRecorder::instance().reset(
        obs::FlightRecorder::kDefaultCapacity);
}

TEST(ServeSession, WarmStartAnswersWithoutMeasurements)
{
    const char *path = "test_serve_warm_tmp.log";
    std::remove(path);
    auto tasks = denseTasks("fc", 256);
    {
        ServeOptions options = fastOptions();
        options.recordsPath = path;
        ServeSession session(options, testModel());
        session.tune("tiny", tasks);
        session.runRounds(1);
        EXPECT_GE(session.persist(), 1u);
    }
    {
        ServeOptions options = fastOptions();
        options.recordsPath = path;
        ServeSession session(options, testModel());
        auto hit = session.tune("tiny", tasks);
        EXPECT_EQ(hit.cacheHits, 1);
        EXPECT_EQ(hit.cacheMisses, 0);
        // No task registered, no measurement run: pure cache.
        EXPECT_EQ(session.graphTuner().taskRecords().size(), 0u);
        EXPECT_EQ(session.graphTuner().totalMeasurements(), 0);
    }
    std::remove(path);
}

TEST(ServeSession, RestartReRegistersRestoredTasksBitIdentically)
{
    // A daemon restarted from its checkpoint and persisted cache
    // answers the same network from the cache and re-registers its
    // tasks, which resume their restored tuning state.
    const std::string tune = R"({"op":"tune","network":"dcgan","batch":1})";
    auto run = [&](int jobs) {
        const std::string base =
            "test_serve_restart_" + std::to_string(jobs) + "_tmp";
        ServeOptions options = fastOptions();
        options.recordsPath = base + ".log";
        options.checkpointPath = base + ".ckpt";
        options.tuner.numThreads = jobs;
        std::remove(options.recordsPath.c_str());
        std::remove(options.checkpointPath.c_str());
        std::map<uint64_t, int> roundsBefore;
        {
            ServeSession session(options, testModel());
            session.handle(tune);
            session.handle(R"({"op":"rounds","n":3})");
            for (const auto &record : session.graphTuner().taskRecords())
                roundsBefore[record.task.subgraph.structuralHash()] =
                    record.rounds;
            EXPECT_GT(session.persist(), 0u);
            EXPECT_TRUE(session.writeCheckpoint());
        }
        std::string responses;
        {
            ServeSession session(options, testModel());
            EXPECT_EQ(session.graphTuner().pendingRestoreCount(),
                      roundsBefore.size());
            responses = session.handle(tune) + "\n";
            EXPECT_EQ(session.graphTuner().pendingRestoreCount(), 0u);
            const auto &records = session.graphTuner().taskRecords();
            EXPECT_EQ(records.size(), roundsBefore.size());
            int restoredRounds = 0;
            for (const auto &record : records) {
                EXPECT_EQ(record.rounds,
                          roundsBefore.at(
                              record.task.subgraph.structuralHash()));
                restoredRounds += record.rounds;
            }
            EXPECT_EQ(restoredRounds, 3);
            responses += session.handle(R"({"op":"rounds","n":2})") + "\n";
            responses += session.handle(R"({"op":"tasks"})") + "\n";
        }
        std::remove(options.recordsPath.c_str());
        std::remove(options.checkpointPath.c_str());
        setGlobalJobs(1);
        return responses;
    };
    const std::string one = run(1);
    EXPECT_NE(one.find("\"cache_hits\":5"), std::string::npos) << one;
    EXPECT_NE(one.find("\"cache_misses\":0"), std::string::npos);
    EXPECT_EQ(one, run(4));
}

} // namespace
} // namespace serve
} // namespace felix
