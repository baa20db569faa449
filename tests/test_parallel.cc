/**
 * @file
 * Tests of the deterministic parallel runtime (support/parallel.h):
 * pool correctness, exception propagation, nested loops, concurrent
 * expression interning, and the end-to-end determinism contract —
 * a GraphTuner run is bit-identical for --jobs 1 and --jobs 4, and
 * registering a network's tasks in one parallel batch matches
 * registering them one at a time.
 *
 * Registered under the ctest label "concurrency" so the suite can be
 * re-run under ThreadSanitizer (cmake -DFELIX_SANITIZE=thread,
 * ctest -L concurrency).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "costmodel/dataset.h"
#include "expr/expr.h"
#include "graph/graph.h"
#include "models/models.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tir/ops.h"
#include "tuner/tuner.h"

namespace felix {
namespace {

/** Restores the global pool size on scope exit so tests that resize
 *  it cannot leak a multi-threaded pool into unrelated tests. */
struct PoolGuard
{
    ~PoolGuard() { setGlobalJobs(1); }
};

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &h : hits)
        h.store(0);
    pool.run(
        kN,
        [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        "test.pool");
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossManyLoops)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::vector<int> out(round + 1, 0);
        pool.run(
            out.size(), [&](size_t i) { out[i] = static_cast<int>(i); },
            "test.pool");
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i));
    }
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.run(
                     100,
                     [&](size_t i) {
                         if (i == 37)
                             throw std::runtime_error("item 37");
                     },
                     "test.pool"),
                 std::runtime_error);
    // The pool must stay usable after an exceptional loop.
    std::atomic<int> count{0};
    pool.run(
        10, [&](size_t) { count.fetch_add(1); }, "test.pool");
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, SlotWritesMatchSerialLoop)
{
    PoolGuard guard;
    auto compute = [](std::vector<double> &out) {
        parallelFor("test.slots", out.size(), [&](size_t i) {
            out[i] = static_cast<double>(i) * 1.5 + 1.0;
        });
    };
    std::vector<double> serial(777), parallel(777);
    setGlobalJobs(1);
    compute(serial);
    setGlobalJobs(4);
    EXPECT_EQ(globalJobs(), 4);
    compute(parallel);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, NestedLoopRunsInline)
{
    PoolGuard guard;
    setGlobalJobs(4);
    std::vector<std::vector<int>> out(8);
    parallelFor("test.outer", out.size(), [&](size_t i) {
        out[i].assign(16, 0);
        parallelFor("test.inner", out[i].size(), [&](size_t j) {
            out[i][j] = static_cast<int>(i * 100 + j);
        });
    });
    for (size_t i = 0; i < out.size(); ++i)
        for (size_t j = 0; j < out[i].size(); ++j)
            EXPECT_EQ(out[i][j], static_cast<int>(i * 100 + j));
}

TEST(ParallelForChunks, ChunkBoundariesIgnorePoolSize)
{
    PoolGuard guard;
    auto boundaries = [](size_t n, size_t chunk) {
        std::vector<std::pair<size_t, size_t>> ranges(
            (n + chunk - 1) / chunk);
        parallelForChunks("test.chunks", n, chunk,
                          [&](size_t begin, size_t end) {
                              ranges[begin / chunk] = {begin, end};
                          });
        return ranges;
    };
    setGlobalJobs(1);
    auto serial = boundaries(103, 16);
    setGlobalJobs(4);
    auto parallel = boundaries(103, 16);
    EXPECT_EQ(serial, parallel);
    ASSERT_EQ(serial.size(), 7u);
    EXPECT_EQ(serial.front(), (std::pair<size_t, size_t>{0, 16}));
    EXPECT_EQ(serial.back(), (std::pair<size_t, size_t>{96, 103}));
}

TEST(Interner, ConcurrentConstructionYieldsCanonicalNodes)
{
    PoolGuard guard;
    setGlobalJobs(4);
    // Build the same expression from every worker at once: hash
    // consing must hand all of them the identical node, and repeated
    // rounds must not grow the intern table (no duplicate inserts
    // racing past the shard locks).
    auto build = [](size_t salt) {
        expr::Expr x = expr::Expr::var("ptx");
        expr::Expr y = expr::Expr::var("pty");
        expr::Expr e = expr::min(x * y + 2.0, expr::max(x, y));
        return expr::log(e + static_cast<double>(salt % 3));
    };
    std::vector<expr::Expr> exprs(64);
    parallelFor("test.intern", exprs.size(),
                [&](size_t i) { exprs[i] = build(i); });
    const size_t tableAfterFirst = expr::internTableSize();
    for (size_t i = 0; i < exprs.size(); ++i)
        EXPECT_TRUE(exprs[i].same(exprs[i % 3]))
            << "expr " << i << " not canonical";
    std::vector<expr::Expr> again(64);
    parallelFor("test.intern", again.size(),
                [&](size_t i) { again[i] = build(i); });
    EXPECT_EQ(expr::internTableSize(), tableAfterFirst);
    for (size_t i = 0; i < again.size(); ++i)
        EXPECT_TRUE(again[i].same(exprs[i]));
}

TEST(Interner, CommutativeCanonicalizationIsOrderFree)
{
    PoolGuard guard;
    setGlobalJobs(4);
    // a + b and b + a must intern to one node even when the two
    // orders are first seen concurrently on different threads.
    std::vector<expr::Expr> sums(32);
    parallelFor("test.commute", sums.size(), [&](size_t i) {
        expr::Expr a = expr::Expr::var("ca") * 3.0;
        expr::Expr b = expr::Expr::var("cb") + 1.0;
        sums[i] = (i % 2 == 0) ? (a + b) : (b + a);
    });
    for (size_t i = 1; i < sums.size(); ++i)
        EXPECT_TRUE(sums[i].same(sums[0]));
}

/** Small deterministic cost model for the parity test. */
costmodel::CostModel
parityModel()
{
    costmodel::DatasetOptions options;
    options.numSubgraphs = 6;
    options.schedulesPerSketch = 24;
    options.seed = 17;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    costmodel::MlpConfig config;
    config.layerSizes = {82, 32, 32, 1};
    costmodel::CostModel model(config, 17);
    model.fit(samples, 4, 128, 1.5e-3);
    return model;
}

std::vector<graph::Task>
parityTasks()
{
    graph::Graph g("parity");
    tir::Conv2dConfig conv;
    conv.c = 32;
    conv.h = conv.w = 28;
    conv.k = 64;
    int x = g.addConv2d(conv, -1, "conv");
    graph::DenseParams fc;
    fc.n = 64;
    fc.m = 256;
    fc.k = 256;
    g.addDense(fc, x, "fc");
    return graph::partition(g);
}

struct TuneOutcome
{
    double networkLatency = 0.0;
    double clock = 0.0;
    int measurements = 0;
    std::vector<double> bestLatencies;
    std::vector<std::vector<double>> bestSchedules;
    std::vector<tuner::TimelinePoint> timeline;
};

TuneOutcome
runTuner(const costmodel::CostModel &model, int jobs)
{
    tuner::TunerOptions options;
    options.strategy = tuner::StrategyKind::FelixGradient;
    options.seed = 7;
    options.numThreads = jobs;
    options.grad.nSeeds = 4;
    options.grad.nSteps = 32;
    options.grad.nMeasure = 6;
    tuner::GraphTuner tuner(parityTasks(), model,
                            sim::DeviceKind::A5000, options);
    tuner.tuneRounds(3);
    TuneOutcome out;
    out.networkLatency = tuner.networkLatency();
    out.clock = tuner.clockNow();
    out.measurements = tuner.totalMeasurements();
    for (const auto &record : tuner.taskRecords()) {
        out.bestLatencies.push_back(record.bestLatencySec);
        out.bestSchedules.push_back(record.bestCandidate.x);
    }
    out.timeline = tuner.timeline();
    return out;
}

TEST(Determinism, TunerIsBitIdenticalAcrossJobCounts)
{
    PoolGuard guard;
    // Build the model once (its synthesis is itself parallel, but we
    // want to isolate the tuner here) and run the same tuning session
    // at pool sizes 1 and 4: every number must match exactly.
    setGlobalJobs(1);
    costmodel::CostModel model = parityModel();
    TuneOutcome one = runTuner(model, 1);
    TuneOutcome four = runTuner(model, 4);
    EXPECT_EQ(globalJobs(), 4);

    EXPECT_DOUBLE_EQ(one.networkLatency, four.networkLatency);
    EXPECT_DOUBLE_EQ(one.clock, four.clock);
    EXPECT_EQ(one.measurements, four.measurements);
    ASSERT_EQ(one.bestLatencies.size(), four.bestLatencies.size());
    for (size_t i = 0; i < one.bestLatencies.size(); ++i) {
        EXPECT_DOUBLE_EQ(one.bestLatencies[i], four.bestLatencies[i]);
        EXPECT_EQ(one.bestSchedules[i], four.bestSchedules[i]);
    }
    ASSERT_EQ(one.timeline.size(), four.timeline.size());
    for (size_t i = 0; i < one.timeline.size(); ++i) {
        EXPECT_DOUBLE_EQ(one.timeline[i].timeSec,
                         four.timeline[i].timeSec);
        EXPECT_DOUBLE_EQ(one.timeline[i].networkLatencySec,
                         four.timeline[i].networkLatencySec);
    }
}

uint64_t
bitsOf(double value)
{
    return std::bit_cast<uint64_t>(value);
}

TEST(Determinism, BatchRegistrationMatchesOneTaskAtATime)
{
    PoolGuard guard;
    setGlobalJobs(1);
    const costmodel::CostModel model = parityModel();
    for (const graph::Graph &network :
         {models::dcgan(1), models::resnet50(1)}) {
        const std::vector<graph::Task> tasks = graph::partition(network);
        // One tuner registers every task with one addTasks call (its
        // strategies build in parallel), the other one task per call.
        auto run = [&](bool batched, std::vector<uint64_t> &bits,
                       std::string &state) {
            tuner::TunerOptions options;
            options.seed = 7;
            options.numThreads = 4;
            options.allowEmptyTasks = true;
            options.grad.nSeeds = 4;
            options.grad.nSteps = 32;
            options.grad.nMeasure = 6;
            tuner::GraphTuner tuner({}, model, sim::DeviceKind::A5000,
                                    options);
            if (batched) {
                EXPECT_EQ(tuner.addTasks(tasks), 0);
            } else {
                for (size_t i = 0; i < tasks.size(); ++i)
                    EXPECT_EQ(tuner.addTasks({tasks[i]}),
                              static_cast<int>(i));
            }
            for (const tuner::TaskRecord &record : tuner.taskRecords()) {
                bits.push_back(record.task.subgraph.structuralHash());
                bits.push_back(bitsOf(record.bestLatencySec));
            }
            bits.push_back(bitsOf(tuner.networkLatency()));
            tuner.tuneRounds(3);
            std::ostringstream os;
            tuner.saveState(os);
            state = os.str();
        };
        std::vector<uint64_t> batchedBits, singleBits;
        std::string batchedState, singleState;
        run(true, batchedBits, batchedState);
        run(false, singleBits, singleState);
        EXPECT_EQ(batchedBits.size(), 2 * tasks.size() + 1);
        EXPECT_EQ(batchedBits, singleBits) << network.name();
        EXPECT_EQ(batchedState, singleState) << network.name();
    }
}

TEST(Determinism, DatasetSynthesisIsBitIdenticalAcrossJobCounts)
{
    PoolGuard guard;
    costmodel::DatasetOptions options;
    options.numSubgraphs = 4;
    options.schedulesPerSketch = 8;
    options.seed = 23;
    auto synth = [&] {
        return costmodel::synthesizeDataset(
            sim::deviceConfig(sim::DeviceKind::A5000), options);
    };
    setGlobalJobs(1);
    auto one = synth();
    setGlobalJobs(4);
    auto four = synth();
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].rawFeatures, four[i].rawFeatures);
        EXPECT_DOUBLE_EQ(one[i].latencySec, four[i].latencySec);
    }
}

} // namespace
} // namespace felix
