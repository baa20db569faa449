/**
 * @file
 * Serving-path microbenchmark: requests/second through a
 * ServeSession for cache hits (the steady-state fleet path: build
 * the request's graph, partition, hash, answer every subgraph from
 * the schedule cache) vs cache misses (cold subgraphs: sketch
 * generation, task registration, one initial measurement), plus the
 * daemon's bookkeeping in isolation — count-min sketch updates,
 * heavy-hitter heap updates, and traffic-weighted scheduler picks
 * over a large task table.
 *
 * Besides the console table, results are written machine-readable to
 * BENCH_serve.json in the working directory (override with
 * --json-out=FILE); datapoints are recorded in EXPERIMENTS.md. The
 * cached path must beat the uncached path by well over an order of
 * magnitude — that gap is the reason the daemon exists.
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "costmodel/dataset.h"
#include "graph/graph.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "support/rng.h"

namespace {

using namespace felix;

/** Small deterministic cost model (no pretrained cache needed). */
const costmodel::CostModel &
benchModel()
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

serve::ServeOptions
benchOptions()
{
    serve::ServeOptions options;
    options.tuner.seed = 3;
    options.tuner.grad.nSeeds = 4;
    options.tuner.grad.nSteps = 48;
    options.tuner.grad.nMeasure = 8;
    return options;
}

/** One single-op dense network; distinct @p k => distinct hash. */
std::vector<graph::Task>
denseTasks(int64_t k)
{
    graph::Graph g("bench");
    graph::DenseParams fc;
    fc.n = 64;
    fc.m = 256;
    fc.k = k;
    g.addDense(fc, -1, "bench_fc");
    return graph::partition(g);
}

/**
 * Steady state: every subgraph of the request is already cached.
 * The loop covers the whole request path — NDJSON parse, graph
 * build, partition, structural hash, cache lookup, response
 * formatting — with zero tuner work.
 */
void
BM_RequestCached(benchmark::State &state)
{
    serve::ServeSession session(benchOptions(), benchModel());
    const std::string line =
        R"({"op":"tune","network":"dcgan","batch":1})";
    std::string warm = session.handle(line);   // populate the cache
    int64_t subgraphs = 0;
    for (auto _ : state) {
        std::string response = session.handle(line);
        benchmark::DoNotOptimize(response);
        subgraphs += static_cast<int64_t>(session.cache().size());
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["subgraphs_per_s"] = benchmark::Counter(
        static_cast<double>(subgraphs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RequestCached)->Unit(benchmark::kMicrosecond);

/**
 * Cold path: every iteration requests a subgraph the daemon has
 * never seen (distinct dense reduction size), so each request pays
 * sketch generation, task registration, and one initial
 * measurement before the schedule is cached.
 */
void
BM_RequestUncached(benchmark::State &state)
{
    serve::ServeSession session(benchOptions(), benchModel());
    int64_t k = 17;
    for (auto _ : state) {
        state.PauseTiming();
        auto tasks = denseTasks(k);
        k += 2;   // odd sizes: every shape is new, none degenerate
        state.ResumeTiming();
        auto response = session.tune("bench", tasks);
        benchmark::DoNotOptimize(response);
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RequestUncached)->Unit(benchmark::kMillisecond);

/** Count-min sketch update throughput (per-request bookkeeping). */
void
BM_SketchAdd(benchmark::State &state)
{
    serve::CountMinSketch sketch;
    Rng rng(1);
    std::vector<uint64_t> keys(4096);
    for (uint64_t &key : keys)
        key = rng.next() % 512;
    size_t i = 0;
    for (auto _ : state) {
        sketch.add(keys[i++ & 4095]);
        benchmark::DoNotOptimize(sketch.total());
    }
    state.counters["updates_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SketchAdd);

/** Heavy-hitter heap update throughput at capacity (evictions). */
void
BM_HeavyHitterUpdate(benchmark::State &state)
{
    serve::HeavyHitters heap(16);
    Rng rng(2);
    std::vector<uint64_t> keys(4096);
    for (uint64_t &key : keys)
        key = rng.next() % 512;
    uint64_t count = 0;
    size_t i = 0;
    for (auto _ : state) {
        heap.update(keys[i++ & 4095], ++count);
        benchmark::DoNotOptimize(heap.minCount());
    }
    state.counters["updates_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HeavyHitterUpdate);

/**
 * Scheduler overhead: one traffic-weighted pick over a task table
 * far larger than any real daemon accumulates. This is the fixed
 * cost added to every background round.
 */
void
BM_SchedulerPick(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    serve::CountMinSketch traffic;
    std::vector<serve::TaskStats> tasks(n);
    Rng rng(3);
    for (int i = 0; i < n; ++i) {
        tasks[i].hash = rng.next();
        tasks[i].bestLatencySec =
            1e-4 + 1e-6 * static_cast<double>(i);
        tasks[i].rounds = 1 + static_cast<int>(rng.next() % 4);
        tasks[i].stagnantRounds = static_cast<int>(rng.next() % 8);
        traffic.add(tasks[i].hash, 1 + rng.next() % 100);
    }
    for (auto _ : state) {
        int pick = serve::pickNextTask(tasks, traffic);
        benchmark::DoNotOptimize(pick);
    }
    state.counters["picks_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedulerPick)->Arg(64)->Arg(1024);

} // namespace

int
main(int argc, char **argv)
{
    return felix::bench::runSuite(argc, argv, "serve");
}
