/**
 * @file
 * Serving-path microbenchmark: requests/second through a
 * ServeSession for cache hits (the steady-state fleet path: look up
 * the task list stored at the (network, batch)'s first request,
 * hash, answer every subgraph from the schedule cache) vs cache
 * misses (cold subgraphs: sketch generation, task registration, one
 * initial measurement), plus the background-round task pick
 * (tuner::pickTask weighted by traffic share) in isolation over a
 * large task table.
 *
 * Besides the console table, --json-out=FILE writes the results
 * machine-readable to FILE (the committed baseline is
 * BENCH_serve.json); datapoints are recorded in EXPERIMENTS.md. The
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
#include "serve/server.h"
#include "support/rng.h"
#include "tuner/tuner.h"

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
 * Steady state: the session has served this (network, batch)
 * before, so every subgraph of the request is cached and its task
 * list is stored. The loop covers the whole repeat-request path —
 * NDJSON parse, task-list lookup, structural hash, cache lookup,
 * response formatting — with no graph build, no partition and zero
 * tuner work.
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

/**
 * Scheduler overhead: one traffic-weighted pick over a task table
 * far larger than any real daemon accumulates. This is the fixed
 * cost added to every background round.
 */
void
BM_SchedulerPick(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::vector<tuner::TaskRecord> tasks(n);
    std::vector<double> shares(n);
    Rng rng(3);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        tasks[i].bestLatencySec =
            1e-4 + 1e-6 * static_cast<double>(i);
        tasks[i].rounds = 1 + static_cast<int>(rng.next() % 4);
        tasks[i].stagnantRounds = static_cast<int>(rng.next() % 8);
        shares[i] = static_cast<double>(1 + rng.next() % 100);
        total += shares[i];
    }
    for (double &share : shares)
        share /= total;
    for (auto _ : state) {
        int pick = tuner::pickTask(tasks, shares);
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
