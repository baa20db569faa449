/**
 * @file
 * Tape-engine throughput microbenchmark: points/second through a
 * production feature tape (a dense-matmul sketch's 82 feature
 * formulas) on the scalar forward that constraint checks and
 * feature evaluation run and on the batched SoA forward that
 * ranking runs, the batched forward+backward of the descent tape,
 * the batched MLP kernels the points feed and the Adam parameter
 * update, one cost-model fine-tune step at the batch sizes a round
 * trains on, and the end-to-end surrogate descent step
 * (grad_search_step: the fused step production runs — at full
 * width, and at the 8 and 3 live lanes a seed batch holds in
 * production, once more with the per-lane rounding to a valid
 * schedule). Every series calls entry points production runs; the
 * per-point references the batched paths are checked against live
 * in tests/support/ and are not timed. Every batched benchmark runs
 * once per available SIMD backend (scalar fallback, SSE2, AVX2,
 * AVX-512 — whatever this build and CPU support), so one run shows
 * the whole width sweep. Instruction counts before/after the tape
 * optimizer are reported as counters.
 *
 * Besides the console table, --json-out=FILE writes the results
 * machine-readable to FILE (the committed baseline is
 * BENCH_tape.json); datapoints are recorded in EXPERIMENTS.md. The
 * widest batched forward must clear 2x the scalar points/sec.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"
#include "costmodel/cost_model.h"
#include "costmodel/fused.h"
#include "costmodel/mlp.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "obs/json.h"
#include "optim/adam.h"
#include "optim/search.h"
#include "simd/kernels.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/batch.h"
#include "support/rng.h"
#include "tir/ops.h"

namespace {

using namespace felix;

const sketch::SymbolicSchedule &
denseSketch()
{
    static const auto sketches =
        sketch::generateSketches(tir::dense(512, 512, 512, true));
    return sketches[0];
}

std::vector<std::string>
varNames(const sketch::SymbolicSchedule &sched)
{
    std::vector<std::string> names;
    for (const auto &domain : sched.vars)
        names.push_back(domain.name);
    return names;
}

/** The exact-feature ranking tape (forward-only optimizer passes). */
const expr::CompiledExprs &
featureTape()
{
    static const expr::CompiledExprs compiled(
        features::extractFeatures(denseSketch().program),
        varNames(denseSketch()), /*forward_only=*/true);
    return compiled;
}

/**
 * The smoothed log-space descent tape: the gradient search's
 * objective (optim::objectiveOutputs) without the constraint
 * outputs, gradient-safe optimizer passes only.
 */
const expr::CompiledExprs &
objectiveTape()
{
    static const expr::CompiledExprs compiled = [] {
        const auto &sched = denseSketch();
        auto names = varNames(sched);
        return expr::CompiledExprs(
            optim::objectiveOutputs(
                features::extractFeatures(sched.program), {}, names,
                optim::GradSearchOptions{}),
            names);
    }();
    return compiled;
}

/**
 * SoA input rows: kBatchLanes valid schedule points, in x space for
 * the feature tape or log space for the objective tape.
 */
std::vector<double>
samplePoints(const expr::CompiledExprs &tape, bool log_space)
{
    Rng rng(42);
    constexpr size_t L = kBatchLanes;
    const size_t numVars = tape.numVars();
    std::vector<double> inputs(numVars * L);
    for (size_t l = 0; l < L; ++l) {
        auto x = sketch::sampleValid(denseSketch(), rng);
        for (size_t v = 0; v < numVars; ++v) {
            inputs[v * L + l] =
                log_space ? std::log(std::max(1.0, x[v])) : x[v];
        }
    }
    return inputs;
}

void
reportTapeCounters(benchmark::State &state,
                   const expr::CompiledExprs &tape, double points)
{
    state.counters["instrs_raw"] =
        static_cast<double>(tape.tapeSize());
    state.counters["instrs_optimized"] =
        static_cast<double>(tape.optimizedSize());
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * points,
        benchmark::Counter::kIsRate);
}

// ---- benchmark bodies -------------------------------------------

void
BM_TapeForwardScalar(benchmark::State &state)
{
    const auto &tape = featureTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, false);
    expr::EvalState evalState;
    std::vector<double> x(tape.numVars());
    size_t lane = 0;
    for (auto _ : state) {
        for (size_t v = 0; v < tape.numVars(); ++v)
            x[v] = inputs[v * L + lane];
        std::vector<double> out = tape.eval(x, evalState);
        benchmark::DoNotOptimize(out.data());
        lane = (lane + 1) % L;
    }
    reportTapeCounters(state, tape, 1.0);
}

void
BM_TapeForwardBatch(benchmark::State &state)
{
    const auto &tape = featureTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, false);
    expr::BatchEvalState evalState;
    std::vector<double> outputs(tape.numOutputs() * L);
    for (auto _ : state) {
        tape.forwardBatch(inputs.data(), L, outputs.data(),
                          evalState);
        benchmark::DoNotOptimize(outputs.data());
    }
    reportTapeCounters(state, tape, static_cast<double>(L));
}

void
BM_TapeForwardBackwardBatch(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, true);
    expr::BatchEvalState evalState;
    std::vector<double> grads(tape.numVars() * L);
    for (auto _ : state) {
        tape.forwardBatchKeep(inputs.data(), L, evalState);
        tape.beginBackwardBatch(evalState);
        for (size_t k = 0; k < tape.numOutputs(); ++k) {
            double *adj = tape.outputAdjRowPtr(k, evalState);
            for (size_t l = 0; l < L; ++l)
                adj[l] += 1.0;
        }
        tape.finishBackwardBatch(grads.data(), evalState);
        benchmark::DoNotOptimize(grads.data());
        benchmark::ClobberMemory();
    }
    reportTapeCounters(state, tape, static_cast<double>(L));
}

void
BM_MlpForwardBatch(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;   // default 82-input network
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpBatchScratch scratch;
    constexpr size_t L = kBatchLanes;
    std::vector<double> x(82 * L);
    for (double &v : x)
        v = rng.uniform(-2.0, 2.0);
    double y[kBatchLanes];
    for (auto _ : state) {
        mlp.forwardBatch(x.data(), L, y, scratch);
        benchmark::DoNotOptimize(&y[0]);
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

void
BM_MlpInputGradBatch(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpBatchScratch scratch;
    constexpr size_t L = kBatchLanes;
    std::vector<double> x(82 * L);
    for (double &v : x)
        v = rng.uniform(-2.0, 2.0);
    double y[kBatchLanes];
    for (auto _ : state) {
        std::copy(x.begin(), x.end(), mlp.stageInputRows(scratch));
        mlp.forwardInputGradStaged(L, y, scratch);
        benchmark::DoNotOptimize(mlp.inputGradRows(scratch));
        benchmark::ClobberMemory();
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

/**
 * One cost-model fine-tune step at production shape: Mlp::trainBatch
 * on the default network over @p batch samples. A Felix round trains
 * 16 such steps on 80 samples (16 fresh + 64 replayed), an Ansor
 * round on 128 (64 + 64). Counter samples_per_sec.
 */
void
finetuneImpl(benchmark::State &state, size_t batch)
{
    Rng rng(17);
    costmodel::MlpConfig config;   // default 82-input network
    costmodel::Mlp mlp(config, rng);
    std::vector<std::vector<double>> xs(batch, std::vector<double>(82));
    std::vector<double> ys(batch);
    for (std::vector<double> &x : xs)
        for (double &v : x)
            v = rng.uniform(-2.0, 2.0);
    for (double &y : ys)
        y = rng.uniform(-1.0, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(mlp.trainBatch(xs, ys, 2e-4));
    state.counters["samples_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(batch),
        benchmark::Counter::kIsRate);
}

void
BM_FinetuneFelix(benchmark::State &state)
{
    finetuneImpl(state, 80);
}

void
BM_FinetuneAnsor(benchmark::State &state)
{
    finetuneImpl(state, 128);
}

/**
 * A quickly fitted cost model for the end-to-end step benchmarks.
 * The weights' values don't matter for throughput; what matters is
 * that the scaler is fitted for 82 features so FusedGradStep
 * accepts it.
 */
const costmodel::CostModel &
benchModel()
{
    static const costmodel::CostModel model = [] {
        Rng rng(13);
        std::vector<costmodel::Sample> samples(64);
        for (auto &sample : samples) {
            sample.rawFeatures.resize(82);
            for (double &v : sample.rawFeatures)
                v = rng.uniform(0.0, 1e6);
            sample.latencySec = rng.uniform(1e-5, 1e-2);
        }
        costmodel::CostModel m(costmodel::MlpConfig{}, 5);
        m.fit(samples, /*epochs=*/2, /*batch_size=*/32, 1e-3);
        return m;
    }();
    return model;
}

/**
 * End-to-end surrogate descent step (Algorithm 1 lines 15-18): tape
 * forward -> MLP score + input gradient -> tape backward -> per-seed
 * Adam update. This is the loop body GradientSearch::round runs
 * nSteps times per seed; the plain series exclude rounding-to-valid,
 * and the fused_round series add it, so they time a seed batch's
 * whole per-step work. Counter steps_per_sec is per-seed steps (one
 * seed per live lane per iteration). Iterates drift under repeated
 * stepping, so lanes reset to the sampled points every 128 steps to
 * keep the workload in the numeric range the real search sees.
 */
void
gradSearchStepBatchImpl(benchmark::State &state, size_t width,
                        bool round)
{
    static const sketch::ConstraintChecker checker(denseSketch());
    const auto &tape = objectiveTape();
    const auto &model = benchModel();
    constexpr size_t L = kBatchLanes;
    const size_t numVars = tape.numVars();
    const size_t numFeatures = tape.numOutputs();
    const auto init = samplePoints(tape, true);
    expr::BatchEvalState evalState;
    costmodel::PredictScratch predict;
    costmodel::FusedGradStep step(tape, model, numFeatures,
                                  /*numPenalties=*/0,
                                  /*lambda=*/10.0);
    std::vector<double> inputs = init;
    std::vector<double> inputGrads(numVars * L);
    std::vector<double> laneGrad(numVars), yLane(numVars);
    double scores[kBatchLanes];
    std::vector<optim::Adam> adams;
    adams.reserve(L);
    for (size_t l = 0; l < L; ++l)
        adams.emplace_back(numVars);
    size_t iter = 0;
    for (auto _ : state) {
        if ((iter++ & 127) == 0)
            inputs = init;
        step.run(inputs.data(), width, scores, inputGrads.data(),
                 evalState, predict);
        for (size_t l = 0; l < width; ++l) {
            for (size_t v = 0; v < numVars; ++v) {
                yLane[v] = inputs[v * L + l];
                laneGrad[v] = inputGrads[v * L + l];
            }
            adams[l].step(yLane, laneGrad);
            for (size_t v = 0; v < numVars; ++v)
                inputs[v * L + l] = yLane[v];
            if (round)
                benchmark::DoNotOptimize(
                    sketch::roundToValid(denseSketch(), yLane, checker));
        }
        benchmark::DoNotOptimize(&scores[0]);
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(width),
        benchmark::Counter::kIsRate);
}


void
BM_AdamStep(benchmark::State &state)
{
    // A parameter vector the size of the default cost model's first
    // layer (82x256 weights), a realistic Adam workload.
    Rng rng(11);
    const size_t n = 82 * 256;
    std::vector<double> x(n), g(n);
    for (size_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-1.0, 1.0);
        g[i] = rng.uniform(-0.1, 0.1);
    }
    optim::Adam adam(n);
    for (auto _ : state) {
        adam.step(x, g);
        benchmark::DoNotOptimize(x.data());
    }
    state.counters["params_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(n),
        benchmark::Counter::kIsRate);
}

// ---- per-width registration ------------------------------------

/** simd_width / backend attached to each registered benchmark. */
struct BenchTag
{
    int simdWidth;         // 0 = per-point scalar engine (no SIMD)
    std::string backend;   // dispatch backend name, "" for scalar
};
std::map<std::string, BenchTag> g_tags;

/**
 * Register `fn` once per SIMD backend this build AND this CPU
 * support; each variant pins the dispatch override before running.
 * The console/JSON name carries the backend, e.g.
 * "tape_forward/batch/simd=avx512".
 */
void
registerWidthVariants(const std::string &base,
                      void (*fn)(benchmark::State &))
{
    for (int w : simd::availableWidths()) {
        if (!simd::setPreferredWidth(w))
            continue;   // compiled in, but the CPU lacks it
        const std::string backend = simd::activeBackendName();
        const std::string name = base + "/simd=" + backend;
        g_tags[name] = {w, backend};
        benchmark::RegisterBenchmark(
            name.c_str(), [fn, w](benchmark::State &st) {
                simd::setPreferredWidth(w);
                fn(st);
            });
    }
    simd::setPreferredWidth(0);
}

void
registerScalarEngine(const std::string &name,
                     void (*fn)(benchmark::State &))
{
    g_tags[name] = {0, ""};
    benchmark::RegisterBenchmark(
        name.c_str(), [fn](benchmark::State &st) {
            // The per-point engine is SIMD-independent, but pin the
            // default backend anyway so a preceding variant's
            // override can't leak in.
            simd::setPreferredWidth(0);
            fn(st);
        });
}

} // namespace

int
main(int argc, char **argv)
{
    // The auto-detected backend, read before any variant pins one.
    const std::string header =
        "  \"batch_lanes\": " +
        std::to_string(static_cast<int>(kBatchLanes)) +
        ",\n  \"default_backend\": " +
        obs::jsonEscape(simd::activeBackendName()) + ",\n";

    registerScalarEngine("tape_forward/scalar", BM_TapeForwardScalar);
    registerWidthVariants("tape_forward/batch", BM_TapeForwardBatch);
    registerWidthVariants("tape_fwd_bwd/batch",
                          BM_TapeForwardBackwardBatch);
    registerWidthVariants("mlp_forward/batch", BM_MlpForwardBatch);
    registerWidthVariants("mlp_input_grad/batch",
                          BM_MlpInputGradBatch);
    registerWidthVariants("adam_step", BM_AdamStep);
    registerWidthVariants("finetune/80", BM_FinetuneFelix);
    registerWidthVariants("finetune/128", BM_FinetuneAnsor);
    // Full width, then the 8 and 3 live lanes a seed batch holds in
    // production (arguments: live lanes, round to valid).
    using State = benchmark::State;
    registerWidthVariants("grad_search_step/fused", [](State &st) {
        gradSearchStepBatchImpl(st, kBatchLanes, false);
    });
    registerWidthVariants("grad_search_step/fused/w8", [](State &st) {
        gradSearchStepBatchImpl(st, 8, false);
    });
    registerWidthVariants("grad_search_step/fused/w3", [](State &st) {
        gradSearchStepBatchImpl(st, 3, false);
    });
    registerWidthVariants("grad_search_step/fused_round/w3",
                          [](State &st) {
                              gradSearchStepBatchImpl(st, 3, true);
                          });

    return bench::runSuite(
        argc, argv, "tape", header, [](const std::string &name) {
            const auto it = g_tags.find(name);
            const BenchTag tag =
                it == g_tags.end() ? BenchTag{0, ""} : it->second;
            return ", \"simd_width\": " +
                   std::to_string(tag.simdWidth) +
                   ", \"backend\": " + obs::jsonEscape(tag.backend);
        });
}
