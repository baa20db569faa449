/**
 * @file
 * Tape-engine throughput microbenchmark: points/second through a
 * production feature tape (a dense-matmul sketch's 82 feature
 * formulas), scalar vs. batched SoA, forward-only and
 * forward+backward, plus the batched MLP kernels the points feed and
 * the Adam parameter update, and the end-to-end surrogate descent
 * step (grad_search_step: scalar reference, unfused batch, and the
 * fused step production runs). Every batched benchmark runs once per
 * available SIMD backend (scalar fallback, SSE2, AVX2, AVX-512 —
 * whatever this build and CPU support), so one run shows the whole
 * width sweep. Instruction counts before/after the tape optimizer
 * are reported as counters.
 *
 * Besides the console table, results are written machine-readable to
 * BENCH_tape.json in the working directory (override with
 * --json-out=FILE); datapoints are recorded in EXPERIMENTS.md. The
 * widest batched backend must clear 2x the scalar points/sec.
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
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
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
 * The smoothed log-space descent tape, built exactly the way the
 * gradient search builds its objective (gradient-safe optimizer
 * passes only).
 */
const expr::CompiledExprs &
objectiveTape()
{
    static const expr::CompiledExprs compiled = [] {
        const auto &sched = denseSketch();
        auto names = varNames(sched);
        std::vector<expr::Expr> outputs;
        for (const expr::Expr &feature :
             features::extractFeatures(sched.program)) {
            expr::Expr smooth = rewrite::makeSmooth(
                feature, rewrite::Kernel::Algebraic);
            expr::Expr logged = rewrite::logExpand(smooth);
            logged = rewrite::expSubstituteVars(logged, names);
            outputs.push_back(rewrite::smoothMax0(
                logged, rewrite::Kernel::Algebraic));
        }
        return expr::CompiledExprs(outputs, names);
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
    std::vector<double> x(tape.numVars()), out;
    size_t lane = 0;
    for (auto _ : state) {
        for (size_t v = 0; v < tape.numVars(); ++v)
            x[v] = inputs[v * L + lane];
        tape.forward(x, out, evalState);
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
BM_TapeForwardBackwardScalar(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, true);
    expr::EvalState evalState;
    std::vector<double> x(tape.numVars()), out;
    std::vector<double> seeds(tape.numOutputs(), 1.0), grad;
    size_t lane = 0;
    for (auto _ : state) {
        for (size_t v = 0; v < tape.numVars(); ++v)
            x[v] = inputs[v * L + lane];
        tape.forward(x, out, evalState);
        tape.backward(seeds, grad, evalState);
        benchmark::DoNotOptimize(grad.data());
        lane = (lane + 1) % L;
    }
    reportTapeCounters(state, tape, 1.0);
}

void
BM_TapeForwardBackwardBatch(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    constexpr size_t L = kBatchLanes;
    auto inputs = samplePoints(tape, true);
    expr::BatchEvalState evalState;
    std::vector<double> outputs(tape.numOutputs() * L);
    std::vector<double> seeds(tape.numOutputs() * L, 1.0);
    std::vector<double> grads(tape.numVars() * L);
    for (auto _ : state) {
        tape.forwardBatch(inputs.data(), L, outputs.data(),
                          evalState);
        tape.backwardBatch(seeds.data(), grads.data(), evalState);
        benchmark::DoNotOptimize(grads.data());
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
        mlp.forwardBatch(x.data(), y, scratch);
        benchmark::DoNotOptimize(&y[0]);
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

void
BM_MlpInputGradScalar(benchmark::State &state)
{
    Rng rng(7);
    costmodel::MlpConfig config;
    costmodel::Mlp mlp(config, rng);
    costmodel::MlpScratch scratch;
    std::vector<double> x(82);
    for (double &v : x)
        v = rng.uniform(-2.0, 2.0);
    std::vector<double> dx;
    for (auto _ : state) {
        double y = mlp.forwardInputGrad(x, dx, scratch);
        benchmark::DoNotOptimize(y);
        benchmark::DoNotOptimize(dx.data());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
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
    std::vector<double> dx(82 * L);
    for (auto _ : state) {
        mlp.forwardInputGradBatch(x.data(), y, dx.data(), scratch);
        benchmark::DoNotOptimize(dx.data());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

/**
 * A quickly fitted cost model for the end-to-end step benchmarks.
 * The weights' values don't matter for throughput; what matters is
 * that the scaler is fitted for 82 features so the production
 * predict paths (and FusedGradStep) accept it.
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
 * nSteps times per seed; rounding-to-valid is excluded (it runs on
 * visited points, not inside the descent step). Counter steps_per_sec
 * is per-seed steps (batched variants advance kBatchLanes seeds per
 * iteration). Iterates drift under repeated stepping, so lanes reset
 * to the sampled points every 128 steps to keep the workload in the
 * numeric range the real search sees.
 */
void
BM_GradSearchStepScalar(benchmark::State &state)
{
    const auto &tape = objectiveTape();
    const auto &model = benchModel();
    constexpr size_t L = kBatchLanes;
    const size_t numVars = tape.numVars();
    const size_t numFeatures = tape.numOutputs();
    const auto init = samplePoints(tape, true);
    expr::EvalState evalState;
    std::vector<double> y(numVars);
    optim::Adam adam(numVars);
    std::vector<double> outputs, outputGrads, inputGrads, modelGrad;
    std::vector<double> modelInputs(numFeatures);
    size_t iter = 0;
    for (auto _ : state) {
        if ((iter++ & 127) == 0)
            for (size_t v = 0; v < numVars; ++v)
                y[v] = init[v * L];
        tape.forward(y, outputs, evalState);
        for (size_t k = 0; k < numFeatures; ++k)
            modelInputs[k] = outputs[k];
        const double score = model.predictTransformedWithGrad(
            modelInputs, modelGrad);
        benchmark::DoNotOptimize(score);
        outputGrads.assign(outputs.size(), 0.0);
        for (size_t k = 0; k < numFeatures; ++k)
            outputGrads[k] = -modelGrad[k];
        tape.backward(outputGrads, inputGrads, evalState);
        adam.step(y, inputGrads);
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
gradSearchStepBatchImpl(benchmark::State &state, bool fused)
{
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
    std::vector<double> outputs(numFeatures * L);
    std::vector<double> outputGrads(numFeatures * L);
    std::vector<double> modelGrads(numFeatures * L);
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
        if (fused) {
            step.run(inputs.data(), L, scores, inputGrads.data(),
                     evalState, predict);
        } else {
            tape.forwardBatch(inputs.data(), L, outputs.data(),
                              evalState);
            model.predictTransformedWithGradBatch(
                outputs.data(), scores, modelGrads.data(), predict);
            std::fill(outputGrads.begin(), outputGrads.end(), 0.0);
            for (size_t k = 0; k < numFeatures; ++k) {
                const size_t row = k * L;
                for (size_t l = 0; l < L; ++l)
                    outputGrads[row + l] = -modelGrads[row + l];
            }
            tape.backwardBatch(outputGrads.data(), inputGrads.data(),
                               evalState);
        }
        for (size_t l = 0; l < L; ++l) {
            for (size_t v = 0; v < numVars; ++v) {
                yLane[v] = inputs[v * L + l];
                laneGrad[v] = inputGrads[v * L + l];
            }
            adams[l].step(yLane, laneGrad);
            for (size_t v = 0; v < numVars; ++v)
                inputs[v * L + l] = yLane[v];
        }
        benchmark::DoNotOptimize(&scores[0]);
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(L),
        benchmark::Counter::kIsRate);
}

void
BM_GradSearchStepBatch(benchmark::State &state)
{
    gradSearchStepBatchImpl(state, /*fused=*/false);
}

void
BM_GradSearchStepFused(benchmark::State &state)
{
    gradSearchStepBatchImpl(state, /*fused=*/true);
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
    registerScalarEngine("tape_fwd_bwd/scalar",
                         BM_TapeForwardBackwardScalar);
    registerWidthVariants("tape_fwd_bwd/batch",
                          BM_TapeForwardBackwardBatch);
    registerWidthVariants("mlp_forward/batch", BM_MlpForwardBatch);
    registerScalarEngine("mlp_input_grad/scalar",
                         BM_MlpInputGradScalar);
    registerWidthVariants("mlp_input_grad/batch",
                          BM_MlpInputGradBatch);
    registerWidthVariants("adam_step", BM_AdamStep);
    registerScalarEngine("grad_search_step/scalar",
                         BM_GradSearchStepScalar);
    registerWidthVariants("grad_search_step/batch",
                          BM_GradSearchStepBatch);
    registerWidthVariants("grad_search_step/fused",
                          BM_GradSearchStepFused);

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
