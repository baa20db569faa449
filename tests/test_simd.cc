/**
 * @file
 * SIMD backend parity matrix (ctest label "simd"): every vector
 * backend compiled in AND supported by this CPU must produce
 * bit-identical results to the scalar fallback on every hot kernel —
 * tape forward/backward at every ragged batch width, the batched MLP
 * forward / input-gradient / training paths, the Adam update, the
 * fused surrogate gradient step against the unfused engine sequence,
 * and a full gradient-search round. Also pins the dispatch semantics
 * (availableWidths / setPreferredWidth / simd.width gauge) and
 * carries the FMA-contraction canary that fails if the build ever
 * drops -ffp-contract=off on an FMA-capable target (see the note in
 * the top-level CMakeLists.txt). Re-run under sanitizers with
 * cmake -DFELIX_SANITIZE=... && ctest -L simd.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/fused.h"
#include "costmodel/mlp.h"
#include "expr/compiled.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "optim/search.h"
#include "sim/gpu_model.h"
#include "simd/kernels.h"
#include "support/batch.h"
#include "support/rng.h"
#include "tir/ops.h"

namespace felix {
namespace simd {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Bit-level equality: distinguishes -0.0/+0.0, equates NaN bits. */
#define EXPECT_BITEQ(a, b)                                            \
    EXPECT_EQ(bitsOf(a), bitsOf(b)) << "values " << (a) << " vs "     \
                                    << (b)

/**
 * Pins one backend for a scope and restores auto-detection on exit,
 * so a failing test cannot leak a forced width into later tests.
 */
class WidthGuard
{
  public:
    explicit WidthGuard(int width)
    {
        ok_ = setPreferredWidth(width);
    }
    ~WidthGuard() { setPreferredWidth(0); }
    bool ok() const { return ok_; }

  private:
    bool ok_;
};

/** Same random expression shape as the test_tape parity suite. */
expr::Expr
randomExpr(Rng &rng, const std::vector<std::string> &vars, int depth)
{
    using expr::Expr;
    if (depth <= 0 || rng.bernoulli(0.25)) {
        if (rng.bernoulli(0.5))
            return Expr::var(vars[rng.index(vars.size())]);
        return Expr::constant(rng.uniform(0.25, 4.0));
    }
    Expr a = randomExpr(rng, vars, depth - 1);
    Expr b = randomExpr(rng, vars, depth - 1);
    switch (rng.index(13)) {
      case 0: return a + b;
      case 1: return a - b;
      case 2: return a * b;
      case 3: return a / (abs(b) + 0.5);
      case 4: return exp(a * 0.25);
      case 5: return log(abs(a) + 0.5);
      case 6: return sqrt(abs(a) + 0.1);
      case 7: return sigmoid(a);
      case 8: return atan(a);
      case 9: return min(a, b);
      case 10: return max(a, b);
      case 11: return select(gt(a, b), a + 1.0, b * 2.0);
      default: return floor(a);
    }
}

// ---------------------------------------------------------------
// Dispatch semantics.
// ---------------------------------------------------------------

TEST(SimdDispatch, AvailableWidthsAscendingAndContainScalar)
{
    std::vector<int> widths = availableWidths();
    ASSERT_FALSE(widths.empty());
    EXPECT_EQ(widths.front(), 1);
    for (size_t i = 1; i < widths.size(); ++i)
        EXPECT_LT(widths[i - 1], widths[i]);
    for (int w : widths)
        EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8)
            << "unexpected backend width " << w;
}

TEST(SimdDispatch, SetPreferredWidthSelectsBackendAndGauge)
{
    WidthGuard restore(0);
    for (int w : availableWidths()) {
        ASSERT_TRUE(setPreferredWidth(w)) << "width " << w;
        EXPECT_EQ(activeWidth(), w);
        EXPECT_EQ(activeKernels().width, w);
        EXPECT_STREQ(activeKernels().name, activeBackendName());
        EXPECT_EQ(obs::MetricsRegistry::instance()
                      .gauge("simd.width")
                      .value(),
                  static_cast<double>(w));
    }
    // Auto-detection restores the widest available backend.
    ASSERT_TRUE(setPreferredWidth(0));
    EXPECT_EQ(activeWidth(), availableWidths().back());
}

TEST(SimdDispatch, RejectsUnavailableWidths)
{
    WidthGuard restore(0);
    const int before = activeWidth();
    for (int bad : {-1, 3, 5, 6, 7, 16, 64}) {
        EXPECT_FALSE(setPreferredWidth(bad)) << "width " << bad;
        EXPECT_EQ(activeWidth(), before);
    }
}

// ---------------------------------------------------------------
// FMA-contraction canary: fl(a*b) + c with two roundings. If any
// backend (or a future compiler-flag change) contracts the mul/add
// pair into a fused multiply-add, the probe returns 2^-54 instead
// of 0 and this test fails — protecting the bit-exactness contract
// between backends (and between FELIX_NATIVE and baseline builds).
// ---------------------------------------------------------------

TEST(SimdFmaCanary, MulAddIsSeparatelyRoundedOnEveryBackend)
{
    const double a = 1.0 + std::ldexp(1.0, -27);
    const double b = a;
    const double c = -(1.0 + std::ldexp(1.0, -26));
    // Reference: force the intermediate product through a rounded
    // double. volatile stops the compiler from contracting this
    // expression regardless of flags.
    volatile double t = a * b;
    const double expect = t + c;
    ASSERT_EQ(expect, 0.0)
        << "reference mul+add was itself contracted";

    WidthGuard restore(0);
    for (int w : availableWidths()) {
        ASSERT_TRUE(setPreferredWidth(w));
        const double got = activeKernels().probeMulAdd(a, b, c);
        EXPECT_BITEQ(got, expect)
            << "backend " << activeBackendName()
            << " fused a*b+c (got 2^" << std::log2(std::abs(got))
            << "); is -ffp-contract=off still set?";
    }
}

// ---------------------------------------------------------------
// Tape forward/backward: every backend vs. the scalar per-point
// engine, at every ragged batch width 1..kBatchLanes.
// ---------------------------------------------------------------

TEST(SimdParity, TapeForwardBackwardEveryBackendEveryWidth)
{
    using expr::CompiledExprs;
    using expr::Expr;
    Rng rng(4242);
    const std::vector<std::string> vars = {"u", "v", "w"};
    constexpr size_t L = kBatchLanes;
    const std::vector<int> widths = availableWidths();
    WidthGuard restore(0);

    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Expr> roots;
        for (int r = 0; r < 4; ++r)
            roots.push_back(randomExpr(rng, vars, 5));
        CompiledExprs compiled(roots, vars);
        const size_t numVars = compiled.numVars();
        const size_t numOutputs = compiled.numOutputs();

        for (size_t width = 1; width <= L; ++width) {
            std::vector<double> inputs(numVars * L, 0.0);
            std::vector<double> outputGrads(numOutputs * L, 0.0);
            std::vector<std::vector<double>> points(width);
            std::vector<std::vector<double>> seeds(width);
            for (size_t l = 0; l < width; ++l) {
                for (size_t v = 0; v < numVars; ++v) {
                    points[l].push_back(rng.uniform(-2.5, 2.5));
                    inputs[v * L + l] = points[l][v];
                }
                for (size_t k = 0; k < numOutputs; ++k) {
                    seeds[l].push_back(rng.uniform(-2.0, 2.0));
                    outputGrads[k * L + l] = seeds[l][k];
                }
            }

            // Scalar per-point reference (engine, not backend).
            expr::EvalState scalarState;
            std::vector<std::vector<double>> refOut(width);
            std::vector<std::vector<double>> refGrad(width);
            for (size_t l = 0; l < width; ++l) {
                compiled.forward(points[l], refOut[l], scalarState);
                compiled.backward(seeds[l], refGrad[l], scalarState);
            }

            for (int w : widths) {
                ASSERT_TRUE(setPreferredWidth(w));
                expr::BatchEvalState batchState;
                std::vector<double> outputs(numOutputs * L);
                std::vector<double> inputGrads(numVars * L);
                compiled.forwardBatch(inputs.data(), width,
                                      outputs.data(), batchState);
                compiled.backwardBatch(outputGrads.data(),
                                       inputGrads.data(),
                                       batchState);
                for (size_t l = 0; l < width; ++l) {
                    for (size_t k = 0; k < numOutputs; ++k)
                        EXPECT_BITEQ(outputs[k * L + l],
                                     refOut[l][k])
                            << "backend " << activeBackendName()
                            << " width " << width << " lane " << l;
                    for (size_t v = 0; v < numVars; ++v)
                        EXPECT_BITEQ(inputGrads[v * L + l],
                                     refGrad[l][v])
                            << "backend " << activeBackendName()
                            << " width " << width << " lane " << l;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Batched MLP forward and backward (input gradient): every backend
// vs. the scalar path, at every ragged width (padding lanes >= width
// with copies of lane 0, the engines' own padding convention).
// ---------------------------------------------------------------

TEST(SimdParity, MlpForwardAndInputGradEveryBackendEveryWidth)
{
    Rng rng(1357);
    costmodel::MlpConfig config;
    config.layerSizes = {6, 16, 8, 1};
    costmodel::Mlp mlp(config, rng);
    constexpr size_t L = kBatchLanes;
    const size_t in = 6;
    const std::vector<int> widths = availableWidths();
    WidthGuard restore(0);

    costmodel::MlpScratch scalarScratch;
    for (int trial = 0; trial < 10; ++trial) {
        for (size_t width = 1; width <= L; ++width) {
            std::vector<std::vector<double>> points(width);
            for (size_t l = 0; l < width; ++l)
                for (size_t i = 0; i < in; ++i)
                    points[l].push_back(rng.uniform(-3.0, 3.0));

            std::vector<double> x(in * L);
            for (size_t l = 0; l < L; ++l) {
                const auto &p = points[l < width ? l : 0];
                for (size_t i = 0; i < in; ++i)
                    x[i * L + l] = p[i];
            }

            std::vector<double> refY(width);
            std::vector<std::vector<double>> refDx(width);
            for (size_t l = 0; l < width; ++l)
                refY[l] = mlp.forwardInputGrad(points[l], refDx[l],
                                               scalarScratch);

            for (int w : widths) {
                ASSERT_TRUE(setPreferredWidth(w));
                costmodel::MlpBatchScratch batchScratch;
                double y[kBatchLanes];
                std::vector<double> dx(in * L);
                mlp.forwardInputGradBatch(x.data(), y, dx.data(),
                                          batchScratch);
                double yFwd[kBatchLanes];
                mlp.forwardBatch(x.data(), yFwd, batchScratch);
                for (size_t l = 0; l < width; ++l) {
                    EXPECT_BITEQ(y[l], refY[l])
                        << "backend " << activeBackendName()
                        << " width " << width << " lane " << l;
                    EXPECT_BITEQ(yFwd[l], refY[l]);
                    for (size_t i = 0; i < in; ++i)
                        EXPECT_BITEQ(dx[i * L + l], refDx[l][i])
                            << "backend " << activeBackendName()
                            << " width " << width << " lane " << l;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Training: the MLP's Adam parameter update (through trainBatch)
// must walk the identical trajectory on the scalar fallback and the
// widest vector backend.
// ---------------------------------------------------------------

TEST(SimdParity, MlpTrainingTrajectoryScalarVsWidestBitExact)
{
    const std::vector<int> widths = availableWidths();
    costmodel::MlpConfig config;
    config.layerSizes = {5, 16, 8, 1};

    Rng rngA(77), rngB(77), data(31);
    costmodel::Mlp mlpScalar(config, rngA);
    costmodel::Mlp mlpVector(config, rngB);

    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 48; ++i) {
        std::vector<double> x(5);
        for (double &v : x)
            v = data.uniform(-2.0, 2.0);
        ys.push_back(data.uniform(-1.0, 1.0));
        xs.push_back(std::move(x));
    }

    WidthGuard restore(0);
    for (int step = 0; step < 10; ++step) {
        ASSERT_TRUE(setPreferredWidth(1));
        const double lossScalar = mlpScalar.trainBatch(xs, ys, 1e-2);
        ASSERT_TRUE(setPreferredWidth(widths.back()));
        const double lossVector = mlpVector.trainBatch(xs, ys, 1e-2);
        EXPECT_BITEQ(lossScalar, lossVector) << "step " << step;
    }
    // Parameters diverged iff predictions diverge.
    setPreferredWidth(0);
    costmodel::MlpScratch scratch;
    for (const auto &x : xs)
        EXPECT_BITEQ(mlpScalar.forward(x, scratch),
                     mlpVector.forward(x, scratch));
}

// ---------------------------------------------------------------
// Standalone Adam: vector body + scalar ragged tail must match the
// scalar backend exactly, on a deliberately awkward vector length.
// ---------------------------------------------------------------

TEST(SimdParity, AdamStepEveryBackendBitExact)
{
    const std::vector<int> widths = availableWidths();
    const size_t n = 1037;   // not a multiple of any backend width
    Rng rng(99);
    std::vector<double> x0(n), grads(n);
    for (size_t i = 0; i < n; ++i)
        x0[i] = rng.uniform(-4.0, 4.0);

    WidthGuard restore(0);
    // Scalar-backend reference trajectory.
    ASSERT_TRUE(setPreferredWidth(1));
    optim::Adam adamRef(n);
    std::vector<double> xRef = x0;
    std::vector<std::vector<double>> gradSeq;
    for (int step = 0; step < 12; ++step) {
        for (size_t i = 0; i < n; ++i)
            grads[i] = rng.uniform(-1.0, 1.0);
        gradSeq.push_back(grads);
        adamRef.step(xRef, grads);
    }

    for (int w : widths) {
        ASSERT_TRUE(setPreferredWidth(w));
        optim::Adam adam(n);
        std::vector<double> x = x0;
        for (const auto &g : gradSeq)
            adam.step(x, g);
        for (size_t i = 0; i < n; ++i)
            EXPECT_BITEQ(x[i], xRef[i])
                << "backend " << activeBackendName() << " index "
                << i;
    }
}

// ---------------------------------------------------------------
// Fused step vs the unfused reference sequence: same tape, same
// model, every backend, every ragged width. The tape has deliberate
// penalty outputs so the conditional penalty seeding is exercised.
// ---------------------------------------------------------------

TEST(SimdParity, FusedStepVsUnfusedEveryBackendEveryWidth)
{
    using expr::CompiledExprs;
    using expr::Expr;
    constexpr size_t L = kBatchLanes;
    constexpr size_t kFeatures = 5;
    constexpr size_t kPenalties = 2;
    Rng rng(1618);
    const std::vector<std::string> vars = {"p", "q", "r"};

    std::vector<Expr> roots;
    for (size_t k = 0; k < kFeatures + kPenalties; ++k)
        roots.push_back(randomExpr(rng, vars, 4));
    CompiledExprs compiled(roots, vars);
    const size_t numVars = compiled.numVars();

    // A small fitted model over kFeatures inputs.
    std::vector<costmodel::Sample> samples(32);
    for (auto &sample : samples) {
        sample.rawFeatures.resize(kFeatures);
        for (double &v : sample.rawFeatures)
            v = rng.uniform(0.0, 1e4);
        sample.latencySec = rng.uniform(1e-5, 1e-2);
    }
    costmodel::MlpConfig config;
    config.layerSizes = {static_cast<int>(kFeatures), 8, 1};
    costmodel::CostModel model(config, 9);
    model.fit(samples, /*epochs=*/2, /*batch_size=*/16, 1e-3);

    const double lambda = 10.0;
    costmodel::FusedGradStep fused(compiled, model, kFeatures,
                                   kPenalties, lambda);

    const std::vector<int> widths = availableWidths();
    WidthGuard restore(0);
    for (int w : widths) {
        ASSERT_TRUE(setPreferredWidth(w));
        for (size_t width = 1; width <= L; ++width) {
            std::vector<double> inputs(numVars * L);
            for (double &v : inputs)
                v = rng.uniform(-2.0, 2.0);

            // Unfused reference: the public batched entry points in
            // the order FusedGradStep chains them.
            expr::BatchEvalState refState;
            costmodel::PredictScratch refPredict;
            std::vector<double> outputs((kFeatures + kPenalties) * L);
            std::vector<double> outputGrads(outputs.size(), 0.0);
            std::vector<double> modelGrads(kFeatures * L);
            std::vector<double> refGrads(numVars * L);
            double refScores[kBatchLanes];
            compiled.forwardBatch(inputs.data(), width,
                                  outputs.data(), refState);
            model.predictTransformedWithGradBatch(
                outputs.data(), refScores, modelGrads.data(),
                refPredict);
            for (size_t k = 0; k < kFeatures; ++k)
                for (size_t l = 0; l < width; ++l)
                    outputGrads[k * L + l] = -modelGrads[k * L + l];
            for (size_t p = 0; p < kPenalties; ++p) {
                const size_t row = (kFeatures + p) * L;
                for (size_t l = 0; l < width; ++l) {
                    const double g = outputs[row + l];
                    if (g > 0.0)
                        outputGrads[row + l] = lambda * 2.0 * g;
                }
            }
            compiled.backwardBatch(outputGrads.data(),
                                   refGrads.data(), refState);

            expr::BatchEvalState fusedState;
            costmodel::PredictScratch fusedPredict;
            std::vector<double> fusedGrads(numVars * L);
            double fusedScores[kBatchLanes];
            fused.run(inputs.data(), width, fusedScores,
                      fusedGrads.data(), fusedState, fusedPredict);

            for (size_t l = 0; l < width; ++l) {
                EXPECT_BITEQ(fusedScores[l], refScores[l])
                    << "backend " << activeBackendName() << " width "
                    << width << " lane " << l;
                for (size_t v = 0; v < numVars; ++v)
                    EXPECT_BITEQ(fusedGrads[v * L + l],
                                 refGrads[v * L + l])
                        << "backend " << activeBackendName()
                        << " width " << width << " lane " << l;
            }
        }
    }
}

// ---------------------------------------------------------------
// End to end: a full batched gradient-search round — feature tapes,
// cost-model MLP, Adam steps, candidate ranking — on the scalar
// fallback vs. the widest vector backend, bit for bit.
// ---------------------------------------------------------------

TEST(SimdParity, SearchRoundScalarVsWidestBitExact)
{
    const std::vector<int> widths = availableWidths();
    costmodel::DatasetOptions datasetOptions;
    datasetOptions.numSubgraphs = 4;
    datasetOptions.schedulesPerSketch = 16;
    datasetOptions.seed = 3;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), datasetOptions);
    costmodel::MlpConfig config;
    config.layerSizes = {82, 32, 1};

    WidthGuard restore(0);
    ASSERT_TRUE(setPreferredWidth(1));
    costmodel::CostModel modelScalar(config, 11);
    modelScalar.fit(samples, /*epochs=*/2, /*batch=*/64, /*lr=*/1e-3);
    ASSERT_TRUE(setPreferredWidth(widths.back()));
    costmodel::CostModel modelVector(config, 11);
    modelVector.fit(samples, /*epochs=*/2, /*batch=*/64, /*lr=*/1e-3);

    auto subgraph = tir::dense(128, 128, 128, false);
    optim::GradSearchOptions options;
    options.nSeeds = 5;   // deliberately not a multiple of the lanes
    options.nSteps = 25;
    options.nMeasure = 6;

    ASSERT_TRUE(setPreferredWidth(1));
    optim::GradientSearch searchScalar(subgraph, options);
    Rng rngA(2025);
    auto resultScalar = searchScalar.round(modelScalar, rngA);

    ASSERT_TRUE(setPreferredWidth(widths.back()));
    optim::GradientSearch searchVector(subgraph, options);
    Rng rngB(2025);
    auto resultVector = searchVector.round(modelVector, rngB);

    ASSERT_EQ(resultScalar.toMeasure.size(),
              resultVector.toMeasure.size());
    for (size_t i = 0; i < resultScalar.toMeasure.size(); ++i) {
        const optim::Candidate &a = resultScalar.toMeasure[i];
        const optim::Candidate &b = resultVector.toMeasure[i];
        EXPECT_EQ(a.sketchIndex, b.sketchIndex);
        ASSERT_EQ(a.x.size(), b.x.size());
        for (size_t v = 0; v < a.x.size(); ++v)
            EXPECT_BITEQ(a.x[v], b.x[v]);
        ASSERT_EQ(a.rawFeatures.size(), b.rawFeatures.size());
        for (size_t k = 0; k < a.rawFeatures.size(); ++k)
            EXPECT_BITEQ(a.rawFeatures[k], b.rawFeatures[k]);
        EXPECT_BITEQ(a.predictedScore, b.predictedScore);
    }
    ASSERT_EQ(resultScalar.trace.visitedScores.size(),
              resultVector.trace.visitedScores.size());
    for (size_t i = 0; i < resultScalar.trace.visitedScores.size();
         ++i)
        EXPECT_BITEQ(resultScalar.trace.visitedScores[i],
                     resultVector.trace.visitedScores[i]);
    EXPECT_EQ(resultScalar.trace.roundingAttempts,
              resultVector.trace.roundingAttempts);
    EXPECT_EQ(resultScalar.trace.roundingInvalid,
              resultVector.trace.roundingInvalid);
}

} // namespace
} // namespace simd
} // namespace felix
