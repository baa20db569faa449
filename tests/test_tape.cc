/**
 * @file
 * Tape engine tests: the optimizer pass (leaf hoisting, constant
 * folding, identity forwarding, DCE) must preserve forward values
 * and gradients bit for bit against the raw-tape reference
 * interpreters, the batched SoA entry points (tape, MLP, cost
 * model) must be bit-identical per point to the scalar references
 * in tests/support/, and in a full gradient-search round no lane may
 * affect another. See docs/tape_engine.md for the determinism
 * argument these tests enforce.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "autodiff/gradcheck.h"
#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/mlp.h"
#include "expr/compiled.h"
#include "expr/tape.h"
#include "features/features.h"
#include "optim/search.h"
#include "sim/gpu_model.h"
#include "support/batch.h"
#include "support/rng.h"
#include "tape_reference.h"
#include "tir/ops.h"

namespace felix {
namespace expr {
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

/** Random expression tree (same shape as the test_fuzz_expr one). */
Expr
randomExpr(Rng &rng, const std::vector<std::string> &vars, int depth,
           bool smooth_only)
{
    if (depth <= 0 || rng.bernoulli(0.25)) {
        if (rng.bernoulli(0.5))
            return Expr::var(vars[rng.index(vars.size())]);
        return Expr::constant(rng.uniform(0.25, 4.0));
    }
    Expr a = randomExpr(rng, vars, depth - 1, smooth_only);
    Expr b = randomExpr(rng, vars, depth - 1, smooth_only);
    switch (rng.index(smooth_only ? 9 : 13)) {
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
// Synthetic raw tapes: the public Expr factories simplify at
// construction, so foldable/identity patterns must be fed to the
// optimizer directly in raw-tape form to exercise those passes.
// ---------------------------------------------------------------

RawInstr
constInstr(double value)
{
    RawInstr instr;
    instr.op = OpCode::ConstOp;
    instr.payload = value;
    return instr;
}

RawInstr
varInstr(int input_slot)
{
    RawInstr instr;
    instr.op = OpCode::VarOp;
    instr.payload = static_cast<double>(input_slot);
    return instr;
}

RawInstr
opInstr(OpCode op, int32_t a0, int32_t a1 = -1, int32_t a2 = -1)
{
    RawInstr instr;
    instr.op = op;
    instr.a0 = a0;
    instr.a1 = a1;
    instr.a2 = a2;
    return instr;
}

/** Raw and optimized execution of @p tape agree bit for bit. */
void
expectForwardBitExact(const RawTape &tape, bool forward_only,
                      const std::vector<double> &inputs)
{
    TapeProgram program = optimizeTape(tape, forward_only);
    std::vector<double> rawValues, rawOut, optValues, optOut;
    rawForward(tape, inputs, rawValues, rawOut);
    runProgramForward(program, inputs, optValues, optOut);
    ASSERT_EQ(rawOut.size(), optOut.size());
    for (size_t k = 0; k < rawOut.size(); ++k)
        EXPECT_BITEQ(optOut[k], rawOut[k]);
}

TEST(TapeOptimizer, FoldsConstantChainsExactly)
{
    // (2.5 + 0.3) * (2.5 + 0.3): all-constant subgraph folds away.
    RawTape tape;
    tape.numVars = 0;
    tape.instrs = {
        constInstr(2.5),
        constInstr(0.3),
        opInstr(OpCode::Add, 0, 1),
        opInstr(OpCode::Mul, 2, 2),
    };
    tape.outputSlots = {3};

    TapeOptStats stats;
    TapeProgram program = optimizeTape(tape, false, &stats);
    EXPECT_EQ(program.instrs.size(), 0u);
    EXPECT_EQ(stats.constFolded, 2u);
    EXPECT_EQ(stats.leavesHoisted, 2u);
    expectForwardBitExact(tape, false, {});
    expectForwardBitExact(tape, true, {});
}

TEST(TapeOptimizer, ForwardsIdentitiesOnlyOnForwardOnlyTapes)
{
    // x * 1 with the same Mul result consumed twice (x*1 + x*1).
    RawTape tape;
    tape.numVars = 1;
    tape.instrs = {
        varInstr(0),
        constInstr(1.0),
        opInstr(OpCode::Mul, 0, 1),
        opInstr(OpCode::Add, 2, 2),
    };
    tape.outputSlots = {2, 3};

    TapeOptStats fwdStats;
    TapeProgram fwd = optimizeTape(tape, true, &fwdStats);
    EXPECT_EQ(fwdStats.identityForwarded, 1u);
    EXPECT_EQ(fwd.instrs.size(), 1u);   // only the Add survives

    TapeOptStats gradStats;
    TapeProgram grad = optimizeTape(tape, false, &gradStats);
    EXPECT_EQ(gradStats.identityForwarded, 0u);
    EXPECT_EQ(grad.instrs.size(), 2u);

    for (double x : {3.25, -0.0, 0.0, -17.5}) {
        expectForwardBitExact(tape, true, {x});
        expectForwardBitExact(tape, false, {x});
    }
}

TEST(TapeOptimizer, DoesNotEliminateAddOfPositiveZero)
{
    // x + (+0.0) is NOT an identity: it maps -0.0 to +0.0. The pass
    // must keep the instruction so the optimized tape still performs
    // the sign normalization.
    RawTape tape;
    tape.numVars = 1;
    tape.instrs = {
        varInstr(0),
        constInstr(+0.0),
        opInstr(OpCode::Add, 0, 1),
    };
    tape.outputSlots = {2};

    TapeOptStats stats;
    TapeProgram program = optimizeTape(tape, true, &stats);
    EXPECT_EQ(stats.identityForwarded, 0u);
    EXPECT_EQ(program.instrs.size(), 1u);

    std::vector<double> values, out;
    runProgramForward(program, {-0.0}, values, out);
    EXPECT_BITEQ(out[0], +0.0);   // and not -0.0
    expectForwardBitExact(tape, true, {-0.0});

    // x + (-0.0) and x - (+0.0) ARE identities.
    RawTape negZero = tape;
    negZero.instrs[1] = constInstr(-0.0);
    TapeOptStats negStats;
    TapeProgram negProgram = optimizeTape(negZero, true, &negStats);
    EXPECT_EQ(negStats.identityForwarded, 1u);
    EXPECT_EQ(negProgram.instrs.size(), 0u);
    expectForwardBitExact(negZero, true, {-0.0});
    expectForwardBitExact(negZero, true, {2.75});
}

TEST(TapeOptimizer, RemovesDeadInstructions)
{
    // log(x) is computed but never reaches an output.
    RawTape tape;
    tape.numVars = 1;
    tape.instrs = {
        varInstr(0),
        constInstr(2.0),
        opInstr(OpCode::Log, 0),        // dead
        opInstr(OpCode::Mul, 0, 1),
    };
    tape.outputSlots = {3};

    TapeOptStats stats;
    TapeProgram program = optimizeTape(tape, false, &stats);
    EXPECT_EQ(stats.deadRemoved, 1u);
    EXPECT_EQ(program.instrs.size(), 1u);
    expectForwardBitExact(tape, false, {1.5});
}

// ---------------------------------------------------------------
// Randomized round-trips: optimizer output vs. raw reference.
// ---------------------------------------------------------------

TEST(TapeFuzz, OptimizedForwardBitExactOnRandomTrees)
{
    Rng rng(4242);
    const std::vector<std::string> vars = {"u", "v", "w"};
    for (int trial = 0; trial < 150; ++trial) {
        std::vector<Expr> roots;
        for (int r = 0; r < 3; ++r)
            roots.push_back(randomExpr(rng, vars, 5, false));
        CompiledExprs compiled(roots, vars);
        RawTape raw = buildRawTape(roots, compiled.varNames());
        for (bool forwardOnly : {false, true}) {
            for (int rep = 0; rep < 4; ++rep) {
                std::vector<double> x = {rng.uniform(-3.0, 3.0),
                                         rng.uniform(-3.0, 3.0),
                                         rng.uniform(0.1, 3.0)};
                expectForwardBitExact(raw, forwardOnly, x);
            }
        }
    }
}

TEST(TapeFuzz, OptimizedBackwardBitExactOnRandomTrees)
{
    // Gradient tapes (forward_only=false) must replay the exact
    // adjoint accumulation order of the raw tape: not close, equal.
    Rng rng(777);
    const std::vector<std::string> vars = {"u", "v"};
    for (int trial = 0; trial < 150; ++trial) {
        std::vector<Expr> roots;
        for (int r = 0; r < 2; ++r)
            roots.push_back(randomExpr(rng, vars, 5, false));
        CompiledExprs compiled(roots, vars);
        RawTape raw = buildRawTape(roots, compiled.varNames());
        TapeProgram program = optimizeTape(raw, false);
        for (int rep = 0; rep < 4; ++rep) {
            std::vector<double> x = {rng.uniform(-2.0, 2.0),
                                     rng.uniform(0.1, 2.5)};
            std::vector<double> seeds = {rng.uniform(-2.0, 2.0),
                                         rng.uniform(-2.0, 2.0)};
            std::vector<double> rawValues, rawOut, rawGrad;
            rawForward(raw, x, rawValues, rawOut);
            rawBackward(raw, rawValues, seeds, rawGrad);
            std::vector<double> optValues, optOut, optGrad;
            runProgramForward(program, x, optValues, optOut);
            runProgramBackward(program, optValues, seeds, optGrad);
            ASSERT_EQ(rawGrad.size(), optGrad.size());
            for (size_t i = 0; i < rawGrad.size(); ++i)
                EXPECT_BITEQ(optGrad[i], rawGrad[i]);
        }
    }
}

TEST(TapeFuzz, GradcheckPassesOnOptimizedTapes)
{
    // checkGradients differentiates through CompiledExprs, i.e.
    // through the optimized program: analytic gradients must still
    // match central differences after the optimizer pass.
    Rng rng(31);
    const std::vector<std::string> vars = {"u", "v"};
    int checked = 0;
    for (int trial = 0; trial < 60; ++trial) {
        Expr e = randomExpr(rng, vars, 4, /*smooth_only=*/true);
        std::unordered_map<std::string, double> env = {
            {"u", rng.uniform(0.3, 1.8)},
            {"v", rng.uniform(0.3, 1.8)},
        };
        double value = evalExpr(e, env);
        if (!std::isfinite(value) || std::abs(value) > 1e6)
            continue;
        auto result = autodiff::checkGradients(e, env, 1e-6, 5e-3);
        EXPECT_TRUE(result.passed)
            << e.str() << " rel err " << result.maxRelError;
        ++checked;
    }
    EXPECT_GT(checked, 30);
}

// ---------------------------------------------------------------
// Batched SoA engine vs. the scalar references.
// ---------------------------------------------------------------

TEST(BatchParity, TapeForwardBackwardMatchScalarAcrossWidths)
{
    Rng rng(9001);
    const std::vector<std::string> vars = {"u", "v", "w"};
    constexpr size_t L = kBatchLanes;
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<Expr> roots;
        for (int r = 0; r < 4; ++r)
            roots.push_back(randomExpr(rng, vars, 5, false));
        CompiledExprs compiled(roots, vars);
        const size_t numVars = compiled.numVars();
        const size_t numOutputs = compiled.numOutputs();

        BatchEvalState batchState;
        for (size_t width = 1; width <= L; ++width) {
            std::vector<std::vector<double>> points(width);
            std::vector<std::vector<double>> seeds(width);
            for (size_t l = 0; l < width; ++l) {
                for (size_t v = 0; v < numVars; ++v)
                    points[l].push_back(rng.uniform(-2.5, 2.5));
                for (size_t k = 0; k < numOutputs; ++k)
                    seeds[l].push_back(rng.uniform(-2.0, 2.0));
            }

            std::vector<double> inputs(numVars * L, 0.0);
            std::vector<double> outputGrads(numOutputs * L, 0.0);
            for (size_t l = 0; l < width; ++l) {
                for (size_t v = 0; v < numVars; ++v)
                    inputs[v * L + l] = points[l][v];
                for (size_t k = 0; k < numOutputs; ++k)
                    outputGrads[k * L + l] = seeds[l][k];
            }
            std::vector<double> outputs(numOutputs * L);
            std::vector<double> inputGrads(numVars * L);
            compiled.forwardBatch(inputs.data(), width,
                                  outputs.data(), batchState);
            compiled.beginBackwardBatch(batchState);
            for (size_t k = 0; k < numOutputs; ++k) {
                double *adj = compiled.outputAdjRowPtr(k, batchState);
                for (size_t l = 0; l < width; ++l)
                    adj[l] += outputGrads[k * L + l];
            }
            compiled.finishBackwardBatch(inputGrads.data(), batchState);

            for (size_t l = 0; l < width; ++l) {
                std::vector<double> scalarOut;
                const std::vector<double> scalarGrad = referenceGradient(
                    compiled, points[l], seeds[l], &scalarOut);
                for (size_t k = 0; k < numOutputs; ++k)
                    EXPECT_BITEQ(outputs[k * L + l], scalarOut[k]);
                for (size_t v = 0; v < numVars; ++v)
                    EXPECT_BITEQ(inputGrads[v * L + l],
                                 scalarGrad[v]);
            }
        }
    }
}

TEST(BatchParity, MlpMatchesScalarPerLane)
{
    Rng rng(555);
    costmodel::MlpConfig config;
    config.layerSizes = {6, 16, 8, 1};
    costmodel::Mlp mlp(config, rng);
    std::ostringstream text;
    mlp.saveFull(text);
    const reference::ReferenceMlp ref(text.str());
    constexpr size_t L = kBatchLanes;
    const size_t in = 6;

    costmodel::MlpBatchScratch batchScratch;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> x(in * L);
        for (double &v : x)
            v = rng.uniform(-3.0, 3.0);
        double yFwd[kBatchLanes];
        mlp.forwardBatch(x.data(), L, yFwd, batchScratch);
        double y[kBatchLanes];
        std::copy(x.begin(), x.end(), mlp.stageInputRows(batchScratch));
        mlp.forwardInputGradStaged(L, y, batchScratch);
        const double *dx = mlp.inputGradRows(batchScratch);

        for (size_t l = 0; l < L; ++l) {
            std::vector<double> point(in);
            for (size_t i = 0; i < in; ++i)
                point[i] = x[i * L + l];
            std::vector<double> scalarDx;
            double scalarY = ref.forwardInputGrad(point, scalarDx);
            EXPECT_BITEQ(y[l], scalarY);
            EXPECT_BITEQ(yFwd[l], scalarY);
            EXPECT_BITEQ(yFwd[l], ref.forward(point));
            for (size_t i = 0; i < in; ++i)
                EXPECT_BITEQ(dx[i * L + l], scalarDx[i]);
        }
    }
}

TEST(BatchParity, CostModelBatchMatchesScalarPerLane)
{
    Rng rng(808);
    const size_t dim = 5;
    std::vector<costmodel::Sample> samples;
    for (int i = 0; i < 64; ++i) {
        costmodel::Sample sample;
        for (size_t k = 0; k < dim; ++k)
            sample.rawFeatures.push_back(rng.uniform(1.0, 1e6));
        sample.latencySec = rng.uniform(1e-5, 1e-2);
        samples.push_back(std::move(sample));
    }
    costmodel::MlpConfig config;
    config.layerSizes = {static_cast<int>(dim), 16, 1};
    costmodel::CostModel model(config, 99);
    model.fit(samples, /*epochs=*/2, /*batch=*/16, /*lr=*/1e-3);

    // Each live width in turn, with every lane at or past it NaN:
    // only the live lanes may be read, and they must match the
    // per-point chain bit for bit.
    const reference::ReferenceCostModel ref(model);
    constexpr size_t L = kBatchLanes;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    costmodel::PredictScratch scratch;
    for (int trial = 0; trial < 3 * static_cast<int>(L); ++trial) {
        const size_t width = 1 + static_cast<size_t>(trial) % L;
        std::vector<double> raw(dim * L, nan);
        for (size_t i = 0; i < dim; ++i)
            for (size_t l = 0; l < width; ++l)
                raw[i * L + l] = rng.uniform(0.5, 1e6);
        double scores[kBatchLanes];
        model.predictBatch(raw.data(), width, scores, scratch);

        for (size_t l = 0; l < width; ++l) {
            std::vector<double> point(dim);
            for (size_t i = 0; i < dim; ++i)
                point[i] = raw[i * L + l];
            std::vector<double> grad;
            EXPECT_BITEQ(scores[l],
                         ref.predictTransformedWithGrad(
                             costmodel::CostModel::transformFeatures(point),
                             grad));
        }
    }
}

// ---------------------------------------------------------------
// End to end: a seed's descent does not depend on which seeds share
// its lane batch. Child i of Rng::forkStreams(n) does not depend on
// n, so seeds 0..4 start from the same points whether the round
// launches only them (a few live lanes per sketch) or enough extra
// seeds to fill every sketch's first batch with live lanes. Their
// visited scores must match bit for bit, so batching, padding or
// Adam state leaking from one lane into another fails here.
// ---------------------------------------------------------------

TEST(BatchParity, GradientSearchRoundLanesAreIndependent)
{
    costmodel::DatasetOptions datasetOptions;
    datasetOptions.numSubgraphs = 4;
    datasetOptions.schedulesPerSketch = 16;
    datasetOptions.seed = 3;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), datasetOptions);
    costmodel::MlpConfig config;
    config.layerSizes = {82, 32, 1};
    costmodel::CostModel model(config, 11);
    model.fit(samples, /*epochs=*/2, /*batch=*/64, /*lr=*/1e-3);

    auto subgraph = tir::dense(128, 128, 128, false);
    optim::GradSearchOptions sparse;
    sparse.nSeeds = 5;   // deliberately not a multiple of the lanes
    sparse.nSteps = 25;
    sparse.nMeasure = 6;
    optim::GradientSearch sparseSearch(subgraph, sparse);
    const int numSketches =
        static_cast<int>(sparseSearch.sketches().size());
    ASSERT_GT(numSketches, 0);

    optim::GradSearchOptions packed = sparse;
    packed.nSeeds =
        sparse.nSeeds + numSketches * static_cast<int>(kBatchLanes);
    optim::GradientSearch packedSearch(subgraph, packed);

    Rng rngA(2025), rngB(2025);
    auto sparseResult = sparseSearch.round(model, rngA);
    auto packedResult = packedSearch.round(model, rngB);

    // visitedScores holds nSteps scores per seed, in seed order.
    const size_t nSteps = static_cast<size_t>(sparse.nSteps);
    const size_t shared = static_cast<size_t>(sparse.nSeeds) * nSteps;
    ASSERT_EQ(sparseResult.trace.visitedScores.size(), shared);
    ASSERT_EQ(packedResult.trace.visitedScores.size(),
              static_cast<size_t>(packed.nSeeds) * nSteps);
    for (size_t i = 0; i < shared; ++i)
        EXPECT_BITEQ(sparseResult.trace.visitedScores[i],
                     packedResult.trace.visitedScores[i])
            << "seed " << i / nSteps << " step " << i % nSteps;
}

// ---------------------------------------------------------------
// Optimizer bookkeeping consumed by the tape.* metrics.
// ---------------------------------------------------------------

TEST(TapeStats, OptimizerShrinksProductionFeatureTapes)
{
    auto subgraph = tir::dense(128, 128, 128, false);
    optim::GradSearchOptions options;
    optim::GradientSearch search(subgraph, options);
    ASSERT_FALSE(search.sketches().empty());

    // Recompile one sketch's feature tape directly and check the
    // counters the constructor publishes as tape.* metrics.
    // (Leaves always hoist; production DAGs are pre-simplified, so
    // folding may legitimately find nothing.)
    const auto &sched = search.sketches().front();
    std::vector<std::string> varNames;
    for (const auto &domain : sched.vars)
        varNames.push_back(domain.name);
    CompiledExprs compiled(features::extractFeatures(sched.program),
                           varNames, /*forward_only=*/true);
    EXPECT_LT(compiled.optimizedSize(), compiled.tapeSize());
    const TapeOptStats &stats = compiled.optStats();
    EXPECT_GT(stats.leavesHoisted, 0u);
    EXPECT_EQ(compiled.tapeSize() - compiled.optimizedSize(),
              stats.leavesHoisted + stats.constFolded +
                  stats.identityForwarded + stats.deadRemoved);
}

} // namespace
} // namespace expr
} // namespace felix
