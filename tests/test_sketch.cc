/**
 * @file
 * Tests for sketch generation, constraint tracking, sampling,
 * rounding, and validity checking of symbolic schedules.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "expr/compiled.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "tir/ops.h"

namespace felix {
namespace sketch {
namespace {

using tir::Annotation;

tir::SubgraphDef
denseAdd(int64_t n = 256, int64_t m = 256, int64_t k = 256)
{
    return tir::dense(n, m, k, /*bias=*/true);
}

TEST(Generate, DenseGetsFullSimpleAndCrossThreadSketch)
{
    // 256x256 spatial with a 256 reduction qualifies for all three
    // reduction rules.
    auto sketches = generateSketches(denseAdd());
    ASSERT_EQ(sketches.size(), 3u);
    EXPECT_EQ(sketches[0].desc, "gpu.multi_level_tiling");
    EXPECT_EQ(sketches[1].desc, "gpu.simple_tiling");
    EXPECT_EQ(sketches[2].desc, "gpu.cross_thread_reduction");
}

TEST(Generate, ElementwiseGetsElementwiseSketch)
{
    tir::ArithCounts arith;
    arith.add = 1;
    auto subgraph = tir::elementwise(1 << 20, 2, arith);
    auto sketches = generateSketches(subgraph);
    ASSERT_EQ(sketches.size(), 1u);
    EXPECT_EQ(sketches[0].desc, "gpu.elementwise");
}

TEST(Generate, SmallReductionSkipsFullTiling)
{
    // Tiny spatial extent: full multi-level tiling is skipped; the
    // shape qualifies for simple tiling and, because the reduction
    // dominates, for the cross-thread reduction rule.
    auto subgraph = tir::dense(4, 4, 1024, false);
    auto sketches = generateSketches(subgraph);
    ASSERT_EQ(sketches.size(), 2u);
    EXPECT_EQ(sketches[0].desc, "gpu.simple_tiling");
    EXPECT_EQ(sketches[1].desc, "gpu.cross_thread_reduction");
}

TEST(Generate, CrossThreadReductionStructure)
{
    auto subgraph = tir::softmax(64, 1024);
    auto sketches = generateSketches(subgraph);
    const SymbolicSchedule *crossThread = nullptr;
    for (const auto &sched : sketches) {
        if (sched.desc == "gpu.cross_thread_reduction")
            crossThread = &sched;
    }
    ASSERT_NE(crossThread, nullptr);
    // The threadIdx loop of the dominant stage covers the reduce
    // axis: threads cooperate on one reduction.
    const auto &program = crossThread->program;
    const auto &root = program.stages[program.rootStage];
    bool threadCoversReduce = false;
    for (const auto &loop : root.loops) {
        if (loop.ann != tir::Annotation::ThreadX)
            continue;
        for (const auto &cover : loop.cover)
            threadCoversReduce |= cover.axis == "j";
    }
    EXPECT_TRUE(threadCoversReduce);
    // All-ones is NOT forced: ct_in has a lower bound keeping the
    // thread count within the hardware limit.
    Rng rng(3);
    for (int i = 0; i < 10; ++i) {
        auto x = sampleValid(*crossThread, rng);
        EXPECT_TRUE(isValidAssignment(*crossThread, x));
    }
}

TEST(Generate, FullSketchVariableCount)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &full = sketches[0];
    // Dense: 2 spatial axes x 3 vars + 1 reduce var + UNROLL = 8.
    EXPECT_EQ(full.vars.size(), 8u);
    // Simple sketch (paper's s*_1 family): thread/inner/reduce/unroll.
    EXPECT_EQ(sketches[1].vars.size(), 4u);
}

TEST(Generate, SymbolicProgramContainsScheduleVars)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &full = sketches[0];
    std::vector<expr::Expr> extents;
    for (const auto &stage : full.program.stages) {
        for (const auto &loop : stage.loops)
            extents.push_back(loop.extent);
    }
    auto vars = expr::collectVars(extents);
    // Every tiling variable appears in some loop bound.
    EXPECT_GE(vars.size(), 7u);
}

TEST(Generate, LaunchBindingsPresent)
{
    auto sketches = generateSketches(denseAdd());
    for (const SymbolicSchedule &sched : sketches) {
        const tir::Program &program = sched.program;
        bool hasBlock = false, hasThread = false;
        for (const auto &loop :
             program.stages[program.rootStage].loops) {
            hasBlock |= loop.ann == Annotation::BlockX;
            hasThread |= loop.ann == Annotation::ThreadX;
        }
        EXPECT_TRUE(hasBlock) << sched.desc;
        EXPECT_TRUE(hasThread) << sched.desc;
    }
}

TEST(Generate, FullSketchHasCacheStages)
{
    auto sketches = generateSketches(denseAdd());
    const tir::Program &program = sketches[0].program;
    int cacheStages = 0;
    for (const auto &stage : program.stages)
        cacheStages += stage.isCacheRead;
    EXPECT_EQ(cacheStages, 2);   // A.shared and B.shared
}

TEST(Generate, EpilogueAttachedUnderDominant)
{
    auto sketches = generateSketches(denseAdd());
    const tir::Program &program = sketches[0].program;
    const auto &epilogue = program.stages[1];
    EXPECT_EQ(epilogue.attachStage, 0);
    EXPECT_TRUE(epilogue.aggregateLoops);
}

TEST(Generate, ConstraintsIncludeResourceLimits)
{
    auto sketches = generateSketches(denseAdd());
    // Full sketch: per-var bounds (7*2) + per-axis tiling (2) +
    // thread/vthread/inner/shared limits (4) + unroll bounds.
    EXPECT_GE(sketches[0].constraints.size(), 16u);
}

TEST(Generate, Conv2dSketches)
{
    tir::Conv2dConfig config;
    config.c = 64;
    config.h = 56;
    config.w = 56;
    config.k = 64;
    config.bias = true;
    config.epilogue = tir::Epilogue::Relu;
    auto sketches = generateSketches(tir::conv2d(config));
    ASSERT_EQ(sketches.size(), 2u);
    // 4 spatial axes, but n == 1 is trivial: 3 x 3 spatial vars +
    // 3 reduce vars + UNROLL = 13.
    EXPECT_EQ(sketches[0].vars.size(), 13u);
}

TEST(Generate, SoftmaxAuxStagesGetOwnVars)
{
    auto sketches = generateSketches(tir::softmax(64, 1024));
    ASSERT_GE(sketches.size(), 1u);
    const SymbolicSchedule &sched = sketches.back();
    // The two non-dominant stages each contribute a thread variable.
    int auxVars = 0;
    for (const VarDomain &domain : sched.vars) {
        if (domain.name.rfind("s", 0) == 0 &&
            domain.name.find("_th") != std::string::npos) {
            ++auxVars;
        }
    }
    EXPECT_EQ(auxVars, 2);
}

TEST(Generate, ScheduleStepSequenceMatchesPaperShape)
{
    // Regression snapshot of the simple-tiling schedule against the
    // paper's Fig. 3 s*_1 structure: fuse, tile with variables,
    // bind, attach the epilogue, unroll pragma.
    auto sketches = generateSketches(denseAdd());
    const auto &sched = sketches[1];
    std::vector<tir::StepKind> kinds;
    for (const auto &step : sched.schedule.steps)
        kinds.push_back(step.kind);
    EXPECT_EQ(kinds,
              (std::vector<tir::StepKind>{
                  tir::StepKind::Fuse, tir::StepKind::Split,
                  tir::StepKind::Split, tir::StepKind::Reorder,
                  tir::StepKind::Annotate, tir::StepKind::Annotate,
                  tir::StepKind::ComputeAt, tir::StepKind::Pragma}));
    // The printed schedule mentions the symbolic variables.
    std::string text = sched.schedule.str();
    EXPECT_NE(text.find("f_th"), std::string::npos);
    EXPECT_NE(text.find("UNROLL"), std::string::npos);
    EXPECT_NE(text.find("threadIdx.x"), std::string::npos);
}

TEST(Sampling, SamplesAreValid)
{
    auto sketches = generateSketches(denseAdd());
    Rng rng(42);
    for (const SymbolicSchedule &sched : sketches) {
        for (int i = 0; i < 20; ++i) {
            auto x = sampleValid(sched, rng);
            EXPECT_TRUE(isValidAssignment(sched, x)) << sched.desc;
        }
    }
}

TEST(Sampling, SamplesAreDiverse)
{
    auto sketches = generateSketches(denseAdd());
    Rng rng(7);
    std::set<std::vector<double>> seen;
    for (int i = 0; i < 32; ++i)
        seen.insert(sampleValid(sketches[0], rng));
    EXPECT_GE(seen.size(), 16u);
}

TEST(Sampling, TileProductsDivideExtent)
{
    auto sketches = generateSketches(denseAdd(192, 384, 96));
    Rng rng(3);
    const SymbolicSchedule &sched = sketches[0];
    for (int i = 0; i < 20; ++i) {
        auto x = sampleValid(sched, rng);
        for (const SplitGroup &group : sched.groups) {
            int64_t product = 1;
            for (int vi : group.varIndices)
                product *= static_cast<int64_t>(x[vi]);
            EXPECT_EQ(group.extent % product, 0);
        }
    }
}

TEST(Rounding, SnapsToDivisorsInLogSpace)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &sched = sketches[1];   // simple: 4 vars
    // Log-space target values.
    std::vector<double> y(sched.vars.size(), 0.0);
    int fTh = sched.varIndex("f_th");
    y[fTh] = std::log(100.0);    // near 128 in log space? 64 vs 128
    auto rounded = roundToValid(sched, y, ConstraintChecker(sched));
    ASSERT_TRUE(rounded.has_value());
    double v = (*rounded)[fTh];
    // 100 must snap to a divisor of 256*256.
    EXPECT_EQ(static_cast<int64_t>(256 * 256) %
                  static_cast<int64_t>(v),
              0);
    EXPECT_TRUE(v == 64.0 || v == 128.0);
    EXPECT_TRUE(isValidAssignment(sched, *rounded));
}

TEST(Rounding, InfeasibleResourceReturnsNullopt)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &full = sketches[0];
    // Ask for huge thread tiles on both spatial axes: product would
    // exceed 1024 threads.
    std::vector<double> y(full.vars.size(), 0.0);
    y[full.varIndex("sp0_th")] = std::log(256.0);
    y[full.varIndex("sp1_th")] = std::log(256.0);
    auto rounded = roundToValid(full, y, ConstraintChecker(full));
    EXPECT_FALSE(rounded.has_value());
}

TEST(Rounding, AllOnesAlwaysValid)
{
    for (const auto &sched : generateSketches(denseAdd())) {
        std::vector<double> y(sched.vars.size(), 0.0);   // e^0 = 1
        auto rounded = roundToValid(sched, y, ConstraintChecker(sched));
        ASSERT_TRUE(rounded.has_value()) << sched.desc;
        EXPECT_TRUE(isValidAssignment(sched, *rounded));
    }
}

TEST(Validity, RejectsNonIntegerAndOutOfDomain)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &sched = sketches[1];
    std::vector<double> x(sched.vars.size(), 1.0);
    EXPECT_TRUE(isValidAssignment(sched, x));
    x[0] = 1.5;
    EXPECT_FALSE(isValidAssignment(sched, x));
    x[0] = 1e9;
    EXPECT_FALSE(isValidAssignment(sched, x));
}

TEST(Validity, RejectsNonDivisorTiles)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &sched = sketches[1];
    std::vector<double> x(sched.vars.size(), 1.0);
    x[sched.varIndex("f_th")] = 7.0;   // 7 does not divide 65536
    EXPECT_FALSE(isValidAssignment(sched, x));
}

TEST(ConstraintCheckerTest, ViolationMagnitude)
{
    auto sketches = generateSketches(denseAdd());
    const SymbolicSchedule &sched = sketches[1];
    ConstraintChecker checker(sched);
    std::vector<double> ok(sched.vars.size(), 1.0);
    EXPECT_LE(checker.maxViolation(ok), 0.0);
    std::vector<double> bad = ok;
    bad[sched.varIndex("f_th")] = 4096.0;   // over maxThreadsPerBlock
    EXPECT_GT(checker.maxViolation(bad), 0.0);
}

} // namespace
} // namespace sketch
} // namespace felix
