/**
 * @file
 * Tests for the expression rewriter: smoothing kernels, smoothing
 * rewrite rules, positivity analysis, log expansion, exponential
 * variable substitution, and their composition.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/gradcheck.h"
#include "expr/compiled.h"
#include "expr/expr.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "tape_reference.h"

namespace felix {
namespace rewrite {
namespace {

using expr::batchGradient;
using expr::Expr;
using expr::evalExpr;

TEST(SmoothStep, MidpointAndLimitsAllKernels)
{
    Expr x = Expr::var("x");
    for (Kernel k : {Kernel::Algebraic, Kernel::Gaussian, Kernel::Bump}) {
        Expr s = smoothStep(x, k);
        EXPECT_NEAR(evalExpr(s, {{"x", 0.0}}), 0.5, 1e-9)
            << kernelName(k);
        EXPECT_GT(evalExpr(s, {{"x", 50.0}}), 0.95) << kernelName(k);
        EXPECT_LT(evalExpr(s, {{"x", -50.0}}), 0.05) << kernelName(k);
    }
}

TEST(SmoothStep, MonotoneIncreasing)
{
    Expr x = Expr::var("x");
    for (Kernel k : {Kernel::Algebraic, Kernel::Gaussian, Kernel::Bump}) {
        Expr s = smoothStep(x, k);
        double prev = -1.0;
        for (double v = -5.0; v <= 5.0; v += 0.25) {
            double cur = evalExpr(s, {{"x", v}});
            EXPECT_GT(cur, prev) << kernelName(k) << " at " << v;
            prev = cur;
        }
    }
}

TEST(SmoothMax0, AsymptoticallyExact)
{
    Expr x = Expr::var("x");
    for (Kernel k : {Kernel::Algebraic, Kernel::Gaussian, Kernel::Bump}) {
        // Far from the kink the approximation converges to max(x,0).
        // The Cauchy (bump) kernel converges only logarithmically —
        // its heavy tails have no finite mean — so it gets a looser
        // tolerance.
        double tol = (k == Kernel::Bump) ? 2.0 : 0.5;
        Expr m = smoothMax0(x, k);
        EXPECT_NEAR(evalExpr(m, {{"x", 40.0}}), 40.0, tol)
            << kernelName(k);
        EXPECT_NEAR(evalExpr(m, {{"x", -40.0}}), 0.0, tol)
            << kernelName(k);
    }
}

TEST(SmoothMax0, AlgebraicClosedFormMatchesPaper)
{
    // M0(x) = (x + sqrt(1+x^2))/2; M0(0) = 1/2.
    Expr x = Expr::var("x");
    Expr m = smoothMax0(x, Kernel::Algebraic);
    EXPECT_NEAR(evalExpr(m, {{"x", 0.0}}), 0.5, 1e-12);
    EXPECT_NEAR(evalExpr(m, {{"x", 3.0}}),
                (3.0 + std::sqrt(10.0)) / 2.0, 1e-12);
}

TEST(SmoothMinMax, BracketTrueValues)
{
    Expr a = Expr::var("a"), b = Expr::var("b");
    Expr sMax = smoothMax(a, b, Kernel::Algebraic);
    Expr sMin = smoothMin(a, b, Kernel::Algebraic);
    // smooth max >= true max; smooth min <= true min.
    double vMax = evalExpr(sMax, {{"a", 2.0}, {"b", 7.0}});
    double vMin = evalExpr(sMin, {{"a", 2.0}, {"b", 7.0}});
    EXPECT_GE(vMax, 7.0);
    EXPECT_LE(vMin, 2.0);
    EXPECT_NEAR(vMax, 7.0, 2.6);
    // Identity: min(a,b) + max(a,b) == a + b holds exactly.
    EXPECT_NEAR(vMax + vMin, 9.0, 1e-9);
}

TEST(SmoothAbs, ApproximatesAbs)
{
    Expr x = Expr::var("x");
    for (Kernel k : {Kernel::Algebraic, Kernel::Gaussian, Kernel::Bump}) {
        double tol = (k == Kernel::Bump) ? 1.0 : 0.5;
        Expr s = smoothAbs(x, k);
        EXPECT_NEAR(evalExpr(s, {{"x", 20.0}}), 20.0, tol)
            << kernelName(k);
        EXPECT_NEAR(evalExpr(s, {{"x", -20.0}}), 20.0, tol)
            << kernelName(k);
        EXPECT_NEAR(evalExpr(s, {{"x", 0.0}}), 0.0, 0.2)
            << kernelName(k);
    }
}

TEST(MakeSmooth, PaperSelectExample)
{
    // The paper's int_add feature: select(TILE0 > 1, 5, 2).
    Expr t = Expr::var("TILE0");
    Expr raw = expr::select(expr::gt(t, Expr::constant(1.0)),
                            Expr::constant(5.0), Expr::constant(2.0));
    Expr smooth = makeSmooth(raw);
    EXPECT_TRUE(isSmooth(smooth));
    // Far from the threshold the smooth version matches the exact one.
    EXPECT_NEAR(evalExpr(smooth, {{"TILE0", 32.0}}), 5.0, 0.1);
    EXPECT_NEAR(evalExpr(smooth, {{"TILE0", -30.0}}), 2.0, 0.1);
    // At the threshold it is between the two branch values.
    double mid = evalExpr(smooth, {{"TILE0", 1.0}});
    EXPECT_GT(mid, 2.0);
    EXPECT_LT(mid, 5.0);
}

TEST(MakeSmooth, ResultHasNoNonDiffOps)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr raw = expr::max(x, y) + expr::min(x * y, Expr::constant(7.0)) +
               expr::abs(x - y) +
               expr::select(expr::le(x, y), x + 1.0, y * 2.0) +
               expr::floor(x / y);
    EXPECT_FALSE(isSmooth(raw));
    Expr smooth = makeSmooth(raw);
    EXPECT_TRUE(isSmooth(smooth));
}

TEST(MakeSmooth, SmoothInputUnchanged)
{
    Expr x = Expr::var("x");
    Expr e = expr::log(x + 1.0) * expr::exp(x);
    EXPECT_TRUE(makeSmooth(e).same(e));
}

TEST(MakeSmooth, GradientsExistEverywhere)
{
    // The smoothed select must have a nonzero gradient near the
    // threshold — that is the whole point of smoothing.
    Expr t = Expr::var("t");
    Expr raw = expr::select(expr::gt(t, Expr::constant(4.0)),
                            Expr::constant(10.0), Expr::constant(1.0));
    Expr smooth = makeSmooth(raw);
    expr::CompiledExprs compiled({smooth});
    EXPECT_GT(batchGradient(compiled, {4.0}, {1.0})[0], 0.1);

    // The raw select has zero gradient: nothing for GD to follow.
    expr::CompiledExprs rawCompiled({raw});
    EXPECT_DOUBLE_EQ(batchGradient(rawCompiled, {4.0}, {1.0})[0], 0.0);
}

TEST(MakeSmooth, BareComparisonBecomesStep)
{
    Expr x = Expr::var("x");
    Expr raw = expr::ge(x, Expr::constant(2.0));
    Expr smooth = makeSmooth(raw);
    EXPECT_TRUE(isSmooth(smooth));
    EXPECT_NEAR(evalExpr(smooth, {{"x", 2.0}}), 0.5, 1e-9);
    EXPECT_GT(evalExpr(smooth, {{"x", 30.0}}), 0.95);
}

TEST(MakeSmooth, EqualityBecomesBump)
{
    Expr x = Expr::var("x");
    Expr raw = expr::select(expr::eq(x, Expr::constant(3.0)),
                            Expr::constant(9.0), Expr::constant(1.0));
    Expr smooth = makeSmooth(raw);
    EXPECT_TRUE(isSmooth(smooth));
    EXPECT_NEAR(evalExpr(smooth, {{"x", 3.0}}), 9.0, 1e-9);
    EXPECT_NEAR(evalExpr(smooth, {{"x", 30.0}}), 1.0, 0.1);
}

TEST(Positivity, BasicRules)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    EXPECT_TRUE(provablyPositive(x));
    EXPECT_TRUE(provablyPositive(x * y));
    EXPECT_TRUE(provablyPositive(x / y));
    EXPECT_TRUE(provablyPositive(x + y));
    EXPECT_TRUE(provablyPositive(Expr::constant(3.0)));
    EXPECT_FALSE(provablyPositive(Expr::constant(-1.0)));
    EXPECT_FALSE(provablyPositive(x - y));
    EXPECT_TRUE(provablyPositive(expr::exp(x - y)));
    EXPECT_TRUE(provablyPositive(expr::min(x, y)));
}

TEST(Positivity, PowSelectAndSqrtRules)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    EXPECT_TRUE(provablyPositive(expr::pow(x, y - x)));
    EXPECT_TRUE(provablyPositive(
        expr::select(expr::gt(x, y), x, y * 2.0)));
    EXPECT_FALSE(provablyPositive(
        expr::select(expr::gt(x, y), x - y, y)));
    EXPECT_TRUE(provablyPositive(expr::sqrt(x * y)));
    EXPECT_TRUE(provablyPositive(expr::sigmoid(x - y)));
}

TEST(LogExpand, ProductBecomesSum)
{
    Expr n = Expr::var("N"), m = Expr::var("M"), k = Expr::var("K");
    Expr feature = n * m * k;          // float_add = N*M*K
    Expr logged = logExpand(feature);
    // log(N*M*K) -> log N + log M + log K.
    double v = evalExpr(logged, {{"N", 2.0}, {"M", 4.0}, {"K", 8.0}});
    EXPECT_NEAR(v, std::log(64.0), 1e-12);
    // Structure check: no Log-of-Mul remains at the top.
    EXPECT_EQ(logged->op(), expr::OpCode::Add);
}

TEST(LogExpand, DivisionBecomesDifference)
{
    Expr n = Expr::var("N"), t = Expr::var("T");
    Expr logged = logExpand(n / t);
    double v = evalExpr(logged, {{"N", 32.0}, {"T", 4.0}});
    EXPECT_NEAR(v, std::log(8.0), 1e-12);
    EXPECT_EQ(logged->op(), expr::OpCode::Sub);
}

TEST(LogExpand, NonPositiveStaysUnderLog)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr logged = logExpand(x - y);   // difference: not provably > 0
    EXPECT_EQ(logged->op(), expr::OpCode::Log);
}

TEST(ExpSubstitute, CollapsesLogOfVar)
{
    Expr n = Expr::var("N"), m = Expr::var("M");
    Expr logged = logExpand(n * m);
    Expr sub = expSubstituteVars(logged, {"N", "M"});
    // log(exp N) + log(exp M) = N + M: now linear in the variables.
    double v = evalExpr(sub, {{"N", 1.5}, {"M", 2.5}});
    EXPECT_NEAR(v, 4.0, 1e-12);
}

TEST(ExpSubstitute, ValuesInterpretedInLogSpace)
{
    Expr t = Expr::var("T");
    Expr sub = expSubstituteVars(t * 3.0, {"T"});
    // T substituted by e^T: at T=ln 4 the value is 12.
    EXPECT_NEAR(evalExpr(sub, {{"T", std::log(4.0)}}), 12.0, 1e-9);
}

TEST(FeaturePipeline, EndToEndProducesSmoothAdditiveFormula)
{
    // Paper's running example features of program p*_1 (Dense-Add):
    //   float_add   = N*M*K
    //   blockIdx    = N*M/TILE0
    //   int_add     = N*M*K * select(TILE0 > 1, 5, 2)
    Expr n = Expr::intConst(64), m = Expr::intConst(64),
         k = Expr::intConst(64);
    Expr tile = Expr::var("TILE0");
    Expr intAdd = n * m * k *
                  expr::select(expr::gt(tile, Expr::constant(1.0)),
                               Expr::constant(5.0), Expr::constant(2.0));
    Expr out = expSubstituteVars(logExpand(makeSmooth(intAdd)),
                                 {"TILE0"});
    EXPECT_TRUE(isSmooth(out));

    // At TILE0 = ln(8) (log space), the raw feature is 64^3 * 5.
    double v = evalExpr(out, {{"TILE0", std::log(8.0)}});
    EXPECT_NEAR(v, std::log(64.0 * 64.0 * 64.0 * 5.0), 0.05);

    // Gradient must be finite and nonzero somewhere near the kink.
    auto check = autodiff::checkGradients(out, {{"TILE0", 0.05}});
    EXPECT_TRUE(check.passed) << check.maxRelError;
}

TEST(FeaturePipeline, LinearGrowthInLogSpace)
{
    // float_add = N*M*K with all three as variables: in log space the
    // smooth -> log-expand -> e^y composition is exactly N+M+K
    // (linear growth, stable grads).
    Expr f = Expr::var("N") * Expr::var("M") * Expr::var("K");
    Expr out = expSubstituteVars(logExpand(makeSmooth(f)),
                                 {"N", "M", "K"});
    double v1 = evalExpr(out, {{"N", 1.0}, {"M", 2.0}, {"K", 3.0}});
    EXPECT_NEAR(v1, 6.0, 1e-9);
    expr::CompiledExprs compiled({out});
    std::vector<double> g =
        batchGradient(compiled, {10.0, 10.0, 10.0}, {1.0});
    // All partials are exactly 1: no vanishing gradient even at
    // feature value e^30.
    EXPECT_NEAR(g[0], 1.0, 1e-9);
    EXPECT_NEAR(g[1], 1.0, 1e-9);
    EXPECT_NEAR(g[2], 1.0, 1e-9);
}

/** Kernel sweep: smoothing must be differentiable for every kernel. */
class KernelSweep : public ::testing::TestWithParam<Kernel> {};

TEST_P(KernelSweep, SmoothedSelectHasFiniteGradEverywhere)
{
    Kernel kernel = GetParam();
    Expr t = Expr::var("t");
    Expr raw = expr::select(expr::gt(t, Expr::constant(2.0)),
                            t * 3.0, t + 1.0);
    Expr smooth = makeSmooth(raw, kernel);
    EXPECT_TRUE(isSmooth(smooth));
    expr::CompiledExprs compiled({smooth});
    for (double v = -4.0; v <= 8.0; v += 0.5) {
        const double grad = batchGradient(compiled, {v}, {1.0})[0];
        EXPECT_TRUE(std::isfinite(grad))
            << kernelName(kernel) << " at " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSweep,
    ::testing::Values(Kernel::Algebraic, Kernel::Gaussian, Kernel::Bump));

} // namespace
} // namespace rewrite
} // namespace felix
