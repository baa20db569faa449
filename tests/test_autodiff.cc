/**
 * @file
 * Tests for automatic differentiation: symbolic derivatives vs the
 * reverse-mode tape vs central finite differences.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/gradcheck.h"
#include "autodiff/symbolic.h"
#include "expr/compiled.h"
#include "expr/expr.h"
#include "tape_reference.h"

namespace felix {
namespace autodiff {
namespace {

using expr::Expr;
using expr::evalExpr;

TEST(Symbolic, PolynomialDerivative)
{
    Expr x = Expr::var("x");
    Expr e = x * x * x;          // d/dx = 3x^2
    Expr d = derivative(e, "x");
    EXPECT_NEAR(evalExpr(d, {{"x", 2.0}}), 12.0, 1e-9);
}

TEST(Symbolic, ProductRule)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr e = x * y;
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 3.0}, {"y", 7.0}}),
                7.0, 1e-12);
    EXPECT_NEAR(evalExpr(derivative(e, "y"), {{"x", 3.0}, {"y", 7.0}}),
                3.0, 1e-12);
}

TEST(Symbolic, ChainThroughExpLog)
{
    Expr x = Expr::var("x");
    Expr e = expr::log(x * x);   // d/dx = 2/x
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 4.0}}), 0.5, 1e-9);
}

TEST(Symbolic, ConstantHasZeroDerivative)
{
    Expr d = derivative(Expr::constant(5.0), "x");
    EXPECT_TRUE(d.isConst(0.0));
}

TEST(Symbolic, UnrelatedVariableZero)
{
    Expr e = Expr::var("y") * 3.0;
    EXPECT_TRUE(derivative(e, "x").isConst(0.0));
}

TEST(Symbolic, DivQuotientRule)
{
    Expr x = Expr::var("x");
    Expr e = Expr::constant(1.0) / x;   // d/dx = -1/x^2
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 2.0}}), -0.25,
                1e-12);
}

TEST(Symbolic, PowWithVariableExponent)
{
    Expr x = Expr::var("x");
    Expr e = expr::pow(Expr::constant(2.0), x);   // d/dx = 2^x ln 2
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 3.0}}),
                8.0 * std::log(2.0), 1e-9);
}

TEST(Symbolic, SqrtDerivative)
{
    Expr x = Expr::var("x");
    Expr e = expr::sqrt(x);
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 4.0}}), 0.25,
                1e-12);
}

TEST(Symbolic, AtanDerivative)
{
    Expr x = Expr::var("x");
    Expr e = expr::atan(x);
    EXPECT_NEAR(evalExpr(derivative(e, "x"), {{"x", 1.0}}), 0.5,
                1e-12);
}

TEST(Symbolic, MaxUsesActiveBranch)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr d = derivative(expr::max(x * 2.0, y), "x");
    EXPECT_NEAR(evalExpr(d, {{"x", 5.0}, {"y", 1.0}}), 2.0, 1e-12);
    EXPECT_NEAR(evalExpr(d, {{"x", 0.1}, {"y", 1.0}}), 0.0, 1e-12);
}

TEST(Symbolic, SelectDifferentiatesBranches)
{
    Expr x = Expr::var("x");
    Expr e = expr::select(expr::gt(x, Expr::constant(0.0)),
                          x * x, -x);
    Expr d = derivative(e, "x");
    EXPECT_NEAR(evalExpr(d, {{"x", 3.0}}), 6.0, 1e-12);
    EXPECT_NEAR(evalExpr(d, {{"x", -3.0}}), -1.0, 1e-12);
}

TEST(Symbolic, SigmoidDerivativePeaksAtZero)
{
    Expr x = Expr::var("x");
    Expr d = derivative(expr::sigmoid(x), "x");
    EXPECT_NEAR(evalExpr(d, {{"x", 0.0}}), 0.5, 1e-12);
    EXPECT_LT(evalExpr(d, {{"x", 5.0}}), 0.01);
}

/** Tape and symbolic derivatives must agree on smooth expressions. */
TEST(TapeVsSymbolic, AgreeOnCompositeExpression)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr e = expr::log(x * y + 1.0) * expr::exp(y / (x + 2.0)) +
             expr::sqrt(x * x + y * y) + expr::sigmoid(x - y);

    expr::CompiledExprs compiled({e});
    std::vector<double> point = {1.7, 0.9};   // x, y (sorted order)
    std::vector<double> tapeGrads =
        expr::batchGradient(compiled, point, {1.0});

    Expr dx = derivative(e, "x");
    Expr dy = derivative(e, "y");
    double sdx = evalExpr(dx, {{"x", 1.7}, {"y", 0.9}});
    double sdy = evalExpr(dy, {{"x", 1.7}, {"y", 0.9}});

    EXPECT_NEAR(tapeGrads[0], sdx, 1e-9);
    EXPECT_NEAR(tapeGrads[1], sdy, 1e-9);
}

TEST(GradCheck, PassesOnSmoothExpression)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr e = expr::exp(x) * expr::log(y + 2.0) + x * y;
    auto result = checkGradients(e, {{"x", 0.5}, {"y", 1.5}});
    EXPECT_TRUE(result.passed)
        << "worst var " << result.worstVar << " rel err "
        << result.maxRelError;
}

TEST(GradCheck, NumericGradientMatchesKnownValue)
{
    Expr x = Expr::var("x");
    auto grads = numericGradient(x * x, {{"x", 3.0}});
    EXPECT_NEAR(grads.at("x"), 6.0, 1e-6);
}

/** Parameterized sweep: tape gradients match finite differences. */
class TapeGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(TapeGradSweep, MatchesFiniteDifferences)
{
    int seed = GetParam();
    double xv = 0.3 + 0.41 * seed;
    double yv = 0.7 + 0.23 * seed;
    Expr x = Expr::var("x"), y = Expr::var("y");
    // A feature-formula-shaped expression: products, divisions,
    // logs, exps and a smooth sigmoid gate.
    Expr e = (x * y + 3.0) / (x + 1.0) +
             expr::log(x * x * y + 2.0) * expr::sigmoid(y - x) +
             expr::sqrt(1.0 + x * x);
    auto result = checkGradients(e, {{"x", xv}, {"y", yv}});
    EXPECT_TRUE(result.passed)
        << "x=" << xv << " y=" << yv << " rel " << result.maxRelError;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TapeGradSweep, ::testing::Range(0, 10));

} // namespace
} // namespace autodiff
} // namespace felix
