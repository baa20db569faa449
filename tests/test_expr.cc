/**
 * @file
 * Unit + property tests for the expression substrate: hash-consing,
 * constant folding, simplification, evaluation, substitution, tape
 * compilation.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "expr/compiled.h"
#include "expr/expr.h"
#include "tape_reference.h"

namespace felix {
namespace expr {
namespace {

TEST(Intern, StructuralSharing)
{
    Expr a = Expr::var("x") + Expr::var("y");
    Expr b = Expr::var("x") + Expr::var("y");
    EXPECT_TRUE(a.same(b));
    EXPECT_EQ(a.get(), b.get());
}

TEST(Intern, CommutativeCanonicalization)
{
    Expr a = Expr::var("x") * Expr::var("y");
    Expr b = Expr::var("y") * Expr::var("x");
    EXPECT_TRUE(a.same(b));
}

TEST(Intern, NonCommutativeNotMerged)
{
    Expr a = Expr::var("x") - Expr::var("y");
    Expr b = Expr::var("y") - Expr::var("x");
    EXPECT_FALSE(a.same(b));
}

TEST(Intern, SameVarNameSameNode)
{
    EXPECT_TRUE(Expr::var("t0").same(Expr::var("t0")));
    EXPECT_FALSE(Expr::var("t0").same(Expr::var("t1")));
}

TEST(Fold, ConstantArithmetic)
{
    Expr e = Expr::constant(2.0) * Expr::constant(3.0) +
             Expr::constant(4.0);
    ASSERT_TRUE(e.isConst());
    EXPECT_DOUBLE_EQ(e.constValue(), 10.0);
}

TEST(Fold, IdentityRules)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE((x + 0.0).same(x));
    EXPECT_TRUE((0.0 + x).same(x));
    EXPECT_TRUE((x * 1.0).same(x));
    EXPECT_TRUE((x / 1.0).same(x));
    EXPECT_TRUE((x - 0.0).same(x));
    EXPECT_TRUE((x * 0.0).isConst(0.0));
    EXPECT_TRUE((x - x).isConst(0.0));
    EXPECT_TRUE((x / x).isConst(1.0));
}

TEST(Fold, PowRules)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(pow(x, Expr::constant(1.0)).same(x));
    EXPECT_TRUE(pow(x, Expr::constant(0.0)).isConst(1.0));
    EXPECT_TRUE(pow(Expr::constant(1.0), x).isConst(1.0));
}

TEST(Fold, LogExpInverses)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(log(exp(x)).same(x));
    EXPECT_TRUE(exp(log(x)).same(x));
}

TEST(Fold, MinMaxOfSameOperand)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(min(x, x).same(x));
    EXPECT_TRUE(max(x, x).same(x));
}

TEST(Fold, SelectConstCondition)
{
    Expr a = Expr::var("a"), b = Expr::var("b");
    EXPECT_TRUE(select(Expr::constant(1.0), a, b).same(a));
    EXPECT_TRUE(select(Expr::constant(0.0), a, b).same(b));
    EXPECT_TRUE(select(lt(a, b), a, a).same(a));
}

TEST(Fold, ComparisonOfIdenticalNodes)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(lt(x, x).isConst(0.0));
    EXPECT_TRUE(le(x, x).isConst(1.0));
    EXPECT_TRUE(eq(x, x).isConst(1.0));
    EXPECT_TRUE(ne(x, x).isConst(0.0));
}

TEST(Fold, DoubleNegation)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(neg(neg(x)).same(x));
}

TEST(Eval, BasicArithmetic)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr e = (x + y) * (x - y);
    EXPECT_DOUBLE_EQ(evalExpr(e, {{"x", 3.0}, {"y", 2.0}}), 5.0);
}

TEST(Eval, TranscendentalOps)
{
    Expr x = Expr::var("x");
    EXPECT_NEAR(evalExpr(log(x), {{"x", M_E}}), 1.0, 1e-12);
    EXPECT_NEAR(evalExpr(exp(x), {{"x", 1.0}}), M_E, 1e-12);
    EXPECT_NEAR(evalExpr(sqrt(x), {{"x", 9.0}}), 3.0, 1e-12);
    EXPECT_NEAR(evalExpr(atan(x), {{"x", 1.0}}), M_PI / 4.0, 1e-12);
}

TEST(Eval, SafeLogIsFinite)
{
    Expr x = Expr::var("x");
    double v = evalExpr(log(x), {{"x", -5.0}});
    EXPECT_TRUE(std::isfinite(v));
}

TEST(Eval, TotalizedDivisionIsFinite)
{
    Expr x = Expr::var("x");
    double v = evalExpr(Expr::constant(2.0) / x, {{"x", 0.0}});
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 1e12);
}

TEST(Eval, SelectAndComparisons)
{
    Expr x = Expr::var("x");
    Expr e = select(gt(x, Expr::constant(0.0)), Expr::constant(5.0),
                    Expr::constant(2.0));
    EXPECT_DOUBLE_EQ(evalExpr(e, {{"x", 1.0}}), 5.0);
    EXPECT_DOUBLE_EQ(evalExpr(e, {{"x", -1.0}}), 2.0);
}

TEST(Eval, SigmoidShape)
{
    Expr x = Expr::var("x");
    EXPECT_NEAR(evalExpr(sigmoid(x), {{"x", 0.0}}), 0.5, 1e-12);
    EXPECT_GT(evalExpr(sigmoid(x), {{"x", 10.0}}), 0.99);
    EXPECT_LT(evalExpr(sigmoid(x), {{"x", -10.0}}), 0.01);
}

TEST(Eval, MinMaxFloorAbs)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    EXPECT_DOUBLE_EQ(evalExpr(min(x, y), {{"x", 2.0}, {"y", 3.0}}), 2.0);
    EXPECT_DOUBLE_EQ(evalExpr(max(x, y), {{"x", 2.0}, {"y", 3.0}}), 3.0);
    EXPECT_DOUBLE_EQ(evalExpr(floor(x), {{"x", 2.7}}), 2.0);
    EXPECT_DOUBLE_EQ(evalExpr(abs(x), {{"x", -2.5}}), 2.5);
}

TEST(Substitute, ReplacesVariables)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    Expr e = x * y + x;
    Expr sub = substitute(e, {{"x", Expr::constant(2.0)}});
    EXPECT_DOUBLE_EQ(evalExpr(sub, {{"y", 3.0}}), 8.0);
}

TEST(Substitute, RefoldsAfterSubstitution)
{
    Expr x = Expr::var("x");
    Expr e = x * Expr::var("y");
    Expr sub = substitute(e, {{"x", Expr::constant(1.0)}});
    // x*y with x=1 must simplify to y, not stay as (1*y).
    EXPECT_TRUE(sub.same(Expr::var("y")));
}

TEST(Substitute, VarToExpression)
{
    Expr x = Expr::var("x");
    Expr e = log(x);
    Expr sub = substitute(e, {{"x", exp(Expr::var("y"))}});
    // log(exp(y)) collapses to y.
    EXPECT_TRUE(sub.same(Expr::var("y")));
}

TEST(CollectVars, SortedAndDeduplicated)
{
    Expr e = Expr::var("b") + Expr::var("a") * Expr::var("b");
    auto vars = collectVars({e});
    EXPECT_EQ(vars, (std::vector<std::string>{"a", "b"}));
}

TEST(Compiled, SharesCommonSubexpressions)
{
    Expr x = Expr::var("x");
    Expr common = x * x + 1.0;
    Expr a = common * 2.0;
    Expr b = common * 3.0;
    CompiledExprs compiled({a, b});
    // x, x*x, +1, const 1, const 2, const 3, two muls => 8 slots max;
    // without sharing it would be more.
    EXPECT_LE(compiled.tapeSize(), 9u);
    EvalState state;
    auto out = compiled.eval({2.0}, state);
    EXPECT_DOUBLE_EQ(out[0], 10.0);
    EXPECT_DOUBLE_EQ(out[1], 15.0);
}

TEST(Compiled, MultipleOutputsAndOrder)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    CompiledExprs compiled({x + y, x * y, x - y});
    EvalState state;
    auto out = compiled.eval({5.0, 3.0}, state);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 8.0);
    EXPECT_DOUBLE_EQ(out[1], 15.0);
    EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(Compiled, ExplicitVarOrder)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    CompiledExprs compiled({x - y}, {"y", "x"});
    EvalState state;
    auto out = compiled.eval({3.0, 5.0}, state);   // y=3, x=5
    EXPECT_DOUBLE_EQ(out[0], 2.0);
}

TEST(Compiled, BackwardSimpleProduct)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    CompiledExprs compiled({x * y});
    std::vector<double> grads = batchGradient(compiled, {3.0, 4.0}, {1.0});
    ASSERT_EQ(grads.size(), 2u);
    EXPECT_DOUBLE_EQ(grads[0], 4.0);   // d/dx
    EXPECT_DOUBLE_EQ(grads[1], 3.0);   // d/dy
}

TEST(Compiled, BackwardAccumulatesAcrossOutputs)
{
    Expr x = Expr::var("x");
    CompiledExprs compiled({x * x, x * 3.0});
    std::vector<double> grads = batchGradient(compiled, {2.0}, {1.0, 2.0});
    // d(x^2)/dx * 1 + d(3x)/dx * 2 = 4 + 6 = 10.
    EXPECT_DOUBLE_EQ(grads[0], 10.0);
}

TEST(Compiled, BackwardSubgradientMax)
{
    Expr x = Expr::var("x"), y = Expr::var("y");
    CompiledExprs compiled({max(x, y)});
    std::vector<double> grads = batchGradient(compiled, {5.0, 2.0}, {1.0});
    EXPECT_DOUBLE_EQ(grads[0], 1.0);
    EXPECT_DOUBLE_EQ(grads[1], 0.0);
}

TEST(Compiled, ReusableAcrossCalls)
{
    Expr x = Expr::var("x");
    CompiledExprs compiled({x * x});
    EvalState state;
    EXPECT_DOUBLE_EQ(compiled.eval({2.0}, state)[0], 4.0);
    EXPECT_DOUBLE_EQ(compiled.eval({3.0}, state)[0], 9.0);
    EXPECT_DOUBLE_EQ(compiled.eval({4.0}, state)[0], 16.0);
}

TEST(Helpers, IntConstAndDoubleOperators)
{
    Expr x = Expr::var("x");
    EXPECT_TRUE(Expr::intConst(42).isConst(42.0));
    EXPECT_DOUBLE_EQ(evalExpr(2.0 + x, {{"x", 3.0}}), 5.0);
    EXPECT_DOUBLE_EQ(evalExpr(x - 1.0, {{"x", 3.0}}), 2.0);
    EXPECT_DOUBLE_EQ(evalExpr(10.0 / x, {{"x", 4.0}}), 2.5);
    EXPECT_DOUBLE_EQ(evalExpr(-x, {{"x", 4.0}}), -4.0);
}

TEST(Helpers, CountNodesSharesSubtrees)
{
    Expr x = Expr::var("x");
    Expr shared = x * x;
    // shared appears twice but the DAG holds it once.
    size_t count = countNodes({shared + shared});
    EXPECT_LE(count, 3u);   // x, x*x, (x*x)+(x*x)
}

TEST(Helpers, CollectVarsMultipleRoots)
{
    auto vars = collectVars({Expr::var("c") + 1.0,
                             Expr::var("a") * Expr::var("b")});
    EXPECT_EQ(vars, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Printer, RendersReadableForms)
{
    Expr x = Expr::var("x");
    EXPECT_EQ((x + 1.0).str(), "(x + 1)");
    EXPECT_EQ(min(x, Expr::constant(2.0)).str(), "min(x, 2)");
    EXPECT_EQ(Expr::constant(2.5).str(), "2.5");
}

// Property-style sweep: folding never changes evaluation results.
class FoldProperty : public ::testing::TestWithParam<int> {};

TEST_P(FoldProperty, SimplificationPreservesSemantics)
{
    int seed = GetParam();
    double xv = 0.5 + seed * 0.37;
    double yv = 1.25 + seed * 0.11;
    Expr x = Expr::var("x"), y = Expr::var("y");

    // Expressions built two algebraically equal ways.
    Expr e1 = (x + y) * (x + y);
    Expr e2 = x * x + 2.0 * x * y + y * y;
    double v1 = evalExpr(e1, {{"x", xv}, {"y", yv}});
    double v2 = evalExpr(e2, {{"x", xv}, {"y", yv}});
    EXPECT_NEAR(v1, v2, 1e-9 * std::max(1.0, std::abs(v1)));

    Expr m1 = min(x, y) + max(x, y);
    Expr m2 = x + y;
    EXPECT_NEAR(evalExpr(m1, {{"x", xv}, {"y", yv}}),
                evalExpr(m2, {{"x", xv}, {"y", yv}}), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FoldProperty, ::testing::Range(0, 12));

} // namespace
} // namespace expr
} // namespace felix
