/**
 * @file
 * Fuzz tests of the expression substrate: random expression trees
 * evaluated three ways (recursive semantics, compiled tape, after
 * substitution round-trips) must agree; tape gradients must match
 * symbolic derivatives and finite differences on smooth regions.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/gradcheck.h"
#include "autodiff/symbolic.h"
#include "expr/compiled.h"
#include "expr/expr.h"
#include "support/rng.h"
#include "tape_reference.h"

namespace felix {
namespace expr {
namespace {

/** Reference recursive evaluator, independent of the tape. */
double
refEval(const Expr &e, const std::unordered_map<std::string, double> &env)
{
    if (e.isConst())
        return e.constValue();
    if (e.isVar())
        return env.at(e.varName());
    double args[3] = {0, 0, 0};
    for (size_t i = 0; i < e->args().size(); ++i)
        args[i] = refEval(e->args()[i], env);
    return evalOp(e->op(), args);
}

/** Random expression tree over the given variables. */
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
      case 3: return a / (abs(b) + 0.5);   // keep denominators away
                                           // from zero
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

TEST(FuzzExpr, TapeMatchesReferenceEvaluator)
{
    Rng rng(2024);
    const std::vector<std::string> vars = {"u", "v", "w"};
    for (int trial = 0; trial < 200; ++trial) {
        Expr e = randomExpr(rng, vars, 5, /*smooth_only=*/false);
        std::unordered_map<std::string, double> env = {
            {"u", rng.uniform(-2.0, 2.0)},
            {"v", rng.uniform(-2.0, 2.0)},
            {"w", rng.uniform(0.1, 3.0)},
        };
        double ref = refEval(e, env);
        double tape = evalExpr(e, env);
        if (std::isfinite(ref)) {
            EXPECT_NEAR(tape, ref,
                        1e-9 * std::max(1.0, std::abs(ref)))
                << "trial " << trial << ": " << e.str();
        }
    }
}

TEST(FuzzExpr, SubstitutionIdentityRoundTrip)
{
    // Substituting x -> x must return the identical interned node;
    // substituting x -> (x+0)*1 must evaluate identically.
    Rng rng(7);
    const std::vector<std::string> vars = {"x", "y"};
    for (int trial = 0; trial < 100; ++trial) {
        Expr e = randomExpr(rng, vars, 4, false);
        Expr same = substitute(e, {{"x", Expr::var("x")}});
        EXPECT_TRUE(same.same(e)) << e.str();
    }
}

TEST(FuzzExpr, TapeGradMatchesSymbolicOnSmoothTrees)
{
    Rng rng(99);
    const std::vector<std::string> vars = {"u", "v"};
    int checked = 0;
    for (int trial = 0; trial < 120; ++trial) {
        Expr e = randomExpr(rng, vars, 4, /*smooth_only=*/true);
        std::unordered_map<std::string, double> env = {
            {"u", rng.uniform(0.2, 2.0)},
            {"v", rng.uniform(0.2, 2.0)},
        };
        double value = evalExpr(e, env);
        if (!std::isfinite(value) || std::abs(value) > 1e8)
            continue;

        CompiledExprs compiled({e});
        std::vector<double> x;
        for (const std::string &name : compiled.varNames())
            x.push_back(env.at(name));
        std::vector<double> tapeGrad =
            expr::batchGradient(compiled, x, {1.0});

        for (size_t i = 0; i < compiled.numVars(); ++i) {
            Expr d = autodiff::derivative(
                e, compiled.varNames()[i]);
            double symbolic = evalExpr(d, env);
            if (!std::isfinite(symbolic))
                continue;
            EXPECT_NEAR(tapeGrad[i], symbolic,
                        1e-6 * std::max(1.0, std::abs(symbolic)))
                << "d/d" << compiled.varNames()[i] << " of "
                << e.str();
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(FuzzExpr, TapeGradMatchesFiniteDifferences)
{
    Rng rng(55);
    const std::vector<std::string> vars = {"u", "v"};
    int checked = 0;
    for (int trial = 0; trial < 80; ++trial) {
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
    EXPECT_GT(checked, 40);
}

TEST(FuzzExpr, InternTableDeduplicatesAggressively)
{
    // Building the same 200 random trees twice must not grow the
    // intern table on the second pass.
    Rng rngA(123);
    const std::vector<std::string> vars = {"u", "v", "w"};
    for (int trial = 0; trial < 200; ++trial)
        randomExpr(rngA, vars, 5, false);
    size_t afterFirst = internTableSize();
    Rng rngB(123);
    for (int trial = 0; trial < 200; ++trial)
        randomExpr(rngB, vars, 5, false);
    EXPECT_EQ(internTableSize(), afterFirst);
}

} // namespace
} // namespace expr
} // namespace felix
