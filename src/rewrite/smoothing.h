/**
 * @file
 * Smoothing rewriter: differentiable approximations of
 * non-differentiable operators (paper §3.3).
 *
 * Feature formulas extracted from symbolic programs contain
 * select / min / max / abs / floor, which are discontinuous or have
 * kinks. Felix convolves each such operator with a smoothing kernel
 * phi to obtain an infinitely differentiable approximation, then
 * rewrites whole formulas bottom-up with a library of rules — one
 * per non-differentiable operator.
 *
 * The paper's kernel is the algebraic phi(t) = 1/sqrt(1+t^2), chosen
 * for numerically stable (heavy-tailed) gradients; Gaussian and bump
 * kernels are provided for the ablation bench.
 *
 * Closed forms used (algebraic kernel):
 *   step(x)  ~ S(x)        = (1 + x/sqrt(1+x^2)) / 2
 *   max(x,0) ~ M0(x)       = (x + sqrt(1+x^2)) / 2      (M0' = S)
 *   max(a,b) = b + M0(a-b),  min(a,b) = a - M0(a-b)
 *   select(c >= 0, p, q) ~ q + (p-q) * S(c)
 *   |x| ~ x^2 / sqrt(1+x^2)
 *   floor(x) ~ x - 1/2     (linear drift; exact in expectation)
 */
#ifndef FELIX_REWRITE_SMOOTHING_H_
#define FELIX_REWRITE_SMOOTHING_H_

#include <vector>

#include "expr/expr.h"

namespace felix {
namespace rewrite {

/** Smoothing kernel family (ablation: Gaussian / bump vs default). */
enum class Kernel {
    Algebraic,   ///< phi(t) = 1/sqrt(1+t^2): the paper's choice
    Gaussian,    ///< phi(t) = exp(-t^2/2)
    Bump,        ///< phi(t) = 1/(1+t^2) (Cauchy-like bump)
};

const char *kernelName(Kernel kernel);

/** Smooth step S(x): 0 at -inf, 1 at +inf, S(0) = 1/2. */
expr::Expr smoothStep(const expr::Expr &x, Kernel kernel);

/** Smooth approximation of max(x, 0). */
expr::Expr smoothMax0(const expr::Expr &x, Kernel kernel);

/** Smooth max(a, b) = b + smoothMax0(a - b). */
expr::Expr smoothMax(const expr::Expr &a, const expr::Expr &b,
                     Kernel kernel);

/** Smooth min(a, b) = a - smoothMax0(a - b). */
expr::Expr smoothMin(const expr::Expr &a, const expr::Expr &b,
                     Kernel kernel);

/** Smooth |x|. */
expr::Expr smoothAbs(const expr::Expr &x, Kernel kernel);

/**
 * Rewrite each of @p roots bottom-up, replacing every
 * non-differentiable operator (Min, Max, Abs, Floor,
 * Select-with-comparison-condition, bare comparisons) with its
 * smooth version. The results contain only differentiable opcodes;
 * expressions that are already smooth are returned unchanged (same
 * interned node).
 *
 * All roots share one memo, so a subterm they share is rewritten
 * once, as an e-graph would store it once. The rewrite of a node is
 * a pure function of that interned node, so each result is the node
 * a separate call per root returns.
 */
std::vector<expr::Expr> makeSmooth(const std::vector<expr::Expr> &roots,
                                   Kernel kernel = Kernel::Algebraic);

/** makeSmooth of a single root. */
expr::Expr makeSmooth(const expr::Expr &root,
                      Kernel kernel = Kernel::Algebraic);

/** True when no node under @p root is non-differentiable. */
bool isSmooth(const expr::Expr &root);

} // namespace rewrite
} // namespace felix

#endif // FELIX_REWRITE_SMOOTHING_H_
