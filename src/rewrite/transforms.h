/**
 * @file
 * Gradient-stability rewrites (paper §3.3, "Gradient stability").
 *
 * Program features grow multiplicatively (float_add ~ N*M*K can hit
 * 1e9), which makes gradients vanish. Felix (1) takes the logarithm
 * of each smooth feature, structurally expanding log over products
 * where positivity is provable, and (2) substitutes x = e^y for each
 * schedule variable so the optimizer works in log space. Together
 * the two rewrites turn multiplicative formulas into additive ones
 * with linear growth. optim::objectiveOutputs composes them with the
 * smoothing rewriter into the objective gradient descent runs.
 */
#ifndef FELIX_REWRITE_TRANSFORMS_H_
#define FELIX_REWRITE_TRANSFORMS_H_

#include <string>
#include <vector>

#include "expr/expr.h"

namespace felix {
namespace rewrite {

/**
 * Conservative positivity analysis.
 *
 * Variables are treated as positive: every Felix schedule variable
 * is a size/factor with domain [1, N]. Constants, products,
 * quotients, mins/maxes/sums of positives, exp, sqrt and sigmoid of
 * anything positive, etc.
 */
bool provablyPositive(const expr::Expr &e);

/**
 * log(feature) of each of @p features, expanded structurally where
 * positivity allows:
 *   log(a*b) -> log a + log b        log(a/b) -> log a - log b
 *   log(a^b) -> b * log a            log(exp a) -> a
 *   log(sqrt a) -> log(a) / 2
 * Subterms that cannot be proven positive stay under a (safe) log.
 * All features share one expansion memo and one positivity memo,
 * so a shared subterm is analysed once; each result is the node a
 * separate call per feature returns.
 */
std::vector<expr::Expr> logExpand(const std::vector<expr::Expr> &features);

/** logExpand of a single feature. */
expr::Expr logExpand(const expr::Expr &feature);

/**
 * Exponential variable substitution x = e^y in each of @p roots,
 * through one memo (expr::substitute).
 *
 * Replaces every variable in @p vars by exp(var). Variable names are
 * kept; after this rewrite the optimizer's values are interpreted in
 * log space. When applied after logExpand, occurrences log(exp(v))
 * collapse to v, so tile-size products become sums of log variables.
 */
std::vector<expr::Expr>
expSubstituteVars(const std::vector<expr::Expr> &roots,
                  const std::vector<std::string> &vars);

/** expSubstituteVars of a single root. */
expr::Expr expSubstituteVars(const expr::Expr &root,
                             const std::vector<std::string> &vars);

} // namespace rewrite
} // namespace felix

#endif // FELIX_REWRITE_TRANSFORMS_H_
