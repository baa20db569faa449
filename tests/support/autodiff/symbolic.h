/**
 * @file
 * Symbolic differentiation of expression DAGs.
 *
 * The production gradient path in Felix is the reverse-mode tape in
 * expr::CompiledExprs (numeric adjoints, like PyTorch autograd).
 * This test-support module provides *symbolic* derivatives — an
 * Expr for d(root)/d(var) — which the tests use to cross-check the
 * tape.
 */
#ifndef FELIX_AUTODIFF_SYMBOLIC_H_
#define FELIX_AUTODIFF_SYMBOLIC_H_

#include <string>

#include "expr/expr.h"

namespace felix {
namespace autodiff {

/**
 * Symbolic derivative of @p root with respect to variable @p var.
 *
 * Non-differentiable ops use the same subgradient conventions as the
 * reverse-mode tape: min/max/select differentiate through the active
 * branch (as a select expression), comparisons and floor have zero
 * derivative, abs differentiates to sign.
 */
expr::Expr derivative(const expr::Expr &root, const std::string &var);

} // namespace autodiff
} // namespace felix

#endif // FELIX_AUTODIFF_SYMBOLIC_H_
