/**
 * @file
 * Finite-difference gradient checking.
 *
 * Test support: validates that the reverse-mode tape (the batched
 * sweep descent runs, at width 1) and the symbolic derivatives agree
 * with central differences on smooth expressions.
 */
#ifndef FELIX_AUTODIFF_GRADCHECK_H_
#define FELIX_AUTODIFF_GRADCHECK_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"

namespace felix {
namespace autodiff {

/** Result of a gradient comparison at one point. */
struct GradCheckResult
{
    bool passed = false;
    double maxAbsError = 0.0;   ///< max |analytic - numeric|
    double maxRelError = 0.0;   ///< relative to max(|analytic|,1)
    std::string worstVar;       ///< variable with the largest error
};

/**
 * Compare reverse-mode gradients of @p root against central
 * differences at @p point.
 *
 * @param step Central-difference step size.
 * @param tol  Pass threshold on the relative error.
 */
GradCheckResult checkGradients(
    const expr::Expr &root,
    const std::unordered_map<std::string, double> &point,
    double step = 1e-5, double tol = 1e-4);

/** Central-difference gradient of @p root at @p point. */
std::unordered_map<std::string, double> numericGradient(
    const expr::Expr &root,
    const std::unordered_map<std::string, double> &point,
    double step = 1e-5);

} // namespace autodiff
} // namespace felix

#endif // FELIX_AUTODIFF_GRADCHECK_H_
