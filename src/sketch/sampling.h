/**
 * @file
 * Sampling, rounding and validation of schedule-variable values.
 *
 * Three pieces of Algorithm 1 live here:
 *  - RandomInitSchedVars: rejection sampling of valid concrete
 *    assignments to seed gradient descent;
 *  - rounding of relaxed (log-space) values back to valid integers,
 *    snapping tile factors to divisors of the loop extent nearest in
 *    log space (paper §3.3, divisibility constraints);
 *  - GetValidSchedules' validity check: domains, divisibility, and
 *    every legality constraint g(x) <= 0.
 */
#ifndef FELIX_SKETCH_SAMPLING_H_
#define FELIX_SKETCH_SAMPLING_H_

#include <memory>
#include <optional>
#include <vector>

#include "expr/compiled.h"
#include "sketch/sketch.h"
#include "support/rng.h"

namespace felix {
namespace sketch {

/**
 * Evaluates a symbolic schedule's constraints at concrete values.
 * Compiles the constraint expressions once; reusable across calls
 * and safely shareable across pool workers (evaluation scratch is
 * per-call). The owner of a sketch builds one and passes it to
 * every sampling, rounding and validity call below.
 */
class ConstraintChecker
{
  public:
    explicit ConstraintChecker(const SymbolicSchedule &sched);

    /** All g_i(x) <= 1e-6? (x-space values, one per variable) */
    bool feasible(const std::vector<double> &x) const;

    /** Largest constraint violation max_i g_i(x) (<= 0 = feasible). */
    double maxViolation(const std::vector<double> &x) const;

  private:
    const SymbolicSchedule &sched_;
    std::unique_ptr<expr::CompiledExprs> compiled_;
};

/**
 * Sample one valid x-space assignment by construction: tile factors
 * are drawn as successive divisors of the remaining extent, free
 * variables uniformly (log-scaled) from their domain; resource
 * constraints are enforced by rejection against @p checker, which
 * must be compiled for @p sched.
 *
 * After 64 rejected draws the all-ones assignment, which is always
 * legal, is returned instead.
 */
std::vector<double> sampleValid(const SymbolicSchedule &sched, Rng &rng,
                                const ConstraintChecker &checker);

/** As above, compiling a throwaway checker for this one call. */
std::vector<double> sampleValid(const SymbolicSchedule &sched,
                                Rng &rng);

/**
 * Round relaxed log-space values y (the optimizer's iterate) to a
 * valid integer x-space assignment, or nullopt when the rounded
 * point violates a resource constraint of @p checker (compiled for
 * @p sched).
 */
std::optional<std::vector<double>> roundToValid(
    const SymbolicSchedule &sched, const std::vector<double> &y,
    const ConstraintChecker &checker);

/** Exact validity of an integer x-space assignment: domains,
 *  divisibility, and every constraint of @p checker (compiled for
 *  @p sched). */
bool isValidAssignment(const SymbolicSchedule &sched,
                       const std::vector<double> &x,
                       const ConstraintChecker &checker);

/** As above, compiling a throwaway checker for this one call. */
bool isValidAssignment(const SymbolicSchedule &sched,
                       const std::vector<double> &x);

} // namespace sketch
} // namespace felix

#endif // FELIX_SKETCH_SAMPLING_H_
