#include "sketch/sampling.h"

#include <algorithm>
#include <cmath>

#include "expr/compiled.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace felix {
namespace sketch {

namespace {

/** Slack allowed on g(x) <= 0 for floating-point evaluation. */
constexpr double kFeasibleTol = 1e-6;

/** Draws sampleValid() rejects before falling back to all ones. */
constexpr int kMaxSampleTries = 64;

} // namespace

ConstraintChecker::ConstraintChecker(const SymbolicSchedule &sched)
    : sched_(sched)
{
    std::vector<std::string> names;
    names.reserve(sched.vars.size());
    for (const VarDomain &domain : sched.vars)
        names.push_back(domain.name);
    compiled_ = std::make_unique<expr::CompiledExprs>(
        sched.constraints, names);
}

bool
ConstraintChecker::feasible(const std::vector<double> &x) const
{
    return maxViolation(x) <= kFeasibleTol;
}

double
ConstraintChecker::maxViolation(const std::vector<double> &x) const
{
    if (sched_.constraints.empty())
        return 0.0;
    expr::EvalState state;
    std::vector<double> values = compiled_->eval(x, state);
    double worst = -1e300;
    for (double g : values)
        worst = std::max(worst, g);
    return worst;
}

namespace {

/** Snap a free (non-divisor) variable to its domain. */
double
roundFreeVar(const VarDomain &domain, double x)
{
    if (domain.powerOfTwo) {
        double lx = std::log2(std::max(x, 1.0));
        int64_t rounded = static_cast<int64_t>(1)
                          << static_cast<int>(std::nearbyint(
                                 std::max(0.0, lx)));
        return static_cast<double>(
            std::clamp(rounded, domain.lo, domain.hi));
    }
    return static_cast<double>(clampRound(x, domain.lo, domain.hi));
}

} // namespace

std::vector<double>
sampleValid(const SymbolicSchedule &sched, Rng &rng,
            const ConstraintChecker &checker)
{
    const size_t numVars = sched.vars.size();

    // Which variables belong to a split group?
    std::vector<int> groupOf(numVars, -1);
    for (size_t g = 0; g < sched.groups.size(); ++g) {
        for (int vi : sched.groups[g].varIndices)
            groupOf[vi] = static_cast<int>(g);
    }

    for (int attempt = 0; attempt < kMaxSampleTries; ++attempt) {
        std::vector<double> x(numVars, 1.0);
        // Tile factors: successive divisors of the remaining extent,
        // sampled uniformly in log space to cover the whole range.
        for (const SplitGroup &group : sched.groups) {
            int64_t remaining = group.extent;
            for (int vi : group.varIndices) {
                const VarDomain &domain = sched.vars[vi];
                int64_t cap = std::min(remaining, domain.hi);
                auto divisors = divisorsOf(remaining);
                // Restrict to divisors within the domain.
                std::vector<int64_t> valid;
                for (int64_t d : divisors) {
                    if (d >= domain.lo && d <= cap)
                        valid.push_back(d);
                }
                if (valid.empty())
                    valid.push_back(1);
                int64_t pick = valid[rng.index(valid.size())];
                x[vi] = static_cast<double>(pick);
                remaining /= pick;
            }
        }
        // Free variables (unroll steps, ...): log-uniform.
        for (size_t vi = 0; vi < numVars; ++vi) {
            if (groupOf[vi] >= 0)
                continue;
            const VarDomain &domain = sched.vars[vi];
            double lo = std::log(static_cast<double>(domain.lo));
            double hi = std::log(static_cast<double>(domain.hi));
            double value = std::exp(rng.uniform(lo, hi));
            x[vi] = roundFreeVar(domain, value);
        }
        if (checker.feasible(x))
            return x;
    }
    // The all-ones assignment is legal in every sketch (all factors
    // 1 => no-op transformations).
    return std::vector<double>(numVars, 1.0);
}

std::vector<double>
sampleValid(const SymbolicSchedule &sched, Rng &rng)
{
    return sampleValid(sched, rng, ConstraintChecker(sched));
}

std::optional<std::vector<double>>
roundToValid(const SymbolicSchedule &sched, const std::vector<double> &y,
             const ConstraintChecker &checker)
{
    FELIX_CHECK(y.size() == sched.vars.size(),
                "roundToValid: wrong variable count");
    const size_t numVars = sched.vars.size();
    std::vector<double> x(numVars, 1.0);
    std::vector<bool> assigned(numVars, false);

    // Tile factors: greedy sequential snapping to divisors of the
    // remaining extent, nearest in log space. By construction the
    // product of the group's factors divides the extent.
    for (const SplitGroup &group : sched.groups) {
        int64_t remaining = group.extent;
        for (int vi : group.varIndices) {
            const VarDomain &domain = sched.vars[vi];
            double target = std::exp(y[vi]);
            target = std::min(
                target, static_cast<double>(
                            std::min(remaining, domain.hi)));
            int64_t snapped = nearestDivisorLog(remaining, target);
            snapped = std::clamp(snapped, domain.lo,
                                 std::min(remaining, domain.hi));
            // The clamp can land off a divisor; re-snap within range.
            if (remaining % snapped != 0) {
                snapped = nearestDivisorLog(
                    remaining, static_cast<double>(snapped));
            }
            x[vi] = static_cast<double>(snapped);
            remaining /= snapped;
            assigned[vi] = true;
        }
    }
    for (size_t vi = 0; vi < numVars; ++vi) {
        if (!assigned[vi])
            x[vi] = roundFreeVar(sched.vars[vi], std::exp(y[vi]));
    }

    if (!checker.feasible(x))
        return std::nullopt;
    return x;
}

bool
isValidAssignment(const SymbolicSchedule &sched,
                  const std::vector<double> &x,
                  const ConstraintChecker &checker)
{
    if (x.size() != sched.vars.size())
        return false;
    for (size_t vi = 0; vi < x.size(); ++vi) {
        const VarDomain &domain = sched.vars[vi];
        double value = x[vi];
        if (value != std::floor(value))
            return false;
        if (value < static_cast<double>(domain.lo) ||
            value > static_cast<double>(domain.hi)) {
            return false;
        }
    }
    for (const SplitGroup &group : sched.groups) {
        int64_t product = 1;
        for (int vi : group.varIndices)
            product *= static_cast<int64_t>(x[vi]);
        if (product <= 0 || group.extent % product != 0)
            return false;
    }
    return checker.feasible(x);
}

bool
isValidAssignment(const SymbolicSchedule &sched,
                  const std::vector<double> &x)
{
    return isValidAssignment(sched, x, ConstraintChecker(sched));
}

} // namespace sketch
} // namespace felix
