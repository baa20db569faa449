#include "autodiff/gradcheck.h"

#include <cmath>

#include "expr/compiled.h"
#include "support/logging.h"
#include "tape_reference.h"

namespace felix {
namespace autodiff {

using expr::CompiledExprs;
using expr::Expr;

std::unordered_map<std::string, double>
numericGradient(const Expr &root,
                const std::unordered_map<std::string, double> &point,
                double step)
{
    CompiledExprs compiled({root});
    std::vector<double> x;
    for (const std::string &name : compiled.varNames()) {
        auto it = point.find(name);
        FELIX_CHECK(it != point.end(), "missing value for ", name);
        x.push_back(it->second);
    }
    std::unordered_map<std::string, double> grads;
    expr::EvalState state;
    for (size_t i = 0; i < x.size(); ++i) {
        std::vector<double> hi = x, lo = x;
        hi[i] += step;
        lo[i] -= step;
        double fHi = compiled.eval(hi, state)[0];
        double fLo = compiled.eval(lo, state)[0];
        grads[compiled.varNames()[i]] = (fHi - fLo) / (2.0 * step);
    }
    return grads;
}

GradCheckResult
checkGradients(const Expr &root,
               const std::unordered_map<std::string, double> &point,
               double step, double tol)
{
    CompiledExprs compiled({root});
    std::vector<double> x;
    for (const std::string &name : compiled.varNames()) {
        auto it = point.find(name);
        FELIX_CHECK(it != point.end(), "missing value for ", name);
        x.push_back(it->second);
    }
    std::vector<double> analytic = expr::batchGradient(compiled, x, {1.0});

    auto numeric = numericGradient(root, point, step);

    GradCheckResult result;
    result.passed = true;
    for (size_t i = 0; i < compiled.numVars(); ++i) {
        const std::string &name = compiled.varNames()[i];
        double absErr = std::abs(analytic[i] - numeric.at(name));
        double scale = std::max(std::abs(analytic[i]), 1.0);
        double relErr = absErr / scale;
        if (absErr > result.maxAbsError)
            result.maxAbsError = absErr;
        if (relErr > result.maxRelError) {
            result.maxRelError = relErr;
            result.worstVar = name;
        }
    }
    result.passed = result.maxRelError <= tol;
    return result;
}

} // namespace autodiff
} // namespace felix
