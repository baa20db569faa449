#include "optim/adam.h"

#include <cmath>

#include "simd/kernels.h"
#include "support/logging.h"

namespace felix {
namespace optim {

Adam::Adam(size_t size, AdamConfig config)
    : config_(config), m_(size, 0.0), v_(size, 0.0)
{
}

void
Adam::step(std::vector<double> &x, const std::vector<double> &grad)
{
    FELIX_CHECK(x.size() == m_.size() && grad.size() == m_.size(),
                "Adam: size mismatch");
    ++t_;
    const double corr1 = 1.0 - std::pow(config_.beta1, t_);
    const double corr2 = 1.0 - std::pow(config_.beta2, t_);
    // Each element's update is independent and the kernel keeps the
    // exact scalar operation order, so every SIMD backend produces
    // bit-identical parameters (tests/test_simd.cc).
    simd::activeKernels().adamStep(x.data(), grad.data(), m_.data(),
                                   v_.data(), x.size(), config_.beta1,
                                   config_.beta2, corr1, corr2,
                                   config_.lr, config_.eps);
}

} // namespace optim
} // namespace felix
