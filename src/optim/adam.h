/**
 * @file
 * Adam optimizer over a flat variable vector (Kingma & Ba), as used
 * by Algorithm 1 to minimize the subgraph objective.
 */
#ifndef FELIX_OPTIM_ADAM_H_
#define FELIX_OPTIM_ADAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace felix {
namespace optim {

/** Adam hyperparameters. */
struct AdamConfig
{
    double lr = 0.05;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
};

/** Stateful Adam for one variable vector. */
class Adam
{
  public:
    Adam(size_t size, AdamConfig config = {});

    /** One minimization step: x -= update(grad). */
    void step(std::vector<double> &x, const std::vector<double> &grad);

  private:
    AdamConfig config_;
    std::vector<double> m_, v_;
    int64_t t_ = 0;
};

} // namespace optim
} // namespace felix

#endif // FELIX_OPTIM_ADAM_H_
