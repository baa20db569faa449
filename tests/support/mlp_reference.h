/**
 * @file
 * The scalar MLP the batched Mlp kernels reproduce lane by lane,
 * kept as the reference the parity tests compare every backend
 * against (tests/test_tape.cc, tests/test_simd.cc): one per-sample
 * forward pass and one per-sample backward pass, which score a point,
 * take its input gradient, and train — gradients summed per
 * 16-sample chunk and then in chunk order, then one Adam step. It
 * reads and writes the Mlp::saveFull text format, so the production
 * class needs no accessor for it.
 */
#ifndef FELIX_TESTS_MLP_REFERENCE_H_
#define FELIX_TESTS_MLP_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace felix {
namespace reference {

class ReferenceMlp
{
  public:
    /** Parse the output of Mlp::saveFull (throws on malformed text). */
    explicit ReferenceMlp(const std::string &full_text);

    /** The network's output at @p x. */
    double forward(const std::vector<double> &x) const;

    /** The output at @p x, and d(output)/d(x) in @p dx. */
    double forwardInputGrad(const std::vector<double> &x,
                            std::vector<double> &dx) const;

    /**
     * One Adam step on a mini-batch with MSE loss, in the original
     * scalar operation order.
     * @return the batch mean squared error before the update.
     */
    double trainBatch(const std::vector<std::vector<double>> &xs,
                      const std::vector<double> &ys, double lr);

    /** The network and Adam state in Mlp::saveFull format. */
    std::string saveFull() const;

  private:
    struct Layer
    {
        int in = 0, out = 0;
        std::vector<double> weight;   ///< out x in, row-major
        std::vector<double> bias;
        std::vector<double> mWeight, vWeight, mBias, vBias;
    };

    /** The per-sample forward pass: acts[0] = x, then every layer's
     *  activations. Returns the output. */
    double forwardPass(const std::vector<double> &x,
                       std::vector<std::vector<double>> &acts) const;

    /** The per-sample backward pass over forwardPass()'s @p acts,
     *  seeded with @p seed on the output: returns d(seed * output)/dx
     *  and, when @p gWeight is given, adds the weight and bias
     *  gradients into @p gWeight and @p gBias. */
    std::vector<double> backwardPass(
        const std::vector<std::vector<double>> &acts, double seed,
        std::vector<std::vector<double>> *gWeight,
        std::vector<std::vector<double>> *gBias) const;

    std::vector<int> sizes_;
    std::vector<Layer> layers_;
    int64_t adamStep_ = 0;
};

} // namespace reference
} // namespace felix

#endif // FELIX_TESTS_MLP_REFERENCE_H_
