/**
 * @file
 * The scalar MLP trainer Mlp::trainBatch used to be, kept as the
 * reference the SIMD parity matrix compares the production trainer
 * against (tests/test_simd.cc): per-sample forward and backward,
 * gradients summed per 16-sample chunk and then in chunk order, then
 * one Adam step. It reads and writes the Mlp::saveFull text format,
 * so the production class needs no accessor for it.
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

    std::vector<int> sizes_;
    std::vector<Layer> layers_;
    int64_t adamStep_ = 0;
};

} // namespace reference
} // namespace felix

#endif // FELIX_TESTS_MLP_REFERENCE_H_
