/**
 * @file
 * Multi-layer perceptron with Adam training.
 *
 * The paper uses TenSet's MLP cost model (4 linear layers) trained
 * with PyTorch; this is a from-scratch C++ equivalent. Beyond the
 * usual parameter gradients it exposes the *input* gradient — the
 * quantity Felix back-propagates into the differentiable feature
 * formulas during schedule search.
 *
 * Inference, the input gradient and training all run on the batched
 * SIMD layer kernels (src/simd/), one point or sample per lane. Each
 * lane reproduces the per-sample forward and backward pass bit for
 * bit; that pass lives on only as a test reference
 * (tests/support/mlp_reference.h), which the parity tests compare
 * every backend against.
 *
 * The default layer sizes are smaller than TenSet's ~250K-parameter
 * network because training here runs on one CPU core; DESIGN.md
 * documents the substitution.
 */
#ifndef FELIX_COSTMODEL_MLP_H_
#define FELIX_COSTMODEL_MLP_H_

#include <iosfwd>
#include <optional>
#include <vector>

#include "support/aligned.h"
#include "support/batch.h"
#include "support/rng.h"

namespace felix {
namespace costmodel {

/**
 * Scratch for the batched entry points: one row of kBatchLanes
 * doubles per neuron, lane-major within the row. Rows are
 * cache-line-aligned so every SIMD backend's loads and stores stay
 * within one line (support/aligned.h).
 */
struct MlpBatchScratch
{
    std::vector<AlignedRows> acts;  ///< per-layer activations
    AlignedRows adj, prev;
    AlignedRows madj;  ///< ReLU-masked adjoint rows
};

/** MLP shape: sizes of every layer including input and output. */
struct MlpConfig
{
    std::vector<int> layerSizes = {82, 128, 128, 64, 1};
    double adamBeta1 = 0.9;
    double adamBeta2 = 0.999;
    double adamEps = 1e-8;
};

/**
 * Fully connected ReLU network with a linear head.
 *
 * forwardBatch() and forwardInputGradStaged() are const and safe to
 * call from many threads at once, one scratch per thread.
 * trainBatch() mutates parameters (not reentrant)
 * but internally runs on the batched layer kernels in two parallel
 * phases over the global pool — fixed 16-sample chunks, then blocks
 * of output rows reduced in chunk order — so training results are
 * identical for any --jobs value and any SIMD backend.
 */
class Mlp
{
  public:
    Mlp(MlpConfig config, Rng &rng);

    int inputSize() const { return config_.layerSizes.front(); }
    size_t parameterCount() const;

    /**
     * Evaluate @p width points (1..kBatchLanes) in lockstep. All
     * buffers are SoA rows of kBatchLanes doubles:
     * x[i * kBatchLanes + lane] is feature i of point `lane`, y is
     * one row of scores. Lanes are fully independent (the ReLU gates
     * are per lane), so each of the first @p width lanes scores
     * bit-identically to the per-sample pass on that point, whatever
     * the other lanes hold. The kernels sweep only the vector chunks
     * that hold those lanes; y is written for them alone.
     */
    void forwardBatch(const double *x, size_t width, double *y,
                      MlpBatchScratch &scratch) const;

    // ----- Staged input gradient (costmodel/fused.h) -------------
    //
    // The fused surrogate step writes features straight into the
    // network's input rows and reads the input gradient straight out
    // of the adjoint rows, so neither is copied:
    //
    //   stageInputRows(scratch)        // fill inputSize() rows
    //   forwardInputGradStaged(...)    // scores + input gradient
    //   inputGradRows(scratch)         // read inputSize() rows

    /** The input rows (inputSize() x kBatchLanes) to fill before
     *  forwardInputGradStaged(). Sized on first use. */
    double *stageInputRows(MlpBatchScratch &scratch) const;

    /** Batched forward plus input gradient over the first @p width
     *  lanes (1..kBatchLanes), reading inputs from stageInputRows()
     *  and leaving d(score)/d(input) rows in @p scratch (read them
     *  via inputGradRows()). y is one row of scores. Per lane
     *  bit-identical to the per-sample backward pass seeded with 1
     *  on the score. */
    void forwardInputGradStaged(size_t width, double *y,
                                MlpBatchScratch &scratch) const;

    /** Input-gradient rows left by forwardInputGradStaged(); valid
     *  until the next call on @p scratch. */
    const double *inputGradRows(const MlpBatchScratch &scratch) const
    {
        return scratch.adj.data();
    }

    /**
     * One Adam step on a mini-batch with MSE loss.
     * @return the batch mean squared error before the update.
     */
    double trainBatch(const std::vector<std::vector<double>> &xs,
                      const std::vector<double> &ys, double lr);

    void save(std::ostream &os) const;
    static Mlp load(std::istream &is);

    /**
     * Full-state serialization: weights and biases plus the Adam
     * moments and step counter, so a loaded network continues
     * training bit-identically to one that never stopped. save()
     * (inference-only) stays the pretrained-cache format; this is
     * the checkpoint format (docs/distributed.md).
     */
    void saveFull(std::ostream &os) const;
    static Mlp loadFull(std::istream &is);

  private:
    friend class CostModel;

    explicit Mlp(MlpConfig config);

    /**
     * Parse save() text, followed by the Adam state when @p full
     * (saveFull()). The declared shape is bounded before anything is
     * allocated; malformed or truncated input yields nullopt.
     */
    static std::optional<Mlp> read(std::istream &is, bool full);

    struct Layer
    {
        int in = 0, out = 0;
        std::vector<double> weight;   ///< out x in, row-major
        std::vector<double> bias;     ///< out
        /** in x out, row-major: weight transposed, which the batched
         *  input gradient runs the forward kernel over. Refreshed
         *  wherever weight changes (transposeRows). */
        AlignedRows weightT;
        // Adam state
        std::vector<double> mWeight, vWeight, mBias, vBias;

        /** Copy weight rows [begin, end) into weightT, one input row
         *  of weightT at a time. */
        void transposeRows(int begin, int end);
    };

    /** Refresh every layer's weightT from its weights. */
    void transposeAll();

    /** The batched forward over stageInputRows(), keeping every
     *  layer's activations in @p scratch; y is one row of scores. */
    void forwardStaged(size_t width, double *y,
                       MlpBatchScratch &scratch) const;

    static void forwardLayerBatch(const Layer &layer, bool hidden,
                                  const AlignedRows &cur,
                                  AlignedRows &out, size_t width);

    /** prev = the input gradient of @p layer given its masked
     *  adjoint rows: the forward kernel over weightT, zero bias. */
    void inputGradLayerBatch(const Layer &layer,
                             const AlignedRows &madj,
                             AlignedRows &prev, size_t width) const;

    MlpConfig config_;
    std::vector<Layer> layers_;
    std::vector<double> zeroBias_;  ///< widest layer input, all +0.0
    int64_t adamStep_ = 0;
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_MLP_H_
