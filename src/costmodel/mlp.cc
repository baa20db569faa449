#include "costmodel/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "obs/metrics.h"
#include "simd/kernels.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace costmodel {

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    FELIX_CHECK(config_.layerSizes.size() >= 2,
                "MLP needs at least input and output layers");
    FELIX_CHECK(config_.layerSizes.back() == 1,
                "cost model MLP has a scalar output");
    for (size_t i = 0; i + 1 < config_.layerSizes.size(); ++i) {
        Layer layer;
        layer.in = config_.layerSizes[i];
        layer.out = config_.layerSizes[i + 1];
        layer.weight.assign(
            static_cast<size_t>(layer.in) * layer.out, 0.0);
        layer.weightT.assign(layer.weight.size(), 0.0);
        layer.bias.assign(layer.out, 0.0);
        layer.mWeight.assign(layer.weight.size(), 0.0);
        layer.vWeight.assign(layer.weight.size(), 0.0);
        layer.mBias.assign(layer.bias.size(), 0.0);
        layer.vBias.assign(layer.bias.size(), 0.0);
        zeroBias_.resize(
            std::max(zeroBias_.size(), static_cast<size_t>(layer.in)),
            0.0);
        layers_.push_back(std::move(layer));
    }
}

Mlp::Mlp(MlpConfig config, Rng &rng) : Mlp(std::move(config))
{
    // He initialization for the ReLU hidden layers.
    for (Layer &layer : layers_) {
        double scale = std::sqrt(2.0 / layer.in);
        for (double &w : layer.weight)
            w = rng.normal(0.0, scale);
    }
    transposeAll();
}

void
Mlp::Layer::transposeRows(int begin, int end)
{
    const size_t inz = static_cast<size_t>(in);
    const size_t outz = static_cast<size_t>(out);
    for (size_t i = 0; i < inz; ++i)
        for (size_t o = static_cast<size_t>(begin);
             o < static_cast<size_t>(end); ++o)
            weightT[i * outz + o] = weight[o * inz + i];
}

void
Mlp::transposeAll()
{
    for (Layer &layer : layers_)
        layer.transposeRows(0, layer.out);
}

size_t
Mlp::parameterCount() const
{
    size_t count = 0;
    for (const Layer &layer : layers_)
        count += layer.weight.size() + layer.bias.size();
    return count;
}

void
Mlp::forwardLayerBatch(const Layer &layer, bool hidden,
                       const AlignedRows &cur, AlignedRows &out,
                       size_t width)
{
    // The blocked kernel (four neurons share each input-row load;
    // per lane the accumulation order stays bias first, then inputs
    // 0..in-1, so per lane the result is bit-identical to the
    // per-sample pass) lives in src/simd/kernels_impl.h, compiled
    // per SIMD backend and dispatched at runtime.
    out.resize(static_cast<size_t>(layer.out) * kBatchLanes);
    simd::activeKernels().mlpForwardLayer(
        layer.weight.data(), layer.bias.data(), layer.in, layer.out,
        hidden, cur.data(), out.data(), width);
}

void
Mlp::inputGradLayerBatch(const Layer &layer, const AlignedRows &madj,
                         AlignedRows &prev, size_t width) const
{
    // The input gradient of a layer is a layer itself: prev = W^T
    // madj, the forward kernel over the transposed weights with a
    // zero bias. Per lane it adds w[o][i] * madj[o] in ascending o
    // from +0.0 — the per-sample backward's order, and
    // multiplication commutes. The per-sample pass skips a neuron
    // whose gate is closed;
    // here its masked adjoint is an exact 0.0, so it adds +/-0.0
    // (finite weights) to an accumulator that can never hold -0.0
    // (IEEE addition yields -0.0 only for (-0)+(-0), and the
    // accumulator starts at +0.0): adding it never changes a bit.
    prev.resize(static_cast<size_t>(layer.in) * kBatchLanes);
    simd::activeKernels().mlpForwardLayer(
        layer.weightT.data(), zeroBias_.data(), layer.out, layer.in,
        /*hidden=*/false, madj.data(), prev.data(), width);
}

double *
Mlp::stageInputRows(MlpBatchScratch &scratch) const
{
    scratch.acts.resize(layers_.size() + 1);
    scratch.acts[0].resize(static_cast<size_t>(inputSize()) *
                           kBatchLanes);
    return scratch.acts[0].data();
}

void
Mlp::forwardStaged(size_t width, double *y,
                   MlpBatchScratch &scratch) const
{
    FELIX_CHECK(width >= 1 && width <= kBatchLanes, "MLP batch width ",
                width, " out of [1, ", kBatchLanes, "]");
    std::vector<AlignedRows> &acts = scratch.acts;
    for (size_t li = 0; li < layers_.size(); ++li)
        forwardLayerBatch(layers_[li], li + 1 < layers_.size(),
                          acts[li], acts[li + 1], width);
    for (size_t l = 0; l < width; ++l)
        y[l] = acts.back()[l];
}

void
Mlp::forwardBatch(const double *x, size_t width, double *y,
                  MlpBatchScratch &scratch) const
{
    double *rows = stageInputRows(scratch);
    std::copy(x, x + static_cast<size_t>(inputSize()) * kBatchLanes,
              rows);
    forwardStaged(width, y, scratch);
}

void
Mlp::forwardInputGradStaged(size_t width, double *y,
                            MlpBatchScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    forwardStaged(width, y, scratch);
    const std::vector<AlignedRows> &acts = scratch.acts;
    AlignedRows &adj = scratch.adj;
    AlignedRows &madj = scratch.madj;
    adj.assign(L, 1.0);
    const simd::KernelSet &kernels = simd::activeKernels();
    for (size_t li = layers_.size(); li-- > 0;) {
        const Layer &layer = layers_[li];
        // Mask first (madj = open gate ? adj : +0.0, BEFORE any
        // multiply), then the transposed layer; the argument that
        // this matches the scalar skip bit for bit is on
        // inputGradLayerBatch.
        madj.resize(static_cast<size_t>(layer.out) * L);
        kernels.mlpBackwardLayer(layer.out, li + 1 < layers_.size(),
                                 acts[li + 1].data(), adj.data(),
                                 madj.data(), width);
        inputGradLayerBatch(layer, madj, scratch.prev, width);
        adj.swap(scratch.prev);
    }
}

double
Mlp::trainBatch(const std::vector<std::vector<double>> &xs,
                const std::vector<double> &ys, double lr)
{
    FELIX_CHECK(!xs.empty() && xs.size() == ys.size(),
                "trainBatch: bad batch");
    for (const std::vector<double> &x : xs)
        FELIX_CHECK(static_cast<int>(x.size()) == inputSize(),
                    "trainBatch: wrong input size");
    {
        auto &registry = obs::MetricsRegistry::instance();
        registry.counter("costmodel.train_batches").add(1.0);
        registry.counter("costmodel.train_samples")
            .add(static_cast<double>(xs.size()));
    }
    constexpr size_t L = kBatchLanes;
    const size_t batch = xs.size();
    const size_t numLayers = layers_.size();
    const double invBatch = 1.0 / static_cast<double>(batch);

    // The gradient is summed over each chunk's samples in order, then
    // over the chunks in chunk order. kChunk fixes that summation
    // order, so it is 16 at every kBatchLanes (one tile at 16 lanes,
    // two at 8, half of one at 32) and the chunk boundaries never
    // depend on --jobs: training is bit-identical at any pool size.
    constexpr size_t kChunk = 16;
    const size_t numChunks = (batch + kChunk - 1) / kChunk;

    // What phase 2 needs from a chunk, per layer: the masked adjoint
    // rows (out x kChunk, samples in order) and the layer inputs
    // lane-major (kChunk x in).
    std::vector<size_t> adjAt(numLayers), inAt(numLayers);
    size_t chunkDoubles = 0;
    for (size_t li = 0; li < numLayers; ++li) {
        adjAt[li] = chunkDoubles;
        chunkDoubles += static_cast<size_t>(layers_[li].out) * kChunk;
        inAt[li] = chunkDoubles;
        chunkDoubles += static_cast<size_t>(layers_[li].in) * kChunk;
    }
    std::vector<double> record(numChunks * chunkDoubles);
    std::vector<double> chunkLoss(numChunks);

    // Phase 1, one item per chunk: the batched layer kernels over SoA
    // tiles whose lanes are samples, swept over the chunks that hold
    // the tile's samples. Spare lanes hold zero inputs and a zero
    // adjoint, and are not recorded. Per lane every sweep is the
    // scalar per-sample sequence; the input gradients run on the
    // cached transposed weights (inputGradLayerBatch), and nothing
    // reads layer 0's.
    parallelForChunks(
        "costmodel.train_chunk", batch, kChunk,
        [&](size_t begin, size_t end) {
            const size_t chunk = begin / kChunk;
            double *rec = record.data() + chunk * chunkDoubles;
            MlpBatchScratch tile;
            std::vector<AlignedRows> &acts = tile.acts;
            acts.resize(numLayers + 1);
            double loss = 0.0;
            for (size_t first = begin; first < end; first += L) {
                const size_t lanes = std::min(L, end - first);
                const size_t at = first - begin;   // chunk position
                acts[0].assign(static_cast<size_t>(inputSize()) * L,
                               0.0);
                for (size_t l = 0; l < lanes; ++l)
                    for (int i = 0; i < inputSize(); ++i)
                        acts[0][static_cast<size_t>(i) * L + l] =
                            xs[first + l][static_cast<size_t>(i)];
                for (size_t li = 0; li < numLayers; ++li)
                    forwardLayerBatch(layers_[li], li + 1 < numLayers,
                                      acts[li], acts[li + 1], lanes);

                // Head adjoint d(loss)/d(prediction) = 2 err / B.
                tile.adj.assign(L, 0.0);
                for (size_t l = 0; l < lanes; ++l) {
                    const double err = acts.back()[l] - ys[first + l];
                    loss += err * err;
                    tile.adj[l] = 2.0 * err * invBatch;
                }
                const simd::KernelSet &kernels = simd::activeKernels();
                for (size_t li = numLayers; li-- > 0;) {
                    const Layer &layer = layers_[li];
                    const size_t in = static_cast<size_t>(layer.in);
                    const size_t out = static_cast<size_t>(layer.out);
                    // madj = open gate ? adj : +0.0.
                    tile.madj.resize(out * L);
                    kernels.mlpBackwardLayer(
                        layer.out, li + 1 < numLayers,
                        acts[li + 1].data(), tile.adj.data(),
                        tile.madj.data(), lanes);
                    double *adjRec = rec + adjAt[li] + at;
                    for (size_t o = 0; o < out; ++o)
                        for (size_t l = 0; l < lanes; ++l)
                            adjRec[o * kChunk + l] =
                                tile.madj[o * L + l];
                    double *inRec = rec + inAt[li] + at * in;
                    for (size_t i = 0; i < in; ++i)
                        for (size_t l = 0; l < lanes; ++l)
                            inRec[l * in + i] = acts[li][i * L + l];
                    if (li == 0)
                        break;
                    inputGradLayerBatch(layer, tile.madj, tile.prev,
                                        lanes);
                    tile.adj.swap(tile.prev);
                }
            }
            chunkLoss[chunk] = loss;
        });

    // Phase 2, one item per (layer, block of output rows): sum the
    // rows' gradient over the chunks in chunk order into a zero total
    // (mlpWeightGrad), apply Adam to those rows, and refresh their
    // columns of the transposed copy. Every parameter is independent
    // here, so the blocking changes no bit.
    constexpr int kRowBlock = 32;
    struct RowBlock
    {
        size_t layer;
        int begin, end;
    };
    std::vector<RowBlock> blocks;
    for (size_t li = 0; li < numLayers; ++li)
        for (int r = 0; r < layers_[li].out; r += kRowBlock)
            blocks.push_back(
                {li, r, std::min(layers_[li].out, r + kRowBlock)});

    ++adamStep_;
    const double b1 = config_.adamBeta1, b2 = config_.adamBeta2;
    const double corr1 = 1.0 - std::pow(b1, adamStep_);
    const double corr2 = 1.0 - std::pow(b2, adamStep_);
    parallelFor("costmodel.train_update", blocks.size(), [&](size_t k) {
        const RowBlock &block = blocks[k];
        Layer &layer = layers_[block.layer];
        const size_t rows = static_cast<size_t>(block.end - block.begin);
        const size_t row0 = static_cast<size_t>(block.begin);
        const size_t in = static_cast<size_t>(layer.in);
        std::vector<double> gWeight(rows * in, 0.0), gBias(rows, 0.0);
        const simd::KernelSet &kernels = simd::activeKernels();
        for (size_t chunk = 0; chunk < numChunks; ++chunk) {
            const double *rec = record.data() + chunk * chunkDoubles;
            const size_t n = std::min(kChunk, batch - chunk * kChunk);
            kernels.mlpWeightGrad(rec + adjAt[block.layer] + row0 * kChunk,
                                  kChunk, rec + inAt[block.layer],
                                  layer.in, static_cast<int>(rows),
                                  static_cast<int>(n), gWeight.data(),
                                  gBias.data());
        }
        // Element-wise in the exact scalar operation order, so any
        // backend and any row range is bit-identical.
        kernels.adamStep(layer.weight.data() + row0 * in, gWeight.data(),
                         layer.mWeight.data() + row0 * in,
                         layer.vWeight.data() + row0 * in, gWeight.size(),
                         b1, b2, corr1, corr2, lr, config_.adamEps);
        kernels.adamStep(layer.bias.data() + row0, gBias.data(),
                         layer.mBias.data() + row0,
                         layer.vBias.data() + row0, rows, b1, b2, corr1,
                         corr2, lr, config_.adamEps);
        // Row by row of the copy, so the item writes only its own
        // kRowBlock-column span of each: whole cache lines when the
        // layer width is a multiple of 8, never a line another item
        // writes.
        layer.transposeRows(block.begin, block.end);
    });

    double loss = 0.0;
    for (double chunk : chunkLoss)
        loss += chunk;
    return loss / static_cast<double>(batch);
}

void
Mlp::save(std::ostream &os) const
{
    os << "mlp " << config_.layerSizes.size() << "\n";
    for (int size : config_.layerSizes)
        os << size << " ";
    os << "\n";
    os.precision(17);
    for (const Layer &layer : layers_) {
        for (double w : layer.weight)
            os << w << " ";
        os << "\n";
        for (double b : layer.bias)
            os << b << " ";
        os << "\n";
    }
}

std::optional<Mlp>
Mlp::read(std::istream &is, bool full)
{
    // What a file may declare: the default network has 35k
    // parameters, TenSet's about 250k.
    constexpr size_t kMaxLayers = 64;
    constexpr int kMaxWidth = 1 << 16;
    constexpr size_t kMaxParams = size_t{1} << 20;
    std::string tag;
    size_t numSizes = 0;
    if (!(is >> tag >> numSizes) || tag != "mlp" || numSizes < 2 ||
        numSizes >= kMaxLayers)
        return std::nullopt;
    MlpConfig config;
    config.layerSizes.resize(numSizes);
    size_t params = 0;
    for (size_t i = 0; i < numSizes; ++i) {
        int &size = config.layerSizes[i];
        if (!(is >> size) || size < 1 || size > kMaxWidth)
            return std::nullopt;
        if (i > 0)
            params += static_cast<size_t>(config.layerSizes[i - 1] + 1) *
                      static_cast<size_t>(size);
    }
    if (config.layerSizes.back() != 1 || params > kMaxParams)
        return std::nullopt;

    Mlp mlp(config);
    for (Layer &layer : mlp.layers_) {
        for (double &w : layer.weight)
            is >> w;
        for (double &b : layer.bias)
            is >> b;
    }
    if (full) {
        if (!(is >> tag >> mlp.adamStep_) || tag != "adam" ||
            mlp.adamStep_ < 0)
            return std::nullopt;
        for (Layer &layer : mlp.layers_) {
            for (double &m : layer.mWeight)
                is >> m;
            for (double &v : layer.vWeight)
                is >> v;
            for (double &m : layer.mBias)
                is >> m;
            for (double &v : layer.vBias)
                is >> v;
        }
    }
    if (!is)
        return std::nullopt;
    mlp.transposeAll();
    return mlp;
}

Mlp
Mlp::load(std::istream &is)
{
    std::optional<Mlp> mlp = read(is, /*full=*/false);
    FELIX_CHECK(mlp.has_value(), "bad or truncated MLP file");
    return std::move(*mlp);
}

void
Mlp::saveFull(std::ostream &os) const
{
    // precision(17) round-trips every finite double exactly through
    // a correctly-rounded strtod — the same guarantee the tuning
    // records and the pretrained-model cache already rely on.
    save(os);
    os << "adam " << adamStep_ << "\n";
    os.precision(17);
    for (const Layer &layer : layers_) {
        for (double m : layer.mWeight)
            os << m << " ";
        os << "\n";
        for (double v : layer.vWeight)
            os << v << " ";
        os << "\n";
        for (double m : layer.mBias)
            os << m << " ";
        os << "\n";
        for (double v : layer.vBias)
            os << v << " ";
        os << "\n";
    }
}

Mlp
Mlp::loadFull(std::istream &is)
{
    std::optional<Mlp> mlp = read(is, /*full=*/true);
    FELIX_CHECK(mlp.has_value(), "bad or truncated MLP checkpoint");
    return std::move(*mlp);
}

} // namespace costmodel
} // namespace felix
