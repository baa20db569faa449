#include "mlp_reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace felix {
namespace reference {

namespace {

// MlpConfig's defaults; saveFull does not store them.
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

void
readAll(std::istream &is, std::vector<double> &values)
{
    for (double &v : values)
        is >> v;
}

void
writeAll(std::ostream &os, const std::vector<double> &values)
{
    for (double v : values)
        os << v << " ";
    os << "\n";
}

/** optim/adam.cc's update, one element at a time. */
void
adam(std::vector<double> &x, const std::vector<double> &g,
     std::vector<double> &m, std::vector<double> &v, double corr1,
     double corr2, double lr)
{
    for (size_t i = 0; i < x.size(); ++i) {
        m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g[i];
        v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g[i] * g[i];
        const double mHat = m[i] / corr1;
        const double vHat = v[i] / corr2;
        x[i] -= lr * mHat / (std::sqrt(vHat) + kEps);
    }
}

} // namespace

ReferenceMlp::ReferenceMlp(const std::string &full_text)
{
    std::istringstream is(full_text);
    std::string tag;
    size_t numSizes = 0;
    is >> tag >> numSizes;
    if (tag != "mlp" || numSizes < 2 || numSizes > 64)
        throw std::runtime_error("reference MLP: bad header");
    sizes_.resize(numSizes);
    for (int &size : sizes_)
        is >> size;
    for (size_t i = 0; i + 1 < sizes_.size(); ++i) {
        Layer layer;
        layer.in = sizes_[i];
        layer.out = sizes_[i + 1];
        const size_t n = static_cast<size_t>(layer.in) * layer.out;
        layer.weight.resize(n);
        layer.bias.resize(static_cast<size_t>(layer.out));
        layer.mWeight.resize(n);
        layer.vWeight.resize(n);
        layer.mBias.resize(static_cast<size_t>(layer.out));
        layer.vBias.resize(static_cast<size_t>(layer.out));
        layers_.push_back(std::move(layer));
    }
    for (Layer &layer : layers_) {
        readAll(is, layer.weight);
        readAll(is, layer.bias);
    }
    is >> tag >> adamStep_;
    if (tag != "adam")
        throw std::runtime_error("reference MLP: missing adam state");
    for (Layer &layer : layers_) {
        readAll(is, layer.mWeight);
        readAll(is, layer.vWeight);
        readAll(is, layer.mBias);
        readAll(is, layer.vBias);
    }
    if (!is)
        throw std::runtime_error("reference MLP: truncated");
}

double
ReferenceMlp::forwardPass(const std::vector<double> &x,
                          std::vector<std::vector<double>> &acts) const
{
    if (x.size() != static_cast<size_t>(sizes_.front()))
        throw std::runtime_error("reference MLP: wrong input size");
    acts.clear();
    acts.push_back(x);
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        std::vector<double> out(layer.out, 0.0);
        const std::vector<double> &cur = acts.back();
        for (int o = 0; o < layer.out; ++o) {
            double acc = layer.bias[o];
            const double *row =
                layer.weight.data() + static_cast<size_t>(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                acc += row[i] * cur[i];
            // ReLU on hidden layers, identity on the head.
            if (li + 1 < layers_.size() && acc < 0.0)
                acc = 0.0;
            out[o] = acc;
        }
        acts.push_back(std::move(out));
    }
    return acts.back()[0];
}

std::vector<double>
ReferenceMlp::backwardPass(const std::vector<std::vector<double>> &acts,
                           double seed,
                           std::vector<std::vector<double>> *gWeight,
                           std::vector<std::vector<double>> *gBias) const
{
    std::vector<double> adj = {seed};
    for (size_t li = layers_.size(); li-- > 0;) {
        const Layer &layer = layers_[li];
        const std::vector<double> &out = acts[li + 1];
        const std::vector<double> &in = acts[li];
        std::vector<double> prev(layer.in, 0.0);
        for (int o = 0; o < layer.out; ++o) {
            // ReLU gate (hidden layers only).
            if (li + 1 < layers_.size() && out[o] <= 0.0)
                continue;
            const double a = adj[o];
            const double *row =
                layer.weight.data() + static_cast<size_t>(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                prev[i] += a * row[i];
            if (gWeight) {
                double *gw = (*gWeight)[li].data() +
                             static_cast<size_t>(o) * layer.in;
                for (int i = 0; i < layer.in; ++i)
                    gw[i] += a * in[i];
                (*gBias)[li][o] += a;
            }
        }
        adj.swap(prev);
    }
    return adj;
}

double
ReferenceMlp::forward(const std::vector<double> &x) const
{
    std::vector<std::vector<double>> acts;
    return forwardPass(x, acts);
}

double
ReferenceMlp::forwardInputGrad(const std::vector<double> &x,
                               std::vector<double> &dx) const
{
    std::vector<std::vector<double>> acts;
    const double y = forwardPass(x, acts);
    dx = backwardPass(acts, 1.0, nullptr, nullptr);
    return y;
}

double
ReferenceMlp::trainBatch(const std::vector<std::vector<double>> &xs,
                         const std::vector<double> &ys, double lr)
{
    const double invBatch = 1.0 / static_cast<double>(xs.size());

    // Per-sample gradients accumulate into per-chunk partials with a
    // fixed chunk size, reduced in chunk order.
    constexpr size_t kChunk = 16;
    const size_t numChunks = (xs.size() + kChunk - 1) / kChunk;
    struct ChunkGrads
    {
        std::vector<std::vector<double>> gWeight, gBias;
        double loss = 0.0;
    };
    std::vector<ChunkGrads> chunkGrads(numChunks);

    for (size_t begin = 0; begin < xs.size(); begin += kChunk) {
        const size_t end = std::min(xs.size(), begin + kChunk);
        ChunkGrads &chunk = chunkGrads[begin / kChunk];
        chunk.gWeight.resize(layers_.size());
        chunk.gBias.resize(layers_.size());
        for (size_t li = 0; li < layers_.size(); ++li) {
            chunk.gWeight[li].assign(layers_[li].weight.size(), 0.0);
            chunk.gBias[li].assign(layers_[li].bias.size(), 0.0);
        }
        std::vector<std::vector<double>> acts;
        for (size_t si = begin; si < end; ++si) {
            const double err = forwardPass(xs[si], acts) - ys[si];
            chunk.loss += err * err;
            backwardPass(acts, 2.0 * err * invBatch, &chunk.gWeight,
                         &chunk.gBias);
        }
    }

    // Chunk-order reduction.
    std::vector<std::vector<double>> gWeight(layers_.size());
    std::vector<std::vector<double>> gBias(layers_.size());
    for (size_t li = 0; li < layers_.size(); ++li) {
        gWeight[li].assign(layers_[li].weight.size(), 0.0);
        gBias[li].assign(layers_[li].bias.size(), 0.0);
    }
    double loss = 0.0;
    for (const ChunkGrads &chunk : chunkGrads) {
        loss += chunk.loss;
        for (size_t li = 0; li < layers_.size(); ++li) {
            for (size_t i = 0; i < gWeight[li].size(); ++i)
                gWeight[li][i] += chunk.gWeight[li][i];
            for (size_t i = 0; i < gBias[li].size(); ++i)
                gBias[li][i] += chunk.gBias[li][i];
        }
    }

    ++adamStep_;
    const double corr1 = 1.0 - std::pow(kBeta1, adamStep_);
    const double corr2 = 1.0 - std::pow(kBeta2, adamStep_);
    for (size_t li = 0; li < layers_.size(); ++li) {
        Layer &layer = layers_[li];
        adam(layer.weight, gWeight[li], layer.mWeight, layer.vWeight,
             corr1, corr2, lr);
        adam(layer.bias, gBias[li], layer.mBias, layer.vBias, corr1,
             corr2, lr);
    }
    return loss / static_cast<double>(xs.size());
}

std::string
ReferenceMlp::saveFull() const
{
    std::ostringstream os;
    os << "mlp " << sizes_.size() << "\n";
    for (int size : sizes_)
        os << size << " ";
    os << "\n";
    os.precision(17);
    for (const Layer &layer : layers_) {
        writeAll(os, layer.weight);
        writeAll(os, layer.bias);
    }
    os << "adam " << adamStep_ << "\n";
    for (const Layer &layer : layers_) {
        writeAll(os, layer.mWeight);
        writeAll(os, layer.vWeight);
        writeAll(os, layer.mBias);
        writeAll(os, layer.vBias);
    }
    return os.str();
}

} // namespace reference
} // namespace felix
