#include "costmodel/cost_model.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace costmodel {

void
Scaler::fit(const std::vector<std::vector<double>> &transformed)
{
    FELIX_CHECK(!transformed.empty(), "scaler fit on empty data");
    const size_t dim = transformed[0].size();
    mean_.assign(dim, 0.0);
    std_.assign(dim, 0.0);
    for (const auto &row : transformed) {
        for (size_t i = 0; i < dim; ++i)
            mean_[i] += row[i];
    }
    for (double &m : mean_)
        m /= static_cast<double>(transformed.size());
    for (const auto &row : transformed) {
        for (size_t i = 0; i < dim; ++i) {
            double d = row[i] - mean_[i];
            std_[i] += d * d;
        }
    }
    for (double &s : std_) {
        s = std::sqrt(s / static_cast<double>(transformed.size()));
        if (s < 1e-6)
            s = 1.0;   // constant feature: pass through centred
    }
}

std::vector<double>
Scaler::apply(const std::vector<double> &x) const
{
    FELIX_CHECK(x.size() == mean_.size(), "scaler: wrong input size");
    std::vector<double> out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = (x[i] - mean_[i]) / std_[i];
    return out;
}

void
Scaler::save(std::ostream &os) const
{
    os.precision(17);
    for (double m : mean_)
        os << m << " ";
    os << "\n";
    for (double s : std_)
        os << s << " ";
    os << "\n";
}

std::optional<Scaler>
Scaler::load(std::istream &is, size_t size)
{
    Scaler scaler;
    scaler.mean_.resize(size);
    scaler.std_.resize(size);
    for (double &m : scaler.mean_)
        is >> m;
    for (double &s : scaler.std_)
        is >> s;
    if (!is)
        return std::nullopt;
    for (double s : scaler.std_) {
        if (!(s > 0.0))
            return std::nullopt;
    }
    return scaler;
}

CostModel::CostModel(MlpConfig config, uint64_t seed)
    : config_(std::move(config)), rng_(seed), mlp_(config_, rng_)
{
}

double
CostModel::inputTransform(double raw_feature)
{
    return std::log(std::max(raw_feature, 1.0));
}

std::vector<double>
CostModel::transformFeatures(const std::vector<double> &raw)
{
    std::vector<double> out(raw.size());
    for (size_t i = 0; i < raw.size(); ++i)
        out[i] = inputTransform(raw[i]);
    return out;
}

double
CostModel::targetOf(double latency_sec)
{
    return -std::log(std::max(latency_sec, 1e-12));
}

double
CostModel::latencyOf(double score)
{
    return std::exp(-score);
}

void
CostModel::fit(const std::vector<Sample> &samples, int epochs,
               int batch_size, double lr)
{
    FELIX_CHECK(!samples.empty(), "cost model fit on empty dataset");
    FELIX_SPAN("costmodel.fit", "costmodel");
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    xs.reserve(samples.size());
    for (const Sample &sample : samples) {
        xs.push_back(transformFeatures(sample.rawFeatures));
        ys.push_back(targetOf(sample.latencySec));
    }
    scaler_.fit(xs);
    for (auto &x : xs)
        x = scaler_.apply(x);
    // Center the targets: -log(latency) sits around 8-12, and an
    // uncentered head wastes hundreds of Adam steps learning the
    // mean before it can learn the ranking.
    targetMean_ = 0.0;
    for (double y : ys)
        targetMean_ += y;
    targetMean_ /= static_cast<double>(ys.size());
    for (double &y : ys)
        y -= targetMean_;

    std::vector<size_t> order(xs.size());
    std::iota(order.begin(), order.end(), 0);
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng_.shuffle(order);
        double epochLoss = 0.0;
        int batches = 0;
        for (size_t start = 0; start < order.size();
             start += batch_size) {
            size_t end = std::min(order.size(),
                                  start + static_cast<size_t>(
                                              batch_size));
            std::vector<std::vector<double>> bx;
            std::vector<double> by;
            for (size_t i = start; i < end; ++i) {
                bx.push_back(xs[order[i]]);
                by.push_back(ys[order[i]]);
            }
            epochLoss += mlp_.trainBatch(bx, by, lr);
            ++batches;
        }
        double epochMse = epochLoss / std::max(1, batches);
        obs::MetricsRegistry::instance()
            .gauge("costmodel.train_loss")
            .set(epochMse);
        debug("cost model epoch ", epoch, " mse ", epochMse);
    }
}

double
CostModel::finetune(const std::vector<Sample> &samples, int steps,
                    double lr)
{
    if (samples.empty() || !scaler_.fitted() || steps <= 0)
        return -1.0;
    FELIX_SPAN("costmodel.finetune", "costmodel");
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (const Sample &sample : samples) {
        xs.push_back(
            scaler_.apply(transformFeatures(sample.rawFeatures)));
        ys.push_back(targetOf(sample.latencySec) - targetMean_);
    }
    double lossSum = 0.0;
    for (int step = 0; step < steps; ++step)
        lossSum += mlp_.trainBatch(xs, ys, lr);
    double meanLoss = lossSum / steps;
    auto &registry = obs::MetricsRegistry::instance();
    registry.counter("costmodel.finetune_steps").add(steps);
    registry.gauge("costmodel.train_loss").set(meanLoss);
    return meanLoss;
}

void
CostModel::predictBatch(const double *raw, size_t width,
                        double *scores, PredictScratch &scratch) const
{
    FELIX_CHECK(scaler_.fitted(), "cost model not fitted");
    constexpr size_t L = kBatchLanes;
    const size_t dim = scaler_.means().size();
    const double *means = scaler_.means().data();
    const double *stds = scaler_.stddevs().data();
    std::vector<double> &scaled = scratch.scaled;
    scaled.resize(dim * L);
    // phi + standardization per lane, elementwise — per lane the
    // expressions of Scaler::apply over transformFeatures. Padding
    // lanes keep what the buffer last held; no lane reads another.
    for (size_t i = 0; i < dim; ++i) {
        const double *in = &raw[i * L];
        double *out = &scaled[i * L];
        for (size_t l = 0; l < width; ++l)
            out[l] = (inputTransform(in[l]) - means[i]) / stds[i];
    }
    double y[L];
    mlp_.forwardBatch(scaled.data(), width, y, scratch.mlp);
    for (size_t l = 0; l < width; ++l)
        scores[l] = targetMean_ + y[l];
}

ModelMetrics
CostModel::validate(const std::vector<Sample> &samples) const
{
    ModelMetrics metrics;
    if (samples.empty())
        return metrics;
    // Scored kBatchLanes samples at a time, one block per item.
    constexpr size_t L = kBatchLanes;
    const size_t dim = scaler_.means().size();
    std::vector<double> preds(samples.size());
    std::vector<double> targets(samples.size());
    const size_t numBlocks = (samples.size() + L - 1) / L;
    parallelFor("costmodel.validate", numBlocks, [&](size_t block) {
        const size_t begin = block * L;
        const size_t width = std::min(L, samples.size() - begin);
        std::vector<double> raw(dim * L, 0.0);
        for (size_t l = 0; l < width; ++l) {
            const Sample &sample = samples[begin + l];
            FELIX_CHECK(sample.rawFeatures.size() == dim,
                        "cost model validate: wrong input size");
            for (size_t i = 0; i < dim; ++i)
                raw[i * L + l] = sample.rawFeatures[i];
            targets[begin + l] = targetOf(sample.latencySec);
        }
        PredictScratch scratch;
        predictBatch(raw.data(), width, &preds[begin], scratch);
    });
    for (size_t i = 0; i < preds.size(); ++i) {
        double err = preds[i] - targets[i];
        metrics.mse += err * err;
    }
    metrics.mse /= static_cast<double>(preds.size());

    // Pairwise ranking accuracy, mapped to [-1, 1].
    size_t agree = 0, total = 0;
    Rng rng(12345);
    size_t pairs = std::min<size_t>(20000, preds.size() *
                                               (preds.size() - 1) / 2);
    for (size_t p = 0; p < pairs; ++p) {
        size_t a = rng.index(preds.size());
        size_t b = rng.index(preds.size());
        if (a == b || targets[a] == targets[b])
            continue;
        ++total;
        bool predOrder = preds[a] < preds[b];
        bool trueOrder = targets[a] < targets[b];
        agree += (predOrder == trueOrder);
    }
    if (total > 0) {
        metrics.rankCorrelation =
            2.0 * static_cast<double>(agree) /
                static_cast<double>(total) -
            1.0;
    }
    return metrics;
}

void
CostModel::save(const std::string &path) const
{
    const std::string tmp =
        path + ".tmp" + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream os(tmp);
        FELIX_CHECK(os.good(), "cannot write cost model to " + tmp);
        os << "felix-cost-model v1\n";
        mlp_.save(os);
        os << static_cast<size_t>(config_.layerSizes.front()) << "\n";
        scaler_.save(os);
        os << targetMean_ << "\n";
        FELIX_CHECK(os.good(), "cannot write cost model to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    FELIX_CHECK(!ec, "cannot rename cost model to ", path, ": ",
                ec.message());
}

namespace {

/** Count and report a cost-model file or state that does not parse. */
std::nullopt_t
rejected(const std::string &what, const char *reason)
{
    obs::MetricsRegistry::instance()
        .counter("costmodel.load_rejected")
        .add(1.0);
    warn("rejecting cost model ", what, ": ", reason);
    return std::nullopt;
}

} // namespace

std::optional<CostModel>
CostModel::tryLoad(const std::string &path)
{
    std::ifstream is(path);
    if (!is.good())
        return std::nullopt;   // a cache miss, not a rejection
    std::string word1, word2;
    is >> word1 >> word2;
    if (word1 != "felix-cost-model" || word2 != "v1")
        return rejected(path, "not a felix-cost-model v1 file");
    std::optional<Mlp> mlp = Mlp::read(is, /*full=*/false);
    if (!mlp)
        return rejected(path, "bad or truncated network");
    size_t scalerSize = 0;
    if (!(is >> scalerSize) ||
        scalerSize != static_cast<size_t>(mlp->inputSize()))
        return rejected(path, "scaler size is not the network input size");
    std::optional<Scaler> scaler = Scaler::load(is, scalerSize);
    double targetMean = 0.0;
    if (!scaler || !(is >> targetMean))
        return rejected(path, "bad or truncated scaler");

    CostModel model;
    model.mlp_ = std::move(*mlp);
    model.scaler_ = std::move(*scaler);
    model.targetMean_ = targetMean;
    return model;
}

void
CostModel::saveState(std::ostream &os) const
{
    os << "felix-cost-model-state v1\n";
    mlp_.saveFull(os);
    if (scaler_.fitted()) {
        os << scaler_.means().size() << "\n";
        scaler_.save(os);
    } else {
        os << 0 << "\n";
    }
    os.precision(17);
    os << targetMean_ << "\n";
}

std::optional<CostModel>
CostModel::loadState(std::istream &is)
{
    const std::string what = "state";
    std::string word1, word2;
    is >> word1 >> word2;
    if (word1 != "felix-cost-model-state" || word2 != "v1")
        return rejected(what, "not a felix-cost-model-state v1 blob");
    std::optional<Mlp> mlp = Mlp::read(is, /*full=*/true);
    if (!mlp)
        return rejected(what, "bad or truncated network");
    // 0 marks a model that was never fitted.
    size_t scalerSize = 0;
    if (!(is >> scalerSize) ||
        (scalerSize != 0 &&
         scalerSize != static_cast<size_t>(mlp->inputSize())))
        return rejected(what, "scaler size is not the network input size");
    Scaler scaler;
    if (scalerSize > 0) {
        std::optional<Scaler> fitted = Scaler::load(is, scalerSize);
        if (!fitted)
            return rejected(what, "bad or truncated scaler");
        scaler = std::move(*fitted);
    }
    double targetMean = 0.0;
    if (!(is >> targetMean))
        return rejected(what, "truncated target mean");

    CostModel model;
    model.mlp_ = std::move(*mlp);
    model.scaler_ = std::move(scaler);
    model.targetMean_ = targetMean;
    return model;
}

} // namespace costmodel
} // namespace felix
