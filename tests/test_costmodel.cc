/**
 * @file
 * Tests for the MLP, scaler, cost model training, input gradients,
 * persistence, and the TenSet-substitute dataset synthesis.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/dataset.h"
#include "costmodel/fused.h"
#include "costmodel/mlp.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "support/batch.h"

namespace felix {
namespace costmodel {
namespace {

constexpr size_t L = kBatchLanes;

MlpConfig
tinyConfig(int inputs = 4)
{
    MlpConfig config;
    config.layerSizes = {inputs, 16, 16, 1};
    return config;
}

/** @p x as lane 0 of SoA rows (the other lanes zero). */
std::vector<double>
lane0Rows(const std::vector<double> &x)
{
    std::vector<double> rows(x.size() * L, 0.0);
    for (size_t i = 0; i < x.size(); ++i)
        rows[i * L] = x[i];
    return rows;
}

/** The network's score of one point: forwardBatch at width 1. */
double
score(const Mlp &mlp, const std::vector<double> &x)
{
    MlpBatchScratch scratch;
    double y = 0.0;
    mlp.forwardBatch(lane0Rows(x).data(), 1, &y, scratch);
    return y;
}

/** The model's score of one raw point: predictBatch at width 1. */
double
predict(const CostModel &model, const std::vector<double> &raw)
{
    PredictScratch scratch;
    double y = 0.0;
    model.predictBatch(lane0Rows(raw).data(), 1, &y, scratch);
    return y;
}

TEST(MlpTest, DeterministicForward)
{
    Rng rngA(5), rngB(5);
    Mlp a(tinyConfig(), rngA), b(tinyConfig(), rngB);
    std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
    EXPECT_DOUBLE_EQ(score(a, x), score(b, x));
}

TEST(MlpTest, ParameterCount)
{
    Rng rng(1);
    Mlp mlp(tinyConfig(), rng);
    // 4*16+16 + 16*16+16 + 16*1+1 = 80 + 272 + 17 = 369.
    EXPECT_EQ(mlp.parameterCount(), 369u);
}

TEST(MlpTest, InputGradMatchesFiniteDifference)
{
    Rng rng(3);
    Mlp mlp(tinyConfig(), rng);
    std::vector<double> x = {0.3, -0.1, 0.7, 0.2};
    // The staged input gradient of one point, as the fused step
    // stages it.
    MlpBatchScratch scratch;
    const std::vector<double> rows = lane0Rows(x);
    std::copy(rows.begin(), rows.end(), mlp.stageInputRows(scratch));
    double y = 0.0;
    mlp.forwardInputGradStaged(1, &y, scratch);
    EXPECT_DOUBLE_EQ(y, score(mlp, x));
    const double *grad = mlp.inputGradRows(scratch);
    const double h = 1e-6;
    for (size_t i = 0; i < x.size(); ++i) {
        auto hi = x, lo = x;
        hi[i] += h;
        lo[i] -= h;
        double numeric = (score(mlp, hi) - score(mlp, lo)) / (2 * h);
        EXPECT_NEAR(grad[i * L], numeric, 1e-4) << "input " << i;
    }
}

TEST(MlpTest, LearnsLinearFunction)
{
    Rng rng(7);
    Mlp mlp(tinyConfig(), rng);
    // Target: y = 2a - b + 0.5c.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    Rng data(11);
    for (int i = 0; i < 256; ++i) {
        std::vector<double> x = {data.uniform(-1, 1),
                                 data.uniform(-1, 1),
                                 data.uniform(-1, 1),
                                 data.uniform(-1, 1)};
        ys.push_back(2 * x[0] - x[1] + 0.5 * x[2]);
        xs.push_back(std::move(x));
    }
    auto mse = [&] {
        double sum = 0.0;
        for (size_t i = 0; i < xs.size(); ++i) {
            double err = score(mlp, xs[i]) - ys[i];
            sum += err * err;
        }
        return sum / static_cast<double>(xs.size());
    };
    double first = mse();
    for (int step = 0; step < 300; ++step)
        mlp.trainBatch(xs, ys, 3e-3);
    double last = mse();
    EXPECT_LT(last, first * 0.05);
    EXPECT_LT(last, 0.02);
}

TEST(MlpTest, SaveLoadRoundTrip)
{
    Rng rng(9);
    Mlp mlp(tinyConfig(), rng);
    std::vector<double> x = {0.5, 0.25, -0.75, 1.0};
    std::stringstream buffer;
    mlp.save(buffer);
    Mlp loaded = Mlp::load(buffer);
    EXPECT_DOUBLE_EQ(score(mlp, x), score(loaded, x));
}

TEST(ScalerTest, StandardizesColumns)
{
    Scaler scaler;
    scaler.fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}});
    auto z = scaler.apply({2.0, 10.0});
    EXPECT_NEAR(z[0], 0.0, 1e-12);
    EXPECT_NEAR(z[1], 0.0, 1e-12);   // constant column passes through
    auto z2 = scaler.apply({4.0, 10.0});
    EXPECT_GT(z2[0], 0.5);
}

TEST(CostModelTest, TransformAndTargets)
{
    EXPECT_DOUBLE_EQ(CostModel::inputTransform(0.0), 0.0);
    EXPECT_DOUBLE_EQ(CostModel::inputTransform(1.0), 0.0);
    EXPECT_NEAR(CostModel::inputTransform(std::exp(5.0)), 5.0, 1e-12);
    double latency = 3.5e-3;
    EXPECT_NEAR(CostModel::latencyOf(CostModel::targetOf(latency)),
                latency, 1e-9);
}

TEST(CostModelTest, LearnsToRankSyntheticSchedules)
{
    // Synthetic "latency" that depends on a few feature dimensions;
    // the model must learn enough to rank.
    Rng data(21);
    std::vector<Sample> samples;
    for (int i = 0; i < 600; ++i) {
        std::vector<double> raw(features::kNumFeatures, 0.0);
        for (int j = 0; j < features::kNumFeatures; ++j)
            raw[j] = std::exp(data.uniform(0.0, 8.0));
        Sample sample;
        sample.latencySec =
            1e-5 * (1.0 + raw[6] / 1e3) / (1.0 + std::sqrt(raw[12]));
        sample.rawFeatures = std::move(raw);
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 32, 32, 1};
    CostModel model(config, 77);
    model.fit(samples, /*epochs=*/60, /*batch=*/64, /*lr=*/2e-3);
    auto metrics = model.validate(samples);
    EXPECT_GT(metrics.rankCorrelation, 0.7);
}

TEST(CostModelTest, PredictWithGradConsistent)
{
    Rng data(31);
    std::vector<Sample> samples;
    for (int i = 0; i < 200; ++i) {
        std::vector<double> raw(features::kNumFeatures, 1.0);
        for (int j = 0; j < features::kNumFeatures; ++j)
            raw[j] = std::exp(data.uniform(0.0, 6.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4 * (1.0 + raw[0] * 1e-4);
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    CostModel model(config, 3);
    model.fit(samples, 3, 64, 1e-3);

    // The fused descent step at width 1 over an identity tape
    // (output k is input k) and no penalties: its score is the
    // model's score of the transformed features, and its input
    // gradient is -d(score)/d(transformed feature).
    std::vector<std::string> names;
    std::vector<expr::Expr> roots;
    for (int j = 0; j < features::kNumFeatures; ++j) {
        names.push_back("f" + std::to_string(j));
        roots.push_back(expr::Expr::var(names.back()));
    }
    const expr::CompiledExprs identity(roots, names);
    const FusedGradStep step(identity, model, roots.size(), 0, 0.0);
    const auto run = [&](const std::vector<double> &transformed,
                         std::vector<double> &grad) {
        std::vector<double> gradRows(transformed.size() * L);
        expr::BatchEvalState tape;
        PredictScratch scratch;
        double score = 0.0;
        step.run(lane0Rows(transformed).data(), 1, &score,
                 gradRows.data(), tape, scratch);
        grad.resize(transformed.size());
        for (size_t i = 0; i < grad.size(); ++i)
            grad[i] = -gradRows[i * L];
        return score;
    };

    std::vector<double> transformed =
        CostModel::transformFeatures(samples[0].rawFeatures);
    std::vector<double> grad;
    EXPECT_DOUBLE_EQ(run(transformed, grad),
                     predict(model, samples[0].rawFeatures));
    // Central differences on a few transformed coordinates.
    const double h = 1e-5;
    for (size_t idx : {0, 6, 12, 40, 81}) {
        auto hi = transformed, lo = transformed;
        hi[idx] += h;
        lo[idx] -= h;
        std::vector<double> tmp;
        double numeric = (run(hi, tmp) - run(lo, tmp)) / (2 * h);
        EXPECT_NEAR(grad[idx], numeric, 1e-4) << "feature " << idx;
    }
}

TEST(CostModelTest, SaveLoadPredictsIdentically)
{
    Rng data(41);
    std::vector<Sample> samples;
    for (int i = 0; i < 100; ++i) {
        std::vector<double> raw(features::kNumFeatures, 2.0);
        raw[0] = std::exp(data.uniform(0.0, 5.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4;
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 8, 1};
    CostModel model(config, 5);
    model.fit(samples, 2, 32, 1e-3);
    const std::string path = "test_cost_model_tmp.txt";
    model.save(path);
    auto loaded = CostModel::tryLoad(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_NEAR(predict(model, samples[0].rawFeatures),
                predict(*loaded, samples[0].rawFeatures), 1e-12);
    std::remove(path.c_str());
}

TEST(CostModelTest, TryLoadMissingFileReturnsNullopt)
{
    EXPECT_FALSE(CostModel::tryLoad("/nonexistent/file.txt")
                     .has_value());
}

TEST(CostModelTest, FinetuneShiftsPredictions)
{
    Rng data(51);
    std::vector<Sample> samples;
    for (int i = 0; i < 120; ++i) {
        std::vector<double> raw(features::kNumFeatures, 1.0);
        raw[6] = std::exp(data.uniform(2.0, 8.0));
        Sample sample;
        sample.rawFeatures = raw;
        sample.latencySec = 1e-4;
        samples.push_back(std::move(sample));
    }
    MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    CostModel model(config, 6);
    // Fit until predictions approach the true target -log(1e-4).
    model.fit(samples, 40, 64, 2e-3);
    double before = predict(model, samples[0].rawFeatures);
    EXPECT_NEAR(before, CostModel::targetOf(1e-4), 1.5);
    // Fresh measurements say everything is 10x slower.
    std::vector<Sample> fresh = samples;
    for (Sample &sample : fresh)
        sample.latencySec = 1e-3;
    model.finetune(fresh, 128, 1e-3);
    double after = predict(model, samples[0].rawFeatures);
    EXPECT_LT(after, before);
}

TEST(Dataset, PoolIsDiverseAndDeterministic)
{
    Rng rngA(99), rngB(99);
    auto poolA = datasetSubgraphPool(24, rngA);
    auto poolB = datasetSubgraphPool(24, rngB);
    ASSERT_EQ(poolA.size(), 24u);
    for (size_t i = 0; i < poolA.size(); ++i) {
        EXPECT_EQ(poolA[i].structuralHash(),
                  poolB[i].structuralHash());
    }
    // At least two distinct operator families.
    std::set<std::string> prefixes;
    for (const auto &subgraph : poolA) {
        prefixes.insert(
            subgraph.name.substr(0, subgraph.name.rfind('_')));
    }
    EXPECT_GE(prefixes.size(), 3u);
}

TEST(Dataset, PretrainedModelCacheRoundTrip)
{
    DatasetOptions options;
    options.numSubgraphs = 3;
    options.schedulesPerSketch = 8;
    options.seed = 77;
    const std::string cacheDir = "test_pretrained_tmp";
    std::filesystem::remove_all(cacheDir);
    auto first = pretrainedCostModel(sim::DeviceKind::A5000, cacheDir,
                                     options);
    // Second call must hit the cache and predict identically.
    auto second = pretrainedCostModel(sim::DeviceKind::A5000,
                                      cacheDir, options);
    std::vector<double> raw(features::kNumFeatures, 3.0);
    EXPECT_DOUBLE_EQ(predict(first, raw), predict(second, raw));
    // The cold model is the warm one in every trainable bit, Adam's
    // moments and step included, so both sessions fine-tune alike.
    std::ostringstream cold, warm;
    first.saveState(cold);
    second.saveState(warm);
    EXPECT_TRUE(cold.str() == warm.str());
    std::filesystem::remove_all(cacheDir);
}

TEST(Dataset, SynthesizedSamplesAreWellFormed)
{
    DatasetOptions options;
    options.numSubgraphs = 4;
    options.schedulesPerSketch = 8;
    auto samples = synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    EXPECT_GE(samples.size(), 32u);
    for (const Sample &sample : samples) {
        EXPECT_EQ(sample.rawFeatures.size(),
                  static_cast<size_t>(features::kNumFeatures));
        EXPECT_GT(sample.latencySec, 0.0);
        EXPECT_LT(sample.latencySec, 10.0);
    }
}

} // namespace
} // namespace costmodel
} // namespace felix
