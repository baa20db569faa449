#include "costmodel/dataset.h"

#include <filesystem>

#include "expr/compiled.h"
#include "features/features.h"
#include "obs/metrics.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/string_util.h"
#include "tir/ops.h"

namespace felix {
namespace costmodel {

namespace {

int64_t
pick(Rng &rng, std::initializer_list<int64_t> choices)
{
    std::vector<int64_t> values(choices);
    return values[rng.index(values.size())];
}

tir::SubgraphDef
randomConv2d(Rng &rng, int id)
{
    tir::Conv2dConfig config;
    config.n = pick(rng, {1, 1, 8, 16});   // bulk-inference batches
    config.c = pick(rng, {16, 32, 64, 128, 256});
    config.h = config.w = pick(rng, {7, 14, 28, 56, 112});
    config.k = pick(rng, {16, 32, 64, 128, 256});
    config.r = config.s = pick(rng, {1, 3, 5});
    config.stride = pick(rng, {1, 2});
    config.pad = config.r / 2;
    config.bias = rng.bernoulli(0.7);
    if (rng.bernoulli(0.5))
        config.epilogue = tir::Epilogue::Relu;
    if (rng.bernoulli(0.15)) {
        config.k = config.c;
        config.groups = config.c;   // depthwise
    }
    return tir::conv2d(config, strformat("ds_conv2d_%d", id));
}

tir::SubgraphDef
randomConv3d(Rng &rng, int id)
{
    tir::Conv3dConfig config;
    config.n = pick(rng, {1, 1, 8});
    config.c = pick(rng, {16, 32, 64});
    config.d = pick(rng, {4, 8, 16});
    config.h = config.w = pick(rng, {14, 28, 56});
    config.k = pick(rng, {16, 32, 64});
    config.kd = config.r = config.s = 3;
    config.stride = pick(rng, {1, 2});
    config.pad = 1;
    config.bias = rng.bernoulli(0.5);
    return tir::conv3d(config, strformat("ds_conv3d_%d", id));
}

tir::SubgraphDef
randomDense(Rng &rng, int id)
{
    // Cover transformer-scale projections (LLaMA: m/k up to 11008
    // and the 32000-way LM head) as well as classifier heads.
    int64_t n = pick(rng, {1, 16, 64, 100, 128, 256, 512});
    int64_t m = pick(rng, {64, 128, 256, 512, 1024, 2048, 4096, 8192,
                           11008, 32000});
    int64_t k = pick(rng, {64, 128, 256, 512, 1024, 2048, 4096,
                           11008});
    return tir::dense(n, m, k, rng.bernoulli(0.7),
                      rng.bernoulli(0.4) ? tir::Epilogue::Relu
                                         : tir::Epilogue::None,
                      strformat("ds_dense_%d", id));
}

tir::SubgraphDef
randomBatchMatmul(Rng &rng, int id)
{
    int64_t b = pick(rng, {4, 8, 12, 16, 32, 192, 512});
    int64_t n = pick(rng, {32, 50, 64, 100, 128, 256});
    int64_t m = pick(rng, {32, 64, 128, 256});
    int64_t k = pick(rng, {32, 64, 128, 256});
    return tir::batchMatmul(b, n, m, k,
                            strformat("ds_bmm_%d", id));
}

tir::SubgraphDef
randomOther(Rng &rng, int id)
{
    switch (rng.index(4)) {
      case 0:
        return tir::softmax(pick(rng, {16, 64, 256}),
                            pick(rng, {128, 512, 1024}),
                            strformat("ds_softmax_%d", id));
      case 1: {
        int64_t c = pick(rng, {32, 64, 128});
        int64_t hw = pick(rng, {28, 56, 112});
        return tir::maxPool2d(1, c, hw, hw, 2, 2,
                              strformat("ds_pool_%d", id));
      }
      case 2: {
        tir::ArithCounts arith;
        arith.add = 1;
        arith.mul = 1;
        return tir::elementwise(
            pick(rng, {1 << 14, 1 << 17, 1 << 20}), 2, arith,
            strformat("ds_eltwise_%d", id));
      }
      default:
        return tir::layerNorm(pick(rng, {64, 197, 512}),
                              pick(rng, {256, 768, 1024}),
                              strformat("ds_ln_%d", id));
    }
}

} // namespace

std::vector<tir::SubgraphDef>
datasetSubgraphPool(int count, Rng &rng)
{
    std::vector<tir::SubgraphDef> pool;
    pool.reserve(count);
    for (int i = 0; i < count; ++i) {
        // Mix mirrors TenSet's task distribution: convolution and
        // linear-layer bottlenecks dominate.
        double roll = rng.uniform();
        if (roll < 0.40)
            pool.push_back(randomConv2d(rng, i));
        else if (roll < 0.50)
            pool.push_back(randomConv3d(rng, i));
        else if (roll < 0.75)
            pool.push_back(randomDense(rng, i));
        else if (roll < 0.88)
            pool.push_back(randomBatchMatmul(rng, i));
        else
            pool.push_back(randomOther(rng, i));
    }
    return pool;
}

std::vector<Sample>
synthesizeDataset(const sim::DeviceConfig &device,
                  const DatasetOptions &options)
{
    Rng rng(options.seed);
    auto pool = datasetSubgraphPool(options.numSubgraphs, rng);

    // Subgraphs synthesize independently — sketch generation, tape
    // compilation (concurrent interning) and sampling from a forked
    // per-subgraph stream — then concatenate in pool order.
    std::vector<Rng> subgraphRngs = rng.forkStreams(pool.size());
    std::vector<std::vector<Sample>> perSubgraph(pool.size());
    parallelFor("dataset.subgraph", pool.size(), [&](size_t si) {
        const tir::SubgraphDef &subgraph = pool[si];
        Rng &subRng = subgraphRngs[si];
        std::vector<Sample> &out = perSubgraph[si];
        for (const auto &sched : sketch::generateSketches(subgraph)) {
            std::vector<std::string> names;
            for (const auto &domain : sched.vars)
                names.push_back(domain.name);
            auto formulas = features::extractFeatures(sched.program);
            expr::CompiledExprs compiled(formulas, names);
            expr::EvalState state;
            const sketch::ConstraintChecker checker(sched);
            for (int i = 0; i < options.schedulesPerSketch; ++i) {
                auto x = sketch::sampleValid(sched, subRng, checker);
                Sample sample;
                sample.rawFeatures = compiled.eval(x, state);
                sample.latencySec = sim::measureKernel(
                    sample.rawFeatures, device, /*noise_seed=*/0);
                out.push_back(std::move(sample));
            }
        }
    });
    std::vector<Sample> samples;
    for (std::vector<Sample> &part : perSubgraph) {
        for (Sample &sample : part)
            samples.push_back(std::move(sample));
    }
    inform("synthesized ", samples.size(), " dataset samples for ",
           device.name);
    return samples;
}

CostModel
pretrainedCostModel(sim::DeviceKind device, const std::string &cache_dir,
                    const DatasetOptions &options)
{
    std::string tag;
    switch (device) {
      case sim::DeviceKind::A10G: tag = "a10g"; break;
      case sim::DeviceKind::A5000: tag = "a5000"; break;
      case sim::DeviceKind::XavierNX: tag = "xavier_nx"; break;
    }
    std::string path = cache_dir + "/cost_model_" + tag + ".txt";
    if (auto cached = CostModel::tryLoad(path)) {
        if (cached->mlp().inputSize() == features::kNumFeatures)
            return std::move(*cached);
        obs::MetricsRegistry::instance()
            .counter("costmodel.load_rejected")
            .add(1.0);
        warn("rejecting cost model ", path, ": ",
             cached->mlp().inputSize(), " inputs, not ",
             features::kNumFeatures);
    }
    inform("pretraining cost model for ", deviceKindName(device),
           " (cache miss at ", path, ")");
    auto samples = synthesizeDataset(sim::deviceConfig(device),
                                     options);
    CostModel model({}, options.seed);
    model.fit(samples);
    auto metrics = model.validate(samples);
    inform("cost model for ", deviceKindName(device), ": train mse ",
           metrics.mse, ", rank corr ", metrics.rankCorrelation);
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    model.save(path);
    // The file holds the weights, scaler and target mean, not the
    // Adam moments and step that fit() leaves in `model`.
    std::optional<CostModel> saved = CostModel::tryLoad(path);
    FELIX_CHECK(saved.has_value(), "cannot read back cost model ",
                path);
    return std::move(*saved);
}

} // namespace costmodel
} // namespace felix
