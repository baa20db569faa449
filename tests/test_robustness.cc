/**
 * @file
 * Robustness / failure-injection tests: degenerate workloads, a
 * useless (constant) cost model, an adversarial (inverted) cost
 * model, and corrupt artifacts. The tuner must degrade gracefully —
 * measurements keep the best-schedule curve monotone even when the
 * model misleads the search.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "core/felix.h"
#include "support/logging.h"
#include "costmodel/dataset.h"
#include "features/features.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "tuner/tuner.h"

namespace felix {
namespace {

std::vector<graph::Task>
smallTasks()
{
    graph::Graph g("small");
    tir::Conv2dConfig conv;
    conv.c = 32;
    conv.h = conv.w = 28;
    conv.k = 64;
    g.addConv2d(conv, -1, "conv");
    return graph::partition(g);
}

/** A cost model fitted on degenerate data: constant predictions. */
costmodel::CostModel
constantModel()
{
    Rng rng(5);
    std::vector<costmodel::Sample> samples;
    for (int i = 0; i < 64; ++i) {
        costmodel::Sample sample;
        sample.rawFeatures.assign(features::kNumFeatures, 0.0);
        for (auto &f : sample.rawFeatures)
            f = std::exp(rng.uniform(0.0, 6.0));
        sample.latencySec = 1e-4;   // identical target everywhere
        samples.push_back(std::move(sample));
    }
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 8, 1};
    costmodel::CostModel model(config, 5);
    model.fit(samples, 2, 32, 1e-4);
    return model;
}

/** A cost model trained to rank *backwards* (faster = worse). */
costmodel::CostModel
adversarialModel()
{
    costmodel::DatasetOptions options;
    options.numSubgraphs = 6;
    options.schedulesPerSketch = 24;
    options.seed = 11;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    for (auto &sample : samples) {
        // Invert the target ordering around a 100us pivot.
        sample.latencySec = 1e-8 / sample.latencySec;
    }
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 32, 1};
    costmodel::CostModel model(config, 11);
    model.fit(samples, 6, 128, 1.5e-3);
    return model;
}

tuner::TunerOptions
fastOptions()
{
    tuner::TunerOptions options;
    options.grad.nSeeds = 4;
    options.grad.nSteps = 40;
    options.grad.nMeasure = 8;
    return options;
}

TEST(Robustness, ConstantCostModelStillImproves)
{
    // With no ranking signal, the search degenerates to measuring
    // (near-)random valid schedules — the best-of-measured curve
    // must still improve on the naive schedule and stay monotone.
    tuner::GraphTuner tuner(smallTasks(), constantModel(),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(6);
    EXPECT_LT(tuner.networkLatency(), initial);
    const auto &timeline = tuner.timeline();
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_LE(timeline[i].networkLatencySec,
                  timeline[i - 1].networkLatencySec + 1e-12);
    }
}

TEST(Robustness, AdversarialCostModelNeverRegresses)
{
    tuner::GraphTuner tuner(smallTasks(), adversarialModel(),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(6);
    // Measurements gate every update: the best schedule can only
    // improve, even when the model steers toward slow schedules.
    EXPECT_LE(tuner.networkLatency(), initial);
    const auto &timeline = tuner.timeline();
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_LE(timeline[i].networkLatencySec,
                  timeline[i - 1].networkLatencySec + 1e-12);
    }
}

TEST(Robustness, AdversarialModelRecoversViaFinetuning)
{
    // The per-round fine-tuning on real measurements must eventually
    // repair an inverted model's ranking: late rounds should find
    // better schedules than the first round's.
    tuner::GraphTuner tuner(smallTasks(), adversarialModel(),
                            sim::DeviceKind::A5000, fastOptions());
    tuner.tuneRounds(1);
    double afterOne = tuner.networkLatency();
    tuner.tuneRounds(11);
    EXPECT_LT(tuner.networkLatency(), afterOne);
}

TEST(Robustness, DegenerateOneElementWorkload)
{
    auto subgraph = tir::dense(1, 1, 1, false);
    auto sketches = sketch::generateSketches(subgraph);
    ASSERT_FALSE(sketches.empty());
    Rng rng(3);
    for (const auto &sched : sketches) {
        auto x = sketch::sampleValid(sched, rng);
        EXPECT_TRUE(sketch::isValidAssignment(sched, x));
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        auto f = features::concreteFeatures(sched.program, names, x);
        for (double v : f)
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Robustness, SingleAxisWorkloads)
{
    // 1-D reductions and 1-element spatial domains must schedule.
    for (auto &subgraph :
         {tir::globalAvgPool2d(1, 1, 64, 64),
          tir::dense(1, 1, 4096, false),
          tir::dense(4096, 1, 1, false)}) {
        auto sketches = sketch::generateSketches(subgraph);
        EXPECT_FALSE(sketches.empty()) << subgraph.name;
        Rng rng(9);
        for (const auto &sched : sketches) {
            auto x = sketch::sampleValid(sched, rng);
            EXPECT_TRUE(sketch::isValidAssignment(sched, x))
                << subgraph.name << "/" << sched.desc;
        }
    }
}

TEST(Robustness, CorruptModuleFileRejected)
{
    const char *path = "corrupt_module_tmp.cfg";
    {
        std::ofstream os(path);
        os << "felix-module v1\nnot-a-number garbage\n";
    }
    EXPECT_FALSE(CompiledModule::load(path).has_value());
    {
        std::ofstream os(path);
        os << "wrong-magic v9\n";
    }
    EXPECT_FALSE(CompiledModule::load(path).has_value());

    // One config line each: weight, sketch index, latency, schedule
    // value count, values, label. A count of -1 reads as SIZE_MAX.
    const auto loads = [&](const std::string &module_latency,
                           const std::string &config) {
        {
            std::ofstream os(path);
            os << "felix-module v1\n"
               << module_latency << " 1\n"
               << config << "\n";
        }
        return CompiledModule::load(path).has_value();
    };
    EXPECT_TRUE(loads("0.001", "2 1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 0.0005 -1 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 0.0005 4097 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "0 1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "-3 1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 -1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 -0.5 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 0 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 inf 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "2 1 nan 2 4 8 conv"));
    EXPECT_FALSE(loads("-0.001", "2 1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0", "2 1 0.0005 2 4 8 conv"));
    EXPECT_FALSE(loads("0.001", "-3 -1 -0.5 2 4 8 conv"));
    std::remove(path);
}

TEST(Robustness, CorruptCostModelFileRejected)
{
    const char *path = "corrupt_model_tmp.txt";
    {
        std::ofstream os(path);
        os << "felix-cost-model v1\nmlp 3\n82 8 1\n0.5 truncated";
    }
    EXPECT_FALSE(costmodel::CostModel::tryLoad(path).has_value());
    std::remove(path);
}

// ---------------------------------------------------------------
// Garbage cost-model bytes in each format that carries them — the
// pretrained-cache file (CostModel::tryLoad), the state blob
// (CostModel::loadState) and the tuner checkpoint around it
// (GraphTuner::loadState) — must end in a clean rejection: no throw,
// no allocation sized by the garbage, no network whose input size
// disagrees with its scaler. The CostModel loaders count each one.
// ---------------------------------------------------------------

/** A briefly fitted model of the default 82-128-128-64-1 shape. */
const costmodel::CostModel &
defaultShapeModel()
{
    static const costmodel::CostModel model = [] {
        Rng rng(9);
        std::vector<costmodel::Sample> samples(64);
        for (costmodel::Sample &sample : samples) {
            sample.rawFeatures.resize(features::kNumFeatures);
            for (double &f : sample.rawFeatures)
                f = std::exp(rng.uniform(0.0, 8.0));
            sample.latencySec = rng.uniform(1e-5, 1e-3);
        }
        costmodel::CostModel m(costmodel::MlpConfig{}, 3);
        m.fit(samples, 1, 64, 1e-3);
        return m;
    }();
    return model;
}

/** A consistent @p inputs-input network and scaler, in save()
 *  (or, with @p full, saveState()) format minus the tag line. */
std::string
narrowModelBody(int inputs, size_t scalerSize, bool full)
{
    costmodel::MlpConfig config;
    config.layerSizes = {inputs, 8, 1};
    Rng rng(4);
    costmodel::Mlp mlp(config, rng);
    std::ostringstream os;
    if (full)
        mlp.saveFull(os);
    else
        mlp.save(os);
    os << scalerSize << "\n";
    for (size_t i = 0; i < scalerSize; ++i)
        os << "0 ";
    os << "\n";
    for (size_t i = 0; i < scalerSize; ++i)
        os << "1 ";
    os << "\n0\n";
    return os.str();
}

/** Named garbage derived from one real serialization @p real whose
 *  first line is @p tag. */
std::vector<std::pair<std::string, std::string>>
garbageOf(const std::string &real, const std::string &tag, bool full)
{
    std::vector<std::pair<std::string, std::string>> cases = {
        {"cut at 20000 bytes", real.substr(0, 20000)},
        {"2e9-wide hidden layer", tag + "\nmlp 3\n82 2000000000 1 \n"},
        {"40 inputs behind an 82-entry scaler",
         tag + "\n" + narrowModelBody(40, 82, full)},
        {"wrong tag", "felix-cost-model v2" + real.substr(tag.size())},
    };
    for (size_t k = 0; k < 8; ++k)
        cases.push_back({"cut at " + std::to_string(k) + "/8",
                         real.substr(0, real.size() * k / 8)});
    return cases;
}

TEST(Robustness, GarbageCostModelsRejectedByEveryLoader)
{
    const costmodel::CostModel &model = defaultShapeModel();
    const obs::Counter &rejections =
        obs::MetricsRegistry::instance().counter(
            "costmodel.load_rejected");

    const char *path = "garbage_model_tmp.txt";
    model.save(path);
    std::string file;
    {
        std::ifstream is(path);
        file.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_TRUE(costmodel::CostModel::tryLoad(path).has_value());
    for (const auto &[name, text] :
         garbageOf(file, "felix-cost-model v1", false)) {
        {
            std::ofstream os(path);
            os << text;
        }
        const double before = rejections.value();
        EXPECT_FALSE(costmodel::CostModel::tryLoad(path).has_value())
            << name;
        EXPECT_EQ(rejections.value(), before + 1.0) << name;
    }
    std::remove(path);

    std::ostringstream saved;
    model.saveState(saved);
    const std::string state = saved.str();
    {
        std::istringstream is(state);
        ASSERT_TRUE(costmodel::CostModel::loadState(is).has_value());
    }
    const auto stateGarbage =
        garbageOf(state, "felix-cost-model-state v1", true);
    for (const auto &[name, text] : stateGarbage) {
        std::istringstream is(text);
        const double before = rejections.value();
        EXPECT_FALSE(costmodel::CostModel::loadState(is).has_value())
            << name;
        EXPECT_EQ(rejections.value(), before + 1.0) << name;
    }

    // The checkpoint embeds the state blob verbatim; splice each
    // garbage blob in its place. A failed load commits nothing, so
    // one tuner serves every case.
    tuner::GraphTuner tuner(smallTasks(), model,
                            sim::DeviceKind::A5000, fastOptions());
    std::ostringstream checkpointOs;
    tuner.saveState(checkpointOs);
    const std::string checkpoint = checkpointOs.str();
    const size_t at = checkpoint.find(state);
    ASSERT_NE(at, std::string::npos);
    const std::string head = checkpoint.substr(0, at);
    const std::string tail = checkpoint.substr(at + state.size());
    {
        std::istringstream is(checkpoint);
        ASSERT_TRUE(tuner.loadState(is));
    }
    for (const auto &[name, text] : stateGarbage) {
        std::istringstream is(head + text + tail);
        EXPECT_FALSE(tuner.loadState(is)) << name;
    }
    // A consistent model of another input size parses, but the
    // tuner's search stages 82 features for it.
    const std::string narrow =
        "felix-cost-model-state v1\n" + narrowModelBody(40, 40, true);
    {
        std::istringstream is(narrow);
        EXPECT_TRUE(costmodel::CostModel::loadState(is).has_value());
    }
    std::istringstream is(head + narrow + tail);
    EXPECT_FALSE(tuner.loadState(is));
}

TEST(Robustness, TunerHandlesManyTasksWithTinyBudget)
{
    // More tasks than rounds: the scheduler's first pass covers a
    // prefix; latency must still be finite and never regress.
    auto tasks = extractSubgraphs(models::mobilenetV2(1));
    costmodel::DatasetOptions options;
    options.numSubgraphs = 4;
    options.schedulesPerSketch = 16;
    auto samples = costmodel::synthesizeDataset(
        sim::deviceConfig(sim::DeviceKind::A5000), options);
    costmodel::MlpConfig config;
    config.layerSizes = {features::kNumFeatures, 16, 1};
    costmodel::CostModel model(config, 3);
    model.fit(samples, 2, 64, 1e-3);

    tuner::GraphTuner tuner(tasks, std::move(model),
                            sim::DeviceKind::A5000, fastOptions());
    double initial = tuner.networkLatency();
    tuner.tuneRounds(3);   // << number of tasks
    EXPECT_LE(tuner.networkLatency(), initial);
    EXPECT_TRUE(std::isfinite(tuner.networkLatency()));
}

} // namespace
} // namespace felix
