#include "core/felix.h"

#include <cmath>
#include <fstream>

#include "obs/trace.h"
#include "support/logging.h"

namespace felix {

Device
Device::cuda(const std::string &device_name)
{
    Device device;
    device.kind = sim::parseDevice(device_name);
    device.name = device_name;
    return device;
}

const sim::DeviceConfig &
Device::config() const
{
    return sim::deviceConfig(kind);
}

std::vector<graph::Task>
extractSubgraphs(const graph::Graph &dnn)
{
    return graph::partition(dnn);
}

costmodel::CostModel
pretrainedCostModel(const Device &device, const std::string &cache_dir)
{
    return costmodel::pretrainedCostModel(device.kind, cache_dir);
}

void
CompiledModule::save(const std::string &path) const
{
    std::ofstream os(path);
    FELIX_CHECK(os.good(), "cannot write module to " + path);
    os.precision(17);
    os << "felix-module v1\n";
    os << latencySec_ << " " << configs_.size() << "\n";
    for (const TaskConfig &config : configs_) {
        os << config.weight << " " << config.sketchIndex << " "
           << config.latencySec << " " << config.scheduleVars.size();
        for (double v : config.scheduleVars)
            os << " " << v;
        os << " " << config.taskLabel << "\n";
    }
}

std::optional<CompiledModule>
CompiledModule::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is.good())
        return std::nullopt;
    std::string word1, word2;
    is >> word1 >> word2;
    if (word1 != "felix-module" || word2 != "v1")
        return std::nullopt;
    auto validLatency = [](double sec) {
        return std::isfinite(sec) && sec > 0.0;
    };
    CompiledModule module;
    size_t numConfigs = 0;
    is >> module.latencySec_ >> numConfigs;
    if (!is || !validLatency(module.latencySec_))
        return std::nullopt;
    for (size_t i = 0; i < numConfigs && is; ++i) {
        TaskConfig config;
        size_t numVars = 0;
        is >> config.weight >> config.sketchIndex >>
            config.latencySec >> numVars;
        // An istream reads "-1" into a size_t as SIZE_MAX.
        if (!is || numVars > 4096 || config.weight < 1 ||
            config.sketchIndex < 0 || !validLatency(config.latencySec))
            return std::nullopt;
        config.scheduleVars.resize(numVars);
        for (double &v : config.scheduleVars)
            is >> v;
        is >> config.taskLabel;
        module.configs_.push_back(std::move(config));
    }
    if (!is)
        return std::nullopt;
    return module;
}

CompiledModule
CompiledModule::fromConfigs(std::vector<TaskConfig> configs,
                            double latency_sec)
{
    CompiledModule module;
    module.latencySec_ = latency_sec;
    module.configs_ = std::move(configs);
    return module;
}

CompiledModule
applyHistoryBest(const std::vector<graph::Task> &tasks,
                 const std::vector<tuner::TuneRecord> &records,
                 const Device &device,
                 std::vector<std::string> *missing)
{
    auto best = tuner::historyBest(records);
    CompiledModule module;
    double total = 15e-6;   // compiled-graph runtime overhead
    for (const graph::Task &task : tasks) {
        const tuner::TuneRecord *hit = nullptr;
        uint64_t hash = task.subgraph.structuralHash();
        for (const tuner::TuneRecord &record : best) {
            if (record.taskHash == hash) {
                hit = &record;
                break;
            }
        }
        TaskConfig config;
        config.taskLabel = task.exampleLabel;
        config.weight = task.weight;
        if (hit) {
            config.sketchIndex = hit->sketchIndex;
            config.scheduleVars = hit->scheduleVars;
            config.latencySec = hit->latencySec;
            total += task.weight * hit->latencySec;
        } else if (missing) {
            missing->push_back(task.exampleLabel);
        }
        module.configs_.push_back(std::move(config));
    }
    (void)device;   // latencies are replayed from the log
    module.latencySec_ = total;
    return module;
}

Optimizer::Optimizer(std::vector<graph::Task> graphs,
                     costmodel::CostModel cost_model, Device device,
                     OptimizerOptions options)
    : device_(device)
{
    FELIX_SPAN("optimizer.setup", "core");
    tuner_ = std::make_unique<tuner::GraphTuner>(
        std::move(graphs), std::move(cost_model), device.kind,
        options.tuner);
}

void
Optimizer::optimizeAll(int n_total_rounds, int measure_per_round,
                       const std::string &save_res)
{
    (void)measure_per_round;   // strategy options carry the default
    FELIX_SPAN("optimizer.optimize_all", "core");
    tuner_->tuneRounds(n_total_rounds);
    if (!save_res.empty())
        compileWithBestConfigs().save(save_res);
}

void
Optimizer::optimizeFor(double budget_sec)
{
    FELIX_SPAN("optimizer.optimize_for", "core");
    tuner_->tuneUntil(budget_sec);
}

CompiledModule
Optimizer::compileWithBestConfigs() const
{
    CompiledModule module;
    module.latencySec_ = tuner_->networkLatency();
    for (const tuner::TaskRecord &record : tuner_->taskRecords()) {
        TaskConfig config;
        config.taskLabel = record.task.exampleLabel;
        config.weight = record.task.weight;
        config.sketchIndex = record.bestCandidate.sketchIndex;
        config.scheduleVars = record.bestCandidate.x;
        config.latencySec = record.bestLatencySec;
        module.configs_.push_back(std::move(config));
    }
    return module;
}

} // namespace felix
