/**
 * @file
 * Felix public API (paper §3.6, Fig. 5).
 *
 * The C++ analogue of the paper's Python interface:
 *
 *   auto device = felix::Device::cuda("xavier-nx");
 *   auto dnn = felix::models::resnet50();             // or your own
 *   auto graphs = felix::extractSubgraphs(dnn);
 *   auto cost_model = felix::pretrainedCostModel(device);
 *   felix::Optimizer opt(graphs, cost_model, device);
 *   opt.optimizeAll(100, 16, "resnet50.cfg");
 *   auto lib = opt.compileWithBestConfigs();
 *   double latency = lib.run();
 *   lib.save("resnet50_xavier_nx.cfg");
 */
#ifndef FELIX_CORE_FELIX_H_
#define FELIX_CORE_FELIX_H_

#include <optional>
#include <string>
#include <vector>

#include "costmodel/dataset.h"
#include "graph/graph.h"
#include "sim/device.h"
#include "tuner/records.h"
#include "tuner/tuner.h"

namespace felix {

/** A tuning target device. */
struct Device
{
    sim::DeviceKind kind = sim::DeviceKind::A5000;
    std::string name;

    /** Parse a CUDA device by name: "a10g", "a5000", "xavier-nx". */
    static Device cuda(const std::string &device_name);

    const sim::DeviceConfig &config() const;
};

/** Extract the weighted fused-subgraph tuning tasks of a network. */
std::vector<graph::Task> extractSubgraphs(const graph::Graph &dnn);

/** The per-device pretrained cost model (trained+cached on miss). */
costmodel::CostModel pretrainedCostModel(
    const Device &device, const std::string &cache_dir = "pretrained");

/** The schedule chosen for one task, with its measured latency. */
struct TaskConfig
{
    std::string taskLabel;
    int weight = 1;
    int sketchIndex = 0;
    std::vector<double> scheduleVars;
    double latencySec = 0.0;
};

/**
 * A "compiled module": the best schedule per task plus the
 * simulated end-to-end latency. Serializable.
 */
class CompiledModule
{
  public:
    /** Simulated end-to-end inference latency, seconds. */
    double run() const { return latencySec_; }

    const std::vector<TaskConfig> &configs() const { return configs_; }

    void save(const std::string &path) const;
    /**
     * Read a save() file. nullopt when it is missing, malformed or
     * truncated, or when a config has more than 4096 schedule values
     * (the record loader's bound), a weight below 1 or a negative
     * sketch index, or a latency (of the module or of a config) is
     * not finite and positive.
     */
    static std::optional<CompiledModule> load(const std::string &path);

    /**
     * Assemble a module from per-task configs and a precomputed
     * end-to-end latency. Used by the cross-shard merge step, which
     * reconstructs the module from shard manifests instead of a
     * live tuner (src/shard/merge.h).
     */
    static CompiledModule fromConfigs(std::vector<TaskConfig> configs,
                                      double latency_sec);

  private:
    friend class Optimizer;
    friend CompiledModule applyHistoryBest(
        const std::vector<graph::Task> &,
        const std::vector<tuner::TuneRecord> &, const Device &,
        std::vector<std::string> *);
    double latencySec_ = 0.0;
    std::vector<TaskConfig> configs_;
};

/** Optimizer options (forwarding to the graph tuner). */
struct OptimizerOptions
{
    tuner::TunerOptions tuner;
};

/**
 * Rebuild a compiled module from a tuning-record log without
 * re-searching (TVM's "apply history best"): picks the lowest-
 * latency record per task. A task with no record is reported
 * missing and gets an empty config (sketch 0, no schedule values,
 * latency 0) that the module latency leaves out, so such a module
 * understates the network and CompiledModule::load rejects it once
 * saved; felix-tune --replay-records writes no --out module while a
 * task is missing.
 *
 * @param missing when non-null, receives the labels of tasks that
 *        had no record in the log.
 */
CompiledModule applyHistoryBest(
    const std::vector<graph::Task> &tasks,
    const std::vector<tuner::TuneRecord> &records,
    const Device &device,
    std::vector<std::string> *missing = nullptr);

/**
 * Sets up the search space and objective for every subgraph and
 * drives the round-based tuning (the felix.Optimizer of Fig. 5).
 */
class Optimizer
{
  public:
    Optimizer(std::vector<graph::Task> graphs,
              costmodel::CostModel cost_model, Device device,
              OptimizerOptions options = {});

    /**
     * Run the search for a total number of rounds.
     * @param measure_per_round candidates measured per round
     *        (overrides the strategy default when > 0).
     * @param save_res when non-empty, best configs are written there.
     */
    void optimizeAll(int n_total_rounds, int measure_per_round = 0,
                     const std::string &save_res = "");

    /** Tuning-time-budgeted variant (virtual seconds). */
    void optimizeFor(double budget_sec);

    /** Best configuration found so far, as a runnable artifact. */
    CompiledModule compileWithBestConfigs() const;

    const tuner::GraphTuner &tuner() const { return *tuner_; }

  private:
    Device device_;
    std::unique_ptr<tuner::GraphTuner> tuner_;
};

} // namespace felix

#endif // FELIX_CORE_FELIX_H_
