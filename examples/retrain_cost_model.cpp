/**
 * @file
 * Retraining the cost model (paper §4: "retraining Felix's cost
 * model ... [is] optional and can help achieve better search
 * results").
 *
 * Synthesizes a fresh TenSet-style dataset for a device, trains a
 * cost model from scratch, reports ranking quality on held-out
 * samples, demonstrates per-round fine-tuning on "measurements" of a
 * specific workload, and saves the result where
 * felix::pretrainedCostModel() will pick it up.
 *
 *   ./examples/retrain_cost_model [num_subgraphs] [schedules_each]
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "costmodel/dataset.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "tir/ops.h"

using namespace felix;

int
main(int argc, char **argv)
{
    costmodel::DatasetOptions options;
    options.numSubgraphs = argc > 1 ? std::atoi(argv[1]) : 24;
    options.schedulesPerSketch = argc > 2 ? std::atoi(argv[2]) : 48;
    options.seed = 99;

    const auto &device = sim::deviceConfig(sim::DeviceKind::A5000);
    std::printf("synthesizing dataset: %d subgraphs x %d schedules "
                "per sketch...\n",
                options.numSubgraphs, options.schedulesPerSketch);
    auto samples = costmodel::synthesizeDataset(device, options);

    // 90/10 train/validation split.
    size_t split = samples.size() * 9 / 10;
    std::vector<costmodel::Sample> train(samples.begin(),
                                         samples.begin() + split);
    std::vector<costmodel::Sample> held(samples.begin() + split,
                                        samples.end());

    costmodel::CostModel model({}, options.seed);
    std::printf("training on %zu samples...\n", train.size());
    model.fit(train);
    auto metrics = model.validate(held);
    std::printf("held-out: mse %.3f, pairwise rank correlation "
                "%.3f\n",
                metrics.mse, metrics.rankCorrelation);

    // Fine-tune toward one specific workload, as Algorithm 1 line 24
    // does after each round of hardware measurements.
    auto subgraph = tir::dense(100, 11008, 4096, false);
    auto sketches = sketch::generateSketches(subgraph);
    std::vector<costmodel::Sample> fresh;
    Rng rng(7);
    for (const auto &sched : sketches) {
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        expr::CompiledExprs tape(
            features::extractFeatures(sched.program), names);
        const sketch::ConstraintChecker checker(sched);
        expr::EvalState state;
        for (int i = 0; i < 32; ++i) {
            costmodel::Sample sample;
            sample.rawFeatures = tape.eval(
                sketch::sampleValid(sched, rng, checker), state);
            sample.latencySec =
                sim::measureKernel(sample.rawFeatures, device, i);
            fresh.push_back(std::move(sample));
        }
    }
    auto before = model.validate(fresh);
    model.finetune(fresh, /*steps=*/64);
    auto after = model.validate(fresh);
    std::printf("workload-specific mse: %.3f -> %.3f after "
                "fine-tuning on %zu measurements\n",
                before.mse, after.mse, fresh.size());

    std::error_code ec;
    std::filesystem::create_directories("pretrained", ec);
    model.save("pretrained/cost_model_a5000.txt");
    std::printf("saved to pretrained/cost_model_a5000.txt "
                "(felix::pretrainedCostModel will load it)\n");
    return 0;
}
