/**
 * @file
 * Synthetic pretraining dataset — the TenSet substitute.
 *
 * TenSet provides >1000 real subgraphs with thousands of measured
 * schedules each; the paper trains its cost model on ~250K schedules
 * from 500 subgraphs. This reproduction has no GPU to measure on, so
 * the dataset is synthesized the same way TenSet was collected:
 * a pool of representative subgraphs (convolutions, dense layers,
 * batched matmuls, pooling, softmax, elementwise — the bottleneck
 * workload families), random valid schedules for each, and the
 * latency of every (subgraph, schedule) pair measured on the
 * simulated device. Sizes default smaller than TenSet's because
 * training runs on one CPU core (see DESIGN.md §2); the paper itself
 * notes that using the full TenSet brings negligible benefit.
 */
#ifndef FELIX_COSTMODEL_DATASET_H_
#define FELIX_COSTMODEL_DATASET_H_

#include <vector>

#include "costmodel/cost_model.h"
#include "sim/device.h"
#include "tir/compute.h"

namespace felix {
namespace costmodel {

/** Dataset synthesis parameters. */
struct DatasetOptions
{
    int numSubgraphs = 64;        ///< pool size (TenSet: 500)
    int schedulesPerSketch = 96;  ///< random schedules per sketch
    uint64_t seed = 2024;
};

/** A randomized pool of representative tuning tasks. */
std::vector<tir::SubgraphDef> datasetSubgraphPool(int count, Rng &rng);

/** Random schedules x simulated measurements for one device. */
std::vector<Sample> synthesizeDataset(const sim::DeviceConfig &device,
                                      const DatasetOptions &options);

/**
 * The per-device pretrained cost model, trained once and cached at
 * `<cache_dir>/cost_model_<device>.txt` (the felix.pretrained_cost_model
 * of the paper's programming interface, Fig. 5). A cache miss returns
 * the model read back from the file it saved, so the session that
 * pretrains fine-tunes from the same state as every later session.
 */
CostModel pretrainedCostModel(sim::DeviceKind device,
                              const std::string &cache_dir = "pretrained",
                              const DatasetOptions &options = {});

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_DATASET_H_
