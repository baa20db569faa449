#include "features/features.h"

#include <algorithm>
#include <unordered_map>

#include "expr/compiled.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace felix {
namespace features {

using expr::Expr;
using tir::Annotation;
using tir::BufferAccess;
using tir::LoopInfo;
using tir::Program;
using tir::StageInfo;

namespace {

const Expr kOne = Expr::constant(1.0);
const Expr kZero = Expr::constant(0.0);

/** Loop classes used by footprint scoping. */
enum ClassMask : unsigned {
    kBlock = 1u << 0,
    kVThread = 1u << 1,
    kThread = 1u << 2,
    kSerial = 1u << 3,      ///< None / Vectorize / Unroll / Parallel
    kInsideBlock = kVThread | kThread | kSerial,
    kInsideThread = kSerial,
    kAll = kBlock | kInsideBlock,
};

unsigned
loopClass(const LoopInfo &loop)
{
    switch (loop.ann) {
      case Annotation::BlockX: return kBlock;
      case Annotation::VThread: return kVThread;
      case Annotation::ThreadX: return kThread;
      default: return kSerial;
    }
}

/** Product of extents of loops whose class is in @p mask. */
Expr
extentProduct(const StageInfo &stage, unsigned mask)
{
    Expr product = kOne;
    for (const LoopInfo &loop : stage.loops) {
        if (loopClass(loop) & mask)
            product = product * loop.extent;
    }
    return product;
}

/**
 * Covered extent of origin axis @p axis over loops whose class is
 * in @p mask (and, when @p from_index >= 0, only loops at positions
 * >= from_index).
 */
Expr
coveredExtent(const StageInfo &stage, const std::string &axis,
              unsigned mask, int from_index = -1)
{
    Expr covered = kOne;
    for (size_t i = 0; i < stage.loops.size(); ++i) {
        if (from_index >= 0 && static_cast<int>(i) < from_index)
            continue;
        const LoopInfo &loop = stage.loops[i];
        if (!(loopClass(loop) & mask))
            continue;
        for (const tir::AxisCover &cover : loop.cover) {
            if (cover.axis == axis)
                covered = covered * cover.extent;
        }
    }
    return covered;
}

/**
 * Distinct elements of @p access touched while iterating the loops
 * selected by (@p mask, @p from_index). Per dimension:
 *   distinct = min(dimSize, 1 + sum_c (covered(axis_c)-1)*stride_c)
 * and the footprint is the product over dimensions.
 */
Expr
footprint(const StageInfo &stage, const BufferAccess &access,
          unsigned mask, int from_index = -1)
{
    Expr result = kOne;
    for (const tir::BufferDim &dim : access.dims) {
        Expr distinct = kOne;
        for (const tir::AxisRef &contrib : dim.contribs) {
            Expr covered =
                coveredExtent(stage, contrib.axis, mask, from_index);
            distinct = distinct +
                       (covered - kOne) *
                           Expr::constant(
                               static_cast<double>(contrib.stride));
        }
        result = result *
                 expr::min(distinct,
                           Expr::intConst(dim.dimSize));
    }
    return result;
}

/**
 * Footprint for stages whose loops were replaced by an aggregate
 * nest (ComputeAt targets): proportional share of the buffer.
 */
Expr
aggregateFootprint(const BufferAccess &access, const Expr &share)
{
    Expr total = Expr::intConst(access.bufferElems());
    return expr::min(total, total * share);
}

/** How often a root-attached stage executes, in total. */
Expr
stageExecutions(const Program &program, const StageInfo &stage)
{
    if (stage.attachStage < 0)
        return kOne;
    const StageInfo &target = program.stages[stage.attachStage];
    Expr executions = kOne;
    for (int i = 0; i <= stage.attachLoop &&
                    i < static_cast<int>(target.loops.size());
         ++i) {
        executions = executions * target.loops[i].extent;
    }
    return executions;
}

/**
 * Register-tile reuse of an access: the product of the stage's
 * serial inner-loop extents that do NOT index the accessed buffer.
 * A value loaded (from shared or global) is reused that many times
 * from registers — e.g. in a matmul with an (i3 x j3) register tile,
 * each element of A[i,k] is loaded once and used j3 times.
 */
Expr
registerReuse(const StageInfo &stage, const BufferAccess &access)
{
    std::unordered_map<std::string, bool> touches;
    for (const tir::BufferDim &dim : access.dims) {
        for (const tir::AxisRef &contrib : dim.contribs)
            touches[contrib.axis] = true;
    }
    Expr reuse = kOne;
    for (const LoopInfo &loop : stage.loops) {
        // Serial inner loops and vthread loops both execute in one
        // physical thread; the compiler keeps invariant loads in
        // registers across their iterations. Fused loops contribute
        // per covered axis (only the untouched axes' extents count).
        if (!(loopClass(loop) & (kSerial | kVThread)))
            continue;
        for (const tir::AxisCover &cover : loop.cover) {
            if (!touches.count(cover.axis))
                reuse = reuse * cover.extent;
        }
    }
    return reuse;
}

/** Coalescing proxy: global-memory transactions per warp-load. */
Expr
transactionsPerWarp(const StageInfo &stage, const BufferAccess &access)
{
    if (access.dims.empty())
        return kOne;
    // How much of the innermost buffer dimension a warp's threads
    // cover: contiguous coverage => 1 transaction, strided => up
    // to 32.
    const tir::BufferDim &last = access.dims.back();
    Expr innerCover = kOne;
    for (const tir::AxisRef &contrib : last.contribs) {
        innerCover = innerCover *
                     coveredExtent(stage, contrib.axis,
                                   kThread | kSerial);
    }
    Expr capped = expr::min(innerCover, Expr::constant(32.0));
    return Expr::constant(32.0) / expr::max(capped, kOne);
}

struct StageTotals
{
    Expr points = kZero;       ///< iteration points over whole kernel
};

} // namespace

const std::array<std::string, kNumFeatures> &
featureNames()
{
    static const std::array<std::string, kNumFeatures> names = {
        // Arithmetic (0-7)
        "float_mad", "float_add", "float_mul", "float_div",
        "float_special", "float_cmp", "flops_total", "int_add",
        // Launch geometry (8-19)
        "block_len", "thread_len", "vthread_len", "vec_len",
        "total_threads", "warps_per_block", "serial_work_per_thread",
        "reduce_total", "reduce_inner", "spatial_inner",
        "unroll_max_step", "unroll_applied",
        // Work decomposition (20-25)
        "executions_total", "stages_count", "cache_stages_count",
        "epilogue_points", "points_total", "points_per_thread",
        // Global memory (26-37)
        "global_load_traffic_bytes", "global_store_bytes",
        "global_unique_bytes", "global_reuse",
        "footprint_per_block_bytes", "footprint_per_thread_bytes",
        "load_count_total", "store_count_total", "coalesce_penalty",
        "transactions_total", "arith_intensity", "traffic_per_thread",
        // Shared memory (38-45)
        "shared_bytes_total", "shared_load_count",
        "shared_store_count", "shared_traffic_bytes", "shared_reuse",
        "bank_conflict_proxy", "shared_per_thread", "uses_shared",
        // Per-buffer detail, 3 largest root inputs (46-69)
        "b0_unique_bytes", "b0_footprint_block", "b0_footprint_thread",
        "b0_reuse_block", "b0_traffic_bytes", "b0_contiguity",
        "b0_cached", "b0_lines_block",
        "b1_unique_bytes", "b1_footprint_block", "b1_footprint_thread",
        "b1_reuse_block", "b1_traffic_bytes", "b1_contiguity",
        "b1_cached", "b1_lines_block",
        "b2_unique_bytes", "b2_footprint_block", "b2_footprint_thread",
        "b2_reuse_block", "b2_traffic_bytes", "b2_contiguity",
        "b2_cached", "b2_lines_block",
        // Structure / occupancy proxies (70-81)
        "loop_depth_root", "spatial_total", "parallel_coverage",
        "threads_occupancy_proxy", "shared_occupancy_proxy",
        "reg_pressure_proxy", "tail_effect_proxy", "sync_count",
        "kernel_launch_const", "output_bytes", "input_bytes_const",
        "is_reduction",
    };
    return names;
}

int
featureIndex(const std::string &name)
{
    const auto &names = featureNames();
    for (int i = 0; i < kNumFeatures; ++i) {
        if (names[i] == name)
            return i;
    }
    panic("unknown feature: " + name);
}

std::vector<Expr>
extractFeatures(const Program &program)
{
    FELIX_SPAN("features.extract", "features");
    obs::MetricsRegistry::instance()
        .counter("features.extractions")
        .add(1.0);
    const double bytes = static_cast<double>(tir::kDtypeBytes);
    std::vector<Expr> f(kNumFeatures, kZero);

    const StageInfo &root = program.stages[program.rootStage];

    // --- Launch geometry -------------------------------------------------
    Expr blockLen = program.annotatedExtent(Annotation::BlockX);
    Expr threadLen = program.annotatedExtent(Annotation::ThreadX);
    Expr vthreadLen = program.annotatedExtent(Annotation::VThread);
    Expr vecLen = program.annotatedExtent(Annotation::Vectorize);
    Expr serialRoot = extentProduct(root, kSerial);

    f[8] = blockLen;
    f[9] = threadLen;
    f[10] = vthreadLen;
    f[11] = expr::max(vecLen, kOne);
    f[12] = blockLen * threadLen;
    f[13] = threadLen / 32.0;
    f[14] = serialRoot * vthreadLen;

    // Reduce/spatial split of the root's serial loops.
    Expr reduceInner = kOne, spatialInner = kOne;
    {
        std::unordered_map<std::string, bool> isReduceAxis;
        for (const tir::Axis &axis : root.op.axes)
            isReduceAxis[axis.name] = axis.isReduce;
        for (const LoopInfo &loop : root.loops) {
            if (!(loopClass(loop) & kSerial))
                continue;
            bool reduce = false;
            for (const tir::AxisCover &cover : loop.cover) {
                auto it = isReduceAxis.find(cover.axis);
                if (it != isReduceAxis.end() && it->second)
                    reduce = true;
            }
            if (reduce)
                reduceInner = reduceInner * loop.extent;
            else
                spatialInner = spatialInner * loop.extent;
        }
    }
    f[15] = Expr::intConst(root.op.reduceExtent());
    f[16] = reduceInner;
    f[17] = spatialInner;
    f[18] = expr::max(program.unrollMaxStep, kOne);
    f[19] = expr::select(expr::gt(program.unrollMaxStep, kOne), kOne,
                         kZero);

    // --- Per-stage totals -------------------------------------------------
    Expr pointsTotal = kZero;
    Expr epiloguePoints = kZero;
    Expr executionsTotal = kZero;
    Expr loadCount = kZero, storeCount = kZero;
    Expr globalTraffic = kZero, globalStores = kZero;
    Expr transactionsTotal = kZero;
    Expr coalescePenaltySum = kZero, coalescePenaltyWeight = kZero;
    Expr sharedBytes = kZero, sharedLoads = kZero, sharedStores = kZero;
    Expr syncCount = kZero;
    double uniqueBytes = 0.0;
    double inputBytesConst = 0.0;
    int cacheStageCount = 0;

    // Which root inputs are staged through shared memory?
    std::vector<int> cachedInput(root.op.inputs.size(), 0);
    for (const StageInfo &stage : program.stages) {
        if (stage.isCacheRead &&
            stage.cacheConsumerStage == program.rootStage) {
            cachedInput.at(stage.cacheInputIndex) = 1;
        }
    }

    std::unordered_map<std::string, bool> countedBuffer;
    for (size_t si = 0; si < program.stages.size(); ++si) {
        const StageInfo &stage = program.stages[si];
        if (stage.outputScope == tir::MemScope::Local)
            continue;   // inlined

        if (stage.isCacheRead) {
            ++cacheStageCount;
            const StageInfo &consumer =
                program.stages[stage.cacheConsumerStage];
            const BufferAccess &access =
                consumer.op.inputs[stage.cacheInputIndex];
            // Region staged per fill: consumer footprint inside the
            // attach point; fills happen once per serial iteration
            // at or above the attach point, per block.
            Expr region = footprint(consumer, access, kAll,
                                    stage.attachLoop + 1);
            Expr fillsPerBlock = kOne;
            for (int i = 0; i <= stage.attachLoop &&
                            i < static_cast<int>(consumer.loops.size());
                 ++i) {
                if (loopClass(consumer.loops[i]) & kSerial) {
                    fillsPerBlock =
                        fillsPerBlock * consumer.loops[i].extent;
                }
            }
            Expr fills = blockLen * fillsPerBlock;
            sharedBytes = sharedBytes + region * bytes;
            sharedStores = sharedStores + fills * region;
            globalTraffic = globalTraffic + fills * region * bytes;
            transactionsTotal =
                transactionsTotal + fills * region / 32.0;
            syncCount = syncCount + fills;
            loadCount = loadCount + fills * region;
            continue;
        }

        bool isRoot = (static_cast<int>(si) == program.rootStage);
        Expr executions = stageExecutions(program, stage);
        Expr work = extentProduct(stage, kAll);
        Expr points = executions * work;
        pointsTotal = pointsTotal + points;
        if (!isRoot) {
            epiloguePoints = epiloguePoints + points;
            executionsTotal = executionsTotal + executions;
        }

        // Arithmetic, weighted by total points of this stage.
        f[0] = f[0] + points * stage.op.arith.fma;
        f[1] = f[1] + points * stage.op.arith.add;
        f[2] = f[2] + points * stage.op.arith.mul;
        f[3] = f[3] + points * stage.op.arith.divOp;
        f[4] = f[4] + points * stage.op.arith.special;
        f[5] = f[5] + points * stage.op.arith.cmp;

        // Loads.
        for (size_t ai = 0; ai < stage.op.inputs.size(); ++ai) {
            const BufferAccess &access = stage.op.inputs[ai];
            loadCount = loadCount + points;
            if (!countedBuffer[access.tensor]) {
                countedBuffer[access.tensor] = true;
                uniqueBytes +=
                    static_cast<double>(access.bufferElems()) * bytes;
                inputBytesConst +=
                    static_cast<double>(access.bufferElems()) * bytes;
            }
            bool throughShared = isRoot && cachedInput[ai];
            if (throughShared) {
                // Register promotion across the inner tile amortizes
                // shared-memory reads.
                sharedLoads =
                    sharedLoads +
                    points / expr::max(registerReuse(stage, access),
                                       kOne);
                continue;
            }
            // Direct global loads: every block re-fetches its
            // footprint (the cache hierarchy model in sim/ applies
            // hit rates on top of this raw traffic).
            Expr perBlock;
            if (stage.aggregateLoops) {
                Expr share = work * executions /
                             expr::max(blockLen, kOne) /
                             Expr::constant(std::max(
                                 1.0, static_cast<double>(
                                          stage.op.totalPoints())));
                perBlock = aggregateFootprint(access, share);
                transactionsTotal =
                    transactionsTotal + points / 32.0;
            } else {
                perBlock = footprint(stage, access, kInsideBlock);
                Expr tpw = transactionsPerWarp(stage, access);
                transactionsTotal =
                    transactionsTotal + points / 32.0 * tpw;
                coalescePenaltySum =
                    coalescePenaltySum + points * tpw;
                coalescePenaltyWeight = coalescePenaltyWeight + points;
            }
            globalTraffic =
                globalTraffic + blockLen * perBlock * bytes;
        }

        // Stores: one per spatial point of the stage.
        Expr spatialPoints =
            points / Expr::constant(std::max(
                         1.0, static_cast<double>(
                                  stage.op.reduceExtent())));
        storeCount = storeCount + spatialPoints;
        globalStores = globalStores + spatialPoints * bytes;
        if (!countedBuffer[stage.op.name]) {
            countedBuffer[stage.op.name] = true;
            uniqueBytes +=
                static_cast<double>(stage.op.spatialExtent()) * bytes;
        }
    }

    f[6] = f[0] * 2.0 + f[1] + f[2] + f[3] + f[4] + f[5];
    // Index arithmetic: unrolling eliminates most of it (the paper's
    // int_add example: NMK * select(UNROLL > 1, 2, 5)).
    f[7] = pointsTotal *
           expr::select(expr::gt(program.unrollMaxStep, kOne),
                        Expr::constant(2.0), Expr::constant(5.0));

    f[20] = executionsTotal;
    f[21] = Expr::constant(static_cast<double>(program.stages.size()));
    f[22] = Expr::constant(static_cast<double>(cacheStageCount));
    f[23] = epiloguePoints;
    f[24] = pointsTotal;
    f[25] = pointsTotal / expr::max(blockLen * threadLen, kOne);

    // --- Global memory ----------------------------------------------------
    Expr footprintBlock = kZero, footprintThread = kZero;
    for (const BufferAccess &access : root.op.inputs) {
        footprintBlock =
            footprintBlock + footprint(root, access, kInsideBlock);
        footprintThread =
            footprintThread + footprint(root, access, kInsideThread);
    }
    f[26] = globalTraffic;
    f[27] = globalStores;
    f[28] = Expr::constant(uniqueBytes);
    f[29] = globalTraffic / expr::max(Expr::constant(uniqueBytes),
                                      kOne);
    f[30] = footprintBlock * bytes;
    f[31] = footprintThread * bytes;
    f[32] = loadCount;
    f[33] = storeCount;
    f[34] = coalescePenaltySum / expr::max(coalescePenaltyWeight, kOne);
    f[35] = transactionsTotal;
    f[36] = f[6] / expr::max(globalTraffic + globalStores, kOne);
    f[37] = (globalTraffic + globalStores) /
            expr::max(blockLen * threadLen, kOne);

    // --- Shared memory ----------------------------------------------------
    f[38] = sharedBytes;
    f[39] = sharedLoads;
    f[40] = sharedStores;
    f[41] = (sharedLoads + sharedStores) * bytes;
    f[42] = sharedLoads / expr::max(sharedStores, kOne);
    f[43] = kOne;   // bank conflicts: uniform proxy (see DESIGN.md)
    f[44] = sharedBytes / expr::max(threadLen, kOne);
    f[45] = cacheStageCount > 0 ? kOne : kZero;

    // --- Per-buffer detail (3 largest root inputs) ------------------------
    std::vector<int> order(root.op.inputs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return root.op.inputs[a].bufferElems() >
               root.op.inputs[b].bufferElems();
    });
    Expr rootPointsPerBlock =
        extentProduct(root, kInsideBlock);
    for (int slot = 0; slot < 3; ++slot) {
        int base = 46 + slot * 8;
        if (slot >= static_cast<int>(order.size()))
            continue;   // padded with zeros
        const BufferAccess &access = root.op.inputs[order[slot]];
        Expr fpBlock = footprint(root, access, kInsideBlock);
        Expr fpThread = footprint(root, access, kInsideThread);
        f[base + 0] = Expr::constant(
            static_cast<double>(access.bufferElems()) * bytes);
        f[base + 1] = fpBlock * bytes;
        f[base + 2] = fpThread * bytes;
        f[base + 3] = rootPointsPerBlock / expr::max(fpBlock, kOne);
        f[base + 4] = blockLen * fpBlock * bytes;
        f[base + 5] = transactionsPerWarp(root, access);
        f[base + 6] = Expr::constant(
            static_cast<double>(cachedInput[order[slot]]));
        f[base + 7] = fpBlock / 32.0;
    }

    // --- Structure / occupancy proxies -------------------------------------
    f[70] = Expr::constant(static_cast<double>(root.loops.size()));
    f[71] = Expr::intConst(root.op.spatialExtent());
    f[72] = blockLen * threadLen /
            expr::max(Expr::intConst(root.op.spatialExtent()), kOne);
    f[73] = threadLen / 1024.0;
    f[74] = sharedBytes / 49152.0;
    // Live registers ~ the accumulator tile plus streamed operands;
    // values across *outer* serial iterations are re-used, not live.
    f[75] = spatialInner * 2.0 + reduceInner + 8.0;
    f[76] = pointsTotal /
            expr::max(blockLen * threadLen * vthreadLen * serialRoot,
                      kOne);
    f[77] = syncCount;
    f[78] = kOne;
    f[79] = Expr::constant(
        static_cast<double>(root.op.spatialExtent()) * bytes);
    f[80] = Expr::constant(inputBytesConst);
    f[81] = root.op.reduceExtent() > 1 ? kOne : kZero;

    return f;
}

std::vector<double>
concreteFeatures(const Program &program,
                 const std::vector<std::string> &var_names,
                 const std::vector<double> &var_values)
{
    std::vector<Expr> formulas = extractFeatures(program);
    expr::CompiledExprs compiled(formulas, var_names);
    expr::EvalState state;
    return compiled.eval(var_values, state);
}

expr::Expr
sharedBytesPerBlock(const Program &program)
{
    const double bytes = static_cast<double>(tir::kDtypeBytes);
    Expr total = kZero;
    for (const StageInfo &stage : program.stages) {
        if (!stage.isCacheRead)
            continue;
        const StageInfo &consumer =
            program.stages[stage.cacheConsumerStage];
        const BufferAccess &access =
            consumer.op.inputs[stage.cacheInputIndex];
        total = total + footprint(consumer, access, kAll,
                                  stage.attachLoop + 1) *
                            bytes;
    }
    return total;
}

} // namespace features
} // namespace felix
