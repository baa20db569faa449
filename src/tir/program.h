/**
 * @file
 * Loop-nest program IR and the schedule interpreter T(p0, s).
 *
 * A Program is the result of applying a (symbolic or concrete)
 * Schedule to the naive program of a SubgraphDef. Loop extents are
 * expressions: with a symbolic schedule they contain the schedule
 * variables (a *symbolic program*, paper §3.2); with a concrete
 * schedule they fold to constants.
 *
 * Each loop tracks which origin iteration axes it covers and by how
 * much (`axisCover`), which is what feature extraction needs to
 * compute buffer footprints at any loop depth. Splitting a fused
 * loop distributes coverage to the constituent axes innermost-first
 * (row-major order), using min/div expressions — these are exactly
 * the discontinuities the smoothing rewriter later removes.
 */
#ifndef FELIX_TIR_PROGRAM_H_
#define FELIX_TIR_PROGRAM_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "tir/compute.h"
#include "tir/schedule.h"

namespace felix {
namespace tir {

/** Per-origin-axis coverage of one loop: axis name -> extent expr. */
struct AxisCover
{
    std::string axis;
    expr::Expr extent;
};

/** One loop of a scheduled stage. */
struct LoopInfo
{
    std::string name;
    expr::Expr extent;
    Annotation ann = Annotation::None;
    std::vector<AxisCover> cover;
};

/** Where a stage's buffers live. */
enum class MemScope : uint8_t { Global, Shared, Local };

/** One scheduled stage of a Program. */
struct StageInfo
{
    std::string name;
    ComputeOp op;                   ///< copy: self-contained program
    std::vector<LoopInfo> loops;

    /** ComputeAt attachment (-1 = root). */
    int attachStage = -1;
    int attachLoop = -1;

    bool isCacheRead = false;
    int cacheConsumerStage = -1;    ///< consumer stage index
    int cacheInputIndex = -1;       ///< which consumer access is staged

    /**
     * True when ComputeAt replaced the original loops with an
     * aggregate per-execution nest; footprints then use proportional
     * scaling instead of per-dimension coverage.
     */
    bool aggregateLoops = false;

    MemScope outputScope = MemScope::Global;
};

/** A scheduled (possibly symbolic) program. */
struct Program
{
    std::string subgraphName;
    std::vector<StageInfo> stages;
    expr::Expr unrollMaxStep;       ///< auto_unroll pragma (>= 1)

    /** Index of the stage that owns the kernel launch dimensions. */
    int rootStage = 0;

    /** Extent product of loops with the given annotation (root). */
    expr::Expr annotatedExtent(Annotation ann) const;

    std::string str() const;
};

/**
 * Build the naive (unscheduled) program of a subgraph: one stage per
 * op, one loop per axis, no annotations — the p0 of the paper.
 */
Program naiveProgram(const SubgraphDef &subgraph);

/**
 * Apply a schedule to the naive program of @p subgraph: T(p0, s).
 * Steps referencing invalid loops/stages are an internal error (the
 * sketch generator emits consistent steps).
 */
Program applySchedule(const SubgraphDef &subgraph,
                      const Schedule &schedule);

/**
 * Apply one transformation step in place. Used by the sketch
 * builder, which interleaves step construction with application so
 * loop indices always refer to the current program state.
 */
void applyStep(Program &program, const TransformStep &step);

} // namespace tir
} // namespace felix

#endif // FELIX_TIR_PROGRAM_H_
