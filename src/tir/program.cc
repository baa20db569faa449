#include "tir/program.h"

#include <algorithm>

#include "support/logging.h"
#include "support/string_util.h"

namespace felix {
namespace tir {

using expr::Expr;

expr::Expr
Program::annotatedExtent(Annotation ann) const
{
    Expr extent = Expr::constant(1.0);
    for (const LoopInfo &loop : stages[rootStage].loops) {
        if (loop.ann == ann)
            extent = extent * loop.extent;
    }
    return extent;
}

std::string
Program::str() const
{
    std::string out = "program " + subgraphName + ":\n";
    for (const StageInfo &stage : stages) {
        out += "  stage " + stage.name;
        if (stage.isCacheRead)
            out += " [shared cache]";
        if (stage.attachStage >= 0) {
            out += strformat(" [compute_at stage=%d loop=%d]",
                             stage.attachStage, stage.attachLoop);
        }
        out += "\n";
        int indent = 2;
        for (const LoopInfo &loop : stage.loops) {
            out += std::string(2 * indent, ' ') + "for " + loop.name +
                   " in (0, " + loop.extent.str() + ")";
            if (loop.ann != Annotation::None)
                out += std::string(" // ") + annotationName(loop.ann);
            out += "\n";
            ++indent;
        }
    }
    if (unrollMaxStep.defined() && !unrollMaxStep.isConst(1.0))
        out += "  auto_unroll_max_step = " + unrollMaxStep.str() + "\n";
    return out;
}

Program
naiveProgram(const SubgraphDef &subgraph)
{
    Program program;
    program.subgraphName = subgraph.name;
    program.unrollMaxStep = Expr::constant(1.0);
    program.rootStage = subgraph.dominantOpIndex();
    for (const ComputeOp &op : subgraph.ops) {
        StageInfo stage;
        stage.name = op.name;
        stage.op = op;
        for (const Axis &axis : op.axes) {
            LoopInfo loop;
            loop.name = axis.name;
            loop.extent = Expr::intConst(axis.extent);
            loop.cover = {{axis.name, loop.extent}};
            stage.loops.push_back(std::move(loop));
        }
        program.stages.push_back(std::move(stage));
    }
    return program;
}

namespace {

/**
 * Distribute the coverage of a loop over split parts, innermost
 * part first (row-major iteration order). Symbolic extents use
 * min/div expressions; smoothing later removes the kinks.
 */
std::vector<std::vector<AxisCover>>
splitCover(const std::vector<AxisCover> &cover,
           const std::vector<Expr> &partExtents)
{
    const size_t nParts = partExtents.size();
    std::vector<std::vector<AxisCover>> parts(nParts);

    // Remaining coverage per axis, consumed from the innermost axis
    // by the innermost parts first.
    std::vector<AxisCover> remaining = cover;

    for (size_t p = nParts; p-- > 1;) {       // all but the outermost
        Expr need = partExtents[p];
        std::vector<AxisCover> taken;
        for (size_t a = remaining.size(); a-- > 0;) {
            Expr take = expr::min(need, remaining[a].extent);
            taken.insert(taken.begin(), {remaining[a].axis, take});
            remaining[a].extent = remaining[a].extent / take;
            need = need / take;
        }
        parts[p] = std::move(taken);
    }
    parts[0] = std::move(remaining);
    // Drop trivially-1 covers to keep expressions small.
    for (auto &part : parts) {
        part.erase(std::remove_if(part.begin(), part.end(),
                                  [](const AxisCover &c) {
                                      return c.extent.isConst(1.0);
                                  }),
                   part.end());
    }
    return parts;
}

void
applySplit(Program &program, const TransformStep &step)
{
    StageInfo &stage = program.stages.at(step.stageId);
    FELIX_CHECK(step.loopIndex >= 0 &&
                step.loopIndex < static_cast<int>(stage.loops.size()),
                "split: loop index out of range");
    FELIX_CHECK(!step.factors.empty(), "split with no factors");

    LoopInfo original = stage.loops[step.loopIndex];
    Expr innerProduct = Expr::constant(1.0);
    for (const Expr &factor : step.factors)
        innerProduct = innerProduct * factor;

    std::vector<Expr> partExtents;
    partExtents.push_back(original.extent / innerProduct);
    for (const Expr &factor : step.factors)
        partExtents.push_back(factor);

    auto covers = splitCover(original.cover, partExtents);

    std::vector<LoopInfo> newLoops;
    for (size_t p = 0; p < partExtents.size(); ++p) {
        LoopInfo loop;
        loop.name = original.name + "." + std::to_string(p);
        loop.extent = partExtents[p];
        loop.cover = covers[p];
        newLoops.push_back(std::move(loop));
    }
    stage.loops.erase(stage.loops.begin() + step.loopIndex);
    stage.loops.insert(stage.loops.begin() + step.loopIndex,
                       newLoops.begin(), newLoops.end());
}

void
applyFuse(Program &program, const TransformStep &step)
{
    StageInfo &stage = program.stages.at(step.stageId);
    FELIX_CHECK(step.count >= 2, "fuse needs at least 2 loops");
    FELIX_CHECK(step.loopIndex >= 0 &&
                step.loopIndex + step.count <=
                    static_cast<int>(stage.loops.size()),
                "fuse: loop range out of bounds");

    LoopInfo fused;
    fused.extent = Expr::constant(1.0);
    std::vector<std::string> names;
    for (int i = 0; i < step.count; ++i) {
        const LoopInfo &loop = stage.loops[step.loopIndex + i];
        names.push_back(loop.name);
        fused.extent = fused.extent * loop.extent;
        fused.cover.insert(fused.cover.end(), loop.cover.begin(),
                           loop.cover.end());
    }
    fused.name = join(names, ".");
    stage.loops.erase(stage.loops.begin() + step.loopIndex,
                      stage.loops.begin() + step.loopIndex + step.count);
    stage.loops.insert(stage.loops.begin() + step.loopIndex,
                       std::move(fused));
}

void
applyReorder(Program &program, const TransformStep &step)
{
    StageInfo &stage = program.stages.at(step.stageId);
    FELIX_CHECK(step.order.size() == stage.loops.size(),
                "reorder: permutation size mismatch");
    std::vector<LoopInfo> reordered;
    std::vector<bool> used(stage.loops.size(), false);
    for (int idx : step.order) {
        FELIX_CHECK(idx >= 0 &&
                    idx < static_cast<int>(stage.loops.size()) &&
                    !used[idx],
                    "reorder: invalid permutation");
        used[idx] = true;
        reordered.push_back(stage.loops[idx]);
    }
    stage.loops = std::move(reordered);
}

void
applyAnnotate(Program &program, const TransformStep &step)
{
    StageInfo &stage = program.stages.at(step.stageId);
    FELIX_CHECK(step.loopIndex >= 0 &&
                step.loopIndex < static_cast<int>(stage.loops.size()),
                "annotate: loop index out of range");
    stage.loops[step.loopIndex].ann = step.annotation;
}

void
applyComputeAt(Program &program, const TransformStep &step)
{
    StageInfo &stage = program.stages.at(step.stageId);
    const StageInfo &target = program.stages.at(step.targetStageId);
    FELIX_CHECK(step.targetLoopIndex >= 0 &&
                step.targetLoopIndex <
                    static_cast<int>(target.loops.size()),
                "compute_at: target loop out of range");

    stage.attachStage = step.targetStageId;
    stage.attachLoop = step.targetLoopIndex;

    // Executions of the attached stage = product of target loop
    // extents up to and including the attach point; the per-execution
    // work is the remaining fraction of the stage's own domain.
    Expr executions = Expr::constant(1.0);
    for (int i = 0; i <= step.targetLoopIndex; ++i)
        executions = executions * target.loops[i].extent;

    Expr total = Expr::intConst(stage.op.spatialExtent()) *
                 Expr::intConst(stage.op.reduceExtent());
    Expr perExec = total / executions;

    LoopInfo aggregate;
    aggregate.name = stage.name + ".tile";
    aggregate.extent = perExec;
    aggregate.cover = {{"_" + stage.name + "_all", perExec}};
    stage.loops = {std::move(aggregate)};
    stage.aggregateLoops = true;
}

void
applyCacheRead(Program &program, const TransformStep &step)
{
    StageInfo &consumer = program.stages.at(step.stageId);
    FELIX_CHECK(step.inputIndex >= 0 &&
                step.inputIndex <
                    static_cast<int>(consumer.op.inputs.size()),
                "cache_read: input index out of range");
    FELIX_CHECK(step.targetLoopIndex >= 0 &&
                step.targetLoopIndex <
                    static_cast<int>(consumer.loops.size()),
                "cache_read: attach loop out of range");

    const BufferAccess &access = consumer.op.inputs[step.inputIndex];

    StageInfo cache;
    cache.name = access.tensor + ".shared";
    cache.isCacheRead = true;
    cache.cacheConsumerStage = step.stageId;
    cache.cacheInputIndex = step.inputIndex;
    cache.attachStage = step.stageId;
    cache.attachLoop = step.targetLoopIndex;
    cache.outputScope = MemScope::Shared;
    // The cache stage's op: pure copy of the staged buffer region.
    cache.op.name = cache.name;
    cache.op.inputs = {access};
    // Loops of the cache stage are derived from the consumer's
    // footprint at feature-extraction time (they depend on the
    // consumer's final loop structure).
    program.stages.push_back(std::move(cache));
}

void
applyPragma(Program &program, const TransformStep &step)
{
    FELIX_CHECK(!step.factors.empty(), "pragma without value");
    program.unrollMaxStep = step.factors[0];
}

} // namespace

void
applyStep(Program &program, const TransformStep &step)
{
    switch (step.kind) {
      case StepKind::Split:
        applySplit(program, step);
        break;
      case StepKind::Fuse:
        applyFuse(program, step);
        break;
      case StepKind::Reorder:
        applyReorder(program, step);
        break;
      case StepKind::Annotate:
        applyAnnotate(program, step);
        break;
      case StepKind::ComputeAt:
        applyComputeAt(program, step);
        break;
      case StepKind::Inline:
        program.stages.at(step.stageId).outputScope = MemScope::Local;
        break;
      case StepKind::CacheRead:
        applyCacheRead(program, step);
        break;
      case StepKind::Pragma:
        applyPragma(program, step);
        break;
    }
}

Program
applySchedule(const SubgraphDef &subgraph, const Schedule &schedule)
{
    Program program = naiveProgram(subgraph);
    for (const TransformStep &step : schedule.steps)
        applyStep(program, step);
    return program;
}

} // namespace tir
} // namespace felix
