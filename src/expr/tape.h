/**
 * @file
 * Linear tape representation of compiled expression DAGs, and the
 * tape-optimizer pass that runs at CompiledExprs construction.
 *
 * A *raw* tape is the historical format: one instruction per
 * distinct DAG node in topological order, constant and variable
 * leaves included as instructions. The optimizer lowers it to a
 * *tape program* whose per-eval instruction stream contains only
 * real operations:
 *
 *  - leaf hoisting: constants become slots filled once per state
 *    binding, variables become slots filled from the input vector —
 *    neither costs a dispatched instruction per evaluation;
 *  - exact constant folding of operations whose operands are all
 *    constants (evaluated with the very kernels the runtime uses, so
 *    the folded value is bit-identical to what the tape would have
 *    computed);
 *  - algebraic identity forwarding (x*1, x/1, x^1, x + (-0.0),
 *    x - 0, --x, min/max(x,x), select on a constant or with equal
 *    branches) — applied only to forward-only tapes, see below;
 *  - dead-instruction elimination against the output slots;
 *  - slot renumbering: surviving instructions are compacted into
 *    [consts | vars | ops] slot order while preserving their
 *    relative execution order.
 *
 * Bit-exactness contract. Every pass preserves forward outputs
 * bit-for-bit. For tapes that also run backward, only passes that
 * provably preserve the *order* of adjoint accumulation are applied
 * (hoisting, folding, DCE, renumbering); identity forwarding is
 * disabled there because redirecting a consumer past an eliminated
 * node moves its adjoint contribution to a different position in the
 * reverse sweep, which can change floating-point rounding even
 * though each contribution is bit-identical. Feature tapes used for
 * candidate ranking never run backward, so they opt in to the full
 * pass set via forward_only. Note also that `x + (+0.0)` is *not*
 * eliminated: IEEE-754 addition of +0.0 maps an x of -0.0 to +0.0,
 * so the rewrite is not value-preserving (x - 0.0 and x + (-0.0)
 * are, and those are the forms the pass handles).
 *
 * docs/tape_engine.md walks through the design and the determinism
 * argument in detail.
 */
#ifndef FELIX_EXPR_TAPE_H_
#define FELIX_EXPR_TAPE_H_

#include <cstdint>
#include <vector>

#include "expr/expr.h"

namespace felix {
namespace expr {

/** One raw-tape entry: a DAG node, leaves included. */
struct RawInstr
{
    OpCode op;
    int32_t a0 = -1;    ///< operand slots into the raw value buffer
    int32_t a1 = -1;
    int32_t a2 = -1;
    double payload = 0; ///< constant value / variable input slot
};

/**
 * The unoptimized tape: exactly what CompiledExprs historically
 * executed. Kept as the optimizer input and as the reference
 * semantics the tests compare the optimized program against.
 * Assumes leaves are deduplicated (one instruction per distinct
 * constant bit-pattern / variable), which hash-consed DAGs
 * guarantee.
 */
struct RawTape
{
    size_t numVars = 0;
    std::vector<RawInstr> instrs;
    std::vector<int32_t> outputSlots;
};

/** One optimized-tape operation; operands index the slot space. */
struct TapeInstr
{
    OpCode op;
    int32_t a0 = -1;
    int32_t a1 = -1;
    int32_t a2 = -1;
};

/**
 * An optimized tape program. Slot space layout:
 *
 *   [0, constants.size())   constant slots (filled at state bind)
 *   [firstVarSlot(), +numVars)  variable slots (filled per eval)
 *   [firstOpSlot(), numSlots()) one slot per instruction, in order
 */
struct TapeProgram
{
    size_t numVars = 0;
    std::vector<double> constants;    ///< values of the const slots
    std::vector<TapeInstr> instrs;    ///< executed per evaluation
    std::vector<int32_t> outputSlots; ///< into the slot space
    bool forwardOnly = false;
    size_t rawSize = 0;   ///< raw instruction count pre-optimization

    size_t firstVarSlot() const { return constants.size(); }
    size_t firstOpSlot() const { return constants.size() + numVars; }
    size_t numSlots() const { return firstOpSlot() + instrs.size(); }
};

/** What the optimizer did (metrics + tests). */
struct TapeOptStats
{
    size_t leavesHoisted = 0;   ///< const/var instrs moved to slots
    size_t constFolded = 0;     ///< ops folded to constants
    size_t identityForwarded = 0;
    size_t deadRemoved = 0;     ///< unreferenced ops dropped by DCE
};

/** Lower a set of expression roots to the raw tape format. */
RawTape buildRawTape(const std::vector<Expr> &roots,
                     const std::vector<std::string> &var_names);

/**
 * The optimizer pass. @p forward_only additionally enables identity
 * forwarding (see the file comment for why gradient-bearing tapes
 * must not use it).
 */
TapeProgram optimizeTape(const RawTape &raw, bool forward_only,
                         TapeOptStats *stats = nullptr);

/**
 * The scalar interpreter's forward sweep: @p values holds numSlots()
 * entries whose constant and variable slots are filled; every
 * instruction slot is written, in order. CompiledExprs::eval runs
 * it per point, and the SIMD row kernels (src/simd/) are
 * bit-identical to it per lane.
 */
void programForward(const TapeProgram &program, double *values);

} // namespace expr
} // namespace felix

#endif // FELIX_EXPR_TAPE_H_
