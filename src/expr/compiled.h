/**
 * @file
 * Tape compilation of expression DAGs.
 *
 * Gradient descent evaluates the same feature formulas thousands of
 * times at different variable values. CompiledExprs lowers a set of
 * expression roots into a linear instruction tape (one instruction
 * per distinct DAG node, topologically ordered) and then runs the
 * tape optimizer (expr/tape.h) over it at construction, so that
 *  - forward evaluation is a tight loop over flat arrays whose
 *    per-eval instruction stream contains only real operations
 *    (constant and variable leaves live in dedicated slots): one
 *    point at a time on the scalar sweep (constraint checks and
 *    concrete features), or up to kBatchLanes points in lockstep
 *    through the batched structure-of-arrays entry points,
 *    bit-identically per point;
 *  - reverse-mode differentiation replays the tape backwards,
 *    accumulating adjoints (the same trick PyTorch's autograd tape
 *    uses, which the paper relies on for back-propagation). It runs
 *    only batched, in the SIMD row kernels; a single point is a
 *    width-1 batch. The per-point reverse sweep it reproduces bit
 *    for bit per lane lives on as a test reference
 *    (tests/support/tape_reference.h; docs/tape_engine.md).
 */
#ifndef FELIX_EXPR_COMPILED_H_
#define FELIX_EXPR_COMPILED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/tape.h"
#include "support/aligned.h"
#include "support/batch.h"

namespace felix {
namespace expr {

/**
 * Per-thread scratch buffer for the scalar forward of one
 * CompiledExprs tape: one value per slot, sized lazily on first use.
 * A compiled tape is immutable after construction, so any number of
 * workers can share one CompiledExprs as long as each brings its own
 * EvalState.
 *
 * A state binds to the tape it was last used with (constant slots
 * are prefilled at bind time) and rebinds transparently when handed
 * to a different tape, so long-lived per-worker states can be reused
 * across tapes and rounds without reallocation in steady state.
 */
struct EvalState
{
    std::vector<double> values;    ///< forward value per tape slot
    uint64_t boundTape = 0;        ///< id of the tape values are for
};

/**
 * Scratch for the batched SoA entry points: values and adjoints,
 * one row of kBatchLanes doubles per tape slot, lane-major within
 * the row. Allocate once per worker and reuse.
 * Rows are cache-line-aligned (support/aligned.h) so the SIMD
 * backends' loads and stores never split a line — the tape is one
 * long dependent chain of store-then-reload rows, and split-line
 * stores defeat store-to-load forwarding.
 */
struct BatchEvalState
{
    AlignedRows values;    ///< numSlots x kBatchLanes
    AlignedRows adjoints;  ///< numSlots x kBatchLanes
    size_t width = 0;              ///< active lanes of last forward
    bool forwardDone = false;
    uint64_t boundTape = 0;
};

/**
 * A set of expressions compiled to a shared evaluation tape.
 *
 * Immutable after construction, and every entry point is const and
 * thread-safe: each thread brings its own EvalState/BatchEvalState.
 */
class CompiledExprs
{
  public:
    /**
     * Compile the given roots.
     *
     * @param roots Output expressions (e.g. 82 features + penalties).
     * @param var_order Variable slot order; when empty, the distinct
     *        variables are collected and sorted by name.
     * @param forward_only Promise that no reverse sweep will run on
     *        this tape; unlocks the identity-forwarding optimizer
     *        pass (which is forward-bit-exact but not
     *        backward-bit-exact, see expr/tape.h).
     */
    explicit CompiledExprs(std::vector<Expr> roots,
                           std::vector<std::string> var_order = {},
                           bool forward_only = false);

    /** Variable slot order expected by eval() and the batches. */
    const std::vector<std::string> &varNames() const { return varNames_; }

    size_t numVars() const { return varNames_.size(); }
    size_t numOutputs() const { return program_.outputSlots.size(); }

    /** Number of raw tape instructions (== distinct DAG nodes). */
    size_t tapeSize() const { return program_.rawSize; }

    /** Number of per-eval instructions after the optimizer pass. */
    size_t optimizedSize() const { return program_.instrs.size(); }

    /** What the optimizer did to this tape. */
    const TapeOptStats &optStats() const { return optStats_; }

    /** The optimized program (tests and the microbenchmark). */
    const TapeProgram &program() const { return program_; }

    /**
     * Evaluate all roots at the given variable values, one point on
     * the scalar sweep (programForward).
     *
     * @param inputs One value per variable, in varNames() order.
     * @param state Per-thread scratch buffer.
     * @return numOutputs() values.
     */
    std::vector<double> eval(const std::vector<double> &inputs,
                             EvalState &state) const;

    /**
     * Evaluate @p width points (1..kBatchLanes) in lockstep.
     *
     * All buffers are SoA rows of kBatchLanes doubles:
     * inputs[v * kBatchLanes + lane] is variable v of point `lane`,
     * outputs[k * kBatchLanes + lane] likewise. Lanes >= width are
     * padding: the sweep covers only the vector chunks that hold
     * active lanes, padding inside those chunks runs on copies of
     * lane 0, and the padding lanes of @p outputs are left as they
     * were. Each active lane's outputs are bit-identical to eval() of
     * the same point.
     *
     * @param inputs numVars() rows.
     * @param width Active lane count, 1..kBatchLanes.
     * @param outputs Receives numOutputs() rows.
     * @param state Per-thread batched scratch.
     */
    void forwardBatch(const double *inputs, size_t width,
                      double *outputs, BatchEvalState &state) const;

    // ----- Reverse sweep -----------------------------------------
    //
    // Computes d(sum_k seed_k * output_k)/d(input_j) per lane.
    // Non-differentiable ops (min/max/select/abs) use the standard
    // one-sided subgradient convention; comparisons and floor have
    // zero derivative. The fused surrogate step (costmodel/fused.h)
    // reads tape outputs and seeds adjoints directly inside the SoA
    // slot buffers, keeping the 82-feature rows resident in L1
    // between the tape and the MLP:
    //
    //   forwardBatchKeep(...);             // sweep, no output copy
    //   ... read outputRowPtr(k, state) rows in place ...
    //   beginBackwardBatch(state);         // zero the adjoints
    //   ... accumulate into outputAdjRowPtr(k, state) rows ...
    //   finishBackwardBatch(grads, state); // reverse sweep + copy
    //
    // forwardBatch is forwardBatchKeep plus the output copy.

    /** forwardBatch without materializing the outputs; read them via
     *  outputRowPtr(). */
    void forwardBatchKeep(const double *inputs, size_t width,
                          BatchEvalState &state) const;

    /** Row of output @p k inside @p state after forwardBatchKeep().
     *  Valid until the next forward on the state. */
    const double *outputRowPtr(size_t k,
                               const BatchEvalState &state) const;

    /** Zero the adjoint buffer ahead of seeding. Call after a
     *  forward on @p state, then accumulate seeds into the active
     *  lanes of outputAdjRowPtr() rows; padding lanes keep zero
     *  adjoints, so they contribute nothing. */
    void beginBackwardBatch(BatchEvalState &state) const;

    /** Adjoint-seed row of output @p k (after beginBackwardBatch). */
    double *outputAdjRowPtr(size_t k, BatchEvalState &state) const;

    /** Reverse sweep over the seeded adjoints; writes numVars() rows
     *  of input gradients (active lanes only). Each active lane's
     *  gradients are bit-identical to the per-point reverse sweep of
     *  the same point and seeds. */
    void finishBackwardBatch(double *input_grads,
                             BatchEvalState &state) const;

  private:
    void bind(EvalState &state) const;
    void bind(BatchEvalState &state) const;

    std::vector<std::string> varNames_;
    TapeProgram program_;
    TapeOptStats optStats_;
    uint64_t tapeId_;   ///< process-unique, guards state rebinding
};

} // namespace expr
} // namespace felix

#endif // FELIX_EXPR_COMPILED_H_
