/**
 * @file
 * The fused surrogate gradient step (one round-step of Felix's
 * descent, Algorithm 1 lines 15-18, as a single blocked pass).
 *
 * Chaining the engines' public batched entry points (forwardBatch,
 * predictTransformedWithGradBatch, backwardBatch) materializes three
 * full feature matrices per step: tape outputs copied out of the SoA
 * slot buffer, scaled copies staged for the MLP, and the MLP input
 * gradient copied back into an adjoint-seed matrix for the tape.
 * FusedGradStep, the only descent step GradientSearch::round runs,
 * chains the same four stages — tape forward, MLP forward, MLP input
 * gradient, tape backward — through the engines' internal SoA rows
 * instead:
 *
 *   tape forwardBatchKeep        (outputs stay in the slot buffer)
 *     -> standardize rows straight into Mlp::stageInputRows
 *     -> Mlp::forwardInputGradStaged (grad stays in MLP scratch)
 *     -> seed tape adjoints straight from the MLP gradient rows
 *   tape finishBackwardBatch     (input grads out, as before)
 *
 * Bit-exactness: every arithmetic operation, in the same order, on
 * the same values as the unfused sequence — the only eliminated work
 * is copies (and the penalty seed's "+= 0.0" writes, which are
 * bitwise no-ops on the freshly zeroed adjoint rows).
 * tests/test_simd.cc asserts fused == unfused per lane, bit for bit,
 * at every width on every backend.
 */
#ifndef FELIX_COSTMODEL_FUSED_H_
#define FELIX_COSTMODEL_FUSED_H_

#include <cstddef>

#include "costmodel/cost_model.h"
#include "expr/compiled.h"

namespace felix {
namespace costmodel {

/**
 * One objective tape + cost model pair bound for fused stepping.
 * Immutable and thread-safe: workers share one FusedGradStep and
 * bring their own BatchEvalState/PredictScratch, exactly like the
 * underlying engines.
 */
class FusedGradStep
{
  public:
    /**
     * @param objective Tape whose first @p numFeatures outputs are
     *        the smoothed model inputs and next @p numPenalties
     *        outputs the constraint penalties (optim/search.cc).
     * @param model Fitted cost model (scaler + MLP).
     * @param lambda Penalty weight (GradSearchOptions::lambda).
     */
    FusedGradStep(const expr::CompiledExprs &objective,
                  const CostModel &model, size_t numFeatures,
                  size_t numPenalties, double lambda);

    /**
     * One surrogate step: tape forward, model score + input
     * gradient, adjoint seeding, tape backward.
     *
     * @param inputs numVars rows of kBatchLanes doubles (SoA).
     * @param width Active lanes, 1..kBatchLanes.
     * @param scores One row; scores[l] is the model score of lane l
     *        (active lanes only).
     * @param inputGrads numVars rows: d(-score + penalty)/d(input),
     *        the descent direction the Adam step consumes.
     */
    void run(const double *inputs, size_t width, double *scores,
             double *inputGrads, expr::BatchEvalState &tape,
             PredictScratch &scratch) const;

  private:
    const expr::CompiledExprs &objective_;
    const CostModel &model_;
    size_t numFeatures_;
    size_t numPenalties_;
    double lambda_;
};

} // namespace costmodel
} // namespace felix

#endif // FELIX_COSTMODEL_FUSED_H_
