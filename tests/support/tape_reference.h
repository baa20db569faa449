/**
 * @file
 * Reference interpreters for the tape tests, and the per-point chain
 * of one descent step: the raw (unoptimized) tape format, a bare
 * optimized TapeProgram with its scalar reverse sweep
 * (programBackward), the reference gradient of a CompiledExprs, the
 * cost model's per-point score and input gradient, and one-off
 * evaluation of an expression. They run the engine's op kernels
 * (expr/op_kernels.h), so the tests compare raw against optimized
 * execution, and the batched production engines against these, bit
 * for bit.
 *
 * batchGradient() is the other way round: it differentiates one
 * point through the production entry points, so the tests that
 * check gradients for correctness exercise the code descent runs.
 */
#ifndef FELIX_TESTS_TAPE_REFERENCE_H_
#define FELIX_TESTS_TAPE_REFERENCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_model.h"
#include "expr/compiled.h"
#include "expr/expr.h"
#include "expr/tape.h"
#include "mlp_reference.h"

namespace felix {
namespace expr {

/** Execute a raw tape; @p values receives one value per instr. */
void rawForward(const RawTape &tape, const std::vector<double> &inputs,
                std::vector<double> &values,
                std::vector<double> &outputs);

/** Reverse sweep of a raw tape over the values of rawForward(). */
void rawBackward(const RawTape &tape, const std::vector<double> &values,
                 const std::vector<double> &output_grads,
                 std::vector<double> &input_grads);

/** programForward() on a fresh slot buffer holding the program's
 *  constants and @p inputs; @p values receives every slot. */
void runProgramForward(const TapeProgram &program,
                       const std::vector<double> &inputs,
                       std::vector<double> &values,
                       std::vector<double> &outputs);

/**
 * The scalar reverse sweep (programBackward) over the values of
 * runProgramForward(), seeded with @p output_grads on the output
 * slots. Every operand's adjoint accumulates, so the variable slots
 * end up holding d(seeded outputs)/d(input); instructions whose
 * adjoint is zero are skipped. Not valid on a forward-only program.
 * The SIMD tapeBackward kernels are bit-identical to it per lane.
 */
void runProgramBackward(const TapeProgram &program,
                        const std::vector<double> &values,
                        const std::vector<double> &output_grads,
                        std::vector<double> &input_grads);

/**
 * The reference gradient of @p compiled at @p inputs: its program()
 * through runProgramForward() and runProgramBackward(), seeded with
 * @p seeds on the outputs. Returns d(sum_k seeds[k] * output_k)/dx;
 * @p outputs, when given, receives the outputs.
 */
std::vector<double> referenceGradient(
    const CompiledExprs &compiled, const std::vector<double> &inputs,
    const std::vector<double> &seeds,
    std::vector<double> *outputs = nullptr);

/**
 * The same gradient through the production entry points, the point
 * as a width-1 batch: forwardBatchKeep(), beginBackwardBatch(), the
 * seeds added to the outputAdjRowPtr() rows, finishBackwardBatch().
 */
std::vector<double> batchGradient(const CompiledExprs &compiled,
                                  const std::vector<double> &inputs,
                                  const std::vector<double> &seeds);

/** Evaluate one expression at a variable assignment (compiles a
 *  throwaway tape). */
double evalExpr(const Expr &e,
                const std::unordered_map<std::string, double> &env);

} // namespace expr

namespace reference {

/**
 * The cost model's per-point chain, which FusedGradStep reproduces
 * per lane: standardize the transformed features with the model's
 * scaler, run the per-sample ReferenceMlp pass, then divide each
 * input gradient by its feature's stddev.
 */
class ReferenceCostModel
{
  public:
    explicit ReferenceCostModel(const costmodel::CostModel &model);

    /** Score of already-transformed features (phi applied), and
     *  d(score)/d(transformed feature) in @p grad. */
    double predictTransformedWithGrad(
        const std::vector<double> &transformed,
        std::vector<double> &grad) const;

  private:
    ReferenceMlp mlp_;
    costmodel::Scaler scaler_;
    double targetMean_;
};

} // namespace reference
} // namespace felix

#endif // FELIX_TESTS_TAPE_REFERENCE_H_
