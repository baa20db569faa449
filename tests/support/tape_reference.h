/**
 * @file
 * Reference interpreters for the tape tests: the raw (unoptimized)
 * tape format, a bare optimized TapeProgram, and one-off evaluation
 * of an expression. They run the engine's op kernels
 * (expr/op_kernels.h) and its scalar sweeps (expr/tape.h), so the
 * tests compare raw against optimized execution bit for bit.
 */
#ifndef FELIX_TESTS_TAPE_REFERENCE_H_
#define FELIX_TESTS_TAPE_REFERENCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "expr/tape.h"

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

/** programBackward() over the values of runProgramForward(), seeded
 *  with @p output_grads on the output slots. */
void runProgramBackward(const TapeProgram &program,
                        const std::vector<double> &values,
                        const std::vector<double> &output_grads,
                        std::vector<double> &input_grads);

/** Evaluate one expression at a variable assignment (compiles a
 *  throwaway tape). */
double evalExpr(const Expr &e,
                const std::unordered_map<std::string, double> &env);

} // namespace expr
} // namespace felix

#endif // FELIX_TESTS_TAPE_REFERENCE_H_
