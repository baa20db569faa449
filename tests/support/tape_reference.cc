#include "tape_reference.h"

#include <algorithm>
#include <sstream>

#include "expr/op_kernels.h"
#include "support/batch.h"
#include "support/logging.h"

namespace felix {
namespace expr {

void
rawForward(const RawTape &tape, const std::vector<double> &inputs,
           std::vector<double> &values, std::vector<double> &outputs)
{
    FELIX_CHECK(inputs.size() == tape.numVars,
                "rawForward: expected ", tape.numVars, " inputs");
    values.resize(tape.instrs.size());
    for (size_t i = 0; i < tape.instrs.size(); ++i) {
        const RawInstr &instr = tape.instrs[i];
        switch (instr.op) {
          case OpCode::ConstOp:
            values[i] = instr.payload;
            break;
          case OpCode::VarOp:
            values[i] = inputs[static_cast<size_t>(instr.payload)];
            break;
          default: {
            double args[3] = {0, 0, 0};
            args[0] = values[instr.a0];
            if (instr.a1 >= 0)
                args[1] = values[instr.a1];
            if (instr.a2 >= 0)
                args[2] = values[instr.a2];
            values[i] = opk::evalOpInline(instr.op, args);
            break;
          }
        }
    }
    outputs.resize(tape.outputSlots.size());
    for (size_t k = 0; k < tape.outputSlots.size(); ++k)
        outputs[k] = values[tape.outputSlots[k]];
}

void
rawBackward(const RawTape &tape, const std::vector<double> &values,
            const std::vector<double> &output_grads,
            std::vector<double> &input_grads)
{
    FELIX_CHECK(values.size() == tape.instrs.size(),
                "rawBackward: run rawForward first");
    FELIX_CHECK(output_grads.size() == tape.outputSlots.size(),
                "rawBackward: expected ", tape.outputSlots.size(),
                " output grads");
    std::vector<double> adjoints(tape.instrs.size(), 0.0);
    for (size_t k = 0; k < tape.outputSlots.size(); ++k)
        adjoints[tape.outputSlots[k]] += output_grads[k];
    input_grads.assign(tape.numVars, 0.0);

    double dummy = 0.0;
    for (size_t idx = tape.instrs.size(); idx-- > 0;) {
        const RawInstr &instr = tape.instrs[idx];
        double adj = adjoints[idx];
        if (adj == 0.0)
            continue;
        if (instr.op == OpCode::ConstOp)
            continue;
        if (instr.op == OpCode::VarOp) {
            input_grads[static_cast<size_t>(instr.payload)] += adj;
            continue;
        }
        double a0 = values[instr.a0];
        double a1 = instr.a1 >= 0 ? values[instr.a1] : 0.0;
        opk::backpropOp(instr.op, adj, values[idx], a0, a1,
                        &adjoints[instr.a0],
                        instr.a1 >= 0 ? &adjoints[instr.a1] : &dummy,
                        instr.a2 >= 0 ? &adjoints[instr.a2] : &dummy);
    }
}

namespace {

void
programBackward(const TapeProgram &program, const double *values,
                double *adjoints)
{
    double dummy = 0.0;
    for (size_t i = program.instrs.size(); i-- > 0;) {
        const TapeInstr &instr = program.instrs[i];
        size_t slot = program.firstOpSlot() + i;
        double adj = adjoints[slot];
        if (adj == 0.0)
            continue;
        double a0 = values[instr.a0];
        double a1 = instr.a1 >= 0 ? values[instr.a1] : 0.0;
        opk::backpropOp(instr.op, adj, values[slot], a0, a1,
                        &adjoints[instr.a0],
                        instr.a1 >= 0 ? &adjoints[instr.a1] : &dummy,
                        instr.a2 >= 0 ? &adjoints[instr.a2] : &dummy);
    }
}

} // namespace

void
runProgramForward(const TapeProgram &program,
                  const std::vector<double> &inputs,
                  std::vector<double> &values,
                  std::vector<double> &outputs)
{
    FELIX_CHECK(inputs.size() == program.numVars,
                "runProgramForward: expected ", program.numVars,
                " inputs");
    values.assign(program.numSlots(), 0.0);
    std::copy(program.constants.begin(), program.constants.end(),
              values.begin());
    std::copy(inputs.begin(), inputs.end(),
              values.begin() + program.firstVarSlot());
    programForward(program, values.data());
    outputs.resize(program.outputSlots.size());
    for (size_t k = 0; k < program.outputSlots.size(); ++k)
        outputs[k] = values[program.outputSlots[k]];
}

void
runProgramBackward(const TapeProgram &program,
                   const std::vector<double> &values,
                   const std::vector<double> &output_grads,
                   std::vector<double> &input_grads)
{
    FELIX_CHECK(!program.forwardOnly,
                "runProgramBackward on a forward-only tape");
    FELIX_CHECK(values.size() == program.numSlots(),
                "runProgramBackward: run runProgramForward first");
    FELIX_CHECK(output_grads.size() == program.outputSlots.size(),
                "runProgramBackward: expected ",
                program.outputSlots.size(), " output grads");
    std::vector<double> adjoints(program.numSlots(), 0.0);
    for (size_t k = 0; k < program.outputSlots.size(); ++k)
        adjoints[program.outputSlots[k]] += output_grads[k];
    programBackward(program, values.data(), adjoints.data());
    input_grads.assign(adjoints.begin() + program.firstVarSlot(),
                       adjoints.begin() + program.firstVarSlot() +
                           program.numVars);
}

std::vector<double>
referenceGradient(const CompiledExprs &compiled,
                  const std::vector<double> &inputs,
                  const std::vector<double> &seeds,
                  std::vector<double> *outputs)
{
    std::vector<double> values, out, grads;
    runProgramForward(compiled.program(), inputs, values, out);
    runProgramBackward(compiled.program(), values, seeds, grads);
    if (outputs)
        *outputs = std::move(out);
    return grads;
}

std::vector<double>
batchGradient(const CompiledExprs &compiled,
              const std::vector<double> &inputs,
              const std::vector<double> &seeds)
{
    constexpr size_t L = kBatchLanes;
    FELIX_CHECK(inputs.size() == compiled.numVars(),
                "batchGradient: expected ", compiled.numVars(),
                " inputs");
    FELIX_CHECK(seeds.size() == compiled.numOutputs(),
                "batchGradient: expected ", compiled.numOutputs(),
                " seeds");
    std::vector<double> rows(inputs.size() * L, 0.0);
    for (size_t v = 0; v < inputs.size(); ++v)
        rows[v * L] = inputs[v];
    BatchEvalState state;
    compiled.forwardBatchKeep(rows.data(), 1, state);
    compiled.beginBackwardBatch(state);
    for (size_t k = 0; k < seeds.size(); ++k)
        compiled.outputAdjRowPtr(k, state)[0] += seeds[k];
    std::vector<double> gradRows(inputs.size() * L);
    compiled.finishBackwardBatch(gradRows.data(), state);
    std::vector<double> grads(inputs.size());
    for (size_t v = 0; v < inputs.size(); ++v)
        grads[v] = gradRows[v * L];
    return grads;
}

double
evalExpr(const Expr &e,
         const std::unordered_map<std::string, double> &env)
{
    CompiledExprs compiled({e});
    std::vector<double> inputs;
    inputs.reserve(compiled.numVars());
    for (const std::string &name : compiled.varNames()) {
        auto it = env.find(name);
        FELIX_CHECK(it != env.end(), "missing value for variable ", name);
        inputs.push_back(it->second);
    }
    EvalState state;
    return compiled.eval(inputs, state)[0];
}

} // namespace expr

namespace reference {

namespace {

std::string
fullText(const costmodel::Mlp &mlp)
{
    std::ostringstream os;
    mlp.saveFull(os);
    return os.str();
}

} // namespace

ReferenceCostModel::ReferenceCostModel(const costmodel::CostModel &model)
    : mlp_(fullText(model.mlp())), scaler_(model.scaler()),
      targetMean_(model.targetMean())
{
}

double
ReferenceCostModel::predictTransformedWithGrad(
    const std::vector<double> &transformed,
    std::vector<double> &grad) const
{
    const double score =
        mlp_.forwardInputGrad(scaler_.apply(transformed), grad);
    // Chain through standardization: d/dz = d/dz' / sigma.
    const std::vector<double> &stds = scaler_.stddevs();
    for (size_t i = 0; i < grad.size(); ++i)
        grad[i] /= stds[i];
    return targetMean_ + score;
}

} // namespace reference
} // namespace felix
