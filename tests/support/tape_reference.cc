#include "tape_reference.h"

#include <algorithm>

#include "expr/compiled.h"
#include "expr/op_kernels.h"
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
    return compiled.eval(inputs)[0];
}

} // namespace expr
} // namespace felix
