#include "expr/compiled.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "expr/op_kernels.h"
#include "obs/metrics.h"
#include "simd/kernels.h"
#include "support/logging.h"

namespace felix {
namespace expr {

namespace {

uint64_t
nextTapeId()
{
    // Starts at 1 so a default-constructed state (boundTape == 0)
    // never matches a live tape.
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

CompiledExprs::CompiledExprs(std::vector<Expr> roots,
                             std::vector<std::string> var_order,
                             bool forward_only)
    : tapeId_(nextTapeId())
{
    if (var_order.empty())
        varNames_ = collectVars(roots);
    else
        varNames_ = std::move(var_order);

    RawTape raw = buildRawTape(roots, varNames_);
    program_ = optimizeTape(raw, forward_only, &optStats_);

    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("tape.instrs_raw")
        .add(static_cast<double>(program_.rawSize));
    reg.counter("tape.instrs_optimized")
        .add(static_cast<double>(program_.instrs.size()));
    reg.counter("tape.leaves_hoisted")
        .add(static_cast<double>(optStats_.leavesHoisted));
    reg.counter("tape.const_folded")
        .add(static_cast<double>(optStats_.constFolded));
    reg.counter("tape.identity_forwarded")
        .add(static_cast<double>(optStats_.identityForwarded));
    reg.counter("tape.dead_removed")
        .add(static_cast<double>(optStats_.deadRemoved));
}

void
CompiledExprs::bind(EvalState &state) const
{
    if (state.boundTape == tapeId_)
        return;
    // Constant slots are filled once per binding; forward only ever
    // writes variable and instruction slots after this.
    state.values.assign(program_.numSlots(), 0.0);
    std::copy(program_.constants.begin(), program_.constants.end(),
              state.values.begin());
    state.adjoints.clear();
    state.forwardDone = false;
    state.boundTape = tapeId_;
}

void
CompiledExprs::forward(const std::vector<double> &inputs,
                       std::vector<double> &outputs,
                       EvalState &state) const
{
    FELIX_CHECK(inputs.size() == varNames_.size(),
                "expected ", varNames_.size(), " inputs, got ",
                inputs.size());
    bind(state);
    std::vector<double> &values = state.values;
    std::copy(inputs.begin(), inputs.end(),
              values.begin() + program_.firstVarSlot());
    size_t slot = program_.firstOpSlot();
    for (const TapeInstr &instr : program_.instrs) {
        double args[3] = {0, 0, 0};
        args[0] = values[instr.a0];
        if (instr.a1 >= 0)
            args[1] = values[instr.a1];
        if (instr.a2 >= 0)
            args[2] = values[instr.a2];
        values[slot++] = opk::evalOpInline(instr.op, args);
    }
    outputs.resize(program_.outputSlots.size());
    for (size_t k = 0; k < program_.outputSlots.size(); ++k)
        outputs[k] = values[program_.outputSlots[k]];
    state.forwardDone = true;
}

void
CompiledExprs::backward(const std::vector<double> &output_grads,
                        std::vector<double> &input_grads,
                        EvalState &state) const
{
    FELIX_CHECK(!program_.forwardOnly,
                "backward() on a tape compiled forward-only");
    FELIX_CHECK(state.forwardDone && state.boundTape == tapeId_,
                "backward() before forward()");
    FELIX_CHECK(output_grads.size() == program_.outputSlots.size(),
                "expected ", program_.outputSlots.size(),
                " output grads");

    const std::vector<double> &values = state.values;
    std::vector<double> &adjoints = state.adjoints;
    adjoints.assign(program_.numSlots(), 0.0);
    for (size_t k = 0; k < program_.outputSlots.size(); ++k)
        adjoints[program_.outputSlots[k]] += output_grads[k];

    double dummy = 0.0;
    for (size_t i = program_.instrs.size(); i-- > 0;) {
        const TapeInstr &instr = program_.instrs[i];
        size_t slot = program_.firstOpSlot() + i;
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
    // Variable adjoints accumulate via += from +0.0 and can never
    // become -0.0, so a plain copy reproduces the historical
    // "+= only when nonzero" extraction bit for bit.
    input_grads.resize(varNames_.size());
    std::copy(adjoints.begin() + program_.firstVarSlot(),
              adjoints.begin() + program_.firstVarSlot() +
                  varNames_.size(),
              input_grads.begin());
}

void
CompiledExprs::bind(BatchEvalState &state) const
{
    if (state.boundTape == tapeId_)
        return;
    state.values.assign(program_.numSlots() * kBatchLanes, 0.0);
    for (size_t c = 0; c < program_.constants.size(); ++c) {
        double *row = &state.values[c * kBatchLanes];
        for (size_t l = 0; l < kBatchLanes; ++l)
            row[l] = program_.constants[c];
    }
    state.adjoints.clear();
    state.forwardDone = false;
    state.width = 0;
    state.boundTape = tapeId_;
}

void
CompiledExprs::forwardBatchKeep(const double *inputs, size_t width,
                                BatchEvalState &state) const
{
    FELIX_CHECK(width >= 1 && width <= kBatchLanes,
                "forwardBatch width ", width, " out of [1, ",
                kBatchLanes, "]");
    bind(state);
    double *vals = state.values.data();

    // Variable rows. Padding lanes replicate lane 0 so every lane
    // computes on real, finite inputs (no NaN surprises, no denormal
    // slowdowns) while the lane loops keep their fixed trip count.
    const size_t varBase = program_.firstVarSlot();
    for (size_t v = 0; v < program_.numVars; ++v) {
        double *row = &vals[(varBase + v) * kBatchLanes];
        const double *in = &inputs[v * kBatchLanes];
        for (size_t l = 0; l < kBatchLanes; ++l)
            row[l] = in[l < width ? l : 0];
    }

    // The instruction sweep runs in the runtime-dispatched SIMD
    // backend (src/simd/): the same per-op kernels as the scalar
    // walk, in lane-vector form (expr/op_kernels.h), chunked across
    // the kBatchLanes-wide rows. Tape slots are SSA — operands always
    // live in strictly earlier slots, so the destination row never
    // aliases them — and every backend is bit-identical per lane
    // (tests/test_simd.cc).
    simd::activeKernels().tapeForward(program_, vals);

    state.width = width;
    state.forwardDone = true;
}

const double *
CompiledExprs::outputRowPtr(size_t k,
                            const BatchEvalState &state) const
{
    return &state.values[static_cast<size_t>(
                             program_.outputSlots[k]) *
                         kBatchLanes];
}

void
CompiledExprs::forwardBatch(const double *inputs, size_t width,
                            double *outputs,
                            BatchEvalState &state) const
{
    forwardBatchKeep(inputs, width, state);
    for (size_t k = 0; k < program_.outputSlots.size(); ++k) {
        const double *row = outputRowPtr(k, state);
        double *outRow = &outputs[k * kBatchLanes];
        for (size_t l = 0; l < kBatchLanes; ++l)
            outRow[l] = row[l];
    }
}

void
CompiledExprs::beginBackwardBatch(BatchEvalState &state) const
{
    FELIX_CHECK(!program_.forwardOnly,
                "backwardBatch() on a tape compiled forward-only");
    FELIX_CHECK(state.forwardDone && state.boundTape == tapeId_,
                "backwardBatch() before forwardBatch()");
    state.adjoints.assign(program_.numSlots() * kBatchLanes, 0.0);
}

double *
CompiledExprs::outputAdjRowPtr(size_t k, BatchEvalState &state) const
{
    return &state.adjoints[static_cast<size_t>(
                               program_.outputSlots[k]) *
                           kBatchLanes];
}

void
CompiledExprs::finishBackwardBatch(double *input_grads,
                                   BatchEvalState &state) const
{
    const double *vals = state.values.data();
    double *adjs = state.adjoints.data();

    // The reverse sweep runs in the dispatched backend: per-chunk
    // all-zero skip (the vector form of the scalar zero-skip) and
    // blended adjoint updates whose masked-out lanes contribute an
    // exact +0.0 — a bitwise no-op on accumulator rows — so the
    // data-dependent branch structure of backpropOp is reproduced
    // bit for bit at every width (see opk::backpropOpV).
    simd::activeKernels().tapeBackward(program_, vals, adjs);

    const size_t varBase = program_.firstVarSlot();
    for (size_t v = 0; v < program_.numVars; ++v) {
        const double *row = &adjs[(varBase + v) * kBatchLanes];
        double *g = &input_grads[v * kBatchLanes];
        for (size_t l = 0; l < kBatchLanes; ++l)
            g[l] = row[l];
    }
}

void
CompiledExprs::backwardBatch(const double *output_grads,
                             double *input_grads,
                             BatchEvalState &state) const
{
    beginBackwardBatch(state);
    const size_t width = state.width;

    // Seed active lanes only; padding lanes keep zero adjoints, so
    // the per-lane zero-skip in the sweep short-circuits their work.
    for (size_t k = 0; k < program_.outputSlots.size(); ++k) {
        double *row = outputAdjRowPtr(k, state);
        const double *g = &output_grads[k * kBatchLanes];
        for (size_t l = 0; l < width; ++l)
            row[l] += g[l];
    }

    finishBackwardBatch(input_grads, state);
}

std::vector<double>
CompiledExprs::eval(const std::vector<double> &inputs,
                    EvalState &state) const
{
    std::vector<double> outputs;
    forward(inputs, outputs, state);
    return outputs;
}

void
CompiledExprs::forward(const std::vector<double> &inputs,
                       std::vector<double> &outputs)
{
    forward(inputs, outputs, state_);
}

void
CompiledExprs::backward(const std::vector<double> &output_grads,
                        std::vector<double> &input_grads)
{
    backward(output_grads, input_grads, state_);
}

std::vector<double>
CompiledExprs::eval(const std::vector<double> &inputs)
{
    return eval(inputs, state_);
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
