#include "expr/compiled.h"

#include <algorithm>
#include <atomic>

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
    state.boundTape = tapeId_;
}

std::vector<double>
CompiledExprs::eval(const std::vector<double> &inputs,
                    EvalState &state) const
{
    FELIX_CHECK(inputs.size() == varNames_.size(),
                "expected ", varNames_.size(), " inputs, got ",
                inputs.size());
    bind(state);
    std::vector<double> &values = state.values;
    std::copy(inputs.begin(), inputs.end(),
              values.begin() + program_.firstVarSlot());
    programForward(program_, values.data());
    std::vector<double> outputs(program_.outputSlots.size());
    for (size_t k = 0; k < program_.outputSlots.size(); ++k)
        outputs[k] = values[program_.outputSlots[k]];
    return outputs;
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
    // the sweep touches computes on real, finite inputs (no NaN
    // surprises, no denormal slowdowns): the kernels sweep whole
    // vector chunks, and the last live chunk may hold padding.
    const size_t varBase = program_.firstVarSlot();
    for (size_t v = 0; v < program_.numVars; ++v) {
        double *row = &vals[(varBase + v) * kBatchLanes];
        const double *in = &inputs[v * kBatchLanes];
        for (size_t l = 0; l < kBatchLanes; ++l)
            row[l] = in[l < width ? l : 0];
    }

    // The instruction sweep runs in the runtime-dispatched SIMD
    // backend (src/simd/): the same per-op kernels as the scalar
    // walk, in lane-vector form (expr/op_kernels.h), over the vector
    // chunks of each row that hold live lanes. Tape slots are SSA —
    // operands always live in strictly earlier slots, so the
    // destination row never aliases them — and every backend is
    // bit-identical per lane (tests/test_simd.cc).
    simd::activeKernels().tapeForward(program_, vals, width);

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
        for (size_t l = 0; l < width; ++l)
            outRow[l] = row[l];
    }
}

void
CompiledExprs::beginBackwardBatch(BatchEvalState &state) const
{
    FELIX_CHECK(!program_.forwardOnly,
                "beginBackwardBatch() on a tape compiled forward-only");
    FELIX_CHECK(state.forwardDone && state.boundTape == tapeId_,
                "beginBackwardBatch() before forwardBatch()");
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

    // The reverse sweep runs in the dispatched backend over the
    // forward's live chunks: per-chunk all-zero skip (the vector form
    // of the scalar zero-skip) and blended adjoint updates whose
    // masked-out lanes contribute an exact +0.0 — a bitwise no-op on
    // accumulator rows — so the data-dependent branch structure of
    // backpropOp is reproduced bit for bit at every width (see
    // opk::backpropOpV).
    const size_t width = state.width;
    simd::activeKernels().tapeBackward(program_, vals, adjs, width);

    const size_t varBase = program_.firstVarSlot();
    for (size_t v = 0; v < program_.numVars; ++v) {
        const double *row = &adjs[(varBase + v) * kBatchLanes];
        double *g = &input_grads[v * kBatchLanes];
        for (size_t l = 0; l < width; ++l)
            g[l] = row[l];
    }
}

} // namespace expr
} // namespace felix
