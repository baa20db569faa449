#include "costmodel/fused.h"

#include "support/batch.h"
#include "support/logging.h"

namespace felix {
namespace costmodel {

FusedGradStep::FusedGradStep(const expr::CompiledExprs &objective,
                             const CostModel &model,
                             size_t numFeatures, size_t numPenalties,
                             double lambda)
    : objective_(objective), model_(model),
      numFeatures_(numFeatures), numPenalties_(numPenalties),
      lambda_(lambda)
{
    FELIX_CHECK(model_.scaler().fitted(),
                "FusedGradStep on an unfitted cost model");
    FELIX_CHECK(model_.scaler().means().size() == numFeatures_,
                "FusedGradStep: tape emits ", numFeatures_,
                " features but the model expects ",
                model_.scaler().means().size());
    FELIX_CHECK(objective_.numOutputs() ==
                    numFeatures_ + numPenalties_,
                "FusedGradStep: objective outputs don't match "
                "features + penalties");
}

void
FusedGradStep::run(const double *inputs, size_t width,
                   double *scores, double *inputGrads,
                   expr::BatchEvalState &tape,
                   PredictScratch &scratch) const
{
    constexpr size_t L = kBatchLanes;
    const Mlp &mlp = model_.mlp();
    const double *means = model_.scaler().means().data();
    const double *stds = model_.scaler().stddevs().data();

    objective_.forwardBatchKeep(inputs, width, tape);

    // Standardize the feature rows straight out of the tape's slot
    // buffer into the network's input rows, per lane the arithmetic
    // of Scaler::apply. Every stage from here on sweeps only the
    // live lanes' vector chunks.
    double *xRows = mlp.stageInputRows(scratch.mlp);
    for (size_t k = 0; k < numFeatures_; ++k) {
        const double *in = objective_.outputRowPtr(k, tape);
        double *out = &xRows[k * L];
        for (size_t l = 0; l < width; ++l)
            out[l] = (in[l] - means[k]) / stds[k];
    }

    double y[kBatchLanes];
    mlp.forwardInputGradStaged(width, y, scratch.mlp);
    for (size_t l = 0; l < width; ++l)
        scores[l] = model_.targetMean() + y[l];

    // Seed the tape adjoints directly from the MLP gradient rows:
    // adjoint += -(grad / sigma), per lane the per-point chain's
    // grad /= sigma, seed = -grad, adjoint += seed (the adjoint rows
    // were just zeroed, so += is the identical accumulation).
    objective_.beginBackwardBatch(tape);
    const double *gRows = mlp.inputGradRows(scratch.mlp);
    for (size_t k = 0; k < numFeatures_; ++k) {
        const double *g = &gRows[k * L];
        double *adj = objective_.outputAdjRowPtr(k, tape);
        for (size_t l = 0; l < width; ++l)
            adj[l] += -(g[l] / stds[k]);
    }
    // Penalty seeds: lambda * d(p^2)/dp for violated constraints.
    // A zero seed for a satisfied one would add +0.0 — a bitwise
    // no-op on the zeroed rows — so skipping the add is
    // bit-identical.
    for (size_t p = 0; p < numPenalties_; ++p) {
        const double *out =
            objective_.outputRowPtr(numFeatures_ + p, tape);
        double *adj =
            objective_.outputAdjRowPtr(numFeatures_ + p, tape);
        for (size_t l = 0; l < width; ++l) {
            const double v = out[l];
            if (v > 0.0)
                adj[l] += lambda_ * 2.0 * v;
        }
    }

    objective_.finishBackwardBatch(inputGrads, tape);
}

} // namespace costmodel
} // namespace felix
