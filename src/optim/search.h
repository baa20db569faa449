/**
 * @file
 * Search-strategy interface and the gradient-descent schedule search
 * (paper Algorithm 1).
 *
 * A SearchStrategy proposes, per tuning round, a small set of
 * concrete candidate schedules to measure on hardware. Felix's
 * GradientSearch relaxes the schedule variables into log space,
 * minimizes the differentiable objective
 *
 *   O(y) = sum_i ( -C(Feat_i(e^y)) + lambda * sum_r max(g_ir, 0)^2 )
 *
 * with Adam from nSeeds random valid seeds for nSteps steps, rounds
 * every visited point back to a valid integer schedule, and returns
 * the top nMeasure by cost-model-predicted performance. The
 * evolutionary baseline (evolutionary/) implements the same
 * interface with Ansor's population search.
 */
#ifndef FELIX_OPTIM_SEARCH_H_
#define FELIX_OPTIM_SEARCH_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "costmodel/cost_model.h"
#include "expr/compiled.h"
#include "optim/adam.h"
#include "rewrite/smoothing.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/rng.h"
#include "tir/compute.h"

namespace felix {
namespace optim {

/** A concrete candidate schedule produced by a search round. */
struct Candidate
{
    int sketchIndex = 0;
    std::vector<double> x;             ///< valid integer assignment
    std::vector<double> rawFeatures;   ///< exact concrete features
    double predictedScore = 0.0;       ///< cost-model score (higher better)
};

/**
 * Candidate serialization for round-state checkpoints: precision-17
 * text, exact double round trip. readCandidate returns false on
 * malformed input without touching @p out.
 */
void writeCandidate(std::ostream &os, const Candidate &candidate);
bool readCandidate(std::istream &is, Candidate &out);

/** Per-round instrumentation (drives Fig. 8 and the round log). */
struct SearchTrace
{
    /** Predicted score of each schedule visited, in search order. */
    std::vector<double> visitedScores;
    int numPredictions = 0;   ///< cost-model invocations this round
    /** Seeds launched (gradient) / population size (evolutionary). */
    int seedsLaunched = 0;
    /** Points rounded back to integer schedules this round, and how
     *  many of them violated a legality constraint (the per-round
     *  constraint-violation rate is roundingInvalid/roundingAttempts;
     *  for the evolutionary baseline these count generated children
     *  and the ones rejected as infeasible). */
    int roundingAttempts = 0;
    int roundingInvalid = 0;
};

/** Result of one search round. */
struct RoundResult
{
    std::vector<Candidate> toMeasure;
    SearchTrace trace;
};

/**
 * sketch::generateSketches, timed into the phase metrics both search
 * strategies share: the `sketch.generate_ms` counter and the
 * `sketch.generate` span.
 */
std::vector<sketch::SymbolicSchedule>
generateSketchesTimed(const tir::SubgraphDef &subgraph,
                      const sketch::GenOptions &options);

/** Common interface of Felix's and Ansor's candidate search. */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** One round of candidate search for this strategy's subgraph. */
    virtual RoundResult round(const costmodel::CostModel &model,
                              Rng &rng) = 0;

    /**
     * Feedback after hardware measurement of a proposed candidate.
     * Strategies may use it to warm-start later rounds.
     */
    virtual void
    observe(const Candidate &candidate, double measured_latency_sec)
    {
        (void)candidate;
        (void)measured_latency_sec;
    }

    /** The symbolic schedules spanning the search space. */
    virtual const std::vector<sketch::SymbolicSchedule> &
    sketches() const = 0;

    /**
     * Serialize the cross-round state (warm-start seeds, carried
     * population) for the round-state checkpoint. The search space
     * itself (sketches, tapes, constraint checkers) is rebuilt
     * deterministically from the subgraph at construction and is
     * never serialized. The base strategy is stateless.
     */
    virtual void
    saveState(std::ostream &os) const
    {
        (void)os;
    }

    /**
     * Restore a saveState() blob into a freshly constructed
     * strategy for the same subgraph. False on malformed input.
     */
    virtual bool
    loadState(std::istream &is)
    {
        (void)is;
        return true;
    }
};

/** Gradient-descent search options (paper §5 defaults). */
struct GradSearchOptions
{
    int nSeeds = 8;
    int nSteps = 200;
    int nMeasure = 16;
    double lambda = 10.0;       ///< constraint penalty coefficient
    AdamConfig adam;
    sketch::GenOptions sketchOptions;

    // Ablation knobs (bench/ablation_*): the production pipeline
    // smooths with the algebraic kernel and optimizes in log space.
    rewrite::Kernel kernel = rewrite::Kernel::Algebraic;
    /** false: keep the raw non-differentiable feature formulas
     *  (gradient descent sees subgradients / zero gradients). */
    bool applySmoothing = true;
    /** false: skip the log-feature + x = e^y rewrites and optimize
     *  the variables directly in x space. */
    bool applyLogExp = true;
};

/** Felix's gradient-descent schedule search for one subgraph. */
class GradientSearch : public SearchStrategy
{
  public:
    GradientSearch(const tir::SubgraphDef &subgraph,
                   GradSearchOptions options = {});

    RoundResult round(const costmodel::CostModel &model,
                      Rng &rng) override;

    /** Remembers the best measured schedule to warm-start a seed. */
    void observe(const Candidate &candidate,
                 double measured_latency_sec) override;

    /** Cross-round state: the best measured warm-start seed. */
    void saveState(std::ostream &os) const override;
    bool loadState(std::istream &is) override;

    const std::vector<sketch::SymbolicSchedule> &
    sketches() const override
    {
        return sketches_;
    }

    const GradSearchOptions &options() const { return options_; }

  private:
    struct SketchContext
    {
        const sketch::SymbolicSchedule *sched = nullptr;
        std::vector<std::string> varNames;
        /** Tape: 82 smoothed model-input formulas + penalty g's. */
        std::unique_ptr<expr::CompiledExprs> objective;
        /** Tape: 82 exact x-space feature formulas. */
        std::unique_ptr<expr::CompiledExprs> rawFeatures;
        std::unique_ptr<sketch::ConstraintChecker> checker;
        size_t numPenalties = 0;
    };

    GradSearchOptions options_;
    std::vector<sketch::SymbolicSchedule> sketches_;
    std::vector<SketchContext> contexts_;
    /** Best measured schedule so far (warm-start seed). */
    Candidate bestMeasured_;
    double bestMeasuredLatency_ = -1.0;
};

} // namespace optim
} // namespace felix

#endif // FELIX_OPTIM_SEARCH_H_
