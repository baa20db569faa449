#include "optim/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>

#include "costmodel/fused.h"
#include "features/features.h"
#include "optim/dedup.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace optim {

using expr::Expr;

void
writeCandidate(std::ostream &os, const Candidate &candidate)
{
    os.precision(17);
    os << candidate.sketchIndex << " " << candidate.x.size();
    for (double v : candidate.x)
        os << " " << v;
    os << " " << candidate.rawFeatures.size();
    for (double f : candidate.rawFeatures)
        os << " " << f;
    os << " " << candidate.predictedScore << "\n";
}

bool
readCandidate(std::istream &is, Candidate &out)
{
    Candidate candidate;
    size_t numVars = 0;
    if (!(is >> candidate.sketchIndex >> numVars) || numVars > 4096)
        return false;
    candidate.x.resize(numVars);
    for (double &v : candidate.x) {
        if (!(is >> v))
            return false;
    }
    size_t numFeatures = 0;
    if (!(is >> numFeatures) || numFeatures > 65536)
        return false;
    candidate.rawFeatures.resize(numFeatures);
    for (double &f : candidate.rawFeatures) {
        if (!(is >> f))
            return false;
    }
    if (!(is >> candidate.predictedScore))
        return false;
    out = std::move(candidate);
    return true;
}

void
GradientSearch::observe(const Candidate &candidate,
                        double measured_latency_sec)
{
    if (bestMeasuredLatency_ < 0.0 ||
        measured_latency_sec < bestMeasuredLatency_) {
        bestMeasuredLatency_ = measured_latency_sec;
        bestMeasured_ = candidate;
    }
}

void
GradientSearch::saveState(std::ostream &os) const
{
    os.precision(17);
    os << "grad-search v1 " << bestMeasuredLatency_ << "\n";
    writeCandidate(os, bestMeasured_);
}

bool
rejectState()
{
    obs::MetricsRegistry::instance()
        .counter("search.state_rejected")
        .add(1.0);
    return false;
}

bool
GradientSearch::loadState(std::istream &is)
{
    std::string tag, version;
    double bestLatency = 0.0;
    if (!(is >> tag >> version >> bestLatency) ||
        tag != "grad-search" || version != "v1")
        return rejectState();
    Candidate best;
    if (!readCandidate(is, best))
        return rejectState();
    // A negative latency means no incumbent yet. An incumbent must
    // fit its sketch, as seed 0 of the next round starts from it.
    if (!std::isfinite(bestLatency) || bestLatency == 0.0)
        return rejectState();
    if (bestLatency > 0.0) {
        if (best.sketchIndex < 0 ||
            best.sketchIndex >= static_cast<int>(contexts_.size()) ||
            !std::isfinite(best.predictedScore))
            return rejectState();
        const SketchContext &context = contexts_[best.sketchIndex];
        if (best.x.size() != context.varNames.size() ||
            !std::all_of(best.x.begin(), best.x.end(),
                         [](double v) { return std::isfinite(v); }) ||
            !context.checker->feasible(best.x))
            return rejectState();
    }
    bestMeasuredLatency_ = bestLatency;
    bestMeasured_ = std::move(best);
    return true;
}

std::vector<sketch::SymbolicSchedule>
generateSketchesTimed(const tir::SubgraphDef &subgraph,
                      const sketch::GenOptions &options)
{
    auto &registry = obs::MetricsRegistry::instance();
    obs::ScopedTimerMs timer(registry.counter("sketch.generate_ms"));
    FELIX_SPAN("sketch.generate", "sketch");
    auto sketches = sketch::generateSketches(subgraph, options);
    registry.counter("sketch.generated")
        .add(static_cast<double>(sketches.size()));
    return sketches;
}

std::vector<Expr>
objectiveOutputs(const std::vector<Expr> &raw_features,
                 const std::vector<Expr> &constraints,
                 const std::vector<std::string> &var_names,
                 const GradSearchOptions &options)
{
    // One call per pass over all of the sketch's formulas: the passes
    // memoize by interned node, so the subterms the formulas share
    // are rewritten once per sketch, not once per output.
    const size_t numFeatures = raw_features.size();
    std::vector<Expr> outputs = raw_features;
    outputs.insert(outputs.end(), constraints.begin(), constraints.end());
    if (options.applySmoothing)
        outputs = rewrite::makeSmooth(outputs, options.kernel);
    const std::vector<Expr> logged = rewrite::logExpand(
        std::vector<Expr>(outputs.begin(), outputs.begin() + numFeatures));
    std::copy(logged.begin(), logged.end(), outputs.begin());
    if (options.applyLogExp)
        outputs = rewrite::expSubstituteVars(outputs, var_names);
    for (size_t i = 0; i < numFeatures; ++i) {
        outputs[i] = options.applySmoothing
                         ? rewrite::smoothMax0(outputs[i], options.kernel)
                         : expr::max(outputs[i], Expr::constant(0.0));
    }
    return outputs;
}

GradientSearch::GradientSearch(const tir::SubgraphDef &subgraph,
                               GradSearchOptions options)
    : options_(std::move(options)),
      sketches_(generateSketchesTimed(subgraph,
                                      options_.sketchOptions))
{
    obs::ScopedTimerMs timer(obs::MetricsRegistry::instance().counter(
        "search.compile_tapes_ms"));
    FELIX_SPAN("search.compile_tapes", "search");
    // Sketches compile independently; interning the rewritten
    // formulas is thread-safe (sharded intern table).
    contexts_.resize(sketches_.size());
    parallelFor("search.compile_tape", sketches_.size(), [&](size_t
                                                                 si) {
        const sketch::SymbolicSchedule &sched = sketches_[si];
        SketchContext context;
        context.sched = &sched;
        for (const auto &domain : sched.vars)
            context.varNames.push_back(domain.name);

        // Exact x-space feature formulas (candidate evaluation and
        // hardware measurement path). Ranking never differentiates
        // them, so the tape opts into the forward-only optimizer
        // passes.
        auto raw = features::extractFeatures(sched.program);
        context.rawFeatures = std::make_unique<expr::CompiledExprs>(
            raw, context.varNames, /*forward_only=*/true);

        // The differentiable objective tape.
        context.objective = std::make_unique<expr::CompiledExprs>(
            objectiveOutputs(raw, sched.constraints, context.varNames,
                             options_),
            context.varNames);
        context.numPenalties = sched.constraints.size();
        context.checker =
            std::make_unique<sketch::ConstraintChecker>(sched);
        contexts_[si] = std::move(context);
    });
}

namespace {

/** Everything one seed's descent produces, merged in seed order. */
struct SeedOutcome
{
    std::vector<double> visitedScores;
    /** Valid rounded points in visit order (x0 last). */
    std::vector<std::vector<double>> validPoints;
    int roundingAttempts = 0;
    int roundingInvalid = 0;
};

/**
 * Per-worker scratch for the batched descent and ranking loops:
 * tape + model buffers plus the SoA staging rows, allocated once per
 * worker thread and reused across batches and rounds.
 */
struct WorkerBatchScratch
{
    expr::BatchEvalState tape;
    costmodel::PredictScratch predict;
    std::vector<double> inputs, outputs, inputGrads;
    std::vector<double> laneGrad, logPoint;
};

WorkerBatchScratch &
workerScratch()
{
    static thread_local WorkerBatchScratch scratch;
    return scratch;
}

} // namespace

RoundResult
GradientSearch::round(const costmodel::CostModel &model, Rng &rng)
{
    FELIX_SPAN("search.round", "search");
    auto &registry = obs::MetricsRegistry::instance();

    RoundResult result;
    result.trace.seedsLaunched = options_.nSeeds;
    const int numFeatures = features::kNumFeatures;

    // Each seed descends independently: forked rng, private Adam
    // state and iterate, results merged below in seed order so
    // --jobs N matches --jobs 1 bit for bit.
    std::vector<Rng> seedRngs = rng.forkStreams(options_.nSeeds);
    std::vector<SeedOutcome> outcomes(options_.nSeeds);

    // Seeds sharing a sketch descend in lockstep batches of up to
    // kBatchLanes lanes. Batch composition depends only on seed
    // indices (never on --jobs), each lane carries its own rng, Adam
    // state and iterate, and every batched kernel is per-lane
    // independent — so a seed's outcome does not depend on which
    // seeds share its batch (tests/test_tape.cc).
    struct SeedBatch
    {
        int sketchIdx = 0;
        std::vector<int> seeds;
    };
    std::vector<SeedBatch> batches;
    for (size_t sk = 0; sk < contexts_.size(); ++sk) {
        SeedBatch cur{static_cast<int>(sk), {}};
        for (int seed = 0; seed < options_.nSeeds; ++seed) {
            if (seed % static_cast<int>(contexts_.size()) !=
                static_cast<int>(sk))
                continue;
            cur.seeds.push_back(seed);
            if (cur.seeds.size() == kBatchLanes) {
                batches.push_back(std::move(cur));
                cur = SeedBatch{static_cast<int>(sk), {}};
            }
        }
        if (!cur.seeds.empty())
            batches.push_back(std::move(cur));
    }
    registry.counter("search.seed_batches")
        .add(static_cast<double>(batches.size()));

    // One fused stepper per sketch, shared by all workers (it is
    // immutable; per-worker state lives in WorkerBatchScratch).
    std::vector<costmodel::FusedGradStep> fusedSteps;
    fusedSteps.reserve(contexts_.size());
    for (const SketchContext &context : contexts_)
        fusedSteps.emplace_back(*context.objective, model,
                                static_cast<size_t>(numFeatures),
                                context.numPenalties, options_.lambda);

    // Wall time of the fused steps and of the Adam + rounding loop,
    // summed per batch and added once per batch.
    obs::Counter &stepMs = registry.counter("search.step_ms");
    obs::Counter &roundingMs = registry.counter("search.rounding_ms");
    using Clock = std::chrono::steady_clock;
    const auto toMs = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };

    parallelFor("search.seed_batch", batches.size(), [&](size_t bi) {
        const SeedBatch &batch = batches[bi];
        const SketchContext &context = contexts_[batch.sketchIdx];
        const size_t numVars = context.varNames.size();
        const size_t width = batch.seeds.size();
        constexpr size_t L = kBatchLanes;

        // RandomInitSchedVars: rejection-sample a valid start; with
        // the e^y substitution the iterate lives in log space. Seed 0
        // warm-starts from the best measured schedule so late rounds
        // refine around the incumbent (Ansor keeps elites the same
        // way).
        std::vector<std::vector<double>> x0(width), y(width);
        std::vector<Adam> adams;
        adams.reserve(width);
        for (size_t l = 0; l < width; ++l) {
            const int seed = batch.seeds[l];
            Rng &seedRng = seedRngs[seed];
            if (seed == 0 && bestMeasuredLatency_ > 0.0 &&
                bestMeasured_.sketchIndex == batch.sketchIdx) {
                x0[l] = bestMeasured_.x;
            } else {
                x0[l] = sketch::sampleValid(*context.sched, seedRng,
                                            *context.checker);
            }
            y[l].resize(numVars);
            for (size_t i = 0; i < numVars; ++i) {
                y[l][i] = options_.applyLogExp
                              ? std::log(std::max(1.0, x0[l][i]))
                              : x0[l][i];
            }
            adams.emplace_back(numVars, options_.adam);
        }

        WorkerBatchScratch &ws = workerScratch();
        ws.inputs.resize(numVars * L);
        ws.inputGrads.resize(numVars * L);
        ws.laneGrad.resize(numVars);
        double scores[kBatchLanes];
        Clock::duration stepTime{}, roundingTime{};

        for (int step = 0; step < options_.nSteps; ++step) {
            for (size_t l = 0; l < width; ++l)
                for (size_t v = 0; v < numVars; ++v)
                    ws.inputs[v * L + l] = y[l][v];
            // Tape forward, model score + input gradient, penalty
            // seeding, tape backward (costmodel/fused.h).
            const Clock::time_point stepStart = Clock::now();
            fusedSteps[batch.sketchIdx].run(ws.inputs.data(), width,
                                            scores,
                                            ws.inputGrads.data(),
                                            ws.tape, ws.predict);
            stepTime += Clock::now() - stepStart;
            for (size_t l = 0; l < width; ++l)
                outcomes[batch.seeds[l]].visitedScores.push_back(
                    scores[l]);

            const Clock::time_point roundingStart = Clock::now();
            for (size_t l = 0; l < width; ++l) {
                SeedOutcome &outcome = outcomes[batch.seeds[l]];
                for (size_t v = 0; v < numVars; ++v)
                    ws.laneGrad[v] = ws.inputGrads[v * L + l];
                adams[l].step(y[l], ws.laneGrad);

                // Round the newly visited point to a valid schedule
                // and remember it (GetValidSchedules over the whole
                // history).
                ws.logPoint = y[l];
                if (!options_.applyLogExp) {
                    for (double &v : ws.logPoint)
                        v = std::log(std::max(1e-9, v));
                }
                auto rounded = sketch::roundToValid(
                    *context.sched, ws.logPoint, *context.checker);
                ++outcome.roundingAttempts;
                if (rounded) {
                    outcome.validPoints.push_back(std::move(*rounded));
                } else {
                    ++outcome.roundingInvalid;
                }
            }
            roundingTime += Clock::now() - roundingStart;
        }
        stepMs.add(toMs(stepTime));
        roundingMs.add(toMs(roundingTime));
        // The starting points are valid schedules too.
        for (size_t l = 0; l < width; ++l)
            outcomes[batch.seeds[l]].validPoints.push_back(
                std::move(x0[l]));
    });

    // Deduplicated valid candidates across all seeds and steps,
    // keyed by a cheap canonical hash of (sketch, x). The single
    // sort below restores the (sketch, lexicographic x) order the
    // ordered map historically provided, so the ranking input stays
    // deterministic and identical to the old container for any
    // insertion order.
    std::unordered_set<CandidateKey, CandidateKeyHash> seen;
    {
        size_t totalPoints = 0;
        for (const SeedOutcome &outcome : outcomes)
            totalPoints += outcome.validPoints.size();
        seen.reserve(totalPoints);
    }
    for (int seed = 0; seed < options_.nSeeds; ++seed) {
        const int sketchIdx =
            static_cast<int>(seed % contexts_.size());
        SeedOutcome &outcome = outcomes[seed];
        result.trace.visitedScores.insert(
            result.trace.visitedScores.end(),
            outcome.visitedScores.begin(),
            outcome.visitedScores.end());
        result.trace.numPredictions +=
            static_cast<int>(outcome.visitedScores.size());
        result.trace.roundingAttempts += outcome.roundingAttempts;
        result.trace.roundingInvalid += outcome.roundingInvalid;
        for (std::vector<double> &x : outcome.validPoints)
            seen.insert(CandidateKey{sketchIdx, std::move(x)});
    }
    registry.counter("search.seeds").add(options_.nSeeds);
    registry.counter("search.adam_steps")
        .add(static_cast<double>(options_.nSeeds) * options_.nSteps);
    registry.counter("search.rounding_attempts")
        .add(result.trace.roundingAttempts);
    registry.counter("search.rounding_invalid")
        .add(result.trace.roundingInvalid);

    // Rank all valid rounded schedules by predicted performance
    // (exact features, not the smoothed surrogate) and keep the top
    // nMeasure. Each candidate scores into its own slot.
    FELIX_SPAN("search.rank_candidates", "search");
    std::vector<Candidate> candidates;
    candidates.reserve(seen.size());
    for (const CandidateKey &key : seen)
        candidates.push_back(Candidate{key.sketchIdx, key.x, {}, 0.0});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.sketchIndex != b.sketchIndex)
                      return a.sketchIndex < b.sketchIndex;
                  return a.x < b.x;
              });
    // Same-sketch candidates are contiguous after the sort, so each
    // batch shares one feature tape; the tape's output rows flow
    // into the batched MLP without repacking.
    struct RankBatch
    {
        size_t begin = 0, end = 0;
    };
    std::vector<RankBatch> rankBatches;
    for (size_t i = 0; i < candidates.size();) {
        size_t runEnd = i;
        while (runEnd < candidates.size() &&
               candidates[runEnd].sketchIndex ==
                   candidates[i].sketchIndex)
            ++runEnd;
        for (size_t b = i; b < runEnd; b += kBatchLanes)
            rankBatches.push_back(
                RankBatch{b, std::min(runEnd, b + kBatchLanes)});
        i = runEnd;
    }
    parallelFor("search.rank_batch", rankBatches.size(), [&](size_t bi) {
        const RankBatch rb = rankBatches[bi];
        const size_t width = rb.end - rb.begin;
        const SketchContext &context =
            contexts_[candidates[rb.begin].sketchIndex];
        const size_t numVars = context.varNames.size();
        constexpr size_t L = kBatchLanes;
        WorkerBatchScratch &ws = workerScratch();
        ws.inputs.resize(numVars * L);
        ws.outputs.resize(static_cast<size_t>(numFeatures) * L);
        for (size_t l = 0; l < width; ++l)
            for (size_t v = 0; v < numVars; ++v)
                ws.inputs[v * L + l] = candidates[rb.begin + l].x[v];
        context.rawFeatures->forwardBatch(ws.inputs.data(), width,
                                          ws.outputs.data(), ws.tape);
        double scores[kBatchLanes];
        model.predictBatch(ws.outputs.data(), width, scores,
                           ws.predict);
        for (size_t l = 0; l < width; ++l) {
            Candidate &candidate = candidates[rb.begin + l];
            candidate.rawFeatures.resize(numFeatures);
            for (int k = 0; k < numFeatures; ++k)
                candidate.rawFeatures[k] =
                    ws.outputs[static_cast<size_t>(k) * L + l];
            candidate.predictedScore = scores[l];
        }
    });
    result.trace.numPredictions +=
        static_cast<int>(candidates.size());
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.predictedScore > b.predictedScore;
              });

    // Stratified measurement selection: mostly the global top
    // predictions, but guarantee every sketch a couple of slots so
    // a cost model that misranks one schedule family still receives
    // corrective measurements for it (the fine-tuning loop of
    // Algorithm 1 line 24 then fixes the ranking).
    const int perSketchFloor = 2;
    std::vector<Candidate> selected;
    std::vector<bool> taken(candidates.size(), false);
    for (size_t sk = 0; sk < contexts_.size(); ++sk) {
        int got = 0;
        for (size_t i = 0;
             i < candidates.size() && got < perSketchFloor; ++i) {
            if (!taken[i] &&
                candidates[i].sketchIndex == static_cast<int>(sk)) {
                taken[i] = true;
                selected.push_back(candidates[i]);
                ++got;
            }
        }
    }
    for (size_t i = 0; i < candidates.size() &&
                       static_cast<int>(selected.size()) <
                           options_.nMeasure;
         ++i) {
        if (!taken[i])
            selected.push_back(candidates[i]);
    }
    if (static_cast<int>(selected.size()) > options_.nMeasure)
        selected.resize(options_.nMeasure);
    result.toMeasure = std::move(selected);
    registry.counter("search.predictions")
        .add(result.trace.numPredictions);
    return result;
}

} // namespace optim
} // namespace felix
