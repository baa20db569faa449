#include "evolutionary/evolutionary.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>

#include "features/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/dedup.h"
#include "support/batch.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/parallel.h"

namespace felix {
namespace evolutionary {

using optim::Candidate;
using optim::RoundResult;

namespace {

/**
 * Per-worker scratch for batched population scoring: tape + model
 * buffers plus the SoA staging rows, allocated once per worker
 * thread and reused across batches, generations and rounds.
 */
struct EvoBatchScratch
{
    expr::BatchEvalState tape;
    costmodel::PredictScratch predict;
    std::vector<double> inputs, outputs;
};

EvoBatchScratch &
workerScratch()
{
    static thread_local EvoBatchScratch scratch;
    return scratch;
}

} // namespace

EvolutionarySearch::EvolutionarySearch(const tir::SubgraphDef &subgraph,
                                       EvoSearchOptions options)
    : options_(std::move(options)),
      sketches_(optim::generateSketchesTimed(subgraph,
                                             options_.sketchOptions))
{
    obs::ScopedTimerMs timer(obs::MetricsRegistry::instance().counter(
        "search.compile_tapes_ms"));
    FELIX_SPAN("search.compile_tapes", "search");
    contexts_.resize(sketches_.size());
    parallelFor("search.compile_tape", sketches_.size(),
                [&](size_t si) {
                    const sketch::SymbolicSchedule &sched =
                        sketches_[si];
                    SketchContext context;
                    context.sched = &sched;
                    for (const auto &domain : sched.vars)
                        context.varNames.push_back(domain.name);
                    // Population scoring never differentiates the
                    // features, so the tape opts into the
                    // forward-only optimizer passes.
                    context.rawFeatures =
                        std::make_unique<expr::CompiledExprs>(
                            features::extractFeatures(sched.program),
                            context.varNames,
                            /*forward_only=*/true);
                    context.checker = std::make_unique<
                        sketch::ConstraintChecker>(sched);
                    contexts_[si] = std::move(context);
                });
}

EvolutionarySearch::Individual
EvolutionarySearch::randomIndividual(Rng &rng) const
{
    Individual individual;
    individual.sketchIndex =
        static_cast<int>(rng.index(contexts_.size()));
    individual.x = sketch::sampleValid(
        *contexts_[individual.sketchIndex].sched, rng);
    return individual;
}

EvolutionarySearch::Individual
EvolutionarySearch::mutate(const Individual &parent, Rng &rng) const
{
    Individual child = parent;
    const sketch::SymbolicSchedule &sched =
        *contexts_[child.sketchIndex].sched;

    if (!sched.groups.empty() && rng.bernoulli(0.8)) {
        // Resample one split group: redistribute the tile factors of
        // one loop (Ansor's tile-size mutation).
        const sketch::SplitGroup &group =
            sched.groups[rng.index(sched.groups.size())];
        int64_t remaining = group.extent;
        for (int vi : group.varIndices) {
            const sketch::VarDomain &domain = sched.vars[vi];
            auto divisors = divisorsOf(remaining);
            std::vector<int64_t> valid;
            for (int64_t d : divisors) {
                if (d >= domain.lo && d <= std::min(remaining,
                                                    domain.hi))
                    valid.push_back(d);
            }
            if (valid.empty())
                valid.push_back(1);
            int64_t pick = valid[rng.index(valid.size())];
            child.x[vi] = static_cast<double>(pick);
            remaining /= pick;
        }
    } else {
        // Mutate a free variable (unroll step, ...): jump to a
        // neighbouring power of two.
        std::vector<int> freeVars;
        std::vector<bool> inGroup(sched.vars.size(), false);
        for (const auto &group : sched.groups) {
            for (int vi : group.varIndices)
                inGroup[vi] = true;
        }
        for (size_t vi = 0; vi < sched.vars.size(); ++vi) {
            if (!inGroup[vi])
                freeVars.push_back(static_cast<int>(vi));
        }
        if (!freeVars.empty()) {
            int vi = freeVars[rng.index(freeVars.size())];
            const sketch::VarDomain &domain = sched.vars[vi];
            double factor = rng.bernoulli(0.5) ? 2.0 : 0.5;
            double value = child.x[vi] * factor;
            value = std::max(static_cast<double>(domain.lo),
                             std::min(static_cast<double>(domain.hi),
                                      value));
            child.x[vi] = std::nearbyint(value);
        }
    }
    return child;
}

EvolutionarySearch::Individual
EvolutionarySearch::crossover(const Individual &a, const Individual &b,
                              Rng &rng) const
{
    // Only individuals from the same sketch can recombine; mix whole
    // split groups so divisibility is preserved.
    if (a.sketchIndex != b.sketchIndex)
        return mutate(a, rng);
    Individual child = a;
    const sketch::SymbolicSchedule &sched =
        *contexts_[a.sketchIndex].sched;
    for (const auto &group : sched.groups) {
        if (rng.bernoulli(0.5)) {
            for (int vi : group.varIndices)
                child.x[vi] = b.x[vi];
        }
    }
    std::vector<bool> inGroup(sched.vars.size(), false);
    for (const auto &group : sched.groups) {
        for (int vi : group.varIndices)
            inGroup[vi] = true;
    }
    for (size_t vi = 0; vi < sched.vars.size(); ++vi) {
        if (!inGroup[vi] && rng.bernoulli(0.5))
            child.x[vi] = b.x[vi];
    }
    return child;
}

bool
EvolutionarySearch::valid(const Individual &individual) const
{
    const SketchContext &context = contexts_[individual.sketchIndex];
    return context.checker->feasible(individual.x);
}

RoundResult
EvolutionarySearch::round(const costmodel::CostModel &model, Rng &rng)
{
    FELIX_SPAN("search.round", "search");
    auto &registry = obs::MetricsRegistry::instance();

    RoundResult result;
    result.trace.seedsLaunched = options_.population;

    // Initialize: elites from previous rounds + fresh random
    // schedules up to the population size. Each fresh slot samples
    // from its own forked stream so the fill parallelizes without
    // perturbing the parent stream.
    std::vector<Individual> population = elites_;
    const size_t fillStart = population.size();
    if (static_cast<int>(fillStart) < options_.population) {
        const size_t fill = options_.population - fillStart;
        std::vector<Rng> fillRngs = rng.forkStreams(fill);
        population.resize(options_.population);
        parallelFor("evo.random_init", fill, [&](size_t i) {
            population[fillStart + i] = randomIndividual(fillRngs[i]);
        });
    }

    std::unordered_map<optim::CandidateKey, Individual,
                       optim::CandidateKeyHash>
        best;
    auto scoreAndRecord = [&](std::vector<Individual> &pop) {
        // Scoring is the hot part: individuals sharing a sketch are
        // grouped (in population-index order, so the grouping never
        // depends on --jobs) into lockstep batches of up to
        // kBatchLanes lanes through the shared feature tape and the
        // batched MLP; each lane writes only its own score slot.
        // Bookkeeping stays sequential, in index order, so trace and
        // dedup are --jobs invariant.
        struct EvalBatch
        {
            int sketchIdx = 0;
            std::vector<size_t> members;
        };
        std::vector<std::vector<size_t>> bySketch(contexts_.size());
        for (size_t i = 0; i < pop.size(); ++i)
            bySketch[pop[i].sketchIndex].push_back(i);
        std::vector<EvalBatch> batches;
        for (size_t sk = 0; sk < bySketch.size(); ++sk) {
            const std::vector<size_t> &members = bySketch[sk];
            for (size_t b = 0; b < members.size(); b += kBatchLanes) {
                EvalBatch batch;
                batch.sketchIdx = static_cast<int>(sk);
                batch.members.assign(
                    members.begin() + b,
                    members.begin() +
                        std::min(members.size(), b + kBatchLanes));
                batches.push_back(std::move(batch));
            }
        }
        parallelFor("evo.evaluate", batches.size(), [&](size_t bi) {
            const EvalBatch &batch = batches[bi];
            const SketchContext &context =
                contexts_[batch.sketchIdx];
            const size_t numVars = context.varNames.size();
            const size_t numOutputs =
                context.rawFeatures->numOutputs();
            const size_t width = batch.members.size();
            constexpr size_t L = kBatchLanes;
            EvoBatchScratch &ws = workerScratch();
            ws.inputs.resize(numVars * L);
            ws.outputs.resize(numOutputs * L);
            for (size_t l = 0; l < width; ++l)
                for (size_t v = 0; v < numVars; ++v)
                    ws.inputs[v * L + l] =
                        pop[batch.members[l]].x[v];
            context.rawFeatures->forwardBatch(
                ws.inputs.data(), width, ws.outputs.data(), ws.tape);
            double scores[kBatchLanes];
            model.predictBatch(ws.outputs.data(), scores,
                               ws.predict);
            for (size_t l = 0; l < width; ++l)
                pop[batch.members[l]].score = scores[l];
        });
        for (Individual &individual : pop) {
            ++result.trace.numPredictions;
            result.trace.visitedScores.push_back(individual.score);
            optim::CandidateKey key{individual.sketchIndex,
                                    individual.x};
            auto it = best.find(key);
            if (it == best.end())
                best.emplace(std::move(key), individual);
        }
    };
    scoreAndRecord(population);

    for (int gen = 1; gen < options_.generations; ++gen) {
        FELIX_SPAN("search.generation", "search");
        // Softmax selection weights over the current population.
        double maxScore = -1e300;
        for (const Individual &individual : population)
            maxScore = std::max(maxScore, individual.score);
        std::vector<double> weights;
        weights.reserve(population.size());
        for (const Individual &individual : population) {
            weights.push_back(
                std::exp(individual.score - maxScore));
        }

        // Generate children in waves of `population` attempts. Every
        // attempt owns a forked stream and a result slot, so a wave
        // is embarrassingly parallel; consumption then walks the
        // slots in attempt order, keeping exactly the prefix needed
        // to fill the next generation — the same child sequence for
        // any --jobs value. Caps at 8 waves like the sequential
        // guard (population * 8 attempts).
        std::vector<Individual> next;
        next.reserve(population.size());
        for (int wave = 0;
             wave < 8 &&
             static_cast<int>(next.size()) < options_.population;
             ++wave) {
            const size_t attempts = population.size();
            std::vector<Rng> childRngs = rng.forkStreams(attempts);
            std::vector<Individual> children(attempts);
            std::vector<char> childValid(attempts, 0);
            parallelFor("evo.generate", attempts, [&](size_t i) {
                Rng &childRng = childRngs[i];
                const Individual &parentA =
                    population[childRng.weightedIndex(weights)];
                Individual child;
                if (childRng.bernoulli(options_.crossoverProb)) {
                    const Individual &parentB =
                        population[childRng.weightedIndex(weights)];
                    child = crossover(parentA, parentB, childRng);
                } else if (childRng.bernoulli(
                               options_.mutationProb)) {
                    child = mutate(parentA, childRng);
                } else {
                    child = parentA;
                }
                // The evolutionary analogue of Felix's rounding
                // step: every generated child is checked against the
                // legality constraints; infeasible ones are
                // discarded at consumption.
                childValid[i] = valid(child) ? 1 : 0;
                children[i] = std::move(child);
            });
            for (size_t i = 0;
                 i < attempts &&
                 static_cast<int>(next.size()) < options_.population;
                 ++i) {
                ++result.trace.roundingAttempts;
                if (childValid[i])
                    next.push_back(std::move(children[i]));
                else
                    ++result.trace.roundingInvalid;
            }
        }
        if (static_cast<int>(next.size()) < options_.population) {
            const size_t start = next.size();
            const size_t fill = options_.population - start;
            std::vector<Rng> fillRngs = rng.forkStreams(fill);
            next.resize(options_.population);
            parallelFor("evo.random_fill", fill, [&](size_t i) {
                next[start + i] = randomIndividual(fillRngs[i]);
            });
        }
        population = std::move(next);
        scoreAndRecord(population);
    }

    // Keep the global best as next round's elites. The hash map has
    // no deterministic iteration order, so sort ONCE by key — the
    // iteration order of the ordered map this replaced — before the
    // (unstable) score sort, keeping the ranking byte-identical.
    std::vector<Individual> ranked;
    ranked.reserve(best.size());
    for (auto &entry : best)
        ranked.push_back(entry.second);
    std::sort(ranked.begin(), ranked.end(),
              [](const Individual &a, const Individual &b) {
                  if (a.sketchIndex != b.sketchIndex)
                      return a.sketchIndex < b.sketchIndex;
                  return a.x < b.x;
              });
    std::sort(ranked.begin(), ranked.end(),
              [](const Individual &a, const Individual &b) {
                  return a.score > b.score;
              });
    elites_.assign(
        ranked.begin(),
        ranked.begin() + std::min<size_t>(ranked.size(),
                                          options_.eliteKeep));

    // Stratified selection mirroring Ansor's epsilon-greedy
    // measurement: top of the ranking plus a floor per sketch.
    const int perSketchFloor = 2;
    std::vector<const Individual *> picked;
    std::vector<bool> taken(ranked.size(), false);
    for (size_t sk = 0; sk < contexts_.size(); ++sk) {
        int got = 0;
        for (size_t i = 0; i < ranked.size() && got < perSketchFloor;
             ++i) {
            if (!taken[i] &&
                ranked[i].sketchIndex == static_cast<int>(sk)) {
                taken[i] = true;
                picked.push_back(&ranked[i]);
                ++got;
            }
        }
    }
    for (size_t i = 0; i < ranked.size() &&
                       static_cast<int>(picked.size()) <
                           options_.nMeasure;
         ++i) {
        if (!taken[i])
            picked.push_back(&ranked[i]);
    }
    if (static_cast<int>(picked.size()) > options_.nMeasure)
        picked.resize(options_.nMeasure);
    result.toMeasure.resize(picked.size());
    parallelFor("evo.features", picked.size(), [&](size_t i) {
        const Individual *individual = picked[i];
        Candidate candidate;
        candidate.sketchIndex = individual->sketchIndex;
        candidate.x = individual->x;
        // One eval state per worker, reused across picks and rounds.
        static thread_local expr::EvalState state;
        candidate.rawFeatures =
            contexts_[candidate.sketchIndex].rawFeatures->eval(
                candidate.x, state);
        candidate.predictedScore = individual->score;
        result.toMeasure[i] = std::move(candidate);
    });
    registry.counter("search.seeds").add(options_.population);
    registry.counter("evo.generations").add(options_.generations);
    registry.counter("search.rounding_attempts")
        .add(result.trace.roundingAttempts);
    registry.counter("search.rounding_invalid")
        .add(result.trace.roundingInvalid);
    registry.counter("search.predictions")
        .add(result.trace.numPredictions);
    return result;
}

void
EvolutionarySearch::saveState(std::ostream &os) const
{
    os.precision(17);
    os << "evo-search v1 " << elites_.size() << "\n";
    for (const Individual &elite : elites_) {
        os << elite.sketchIndex << " " << elite.score << " "
           << elite.x.size();
        for (double v : elite.x)
            os << " " << v;
        os << "\n";
    }
}

bool
EvolutionarySearch::loadState(std::istream &is)
{
    std::string tag, version;
    size_t numElites = 0;
    if (!(is >> tag >> version >> numElites) ||
        tag != "evo-search" || version != "v1" || numElites > 65536)
        return false;
    std::vector<Individual> elites(numElites);
    for (Individual &elite : elites) {
        size_t numVars = 0;
        if (!(is >> elite.sketchIndex >> elite.score >> numVars) ||
            numVars > 4096)
            return false;
        elite.x.resize(numVars);
        for (double &v : elite.x) {
            if (!(is >> v))
                return false;
        }
    }
    elites_ = std::move(elites);
    return true;
}

} // namespace evolutionary
} // namespace felix
