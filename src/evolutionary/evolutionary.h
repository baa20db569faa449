/**
 * @file
 * Ansor-style evolutionary schedule search (the paper's baseline,
 * §5: population 2048, 4 generations, 64 measurements per round,
 * with a TenSet-pretrained cost model => "Ansor-TenSet").
 *
 * Implements the same SearchStrategy interface as Felix's gradient
 * search: each round evolves a population of concrete schedules
 * under cost-model fitness (softmax selection, group-preserving
 * crossover, factor-resampling mutation) and returns the best
 * nMeasure distinct individuals for hardware measurement.
 */
#ifndef FELIX_EVOLUTIONARY_EVOLUTIONARY_H_
#define FELIX_EVOLUTIONARY_EVOLUTIONARY_H_

#include <memory>
#include <vector>

#include "optim/search.h"

namespace felix {
namespace evolutionary {

/** Evolutionary search options (paper §5 recommended settings). */
struct EvoSearchOptions
{
    int population = 2048;
    int generations = 4;
    int nMeasure = 64;
    double crossoverProb = 0.30;
    double mutationProb = 0.85;
    /** Elites carried over between tuning rounds. */
    int eliteKeep = 64;
    sketch::GenOptions sketchOptions;
};

/** Ansor's evolutionary candidate search for one subgraph. */
class EvolutionarySearch : public optim::SearchStrategy
{
  public:
    EvolutionarySearch(const tir::SubgraphDef &subgraph,
                       EvoSearchOptions options = {});

    optim::RoundResult round(const costmodel::CostModel &model,
                             Rng &rng) override;

    /** Cross-round state: the carried elite population. */
    void saveState(std::ostream &os) const override;
    bool loadState(std::istream &is) override;

    const std::vector<sketch::SymbolicSchedule> &
    sketches() const override
    {
        return sketches_;
    }

    const EvoSearchOptions &options() const { return options_; }

  private:
    struct Individual
    {
        int sketchIndex = 0;
        std::vector<double> x;
        double score = 0.0;
    };

    struct SketchContext
    {
        const sketch::SymbolicSchedule *sched = nullptr;
        std::vector<std::string> varNames;
        std::unique_ptr<expr::CompiledExprs> rawFeatures;
        std::unique_ptr<sketch::ConstraintChecker> checker;
    };

    // All const: callable concurrently from pool workers (evaluation
    // scratch is per-call, randomness comes in via the Rng argument).
    Individual randomIndividual(Rng &rng) const;
    Individual mutate(const Individual &parent, Rng &rng) const;
    Individual crossover(const Individual &a, const Individual &b,
                         Rng &rng) const;
    bool valid(const Individual &individual) const;

    EvoSearchOptions options_;
    std::vector<sketch::SymbolicSchedule> sketches_;
    std::vector<SketchContext> contexts_;
    std::vector<Individual> elites_;   ///< carried across rounds
};

} // namespace evolutionary
} // namespace felix

#endif // FELIX_EVOLUTIONARY_EVOLUTIONARY_H_
