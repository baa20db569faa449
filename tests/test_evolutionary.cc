/**
 * @file
 * Unit tests of the evolutionary baseline's genetic operators:
 * mutation preserves divisibility, crossover mixes whole split
 * groups, selection favours fitter individuals, and the search
 * respects its population/measurement budgets.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "costmodel/dataset.h"
#include "evolutionary/evolutionary.h"
#include "obs/metrics.h"
#include "sketch/sampling.h"
#include "tir/ops.h"

namespace felix {
namespace evolutionary {
namespace {

const costmodel::CostModel &
testModel()
{
    static const costmodel::CostModel model = [] {
        costmodel::DatasetOptions options;
        options.numSubgraphs = 6;
        options.schedulesPerSketch = 24;
        options.seed = 19;
        auto samples = costmodel::synthesizeDataset(
            sim::deviceConfig(sim::DeviceKind::A5000), options);
        costmodel::MlpConfig config;
        config.layerSizes = {82, 32, 1};
        costmodel::CostModel model(config, 19);
        model.fit(samples, 4, 128, 1.5e-3);
        return model;
    }();
    return model;
}

TEST(Evolutionary, RoundRespectsBudgets)
{
    auto subgraph = tir::dense(256, 256, 256, true);
    EvoSearchOptions options;
    options.population = 64;
    options.generations = 3;
    options.nMeasure = 10;
    EvolutionarySearch search(subgraph, options);
    Rng rng(3);
    auto result = search.round(testModel(), rng);
    EXPECT_LE(result.toMeasure.size(), 10u);
    // population x generations predictions.
    EXPECT_EQ(result.trace.numPredictions, 64 * 3);
}

TEST(Evolutionary, AllProposedCandidatesValid)
{
    auto subgraph = tir::dense(192, 384, 96, true);
    EvoSearchOptions options;
    options.population = 96;
    options.generations = 3;
    options.nMeasure = 24;
    EvolutionarySearch search(subgraph, options);
    Rng rng(5);
    for (int round = 0; round < 3; ++round) {
        auto result = search.round(testModel(), rng);
        for (const auto &candidate : result.toMeasure) {
            EXPECT_TRUE(sketch::isValidAssignment(
                search.sketches()[candidate.sketchIndex],
                candidate.x));
        }
    }
}

TEST(Evolutionary, LaterGenerationsScoreHigher)
{
    auto subgraph = tir::dense(512, 512, 512, false);
    EvoSearchOptions options;
    options.population = 128;
    options.generations = 4;
    EvolutionarySearch search(subgraph, options);
    Rng rng(7);
    auto result = search.round(testModel(), rng);
    const auto &scores = result.trace.visitedScores;
    ASSERT_EQ(scores.size(), 128u * 4u);
    double firstGen = 0.0, lastGen = 0.0;
    for (int i = 0; i < 128; ++i) {
        firstGen += scores[i];
        lastGen += scores[scores.size() - 128 + i];
    }
    EXPECT_GT(lastGen, firstGen);
}

TEST(Evolutionary, MeasurementSetCoversAllSketches)
{
    // The stratified floor guarantees every schedule family gets
    // corrective measurements (cost-model feedback loop).
    auto subgraph = tir::dense(512, 512, 512, true);
    EvoSearchOptions options;
    options.population = 128;
    options.generations = 3;
    options.nMeasure = 16;
    EvolutionarySearch search(subgraph, options);
    Rng rng(9);
    auto result = search.round(testModel(), rng);
    std::set<int> sketchesSeen;
    for (const auto &candidate : result.toMeasure)
        sketchesSeen.insert(candidate.sketchIndex);
    EXPECT_EQ(sketchesSeen.size(), search.sketches().size());
}

TEST(Evolutionary, LoadStateRejectsStatesThatDoNotFitTheSketches)
{
    auto subgraph = tir::dense(256, 256, 256, true);
    EvoSearchOptions options;
    options.population = 64;
    options.generations = 2;
    options.nMeasure = 8;
    options.eliteKeep = 4;
    EvolutionarySearch search(subgraph, options);
    const sketch::SymbolicSchedule &sketch0 = search.sketches().front();
    const size_t numVars = sketch0.vars.size();
    ASSERT_GT(numVars, 1u);
    const std::vector<double> ones(numVars, 1.0);
    const std::vector<double> huge(numVars, 4096.0);
    ASSERT_FALSE(sketch::ConstraintChecker(sketch0).feasible(huge));

    // One elite after a fitting one, so a rejection mid-list must
    // not leave the fitting one loaded either.
    auto stateOf = [&](int sketch_index, const std::vector<double> &x,
                       const std::string &score) {
        std::ostringstream os;
        os << "evo-search v1 2\n0 0.5 " << numVars;
        for (double v : ones)
            os << " " << v;
        os << "\n" << sketch_index << " " << score << " " << x.size();
        for (double v : x)
            os << " " << v;
        os << "\n";
        return os.str();
    };
    std::ostringstream fresh;
    search.saveState(fresh);
    obs::Counter &rejected = obs::MetricsRegistry::instance().counter(
        "search.state_rejected");
    const double before = rejected.value();
    const std::vector<std::string> bad = {
        "evo-search v1 1\n0 0.5 1 2\n",
        stateOf(static_cast<int>(search.sketches().size()), ones, "0.5"),
        stateOf(-1, ones, "0.5"),
        stateOf(0, std::vector<double>(numVars + 1, 1.0), "0.5"),
        stateOf(0, huge, "0.5"),
        stateOf(0, ones, "inf"),
    };
    for (const std::string &state : bad) {
        std::istringstream is(state);
        EXPECT_FALSE(search.loadState(is)) << state;
        std::ostringstream after;
        search.saveState(after);
        EXPECT_EQ(after.str(), fresh.str()) << state;
    }
    EXPECT_EQ(rejected.value() - before, static_cast<double>(bad.size()));

    // The strategy is as built: a round runs, and its own elites
    // load back.
    Rng rng(5);
    EXPECT_GT(search.round(testModel(), rng).toMeasure.size(), 0u);
    std::ostringstream saved;
    search.saveState(saved);
    for (const std::string &state : {stateOf(0, ones, "0.5"), saved.str()}) {
        std::istringstream is(state);
        EXPECT_TRUE(search.loadState(is)) << state;
        EXPECT_GT(search.round(testModel(), rng).toMeasure.size(), 0u);
    }
    EXPECT_EQ(rejected.value() - before, static_cast<double>(bad.size()));
}

TEST(Evolutionary, DeterministicGivenSeed)
{
    auto subgraph = tir::dense(128, 256, 128, false);
    EvoSearchOptions options;
    options.population = 48;
    options.generations = 2;
    EvolutionarySearch searchA(subgraph, options);
    EvolutionarySearch searchB(subgraph, options);
    Rng rngA(31), rngB(31);
    auto a = searchA.round(testModel(), rngA);
    auto b = searchB.round(testModel(), rngB);
    ASSERT_EQ(a.toMeasure.size(), b.toMeasure.size());
    for (size_t i = 0; i < a.toMeasure.size(); ++i) {
        EXPECT_EQ(a.toMeasure[i].sketchIndex,
                  b.toMeasure[i].sketchIndex);
        EXPECT_EQ(a.toMeasure[i].x, b.toMeasure[i].x);
    }
}

} // namespace
} // namespace evolutionary
} // namespace felix
