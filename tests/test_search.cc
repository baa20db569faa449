/**
 * @file
 * Integration tests of the two search strategies (Felix gradient
 * descent, Ansor evolutionary) against the simulated device and a
 * cost model trained on a small synthetic dataset: valid candidates,
 * improvement over random schedules, and Fig-8-style convergence
 * behaviour (gradient search concentrates its population on high
 * predicted performance faster).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "costmodel/dataset.h"
#include "evolutionary/evolutionary.h"
#include "features/features.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "optim/search.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "tir/ops.h"

namespace felix {
namespace optim {
namespace {

/** Small dataset-trained model, shared across tests (slow to fit). */
const costmodel::CostModel &
testModel()
{
    static const costmodel::CostModel model = [] {
        costmodel::DatasetOptions options;
        options.numSubgraphs = 10;
        options.schedulesPerSketch = 48;
        options.seed = 7;
        auto samples = costmodel::synthesizeDataset(
            sim::deviceConfig(sim::DeviceKind::A5000), options);
        costmodel::MlpConfig config;
        config.layerSizes = {82, 64, 64, 1};
        costmodel::CostModel model(config, 7);
        model.fit(samples, /*epochs=*/8, /*batch=*/128, /*lr=*/1.5e-3);
        return model;
    }();
    return model;
}

TEST(AdamTest, MinimizesQuadratic)
{
    AdamConfig config;
    config.lr = 0.1;
    Adam adam(2, config);
    std::vector<double> x = {5.0, -3.0};
    for (int i = 0; i < 500; ++i) {
        std::vector<double> grad = {2.0 * (x[0] - 1.0),
                                    2.0 * (x[1] - 2.0)};
        adam.step(x, grad);
    }
    EXPECT_NEAR(x[0], 1.0, 0.05);
    EXPECT_NEAR(x[1], 2.0, 0.05);
}

TEST(GradientSearchTest, CandidatesAreValidAndRanked)
{
    auto subgraph = tir::dense(256, 256, 256, true);
    GradSearchOptions options;
    options.nSeeds = 4;
    options.nSteps = 60;
    options.nMeasure = 8;
    GradientSearch search(subgraph, options);
    Rng rng(13);
    auto result = search.round(testModel(), rng);

    ASSERT_GT(result.toMeasure.size(), 0u);
    EXPECT_LE(result.toMeasure.size(), 8u);
    // Selection is stratified per sketch (a measurement floor per
    // schedule family), so ordering is monotone within each sketch.
    for (size_t i = 0; i < result.toMeasure.size(); ++i) {
        for (size_t j = i + 1; j < result.toMeasure.size(); ++j) {
            if (result.toMeasure[i].sketchIndex ==
                result.toMeasure[j].sketchIndex) {
                EXPECT_GE(result.toMeasure[i].predictedScore,
                          result.toMeasure[j].predictedScore);
            }
        }
    }
    for (const Candidate &candidate : result.toMeasure) {
        EXPECT_TRUE(sketch::isValidAssignment(
            search.sketches()[candidate.sketchIndex], candidate.x));
        EXPECT_EQ(candidate.rawFeatures.size(), 82u);
    }
}

TEST(GradientSearchTest, TraceCountsPredictions)
{
    auto subgraph = tir::dense(256, 256, 256, false);
    GradSearchOptions options;
    options.nSeeds = 4;
    options.nSteps = 50;
    GradientSearch search(subgraph, options);
    Rng rng(17);
    auto result = search.round(testModel(), rng);
    // nSeeds * nSteps objective evaluations plus candidate ranking.
    EXPECT_GE(result.trace.numPredictions, 200);
    EXPECT_GE(result.trace.visitedScores.size(), 200u);
}

TEST(GradientSearchTest, BeatsRandomSampling)
{
    auto subgraph = tir::dense(512, 512, 512, false);
    const auto &device = sim::deviceConfig(sim::DeviceKind::A5000);

    GradSearchOptions options;
    options.nSeeds = 8;
    options.nSteps = 100;
    options.nMeasure = 8;
    GradientSearch search(subgraph, options);
    Rng rng(29);
    auto result = search.round(testModel(), rng);
    ASSERT_FALSE(result.toMeasure.empty());

    double bestSearched = 1e9;
    for (const Candidate &candidate : result.toMeasure) {
        bestSearched = std::min(
            bestSearched,
            sim::kernelLatency(candidate.rawFeatures, device));
    }

    // Average of an equal number of random valid schedules.
    Rng randomRng(31);
    double randomSum = 0.0;
    int randomCount = 0;
    for (const auto &sched : search.sketches()) {
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        for (int i = 0; i < 4; ++i) {
            auto x = sketch::sampleValid(sched, randomRng);
            auto f = features::concreteFeatures(sched.program, names,
                                                x);
            randomSum += sim::kernelLatency(f, device);
            ++randomCount;
        }
    }
    double randomMean = randomSum / randomCount;
    EXPECT_LT(bestSearched, randomMean * 0.5)
        << "best " << bestSearched << " vs random mean "
        << randomMean;
}

TEST(GradientSearchTest, ConvergesTowardHigherPredictedScores)
{
    auto subgraph = tir::dense(256, 256, 256, false);
    GradSearchOptions options;
    options.nSeeds = 4;
    options.nSteps = 120;
    GradientSearch search(subgraph, options);
    Rng rng(37);
    auto result = search.round(testModel(), rng);
    const auto &scores = result.trace.visitedScores;
    ASSERT_GE(scores.size(),
              static_cast<size_t>(options.nSeeds * options.nSteps));
    // Descent must improve over its own starting points: averaged
    // over seeds, the best score seen on a trajectory clearly
    // exceeds the score at its random initialization.
    double meanGain = 0.0;
    for (int s = 0; s < options.nSeeds; ++s) {
        double first = scores[static_cast<size_t>(s) * options.nSteps];
        double best = first;
        for (int t = 0; t < options.nSteps; ++t) {
            best = std::max(
                best,
                scores[static_cast<size_t>(s) * options.nSteps + t]);
        }
        meanGain += best - first;
    }
    meanGain /= options.nSeeds;
    EXPECT_GT(meanGain, 0.05);
}

TEST(GradientSearchTest, LoadStateRejectsStatesThatDoNotFitTheSketches)
{
    auto subgraph = tir::dense(256, 256, 256, true);
    GradSearchOptions options;
    options.nSeeds = 4;
    options.nSteps = 16;
    options.nMeasure = 4;
    GradientSearch search(subgraph, options);
    const sketch::SymbolicSchedule &sketch0 = search.sketches().front();
    const size_t numVars = sketch0.vars.size();
    ASSERT_GT(numVars, 1u);
    const std::vector<double> ones(numVars, 1.0);
    const std::vector<double> huge(numVars, 4096.0);
    ASSERT_FALSE(sketch::ConstraintChecker(sketch0).feasible(huge));

    auto stateOf = [](const std::string &latency, int sketch_index,
                      const std::vector<double> &x,
                      const std::string &score) {
        std::ostringstream os;
        os << "grad-search v1 " << latency << "\n" << sketch_index
           << " " << x.size();
        for (double v : x)
            os << " " << v;
        os << " 0 " << score << "\n";
        return os.str();
    };
    std::ostringstream fresh;
    search.saveState(fresh);
    obs::Counter &rejected = obs::MetricsRegistry::instance().counter(
        "search.state_rejected");
    const double before = rejected.value();
    const std::vector<std::string> bad = {
        // One variable where sketch 0 has more: the next round's
        // seed 0 would read past the incumbent.
        "grad-search v1 0.001 0 1 2 0 0.5",
        stateOf("0.001", static_cast<int>(search.sketches().size()),
                ones, "0.5"),
        stateOf("0.001", -1, ones, "0.5"),
        stateOf("0.001", 0, huge, "0.5"),
        stateOf("0", 0, ones, "0.5"),
        stateOf("inf", 0, ones, "0.5"),
        stateOf("0.001", 0, ones, "nan"),
    };
    for (const std::string &state : bad) {
        std::istringstream is(state);
        EXPECT_FALSE(search.loadState(is)) << state;
        std::ostringstream after;
        search.saveState(after);
        EXPECT_EQ(after.str(), fresh.str()) << state;
    }
    EXPECT_EQ(rejected.value() - before, static_cast<double>(bad.size()));

    // The strategy is as built: a round runs.
    Rng rng(5);
    EXPECT_GT(search.round(testModel(), rng).toMeasure.size(), 0u);

    // A fitting incumbent and the no-incumbent state still load.
    for (const std::string &state :
         {stateOf("0.001", 0, ones, "0.5"), fresh.str()}) {
        std::istringstream is(state);
        EXPECT_TRUE(search.loadState(is)) << state;
        EXPECT_GT(search.round(testModel(), rng).toMeasure.size(), 0u);
    }
    EXPECT_EQ(rejected.value() - before, static_cast<double>(bad.size()));
}

TEST(EvolutionaryTest, CandidatesAreValidAndImprove)
{
    auto subgraph = tir::dense(256, 256, 256, true);
    evolutionary::EvoSearchOptions options;
    options.population = 128;
    options.generations = 4;
    options.nMeasure = 16;
    evolutionary::EvolutionarySearch search(subgraph, options);
    Rng rng(41);
    auto result = search.round(testModel(), rng);
    ASSERT_GT(result.toMeasure.size(), 0u);
    for (const Candidate &candidate : result.toMeasure) {
        EXPECT_TRUE(sketch::isValidAssignment(
            search.sketches()[candidate.sketchIndex], candidate.x));
    }
    // The best of the evolved population beats the average initial.
    const auto &scores = result.trace.visitedScores;
    ASSERT_GE(scores.size(), 256u);
    double initMean = 0.0;
    for (int i = 0; i < options.population; ++i)
        initMean += scores[i];
    initMean /= options.population;
    EXPECT_GT(result.toMeasure[0].predictedScore, initMean);
}

TEST(EvolutionaryTest, ElitesCarryAcrossRounds)
{
    auto subgraph = tir::dense(256, 256, 256, false);
    evolutionary::EvoSearchOptions options;
    options.population = 64;
    options.generations = 2;
    options.nMeasure = 8;
    evolutionary::EvolutionarySearch search(subgraph, options);
    Rng rng(43);
    auto round1 = search.round(testModel(), rng);
    auto round2 = search.round(testModel(), rng);
    // Second round should not regress: best predicted score is at
    // least as good as the first round's.
    EXPECT_GE(round2.toMeasure[0].predictedScore,
              round1.toMeasure[0].predictedScore - 0.3);
}

TEST(Fig8Property, GradientPopulationConcentratesFaster)
{
    // The qualitative claim behind Fig. 8: after an equal number of
    // schedules searched, the *spread* between the best and the
    // 64th-best predicted score is much smaller for Felix than for
    // the evolutionary baseline. The spread of one run is a noisy
    // statistic, so the claim is checked across several seeds and
    // must hold in the majority.
    auto subgraph = tir::dense(512, 512, 512, false);

    auto spread = [](std::vector<double> scores) {
        // Distinct schedules only: the evolutionary population
        // carries many copies of its elites. k is the paper's
        // 64-of-8192 rank scaled to this search size (512).
        std::sort(scores.begin(), scores.end(), std::greater<>());
        scores.erase(std::unique(scores.begin(), scores.end()),
                     scores.end());
        size_t k = std::min<size_t>(8, scores.size() - 1);
        return scores[0] - scores[k];
    };
    // Compare the converged tails (last quarter) of both searches.
    auto tail = [](const std::vector<double> &scores) {
        return std::vector<double>(
            scores.begin() + 3 * scores.size() / 4, scores.end());
    };

    int gradWins = 0;
    const std::vector<uint64_t> seeds = {53, 54, 55, 56, 57};
    for (uint64_t seed : seeds) {
        Rng rngA(seed), rngB(seed);

        GradSearchOptions gradOptions;
        gradOptions.nSeeds = 8;
        gradOptions.nSteps = 64;   // 512 schedules searched
        GradientSearch grad(subgraph, gradOptions);
        auto gradResult = grad.round(testModel(), rngA);

        evolutionary::EvoSearchOptions evoOptions;
        evoOptions.population = 128;
        evoOptions.generations = 4;   // 512 schedules searched
        evolutionary::EvolutionarySearch evo(subgraph, evoOptions);
        auto evoResult = evo.round(testModel(), rngB);

        double gradSpread =
            spread(tail(gradResult.trace.visitedScores));
        double evoSpread = spread(tail(evoResult.trace.visitedScores));
        gradWins += (gradSpread < evoSpread);
    }
    EXPECT_GE(gradWins * 2, static_cast<int>(seeds.size()) + 1)
        << "gradient search concentrated faster in only " << gradWins
        << " of " << seeds.size() << " seeds";
}

} // namespace
} // namespace optim
} // namespace felix
