/**
 * @file
 * Tests of the deterministic sharding subsystem (docs/distributed.md):
 * stable task ownership, preassigned Rng streams, bit-exact state
 * round-trips (Rng, CostModel, GraphTuner), crash-safe checkpoint
 * framing, manifest parsing, in-process shard-count invariance of the
 * merged artifacts, and checkpoint torture (truncation, bit flips,
 * version flips, deletion) with bit-identical resume.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "costmodel/dataset.h"
#include "graph/graph.h"
#include "shard/checkpoint.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/shard.h"
#include "support/rng.h"
#include "tuner/tuner.h"

namespace felix {
namespace shard {
namespace {

/** Small deterministic cost model shared by the shard tests. */
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
        model.fit(samples, 8, 128, 1.5e-3);
        return model;
    }();
    return model;
}

/** A small two-task network for quick sharded runs. */
std::vector<graph::Task>
tinyTasks()
{
    graph::Graph g("tiny");
    tir::Conv2dConfig conv;
    conv.c = 32;
    conv.h = conv.w = 28;
    conv.k = 64;
    int x = g.addConv2d(conv, -1, "conv");
    x = g.addEpilogue(graph::OpType::Relu, x);
    graph::DenseParams fc;
    fc.n = 64;
    fc.m = 256;
    fc.k = 256;
    g.addDense(fc, x, "fc");
    return graph::partition(g);
}

ShardOptions
fastShardOptions(const std::string &dir, int shards, int shard_id)
{
    ShardOptions options;
    options.seed = 1;
    options.shards = shards;
    options.shardId = shard_id;
    options.roundsPerTask = 2;
    options.grad.nSeeds = 4;
    options.grad.nSteps = 48;
    options.grad.nMeasure = 8;
    options.dir = dir;
    return options;
}

std::string
makeTempDir()
{
    char path[] = "/tmp/felix_shard_test_XXXXXX";
    const char *made = ::mkdtemp(path);
    EXPECT_NE(made, nullptr);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Run every shard of a K-way run to completion in @p dir. */
void
runAllShards(const std::string &dir, int shards)
{
    for (int i = 0; i < shards; ++i) {
        ShardRunner runner(tinyTasks(), testModel(),
                           Device::cuda("a5000"),
                           fastShardOptions(dir, shards, i));
        ASSERT_EQ(runner.run(), 0) << "shard " << i << " of "
                                   << shards;
    }
}

/** The five merged artifacts of @p dir, concatenated. */
std::string
mergedBytes(const std::string &dir)
{
    auto result = mergeShards(dir);
    EXPECT_TRUE(result.has_value()) << "merge failed in " << dir;
    return slurp(mergedRecordsPath(dir)) + "\x01" +
           slurp(mergedRoundsPath(dir)) + "\x01" +
           slurp(mergedBestPath(dir)) + "\x01" +
           slurp(mergedModulePath(dir)) + "\x01" +
           slurp(mergedMetricsPath(dir));
}

TEST(ShardOf, StableAndInRange)
{
    for (uint64_t hash : {1ull, 42ull, 0xdeadbeefull,
                          0xffffffffffffffffull}) {
        EXPECT_EQ(shardOf(hash, 1), 0);
        for (int shards : {2, 3, 7}) {
            const int owner = shardOf(hash, shards);
            EXPECT_GE(owner, 0);
            EXPECT_LT(owner, shards);
            EXPECT_EQ(owner, shardOf(hash, shards));
        }
    }
}

TEST(ShardOf, MixesBeyondModulo)
{
    // Hashes congruent mod K must not all land on the same shard —
    // ownership mixes the hash rather than using `hash % K`, so a
    // structural-hash pattern cannot starve a shard.
    int owners[2] = {0, 0};
    for (uint64_t i = 0; i < 64; ++i)
        ++owners[shardOf(i * 2, 2)];
    EXPECT_GT(owners[0], 0);
    EXPECT_GT(owners[1], 0);
}

TEST(StreamAt, PositionIndependentAndKeyed)
{
    Rng a = Rng::streamAt(1, 3, 5);
    // Unrelated draws elsewhere must not move the stream.
    Rng noise(99);
    noise.uniform();
    Rng b = Rng::streamAt(1, 3, 5);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());

    EXPECT_NE(Rng::streamAt(1, 3, 5).next(),
              Rng::streamAt(1, 3, 6).next());
    EXPECT_NE(Rng::streamAt(1, 3, 5).next(),
              Rng::streamAt(1, 4, 5).next());
    EXPECT_NE(Rng::streamAt(1, 3, 5).next(),
              Rng::streamAt(2, 3, 5).next());
}

TEST(RngState, RoundTripsMidStreamBitExact)
{
    Rng original(7);
    // Odd number of normal() draws leaves a buffered Box-Muller
    // spare — the part of the state a naive save would lose.
    original.normal();
    original.normal();
    original.normal();

    std::ostringstream saved;
    original.saveState(saved);
    Rng restored(0);
    std::istringstream load(saved.str());
    ASSERT_TRUE(restored.loadState(load));

    for (int i = 0; i < 16; ++i) {
        const double a = original.normal();
        const double b = restored.normal();
        EXPECT_EQ(a, b);
        EXPECT_EQ(original.next(), restored.next());
    }
}

TEST(Checkpoint, RoundTripsAndDetectsCorruption)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/ckpt.1";
    const std::string payload = "hello checkpoint\nwith lines\n";
    ASSERT_TRUE(writeCheckpoint(path, payload));
    auto read = readCheckpoint(path);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, payload);

    // Truncation mid-payload: shorter than the header promises.
    std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 5));
    EXPECT_FALSE(readCheckpoint(path).has_value());

    // A single flipped payload bit fails the checksum.
    std::string flipped = bytes;
    flipped[flipped.size() - 3] ^= 0x20;
    spit(path, flipped);
    EXPECT_FALSE(readCheckpoint(path).has_value());

    // A flipped version byte fails the header parse.
    std::string versioned = bytes;
    const size_t v = versioned.find("v1");
    ASSERT_NE(v, std::string::npos);
    versioned[v + 1] = '2';
    spit(path, versioned);
    EXPECT_FALSE(readCheckpoint(path).has_value());

    EXPECT_FALSE(readCheckpoint(dir + "/absent").has_value());
}

TEST(Checkpoint, ListSortsNumerically)
{
    const std::string dir = makeTempDir();
    for (const char *name : {"shard-0.2", "shard-0.10", "shard-0.3",
                             "shard-1.1", "shard-0.notanumber"})
        spit(dir + "/" + name, "x");
    auto rounds = listCheckpoints(dir, "shard-0.");
    ASSERT_EQ(rounds.size(), 3u);
    EXPECT_EQ(rounds[0], 2u);
    EXPECT_EQ(rounds[1], 3u);
    EXPECT_EQ(rounds[2], 10u);
}

TEST(Manifest, RoundTripsThroughJsonl)
{
    ShardManifest manifest;
    manifest.seed = 0xfeedfacecafebeefull;
    manifest.shards = 2;
    manifest.shardId = 1;
    manifest.roundsPerTask = 4;
    manifest.strategy = "Felix";
    manifest.device = "a5000";
    manifest.graphExecOverheadSec = 15e-6;
    manifest.tasks = {{0, 0xdeadbeefdeadbeefull, "conv \"x\"", 3},
                      {1, 42, "fc", 1}};

    const std::string dir = makeTempDir();
    const std::string path = shardManifestPath(dir, 1);
    {
        std::ofstream os(path);
        os << manifestHeaderJson(manifest) << "\n";
        os << manifestRoundJson({1, 1, 8, 1}) << "\n";
        os << manifestRoundJson({3, 1, 8, 1}) << "\n";
        ManifestBest best;
        best.index = 1;
        best.sketchIndex = 2;
        best.latencySec = 1.5e-5;
        best.clockSec = 12.25;
        best.vars = {4.0, 8.0};
        os << manifestDoneJson(3, {best}) << "\n";
    }

    auto loaded = loadManifest(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->seed, manifest.seed);
    EXPECT_EQ(loaded->shards, 2);
    EXPECT_EQ(loaded->shardId, 1);
    EXPECT_EQ(loaded->roundsPerTask, 4);
    EXPECT_EQ(loaded->strategy, "Felix");
    ASSERT_EQ(loaded->tasks.size(), 2u);
    EXPECT_EQ(loaded->tasks[0].hash, 0xdeadbeefdeadbeefull);
    EXPECT_EQ(loaded->tasks[0].label, "conv \"x\"");
    EXPECT_EQ(loaded->tasks[0].weight, 3);
    ASSERT_EQ(loaded->rounds.size(), 2u);
    EXPECT_EQ(loaded->rounds[1].g, 3);
    EXPECT_EQ(loaded->rounds[1].recordsLines, 8);
    EXPECT_TRUE(loaded->done);
    EXPECT_EQ(loaded->lastG, 3);
    ASSERT_EQ(loaded->bests.size(), 1u);
    EXPECT_EQ(loaded->bests[0].sketchIndex, 2);
    EXPECT_EQ(loaded->bests[0].latencySec, 1.5e-5);
    ASSERT_EQ(loaded->bests[0].vars.size(), 2u);
    EXPECT_EQ(loaded->bests[0].vars[1], 8.0);

    EXPECT_TRUE(manifestsCompatible(*loaded, *loaded));
    ShardManifest other = *loaded;
    other.seed ^= 1;
    EXPECT_FALSE(manifestsCompatible(*loaded, other));
    other = *loaded;
    other.tasks[0].hash ^= 1;
    EXPECT_FALSE(manifestsCompatible(*loaded, other));
}

TEST(StateRoundTrip, CostModelBitExact)
{
    std::ostringstream first;
    testModel().saveState(first);

    std::istringstream load(first.str());
    auto reloaded = costmodel::CostModel::loadState(load);
    ASSERT_TRUE(reloaded.has_value());
    std::ostringstream second;
    reloaded->saveState(second);
    EXPECT_EQ(first.str(), second.str());
}

tuner::TunerOptions
fastTunerOptions()
{
    tuner::TunerOptions options;
    options.strategy = tuner::StrategyKind::FelixGradient;
    options.seed = 1;
    options.grad.nSeeds = 4;
    options.grad.nSteps = 48;
    options.grad.nMeasure = 8;
    return options;
}

TEST(StateRoundTrip, GraphTunerBitExact)
{
    tuner::GraphTuner tuned(tinyTasks(), testModel(),
                            sim::DeviceKind::A5000,
                            fastTunerOptions());
    tuned.tuneTaskRound(0);
    tuned.tuneTaskRound(1);
    std::ostringstream first;
    tuned.saveState(first);

    // A fresh tuner over the same tasks restores the blob; saving it
    // back must reproduce the exact bytes.
    tuner::GraphTuner fresh(tinyTasks(), testModel(),
                            sim::DeviceKind::A5000,
                            fastTunerOptions());
    std::istringstream load(first.str());
    ASSERT_TRUE(fresh.loadState(load));
    EXPECT_EQ(fresh.pendingRestoreCount(), 0u);
    std::ostringstream second;
    fresh.saveState(second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(StateRoundTrip, GraphTunerResumeContinuesIdentically)
{
    tuner::GraphTuner reference(tinyTasks(), testModel(),
                                sim::DeviceKind::A5000,
                                fastTunerOptions());
    reference.tuneTaskRound(0);
    reference.tuneTaskRound(1);
    std::ostringstream saved;
    reference.saveState(saved);

    tuner::GraphTuner resumed(tinyTasks(), testModel(),
                              sim::DeviceKind::A5000,
                              fastTunerOptions());
    std::istringstream load(saved.str());
    ASSERT_TRUE(resumed.loadState(load));

    // The suffix of rounds after the save point must be bit-equal
    // between the uninterrupted tuner and the restored one.
    for (int round = 0; round < 2; ++round) {
        reference.tuneTaskRound(round % 2);
        resumed.tuneTaskRound(round % 2);
    }
    EXPECT_EQ(reference.clockNow(), resumed.clockNow());
    EXPECT_EQ(reference.totalMeasurements(),
              resumed.totalMeasurements());
    ASSERT_EQ(reference.taskRecords().size(),
              resumed.taskRecords().size());
    for (size_t i = 0; i < reference.taskRecords().size(); ++i) {
        EXPECT_EQ(reference.taskRecords()[i].bestLatencySec,
                  resumed.taskRecords()[i].bestLatencySec);
        EXPECT_EQ(reference.taskRecords()[i].rounds,
                  resumed.taskRecords()[i].rounds);
    }
}

TEST(ShardRunner, MergedOutputInvariantAcrossShardCounts)
{
    const std::string one = makeTempDir();
    runAllShards(one, 1);
    const std::string reference = mergedBytes(one);
    ASSERT_FALSE(reference.empty());

    const std::string two = makeTempDir();
    runAllShards(two, 2);
    EXPECT_EQ(reference, mergedBytes(two));
}

/** Newest checkpoint file of shard 0 in @p dir. */
std::string
newestCheckpoint(const std::string &dir)
{
    const std::string prefix = "shard-0.";
    auto rounds = listCheckpoints(shardCheckpointDir(dir), prefix);
    EXPECT_FALSE(rounds.empty());
    return shardCheckpointDir(dir) + "/" + prefix +
           std::to_string(rounds.back());
}

/**
 * Corrupt a finished single-shard run with @p damage, resume it, and
 * require the resumed artifacts byte-identical to @p reference.
 */
void
tortureAndResume(const std::string &reference,
                 void (*damage)(const std::string &dir))
{
    const std::string dir = makeTempDir();
    runAllShards(dir, 1);
    damage(dir);
    ShardOptions options = fastShardOptions(dir, 1, 0);
    options.resume = true;
    ShardRunner resumed(tinyTasks(), testModel(),
                        Device::cuda("a5000"), options);
    ASSERT_EQ(resumed.run(), 0);
    EXPECT_EQ(slurp(shardRecordsPath(reference, 0)),
              slurp(shardRecordsPath(dir, 0)));
    EXPECT_EQ(slurp(shardRoundsPath(reference, 0)),
              slurp(shardRoundsPath(dir, 0)));
    EXPECT_EQ(slurp(shardManifestPath(reference, 0)),
              slurp(shardManifestPath(dir, 0)));
    EXPECT_EQ(slurp(shardMetricsPath(reference, 0)),
              slurp(shardMetricsPath(dir, 0)));
}

class CheckpointTorture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        reference_ = new std::string(makeTempDir());
        runAllShards(*reference_, 1);
    }

    static std::string *reference_;
};

std::string *CheckpointTorture::reference_ = nullptr;

TEST_F(CheckpointTorture, TruncatedMidRecordFallsBack)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        const std::string path = newestCheckpoint(dir);
        const std::string bytes = slurp(path);
        ASSERT_GT(bytes.size(), 64u);
        spit(path, bytes.substr(0, bytes.size() / 2));
    });
}

TEST_F(CheckpointTorture, FlippedVersionByteFallsBack)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        const std::string path = newestCheckpoint(dir);
        std::string bytes = slurp(path);
        const size_t v = bytes.find("v1");
        ASSERT_NE(v, std::string::npos);
        bytes[v + 1] = '9';
        spit(path, bytes);
    });
}

TEST_F(CheckpointTorture, FlippedPayloadBitFailsChecksum)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        const std::string path = newestCheckpoint(dir);
        std::string bytes = slurp(path);
        ASSERT_GT(bytes.size(), 64u);
        bytes[bytes.size() - 7] ^= 0x01;
        spit(path, bytes);
    });
}

TEST_F(CheckpointTorture, DeletedNewestCheckpointFallsBack)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        ::unlink(newestCheckpoint(dir).c_str());
    });
}

TEST_F(CheckpointTorture, AllCheckpointsGoneRestartsFresh)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        const std::string prefix = "shard-0.";
        for (uint64_t round :
             listCheckpoints(shardCheckpointDir(dir), prefix)) {
            ::unlink((shardCheckpointDir(dir) + "/" + prefix +
                      std::to_string(round))
                         .c_str());
        }
    });
}

TEST_F(CheckpointTorture, StrategyStateThatDoesNotFitRestartsFresh)
{
    tortureAndResume(*reference_, [](const std::string &dir) {
        // A checksum-valid checkpoint whose first cell's warm-start
        // incumbent names a sketch its task does not have, as one
        // written by another build might: the strategy rejects it,
        // and the shard starts over from round 0 with fresh cells.
        const std::string path = newestCheckpoint(dir);
        auto payload = readCheckpoint(path);
        ASSERT_TRUE(payload.has_value());
        const size_t blob = payload->find("grad-search v1 ");
        ASSERT_NE(blob, std::string::npos);
        const size_t sketchIndex = payload->find('\n', blob) + 1;
        ASSERT_NE(payload->substr(blob, 17), "grad-search v1 -1");
        (*payload)[sketchIndex] = '9';
        ASSERT_TRUE(writeCheckpoint(path, *payload));
    });
}

TEST(Merge, RefusesIncompleteShardDirectory)
{
    const std::string dir = makeTempDir();
    // Only shard 1 of a 2-shard run present: no shard-0 manifest.
    ShardRunner runner(tinyTasks(), testModel(),
                       Device::cuda("a5000"),
                       fastShardOptions(dir, 2, 1));
    ASSERT_EQ(runner.run(), 0);
    EXPECT_FALSE(mergeShards(dir).has_value());
}

} // namespace
} // namespace shard
} // namespace felix
