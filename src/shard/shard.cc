#include "shard/shard.h"

#include <csignal>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "obs/metrics.h"
#include "obs/round_log.h"
#include "shard/checkpoint.h"
#include "shard/manifest.h"
#include "support/logging.h"
#include "support/rng.h"
#include "tuner/records.h"

namespace felix {
namespace shard {

namespace {

// Domain-separation salts for the preassigned seed streams: the
// init measurement, per-candidate measurements, and the ownership
// mix must never collide for any (task, round, candidate).
constexpr uint64_t kInitSalt = 0x696e697400ull;
constexpr uint64_t kMeasureSalt = 0x6d65617300ull;
constexpr uint64_t kOwnerSalt = 0x73686172640aull;

uint64_t
initSeedAt(uint64_t seed, int task)
{
    return hashCombine(hashCombine(seed, kInitSalt),
                       static_cast<uint64_t>(task));
}

uint64_t
measureSeedAt(uint64_t seed, int task, int step, size_t candidate)
{
    return hashCombine(
        hashCombine(hashCombine(hashCombine(seed, kMeasureSalt),
                                static_cast<uint64_t>(task)),
                    static_cast<uint64_t>(step)),
        static_cast<uint64_t>(candidate));
}

/** Drop zero-valued entries: whether a never-incremented metric got
 *  registered at all depends on nondeterministic context (e.g.
 *  pretrained-cache hit vs miss before the run), so only metrics
 *  that actually moved belong in the byte-compared snapshot. */
void
pruneZeroMetrics(obs::MetricsSnapshot &snapshot)
{
    for (auto it = snapshot.counters.begin();
         it != snapshot.counters.end();) {
        if (it->second == 0.0)
            it = snapshot.counters.erase(it);
        else
            ++it;
    }
    for (auto it = snapshot.gauges.begin();
         it != snapshot.gauges.end();) {
        if (it->second == 0.0)
            it = snapshot.gauges.erase(it);
        else
            ++it;
    }
    for (auto it = snapshot.histograms.begin();
         it != snapshot.histograms.end();) {
        if (it->second.count == 0)
            it = snapshot.histograms.erase(it);
        else
            ++it;
    }
}

} // namespace

int
shardOf(uint64_t task_hash, int shards)
{
    if (shards <= 1)
        return 0;
    return static_cast<int>(hashCombine(task_hash, kOwnerSalt) %
                            static_cast<uint64_t>(shards));
}

std::string
shardRecordsPath(const std::string &dir, int shard_id)
{
    return dir + "/shard-" + std::to_string(shard_id) + ".records";
}

std::string
shardRoundsPath(const std::string &dir, int shard_id)
{
    return dir + "/shard-" + std::to_string(shard_id) +
           ".rounds.jsonl";
}

std::string
shardManifestPath(const std::string &dir, int shard_id)
{
    return dir + "/shard-" + std::to_string(shard_id) +
           ".manifest.jsonl";
}

std::string
shardMetricsPath(const std::string &dir, int shard_id)
{
    return dir + "/shard-" + std::to_string(shard_id) + ".metrics";
}

std::string
shardCheckpointDir(const std::string &dir)
{
    return dir + "/ckpt";
}

struct ShardRunner::Impl
{
    std::vector<graph::Task> tasks;
    costmodel::CostModel baseModel;
    Device device;
    ShardOptions options;

    /** One owned task's isolated tuning state. */
    struct Cell
    {
        int taskIndex = 0;
        tuner::TaskRecord record;
        costmodel::CostModel model;
        std::vector<costmodel::Sample> history;
        double clockSec = 0.0;
    };

    struct CellState
    {
        int taskIndex = 0;
        double clockSec = 0.0;
        int rounds = 0;
        int stagnantRounds = 0;
        double bestLatencySec = 0.0;
        optim::Candidate bestCandidate;
        std::vector<costmodel::Sample> history;
        costmodel::CostModel model;
        std::string strategyBlob;
    };

    struct CheckpointState
    {
        long nextG = 0;
        uint64_t recordsBytes = 0;
        uint64_t roundsBytes = 0;
        uint64_t manifestBytes = 0;
        obs::MetricsSnapshot metrics;
        std::vector<CellState> cells;
    };

    std::vector<Cell> cells;
    std::unordered_map<int, size_t> cellOfTask;
    std::string recordsPath, roundsPath, manifestPath, metricsPath;
    std::string ckptDir, ckptPrefix;

    Impl(std::vector<graph::Task> tasks_in,
         costmodel::CostModel model_in, Device device_in,
         ShardOptions options_in)
        : tasks(std::move(tasks_in)),
          baseModel(std::move(model_in)), device(device_in),
          options(std::move(options_in))
    {
    }

    std::string
    checkpointPath(long next_g) const
    {
        return ckptDir + "/" + ckptPrefix + std::to_string(next_g);
    }

    std::string
    buildCheckpointPayload(long next_g) const
    {
        std::ostringstream os;
        os.precision(17);
        os << "shard-ckpt v1\n";
        os << "config " << options.seed << " " << options.shards
           << " " << options.shardId << " " << options.roundsPerTask
           << " " << tasks.size() << " "
           << tuner::strategyName(options.strategy) << "\n";
        os << "next-g " << next_g << "\n";
        os << "offsets " << fileSize(recordsPath) << " "
           << fileSize(roundsPath) << " " << fileSize(manifestPath)
           << "\n";
        obs::MetricsRegistry::instance()
            .snapshot()
            .deterministic()
            .writeText(os);
        os << "cells " << cells.size() << "\n";
        for (const Cell &cell : cells) {
            os << "cell " << cell.taskIndex << " " << cell.clockSec
               << " " << cell.record.rounds << " "
               << cell.record.stagnantRounds << " "
               << cell.record.bestLatencySec << "\n";
            optim::writeCandidate(os, cell.record.bestCandidate);
            os << "history " << cell.history.size() << "\n";
            for (const costmodel::Sample &sample : cell.history) {
                os << sample.latencySec << " "
                   << sample.rawFeatures.size();
                for (double f : sample.rawFeatures)
                    os << " " << f;
                os << "\n";
            }
            cell.model.saveState(os);
            std::ostringstream blob;
            cell.record.strategy->saveState(blob);
            const std::string text = blob.str();
            os << "strategy " << text.size() << "\n" << text;
        }
        os << "end-shard-ckpt\n";
        return os.str();
    }

    std::optional<CheckpointState>
    parseCheckpointPayload(const std::string &payload) const
    {
        std::istringstream is(payload);
        std::string tag, version;
        if (!(is >> tag >> version) || tag != "shard-ckpt" ||
            version != "v1")
            return std::nullopt;
        uint64_t seed = 0;
        int shards = 0, shardId = 0, roundsPerTask = 0;
        size_t numTasks = 0;
        std::string strategy;
        if (!(is >> tag >> seed >> shards >> shardId >>
              roundsPerTask >> numTasks >> strategy) ||
            tag != "config")
            return std::nullopt;
        if (seed != options.seed || shards != options.shards ||
            shardId != options.shardId ||
            roundsPerTask != options.roundsPerTask ||
            numTasks != tasks.size() ||
            strategy != tuner::strategyName(options.strategy))
            return std::nullopt;   // checkpoint from a different run
        CheckpointState state;
        if (!(is >> tag >> state.nextG) || tag != "next-g")
            return std::nullopt;
        if (!(is >> tag >> state.recordsBytes >> state.roundsBytes >>
              state.manifestBytes) ||
            tag != "offsets")
            return std::nullopt;
        if (!obs::MetricsSnapshot::readText(is, &state.metrics))
            return std::nullopt;
        size_t numCells = 0;
        if (!(is >> tag >> numCells) || tag != "cells" ||
            numCells > tasks.size())
            return std::nullopt;
        for (size_t c = 0; c < numCells; ++c) {
            CellState cell;
            if (!(is >> tag >> cell.taskIndex >> cell.clockSec >>
                  cell.rounds >> cell.stagnantRounds >>
                  cell.bestLatencySec) ||
                tag != "cell")
                return std::nullopt;
            if (!optim::readCandidate(is, cell.bestCandidate))
                return std::nullopt;
            size_t historySize = 0;
            if (!(is >> tag >> historySize) || tag != "history" ||
                historySize > (size_t{1} << 20))
                return std::nullopt;
            cell.history.resize(historySize);
            for (costmodel::Sample &sample : cell.history) {
                size_t numFeatures = 0;
                if (!(is >> sample.latencySec >> numFeatures) ||
                    numFeatures > 65536)
                    return std::nullopt;
                sample.rawFeatures.resize(numFeatures);
                for (double &f : sample.rawFeatures) {
                    if (!(is >> f))
                        return std::nullopt;
                }
            }
            auto model = costmodel::CostModel::loadState(is);
            if (!model)
                return std::nullopt;
            cell.model = std::move(*model);
            size_t blobSize = 0;
            if (!(is >> tag >> blobSize) || tag != "strategy" ||
                blobSize > (size_t{1} << 24))
                return std::nullopt;
            is.get();   // newline framing the raw blob
            cell.strategyBlob.resize(blobSize);
            if (blobSize > 0 &&
                !is.read(&cell.strategyBlob[0],
                         static_cast<std::streamsize>(blobSize)))
                return std::nullopt;
            state.cells.push_back(std::move(cell));
        }
        if (!(is >> tag) || tag != "end-shard-ckpt")
            return std::nullopt;
        return state;
    }

    void
    writeRoundCheckpoint(long next_g)
    {
        if (!writeCheckpoint(checkpointPath(next_g),
                             buildCheckpointPayload(next_g)))
            warn("shard ", options.shardId,
                 ": checkpoint write failed at round ", next_g);
        // Keep the newest three: enough for the newest to be
        // corrupt AND the next one deleted, and resume still finds
        // a good round.
        auto rounds = listCheckpoints(ckptDir, ckptPrefix);
        if (rounds.size() > 3) {
            for (size_t i = 0; i < rounds.size() - 3; ++i)
                ::unlink(checkpointPath(
                             static_cast<long>(rounds[i]))
                             .c_str());
        }
    }

    /** Newest checkpoint that validates, scanning backwards. */
    std::optional<CheckpointState>
    findResumableCheckpoint() const
    {
        auto rounds = listCheckpoints(ckptDir, ckptPrefix);
        for (size_t i = rounds.size(); i-- > 0;) {
            const std::string path =
                checkpointPath(static_cast<long>(rounds[i]));
            auto payload = readCheckpoint(path);
            if (!payload) {
                warn("shard ", options.shardId, ": checkpoint ",
                     path, " failed validation; trying older");
                continue;
            }
            auto state = parseCheckpointPayload(*payload);
            if (!state) {
                warn("shard ", options.shardId, ": checkpoint ",
                     path,
                     " does not match this run; trying older");
                continue;
            }
            inform("shard ", options.shardId, ": resuming from ",
                   path, " (next round ", state->nextG, ")");
            return state;
        }
        return std::nullopt;
    }

    ShardManifest
    headerManifest() const
    {
        ShardManifest manifest;
        manifest.seed = options.seed;
        manifest.shards = options.shards;
        manifest.shardId = options.shardId;
        manifest.roundsPerTask = options.roundsPerTask;
        manifest.strategy = tuner::strategyName(options.strategy);
        manifest.device = device.name;
        manifest.graphExecOverheadSec =
            options.graphExecOverheadSec;
        for (size_t t = 0; t < tasks.size(); ++t) {
            ManifestTask task;
            task.index = static_cast<int>(t);
            task.hash = tasks[t].subgraph.structuralHash();
            task.label = tasks[t].exampleLabel;
            task.weight = tasks[t].weight;
            manifest.tasks.push_back(std::move(task));
        }
        return manifest;
    }

    int run();
};

int
ShardRunner::Impl::run()
{
    FELIX_CHECK(options.shards >= 1 && options.shardId >= 0 &&
                    options.shardId < options.shards,
                "shard: need 0 <= shard-id < shards");
    FELIX_CHECK(!options.dir.empty(), "shard: need a --shard-dir");
    FELIX_CHECK(options.roundsPerTask >= 1,
                "shard: need --rounds-per-task >= 1");
    FELIX_CHECK(!tasks.empty(), "shard: no tasks");

    ensureDir(options.dir);
    if (options.checkpoint)
        ensureDir(shardCheckpointDir(options.dir));
    recordsPath = shardRecordsPath(options.dir, options.shardId);
    roundsPath = shardRoundsPath(options.dir, options.shardId);
    manifestPath = shardManifestPath(options.dir, options.shardId);
    metricsPath = shardMetricsPath(options.dir, options.shardId);
    ckptDir = shardCheckpointDir(options.dir);
    ckptPrefix = "shard-" + std::to_string(options.shardId) + ".";

    // The metrics byte-compare starts from a clean registry: what a
    // cache miss's pretraining did before this point is host state,
    // not run output.
    auto &registry = obs::MetricsRegistry::instance();
    registry.resetAll();

    const int numTasks = static_cast<int>(tasks.size());
    const long totalRounds =
        static_cast<long>(options.roundsPerTask) * numTasks;

    std::vector<bool> owned(tasks.size(), false);
    for (size_t t = 0; t < tasks.size(); ++t)
        owned[t] = shardOf(tasks[t].subgraph.structuralHash(),
                           options.shards) == options.shardId;

    std::optional<CheckpointState> restored;
    if (options.resume && options.checkpoint)
        restored = findResumableCheckpoint();

    // Build the owned cells. Strategy construction re-registers the
    // sketch/search metrics; on resume the registry restore below
    // overwrites them with the checkpointed values, so a resumed
    // process reports exactly what the interrupted one would have.
    const auto buildCells = [&] {
        std::vector<graph::Task> ownedTasks;
        for (size_t t = 0; t < tasks.size(); ++t) {
            if (owned[t])
                ownedTasks.push_back(tasks[t]);
        }
        std::vector<tuner::TaskRecord> records = tuner::makeStrategies(
            options.strategy, std::move(ownedTasks), options.grad,
            options.evo);
        cells.clear();
        cellOfTask.clear();
        for (size_t t = 0, next = 0; t < tasks.size(); ++t) {
            if (!owned[t])
                continue;
            Cell cell;
            cell.taskIndex = static_cast<int>(t);
            cell.record = std::move(records[next++]);
            cell.model = baseModel;
            cellOfTask[cell.taskIndex] = cells.size();
            cells.push_back(std::move(cell));
        }
    };
    buildCells();

    long startG = 0;
    if (restored) {
        // Wind the artifacts back to the checkpointed offsets: any
        // bytes past them belong to rounds newer than the
        // checkpoint (e.g. the round a SIGKILL interrupted) and
        // will be re-executed deterministically.
        truncateFile(recordsPath, restored->recordsBytes);
        truncateFile(roundsPath, restored->roundsBytes);
        truncateFile(manifestPath, restored->manifestBytes);
        bool cellsOk = restored->cells.size() == cells.size();
        for (CellState &state : restored->cells) {
            auto slot = cellOfTask.find(state.taskIndex);
            if (slot == cellOfTask.end()) {
                cellsOk = false;
                break;
            }
            Cell &cell = cells[slot->second];
            cell.clockSec = state.clockSec;
            cell.history = std::move(state.history);
            cell.model = std::move(state.model);
            cell.record.rounds = state.rounds;
            cell.record.stagnantRounds = state.stagnantRounds;
            cell.record.bestLatencySec = state.bestLatencySec;
            cell.record.bestCandidate =
                std::move(state.bestCandidate);
            std::istringstream blob(state.strategyBlob);
            if (!cell.record.strategy->loadState(blob))
                cellsOk = false;
        }
        if (!cellsOk) {
            warn("shard ", options.shardId,
                 ": checkpoint cell table does not match the task "
                 "partition; restarting from round 0");
            restored.reset();
            // Cells before the mismatch took restored state: start
            // round 0 from fresh cells and a clean registry, as a
            // process without a checkpoint would.
            registry.resetAll();
            buildCells();
        } else {
            registry.restore(restored->metrics);
            startG = restored->nextG;
        }
    }
    if (!restored) {
        truncateFile(recordsPath, 0);
        truncateFile(roundsPath, 0);
        truncateFile(manifestPath, 0);
        tuner::appendRawText(
            manifestPath, manifestHeaderJson(headerManifest()) + "\n");
        for (Cell &cell : cells)
            tuner::seedTrivialSchedule(
                cell.record, device.config(),
                initSeedAt(options.seed, cell.taskIndex));
    }

    int executedHere = 0;
    for (long g = startG; g < totalRounds; ++g) {
        const int t = static_cast<int>(g % numTasks);
        if (!owned[t])
            continue;
        const int j = static_cast<int>(g / numTasks);
        Cell &cell = cells[cellOfTask[t]];

        // Every random input is preassigned from (seed, task,
        // round): no stream position survives between rounds, so
        // the round's bytes cannot depend on process history.
        Rng roundRng = Rng::streamAt(
            options.seed, static_cast<uint64_t>(t),
            static_cast<uint64_t>(j));

        tuner::RoundEnv env;
        env.model = &cell.model;
        env.history = &cell.history;
        env.rng = &roundRng;
        env.clockSec = cell.clockSec;
        env.clock = options.clock;
        env.device = &device.config();
        env.strategy = options.strategy;
        env.finetuneSteps = options.finetuneSteps;
        env.roundIndex = static_cast<int>(g);
        env.collectRecords = true;
        env.emitWall = false;
        const uint64_t seed = options.seed;
        env.measureSeed = [seed, t, j](size_t i) {
            return measureSeedAt(seed, t, j, i);
        };

        tuner::RoundOutcome outcome =
            tuner::runTaskRound(cell.record, env);
        cell.clockSec = outcome.clockSec;

        // Artifacts first (each one atomic O_APPEND write), then
        // the checkpoint that covers them; a crash in between is
        // rolled back by the resume-time truncation above.
        tuner::appendRecords(recordsPath, outcome.records);
        tuner::appendRawText(roundsPath,
                             outcome.record.toJson() + "\n");
        ManifestRound roundLine;
        roundLine.g = static_cast<int>(g);
        roundLine.task = t;
        roundLine.recordsLines =
            static_cast<int>(outcome.records.size());
        roundLine.roundsLines = 1;
        tuner::appendRawText(manifestPath,
                             manifestRoundJson(roundLine) + "\n");

        ++executedHere;
        if (options.killAfterRounds > 0 &&
            executedHere >= options.killAfterRounds) {
            // Torture hook: die at the worst instant — artifacts
            // appended, checkpoint not yet written.
            ::raise(SIGKILL);
        }
        if (options.checkpoint)
            writeRoundCheckpoint(g + 1);
    }

    // The shard's last owned round, computed from the schedule so a
    // resumed process reports the same value as an uninterrupted
    // one. The merge step folds gauges in ascending last_g order.
    long lastOwnedG = -1;
    for (long g = 0; g < totalRounds; ++g) {
        if (owned[g % numTasks])
            lastOwnedG = g;
    }

    std::vector<ManifestBest> bests;
    for (const Cell &cell : cells) {
        ManifestBest best;
        best.index = cell.taskIndex;
        best.sketchIndex = cell.record.bestCandidate.sketchIndex;
        best.latencySec = cell.record.bestLatencySec;
        best.clockSec = cell.clockSec;
        best.vars = cell.record.bestCandidate.x;
        bests.push_back(std::move(best));
    }
    tuner::appendRawText(
        manifestPath, manifestDoneJson(lastOwnedG, bests) + "\n");

    obs::MetricsSnapshot snapshot =
        registry.snapshot().deterministic();
    pruneZeroMetrics(snapshot);
    std::ofstream os(metricsPath,
                     std::ios::binary | std::ios::trunc);
    if (!os.good()) {
        warn("shard ", options.shardId, ": cannot write ",
             metricsPath);
        return 1;
    }
    snapshot.writeText(os);
    if (!os.good())
        return 1;

    inform("shard ", options.shardId, " of ", options.shards,
           ": executed ", executedHere, " round",
           executedHere == 1 ? "" : "s", " this process, ",
           cells.size(), " owned task",
           cells.size() == 1 ? "" : "s");
    return 0;
}

ShardRunner::ShardRunner(std::vector<graph::Task> tasks,
                         costmodel::CostModel base_model,
                         Device device, ShardOptions options)
    : impl_(std::make_unique<Impl>(std::move(tasks),
                                   std::move(base_model), device,
                                   std::move(options)))
{
}

ShardRunner::~ShardRunner() = default;

int
ShardRunner::run()
{
    return impl_->run();
}

} // namespace shard
} // namespace felix
