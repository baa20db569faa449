/**
 * @file
 * felix-tune: a small command-line front end to the library.
 *
 *   felix-tune --network resnet50 --device a5000 --budget 600
 *              [--batch N] [--strategy felix|ansor] [--seed N]
 *              [--out FILE.cfg] [--compare-frameworks]
 *
 * Tunes one network for one device under a virtual tuning budget and
 * prints the resulting latency (optionally against the simulated
 * vendor libraries), saving the best schedules to a module file.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/felix.h"
#include "frameworks/frameworks.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/round_log.h"
#include "obs/trace.h"
#include "shard/merge.h"
#include "shard/shard.h"
#include "sketch/sketch.h"
#include "support/logging.h"
#include "support/parallel.h"

using namespace felix;

namespace {

void
usage()
{
    std::printf(
        "usage: felix-tune --network NAME [options]\n"
        "  --network   resnet50 | mobilenet_v2 | r3d_18 | dcgan |\n"
        "              vit_b32 | llama\n"
        "  --device    a10g | a5000 | xavier-nx   (default a5000)\n"
        "  --batch     input batch size           (default 1)\n"
        "  --budget    virtual tuning seconds     (default 600)\n"
        "  --strategy  felix | ansor              (default felix)\n"
        "  --seed      RNG seed                   (default 1)\n"
        "  --jobs      worker threads (default 1; results are\n"
        "              bit-identical for any value)\n"
        "  --out       save best schedules to a module file\n"
        "  --compare-frameworks  also report library latencies\n"
        "  --show-schedules N    print the bound loop nests of the\n"
        "                        N most time-consuming tasks\n"
        "  --log FILE  append every measurement as a replayable\n"
        "              tuning record (Ansor-style tuning log)\n"
        "  --save-records FILE   append the history-best schedule\n"
        "              per task after tuning (the schedule-cache\n"
        "              format felix-serve warm-starts from)\n"
        "  --replay-records FILE apply history best from a tuning\n"
        "              record log and skip the search entirely\n"
        "  --trace-out FILE    write a Chrome trace_event JSON file\n"
        "                      (open in chrome://tracing / Perfetto)\n"
        "  --metrics-out FILE  write per-round telemetry records plus\n"
        "                      a final metrics snapshot as JSONL\n"
        "  --log-level L       debug | info | warn | error\n"
        "                      (also via FELIX_LOG_LEVEL)\n"
        "  --cache-dir DIR     pretrained cost-model cache directory\n"
        "                      (default: pretrained)\n"
        "sharded tuning (docs/distributed.md):\n"
        "  --shards K          partition the tasks across K shard\n"
        "                      processes; run this process as one of\n"
        "                      them (merged output is byte-identical\n"
        "                      to --shards 1)\n"
        "  --shard-id I        which shard this process is (0..K-1)\n"
        "  --shard-dir DIR     shard artifact directory (required\n"
        "                      with --shards and --merge)\n"
        "  --rounds-per-task R tuning rounds per task (default 4)\n"
        "  --resume            resume from the newest valid\n"
        "                      checkpoint in the shard directory\n"
        "  --no-checkpoint     skip the per-round checkpoints\n"
        "  --kill-at-round N   test hook: SIGKILL this process after\n"
        "                      it executes N rounds (worst-case\n"
        "                      crash point, before the checkpoint)\n"
        "  --merge             merge the finished shards found in\n"
        "                      --shard-dir into merged.* artifacts\n");
}

graph::Graph
buildNetwork(const std::string &name, int batch)
{
    if (name == "resnet50")
        return models::resnet50(batch);
    if (name == "mobilenet_v2")
        return models::mobilenetV2(batch);
    if (name == "r3d_18")
        return models::r3d18(batch);
    if (name == "dcgan")
        return models::dcgan(batch);
    if (name == "vit_b32")
        return models::vitB32(batch);
    if (name == "llama")
        return models::llama(batch);
    fatal("unknown network: " + name);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string network, deviceName = "a5000", strategy = "felix";
    std::string outPath;
    int batch = 1;
    double budget = 600.0;
    uint64_t seed = 1;
    int jobs = 0;
    bool compareFrameworks = false;
    int showSchedules = 0;
    std::string logPath, traceOut, metricsOut;
    std::string saveRecords, replayRecords;
    std::string cacheDir = "pretrained";
    int shards = 0, shardId = 0, roundsPerTask = 4;
    int killAtRound = 0;
    std::string shardDir;
    bool resume = false, checkpoint = true, merge = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                fatal("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--network") network = next();
        else if (arg == "--device") deviceName = next();
        else if (arg == "--batch") batch = std::atoi(next().c_str());
        else if (arg == "--budget") budget = std::atof(next().c_str());
        else if (arg == "--strategy") strategy = next();
        else if (arg == "--seed")
            seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--jobs") {
            jobs = std::atoi(next().c_str());
            if (jobs < 1)
                fatal("--jobs needs a positive thread count");
        }
        else if (arg == "--out") outPath = next();
        else if (arg == "--compare-frameworks")
            compareFrameworks = true;
        else if (arg == "--show-schedules")
            showSchedules = std::atoi(next().c_str());
        else if (arg == "--log")
            logPath = next();
        else if (arg == "--save-records")
            saveRecords = next();
        else if (arg == "--replay-records")
            replayRecords = next();
        else if (arg == "--trace-out")
            traceOut = next();
        else if (arg == "--metrics-out")
            metricsOut = next();
        else if (arg == "--cache-dir")
            cacheDir = next();
        else if (arg == "--shards") {
            shards = std::atoi(next().c_str());
            if (shards < 1)
                fatal("--shards needs a positive shard count");
        }
        else if (arg == "--shard-id")
            shardId = std::atoi(next().c_str());
        else if (arg == "--shard-dir")
            shardDir = next();
        else if (arg == "--rounds-per-task") {
            roundsPerTask = std::atoi(next().c_str());
            if (roundsPerTask < 1)
                fatal("--rounds-per-task needs a positive count");
        }
        else if (arg == "--resume")
            resume = true;
        else if (arg == "--no-checkpoint")
            checkpoint = false;
        else if (arg == "--kill-at-round")
            killAtRound = std::atoi(next().c_str());
        else if (arg == "--merge")
            merge = true;
        else if (arg == "--log-level") {
            std::string name = next();
            auto level = parseLogLevel(name);
            if (!level)
                fatal("bad --log-level '" + name +
                      "' (expected debug|info|warn|error)");
            setLogLevel(*level);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument: " + arg);
        }
    }
    if (merge) {
        // Merge needs no network: everything it consumes is in the
        // shard directory's manifests.
        if (shardDir.empty())
            fatal("--merge needs --shard-dir");
        auto result = shard::mergeShards(shardDir);
        if (!result)
            return 1;
        std::printf("merged %d shards (%ld rounds, %zu tasks): "
                    "%9.3f ms\n",
                    result->shards, result->rounds, result->tasks,
                    result->networkLatencySec * 1e3);
        std::printf("wrote %s\n",
                    shard::mergedModulePath(shardDir).c_str());
        return 0;
    }
    if (network.empty()) {
        usage();
        return 1;
    }

    // Resize the pool before any parallel work (cost-model pretrain
    // on a cache miss runs before the tuner is constructed).
    if (jobs > 0)
        setGlobalJobs(jobs);

    if (!traceOut.empty())
        obs::Tracer::instance().start(traceOut);

    auto device = Device::cuda(deviceName);
    auto dnn = buildNetwork(network, batch);
    auto tasks = extractSubgraphs(dnn);
    std::printf("%s (batch %d) on %s: %zu tuning tasks\n",
                network.c_str(), batch, device.config().name.c_str(),
                tasks.size());

    if (shards > 0) {
        if (shardDir.empty())
            fatal("--shards needs --shard-dir");
        if (shardId < 0 || shardId >= shards)
            fatal("--shard-id must be in [0, --shards)");
        obs::setShardIdentity(shardId, shards);
        shard::ShardOptions shardOptions;
        shardOptions.seed = seed;
        shardOptions.shards = shards;
        shardOptions.shardId = shardId;
        shardOptions.roundsPerTask = roundsPerTask;
        shardOptions.strategy =
            (strategy == "ansor") ? tuner::StrategyKind::AnsorTenSet
                                  : tuner::StrategyKind::FelixGradient;
        shardOptions.dir = shardDir;
        shardOptions.checkpoint = checkpoint;
        shardOptions.resume = resume;
        shardOptions.killAfterRounds = killAtRound;
        shard::ShardRunner runner(tasks,
                                  pretrainedCostModel(device, cacheDir),
                                  device, shardOptions);
        int rc = runner.run();
        if (rc == 0)
            std::printf("shard %d/%d done: artifacts in %s\n",
                        shardId, shards, shardDir.c_str());
        if (!traceOut.empty() && !obs::Tracer::instance().stop())
            return 1;
        return rc;
    }

    if (compareFrameworks) {
        for (auto framework : frameworks::allFrameworks()) {
            if (!frameworks::frameworkSupports(
                    framework, network, device.kind, batch)) {
                std::printf("  %-10s : unsupported\n",
                            frameworks::frameworkName(framework));
                continue;
            }
            std::printf("  %-10s : %9.3f ms\n",
                        frameworks::frameworkName(framework),
                        frameworks::networkLatency(
                            tasks, device.config(), framework) *
                            1e3);
        }
    }

    if (!replayRecords.empty()) {
        // TVM's "apply history best": rebuild the best schedule per
        // task from a tuning-record log, no search at all. This is
        // the same lookup the felix-serve schedule cache answers
        // repeat subgraphs from (docs/serving.md).
        auto records = tuner::loadRecords(replayRecords);
        std::vector<std::string> missing;
        auto module =
            applyHistoryBest(tasks, records, device, &missing);
        std::printf("  %-10s : %9.3f ms  (replayed %zu records, "
                    "%zu tasks missing)\n",
                    "replay", module.run() * 1e3, records.size(),
                    missing.size());
        for (const std::string &label : missing)
            std::printf("    missing: %s\n", label.c_str());
        if (!outPath.empty()) {
            module.save(outPath);
            std::printf("saved replayed schedules to %s\n",
                        outPath.c_str());
        }
        return missing.empty() ? 0 : 2;
    }

    OptimizerOptions options;
    options.tuner.seed = seed;
    options.tuner.numThreads = jobs;
    options.tuner.recordLogPath = logPath;
    options.tuner.roundLogPath = metricsOut;
    options.tuner.strategy = (strategy == "ansor")
                                 ? tuner::StrategyKind::AnsorTenSet
                                 : tuner::StrategyKind::FelixGradient;
    Optimizer opt(tasks, pretrainedCostModel(device, cacheDir),
                  device, options);
    opt.optimizeFor(budget);

    auto module = opt.compileWithBestConfigs();
    std::printf("  %-10s : %9.3f ms  (after %.0f virtual seconds, "
                "%d measurements)\n",
                strategy == "ansor" ? "Ansor" : "Felix",
                module.run() * 1e3, opt.tuner().clockNow(),
                opt.tuner().totalMeasurements());
    if (!outPath.empty()) {
        module.save(outPath);
        std::printf("saved best schedules to %s\n", outPath.c_str());
    }
    if (!saveRecords.empty()) {
        // History-best per task, one atomic append: the schedule-
        // cache warm-start format shared with felix-serve.
        std::vector<tuner::TuneRecord> best;
        for (const auto &record : opt.tuner().taskRecords()) {
            tuner::TuneRecord entry;
            entry.taskHash = record.task.subgraph.structuralHash();
            entry.taskLabel = record.task.exampleLabel;
            entry.sketchIndex = record.bestCandidate.sketchIndex;
            entry.scheduleVars = record.bestCandidate.x;
            entry.latencySec = record.bestLatencySec;
            entry.clockSec = opt.tuner().clockNow();
            best.push_back(std::move(entry));
        }
        tuner::appendRecords(saveRecords, best);
        std::printf("saved %zu history-best records to %s\n",
                    best.size(), saveRecords.c_str());
    }

    if (showSchedules > 0) {
        // Rank tasks by their share of the network latency and print
        // the concrete (bound) loop nest of the winners.
        const auto &records = opt.tuner().taskRecords();
        std::vector<size_t> order(records.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return records[a].task.weight * records[a].bestLatencySec >
                   records[b].task.weight * records[b].bestLatencySec;
        });
        for (int rank = 0;
             rank < showSchedules &&
             rank < static_cast<int>(order.size());
             ++rank) {
            const auto &record = records[order[rank]];
            const auto &sched =
                record.strategy
                    ->sketches()[record.bestCandidate.sketchIndex];
            std::printf("\n=== %s (weight %d, %.1f us/kernel, "
                        "sketch %s) ===\n",
                        record.task.exampleLabel.c_str(),
                        record.task.weight,
                        record.bestLatencySec * 1e6,
                        sched.desc.c_str());
            auto bound =
                sched.schedule.bind(record.bestCandidate.x);
            auto program = tir::applySchedule(record.task.subgraph,
                                              bound);
            std::printf("%s", program.str().c_str());
        }
    }

    if (!metricsOut.empty()) {
        if (!obs::appendMetricsSnapshot(
                metricsOut,
                obs::MetricsRegistry::instance().snapshot()))
            return 1;
        std::printf("wrote per-round telemetry to %s\n",
                    metricsOut.c_str());
    }
    if (!traceOut.empty()) {
        if (obs::Tracer::instance().stop()) {
            std::printf("wrote trace to %s (open in chrome://tracing "
                        "or https://ui.perfetto.dev)\n",
                        traceOut.c_str());
        } else {
            return 1;
        }
    }
    return 0;
}
