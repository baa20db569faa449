/**
 * @file
 * felix-trace-summary: aggregate a Chrome trace (--trace-out) and/or
 * a per-round telemetry JSONL file (--metrics-out) from felix-tune,
 * or a serve log (felix-serve --serve-log) into a human-readable
 * breakdown.
 *
 *   felix-trace-summary trace.json [metrics.jsonl]
 *   felix-trace-summary --serve serve.jsonl
 *
 * Prints, from the trace: total time per span name (count / total /
 * mean / share of wall time). From the round records: rounds per
 * strategy, seeds launched, constraint-violation rate after
 * rounding, cost-model prediction error against the measurements,
 * and the fine-tune loss trajectory; from a serve log: requests per
 * op (count / response bytes / wall time), the cache hit rate, and
 * background rounds run; from the final metrics snapshot: the
 * descent's live lanes per seed batch, time per seed-step and per
 * rounding attempt, then every counter and gauge.
 *
 * Exits non-zero when a file fails to parse — the ctest smoke tests
 * use this as the telemetry-format validator.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "shard/manifest.h"
#include "shard/shard.h"
#include "support/logging.h"

using namespace felix;

namespace {

struct SpanAgg
{
    int64_t count = 0;
    int64_t totalUs = 0;
};

/** Read a whole file; false when it cannot be opened. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path);
    if (!is.good())
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/**
 * The descent's own account of itself, from the final snapshot's
 * counters: live lanes per seed batch, and the wall time of the fused
 * steps and of the Adam + rounding loop per unit of work. Prints
 * nothing for runs without a gradient-search round.
 */
void
printSearchBlock(const obs::JsonValue &snapshot)
{
    const obs::JsonValue *counters = snapshot.find("counters");
    if (!counters || !counters->isObject())
        return;
    const double batches = counters->numberOr("search.seed_batches", 0.0);
    if (batches <= 0.0)
        return;
    const double seeds = counters->numberOr("search.seeds", 0.0);
    const double steps = counters->numberOr("search.adam_steps", 0.0);
    const double attempts =
        counters->numberOr("search.rounding_attempts", 0.0);
    const double stepMs = counters->numberOr("search.step_ms", 0.0);
    const double roundingMs =
        counters->numberOr("search.rounding_ms", 0.0);
    std::printf("\nsearch (final metrics snapshot):\n");
    std::printf("  live lanes / batch  : %.2f (%.0f seeds in %.0f "
                "batches)\n",
                seeds / batches, seeds, batches);
    if (steps > 0.0)
        std::printf("  us per seed-step    : %.1f (fused step)\n",
                    1000.0 * stepMs / steps);
    if (attempts > 0.0)
        std::printf("  us per rounding     : %.1f (Adam + "
                    "roundToValid)\n",
                    1000.0 * roundingMs / attempts);
}

int
summarizeTrace(const std::string &path,
               const std::string &req_filter)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    std::string error;
    auto doc = obs::parseJson(text, &error);
    if (!doc || !doc->isObject()) {
        std::fprintf(stderr, "%s: malformed JSON (%s)\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    const obs::JsonValue *events = doc->find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr, "%s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }

    std::map<std::string, SpanAgg> byName;
    int64_t minTs = -1, maxEnd = 0;
    for (const obs::JsonValue &event : events->asArray()) {
        if (!event.isObject())
            continue;
        if (event.stringOr("ph", "") != "X")
            continue;
        if (!req_filter.empty()) {
            // Keep only spans recorded while the given request was
            // live ("args":{"req":"N"}, docs/observability.md).
            const obs::JsonValue *args = event.find("args");
            const obs::JsonValue *req =
                args ? args->find("req") : nullptr;
            if (!req || !req->isString() ||
                req->asString() != req_filter)
                continue;
        }
        std::string name = event.stringOr("name", "?");
        int64_t ts =
            static_cast<int64_t>(event.numberOr("ts", 0.0));
        int64_t dur =
            static_cast<int64_t>(event.numberOr("dur", 0.0));
        SpanAgg &agg = byName[name];
        ++agg.count;
        agg.totalUs += dur;
        if (minTs < 0 || ts < minTs)
            minTs = ts;
        maxEnd = std::max(maxEnd, ts + dur);
    }
    const double wallMs =
        minTs < 0 ? 0.0
                  : static_cast<double>(maxEnd - minTs) / 1000.0;

    std::printf("== trace: %s ==\n", path.c_str());
    if (!req_filter.empty())
        std::printf("(spans of request %s only)\n",
                    req_filter.c_str());
    std::printf("%zu span names, wall %.1f ms\n\n", byName.size(),
                wallMs);
    std::printf("  %-28s %8s %12s %10s %7s\n", "span", "count",
                "total ms", "mean ms", "wall%");
    std::vector<std::pair<std::string, SpanAgg>> rows(byName.begin(),
                                                      byName.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.totalUs > b.second.totalUs;
              });
    for (const auto &[name, agg] : rows) {
        double totalMs = static_cast<double>(agg.totalUs) / 1000.0;
        std::printf("  %-28s %8lld %12.2f %10.3f %6.1f%%\n",
                    name.c_str(),
                    static_cast<long long>(agg.count), totalMs,
                    totalMs / static_cast<double>(agg.count),
                    wallMs > 0.0 ? 100.0 * totalMs / wallMs : 0.0);
    }
    std::printf("\n(nested spans overlap their parents, so "
                "percentages do not sum to 100)\n\n");
    return 0;
}

int
summarizeRounds(const std::string &path)
{
    std::ifstream is(path);
    if (!is.good()) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }

    struct StrategyAgg
    {
        int rounds = 0;
        int64_t seeds = 0;
        int64_t attempts = 0;
        int64_t invalid = 0;
        int64_t candidates = 0;
        double wallMs = 0.0;
        double absLogErrorSum = 0.0;   ///< |log(pred / measured)|
        int64_t errorCount = 0;
        double firstLoss = -1.0, lastLoss = -1.0;
    };
    /** Per-op aggregate of serve-log request lines. */
    struct ServeAgg
    {
        int64_t count = 0;
        int64_t bytes = 0;
        double wallUs = 0.0;
    };
    std::map<std::string, ServeAgg> byOp;
    int64_t hitsTotal = 0, missesTotal = 0, roundsTotal = 0;
    int64_t tasksTotal = 0;
    double windowHitRate = -1.0;   ///< last window_hit_rate seen
    obs::JsonValue taskSummary;    ///< the {"type":"tasks"} line
    bool haveTaskSummary = false;

    std::map<std::string, StrategyAgg> byStrategy;
    obs::JsonValue snapshotValue;
    bool haveSnapshot = false;

    std::printf("== records: %s ==\n", path.c_str());
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string error;
        auto record = obs::parseJson(line, &error);
        if (!record || !record->isObject()) {
            std::fprintf(stderr, "%s:%d: malformed JSONL (%s)\n",
                         path.c_str(), lineNo, error.c_str());
            return 1;
        }
        std::string type = record->stringOr("type", "");
        if (type == "metrics") {
            if (const obs::JsonValue *reg = record->find("registry")) {
                snapshotValue = *reg;
                haveSnapshot = true;
            }
            continue;
        }
        if (type == "serve") {
            // One line per daemon request (docs/serving.md); the
            // *_total fields are running counters, so the last line
            // seen carries the session totals.
            ServeAgg &agg = byOp[record->stringOr("op", "?")];
            ++agg.count;
            agg.bytes += static_cast<int64_t>(
                record->numberOr("response_bytes", 0.0));
            agg.wallUs += record->numberOr("wall_us", 0.0);
            hitsTotal = static_cast<int64_t>(
                record->numberOr("hits_total", 0.0));
            missesTotal = static_cast<int64_t>(
                record->numberOr("misses_total", 0.0));
            roundsTotal = static_cast<int64_t>(
                record->numberOr("rounds_total", 0.0));
            tasksTotal = static_cast<int64_t>(
                record->numberOr("tasks", 0.0));
            windowHitRate =
                record->numberOr("window_hit_rate", windowHitRate);
            continue;
        }
        if (type == "tasks") {
            // End-of-session per-task tuning-progress summary
            // (ServeSession::finalizeLogs).
            taskSummary = *record;
            haveTaskSummary = true;
            continue;
        }
        if (type != "round")
            continue;
        StrategyAgg &agg =
            byStrategy[record->stringOr("strategy", "?")];
        ++agg.rounds;
        agg.seeds += static_cast<int64_t>(
            record->numberOr("seeds", 0.0));
        agg.attempts += static_cast<int64_t>(
            record->numberOr("rounding_attempts", 0.0));
        agg.invalid += static_cast<int64_t>(
            record->numberOr("rounding_invalid", 0.0));
        agg.wallMs += record->numberOr("wall_ms", 0.0);
        double loss = record->numberOr("finetune_loss", -1.0);
        if (loss >= 0.0) {
            if (agg.firstLoss < 0.0)
                agg.firstLoss = loss;
            agg.lastLoss = loss;
        }
        if (const obs::JsonValue *cands =
                record->find("candidates")) {
            if (cands->isArray()) {
                for (const obs::JsonValue &c : cands->asArray()) {
                    ++agg.candidates;
                    double pred = c.numberOr("predicted_sec", 0.0);
                    double meas = c.numberOr("measured_sec", 0.0);
                    if (pred > 0.0 && meas > 0.0) {
                        agg.absLogErrorSum +=
                            std::fabs(std::log(pred / meas));
                        ++agg.errorCount;
                    }
                }
            }
        }
    }

    for (const auto &[strategy, agg] : byStrategy) {
        std::printf("\n%s: %d rounds, %.1f ms real search+measure\n",
                    strategy.c_str(), agg.rounds, agg.wallMs);
        std::printf("  seeds launched      : %lld (%.1f/round)\n",
                    static_cast<long long>(agg.seeds),
                    agg.rounds ? static_cast<double>(agg.seeds) /
                                     agg.rounds
                               : 0.0);
        std::printf("  rounding violations : %lld / %lld (%.1f%%)\n",
                    static_cast<long long>(agg.invalid),
                    static_cast<long long>(agg.attempts),
                    agg.attempts ? 100.0 *
                                       static_cast<double>(
                                           agg.invalid) /
                                       static_cast<double>(
                                           agg.attempts)
                                 : 0.0);
        std::printf("  measured candidates : %lld\n",
                    static_cast<long long>(agg.candidates));
        if (agg.errorCount > 0) {
            // exp(mean |log ratio|) reads as "x-fold off on average".
            std::printf("  pred-vs-measured    : %.2fx mean "
                        "latency-ratio error\n",
                        std::exp(agg.absLogErrorSum /
                                 static_cast<double>(
                                     agg.errorCount)));
        }
        if (agg.lastLoss >= 0.0) {
            std::printf("  finetune loss       : %.4f -> %.4f\n",
                        agg.firstLoss, agg.lastLoss);
        }
    }

    if (!byOp.empty()) {
        std::printf("\n  %-10s %8s %12s %12s\n", "op", "count",
                    "resp bytes", "mean ms");
        for (const auto &[op, agg] : byOp) {
            std::printf("  %-10s %8lld %12lld %12.3f\n", op.c_str(),
                        static_cast<long long>(agg.count),
                        static_cast<long long>(agg.bytes),
                        agg.wallUs / 1000.0 /
                            static_cast<double>(agg.count));
        }
        const int64_t answered = hitsTotal + missesTotal;
        std::printf("\n  cache               : %lld hits / %lld "
                    "misses (%.1f%% hit rate)\n",
                    static_cast<long long>(hitsTotal),
                    static_cast<long long>(missesTotal),
                    answered ? 100.0 *
                                   static_cast<double>(hitsTotal) /
                                   static_cast<double>(answered)
                             : 0.0);
        if (windowHitRate >= 0.0) {
            std::printf("  windowed hit rate   : %.1f%% (sliding "
                        "window, last request)\n",
                        100.0 * windowHitRate);
        }
        std::printf("  background rounds   : %lld across %lld "
                    "registered tasks\n",
                    static_cast<long long>(roundsTotal),
                    static_cast<long long>(tasksTotal));
    }

    if (haveTaskSummary) {
        const obs::JsonValue *list = taskSummary.find("tasks");
        if (list && list->isArray() && !list->asArray().empty()) {
            std::printf("\n  per-task tuning progress:\n");
            std::printf("  %-28s %6s %8s %12s %8s %6s\n", "task",
                        "rounds", "stagnant", "best us",
                        "traffic", "hits");
            for (const obs::JsonValue &task : list->asArray()) {
                std::printf(
                    "  %-28.28s %6.0f %8.0f %12.1f %7.1f%% %6.0f\n",
                    task.stringOr("label", "?").c_str(),
                    task.numberOr("rounds", 0.0),
                    task.numberOr("stagnant", 0.0),
                    task.numberOr("best_latency_sec", 0.0) * 1e6,
                    100.0 * task.numberOr("traffic_share", 0.0),
                    task.numberOr("cache_hits", 0.0));
            }
        }
    }

    if (haveSnapshot)
        printSearchBlock(snapshotValue);

    if (haveSnapshot) {
        std::printf("\nfinal metrics snapshot:\n");
        if (const obs::JsonValue *counters =
                snapshotValue.find("counters")) {
            for (const auto &[name, value] : counters->asObject()) {
                if (value.isNumber()) {
                    std::printf("  counter %-26s %.3f\n",
                                name.c_str(), value.asNumber());
                }
            }
        }
        if (const obs::JsonValue *gauges =
                snapshotValue.find("gauges")) {
            for (const auto &[name, value] : gauges->asObject()) {
                if (value.isNumber()) {
                    std::printf("  gauge   %-26s %.3f\n",
                                name.c_str(), value.asNumber());
                }
            }
        }
        if (const obs::JsonValue *histograms =
                snapshotValue.find("histograms")) {
            for (const auto &[name, value] :
                 histograms->asObject()) {
                double count = value.numberOr("count", 0.0);
                double sum = value.numberOr("sum", 0.0);
                std::printf("  histo   %-26s n=%.0f mean=%.3f\n",
                            name.c_str(), count,
                            count > 0.0 ? sum / count : 0.0);
            }
        }
    }
    return 0;
}

/**
 * --shards DIR: per-shard progress from the manifests a sharded
 * felix-tune run leaves behind (docs/distributed.md). Exits
 * non-zero when a shard's manifest is missing or malformed, so it
 * doubles as the shard-directory validator in scripts.
 */
int
summarizeShards(const std::string &dir)
{
    auto first = shard::loadManifest(shard::shardManifestPath(dir, 0));
    if (!first) {
        std::fprintf(stderr, "cannot load %s\n",
                     shard::shardManifestPath(dir, 0).c_str());
        return 1;
    }
    const int shards = first->shards;
    std::printf("== shards: %s ==\n", dir.c_str());
    std::printf("seed %llu, %d shards, %d rounds/task, %zu tasks, "
                "strategy %s, device %s\n\n",
                static_cast<unsigned long long>(first->seed), shards,
                first->roundsPerTask, first->tasks.size(),
                first->strategy.c_str(), first->device.c_str());

    std::printf("  %-6s %6s %8s %8s %6s %8s\n", "SHARD", "TASKS",
                "ROUNDS", "RECORDS", "DONE", "LAST_G");
    int rc = 0;
    std::vector<shard::ShardManifest> manifests;
    for (int i = 0; i < shards; ++i) {
        auto manifest =
            i == 0 ? std::move(first)
                   : shard::loadManifest(
                         shard::shardManifestPath(dir, i));
        if (!manifest) {
            std::printf("  %-6d (manifest missing or malformed)\n",
                        i);
            rc = 1;
            continue;
        }
        int owned = 0;
        for (const shard::ManifestTask &task : manifest->tasks) {
            if (shard::shardOf(task.hash, shards) == i)
                ++owned;
        }
        long records = 0;
        for (const shard::ManifestRound &round : manifest->rounds)
            records += round.recordsLines;
        std::printf("  %-6d %6d %8zu %8ld %6s %8ld\n", i, owned,
                    manifest->rounds.size(), records,
                    manifest->done ? "yes" : "NO",
                    manifest->lastG);
        manifests.push_back(std::move(*manifest));
    }

    std::printf("\n  %-28s %6s %12s\n", "TASK", "SHARD", "BEST_US");
    for (const shard::ManifestTask &task : manifests.front().tasks) {
        const int owner = shard::shardOf(task.hash, shards);
        double bestUs = -1.0;
        for (const shard::ShardManifest &manifest : manifests) {
            if (manifest.shardId != owner)
                continue;
            for (const shard::ManifestBest &best : manifest.bests) {
                if (best.index == task.index)
                    bestUs = best.latencySec * 1e6;
            }
        }
        if (bestUs >= 0.0)
            std::printf("  %-28.28s %6d %12.1f\n",
                        task.label.c_str(), owner, bestUs);
        else
            std::printf("  %-28.28s %6d %12s\n", task.label.c_str(),
                        owner, "(pending)");
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    auto usage = [](FILE *to) {
        std::fprintf(
            to,
            "usage: felix-trace-summary [--req N] TRACE.json "
            "[METRICS.jsonl]\n"
            "       felix-trace-summary --serve SERVE.jsonl\n"
            "       felix-trace-summary --shards DIR\n"
            "  TRACE.json    from felix-tune --trace-out\n"
            "  METRICS.jsonl from felix-tune --metrics-out\n"
            "  SERVE.jsonl   from felix-serve --serve-log\n"
            "  DIR           shard directory from felix-tune "
            "--shards\n"
            "  --req N       only spans recorded while request N\n"
            "                was live (felix-serve correlation "
            "ids)\n");
    };
    std::string servePath, shardsDir, reqFilter;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(stderr);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--serve") servePath = next();
        else if (arg == "--shards") shardsDir = next();
        else if (arg == "--req") reqFilter = next();
        else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            positional.push_back(arg);
        }
    }
    if (!shardsDir.empty()) {
        if (!positional.empty() || !reqFilter.empty() ||
            !servePath.empty()) {
            usage(stderr);
            return 1;
        }
        return summarizeShards(shardsDir);
    }
    if (!servePath.empty()) {
        if (!positional.empty() || !reqFilter.empty()) {
            usage(stderr);
            return 1;
        }
        return summarizeRounds(servePath);
    }
    if (positional.empty() || positional.size() > 2) {
        usage(stderr);
        return 1;
    }
    int rc = summarizeTrace(positional[0], reqFilter);
    if (rc != 0)
        return rc;
    if (positional.size() == 2)
        return summarizeRounds(positional[1]);
    return 0;
}
