#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace felix {
namespace serve {

namespace {

/** 64-bit hash as a JSON decimal string. */
std::string
hashString(uint64_t hash)
{
    return obs::jsonEscape(std::to_string(hash));
}

/**
 * Read member @p key of @p doc into @p out when present. It must be
 * a JSON number holding an integer in [1, 2^31 - 1]; otherwise false,
 * with an error naming @p key.
 */
bool
positiveIntMember(const obs::JsonValue &doc, const char *key, int *out,
                  std::string *error)
{
    const obs::JsonValue *value = doc.find(key);
    if (!value)
        return true;
    if (value->isNumber()) {
        const double n = value->asNumber();
        if (n >= 1.0 && n <= std::numeric_limits<int>::max() &&
            n == std::floor(n)) {
            *out = static_cast<int>(n);
            return true;
        }
    }
    if (error)
        *error = std::string("\"") + key +
                 "\" must be an integer in [1, 2147483647]";
    return false;
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::Tune: return "tune";
      case Op::Rounds: return "rounds";
      case Op::Stats: return "stats";
      case Op::Tasks: return "tasks";
      case Op::Flush: return "flush";
      case Op::Shutdown: return "shutdown";
      case Op::Metrics: return "metrics";
      case Op::Dump: return "dump";
    }
    return "?";
}

std::optional<Request>
parseRequest(const std::string &line, std::string *error)
{
    std::string parseError;
    auto doc = obs::parseJson(line, &parseError);
    if (!doc || !doc->isObject()) {
        if (error)
            *error = "malformed JSON: " + parseError;
        return std::nullopt;
    }
    std::string op = doc->stringOr("op", "");
    Request request;
    if (op == "tune") {
        request.op = Op::Tune;
        request.network = doc->stringOr("network", "");
        if (request.network.empty()) {
            if (error)
                *error = "tune request needs a \"network\"";
            return std::nullopt;
        }
        if (!positiveIntMember(*doc, "batch", &request.batch, error))
            return std::nullopt;
        request.device = doc->stringOr("device", "");
    } else if (op == "rounds") {
        request.op = Op::Rounds;
        if (!positiveIntMember(*doc, "n", &request.rounds, error))
            return std::nullopt;
    } else if (op == "stats") {
        request.op = Op::Stats;
    } else if (op == "tasks") {
        request.op = Op::Tasks;
    } else if (op == "flush") {
        request.op = Op::Flush;
    } else if (op == "shutdown") {
        request.op = Op::Shutdown;
    } else if (op == "metrics") {
        request.op = Op::Metrics;
    } else if (op == "dump") {
        request.op = Op::Dump;
    } else {
        if (error)
            *error = op.empty() ? "missing \"op\""
                                : "unknown op \"" + op + "\"";
        return std::nullopt;
    }
    return request;
}

std::string
TuneResponse::toJson() const
{
    std::string out = "{\"type\":\"schedules\",\"network\":" +
                      obs::jsonEscape(network) +
                      ",\"latency_sec\":" + obs::jsonNumber(latencySec) +
                      ",\"cache_hits\":" +
                      obs::jsonNumber(cacheHits) +
                      ",\"cache_misses\":" +
                      obs::jsonNumber(cacheMisses) + ",\"tasks\":[";
    for (size_t i = 0; i < tasks.size(); ++i) {
        const TaskAnswer &task = tasks[i];
        if (i)
            out += ",";
        out += "{\"label\":" + obs::jsonEscape(task.label) +
               ",\"hash\":" + hashString(task.hash) +
               ",\"weight\":" + obs::jsonNumber(task.weight) +
               ",\"sketch\":" + obs::jsonNumber(task.sketchIndex) +
               ",\"vars\":[";
        for (size_t j = 0; j < task.vars.size(); ++j) {
            if (j)
                out += ",";
            out += obs::jsonNumber(task.vars[j]);
        }
        out += "],\"latency_sec\":" + obs::jsonNumber(task.latencySec) +
               ",\"cached\":" + (task.cached ? "true" : "false") + "}";
    }
    out += "]}";
    return out;
}

std::string
RoundsResponse::toJson() const
{
    std::string out =
        "{\"type\":\"rounds\",\"ran\":" + obs::jsonNumber(ran) +
        ",\"measurements\":" + obs::jsonNumber(measurements) +
        ",\"clock_sec\":" + obs::jsonNumber(clockSec) + ",\"tuned\":[";
    for (size_t i = 0; i < tunedLabels.size(); ++i) {
        if (i)
            out += ",";
        out += obs::jsonEscape(tunedLabels[i]);
    }
    out += "]}";
    return out;
}

std::string
StatsResponse::toJson() const
{
    std::string out =
        "{\"type\":\"stats\",\"requests\":" +
        obs::jsonNumber(static_cast<double>(requests)) +
        ",\"cache_hits\":" +
        obs::jsonNumber(static_cast<double>(cacheHits)) +
        ",\"cache_misses\":" +
        obs::jsonNumber(static_cast<double>(cacheMisses)) +
        ",\"cache_size\":" +
        obs::jsonNumber(static_cast<double>(cacheSize)) +
        ",\"tasks\":" + obs::jsonNumber(static_cast<double>(tasks)) +
        ",\"rounds\":" + obs::jsonNumber(roundsRun) +
        ",\"traffic_total\":" +
        obs::jsonNumber(static_cast<double>(trafficTotal)) +
        ",\"heavy_hitters\":[";
    for (size_t i = 0; i < heavyHitters.size(); ++i) {
        const HeavyHitterInfo &hitter = heavyHitters[i];
        if (i)
            out += ",";
        out += "{\"hash\":" + hashString(hitter.hash) +
               ",\"count\":" +
               obs::jsonNumber(static_cast<double>(hitter.count)) +
               ",\"share\":" + obs::jsonNumber(hitter.share) + "}";
    }
    out += "],\"window\":{\"size\":" +
           obs::jsonNumber(static_cast<double>(window.size)) +
           ",\"filled\":" +
           obs::jsonNumber(static_cast<double>(window.filled)) +
           ",\"hits\":" +
           obs::jsonNumber(static_cast<double>(window.hits)) +
           ",\"hit_rate\":" + obs::jsonNumber(window.hitRate) +
           "},\"answer_latency_us\":{\"count\":" +
           obs::jsonNumber(static_cast<double>(answerLatency.count)) +
           ",\"mean\":" + obs::jsonNumber(answerLatency.meanUs) +
           ",\"p50\":" + obs::jsonNumber(answerLatency.p50Us) +
           ",\"p95\":" + obs::jsonNumber(answerLatency.p95Us) +
           ",\"p99\":" + obs::jsonNumber(answerLatency.p99Us) + "}";
    if (shardId >= 0) {
        out += ",\"shard\":{\"id\":" + std::to_string(shardId) +
               ",\"count\":" + std::to_string(shardCount) + "}";
    }
    if (checkpointConfigured) {
        out += ",\"checkpoint\":{\"writes\":" +
               obs::jsonNumber(static_cast<double>(checkpointWrites)) +
               ",\"pending_restore\":" +
               obs::jsonNumber(static_cast<double>(pendingRestore)) +
               "}";
    }
    out += "}";
    return out;
}

std::string
TaskProgress::toJson() const
{
    return "{\"label\":" + obs::jsonEscape(label) +
           ",\"hash\":" + hashString(hash) +
           ",\"best_latency_sec\":" + obs::jsonNumber(bestLatencySec) +
           ",\"rounds\":" + obs::jsonNumber(rounds) +
           ",\"stagnant\":" + obs::jsonNumber(stagnantRounds) +
           ",\"traffic_count\":" +
           obs::jsonNumber(static_cast<double>(trafficCount)) +
           ",\"traffic_share\":" + obs::jsonNumber(trafficShare) +
           ",\"cache_hits\":" +
           obs::jsonNumber(static_cast<double>(cacheHits)) + "}";
}

std::string
TasksResponse::toJson() const
{
    std::string out = "{\"type\":\"tasks\",\"count\":" +
                      obs::jsonNumber(static_cast<double>(
                          tasks.size())) +
                      ",\"tasks\":[";
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (i)
            out += ",";
        out += tasks[i].toJson();
    }
    out += "]}";
    return out;
}

std::string
DumpResponse::toJson() const
{
    std::string out =
        "{\"type\":\"dump\",\"total\":" +
        obs::jsonNumber(static_cast<double>(total)) +
        ",\"dropped\":" +
        obs::jsonNumber(static_cast<double>(droppedCount)) +
        ",\"capacity\":" +
        obs::jsonNumber(static_cast<double>(capacity)) +
        ",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i) {
        const obs::FlightEvent &event = events[i];
        if (i)
            out += ",";
        out += "{\"seq\":" +
               obs::jsonNumber(static_cast<double>(event.seq)) +
               ",\"t_us\":" +
               obs::jsonNumber(static_cast<double>(event.wallUs)) +
               ",\"kind\":" +
               obs::jsonEscape(obs::flightKindName(event.kind)) +
               ",\"req\":" + hashString(event.requestId) +
               ",\"key\":" + hashString(event.key) +
               ",\"value\":" +
               obs::jsonNumber(static_cast<double>(event.value)) + "}";
    }
    out += "]}";
    return out;
}

std::string
FlushResponse::toJson() const
{
    std::string out = "{\"type\":\"flush\",\"persisted\":" +
                      obs::jsonNumber(static_cast<double>(persisted));
    if (checkpointed >= 0)
        out += std::string(",\"checkpoint\":") +
               (checkpointed ? "true" : "false");
    return out + "}";
}

std::string
errorResponse(const std::string &message)
{
    return "{\"type\":\"error\",\"error\":" + obs::jsonEscape(message) +
           "}";
}

std::string
okResponse(const std::string &what)
{
    return "{\"type\":\"ok\",\"what\":" + obs::jsonEscape(what) + "}";
}

} // namespace serve
} // namespace felix
