/**
 * @file
 * The felix-serve wire protocol: newline-delimited JSON, one
 * request object in, one response object out, in order. The full
 * schema (and the determinism contract: responses carry no
 * wall-clock state) is documented in docs/serving.md.
 *
 * Requests:
 *   {"op":"tune","network":"dcgan","batch":1}
 *   {"op":"rounds","n":4}
 *   {"op":"stats"}
 *   {"op":"tasks"}
 *   {"op":"flush"}
 *   {"op":"shutdown"}
 *   {"op":"metrics"}       // wall-clock: metrics-registry snapshot
 *   {"op":"dump"}          // wall-clock: flight-recorder contents
 *
 * stats and tasks are *deterministic* admin ops: their responses
 * carry no wall-clock state, so they byte-reproduce across runs and
 * --jobs values (felix-top --once --no-wall relies on this). The
 * metrics and dump ops are the explicitly wall-clock escape hatch
 * and are excluded from byte-compare harnesses.
 *
 * Subgraph hashes are emitted as decimal *strings*: they are full
 * 64-bit values and JSON numbers are doubles (53-bit mantissa).
 */
#ifndef FELIX_SERVE_PROTOCOL_H_
#define FELIX_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace felix {
namespace serve {

/** Request kinds understood by the daemon. */
enum class Op { Tune, Rounds, Stats, Tasks, Flush, Shutdown, Metrics,
                Dump };

const char *opName(Op op);

/** One parsed request line. */
struct Request
{
    Op op = Op::Stats;
    std::string network;   ///< tune: model name (models/models.h)
    int batch = 1;         ///< tune: input batch size
    std::string device;    ///< tune: optional device sanity check
    int rounds = 1;        ///< rounds: background rounds to run
};

/**
 * Parse one NDJSON request line. nullopt on malformed input, with a
 * human-readable reason in @p error when non-null. A tune's "batch"
 * and a rounds' "n" default to 1; when present, each must be a JSON
 * number holding an integer in [1, 2^31 - 1].
 */
std::optional<Request> parseRequest(const std::string &line,
                                    std::string *error = nullptr);

/** The schedule served for one subgraph of a tune request. */
struct TaskAnswer
{
    std::string label;
    uint64_t hash = 0;
    int weight = 1;
    int sketchIndex = 0;
    std::vector<double> vars;
    double latencySec = 0.0;
    bool cached = false;   ///< answered from the schedule cache
};

/** Response to {"op":"tune"}. */
struct TuneResponse
{
    std::string network;
    double latencySec = 0.0;   ///< end-to-end with served schedules
    int cacheHits = 0;
    int cacheMisses = 0;
    std::vector<TaskAnswer> tasks;

    std::string toJson() const;
};

/** Response to {"op":"rounds"}. */
struct RoundsResponse
{
    int ran = 0;
    int measurements = 0;      ///< total daemon measurements so far
    double clockSec = 0.0;     ///< virtual tuning clock
    std::vector<std::string> tunedLabels;   ///< task per round

    std::string toJson() const;
};

/** One heavy hitter in a stats response. */
struct HeavyHitterInfo
{
    uint64_t hash = 0;
    uint64_t count = 0;
    double share = 0.0;
};

/**
 * Cache-hit rate over the last `size` subgraph lookups (the
 * count-based sliding window of obs/window.h, so deterministic
 * under replay).
 */
struct WindowInfo
{
    size_t size = 0;       ///< window capacity (events)
    size_t filled = 0;     ///< lookups currently in the window
    uint64_t hits = 0;     ///< hits among those
    double hitRate = 0.0;  ///< hits / filled; 0 while empty
};

/**
 * Quantile summary of the *virtual* (cost-model) latencies of every
 * served task answer, in microseconds. Virtual latencies are part
 * of the deterministic response stream, unlike wall-clock request
 * latencies, which stay in the metrics registry.
 */
struct LatencySummary
{
    uint64_t count = 0;
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
};

/** Response to {"op":"stats"} (deterministic fields only). */
struct StatsResponse
{
    uint64_t requests = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    size_t cacheSize = 0;
    size_t tasks = 0;
    int roundsRun = 0;
    uint64_t trafficTotal = 0;
    std::vector<HeavyHitterInfo> heavyHitters;
    WindowInfo window;            ///< windowed cache-hit rate
    LatencySummary answerLatency; ///< served virtual latencies
    /** Shard identity and checkpoint status. Emitted only when the
     *  daemon runs with --shard-id / --checkpoint, so unsharded
     *  responses keep their exact byte format. Checkpoint writes
     *  happen on flush/shutdown requests (part of the request
     *  trace), so these stay deterministic under replay. */
    int shardId = -1;             ///< -1 when unsharded
    int shardCount = 0;
    bool checkpointConfigured = false;
    uint64_t checkpointWrites = 0;
    size_t pendingRestore = 0;    ///< restored tasks not re-seen yet

    std::string toJson() const;
};

/** Per-task tuning progress in a tasks response. */
struct TaskProgress
{
    std::string label;
    uint64_t hash = 0;
    double bestLatencySec = 0.0;
    int rounds = 0;
    int stagnantRounds = 0;
    uint64_t trafficCount = 0;   ///< summed task weights served
    double trafficShare = 0.0;   ///< trafficCount / traffic total
    uint64_t cacheHits = 0;      ///< hits served for this hash

    std::string toJson() const;
};

/** Response to {"op":"tasks"}: background-tuning progress. */
struct TasksResponse
{
    std::vector<TaskProgress> tasks;

    std::string toJson() const;
};

/** Response to {"op":"dump"}: the flight-recorder ring. */
struct DumpResponse
{
    uint64_t total = 0;      ///< events ever recorded
    uint64_t droppedCount = 0;
    size_t capacity = 0;
    std::vector<obs::FlightEvent> events;   ///< oldest first

    std::string toJson() const;
};

/** Response to {"op":"flush"}. */
struct FlushResponse
{
    size_t persisted = 0;
    /** 1/0: checkpoint written; -1 (field omitted from the JSON)
     *  when the daemon has no --checkpoint configured. */
    int checkpointed = -1;

    std::string toJson() const;
};

/** {"type":"error","error":...} response line. */
std::string errorResponse(const std::string &message);

/** {"type":"ok"} acknowledgement (shutdown). */
std::string okResponse(const std::string &what);

} // namespace serve
} // namespace felix

#endif // FELIX_SERVE_PROTOCOL_H_
