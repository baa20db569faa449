/**
 * @file
 * The felix-serve session: a long-lived tuning service answering
 * NDJSON schedule requests (protocol.h) from a schedule cache
 * (cache.h), counting fleet traffic exactly per subgraph hash, and
 * spending background tuning rounds on the subgraphs that dominate
 * fleet latency (tuner::pickTask weighted by traffic share) through
 * a reentrant GraphTuner.
 *
 * The session is transport-agnostic: handle() maps one request
 * line to one response line, runStdio() pumps std::istream ->
 * std::ostream (tests, CI, and `felix-serve --stdio`), and the
 * Unix-domain-socket front end in tools/felix_serve.cc reuses the
 * same handle() per connection line.
 *
 * Determinism contract (docs/serving.md): given a fixed request
 * trace, seed, and warm-start log, every response byte is
 * reproducible — across runs and across --jobs values. Responses
 * therefore never carry wall-clock state; wall time goes to the
 * serve.* metrics and the serve log only.
 */
#ifndef FELIX_SERVE_SERVER_H_
#define FELIX_SERVE_SERVER_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "costmodel/cost_model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "sim/device.h"
#include "tuner/tuner.h"

namespace felix {
namespace serve {

/** Daemon configuration. */
struct ServeOptions
{
    /** Tuning target; tune requests naming another device error. */
    std::string device = "a5000";
    /** Tuning-record log: warm-starts the cache at startup, and
     *  flush/shutdown persist improved schedules back to it. */
    std::string recordsPath;
    /** JSONL serve log (one line per request; docs/serving.md). */
    std::string serveLogPath;
    /** Tuner-state checkpoint file: restored at startup (so a
     *  restarted daemon resumes its background tuning where it
     *  left off, not just its cached schedules) and rewritten
     *  crash-safely on flush and shutdown (docs/distributed.md). */
    std::string checkpointPath;
    /** Sliding window (in subgraph lookups) for the windowed cache
     *  hit rate reported by the admin stats op. */
    size_t hitWindow = 256;
    /** Search/clock/seed knobs for the background tuner. */
    tuner::TunerOptions tuner;
};

/** One serving session (single-threaded request loop). */
class ServeSession
{
  public:
    /** Hashes listed as heavy hitters by the admin stats op. */
    static constexpr size_t kHeavyHitters = 8;

    ServeSession(ServeOptions options, costmodel::CostModel model);

    /** One request line in, one response line out (no newline). */
    std::string handle(const std::string &line);

    bool shutdownRequested() const { return shutdown_; }

    /**
     * Serve schedules for already-extracted tasks (the programmatic
     * face of {"op":"tune"}; tests drive it directly).
     */
    TuneResponse tune(const std::string &network_name,
                      const std::vector<graph::Task> &tasks);

    /** Run @p n traffic-weighted background tuning rounds. */
    RoundsResponse runRounds(int n);

    StatsResponse stats() const;

    /** Per-task tuning progress ({"op":"tasks"}; deterministic). */
    TasksResponse tasks() const;

    /** Flight-recorder contents ({"op":"dump"}; wall-clock). */
    DumpResponse dump() const;

    /** Persist improved cache entries to the records log. */
    size_t persist();

    /**
     * Write the tuner-state checkpoint (tmp + fsync + rename, so a
     * crash mid-write leaves the previous checkpoint intact). False
     * when no --checkpoint is configured or the write failed.
     */
    bool writeCheckpoint();

    /**
     * Append the end-of-session {"type":"tasks"} summary line to
     * the serve log (felix-trace-summary --serve reads it). Called
     * once at shutdown; safe to call with no log configured.
     */
    void finalizeLogs();

    /**
     * Pump requests from @p in to @p out until EOF or a shutdown
     * request, then persist. Returns a process exit code.
     */
    int runStdio(std::istream &in, std::ostream &out);

    const tuner::GraphTuner &graphTuner() const { return *tuner_; }
    const std::string &serveLogPath() const
    {
        return options_.serveLogPath;
    }
    const ScheduleCache &cache() const { return cache_; }

    /** Tuning rounds spent on the task with @p hash (tests). */
    int roundsOnTask(uint64_t hash) const;

  private:
    std::string dispatch(const Request &request);
    /** Summed task weights served for @p hash (0 if never seen). */
    uint64_t trafficCount(uint64_t hash) const;
    /** @p count over the traffic total (0 with no traffic yet). */
    double trafficShare(uint64_t count) const;
    void logRequest(const Request &request,
                    const std::string &response, double wall_us);

    ServeOptions options_;
    sim::DeviceKind deviceKind_;
    std::unique_ptr<tuner::GraphTuner> tuner_;
    ScheduleCache cache_;
    /** The task list graph::partition returned for each (network,
     *  batch) served: only a pair's first tune request builds and
     *  partitions the network (both pure functions of the pair).
     *  One entry per distinct pair, kept for the session, like the
     *  cache and the tuner's task table. */
    std::map<std::pair<std::string, int>, std::vector<graph::Task>>
        networks_;
    /** Exact traffic: per subgraph hash, the summed weights of every
     *  task occurrence served; their total; and the largest count
     *  (the serve.heavy_hitter_share gauge). */
    std::unordered_map<uint64_t, uint64_t> traffic_;
    uint64_t trafficTotal_ = 0;
    uint64_t trafficMax_ = 0;
    std::ofstream serveLog_;
    bool shutdown_ = false;
    uint64_t requests_ = 0;
    uint64_t cacheHits_ = 0;
    uint64_t cacheMisses_ = 0;
    int roundsRun_ = 0;
    uint64_t checkpointWrites_ = 0;
    /** Windowed hit rate over recent lookups (deterministic). */
    obs::SlidingWindowRate hitWindow_;
    /** Virtual (cost-model) latency of every served task answer,
     *  in microseconds — deterministic, unlike wall time. */
    obs::Histogram answerLatencyUs_;
    /** Requests/sec over the trailing second (wall-clock; feeds
     *  the serve.request_rate_per_sec gauge only). */
    obs::EventRateWindow requestRate_;
};

} // namespace serve
} // namespace felix

#endif // FELIX_SERVE_SERVER_H_
