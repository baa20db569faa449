#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "models/models.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/checkpoint.h"
#include "support/logging.h"

namespace felix {
namespace serve {

namespace {

/** CLI network names, matching felix-tune --network. */
std::optional<graph::Graph>
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
    return std::nullopt;
}

tuner::TuneRecord
recordOf(const tuner::TaskRecord &record, double clock_sec)
{
    tuner::TuneRecord out;
    out.taskHash = record.task.subgraph.structuralHash();
    out.taskLabel = record.task.exampleLabel;
    out.sketchIndex = record.bestCandidate.sketchIndex;
    out.scheduleVars = record.bestCandidate.x;
    out.latencySec = record.bestLatencySec;
    out.clockSec = clock_sec;
    return out;
}

/** A response's JSON line, timed as the serve.encode span. */
template <typename Response>
std::string
encode(const Response &response)
{
    FELIX_SPAN("serve.encode", "serve");
    return response.toJson();
}

} // namespace

ServeSession::ServeSession(ServeOptions options,
                           costmodel::CostModel model)
    : options_(std::move(options)),
      deviceKind_(sim::parseDevice(options_.device)),
      hitWindow_(options_.hitWindow),
      answerLatencyUs_(obs::Histogram::logBounds(1.0, 1e7, 9)),
      requestRate_(1000000)
{
    options_.tuner.allowEmptyTasks = true;
    tuner_ = std::make_unique<tuner::GraphTuner>(
        std::vector<graph::Task>{}, std::move(model), deviceKind_,
        options_.tuner);
    if (!options_.recordsPath.empty()) {
        size_t loaded = cache_.warmStart(options_.recordsPath);
        if (loaded > 0)
            inform("felix-serve: warm-started ", loaded,
                   " cached schedules from ", options_.recordsPath);
    }
    if (!options_.checkpointPath.empty()) {
        if (auto payload =
                shard::readCheckpoint(options_.checkpointPath)) {
            std::istringstream is(*payload);
            if (tuner_->loadState(is)) {
                inform("felix-serve: restored tuner state from ",
                       options_.checkpointPath, " (",
                       tuner_->pendingRestoreCount(),
                       " tasks pending re-registration)");
            } else {
                warn("felix-serve: malformed tuner state in ",
                     options_.checkpointPath, "; starting fresh");
            }
        } else if (shard::fileSize(options_.checkpointPath) > 0) {
            warn("felix-serve: corrupt checkpoint ",
                 options_.checkpointPath, "; starting fresh");
        }
    }
    if (!options_.serveLogPath.empty()) {
        serveLog_.open(options_.serveLogPath);
        FELIX_CHECK(serveLog_.good(), "cannot open serve log " +
                                          options_.serveLogPath);
    }
}

std::string
ServeSession::handle(const std::string &line)
{
    const int64_t startUs = obs::Tracer::nowUs();
    auto &registry = obs::MetricsRegistry::instance();
    ++requests_;
    registry.counter("serve.requests").add(1.0);
    requestRate_.record(startUs);
    registry.gauge("serve.request_rate_per_sec")
        .set(requestRate_.ratePerSec(startUs));

    // Correlation: spans and flight events recorded while this
    // request is live carry its 1-based ordinal as the request id.
    obs::ScopedRequestId requestId(requests_);

    std::string error;
    std::optional<Request> request;
    {
        FELIX_SPAN("serve.parse", "serve");
        request = parseRequest(line, &error);
    }
    obs::FlightRecorder::instance().record(
        obs::FlightKind::Request, requests_,
        request ? static_cast<uint64_t>(request->op) : 0);
    std::string response;
    if (!request) {
        registry.counter("serve.requests.malformed").add(1.0);
        response = errorResponse(error);
    } else {
        try {
            response = dispatch(*request);
        } catch (const std::exception &e) {
            registry.counter("serve.requests.failed").add(1.0);
            response = errorResponse(e.what());
        }
    }

    const double wallUs =
        static_cast<double>(obs::Tracer::nowUs() - startUs);
    registry
        .histogram("serve.request_latency_us",
                   obs::MetricsRegistry::
                       defaultRequestLatencyBoundsUs())
        .observe(wallUs);
    if (request)
        logRequest(*request, response, wallUs);
    return response;
}

std::string
ServeSession::dispatch(const Request &request)
{
    switch (request.op) {
      case Op::Tune: {
          if (!request.device.empty() &&
              request.device != options_.device) {
              return errorResponse(
                  "this daemon tunes for " + options_.device +
                  ", not " + request.device);
          }
          auto key = std::make_pair(request.network, request.batch);
          auto known = networks_.find(key);
          if (known == networks_.end()) {
              std::optional<graph::Graph> network;
              {
                  FELIX_SPAN("serve.build_network", "serve");
                  network =
                      buildNetwork(request.network, request.batch);
              }
              if (!network)
                  return errorResponse("unknown network \"" +
                                       request.network + "\"");
              std::vector<graph::Task> networkTasks;
              {
                  FELIX_SPAN("serve.partition", "serve");
                  networkTasks = graph::partition(*network);
              }
              known = networks_
                          .emplace(std::move(key),
                                   std::move(networkTasks))
                          .first;
          }
          return encode(tune(request.network, known->second));
      }
      case Op::Rounds:
          return encode(runRounds(request.rounds));
      case Op::Stats:
          return encode(stats());
      case Op::Tasks:
          return encode(tasks());
      case Op::Metrics:
          // Explicitly wall-clock: the registry snapshot carries
          // timing counters and rate gauges. Never byte-compared.
          return "{\"type\":\"metrics\",\"registry\":" +
                 obs::MetricsRegistry::instance().snapshot().toJson() +
                 "}";
      case Op::Dump:
          return encode(dump());
      case Op::Flush: {
          FlushResponse response;
          response.persisted = persist();
          if (!options_.checkpointPath.empty())
              response.checkpointed = writeCheckpoint() ? 1 : 0;
          return encode(response);
      }
      case Op::Shutdown:
          shutdown_ = true;
          obs::FlightRecorder::instance().record(
              obs::FlightKind::Shutdown, obs::currentRequestId());
          return okResponse("shutdown");
    }
    return errorResponse("unhandled op");
}

TuneResponse
ServeSession::tune(const std::string &network_name,
                   const std::vector<graph::Task> &tasks)
{
    FELIX_SPAN("serve.tune", "serve");
    auto &registry = obs::MetricsRegistry::instance();
    TuneResponse response;
    response.network = network_name;

    // The tasks this request registers with the background tuner, in
    // request order, as one addTasks() call so that their strategies
    // build in parallel: each miss, at the first occurrence of its
    // hash, and each hit whose restored checkpoint holds
    // background-tuning state (a restarted daemon with a warm cache).
    // The order keeps the measurement seeds one-at-a-time
    // registration would draw.
    std::vector<uint64_t> hashes;
    hashes.reserve(tasks.size());
    for (const graph::Task &task : tasks)
        hashes.push_back(task.subgraph.structuralHash());
    std::vector<graph::Task> toRegister;
    std::unordered_map<uint64_t, int> registered;   // hash -> offset
    for (size_t i = 0; i < tasks.size(); ++i) {
        const uint64_t hash = hashes[i];
        if (registered.count(hash))
            continue;
        const CacheEntry *entry = cache_.lookup(hash);
        if (!entry ||
            (entry->taskIndex < 0 && tuner_->hasPendingRestore(hash))) {
            registered.emplace(hash,
                               static_cast<int>(toRegister.size()));
            toRegister.push_back(tasks[i]);
        }
    }
    const int firstIndex = tuner_->addTasks(std::move(toRegister));

    for (size_t i = 0; i < tasks.size(); ++i) {
        const graph::Task &task = tasks[i];
        const uint64_t hash = hashes[i];
        // Traffic accounting: each occurrence of the subgraph in
        // the requested network is one unit of fleet traffic.
        uint64_t &count = traffic_[hash];
        count += static_cast<uint64_t>(task.weight);
        trafficTotal_ += static_cast<uint64_t>(task.weight);
        trafficMax_ = std::max(trafficMax_, count);

        TaskAnswer answer;
        answer.label = task.exampleLabel;
        answer.hash = hash;
        answer.weight = task.weight;
        if (const CacheEntry *entry = cache_.lookup(hash)) {
            cache_.recordHit(hash);
            ++cacheHits_;
            ++response.cacheHits;
            hitWindow_.observe(true);
            registry.counter("serve.cache.hit").add(1.0);
            obs::FlightRecorder::instance().record(
                obs::FlightKind::CacheHit, obs::currentRequestId(),
                hash);
            answer.sketchIndex = entry->best.sketchIndex;
            answer.vars = entry->best.scheduleVars;
            answer.latencySec = entry->best.latencySec;
            answer.cached = true;
            auto reRegistered = registered.find(hash);
            if (entry->taskIndex < 0 && reRegistered != registered.end()) {
                // Restarted daemon, warm cache: the answer comes
                // from the cache, and the task re-registered above
                // keeps improving where the previous process left
                // off.
                cache_.bindTask(hash, firstIndex + reRegistered->second);
            }
        } else {
            // First sighting: registered above with the background
            // tuner (one initial all-ones measurement); serve that
            // untuned schedule, which background rounds improve.
            ++cacheMisses_;
            ++response.cacheMisses;
            hitWindow_.observe(false);
            registry.counter("serve.cache.miss").add(1.0);
            obs::FlightRecorder::instance().record(
                obs::FlightKind::CacheMiss, obs::currentRequestId(),
                hash);
            const int taskIndex = firstIndex + registered.at(hash);
            const tuner::TaskRecord &record =
                tuner_->taskRecords()[taskIndex];
            tuner::TuneRecord fresh =
                recordOf(record, tuner_->clockNow());
            cache_.put(fresh);
            cache_.bindTask(hash, taskIndex);
            answer.sketchIndex = fresh.sketchIndex;
            answer.vars = fresh.scheduleVars;
            answer.latencySec = fresh.latencySec;
        }
        answerLatencyUs_.observe(answer.latencySec * 1e6);
        response.latencySec += task.weight * answer.latencySec;
        response.tasks.push_back(std::move(answer));
    }
    response.latencySec += options_.tuner.graphExecOverheadSec;

    registry.gauge("serve.tasks").set(
        static_cast<double>(tuner_->taskRecords().size()));
    if (trafficTotal_ > 0) {
        registry.gauge("serve.heavy_hitter_share")
            .set(static_cast<double>(trafficMax_) /
                 static_cast<double>(trafficTotal_));
    }
    return response;
}

RoundsResponse
ServeSession::runRounds(int n)
{
    FELIX_SPAN("serve.rounds", "serve");
    auto &registry = obs::MetricsRegistry::instance();
    RoundsResponse response;
    for (int i = 0; i < n; ++i) {
        const auto &records = tuner_->taskRecords();
        // The tuner's task pick, weighted by each task's exact share
        // of the traffic served instead of by its network weight.
        std::vector<double> shares;
        shares.reserve(records.size());
        for (const tuner::TaskRecord &record : records) {
            shares.push_back(trafficShare(
                trafficCount(record.task.subgraph.structuralHash())));
        }
        const int taskIndex = tuner::pickTask(records, shares);
        if (taskIndex < 0)
            break;
        const tuner::TaskRecord &record = records[taskIndex];
        obs::FlightRecorder::instance().record(
            obs::FlightKind::RoundPick, obs::currentRequestId(),
            record.task.subgraph.structuralHash());
        tuner_->tuneTaskRound(taskIndex);
        ++roundsRun_;
        registry.counter("serve.rounds").add(1.0);
        cache_.put(recordOf(record, tuner_->clockNow()));
        response.tunedLabels.push_back(record.task.exampleLabel);
    }
    response.ran = static_cast<int>(response.tunedLabels.size());
    response.measurements = tuner_->totalMeasurements();
    response.clockSec = tuner_->clockNow();
    return response;
}

StatsResponse
ServeSession::stats() const
{
    StatsResponse response;
    response.requests = requests_;
    response.cacheHits = cacheHits_;
    response.cacheMisses = cacheMisses_;
    response.cacheSize = cache_.size();
    response.tasks = tuner_->taskRecords().size();
    response.roundsRun = roundsRun_;
    response.trafficTotal = trafficTotal_;
    // The top kHeavyHitters hashes by count, ties to the lower hash,
    // so the list does not depend on the order traffic arrived in.
    std::vector<std::pair<uint64_t, uint64_t>> counts(traffic_.begin(),
                                                      traffic_.end());
    const size_t listed = std::min(kHeavyHitters, counts.size());
    std::partial_sort(counts.begin(), counts.begin() + listed,
                      counts.end(), [](const auto &a, const auto &b) {
                          if (a.second != b.second)
                              return a.second > b.second;
                          return a.first < b.first;
                      });
    for (size_t i = 0; i < listed; ++i) {
        HeavyHitterInfo info;
        info.hash = counts[i].first;
        info.count = counts[i].second;
        info.share = trafficShare(info.count);
        response.heavyHitters.push_back(info);
    }
    response.window.size = hitWindow_.window();
    response.window.filled = hitWindow_.occupied();
    response.window.hits = hitWindow_.successes();
    response.window.hitRate = hitWindow_.rate();
    response.answerLatency.count = answerLatencyUs_.count();
    response.answerLatency.meanUs = answerLatencyUs_.mean();
    response.answerLatency.p50Us = answerLatencyUs_.quantile(0.50);
    response.answerLatency.p95Us = answerLatencyUs_.quantile(0.95);
    response.answerLatency.p99Us = answerLatencyUs_.quantile(0.99);
    response.shardId = obs::shardId();
    response.shardCount = obs::shardCount();
    response.checkpointConfigured = !options_.checkpointPath.empty();
    response.checkpointWrites = checkpointWrites_;
    response.pendingRestore = tuner_->pendingRestoreCount();
    return response;
}

TasksResponse
ServeSession::tasks() const
{
    TasksResponse response;
    for (const tuner::TaskRecord &record : tuner_->taskRecords()) {
        TaskProgress progress;
        progress.label = record.task.exampleLabel;
        progress.hash = record.task.subgraph.structuralHash();
        progress.bestLatencySec = record.bestLatencySec;
        progress.rounds = record.rounds;
        progress.stagnantRounds = record.stagnantRounds;
        progress.trafficCount = trafficCount(progress.hash);
        progress.trafficShare = trafficShare(progress.trafficCount);
        if (const CacheEntry *entry = cache_.lookup(progress.hash))
            progress.cacheHits = entry->hits;
        response.tasks.push_back(std::move(progress));
    }
    return response;
}

DumpResponse
ServeSession::dump() const
{
    const obs::FlightRecorder &recorder =
        obs::FlightRecorder::instance();
    DumpResponse response;
    response.total = recorder.totalRecorded();
    response.droppedCount = recorder.dropped();
    response.capacity = recorder.capacity();
    response.events = recorder.snapshot();
    return response;
}

bool
ServeSession::writeCheckpoint()
{
    if (options_.checkpointPath.empty())
        return false;
    std::ostringstream os;
    tuner_->saveState(os);
    if (!shard::writeCheckpoint(options_.checkpointPath, os.str()))
        return false;
    ++checkpointWrites_;
    obs::MetricsRegistry::instance()
        .counter("serve.checkpoint.writes")
        .add(1.0);
    obs::FlightRecorder::instance().record(
        obs::FlightKind::Persist, obs::currentRequestId(), 0,
        static_cast<int64_t>(checkpointWrites_));
    return true;
}

size_t
ServeSession::persist()
{
    if (options_.recordsPath.empty())
        return 0;
    size_t persisted = cache_.persist(options_.recordsPath);
    obs::FlightRecorder::instance().record(
        obs::FlightKind::Persist, obs::currentRequestId(), 0,
        static_cast<int64_t>(persisted));
    if (persisted > 0)
        inform("felix-serve: persisted ", persisted,
               " schedules to ", options_.recordsPath);
    return persisted;
}

void
ServeSession::finalizeLogs()
{
    if (!serveLog_.is_open())
        return;
    // One summary line per session: per-task tuning progress in the
    // same JSONL stream as the per-request lines, distinguished by
    // type. felix-trace-summary --serve aggregates it.
    TasksResponse progress = tasks();
    serveLog_ << "{\"type\":\"tasks\",\"count\":"
              << progress.tasks.size() << ",\"tasks\":[";
    for (size_t i = 0; i < progress.tasks.size(); ++i) {
        if (i)
            serveLog_ << ",";
        serveLog_ << progress.tasks[i].toJson();
    }
    serveLog_ << "]}\n";
    serveLog_.flush();
}

int
ServeSession::runStdio(std::istream &in, std::ostream &out)
{
    std::string line;
    while (!shutdown_ && std::getline(in, line)) {
        if (line.empty())
            continue;
        out << handle(line) << "\n";
        out.flush();
    }
    persist();
    writeCheckpoint();
    finalizeLogs();
    return 0;
}

uint64_t
ServeSession::trafficCount(uint64_t hash) const
{
    auto it = traffic_.find(hash);
    return it == traffic_.end() ? 0 : it->second;
}

double
ServeSession::trafficShare(uint64_t count) const
{
    return trafficTotal_ == 0 ? 0.0
                              : static_cast<double>(count) /
                                    static_cast<double>(trafficTotal_);
}

int
ServeSession::roundsOnTask(uint64_t hash) const
{
    for (const tuner::TaskRecord &record : tuner_->taskRecords()) {
        if (record.task.subgraph.structuralHash() == hash)
            return record.rounds;
    }
    return 0;
}

void
ServeSession::logRequest(const Request &request,
                         const std::string &response, double wall_us)
{
    if (!serveLog_.is_open())
        return;
    // One JSONL line per request; the schema is aggregated by
    // felix-trace-summary. wall_us is the only nondeterministic
    // field and lives only here, never in responses.
    std::string type = "serve";
    serveLog_ << "{\"type\":" << obs::jsonEscape(type)
              << ",\"op\":" << obs::jsonEscape(opName(request.op));
    if (request.op == Op::Tune) {
        serveLog_ << ",\"network\":" << obs::jsonEscape(request.network)
                  << ",\"batch\":" << request.batch;
    }
    if (obs::shardId() >= 0)
        serveLog_ << ",\"shard\":" << obs::shardId();
    serveLog_ << ",\"req_id\":" << requests_
              << ",\"response_bytes\":" << response.size()
              << ",\"hits_total\":" << cacheHits_
              << ",\"misses_total\":" << cacheMisses_
              << ",\"window_hit_rate\":"
              << obs::jsonNumber(hitWindow_.rate())
              << ",\"rounds_total\":" << roundsRun_
              << ",\"tasks\":" << tuner_->taskRecords().size()
              << ",\"wall_us\":" << obs::jsonNumber(wall_us) << "}\n";
    serveLog_.flush();
}

} // namespace serve
} // namespace felix
