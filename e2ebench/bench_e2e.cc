/**
 * @file
 * bench_e2e: one process of the end-to-end benchmark.
 *
 *   bench_e2e --workload NAME --seed N [--seconds S] [--scale X]
 *             [--trace] [--trace-out FILE] [--setup-only]
 *             [--cache-dir DIR]
 *   bench_e2e --warm-cache [--cache-dir DIR]
 *
 * A tuning workload runs one tuning session, as one felix-tune
 * invocation would: load the cost model, extract the tasks, build
 * the tuner, then call tuneRounds(1) until the virtual clock passes
 * the budget. serve-fleet runs one ServeSession: one cold request per
 * network kind, then a seeded open-loop request trace of about S
 * seconds, with background rounds where the daemon would run them.
 * Every call into the library is a public entry point and is timed
 * from outside.
 *
 * The process prints one JSON object on stdout: the raw samples
 * (setup time, session wall, round and request latencies, tuned
 * latency, peak RSS), the call and check counts with the failures, a
 * digest of the outputs and the host fingerprint. With --trace the
 * obs::Tracer is on for the whole process, and the object also holds
 * the per-layer metrics read from its spans and from
 * obs::MetricsRegistry counter deltas. run.py repeats these processes
 * for a run and aggregates them; README.md defines every metric.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/felix.h"
#include "jit/jit.h"
#include "models/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "simd/kernels.h"
#include "sketch/sampling.h"
#include "support/parallel.h"

using namespace felix;

namespace {

using Clock = std::chrono::steady_clock;

/** Worker threads of every workload: one process, at most 4 threads. */
constexpr int kJobs = 4;
const char *const kDevice = "a5000";

/**
 * serve-fleet traffic. Background rounds follow felix-serve's own
 * rule: when the socket stays quiet for --idle-ms (default 50 ms), the
 * daemon runs --rounds-per-idle (default 1) rounds. The arrival rate
 * and the popularity are assumptions, not measurements of a fleet:
 * Poisson arrivals at 40 req/s, at which about a third of requests
 * find a background round running (so p50 is a cache hit and p90
 * waits behind a round), and Zipf(1.1) popularity over the request
 * kinds.
 */
constexpr double kIdleSec = 0.050;
constexpr double kServeRate = 40.0;
constexpr double kZipfExponent = 1.1;
/** The open-loop backlog counts as drained when the last request
 *  started at most this long after it was due. */
constexpr double kDrainSlackSec = 1.0;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolation quantile of @p values (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** Streaming FNV-1a 64 over the outputs a run must reproduce. */
struct Digest
{
    uint64_t state = 0xcbf29ce484222325ull;

    void
    mix(const std::string &bytes)
    {
        for (unsigned char c : bytes) {
            state ^= c;
            state *= 0x100000001b3ull;
        }
    }
};

std::string
hex64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** A measured value with all its digits. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
numberArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + number(values[i]);
    return out + "]";
}

/** Everything one process reports. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    double setupSec = 0.0;
    double tuneWallSec = 0.0;
    double tunedLatencyMs = 0.0;
    std::vector<double> roundMs, requestMs;
    /** Per-layer metrics (traced processes only). */
    std::vector<Metric> layers;
    /** Calls into the library plus output checks. */
    long attempted = 0;
    /** Calls that failed and checks that did not hold. */
    long failed = 0;
    std::vector<std::string> failures;
    Digest digest;

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        layers.push_back({name, value, unit});
    }

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    double scale = 1.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut;
    std::string cacheDir = ".bench_build/costmodel";
};

using NetworkBuilder = graph::Graph (*)(int batch);

graph::Graph
llamaAt(int batch)
{
    return models::llama(batch);
}

/** A closed-loop tuning workload: rounds until the virtual budget. */
struct TuneWorkload
{
    const char *name;
    NetworkBuilder network;
    tuner::StrategyKind strategy;
    double budgetSec;
};

// Ansor's budget makes a session (~78 rounds) as long as a Felix one,
// about 7 s on a 4-core host, so that a run pools several sessions.
const TuneWorkload kTuneWorkloads[] = {
    {"tune-resnet50", models::resnet50, tuner::StrategyKind::FelixGradient,
     1000.0},
    {"tune-dcgan", models::dcgan, tuner::StrategyKind::FelixGradient,
     1000.0},
    {"ansor-resnet50", models::resnet50, tuner::StrategyKind::AnsorTenSet,
     1600.0},
};

/** One serve-fleet request kind: a felix-serve network name. */
struct ServeKind
{
    const char *network;
    int batch;
    NetworkBuilder build;
};

/** serve-fleet request kinds, most popular first (Zipf rank order). */
const ServeKind kServeKinds[] = {
    {"resnet50", 1, models::resnet50},
    {"mobilenet_v2", 1, models::mobilenetV2},
    {"dcgan", 1, models::dcgan},
    {"vit_b32", 1, models::vitB32},
    {"r3d_18", 1, models::r3d18},
    {"llama", 1, llamaAt},
    {"resnet50", 4, models::resnet50},
    {"mobilenet_v2", 4, models::mobilenetV2},
    {"dcgan", 4, models::dcgan},
    {"vit_b32", 4, models::vitB32},
    {"r3d_18", 4, models::r3d18},
    {"llama", 4, llamaAt},
};
constexpr int kNumServeKinds =
    static_cast<int>(sizeof(kServeKinds) / sizeof(kServeKinds[0]));

std::string
fingerprintJson(const Options &options)
{
    std::ifstream model(options.cacheDir + "/cost_model_" +
                            std::string(kDevice) + ".txt",
                        std::ios::binary);
    std::ostringstream bytes;
    bytes << model.rdbuf();
    Digest modelHash;
    modelHash.mix(bytes.str());
    return "{\"nproc\":" +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ",\"jobs\":" + std::to_string(kJobs) +
           ",\"simd_width\":" + std::to_string(simd::activeWidth()) +
           ",\"jit\":" +
           (jit::supported() && jit::enabled() ? "true" : "false") +
           ",\"build_type\":" + obs::jsonEscape(BENCH_BUILD_TYPE) +
           ",\"cost_model\":\"" + hex64(modelHash.state) + "\"}";
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

costmodel::CostModel
loadModel(const Options &options, double *load_ms)
{
    const auto start = Clock::now();
    costmodel::CostModel model =
        pretrainedCostModel(Device::cuda(kDevice), options.cacheDir);
    *load_ms = secondsBetween(start, Clock::now()) * 1e3;
    return model;
}

// ---------------------------------------------------------------
// Trace analysis

/** Span time by name over the traced process. */
struct SpanTotals
{
    std::map<std::string, double> totalUs;
    /** Duration minus the direct child spans that are phases, not
     *  parallelFor items (category "threads"). */
    std::map<std::string, double> selfUs;
    std::map<std::string, double> count;
    /** parallelFor items not nested in another item that start while
     *  a bench.round or bench.request call runs. */
    double itemUs = 0.0;
};

/**
 * Stop the tracer and sum its spans. obs::Tracer::toJson() writes one
 * event per line, so each line is parsed on its own and the trace is
 * never held as one parsed tree.
 */
SpanTotals
finishTrace(const Options &options, Report &report)
{
    obs::Tracer::instance().stop();
    const std::string json = obs::Tracer::instance().toJson();
    if (!options.traceOut.empty()) {
        std::ofstream os(options.traceOut);
        os << json;
        report.check(os.good(), "cannot write " + options.traceOut);
    }

    struct Event
    {
        std::string name;
        bool item;
        int tid;
        int64_t ts, dur;
        int64_t childUs = 0;
    };
    std::vector<Event> events;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("{\"name\":", 0) != 0)
            continue;
        if (line.back() == ',')
            line.pop_back();
        auto event = obs::parseJson(line);
        report.check(event && event->isObject(), "unparsable trace event");
        if (!event || !event->isObject())
            continue;
        events.push_back(
            {event->stringOr("name", ""),
             event->stringOr("cat", "") == "threads",
             static_cast<int>(event->numberOr("tid", 0)),
             static_cast<int64_t>(event->numberOr("ts", 0)),
             static_cast<int64_t>(event->numberOr("dur", 0))});
    }
    // Per thread, parents sort before the children they contain.
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.dur > b.dur;
              });
    // The timed calls run one at a time on one thread, so their
    // intervals are disjoint and sorted by start.
    std::vector<std::pair<int64_t, int64_t>> calls;
    for (const Event &event : events) {
        if (event.name == "bench.round" || event.name == "bench.request")
            calls.emplace_back(event.ts, event.ts + event.dur);
    }
    std::sort(calls.begin(), calls.end());
    auto duringCall = [&](int64_t ts) {
        auto it = std::upper_bound(calls.begin(), calls.end(),
                                   std::make_pair(ts, INT64_MAX));
        return it != calls.begin() && ts < std::prev(it)->second;
    };
    SpanTotals totals;
    std::vector<size_t> open;
    int openItems = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        while (!open.empty()) {
            const Event &top = events[open.back()];
            if (top.tid == event.tid && event.ts < top.ts + top.dur)
                break;
            openItems -= top.item ? 1 : 0;
            open.pop_back();
        }
        if (!open.empty() && !event.item)
            events[open.back()].childUs += event.dur;
        if (event.item && openItems == 0 && duringCall(event.ts))
            totals.itemUs += static_cast<double>(event.dur);
        openItems += event.item ? 1 : 0;
        open.push_back(i);
    }
    for (const Event &event : events) {
        totals.totalUs[event.name] += static_cast<double>(event.dur);
        totals.selfUs[event.name] +=
            static_cast<double>(event.dur - event.childUs);
        totals.count[event.name] += 1.0;
    }
    return totals;
}

/** Counter deltas since @p before. */
std::map<std::string, double>
counterDeltas(const std::map<std::string, double> &before)
{
    std::map<std::string, double> deltas;
    for (const auto &[name, value] :
         obs::MetricsRegistry::instance().snapshot().counters) {
        auto it = before.find(name);
        deltas[name] = value - (it == before.end() ? 0.0 : it->second);
    }
    return deltas;
}

double
get(const std::map<std::string, double> &values, const std::string &name)
{
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// Outside measurements shared by the workloads

/** Rounds per task, to tell which task the next round picked. */
std::vector<int>
roundsPerTask(const tuner::GraphTuner &tuner)
{
    std::vector<int> rounds;
    for (const tuner::TaskRecord &record : tuner.taskRecords())
        rounds.push_back(record.rounds);
    return rounds;
}

/** True when the round just run was the chosen task's first. */
bool
wasFirstVisit(const std::vector<int> &before,
              const tuner::GraphTuner &tuner)
{
    const auto &records = tuner.taskRecords();
    for (size_t i = 0; i < records.size(); ++i) {
        const int prev = i < before.size() ? before[i] : 0;
        if (records[i].rounds != prev)
            return prev == 0;
    }
    return false;
}

/**
 * Replay sketch::roundToValid (the checker overload) on jittered
 * log-space points around sampleValid draws of the tuner's own
 * sketches. Checks every rounded output with isValidAssignment and
 * returns the median time per call over a few passes, in µs.
 */
double
replayRoundToValid(const tuner::GraphTuner &tuner, uint64_t seed,
                   Report &report)
{
    constexpr int kPointsPerSketch = 16;
    constexpr int kPasses = 5;
    struct Case
    {
        const sketch::SymbolicSchedule *sched;
        std::unique_ptr<sketch::ConstraintChecker> checker;
        std::vector<std::vector<double>> points;
    };
    Rng rng(seed ^ 0x5eed0f5a11ab1eull);
    std::vector<Case> cases;
    size_t calls = 0;
    for (const tuner::TaskRecord &record : tuner.taskRecords()) {
        for (const auto &sched : record.strategy->sketches()) {
            Case c{&sched,
                   std::make_unique<sketch::ConstraintChecker>(sched),
                   {}};
            for (int k = 0; k < kPointsPerSketch; ++k) {
                std::vector<double> y = sketch::sampleValid(sched, rng);
                for (double &v : y)
                    v = std::log(std::max(1.0, v)) + rng.normal(0.0, 0.5);
                c.points.push_back(std::move(y));
            }
            calls += c.points.size();
            cases.push_back(std::move(c));
        }
    }
    std::vector<double> perCallUs;
    for (int pass = 0; pass < kPasses && calls > 0; ++pass) {
        size_t valid = 0;
        const auto start = Clock::now();
        for (const Case &c : cases) {
            for (const auto &y : c.points)
                valid += sketch::roundToValid(*c.sched, y, *c.checker)
                             ? 1
                             : 0;
        }
        perCallUs.push_back(secondsBetween(start, Clock::now()) * 1e6 /
                            static_cast<double>(calls));
        report.check(valid > 0, "roundToValid rounded no point");
    }
    for (const Case &c : cases) {
        for (const auto &y : c.points) {
            if (auto x = sketch::roundToValid(*c.sched, y, *c.checker))
                report.check(sketch::isValidAssignment(*c.sched, *x),
                             "roundToValid output fails "
                             "isValidAssignment");
        }
    }
    return quantile(perCallUs, 0.5);
}

/** Inputs of the per-layer metrics both kinds of workload share. */
struct LayerInputs
{
    const SpanTotals *spans = nullptr;
    std::map<std::string, double> deltas;
    double rounds = 0.0;
    double busyUs = 0.0;   ///< wall time the workload kept the tuner busy
    std::vector<double> firstVisitMs, revisitMs;
    /** How long after it was due each call started. */
    std::vector<double> queueMs;
    double roundToValidUs = 0.0;
    bool felix = true;
};

/** parallelFor items of the search phase, by strategy: Felix descends
 *  and ranks 16-lane seed batches; Ansor samples, mutates and scores
 *  16-lane population batches. */
const char *const kSearchItems[] = {
    "search.seed_batch", "search.rank_batch", "evo.random_init",
    "evo.generate",      "evo.evaluate",      "evo.features",
};

/**
 * The per-layer metrics read from tuning-round spans and counters.
 * Every time among them is measured on every workload, Felix and
 * Ansor alike, so a search metric is defined on the batched surrogate
 * call each strategy makes (README.md, "Per-layer metrics").
 */
void
addRoundLayers(const LayerInputs &in, Report &report)
{
    const SpanTotals &spans = *in.spans;
    auto totalUs = [&](const std::string &name) {
        return get(spans.totalUs, name);
    };
    auto perRoundMs = [&](const std::string &name) {
        return ratio(totalUs(name) / 1e3, in.rounds);
    };
    const double roundUs = totalUs("tuner.round");
    const double partsUs = totalUs("tuner.search") +
                           totalUs("tuner.measure") +
                           totalUs("tuner.finetune");
    const double attempts = get(in.deltas, "search.rounding_attempts");
    double searchItemUs = 0.0;
    for (const char *name : kSearchItems)
        searchItemUs += totalUs(name);
    // One step is one seed's Adam step (Felix) or one candidate's
    // batched score (Ansor); a lane is one of kBatchLanes = 16.
    const double stepUs =
        in.felix ? ratio(totalUs("search.seed_batch"),
                         get(in.deltas, "search.adam_steps"))
                 : ratio(totalUs("evo.evaluate"),
                         get(in.deltas, "search.predictions"));
    const double liveLanes =
        in.felix ? ratio(get(in.deltas, "search.seeds"),
                         get(in.deltas, "search.seed_batches"))
                 : ratio(get(in.deltas, "search.predictions"),
                         get(spans.count, "evo.evaluate"));

    report.layer("sketch.generate_ms", totalUs("sketch.generate") / 1e3,
                 "ms");
    report.layer("expr.compile_tapes_ms",
                 totalUs("search.compile_tapes") / 1e3, "ms");
    // Per process, like peak_rss_mb: serve-fleet compiles most of its
    // tapes during set-up.
    const auto processTotals = counterDeltas({});
    report.layer("jit.code_bytes", get(processTotals, "jit.code_bytes"),
                 "bytes");
    report.layer("jit.tapes_compiled",
                 get(processTotals, "jit.tapes_compiled"), "count");
    report.layer("tuner.first_visit_round_ms", mean(in.firstVisitMs), "ms");
    // A rate, because serve-fleet revisits no task: its rounds spread
    // over hundreds of tasks.
    const double revisitMs = mean(in.revisitMs);
    report.layer("tuner.revisit_rounds_per_s",
                 revisitMs > 0 ? 1e3 / revisitMs : 0.0, "1/s");
    report.layer("tuner.search_ms", perRoundMs("tuner.search"), "ms");
    report.layer("search.round_self_ms",
                 ratio(get(spans.selfUs, "search.round") / 1e3, in.rounds),
                 "ms");
    report.layer("search.busy_ms", ratio(searchItemUs / 1e3, in.rounds),
                 "ms");
    report.layer("search.step_us", stepUs, "us");
    report.layer("search.live_lanes", liveLanes, "lanes");
    report.layer("sketch.round_to_valid_us", in.roundToValidUs, "us");
    report.layer("sketch.rounding_valid_ratio",
                 attempts > 0
                     ? 1.0 - get(in.deltas, "search.rounding_invalid") /
                                 attempts
                     : 0.0,
                 "ratio");
    report.layer("costmodel.finetune_ms", perRoundMs("tuner.finetune"),
                 "ms");
    report.layer("costmodel.train_samples_per_s",
                 ratio(get(in.deltas, "costmodel.train_samples"),
                       totalUs("tuner.finetune") / 1e6),
                 "1/s");
    report.layer("sim.measure_ms", perRoundMs("tuner.measure"), "ms");
    report.layer("tuner.round_self_ms",
                 ratio((roundUs - partsUs) / 1e3, in.rounds), "ms");
    report.layer("tuner.round_coverage_pct",
                 100.0 * ratio(roundUs, totalUs("bench.round")), "%");
    report.layer("parallel.busy_ratio",
                 ratio(spans.itemUs, kJobs * in.busyUs), "ratio");
    report.layer("bench.queue_ms_p99", quantile(in.queueMs, 0.99), "ms");
}

/**
 * The serve layer, as rates so that a workload without a serve layer
 * reads 0 requests per second rather than a 0 time: one over the
 * median handle() time of cache hits and of misses.
 */
void
addServeLayers(const std::vector<double> &hit_sec,
               const std::vector<double> &miss_sec, double hit_ratio,
               Report &report)
{
    const double hit = quantile(hit_sec, 0.5);
    const double miss = quantile(miss_sec, 0.5);
    report.layer("serve.hit_requests_per_s", hit > 0 ? 1.0 / hit : 0.0,
                 "1/s");
    report.layer("serve.miss_requests_per_s", miss > 0 ? 1.0 / miss : 0.0,
                 "1/s");
    report.layer("serve.cache_hit_ratio", hit_ratio, "ratio");
}

// ---------------------------------------------------------------
// Tuning workloads (closed loop)

void
runTune(const TuneWorkload &workload, const Options &options,
        Clock::time_point process_start, Report &report)
{
    double modelLoadMs = 0.0;
    const costmodel::CostModel model = loadModel(options, &modelLoadMs);

    tuner::TunerOptions tunerOptions;
    tunerOptions.strategy = workload.strategy;
    tunerOptions.seed = options.seed;
    tunerOptions.numThreads = kJobs;
    std::unique_ptr<tuner::GraphTuner> tuner;
    double extractMs = 0.0, ctorMs = 0.0;
    {
        obs::ScopedSpan span("bench.setup", "bench");
        const auto start = Clock::now();
        auto tasks = extractSubgraphs(workload.network(1));
        const auto built = Clock::now();
        tuner = std::make_unique<tuner::GraphTuner>(
            std::move(tasks), model, Device::cuda(kDevice).kind,
            tunerOptions);
        const auto ready = Clock::now();
        extractMs = secondsBetween(start, built) * 1e3;
        ctorMs = secondsBetween(built, ready) * 1e3;
        report.setupSec = secondsBetween(process_start, ready);
    }
    if (options.setupOnly)
        return;

    const auto before = obs::MetricsRegistry::instance().snapshot().counters;
    const double budget = workload.budgetSec * options.scale;
    LayerInputs in;
    const auto loopStart = Clock::now();
    auto due = loopStart;
    while (tuner->clockNow() < budget) {
        const std::vector<int> picked = roundsPerTask(*tuner);
        const auto start = Clock::now();
        {
            obs::ScopedSpan span("bench.round", "bench");
            tuner->tuneRounds(1);
        }
        const auto end = Clock::now();
        ++report.attempted;
        const double ms = secondsBetween(start, end) * 1e3;
        report.roundMs.push_back(ms);
        // Closed loop: the next call is due when this one returns.
        report.requestMs.push_back(secondsBetween(due, end) * 1e3);
        in.queueMs.push_back(secondsBetween(due, start) * 1e3);
        due = end;
        (wasFirstVisit(picked, *tuner) ? in.firstVisitMs : in.revisitMs)
            .push_back(ms);
    }
    report.tuneWallSec = secondsBetween(loopStart, Clock::now());
    const auto deltas = counterDeltas(before);

    // Outputs: every best schedule legal, the network no slower than
    // its untuned start, and the schedules digested so that runs of
    // one seed can be compared.
    for (const tuner::TaskRecord &record : tuner->taskRecords()) {
        const auto &sketches = record.strategy->sketches();
        const optim::Candidate &best = record.bestCandidate;
        const bool inRange =
            best.sketchIndex >= 0 &&
            best.sketchIndex < static_cast<int>(sketches.size());
        report.check(inRange && sketch::isValidAssignment(
                                    sketches[best.sketchIndex], best.x),
                     "illegal best schedule for " +
                         record.task.exampleLabel);
        std::string line = record.task.exampleLabel + " " +
                           std::to_string(best.sketchIndex) + " " +
                           number(record.bestLatencySec);
        for (double v : best.x)
            line += " " + number(v);
        report.digest.mix(line + "\n");
    }
    report.tunedLatencyMs = tuner->networkLatency() * 1e3;
    report.check(tuner->networkLatency() <=
                     tuner->timeline().front().networkLatencySec,
                 "tuned latency above the untuned latency");
    in.roundToValidUs = replayRoundToValid(*tuner, options.seed, report);

    if (!options.trace)
        return;
    const SpanTotals spans = finishTrace(options, report);
    report.layer("core.model_load_ms", modelLoadMs, "ms");
    report.layer("core.extract_ms", extractMs, "ms");
    report.layer("tuner.ctor_ms", ctorMs, "ms");
    in.spans = &spans;
    in.deltas = deltas;
    in.rounds = static_cast<double>(report.roundMs.size());
    in.busyUs = report.tuneWallSec * 1e6;
    in.felix = workload.strategy == tuner::StrategyKind::FelixGradient;
    addRoundLayers(in, report);
    addServeLayers({}, {}, 0.0, report);
}

// ---------------------------------------------------------------
// serve-fleet (open loop)

struct ServeCall
{
    double dueSec;
    std::string line;
    int kind;   ///< kServeKinds index; -1 for a rounds request
};

std::string
tuneLine(int kind)
{
    return std::string("{\"op\":\"tune\",\"network\":\"") +
           kServeKinds[kind].network +
           "\",\"batch\":" + std::to_string(kServeKinds[kind].batch) +
           "}";
}

/**
 * The request trace: a pure function of the seed and the length. A
 * rounds request is due kIdleSec after each arrival whose gap to the
 * next one is longer than that, as the daemon's poll timeout would
 * fire there. (In a gap longer than two timeouts plus a round the
 * daemon would run a second round; the trace keeps one, so that it
 * does not depend on how long a round takes.) The trace holds a fixed
 * number of rounds, as many as @p seconds of traffic hold on average,
 * so every seed tunes the same number of rounds; its length varies by
 * a few percent from seed to seed.
 */
std::vector<ServeCall>
makeServeTrace(uint64_t seed, double seconds)
{
    std::vector<double> weights;
    for (int rank = 1; rank <= kNumServeKinds; ++rank)
        weights.push_back(std::pow(rank, -kZipfExponent));
    const double roundsPerSec =
        kServeRate * std::exp(-kServeRate * kIdleSec);
    const long rounds = std::max(1L, std::lround(roundsPerSec * seconds));
    Rng rng(seed);
    std::vector<ServeCall> trace;
    double t = -std::log(1.0 - rng.uniform()) / kServeRate;
    for (long ran = 0; ran < rounds;) {
        const int kind = static_cast<int>(rng.weightedIndex(weights));
        trace.push_back({t, tuneLine(kind), kind});
        const double gap = -std::log(1.0 - rng.uniform()) / kServeRate;
        if (gap > kIdleSec) {
            trace.push_back({t + kIdleSec, "{\"op\":\"rounds\",\"n\":1}", -1});
            ++ran;
        }
        t += gap;
    }
    return trace;
}

/** Parse a response; nullopt (and a failed check) on an error. */
std::optional<obs::JsonValue>
checkedResponse(const std::string &response, Report &report)
{
    auto value = obs::parseJson(response);
    const bool ok = value && value->isObject() && !value->find("error");
    report.check(ok, "bad serve response: " + response.substr(0, 120));
    if (!ok)
        return std::nullopt;
    return value;
}

void
runServe(const Options &options, Clock::time_point process_start,
         Report &report)
{
    double modelLoadMs = 0.0;
    const costmodel::CostModel model = loadModel(options, &modelLoadMs);
    serve::ServeOptions serveOptions;
    serveOptions.device = kDevice;
    serveOptions.tuner.seed = options.seed;
    serveOptions.tuner.numThreads = kJobs;
    std::unique_ptr<serve::ServeSession> session;
    double ctorMs = 0.0;
    std::map<int, double> firstLatency;
    std::vector<double> hitSec, missSec;
    // Set-up ends once every kind has been served, in rank order and
    // back to back: the daemon's cold start for its fleet. These are
    // the cache misses, which pay sketch generation and tape compile.
    // The order is fixed because the scheduler gives every task one
    // round in arrival order, so a seeded order would decide which
    // networks the background rounds reach.
    {
        obs::ScopedSpan span("bench.setup", "bench");
        const auto start = Clock::now();
        session =
            std::make_unique<serve::ServeSession>(serveOptions, model);
        ctorMs = secondsBetween(start, Clock::now()) * 1e3;
        for (int kind = 0; kind < kNumServeKinds; ++kind) {
            const auto sent = Clock::now();
            const std::string response = session->handle(tuneLine(kind));
            missSec.push_back(secondsBetween(sent, Clock::now()));
            ++report.attempted;
            report.digest.mix(response + "\n");
            if (auto value = checkedResponse(response, report))
                firstLatency[kind] = value->numberOr("latency_sec", 0.0);
        }
        report.setupSec = secondsBetween(process_start, Clock::now());
    }
    if (options.setupOnly)
        return;

    const std::vector<ServeCall> trace =
        makeServeTrace(options.seed, options.seconds);
    const auto before = obs::MetricsRegistry::instance().snapshot().counters;
    std::vector<std::string> responses;
    responses.reserve(trace.size());
    std::vector<double> handleSec;
    LayerInputs in;
    const auto origin = Clock::now();
    for (const ServeCall &call : trace) {
        const auto due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(call.dueSec));
        std::this_thread::sleep_until(due);
        const std::vector<int> picked =
            call.kind < 0 ? roundsPerTask(session->graphTuner())
                          : std::vector<int>{};
        const auto start = Clock::now();
        {
            obs::ScopedSpan span(call.kind < 0 ? "bench.round"
                                               : "bench.request",
                                 "bench");
            responses.push_back(session->handle(call.line));
        }
        const auto end = Clock::now();
        const double handle = secondsBetween(start, end);
        report.tuneWallSec += handle;
        handleSec.push_back(handle);
        in.queueMs.push_back(secondsBetween(due, start) * 1e3);
        if (call.kind < 0) {
            report.roundMs.push_back(handle * 1e3);
            (wasFirstVisit(picked, session->graphTuner()) ? in.firstVisitMs
                                                          : in.revisitMs)
                .push_back(handle * 1e3);
        } else {
            report.requestMs.push_back(secondsBetween(due, end) * 1e3);
        }
    }
    const auto deltas = counterDeltas(before);
    report.attempted += static_cast<long>(trace.size());
    report.check(in.queueMs.back() <= kDrainSlackSec * 1e3,
                 "serve backlog did not drain");

    // Responses are checked after the loop so that parsing them does
    // not delay the requests behind.
    for (size_t i = 0; i < trace.size(); ++i) {
        report.digest.mix(responses[i] + "\n");
        auto value = checkedResponse(responses[i], report);
        if (!value || trace[i].kind < 0)
            continue;
        if (value->numberOr("cache_misses", 0.0) > 0)
            missSec.push_back(handleSec[i]);
        else
            hitSec.push_back(handleSec[i]);
    }

    // Closing sweep, untimed: the schedules each kind gets now.
    double logSum = 0.0;
    int kinds = 0;
    for (int kind = 0; kind < kNumServeKinds; ++kind) {
        const std::string response = session->handle(tuneLine(kind));
        ++report.attempted;
        report.digest.mix(response + "\n");
        auto value = checkedResponse(response, report);
        if (!value)
            continue;
        const double latency = value->numberOr("latency_sec", 0.0);
        auto first = firstLatency.find(kind);
        report.check(first == firstLatency.end() ||
                         latency <= first->second,
                     "served latency of " + tuneLine(kind) +
                         " rose during the run");
        logSum += std::log(latency * 1e3);
        ++kinds;
    }
    report.tunedLatencyMs = kinds > 0 ? std::exp(logSum / kinds) : 0.0;
    in.roundToValidUs =
        replayRoundToValid(session->graphTuner(), options.seed, report);

    if (!options.trace)
        return;
    const SpanTotals spans = finishTrace(options, report);
    // The session extracts each request's tasks inside handle(), so
    // the extract layer is replayed on the request kinds' networks.
    double extractMs = 0.0;
    for (const ServeKind &kind : kServeKinds) {
        const auto start = Clock::now();
        const size_t tasks = extractSubgraphs(kind.build(kind.batch)).size();
        extractMs += secondsBetween(start, Clock::now()) * 1e3;
        report.check(tasks > 0, std::string("no tasks in ") + kind.network);
    }
    // Over the whole session: set-up holds every miss.
    const auto processTotals = counterDeltas({});
    const double hits = get(processTotals, "serve.cache.hit");
    const double misses = get(processTotals, "serve.cache.miss");
    report.layer("core.model_load_ms", modelLoadMs, "ms");
    report.layer("core.extract_ms", extractMs / kNumServeKinds, "ms");
    report.layer("tuner.ctor_ms", ctorMs, "ms");
    in.spans = &spans;
    in.deltas = deltas;
    in.rounds = static_cast<double>(report.roundMs.size());
    in.busyUs = report.tuneWallSec * 1e6;
    addRoundLayers(in, report);
    addServeLayers(hitSec, missSec, ratio(hits, hits + misses), report);
}

void
printReport(const Options &options, const Report &report)
{
    std::string out =
        "{\"workload\":" + obs::jsonEscape(options.workload) +
        ",\"seed\":" + std::to_string(options.seed) +
        ",\"trace\":" + (options.trace ? "true" : "false") +
        ",\"attempted\":" + std::to_string(report.attempted) +
        ",\"failed\":" + std::to_string(report.failed) + ",\"failures\":[";
    for (size_t i = 0; i < report.failures.size(); ++i)
        out += (i ? "," : "") + obs::jsonEscape(report.failures[i]);
    out += "],\"digest\":\"" + hex64(report.digest.state) +
           "\",\"fingerprint\":" + fingerprintJson(options) +
           ",\"setup_s\":" + number(report.setupSec);
    if (!options.setupOnly) {
        out += ",\"tune_wall_s\":" + number(report.tuneWallSec) +
               ",\"tuned_latency_ms\":" + number(report.tunedLatencyMs) +
               ",\"peak_rss_mb\":" + number(peakRssMb()) +
               ",\"round_ms\":" + numberArray(report.roundMs) +
               ",\"request_ms\":" + numberArray(report.requestMs);
    }
    out += ",\"layers\":{";
    for (size_t i = 0; i < report.layers.size(); ++i) {
        const Report::Metric &metric = report.layers[i];
        out += (i ? "," : "") + obs::jsonEscape(metric.name) +
               ":{\"value\":" + number(metric.value) +
               ",\"unit\":" + obs::jsonEscape(metric.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e --workload NAME --seed N [--seconds S]\n"
                 "                 [--scale X] [--trace] [--trace-out FILE]\n"
                 "                 [--setup-only] [--cache-dir DIR]\n"
                 "       bench_e2e --warm-cache [--cache-dir DIR]\n"
                 "workloads: tune-resnet50 tune-dcgan ansor-resnet50"
                 " serve-fleet\n",
                 error.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    Options options;
    bool warmCache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = next();
        else if (arg == "--seed")
            options.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(next().c_str());
        else if (arg == "--scale")
            options.scale = std::atof(next().c_str());
        else if (arg == "--trace")
            options.trace = true;
        else if (arg == "--trace-out")
            options.traceOut = next();
        else if (arg == "--setup-only")
            options.setupOnly = true;
        else if (arg == "--cache-dir")
            options.cacheDir = next();
        else if (arg == "--warm-cache")
            warmCache = true;
        else
            usage("unknown argument " + arg);
    }
    if (!(options.seconds > 0.0) || !(options.scale > 0.0))
        usage("--seconds and --scale must be positive");
    setGlobalJobs(kJobs);

    if (warmCache) {
        // Trains and caches the model on a miss, so that no timed
        // region of a later process pays for it.
        pretrainedCostModel(Device::cuda(kDevice), options.cacheDir);
        std::printf("{\"fingerprint\":%s}\n",
                    fingerprintJson(options).c_str());
        return 0;
    }

    const TuneWorkload *tune = nullptr;
    for (const TuneWorkload &w : kTuneWorkloads) {
        if (options.workload == w.name)
            tune = &w;
    }
    if (!tune && options.workload != "serve-fleet")
        usage("unknown workload '" + options.workload + "'");
    if (options.trace)
        obs::Tracer::instance().start("");

    Report report;
    if (tune)
        runTune(*tune, options, processStart, report);
    else
        runServe(options, processStart, report);
    printReport(options, report);
    return report.failed == 0 ? 0 : 1;
}
