#include "tuner/tuner.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "features/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/gpu_model.h"
#include "support/logging.h"
#include "support/parallel.h"

namespace felix {
namespace tuner {

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::FelixGradient: return "Felix";
      case StrategyKind::AnsorTenSet: return "Ansor-TenSet";
    }
    return "?";
}

GraphTuner::GraphTuner(std::vector<graph::Task> tasks,
                       costmodel::CostModel model,
                       sim::DeviceKind device, TunerOptions options)
    : model_(std::move(model)), device_(sim::deviceConfig(device)),
      options_(std::move(options)), rng_(options_.seed),
      roundLogger_(options_.roundLogPath)
{
    FELIX_CHECK(!tasks.empty() || options_.allowEmptyTasks,
                "tuner needs at least one task");
    if (options_.numThreads > 0)
        setGlobalJobs(options_.numThreads);
    FELIX_SPAN("tuner.setup", "tuner");
    addTasks(std::move(tasks));
    timeline_.push_back({0.0, networkLatency()});
}

std::vector<TaskRecord>
makeStrategies(StrategyKind kind, std::vector<graph::Task> tasks,
               const optim::GradSearchOptions &grad,
               const evolutionary::EvoSearchOptions &evo)
{
    std::vector<TaskRecord> records(tasks.size());
    parallelFor("tuner.make_strategy", tasks.size(), [&](size_t i) {
        TaskRecord &record = records[i];
        record.task = std::move(tasks[i]);
        if (kind == StrategyKind::FelixGradient) {
            record.strategy = std::make_unique<optim::GradientSearch>(
                record.task.subgraph, grad);
        } else {
            record.strategy =
                std::make_unique<evolutionary::EvolutionarySearch>(
                    record.task.subgraph, evo);
        }
        const auto &sched = record.strategy->sketches().front();
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        std::vector<double> ones(sched.vars.size(), 1.0);
        record.bestCandidate.sketchIndex = 0;
        record.bestCandidate.rawFeatures =
            features::concreteFeatures(sched.program, names, ones);
        record.bestCandidate.x = std::move(ones);
    });
    return records;
}

void
seedTrivialSchedule(TaskRecord &record,
                    const sim::DeviceConfig &device,
                    uint64_t measure_seed)
{
    record.bestLatencySec = sim::measureKernel(
        record.bestCandidate.rawFeatures, device, measure_seed);
}

bool
GraphTuner::restoreTask(TaskRecord &record)
{
    auto pending =
        pendingRestore_.find(record.task.subgraph.structuralHash());
    if (pending == pendingRestore_.end())
        return false;
    PendingTaskState &state = pending->second;
    record.rounds = state.rounds;
    record.stagnantRounds = state.stagnantRounds;
    record.bestLatencySec = state.bestLatencySec;
    record.bestCandidate = std::move(state.bestCandidate);
    std::istringstream blob(state.strategyBlob);
    if (!record.strategy->loadState(blob))
        warn("tuner: rejected strategy state for task ",
             record.task.exampleLabel, "; its search starts fresh");
    pendingRestore_.erase(pending);
    return true;
}

int
GraphTuner::addTasks(std::vector<graph::Task> tasks)
{
    const int first = static_cast<int>(tasks_.size());
    if (tasks.empty())
        return first;
    FELIX_SPAN("tuner.add_tasks", "tuner");
    std::vector<TaskRecord> records =
        makeStrategies(options_.strategy, std::move(tasks),
                       options_.grad, options_.evo);
    for (TaskRecord &record : records) {
        // Checkpoint overlay: the restored state already includes
        // the initial trivial-schedule measurement, and the
        // restored measureSeed_ stream position sits past it, so
        // measuring again here would desynchronize the seed stream.
        if (!restoreTask(record))
            seedTrivialSchedule(record, device_, measureSeed_++);
        tasks_.push_back(std::move(record));
    }
    return first;
}

double
GraphTuner::networkLatency() const
{
    double total = options_.graphExecOverheadSec;
    for (const TaskRecord &record : tasks_)
        total += record.task.weight * record.bestLatencySec;
    return total;
}

int
pickTask(const std::vector<TaskRecord> &tasks,
         const std::vector<double> &weights)
{
    if (tasks.empty())
        return -1;
    // First pass: visit every task once.
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].rounds == 0)
            return static_cast<int>(i);
    }
    // Spend rounds where the most weighted time remains, backing off
    // tasks that stopped improving.
    int best = 0;
    double bestScore = -1.0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const TaskRecord &record = tasks[i];
        double remaining = weights[i] * record.bestLatencySec;
        double backoff =
            std::pow(0.5, std::min(6, record.stagnantRounds));
        double score = remaining * backoff;
        if (score > bestScore) {
            bestScore = score;
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
GraphTuner::tuneOneRound()
{
    std::vector<double> weights;
    weights.reserve(tasks_.size());
    for (const TaskRecord &record : tasks_)
        weights.push_back(record.task.weight);
    tuneTaskRound(pickTask(tasks_, weights));
}

RoundOutcome
runTaskRound(TaskRecord &record, const RoundEnv &env)
{
    FELIX_SPAN("tuner.round", "tuner");
    FELIX_CHECK(env.model != nullptr && env.history != nullptr &&
                    env.rng != nullptr && env.device != nullptr &&
                    env.measureSeed,
                "runTaskRound: incomplete round environment");
    auto &registry = obs::MetricsRegistry::instance();
    const int64_t roundStartUs = obs::Tracer::nowUs();

    RoundOutcome outcome;
    double clockSec = env.clockSec;

    obs::RoundRecord &roundRecord = outcome.record;
    roundRecord.round = env.roundIndex;
    roundRecord.taskLabel = record.task.exampleLabel;
    roundRecord.taskHash = record.task.subgraph.structuralHash();
    roundRecord.strategy = strategyName(env.strategy);

    optim::RoundResult result;
    {
        FELIX_SPAN("tuner.search", "tuner");
        obs::ScopedTimerMs timer(
            registry.counter("tuner.search_ms"));
        result = record.strategy->round(*env.model, *env.rng);
    }
    roundRecord.seedsLaunched = result.trace.seedsLaunched;
    roundRecord.numPredictions = result.trace.numPredictions;
    roundRecord.roundingAttempts = result.trace.roundingAttempts;
    roundRecord.roundingInvalid = result.trace.roundingInvalid;

    // Advance the virtual clock for the search phase.
    double predFactor = (env.strategy == StrategyKind::FelixGradient)
                            ? env.clock.gradStepFactor
                            : 1.0;
    clockSec += env.clock.roundOverheadSec +
                result.trace.numPredictions *
                    env.clock.secPerPrediction * predFactor;

    // Measure the proposed candidates, update the best schedule and
    // fine-tune the cost model with the fresh measurements.
    std::vector<costmodel::Sample> fresh;
    double prevBest = record.bestLatencySec;
    {
        FELIX_SPAN("tuner.measure", "tuner");
        obs::ScopedTimerMs timer(
            registry.counter("tuner.measure_ms"));
        // Measurements are pure given (features, device, seed), so
        // preassign one seed per candidate and measure in parallel;
        // the bookkeeping below replays the results in candidate
        // order, keeping logs and model updates jobs-invariant.
        const size_t numCandidates = result.toMeasure.size();
        std::vector<double> latencies(numCandidates, 0.0);
        parallelFor("tuner.measure_candidate", numCandidates,
                    [&](size_t i) {
                        latencies[i] = sim::measureKernel(
                            result.toMeasure[i].rawFeatures,
                            *env.device, env.measureSeed(i));
                    });
        outcome.measured = static_cast<int>(numCandidates);
        registry.counter("tuner.measurements")
            .add(static_cast<double>(numCandidates));
        for (size_t i = 0; i < numCandidates; ++i) {
            const optim::Candidate &candidate = result.toMeasure[i];
            const double latency = latencies[i];
            clockSec += env.clock.secPerMeasurement;
            record.strategy->observe(candidate, latency);
            roundRecord.candidates.push_back(
                {costmodel::CostModel::latencyOf(
                     candidate.predictedScore),
                 latency});
            if (!env.recordLogPath.empty() || env.collectRecords) {
                TuneRecord logEntry;
                logEntry.taskHash =
                    record.task.subgraph.structuralHash();
                logEntry.taskLabel = record.task.exampleLabel;
                logEntry.sketchIndex = candidate.sketchIndex;
                logEntry.scheduleVars = candidate.x;
                logEntry.latencySec = latency;
                logEntry.clockSec = clockSec;
                if (!env.recordLogPath.empty())
                    appendRecord(env.recordLogPath, logEntry);
                if (env.collectRecords)
                    outcome.records.push_back(std::move(logEntry));
            }
            if (latency < record.bestLatencySec) {
                record.bestLatencySec = latency;
                record.bestCandidate = candidate;
            }
            costmodel::Sample sample;
            sample.rawFeatures = candidate.rawFeatures;
            sample.latencySec = latency;
            fresh.push_back(std::move(sample));
            if (env.onMeasured)
                env.onMeasured(clockSec);
        }
    }
    // Fine-tune on the fresh measurements plus a replay batch from
    // earlier rounds, so the model adapts to this network's tasks
    // without forgetting the rest of the search space.
    std::vector<costmodel::Sample> &history = *env.history;
    for (const costmodel::Sample &sample : fresh)
        history.push_back(sample);
    std::vector<costmodel::Sample> batch = fresh;
    for (int i = 0; i < 64 && !history.empty(); ++i)
        batch.push_back(history[env.rng->index(history.size())]);
    {
        FELIX_SPAN("tuner.finetune", "tuner");
        obs::ScopedTimerMs timer(
            registry.counter("tuner.finetune_ms"));
        roundRecord.finetuneLoss =
            env.model->finetune(batch, env.finetuneSteps);
    }
    if (history.size() > 8192)
        history.erase(history.begin(),
                      history.begin() + history.size() / 2);

    ++record.rounds;
    if (record.bestLatencySec >= prevBest * 0.995)
        ++record.stagnantRounds;
    else
        record.stagnantRounds = 0;

    const double networkLatencySec =
        env.networkLatency
            ? env.networkLatency()
            : record.task.weight * record.bestLatencySec;
    registry.counter("tuner.rounds").add(1.0);
    registry.gauge("tuner.network_latency_ms")
        .set(networkLatencySec * 1e3);
    registry.gauge("tuner.clock_sec").set(clockSec);
    const double wallMs =
        static_cast<double>(obs::Tracer::nowUs() - roundStartUs) /
        1000.0;
    registry.histogram("tuner.round_latency_ms").observe(wallMs);

    roundRecord.bestLatencySec = record.bestLatencySec;
    roundRecord.networkLatencySec = networkLatencySec;
    roundRecord.clockSec = clockSec;
    // wallMs is the one nondeterministic round-record field; shard
    // mode zeroes it so round logs merge byte-identically.
    roundRecord.wallMs = env.emitWall ? wallMs : 0.0;

    outcome.clockSec = clockSec;
    return outcome;
}

void
GraphTuner::tuneTaskRound(int task_index)
{
    FELIX_CHECK(task_index >= 0 &&
                    task_index < static_cast<int>(tasks_.size()),
                "tuneTaskRound: bad task index");
    TaskRecord &record = tasks_[task_index];

    RoundEnv env;
    env.model = &model_;
    env.history = &history_;
    env.rng = &rng_;
    env.clockSec = clockSec_;
    env.clock = options_.clock;
    env.device = &device_;
    env.strategy = options_.strategy;
    env.finetuneSteps = options_.finetuneSteps;
    env.roundIndex = roundIndex_;
    env.recordLogPath = options_.recordLogPath;
    // Preassign a window of the global measurement-seed stream; the
    // window is consumed below whether or not latencies improved.
    const uint64_t seedBase = measureSeed_;
    env.measureSeed = [seedBase](size_t i) { return seedBase + i; };
    env.onMeasured = [this](double clock) {
        timeline_.push_back({clock, networkLatency()});
    };
    env.networkLatency = [this] { return networkLatency(); };

    RoundOutcome outcome = runTaskRound(record, env);

    measureSeed_ += static_cast<uint64_t>(outcome.measured);
    totalMeasurements_ += outcome.measured;
    clockSec_ = outcome.clockSec;
    timeline_.push_back({clockSec_, networkLatency()});
    ++roundIndex_;
    if (roundLogger_.enabled())
        roundLogger_.append(outcome.record);
}

void
GraphTuner::saveState(std::ostream &os) const
{
    os.precision(17);
    os << "felix-tuner-state v1\n";
    rng_.saveState(os);
    os << clockSec_ << " " << measureSeed_ << " "
       << totalMeasurements_ << " " << roundIndex_ << "\n";
    os << "history " << history_.size() << "\n";
    for (const costmodel::Sample &sample : history_) {
        os << sample.latencySec << " " << sample.rawFeatures.size();
        for (double f : sample.rawFeatures)
            os << " " << f;
        os << "\n";
    }
    model_.saveState(os);
    os << "tasks " << tasks_.size() << "\n";
    for (const TaskRecord &record : tasks_) {
        os << record.task.subgraph.structuralHash() << " "
           << record.rounds << " " << record.stagnantRounds << " "
           << record.bestLatencySec << "\n";
        optim::writeCandidate(os, record.bestCandidate);
        // Strategy internals as a length-framed opaque blob, so the
        // loader can park it unparsed until the task re-registers.
        std::ostringstream blob;
        record.strategy->saveState(blob);
        const std::string text = blob.str();
        os << "strategy " << text.size() << "\n" << text;
    }
    os << "end-tuner\n";
}

bool
GraphTuner::loadState(std::istream &is)
{
    std::string tag, version;
    if (!(is >> tag >> version) || tag != "felix-tuner-state" ||
        version != "v1")
        return false;
    Rng rng(0);
    if (!rng.loadState(is))
        return false;
    double clockSec = 0.0;
    uint64_t measureSeed = 0;
    int totalMeasurements = 0;
    int roundIndex = 0;
    if (!(is >> clockSec >> measureSeed >> totalMeasurements >>
          roundIndex))
        return false;
    std::string word;
    size_t historySize = 0;
    if (!(is >> word >> historySize) || word != "history" ||
        historySize > (size_t{1} << 20))
        return false;
    std::vector<costmodel::Sample> history(historySize);
    for (costmodel::Sample &sample : history) {
        size_t numFeatures = 0;
        if (!(is >> sample.latencySec >> numFeatures) ||
            numFeatures > 65536)
            return false;
        sample.rawFeatures.resize(numFeatures);
        for (double &f : sample.rawFeatures) {
            if (!(is >> f))
                return false;
        }
    }
    // The search stages as many features as this tuner's model
    // takes; a checkpointed model of another input size cannot
    // score them.
    auto model = costmodel::CostModel::loadState(is);
    if (!model ||
        model->mlp().inputSize() != model_.mlp().inputSize())
        return false;
    size_t numTasks = 0;
    if (!(is >> word >> numTasks) || word != "tasks" ||
        numTasks > 65536)
        return false;
    std::unordered_map<uint64_t, PendingTaskState> pending;
    for (size_t t = 0; t < numTasks; ++t) {
        uint64_t hash = 0;
        PendingTaskState state;
        if (!(is >> hash >> state.rounds >> state.stagnantRounds >>
              state.bestLatencySec))
            return false;
        if (!optim::readCandidate(is, state.bestCandidate))
            return false;
        size_t blobSize = 0;
        if (!(is >> word >> blobSize) || word != "strategy" ||
            blobSize > (size_t{1} << 24))
            return false;
        is.get();   // the newline framing the raw blob
        state.strategyBlob.resize(blobSize);
        if (blobSize > 0 &&
            !is.read(&state.strategyBlob[0],
                     static_cast<std::streamsize>(blobSize)))
            return false;
        pending[hash] = std::move(state);
    }
    if (!(is >> word) || word != "end-tuner")
        return false;

    // All parsed: commit.
    rng_ = rng;
    clockSec_ = clockSec;
    measureSeed_ = measureSeed;
    totalMeasurements_ = totalMeasurements;
    roundIndex_ = roundIndex;
    history_ = std::move(history);
    model_ = std::move(*model);
    pendingRestore_ = std::move(pending);
    // Overlay tasks that were registered before loadState (the
    // serving daemon normally loads before any task registers, so
    // this loop is usually empty).
    for (TaskRecord &record : tasks_)
        restoreTask(record);
    return true;
}

void
GraphTuner::tuneRounds(int n_rounds)
{
    for (int round = 0; round < n_rounds; ++round)
        tuneOneRound();
}

void
GraphTuner::tuneUntil(double budget_sec)
{
    while (clockSec_ < budget_sec)
        tuneOneRound();
}

} // namespace tuner
} // namespace felix
