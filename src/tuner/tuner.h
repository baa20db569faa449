/**
 * @file
 * Full-graph tuning (paper Algorithm 2) with a virtual tuning clock.
 *
 * The tuner owns the weighted tasks of one network, a pretrained
 * cost model, and a search strategy per task (Felix gradient search
 * or the Ansor-TenSet evolutionary baseline). Each round it selects
 * one subgraph (Ansor's task scheduler: spend time where the most
 * network latency remains), runs one search round, measures the
 * proposed candidates on the simulated device, fine-tunes the cost
 * model with the fresh measurements, and records a timeline point.
 *
 * Tuning time is accounted by a *virtual clock* so the time-based
 * experiments (Fig. 7/10, Tables 1/2) are deterministic and
 * independent of the host machine: cost-model queries, gradient
 * steps, per-candidate hardware measurements (the paper's ~100 ms
 * runs plus compile/transfer overhead) and per-round overheads all
 * advance the clock. The defaults reproduce the paper's per-round
 * budget ratio: Felix predicts 8 x 200 = 1600 schedules and measures
 * 16; Ansor predicts 2048 x 4 = 8192 and measures 64.
 */
#ifndef FELIX_TUNER_TUNER_H_
#define FELIX_TUNER_TUNER_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_model.h"
#include "evolutionary/evolutionary.h"
#include "graph/graph.h"
#include "obs/round_log.h"
#include "optim/search.h"
#include "sim/device.h"
#include "tuner/records.h"

namespace felix {
namespace tuner {

/** Virtual-clock cost accounting (seconds of simulated tuning). */
struct ClockConfig
{
    double secPerPrediction = 1.0e-3;  ///< one cost-model query
    double gradStepFactor = 2.5;       ///< fwd+bwd vs fwd-only cost
    double secPerMeasurement = 0.18;   ///< ~100 ms run + compile/RPC
    double roundOverheadSec = 1.0;     ///< sketch/lowering per round
};

/** Which search strategy drives the tuning. */
enum class StrategyKind { FelixGradient, AnsorTenSet };

const char *strategyName(StrategyKind kind);

/** Tuner options. */
struct TunerOptions
{
    StrategyKind strategy = StrategyKind::FelixGradient;
    optim::GradSearchOptions grad;
    evolutionary::EvoSearchOptions evo;
    ClockConfig clock;
    uint64_t seed = 1;
    /** Worker threads for every parallel phase (search, measurement,
     *  fine-tuning). 0 inherits the current global pool; > 0 resizes
     *  it. Results are bit-identical for any value
     *  (docs/parallelism.md); only wall-clock time changes. */
    int numThreads = 0;
    /** TVM-style compiled-graph runtime overhead per inference. */
    double graphExecOverheadSec = 15e-6;
    int finetuneSteps = 16;
    /** When non-empty, every measurement is appended here as a
     *  replayable tuning record (Ansor-style tuning log). */
    std::string recordLogPath;
    /** When non-empty, one structured telemetry record per tuning
     *  round is written here as JSONL (see docs/observability.md);
     *  the felix-tune --metrics-out flag plugs in here. */
    std::string roundLogPath;
    /** Allow constructing with zero tasks (the serving daemon adds
     *  tasks as requests arrive; see docs/serving.md). */
    bool allowEmptyTasks = false;
};

/** One point of the tuning-progress curve (Fig. 7/10). */
struct TimelinePoint
{
    double timeSec = 0.0;
    double networkLatencySec = 0.0;
};

/** Tuning state of one task. */
struct TaskRecord
{
    graph::Task task;
    std::unique_ptr<optim::SearchStrategy> strategy;
    double bestLatencySec = 0.0;
    optim::Candidate bestCandidate;
    int rounds = 0;
    int stagnantRounds = 0;
};

/**
 * Build a record per task, one parallel "tuner.make_strategy" item
 * each: the task's search strategy (sketch generation, feature
 * extraction, rewrite, tape and checker compiles) and, as its
 * bestCandidate, the trivial all-ones schedule of the primary sketch
 * with its raw features, not yet measured (seedTrivialSchedule).
 * A record is a pure function of (task, options), so the records do
 * not depend on --jobs. Shared by GraphTuner and the sharded runner
 * (src/shard/) so both construct byte-identical strategies from the
 * same options.
 */
std::vector<TaskRecord> makeStrategies(
    StrategyKind kind, std::vector<graph::Task> tasks,
    const optim::GradSearchOptions &grad,
    const evolutionary::EvoSearchOptions &evo);

/**
 * Measure the trivial all-ones schedule makeStrategies put in
 * @p record.bestCandidate (always legal, single-threaded) with
 * @p measure_seed. This is the "untuned" latency the curves start
 * at.
 */
void seedTrivialSchedule(TaskRecord &record,
                         const sim::DeviceConfig &device,
                         uint64_t measure_seed);

/**
 * Everything one tuning-round transition needs beyond the task
 * itself. The legacy in-process tuner and the sharded runner both
 * drive rounds through this environment, so a round computes the
 * same bytes no matter which process executes it; only the
 * callbacks (clock sinks, seed streams, record routing) differ.
 */
struct RoundEnv
{
    costmodel::CostModel *model = nullptr;              ///< required
    std::vector<costmodel::Sample> *history = nullptr;  ///< required
    Rng *rng = nullptr;                                 ///< required
    /** Virtual clock before the round; the advanced clock is
     *  returned in RoundOutcome::clockSec. */
    double clockSec = 0.0;
    ClockConfig clock;
    const sim::DeviceConfig *device = nullptr;          ///< required
    StrategyKind strategy = StrategyKind::FelixGradient;
    int finetuneSteps = 16;
    /** Stamped into RoundRecord::round. */
    int roundIndex = 0;
    /** Measurement seed for candidate i. Required. The legacy tuner
     *  passes a preassigned window of its global seed stream; the
     *  sharded runner passes position-independent hashed seeds so
     *  the value does not depend on which rounds this shard ran. */
    std::function<uint64_t(size_t)> measureSeed;
    /** Per-measurement hook with the clock after that measurement
     *  (the legacy tuner pushes timeline points here). Optional. */
    std::function<void(double)> onMeasured;
    /** End-to-end network latency for the round record. When null,
     *  the task-local weight * best is used (shard mode: a shard
     *  does not know the other shards' bests; the merge step never
     *  reads this field across shard counts). */
    std::function<double()> networkLatency;
    /** When non-empty, append every measurement here (legacy
     *  Ansor-style tuning log). */
    std::string recordLogPath;
    /** Collect the round's measurements into RoundOutcome::records
     *  (shard mode appends them as one atomic batch per round). */
    bool collectRecords = false;
    /** Emit the nondeterministic wall-clock into the round record.
     *  Shard mode turns this off so round logs merge byte-identically. */
    bool emitWall = true;
};

/** What one round produced. */
struct RoundOutcome
{
    int measured = 0;        ///< candidates measured this round
    double clockSec = 0.0;   ///< virtual clock after the round
    obs::RoundRecord record; ///< fully-populated telemetry record
    std::vector<TuneRecord> records; ///< when env.collectRecords
};

/**
 * The tuner's single round transition (one step of Algorithm 2's
 * inner loop): run one search round on @p record, measure the
 * proposed candidates, update the best schedule, fine-tune the cost
 * model, advance the virtual clock and stagnation bookkeeping.
 * Deterministic given (task state, model, history, rng, env seeds).
 */
RoundOutcome runTaskRound(TaskRecord &record, const RoundEnv &env);

/**
 * Ansor's task scheduler (Algorithm 2's task pick): the first task
 * with no round yet; otherwise the task where the most weighted
 * latency remains, weights[i] * bestLatencySec, halved per stagnant
 * round up to 6, with ties going to the lowest index. Returns -1
 * when @p tasks is empty. GraphTuner weighs a task by its
 * occurrences in the network, felix-serve by its exact share of the
 * traffic served (docs/serving.md).
 */
int pickTask(const std::vector<TaskRecord> &tasks,
             const std::vector<double> &weights);

/** Round-based full-graph tuner (Algorithm 2). */
class GraphTuner
{
  public:
    GraphTuner(std::vector<graph::Task> tasks,
               costmodel::CostModel model, sim::DeviceKind device,
               TunerOptions options = {});

    /** Run @p n_rounds rounds of subgraph tuning. */
    void tuneRounds(int n_rounds);

    /** Tune until the virtual clock passes @p budget_sec. */
    void tuneUntil(double budget_sec);

    /**
     * Register tasks; the constructor and the serving API (after
     * construction) both come here. Their strategies build in
     * parallel (makeStrategies). Then, on the calling thread and in
     * order, each task either takes its restored state (loadState)
     * or starts at the trivial all-ones schedule, whose simulated
     * measurement takes the next seed of the deterministic
     * measurement stream. Returns the index of the first new task;
     * the others follow in order.
     */
    int addTasks(std::vector<graph::Task> tasks);

    /**
     * Run one tuning round on one specific task, picked by the
     * caller (felix-serve weighs pickTask by traffic share instead
     * of by task weight).
     */
    void tuneTaskRound(int task_index);

    /** Current end-to-end network latency with the best schedules. */
    double networkLatency() const;

    double clockNow() const { return clockSec_; }
    const std::vector<TimelinePoint> &timeline() const
    {
        return timeline_;
    }
    const std::vector<TaskRecord> &taskRecords() const
    {
        return tasks_;
    }
    const costmodel::CostModel &model() const { return model_; }
    int totalMeasurements() const { return totalMeasurements_; }
    int totalRounds() const { return roundIndex_; }

    /** The per-round telemetry sink (disabled when no path set). */
    obs::RoundLogger &roundLogger() { return roundLogger_; }

    /**
     * Serialize the full tuning state — rng, virtual clock,
     * measurement-seed stream position, replay history, fine-tuned
     * cost model, and per-task state (best schedule, stagnation,
     * strategy internals) — as versioned text. Together with
     * loadState() this makes a restarted process resume the exact
     * deterministic trajectory (docs/distributed.md).
     */
    void saveState(std::ostream &os) const;

    /**
     * Restore state written by saveState(). Global state (rng,
     * clock, history, model) applies immediately; per-task state is
     * stashed by task hash and overlaid when a task with that hash
     * is registered via addTasks()/the constructor — the overlay
     * path skips the initial trivial-schedule measurement, since
     * the restored stream position already accounts for it. False
     * on malformed input (state is then unspecified; discard the
     * tuner).
     */
    bool loadState(std::istream &is);

    /** True when a restored per-task state awaits a task with this
     *  structural hash (serving: forces re-registration so
     *  background tuning resumes despite a warm schedule cache). */
    bool hasPendingRestore(uint64_t task_hash) const
    {
        return pendingRestore_.count(task_hash) != 0;
    }

    /** Restored per-task states not yet claimed by addTasks(). */
    size_t pendingRestoreCount() const
    {
        return pendingRestore_.size();
    }

  private:
    /** Per-task state parked between loadState() and addTasks(). */
    struct PendingTaskState
    {
        int rounds = 0;
        int stagnantRounds = 0;
        double bestLatencySec = 0.0;
        optim::Candidate bestCandidate;
        std::string strategyBlob;
    };

    void tuneOneRound();
    /** Overlay the parked state for @p record's hash, if any. */
    bool restoreTask(TaskRecord &record);

    std::vector<TaskRecord> tasks_;
    /** Replay buffer of all measured samples (model fine-tuning). */
    std::vector<costmodel::Sample> history_;
    costmodel::CostModel model_;
    sim::DeviceConfig device_;
    TunerOptions options_;
    Rng rng_;
    double clockSec_ = 0.0;
    uint64_t measureSeed_ = 0;
    int totalMeasurements_ = 0;
    int roundIndex_ = 0;
    std::vector<TimelinePoint> timeline_;
    obs::RoundLogger roundLogger_;
    std::unordered_map<uint64_t, PendingTaskState> pendingRestore_;
};

} // namespace tuner
} // namespace felix

#endif // FELIX_TUNER_TUNER_H_
