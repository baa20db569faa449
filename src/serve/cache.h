/**
 * @file
 * Schedule cache for the serving daemon: the best known schedule
 * per subgraph, keyed on tir::SubgraphDef::structuralHash — the
 * same canonical key the graph partitioner uses to deduplicate
 * tasks, so two requests containing a structurally identical fused
 * subgraph (a ResNet bottleneck appearing in two different client
 * networks, say) share one cache entry.
 *
 * The on-disk format is exactly the tuning-record log of
 * src/tuner/records.h: warmStart() replays a log through
 * historyBest(), and persist() appends the current per-task bests,
 * so the daemon, `felix-tune --log/--save-records`, and
 * `--replay-records` all speak one format.
 */
#ifndef FELIX_SERVE_CACHE_H_
#define FELIX_SERVE_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "tuner/records.h"

namespace felix {
namespace serve {

/** One cached schedule plus its serving bookkeeping. */
struct CacheEntry
{
    tuner::TuneRecord best;   ///< lowest-latency schedule known
    int taskIndex = -1;       ///< GraphTuner task index, -1 = none
    uint64_t hits = 0;        ///< times answered from this entry
};

/** In-memory schedule cache keyed on the subgraph structural hash. */
class ScheduleCache
{
  public:
    /**
     * Replay a tuning-record log into the cache (history-best per
     * hash). Missing file is fine (cold start). Returns the number
     * of entries loaded.
     */
    size_t warmStart(const std::string &records_path);

    /** Entry for @p hash, or nullptr. */
    const CacheEntry *lookup(uint64_t hash) const;

    /** Count a served hit on @p hash. */
    void recordHit(uint64_t hash);

    /**
     * Insert or improve the entry for @p record.taskHash. Keeps the
     * lower-latency schedule. Returns true when the cache changed.
     */
    bool put(const tuner::TuneRecord &record);

    /** Bind a cache entry to its tuner task index. */
    void bindTask(uint64_t hash, int task_index);

    /**
     * Append every entry improved since the last persist() to the
     * log (one atomic write). Returns the number written.
     */
    size_t persist(const std::string &records_path);

    size_t size() const { return entries_.size(); }

  private:
    std::unordered_map<uint64_t, size_t> index_;
    std::vector<CacheEntry> entries_;   ///< insertion-ordered
    std::vector<uint64_t> dirty_;       ///< hashes to persist
};

} // namespace serve
} // namespace felix

#endif // FELIX_SERVE_CACHE_H_
