#include "serve/cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace felix {
namespace serve {

size_t
ScheduleCache::warmStart(const std::string &records_path)
{
    size_t loaded = 0;
    for (const tuner::TuneRecord &record :
         tuner::historyBest(tuner::loadRecords(records_path))) {
        if (put(record))
            ++loaded;
    }
    // Warm-started entries are already on disk; don't rewrite them.
    dirty_.clear();
    obs::MetricsRegistry::instance()
        .gauge("serve.cache.size")
        .set(static_cast<double>(entries_.size()));
    return loaded;
}

const CacheEntry *
ScheduleCache::lookup(uint64_t hash) const
{
    auto it = index_.find(hash);
    if (it == index_.end())
        return nullptr;
    return &entries_[it->second];
}

void
ScheduleCache::recordHit(uint64_t hash)
{
    auto it = index_.find(hash);
    if (it != index_.end())
        ++entries_[it->second].hits;
}

bool
ScheduleCache::put(const tuner::TuneRecord &record)
{
    auto it = index_.find(record.taskHash);
    if (it == index_.end()) {
        index_.emplace(record.taskHash, entries_.size());
        CacheEntry entry;
        entry.best = record;
        entries_.push_back(std::move(entry));
        dirty_.push_back(record.taskHash);
        obs::MetricsRegistry::instance()
            .gauge("serve.cache.size")
            .set(static_cast<double>(entries_.size()));
        return true;
    }
    CacheEntry &entry = entries_[it->second];
    if (record.latencySec < entry.best.latencySec) {
        int taskIndex = entry.taskIndex;
        entry.best = record;
        entry.taskIndex = taskIndex;
        if (std::find(dirty_.begin(), dirty_.end(),
                      record.taskHash) == dirty_.end())
            dirty_.push_back(record.taskHash);
        return true;
    }
    return false;
}

void
ScheduleCache::bindTask(uint64_t hash, int task_index)
{
    auto it = index_.find(hash);
    if (it != index_.end())
        entries_[it->second].taskIndex = task_index;
}

size_t
ScheduleCache::persist(const std::string &records_path)
{
    if (records_path.empty() || dirty_.empty()) {
        dirty_.clear();
        return 0;
    }
    std::vector<tuner::TuneRecord> batch;
    batch.reserve(dirty_.size());
    for (uint64_t hash : dirty_) {
        auto it = index_.find(hash);
        if (it != index_.end())
            batch.push_back(entries_[it->second].best);
    }
    tuner::appendRecords(records_path, batch);
    dirty_.clear();
    return batch.size();
}

} // namespace serve
} // namespace felix
