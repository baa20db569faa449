#include "tuner/records.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "support/logging.h"

namespace felix {
namespace tuner {

namespace {

void
formatRecord(std::ostringstream &os, const TuneRecord &record)
{
    os << record.taskHash << " " << record.sketchIndex << " "
       << record.latencySec << " " << record.clockSec << " "
       << record.scheduleVars.size();
    for (double v : record.scheduleVars)
        os << " " << v;
    os << " " << record.taskLabel << "\n";
}

/**
 * One O_APPEND write of pre-formatted lines. POSIX appends are
 * atomic with respect to the file offset, so a crash mid-call
 * leaves at most one truncated trailing line and concurrent
 * appenders (daemon + CLI sharing a log) never interleave bytes of
 * complete lines.
 */
void
appendText(const std::string &path, const std::string &text)
{
    int fd = ::open(path.c_str(),
                    O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    FELIX_CHECK(fd >= 0, "cannot append tuning record to " + path +
                             ": " + std::strerror(errno));
    size_t written = 0;
    while (written < text.size()) {
        ssize_t n = ::write(fd, text.data() + written,
                            text.size() - written);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            int err = errno;
            ::close(fd);
            panic("short write appending tuning record to " + path +
                  ": " + std::strerror(err));
        }
        written += static_cast<size_t>(n);
    }
    ::close(fd);
}

} // namespace

void
appendRawText(const std::string &path, const std::string &text)
{
    if (!text.empty())
        appendText(path, text);
}

void
appendRecord(const std::string &path, const TuneRecord &record)
{
    std::ostringstream os;
    os.precision(17);
    formatRecord(os, record);
    appendText(path, os.str());
}

void
appendRecords(const std::string &path,
              const std::vector<TuneRecord> &records)
{
    if (records.empty())
        return;
    std::ostringstream os;
    os.precision(17);
    for (const TuneRecord &record : records)
        formatRecord(os, record);
    appendText(path, os.str());
}

std::vector<TuneRecord>
loadRecords(const std::string &path)
{
    std::vector<TuneRecord> records;
    std::ifstream is(path);
    std::string line;
    int corrupt = 0;
    // Register the counter up front so the metrics snapshot (and
    // felix-top --once) always carries a records.corrupt_lines
    // entry — 0 is an affirmative "no corruption seen", which is
    // different from the metric being absent.
    auto &corruptCounter = obs::MetricsRegistry::instance().counter(
        "records.corrupt_lines");
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        TuneRecord record;
        size_t numVars = 0;
        if (!(ls >> record.taskHash >> record.sketchIndex >>
              record.latencySec >> record.clockSec >> numVars)) {
            ++corrupt;
            continue;
        }
        // A line that parses can still not be a measurement: a
        // latency that is not finite and positive, a negative sketch
        // index or a non-finite schedule value would otherwise win
        // historyBest or index past the sketches.
        if (numVars > 4096 || record.sketchIndex < 0 ||
            !std::isfinite(record.latencySec) ||
            record.latencySec <= 0.0) {
            ++corrupt;
            continue;
        }
        record.scheduleVars.resize(numVars);
        bool ok = true;
        for (double &v : record.scheduleVars)
            ok = ok && static_cast<bool>(ls >> v) && std::isfinite(v);
        if (!ok) {
            ++corrupt;
            continue;
        }
        ls >> record.taskLabel;
        records.push_back(std::move(record));
    }
    if (corrupt > 0) {
        corruptCounter.add(static_cast<double>(corrupt));
        // Per-file gauge keyed by path, so the snapshot JSON names
        // WHICH log is corrupt, not just that one is.
        obs::MetricsRegistry::instance()
            .gauge("records.corrupt_lines." + path)
            .set(static_cast<double>(corrupt));
        warn("skipped ", corrupt, " corrupt tuning-record line",
             corrupt == 1 ? "" : "s", " in ", path);
    }
    return records;
}

std::vector<TuneRecord>
historyBest(const std::vector<TuneRecord> &records)
{
    std::unordered_map<uint64_t, size_t> bestOf;
    std::vector<TuneRecord> best;
    for (const TuneRecord &record : records) {
        auto it = bestOf.find(record.taskHash);
        if (it == bestOf.end()) {
            bestOf.emplace(record.taskHash, best.size());
            best.push_back(record);
        } else if (record.latencySec < best[it->second].latencySec) {
            best[it->second] = record;
        }
    }
    return best;
}

} // namespace tuner
} // namespace felix
