#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "obs/json.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace felix {
namespace obs {

double
bucketQuantile(const std::vector<double> &bounds,
               const std::vector<uint64_t> &counts, double q)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0 || bounds.empty())
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double next = cumulative +
                            static_cast<double>(counts[i]);
        if (next >= target) {
            if (i >= bounds.size())   // overflow bucket: clamp
                return bounds.back();
            const double lo =
                i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
            const double hi = bounds[i];
            const double fraction =
                (target - cumulative) / static_cast<double>(counts[i]);
            return lo + fraction * (hi - lo);
        }
        cumulative = next;
    }
    return bounds.back();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    FELIX_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be sorted");
    buckets_ = std::make_unique<std::atomic<uint64_t>[]>(
        bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    // First bound >= value: bucket i counts (bounds[i-1], bounds[i]];
    // values above every bound land in the trailing overflow bucket.
    size_t bucket = std::lower_bound(bounds_.begin(), bounds_.end(),
                                     value) -
                    bounds_.begin();
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomicAdd(sum_, value);
}

std::vector<double>
Histogram::logBounds(double lo, double hi, int per_decade)
{
    FELIX_CHECK(lo > 0.0 && hi > lo && per_decade > 0,
                "logBounds needs 0 < lo < hi and per_decade > 0");
    std::vector<double> bounds;
    // bounds[i] = lo * 10^(i / per_decade), computed from the
    // exponent each time so the ratio never drifts.
    for (int i = 0;; ++i) {
        double bound =
            lo * std::pow(10.0, static_cast<double>(i) /
                                    static_cast<double>(per_decade));
        bounds.push_back(bound);
        if (bound >= hi)
            break;
    }
    return bounds;
}

std::vector<uint64_t>
Histogram::counts() const
{
    std::vector<uint64_t> out(bounds_.size() + 1);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

double
Histogram::quantile(double q) const
{
    return bucketQuantile(bounds_, counts(), q);
}

bool
Histogram::setContents(const std::vector<uint64_t> &counts,
                       uint64_t count, double sum)
{
    if (counts.size() != bounds_.size() + 1)
        return false;
    for (size_t i = 0; i < counts.size(); ++i)
        buckets_[i].store(counts[i], std::memory_order_relaxed);
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
    return true;
}

bool
Histogram::mergeFrom(const Histogram &other)
{
    if (bounds_ != other.bounds_)
        return false;
    // Bucket by bucket; concurrent observers may land between the
    // adds, which is the same relaxed guarantee observe() gives.
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].fetch_add(
            other.buckets_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    detail::atomicAdd(sum_, other.sum());
    return true;
}

double
Histogram::mean() const
{
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void
Histogram::reset()
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

std::vector<double>
MetricsRegistry::defaultLatencyBoundsMs()
{
    // 9 buckets per decade: adjacent-bound ratio 10^(1/9) ~ 1.29,
    // so every in-range quantile estimate is within ~29%.
    return Histogram::logBounds(0.1, 1e5, 9);
}

std::vector<double>
MetricsRegistry::defaultRequestLatencyBoundsUs()
{
    return Histogram::logBounds(1.0, 1e7, 9);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot) {
        if (bounds.empty())
            bounds = defaultLatencyBoundsMs();
        slot = std::make_unique<Histogram>(std::move(bounds));
    }
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &[name, counter] : counters_)
        snap.counters[name] = counter->value();
    for (const auto &[name, gauge] : gauges_)
        snap.gauges[name] = gauge->value();
    for (const auto &[name, histogram] : histograms_) {
        MetricsSnapshot::HistogramData data;
        data.bounds = histogram->bounds();
        data.counts = histogram->counts();
        data.count = histogram->count();
        data.sum = histogram->sum();
        snap.histograms[name] = std::move(data);
    }
    return snap;
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->reset();
    for (auto &[name, histogram] : histograms_)
        histogram->reset();
}

void
MetricsRegistry::restore(const MetricsSnapshot &snapshot)
{
    resetAll();
    for (const auto &[name, value] : snapshot.counters)
        counter(name).add(value);
    for (const auto &[name, value] : snapshot.gauges)
        gauge(name).set(value);
    for (const auto &[name, data] : snapshot.histograms) {
        Histogram &h = histogram(name, data.bounds);
        if (!h.setContents(data.counts, data.count, data.sum))
            warn("metrics restore: bucket layout of ", name,
                 " changed; histogram dropped");
    }
}

double
MetricsSnapshot::HistogramData::quantile(double q) const
{
    return bucketQuantile(bounds, counts, q);
}

double
MetricsSnapshot::HistogramData::mean() const
{
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

bool
MetricsSnapshot::HistogramData::merge(const HistogramData &other)
{
    if (bounds != other.bounds || counts.size() != other.counts.size())
        return false;
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    count += other.count;
    sum += other.sum;
    return true;
}

bool
isWallClockMetricName(const std::string &name)
{
    auto endsWith = [&](const char *suffix) {
        const size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    // Wall-clock timers and rates, plus host-configuration metrics
    // that legitimately differ between the processes of one sharded
    // run (pool size, SIMD width) without affecting any result byte.
    return endsWith("_ms") || endsWith("_us") ||
           name.find("per_sec") != std::string::npos ||
           name == "threads.pool_size" ||
           name.compare(0, 5, "simd.") == 0;
}

MetricsSnapshot
MetricsSnapshot::deterministic() const
{
    MetricsSnapshot out;
    for (const auto &[name, value] : counters) {
        if (!isWallClockMetricName(name))
            out.counters[name] = value;
    }
    for (const auto &[name, value] : gauges) {
        if (!isWallClockMetricName(name))
            out.gauges[name] = value;
    }
    for (const auto &[name, data] : histograms) {
        if (!isWallClockMetricName(name))
            out.histograms[name] = data;
    }
    return out;
}

void
MetricsSnapshot::mergeFrom(const MetricsSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, value] : other.gauges)
        gauges[name] = value;
    for (const auto &[name, data] : other.histograms) {
        auto it = histograms.find(name);
        if (it == histograms.end())
            histograms[name] = data;
        else
            it->second.merge(data);
    }
}

void
MetricsSnapshot::writeText(std::ostream &os) const
{
    os.precision(17);
    os << "metrics v1\n";
    os << "counters " << counters.size() << "\n";
    for (const auto &[name, value] : counters)
        os << name << " " << value << "\n";
    os << "gauges " << gauges.size() << "\n";
    for (const auto &[name, value] : gauges)
        os << name << " " << value << "\n";
    os << "histograms " << histograms.size() << "\n";
    for (const auto &[name, data] : histograms) {
        os << name << " " << data.bounds.size() << " "
           << data.counts.size();
        for (double bound : data.bounds)
            os << " " << bound;
        for (uint64_t c : data.counts)
            os << " " << c;
        os << " " << data.count << " " << data.sum << "\n";
    }
}

bool
MetricsSnapshot::readText(std::istream &is, MetricsSnapshot *out)
{
    std::string tag, version;
    if (!(is >> tag >> version) || tag != "metrics" ||
        version != "v1")
        return false;
    MetricsSnapshot snap;
    size_t n = 0;
    std::string name;
    double value = 0.0;
    if (!(is >> tag >> n) || tag != "counters" || n > 100000)
        return false;
    for (size_t i = 0; i < n; ++i) {
        if (!(is >> name >> value))
            return false;
        snap.counters[name] = value;
    }
    if (!(is >> tag >> n) || tag != "gauges" || n > 100000)
        return false;
    for (size_t i = 0; i < n; ++i) {
        if (!(is >> name >> value))
            return false;
        snap.gauges[name] = value;
    }
    if (!(is >> tag >> n) || tag != "histograms" || n > 100000)
        return false;
    for (size_t i = 0; i < n; ++i) {
        HistogramData data;
        size_t numBounds = 0, numCounts = 0;
        if (!(is >> name >> numBounds >> numCounts) ||
            numBounds > 100000 || numCounts != numBounds + 1)
            return false;
        data.bounds.resize(numBounds);
        for (double &bound : data.bounds) {
            if (!(is >> bound))
                return false;
        }
        data.counts.resize(numCounts);
        for (uint64_t &c : data.counts) {
            if (!(is >> c))
                return false;
        }
        if (!(is >> data.count >> data.sum))
            return false;
        snap.histograms[name] = std::move(data);
    }
    *out = std::move(snap);
    return true;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            out += ",";
        first = false;
        out += jsonEscape(name) + ":" + jsonNumber(value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        if (!first)
            out += ",";
        first = false;
        out += jsonEscape(name) + ":" + jsonNumber(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, data] : histograms) {
        if (!first)
            out += ",";
        first = false;
        out += jsonEscape(name) + ":{\"bounds\":[";
        for (size_t i = 0; i < data.bounds.size(); ++i) {
            if (i)
                out += ",";
            out += jsonNumber(data.bounds[i]);
        }
        out += "],\"counts\":[";
        for (size_t i = 0; i < data.counts.size(); ++i) {
            if (i)
                out += ",";
            out += std::to_string(data.counts[i]);
        }
        out += "],\"count\":" + std::to_string(data.count);
        out += ",\"sum\":" + jsonNumber(data.sum);
        // Quantile summaries so consumers (felix-tune
        // --metrics-out, felix-top, the serve log) never have to
        // re-derive them from the raw buckets.
        out += ",\"mean\":" + jsonNumber(data.mean());
        out += ",\"p50\":" + jsonNumber(data.quantile(0.50));
        out += ",\"p95\":" + jsonNumber(data.quantile(0.95));
        out += ",\"p99\":" + jsonNumber(data.quantile(0.99)) + "}";
    }
    out += "}}";
    return out;
}

ScopedTimerMs::ScopedTimerMs(Counter &target)
    : target_(target), startUs_(Tracer::nowUs())
{
}

ScopedTimerMs::~ScopedTimerMs()
{
    target_.add(static_cast<double>(Tracer::nowUs() - startUs_) /
                1000.0);
}

} // namespace obs
} // namespace felix
