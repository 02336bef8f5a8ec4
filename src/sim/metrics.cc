#include "sim/metrics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

TimeWeightedHistogram::TimeWeightedHistogram(std::size_t num_buckets,
                                             double lo, double hi,
                                             double saturation)
    : buckets_(std::max<std::size_t>(1, num_buckets), 0.0), lo_(lo),
      hi_(hi), saturation_(saturation)
{
    panic_if(hi <= lo, "histogram range [%g, %g) is empty", lo, hi);
}

void
TimeWeightedHistogram::record(double value, Time duration)
{
    if (duration <= 0.0)
        return;
    totalTime_ += duration;
    weightedSum_ += value * duration;
    peak_ = std::max(peak_, value);
    if (value >= saturation_)
        saturatedTime_ += duration;

    const double span = hi_ - lo_;
    const double pos = (value - lo_) / span *
                       static_cast<double>(buckets_.size());
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(pos, 0.0, static_cast<double>(buckets_.size() - 1)));
    buckets_[idx] += duration;
}

double
TimeWeightedHistogram::timeAverage() const
{
    return totalTime_ > 0.0 ? weightedSum_ / totalTime_ : 0.0;
}

double
TimeWeightedHistogram::saturatedFraction() const
{
    return totalTime_ > 0.0 ? saturatedTime_ / totalTime_ : 0.0;
}

double
TimeWeightedHistogram::bucketLow(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(buckets_.size());
}

double
TimeWeightedHistogram::bucketHigh(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) /
                     static_cast<double>(buckets_.size());
}

void
TimeWeightedHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0.0);
    totalTime_ = 0.0;
    weightedSum_ = 0.0;
    peak_ = 0.0;
    saturatedTime_ = 0.0;
}

namespace {

template <typename T>
T *
findOrCreate(std::vector<MetricsRegistry::Entry<T>> &entries,
             std::map<std::string, std::size_t> &index,
             const std::string &name, const std::string &desc,
             std::unique_ptr<T> fresh)
{
    auto it = index.find(name);
    if (it != index.end())
        return entries[it->second].metric.get();
    index.emplace(name, entries.size());
    entries.push_back({name, desc, std::move(fresh)});
    return entries.back().metric.get();
}

template <typename T>
const T *
find(const std::vector<MetricsRegistry::Entry<T>> &entries,
     const std::map<std::string, std::size_t> &index,
     const std::string &name)
{
    auto it = index.find(name);
    return it == index.end() ? nullptr : entries[it->second].metric.get();
}

} // namespace

MetricCounter *
MetricsRegistry::counter(const std::string &name, const std::string &desc)
{
    if (!enabled_)
        return nullptr;
    return findOrCreate(counters_, counterIndex_, name, desc,
                        std::make_unique<MetricCounter>());
}

TimeWeightedHistogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &desc,
                           std::size_t num_buckets, double lo, double hi)
{
    if (!enabled_)
        return nullptr;
    return findOrCreate(
        histograms_, histogramIndex_, name, desc,
        std::make_unique<TimeWeightedHistogram>(num_buckets, lo, hi));
}

const MetricCounter *
MetricsRegistry::findCounter(const std::string &name) const
{
    return find(counters_, counterIndex_, name);
}

const TimeWeightedHistogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    return find(histograms_, histogramIndex_, name);
}

void
MetricsRegistry::resetAll()
{
    for (auto &e : counters_)
        e.metric->reset();
    for (auto &e : histograms_)
        e.metric->reset();
}

} // namespace tb
