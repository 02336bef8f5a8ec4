/**
 * @file
 * Unified metrics layer: counters and time-weighted utilization
 * histograms behind a MetricsRegistry.
 *
 * The registry is the collection point for everything the observability
 * layer records during a run: the fluid solver samples per-resource
 * utilization between rate changes (rates are piecewise constant, so
 * each inter-event interval is one exact time-weighted sample), and the
 * training session counts compute/sync busy time and step/chain
 * completions. SessionReport (trainbox/report.hh) turns the registry's
 * contents into the ranked bottleneck attribution of the paper's
 * Figs 9-11.
 *
 * Zero-cost contract: a registry is created *disabled*. While disabled,
 * every factory method returns nullptr and allocates nothing, so
 * instrumented components guard on the returned pointer and the
 * simulation takes exactly the uninstrumented path. Enabling metrics
 * only ever *reads* simulation state (rates, durations); it never
 * schedules events or adds flows, so even an instrumented run is
 * bit-identical to an uninstrumented one.
 */

#ifndef TRAINBOX_SIM_METRICS_HH
#define TRAINBOX_SIM_METRICS_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"

namespace tb {

/** Monotonically increasing event/quantity counter. */
class MetricCounter
{
  public:
    void add(double v) { value_ += v; }
    void inc() { value_ += 1.0; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * Histogram of a piecewise-constant signal weighted by the *time* it
 * held each value — the natural summary of a fluid resource's
 * utilization, which only changes when flows arrive or depart.
 *
 * record(u, dt) states "the signal held value u for dt seconds". The
 * histogram tracks the exact time-average and peak, the exact time
 * spent at or above the saturation threshold, and a bucketed
 * distribution over [lo, hi] for export.
 */
class TimeWeightedHistogram
{
  public:
    /** Default saturation threshold (fraction of capacity). */
    static constexpr double kDefaultSaturation = 0.999;

    explicit TimeWeightedHistogram(std::size_t numBuckets = 10,
                                   double lo = 0.0, double hi = 1.0,
                                   double saturation = kDefaultSaturation);

    /** Record @p value held for @p duration seconds. */
    void record(double value, Time duration);

    /** Total recorded time. */
    Time totalTime() const { return totalTime_; }

    /** Time-weighted mean value (0 when nothing recorded). */
    double timeAverage() const;

    /** Largest value recorded (0 when nothing recorded). */
    double peak() const { return peak_; }

    /** Time spent at or above the saturation threshold. */
    Time saturatedTime() const { return saturatedTime_; }

    /** Fraction of recorded time at or above saturation (0 if empty). */
    double saturatedFraction() const;

    std::size_t numBuckets() const { return buckets_.size(); }
    Time bucketTime(std::size_t i) const { return buckets_[i]; }
    double bucketLow(std::size_t i) const;
    double bucketHigh(std::size_t i) const;

    /** Forget everything (measurement-window reset). */
    void reset();

  private:
    std::vector<Time> buckets_;
    double lo_;
    double hi_;
    double saturation_;
    Time totalTime_ = 0.0;
    double weightedSum_ = 0.0;
    double peak_ = 0.0;
    Time saturatedTime_ = 0.0;
};

/**
 * Named collection of metrics. Components obtain their instruments from
 * the registry by name; asking twice for the same name returns the same
 * instrument, so producers and readers need not coordinate creation
 * order.
 *
 * A registry starts disabled: every factory returns nullptr and the
 * registry allocates nothing (see the file comment for the zero-cost
 * contract). Call enable() before wiring instrumentation.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Find-or-create an instrument. Returns nullptr while the registry
     * is disabled. Pointers remain valid for the registry's lifetime.
     */
    MetricCounter *counter(const std::string &name,
                           const std::string &desc = "");
    TimeWeightedHistogram *histogram(const std::string &name,
                                     const std::string &desc = "",
                                     std::size_t numBuckets = 10,
                                     double lo = 0.0, double hi = 1.0);

    /** Lookup without creation (nullptr when absent or disabled). */
    const MetricCounter *findCounter(const std::string &name) const;
    const TimeWeightedHistogram *
    findHistogram(const std::string &name) const;

    template <typename T> struct Entry
    {
        std::string name;
        std::string desc;
        std::unique_ptr<T> metric;
    };

    /** Iteration in creation order (empty while disabled). */
    const std::vector<Entry<MetricCounter>> &counters() const
    {
        return counters_;
    }
    const std::vector<Entry<TimeWeightedHistogram>> &histograms() const
    {
        return histograms_;
    }

    /** Total number of registered instruments. */
    std::size_t size() const
    {
        return counters_.size() + histograms_.size();
    }

    /** Reset every instrument (measurement-window reset). */
    void resetAll();

  private:
    bool enabled_ = false;
    std::vector<Entry<MetricCounter>> counters_;
    std::vector<Entry<TimeWeightedHistogram>> histograms_;
    std::map<std::string, std::size_t> counterIndex_;
    std::map<std::string, std::size_t> histogramIndex_;
};

} // namespace tb

#endif // TRAINBOX_SIM_METRICS_HH
