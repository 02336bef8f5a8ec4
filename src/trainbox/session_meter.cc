#include "trainbox/session_meter.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace tb {

SessionMeter::SessionMeter(std::vector<std::string> stageNames,
                           HostResources host)
    : stageNames_(std::move(stageNames)), host_(host),
      stageSum_(stageNames_.size(), 0.0), stageCount_(stageNames_.size(), 0)
{
}

bool
SessionMeter::start(std::size_t warmup, std::size_t measure,
                    std::size_t groups, Time now, MetricCounter *computeBusy)
{
    panic_if(measure == 0, "need at least one measured step");
    warmup_ = warmup;
    measure_ = measure;
    groups_ = attached_ = groups;
    start_ = windowStart_ = capacityMark_ = now;
    computeBusy_ = computeBusy;
    open_ = warmup == 0;
    return open_;
}

bool
SessionMeter::stepSynced(Time now)
{
    ++steps_;
    if (steps_ > maxStep_) {
        maxStep_ = steps_;
        if (steps_ > warmup_)
            measuredSamples_ += stepSamples_;
    }
    stepSamples_ = 0.0;
    // Only the first crossing opens the window: reopening it on a crash
    // replay would drop the crash's cost from the measurement.
    if (steps_ != warmup_ || open_)
        return false;
    open_ = true;
    windowStart_ = now;
    return true;
}

void
SessionMeter::accrue(Time now)
{
    const Time dt = now - capacityMark_;
    capacityMark_ = now;
    if (dt <= 0.0 || groups_ == 0)
        return;
    activeIntegral_ += dt * static_cast<double>(attached_) /
                       static_cast<double>(groups_);
    if (attached_ < groups_)
        elastic_.degradedCapacityTime += dt;
    if (attached_ == 0)
        elastic_.zeroCapacityTime += dt;
}

void
SessionMeter::setAttached(Time now, std::size_t groups)
{
    accrue(now);
    attached_ = groups;
    membershipChanged_ = true;
}

SessionResult
SessionMeter::finish(Time now, double cached)
{
    accrue(now);
    ended_ = true;
    SessionResult res;
    // A killed session may end before its window opened; a completed
    // one always measured a positive window.
    const Time elapsed = open_ ? now - windowStart_ : 0.0;
    panic_if(complete() && elapsed <= 0.0, "empty measurement window");
    res.stepsMeasured = std::min(measuredThrough(maxStep_), measure_);
    if (elapsed > 0.0 && res.stepsMeasured > 0) {
        res.stepTime = elapsed / static_cast<double>(res.stepsMeasured);
        res.throughput = measuredSamples_ / elapsed;
    }

    for (std::size_t i = 0; i < stageCount_.size(); ++i)
        if (stageCount_[i] > 0)
            res.prepStageTime[stageNames_[i]] =
                stageSum_[i] / static_cast<double>(stageCount_[i]);
    if (latencyCount_ > 0)
        res.prepLatency = latencySum_ / static_cast<double>(latencyCount_);

    const std::pair<const FluidResource *, std::map<std::string, double> *>
        rates[] = {{host_.cpu, &res.cpuCoresByCategory},
                   {host_.mem, &res.memBwByCategory},
                   {host_.rc, &res.rcBwByCategory}};
    for (const auto &[resource, out] : rates)
        if (resource && elapsed > 0.0)
            for (const auto &[cat, units] : resource->servedByCategory())
                (*out)[cat] = units / elapsed;
    res.wallTime = now - start_;

    // The ledger's conservation identity is the chaos harness's
    // backbone, so panic instead of misreporting.
    SessionResult::ElasticityStats &e = elastic_;
    e.samplesCachedAtEnd = cached;
    const double gap =
        e.samplesPrepared -
        (e.samplesConsumed + cached + e.samplesDiscarded);
    panic_if(std::fabs(gap) > 1e-6 * std::max(1.0, e.samplesPrepared),
             "sample ledger violated: prepared %g != consumed %g + "
             "cached %g + discarded %g",
             e.samplesPrepared, e.samplesConsumed, cached,
             e.samplesDiscarded);
    // With every group attached throughout the fraction is exactly 1.
    const Time total = now - start_;
    if (membershipChanged_ && total > 0.0)
        e.avgActiveFraction = activeIntegral_ / total;
    res.elasticity = e;
    return res;
}

} // namespace tb
