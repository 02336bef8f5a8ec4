#include "sim/ingest.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tb {

namespace {

/** Per-class stream tags (keep stable: they define the traces). */
constexpr std::uint64_t kIngestStream = 0x494e474553ull;
constexpr std::uint64_t kWriteFailStream = 0x494e475746ull;

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** The scenario's config for one traffic class. */
const IngestClassConfig &
classConfig(const IngestConfig &cfg, IngestTrafficKind kind)
{
    switch (kind) {
      case IngestTrafficKind::Steady:
        return cfg.steady;
      case IngestTrafficKind::Diurnal:
        return cfg.diurnal;
      case IngestTrafficKind::Burst:
        return cfg.burst;
    }
    return cfg.burst;
}

/**
 * The scenario's live traffic classes, in IngestTrafficKind order. An
 * arrival is a zero-length window with no victim; the event rate is
 * ratePerSec / samplesPerEvent, so the class delivers its mean sample
 * rate in batch-sized lumps.
 */
std::vector<WindowClass>
windowClasses(const IngestConfig &cfg)
{
    std::vector<WindowClass> classes;
    for (const IngestTrafficKind kind :
         {IngestTrafficKind::Steady, IngestTrafficKind::Diurnal,
          IngestTrafficKind::Burst}) {
        const IngestClassConfig &cc = classConfig(cfg, kind);
        if (cc.ratePerSec <= 0.0 || cc.samplesPerEvent <= 0.0)
            continue;
        const auto k = static_cast<int>(kind);
        classes.push_back({k, kIngestStream + static_cast<std::uint64_t>(k),
                           cc.ratePerSec / cc.samplesPerEvent});
    }
    return classes;
}

IngestArrival
toArrival(const IngestConfig &cfg, const Window &w)
{
    const auto kind = static_cast<IngestTrafficKind>(w.kind);
    const IngestClassConfig &cc = classConfig(cfg, kind);
    // Diurnal traffic modulates the batch *volume* at a fixed event
    // rate: rate(t) = mean * (1 + A sin(2*pi*t/period)), clamped at 0.
    double scale = 1.0;
    if (kind == IngestTrafficKind::Diurnal && cfg.diurnalAmplitude > 0.0)
        scale = std::max(0.0, 1.0 + cfg.diurnalAmplitude *
                                        std::sin(kTwoPi * w.start /
                                                 cfg.diurnalPeriod));
    return {kind, cc.samplesPerEvent * scale, cc.priority, w.start};
}

} // namespace

const char *
ingestTrafficKindName(IngestTrafficKind kind)
{
    switch (kind) {
      case IngestTrafficKind::Steady:
        return "steady";
      case IngestTrafficKind::Diurnal:
        return "diurnal";
      case IngestTrafficKind::Burst:
        return "burst";
    }
    return "unknown";
}

const char *
ingestPolicyName(IngestPolicy policy)
{
    switch (policy) {
      case IngestPolicy::Throttle:
        return "throttle";
      case IngestPolicy::Shed:
        return "shed";
      case IngestPolicy::Echo:
        return "echo";
      case IngestPolicy::Stall:
        return "stall";
    }
    return "unknown";
}

IngestScheduler::IngestScheduler(const IngestConfig &cfg)
    : cfg_(cfg), windows_(cfg.seed, windowClasses(cfg)),
      writeFailRng_(mix64(cfg.seed ^ kWriteFailStream))
{
    panic_if(cfg_.bufferCapacity < 0.0,
             "ingest.bufferCapacity must be >= 0, got %g",
             cfg_.bufferCapacity);
    panic_if(cfg_.diurnalPeriod <= 0.0 && cfg_.diurnal.ratePerSec > 0.0,
             "ingest.diurnalPeriod must be > 0, got %g",
             cfg_.diurnalPeriod);
}

void
IngestScheduler::deliver(const IngestArrival &ev)
{
    if (handler_)
        handler_(ev);
}

void
IngestScheduler::arm(EventQueue &eq, Handler handler)
{
    handler_ = std::move(handler);
    // Anchor the job-relative schedule at the current clock (0 for the
    // historical standalone run, so x + 0.0 leaves every time exact).
    const Time origin = eq.now();
    for (const IngestArrival &ev : cfg_.schedule)
        eq.schedule(origin + ev.at, [this, ev] { deliver(ev); });
    windows_.arm(eq,
                 [this](const Window &w) { deliver(toArrival(cfg_, w)); });
}

bool
IngestScheduler::writeAttemptFails()
{
    if (cfg_.writeFailureProb <= 0.0)
        return false;
    return writeFailRng_.uniform() < cfg_.writeFailureProb;
}

std::vector<IngestArrival>
IngestScheduler::schedule(const IngestConfig &cfg, Time horizon)
{
    std::vector<IngestArrival> events;
    for (const IngestArrival &ev : cfg.schedule)
        if (ev.at < horizon)
            events.push_back(ev);
    WindowStream windows(cfg.seed, windowClasses(cfg));
    for (const Window &w : windows.windowsBefore(horizon))
        events.push_back(toArrival(cfg, w));
    return sortedByTime(std::move(events), &IngestArrival::at);
}

} // namespace tb
