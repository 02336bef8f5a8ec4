#include "sim/fault_injector.hh"

#include <iterator>
#include <numeric>

#include "common/logging.hh"

namespace tb {

namespace {

/** Read retries per chunk before it is abandoned. */
constexpr std::size_t kMaxReadRetries = 3;

/** Verify-triggered re-reads of one chunk before it is quarantined. */
constexpr std::size_t kMaxIntegrityRecoveries = 3;

/** First retry backoff; doubles per further attempt. */
constexpr Time kRetryBackoffBase = 50e-6;

/** Link stall paid per detected PCIe error (LCRC replay). */
constexpr Time kPcieReplayLatency = 2.0e-6;

/** Per-class stream tags (keep stable: they define the schedules). */
constexpr std::uint64_t kReadFailStream = 0x5245414446ull;
constexpr std::uint64_t kStragglerStream = 0x5354524147ull;
constexpr std::uint64_t kCorruptionStream = 0x434f525255ull;

std::uint64_t
corruptionStreamTag(CorruptionKind kind)
{
    return kCorruptionStream + static_cast<std::uint64_t>(kind);
}

std::uint64_t
classStreamTag(FaultKind kind)
{
    return 0x57494e444f57ull + static_cast<std::uint64_t>(kind);
}

/**
 * The scenario's parameters for one windowed class. Fatal crashes are
 * point events: the configured duration and magnitude are ignored
 * (forced to 0) so arrivals stay a Poisson process with MTBF = 1/rate
 * regardless of what the scenario struct says.
 */
FaultClassConfig
classConfig(const FaultConfig &cfg, FaultKind kind)
{
    switch (kind) {
      case FaultKind::SsdDegrade:
        return cfg.ssdDegrade;
      case FaultKind::PrepCrash:
        return cfg.prepCrash;
      case FaultKind::EthDegrade:
        return cfg.ethDegrade;
      case FaultKind::RouteLoss:
        return cfg.routeLoss;
      case FaultKind::FatalCrash:
        return {cfg.fatalCrash.ratePerSec, 0.0, 0.0};
    }
    return {};
}

/** The scenario's live windowed classes, in FaultKind order. */
std::vector<WindowClass>
windowClasses(const FaultConfig &cfg, const FaultTargets &targets)
{
    const std::pair<FaultKind, std::size_t> kinds[] = {
        {FaultKind::SsdDegrade, targets.numSsds},
        {FaultKind::PrepCrash, targets.prepGroups.size()},
        {FaultKind::EthDegrade, targets.pool ? 1u : 0u},
        {FaultKind::RouteLoss, targets.hostPathGroups.size()},
        {FaultKind::FatalCrash, 1},
    };
    std::vector<WindowClass> classes;
    for (const auto &[kind, n] : kinds) {
        const FaultClassConfig cc = classConfig(cfg, kind);
        const bool point = kind == FaultKind::FatalCrash;
        if (cc.ratePerSec <= 0.0 || (!point && cc.duration <= 0.0) || n == 0)
            continue;
        classes.push_back({static_cast<int>(kind), classStreamTag(kind),
                           cc.ratePerSec, n, 0.0, cc.duration});
    }
    return classes;
}

FaultEvent
toEvent(const FaultConfig &cfg, const FaultTargets &targets,
        const Window &w)
{
    const auto kind = static_cast<FaultKind>(w.kind);
    const FaultClassConfig cc = classConfig(cfg, kind);
    std::size_t target = w.target;
    if (kind == FaultKind::PrepCrash)
        target = targets.prepGroups[target];
    else if (kind == FaultKind::RouteLoss)
        target = targets.hostPathGroups[target];
    return {kind, target, w.start, cc.duration, cc.magnitude};
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SsdDegrade:
        return "ssd_degrade";
      case FaultKind::PrepCrash:
        return "prep_crash";
      case FaultKind::EthDegrade:
        return "eth_degrade";
      case FaultKind::RouteLoss:
        return "route_loss";
      case FaultKind::FatalCrash:
        return "fatal_crash";
    }
    return "unknown";
}

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
      case CorruptionKind::SsdBitFlip:
        return "ssd_bit_flip";
      case CorruptionKind::PcieLinkError:
        return "pcie_link_error";
      case CorruptionKind::FpgaUpset:
        return "fpga_upset";
      case CorruptionKind::HostDramFlip:
        return "host_dram_flip";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig &cfg,
                             const FaultTargets &targets, TraceWriter *trace)
    : cfg_(cfg), targets_(targets), trace_(trace),
      readFailRng_(mix64(cfg.seed ^ kReadFailStream)),
      windows_(cfg.seed, windowClasses(cfg, targets))
{
    panic_if(cfg_.ssdReadFailureProb < 0.0 ||
                 cfg_.ssdReadFailureProb >= 1.0,
             "ssdReadFailureProb must be in [0, 1), got %g",
             cfg_.ssdReadFailureProb);
    panic_if(cfg_.stragglerFactor < 1.0,
             "stragglerFactor must be >= 1, got %g", cfg_.stragglerFactor);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k) {
        const auto kind = static_cast<CorruptionKind>(k);
        const double p = cfg_.corruption.probFor(kind);
        panic_if(p < 0.0 || p >= 1.0,
                 "corruption probability for %s must be in [0, 1), got %g",
                 corruptionKindName(kind), p);
        corruptionRngs_[k] = Rng(mix64(cfg.seed ^ corruptionStreamTag(kind)));
    }
}

struct FaultInjector::Retry
{
    std::size_t budget;    ///< retries before the chunk is dropped
    std::size_t &retried;  ///< counts retries
    std::size_t &dropped;  ///< counts dropped chunks
    const char *retryName; ///< trace instant of a retry
    const char *dropName;  ///< trace instant of a drop
};

ChainStep
FaultInjector::afterStage(ChainRetryState &chain, std::size_t idx, bool read,
                          unsigned hops, bool verifies, bool verified,
                          const std::string &track)
{
    if (read) {
        // The read stream draws only when its probability is > 0, so a
        // failure-free scenario is unperturbed.
        if (cfg_.ssdReadFailureProb > 0.0 &&
            readFailRng_.uniform() < cfg_.ssdReadFailureProb)
            return retry({kMaxReadRetries, stats_.ssdRetries,
                          stats_.chunksAbandoned, "read_retry",
                          "chunk_abandoned"},
                         chain.readAttempts, idx, track);
        chain.readAttempts = 0;
    }

    Time replay = 0.0;
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k) {
        // Like the read stream, a kind draws only when its probability
        // is > 0.
        const auto kind = static_cast<CorruptionKind>(k);
        const double p = cfg_.corruption.probFor(kind);
        if (!(hops & corruptionBit(kind)) || p <= 0.0 ||
            !(corruptionRngs_[k].uniform() < p))
            continue;
        ++integrity_.injectedByKind[k];
        instant(track, corruptionKindName(kind));
        switch (kind) {
          case CorruptionKind::PcieLinkError:
            ++integrity_.detected;
            ++integrity_.pcieReplays;
            replay += kPcieReplayLatency;
            break;
          case CorruptionKind::HostDramFlip:
            ++integrity_.detected;
            break;
          case CorruptionKind::SsdBitFlip:
          case CorruptionKind::FpgaUpset:
            if (verified) {
                ++integrity_.detected;
                ++chain.pendingCorruptions;
            } else {
                ++integrity_.escaped;
            }
            break;
        }
    }

    if (verifies && chain.pendingCorruptions > 0) {
        // The verify caught the pending flip(s): re-read the chunk.
        chain.pendingCorruptions = 0;
        return retry({kMaxIntegrityRecoveries, integrity_.recoveries,
                      integrity_.chunksQuarantined, "integrity_recover",
                      "chunk_quarantined"},
                     chain.recoveries, 0, track);
    }
    return {.stage = idx + 1, .delay = replay};
}

/**
 * The bounded retry failed reads and verify catches share: retry k
 * (k = 0, 1, ...) runs @p stage again after kRetryBackoffBase·2^k, and
 * once @p attempts reaches the budget the chunk is dropped and the
 * chain restarts on fresh data.
 */
ChainStep
FaultInjector::retry(const Retry &rule, std::size_t &attempts,
                     std::size_t stage, const std::string &track)
{
    if (attempts < rule.budget) {
        const Time backoff = kRetryBackoffBase *
            static_cast<double>(std::uint64_t{1} << attempts);
        ++attempts;
        ++rule.retried;
        instant(track, rule.retryName);
        return {.stage = stage, .delay = backoff};
    }
    ++rule.dropped;
    instant(track, rule.dropName);
    return {.restart = true};
}

Time
FaultInjector::computeTime(std::size_t group, std::size_t step, Time nominal,
                           const std::string &track)
{
    // A pure hash of (seed, group, step): order-independent.
    const std::uint64_t h =
        mix64(cfg_.seed ^ kStragglerStream ^
              mix64(group * 0x9e3779b97f4a7c15ull + step + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53; // in [0, 1)
    if (!(u < cfg_.stragglerProb && cfg_.stragglerFactor > 1.0))
        return nominal;
    ++stats_.stragglerSteps;
    const Time duration = nominal * cfg_.stragglerFactor;
    // Straggler-tolerant barrier: if waiting the straggler out costs
    // more than aborting at the timeout and re-running the group's
    // compute from scratch, re-dispatch.
    const double tf = cfg_.stepTimeoutFactor;
    const Time timeout = nominal * tf;
    if (!(tf > 0.0 && timeout + nominal < duration))
        return duration;
    ++stats_.computeRedispatches;
    if (trace_)
        trace_->instant(track, "compute_redispatch", eq_->now() + timeout,
                        "fault");
    return timeout + nominal;
}

bool
FaultInjector::failover()
{
    if (cfg_.poolFailover)
        ++stats_.prepFailovers;
    return cfg_.poolFailover;
}

void
FaultInjector::instant(const std::string &track, const char *name) const
{
    if (trace_)
        trace_->instant(track, name, eq_->now(), "fault");
}

void
FaultInjector::arm(EventQueue &eq, FaultHandler onFault,
                   FaultHandler onRepair)
{
    eq_ = &eq;
    onFault_ = std::move(onFault);
    onRepair_ = std::move(onRepair);
    windows_.arm(eq, [this](const Window &w) {
        const FaultEvent ev = toEvent(cfg_, targets_, w);
        ++stats_.faultsInjected;
        if (openWindows_++ == 0)
            degradedStart_ = eq_->now();
        if (trace_)
            trace_->complete("faults", faultKindName(ev.kind), ev.start,
                             ev.duration, "fault");
        if (onFault_)
            onFault_(ev);
        eq_->schedule(windows_.origin() + ev.start + ev.duration,
                      [this, ev] {
            if (stopped_)
                return;
            if (onRepair_)
                onRepair_(ev);
            if (--openWindows_ == 0)
                stats_.degradedTime += eq_->now() - degradedStart_;
        });
    });
}

void
FaultInjector::stop()
{
    disarm();
    stopped_ = true;
    // Windows still open never see their repair: close them now.
    if (openWindows_ > 0) {
        stats_.degradedTime += eq_->now() - degradedStart_;
        openWindows_ = 0;
    }
    // Every failed read was retried or abandoned, and every strike has
    // its kind: derive the totals rather than count them twice.
    stats_.readFailures = stats_.ssdRetries + stats_.chunksAbandoned;
    integrity_.injected =
        std::accumulate(integrity_.injectedByKind.begin(),
                        integrity_.injectedByKind.end(), std::size_t{0});
    panic_if(integrity_.detected + integrity_.escaped != integrity_.injected,
             "integrity invariant violated: %zu detected + %zu escaped != "
             "%zu injected",
             integrity_.detected, integrity_.escaped, integrity_.injected);
}

std::vector<FaultEvent>
FaultInjector::schedule(const FaultConfig &cfg, const FaultTargets &targets,
                        Time horizon)
{
    std::vector<FaultEvent> events;
    WindowStream windows(cfg.seed, windowClasses(cfg, targets));
    for (const Window &w : windows.windowsBefore(horizon))
        events.push_back(toEvent(cfg, targets, w));
    return sortedByTime(std::move(events), &FaultEvent::start);
}

// --- fleet-level faults -------------------------------------------------

namespace {

std::uint64_t
fleetClassStreamTag(FleetFaultKind kind)
{
    return 0x464c454554ull + static_cast<std::uint64_t>(kind);
}

} // namespace

const char *
fleetFaultKindName(FleetFaultKind kind)
{
    switch (kind) {
      case FleetFaultKind::HostOutage:
        return "host_outage";
      case FleetFaultKind::BoxLoss:
        return "box_loss";
      case FleetFaultKind::PoolPartition:
        return "pool_partition";
    }
    return "unknown";
}

std::vector<FleetFaultEvent>
FleetFaultInjector::schedule(const FleetFaultConfig &cfg,
                             std::size_t numHosts, Time horizon)
{
    std::vector<FleetFaultEvent> events;
    if (!cfg.enabled)
        return events;
    // Scripted windows first: they sort ahead of same-instant seeded
    // windows, so a hand-written scenario always plays as written.
    events = cfg.schedule;
    // Seeded streams, indexed by FleetFaultKind: aggregate rate
    // numTargets / mtbf, uniform victim. Bounded by the horizon — fleet
    // validation requires horizon > 0 when any class is active.
    struct FleetClass
    {
        const FleetFaultClassConfig &cc;
        std::size_t numTargets;
        std::size_t units;
    };
    const FleetClass table[] = {
        {cfg.hostOutage, numHosts, 1},
        {cfg.boxLoss, numHosts, cfg.boxLossUnits},
        {cfg.poolPartition, 1, cfg.poolPartitionFpgas},
    };
    std::vector<WindowClass> classes;
    for (int k = 0; k < static_cast<int>(std::size(table)); ++k) {
        const FleetClass &fc = table[k];
        if (fc.cc.mtbf <= 0.0 || fc.numTargets == 0)
            continue;
        classes.push_back(
            {k, fleetClassStreamTag(static_cast<FleetFaultKind>(k)),
             static_cast<double>(fc.numTargets) / fc.cc.mtbf, fc.numTargets,
             0.0, fc.cc.mttr});
    }
    WindowStream windows(cfg.seed, classes);
    for (const Window &w : windows.windowsBefore(horizon)) {
        const FleetClass &fc = table[w.kind];
        events.push_back({static_cast<FleetFaultKind>(w.kind), w.target,
                          w.start, fc.cc.mttr, fc.units});
    }
    return sortedByTime(std::move(events), &FleetFaultEvent::start);
}

FleetFaultInjector::FleetFaultInjector(const FleetFaultConfig &cfg,
                                       std::size_t numHosts, Time horizon)
    : events_(schedule(cfg, numHosts, horizon))
{
}

void
FleetFaultInjector::arm(EventQueue &eq, Handler onFault, Handler onRepair)
{
    onFault_ = std::move(onFault);
    onRepair_ = std::move(onRepair);
    // The whole schedule is known upfront, so play it eagerly. Each
    // fault schedules its own repair from inside its callback: a
    // zero-length window then still runs fault before repair (the
    // repair's sequence number is necessarily larger).
    const Time origin = eq.now();
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const FleetFaultEvent ev = events_[i];
        eq.schedule(origin + ev.start, [this, &eq, origin, ev, i] {
            ++faultsInjected_;
            if (onFault_)
                onFault_(ev, i);
            eq.schedule(origin + ev.start + ev.duration, [this, ev, i] {
                if (onRepair_)
                    onRepair_(ev, i);
            });
        });
    }
}

} // namespace tb
