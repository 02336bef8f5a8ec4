#include "sim/fault_injector.hh"

#include <iterator>

#include "common/logging.hh"

namespace tb {

namespace {

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
        {FaultKind::PrepCrash, targets.numGroups},
        {FaultKind::EthDegrade, 1},
        {FaultKind::RouteLoss, targets.numGroups},
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
toEvent(const FaultConfig &cfg, const Window &w)
{
    const auto kind = static_cast<FaultKind>(w.kind);
    const FaultClassConfig cc = classConfig(cfg, kind);
    return {kind, w.target, w.start, cc.duration, cc.magnitude};
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
                             const FaultTargets &targets)
    : cfg_(cfg),
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

bool
FaultInjector::ssdReadAttemptFails()
{
    if (cfg_.ssdReadFailureProb <= 0.0)
        return false;
    const bool fails = readFailRng_.uniform() < cfg_.ssdReadFailureProb;
    if (fails)
        ++readFailures_;
    return fails;
}

bool
FaultInjector::corruptionStrikes(CorruptionKind kind)
{
    const double p = cfg_.corruption.probFor(kind);
    if (p <= 0.0)
        return false;
    const auto k = static_cast<std::size_t>(kind);
    const bool strikes = corruptionRngs_[k].uniform() < p;
    if (strikes)
        ++corruptions_[k];
    return strikes;
}

std::size_t
FaultInjector::corruptionsInjected() const
{
    std::size_t total = 0;
    for (std::size_t n : corruptions_)
        total += n;
    return total;
}

double
FaultInjector::stragglerFactor(std::size_t group, std::size_t step) const
{
    if (cfg_.stragglerProb <= 0.0)
        return 1.0;
    const std::uint64_t h = mix64(
        cfg_.seed ^ kStragglerStream ^
        mix64(group * 0x9e3779b97f4a7c15ull + step + 1));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53; // uniform in [0, 1)
    return u < cfg_.stragglerProb ? cfg_.stragglerFactor : 1.0;
}

void
FaultInjector::arm(EventQueue &eq, FaultHandler onFault,
                   FaultHandler onRepair)
{
    onFault_ = std::move(onFault);
    onRepair_ = std::move(onRepair);
    windows_.arm(eq, [this, &eq](const Window &w) {
        const FaultEvent ev = toEvent(cfg_, w);
        ++faultsInjected_;
        if (onFault_)
            onFault_(ev);
        eq.schedule(windows_.origin() + ev.start + ev.duration, [this, ev] {
            if (onRepair_)
                onRepair_(ev);
        });
    });
}

std::vector<FaultEvent>
FaultInjector::schedule(const FaultConfig &cfg, const FaultTargets &targets,
                        Time horizon)
{
    std::vector<FaultEvent> events;
    WindowStream windows(cfg.seed, windowClasses(cfg, targets));
    for (const Window &w : windows.windowsBefore(horizon))
        events.push_back(toEvent(cfg, w));
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
