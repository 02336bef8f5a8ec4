#include "sim/elastic_schedule.hh"

#include <iterator>

#include "common/logging.hh"

namespace tb {

namespace {

/** Stream tag base (keep stable: it defines the timelines). */
constexpr std::uint64_t kElasticStream = 0x454c415354ull;

/**
 * The scenario's live leave classes. A class's kind indexes the four
 * leave classes in declaration order — group drain, group preempt, prep
 * drain, prep preempt — so kind / 2 is its ElasticTargetKind, an even
 * kind is a planned drain, and kElasticStream + kind is its stream tag.
 */
std::vector<WindowClass>
windowClasses(const ElasticityConfig &cfg, const ElasticTargets &targets)
{
    const ElasticClassConfig *leaves[] = {&cfg.groupDrain, &cfg.groupPreempt,
                                          &cfg.prepDrain, &cfg.prepPreempt};
    std::vector<WindowClass> classes;
    for (int k = 0; k < static_cast<int>(std::size(leaves)); ++k) {
        if (leaves[k]->ratePerSec <= 0.0 || targets.numGroups == 0)
            continue;
        // A leave window runs from the leave to the paired join: the
        // grace window of a planned drain, then the absence.
        const bool planned = k % 2 == 0;
        classes.push_back({k, kElasticStream + static_cast<std::uint64_t>(k),
                           leaves[k]->ratePerSec, targets.numGroups,
                           planned ? cfg.graceWindow : 0.0,
                           leaves[k]->absence});
    }
    return classes;
}

/** A leave window's leave and its paired join. */
std::pair<ElasticEvent, ElasticEvent>
toEvents(const Window &w)
{
    const auto target = static_cast<ElasticTargetKind>(w.kind / 2);
    const ElasticAction leave =
        w.kind % 2 == 0 ? ElasticAction::Drain : ElasticAction::Preempt;
    return {{target, leave, w.target, w.start},
            {target, ElasticAction::Join, w.target, w.end}};
}

/** Scale-up joins + explicit schedule (non-random event sources). */
std::vector<ElasticEvent>
fixedEvents(const ElasticityConfig &cfg, const ElasticTargets &targets)
{
    std::vector<ElasticEvent> events = cfg.schedule;
    // Scale-up: the deferred groups (end of the group list) join at
    // scaleUpTime. Their initial detachment is session state, not an
    // event.
    for (std::size_t i = 0; i < cfg.deferredJoinGroups &&
                            i < targets.numGroups;
         ++i)
        events.push_back({ElasticTargetKind::Group, ElasticAction::Join,
                          targets.numGroups - 1 - i, cfg.scaleUpTime});
    return events;
}

} // namespace

const char *
elasticTargetKindName(ElasticTargetKind kind)
{
    switch (kind) {
      case ElasticTargetKind::Group:
        return "group";
      case ElasticTargetKind::Prep:
        return "prep";
    }
    return "unknown";
}

const char *
elasticActionName(ElasticAction action)
{
    switch (action) {
      case ElasticAction::Drain:
        return "drain";
      case ElasticAction::Preempt:
        return "preempt";
      case ElasticAction::Join:
        return "join";
    }
    return "unknown";
}

ElasticScheduler::ElasticScheduler(const ElasticityConfig &cfg,
                                   const ElasticTargets &targets)
    : cfg_(cfg), targets_(targets),
      windows_(cfg.seed, windowClasses(cfg, targets))
{
    panic_if(cfg_.graceWindow < 0.0,
             "elasticity.graceWindow must be >= 0, got %g",
             cfg_.graceWindow);
    panic_if(cfg_.rejoinLatency < 0.0,
             "elasticity.rejoinLatency must be >= 0, got %g",
             cfg_.rejoinLatency);
    panic_if(cfg_.deferredJoinGroups >= targets.numGroups &&
                 cfg_.deferredJoinGroups > 0,
             "elasticity.deferredJoinGroups (%zu) must leave at least "
             "one of the %zu groups active",
             cfg_.deferredJoinGroups, targets.numGroups);
}

void
ElasticScheduler::deliver(const ElasticEvent &ev)
{
    ++delivered_;
    if (handler_)
        handler_(ev);
}

void
ElasticScheduler::arm(EventQueue &eq, Handler handler)
{
    handler_ = std::move(handler);
    // Anchor the job-relative schedule at the current clock (0 for the
    // historical standalone run, so x + 0.0 leaves every time exact).
    const Time origin = eq.now();
    for (const ElasticEvent &ev : fixedEvents(cfg_, targets_))
        eq.schedule(origin + ev.at, [this, ev] { deliver(ev); });
    windows_.arm(eq, [this, &eq](const Window &w) {
        const auto [leave, join] = toEvents(w);
        deliver(leave);
        eq.schedule(windows_.origin() + join.at,
                    [this, join] { deliver(join); });
    });
}

std::vector<ElasticEvent>
ElasticScheduler::schedule(const ElasticityConfig &cfg,
                           const ElasticTargets &targets, Time horizon)
{
    std::vector<ElasticEvent> events;
    for (const ElasticEvent &ev : fixedEvents(cfg, targets))
        if (ev.at < horizon)
            events.push_back(ev);
    WindowStream windows(cfg.seed, windowClasses(cfg, targets));
    for (const Window &w : windows.windowsBefore(horizon)) {
        const auto [leave, join] = toEvents(w);
        events.push_back(leave);
        if (join.at < horizon)
            events.push_back(join);
    }
    return sortedByTime(std::move(events), &ElasticEvent::at);
}

} // namespace tb
