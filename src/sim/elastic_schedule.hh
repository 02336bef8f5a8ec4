/**
 * @file
 * Deterministic elasticity (capacity join/leave) scheduling.
 *
 * Production fleets do not keep the paper's fixed complement of NN
 * accelerators and prep FPGAs for a whole session: spot instances are
 * preempted, boxes are drained for maintenance, and capacity is added
 * mid-run. The scheduler turns an ElasticityConfig into a
 * *reproducible* stream of membership events, exactly like
 * sim/fault_injector.hh turns a FaultConfig into a fault schedule:
 * every decision is drawn from seed-derived tb::Rng streams, so two
 * runs with the same config see the same membership timeline.
 *
 * Two leave flavors are modeled per target kind:
 *
 *  - **planned drains** — the scheduler delivers a drain *notice*; the
 *    session then has ElasticityConfig::graceWindow seconds to finish
 *    in-flight work (and coordinate a checkpoint) before the member
 *    detaches;
 *  - **hard preemptions** — spot-style: the member is gone at the event
 *    instant, in-flight work on it is lost (the session reuses its
 *    crash machinery).
 *
 * Every generated leave is paired with a Join event after the class's
 * configured absence, so randomized schedules always return capacity
 * eventually (a run can still hit zero capacity in between — the
 * session must park, not deadlock). Mid-session scale-up is modeled by
 * deferredJoinGroups: that many groups start detached and join at
 * scaleUpTime. The membership *policy* (state machine, rebalancing,
 * SLO accounting) lives in TrainingSession; see docs/ROBUSTNESS.md,
 * "Elastic capacity & graceful degradation".
 */

#ifndef TRAINBOX_SIM_ELASTIC_SCHEDULE_HH
#define TRAINBOX_SIM_ELASTIC_SCHEDULE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/window_stream.hh"

namespace tb {

/** What kind of member an elastic event targets. */
enum class ElasticTargetKind
{
    Group, ///< a whole train box: its NN accelerators + prep FPGAs
    Prep,  ///< one prep FPGA of a group (the group keeps training)
};

/** What happens to the target at the event instant. */
enum class ElasticAction
{
    Drain,   ///< planned-leave notice; detach after the grace window
    Preempt, ///< spot-style hard leave, effective immediately
    Join,    ///< the member (re)attaches; active after rejoinLatency
};

/** Display names ("group"/"prep", "drain"/"preempt"/"join"). */
const char *elasticTargetKindName(ElasticTargetKind kind);
const char *elasticActionName(ElasticAction action);

/** One scheduled membership event. */
struct ElasticEvent
{
    ElasticTargetKind target = ElasticTargetKind::Group;
    ElasticAction action = ElasticAction::Drain;

    /** Victim prep-group index (for Prep: the group owning the FPGA). */
    std::size_t index = 0;

    Time at = 0.0;
};

/** One randomized leave class: arrival rate and time-away length. */
struct ElasticClassConfig
{
    /** Mean leave arrivals per simulated second (0 = disabled). */
    double ratePerSec = 0.0;

    /**
     * Time between the member detaching and its Join event. For
     * planned drains the absence clock starts at the end of the grace
     * window; for preemptions at the leave instant.
     */
    Time absence = 10.0;
};

/** Full elasticity scenario (ServerConfig::elasticity). */
struct ElasticityConfig
{
    /** Master switch. When false the elastic path costs nothing. */
    bool enabled = false;

    /** Seed for every schedule stream (timelines are reproducible). */
    std::uint64_t seed = 0x656c617374ull;

    /** Notice-to-detach window of a planned drain. */
    Time graceWindow = 5.0;

    /** Join-to-active latency (attach, reconfigure, shard reassign). */
    Time rejoinLatency = 2.0;

    /**
     * SLO floor in samples/s; 0 = no target. Reported as
     * SessionReport::sloAttainment() (achieved / target, capped at 1).
     */
    double sloTargetSamplesPerSec = 0.0;

    /**
     * Mid-session scale-up: this many groups (taken from the end of
     * the group list) start detached and receive a Join at
     * scaleUpTime. Must leave at least one group active at the start.
     */
    std::size_t deferredJoinGroups = 0;
    Time scaleUpTime = 0.0;

    // --- randomized leave classes ------------------------------------
    ElasticClassConfig groupDrain;   ///< planned whole-box drains
    ElasticClassConfig groupPreempt; ///< spot-style whole-box kills
    ElasticClassConfig prepDrain;    ///< planned single-FPGA drains
    ElasticClassConfig prepPreempt;  ///< spot-style single-FPGA kills

    /**
     * Explicit extra events, merged with the generated streams. Must
     * be ordered by `at` (validate() checks); joins the session cannot
     * match to a detached member are ignored.
     */
    std::vector<ElasticEvent> schedule;
};

/** Target-space size the scheduler picks victims from. */
struct ElasticTargets
{
    std::size_t numGroups = 0;
};

/**
 * Draws the membership timeline for one run. Construct one per
 * session; arm() plays the same events schedule() previews.
 */
class ElasticScheduler
{
  public:
    ElasticScheduler(const ElasticityConfig &cfg,
                     const ElasticTargets &targets);

    const ElasticityConfig &config() const { return cfg_; }

    using Handler = std::function<void(const ElasticEvent &)>;

    /**
     * Play the membership schedule onto @p eq. Leaves of one class
     * never overlap (the next leave is drawn from the previous join);
     * different classes may race on one target — the session's state
     * machine drops transitions that no longer apply. Event times are
     * job-relative, anchored at the clock reading when arm() is called
     * (0 for the historical standalone run).
     */
    void arm(EventQueue &eq, Handler handler);

    /**
     * Stop drawing leaves: cancel each class's pending leave. Joins and
     * explicit events already scheduled still fire. Safe from inside
     * the handler.
     */
    void disarm() { windows_.disarm(); }

    /**
     * Deterministically enumerate the events in [0, horizon) without
     * an event queue — what arm() will play, in time order.
     */
    static std::vector<ElasticEvent>
    schedule(const ElasticityConfig &cfg, const ElasticTargets &targets,
             Time horizon);

    /** Events delivered so far (after arm()). */
    std::size_t eventsDelivered() const { return delivered_; }

  private:
    void deliver(const ElasticEvent &ev);

    ElasticityConfig cfg_;
    ElasticTargets targets_;
    WindowStream windows_;
    Handler handler_;
    std::size_t delivered_ = 0;
};

} // namespace tb

#endif // TRAINBOX_SIM_ELASTIC_SCHEDULE_HH
