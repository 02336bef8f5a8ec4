/**
 * @file
 * The shared simulation core: one timeline, one contention engine.
 *
 * Historically every TrainingSession privately owned its event queue,
 * clock, fluid network, and metrics registry (as value members of
 * Server), so N sessions could never share one simulated timeline.
 * SimulationCore extracts that trio into a first-class object:
 *
 *   - the EventQueue (and with it the simulated clock),
 *   - the FluidNetwork contention engine attached to that queue,
 *   - the MetricsRegistry both of them report into.
 *
 * A standalone Server still constructs a private core, so the
 * single-session API is a thin shim with unchanged semantics; a fleet
 * constructs one core and passes it to every server it builds, giving
 * all jobs one clock and one solver. Each job's disturbance injectors
 * arm onto that clock anchored at the job's start (sim/window_stream.hh).
 *
 * Header-only: the core is pure composition (the heavy lifting lives in
 * EventQueue/FluidNetwork), and keeping it out of libtb_sim avoids a
 * dependency cycle (tb_fluid already links tb_sim).
 */

#ifndef TRAINBOX_SIM_SIMULATION_CORE_HH
#define TRAINBOX_SIM_SIMULATION_CORE_HH

#include <algorithm>

#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"

namespace tb {

/**
 * Owns the discrete-event timeline and the resources every client
 * shares: event queue, fluid network, and metrics registry.
 */
class SimulationCore
{
  public:
    SimulationCore() : net_(eq_) {}

    SimulationCore(const SimulationCore &) = delete;
    SimulationCore &operator=(const SimulationCore &) = delete;

    /** The shared event queue / simulation clock. */
    EventQueue &events() { return eq_; }
    const EventQueue &events() const { return eq_; }

    /** The shared fluid-flow contention engine. */
    FluidNetwork &fluid() { return net_; }
    const FluidNetwork &fluid() const { return net_; }

    /** The shared metrics registry. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** Current simulated time in seconds. */
    Time now() const { return eq_.now(); }

    /**
     * Resize the event queue's tombstone-compaction threshold from the
     * current live-event count. One session keeps the stock threshold;
     * a fleet calls this after each job starts so compaction sweeps
     * stay amortized against the (much larger) live set instead of
     * thrashing at the single-session default. Behavior-neutral: sweeps
     * never reorder live events.
     */
    void
    autosizeCompaction()
    {
        eq_.setCompactionThreshold(
            std::max<std::size_t>(64, 4 * eq_.size()));
    }

  private:
    EventQueue eq_;
    FluidNetwork net_;
    MetricsRegistry metrics_;
};

} // namespace tb

#endif // TRAINBOX_SIM_SIMULATION_CORE_HH
