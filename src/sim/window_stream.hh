/**
 * @file
 * The seeded window generator behind every disturbance injector.
 *
 * Windowed faults, elastic membership, streaming ingest and fleet-level
 * outages all draw their schedules the same way. Each *class* (one
 * fault kind, one leave flavor, one traffic class) is an independent
 * stream of windows: the gap before a window is exponential at the
 * class's rate and is measured from the end of the class's previous
 * window, so one class's windows never overlap. Every draw comes from a
 * tb::Rng seeded with mix64(seed ^ tag), so a (seed, class table) pair
 * is a pure description of the schedule.
 *
 * WindowStream owns that algorithm. An injector supplies its class
 * table and maps each drawn Window to its own event type; the stream
 * either plays the windows lazily onto an EventQueue (arm(), one pending
 * event per class, chained as each fires) or enumerates them up to a
 * horizon for a preview (windowsBefore() + sortedByTime()). Both draw
 * the same sequence, so a preview is exactly what arm() plays, shifted
 * by the clock reading at arm() time.
 */

#ifndef TRAINBOX_SIM_WINDOW_STREAM_HH
#define TRAINBOX_SIM_WINDOW_STREAM_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"

namespace tb {

/** One class of windows: its stream, arrival rate, victims and span. */
struct WindowClass
{
    /** The injector's own class id (its kind enum), copied to windows. */
    int kind = 0;

    /** Stream tag mixed into the seed (keep stable: defines schedules). */
    std::uint64_t tag = 0;

    /** Window arrivals per simulated second (> 0). */
    double rate = 0.0;

    /** Victim space each window draws from; 0 draws no victim. */
    std::size_t numTargets = 0;

    /**
     * A window ends at (start + grace) + length, summed in that order;
     * the class's next gap is measured from that end. Only elastic
     * drains have a grace (the notice before the member leaves).
     */
    Time grace = 0.0;
    Time length = 0.0;
};

/** One drawn window, in job-relative time. */
struct Window
{
    int kind = 0;           ///< WindowClass::kind of the drawing class
    std::size_t target = 0; ///< victim (0 when the class draws none)
    Time start = 0.0;
    Time end = 0.0;
};

/**
 * Per-class window streams over one class table. Construct one per
 * run; arm() and windowsBefore() consume the same streams, so use a
 * fresh WindowStream for each.
 */
class WindowStream
{
  public:
    WindowStream(std::uint64_t seed, const std::vector<WindowClass> &classes);

    // Armed events hold this stream's address.
    WindowStream(const WindowStream &) = delete;
    WindowStream &operator=(const WindowStream &) = delete;

    /** Draw class @p c's next window (classes in table order). */
    Window next(std::size_t c);

    /**
     * Every window that starts before @p horizon, class by class in
     * table order (merge with sortedByTime()).
     */
    std::vector<Window> windowsBefore(Time horizon);

    using Fire = std::function<void(const Window &)>;

    /**
     * Play the windows onto @p eq, anchored at its current clock: each
     * class keeps one pending event at origin() + start, scheduled in
     * table order. When it fires, @p fire runs (it may schedule the
     * window's end event), then the class chains its next window, so
     * the schedule extends as far as the simulation runs.
     */
    void arm(EventQueue &eq, Fire fire);

    /**
     * Stop playing: cancel every class's pending event. Safe from inside
     * @p fire, where it also stops the firing class from chaining. End
     * events @p fire already scheduled still run.
     */
    void disarm();

    /** Clock reading at arm(): windows are job-relative, the queue not. */
    Time origin() const { return origin_; }

  private:
    struct Stream
    {
        WindowClass cls;
        Rng rng;
        Time prevEnd = 0.0;
    };

    void chain(std::size_t c);

    std::vector<Stream> streams_;
    EventQueue *eq_ = nullptr;
    Fire fire_;
    std::vector<EventId> pending_;
    Time origin_ = 0.0;
    bool armed_ = false;
};

/**
 * Merge a preview into time order by @p at. The sort is stable, so ties
 * keep insertion order: fixed events first, then class table order.
 */
template <typename Event>
std::vector<Event>
sortedByTime(std::vector<Event> events, Time Event::*at)
{
    std::stable_sort(events.begin(), events.end(),
                     [at](const Event &a, const Event &b) {
                         return a.*at < b.*at;
                     });
    return events;
}

} // namespace tb

#endif // TRAINBOX_SIM_WINDOW_STREAM_HH
