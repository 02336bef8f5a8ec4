/**
 * @file
 * Discrete-event simulation core.
 *
 * The queue holds (time, sequence) ordered callbacks. Components schedule
 * std::function callbacks; scheduled events can be cancelled via the
 * EventId handle. Time is continuous (seconds, double).
 *
 * Each pending event owns one entry of a slot table, which holds its
 * callback and its sequence number; free entries are reused, so the
 * table never outgrows the heap. The binary min-heap holds only
 * (time, sequence, slot) keys and uses *lazy deletion*: cancel() frees
 * the event's slot (O(1)), and its heap key becomes a tombstone that is
 * discarded when it surfaces at the top, or swept out when tombstones
 * outnumber live events (see docs/PERFORMANCE.md, "Event-queue lazy
 * cancel"). Execution order is the strict total order (when, seq), so a
 * heap rebuild never reorders live events.
 */

#ifndef TRAINBOX_SIM_EVENT_QUEUE_HH
#define TRAINBOX_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hh"

namespace tb {

/**
 * Handle identifying a scheduled event; usable for cancellation. The
 * event is pending while its slot still holds its sequence number, so
 * the handle of a fired or cancelled event finds nothing, even once a
 * newer event reuses the slot.
 */
struct EventId
{
    std::uint64_t seq = 0;  ///< insertion order (1, 2, ...); 0 = none
    std::uint32_t slot = 0; ///< the event's slot-table entry

    bool valid() const { return seq != 0; }
    void invalidate() { seq = 0; }
};

/**
 * The event queue / simulation clock.
 *
 * Events at equal timestamps run in insertion order.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in seconds. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @return a handle usable with cancel().
     */
    EventId schedule(Time when, Callback cb);

    /** Schedule @p cb to run @p delay seconds from now. */
    EventId scheduleIn(Time delay, Callback cb);

    /** Cancel a pending event. Returns false if already fired/cancelled. */
    bool cancel(EventId &id);

    /** True when no live events remain (tombstones don't count). */
    bool empty() const { return live_ == 0; }

    /** Number of pending (live) events. */
    std::size_t size() const { return live_; }

    /** Time of the next pending event; panics when empty. */
    Time nextTime() const;

    /** Run a single event. Returns false when the queue is empty. */
    bool step();

    /** Run until the queue is empty or @p until is reached (inclusive). */
    void run(Time until = -1.0);

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /**
     * Minimum heap size before cancel() considers a tombstone sweep.
     * Below the threshold compaction is skipped entirely; above it a
     * sweep still requires tombstones to outnumber live events 2:1.
     * Compaction never reorders live events, so retuning the threshold
     * at any point is behavior-neutral — it only shifts when the
     * amortized O(n) sweeps happen. Long-lived multi-session cores size
     * this from the live-event count (see SimulationCore) so fleet-scale
     * churn doesn't thrash rebuilds.
     */
    void setCompactionThreshold(std::size_t minHeap)
    {
        compactMinHeap_ = minHeap;
    }

  private:
    struct Key
    {
        Time when;
        std::uint64_t seq;

        bool
        operator<(const Key &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /** A heap key and the slot of the event it was scheduled for. */
    struct Entry
    {
        Key key;
        std::uint32_t slot;
    };

    /** Min-heap comparator (std heap primitives build a max-heap). */
    struct EntryAfter
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return b.key < a.key;
        }
    };

    /** A pending event's callback; seq is 0 while the slot is free. */
    struct Slot
    {
        std::uint64_t seq = 0;
        Callback cb;
    };

    /** Is @p e's event still pending (not fired or cancelled)? */
    bool
    live(const Entry &e) const
    {
        return slots_[e.slot].seq == e.key.seq;
    }

    /** Free @p slot for the next schedule(). */
    void release(std::uint32_t slot);

    /** Drop cancelled entries sitting at the top of the heap. */
    void purgeTop() const;

    /** Sweep all tombstones and re-heapify (amortized by cancel()). */
    void compact();

    /** Default compaction threshold; small queues never sweep. */
    static constexpr std::size_t kDefaultCompactMinHeap = 64;

    Time now_ = 0.0;
    std::size_t compactMinHeap_ = kDefaultCompactMinHeap;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numExecuted_ = 0;

    // mutable so the const observers (nextTime) can discard tombstones;
    // purging never changes observable state.
    mutable std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t live_ = 0; ///< pending events
};

} // namespace tb

#endif // TRAINBOX_SIM_EVENT_QUEUE_HH
