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
 * table never outgrows the most events pending at once. An indexed
 * min-heap (common/slot_heap.hh) orders the slots by (time, sequence),
 * so cancel() removes the event's heap entry at once. Execution order
 * is the strict total order (when, seq): events at equal times run in
 * the order they were scheduled.
 */

#ifndef TRAINBOX_SIM_EVENT_QUEUE_HH
#define TRAINBOX_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slot_heap.hh"
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
     * Schedule @p cb to run at absolute time @p when, which must be a
     * number no earlier than now(); a NaN or past time panics.
     * @return a handle usable with cancel().
     */
    EventId schedule(Time when, Callback cb);

    /** Schedule @p cb to run @p delay seconds from now. */
    EventId scheduleIn(Time delay, Callback cb);

    /** Cancel a pending event. Returns false if already fired/cancelled. */
    bool cancel(EventId &id);

    /** True when no event is pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Time of the next pending event; panics when empty. */
    Time nextTime() const;

    /** Run a single event. Returns false when the queue is empty. */
    bool step();

    /** Run until the queue is empty. */
    void run();

    /**
     * Run every event due at or before @p until, then set the clock to
     * @p until. A NaN bound or one earlier than now() panics.
     */
    void run(Time until);

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

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

    /** A pending event's callback; seq is 0 while the slot is free. */
    struct Slot
    {
        std::uint64_t seq = 0;
        Callback cb;
    };

    /** Remove @p slot's event from the heap and free the slot. */
    void release(std::uint32_t slot);

    Time now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numExecuted_ = 0;

    SlotHeap<Key> heap_; ///< pending events' slots by (when, seq)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace tb

#endif // TRAINBOX_SIM_EVENT_QUEUE_HH
