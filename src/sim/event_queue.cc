#include "sim/event_queue.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace tb {

EventId
EventQueue::schedule(Time when, Callback cb)
{
    // NaN compares false both ways, which would break the heap's order.
    panic_if(std::isnan(when), "scheduling event at NaN time");
    panic_if(when < now_, "scheduling event in the past (%g < %g)",
             when, now_);
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    const Key key{when, nextSeq_++};
    slots_[slot].seq = key.seq;
    slots_[slot].cb = std::move(cb);
    heap_.set(slot, key);
    return EventId{key.seq, slot};
}

EventId
EventQueue::scheduleIn(Time delay, Callback cb)
{
    panic_if(delay < 0.0, "negative event delay %g", delay);
    return schedule(now_ + delay, std::move(cb));
}

void
EventQueue::release(std::uint32_t slot)
{
    heap_.erase(slot);
    slots_[slot].seq = 0;
    freeSlots_.push_back(slot);
}

bool
EventQueue::cancel(EventId &id)
{
    if (!id.valid())
        return false;
    const bool pending =
        id.slot < slots_.size() && slots_[id.slot].seq == id.seq;
    if (pending) {
        slots_[id.slot].cb = nullptr;
        release(id.slot);
    }
    id.invalidate();
    return pending;
}

Time
EventQueue::nextTime() const
{
    panic_if(heap_.empty(), "nextTime() on empty event queue");
    return heap_.topKey().when;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const std::uint32_t slot = heap_.topSlot();
    now_ = heap_.topKey().when;
    Callback cb = std::move(slots_[slot].cb);
    release(slot);
    ++numExecuted_;
    cb();
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

void
EventQueue::run(Time until)
{
    panic_if(std::isnan(until), "running the event queue to NaN time");
    panic_if(until < now_, "running the event queue back to %g (now %g)",
             until, now_);
    while (!heap_.empty() && heap_.topKey().when <= until)
        step();
    now_ = until;
}

} // namespace tb
