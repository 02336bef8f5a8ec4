#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

EventId
EventQueue::schedule(Time when, Callback cb)
{
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
    ++live_;
    heap_.push_back(Entry{key, slot});
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
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
    slots_[slot].seq = 0;
    freeSlots_.push_back(slot);
    --live_;
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
    // The heap entry stays behind as a tombstone; sweep when tombstones
    // dominate so cancel-heavy workloads stay O(1) amortized.
    if (pending && heap_.size() >= compactMinHeap_ &&
        heap_.size() > 2 * live_)
        compact();
    return pending;
}

void
EventQueue::purgeTop() const
{
    while (!heap_.empty() && !live(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
        heap_.pop_back();
    }
}

void
EventQueue::compact()
{
    std::erase_if(heap_, [this](const Entry &e) { return !live(e); });
    std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

Time
EventQueue::nextTime() const
{
    panic_if(live_ == 0, "nextTime() on empty event queue");
    purgeTop();
    return heap_.front().key.when;
}

bool
EventQueue::step()
{
    if (live_ == 0)
        return false;
    purgeTop();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    const Entry entry = heap_.back();
    heap_.pop_back();
    Callback cb = std::move(slots_[entry.slot].cb);
    release(entry.slot);
    now_ = entry.key.when;
    ++numExecuted_;
    cb();
    return true;
}

void
EventQueue::run(Time until)
{
    while (live_ != 0) {
        purgeTop();
        if (until >= 0.0 && heap_.front().key.when > until) {
            now_ = until;
            return;
        }
        step();
    }
    if (until >= 0.0 && now_ < until)
        now_ = until;
}

} // namespace tb
