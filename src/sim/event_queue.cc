#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

EventId
EventQueue::schedule(Time when, Callback cb)
{
    panic_if(when < now_, "scheduling event in the past (%g < %g)",
             when, now_);
    const Key key{when, nextSeq_++};
    heap_.push_back(Entry{key, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
    pending_.insert(key.seq);
    return EventId{key.seq};
}

EventId
EventQueue::scheduleIn(Time delay, Callback cb)
{
    panic_if(delay < 0.0, "negative event delay %g", delay);
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId &id)
{
    if (!id.valid())
        return false;
    const bool live = pending_.erase(id.seq) > 0;
    id.invalidate();
    // The heap entry stays behind as a tombstone; sweep when tombstones
    // dominate so cancel-heavy workloads stay O(1) amortized.
    if (live && heap_.size() >= compactMinHeap_ &&
        heap_.size() > 2 * pending_.size())
        compact();
    return live;
}

void
EventQueue::purgeTop() const
{
    while (!heap_.empty() &&
           pending_.find(heap_.front().key.seq) == pending_.end()) {
        std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
        heap_.pop_back();
    }
}

void
EventQueue::compact()
{
    std::erase_if(heap_, [this](const Entry &e) {
        return pending_.find(e.key.seq) == pending_.end();
    });
    std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

Time
EventQueue::nextTime() const
{
    panic_if(pending_.empty(), "nextTime() on empty event queue");
    purgeTop();
    return heap_.front().key.when;
}

bool
EventQueue::step()
{
    if (pending_.empty())
        return false;
    purgeTop();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(entry.key.seq);
    now_ = entry.key.when;
    ++numExecuted_;
    entry.cb();
    return true;
}

void
EventQueue::run(Time until)
{
    while (!pending_.empty()) {
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
