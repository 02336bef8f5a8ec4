/**
 * @file
 * Tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"

namespace tb {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3.0, [&] { order.push_back(3); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

TEST(EventQueue, TieBrokenByInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1.0, [&] { order.push_back(0); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(1.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInUsesRelativeTime)
{
    EventQueue eq;
    double fired_at = -1.0;
    eq.schedule(2.0, [&] {
        eq.scheduleIn(1.5, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue eq;
    EventId id = eq.schedule(1.0, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.schedule(5.0, [&] { ++count; });
    eq.run(2.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(eq.now(), 2.0);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.schedule(2.0, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleIn(0.5, chain);
    };
    eq.scheduleIn(0.5, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
    EXPECT_EQ(eq.numExecuted(), 10u);
}

TEST(EventQueue, CancelUnderLoad)
{
    // Regression for the O(n)-per-cancel removal path: thousands of
    // cancels against a large pending set, interleaved with execution.
    // Each cancel is O(log n); the test asserts the survivors run in
    // exactly the right order and count.
    EventQueue eq;
    constexpr int kEvents = 20000;
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    std::vector<int> fired;
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(eq.schedule(static_cast<Time>(i) * 0.001,
                                  [&fired, i] { fired.push_back(i); }));
    }
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents));

    // Cancel every odd event (half the set).
    for (int i = 1; i < kEvents; i += 2)
        EXPECT_TRUE(eq.cancel(ids[i]));
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents / 2));

    // A second cancel of an already-cancelled event reports false.
    for (int i = 1; i < 100; i += 2)
        EXPECT_FALSE(eq.cancel(ids[i]));

    eq.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents / 2));
    for (int i = 0; i < kEvents / 2; ++i)
        EXPECT_EQ(fired[i], 2 * i) << "at " << i;
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelRescheduleChurn)
{
    // The fluid network's pattern: one pending completion event that is
    // cancelled and rescheduled on every mutation.
    EventQueue eq;
    int fired = 0;
    EventId pending{};
    for (int i = 0; i < 10000; ++i) {
        eq.cancel(pending);
        pending = eq.scheduleIn(1.0 + i * 1e-6, [&fired] { ++fired; });
    }
    // Every cancel removed its event: one stays pending.
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SizeAndEmptyIgnoreTombstones)
{
    EventQueue eq;
    EventId a = eq.schedule(1.0, [] {});
    EventId b = eq.schedule(2.0, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.cancel(b);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NextTimeSkipsCancelledTop)
{
    EventQueue eq;
    EventId early = eq.schedule(1.0, [] {});
    eq.schedule(3.0, [] {});
    EXPECT_DOUBLE_EQ(eq.nextTime(), 1.0);
    eq.cancel(early);
    EXPECT_DOUBLE_EQ(eq.nextTime(), 3.0);
}

TEST(EventQueue, StaleIdAfterSlotReuseCancelsNothing)
{
    EventQueue eq;
    int fired = 0;
    // A fired event's slot goes to the next schedule.
    EventId first = eq.schedule(1.0, [&fired] { fired += 1; });
    ASSERT_TRUE(eq.step());
    EventId second = eq.schedule(2.0, [&fired] { fired += 10; });
    ASSERT_EQ(second.slot, first.slot);
    EXPECT_FALSE(eq.cancel(first));
    EXPECT_EQ(eq.size(), 1u);

    // So does a cancelled event's.
    const EventId cancelled = second;
    EXPECT_TRUE(eq.cancel(second));
    EventId third = eq.schedule(3.0, [&fired] { fired += 100; });
    ASSERT_EQ(third.slot, cancelled.slot);
    EventId stale = cancelled;
    EXPECT_FALSE(eq.cancel(stale));
    EXPECT_EQ(eq.size(), 1u);

    eq.run();
    EXPECT_EQ(fired, 101);
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

// A seeded script of schedules at colliding times, cancels of pending,
// fired, stale and top-of-heap events, callbacks that schedule and
// cancel other events, single steps and run(until) stops. A std::set
// of (time, schedule order) pairs is the reference: every event must
// fire as its smallest element, and after every operation the queue's
// size(), empty() and nextTime() must match it.
TEST(EventQueue, RandomizedScriptMatchesOrderedSetReference)
{
    struct Ev
    {
        Time when;
        EventId id; ///< a copy: cancel() clears only the one it is given
    };

    EventQueue eq;
    Rng rng(20261019);
    std::vector<Ev> evs; ///< every event ever scheduled, by order
    std::set<std::pair<Time, std::size_t>> pending; ///< (when, order)
    std::size_t fired = 0;
    std::size_t cancelled = 0;
    std::size_t staleCancels = 0;
    std::size_t maxPending = 0;

    // Times are multiples of 1/8 up to @p steps eighths ahead of now(),
    // so they collide often and exactly.
    auto pickTime = [&](std::int64_t steps) {
        return eq.now() +
            0.125 * static_cast<double>(rng.uniformInt(0, steps));
    };

    std::function<void()> scheduleOne;
    auto cancelOne = [&](bool top) {
        if (evs.empty())
            return;
        // A random pick from the 256 newest events finds pending, fired
        // and cancelled ones alike.
        const auto n = static_cast<std::int64_t>(evs.size());
        const std::size_t i = top && !pending.empty()
            ? pending.begin()->second
            : static_cast<std::size_t>(
                  rng.uniformInt(std::max<std::int64_t>(0, n - 256), n - 1));
        const bool live = pending.erase({evs[i].when, i}) == 1;
        EventId id = evs[i].id;
        EXPECT_EQ(eq.cancel(id), live) << "event " << i;
        EXPECT_FALSE(id.valid());
        if (live)
            ++cancelled;
        else
            ++staleCancels;
    };
    auto onFire = [&](std::size_t i) {
        ASSERT_FALSE(pending.empty()) << "event " << i;
        EXPECT_EQ(pending.begin()->second, i) << "out of order";
        EXPECT_EQ(eq.now(), evs[i].when);
        pending.erase({evs[i].when, i});
        ++fired;
        // One in four callbacks schedules another event, one in five
        // cancels one.
        if (rng.uniformInt(0, 3) == 0)
            scheduleOne();
        if (rng.uniformInt(0, 4) == 0)
            cancelOne(false);
    };
    scheduleOne = [&] {
        const Time when = pickTime(63);
        const std::size_t i = evs.size();
        evs.push_back({when, eq.schedule(when, [&onFire, i] { onFire(i); })});
        pending.insert({when, i});
    };
    auto expectMatches = [&](int op) {
        ASSERT_EQ(eq.size(), pending.size()) << "after op " << op;
        ASSERT_EQ(eq.empty(), pending.empty()) << "after op " << op;
        if (!pending.empty()) {
            ASSERT_EQ(eq.nextTime(), pending.begin()->first)
                << "after op " << op;
        }
    };

    constexpr int kOps = 20000;
    for (int op = 0; op < kOps && !HasFailure(); ++op) {
        const std::int64_t r = rng.uniformInt(0, 99);
        if (r < 45) {
            scheduleOne();
        } else if (r < 60) {
            cancelOne(false);
        } else if (r < 65) {
            cancelOne(true);
        } else if (r < 97) {
            const bool any = !pending.empty();
            EXPECT_EQ(eq.step(), any);
        } else {
            const Time until = pickTime(7);
            eq.run(until);
            EXPECT_EQ(eq.now(), until);
            if (!pending.empty()) {
                EXPECT_GT(pending.begin()->first, until);
            }
        }
        expectMatches(op);
        maxPending = std::max(maxPending, pending.size());
    }
    eq.run();
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(eq.numExecuted(), fired);
    EXPECT_EQ(fired + cancelled + pending.size(), evs.size());
    // The script reached every case it claims to.
    EXPECT_GT(cancelled, 1000u);
    EXPECT_GT(staleCancels, 1000u);
    EXPECT_GT(fired, 5000u);
    EXPECT_GT(maxPending, 64u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(5.0, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(1.0, [] {}), "past");
}

// The heap needs a strict order on its keys, and NaN compares false
// both ways.
TEST(EventQueueDeath, SchedulingAtNaNPanics)
{
    EventQueue eq;
    eq.schedule(2.0, [] {});
    EXPECT_DEATH(eq.schedule(std::nan(""), [] {}), "NaN");
    EXPECT_DEATH(eq.scheduleIn(std::nan(""), [] {}), "NaN");
}

// run(until) sets the clock to its bound, so a bound behind the clock
// would turn time back and let schedule() accept times before events
// that already ran. A negative bound used to mean "no bound" and ran the
// whole queue.
TEST(EventQueueDeath, RunUntilBehindTheClockPanics)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(5.0, [&] { ++ran; });
    eq.schedule(5.0, [&] { ++ran; });
    eq.schedule(9.0, [&] { ++ran; });
    EXPECT_DEATH(eq.run(-0.5), "back");
    ASSERT_TRUE(eq.step());
    eq.run(5.0); // a bound at the clock runs what is due and stays put
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 5.0);
    EXPECT_DEATH(eq.run(2.0), "back");
    EXPECT_DEATH(eq.run(std::nan("")), "NaN");
    eq.run();
    EXPECT_EQ(ran, 3);
}

TEST(EventQueueDeath, NextTimeOnEmptyPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.nextTime(), "empty");
}

} // namespace
} // namespace tb
