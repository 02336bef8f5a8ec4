/**
 * @file
 * Tests for the fluid-flow contention engine — the analytical heart of
 * the simulator, so these check exact rate allocations and completion
 * times, not just plumbing.
 */

#include <gtest/gtest.h>

#include "fluid/fluid.hh"

namespace tb {
namespace {

struct FluidTest : public ::testing::Test
{
    EventQueue eq;
    FluidNetwork net{eq};
};

TEST_F(FluidTest, SingleFlowRunsAtCapacity)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done_at = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 500.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done_at = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done_at, 5.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 500.0);
}

TEST_F(FluidTest, TwoEqualFlowsShareFairly)
{
    FluidResource *link = net.addResource("link", 100.0);
    std::vector<double> done;
    for (int i = 0; i < 2; ++i) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = 100.0;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        spec.onComplete = [&](Time t) { done.push_back(t); };
        net.startFlow(std::move(spec));
    }
    eq.run();
    // Both at 50 units/s -> both finish at t = 2.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0], 2.0);
    EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST_F(FluidTest, ShortFlowReleasesBandwidth)
{
    FluidResource *link = net.addResource("link", 100.0);
    double long_done = -1.0, short_done = -1.0;
    FlowSpec long_flow;
    long_flow.category = net.internCategory("long");
    long_flow.size = 150.0;
    const std::vector<FlowDemand> long_demands{{link, 1.0}};
    long_flow.demands = long_demands;
    long_flow.onComplete = [&](Time t) { long_done = t; };
    net.startFlow(std::move(long_flow));

    FlowSpec short_flow;
    short_flow.category = net.internCategory("short");
    short_flow.size = 50.0;
    const std::vector<FlowDemand> short_demands{{link, 1.0}};
    short_flow.demands = short_demands;
    short_flow.onComplete = [&](Time t) { short_done = t; };
    net.startFlow(std::move(short_flow));

    eq.run();
    // Shared at 50/s until the short one finishes at t=1 (50 each);
    // the long one then runs at 100/s for its remaining 100 -> t=2.
    EXPECT_DOUBLE_EQ(short_done, 1.0);
    EXPECT_DOUBLE_EQ(long_done, 2.0);
}

TEST_F(FluidTest, RateCapLimitsFlow)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    spec.rateCap = 20.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST_F(FluidTest, CappedFlowLeavesBandwidthToOthers)
{
    FluidResource *link = net.addResource("link", 100.0);
    double capped_done = -1.0, open_done = -1.0;
    FlowSpec capped;
    capped.category = net.internCategory("capped");
    capped.size = 100.0;
    capped.rateCap = 25.0;
    const std::vector<FlowDemand> capped_demands{{link, 1.0}};
    capped.demands = capped_demands;
    capped.onComplete = [&](Time t) { capped_done = t; };
    net.startFlow(std::move(capped));

    FlowSpec open;
    open.category = net.internCategory("open");
    open.size = 150.0;
    const std::vector<FlowDemand> open_demands{{link, 1.0}};
    open.demands = open_demands;
    open.onComplete = [&](Time t) { open_done = t; };
    net.startFlow(std::move(open));

    eq.run();
    // Capped runs at 25, open takes the remaining 75: open finishes at
    // t=2, capped at t=4.
    EXPECT_DOUBLE_EQ(open_done, 2.0);
    EXPECT_DOUBLE_EQ(capped_done, 4.0);
}

TEST_F(FluidTest, WeightedDemandConsumesProportionally)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 10.0; // base units (e.g., samples)
    const std::vector<FlowDemand> demands{{link, 20.0}}; // 20 bytes per sample
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    // 200 bytes at 100 B/s.
    EXPECT_DOUBLE_EQ(done, 2.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 200.0);
}

TEST_F(FluidTest, MultiResourceFlowLimitedByTightest)
{
    FluidResource *fast = net.addResource("fast", 1000.0);
    FluidResource *slow = net.addResource("slow", 10.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{fast, 1.0}, {slow, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 10.0);
    EXPECT_DOUBLE_EQ(fast->totalServed(), 100.0);
    EXPECT_DOUBLE_EQ(slow->totalServed(), 100.0);
}

TEST_F(FluidTest, MaxMinFairnessAcrossTwoLinks)
{
    // Classic: flow A uses link1, flow B uses link2, flow C uses both.
    // link1 cap 100, link2 cap 50. Max-min: C and B split link2 at 25
    // each; A gets link1's remainder, 75.
    FluidResource *l1 = net.addResource("l1", 100.0);
    FluidResource *l2 = net.addResource("l2", 50.0);

    auto start = [&](std::vector<FlowDemand> demands) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = 1e9; // effectively infinite
        spec.demands = demands;
        return net.startFlow(std::move(spec));
    };
    const FlowId a = start({{l1, 1.0}});
    const FlowId b = start({{l2, 1.0}});
    const FlowId c = start({{l1, 1.0}, {l2, 1.0}});

    EXPECT_DOUBLE_EQ(net.flowRate(b), 25.0);
    EXPECT_DOUBLE_EQ(net.flowRate(c), 25.0);
    EXPECT_DOUBLE_EQ(net.flowRate(a), 75.0);
}

TEST_F(FluidTest, FairWeightSplitsProportionally)
{
    FluidResource *link = net.addResource("link", 90.0);
    auto start = [&](double weight) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = 1e9;
        spec.fairWeight = weight;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        return net.startFlow(std::move(spec));
    };
    const FlowId light = start(1.0);
    const FlowId heavy = start(2.0);
    EXPECT_DOUBLE_EQ(net.flowRate(light), 30.0);
    EXPECT_DOUBLE_EQ(net.flowRate(heavy), 60.0);
}

TEST_F(FluidTest, PerCategoryAccounting)
{
    FluidResource *link = net.addResource("link", 100.0);
    for (const char *cat : {"a", "b"}) {
        FlowSpec spec;
        spec.category = net.internCategory(cat);
        spec.size = 100.0;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        net.startFlow(std::move(spec));
    }
    eq.run();
    EXPECT_DOUBLE_EQ(link->served("a"), 100.0);
    EXPECT_DOUBLE_EQ(link->served("b"), 100.0);
    EXPECT_DOUBLE_EQ(link->served("missing"), 0.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 200.0);
}

TEST_F(FluidTest, UtilizationWindow)
{
    FluidResource *link = net.addResource("link", 100.0);
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    net.startFlow(std::move(spec));
    eq.run();
    // Busy 1 s; idle until t=2.
    eq.schedule(2.0, [] {});
    eq.run();
    EXPECT_NEAR(link->utilization(eq.now()), 0.5, 1e-12);

    net.resetAccounting();
    EXPECT_DOUBLE_EQ(link->totalServed(), 0.0);
}

TEST_F(FluidTest, ZeroSizeFlowCompletesImmediately)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 0.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(FluidTest, CancelSuppressesCompletion)
{
    FluidResource *link = net.addResource("link", 100.0);
    bool fired = false;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time) { fired = true; };
    const FlowId id = net.startFlow(std::move(spec));
    eq.schedule(0.5, [&] { net.cancelFlow(id); });
    eq.run();
    EXPECT_FALSE(fired);
    // Half the flow was served before cancellation.
    EXPECT_DOUBLE_EQ(link->totalServed(), 50.0);
}

TEST_F(FluidTest, FlowRemainingTracksProgress)
{
    FluidResource *link = net.addResource("link", 100.0);
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    const FlowId id = net.startFlow(std::move(spec));
    double remaining_at_half = -1.0;
    eq.schedule(0.5, [&] { remaining_at_half = net.flowRemaining(id); });
    eq.run();
    EXPECT_DOUBLE_EQ(remaining_at_half, 50.0);
    EXPECT_DOUBLE_EQ(net.flowRemaining(id), 0.0);
}

TEST_F(FluidTest, CapacityChangeTakesEffect)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.schedule(0.5, [&] {
        link->setCapacity(200.0); // double speed halfway through
        net.capacityChanged(link);
    });
    eq.run();
    // 50 served in 0.5 s, remaining 50 at 200/s -> 0.25 s more.
    EXPECT_DOUBLE_EQ(done, 0.75);
}

TEST_F(FluidTest, ZeroCapacityParksFlowUntilRestored)
{
    // Elastic detach drops a resource to zero capacity while a flow is
    // mid-transfer: the flow must park at rate 0 (no panic, no
    // spurious completion) and resume when capacity returns.
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    const FlowId id = net.startFlow(std::move(spec));

    eq.schedule(0.5, [&] {
        link->setCapacity(0.0);
        net.capacityChanged(link);
    });
    double remaining_while_parked = -1.0;
    eq.schedule(3.0, [&] {
        EXPECT_DOUBLE_EQ(net.flowRate(id), 0.0);
        remaining_while_parked = net.flowRemaining(id);
    });
    eq.schedule(4.0, [&] {
        link->setCapacity(100.0);
        net.capacityChanged(link);
    });
    eq.run();
    // 50 served by t=0.5, frozen through [0.5, 4.0], the remaining 50
    // at 100/s -> completes at t=4.5.
    EXPECT_DOUBLE_EQ(remaining_while_parked, 50.0);
    EXPECT_DOUBLE_EQ(done, 4.5);
    EXPECT_DOUBLE_EQ(link->totalServed(), 100.0);
}

TEST_F(FluidTest, ZeroCapacityNewFlowWaitsForCapacity)
{
    // A flow started against an already-parked resource stays pending
    // (rate 0) and completes once capacity appears.
    FluidResource *link = net.addResource("link", 100.0);
    link->setCapacity(0.0);
    net.capacityChanged(link);

    double done = -1.0;
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 50.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    const FlowId id = net.startFlow(std::move(spec));
    EXPECT_DOUBLE_EQ(net.flowRate(id), 0.0);

    eq.schedule(2.0, [&] {
        link->setCapacity(50.0);
        net.capacityChanged(link);
    });
    eq.run();
    EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(FluidDeath, NegativeCapacityPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 1.0);
    EXPECT_DEATH(link->setCapacity(-1.0), "capacity");
}

TEST_F(FluidTest, ManyFlowsAggregateCapacity)
{
    FluidResource *link = net.addResource("link", 100.0);
    int completed = 0;
    for (int i = 0; i < 10; ++i) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = 10.0;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        spec.onComplete = [&](Time) { ++completed; };
        net.startFlow(std::move(spec));
    }
    eq.run();
    EXPECT_EQ(completed, 10);
    EXPECT_DOUBLE_EQ(eq.now(), 1.0); // 100 units at 100/s total
}

TEST_F(FluidTest, DemandSetMergesDuplicates)
{
    FluidResource *a = net.addResource("a", 1.0);
    FluidResource *b = net.addResource("b", 1.0);
    FluidResource *c = net.addResource("c", 1.0);
    DemandSet ds;
    // First-add order, not creation order: c, then a, then b.
    ds.add(c, 0.1);
    ds.add(a, 1.0);
    ds.add(b, 5.0);
    ds.add(c, 0.2);
    ds.add(a, 3.0);
    ds.add(b, 0.0);  // non-positive weights add nothing
    ds.add(a, -2.0);
    ds.add(c, 0.3);
    const auto demands = ds.build();
    ASSERT_EQ(demands.size(), 3u);
    EXPECT_EQ(demands[0].resource, c);
    EXPECT_EQ(demands[1].resource, a);
    EXPECT_EQ(demands[2].resource, b);
    // A duplicate sums in add order, bit for bit.
    EXPECT_EQ(demands[0].weight, (0.1 + 0.2) + 0.3);
    EXPECT_EQ(demands[1].weight, 4.0);
    EXPECT_EQ(demands[2].weight, 5.0);

    // build() leaves the set empty and ready for the next flow.
    EXPECT_TRUE(ds.build().empty());
    ds.add(b, 2.0);
    ds.add(a, 1.0);
    ds.add(b, 2.0);
    const auto again = ds.build();
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].resource, b);
    EXPECT_EQ(again[0].weight, 4.0);
    EXPECT_EQ(again[1].resource, a);
    EXPECT_EQ(again[1].weight, 1.0);
}

// A server built onto a shared network keys its set from its first
// resource: the set merges and orders as one keyed from 0 does, and a
// resource below its first index panics.
TEST_F(FluidTest, DemandSetKeysFromItsFirstIndex)
{
    FluidResource *earlier = net.addResource("earlier", 1.0);
    FluidResource *a = net.addResource("a", 1.0);
    FluidResource *b = net.addResource("b", 1.0);
    DemandSet ds(a->index());
    ds.add(b, 1.0);
    ds.add(a, 2.0);
    ds.add(b, 3.0);
    const auto demands = ds.build();
    ASSERT_EQ(demands.size(), 2u);
    EXPECT_EQ(demands[0].resource, b);
    EXPECT_EQ(demands[0].weight, 4.0);
    EXPECT_EQ(demands[1].resource, a);
    EXPECT_EQ(demands[1].weight, 2.0);
    EXPECT_DEATH(ds.add(earlier, 1.0), "given earlier at index 0");
}

TEST_F(FluidTest, ResourcesCarryTheirCreationIndex)
{
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(net.addResource("r" + std::to_string(i), 1.0)->index(), i);
}

TEST_F(FluidTest, ChainedFlowsViaCompletions)
{
    // A three-stage chain driven by onComplete, as the training session
    // does: total time = sum of stage times.
    FluidResource *link = net.addResource("link", 100.0);
    double final_done = -1.0;
    std::function<void(int)> stage = [&](int idx) {
        FlowSpec spec;
        spec.category = net.internCategory("stage" + std::to_string(idx));
        spec.size = 100.0;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        spec.onComplete = [&, idx](Time t) {
            if (idx == 2)
                final_done = t;
            else
                stage(idx + 1);
        };
        net.startFlow(std::move(spec));
    };
    stage(0);
    eq.run();
    EXPECT_DOUBLE_EQ(final_done, 3.0);
}

TEST_F(FluidTest, StaleHandleAfterSlotReuseIsInert)
{
    FluidResource *link = net.addResource("link", 100.0);
    const std::uint32_t cat = net.internCategory("x");
    const std::vector<FlowDemand> demands{{link, 1.0}};
    auto start = [&](double size, std::function<void(Time)> done) {
        FlowSpec spec;
        spec.category = cat;
        spec.size = size;
        spec.demands = demands;
        spec.onComplete = std::move(done);
        return net.startFlow(std::move(spec));
    };
    const auto slot = [](FlowId id) {
        return id & ((FlowId{1} << FluidNetwork::kSlotBits) - 1);
    };
    // The old handle must find nothing, and touching it must leave the
    // flow now in its slot as it was.
    const auto expectInert = [&](FlowId stale) {
        EXPECT_EQ(net.flowRate(stale), 0.0);
        EXPECT_EQ(net.flowRemaining(stale), 0.0);
        net.cancelFlow(stale);
        EXPECT_EQ(net.numActive(), 1u);
    };

    // A cancelled flow's slot goes to the next start.
    const FlowId cancelled = start(100.0, nullptr);
    net.cancelFlow(cancelled);
    double second_done = -1.0;
    const FlowId second = start(100.0, [&](Time t) { second_done = t; });
    ASSERT_EQ(slot(second), slot(cancelled));
    EXPECT_LT(cancelled, second); // handles compare in start order
    expectInert(cancelled);
    EXPECT_DOUBLE_EQ(net.flowRate(second), 100.0);
    EXPECT_DOUBLE_EQ(net.flowRemaining(second), 100.0);
    eq.run();
    EXPECT_DOUBLE_EQ(second_done, 1.0);

    // So does a finished flow's.
    double third_done = -1.0;
    const FlowId third = start(50.0, [&](Time t) { third_done = t; });
    ASSERT_EQ(slot(third), slot(second));
    expectInert(second);
    EXPECT_DOUBLE_EQ(net.flowRate(third), 100.0);
    eq.run();
    EXPECT_DOUBLE_EQ(third_done, 1.5);
    EXPECT_EQ(net.numActive(), 0u);
}

TEST(FluidDeath, UnconstrainedFlowPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FlowSpec spec;
    spec.category = net.internCategory("bad");
    spec.size = 1.0;
    EXPECT_DEATH(net.startFlow(std::move(spec)), "neither demands");
}

TEST(FluidDeath, FlowRateInsideBatchPanics)
{
    // Rates are stale while a batch is open, and every completion
    // callback runs inside one, so a rate read there is a bug.
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 10.0);
    auto start = [&](double size, std::function<void(Time)> done) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = size;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        spec.onComplete = std::move(done);
        return net.startFlow(std::move(spec));
    };
    const FlowId peer = start(100.0, nullptr);
    {
        FluidNetwork::FlowBatch batch(net);
        EXPECT_DEATH(net.flowRate(peer), "inside a FlowBatch");
    }
    double remaining = -1.0;
    start(10.0, [&](Time) { remaining = net.flowRemaining(peer); });
    eq.run(2.0);
    // Remaining work stays exact inside the callback: 5/s until t = 2.
    EXPECT_DOUBLE_EQ(remaining, 90.0);

    start(10.0, [&](Time) { net.flowRate(peer); });
    EXPECT_DEATH(eq.run(), "inside a FlowBatch");
}

TEST(FluidDeath, NegativeWeightPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 1.0);
    FlowSpec spec;
    spec.category = net.internCategory("bad");
    spec.size = 1.0;
    const std::vector<FlowDemand> demands{{link, -1.0}};
    spec.demands = demands;
    EXPECT_DEATH(net.startFlow(std::move(spec)), "weight");
}

} // namespace
} // namespace tb
