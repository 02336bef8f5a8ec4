/**
 * @file
 * Randomized property tests for the fluid allocator: on arbitrary
 * flow/resource topologies the allocation must be feasible (no resource
 * over capacity) and max-min optimal (every flow is rate-capped or
 * bottlenecked on a saturated resource), and work must be conserved.
 */

#include <functional>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "fluid/fluid.hh"

namespace tb {
namespace {

struct Scenario
{
    EventQueue eq;
    FluidNetwork net{eq};
    std::vector<FluidResource *> resources;

    struct FlowInfo
    {
        FlowId id = 0;
        double rateCap;
        double fairWeight;
        std::vector<FlowDemand> demands;
        double size;
        bool completed = false;
        Time completedAt = -1.0;
    };
    std::vector<FlowInfo> flows;
};

/**
 * Start one random flow over s.resources. @p onDone runs from the
 * flow's completion callback, after the completion is recorded.
 */
void
startRandomFlow(Scenario &s, Rng &rng,
                std::function<void()> onDone = nullptr)
{
    const std::size_t n_resources = s.resources.size();
    Scenario::FlowInfo info;
    info.size = rng.uniform(100.0, 2000.0);
    info.rateCap = rng.uniform() < 0.3 ? rng.uniform(5.0, 50.0) : 0.0;
    info.fairWeight = rng.uniform() < 0.3 ? rng.uniform(0.25, 4.0) : 1.0;
    const std::size_t n_demands =
        static_cast<std::size_t>(rng.uniformInt(1, 3));
    std::vector<std::size_t> used;
    for (std::size_t d = 0; d < n_demands; ++d) {
        const std::size_t r = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(n_resources) - 1));
        bool dup = false;
        for (auto u : used)
            dup |= u == r;
        if (dup)
            continue;
        used.push_back(r);
        info.demands.push_back({s.resources[r], rng.uniform(0.5, 3.0)});
    }
    if (info.demands.empty())
        info.demands.push_back({s.resources[0], 1.0});

    const std::size_t idx = s.flows.size();
    FlowSpec spec;
    spec.category = s.net.internCategory("flow" + std::to_string(idx));
    spec.size = info.size;
    spec.rateCap = info.rateCap;
    spec.fairWeight = info.fairWeight;
    spec.demands = info.demands;
    spec.onComplete = [&s, idx, onDone = std::move(onDone)](Time t) {
        s.flows[idx].completed = true;
        s.flows[idx].completedAt = t;
        if (onDone)
            onDone();
    };
    s.flows.push_back(info);
    s.flows.back().id = s.net.startFlow(std::move(spec));
}

void
addRandomResources(Scenario &s, Rng &rng, std::size_t n_resources)
{
    for (std::size_t r = 0; r < n_resources; ++r)
        s.resources.push_back(s.net.addResource(
            "r" + std::to_string(r), rng.uniform(50.0, 500.0)));
}

void
buildRandomScenario(Scenario &s, Rng &rng, std::size_t n_resources,
                    std::size_t n_flows)
{
    addRandomResources(s, rng, n_resources);
    for (std::size_t f = 0; f < n_flows; ++f)
        startRandomFlow(s, rng);
}

/**
 * Check the allocation of every running flow: feasible (no resource
 * over capacity, no flow over its cap) and max-min (every flow is at
 * its cap or touches a saturated resource, otherwise progressive
 * filling would have raised it further).
 */
void
expectFeasibleAndMaxMin(const Scenario &s)
{
    std::map<FluidResource *, double> load;
    for (const auto &f : s.flows) {
        if (f.completed)
            continue;
        const double rate = s.net.flowRate(f.id);
        ASSERT_GE(rate, 0.0);
        if (f.rateCap > 0.0) {
            ASSERT_LE(rate, f.rateCap * (1.0 + 1e-9));
        }
        for (const auto &d : f.demands)
            load[d.resource] += d.weight * rate;
    }

    for (const auto &[res, used] : load) {
        ASSERT_LE(used, res->capacity() * (1.0 + 1e-9))
            << res->name() << " over capacity";
    }

    for (const auto &f : s.flows) {
        if (f.completed)
            continue;
        const double rate = s.net.flowRate(f.id);
        const bool capped =
            f.rateCap > 0.0 && rate >= f.rateCap * (1.0 - 1e-9);
        bool bottlenecked = false;
        for (const auto &d : f.demands)
            if (load[d.resource] >=
                d.resource->capacity() * (1.0 - 1e-9))
                bottlenecked = true;
        EXPECT_TRUE(capped || bottlenecked)
            << "flow with rate " << rate << " is neither capped nor "
            << "bottlenecked";
    }
}

class FluidProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FluidProperty, AllocationIsFeasibleAndMaxMin)
{
    Rng rng(GetParam());
    Scenario s;
    buildRandomScenario(s, rng, 5, 20);

    // Inspect the instantaneous allocation before anything finishes.
    ASSERT_FALSE(s.flows.empty());
    expectFeasibleAndMaxMin(s);
}

TEST_P(FluidProperty, AllocationStaysMaxMinAcrossCompletionChains)
{
    // Every completion callback starts the next stage of its chain, so
    // each completion event re-solves in one batch. The check runs from
    // an event the callback schedules at now, which fires after the
    // batch closes, so it sees every completion event's allocation.
    Rng rng(GetParam() + 3000);
    Scenario s;
    addRandomResources(s, rng, 5);
    std::size_t stagesLeft = 40;
    std::size_t checks = 0;
    std::function<void()> nextStage = [&] {
        if (stagesLeft > 0) {
            --stagesLeft;
            startRandomFlow(s, rng, nextStage);
        }
        s.eq.schedule(s.eq.now(), [&] {
            expectFeasibleAndMaxMin(s);
            ++checks;
        });
    };
    for (std::size_t f = 0; f < 12; ++f)
        startRandomFlow(s, rng, nextStage);
    expectFeasibleAndMaxMin(s);

    s.eq.run();
    EXPECT_EQ(s.flows.size(), 52u);
    EXPECT_EQ(checks, s.flows.size());
    for (const auto &f : s.flows)
        EXPECT_TRUE(f.completed);
}

TEST_P(FluidProperty, AllFlowsEventuallyCompleteAndConserveWork)
{
    Rng rng(GetParam() + 1000);
    Scenario s;
    buildRandomScenario(s, rng, 4, 15);

    s.eq.run();

    std::map<FluidResource *, double> expected;
    double total_size = 0.0;
    for (const auto &f : s.flows) {
        EXPECT_TRUE(f.completed);
        EXPECT_GE(f.completedAt, 0.0);
        total_size += f.size;
        for (const auto &d : f.demands)
            expected[d.resource] += d.weight * f.size;
    }
    EXPECT_GT(total_size, 0.0);
    // Work conservation: every resource served exactly the weighted
    // bytes of the flows that crossed it.
    for (const auto &[res, units] : expected)
        EXPECT_NEAR(res->totalServed(), units, 1e-6 * units)
            << res->name();
}

TEST_P(FluidProperty, CompletionTimesRespectCapacityBounds)
{
    Rng rng(GetParam() + 2000);
    Scenario s;
    buildRandomScenario(s, rng, 3, 10);
    s.eq.run();

    // Lower bound: no flow can finish faster than its size over its
    // best-case rate (min over resources of capacity/weight, and cap).
    for (const auto &f : s.flows) {
        double best_rate = f.rateCap > 0.0
            ? f.rateCap : std::numeric_limits<double>::infinity();
        for (const auto &d : f.demands)
            best_rate = std::min(best_rate,
                                 d.resource->capacity() / d.weight);
        EXPECT_GE(f.completedAt * (1.0 + 1e-9), f.size / best_rate);
    }
    // Upper bound: the whole workload fits within the time the most
    // loaded resource needs to serve everything (plus scheduling slack).
    double worst = 0.0;
    std::map<FluidResource *, double> load;
    for (const auto &f : s.flows)
        for (const auto &d : f.demands)
            load[d.resource] += d.weight * f.size;
    for (const auto &[res, units] : load)
        worst = std::max(worst, units / res->capacity());
    for (const auto &f : s.flows)
        EXPECT_LE(f.completedAt, 50.0 * worst + 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidProperty,
                         ::testing::Values(1, 7, 42, 99, 1234, 5678,
                                           31337, 271828));

} // namespace
} // namespace tb
