/**
 * @file
 * Tests for the metrics layer: registry semantics (find-or-create,
 * disabled => nullptr and zero allocations), time-weighted histogram
 * math, and the fluid network's utilization instrumentation.
 */

#include <gtest/gtest.h>

#include "fluid/fluid.hh"
#include "sim/metrics.hh"

namespace tb {
namespace {

TEST(MetricCounter, AddIncValueReset)
{
    MetricCounter c;
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    c.inc();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(TimeWeightedHistogram, ExactTimeAverageAndPeak)
{
    TimeWeightedHistogram h;
    h.record(0.25, 2.0); // 0.25 for 2 s
    h.record(0.75, 2.0); // 0.75 for 2 s
    EXPECT_DOUBLE_EQ(h.totalTime(), 4.0);
    EXPECT_DOUBLE_EQ(h.timeAverage(), 0.5);
    EXPECT_DOUBLE_EQ(h.peak(), 0.75);
    EXPECT_DOUBLE_EQ(h.saturatedTime(), 0.0);
    EXPECT_DOUBLE_EQ(h.saturatedFraction(), 0.0);
}

TEST(TimeWeightedHistogram, SaturationThreshold)
{
    TimeWeightedHistogram h;
    h.record(1.0, 3.0);  // saturated
    h.record(0.999, 1.0); // exactly at threshold counts as saturated
    h.record(0.5, 4.0);
    EXPECT_DOUBLE_EQ(h.saturatedTime(), 4.0);
    EXPECT_DOUBLE_EQ(h.saturatedFraction(), 0.5);
}

TEST(TimeWeightedHistogram, BucketsAndClamping)
{
    TimeWeightedHistogram h(/*numBuckets=*/4, /*lo=*/0.0, /*hi=*/1.0);
    ASSERT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(3), 1.0);
    h.record(0.1, 1.0);  // bucket 0
    h.record(0.9, 2.0);  // bucket 3
    h.record(-5.0, 3.0); // clamps into bucket 0
    h.record(7.0, 4.0);  // clamps into bucket 3
    EXPECT_DOUBLE_EQ(h.bucketTime(0), 4.0);
    EXPECT_DOUBLE_EQ(h.bucketTime(1), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketTime(2), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketTime(3), 6.0);
    h.reset();
    EXPECT_DOUBLE_EQ(h.totalTime(), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketTime(3), 0.0);
    EXPECT_DOUBLE_EQ(h.peak(), 0.0);
}

TEST(TimeWeightedHistogram, ZeroDurationIsIgnoredInAverages)
{
    TimeWeightedHistogram h;
    h.record(1.0, 0.0);
    EXPECT_DOUBLE_EQ(h.totalTime(), 0.0);
    EXPECT_DOUBLE_EQ(h.timeAverage(), 0.0);
}

TEST(MetricsRegistry, DisabledAllocatesNothing)
{
    MetricsRegistry m;
    EXPECT_FALSE(m.enabled());
    EXPECT_EQ(m.counter("a"), nullptr);
    EXPECT_EQ(m.histogram("c"), nullptr);
    EXPECT_EQ(m.findCounter("a"), nullptr);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.counters().empty());
    EXPECT_TRUE(m.histograms().empty());
}

TEST(MetricsRegistry, FindOrCreateIsIdempotent)
{
    MetricsRegistry m;
    m.enable();
    MetricCounter *c1 = m.counter("steps", "global steps");
    MetricCounter *c2 = m.counter("steps");
    ASSERT_NE(c1, nullptr);
    EXPECT_EQ(c1, c2); // same name -> same instrument
    EXPECT_EQ(m.findCounter("steps"), c1);
    EXPECT_EQ(m.findCounter("absent"), nullptr);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.counters()[0].name, "steps");
    EXPECT_EQ(m.counters()[0].desc, "global steps");

    // Counters and histograms live in separate namespaces.
    EXPECT_NE(m.histogram("steps"), nullptr);
    EXPECT_EQ(m.size(), 2u);
}

TEST(MetricsRegistry, ResetAllClearsEveryInstrument)
{
    MetricsRegistry m;
    m.enable();
    m.counter("c")->add(5.0);
    m.histogram("h")->record(0.5, 1.0);
    m.resetAll();
    EXPECT_DOUBLE_EQ(m.findCounter("c")->value(), 0.0);
    EXPECT_DOUBLE_EQ(m.findHistogram("h")->totalTime(), 0.0);
}

struct FluidMetricsTest : public ::testing::Test
{
    EventQueue eq;
    FluidNetwork net{eq};
    MetricsRegistry metrics;
};

TEST_F(FluidMetricsTest, UtilizationHistoryIsExact)
{
    metrics.enable();
    net.attachMetrics(&metrics);
    FluidResource *link = net.addResource("link", 100.0);

    // Rate-capped at half capacity: utilization is exactly 0.5 for the
    // flow's 10-second lifetime.
    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 500.0;
    spec.rateCap = 50.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [](Time) {};
    net.startFlow(std::move(spec));
    eq.run();

    const TimeWeightedHistogram *h = link->utilizationHistory();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h, metrics.findHistogram("util.link"));
    EXPECT_DOUBLE_EQ(h->totalTime(), 10.0);
    EXPECT_DOUBLE_EQ(h->timeAverage(), 0.5);
    EXPECT_DOUBLE_EQ(h->peak(), 0.5);
    EXPECT_DOUBLE_EQ(h->saturatedFraction(), 0.0);
}

TEST_F(FluidMetricsTest, SaturatedResourceIsDetected)
{
    metrics.enable();
    net.attachMetrics(&metrics);
    FluidResource *link = net.addResource("link", 100.0);

    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 300.0; // uncapped: runs at full capacity for 3 s
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [](Time) {};
    net.startFlow(std::move(spec));
    eq.run();

    const TimeWeightedHistogram *h = link->utilizationHistory();
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->timeAverage(), 1.0);
    EXPECT_DOUBLE_EQ(h->saturatedFraction(), 1.0);
}

TEST_F(FluidMetricsTest, ResourcesAddedBeforeAttachAreInstrumented)
{
    FluidResource *early = net.addResource("early", 10.0);
    metrics.enable();
    net.attachMetrics(&metrics);
    FluidResource *late = net.addResource("late", 10.0);
    EXPECT_NE(early->utilizationHistory(), nullptr);
    EXPECT_NE(late->utilizationHistory(), nullptr);
}

// Every server built on a shared core attaches the core's registry
// again, mid-run for all but the first. That must not restart the open
// utilization interval of a resource already instrumented.
TEST_F(FluidMetricsTest, ReattachMidFlowKeepsTheWholeHistory)
{
    metrics.enable();
    net.attachMetrics(&metrics);
    FluidResource *link = net.addResource("link", 100.0);

    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 500.0;
    spec.rateCap = 50.0; // utilization 0.5 for 10 s
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [](Time) {};
    net.startFlow(std::move(spec));
    eq.run(4.0);
    net.attachMetrics(&metrics);
    eq.run();

    const TimeWeightedHistogram *h = link->utilizationHistory();
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->totalTime(), 10.0);
    EXPECT_DOUBLE_EQ(h->timeAverage(), 0.5);
}

TEST_F(FluidMetricsTest, DisabledRegistryLeavesNetworkUninstrumented)
{
    net.attachMetrics(&metrics); // still disabled: attach is a no-op
    FluidResource *link = net.addResource("link", 100.0);

    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [](Time) {};
    net.startFlow(std::move(spec));
    eq.run();

    EXPECT_EQ(link->utilizationHistory(), nullptr);
    EXPECT_EQ(metrics.size(), 0u);
    // flushMetrics without metrics attached must be a pure no-op: the
    // accounting stays exactly what the uninstrumented path produced.
    const double served = link->totalServed();
    net.flushMetrics();
    EXPECT_DOUBLE_EQ(link->totalServed(), served);
}

TEST_F(FluidMetricsTest, ResetAccountingRestartsHistories)
{
    metrics.enable();
    net.attachMetrics(&metrics);
    FluidResource *link = net.addResource("link", 100.0);

    FlowSpec spec;
    spec.category = net.internCategory("x");
    spec.size = 100.0;
    const std::vector<FlowDemand> demands{{link, 1.0}};
    spec.demands = demands;
    spec.onComplete = [](Time) {};
    net.startFlow(std::move(spec));
    eq.run();
    ASSERT_GT(link->utilizationHistory()->totalTime(), 0.0);

    net.resetAccounting();
    EXPECT_DOUBLE_EQ(link->utilizationHistory()->totalTime(), 0.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 0.0);
}

} // namespace
} // namespace tb
