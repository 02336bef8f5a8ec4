/**
 * @file
 * Tests for the device models: SSDs, prep accelerators and the prep
 * pool.
 */

#include <gtest/gtest.h>

#include "devices/ethernet.hh"
#include "devices/prep_accelerator.hh"
#include "devices/ssd.hh"

namespace tb {
namespace {

struct DevicesTest : public ::testing::Test
{
    EventQueue eq;
    FluidNetwork net{eq};
    pcie::Topology topo{net, "rc", 64e9};
};

TEST_F(DevicesTest, SsdHasFlashAndLink)
{
    const pcie::NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    NvmeSsd ssd(net, topo, "ssd0", sw);
    EXPECT_EQ(ssd.name(), "ssd0");
    EXPECT_EQ(topo.node(ssd.node()).kind, pcie::NodeKind::Device);
    EXPECT_DOUBLE_EQ(ssd.readBandwidth()->capacity(),
                     NvmeSsd::defaultReadBandwidth);
    const FlowDemand d = ssd.readDemand(2.0);
    EXPECT_EQ(d.resource, ssd.readBandwidth());
    EXPECT_DOUBLE_EQ(d.weight, 2.0);
}

TEST_F(DevicesTest, SsdReadLimitedByFlashNotLink)
{
    const pcie::NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    NvmeSsd ssd(net, topo, "ssd0", sw);
    double done = -1.0;
    DemandSet ds;
    ds.add(ssd.readDemand(1.0).resource, 1.0);
    topo.addHostRoute(ds, ssd.node(), false, 1.0);
    FlowSpec spec;
    spec.category = net.internCategory("read");
    spec.size = NvmeSsd::defaultReadBandwidth; // 1 s at flash speed
    const std::vector<FlowDemand> demands = ds.build();
    spec.demands = demands;
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 1.0); // 3.2 GB/s flash < 4 GB/s link
}

TEST_F(DevicesTest, PrepAcceleratorEngineAndEthernet)
{
    const pcie::NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    PrepAccelerator with_eth(net, topo, "fpga0", sw, 45000.0, true);
    PrepAccelerator without(net, topo, "fpga1", sw, 45000.0, false);
    EXPECT_DOUBLE_EQ(with_eth.engine()->capacity(), 45000.0);
    ASSERT_NE(with_eth.ethernetPort(), nullptr);
    EXPECT_DOUBLE_EQ(with_eth.ethernetPort()->capacity(),
                     PrepAccelerator::defaultEthernetBw);
    EXPECT_EQ(without.ethernetPort(), nullptr);
}

TEST_F(DevicesTest, PrepPoolAggregates)
{
    PrepPool pool(net, "pool");
    pool.addFpga(5200.0);
    pool.addFpga(5200.0);
    pool.addFpga(5200.0);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_NE(pool.fabric(), nullptr);
    for (const auto &f : pool.fpgas()) {
        EXPECT_NE(f.port, nullptr);
        ASSERT_NE(f.engine, nullptr);
        EXPECT_DOUBLE_EQ(f.engine->capacity(), 5200.0);
    }
}

TEST_F(DevicesTest, SsdWritePathAndReadInterference)
{
    const pcie::NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    NvmeSsd ssd(net, topo, "ssd0", sw);
    EXPECT_DOUBLE_EQ(ssd.writeBandwidth()->capacity(),
                     NvmeSsd::defaultWriteBandwidth);
    const FlowDemand w = ssd.writeDemand(2.0);
    EXPECT_EQ(w.resource, ssd.writeBandwidth());
    EXPECT_DOUBLE_EQ(w.weight, 2.0);
    // Writing steals a fraction of the *read* channel (program/erase
    // interference), so prep reads slow down while a checkpoint drains.
    const FlowDemand i = ssd.writeReadInterference(2.0);
    EXPECT_EQ(i.resource, ssd.readBandwidth());
    EXPECT_DOUBLE_EQ(i.weight, 2.0 * NvmeSsd::kWriteReadInterference);
}

TEST_F(DevicesTest, SsdReadScaleClampsToUnitRange)
{
    const pcie::NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    NvmeSsd ssd(net, topo, "ssd0", sw);
    ssd.setReadBandwidthScale(1.7); // clamped, warns
    EXPECT_DOUBLE_EQ(ssd.readBandwidth()->capacity(),
                     NvmeSsd::defaultReadBandwidth);
    ssd.setReadBandwidthScale(-0.3); // clamped to ~0 with a floor
    EXPECT_GT(ssd.readBandwidth()->capacity(), 0.0);
    EXPECT_LE(ssd.readBandwidth()->capacity(),
              1e-9 * NvmeSsd::defaultReadBandwidth * 1.0001);
    ssd.setReadBandwidthScale(1.0);
    EXPECT_DOUBLE_EQ(ssd.readBandwidth()->capacity(),
                     NvmeSsd::defaultReadBandwidth);
}

TEST_F(DevicesTest, PoolFabricScaleClampsToUnitRange)
{
    PrepPool pool(net, "pool");
    const double nominal = pool.fabric()->capacity();
    pool.setFabricBandwidthScale(2.0); // clamped, warns
    EXPECT_DOUBLE_EQ(pool.fabric()->capacity(), nominal);
    pool.setFabricBandwidthScale(-1.0); // clamped to ~0 with a floor
    EXPECT_GT(pool.fabric()->capacity(), 0.0);
    EXPECT_LE(pool.fabric()->capacity(), 1e-9 * nominal * 1.0001);
    pool.setFabricBandwidthScale(1.0);
    EXPECT_DOUBLE_EQ(pool.fabric()->capacity(), nominal);
}

} // namespace
} // namespace tb
