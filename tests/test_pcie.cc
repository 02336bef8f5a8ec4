/**
 * @file
 * Tests for the PCIe tree topology and routing.
 */

#include <gtest/gtest.h>

#include "pcie/topology.hh"

namespace tb {
namespace {

using pcie::NodeId;
using pcie::Topology;

struct PcieTest : public ::testing::Test
{
    EventQueue eq;
    FluidNetwork net{eq};
    Topology topo{net, "rc", 64e9};

    /** The demands Topology::addRoute writes for src -> dst. */
    std::vector<FlowDemand>
    route(NodeId src, NodeId dst, double bytesPerUnit)
    {
        DemandSet ds;
        topo.addRoute(ds, src, dst, bytesPerUnit);
        return ds.build();
    }

    /** The demands Topology::addHostRoute writes for @p node. */
    std::vector<FlowDemand>
    hostRoute(NodeId node, bool toDevice, double bytesPerUnit)
    {
        DemandSet ds;
        topo.addHostRoute(ds, node, toDevice, bytesPerUnit);
        return ds.build();
    }

    double
    weightOn(const std::vector<FlowDemand> &demands,
             const FluidResource *res)
    {
        double w = 0.0;
        for (const auto &d : demands)
            if (d.resource == res)
                w += d.weight;
        return w;
    }

    static std::vector<const FluidResource *>
    resourcesOf(const std::vector<FlowDemand> &demands)
    {
        std::vector<const FluidResource *> out;
        for (const auto &d : demands)
            out.push_back(d.resource);
        return out;
    }
};

TEST_F(PcieTest, RootExists)
{
    EXPECT_EQ(topo.root(), 0);
    EXPECT_EQ(topo.node(0).kind, pcie::NodeKind::RootComplex);
    EXPECT_EQ(topo.rcResource()->capacity(), 64e9);
}

TEST_F(PcieTest, TreeConstruction)
{
    const NodeId sw = topo.addSwitch("sw0", topo.root(),
                                     pcie::gen::gen3x16);
    const NodeId dev = topo.addDevice("dev0", sw, pcie::gen::gen3x16);
    EXPECT_EQ(topo.node(sw).parent, topo.root());
    EXPECT_EQ(topo.node(dev).parent, sw);
    EXPECT_EQ(topo.depth(dev), 2);
    EXPECT_EQ(topo.depth(sw), 1);
    EXPECT_EQ(topo.depth(topo.root()), 0);
    EXPECT_EQ(topo.numNodes(), 3u);
}

TEST_F(PcieTest, LcaAndRootCrossing)
{
    const NodeId sw0 = topo.addSwitch("sw0", topo.root(), 16e9);
    const NodeId sw1 = topo.addSwitch("sw1", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw0, 16e9);
    const NodeId b = topo.addDevice("b", sw0, 16e9);
    const NodeId c = topo.addDevice("c", sw1, 16e9);

    EXPECT_EQ(topo.lca(a, b), sw0);
    EXPECT_EQ(topo.lca(a, c), topo.root());
    EXPECT_EQ(topo.lca(a, a), a);
    EXPECT_FALSE(topo.routePassesRoot(a, b));
    EXPECT_TRUE(topo.routePassesRoot(a, c));
    EXPECT_EQ(topo.routeHops(a, b), 2u);
    EXPECT_EQ(topo.routeHops(a, c), 4u);
}

TEST_F(PcieTest, LocalRouteAvoidsRootComplex)
{
    const NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw, 16e9);
    const NodeId b = topo.addDevice("b", sw, 16e9);
    const auto demands = route(a, b, 10.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.rcResource()), 0.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(a).up), 10.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(b).down), 10.0);
    // Switch links untouched: traffic turns around inside the switch.
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(sw).up), 0.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(sw).down), 0.0);
}

TEST_F(PcieTest, CrossTreeP2pChargesRootComplexTwice)
{
    const NodeId sw0 = topo.addSwitch("sw0", topo.root(), 16e9);
    const NodeId sw1 = topo.addSwitch("sw1", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw0, 16e9);
    const NodeId c = topo.addDevice("c", sw1, 16e9);
    const auto demands = route(a, c, 1.0);
    // Up-and-over: both root ports plus 2x RC (§IV-D).
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.rcResource()), 2.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(a).up), 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(sw0).up), 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(sw1).down), 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(c).down), 1.0);
    // In route order: up to the root, down to c, then the RC.
    const std::vector<const FluidResource *> order = {
        topo.node(a).up, topo.node(sw0).up, topo.node(sw1).down,
        topo.node(c).down, topo.rcResource()};
    EXPECT_EQ(resourcesOf(demands), order);
}

TEST_F(PcieTest, HostRouteChargesRootComplexOnce)
{
    const NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw, 16e9);
    const auto to_dev = hostRoute(a, true, 3.0);
    EXPECT_DOUBLE_EQ(weightOn(to_dev, topo.rcResource()), 3.0);
    EXPECT_DOUBLE_EQ(weightOn(to_dev, topo.node(a).down), 3.0);
    EXPECT_DOUBLE_EQ(weightOn(to_dev, topo.node(a).up), 0.0);

    const auto from_dev = hostRoute(a, false, 3.0);
    EXPECT_DOUBLE_EQ(weightOn(from_dev, topo.rcResource()), 3.0);
    EXPECT_DOUBLE_EQ(weightOn(from_dev, topo.node(a).up), 3.0);
    EXPECT_DOUBLE_EQ(weightOn(from_dev, topo.node(a).down), 0.0);
}

TEST_F(PcieTest, SelfRouteIsEmpty)
{
    const NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw, 16e9);
    EXPECT_TRUE(route(a, a, 1.0).empty());
}

TEST_F(PcieTest, LinkScalingDoublesEverything)
{
    const NodeId sw = topo.addSwitch("sw", topo.root(), 16e9);
    const NodeId a = topo.addDevice("a", sw, 16e9);
    const Rate rc_before = topo.rcResource()->capacity();
    topo.scaleLinkBandwidth(2.0);
    EXPECT_DOUBLE_EQ(topo.node(a).up->capacity(), 32e9);
    EXPECT_DOUBLE_EQ(topo.node(a).down->capacity(), 32e9);
    EXPECT_DOUBLE_EQ(topo.node(sw).up->capacity(), 32e9);
    EXPECT_DOUBLE_EQ(topo.rcResource()->capacity(), 2.0 * rc_before);
}

TEST_F(PcieTest, DeepRouteTraversesAllLevels)
{
    const NodeId top = topo.addSwitch("top", topo.root(), 16e9);
    const NodeId mid = topo.addSwitch("mid", top, 16e9);
    const NodeId dev = topo.addDevice("dev", mid, 16e9);
    const auto demands = hostRoute(dev, true, 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(top).down), 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(mid).down), 1.0);
    EXPECT_DOUBLE_EQ(weightOn(demands, topo.node(dev).down), 1.0);
    // From the device up to the root, then the RC, in either direction.
    const std::vector<const FluidResource *> order = {
        topo.node(dev).down, topo.node(mid).down, topo.node(top).down,
        topo.rcResource()};
    EXPECT_EQ(resourcesOf(demands), order);
}

// Malformed attachments are recoverable build errors, not aborts: the
// call returns pcie::kInvalidNode, records the reason, and leaves the tree
// untouched so a builder can reject the machine description cleanly.
TEST(PcieError, AttachUnderDeviceRejected)
{
    EventQueue eq;
    FluidNetwork net(eq);
    Topology topo(net, "rc", 1e9);
    const NodeId dev = topo.addDevice("d", topo.root(), 1e9);
    const std::size_t before = topo.numNodes();
    EXPECT_EQ(topo.addDevice("x", dev, 1e9), pcie::kInvalidNode);
    EXPECT_NE(topo.lastError().find("device"), std::string::npos);
    EXPECT_EQ(topo.numNodes(), before);
    EXPECT_TRUE(topo.node(dev).children.empty());
}

TEST(PcieError, InvalidParentRejected)
{
    EventQueue eq;
    FluidNetwork net(eq);
    Topology topo(net, "rc", 1e9);
    const std::size_t before = topo.numNodes();
    EXPECT_EQ(topo.addSwitch("s", 99, 1e9), pcie::kInvalidNode);
    EXPECT_NE(topo.lastError().find("invalid parent"), std::string::npos);
    EXPECT_EQ(topo.numNodes(), before);

    // A later valid attachment still works and clears nothing it
    // should not: the error string describes only the failed call.
    const NodeId sw = topo.addSwitch("s", topo.root(), 1e9);
    EXPECT_NE(sw, pcie::kInvalidNode);
}

} // namespace
} // namespace tb
