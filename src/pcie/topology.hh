/**
 * @file
 * PCIe interconnect model.
 *
 * The fabric is the usual tree: one root complex, switches as internal
 * nodes, devices at the leaves (§II-C of the paper). Every link is modeled
 * as two FluidResources, one per direction (PCIe is full duplex), and the
 * root complex itself is a resource representing the host's aggregate
 * ingress+egress bandwidth — the single-point hotspot that TrainBox's
 * clustering removes.
 *
 * Routing is deterministic tree routing: up to the lowest common ancestor,
 * then down. addRoute() writes the FlowDemands a DMA between two
 * endpoints must place on the fabric into a DemandSet; peer-to-peer
 * transfers under a common switch never touch the root complex, which is
 * exactly the property Step 3 (clustering) exploits.
 */

#ifndef TRAINBOX_PCIE_TOPOLOGY_HH
#define TRAINBOX_PCIE_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fluid/fluid.hh"

namespace tb {
namespace pcie {

/** Node index within a topology. */
using NodeId = std::int32_t;

/** Marker for "no node". */
inline constexpr NodeId kInvalidNode = -1;

/** What a tree node is. */
enum class NodeKind { RootComplex, Switch, Device };

/** Common PCIe generation per-direction x16 bandwidths (bytes/s). */
namespace gen {
inline constexpr Rate gen3x16 = 16.0e9;
inline constexpr Rate gen4x16 = 32.0e9;
} // namespace gen

/** One node of the PCIe tree. */
struct Node
{
    NodeId id;
    std::string name;
    NodeKind kind;
    NodeId parent;
    std::vector<NodeId> children;
    /** Traffic toward the root (this node -> parent). */
    FluidResource *up = nullptr;
    /** Traffic away from the root (parent -> this node). */
    FluidResource *down = nullptr;
};

/**
 * A PCIe tree bound to a FluidNetwork. The topology owns no resources
 * itself; they live in the network so accounting is uniform.
 */
class Topology
{
  public:
    /**
     * @param net       contention engine the link resources live in
     * @param rcName    resource name for the root complex
     * @param rcBandwidth aggregate root-complex bandwidth (bytes/s)
     */
    Topology(FluidNetwork &net, const std::string &rcName,
             Rate rcBandwidth);

    /**
     * Attach a switch under @p parent with per-direction link bw.
     * Returns kInvalidNode — with the reason in lastError() — when
     * @p parent does not exist or is a device; the tree is unchanged.
     */
    NodeId addSwitch(const std::string &name, NodeId parent, Rate linkBw);

    /** Attach a device under @p parent; same error contract. */
    NodeId addDevice(const std::string &name, NodeId parent, Rate linkBw);

    /** Reason the most recent addSwitch/addDevice returned kInvalidNode. */
    const std::string &lastError() const { return lastError_; }

    /** The root complex node id (always 0). */
    NodeId root() const { return 0; }

    const Node &node(NodeId id) const;
    std::size_t numNodes() const { return nodes_.size(); }

    /** The root-complex bandwidth resource. */
    FluidResource *rcResource() const { return rc_; }

    /** Lowest common ancestor of two nodes. */
    NodeId lca(NodeId a, NodeId b) const;

    /** True when a transfer src -> dst crosses the root complex. */
    bool routePassesRoot(NodeId src, NodeId dst) const;

    /** Number of links on the route src -> dst. */
    std::size_t routeHops(NodeId src, NodeId dst) const;

    /**
     * Add to @p out the demands a flow of @p bytesPerUnit bytes per base
     * unit places on the fabric when moving src -> dst peer-to-peer: the
     * 'up' links from src to the lowest common ancestor, the 'down'
     * links from there to dst, then the root complex if the route
     * crosses it. Such a route consumes RC bandwidth with weight 2x: the
     * packet enters the RC fabric from one root port and leaves through
     * another (§IV-D — this is why Step 2 alone does not relieve the RC,
     * Fig 19). Host-terminated transfers (addHostRoute) cross the
     * boundary once. src == dst adds nothing.
     */
    void addRoute(DemandSet &out, NodeId src, NodeId dst,
                  double bytesPerUnit = 1.0) const;

    /**
     * Add to @p out the demands of a transfer between the host (root)
     * and @p node: the links from @p node up to the root, then the root
     * complex. Direction toward the device uses 'down' links and vice
     * versa.
     */
    void addHostRoute(DemandSet &out, NodeId node, bool toDevice,
                      double bytesPerUnit = 1.0) const;

    /** Scale every link capacity by @p factor (e.g., Gen3 -> Gen4 = 2). */
    void scaleLinkBandwidth(double factor);

    /** Depth of a node (root = 0). */
    int depth(NodeId id) const;

  private:
    NodeId addNode(const std::string &name, NodeKind kind, NodeId parent,
                   Rate linkBw);

    FluidNetwork &net_;
    FluidResource *rc_;
    std::vector<Node> nodes_;
    std::string lastError_;
};

} // namespace pcie
} // namespace tb

#endif // TRAINBOX_PCIE_TOPOLOGY_HH
