#include "pcie/topology.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {
namespace pcie {

namespace {

/** Add the 'down' links from @p top (exclusive) to @p node, root first. */
void
addDownLinks(const std::vector<Node> &nodes, DemandSet &out, NodeId top,
             NodeId node, double bytesPerUnit)
{
    if (node == top)
        return;
    addDownLinks(nodes, out, top, nodes[node].parent, bytesPerUnit);
    out.add(nodes[node].down, bytesPerUnit);
}

} // namespace

Topology::Topology(FluidNetwork &net, const std::string &rcName,
                   Rate rcBandwidth)
    : net_(net)
{
    rc_ = net_.addResource(rcName, rcBandwidth);
    Node root;
    root.id = 0;
    root.name = rcName;
    root.kind = NodeKind::RootComplex;
    root.parent = kInvalidNode;
    nodes_.push_back(std::move(root));
}

NodeId
Topology::addNode(const std::string &name, NodeKind kind, NodeId parent,
                  Rate linkBw)
{
    // Malformed attachment requests are recoverable: topology builders
    // consume machine descriptions, and a bad description should fail
    // the build, not abort the process. The tree is left untouched.
    if (parent < 0 || parent >= static_cast<NodeId>(nodes_.size())) {
        lastError_ = "invalid parent node " + std::to_string(parent) +
                     " for \"" + name + "\"";
        warn("%s", lastError_.c_str());
        return kInvalidNode;
    }
    if (nodes_[parent].kind == NodeKind::Device) {
        lastError_ = "cannot attach \"" + name + "\" under device node " +
                     nodes_[parent].name;
        warn("%s", lastError_.c_str());
        return kInvalidNode;
    }

    Node n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.name = name;
    n.kind = kind;
    n.parent = parent;
    n.up = net_.addResource(name + ".up", linkBw);
    n.down = net_.addResource(name + ".down", linkBw);
    nodes_[parent].children.push_back(n.id);
    nodes_.push_back(std::move(n));
    return nodes_.back().id;
}

NodeId
Topology::addSwitch(const std::string &name, NodeId parent, Rate linkBw)
{
    return addNode(name, NodeKind::Switch, parent, linkBw);
}

NodeId
Topology::addDevice(const std::string &name, NodeId parent, Rate linkBw)
{
    return addNode(name, NodeKind::Device, parent, linkBw);
}

const Node &
Topology::node(NodeId id) const
{
    panic_if(id < 0 || id >= static_cast<NodeId>(nodes_.size()),
             "invalid node id %d", id);
    return nodes_[id];
}

int
Topology::depth(NodeId id) const
{
    int d = 0;
    for (NodeId cur = id; nodes_[cur].parent != kInvalidNode;
         cur = nodes_[cur].parent)
        ++d;
    return d;
}

NodeId
Topology::lca(NodeId a, NodeId b) const
{
    int da = depth(a);
    int db = depth(b);
    while (da > db) {
        a = nodes_[a].parent;
        --da;
    }
    while (db > da) {
        b = nodes_[b].parent;
        --db;
    }
    while (a != b) {
        a = nodes_[a].parent;
        b = nodes_[b].parent;
    }
    return a;
}

bool
Topology::routePassesRoot(NodeId src, NodeId dst) const
{
    return lca(src, dst) == root();
}

std::size_t
Topology::routeHops(NodeId src, NodeId dst) const
{
    const NodeId common = lca(src, dst);
    return static_cast<std::size_t>((depth(src) - depth(common)) +
                                    (depth(dst) - depth(common)));
}

void
Topology::addRoute(DemandSet &out, NodeId src, NodeId dst,
                   double bytesPerUnit) const
{
    if (src == dst)
        return;
    const NodeId common = lca(src, dst);
    for (NodeId cur = src; cur != common; cur = nodes_[cur].parent)
        out.add(nodes_[cur].up, bytesPerUnit);
    addDownLinks(nodes_, out, common, dst, bytesPerUnit);
    if (common == root())
        out.add(rc_, 2.0 * bytesPerUnit);
}

void
Topology::addHostRoute(DemandSet &out, NodeId node_id, bool toDevice,
                       double bytesPerUnit) const
{
    for (NodeId cur = node_id; cur != root(); cur = nodes_[cur].parent)
        out.add(toDevice ? nodes_[cur].down : nodes_[cur].up, bytesPerUnit);
    out.add(rc_, bytesPerUnit);
}

void
Topology::scaleLinkBandwidth(double factor)
{
    panic_if(factor <= 0.0, "non-positive link scale %g", factor);
    // Only this fabric's resources change: on a shared network the
    // other servers' components stay clean, and the batch re-solves and
    // reschedules once.
    FluidNetwork::FlowBatch batch(net_);
    auto scale = [&](FluidResource *r) {
        net_.setCapacity(r, r->capacity() * factor);
    };
    for (auto &n : nodes_) {
        if (n.up)
            scale(n.up);
        if (n.down)
            scale(n.down);
    }
    scale(rc_);
}

} // namespace pcie
} // namespace tb
