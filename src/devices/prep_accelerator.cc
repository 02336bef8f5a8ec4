#include "devices/prep_accelerator.hh"

namespace tb {

PrepAccelerator::PrepAccelerator(FluidNetwork &net, pcie::Topology &topo,
                                 const std::string &name,
                                 pcie::NodeId parent, Rate engine_rate,
                                 bool with_ethernet, Rate link_bw)
    : net_(net),
      name_(name),
      node_(topo.addDevice(name, parent, link_bw)),
      engine_(net.addResource(name + ".engine", engine_rate)),
      nominalEngineRate_(engine_rate)
{
    if (with_ethernet)
        ethPort_ = net.addResource(name + ".eth", defaultEthernetBw);
}

void
PrepAccelerator::setFailed(bool failed)
{
    if (failed == failed_)
        return;
    failed_ = failed;
    net_.setCapacity(engine_, nominalEngineRate_ *
                                  (failed ? kFailedCapacityScale : 1.0));
}

} // namespace tb
