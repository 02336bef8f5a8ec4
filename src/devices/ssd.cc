#include "devices/ssd.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

NvmeSsd::NvmeSsd(FluidNetwork &net, pcie::Topology &topo,
                 const std::string &name, pcie::NodeId parent,
                 Rate link_bw, Rate read_bw, Rate write_bw)
    : net_(net),
      name_(name),
      node_(topo.addDevice(name, parent, link_bw)),
      readBw_(net.addResource(name + ".flash", read_bw)),
      writeBw_(net.addResource(name + ".write", write_bw)),
      nominalReadBw_(read_bw)
{
}

void
NvmeSsd::setReadBandwidthScale(double scale)
{
    if (scale < 0.0 || scale > 1.0) {
        warn("ssd %s: read-bandwidth scale %g outside [0, 1]; clamping",
             name_.c_str(), scale);
        scale = std::clamp(scale, 0.0, 1.0);
    }
    if (scale == readScale_)
        return;
    readScale_ = scale;
    // Floor the effective capacity so the fluid allocator never sees a
    // zero-capacity resource (flows would take infinite time).
    net_.setCapacity(readBw_, nominalReadBw_ * std::max(scale, 1e-9));
}

} // namespace tb
