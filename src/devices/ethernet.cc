#include "devices/ethernet.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

PrepPool::PrepPool(FluidNetwork &net, const std::string &name,
                   Rate fabric_bw)
    : net_(net), name_(name),
      fabric_(net.addResource(name + ".fabric", fabric_bw)),
      nominalFabricBw_(fabric_bw)
{
}

void
PrepPool::setFabricBandwidthScale(double scale)
{
    if (scale < 0.0 || scale > 1.0) {
        warn("pool %s: fabric scale %g outside [0, 1]; clamping",
             name_.c_str(), scale);
        scale = std::clamp(scale, 0.0, 1.0);
    }
    if (scale == fabricScale_)
        return;
    fabricScale_ = scale;
    // Keep a tiny floor so in-flight flows stay finite-time.
    net_.setCapacity(fabric_, nominalFabricBw_ * std::max(scale, 1e-9));
}

PoolFpga &
PrepPool::addFpga(Rate engine_rate, Rate port_bw)
{
    const std::string id = name_ + ".fpga" + std::to_string(fpgas_.size());
    PoolFpga fpga;
    fpga.name = id;
    fpga.port = net_.addResource(id + ".eth", port_bw);
    fpga.engine = net_.addResource(id + ".engine", engine_rate);
    fpgas_.push_back(fpga);
    return fpgas_.back();
}

} // namespace tb
