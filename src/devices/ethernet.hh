/**
 * @file
 * Prep-pool Ethernet network (§IV-D, §V-D).
 *
 * A top-of-rack Ethernet switch connects the in-box FPGAs to a pool of
 * extra prep FPGAs. The pool is modeled as: one switch-fabric resource,
 * one 100 Gbps port per pool FPGA, and the pool FPGAs' engine resources.
 * Offloaded prep work flows: box-FPGA eth port -> switch -> pool port ->
 * pool engine -> back (return traffic accounted on the same ports).
 */

#ifndef TRAINBOX_DEVICES_ETHERNET_HH
#define TRAINBOX_DEVICES_ETHERNET_HH

#include <string>
#include <vector>

#include "fluid/fluid.hh"

namespace tb {

/** One pool FPGA reachable over Ethernet. */
struct PoolFpga
{
    std::string name;
    FluidResource *port;   ///< its 100 Gbps link to the switch
    FluidResource *engine; ///< its prep pipeline (samples/s)
};

/** The prep-pool: Ethernet switch + shared FPGAs. */
class PrepPool
{
  public:
    /**
     * @param fabricBw aggregate switch fabric bandwidth
     */
    PrepPool(FluidNetwork &net, const std::string &name,
             Rate fabricBw = 1.6e12);

    /** Add one pool FPGA with the given engine rate (samples/s). */
    PoolFpga &addFpga(Rate engineRate, Rate portBw = 12.5e9);

    FluidResource *fabric() const { return fabric_; }
    const std::vector<PoolFpga> &fpgas() const { return fpgas_; }
    std::size_t size() const { return fpgas_.size(); }

    /** Aggregate engine capacity of the pool (samples/s). */
    Rate totalEngineRate() const;

    /**
     * Scale the switch fabric to @p scale x nominal bandwidth (fault
     * injection: Ethernet degradation windows). 1.0 restores health.
     * Values outside [0, 1] are clamped with a logged warning.
     */
    void setFabricBandwidthScale(double scale);

  private:
    FluidNetwork &net_;
    std::string name_;
    FluidResource *fabric_;
    Rate nominalFabricBw_;
    double fabricScale_ = 1.0;
    std::vector<PoolFpga> fpgas_;
};

} // namespace tb

#endif // TRAINBOX_DEVICES_ETHERNET_HH
