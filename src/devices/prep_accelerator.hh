/**
 * @file
 * Data-preparation accelerator (§IV-B, §V-B/C).
 *
 * A prep accelerator is a PCIe leaf with:
 *   - an internal *engine* resource whose capacity is the chain throughput
 *     of its formatting+augmentation pipeline (samples/s) — the FPGA's
 *     computation-acceleration module, or a GPU running DALI-style prep;
 *   - on-board DRAM used as the double buffer (modeled as unbounded; the
 *     paper's design sizes it for two batches);
 *   - optionally an Ethernet port toward the prep-pool (FPGA only).
 */

#ifndef TRAINBOX_DEVICES_PREP_ACCELERATOR_HH
#define TRAINBOX_DEVICES_PREP_ACCELERATOR_HH

#include <string>

#include "pcie/topology.hh"

namespace tb {

/** One data-preparation accelerator attached to the PCIe tree. */
class PrepAccelerator
{
  public:
    /** 100 Gbps Ethernet per FPGA port (§IV-D). */
    static constexpr Rate defaultEthernetBw = 12.5e9;

    /**
     * @param engineRate chain throughput in samples/s for the active
     *                   input type (workload::PrepDemand::fpgaChainRate
     *                   or gpuChainRate)
     * @param withEthernet create a prep-pool port (FPGAs only)
     */
    PrepAccelerator(FluidNetwork &net, pcie::Topology &topo,
                    const std::string &name, pcie::NodeId parent,
                    Rate engineRate, bool withEthernet,
                    Rate linkBw = pcie::gen::gen3x16);

    const std::string &name() const { return name_; }
    pcie::NodeId node() const { return node_; }

    /** The formatting+augmentation pipeline resource (samples/s). */
    FluidResource *engine() const { return engine_; }

    /** Ethernet port toward the prep-pool (nullptr when absent). */
    FluidResource *ethernetPort() const { return ethPort_; }

    /**
     * Crash / repair the accelerator (fault injection). A failed engine
     * keeps a vestigial capacity (kFailedCapacityScale x nominal) so
     * stranded flows striped across it crawl instead of dividing by
     * zero — recovery policies are expected to cancel and re-dispatch
     * them (see docs/ROBUSTNESS.md).
     */
    void setFailed(bool failed);

    /** Residual engine capacity of a crashed accelerator. */
    static constexpr double kFailedCapacityScale = 1e-9;

  private:
    FluidNetwork &net_;
    std::string name_;
    pcie::NodeId node_;
    FluidResource *engine_;
    FluidResource *ethPort_ = nullptr;
    Rate nominalEngineRate_;
    bool failed_ = false;
};

} // namespace tb

#endif // TRAINBOX_DEVICES_PREP_ACCELERATOR_HH
