/**
 * @file
 * NVMe SSD model.
 *
 * An SSD is a PCIe leaf whose internal read path is a bandwidth resource
 * (flash channels + controller). Reads place demand on the internal
 * resource and on the PCIe route toward the destination; the builder
 * composes the two.
 *
 * Writes (checkpoint drains) use a separate, slower internal write path
 * — NAND program operations — but are not free for concurrent readers:
 * program/erase cycles steal controller and channel time, so each
 * written byte also consumes a fraction of the read path
 * (kWriteReadInterference). This is what makes checkpoint traffic
 * contend with data-preparation reads on the very SSDs that feed them.
 */

#ifndef TRAINBOX_DEVICES_SSD_HH
#define TRAINBOX_DEVICES_SSD_HH

#include <string>

#include "pcie/topology.hh"

namespace tb {

/** One NVMe SSD attached to the PCIe tree. */
class NvmeSsd
{
  public:
    /** Typical datacenter NVMe sequential-read bandwidth. */
    static constexpr Rate defaultReadBandwidth = 3.2e9;

    /** Sequential-write (NAND program) bandwidth; well below reads. */
    static constexpr Rate defaultWriteBandwidth = 1.8e9;

    /** Read-path capacity consumed per written byte (mixed workload). */
    static constexpr double kWriteReadInterference = 0.35;

    /**
     * Write amplification of streaming shard appends. Checkpoint
     * drains are large sequential writes; ingest shard appends are
     * smaller and continuous, so the FTL rewrites partially-filled
     * blocks and each logical byte costs more NAND program time.
     */
    static constexpr double kShardWriteAmplification = 1.15;

    /**
     * Create the device: attaches a PCIe leaf under @p parent and
     * internal read/write bandwidth resources in @p net.
     */
    NvmeSsd(FluidNetwork &net, pcie::Topology &topo,
            const std::string &name, pcie::NodeId parent,
            Rate linkBw = pcie::gen::gen3x16 / 4.0,
            Rate readBw = defaultReadBandwidth,
            Rate writeBw = defaultWriteBandwidth);

    const std::string &name() const { return name_; }
    pcie::NodeId node() const { return node_; }

    /** Internal read-path resource. */
    FluidResource *readBandwidth() const { return readBw_; }

    /** Internal write-path (NAND program) resource. */
    FluidResource *writeBandwidth() const { return writeBw_; }

    /** Demand on the internal read path per flow base unit. */
    FlowDemand readDemand(double bytesPerUnit) const
    {
        return {readBw_, bytesPerUnit};
    }

    /** Demand on the internal write path per flow base unit. */
    FlowDemand writeDemand(double bytesPerUnit) const
    {
        return {writeBw_, bytesPerUnit};
    }

    /**
     * Read-path capacity a write flow steals per base unit — writes
     * and reads share controller/channel time, so checkpoint drains
     * slow concurrent prep reads even with a dedicated write resource.
     */
    FlowDemand writeReadInterference(double bytesPerUnit) const
    {
        return {readBw_, bytesPerUnit * kWriteReadInterference};
    }

    /**
     * Demand on the write path per shard-appended byte: the write
     * amplification of streaming appends on top of the NAND program
     * cost (ingest shard writes, docs/ROBUSTNESS.md).
     */
    FlowDemand shardWriteDemand(double bytesPerUnit) const
    {
        return writeDemand(bytesPerUnit * kShardWriteAmplification);
    }

    /** Read-path interference per shard-appended byte. */
    FlowDemand shardWriteReadInterference(double bytesPerUnit) const
    {
        return writeReadInterference(bytesPerUnit *
                                     kShardWriteAmplification);
    }

    /**
     * Scale the read path to @p scale x nominal bandwidth (fault
     * injection: latency-spike windows). 1.0 restores full health;
     * in-flight flows re-converge immediately. Values outside [0, 1]
     * are clamped with a logged warning.
     */
    void setReadBandwidthScale(double scale);

  private:
    FluidNetwork &net_;
    std::string name_;
    pcie::NodeId node_;
    FluidResource *readBw_;
    FluidResource *writeBw_;
    Rate nominalReadBw_;
    double readScale_ = 1.0;
};

} // namespace tb

#endif // TRAINBOX_DEVICES_SSD_HH
