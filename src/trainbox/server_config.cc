#include "trainbox/server_config.hh"

#include <cstdio>

#include "common/logging.hh"

namespace tb {

const char *
presetName(ArchPreset p)
{
    switch (p) {
      case ArchPreset::Baseline:
        return "Baseline";
      case ArchPreset::BaselineAccFpga:
        return "B+Acc";
      case ArchPreset::BaselineAccGpu:
        return "B+Acc(GPU)";
      case ArchPreset::BaselineAccP2p:
        return "B+Acc+P2P";
      case ArchPreset::BaselineAccP2pGen4:
        return "B+Acc+P2P+Gen4";
      case ArchPreset::TrainBoxNoPool:
        return "TrainBox w/o pool";
      case ArchPreset::TrainBox:
        return "TrainBox";
    }
    return "?";
}

const char *
presetKey(ArchPreset p)
{
    switch (p) {
      case ArchPreset::Baseline:
        return "baseline";
      case ArchPreset::BaselineAccFpga:
        return "acc";
      case ArchPreset::BaselineAccGpu:
        return "acc-gpu";
      case ArchPreset::BaselineAccP2p:
        return "p2p";
      case ArchPreset::BaselineAccP2pGen4:
        return "p2p-gen4";
      case ArchPreset::TrainBoxNoPool:
        return "no-pool";
      case ArchPreset::TrainBox:
        return "trainbox";
    }
    return "?";
}

bool
parsePresetKey(const std::string &key, ArchPreset &out)
{
    for (ArchPreset p : allPresets())
        if (key == presetKey(p)) {
            out = p;
            return true;
        }
    return false;
}

const char *
presetDescription(ArchPreset p)
{
    switch (p) {
      case ArchPreset::Baseline:
        return "CPU data preparation, host-DRAM staging (Fig 12)";
      case ArchPreset::BaselineAccFpga:
        return "FPGA prep boxes, host-DRAM staging (Fig 13, Step 1)";
      case ArchPreset::BaselineAccGpu:
        return "GPU prep (1 GPU per 4 accelerators), host-DRAM staging";
      case ArchPreset::BaselineAccP2p:
        return "FPGA prep + peer-to-peer DMA (Fig 14, Steps 1-2)";
      case ArchPreset::BaselineAccP2pGen4:
        return "Steps 1-2 with PCIe Gen4 links";
      case ArchPreset::TrainBoxNoPool:
        return "clustered train boxes, no prep-pool (Fig 15 minus pool)";
      case ArchPreset::TrainBox:
        return "clustered train boxes + Ethernet prep-pool (Fig 15)";
    }
    return "?";
}

const std::vector<ArchPreset> &
allPresets()
{
    static const std::vector<ArchPreset> presets = {
        ArchPreset::Baseline,        ArchPreset::BaselineAccFpga,
        ArchPreset::BaselineAccP2p,  ArchPreset::BaselineAccP2pGen4,
        ArchPreset::TrainBoxNoPool,  ArchPreset::TrainBox,
        ArchPreset::BaselineAccGpu,
    };
    return presets;
}

bool
presetUsesPrepAccelerators(ArchPreset p)
{
    return p != ArchPreset::Baseline;
}

bool
presetUsesP2p(ArchPreset p)
{
    switch (p) {
      case ArchPreset::BaselineAccP2p:
      case ArchPreset::BaselineAccP2pGen4:
      case ArchPreset::TrainBoxNoPool:
      case ArchPreset::TrainBox:
        return true;
      default:
        return false;
    }
}

bool
presetUsesClustering(ArchPreset p)
{
    return p == ArchPreset::TrainBoxNoPool || p == ArchPreset::TrainBox;
}

ServerConfig
ServerConfig::forPreset(ArchPreset p)
{
    ServerConfig cfg;
    cfg.preset = p;
    return cfg;
}

ServerConfig
ServerConfig::baseline()
{
    return forPreset(ArchPreset::Baseline);
}

ServerConfig
ServerConfig::p2p()
{
    return forPreset(ArchPreset::BaselineAccP2p);
}

ServerConfig
ServerConfig::clustered()
{
    return forPreset(ArchPreset::TrainBoxNoPool);
}

ServerConfig
ServerConfig::trainBox()
{
    return forPreset(ArchPreset::TrainBox);
}

ServerConfig &
ServerConfig::withPreset(ArchPreset p)
{
    preset = p;
    return *this;
}

ServerConfig &
ServerConfig::withModel(workload::ModelId id)
{
    model = id;
    return *this;
}

ServerConfig &
ServerConfig::withModel(const std::string &name)
{
    model = workload::modelByName(name).id;
    return *this;
}

ServerConfig &
ServerConfig::withAccelerators(std::size_t n)
{
    numAccelerators = n;
    return *this;
}

ServerConfig &
ServerConfig::withBatchSize(std::size_t batch)
{
    batchSize = batch;
    return *this;
}

ServerConfig &
ServerConfig::withPrefetchDepth(std::size_t depth)
{
    prefetchDepth = depth;
    return *this;
}

ServerConfig &
ServerConfig::withPrepPoolFpgas(int fpgas)
{
    prepPoolFpgas = fpgas;
    return *this;
}

ServerConfig &
ServerConfig::withElasticity(const ElasticityConfig &e)
{
    elasticity = e;
    return *this;
}

ServerConfig &
ServerConfig::withIngest(const IngestConfig &i)
{
    ingest = i;
    return *this;
}

ServerConfig &
ServerConfig::withMetrics(bool on)
{
    metricsEnabled = on;
    return *this;
}

std::size_t
ServerConfig::effectiveBatchSize() const
{
    if (batchSize != 0)
        return batchSize;
    return workload::model(model).batchSize;
}

namespace {

/** snprintf into a std::string (validation messages only). */
template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

/** Elastic leave classes: sane arrival rate and time-away length. */
std::string
checkElasticClass(const char *name, const ElasticClassConfig &cc)
{
    if (cc.ratePerSec < 0.0)
        return fmt("elasticity.%s.ratePerSec must be >= 0, got %g", name,
                   cc.ratePerSec);
    if (cc.ratePerSec > 0.0 && cc.absence < 0.0)
        return fmt("elasticity.%s.absence must be >= 0, got %g", name,
                   cc.absence);
    return "";
}

/** Ingest traffic classes: sane rates, batch sizes, priorities. */
std::string
checkIngestClass(const char *name, const IngestClassConfig &cc)
{
    if (cc.ratePerSec < 0.0)
        return fmt("ingest.%s.ratePerSec must be >= 0, got %g", name,
                   cc.ratePerSec);
    if (cc.ratePerSec > 0.0 && cc.samplesPerEvent <= 0.0)
        return fmt("ingest.%s.samplesPerEvent must be > 0, got %g", name,
                   cc.samplesPerEvent);
    return "";
}

/** Windowed-fault classes must have windows that end after they start. */
std::string
checkFaultClass(const char *name, const FaultClassConfig &cc)
{
    if (cc.ratePerSec < 0.0)
        return fmt("faults.%s.ratePerSec must be >= 0, got %g", name,
                   cc.ratePerSec);
    if (cc.ratePerSec > 0.0 && cc.duration <= 0.0)
        return fmt("faults.%s window ends at or before it starts "
                   "(duration %g <= 0)",
                   name, cc.duration);
    if (cc.magnitude < 0.0)
        return fmt("faults.%s.magnitude must be >= 0, got %g", name,
                   cc.magnitude);
    return "";
}

} // namespace

std::string
ServerConfig::validate() const
{
    if (numAccelerators == 0)
        return "a server needs at least one accelerator "
               "(numAccelerators == 0)";
    if (prefetchDepth < 2)
        return fmt("prefetchDepth must be >= 2 (next-batch prefetch), "
                   "got %zu",
                   prefetchDepth);
    if (prepChunks == 0)
        return "prepChunks must be > 0";
    if (maxPrepParallelism <= 0.0)
        return fmt("maxPrepParallelism must be > 0, got %g",
                   maxPrepParallelism);

    if (box.accPerBox == 0)
        return "box.accPerBox must be > 0";
    if (box.prepPerBox == 0)
        return "box.prepPerBox must be > 0";
    if (box.ssdsPerBox == 0)
        return "box.ssdsPerBox must be > 0";
    if (box.ssdsPerSsdBox == 0)
        return "box.ssdsPerSsdBox must be > 0";

    if (host.cpuCores <= 0.0)
        return fmt("host.cpuCores must be > 0, got %g", host.cpuCores);
    if (host.memBandwidth <= 0.0)
        return fmt("host.memBandwidth must be > 0, got %g",
                   host.memBandwidth);
    if (host.rcBandwidth <= 0.0)
        return fmt("host.rcBandwidth must be > 0, got %g",
                   host.rcBandwidth);

    if (faults.ssdReadFailureProb < 0.0 ||
        faults.ssdReadFailureProb >= 1.0)
        return fmt("faults.ssdReadFailureProb must be in [0, 1), got %g",
                   faults.ssdReadFailureProb);
    if (faults.stragglerProb < 0.0 || faults.stragglerProb > 1.0)
        return fmt("faults.stragglerProb must be in [0, 1], got %g",
                   faults.stragglerProb);
    if (faults.stragglerFactor < 1.0)
        return fmt("faults.stragglerFactor must be >= 1, got %g",
                   faults.stragglerFactor);
    std::string err;
    if (!(err = checkFaultClass("ssdDegrade", faults.ssdDegrade)).empty())
        return err;
    if (!(err = checkFaultClass("prepCrash", faults.prepCrash)).empty())
        return err;
    if (!(err = checkFaultClass("ethDegrade", faults.ethDegrade)).empty())
        return err;
    if (!(err = checkFaultClass("routeLoss", faults.routeLoss)).empty())
        return err;
    // fatalCrash is a point event: duration is ignored, only the rate
    // must be sane.
    if (faults.fatalCrash.ratePerSec < 0.0)
        return fmt("faults.fatalCrash.ratePerSec must be >= 0, got %g",
                   faults.fatalCrash.ratePerSec);

    const CorruptionConfig &corr = faults.corruption;
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k) {
        const auto kind = static_cast<CorruptionKind>(k);
        const double p = corr.probFor(kind);
        if (p < 0.0 || p >= 1.0)
            return fmt("faults.corruption probability for %s must be in "
                       "[0, 1), got %g",
                       corruptionKindName(kind), p);
    }
    if (corr.pcieReplayLatency < 0.0)
        return fmt("faults.corruption.pcieReplayLatency must be >= 0, "
                   "got %g",
                   corr.pcieReplayLatency);

    if (checkpoint.restartLatency < 0.0)
        return fmt("checkpoint.restartLatency must be >= 0, got %g",
                   checkpoint.restartLatency);
    if (checkpoint.enabled) {
        if (checkpoint.interval <= 0.0)
            return fmt("checkpoint.interval must be > 0, got %g",
                       checkpoint.interval);
        if (checkpoint.optimizerSlots < 0.0)
            return fmt("checkpoint.optimizerSlots must be >= 0, got %g",
                       checkpoint.optimizerSlots);
        if (checkpoint.snapshotBandwidth <= 0.0)
            return fmt("checkpoint.snapshotBandwidth must be > 0, got %g",
                       checkpoint.snapshotBandwidth);
    }

    if (elasticity.graceWindow < 0.0)
        return fmt("elasticity.graceWindow must be >= 0, got %g",
                   elasticity.graceWindow);
    if (elasticity.rejoinLatency < 0.0)
        return fmt("elasticity.rejoinLatency must be >= 0, got %g",
                   elasticity.rejoinLatency);
    if (elasticity.sloTargetSamplesPerSec < 0.0)
        return fmt("elasticity.sloTargetSamplesPerSec must be >= 0, "
                   "got %g",
                   elasticity.sloTargetSamplesPerSec);
    if (elasticity.scaleUpTime < 0.0)
        return fmt("elasticity.scaleUpTime must be >= 0, got %g",
                   elasticity.scaleUpTime);
    if (!(err = checkElasticClass("groupDrain", elasticity.groupDrain))
             .empty())
        return err;
    if (!(err = checkElasticClass("groupPreempt",
                                  elasticity.groupPreempt))
             .empty())
        return err;
    if (!(err = checkElasticClass("prepDrain", elasticity.prepDrain))
             .empty())
        return err;
    if (!(err = checkElasticClass("prepPreempt", elasticity.prepPreempt))
             .empty())
        return err;
    const std::size_t numGroups =
        (numAccelerators + box.accPerBox - 1) / box.accPerBox;
    if (elasticity.deferredJoinGroups > 0 &&
        elasticity.deferredJoinGroups >= numGroups)
        return fmt("elasticity.deferredJoinGroups (%zu) must leave at "
                   "least one of the %zu groups active at start",
                   elasticity.deferredJoinGroups, numGroups);
    Time prevAt = 0.0;
    for (std::size_t i = 0; i < elasticity.schedule.size(); ++i) {
        const ElasticEvent &ev = elasticity.schedule[i];
        if (ev.at < 0.0)
            return fmt("elasticity.schedule[%zu].at must be >= 0, got %g",
                       i, ev.at);
        if (ev.at < prevAt)
            return fmt("elasticity.schedule must be ordered by time: "
                       "event %zu at %g precedes event %zu at %g",
                       i, ev.at, i - 1, prevAt);
        prevAt = ev.at;
        if (ev.index >= numGroups)
            return fmt("elasticity.schedule[%zu] targets %s %zu but the "
                       "topology has only %zu groups",
                       i, elasticTargetKindName(ev.target), ev.index,
                       numGroups);
    }

    if (ingest.enabled) {
        if (!(err = checkIngestClass("steady", ingest.steady)).empty())
            return err;
        if (!(err = checkIngestClass("diurnal", ingest.diurnal)).empty())
            return err;
        if (!(err = checkIngestClass("burst", ingest.burst)).empty())
            return err;
        if (ingest.diurnalAmplitude < 0.0 || ingest.diurnalAmplitude > 1.0)
            return fmt("ingest.diurnalAmplitude must be in [0, 1], got %g",
                       ingest.diurnalAmplitude);
        if (ingest.diurnal.ratePerSec > 0.0 && ingest.diurnalPeriod <= 0.0)
            return fmt("ingest.diurnalPeriod must be > 0, got %g",
                       ingest.diurnalPeriod);
        if (ingest.bufferCapacity <= 0.0)
            return fmt("ingest.bufferCapacity must be > 0 samples, got %g",
                       ingest.bufferCapacity);
        if (ingest.lowWatermark < 0.0)
            return fmt("ingest.lowWatermark must be >= 0, got %g",
                       ingest.lowWatermark);
        if (!(ingest.lowWatermark < ingest.highWatermark &&
              ingest.highWatermark <= ingest.bufferCapacity))
            return fmt("ingest watermarks must be ordered low < high <= "
                       "capacity, got low %g, high %g, capacity %g",
                       ingest.lowWatermark, ingest.highWatermark,
                       ingest.bufferCapacity);
        if (ingest.policyChain.empty())
            return "ingest.policyChain must name at least one overload "
                   "policy";
        for (std::size_t i = 0; i < ingest.policyChain.size(); ++i)
            for (std::size_t j = i + 1; j < ingest.policyChain.size(); ++j)
                if (ingest.policyChain[i] == ingest.policyChain[j])
                    return fmt("ingest.policyChain lists %s twice "
                               "(positions %zu and %zu)",
                               ingestPolicyName(ingest.policyChain[i]), i,
                               j);
        if (ingest.throttleFactor < 0.0 || ingest.throttleFactor >= 1.0)
            return fmt("ingest.throttleFactor must be in [0, 1), got %g",
                       ingest.throttleFactor);
        if (ingest.echoFactor < 1.0)
            return fmt("ingest.echoFactor must be >= 1, got %g",
                       ingest.echoFactor);
        if (ingest.echoEfficiency < 0.0 || ingest.echoEfficiency > 1.0)
            return fmt("ingest.echoEfficiency must be in [0, 1], got %g",
                       ingest.echoEfficiency);
        if (ingest.stalenessSlo < 0.0)
            return fmt("ingest.stalenessSlo must be >= 0, got %g",
                       ingest.stalenessSlo);
        if (ingest.writeChunkSamples <= 0.0)
            return fmt("ingest.writeChunkSamples must be > 0, got %g",
                       ingest.writeChunkSamples);
        if (ingest.writeFailureProb < 0.0 || ingest.writeFailureProb >= 1.0)
            return fmt("ingest.writeFailureProb must be in [0, 1), got %g",
                       ingest.writeFailureProb);
        if (ingest.writeRetryBackoff < 0.0)
            return fmt("ingest.writeRetryBackoff must be >= 0, got %g",
                       ingest.writeRetryBackoff);
        prevAt = 0.0;
        for (std::size_t i = 0; i < ingest.schedule.size(); ++i) {
            const IngestArrival &ev = ingest.schedule[i];
            if (ev.at < 0.0)
                return fmt("ingest.schedule[%zu].at must be >= 0, got %g",
                           i, ev.at);
            if (ev.at < prevAt)
                return fmt("ingest.schedule must be ordered by time: "
                           "event %zu at %g precedes event %zu at %g",
                           i, ev.at, i - 1, prevAt);
            prevAt = ev.at;
            if (ev.samples < 0.0)
                return fmt("ingest.schedule[%zu].samples must be >= 0, "
                           "got %g",
                           i, ev.samples);
        }
    }
    return "";
}

} // namespace tb
