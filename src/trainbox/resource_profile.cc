#include "trainbox/resource_profile.hh"

#include "common/logging.hh"

namespace tb {

using workload::PrepStage;
using workload::stageCategory;

namespace {

/**
 * Rescale the formatting + augmentation stage CPU costs so their sum
 * matches the live-measured per-sample cost (the executor measures
 * exactly that slice of the chain); 0 keeps the modeled constants.
 */
void
applyCalibration(workload::PrepDemand &d, workload::InputType input,
                 const PrepCostCalibration &calib)
{
    const double measured = input == workload::InputType::Image
        ? calib.imageCoreSecPerSample
        : calib.audioCoreSecPerSample;
    if (measured <= 0.0)
        return;

    double modeled = 0.0;
    for (PrepStage st : {PrepStage::Formatting, PrepStage::Augmentation}) {
        auto it = d.cpuByStage.find(st);
        if (it != d.cpuByStage.end())
            modeled += it->second;
    }
    if (modeled <= 0.0)
        return;

    const double scale = measured / modeled;
    for (PrepStage st : {PrepStage::Formatting, PrepStage::Augmentation}) {
        auto it = d.cpuByStage.find(st);
        if (it == d.cpuByStage.end())
            continue;
        d.cpuCoreSec += it->second * (scale - 1.0);
        it->second *= scale;
    }
}

} // namespace

HostDemandBreakdown
requiredHostDemand(const workload::ModelInfo &m, ArchPreset preset,
                   std::size_t n, const sync::SyncConfig &sync_cfg)
{
    return requiredHostDemand(m, preset, n, sync_cfg,
                              PrepCostCalibration{});
}

HostDemandBreakdown
requiredHostDemand(const workload::ModelInfo &m, ArchPreset preset,
                   std::size_t n, const sync::SyncConfig &sync_cfg,
                   const PrepCostCalibration &calib)
{
    workload::PrepDemand d = workload::prepDemand(m.input);
    applyCalibration(d, m.input, calib);
    const Rate target = workload::targetThroughput(m, n, sync_cfg);

    HostDemandBreakdown out;
    auto add_cpu = [&](const std::string &cat, double core_sec) {
        if (core_sec <= 0.0)
            return;
        out.cpuByCategory[cat] += core_sec * target;
        out.cpuCores += core_sec * target;
    };
    auto add_mem = [&](const std::string &cat, Bytes bytes) {
        if (bytes <= 0.0)
            return;
        out.memByCategory[cat] += bytes * target;
        out.memBw += bytes * target;
    };
    auto add_rc = [&](const std::string &cat, Bytes bytes) {
        if (bytes <= 0.0)
            return;
        out.rcByCategory[cat] += bytes * target;
        out.rcBw += bytes * target;
    };

    auto stage_cpu = [&](PrepStage st) {
        auto it = d.cpuByStage.find(st);
        return it == d.cpuByStage.end() ? 0.0 : it->second;
    };
    auto stage_mem = [&](PrepStage st) {
        auto it = d.memByStage.find(st);
        return it == d.memByStage.end() ? 0.0 : it->second;
    };

    switch (preset) {
      case ArchPreset::Baseline:
        // CPU runs the full chain out of host DRAM; RC carries the
        // compressed input in and the prepared tensor out.
        for (PrepStage st :
             {PrepStage::SsdRead, PrepStage::Formatting,
              PrepStage::Augmentation, PrepStage::DataLoad,
              PrepStage::Others}) {
            add_cpu(stageCategory(st), stage_cpu(st));
            add_mem(stageCategory(st), stage_mem(st));
        }
        add_rc(stageCategory(PrepStage::SsdRead), d.ssdBytes);
        add_rc(stageCategory(PrepStage::DataLoad), d.preparedBytes);
        break;

      case ArchPreset::BaselineAccFpga:
      case ArchPreset::BaselineAccGpu:
        // Offloaded compute, but every transfer stages through host
        // DRAM: RC pressure doubles (§IV-D).
        add_cpu(stageCategory(PrepStage::SsdRead),
                stage_cpu(PrepStage::SsdRead));
        add_cpu("data_copy", 2.0 * kDmaSetupCpu);
        add_cpu(stageCategory(PrepStage::DataLoad), kDmaSetupCpu);
        add_cpu(stageCategory(PrepStage::Others),
                stage_cpu(PrepStage::Others));
        add_mem(stageCategory(PrepStage::SsdRead), d.ssdBytes);
        add_mem("data_copy", d.ssdBytes + d.preparedBytes);
        add_mem(stageCategory(PrepStage::DataLoad), d.preparedBytes);
        add_rc(stageCategory(PrepStage::SsdRead), d.ssdBytes);
        add_rc("data_copy", d.ssdBytes + d.preparedBytes);
        add_rc(stageCategory(PrepStage::DataLoad), d.preparedBytes);
        break;

      case ArchPreset::BaselineAccP2p:
      case ArchPreset::BaselineAccP2pGen4:
        // P2P frees DRAM and the CPU, but inter-box routes still hop
        // up-and-over the RC (2x per transfer) — total RC bytes match
        // the staged variant.
        add_cpu(stageCategory(PrepStage::Others), 3.0 * kP2pControlCpu);
        add_rc(stageCategory(PrepStage::SsdRead), 2.0 * d.ssdBytes);
        add_rc(stageCategory(PrepStage::DataLoad), 2.0 * d.preparedBytes);
        break;

      case ArchPreset::TrainBoxNoPool:
      case ArchPreset::TrainBox:
        // Clustering localizes every transfer inside a train box.
        add_cpu(stageCategory(PrepStage::Others), 2.0 * kP2pControlCpu);
        break;
    }
    return out;
}

} // namespace tb
