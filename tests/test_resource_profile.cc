/**
 * @file
 * Tests for the analytic host-resource demand model (Figs 10/11/22).
 */

#include <gtest/gtest.h>

#include "trainbox/resource_profile.hh"

namespace tb {
namespace {

using workload::ModelId;

TEST(Profile, BaselineCpuMatchesClosedForm)
{
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::Resnet50);
    const HostDemandBreakdown d =
        requiredHostDemand(m, ArchPreset::Baseline, 256, sync_cfg);
    const double target = workload::targetThroughput(m, 256, sync_cfg);
    EXPECT_NEAR(d.cpuCores, target * 1.572e-3, 1.0);
}

TEST(Profile, CategoriesSumToTotals)
{
    sync::SyncConfig sync_cfg;
    for (const auto &m : workload::modelZoo()) {
        for (ArchPreset p : allPresets()) {
            const HostDemandBreakdown d =
                requiredHostDemand(m, p, 64, sync_cfg);
            double cpu = 0.0, mem = 0.0, rc = 0.0;
            for (const auto &[c, v] : d.cpuByCategory)
                cpu += v;
            for (const auto &[c, v] : d.memByCategory)
                mem += v;
            for (const auto &[c, v] : d.rcByCategory)
                rc += v;
            EXPECT_NEAR(cpu, d.cpuCores, 1e-6);
            EXPECT_NEAR(mem, d.memBw, 1.0);
            EXPECT_NEAR(rc, d.rcBw, 1.0);
        }
    }
}

TEST(Profile, PeakCoreDemandNearPaper)
{
    // Fig 10a: up to ~100.7x DGX-2's 48 cores at 256 accelerators.
    sync::SyncConfig sync_cfg;
    const HostConfig dgx2;
    double peak = 0.0;
    for (const auto &m : workload::modelZoo()) {
        const HostDemandBreakdown d =
            requiredHostDemand(m, ArchPreset::Baseline, 256, sync_cfg);
        peak = std::max(peak, d.cpuCores / dgx2.cpuCores);
    }
    EXPECT_NEAR(peak, 100.7, 5.0);
}

TEST(Profile, AccDoublesRcPressure)
{
    // §IV-D: the staged-offload datapath doubles RC bytes vs baseline.
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::Resnet50);
    const auto base =
        requiredHostDemand(m, ArchPreset::Baseline, 256, sync_cfg);
    const auto acc =
        requiredHostDemand(m, ArchPreset::BaselineAccFpga, 256, sync_cfg);
    EXPECT_NEAR(acc.rcBw / base.rcBw, 2.0, 1e-9);
}

TEST(Profile, P2pMatchesAccOnRcButFreesMemory)
{
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::Resnet50);
    const auto acc =
        requiredHostDemand(m, ArchPreset::BaselineAccFpga, 256, sync_cfg);
    const auto p2p =
        requiredHostDemand(m, ArchPreset::BaselineAccP2p, 256, sync_cfg);
    EXPECT_NEAR(p2p.rcBw, acc.rcBw, 1.0);
    EXPECT_DOUBLE_EQ(p2p.memBw, 0.0);
    // P2P removes the NVMe-driver and DMA-staging work (§VI-E); only
    // control-plane cycles remain.
    EXPECT_LT(p2p.cpuCores, 0.2 * acc.cpuCores);
}

TEST(Profile, ClusteringRemovesHostDemand)
{
    sync::SyncConfig sync_cfg;
    for (const auto &m : workload::modelZoo()) {
        const auto d =
            requiredHostDemand(m, ArchPreset::TrainBox, 256, sync_cfg);
        EXPECT_DOUBLE_EQ(d.memBw, 0.0);
        EXPECT_DOUBLE_EQ(d.rcBw, 0.0);
        EXPECT_LT(d.cpuCores, 48.0); // only control-plane work
    }
}

TEST(Profile, ImageDataLoadExceedsSsdRead)
{
    // Fig 11 insight: decode + casting amplify the loaded data beyond
    // the stored size.
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::Resnet50);
    const auto d =
        requiredHostDemand(m, ArchPreset::Baseline, 256, sync_cfg);
    EXPECT_GT(d.rcByCategory.at("data_load"),
              d.rcByCategory.at("ssd_read"));
}

TEST(Profile, CalibrationRescalesPrepCpuOnly)
{
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::Resnet50);
    const auto modeled =
        requiredHostDemand(m, ArchPreset::Baseline, 64, sync_cfg);

    // A machine whose measured formatting+augmentation cost is double
    // the Table I constant should need proportionally more cores for
    // those stages — and identical bandwidth.
    const double modeled_prep =
        modeled.cpuByCategory.at("formatting") +
        modeled.cpuByCategory.at("augmentation");
    const double target = workload::targetThroughput(m, 64, sync_cfg);

    PrepCostCalibration calib;
    calib.imageCoreSecPerSample = 2.0 * modeled_prep / target;
    const auto measured =
        requiredHostDemand(m, ArchPreset::Baseline, 64, sync_cfg, calib);

    EXPECT_NEAR(measured.cpuByCategory.at("formatting"),
                2.0 * modeled.cpuByCategory.at("formatting"), 1e-6);
    EXPECT_NEAR(measured.cpuByCategory.at("augmentation"),
                2.0 * modeled.cpuByCategory.at("augmentation"), 1e-6);
    EXPECT_NEAR(measured.cpuCores - modeled.cpuCores, modeled_prep, 1e-6);
    EXPECT_DOUBLE_EQ(measured.memBw, modeled.memBw);
    EXPECT_DOUBLE_EQ(measured.rcBw, modeled.rcBw);

    // Audio calibration must not perturb an image workload.
    PrepCostCalibration audio_only;
    audio_only.audioCoreSecPerSample = 1.0;
    const auto unchanged = requiredHostDemand(m, ArchPreset::Baseline, 64,
                                              sync_cfg, audio_only);
    EXPECT_DOUBLE_EQ(unchanged.cpuCores, modeled.cpuCores);
}

TEST(Profile, DemandScalesLinearlyWithN)
{
    sync::SyncConfig sync_cfg;
    const auto &m = workload::model(ModelId::TfAa);
    const auto d64 =
        requiredHostDemand(m, ArchPreset::Baseline, 64, sync_cfg);
    const auto d256 =
        requiredHostDemand(m, ArchPreset::Baseline, 256, sync_cfg);
    EXPECT_NEAR(d256.cpuCores / d64.cpuCores, 4.0, 0.05);
    EXPECT_NEAR(d256.memBw / d64.memBw, 4.0, 0.05);
}

} // namespace
} // namespace tb
