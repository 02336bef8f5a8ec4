/**
 * @file
 * Tests for multi-job rack planning (§V-D) and partial reconfiguration
 * cost (§V-C).
 */

#include <gtest/gtest.h>

#include "fpga/engine_library.hh"
#include "trainbox/multi_job.hh"

namespace tb {
namespace {

using workload::ModelId;

TEST(MultiJob, SingleUnderloadedJobHasSurplus)
{
    const RackPlan plan =
        planRack({{ModelId::InceptionV4, 64}}, 8);
    ASSERT_EQ(plan.jobs.size(), 1u);
    const JobAllocation &j = plan.jobs[0];
    EXPECT_TRUE(plan.feasible);
    EXPECT_EQ(j.boxes, 8u);
    EXPECT_GT(j.surplusFpgas, 0u);
    EXPECT_EQ(j.deficitFpgas, 0u);
    EXPECT_EQ(plan.externalPoolFpgas, 0u);
}

TEST(MultiJob, SingleAudioJobNeedsExternalPoolWhenAlone)
{
    const RackPlan plan = planRack({{ModelId::TfSr, 64}}, 8);
    const JobAllocation &j = plan.jobs[0];
    EXPECT_GT(j.deficitFpgas, 0u);
    EXPECT_EQ(j.borrowedFpgas, 0u); // nobody to borrow from
    EXPECT_EQ(j.externalFpgas, j.deficitFpgas);
    EXPECT_EQ(plan.externalPoolFpgas, j.deficitFpgas);
}

TEST(MultiJob, ImageJobLendsToAudioJob)
{
    // The paper's §V-D scenario: underutilized image-job FPGAs serve as
    // the audio job's prep-pool.
    const RackPlan plan = planRack(
        {{ModelId::InceptionV4, 128}, {ModelId::TfSr, 128}}, 32);
    ASSERT_EQ(plan.jobs.size(), 2u);
    EXPECT_TRUE(plan.feasible);
    const JobAllocation &image = plan.jobs[0];
    const JobAllocation &audio = plan.jobs[1];
    EXPECT_GT(image.surplusFpgas, 0u);
    EXPECT_GT(audio.deficitFpgas, 0u);
    EXPECT_GT(audio.borrowedFpgas, 0u);
    EXPECT_EQ(audio.borrowedFpgas + audio.externalFpgas,
              audio.deficitFpgas);
    EXPECT_EQ(plan.fpgasLent, audio.borrowedFpgas);
    // The image job has plenty of idle decode capacity: no external
    // FPGAs should be needed here.
    EXPECT_EQ(plan.externalPoolFpgas, 0u);
}

TEST(MultiJob, RackCapacityIsChecked)
{
    const RackPlan ok = planRack({{ModelId::Resnet50, 128}}, 16);
    EXPECT_TRUE(ok.feasible);
    const RackPlan too_small = planRack({{ModelId::Resnet50, 256}}, 16);
    EXPECT_FALSE(too_small.feasible);
    EXPECT_EQ(too_small.boxesUsed, 32u);
    EXPECT_EQ(too_small.boxesAvailable, 16u);
}

TEST(MultiJob, SmallerJobsSeeLowerSyncOverhead)
{
    // §II footnote 2: each job syncs only its own accelerators.
    const RackPlan plan = planRack(
        {{ModelId::Vgg19, 8}, {ModelId::Vgg19, 248}}, 32);
    ASSERT_EQ(plan.jobs.size(), 2u);
    const double small_per_acc =
        plan.jobs[0].demand / 8.0;
    const double large_per_acc = plan.jobs[1].demand / 248.0;
    EXPECT_GT(small_per_acc, large_per_acc);
}

TEST(MultiJob, DeficitsServedLargestFirst)
{
    // One donor, two borrowers; the bigger deficit is served first.
    const RackPlan plan = planRack({{ModelId::InceptionV4, 16},
                                    {ModelId::TfSr, 64},
                                    {ModelId::TfAa, 64}},
                                   32);
    const JobAllocation &tfsr = plan.jobs[1];
    const JobAllocation &tfaa = plan.jobs[2];
    EXPECT_GT(tfaa.deficitFpgas, tfsr.deficitFpgas);
    if (plan.fpgasLent < tfaa.deficitFpgas + tfsr.deficitFpgas) {
        EXPECT_GE(tfaa.borrowedFpgas, tfsr.borrowedFpgas);
    }
}

TEST(Reconfig, ImageToAudioKeepsInterfacingBlocks)
{
    const fpga::ReconfigEstimate est = fpga::reconfigurationCost(
        fpga::imageFloorplan(), fpga::audioFloorplan());
    // Audio plan has 6 engines, 2 of which (ethernet, p2p) are resident.
    EXPECT_EQ(est.enginesChanged, 4u);
    EXPECT_GT(est.bitstreamBytes, 0.0);
    EXPECT_GT(est.seconds, 0.0);
    EXPECT_LT(est.seconds, 2.0); // sub-second-scale partial reconfig
}

TEST(Reconfig, IdenticalPlansAreFree)
{
    const fpga::ReconfigEstimate est = fpga::reconfigurationCost(
        fpga::imageFloorplan(), fpga::imageFloorplan());
    EXPECT_EQ(est.enginesChanged, 0u);
    EXPECT_DOUBLE_EQ(est.bitstreamBytes, 0.0);
    EXPECT_DOUBLE_EQ(est.seconds, 0.0);
}

TEST(Reconfig, CostScalesWithChangedLogic)
{
    // Audio -> image reprograms the huge JPEG decoder; image -> audio
    // reprograms the huge spectrogram. Both are large; swapping only a
    // small engine is much cheaper.
    fpga::Floorplan small_from(fpga::xcvu9p());
    small_from.add(fpga::ethernetProtocolEngine());
    small_from.add(fpga::cropEngine());
    fpga::Floorplan small_to(fpga::xcvu9p());
    small_to.add(fpga::ethernetProtocolEngine());
    small_to.add(fpga::mirrorEngine());

    const auto small_est =
        fpga::reconfigurationCost(small_from, small_to);
    const auto big_est = fpga::reconfigurationCost(
        fpga::imageFloorplan(), fpga::audioFloorplan());
    EXPECT_LT(small_est.bitstreamBytes, 0.05 * big_est.bitstreamBytes);
}

} // namespace
} // namespace tb
