/**
 * @file
 * Integration tests for the training session: the paper's headline
 * behaviours must hold in simulation.
 */

#include <gtest/gtest.h>

#include <string>

#include "solve_budget.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

double
runThroughput(ArchPreset preset, workload::ModelId model, std::size_t n,
              std::size_t warmup = 6, std::size_t measure = 12)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = model;
    cfg.numAccelerators = n;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure).throughput;
}

TEST(Session, CategoryMapsIgnoreMetricsSwitch)
{
    // The category maps are charged up to the window end whether or not
    // metrics are on: turning metrics on must not move them by a bit.
    for (ArchPreset preset : {ArchPreset::Baseline, ArchPreset::TrainBox}) {
        SessionResult res[2];
        for (int on = 0; on < 2; ++on) {
            ServerConfig cfg;
            cfg.preset = preset;
            cfg.model = workload::ModelId::Resnet50;
            cfg.numAccelerators = 32;
            cfg.metricsEnabled = on == 1;
            auto server = buildServer(cfg);
            TrainingSession session(*server);
            res[on] = session.run(4, 8);
        }
        EXPECT_FALSE(res[0].cpuCoresByCategory.empty());
        EXPECT_EQ(res[0].cpuCoresByCategory, res[1].cpuCoresByCategory);
        EXPECT_EQ(res[0].memBwByCategory, res[1].memBwByCategory);
        EXPECT_EQ(res[0].rcBwByCategory, res[1].rcBwByCategory);
        EXPECT_EQ(res[0].throughput, res[1].throughput);
        // Baseline saturates the 48 host cores for the whole window, so
        // maps charged up to the window end sum to the full pool.
        if (preset == ArchPreset::Baseline) {
            EXPECT_NEAR(
                SessionReport::sumCategories(res[0].cpuCoresByCategory),
                48.0, 1e-9);
        }
    }
}

TEST(Session, BaselineIsCpuBound)
{
    // 48 cores / 1.572 ms per sample = ~30.5k samples/s regardless of
    // accelerator count once saturated.
    const double thpt =
        runThroughput(ArchPreset::Baseline, workload::ModelId::Resnet50,
                      256);
    EXPECT_NEAR(thpt, 48.0 / 1.572e-3, 0.05 * (48.0 / 1.572e-3));
}

TEST(Session, BaselineAudioIsCpuBound)
{
    const double thpt = runThroughput(ArchPreset::Baseline,
                                      workload::ModelId::TfSr, 256);
    EXPECT_NEAR(thpt, 48.0 / 5.45e-3, 0.05 * (48.0 / 5.45e-3));
}

TEST(Session, SmallBaselineDeliversTarget)
{
    // One accelerator's demand is far below prep capacity.
    const double thpt = runThroughput(ArchPreset::Baseline,
                                      workload::ModelId::InceptionV4, 1);
    EXPECT_NEAR(thpt, 1669.0, 60.0);
}

TEST(Session, TrainBoxReachesTargetForInception)
{
    sync::SyncConfig sync_cfg;
    const double target = workload::targetThroughput(
        workload::model(workload::ModelId::InceptionV4), 256, sync_cfg);
    const double thpt = runThroughput(ArchPreset::TrainBox,
                                      workload::ModelId::InceptionV4, 256);
    EXPECT_NEAR(thpt, target, 0.02 * target);
}

TEST(Session, TrainBoxReachesTargetForAudioWithPool)
{
    sync::SyncConfig sync_cfg;
    const double target = workload::targetThroughput(
        workload::model(workload::ModelId::TfSr), 256, sync_cfg);
    const double thpt = runThroughput(ArchPreset::TrainBox,
                                      workload::ModelId::TfSr, 256);
    EXPECT_NEAR(thpt, target, 0.03 * target);
}

TEST(Session, PoolIsRequiredForAudioAtScale)
{
    // Fig 21b: without the prep-pool TF-SR is capped by in-box FPGAs at
    // 10.4k samples/s per box (vs a ~16k demand).
    const double with_pool = runThroughput(
        ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    const double without = runThroughput(
        ArchPreset::TrainBoxNoPool, workload::ModelId::TfSr, 256);
    EXPECT_LT(without, 0.72 * with_pool);
    EXPECT_GT(without, 0.55 * with_pool);
}

TEST(Session, P2pAloneDoesNotHelp)
{
    // Fig 19: B+Acc+P2P ~ B+Acc (the RC is still crossed twice).
    const double acc = runThroughput(ArchPreset::BaselineAccFpga,
                                     workload::ModelId::Resnet50, 256);
    const double p2p = runThroughput(ArchPreset::BaselineAccP2p,
                                     workload::ModelId::Resnet50, 256);
    EXPECT_NEAR(p2p / acc, 1.0, 0.1);
}

TEST(Session, Gen4DoublesPcieBoundThroughput)
{
    const double p2p = runThroughput(ArchPreset::BaselineAccP2p,
                                     workload::ModelId::Resnet50, 256);
    const double gen4 = runThroughput(ArchPreset::BaselineAccP2pGen4,
                                      workload::ModelId::Resnet50, 256);
    EXPECT_NEAR(gen4 / p2p, 2.0, 0.15);
}

TEST(Session, ClusteringBeatsGen4)
{
    // Fig 19: "TrainBox without Gen4 shows even higher improvement" —
    // the bottleneck is the datapath, not the link speed.
    const double gen4 = runThroughput(ArchPreset::BaselineAccP2pGen4,
                                      workload::ModelId::Resnet50, 256);
    const double trainbox = runThroughput(
        ArchPreset::TrainBox, workload::ModelId::Resnet50, 256);
    EXPECT_GT(trainbox, 2.0 * gen4);
}

TEST(Session, GpuPrepLosesToFpgaPrep)
{
    const double gpu = runThroughput(ArchPreset::BaselineAccGpu,
                                     workload::ModelId::InceptionV4, 64);
    const double fpga = runThroughput(ArchPreset::BaselineAccFpga,
                                      workload::ModelId::InceptionV4, 64);
    EXPECT_LT(gpu, fpga);
}

TEST(Session, TrainBoxScalesLinearly)
{
    double prev = 0.0;
    for (std::size_t n : {8u, 32u, 128u}) {
        const double thpt = runThroughput(
            ArchPreset::TrainBox, workload::ModelId::InceptionV4, n, 4, 8);
        EXPECT_GT(thpt, prev * 3.5); // ~4x per step
        prev = thpt;
    }
}

TEST(Session, ResultFieldsConsistent)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::Baseline;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult res = session.run(4, 8);

    EXPECT_EQ(res.stepsMeasured, 8u);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_GT(res.stepTime, 0.0);
    EXPECT_NEAR(res.throughput,
                16.0 * 8192.0 / res.stepTime, 1.0);
    EXPECT_DOUBLE_EQ(res.computeTime, server->computeTime());
    EXPECT_DOUBLE_EQ(res.syncTime, server->syncTime());
    EXPECT_GT(res.prepLatency, 0.0);

    // Baseline prep must report the CPU stage times.
    EXPECT_TRUE(res.prepStageTime.count("formatting"));
    EXPECT_TRUE(res.prepStageTime.count("augmentation"));
    EXPECT_TRUE(res.prepStageTime.count("ssd_read"));
    EXPECT_TRUE(res.prepStageTime.count("data_load"));

    // Accounting sanity: can't use more CPU than exists.
    const double cpu =
        SessionReport::sumCategories(res.cpuCoresByCategory);
    EXPECT_LE(cpu, 48.0 * 1.0001);
    EXPECT_GT(cpu, 0.0);
    EXPECT_GT(SessionReport::sumCategories(res.memBwByCategory), 0.0);
    EXPECT_GT(SessionReport::sumCategories(res.rcBwByCategory), 0.0);
}

TEST(Session, TrainBoxFreesHostResources)
{
    auto run = [](ArchPreset p) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 64;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8);
    };
    const SessionResult base = run(ArchPreset::Baseline);
    const SessionResult tbox = run(ArchPreset::TrainBox);
    // Per unit of throughput, TrainBox uses orders of magnitude less of
    // every host resource (Fig 22).
    const auto sum = SessionReport::sumCategories;
    EXPECT_LT(sum(tbox.cpuCoresByCategory) / tbox.throughput,
              0.02 * sum(base.cpuCoresByCategory) / base.throughput);
    EXPECT_LT(sum(tbox.memBwByCategory),
              0.01 * sum(base.memBwByCategory));
    EXPECT_LT(sum(tbox.rcBwByCategory), 0.01 * sum(base.rcBwByCategory));
}

TEST(Session, P2pFreesHostMemory)
{
    auto run = [](ArchPreset p) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 64;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8);
    };
    const SessionResult acc = run(ArchPreset::BaselineAccFpga);
    const SessionResult p2p = run(ArchPreset::BaselineAccP2p);
    EXPECT_LT(SessionReport::sumCategories(p2p.memBwByCategory),
              0.01 * SessionReport::sumCategories(acc.memBwByCategory));
}

TEST(Session, ChunkingDoesNotChangeSteadyThroughput)
{
    // Ablation: sub-batch pipelining granularity must not change the
    // capacity-bound result.
    double results[2];
    int i = 0;
    for (std::size_t chunks : {1u, 4u}) {
        ServerConfig cfg;
        cfg.preset = ArchPreset::TrainBox;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 32;
        cfg.prepChunks = chunks;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        results[i++] = session.run(4, 8).throughput;
    }
    EXPECT_NEAR(results[0], results[1], 0.02 * results[0]);
}

TEST(Session, BatchSizeSweepFavorsTrainBox)
{
    // Fig 20: at 256 accelerators TrainBox wins at small and large
    // batches, and the gap widens with batch size.
    auto run = [](ArchPreset p, std::size_t batch) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 256;
        cfg.batchSize = batch;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8).throughput;
    };
    const double gap_small = run(ArchPreset::TrainBox, 128) /
                             run(ArchPreset::Baseline, 128);
    const double gap_large = run(ArchPreset::TrainBox, 8192) /
                             run(ArchPreset::Baseline, 8192);
    EXPECT_GT(gap_small, 1.5);
    EXPECT_GT(gap_large, gap_small);
}

TEST(Session, EveryEventCostsAtMostOneSolve)
{
    // A handler that changes many flows at one instant (a step boundary
    // restarting every group, a crash, a checkpoint drain) batches them
    // into one fluid solve. Fig 19's presets, every model:
    for (ArchPreset preset :
         {ArchPreset::Baseline, ArchPreset::BaselineAccFpga,
          ArchPreset::BaselineAccP2p, ArchPreset::BaselineAccP2pGen4,
          ArchPreset::TrainBox}) {
        for (const workload::ModelInfo &m : workload::modelZoo())
            runWithinSolveBudget(
                ServerConfig().withPreset(preset).withModel(m.id)
                    .withAccelerators(64),
                4, 8, std::string(presetName(preset)) + " " + m.name);
    }

    // Checkpoint drains, snapshots and fatal-crash rollbacks.
    for (ArchPreset preset : {ArchPreset::Baseline, ArchPreset::TrainBox}) {
        for (CheckpointMode mode :
             {CheckpointMode::Sync, CheckpointMode::Async}) {
            ServerConfig cfg = ServerConfig()
                                   .withPreset(preset)
                                   .withModel(workload::ModelId::Vgg19)
                                   .withAccelerators(32)
                                   .withPrepPoolFpgas(8);
            cfg.checkpoint.enabled = true;
            cfg.checkpoint.mode = mode;
            cfg.checkpoint.interval = 3.0;
            cfg.checkpoint.restartLatency = 5.0;
            cfg.faults.enabled = true;
            cfg.faults.fatalCrash.ratePerSec = 0.02;
            const SessionResult res = runWithinSolveBudget(
                cfg, 4, 40,
                std::string(presetName(preset)) + " " +
                    checkpointModeName(mode) + " checkpoints");
            EXPECT_GT(res.checkpoint.committed, 0u);
            EXPECT_GT(res.checkpoint.fatalCrashes, 0u);
        }
    }

    auto trainBox = [](std::size_t accs, int pool) {
        return ServerConfig()
            .withPreset(ArchPreset::TrainBox)
            .withModel(workload::ModelId::Resnet50)
            .withAccelerators(accs)
            .withPrepPoolFpgas(pool);
    };

    // Prep-FPGA crashes re-dispatched onto the pool.
    ServerConfig crash = trainBox(32, 8);
    crash.faults.enabled = true;
    crash.faults.poolFailover = true;
    crash.faults.prepCrash.ratePerSec = 0.5;
    crash.faults.prepCrash.duration = 1.0;
    EXPECT_GT(runWithinSolveBudget(crash, 4, 8, "prep crash failover")
                  .faults.prepFailovers,
              0u);

    // Elastic prep and group drains and preemptions.
    ServerConfig elastic = trainBox(16, 4);
    elastic.elasticity.enabled = true;
    elastic.elasticity.graceWindow = 0.2;
    elastic.elasticity.prepDrain = {0.4, 0.5};
    elastic.elasticity.prepPreempt = {0.4, 0.5};
    elastic.elasticity.groupDrain = {0.2, 1.0};
    elastic.elasticity.groupPreempt = {0.2, 1.0};
    const SessionResult leaves =
        runWithinSolveBudget(elastic, 3, 10, "elastic leaves");
    EXPECT_GT(leaves.elasticity.drains, 0u);
    EXPECT_GT(leaves.elasticity.preemptions, 0u);
    EXPECT_GT(leaves.elasticity.chainsRebalanced, 0u);

    // An ingest stall released while a group drains
    // (ChaosIngest.StallDuringDrainStaysLive).
    ServerConfig stall = trainBox(16, 4);
    stall.ingest.enabled = true;
    stall.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed,
                                IngestPolicy::Echo, IngestPolicy::Stall};
    stall.ingest.bufferCapacity = 65536.0;
    stall.ingest.highWatermark = 8192.0;
    stall.ingest.lowWatermark = 4096.0;
    stall.ingest.throttleFactor = 0.9;
    for (int i = 0; i < 24; ++i)
        stall.ingest.schedule.push_back(
            {IngestTrafficKind::Burst, 4096.0, 3, 1.0 + 2e-4 * i});
    stall.elasticity.enabled = true;
    stall.elasticity.graceWindow = 0.3;
    stall.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 1.0},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 4.0},
    };
    EXPECT_GE(runWithinSolveBudget(stall, 3, 6, "ingest stall during drain")
                  .ingest.stalls,
              1u);
}

} // namespace
} // namespace tb
