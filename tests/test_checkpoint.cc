/**
 * @file
 * Checkpoint/restore subsystem tests: the disabled path must be
 * bit-identical to a build without the subsystem, the enabled path must
 * show the modeled costs (sync pause > async pause, nonzero prep
 * contention on central presets), crash rollback must be deterministic,
 * the Young–Daly helpers must match their closed forms, and a simulated
 * interval sweep must peak near the first-order optimum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "preset_goldens.hh"
#include "result_digest.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 4,
           std::size_t measure = 8)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

/** VGG-19 scenario shared by the overhead/crash tests. */
ServerConfig
vggConfig(ArchPreset preset)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = workload::ModelId::Vgg19;
    cfg.numAccelerators = 32;
    cfg.prepPoolFpgas = 8;
    return cfg;
}

// --- disabled => bit-identical --------------------------------------

TEST(CheckpointDisabled, PresetThroughputsBitIdentical)
{
    // With checkpointing disabled no new resource, flow, or event may
    // perturb the simulation, so the preset goldens match to the bit.
    for (const PresetGolden &g : kPresetGoldens) {
        ServerConfig cfg;
        cfg.preset = g.preset;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 32;
        const SessionResult res = runSession(cfg);
        EXPECT_DOUBLE_EQ(res.throughput, g.throughput)
            << presetName(g.preset);
        EXPECT_EQ(res.checkpoint.committed, 0u) << presetName(g.preset);
        EXPECT_EQ(res.checkpoint.bytesWritten, 0.0)
            << presetName(g.preset);
        EXPECT_DOUBLE_EQ(
            SessionReport::computeEfficiency(res.checkpoint, res.wallTime),
            1.0)
            << presetName(g.preset);
    }
}

// --- checkpoint size -------------------------------------------------

TEST(CheckpointSize, ScalesWithModelAndOptimizer)
{
    const auto &vgg = workload::model(workload::ModelId::Vgg19);
    EXPECT_DOUBLE_EQ(workload::checkpointBytes(vgg, 0.0),
                     vgg.modelBytes);
    EXPECT_DOUBLE_EQ(workload::checkpointBytes(vgg, 2.0),
                     3.0 * vgg.modelBytes);

    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.enabled = true;
    auto server = buildServer(cfg);
    Checkpointer ckpt(*server, nullptr);
    EXPECT_DOUBLE_EQ(ckpt.totalBytes(),
                     workload::checkpointBytes(
                         vgg, cfg.checkpoint.optimizerSlots));
}

// --- sync / async overhead ------------------------------------------

TEST(CheckpointOverhead, SyncPausesTraining)
{
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    const SessionResult healthy = runSession(cfg, 4, 40);

    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = 3.0;
    const SessionResult ckpt = runSession(cfg, 4, 40);

    EXPECT_GT(ckpt.checkpoint.committed, 0u);
    EXPECT_GT(ckpt.checkpoint.pauseTime, 0.0);
    EXPECT_GT(ckpt.checkpoint.avgCost, 0.0);
    EXPECT_GT(ckpt.checkpoint.bytesWritten, 0.0);
    EXPECT_LT(ckpt.throughput, healthy.throughput);
    EXPECT_LT(SessionReport::computeEfficiency(ckpt.checkpoint,
                                               ckpt.wallTime),
              1.0);
    EXPECT_EQ(ckpt.checkpoint.fatalCrashes, 0u);

    // The run is a deterministic simulation: repeating it must
    // reproduce every counter exactly.
    const SessionResult again = runSession(cfg, 4, 40);
    EXPECT_DOUBLE_EQ(again.throughput, ckpt.throughput);
    EXPECT_DOUBLE_EQ(again.checkpoint.pauseTime,
                     ckpt.checkpoint.pauseTime);
    EXPECT_EQ(again.checkpoint.committed, ckpt.checkpoint.committed);
}

TEST(CheckpointOverhead, AsyncPausesLessThanSync)
{
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = 3.0;

    cfg.checkpoint.mode = CheckpointMode::Sync;
    const SessionResult sync = runSession(cfg, 4, 40);
    cfg.checkpoint.mode = CheckpointMode::Async;
    const SessionResult async = runSession(cfg, 4, 40);

    ASSERT_GT(sync.checkpoint.committed, 0u);
    ASSERT_GT(async.checkpoint.committed, 0u);
    // Async pauses only for the buffer snapshot; sync pauses for the
    // whole SSD drain.
    EXPECT_LT(async.checkpoint.pauseTime, sync.checkpoint.pauseTime);
    EXPECT_GE(async.throughput, sync.throughput);
    // ...but durability costs the same bytes either way.
    EXPECT_GT(async.checkpoint.bytesWritten, 0.0);
}

TEST(CheckpointContention, ClusteringShieldsPrepFromDrains)
{
    // The paper's balance argument, applied to checkpoint traffic:
    // central presets push drains through host DRAM, CPU serialization,
    // and the RC, so prep throughput drops; clustered train boxes write
    // over in-box links only. Snapshot bandwidth is set high so the
    // pause is negligible and the penalty isolates drain contention.
    auto penalty = [](ArchPreset p) {
        ServerConfig cfg = vggConfig(p);
        const double healthy = runSession(cfg, 4, 40).throughput;
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.mode = CheckpointMode::Async;
        cfg.checkpoint.interval = 0.5;
        cfg.checkpoint.snapshotBandwidth = 2.0e12;
        const double ckpt = runSession(cfg, 4, 40).throughput;
        return 1.0 - ckpt / healthy;
    };
    const double base = penalty(ArchPreset::Baseline);
    const double clustered = penalty(ArchPreset::TrainBox);
    EXPECT_GT(base, 0.005);
    EXPECT_LT(clustered, base);
}

// --- crash rollback --------------------------------------------------

TEST(CheckpointCrash, RollbackIsDeterministicAndBounded)
{
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = 3.0;
    cfg.checkpoint.restartLatency = 5.0;
    cfg.faults.enabled = true;
    cfg.faults.fatalCrash.ratePerSec = 0.05;

    const SessionResult a = runSession(cfg, 4, 40);
    ASSERT_GT(a.checkpoint.fatalCrashes, 0u)
        << "crash rate too low to exercise rollback";
    // A crash on a durable step replays nothing; this one must lose
    // steps, so the determinism half below compares two replays.
    ASSERT_GT(a.checkpoint.stepsLost, 0u);
    // The interrupted run still completes every step (replay), and the
    // downtime/lost-work ledger adds up to less than the wall time.
    EXPECT_EQ(a.stepsMeasured, 40u);
    EXPECT_GT(a.checkpoint.restartTime, 0.0);
    EXPECT_GE(a.checkpoint.lostWorkTime, 0.0);
    EXPECT_LT(a.checkpoint.pauseTime + a.checkpoint.lostWorkTime +
                  a.checkpoint.restartTime,
              a.wallTime);
    const double a_eff =
        SessionReport::computeEfficiency(a.checkpoint, a.wallTime);
    EXPECT_GT(a_eff, 0.0);
    EXPECT_LT(a_eff, 1.0);

    // Determinism: an identical config replays the identical history.
    const SessionResult b = runSession(cfg, 4, 40);
    EXPECT_DOUBLE_EQ(b.throughput, a.throughput);
    EXPECT_DOUBLE_EQ(b.wallTime, a.wallTime);
    EXPECT_EQ(b.checkpoint.fatalCrashes, a.checkpoint.fatalCrashes);
    EXPECT_EQ(b.checkpoint.stepsLost, a.checkpoint.stepsLost);
    EXPECT_DOUBLE_EQ(b.checkpoint.lostWorkTime,
                     a.checkpoint.lostWorkTime);
}

// A session killed after a fatal-crash rollback counts each measured
// step index once, at its first sync, as a completed run does: the
// steps the crash rolled back stay in stepsMeasured and throughput.
// Here the crash at step 7 rolls back to step 0, below the warm-up
// (before, the closed form then reported 0 steps and no throughput).
TEST(CheckpointCrash, KilledAfterRollbackCountsEachStepOnce)
{
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.restartLatency = 5.0;
    cfg.faults.enabled = true;
    cfg.faults.fatalCrash.ratePerSec = 0.02;

    auto server = buildServer(cfg);
    TrainingSession session(*server);
    session.start(4, 40);
    EventQueue &eq = server->core().events();
    std::size_t peak = 0;
    while (!session.done() && eq.step()) {
        if (session.stepsSynced() < peak)
            break; // rolled back
        peak = std::max(peak, session.stepsSynced());
    }
    ASSERT_EQ(session.stepsSynced(), 0u);
    ASSERT_EQ(peak, 7u);
    session.kill();
    const SessionResult res = session.collect();
    EXPECT_EQ(res.stepsMeasured, 3u);
    EXPECT_NEAR(res.throughput * res.stepTime,
                32.0 * static_cast<double>(server->batchSize()),
                1e-9 * res.throughput * res.stepTime);
    EXPECT_EQ(hexDigest(res), "0x8e5e8f2bc5612ddc");
}

TEST(CheckpointCrash, CheckpointingBeatsRestartFromScratch)
{
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.restartLatency = 5.0;
    cfg.faults.enabled = true;
    cfg.faults.fatalCrash.ratePerSec = 0.02;

    // Without periodic checkpoints every crash rolls back to step 0.
    const SessionResult scratch = runSession(cfg, 4, 40);
    ASSERT_GT(scratch.checkpoint.fatalCrashes, 0u);
    EXPECT_EQ(scratch.checkpoint.committed, 0u);

    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = 3.0;
    const SessionResult ckpt = runSession(cfg, 4, 40);
    ASSERT_GT(ckpt.checkpoint.fatalCrashes, 0u);

    EXPECT_LT(ckpt.checkpoint.stepsLost, scratch.checkpoint.stepsLost);
    EXPECT_LT(ckpt.checkpoint.lostWorkTime,
              scratch.checkpoint.lostWorkTime);
    EXPECT_GT(SessionReport::computeEfficiency(ckpt.checkpoint,
                                               ckpt.wallTime),
              SessionReport::computeEfficiency(scratch.checkpoint,
                                               scratch.wallTime));
    EXPECT_GT(ckpt.throughput, scratch.throughput);
}

// --- ratio guards ----------------------------------------------------

TEST(SessionRatios, DegenerateDenominatorsReturnZero)
{
    SessionResult r;
    r.throughput = 100.0;
    EXPECT_DOUBLE_EQ(SessionReport::computeGoodput(r.throughput, 0.0),
                     0.0);
    EXPECT_DOUBLE_EQ(SessionReport::computeGoodput(r.throughput, -1.0),
                     0.0);
    EXPECT_DOUBLE_EQ(SessionReport::computeGoodput(r.throughput, 200.0),
                     0.5);
    r.wallTime = 0.0; // never ran: no useful-time claim
    EXPECT_DOUBLE_EQ(
        SessionReport::computeEfficiency(r.checkpoint, r.wallTime), 0.0);
    r.wallTime = 10.0;
    r.checkpoint.pauseTime = 1.0;
    r.checkpoint.restartTime = 1.0;
    EXPECT_DOUBLE_EQ(
        SessionReport::computeEfficiency(r.checkpoint, r.wallTime), 0.8);
    r.checkpoint.lostWorkTime = 1e9; // ledger noise can't go negative
    EXPECT_DOUBLE_EQ(
        SessionReport::computeEfficiency(r.checkpoint, r.wallTime), 0.0);
}

// --- Young–Daly helpers ---------------------------------------------

TEST(YoungDaly, FirstOrderOptimum)
{
    EXPECT_DOUBLE_EQ(youngDalyInterval(2.0, 3600.0),
                     std::sqrt(2.0 * 2.0 * 3600.0));
    EXPECT_DOUBLE_EQ(youngDalyInterval(0.0, 3600.0), 0.0);
    EXPECT_DOUBLE_EQ(youngDalyInterval(2.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(youngDalyInterval(-1.0, -1.0), 0.0);
}

TEST(YoungDaly, DalyRefinement)
{
    const double c = 2.0, m = 3600.0;
    const double x = c / (2.0 * m);
    const double expect =
        std::sqrt(2.0 * c * m) * (1.0 + std::sqrt(x) / 3.0 + x) - c;
    EXPECT_DOUBLE_EQ(dalyInterval(c, m), expect);
    // Refinement is a small correction when C << M...
    EXPECT_NEAR(dalyInterval(c, m), youngDalyInterval(c, m),
                0.1 * youngDalyInterval(c, m));
    // ...and falls back to first order when C >= 2M.
    EXPECT_DOUBLE_EQ(dalyInterval(10.0, 4.0),
                     youngDalyInterval(10.0, 4.0));
}

TEST(YoungDaly, EfficiencyModelPeaksAtOptimum)
{
    const double c = 2.0, m = 3600.0, r = 10.0;
    const double w = youngDalyInterval(c, m);
    const double at_opt = checkpointEfficiencyModel(w, c, m, r);
    // The analytic optimum beats intervals well off to either side.
    EXPECT_GT(at_opt, checkpointEfficiencyModel(w / 4.0, c, m, r));
    EXPECT_GT(at_opt, checkpointEfficiencyModel(w * 4.0, c, m, r));
    EXPECT_GT(at_opt, 0.9);
    EXPECT_LT(at_opt, 1.0);
    // Degenerate inputs clamp to zero.
    EXPECT_DOUBLE_EQ(checkpointEfficiencyModel(0.0, c, m, r), 0.0);
    EXPECT_DOUBLE_EQ(checkpointEfficiencyModel(w, c, 0.0, r), 0.0);
}

TEST(YoungDaly, SimulatedOptimumNearAnalytic)
{
    // bench/checkpoint_sweep's first table: VGG-19 on a 32-accelerator
    // TrainBox under Poisson fatal crashes (MTBF 100 s, 5 s restart),
    // sync checkpoints at nine intervals around sqrt(2CM), each run
    // over eight crash schedules of 2,000 steps. C is the checkpoint
    // cost of a crash-free run. The interval with the best mean
    // efficiency must lie within 20 % of sqrt(2CM).
    constexpr Time kMtbf = 100.0;
    constexpr std::uint64_t kSeeds = 8;
    ServerConfig cfg = vggConfig(ArchPreset::TrainBox);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = 5.0;
    cfg.checkpoint.restartLatency = 5.0;
    const Time cost = runSession(cfg, 4, 200).checkpoint.avgCost;
    ASSERT_GT(cost, 0.0);
    const Time analytic = youngDalyInterval(cost, kMtbf);

    cfg.faults.enabled = true;
    cfg.faults.fatalCrash.ratePerSec = 1.0 / kMtbf;
    Time best = 0.0;
    double bestEfficiency = -1.0;
    for (double f : {0.25, 0.35, 0.5, 0.71, 1.0, 1.41, 2.0, 2.83, 4.0}) {
        cfg.checkpoint.interval = f * analytic;
        double sum = 0.0;
        for (std::uint64_t s = 0; s < kSeeds; ++s) {
            cfg.faults.seed = 0x59440000u + s;
            const SessionResult res = runSession(cfg, 4, 2000);
            sum += SessionReport::computeEfficiency(res.checkpoint,
                                                    res.wallTime);
        }
        const double efficiency = sum / kSeeds;
        if (efficiency > bestEfficiency) {
            bestEfficiency = efficiency;
            best = cfg.checkpoint.interval;
        }
    }
    EXPECT_NEAR(best, analytic, 0.20 * analytic);
}

} // namespace
} // namespace tb
