/**
 * @file
 * Fault injection + recovery: deterministic schedules, the recovery
 * policy on a bare injector (FaultRecoveryUnit), the zero-cost disabled
 * path, reproducible degradation, failover effectiveness, and one
 * pinned digest of every SessionResult field per fault scenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "result_digest.hh"
#include "sim/fault_injector.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

FaultConfig
windowScenario()
{
    FaultConfig fc;
    fc.enabled = true;
    fc.ssdDegrade = {0.5, 2.0, 0.05};
    fc.prepCrash = {0.2, 5.0, 0.0};
    fc.ethDegrade = {0.3, 1.0, 0.2};
    fc.routeLoss = {0.1, 4.0, 0.0};
    return fc;
}

TEST(FaultSchedule, DeterministicAndNonOverlapping)
{
    const FaultConfig fc = windowScenario();
    FaultTargets targets;
    targets.numSsds = 8;
    targets.prepGroups = targets.hostPathGroups = {0, 1, 2, 3};
    targets.pool = true;

    const auto a = FaultInjector::schedule(fc, targets, 100.0);
    const auto b = FaultInjector::schedule(fc, targets, 100.0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
        EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    }

    // Windows of one class never overlap, and targets stay in range.
    std::map<FaultKind, Time> prev_end;
    for (const auto &ev : a) {
        EXPECT_GE(ev.start, prev_end[ev.kind]);
        prev_end[ev.kind] = ev.start + ev.duration;
        const std::size_t space = ev.kind == FaultKind::SsdDegrade
            ? targets.numSsds
            : (ev.kind == FaultKind::EthDegrade ? 1
                                                : targets.prepGroups.size());
        EXPECT_LT(ev.target, space);
    }
}

TEST(FaultSchedule, NewSeedNewSchedule)
{
    FaultConfig fc = windowScenario();
    FaultTargets targets;
    targets.numSsds = 8;
    targets.prepGroups = targets.hostPathGroups = {0, 1, 2, 3};
    targets.pool = true;
    const auto a = FaultInjector::schedule(fc, targets, 100.0);
    fc.seed ^= 0x1;
    const auto b = FaultInjector::schedule(fc, targets, 100.0);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_NE(a.front().start, b.front().start);
}

TEST(FaultSchedule, DisabledClassesProduceNothing)
{
    const FaultConfig fc; // all rates zero
    FaultTargets targets;
    targets.numSsds = 4;
    targets.prepGroups = targets.hostPathGroups = {0, 1};
    targets.pool = true;
    EXPECT_TRUE(FaultInjector::schedule(fc, targets, 1000.0).empty());
}

TEST(FaultSchedule, ArmPlaysExactlyThePreview)
{
    FaultConfig fc = windowScenario();
    fc.fatalCrash.ratePerSec = 0.05;
    FaultTargets targets;
    targets.numSsds = 8;
    targets.prepGroups = targets.hostPathGroups = {0, 1, 2, 3};
    targets.pool = true;
    constexpr Time kHorizon = 100.0;
    const auto preview = FaultInjector::schedule(fc, targets, kHorizon);
    ASSERT_GT(preview.size(), 20u);

    // Arm off the zero clock, as a fleet job admitted mid-run does.
    EventQueue eq;
    eq.run(3.7);
    const Time origin = eq.now();
    FaultInjector inj(fc, targets);
    std::vector<std::pair<Time, FaultEvent>> played;
    inj.arm(
        eq,
        [&](const FaultEvent &ev) {
            if (ev.start < kHorizon)
                played.emplace_back(eq.now(), ev);
        },
        nullptr);
    while (eq.nextTime() <= origin + kHorizon)
        eq.step();

    ASSERT_EQ(played.size(), preview.size());
    for (std::size_t i = 0; i < preview.size(); ++i) {
        const auto &[at, ev] = played[i];
        EXPECT_EQ(ev.kind, preview[i].kind) << i;
        EXPECT_EQ(ev.target, preview[i].target) << i;
        EXPECT_EQ(ev.start, preview[i].start) << i;
        EXPECT_EQ(ev.duration, preview[i].duration) << i;
        EXPECT_EQ(at, origin + preview[i].start) << i;
    }
}

TEST(FaultSchedule, DisarmInsideHandlerStopsEveryClass)
{
    const FaultConfig fc = windowScenario();
    FaultTargets targets;
    targets.numSsds = 8;
    targets.prepGroups = targets.hostPathGroups = {0, 1, 2, 3};
    targets.pool = true;
    EventQueue eq;
    FaultInjector inj(fc, targets);
    std::size_t faults = 0, repairs = 0;
    inj.arm(
        eq,
        [&](const FaultEvent &) {
            ++faults;
            inj.disarm();
        },
        [&](const FaultEvent &) { ++repairs; });
    // Only the first window's repair outlives the disarm.
    std::size_t steps = 0;
    while (steps < 100 && eq.step())
        ++steps;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(repairs, 1u);
    EXPECT_EQ(inj.stats().faultsInjected, 1u);
}

// --- the recovery policy on a bare injector (no server, no session) --

/** A prep-chain stage as FaultInjector::afterStage() reads it. */
struct Stage
{
    unsigned corruptionHops = 0;
    bool verifiesIntegrity = false;
};

/** A probability every draw passes (uniform() < it below 1 - 2^-53). */
const double kAlways = std::nextafter(1.0, 0.0);

TEST(FaultRecoveryUnit, FailedReadsBackOffThenRestartTheChain)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.ssdReadFailureProb = kAlways;
    FaultInjector inj(fc, {});
    const std::vector<Stage> stages(3);
    ChainRetryState chain;
    // Retry k re-runs the read after 50 us * 2^k, for k = 0, 1, 2.
    for (int k = 0; k < 3; ++k) {
        const ChainStep step = inj.afterStage(chain, stages, 1, true, "c");
        EXPECT_FALSE(step.restart) << k;
        EXPECT_EQ(step.stage, 1u) << k;
        EXPECT_EQ(step.delay, 50e-6 * (1 << k)) << k;
    }
    // The fourth failure abandons the chunk.
    EXPECT_TRUE(inj.afterStage(chain, stages, 1, true, "c").restart);
    // A restarted chain starts its retries over.
    chain = {};
    EXPECT_EQ(inj.afterStage(chain, stages, 1, true, "c").delay, 50e-6);

    inj.stop();
    EXPECT_EQ(inj.stats().ssdRetries, 4u);
    EXPECT_EQ(inj.stats().chunksAbandoned, 1u);
    EXPECT_EQ(inj.stats().readFailures, 5u);
}

TEST(FaultRecoveryUnit, VerifiedFlipIsReReadThenQuarantined)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.corruption.ssdBitFlipProb = kAlways;
    FaultInjector inj(fc, {});
    const unsigned flip = corruptionBit(CorruptionKind::SsdBitFlip);
    const std::vector<Stage> stages = {{flip, false}, {}, {0, true}};
    ChainRetryState chain;
    for (int k = 0; k <= 3; ++k) {
        // The read's flip is detected (a verify lies downstream) and
        // rides the chunk to the verify stage.
        ChainStep step = inj.afterStage(chain, stages, 0, true, "c");
        EXPECT_FALSE(step.restart);
        EXPECT_EQ(step.stage, 1u);
        EXPECT_EQ(step.delay, 0.0);
        EXPECT_EQ(chain.pendingCorruptions, 1u);
        step = inj.afterStage(chain, stages, 1, false, "c");
        EXPECT_EQ(step.stage, 2u);
        EXPECT_EQ(step.delay, 0.0);
        // The verify re-reads the chunk after 50 us * 2^k, three times,
        // then quarantines it.
        step = inj.afterStage(chain, stages, 2, false, "c");
        EXPECT_EQ(chain.pendingCorruptions, 0u);
        if (k < 3) {
            EXPECT_FALSE(step.restart) << k;
            EXPECT_EQ(step.stage, 0u) << k;
            EXPECT_EQ(step.delay, 50e-6 * (1 << k)) << k;
        } else {
            EXPECT_TRUE(step.restart);
        }
    }
    inj.stop();
    const IntegrityStats &in = inj.integrity();
    EXPECT_EQ(in.injected, 4u);
    EXPECT_EQ(in.injectedByKind[0], 4u);
    EXPECT_EQ(in.detected, 4u);
    EXPECT_EQ(in.escaped, 0u);
    EXPECT_EQ(in.recoveries, 3u);
    EXPECT_EQ(in.chunksQuarantined, 1u);
}

TEST(FaultRecoveryUnit, FlipIsDetectedOnlyByAVerifyAtOrAfterItsStage)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.corruption.fpgaUpsetProb = kAlways;
    FaultInjector inj(fc, {});
    const unsigned upset = corruptionBit(CorruptionKind::FpgaUpset);

    // The only verify runs before the upset: it escapes into training.
    const std::vector<Stage> late = {{0, true}, {upset, false}, {}};
    ChainRetryState chain;
    ChainStep step = inj.afterStage(chain, late, 1, false, "c");
    EXPECT_FALSE(step.restart);
    EXPECT_EQ(step.stage, 2u);
    EXPECT_EQ(step.delay, 0.0);
    EXPECT_EQ(chain.pendingCorruptions, 0u);

    // A stage that verifies its own output catches its own upset and
    // re-reads the chunk at once.
    const std::vector<Stage> self = {{}, {upset, true}};
    chain = {};
    step = inj.afterStage(chain, self, 1, false, "c");
    EXPECT_FALSE(step.restart);
    EXPECT_EQ(step.stage, 0u);
    EXPECT_EQ(step.delay, 50e-6);

    inj.stop();
    EXPECT_EQ(inj.integrity().injected, 2u);
    EXPECT_EQ(inj.integrity().escaped, 1u);
    EXPECT_EQ(inj.integrity().detected, 1u);
    EXPECT_EQ(inj.integrity().recoveries, 1u);
}

TEST(FaultRecoveryUnit, PcieErrorDelaysTheNextStageByItsReplay)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.corruption.pcieErrorProb = kAlways;
    fc.corruption.hostDramFlipProb = kAlways;
    FaultInjector inj(fc, {});
    const unsigned pcie = corruptionBit(CorruptionKind::PcieLinkError);
    const unsigned dram = corruptionBit(CorruptionKind::HostDramFlip);
    const std::vector<Stage> stages = {{pcie, false}, {pcie | dram, false},
                                       {dram, false}};
    ChainRetryState chain;
    // One 2 us replay per PCIe error; ECC corrects DRAM flips for free.
    const Time delays[] = {2e-6, 2e-6, 0.0};
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const ChainStep step = inj.afterStage(chain, stages, i, false, "c");
        EXPECT_FALSE(step.restart) << i;
        EXPECT_EQ(step.stage, i + 1) << i;
        EXPECT_EQ(step.delay, delays[i]) << i;
    }
    inj.stop();
    const IntegrityStats &in = inj.integrity();
    EXPECT_EQ(in.injected, 4u);
    EXPECT_EQ(in.pcieReplays, 2u);
    EXPECT_EQ(in.detected, 4u);
    EXPECT_EQ(in.escaped, 0u);
}

TEST(FaultRecoveryUnit, OverlappingWindowsCountTheirTimeOnce)
{
    FaultConfig fc = windowScenario();
    fc.enabled = true;
    FaultTargets targets;
    targets.numSsds = 8;
    targets.prepGroups = targets.hostPathGroups = {0, 1, 2, 3};
    targets.pool = true;
    constexpr Time kHorizon = 60.0;

    // The union of every window, cut at the horizon, from the preview.
    std::vector<std::pair<Time, Time>> spans;
    for (const FaultEvent &ev :
         FaultInjector::schedule(fc, targets, kHorizon))
        spans.emplace_back(ev.start,
                           std::min(ev.start + ev.duration, kHorizon));
    std::sort(spans.begin(), spans.end());
    Time covered = 0.0;
    Time reach = 0.0;
    std::size_t overlaps = 0;
    for (const auto &[start, end] : spans) {
        if (start < reach)
            ++overlaps;
        covered += std::max(0.0, end - std::max(start, reach));
        reach = std::max(reach, end);
    }
    ASSERT_GT(overlaps, 3u);
    ASSERT_GT(reach, kHorizon - 1e-9); // a window is open at the end

    EventQueue eq;
    FaultInjector inj(fc, targets);
    inj.arm(eq, nullptr, nullptr);
    eq.run(kHorizon);
    inj.stop();
    EXPECT_NEAR(inj.stats().degradedTime, covered, 1e-9);
    EXPECT_EQ(inj.stats().faultsInjected, spans.size());
}

TEST(FleetFaultSchedule, ArmPlaysExactlyThePreview)
{
    FleetFaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 11;
    cfg.hostOutage = {20.0, 0.5};
    cfg.boxLoss = {40.0, 2.0};
    cfg.poolPartition = {15.0, 1.0};
    cfg.boxLossUnits = 2;
    cfg.poolPartitionFpgas = 3;
    cfg.schedule = {{FleetFaultKind::HostOutage, 1, 5.0, 1.0, 1}};
    constexpr std::size_t kHosts = 6;
    constexpr Time kHorizon = 60.0;
    const auto preview = FleetFaultInjector::schedule(cfg, kHosts, kHorizon);
    ASSERT_GT(preview.size(), 10u);

    EventQueue eq;
    eq.run(3.7);
    const Time origin = eq.now();
    FleetFaultInjector inj(cfg, kHosts, kHorizon);
    std::vector<std::pair<Time, FleetFaultEvent>> played;
    std::vector<std::size_t> indices;
    inj.arm(
        eq,
        [&](const FleetFaultEvent &ev, std::size_t idx) {
            played.emplace_back(eq.now(), ev);
            indices.push_back(idx);
        },
        nullptr);
    while (eq.step()) {
    }

    ASSERT_EQ(played.size(), preview.size());
    for (std::size_t i = 0; i < preview.size(); ++i) {
        const auto &[at, ev] = played[i];
        EXPECT_EQ(indices[i], i);
        EXPECT_EQ(ev.kind, preview[i].kind) << i;
        EXPECT_EQ(ev.host, preview[i].host) << i;
        EXPECT_EQ(ev.units, preview[i].units) << i;
        EXPECT_EQ(ev.start, preview[i].start) << i;
        EXPECT_EQ(at, origin + preview[i].start) << i;
    }
}

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 4,
           std::size_t measure = 8)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

ServerConfig
trainBoxConfig(std::size_t n_acc)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = n_acc;
    cfg.prepPoolFpgas = 8; // force a pool so failover has a target
    return cfg;
}

TEST(FaultSession, DisabledPathIsBitIdentical)
{
    const ServerConfig base = trainBoxConfig(32);

    // A config full of armed-but-disabled fault knobs must produce the
    // exact same result as one that never mentions faults.
    ServerConfig knobs = base;
    knobs.faults = windowScenario();
    knobs.faults.enabled = false;
    knobs.faults.ssdReadFailureProb = 0.3;
    knobs.faults.stragglerProb = 0.5;

    const SessionResult a = runSession(base);
    const SessionResult b = runSession(knobs);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
    EXPECT_DOUBLE_EQ(a.prepLatency, b.prepLatency);
    EXPECT_EQ(b.faults.faultsInjected, 0u);
    EXPECT_EQ(b.faults.ssdRetries, 0u);
    EXPECT_DOUBLE_EQ(b.faults.degradedTime, 0.0);
}

TEST(FaultSession, SsdDegradationReproducesExactly)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    // Scale windows to the run: several arrivals, step-length outages
    // that throttle one SSD to 1% — reads stripe over the box's SSDs,
    // so the whole group's fetch is capped while the window is open.
    cfg.faults.enabled = true;
    cfg.faults.ssdDegrade.ratePerSec = 2.0 / healthy.stepTime;
    cfg.faults.ssdDegrade.duration = healthy.stepTime;
    cfg.faults.ssdDegrade.magnitude = 0.01;
    cfg.faults.ssdReadFailureProb = 0.1;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);

    EXPECT_GT(a.faults.faultsInjected, 0u);
    EXPECT_GT(a.faults.readFailures, 0u);
    EXPECT_GT(a.faults.ssdRetries, 0u);
    EXPECT_GT(a.faults.degradedTime, 0.0);
    EXPECT_LE(a.throughput, healthy.throughput);

    // Same seed, same config => bit-identical degraded run.
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.faults.faultsInjected, b.faults.faultsInjected);
    EXPECT_EQ(a.faults.ssdRetries, b.faults.ssdRetries);
    EXPECT_DOUBLE_EQ(a.faults.degradedTime, b.faults.degradedTime);
}

TEST(FaultSession, PrepCrashFailoverBeatsNoFailover)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    // One long crash early in the run that outlives the whole session:
    // the failover policy must keep goodput clearly above the collapsed
    // no-failover baseline.
    cfg.faults.enabled = true;
    cfg.faults.prepCrash.ratePerSec = 4.0 / healthy.stepTime;
    cfg.faults.prepCrash.duration = 1000.0 * healthy.stepTime;

    ServerConfig no_failover = cfg;
    no_failover.faults.poolFailover = false;

    const SessionResult with = runSession(cfg);
    const SessionResult without = runSession(no_failover);

    EXPECT_GT(with.faults.prepFailovers, 0u);
    EXPECT_EQ(without.faults.prepFailovers, 0u);
    const double with_goodput =
        SessionReport::computeGoodput(with.throughput, healthy.throughput);
    const double without_goodput = SessionReport::computeGoodput(
        without.throughput, healthy.throughput);
    EXPECT_GT(with_goodput, 2.0 * without_goodput);
    // Failover keeps the machine productive through the outage.
    EXPECT_GT(with_goodput, 0.5);
}

TEST(FaultSession, StragglerTimeoutBoundsStepTime)
{
    ServerConfig cfg = trainBoxConfig(16);
    cfg.faults.enabled = true;
    cfg.faults.stragglerProb = 0.4;
    cfg.faults.stragglerFactor = 8.0;

    ServerConfig wait_out = cfg;
    wait_out.faults.stepTimeoutFactor = 0.0; // barrier waits stragglers

    cfg.faults.stepTimeoutFactor = 1.5; // abort + re-dispatch at 1.5x

    const SessionResult bounded = runSession(cfg);
    const SessionResult unbounded = runSession(wait_out);

    EXPECT_GT(bounded.faults.stragglerSteps, 0u);
    EXPECT_GT(bounded.faults.computeRedispatches, 0u);
    EXPECT_EQ(unbounded.faults.computeRedispatches, 0u);
    EXPECT_EQ(bounded.faults.stragglerSteps,
              unbounded.faults.stragglerSteps);
    // Re-dispatching caps a straggling step at (1.5 + 1)x nominal
    // compute instead of 8x, so average step time must be lower.
    EXPECT_LT(bounded.stepTime, unbounded.stepTime);
}

TEST(FaultSession, AllClassesTogetherCompleteAndReproduce)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    cfg.faults = windowScenario();
    const Time step = healthy.stepTime;
    cfg.faults.ssdDegrade = {1.0 / step, 0.5 * step, 0.05};
    cfg.faults.prepCrash = {0.5 / step, 2.0 * step, 0.0};
    cfg.faults.ethDegrade = {0.5 / step, step, 0.2};
    cfg.faults.routeLoss = {0.5 / step, step, 0.0};
    cfg.faults.ssdReadFailureProb = 0.05;
    cfg.faults.stragglerProb = 0.1;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);
    EXPECT_GT(a.faults.faultsInjected, 0u);
    EXPECT_GT(a.faults.degradedTime, 0.0);
    EXPECT_GT(a.throughput, 0.0);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.faults.faultsInjected, b.faults.faultsInjected);
}

// --- pinned results --------------------------------------------------

/**
 * One fault scenario, scaled to the preset's healthy step time so both
 * presets see about as many faults per step.
 */
struct FaultScenario
{
    const char *name;
    void (*setup)(ServerConfig &cfg, Time step);

    /** The windowed class the scenario ends with a window open of. */
    std::optional<FaultKind> openAtEnd = std::nullopt;
};

/** Corruption of one kind alone, with the checksum stages on or off. */
template <double CorruptionConfig::*Prob, bool Checks>
void
corruptOneKind(ServerConfig &cfg, Time)
{
    cfg.faults.corruption.*Prob = 0.2;
    cfg.faults.integrityChecks = Checks;
}

/** Fatal crashes about every ten steps, with checkpoints every step. */
template <bool Ckpt, CheckpointMode Mode>
void
fatalCrashes(ServerConfig &cfg, Time step)
{
    cfg.faults.fatalCrash.ratePerSec = 0.1 / step;
    cfg.checkpoint.restartLatency = step;
    cfg.checkpoint.enabled = Ckpt;
    cfg.checkpoint.mode = Mode;
    cfg.checkpoint.interval = step;
}

const FaultScenario kFaultScenarios[] = {
    {"read_fail_0.05",
     [](ServerConfig &cfg, Time) { cfg.faults.ssdReadFailureProb = 0.05; }},
    {"read_fail_0.6",
     [](ServerConfig &cfg, Time) { cfg.faults.ssdReadFailureProb = 0.6; }},
    {"ssd_bit_flip/checks_off",
     corruptOneKind<&CorruptionConfig::ssdBitFlipProb, false>},
    {"ssd_bit_flip/checks_on",
     corruptOneKind<&CorruptionConfig::ssdBitFlipProb, true>},
    {"pcie_link_error/checks_off",
     corruptOneKind<&CorruptionConfig::pcieErrorProb, false>},
    {"pcie_link_error/checks_on",
     corruptOneKind<&CorruptionConfig::pcieErrorProb, true>},
    {"fpga_upset/checks_off",
     corruptOneKind<&CorruptionConfig::fpgaUpsetProb, false>},
    {"fpga_upset/checks_on",
     corruptOneKind<&CorruptionConfig::fpgaUpsetProb, true>},
    {"host_dram_flip/checks_off",
     corruptOneKind<&CorruptionConfig::hostDramFlipProb, false>},
    {"host_dram_flip/checks_on",
     corruptOneKind<&CorruptionConfig::hostDramFlipProb, true>},
    {"all_flips_0.9/checks_on",
     [](ServerConfig &cfg, Time) {
         cfg.faults.corruption = {0.9, 0.9, 0.9, 0.9};
         cfg.faults.integrityChecks = true;
     }},
    {"straggler/timeout_1.5",
     [](ServerConfig &cfg, Time) {
         cfg.faults.stragglerProb = 0.3;
         cfg.faults.stepTimeoutFactor = 1.5;
     }},
    {"straggler/timeout_0",
     [](ServerConfig &cfg, Time) {
         cfg.faults.stragglerProb = 0.3;
         cfg.faults.stepTimeoutFactor = 0.0;
     }},
    {"ssd_degrade",
     [](ServerConfig &cfg, Time step) {
         cfg.faults.ssdDegrade = {1.0 / step, 2.0 * step, 0.05};
     },
     FaultKind::SsdDegrade},
    {"prep_crash/failover",
     [](ServerConfig &cfg, Time step) {
         cfg.faults.prepCrash = {1.0 / step, 2.0 * step, 0.0};
     },
     FaultKind::PrepCrash},
    {"prep_crash/no_failover",
     [](ServerConfig &cfg, Time step) {
         cfg.faults.prepCrash = {1.0 / step, 2.0 * step, 0.0};
         cfg.faults.poolFailover = false;
     },
     FaultKind::PrepCrash},
    {"eth_degrade",
     [](ServerConfig &cfg, Time step) {
         cfg.faults.ethDegrade = {1.0 / step, 2.0 * step, 0.2};
     },
     FaultKind::EthDegrade},
    {"route_loss",
     [](ServerConfig &cfg, Time step) {
         cfg.faults.routeLoss = {1.0 / step, 3.0 * step, 0.0};
     },
     FaultKind::RouteLoss},
    {"fatal_crash/sync_ckpt", fatalCrashes<true, CheckpointMode::Sync>},
    {"fatal_crash/async_ckpt", fatalCrashes<true, CheckpointMode::Async>},
    {"fatal_crash/no_ckpt", fatalCrashes<false, CheckpointMode::Sync>},
};

/** @p preset at 32 accelerators, with a prep pool on TrainBox. */
ServerConfig
pinConfig(ArchPreset preset)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    if (preset == ArchPreset::TrainBox)
        cfg.prepPoolFpgas = 8;
    return cfg;
}

/** Is a window of @p kind still open at @p end (job-relative)? */
bool
windowOpenAt(const ServerConfig &cfg, FaultKind kind, Time end)
{
    auto server = buildServer(cfg);
    for (const FaultEvent &ev :
         FaultInjector::schedule(cfg.faults, server->faultTargets(), end))
        if (ev.kind == kind && ev.start + ev.duration > end)
            return true;
    return false;
}

// Every SessionResult field of every fault scenario, as one digest
// each: the per-attempt faults (read failures, each corruption kind,
// stragglers), each windowed class ending with a window still open,
// fatal crashes with and without checkpoints, and a session killed
// while a window is open. The Baseline prep-crash, Ethernet and
// route-loss scenarios strike nothing, so they digest as healthy.
TEST(FaultSession, EveryScenarioMatchesItsPin)
{
    const std::map<std::string, std::string> pins = {
        {"baseline/all_flips_0.9/checks_on", "0x75d4b63f76897291"},
        {"baseline/eth_degrade", "0x258ea1060c984508"},
        {"baseline/fatal_crash/async_ckpt", "0xc921c6445c8c1be7"},
        {"baseline/fatal_crash/no_ckpt", "0xb31a29b85bc1b685"},
        {"baseline/fatal_crash/sync_ckpt", "0x383532209e917fc7"},
        {"baseline/fpga_upset/checks_off", "0x258ea1060c984508"},
        {"baseline/fpga_upset/checks_on", "0x792f01dc09d52b51"},
        {"baseline/healthy", "0x258ea1060c984508"},
        {"baseline/host_dram_flip/checks_off", "0x10437c6fec9e62b5"},
        {"baseline/host_dram_flip/checks_on", "0x467b0d6cd7988e0e"},
        {"baseline/killed/window_open", "0x2a0b58212b74acab"},
        {"baseline/pcie_link_error/checks_off", "0xc2aaa7b01a193d90"},
        {"baseline/pcie_link_error/checks_on", "0xf118a9cea146f402"},
        {"baseline/prep_crash/failover", "0x258ea1060c984508"},
        {"baseline/prep_crash/no_failover", "0x258ea1060c984508"},
        {"baseline/read_fail_0.05", "0x3cb569756ff5355b"},
        {"baseline/read_fail_0.6", "0x4045ca4a781d0c9f"},
        {"baseline/route_loss", "0x258ea1060c984508"},
        {"baseline/ssd_bit_flip/checks_off", "0xc2f92e123946b49a"},
        {"baseline/ssd_bit_flip/checks_on", "0x9f1b530494630639"},
        {"baseline/ssd_degrade", "0xc91acabd52c84cae"},
        {"baseline/straggler/timeout_0", "0xf21928bc7116af7a"},
        {"baseline/straggler/timeout_1.5", "0x9ca31179c84a508e"},
        {"trainbox/all_flips_0.9/checks_on", "0x351c7b6745c05edf"},
        {"trainbox/eth_degrade", "0x8ca419c07e8b0cdd"},
        {"trainbox/fatal_crash/async_ckpt", "0xc7b75ac552396076"},
        {"trainbox/fatal_crash/no_ckpt", "0xb13500190c976314"},
        {"trainbox/fatal_crash/sync_ckpt", "0x9f7a0e7923f6396f"},
        {"trainbox/fpga_upset/checks_off", "0xbd98045aada5816a"},
        {"trainbox/fpga_upset/checks_on", "0x5756c24804d57303"},
        {"trainbox/healthy", "0x08ff530b2d22f941"},
        {"trainbox/host_dram_flip/checks_off", "0x08ff530b2d22f941"},
        {"trainbox/host_dram_flip/checks_on", "0x83e6aa1956d7ce26"},
        {"trainbox/killed/window_open", "0xd8ad9eb9cd3416c3"},
        {"trainbox/pcie_link_error/checks_off", "0xbdb4810910b73e75"},
        {"trainbox/pcie_link_error/checks_on", "0x0a00562423ac06cd"},
        {"trainbox/prep_crash/failover", "0x029d95455f12a167"},
        {"trainbox/prep_crash/no_failover", "0x9af50dd885fd0c90"},
        {"trainbox/read_fail_0.05", "0x58f25dc7a2d8bed5"},
        {"trainbox/read_fail_0.6", "0xa7cb1f0b01c04817"},
        {"trainbox/route_loss", "0x2e383672443372fe"},
        {"trainbox/ssd_bit_flip/checks_off", "0xa2d206887fb065a7"},
        {"trainbox/ssd_bit_flip/checks_on", "0x434108fcb02cb032"},
        {"trainbox/ssd_degrade", "0x94d458c285fb3fc1"},
        {"trainbox/straggler/timeout_0", "0x9acb4df832db419f"},
        {"trainbox/straggler/timeout_1.5", "0x386d63cccd105aa8"},
    };
    std::map<std::string, std::string> got;

    for (ArchPreset preset : {ArchPreset::Baseline, ArchPreset::TrainBox}) {
        const std::string prefix = std::string(presetKey(preset)) + "/";
        const ServerConfig healthy_cfg = pinConfig(preset);
        const SessionResult healthy = runSession(healthy_cfg, 2, 6);
        got[prefix + "healthy"] = hexDigest(healthy);
        const Time step = healthy.stepTime;

        for (const FaultScenario &sc : kFaultScenarios) {
            const std::string key = prefix + sc.name;
            SCOPED_TRACE(key);
            ServerConfig cfg = healthy_cfg;
            cfg.faults.enabled = true;
            sc.setup(cfg, step);
            ASSERT_EQ(cfg.validate(), "");
            const SessionResult res = runSession(cfg, 2, 6);
            EXPECT_EQ(res.integrity.detected + res.integrity.escaped,
                      res.integrity.injected);
            if (sc.openAtEnd) {
                // Baseline has no prep FPGA, pool or P2P route, so those
                // classes open no window there and it runs healthy.
                const bool strikes = preset == ArchPreset::TrainBox ||
                                     *sc.openAtEnd == FaultKind::SsdDegrade;
                EXPECT_EQ(windowOpenAt(cfg, *sc.openAtEnd, res.wallTime),
                          strikes);
            }
            got[key] = hexDigest(res);
        }
    }

    // Killed while an SSD window is open: the open window's time is
    // closed at the kill instant.
    for (ArchPreset preset : {ArchPreset::Baseline, ArchPreset::TrainBox}) {
        const std::string key =
            std::string(presetKey(preset)) + "/killed/window_open";
        SCOPED_TRACE(key);
        ServerConfig cfg = pinConfig(preset);
        cfg.faults.enabled = true;
        cfg.faults.ssdDegrade = {1.0, 1000.0, 0.05};
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        session.start(2, 6);
        EventQueue &eq = server->core().events();
        while (session.stepsSynced() < 3 && eq.step()) {
        }
        ASSERT_FALSE(session.done());
        EXPECT_TRUE(windowOpenAt(cfg, FaultKind::SsdDegrade, eq.now()));
        session.kill();
        const SessionResult res = session.collect();
        EXPECT_GT(res.faults.degradedTime, 0.0);
        got[key] = hexDigest(res);
    }

    for (const auto &[key, digest] : got) {
        auto it = pins.find(key);
        EXPECT_TRUE(it != pins.end() && it->second == digest)
            << key << ": digest " << digest;
    }
    EXPECT_EQ(got.size(), pins.size());
}

} // namespace
} // namespace tb
