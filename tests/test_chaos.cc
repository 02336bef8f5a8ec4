/**
 * @file
 * Chaos harness: randomized, seeded schedules mixing faults, silent
 * corruption, checkpoints, and elasticity events, checked against the
 * global invariants the subsystems promise *in combination*:
 *
 *  - sample conservation: prepared == consumed + cachedAtEnd +
 *    discarded (the session also panic-checks this internally);
 *  - corruption accounting: injected == detected + escaped;
 *  - liveness: every run completes all measured steps, even through
 *    windows of zero attached capacity (park, don't deadlock);
 *  - determinism: identical configs replay identical histories;
 *  - with every subsystem off, throughput is bit-identical to the
 *    goldens pinned before any robustness subsystem existed, whatever
 *    knobs are set behind the off switches;
 *  - planned drains lose no more goodput than spot preemptions.
 *
 * docs/ROBUSTNESS.md documents the membership state machine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "preset_goldens.hh"
#include "sim/elastic_schedule.hh"
#include "solve_budget.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 3,
           std::size_t measure = 6)
{
    const std::string problem = cfg.validate();
    EXPECT_EQ(problem, "");
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

/** Two-group scenario small enough for dozens of runs. */
ServerConfig
chaosConfig()
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16; // two groups at kAccPerBox = 8
    cfg.prepPoolFpgas = 4;
    return cfg;
}

/** splitmix64: the same generator the injection streams build on. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform [0, 1) draw from a seed and stream index. */
double
u01(std::uint64_t seed, std::uint64_t stream)
{
    return static_cast<double>(mix64(seed * 1315423911ull + stream) >>
                               11) /
           9007199254740992.0;
}

/**
 * One randomized chaos scenario: every robustness subsystem armed with
 * seed-derived knobs, so the sweep covers fault-only, elastic-only,
 * and everything-at-once corners as the seed varies.
 */
ServerConfig
chaosScenario(std::uint64_t seed)
{
    ServerConfig cfg = chaosConfig();

    cfg.faults.enabled = u01(seed, 0) < 0.75;
    cfg.faults.seed = seed;
    if (cfg.faults.enabled) {
        cfg.faults.ssdReadFailureProb = 0.02 * u01(seed, 1);
        cfg.faults.stragglerProb = 0.1 * u01(seed, 2);
        cfg.faults.prepCrash.ratePerSec = 0.05 * u01(seed, 3);
        cfg.faults.prepCrash.duration = 0.5 + u01(seed, 4);
        cfg.faults.ssdDegrade.ratePerSec = 0.05 * u01(seed, 5);
        cfg.faults.ssdDegrade.duration = 0.5 + u01(seed, 6);
        if (u01(seed, 7) < 0.3)
            cfg.faults.fatalCrash.ratePerSec = 0.01;
        const double corrupt = 0.01 * u01(seed, 8);
        cfg.faults.corruption.ssdBitFlipProb = corrupt;
        cfg.faults.corruption.fpgaUpsetProb = corrupt / 2.0;
        cfg.faults.integrityChecks = u01(seed, 9) < 0.5;
    }

    cfg.checkpoint.enabled = u01(seed, 10) < 0.5;
    if (cfg.checkpoint.enabled) {
        cfg.checkpoint.mode = u01(seed, 11) < 0.5 ? CheckpointMode::Sync
                                                  : CheckpointMode::Async;
        cfg.checkpoint.interval = 1.0 + 3.0 * u01(seed, 12);
    }

    cfg.elasticity.enabled = true;
    cfg.elasticity.seed = seed;
    cfg.elasticity.graceWindow = 0.2 + 0.8 * u01(seed, 13);
    cfg.elasticity.rejoinLatency = 0.1 + 0.4 * u01(seed, 14);
    cfg.elasticity.groupDrain.ratePerSec = 0.1 * u01(seed, 15);
    cfg.elasticity.groupDrain.absence = 0.5 + u01(seed, 16);
    cfg.elasticity.groupPreempt.ratePerSec = 0.1 * u01(seed, 17);
    cfg.elasticity.groupPreempt.absence = 0.5 + u01(seed, 18);
    cfg.elasticity.prepDrain.ratePerSec = 0.1 * u01(seed, 19);
    cfg.elasticity.prepDrain.absence = 0.5 + u01(seed, 20);
    cfg.elasticity.prepPreempt.ratePerSec = 0.1 * u01(seed, 21);
    cfg.elasticity.prepPreempt.absence = 0.5 + u01(seed, 22);
    if (u01(seed, 23) < 0.25) {
        cfg.elasticity.deferredJoinGroups = 1;
        cfg.elasticity.scaleUpTime = u01(seed, 24);
    }

    // Streaming ingest joins the mix on streams >= 25 (the earlier
    // streams are spoken for above; reusing one would correlate the
    // subsystems' knobs). Sustained rates stay below the ~58k
    // samples/s shard-write drain capacity at this scale, and the
    // randomized chains never end in Stall: a sustained-overload trace
    // that stalls training forever is a livelock by construction, not
    // a chaos finding (docs/ROBUSTNESS.md). The directed tests below
    // cover Stall with finite bursts.
    cfg.ingest.enabled = u01(seed, 25) < 0.5;
    cfg.ingest.seed = seed;
    if (cfg.ingest.enabled) {
        cfg.ingest.steady = {30000.0 * u01(seed, 26), 256.0, 2};
        cfg.ingest.diurnal = {15000.0 * u01(seed, 27), 128.0, 1};
        cfg.ingest.burst = {10000.0 * u01(seed, 28), 512.0, 0};
        cfg.ingest.diurnalAmplitude = u01(seed, 29);
        cfg.ingest.diurnalPeriod = 5.0 + 10.0 * u01(seed, 30);
        cfg.ingest.bufferCapacity = 4096.0 + 28672.0 * u01(seed, 31);
        cfg.ingest.highWatermark = 0.75 * cfg.ingest.bufferCapacity;
        cfg.ingest.lowWatermark = 0.25 * cfg.ingest.bufferCapacity;
        if (u01(seed, 32) < 0.5)
            cfg.ingest.policyChain = {IngestPolicy::Throttle,
                                      IngestPolicy::Shed,
                                      IngestPolicy::Echo};
        else
            cfg.ingest.policyChain = {IngestPolicy::Shed,
                                      IngestPolicy::Echo};
        cfg.ingest.echoFactor = 1.5 + u01(seed, 33);
        cfg.ingest.writeFailureProb = 0.2 * u01(seed, 34);
        cfg.ingest.stalenessSlo = u01(seed, 35) < 0.5 ? 0.1 : 0.0;
    }
    return cfg;
}

/** The invariant block every chaos run must satisfy. */
void
checkInvariants(const SessionResult &res, std::size_t measure,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(res.stepsMeasured, measure);
    EXPECT_TRUE(std::isfinite(res.throughput));
    EXPECT_GE(res.throughput, 0.0);
    EXPECT_GT(res.wallTime, 0.0);

    // Sample conservation (also panic-checked inside the session).
    const auto &e = res.elasticity;
    const double ledger_gap = e.samplesPrepared -
                              (e.samplesConsumed + e.samplesCachedAtEnd +
                               e.samplesDiscarded);
    EXPECT_LE(std::fabs(ledger_gap),
              1e-6 * std::max(1.0, e.samplesPrepared));
    EXPECT_GT(e.samplesPrepared, 0.0);
    EXPECT_GE(e.samplesConsumed, 0.0);
    EXPECT_GE(e.samplesCachedAtEnd, 0.0);
    EXPECT_GE(e.samplesDiscarded, 0.0);

    // Corruption accounting is exact.
    EXPECT_EQ(res.integrity.injected,
              res.integrity.detected + res.integrity.escaped);

    // Capacity clocks nest inside the wall clock.
    EXPECT_GE(e.degradedCapacityTime, 0.0);
    EXPECT_LE(e.degradedCapacityTime, res.wallTime * (1.0 + 1e-9));
    EXPECT_GE(e.zeroCapacityTime, 0.0);
    EXPECT_LE(e.zeroCapacityTime,
              e.degradedCapacityTime * (1.0 + 1e-9));
    EXPECT_GE(e.avgActiveFraction, 0.0);
    EXPECT_LE(e.avgActiveFraction, 1.0 + 1e-9);

    // Leave bookkeeping: every applied leave is a drain or preemption.
    EXPECT_GE(e.events, e.drains + e.preemptions + e.joins);
    EXPECT_GE(e.samplesLostToPreemption, 0.0);
    EXPECT_GE(e.samplesSavedByDrain, 0.0);
    EXPECT_GE(e.samplesDroppedAtDrain, 0.0);

    // Ingest conservation: arrived == admitted + shed + in-flight
    // (also panic-checked inside the session), and the shed side
    // decomposes exactly into its causes.
    const auto &in = res.ingest;
    const double ingest_gap =
        in.samplesArrived -
        (in.samplesAdmitted + in.samplesShed + in.samplesInFlightAtEnd);
    EXPECT_LE(std::fabs(ingest_gap),
              1e-6 * std::max(1.0, in.samplesArrived));
    EXPECT_NEAR(in.samplesShed,
                in.samplesThrottled + in.samplesShedPolicy +
                    in.samplesOverflowDropped + in.samplesAbandonedWrites,
                1e-6 * std::max(1.0, in.samplesShed));
    EXPECT_GE(in.samplesArrived, 0.0);
    EXPECT_GE(in.samplesAdmitted, 0.0);
    EXPECT_GE(in.samplesInFlightAtEnd, 0.0);
    EXPECT_GE(in.overloadTime, 0.0);
    EXPECT_LE(in.overloadTime, res.wallTime * (1.0 + 1e-9));
    // A stall only exists inside an overload window.
    EXPECT_GE(in.stallTime, 0.0);
    EXPECT_LE(in.stallTime, in.overloadTime * (1.0 + 1e-9));
}

// --- everything off => bit-identical goldens -------------------------

TEST(ChaosDisabled, PresetThroughputsBitIdentical)
{
    // The pinned pre-robustness goldens. With faults, checkpoints,
    // corruption, elasticity AND ingest all disabled, no new resource,
    // flow, or event may perturb the simulation — also when elasticity
    // and ingest knobs are set behind their off switches.
    ServerConfig knobs;
    knobs.elasticity.groupDrain = {10.0, 1.0};
    knobs.elasticity.groupPreempt = {10.0, 1.0};
    knobs.elasticity.prepPreempt = {10.0, 1.0};
    knobs.elasticity.enabled = false;
    knobs.ingest.steady = {1.0e5, 256.0, 2};
    knobs.ingest.burst = {1.0e4, 512.0, 0};
    knobs.ingest.policyChain = {IngestPolicy::Stall};
    knobs.ingest.enabled = false;
    for (const PresetGolden &g : kPresetGoldens) {
        SessionResult plain;
        for (const bool with_knobs : {false, true}) {
            SCOPED_TRACE(std::string(presetName(g.preset)) +
                         (with_knobs ? ", disabled knobs set" : ""));
            ServerConfig cfg = with_knobs ? knobs : ServerConfig{};
            cfg.preset = g.preset;
            cfg.model = workload::ModelId::Resnet50;
            cfg.numAccelerators = 32;
            const SessionResult res = runSession(cfg, 4, 8);
            EXPECT_DOUBLE_EQ(res.throughput, g.throughput);
            if (with_knobs) {
                EXPECT_EQ(res.throughput, plain.throughput);
                EXPECT_EQ(res.wallTime, plain.wallTime);
            } else {
                plain = res;
            }
            EXPECT_EQ(res.elasticity.events, 0u);
            EXPECT_EQ(res.elasticity.joins, 0u);
            EXPECT_DOUBLE_EQ(res.elasticity.degradedCapacityTime, 0.0);
            EXPECT_DOUBLE_EQ(res.elasticity.avgActiveFraction, 1.0);
            // The ledger is live even with everything off.
            EXPECT_GT(res.elasticity.samplesPrepared, 0.0);
            EXPECT_DOUBLE_EQ(res.elasticity.samplesDiscarded, 0.0);
            // Disabled ingest is a true zero: no arrivals, no writes, no
            // overload accounting may exist on the golden path.
            EXPECT_EQ(res.ingest.arrivalEvents, 0u);
            EXPECT_EQ(res.ingest.writeFlows, 0u);
            EXPECT_DOUBLE_EQ(res.ingest.samplesArrived, 0.0);
            EXPECT_DOUBLE_EQ(res.ingest.overloadTime, 0.0);
        }
    }
}

TEST(ChaosDisabled, EnabledButEventFreeMatchesBaseline)
{
    // elasticity.enabled switches throughput to the measured-samples
    // ledger; with no events that must agree with the closed form to
    // float rounding.
    ServerConfig cfg = chaosConfig();
    const SessionResult base = runSession(cfg, 4, 8);

    cfg.elasticity.enabled = true;
    const SessionResult elastic = runSession(cfg, 4, 8);
    EXPECT_EQ(elastic.elasticity.events, 0u);
    EXPECT_NEAR(elastic.throughput, base.throughput,
                1e-9 * base.throughput);
    EXPECT_DOUBLE_EQ(elastic.wallTime, base.wallTime);
}

// --- randomized chaos sweep ------------------------------------------

TEST(ChaosSweep, RandomizedSchedulesHoldInvariants)
{
    constexpr std::size_t kSchedules = 24;
    constexpr std::size_t kMeasure = 6;
    std::size_t elastic_events = 0;
    std::size_t fault_windows = 0;
    std::size_t ingest_arrivals = 0;
    std::size_t overload_trips = 0;
    for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
        const ServerConfig cfg = chaosScenario(seed);
        const SessionResult res = runSession(cfg, 3, kMeasure);
        checkInvariants(res, kMeasure,
                        ("seed " + std::to_string(seed)).c_str());
        elastic_events += res.elasticity.events;
        fault_windows += res.faults.faultsInjected;
        ingest_arrivals += res.ingest.arrivalEvents;
        overload_trips += res.ingest.overloadTrips;

        // Determinism: replay a subset bit-exactly (each replay doubles
        // the cost of one schedule, so sample rather than replay all).
        if (seed % 6 == 0) {
            const SessionResult again = runSession(cfg, 3, kMeasure);
            EXPECT_DOUBLE_EQ(again.throughput, res.throughput);
            EXPECT_DOUBLE_EQ(again.wallTime, res.wallTime);
            EXPECT_EQ(again.elasticity.events, res.elasticity.events);
            EXPECT_EQ(again.elasticity.preemptions,
                      res.elasticity.preemptions);
            EXPECT_DOUBLE_EQ(again.elasticity.samplesPrepared,
                             res.elasticity.samplesPrepared);
            EXPECT_DOUBLE_EQ(again.elasticity.samplesDiscarded,
                             res.elasticity.samplesDiscarded);
            EXPECT_EQ(again.ingest.arrivalEvents,
                      res.ingest.arrivalEvents);
            EXPECT_DOUBLE_EQ(again.ingest.samplesArrived,
                             res.ingest.samplesArrived);
            EXPECT_DOUBLE_EQ(again.ingest.samplesShed,
                             res.ingest.samplesShed);
            EXPECT_DOUBLE_EQ(again.ingest.stalenessSum,
                             res.ingest.stalenessSum);
        }
    }
    // The sweep must actually exercise the machinery it claims to.
    EXPECT_GT(elastic_events, kSchedules);
    EXPECT_GT(fault_windows, 0u);
    EXPECT_GT(ingest_arrivals, 0u);
    EXPECT_GT(overload_trips, 0u);
}

TEST(ChaosSweep, EveryEventCostsAtMostOneSolve)
{
    // Every fault, membership, checkpoint and ingest handler changes
    // its flows in one batch: no event may cost two fluid solves.
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        runWithinSolveBudget(chaosScenario(seed), 3, 6,
                             "seed " + std::to_string(seed));
}

// --- zero-capacity liveness ------------------------------------------

TEST(ChaosZeroCapacity, AllGroupsPreemptedParksAndResumes)
{
    // Preempt both groups almost immediately; rejoin them later. The
    // session must park at zero attached capacity (no deadlock, no
    // sync with zero members) and finish every step after the rejoin.
    ServerConfig cfg = chaosConfig();
    cfg.elasticity.enabled = true;
    cfg.elasticity.rejoinLatency = 0.1;
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Preempt, 0, 0.002},
        {ElasticTargetKind::Group, ElasticAction::Preempt, 1, 0.003},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 0.5},
        {ElasticTargetKind::Group, ElasticAction::Join, 1, 0.6},
    };
    const SessionResult res = runSession(cfg, 3, 6);
    checkInvariants(res, 6, "zero-capacity");
    EXPECT_EQ(res.elasticity.preemptions, 2u);
    EXPECT_EQ(res.elasticity.joins, 2u);
    EXPECT_GT(res.elasticity.zeroCapacityTime, 0.0);
    EXPECT_GT(res.throughput, 0.0);
}

// --- drain vs preempt semantics --------------------------------------

TEST(ChaosSemantics, DrainsSaveSamplesPreemptionsLoseThem)
{
    ServerConfig drain_cfg = chaosConfig();
    drain_cfg.elasticity.enabled = true;
    drain_cfg.elasticity.graceWindow = 0.5;
    drain_cfg.elasticity.groupDrain.ratePerSec = 0.5;
    drain_cfg.elasticity.groupDrain.absence = 1.0;
    const SessionResult drained = runSession(drain_cfg, 3, 10);
    checkInvariants(drained, 10, "drain-only");
    ASSERT_GT(drained.elasticity.drains, 0u);
    EXPECT_EQ(drained.elasticity.samplesLostToPreemption, 0.0);

    ServerConfig preempt_cfg = chaosConfig();
    preempt_cfg.elasticity.enabled = true;
    preempt_cfg.elasticity.groupPreempt.ratePerSec = 0.5;
    preempt_cfg.elasticity.groupPreempt.absence = 1.0;
    const SessionResult preempted = runSession(preempt_cfg, 3, 10);
    checkInvariants(preempted, 10, "preempt-only");
    ASSERT_GT(preempted.elasticity.preemptions, 0u);
    EXPECT_EQ(preempted.elasticity.samplesSavedByDrain, 0.0);
    EXPECT_EQ(preempted.elasticity.samplesDroppedAtDrain, 0.0);
}

TEST(ChaosSemantics, DrainsLoseNoMoreGoodputThanPreemptions)
{
    // Graceful degradation must not lose more work than spot kills.
    // Each seed runs one leave class at a time, mixed with SSD faults,
    // silent corruption (checks on every other seed) and checkpoints
    // (on the others); summed over the seeds, drains keep at least the
    // goodput preemptions at the same rate keep.
    ServerConfig healthy = chaosConfig();
    healthy.prepPoolFpgas = 8;
    const double base = runSession(healthy, 3, 6).throughput;
    double drain_goodput = 0.0, preempt_goodput = 0.0;
    std::size_t drains = 0, preemptions = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const bool planned : {true, false}) {
            ServerConfig cfg = healthy;
            cfg.faults.enabled = true;
            cfg.faults.seed = seed;
            cfg.faults.ssdReadFailureProb = 0.005;
            cfg.faults.corruption.ssdBitFlipProb = 0.002;
            cfg.faults.integrityChecks = seed % 2 == 0;
            cfg.checkpoint.enabled = seed % 2 == 1;
            cfg.checkpoint.interval = 2.0;
            cfg.elasticity.enabled = true;
            cfg.elasticity.seed = seed;
            cfg.elasticity.graceWindow = 0.4;
            cfg.elasticity.rejoinLatency = 0.2;
            (planned ? cfg.elasticity.groupDrain
                     : cfg.elasticity.groupPreempt) = {0.25, 1.0};
            const std::string what = "seed " + std::to_string(seed) +
                                     (planned ? " drain" : " preempt");
            const SessionResult res = runSession(cfg, 3, 6);
            checkInvariants(res, 6, what.c_str());
            EXPECT_GT(res.throughput, 0.0) << what;
            drains += res.elasticity.drains;
            preemptions += res.elasticity.preemptions;
            (planned ? drain_goodput : preempt_goodput) +=
                SessionReport::computeGoodput(res.throughput, base);
        }
    }
    EXPECT_GT(drains, 0u);
    EXPECT_GT(preemptions, 0u);
    EXPECT_GE(drain_goodput, preempt_goodput - 1e-9);
}

TEST(ChaosSemantics, DrainCoordinatesACheckpoint)
{
    // A drain notice requests an immediate capture even when the
    // periodic interval has not elapsed.
    ServerConfig cfg = chaosConfig();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = 1e6; // periodic capture never fires
    cfg.elasticity.enabled = true;
    cfg.elasticity.graceWindow = 0.3;
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 0.01},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 1.0},
    };
    const SessionResult res = runSession(cfg, 3, 8);
    checkInvariants(res, 8, "drain-checkpoint");
    EXPECT_EQ(res.elasticity.drains, 1u);
    EXPECT_GT(res.checkpoint.committed, 0u);

    cfg.elasticity.schedule.clear();
    const SessionResult quiet = runSession(cfg, 3, 8);
    EXPECT_EQ(quiet.checkpoint.committed, 0u);
}

// --- mid-session scale-up --------------------------------------------

TEST(ChaosScaleUp, DeferredGroupJoinsAndLiftsThroughput)
{
    ServerConfig cfg = chaosConfig();
    cfg.elasticity.enabled = true;
    cfg.elasticity.rejoinLatency = 0.05;
    cfg.elasticity.deferredJoinGroups = 1;
    cfg.elasticity.scaleUpTime = 0.05;
    const SessionResult res = runSession(cfg, 3, 8);
    checkInvariants(res, 8, "scale-up");
    EXPECT_EQ(res.elasticity.joins, 1u);
    EXPECT_GT(res.elasticity.degradedCapacityTime, 0.0);
    EXPECT_LT(res.elasticity.avgActiveFraction, 1.0);

    // Starting at half capacity must not beat the full-capacity run.
    ServerConfig full = chaosConfig();
    const SessionResult base = runSession(full, 3, 8);
    EXPECT_LE(res.throughput, base.throughput * (1.0 + 1e-9));
}

// A deferred partial box that joins before the warm-up ends measures
// what the fixed membership does, at any batch: at full membership the
// re-plan is the build-time plan, which credits the partial box its own
// FPGAs and takes the offload of the box with the fewest per
// accelerator.
TEST(ChaosScaleUp, PartialBoxJoinMatchesFixedMembership)
{
    for (const std::size_t n : {9u, 12u, 20u})
        for (const std::size_t batch : {0u, 256u, 2048u}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " batch=" + std::to_string(batch));
            ServerConfig cfg = ServerConfig::trainBox()
                                   .withModel(workload::ModelId::TfSr)
                                   .withAccelerators(n)
                                   .withBatchSize(batch);
            const SessionResult fixed = runSession(cfg, 8, 24);
            cfg.elasticity.enabled = true;
            cfg.elasticity.deferredJoinGroups = 1;
            cfg.elasticity.scaleUpTime = 0.001;
            cfg.elasticity.rejoinLatency = 0.001;
            const SessionResult joined = runSession(cfg, 8, 24);
            EXPECT_EQ(joined.elasticity.joins, 1u);
            EXPECT_NEAR(joined.throughput, fixed.throughput,
                        1e-12 * fixed.throughput);
        }
}

// --- prep-FPGA elasticity --------------------------------------------

TEST(ChaosPrep, PrepLeavesRebalanceAndRecover)
{
    ServerConfig cfg = chaosConfig();
    cfg.elasticity.enabled = true;
    cfg.elasticity.graceWindow = 0.2;
    cfg.elasticity.prepDrain.ratePerSec = 0.4;
    cfg.elasticity.prepDrain.absence = 0.5;
    cfg.elasticity.prepPreempt.ratePerSec = 0.4;
    cfg.elasticity.prepPreempt.absence = 0.5;
    const SessionResult res = runSession(cfg, 3, 10);
    checkInvariants(res, 10, "prep-elastic");
    EXPECT_GT(res.elasticity.events, 0u);
    // Whole-group membership never changed.
    EXPECT_DOUBLE_EQ(res.elasticity.degradedCapacityTime, 0.0);
}

// --- ingest in the mix ------------------------------------------------

TEST(ChaosIngest, StallDuringDrainStaysLive)
{
    // The nastiest liveness corner: an overload burst escalates the
    // full chain up to Stall (training parked on backpressure) while a
    // group drain removes half the attached capacity. The shard-write
    // pump runs independently of training, so the buffer must drain,
    // the stall must lift, and every step must still complete.
    ServerConfig cfg = chaosConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed,
                              IngestPolicy::Echo, IngestPolicy::Stall};
    cfg.ingest.bufferCapacity = 65536.0;
    cfg.ingest.highWatermark = 8192.0;
    cfg.ingest.lowWatermark = 4096.0;
    cfg.ingest.throttleFactor = 0.9;
    // A finite burst (4x capacity offered) at priority 3 so the Shed
    // stage passes it through and the level climbs into Stall range.
    for (int i = 0; i < 24; ++i)
        cfg.ingest.schedule.push_back(
            {IngestTrafficKind::Burst, 4096.0, 3, 1.0 + 2e-4 * i});
    cfg.elasticity.enabled = true;
    cfg.elasticity.graceWindow = 0.3;
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 1.0},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 4.0},
    };
    const SessionResult res = runSession(cfg, 3, 6);
    checkInvariants(res, 6, "stall-during-drain");
    EXPECT_GE(res.ingest.overloadTrips, 1u);
    EXPECT_GE(res.ingest.stalls, 1u);
    EXPECT_GT(res.ingest.stallTime, 0.0);
    EXPECT_EQ(res.elasticity.drains, 1u);
    EXPECT_EQ(res.elasticity.joins, 1u);
    EXPECT_GT(res.ingest.samplesAdmitted, 0.0);
    EXPECT_GT(res.throughput, 0.0);
}

TEST(ChaosIngest, OverloadBurstUnderFaultsAndElasticityIsDeterministic)
{
    // Everything at once: flaky shard writes, SSD faults, a fatal
    // crash rate, spot preemptions, AND a sustained overload feed. The
    // ledgers must hold and a replay must be bit-identical.
    ServerConfig cfg = chaosConfig();
    cfg.faults.enabled = true;
    cfg.faults.seed = 1234;
    cfg.faults.ssdReadFailureProb = 0.01;
    cfg.faults.ssdDegrade.ratePerSec = 0.05;
    cfg.faults.ssdDegrade.duration = 1.0;
    cfg.faults.fatalCrash.ratePerSec = 0.01;
    cfg.elasticity.enabled = true;
    cfg.elasticity.seed = 1234;
    cfg.elasticity.groupPreempt.ratePerSec = 0.1;
    cfg.elasticity.groupPreempt.absence = 1.0;
    cfg.ingest.enabled = true;
    cfg.ingest.seed = 1234;
    cfg.ingest.steady = {40000.0, 256.0, 2};
    cfg.ingest.burst = {20000.0, 512.0, 0};
    cfg.ingest.writeFailureProb = 0.2;
    cfg.ingest.stalenessSlo = 0.1;
    const SessionResult res = runSession(cfg, 3, 6);
    checkInvariants(res, 6, "overload-under-chaos");
    EXPECT_GT(res.ingest.arrivalEvents, 0u);
    EXPECT_GT(res.ingest.samplesAdmitted, 0.0);

    const SessionResult again = runSession(cfg, 3, 6);
    EXPECT_DOUBLE_EQ(again.throughput, res.throughput);
    EXPECT_DOUBLE_EQ(again.wallTime, res.wallTime);
    EXPECT_EQ(again.ingest.arrivalEvents, res.ingest.arrivalEvents);
    EXPECT_EQ(again.ingest.writeRetries, res.ingest.writeRetries);
    EXPECT_DOUBLE_EQ(again.ingest.samplesArrived,
                     res.ingest.samplesArrived);
    EXPECT_DOUBLE_EQ(again.ingest.samplesAdmitted,
                     res.ingest.samplesAdmitted);
    EXPECT_DOUBLE_EQ(again.ingest.samplesShed, res.ingest.samplesShed);
    EXPECT_DOUBLE_EQ(again.ingest.stalenessMax,
                     res.ingest.stalenessMax);
}

// --- report ratio properties -----------------------------------------

TEST(ChaosProperties, ReportRatiosStayInUnitInterval)
{
    constexpr std::size_t kSeeds = 50;
    for (std::uint64_t seed = 100; seed < 100 + kSeeds; ++seed) {
        const ServerConfig cfg = chaosScenario(seed);
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        const SessionReport report = session.runReport(2, 4);
        SCOPED_TRACE("seed " + std::to_string(seed));

        const double refs[] = {0.0, report.throughput() / 2.0,
                               report.throughput(),
                               2.0 * report.throughput() + 1.0};
        for (double ref : refs) {
            const double g = report.goodput(ref);
            EXPECT_GE(g, 0.0);
            EXPECT_LE(g, 1.0);
        }
        EXPECT_GE(report.efficiency(), 0.0);
        EXPECT_LE(report.efficiency(), 1.0);
        EXPECT_GE(report.availability(), 0.0);
        EXPECT_LE(report.availability(), 1.0);
        EXPECT_GE(report.capacityAvailability(), 0.0);
        EXPECT_LE(report.capacityAvailability(), 1.0);
        EXPECT_GE(report.sloAttainment(), 0.0);
        EXPECT_LE(report.sloAttainment(), 1.0);
        EXPECT_GE(report.ingestAdmitRate(), 0.0);
        EXPECT_LE(report.ingestAdmitRate(), 1.0);
        EXPECT_GE(report.ingestShedRate(), 0.0);
        EXPECT_LE(report.ingestShedRate(), 1.0);
        EXPECT_GE(report.freshnessSloAttainment(), 0.0);
        EXPECT_LE(report.freshnessSloAttainment(), 1.0);
        EXPECT_GE(report.echoEffectiveFactor(), 0.0);
        EXPECT_LE(report.echoEffectiveFactor(), 1.0);
        EXPECT_GE(report.avgIngestStaleness(), 0.0);

        // The report identities hold under chaos too.
        const auto &res = report.result;
        EXPECT_EQ(res.integrity.injected,
                  res.integrity.detected + res.integrity.escaped);
        const auto &e = res.elasticity;
        EXPECT_NEAR(e.samplesPrepared,
                    e.samplesConsumed + e.samplesCachedAtEnd +
                        e.samplesDiscarded,
                    1e-6 * std::max(1.0, e.samplesPrepared));
    }
}

// --- scheduler unit behavior -----------------------------------------

TEST(ElasticSchedulerUnit, PreviewIsDeterministicAndPaired)
{
    ElasticityConfig cfg;
    cfg.enabled = true;
    cfg.seed = 42;
    cfg.graceWindow = 1.0;
    cfg.groupDrain.ratePerSec = 0.2;
    cfg.groupDrain.absence = 2.0;
    cfg.groupPreempt.ratePerSec = 0.2;
    cfg.groupPreempt.absence = 2.0;
    ElasticTargets targets;
    targets.numGroups = 4;

    const auto a = ElasticScheduler::schedule(cfg, targets, 100.0);
    const auto b = ElasticScheduler::schedule(cfg, targets, 100.0);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 4u);
    Time prev = 0.0;
    std::size_t leaves = 0, joins = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(static_cast<int>(a[i].action),
                  static_cast<int>(b[i].action));
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_GE(a[i].at, prev);
        EXPECT_LT(a[i].at, 100.0);
        EXPECT_LT(a[i].index, targets.numGroups);
        prev = a[i].at;
        if (a[i].action == ElasticAction::Join)
            ++joins;
        else
            ++leaves;
    }
    // Leaves and their paired joins interleave; at most the final
    // leave per class can have its join past the horizon.
    EXPECT_GE(joins + 2, leaves);

    // A different seed draws a different timeline.
    cfg.seed = 43;
    const auto c = ElasticScheduler::schedule(cfg, targets, 100.0);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < c.size(); ++i)
        differs = c[i].at != a[i].at || c[i].index != a[i].index;
    EXPECT_TRUE(differs);
}

TEST(ElasticSchedulerUnit, ArmPlaysExactlyThePreview)
{
    ElasticityConfig cfg;
    cfg.enabled = true;
    cfg.seed = 42;
    cfg.graceWindow = 1.3;
    cfg.groupDrain = {0.2, 2.0};
    cfg.groupPreempt = {0.15, 1.7};
    cfg.prepDrain = {0.25, 0.9};
    cfg.prepPreempt = {0.1, 3.1};
    cfg.deferredJoinGroups = 1;
    cfg.scaleUpTime = 4.0;
    cfg.schedule = {{ElasticTargetKind::Prep, ElasticAction::Preempt, 2, 7.5},
                    {ElasticTargetKind::Prep, ElasticAction::Join, 2, 9.0}};
    ElasticTargets targets;
    targets.numGroups = 4;
    constexpr Time kHorizon = 100.0;
    const auto preview = ElasticScheduler::schedule(cfg, targets, kHorizon);
    ASSERT_GT(preview.size(), 20u);

    // Arm off the zero clock, as a fleet job admitted mid-run does.
    EventQueue eq;
    eq.run(3.7);
    const Time origin = eq.now();
    ElasticScheduler sched(cfg, targets);
    std::vector<std::pair<Time, ElasticEvent>> played;
    sched.arm(eq, [&](const ElasticEvent &ev) {
        if (ev.at < kHorizon)
            played.emplace_back(eq.now(), ev);
    });
    while (eq.nextTime() <= origin + kHorizon)
        eq.step();

    ASSERT_EQ(played.size(), preview.size());
    for (std::size_t i = 0; i < preview.size(); ++i) {
        const auto &[at, ev] = played[i];
        EXPECT_EQ(ev.target, preview[i].target) << i;
        EXPECT_EQ(ev.action, preview[i].action) << i;
        EXPECT_EQ(ev.index, preview[i].index) << i;
        EXPECT_EQ(ev.at, preview[i].at) << i;
        EXPECT_EQ(at, origin + preview[i].at) << i;
    }
}

// --- a finished session stops its injectors --------------------------

TEST(ChaosLiveness, FinishedSessionStopsItsInjectorStreams)
{
    // Every injector class armed and busy. Their chains re-arm lazily,
    // so unless the session disarms them at its end a private queue
    // never drains.
    ServerConfig cfg = chaosConfig();
    cfg.faults.enabled = true;
    cfg.faults.ssdDegrade = {0.2, 0.5, 0.5};
    cfg.faults.prepCrash = {0.1, 0.5, 0.0};
    cfg.faults.ethDegrade = {0.1, 0.5, 0.5};
    cfg.faults.routeLoss = {0.1, 0.5, 0.0};
    cfg.elasticity.enabled = true;
    cfg.elasticity.graceWindow = 0.2;
    cfg.elasticity.groupDrain = {0.1, 0.5};
    cfg.elasticity.prepPreempt = {0.1, 0.5};
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {2000.0, 256.0, 2};
    cfg.ingest.diurnal = {1000.0, 128.0, 1};
    cfg.ingest.burst = {1000.0, 512.0, 0};
    ASSERT_EQ(cfg.validate(), "");
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult res = session.run(2, 4);
    EXPECT_EQ(server->core().fluid().numActive(), 0u);
    EXPECT_EQ(res.stepsMeasured, 4u);
    EXPECT_GT(res.faults.faultsInjected, 0u);
    EXPECT_GT(res.elasticity.events, 0u);
    EXPECT_GT(res.ingest.arrivalEvents, 0u);

    // What is left — repairs and joins of windows still open, guarded
    // timers — is finite.
    EventQueue &eq = server->core().events();
    std::size_t steps = 0;
    while (steps < 100000 && eq.step())
        ++steps;
    EXPECT_TRUE(eq.empty()) << "still pending after " << steps << " steps";
}

// kill() is the fleet's host-death path: the dead job must stop loading
// the solver at once. Every flow the session started — prefetch chains,
// a checkpoint capture, the in-flight ingest shard write — is
// cancelled, and nothing it left scheduled starts another.
TEST(ChaosLiveness, KilledSessionOwnsNoFlow)
{
    struct Case
    {
        const char *name;
        ServerConfig cfg;
    };
    std::vector<Case> cases;
    ServerConfig baseline = chaosConfig();
    baseline.preset = ArchPreset::Baseline;
    baseline.prepPoolFpgas = 0;
    cases.push_back({"baseline", baseline});
    cases.push_back({"trainbox", chaosConfig()});
    // A capture begins at every step boundary: the kill below lands on
    // a pending async snapshot, or on a sync drain in flight.
    ServerConfig ckpt = chaosConfig();
    ckpt.checkpoint.enabled = true;
    ckpt.checkpoint.interval = 1e-3;
    ckpt.checkpoint.mode = CheckpointMode::Async;
    cases.push_back({"async_checkpoint", ckpt});
    ckpt.checkpoint.mode = CheckpointMode::Sync;
    cases.push_back({"sync_checkpoint", ckpt});
    ServerConfig ingest = chaosConfig();
    ingest.ingest.enabled = true;
    ingest.ingest.steady = {20000.0, 256.0, 2};
    cases.push_back({"ingest", ingest});

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ASSERT_EQ(c.cfg.validate(), "");
        auto server = buildServer(c.cfg);
        TrainingSession session(*server);
        session.start(2, 4);
        EventQueue &eq = server->core().events();
        FluidNetwork &net = server->core().fluid();
        // Kill at a step boundary mid-run, while the next batches prep.
        while (session.stepsSynced() < 3 && eq.step()) {
        }
        ASSERT_EQ(session.stepsSynced(), 3u);
        ASSERT_FALSE(session.done());
        ASSERT_GT(net.numActive(), 0u);
        session.kill();
        EXPECT_EQ(net.numActive(), 0u);

        // Drain what is left; no event may start a flow.
        std::size_t steps = 0;
        std::size_t with_flows = 0;
        while (steps < 100000 && eq.step()) {
            ++steps;
            if (net.numActive() != 0)
                ++with_flows;
        }
        EXPECT_EQ(with_flows, 0u) << "of " << steps << " events after kill()";
        EXPECT_TRUE(eq.empty()) << "still pending after " << steps
                                << " steps";
    }
}

} // namespace
} // namespace tb
