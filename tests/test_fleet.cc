/**
 * @file
 * Fleet-scale multi-job simulation tests (src/trainbox/fleet.hh):
 *
 *  - exactness: a one-job fleet replays the bare TrainingSession run
 *    bit-for-bit — the chaos-harness preset goldens and a full
 *    SessionResult comparison, all EXPECT_DOUBLE_EQ;
 *  - determinism: a two-job interleaved fleet replays an identical
 *    FleetReport when run twice;
 *  - conservation: the per-job sample/ingest/integrity ledgers hold
 *    for every job of a chaos fleet (faults + elasticity + ingest);
 *  - queueing: an oversubscribed host produces nonzero, correctly
 *    attributed queueing delay;
 *  - pool arbitration: oversubscribed grants sum exactly to the shared
 *    pool, the constrained job is flagged, and the Jain fairness index
 *    reflects the split.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "preset_goldens.hh"
#include "trainbox/fleet.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

/** A one-host fleet big enough that placement never interferes. */
FleetConfig
singleJobFleet(const ServerConfig &cfg, const std::string &name)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 64});
    FleetJobSpec job;
    job.name = name;
    job.arrival = 0.0;
    job.config = cfg;
    job.warmupSteps = 4;
    job.measureSteps = 8;
    fleet.jobs.push_back(job);
    return fleet;
}

/** The chaos harness's disturbed scenario, fixed knobs, 16 accs. */
ServerConfig
disturbedConfig(std::uint64_t seed)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16;
    cfg.prepPoolFpgas = 4;

    cfg.faults.enabled = true;
    cfg.faults.seed = seed;
    cfg.faults.ssdReadFailureProb = 0.01;
    cfg.faults.stragglerProb = 0.05;
    cfg.faults.prepCrash.ratePerSec = 0.03;
    cfg.faults.prepCrash.duration = 0.8;
    cfg.faults.ssdDegrade.ratePerSec = 0.03;
    cfg.faults.ssdDegrade.duration = 0.8;
    cfg.faults.corruption.ssdBitFlipProb = 0.005;
    cfg.faults.corruption.fpgaUpsetProb = 0.002;
    cfg.faults.integrityChecks = true;

    cfg.elasticity.enabled = true;
    cfg.elasticity.seed = seed;
    cfg.elasticity.graceWindow = 0.5;
    cfg.elasticity.rejoinLatency = 0.2;
    cfg.elasticity.groupDrain.ratePerSec = 0.05;
    cfg.elasticity.groupDrain.absence = 0.8;
    cfg.elasticity.groupPreempt.ratePerSec = 0.05;
    cfg.elasticity.groupPreempt.absence = 0.8;
    cfg.elasticity.prepDrain.ratePerSec = 0.05;
    cfg.elasticity.prepDrain.absence = 0.8;

    cfg.ingest.enabled = true;
    cfg.ingest.seed = seed;
    cfg.ingest.steady = {15000.0, 256.0, 2};
    cfg.ingest.burst = {5000.0, 512.0, 0};
    cfg.ingest.bufferCapacity = 8192.0;
    cfg.ingest.highWatermark = 6144.0;
    cfg.ingest.lowWatermark = 2048.0;
    cfg.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed,
                              IngestPolicy::Echo};
    cfg.ingest.echoFactor = 2.0;
    cfg.ingest.writeFailureProb = 0.05;
    return cfg;
}

void
expectLedgersHold(const SessionResult &res)
{
    const auto &e = res.elasticity;
    EXPECT_NEAR(e.samplesPrepared,
                e.samplesConsumed + e.samplesCachedAtEnd +
                    e.samplesDiscarded,
                1e-6 * std::max(1.0, e.samplesPrepared));
    const auto &in = res.ingest;
    EXPECT_NEAR(in.samplesArrived,
                in.samplesAdmitted + in.samplesShed +
                    in.samplesInFlightAtEnd,
                1e-6 * std::max(1.0, in.samplesArrived));
    EXPECT_EQ(res.integrity.injected,
              res.integrity.detected + res.integrity.escaped);
}

// A one-job fleet must reproduce the bare-session numbers to the
// double: the pinned pre-robustness goldens (ResNet-50, 32
// accelerators, run(4, 8), default config) through the whole fleet
// stack — arrival event, placement, shared-core build, prefixed
// resources, report snapshot.
TEST(FleetSingleJob, PresetGoldensBitIdentical)
{
    for (const PresetGolden &g : kPresetGoldens) {
        ServerConfig cfg;
        cfg.preset = g.preset;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 32;
        const FleetReport r = runFleet(singleJobFleet(cfg, "solo"));
        ASSERT_EQ(r.jobsCompleted, 1u) << presetName(g.preset);
        EXPECT_DOUBLE_EQ(r.jobs[0].report.throughput(), g.throughput)
            << presetName(g.preset);
        EXPECT_DOUBLE_EQ(r.jobs[0].queueingDelay, 0.0);
        EXPECT_FALSE(r.jobs[0].poolConstrained);
    }
}

// The full SessionResult of a disturbed run (faults + elasticity +
// ingest), bare vs one-job fleet: every double matches exactly.
TEST(FleetSingleJob, DisturbedResultMatchesBareRun)
{
    const ServerConfig cfg = disturbedConfig(7);

    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult bare = session.run(4, 8);

    const FleetReport r = runFleet(singleJobFleet(cfg, "solo"));
    ASSERT_EQ(r.jobsCompleted, 1u);
    const SessionResult &res = r.jobs[0].report.result;

    EXPECT_DOUBLE_EQ(res.throughput, bare.throughput);
    EXPECT_DOUBLE_EQ(res.wallTime, bare.wallTime);
    EXPECT_DOUBLE_EQ(res.stepTime, bare.stepTime);
    EXPECT_EQ(res.faults.faultsInjected, bare.faults.faultsInjected);
    EXPECT_EQ(res.faults.readFailures, bare.faults.readFailures);
    EXPECT_DOUBLE_EQ(res.faults.degradedTime, bare.faults.degradedTime);
    EXPECT_EQ(res.integrity.injected, bare.integrity.injected);
    EXPECT_EQ(res.integrity.detected, bare.integrity.detected);
    EXPECT_EQ(res.elasticity.events, bare.elasticity.events);
    EXPECT_EQ(res.elasticity.preemptions, bare.elasticity.preemptions);
    EXPECT_DOUBLE_EQ(res.elasticity.samplesPrepared,
                     bare.elasticity.samplesPrepared);
    EXPECT_DOUBLE_EQ(res.elasticity.samplesConsumed,
                     bare.elasticity.samplesConsumed);
    EXPECT_DOUBLE_EQ(res.elasticity.samplesDiscarded,
                     bare.elasticity.samplesDiscarded);
    EXPECT_DOUBLE_EQ(res.ingest.samplesArrived,
                     bare.ingest.samplesArrived);
    EXPECT_DOUBLE_EQ(res.ingest.samplesAdmitted,
                     bare.ingest.samplesAdmitted);
    EXPECT_DOUBLE_EQ(res.ingest.samplesShed, bare.ingest.samplesShed);
    EXPECT_DOUBLE_EQ(res.ingest.stalenessSum, bare.ingest.stalenessSum);
}

// Without warm-up the window opens when the job starts, not at fleet
// time 0, so a job admitted at t = 5 measures what its bare run does
// (before, 49,204 against 64,288 samples/s).
TEST(FleetSingleJob, NoWarmupJobAdmittedLateMatchesBareRun)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16;

    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult bare = session.run(0, 8);

    FleetConfig fleet = singleJobFleet(cfg, "late");
    fleet.jobs[0].arrival = 5.0;
    fleet.jobs[0].warmupSteps = 0;
    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 1u);
    const SessionResult &res = r.jobs[0].report.result;
    EXPECT_EQ(res.stepsMeasured, 8u);
    EXPECT_NEAR(res.throughput, bare.throughput, 1e-12 * bare.throughput);
    EXPECT_NEAR(res.stepTime, bare.stepTime, 1e-12 * bare.stepTime);
    EXPECT_NEAR(res.wallTime, bare.wallTime, 1e-12 * bare.wallTime);
}

/** A mixed vision + audio two-job trace on one shared core. */
FleetConfig
twoJobFleet(bool disturbed)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"hostA", 4});
    fleet.hosts.push_back({"hostB", 4});
    fleet.policy = PlacementPolicy::Packed;
    fleet.sharedPoolFpgas = 6;

    FleetJobSpec vision;
    vision.name = "vision0";
    vision.config = disturbed ? disturbedConfig(3) : ServerConfig{};
    vision.config.preset = ArchPreset::TrainBox;
    vision.config.model = workload::ModelId::Resnet50;
    vision.config.numAccelerators = 16;
    vision.config.prepPoolFpgas = 4;
    vision.arrival = 0.0;
    vision.warmupSteps = 2;
    vision.measureSteps = 4;
    fleet.jobs.push_back(vision);

    FleetJobSpec audio;
    audio.name = "audio0";
    audio.config = disturbed ? disturbedConfig(11) : ServerConfig{};
    audio.config.preset = ArchPreset::TrainBox;
    audio.config.model = workload::ModelId::TfSr;
    audio.config.numAccelerators = 16;
    audio.config.prepPoolFpgas = 4;
    audio.arrival = 0.05;
    audio.warmupSteps = 2;
    audio.measureSteps = 4;
    fleet.jobs.push_back(audio);
    return fleet;
}

// Interleaved two-job execution on one timeline must replay
// identically: every per-job double, twice.
TEST(FleetTwoJobs, DeterministicReplay)
{
    const FleetReport a = runFleet(twoJobFleet(/*disturbed=*/true));
    const FleetReport b = runFleet(twoJobFleet(/*disturbed=*/true));
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].host, b.jobs[i].host);
        EXPECT_DOUBLE_EQ(a.jobs[i].started, b.jobs[i].started);
        EXPECT_DOUBLE_EQ(a.jobs[i].finished, b.jobs[i].finished);
        EXPECT_DOUBLE_EQ(a.jobs[i].report.throughput(),
                         b.jobs[i].report.throughput());
        EXPECT_DOUBLE_EQ(
            a.jobs[i].report.result.elasticity.samplesPrepared,
            b.jobs[i].report.result.elasticity.samplesPrepared);
    }
    EXPECT_EQ(a.toJson(), b.toJson());
}

// Conservation ledgers hold per job when two disturbed jobs share the
// core (the sessions also panic-check them internally — reaching the
// EXPECTs at all means no cross-job state leaked).
TEST(FleetTwoJobs, LedgersHoldUnderChaos)
{
    const FleetReport r = runFleet(twoJobFleet(/*disturbed=*/true));
    ASSERT_EQ(r.jobsCompleted, 2u);
    for (const FleetJobResult &j : r.jobs) {
        SCOPED_TRACE(j.job);
        expectLedgersHold(j.report.result);
        EXPECT_GT(j.report.result.elasticity.samplesPrepared, 0.0);
        EXPECT_GT(j.report.result.ingest.samplesArrived, 0.0);
    }
    EXPECT_EQ(r.faultsInjected,
              r.jobs[0].report.faults().faultsInjected +
                  r.jobs[1].report.faults().faultsInjected);
}

// Job names prefix resource and metric names ("a." and, for a retry,
// "a.r1."), so a name that extends another past a '.' would share its
// namespace: job a's report would also list job a.b's resources.
TEST(FleetValidate, RejectsJobNamesThatCollide)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.numAccelerators = 8;
    auto fleetOf = [&](const std::vector<std::string> &names) {
        FleetConfig fleet = singleJobFleet(cfg, names.front());
        for (std::size_t i = 1; i < names.size(); ++i) {
            fleet.jobs.push_back(fleet.jobs.front());
            fleet.jobs.back().name = names[i];
        }
        return fleet.validate();
    };
    EXPECT_EQ(fleetOf({"a", "ab", "a-b", "b.a", "a_r1"}), "");
    EXPECT_EQ(fleetOf({"a", "x", "a"}), "duplicate job name a");
    EXPECT_EQ(fleetOf({"a.b", "a"}),
              "job name a.b extends job name a past a '.'");
    EXPECT_EQ(fleetOf({"a", "a.r1"}),
              "job name a.r1 extends job name a past a '.'");
    EXPECT_EQ(fleetOf({"x", "a.b.c", "a.b"}),
              "job name a.b.c extends job name a.b past a '.'");
}

// Messages are as long as they need to be: a long job name appears
// whole.
TEST(FleetValidate, LongDuplicateNameAppearsWhole)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.numAccelerators = 8;
    const std::string name(300, 'j');
    FleetConfig fleet = singleJobFleet(cfg, name);
    fleet.jobs.push_back(fleet.jobs.front());
    EXPECT_EQ(fleet.validate(), "duplicate job name " + name);
}

// A job's server config is part of the scenario: a bad one is refused
// before any event runs, not when the job is admitted after the jobs
// before it ran.
TEST(FleetValidate, RejectsAJobsInvalidServerConfig)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.numAccelerators = 8;
    FleetConfig fleet = singleJobFleet(cfg, "a");
    FleetJobSpec b = fleet.jobs.front();
    b.name = "b";
    b.arrival = 1.0;
    b.config.prefetchDepth = 1;
    fleet.jobs.push_back(b);
    EXPECT_EQ(fleet.validate(), "job b: prefetchDepth must be >= 2 "
                                "(next-batch prefetch), got 1");
    EXPECT_DEATH(FleetSimulation{fleet}, "fleet: job b: prefetchDepth");
}

// One two-box host, two two-box jobs: the second waits for the first
// to finish and its wait is reported as queueing delay.
TEST(FleetQueueing, OversubscribedHostReportsDelay)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 2});

    for (int i = 0; i < 2; ++i) {
        FleetJobSpec job;
        job.name = i == 0 ? "first" : "second";
        job.config.preset = ArchPreset::TrainBox;
        job.config.model = workload::ModelId::Resnet50;
        job.config.numAccelerators = 16; // 2 boxes
        job.arrival = 0.0;
        job.warmupSteps = 1;
        job.measureSteps = 2;
        fleet.jobs.push_back(job);
    }

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.jobsQueued, 1u);
    EXPECT_DOUBLE_EQ(r.jobs[0].queueingDelay, 0.0);
    EXPECT_GT(r.jobs[1].queueingDelay, 0.0);
    // The second job started exactly when the first finished.
    EXPECT_DOUBLE_EQ(r.jobs[1].started, r.jobs[0].finished);
    EXPECT_DOUBLE_EQ(r.maxQueueingDelay, r.jobs[1].queueingDelay);
    EXPECT_DOUBLE_EQ(r.avgQueueingDelay,
                     r.jobs[1].queueingDelay / 2.0);
}

// Two jobs requesting 4 pool FPGAs each against a 6-FPGA shared pool:
// grants sum exactly to the pool, the latecomer is constrained, and
// the fairness index matches the closed-form Jain value.
TEST(FleetPool, OversubscribedGrantsSumToPool)
{
    FleetConfig fleet = twoJobFleet(/*disturbed=*/false);
    fleet.sharedPoolFpgas = 6;

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.poolFpgasRequestedTotal, 8u);
    EXPECT_EQ(r.poolFpgasGrantedTotal, 6u); // == the pool, exactly
    EXPECT_EQ(r.jobsPoolConstrained, 1u);
    EXPECT_EQ(r.jobs[0].poolFpgasGranted, 4u);
    EXPECT_EQ(r.jobs[1].poolFpgasGranted, 2u);
    EXPECT_TRUE(r.jobs[1].poolConstrained);
    // Jain over ratios {1.0, 0.5}: (1.5)^2 / (2 * 1.25) = 0.9.
    EXPECT_DOUBLE_EQ(r.poolFairness, 0.9);
    // The constrained job still completes and reports throughput.
    EXPECT_GT(r.jobs[1].report.throughput(), 0.0);
    EXPECT_GT(r.aggregateThroughput,
              r.jobs[0].report.throughput());
}

// Uncapped pool (the exactness-contract setting): configs are never
// rewritten and every request is echoed as its own grant.
TEST(FleetPool, UncappedPoolNeverConstrains)
{
    FleetConfig fleet = twoJobFleet(/*disturbed=*/false);
    fleet.sharedPoolFpgas = -1;

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.jobsPoolConstrained, 0u);
    EXPECT_DOUBLE_EQ(r.poolFairness, 1.0);
    for (const FleetJobResult &j : r.jobs)
        EXPECT_EQ(j.poolFpgasGranted, j.poolFpgasRequested);
}

// Only TrainBox builds a pool, so only a TrainBox job asks the shared
// pool for one: a B+Acc+P2P job admitted first leaves the pool whole.
TEST(FleetPool, PresetWithoutPoolRequestsNone)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 4});
    fleet.sharedPoolFpgas = 4;
    for (ArchPreset p : {ArchPreset::BaselineAccP2p, ArchPreset::TrainBox}) {
        FleetJobSpec job;
        job.name = presetKey(p);
        job.config = ServerConfig::forPreset(p)
                         .withModel(workload::ModelId::TfSr)
                         .withAccelerators(16);
        fleet.jobs.push_back(job);
    }

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.jobs[0].poolFpgasRequested, 0u);
    EXPECT_EQ(r.jobs[0].poolFpgasGranted, 0u);
    EXPECT_EQ(r.jobs[1].poolFpgasRequested, 3u);
    EXPECT_EQ(r.jobs[1].poolFpgasGranted, 3u);
    EXPECT_FALSE(r.jobs[1].poolConstrained);
}

// --- grant reclamation (docs/ROBUSTNESS.md, "Fleet fault tolerance") -----

/** Two 2-box jobs, 4-FPGA requests each, scripted fleet faults. */
FleetConfig
reclamationFleet()
{
    FleetConfig fleet;
    fleet.hosts.push_back({"hostA", 4});
    fleet.sharedPoolFpgas = 6;
    fleet.faults.enabled = true;
    fleet.faults.maxRetries = 3;
    fleet.faults.retryBackoffBase = 0.05;

    for (int i = 0; i < 2; ++i) {
        FleetJobSpec job;
        job.name = i == 0 ? "victim" : "lucky";
        job.arrival = i == 0 ? 0.0 : 0.01;
        job.config.preset = ArchPreset::TrainBox;
        job.config.model = workload::ModelId::Resnet50;
        job.config.numAccelerators = 16; // 2 boxes
        job.config.prepPoolFpgas = 4;
        job.warmupSteps = 1;
        job.measureSteps = 2;
        fleet.jobs.push_back(job);
    }
    return fleet;
}

// A scripted outage kills "victim" the instant it is admitted (t = 0,
// the outage event was scheduled at arm time so it fires after the
// arrival's admission but before any session progress). Its 4-FPGA
// grant must return to the pool as integers immediately — panic-checked
// at every grant mutation — so "lucky", queued during the outage,
// is admitted at repair time with the *full* freed grant (only 2 of 6
// FPGAs would be free had the dead grant leaked). The victim's retry
// then co-resides on the host and completes with the 2-FPGA residue.
TEST(FleetFaults, HostDeathReclaimsGrantForQueuedJob)
{
    FleetConfig fleet = reclamationFleet();
    fleet.faults.schedule.push_back({FleetFaultKind::HostOutage,
                                     /*host=*/0, /*start=*/0.0,
                                     /*duration=*/0.03});

    FleetSimulation sim(fleet);
    const FleetReport r = sim.run();
    // The killed attempt and both finished jobs own no flow.
    EXPECT_EQ(sim.core().fluid().numActive(), 0u);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.jobsAbandoned, 0u);
    EXPECT_EQ(r.restartsTotal, 1u);
    EXPECT_EQ(r.fleetFaultsInjected, 1u);
    EXPECT_DOUBLE_EQ(r.hostDownTime, 0.03);

    const FleetJobResult &victim = r.jobs[0];
    EXPECT_EQ(victim.state, FleetJobState::Completed);
    EXPECT_EQ(victim.restarts, 1u);
    // Killed at t = 0 before any work: nothing synced, nothing lost.
    EXPECT_EQ(victim.stepsLost, 0u);
    EXPECT_DOUBLE_EQ(victim.workLost, 0.0);
    // The retry found only the 2 FPGAs lucky left over.
    EXPECT_EQ(victim.poolFpgasGranted, 2u);
    EXPECT_TRUE(victim.poolConstrained);

    const FleetJobResult &lucky = r.jobs[1];
    EXPECT_EQ(lucky.state, FleetJobState::Completed);
    EXPECT_EQ(lucky.restarts, 0u);
    // Queued while the host was down (arrived 0.01, repair 0.03)...
    EXPECT_DOUBLE_EQ(lucky.queueingDelay, 0.02);
    // ...then admitted with the reclaimed grant, uncut.
    EXPECT_EQ(lucky.poolFpgasGranted, 4u);
    EXPECT_FALSE(lucky.poolConstrained);

    // The retry was gated by its backoff only (the host repaired at
    // 0.03, the backoff timer fired at 0.05): the failure-to-
    // re-admission latency is exactly the backoff base.
    EXPECT_GT(victim.finished, lucky.finished);
    EXPECT_DOUBLE_EQ(victim.replacementLatency, 0.05);
    EXPECT_DOUBLE_EQ(r.maxReplacementLatency, victim.replacementLatency);

    // Rollups see the final grants: 2 + 4, Jain over {0.5, 1.0}.
    EXPECT_EQ(r.poolFpgasGrantedTotal, 6u);
    EXPECT_DOUBLE_EQ(r.poolFairness, 0.9);
    ASSERT_EQ(r.retryHistogram.size(), 2u);
    EXPECT_EQ(r.retryHistogram[0], 1u);
    EXPECT_EQ(r.retryHistogram[1], 1u);
}

// Same scenario run twice: the fault path replays bit-identically
// (kills, requeues, backoff timers, and re-admissions are all on the
// deterministic event queue).
TEST(FleetFaults, ScriptedFaultReplayIsDeterministic)
{
    FleetConfig fleet = reclamationFleet();
    fleet.faults.schedule.push_back({FleetFaultKind::HostOutage,
                                     /*host=*/0, /*start=*/0.0,
                                     /*duration=*/0.03});
    const FleetReport a = runFleet(fleet);
    const FleetReport b = runFleet(fleet);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.toJson(), b.toJson());
}

} // namespace
} // namespace tb
