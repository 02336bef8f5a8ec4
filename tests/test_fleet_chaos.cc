/**
 * @file
 * Fleet-level fault tolerance tests (docs/ROBUSTNESS.md, "Fleet fault
 * tolerance"):
 *
 *  - bit-identity: an *enabled* fault config whose classes are all off
 *    schedules zero events, so the pinned goldens and whole-report JSON
 *    match the disabled path exactly;
 *  - validation: FleetConfig::validate() rejects bad retry policies,
 *    negative MTBF/MTTR, unsorted schedules, and out-of-range hosts
 *    with the documented messages;
 *  - retry/backoff: scripted outages exercise the Queued → Running →
 *    Failed → Requeued → Completed/Abandoned machine deterministically,
 *    including exponential backoff and the checkpoint-restart bank;
 *  - fault kinds: box losses evict the newest co-resident job, pool
 *    partitions fence free FPGAs only;
 *  - chaos: >= 20 random seeds mix fleet faults with the per-job
 *    fault/elasticity/ingest injectors; every conservation ledger is
 *    panic-checked inside the simulator, so completing a run at all is
 *    the assertion, and same-seed runs replay identically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "trainbox/fleet.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

/** The undisturbed 16-accelerator TrainBox job used as a fixture. */
ServerConfig
plainConfig()
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16; // 2 boxes
    cfg.prepPoolFpgas = 4;
    return cfg;
}

/** The chaos harness's disturbed scenario (mirrors test_fleet.cc). */
ServerConfig
disturbedConfig(std::uint64_t seed)
{
    ServerConfig cfg = plainConfig();

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

/** Bare-session wall time: the yardstick for scripting fault times. */
Time
bareWall(const ServerConfig &cfg, std::size_t warmup, std::size_t measure)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure).wallTime;
}

/** One plainConfig() job on a one-host fleet, fleet faults enabled. */
FleetConfig
oneJobFaultFleet(const ServerConfig &cfg)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 2});
    fleet.faults.enabled = true;
    FleetJobSpec job;
    job.name = "solo";
    job.config = cfg;
    job.warmupSteps = 2;
    job.measureSteps = 4;
    fleet.jobs.push_back(job);
    return fleet;
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

// --- bit-identity ---------------------------------------------------------

// faults.enabled with every class off and no scripted windows schedules
// zero events: the golden throughput and the entire report must match
// the disabled path byte for byte.
TEST(FleetFaultIdentity, EmptyFaultConfigIsBitIdentical)
{
    FleetConfig enabled = oneJobFaultFleet(plainConfig());
    FleetConfig disabled = enabled;
    disabled.faults.enabled = false;

    const FleetReport a = runFleet(enabled);
    const FleetReport b = runFleet(disabled);
    ASSERT_EQ(a.jobsCompleted, 1u);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_DOUBLE_EQ(a.jobs[0].report.throughput(),
                     b.jobs[0].report.throughput());
}

// The chaos-harness golden through the enabled-but-empty fault path:
// the 32-accelerator pinned TrainBox number, to the double.
TEST(FleetFaultIdentity, PinnedGoldenSurvivesEnabledFaultPath)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;

    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 64});
    fleet.faults.enabled = true;
    FleetJobSpec job;
    job.name = "solo";
    job.config = cfg;
    job.warmupSteps = 4;
    job.measureSteps = 8;
    fleet.jobs.push_back(job);

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 1u);
    EXPECT_DOUBLE_EQ(r.jobs[0].report.throughput(), 237516.29284407894);
    EXPECT_EQ(r.fleetFaultsInjected, 0u);
    EXPECT_EQ(r.restartsTotal, 0u);
}

// --- validation -----------------------------------------------------------

void
expectInvalid(const FleetConfig &fleet, const std::string &needle)
{
    const std::string err = fleet.validate();
    EXPECT_NE(err.find(needle), std::string::npos)
        << "wanted \"" << needle << "\" in \"" << err << "\"";
}

TEST(FleetFaultValidate, AcceptsAdmissibleScenario)
{
    FleetConfig fleet = oneJobFaultFleet(plainConfig());
    fleet.horizon = 10.0;
    fleet.faults.hostOutage = {5.0, 0.5};
    fleet.faults.boxLoss = {8.0, 0.5};
    fleet.faults.poolPartition = {6.0, 0.5};
    fleet.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 1.0, 0.25});
    EXPECT_EQ(fleet.validate(), "");
}

TEST(FleetFaultValidate, RejectsBadRetryPolicy)
{
    FleetConfig base = oneJobFaultFleet(plainConfig());

    FleetConfig f = base;
    f.faults.maxRetries = 65;
    expectInvalid(f, "faults.maxRetries 65 exceeds the cap 64");

    f = base;
    f.faults.retryBackoffBase = -0.1;
    expectInvalid(f, "faults.retryBackoffBase must be >= 0");

    f = base;
    f.faults.retryBackoffFactor = 0.5;
    expectInvalid(f, "faults.retryBackoffFactor must be >= 1");
}

TEST(FleetFaultValidate, RejectsBadClassRates)
{
    FleetConfig base = oneJobFaultFleet(plainConfig());

    FleetConfig f = base;
    f.faults.hostOutage.mtbf = -1.0;
    expectInvalid(f, "faults.hostOutage.mtbf must be >= 0");

    f = base;
    f.faults.boxLoss.mttr = -2.0;
    expectInvalid(f, "faults.boxLoss.mttr must be >= 0");

    // Seeded streams are enumerated over the horizon: rate without
    // horizon is a config error, not a silent no-op.
    f = base;
    f.faults.poolPartition.mtbf = 5.0;
    expectInvalid(f, "needs a positive horizon");

    f = base;
    f.horizon = 10.0;
    f.faults.boxLoss.mtbf = 1.0;
    f.faults.boxLossUnits = 0;
    expectInvalid(f, "faults.boxLossUnits must be >= 1");
}

TEST(FleetFaultValidate, RejectsBadScriptedSchedule)
{
    FleetConfig base = oneJobFaultFleet(plainConfig());

    FleetConfig f = base;
    f.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, -1.0, 0.1});
    expectInvalid(f, "starts at -1 < 0");

    f = base;
    f.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 1.0, -0.5});
    expectInvalid(f, "negative duration");

    f = base;
    f.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 2.0, 0.1});
    f.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 1.0, 0.1});
    expectInvalid(f, "must be sorted");

    f = base;
    f.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 5, 1.0, 0.1});
    expectInvalid(f, "targets host 5 but the fleet has only 1 hosts");

    f = base;
    f.faults.schedule.push_back(
        {FleetFaultKind::BoxLoss, 0, 1.0, 0.1, /*units=*/0});
    expectInvalid(f, "has zero units");
}

// NaN compares false both ways, so a check written `x < 0.0` lets it
// through, and a NaN arrival would reach the report JSON as "nan".
// Every numeric field rejects NaN, and the job arrivals, the horizon
// and scripted fault starts must be finite.
TEST(FleetFaultValidate, RejectsNaNAndInfiniteTimes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    FleetConfig base = oneJobFaultFleet(plainConfig());
    base.horizon = 10.0;
    base.faults.hostOutage = {5.0, 0.5};
    base.faults.boxLoss = {8.0, 0.5};
    base.faults.poolPartition = {6.0, 0.5};
    base.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 1.0, 0.25});
    ASSERT_EQ(base.validate(), "");

    using Field = double &(*)(FleetConfig &);
    struct Case
    {
        Field field;
        double value;
        const char *needle;
    };
    const Field horizon = [](FleetConfig &f) -> double & {
        return f.horizon;
    };
    const Field arrival = [](FleetConfig &f) -> double & {
        return f.jobs[0].arrival;
    };
    const Field start = [](FleetConfig &f) -> double & {
        return f.faults.schedule[0].start;
    };
    const Case cases[] = {
        {horizon, nan, "horizon must be finite and >= 0, got nan"},
        {horizon, inf, "horizon must be finite and >= 0, got inf"},
        {arrival, nan, "job solo must arrive at a finite time >= 0, got nan"},
        {arrival, inf, "job solo must arrive at a finite time >= 0, got inf"},
        {[](FleetConfig &f) -> double & { return f.faults.retryBackoffBase; },
         nan, "faults.retryBackoffBase must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & {
             return f.faults.retryBackoffFactor;
         },
         nan, "faults.retryBackoffFactor must be >= 1, got nan"},
        {[](FleetConfig &f) -> double & { return f.faults.hostOutage.mtbf; },
         nan, "faults.hostOutage.mtbf must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & { return f.faults.hostOutage.mttr; },
         nan, "faults.hostOutage.mttr must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & { return f.faults.boxLoss.mtbf; },
         nan, "faults.boxLoss.mtbf must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & { return f.faults.boxLoss.mttr; },
         nan, "faults.boxLoss.mttr must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & {
             return f.faults.poolPartition.mtbf;
         },
         nan, "faults.poolPartition.mtbf must be >= 0, got nan"},
        {[](FleetConfig &f) -> double & {
             return f.faults.poolPartition.mttr;
         },
         nan, "faults.poolPartition.mttr must be >= 0, got nan"},
        {start, nan, "faults.schedule[0] starts at nan, not a finite time"},
        {start, inf, "faults.schedule[0] starts at inf, not a finite time"},
        {[](FleetConfig &f) -> double & {
             return f.faults.schedule[0].duration;
         },
         nan, "faults.schedule[0] has negative duration nan"},
    };
    for (const Case &k : cases) {
        FleetConfig f = base;
        k.field(f) = k.value;
        expectInvalid(f, k.needle);
    }
}

// --- retry / backoff / abandonment ---------------------------------------

// Two scripted outages against maxRetries = 1: the first kill requeues
// (exponential backoff, host repaired in time), the second exhausts the
// budget and abandons the job. All times are scripted as fractions of
// the measured bare wall time, so the kills land mid-attempt
// deterministically.
TEST(FleetRetry, RetryExhaustionAbandons)
{
    const ServerConfig cfg = plainConfig();
    const Time w = bareWall(cfg, 2, 4);
    ASSERT_GT(w, 0.0);

    FleetConfig fleet = oneJobFaultFleet(cfg);
    fleet.faults.maxRetries = 1;
    fleet.faults.retryBackoffBase = 0.2 * w;
    fleet.faults.retryBackoffFactor = 2.0;
    // The prep pipeline fills for ~60% of the wall before the first
    // sync, so the kills land at 75% of each attempt — two steps
    // synced, none durable. Attempt 1 spans [0, w): killed at 0.75w,
    // retried at 0.95w. Attempt 2 spans [0.95w, 1.95w): killed at
    // 1.7w -> abandoned.
    fleet.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 0.75 * w, 0.1 * w});
    fleet.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 1.7 * w, 0.1 * w});

    FleetSimulation sim(fleet);
    const FleetReport r = sim.run();
    // Both killed attempts cancelled every flow they started.
    EXPECT_EQ(sim.core().fluid().numActive(), 0u);
    EXPECT_EQ(r.jobsCompleted, 0u);
    EXPECT_EQ(r.jobsAbandoned, 1u);
    EXPECT_EQ(r.restartsTotal, 2u);
    EXPECT_EQ(r.fleetFaultsInjected, 2u);

    const FleetJobResult &j = r.jobs[0];
    EXPECT_EQ(j.state, FleetJobState::Abandoned);
    EXPECT_FALSE(j.completed);
    EXPECT_EQ(j.restarts, 2u);
    // Each attempt lost its three-quarter run of wall time; no
    // checkpointing, so every synced step was lost work.
    EXPECT_NEAR(j.workLost, 1.5 * w, 1e-9 * w);
    EXPECT_EQ(j.stepsLost, 4u); // two synced steps per killed attempt
    // One re-admission, exactly one backoff (base * factor^0).
    EXPECT_NEAR(j.replacementLatency, 0.2 * w, 1e-9 * w);
    ASSERT_EQ(r.retryHistogram.size(), 3u);
    EXPECT_EQ(r.retryHistogram[2], 1u);
}

// With periodic checkpointing the retry restarts from the last durable
// step: the replacement attempt measures strictly fewer steps than the
// job's budget, and its re-admission latency includes the configured
// checkpoint restart (restore) latency on top of the backoff.
TEST(FleetRetry, CheckpointRestartBanksDurableProgress)
{
    ServerConfig cfg = plainConfig();
    const Time w0 = bareWall(cfg, 2, 4);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = w0 / 8.0; // capture roughly every step
    cfg.checkpoint.restartLatency = 0.05 * w0;
    const Time w = bareWall(cfg, 2, 4);
    ASSERT_GT(w, 0.0);

    FleetConfig fleet = oneJobFaultFleet(cfg);
    fleet.faults.maxRetries = 3;
    fleet.faults.retryBackoffBase = 0.01 * w;
    // At 0.88w the job has synced step 4 but the last durable capture
    // was at step 3: the kill loses exactly one step and banks one
    // measured step (durable 3 - warmup 2) for the retry.
    fleet.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 0, 0.88 * w, 0.02 * w});

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 1u);
    const FleetJobResult &j = r.jobs[0];
    EXPECT_EQ(j.state, FleetJobState::Completed);
    EXPECT_EQ(j.restarts, 1u);
    // Banked durable progress: the final (retry) report measured only
    // the un-checkpointed tail of the 4-step budget.
    EXPECT_GT(j.report.stepsMeasured(), 0u);
    EXPECT_LT(j.report.stepsMeasured(), 4u);
    // Backoff + checkpoint restore, with the host already repaired.
    EXPECT_NEAR(j.replacementLatency, 0.01 * w + 0.05 * w0, 1e-9 * w);
    // Only the tail past the durable capture was lost (synced 4,
    // durable 3) — versus 4 steps without checkpointing.
    EXPECT_EQ(j.stepsLost, 1u);
}

// --- box loss and pool partition ------------------------------------------

// A 2-slot box loss on a full host evicts the most recently admitted
// co-resident job (minimizing lost work); the elder job rides the
// window out untouched and the victim re-admits at repair time.
TEST(FleetFaultKinds, BoxLossEvictsNewestJob)
{
    const ServerConfig cfg = plainConfig();
    const Time w = bareWall(cfg, 2, 4);
    ASSERT_GT(w, 0.0);

    FleetConfig fleet;
    fleet.hosts.push_back({"host0", 4});
    fleet.faults.enabled = true;
    fleet.faults.maxRetries = 2;
    fleet.faults.retryBackoffBase = 0.05 * w;
    fleet.faults.schedule.push_back(
        {FleetFaultKind::BoxLoss, 0, 0.5 * w, 0.2 * w, /*units=*/2});

    for (int i = 0; i < 2; ++i) {
        FleetJobSpec job;
        job.name = i == 0 ? "elder" : "newbie";
        job.arrival = i == 0 ? 0.0 : 0.2 * w;
        job.config = cfg;
        job.warmupSteps = 2;
        job.measureSteps = 4;
        fleet.jobs.push_back(job);
    }

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.fleetFaultsInjected, 1u);
    EXPECT_EQ(r.restartsTotal, 1u);
    // A box loss is not an outage: no host-down time accrues.
    EXPECT_DOUBLE_EQ(r.hostDownTime, 0.0);

    const FleetJobResult &elder = r.jobs[0];
    EXPECT_EQ(elder.restarts, 0u);
    EXPECT_EQ(elder.state, FleetJobState::Completed);

    const FleetJobResult &newbie = r.jobs[1];
    EXPECT_EQ(newbie.restarts, 1u);
    EXPECT_EQ(newbie.state, FleetJobState::Completed);
    // Failed at the loss (0.5w), re-admitted at the repair (0.7w):
    // the fenced slots gated the retry past its 0.05w backoff.
    EXPECT_NEAR(newbie.replacementLatency, 0.2 * w, 1e-9 * w);
}

// Jobs know their host by index, not by name: with two hosts that share
// a name, an outage on the second kills only the job placed there, and
// that job's boxes go back to the host it ran on, so it re-admits only
// when that host is repaired.
TEST(FleetFaultKinds, DuplicateHostNamesKeepJobsApart)
{
    const ServerConfig cfg = plainConfig();
    const Time w = bareWall(cfg, 2, 4);
    ASSERT_GT(w, 0.0);

    FleetConfig fleet;
    fleet.hosts.push_back({"h", 2});
    fleet.hosts.push_back({"h", 2});
    fleet.faults.enabled = true;
    fleet.faults.maxRetries = 1;
    fleet.faults.retryBackoffBase = 0.05 * w;
    fleet.faults.schedule.push_back(
        {FleetFaultKind::HostOutage, 1, 0.5 * w, 0.1 * w});
    for (const char *name : {"first", "second"}) {
        FleetJobSpec job;
        job.name = name;
        job.config = cfg;
        job.warmupSteps = 2;
        job.measureSteps = 4;
        fleet.jobs.push_back(job);
    }
    ASSERT_EQ(fleet.validate(), "");

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.restartsTotal, 1u);
    EXPECT_EQ(r.jobs[0].restarts, 0u); // first fit: host 0
    EXPECT_EQ(r.jobs[1].restarts, 1u); // host 1
    // Killed at 0.5w; host 0 stays full, so the retry waits past its
    // 0.05w backoff for host 1's repair at 0.6w.
    EXPECT_NEAR(r.jobs[1].replacementLatency, 0.1 * w, 1e-9 * w);
    EXPECT_EQ(r.jobs[1].host, "h");
}

// A pool partition fences *free* FPGAs only: the grant already held
// rides the window out, while a job admitted during the window gets
// the depleted residue and is flagged constrained.
TEST(FleetFaultKinds, PoolPartitionFencesOnlyFreeFpgas)
{
    const ServerConfig cfg = plainConfig();
    const Time w = bareWall(cfg, 2, 4);
    ASSERT_GT(w, 0.0);

    FleetConfig fleet;
    fleet.hosts.push_back({"hostA", 2});
    fleet.hosts.push_back({"hostB", 2});
    fleet.sharedPoolFpgas = 8;
    fleet.faults.enabled = true;
    fleet.faults.schedule.push_back(
        {FleetFaultKind::PoolPartition, 0, 0.2 * w, 0.6 * w,
         /*units=*/3});

    for (int i = 0; i < 2; ++i) {
        FleetJobSpec job;
        job.name = i == 0 ? "early" : "late";
        job.arrival = i == 0 ? 0.0 : 0.4 * w;
        job.config = cfg;
        job.warmupSteps = 2;
        job.measureSteps = 4;
        fleet.jobs.push_back(job);
    }

    const FleetReport r = runFleet(fleet);
    ASSERT_EQ(r.jobsCompleted, 2u);
    EXPECT_EQ(r.fleetFaultsInjected, 1u);
    EXPECT_EQ(r.restartsTotal, 0u);

    // early held 4 of 8 before the window; the partition fenced 3 of
    // the 4 free, leaving exactly 1 for the latecomer.
    EXPECT_EQ(r.jobs[0].poolFpgasGranted, 4u);
    EXPECT_FALSE(r.jobs[0].poolConstrained);
    EXPECT_EQ(r.jobs[1].poolFpgasGranted, 1u);
    EXPECT_TRUE(r.jobs[1].poolConstrained);
}

// --- randomized chaos -----------------------------------------------------

/** Two disturbed jobs + all three seeded fleet-fault classes. */
FleetConfig
chaosFleet(std::uint64_t seed, Time w)
{
    FleetConfig fleet;
    fleet.hosts.push_back({"hostA", 4});
    fleet.hosts.push_back({"hostB", 4});
    fleet.policy = PlacementPolicy::Packed;
    fleet.sharedPoolFpgas = 6;
    fleet.horizon = 8.0 * w;

    fleet.faults.enabled = true;
    fleet.faults.seed = seed;
    fleet.faults.hostOutage = {1.5 * w, 0.15 * w};
    fleet.faults.boxLoss = {2.0 * w, 0.2 * w};
    fleet.faults.boxLossUnits = 1;
    fleet.faults.poolPartition = {1.5 * w, 0.15 * w};
    fleet.faults.poolPartitionFpgas = 2;
    fleet.faults.maxRetries = 2;
    fleet.faults.retryBackoffBase = 0.05 * w;

    FleetJobSpec vision;
    vision.name = "vision0";
    vision.config = disturbedConfig(3);
    vision.arrival = 0.0;
    vision.warmupSteps = 2;
    vision.measureSteps = 4;
    fleet.jobs.push_back(vision);

    FleetJobSpec audio;
    audio.name = "audio0";
    audio.config = disturbedConfig(11);
    audio.config.model = workload::ModelId::TfSr;
    audio.arrival = 0.05 * w;
    audio.warmupSteps = 2;
    audio.measureSteps = 4;
    fleet.jobs.push_back(audio);
    return fleet;
}

// 20 seeds of fleet faults on top of the per-job fault + elasticity +
// ingest injectors. Every conservation ledger — per-session samples,
// ingest, integrity, the pool-grant ledger at each mutation, and the
// fleet job ledger — is panic-checked inside the simulator, so
// completing each run is itself the assertion; the EXPECTs re-state
// the job ledger and spot-check the per-job ones at the gtest level.
TEST(FleetChaos, LedgersHoldAcrossSeeds)
{
    const Time w = bareWall(plainConfig(), 2, 4);
    ASSERT_GT(w, 0.0);

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        FleetSimulation sim(chaosFleet(seed, w));
        const FleetReport r = sim.run();
        // Finished, killed and horizon-frozen jobs alike own no flow.
        EXPECT_EQ(sim.core().fluid().numActive(), 0u);
        EXPECT_EQ(r.jobsCompleted + r.jobsAbandoned +
                      r.jobsRunningAtHorizon + r.jobsQueuedAtHorizon,
                  r.jobsTotal);
        for (const FleetJobResult &j : r.jobs) {
            SCOPED_TRACE(j.job);
            // The integrity ledger holds at every instant, partial
            // reports included; the sample/ingest ledgers are asserted
            // on completed runs (and panic-checked on partial ones).
            EXPECT_EQ(j.report.result.integrity.injected,
                      j.report.result.integrity.detected +
                          j.report.result.integrity.escaped);
            if (j.completed)
                expectLedgersHold(j.report.result);
            EXPECT_LE(j.restarts, 3u); // maxRetries + the final failure
        }
    }
}

// Same seed, same chaos: the full report replays byte-identically.
TEST(FleetChaos, SameSeedSameReport)
{
    const Time w = bareWall(plainConfig(), 2, 4);
    const FleetReport a = runFleet(chaosFleet(7, w));
    const FleetReport b = runFleet(chaosFleet(7, w));
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.toCsv(), b.toCsv());
}

} // namespace
} // namespace tb
