/**
 * @file
 * Streaming ingest under overload: the IngestScheduler arrival streams
 * (determinism, diurnal modulation, explicit-schedule merging) and the
 * TrainingSession admission machinery (watermark trips, policy
 * shedding, overflow drops, write retries, the conservation ledger,
 * bit-determinism of full overload runs, and the policy-chain goodput
 * ordering under a burst). The degenerate report ratios (nothing
 * arrived, zero-length windows) are pinned here too.
 *
 * Companion suites: tests/test_server_config.cc checks the validation
 * messages, tests/test_chaos.cc mixes ingest with faults and
 * elasticity.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/ingest.hh"
#include "trainbox/ingest_tier.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

/** Two-group scenario, small enough for repeated session runs. */
ServerConfig
baseConfig()
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16; // two groups at accPerBox = 8
    cfg.prepPoolFpgas = 4;
    return cfg;
}

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 2,
           std::size_t measure = 4)
{
    const std::string problem = cfg.validate();
    EXPECT_EQ(problem, "") << problem;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

/** The arrived == admitted + shed + in-flight ledger, from the stats. */
void
expectLedgerHolds(const SessionResult::IngestStats &s)
{
    const double gap =
        s.samplesArrived -
        (s.samplesAdmitted + s.samplesShed + s.samplesInFlightAtEnd);
    EXPECT_LE(std::fabs(gap), 1e-6 * std::max(1.0, s.samplesArrived));
    EXPECT_GE(s.samplesArrived, 0.0);
    EXPECT_GE(s.samplesAdmitted, 0.0);
    EXPECT_GE(s.samplesShed, 0.0);
    EXPECT_GE(s.samplesInFlightAtEnd, 0.0);
    // The shed side decomposes exactly into its causes.
    EXPECT_NEAR(s.samplesShed,
                s.samplesThrottled + s.samplesShedPolicy +
                    s.samplesOverflowDropped + s.samplesAbandonedWrites,
                1e-6 * std::max(1.0, s.samplesShed));
}

// --- scheduler unit behavior -----------------------------------------

TEST(IngestSchedulerUnit, PreviewIsDeterministicAndOrdered)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.steady = {500.0, 64.0, 2};
    cfg.burst = {200.0, 256.0, 0};

    const auto a = IngestScheduler::schedule(cfg, 50.0);
    const auto b = IngestScheduler::schedule(cfg, 50.0);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 10u);
    Time prev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(static_cast<int>(a[i].kind),
                  static_cast<int>(b[i].kind));
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_DOUBLE_EQ(a[i].samples, b[i].samples);
        EXPECT_GE(a[i].at, prev);
        EXPECT_LT(a[i].at, 50.0);
        EXPECT_GT(a[i].samples, 0.0);
        // Priority travels with the class.
        const int want =
            a[i].kind == IngestTrafficKind::Steady ? 2 : 0;
        EXPECT_EQ(a[i].priority, want);
        prev = a[i].at;
    }

    // A different seed draws a different timeline.
    cfg.seed = 8;
    const auto c = IngestScheduler::schedule(cfg, 50.0);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < c.size(); ++i)
        differs = c[i].at != a[i].at;
    EXPECT_TRUE(differs);
}

TEST(IngestSchedulerUnit, ArmPlaysExactlyThePreview)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.steady = {500.0, 64.0, 2};
    cfg.diurnal = {300.0, 32.0, 1};
    cfg.burst = {200.0, 256.0, 0};
    cfg.schedule = {{IngestTrafficKind::Burst, 100.0, 0, 1.5},
                    {IngestTrafficKind::Steady, 50.0, 2, 12.0}};
    constexpr Time kHorizon = 50.0;
    const auto preview = IngestScheduler::schedule(cfg, kHorizon);
    ASSERT_GT(preview.size(), 10u);

    // Arm off the zero clock, as a fleet job admitted mid-run does.
    EventQueue eq;
    eq.run(3.7);
    const Time origin = eq.now();
    IngestScheduler sched(cfg);
    std::vector<std::pair<Time, IngestArrival>> played;
    sched.arm(eq, [&](const IngestArrival &ev) {
        if (ev.at < kHorizon)
            played.emplace_back(eq.now(), ev);
    });
    while (eq.nextTime() <= origin + kHorizon)
        eq.step();

    ASSERT_EQ(played.size(), preview.size());
    for (std::size_t i = 0; i < preview.size(); ++i) {
        const auto &[at, ev] = played[i];
        EXPECT_EQ(ev.kind, preview[i].kind) << i;
        EXPECT_EQ(ev.samples, preview[i].samples) << i;
        EXPECT_EQ(ev.priority, preview[i].priority) << i;
        EXPECT_EQ(ev.at, preview[i].at) << i;
        EXPECT_EQ(at, origin + preview[i].at) << i;
    }
}

TEST(IngestSchedulerUnit, DiurnalModulatesBatchVolume)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.diurnal = {1000.0, 64.0, 1};
    cfg.diurnalAmplitude = 1.0;
    cfg.diurnalPeriod = 20.0;
    EXPECT_TRUE(cfg.anyArrivals());

    const auto events = IngestScheduler::schedule(cfg, 40.0);
    ASSERT_GT(events.size(), 20u);
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    for (const IngestArrival &ev : events) {
        // rate(t) = mean * (1 + A sin(2 pi t / T)), clamped at zero.
        const double scale = std::max(
            0.0, 1.0 + std::sin(kTwoPi * ev.at / cfg.diurnalPeriod));
        EXPECT_NEAR(ev.samples, 64.0 * scale, 1e-9);
        EXPECT_EQ(static_cast<int>(ev.kind),
                  static_cast<int>(IngestTrafficKind::Diurnal));
    }
}

TEST(IngestSchedulerUnit, ExplicitScheduleMergedInTimeOrder)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.schedule = {
        {IngestTrafficKind::Burst, 100.0, 0, 1.0},
        {IngestTrafficKind::Burst, 200.0, 0, 2.0},
        {IngestTrafficKind::Burst, 300.0, 0, 99.0}, // past horizon
    };
    EXPECT_TRUE(cfg.anyArrivals());

    const auto events = IngestScheduler::schedule(cfg, 10.0);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].samples, 100.0);
    EXPECT_DOUBLE_EQ(events[1].samples, 200.0);

    IngestConfig off;
    EXPECT_FALSE(off.anyArrivals());
}

TEST(IngestSchedulerUnit, WriteFailureDrawsAreAReplayableStream)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.writeFailureProb = 0.5;
    IngestScheduler a(cfg), b(cfg);
    std::size_t failures = 0;
    for (int i = 0; i < 256; ++i) {
        const bool fa = a.writeAttemptFails();
        EXPECT_EQ(fa, b.writeAttemptFails());
        failures += fa;
    }
    EXPECT_GT(failures, 64u);
    EXPECT_LT(failures, 192u);

    // Probability zero never consults (or fails) the stream.
    cfg.writeFailureProb = 0.0;
    IngestScheduler never(cfg);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(never.writeAttemptFails());
}

// --- the tier on its own (no server, no session) ---------------------

/**
 * An IngestTier on a bare queue and network: every shard write is one
 * flow on a single "disk" resource of @p diskRate samples/s.
 */
struct TierRig
{
    EventQueue eq;
    FluidNetwork net{eq};
    std::size_t releases = 0;
    std::unique_ptr<IngestTier> tier;

    TierRig(const IngestConfig &cfg, double diskRate)
    {
        StageTemplate write;
        write.name = "ingest_write";
        write.category = "ingest_write";
        write.categoryId = net.internCategory(write.category);
        write.demandsPerSample = {{net.addResource("disk", diskRate), 1.0}};
        tier = std::make_unique<IngestTier>(
            eq, net, cfg, std::vector<StageTemplate>{write}, nullptr,
            [this] { ++releases; });
    }

    bool echoing() const { return tier->freshSamples(64.0) < 64.0; }

    /** Buffered plus writing samples, from the ledger. */
    double level() const
    {
        const IngestStats &s = tier->stats();
        return s.samplesArrived - s.samplesAdmitted - s.samplesShed;
    }
};

/** One arrival of @p samples at @p at (priority 0). */
IngestArrival
arrival(double samples, Time at)
{
    return {IngestTrafficKind::Burst, samples, 0, at};
}

TEST(IngestTierUnit, PolicyIEngagesAtItsThresholdInclusive)
{
    // Policy i of n engages at high + i * (capacity - high) / n. The
    // disk is so slow that no write lands, so the level is the sum of
    // the arrivals. Throttle and shed are made inert (admit all, shed
    // nothing) so that only echo and stall change what is observed.
    struct Case
    {
        std::vector<IngestPolicy> chain;
        double high;
        double echoAt;
        double stallAt;
    };
    const Case cases[] = {
        // n = 2: thresholds 6144, 7168.
        {{IngestPolicy::Echo, IngestPolicy::Stall}, 6144.0, 6144.0,
         7168.0},
        // n = 4: thresholds 4096, 5120, 6144, 7168.
        {{IngestPolicy::Throttle, IngestPolicy::Shed, IngestPolicy::Echo,
          IngestPolicy::Stall},
         4096.0, 6144.0, 7168.0},
        // n = 2, reversed: stall at 6144, echo at 7168.
        {{IngestPolicy::Stall, IngestPolicy::Echo}, 6144.0, 7168.0,
         6144.0},
    };
    for (const Case &c : cases) {
        IngestConfig cfg;
        cfg.enabled = true;
        cfg.policyChain = c.chain;
        cfg.bufferCapacity = 8192.0;
        cfg.highWatermark = c.high;
        cfg.lowWatermark = 1024.0;
        cfg.throttleFactor = 1.0;
        cfg.shedPriorityCutoff = -1;
        const double first = std::min(c.echoAt, c.stallAt);
        const double second = std::max(c.echoAt, c.stallAt);
        // Climb to one below each threshold, then exactly onto it.
        const double levels[] = {first - 1.0, first, second - 1.0, second};
        double prev = 0.0;
        for (int i = 0; i < 4; ++i) {
            cfg.schedule.push_back(arrival(levels[i] - prev, 0.1 * (i + 1)));
            prev = levels[i];
        }
        TierRig rig(cfg, 1e-3);
        for (int i = 0; i < 4; ++i) {
            rig.eq.run(0.1 * (i + 1) + 0.05);
            SCOPED_TRACE(levels[i]);
            ASSERT_DOUBLE_EQ(rig.level(), levels[i]);
            EXPECT_EQ(rig.echoing(), levels[i] >= c.echoAt);
            EXPECT_EQ(rig.tier->stalled(), levels[i] >= c.stallAt);
        }
        EXPECT_EQ(rig.tier->stats().overloadTrips, 1u);
        EXPECT_EQ(rig.tier->stats().stalls, 1u);
        EXPECT_DOUBLE_EQ(rig.tier->stats().samplesThrottled, 0.0);
        EXPECT_EQ(rig.releases, 0u);
    }
}

TEST(IngestTierUnit, EngagedPoliciesClearTogetherAtLowWatermark)
{
    // One 8192-sample arrival engages echo and stall at once; 256-sample
    // writes at 256 samples/s then drain one chunk per second. Both
    // stay engaged down to the low watermark and clear together on the
    // write that lands the level exactly on it, releasing the stall
    // once.
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.policyChain = {IngestPolicy::Echo, IngestPolicy::Stall};
    cfg.bufferCapacity = 8192.0;
    cfg.highWatermark = 6144.0;
    cfg.lowWatermark = 2048.0;
    cfg.writeChunkSamples = 256.0;
    cfg.schedule = {arrival(8192.0, 0.0)};
    TierRig rig(cfg, 256.0);

    Time clearedAt = -1.0;
    while (rig.eq.step()) {
        EXPECT_EQ(rig.echoing(), rig.tier->stalled()) << rig.eq.now();
        if (clearedAt < 0.0 && !rig.tier->stalled()) {
            clearedAt = rig.eq.now();
            EXPECT_DOUBLE_EQ(rig.level(), 2048.0);
            EXPECT_EQ(rig.releases, 1u);
        }
        if (rig.tier->stalled()) {
            EXPECT_GT(rig.level(), 2048.0);
        }
    }
    EXPECT_NEAR(clearedAt, 24.0, 1e-9);
    EXPECT_EQ(rig.releases, 1u);
    EXPECT_DOUBLE_EQ(rig.level(), 0.0);
    const IngestStats &s = rig.tier->stats();
    EXPECT_EQ(s.overloadTrips, 1u);
    EXPECT_EQ(s.stalls, 1u);
    EXPECT_NEAR(s.stallTime, 24.0, 1e-9);
    EXPECT_NEAR(s.overloadTime, 24.0, 1e-9);
    EXPECT_EQ(s.writeFlows, 32u);
}

TEST(IngestTierUnit, FailedWriteBacksOffThenIsAbandoned)
{
    // Every attempt fails. A 256-sample chunk takes 1 s on the disk;
    // retry k starts writeRetryBackoff * 2^k after the failure, and
    // once maxWriteRetries are spent the chunk is abandoned.
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.writeFailureProb = 1.0;
    cfg.maxWriteRetries = 3;
    cfg.writeRetryBackoff = 0.01;
    cfg.schedule = {arrival(256.0, 0.0)};
    TierRig rig(cfg, 256.0);

    std::vector<Time> starts;
    std::size_t live = 0;
    while (rig.eq.step()) {
        if (rig.net.numActive() > live)
            starts.push_back(rig.eq.now());
        live = rig.net.numActive();
    }
    ASSERT_EQ(starts.size(), 4u);
    const Time want[] = {0.0, 1.01, 2.03, 3.07};
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(starts[k], want[k], 1e-9) << "attempt " << k;

    const IngestStats &s = rig.tier->stats();
    EXPECT_EQ(s.writeFlows, 4u);
    EXPECT_EQ(s.writeRetries, 3u);
    EXPECT_EQ(s.writeFailures, 1u);
    EXPECT_DOUBLE_EQ(s.samplesAbandonedWrites, 256.0);
    EXPECT_DOUBLE_EQ(s.samplesAdmitted, 0.0);

    FluidNetwork::FlowBatch batch(rig.net);
    rig.tier->stop();
    EXPECT_DOUBLE_EQ(rig.tier->stats().samplesShed, 256.0);
}

TEST(IngestTierUnit, StopWithWriteInFlightKeepsTheLedger)
{
    // Stop lands mid-write: the flow is cancelled, the unwritten
    // samples count in flight, and an arrival already scheduled for
    // later is ignored.
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.writeChunkSamples = 256.0;
    cfg.schedule = {arrival(1000.0, 0.0), arrival(500.0, 0.5),
                    arrival(300.0, 2.0)};
    TierRig rig(cfg, 200.0);
    rig.eq.run(1.5); // the first chunk landed at 1.28 s
    ASSERT_EQ(rig.net.numActive(), 1u);
    {
        FluidNetwork::FlowBatch batch(rig.net);
        rig.tier->stop();
    }
    EXPECT_EQ(rig.net.numActive(), 0u);
    rig.eq.run();
    EXPECT_EQ(rig.net.numActive(), 0u);

    const IngestStats &s = rig.tier->stats();
    EXPECT_DOUBLE_EQ(s.samplesArrived, 1500.0);
    EXPECT_DOUBLE_EQ(s.samplesAdmitted, 256.0);
    EXPECT_DOUBLE_EQ(s.samplesShed, 0.0);
    EXPECT_DOUBLE_EQ(s.samplesInFlightAtEnd, 1244.0);
    EXPECT_EQ(s.samplesArrived,
              s.samplesAdmitted + s.samplesShed + s.samplesInFlightAtEnd);
    expectLedgerHolds(s);
}

// --- zero-capacity and tiny buffers ----------------------------------

TEST(IngestSession, ZeroCapacityBufferIsRejectedByValidation)
{
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.bufferCapacity = 0.0;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("ingest.bufferCapacity"), std::string::npos);
    EXPECT_NE(err.find("> 0 samples"), std::string::npos);
}

TEST(IngestSession, TinyBufferShedsAlmostEverythingButCompletes)
{
    // A 64-sample buffer against a 5000 samples/s feed: nearly every
    // arrival overflows or is rejected, yet the run must finish every
    // step and balance the ledger exactly.
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {5000.0, 64.0, 2};
    cfg.ingest.bufferCapacity = 64.0;
    cfg.ingest.lowWatermark = 16.0;
    cfg.ingest.highWatermark = 32.0;
    cfg.ingest.writeChunkSamples = 64.0;
    cfg.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed};

    const SessionResult res = runSession(cfg);
    EXPECT_EQ(res.stepsMeasured, 4u);
    EXPECT_TRUE(std::isfinite(res.throughput));
    EXPECT_GT(res.throughput, 0.0);

    const auto &s = res.ingest;
    expectLedgerHolds(s);
    EXPECT_GT(s.arrivalEvents, 0u);
    EXPECT_GT(s.overloadTrips, 0u);
    EXPECT_GT(s.samplesOverflowDropped, 0.0);
    EXPECT_GT(s.samplesThrottled, 0.0);
    EXPECT_GT(s.samplesAdmitted, 0.0);
    // The buffer can never hold more than its capacity.
    EXPECT_LE(s.peakBufferLevel, 64.0 + 1e-9);
    EXPECT_LT(s.samplesAdmitted, s.samplesArrived);
}

// --- watermark semantics ---------------------------------------------

TEST(IngestSession, BurstExactlyAtHighWatermarkTripsOverload)
{
    // One arrival of exactly highWatermark samples: the >= comparison
    // must trip the first policy (a burst *at* the watermark is an
    // overload, not almost-one), and the buffer must drain back to the
    // low watermark and disengage.
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.policyChain = {IngestPolicy::Throttle};
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 6144.0, 0, 0.5}};

    const SessionResult res = runSession(cfg);
    EXPECT_EQ(res.stepsMeasured, 4u);
    const auto &s = res.ingest;
    expectLedgerHolds(s);
    EXPECT_EQ(s.arrivalEvents, 1u);
    EXPECT_EQ(s.overloadTrips, 1u);
    EXPECT_GT(s.overloadTime, 0.0);
    EXPECT_GE(s.peakBufferLevel, 6144.0);
    // The whole burst lands on shards eventually: nothing shed.
    EXPECT_DOUBLE_EQ(s.samplesShed, 0.0);
    EXPECT_NEAR(s.samplesAdmitted + s.samplesInFlightAtEnd, 6144.0,
                1e-9);

    // One sample below the watermark must NOT trip.
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 6143.0, 0, 0.5}};
    const SessionResult below = runSession(cfg);
    EXPECT_EQ(below.ingest.overloadTrips, 0u);
    EXPECT_DOUBLE_EQ(below.ingest.overloadTime, 0.0);
}

// --- policy semantics ------------------------------------------------

TEST(IngestSession, ShedEverythingPolicyDropsWhileEngaged)
{
    // Shed with a cutoff above every priority: once the watermark
    // trips, every arrival is refused until the buffer drains.
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.policyChain = {IngestPolicy::Shed};
    cfg.ingest.shedPriorityCutoff = 10;
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 6144.0, 0, 0.5}};
    // Follow-on arrivals land while the burst is still draining
    // (draining back to the low watermark takes tens of ms here).
    for (int i = 1; i <= 10; ++i)
        cfg.ingest.schedule.push_back(
            {IngestTrafficKind::Steady, 64.0, 2, 0.5 + 5e-4 * i});

    const SessionResult res = runSession(cfg);
    const auto &s = res.ingest;
    expectLedgerHolds(s);
    EXPECT_GE(s.overloadTrips, 1u);
    EXPECT_DOUBLE_EQ(s.samplesShedPolicy, 640.0);
    EXPECT_DOUBLE_EQ(s.samplesThrottled, 0.0);
    EXPECT_NEAR(s.samplesAdmitted + s.samplesInFlightAtEnd, 6144.0,
                1e-9);
}

TEST(IngestSession, WriteRetriesBackOffThenAbandon)
{
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {4000.0, 256.0, 2};
    cfg.ingest.writeFailureProb = 0.6;
    cfg.ingest.maxWriteRetries = 1;

    const SessionResult res = runSession(cfg);
    const auto &s = res.ingest;
    expectLedgerHolds(s);
    EXPECT_GT(s.writeFlows, 0u);
    EXPECT_GT(s.writeRetries, 0u);
    EXPECT_GT(s.writeFailures, 0u);
    EXPECT_GT(s.samplesAbandonedWrites, 0.0);
    // Abandoned chunks count as shed, never as admitted.
    EXPECT_LE(s.samplesAbandonedWrites, s.samplesShed + 1e-9);
}

// --- echo-mode determinism -------------------------------------------

TEST(IngestSession, EchoOverloadRunsAreBitDeterministic)
{
    // Sustained ~2x overload with Echo in the chain: training reuses
    // prepped batches, echoed samples accumulate, and two runs of the
    // identical config must agree bit-for-bit on every ledger entry.
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {120000.0, 512.0, 2};
    cfg.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed,
                              IngestPolicy::Echo};
    cfg.ingest.stalenessSlo = 0.05;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);

    EXPECT_EQ(a.stepsMeasured, 4u);
    expectLedgerHolds(a.ingest);
    EXPECT_GT(a.ingest.overloadTrips, 0u);
    EXPECT_GT(a.ingest.samplesEchoed, 0.0);

    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.wallTime, b.wallTime);
    EXPECT_EQ(a.ingest.arrivalEvents, b.ingest.arrivalEvents);
    EXPECT_EQ(a.ingest.overloadTrips, b.ingest.overloadTrips);
    EXPECT_EQ(a.ingest.writeFlows, b.ingest.writeFlows);
    EXPECT_DOUBLE_EQ(a.ingest.samplesArrived, b.ingest.samplesArrived);
    EXPECT_DOUBLE_EQ(a.ingest.samplesAdmitted, b.ingest.samplesAdmitted);
    EXPECT_DOUBLE_EQ(a.ingest.samplesShed, b.ingest.samplesShed);
    EXPECT_DOUBLE_EQ(a.ingest.samplesEchoed, b.ingest.samplesEchoed);
    EXPECT_DOUBLE_EQ(a.ingest.stalenessSum, b.ingest.stalenessSum);
    EXPECT_DOUBLE_EQ(a.ingest.stalenessMax, b.ingest.stalenessMax);
    EXPECT_DOUBLE_EQ(a.ingest.peakBufferLevel,
                     b.ingest.peakBufferLevel);
}

// --- overload policy ordering ----------------------------------------

/**
 * Shard-write drain capacity (samples/s) of @p cfg's server: offer far
 * more than the writer can take (throttle keeps training alive) and
 * measure what actually lands.
 */
double
probeDrainRate(ServerConfig cfg)
{
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {5.0e5, 256.0, 2};
    cfg.ingest.bufferCapacity = 8192.0;
    cfg.ingest.lowWatermark = 1024.0;
    cfg.ingest.highWatermark = 4096.0;
    cfg.ingest.writeChunkSamples = 512.0;
    cfg.ingest.policyChain = {IngestPolicy::Throttle};
    cfg.ingest.throttleFactor = 0.5;
    const SessionResult res = runSession(cfg, 3, 6);
    return res.ingest.samplesAdmitted / std::max(res.wallTime, 1e-9);
}

/**
 * A 4x overload burst at @p burst_at riding on steady traffic at 0.3x
 * @p drain_rate. The burst comes from the explicit schedule so it is
 * finite: a sustained 4x overload under a stall-only policy would
 * rightly never let training resume.
 */
IngestConfig
burstIngest(double drain_rate, double burst_at)
{
    IngestConfig ic;
    ic.enabled = true;
    ic.steady = {0.3 * drain_rate, 256.0, 2};
    ic.writeChunkSamples = 512.0;
    // Draining a buffer this big back to the low watermark outlasts a
    // training step; a shorter hard stall hides inside the compute in
    // progress and the comparison degenerates.
    ic.bufferCapacity = 65536.0;
    ic.highWatermark = 8192.0;
    ic.lowWatermark = 4096.0;
    const int arrivals = 64;
    for (int i = 0; i < arrivals; ++i)
        ic.schedule.push_back({IngestTrafficKind::Burst,
                               4.0 * ic.bufferCapacity / arrivals, 0,
                               burst_at + 2.0e-4 * i});
    return ic;
}

// The overload policies' reason to exist: under a finite 4x burst in
// the middle of the measured steps, each escalation prefix of
// throttle -> shed -> echo keeps more goodput than hard-stalling
// training.
TEST(IngestSession, AdaptivePrefixesBeatHardStall)
{
    ServerConfig cfg = baseConfig();
    cfg.prepPoolFpgas = 8;
    const SessionResult healthy = runSession(cfg, 3, 6);
    const double drain = probeDrainRate(cfg);
    ASSERT_GT(drain, 0.0);
    // End-anchored: the warmup steps fill the pipeline and take far
    // longer than the steady-state step.
    const double burst_at = healthy.wallTime - 4.0 * healthy.stepTime;

    const std::vector<std::vector<IngestPolicy>> chains = {
        {IngestPolicy::Stall},
        {IngestPolicy::Throttle},
        {IngestPolicy::Throttle, IngestPolicy::Shed},
        {IngestPolicy::Throttle, IngestPolicy::Shed, IngestPolicy::Echo},
    };
    std::vector<double> goodput;
    for (std::size_t i = 0; i < chains.size(); ++i) {
        SCOPED_TRACE("chain " + std::to_string(i));
        ServerConfig burst = cfg;
        burst.ingest = burstIngest(drain, burst_at);
        burst.ingest.policyChain = chains[i];
        const SessionResult res = runSession(burst, 3, 6);
        expectLedgerHolds(res.ingest);
        EXPECT_GT(res.ingest.overloadTrips, 0u);
        goodput.push_back(SessionReport::computeGoodput(
            res.throughput, healthy.throughput));
        if (i > 0) {
            EXPECT_GT(goodput[i], goodput[0]);
        }
    }
}

// --- pinned results --------------------------------------------------

/** FNV-1a over the bytes of @p text, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Every field of @p r, one per line; doubles print with %a so a
 * one-ulp move changes the text.
 */
std::string
dumpResult(const SessionResult &r)
{
    std::string out;
    auto num = [&out](const std::string &key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " %a\n", v);
        out += key + buf;
    };
    auto count = [&out](const std::string &key, std::size_t v) {
        out += key + " " + std::to_string(v) + "\n";
    };
    auto table = [&num](const std::string &key,
                        const std::map<std::string, double> &m) {
        for (const auto &[name, v] : m)
            num(key + "." + name, v);
    };
    num("throughput", r.throughput);
    num("stepTime", r.stepTime);
    num("computeTime", r.computeTime);
    num("syncTime", r.syncTime);
    table("prepStageTime", r.prepStageTime);
    num("prepLatency", r.prepLatency);
    count("stepsMeasured", r.stepsMeasured);
    table("cpu", r.cpuCoresByCategory);
    table("mem", r.memBwByCategory);
    table("rc", r.rcBwByCategory);

    const auto &f = r.faults;
    count("faults.injected", f.faultsInjected);
    count("faults.readFailures", f.readFailures);
    count("faults.ssdRetries", f.ssdRetries);
    count("faults.chunksAbandoned", f.chunksAbandoned);
    count("faults.prepFailovers", f.prepFailovers);
    count("faults.computeRedispatches", f.computeRedispatches);
    count("faults.stragglerSteps", f.stragglerSteps);
    num("faults.degradedTime", f.degradedTime);

    const auto &in = r.integrity;
    count("integrity.injected", in.injected);
    count("integrity.detected", in.detected);
    count("integrity.escaped", in.escaped);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        count("integrity.byKind." + std::to_string(k),
              in.injectedByKind[k]);
    count("integrity.pcieReplays", in.pcieReplays);
    count("integrity.recoveries", in.recoveries);
    count("integrity.chunksQuarantined", in.chunksQuarantined);

    const auto &c = r.checkpoint;
    count("ckpt.committed", c.committed);
    count("ckpt.skipped", c.skipped);
    count("ckpt.fatalCrashes", c.fatalCrashes);
    count("ckpt.stepsLost", c.stepsLost);
    num("ckpt.bytesWritten", c.bytesWritten);
    num("ckpt.pauseTime", c.pauseTime);
    num("ckpt.lostWorkTime", c.lostWorkTime);
    num("ckpt.restartTime", c.restartTime);
    num("ckpt.avgCost", c.avgCost);

    const auto &e = r.elasticity;
    count("elastic.events", e.events);
    count("elastic.drains", e.drains);
    count("elastic.preemptions", e.preemptions);
    count("elastic.joins", e.joins);
    count("elastic.chainsRebalanced", e.chainsRebalanced);
    num("elastic.samplesLostToPreemption", e.samplesLostToPreemption);
    num("elastic.samplesSavedByDrain", e.samplesSavedByDrain);
    num("elastic.samplesDroppedAtDrain", e.samplesDroppedAtDrain);
    num("elastic.degradedCapacityTime", e.degradedCapacityTime);
    num("elastic.zeroCapacityTime", e.zeroCapacityTime);
    num("elastic.rebalanceTime", e.rebalanceTime);
    num("elastic.avgActiveFraction", e.avgActiveFraction);
    num("elastic.sloTarget", e.sloTargetSamplesPerSec);
    num("elastic.samplesPrepared", e.samplesPrepared);
    num("elastic.samplesConsumed", e.samplesConsumed);
    num("elastic.samplesCachedAtEnd", e.samplesCachedAtEnd);
    num("elastic.samplesDiscarded", e.samplesDiscarded);

    const auto &s = r.ingest;
    count("ingest.arrivalEvents", s.arrivalEvents);
    count("ingest.overloadTrips", s.overloadTrips);
    count("ingest.stalls", s.stalls);
    count("ingest.writeFlows", s.writeFlows);
    count("ingest.writeRetries", s.writeRetries);
    count("ingest.writeFailures", s.writeFailures);
    num("ingest.samplesArrived", s.samplesArrived);
    num("ingest.samplesAdmitted", s.samplesAdmitted);
    num("ingest.samplesShed", s.samplesShed);
    num("ingest.samplesThrottled", s.samplesThrottled);
    num("ingest.samplesShedPolicy", s.samplesShedPolicy);
    num("ingest.samplesOverflowDropped", s.samplesOverflowDropped);
    num("ingest.samplesAbandonedWrites", s.samplesAbandonedWrites);
    num("ingest.samplesInFlightAtEnd", s.samplesInFlightAtEnd);
    num("ingest.samplesEchoed", s.samplesEchoed);
    num("ingest.overloadTime", s.overloadTime);
    num("ingest.stallTime", s.stallTime);
    num("ingest.peakBufferLevel", s.peakBufferLevel);
    num("ingest.stalenessSum", s.stalenessSum);
    num("ingest.stalenessMax", s.stalenessMax);
    num("ingest.samplesWithinSlo", s.samplesWithinSlo);
    num("ingest.stalenessSloSec", s.stalenessSloSec);
    num("ingest.echoEfficiency", s.echoEfficiency);

    num("wallTime", r.wallTime);
    return out;
}

std::string
hexDigest(const SessionResult &r)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64,
                  fnv1a(0xcbf29ce484222325ull, dumpResult(r)));
    return buf;
}

/** A sustained feed well past what the shard writes drain. */
void
overloadFeed(IngestConfig &ic)
{
    ic.steady = {120000.0, 512.0, 2};
    ic.burst = {40000.0, 1024.0, 0};
}

/**
 * One ingest scenario: each overload policy alone (stall under a
 * finite burst, so the run ends), the default chain, flaky shard
 * writes with and without retries, and each traffic source alone.
 */
struct IngestScenario
{
    const char *name;
    void (*setup)(IngestConfig &);
    bool overloads; ///< the scenario must trip the watermark
};

const IngestScenario kScenarios[] = {
    {"throttle",
     [](IngestConfig &ic) {
         overloadFeed(ic);
         ic.policyChain = {IngestPolicy::Throttle};
     },
     true},
    {"shed",
     [](IngestConfig &ic) {
         overloadFeed(ic);
         ic.policyChain = {IngestPolicy::Shed};
     },
     true},
    {"echo",
     [](IngestConfig &ic) {
         overloadFeed(ic);
         ic.policyChain = {IngestPolicy::Echo};
     },
     true},
    {"stall",
     [](IngestConfig &ic) {
         ic.policyChain = {IngestPolicy::Stall};
         ic.bufferCapacity = 65536.0;
         ic.highWatermark = 8192.0;
         ic.lowWatermark = 4096.0;
         for (int i = 0; i < 24; ++i)
             ic.schedule.push_back(
                 {IngestTrafficKind::Burst, 4096.0, 3, 0.05 + 2e-4 * i});
     },
     true},
    {"default_chain", [](IngestConfig &ic) { overloadFeed(ic); }, true},
    {"write_fail_no_retry",
     [](IngestConfig &ic) {
         ic.steady = {20000.0, 256.0, 2};
         ic.writeFailureProb = 0.3;
         ic.maxWriteRetries = 0;
         ic.stalenessSlo = 0.01;
     },
     false},
    {"write_fail_retry3",
     [](IngestConfig &ic) {
         ic.steady = {20000.0, 256.0, 2};
         ic.writeFailureProb = 0.3;
         ic.maxWriteRetries = 3;
         ic.stalenessSlo = 0.01;
     },
     false},
    {"steady", [](IngestConfig &ic) { ic.steady = {30000.0, 256.0, 2}; },
     false},
    {"diurnal",
     [](IngestConfig &ic) {
         ic.diurnal = {30000.0, 256.0, 1};
         ic.diurnalPeriod = 0.2;
     },
     false},
    {"burst", [](IngestConfig &ic) { ic.burst = {30000.0, 2048.0, 0}; },
     false},
    {"schedule",
     [](IngestConfig &ic) {
         for (int i = 0; i < 16; ++i)
             ic.schedule.push_back({IngestTrafficKind::Steady,
                                    128.0 * (1 + i % 3), i % 3,
                                    0.01 * i});
     },
     false},
};

/** @p preset at 32 accelerators with one ingest scenario applied. */
ServerConfig
scenarioConfig(ArchPreset preset, const IngestScenario &sc)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    cfg.ingest.enabled = true;
    sc.setup(cfg.ingest);
    return cfg;
}

// Every SessionResult field of every ingest scenario, as one digest
// each. The chaos configs mix ingest with faults, elasticity and
// checkpoints; the killed session stops with a shard write in flight.
// Moving the ingest code must leave every digest as it is.
TEST(IngestSession, EveryScenarioMatchesItsPin)
{
    const std::map<std::string, std::string> pins = {
        {"baseline/burst", "0xe4d81277df0bd296"},
        {"baseline/default_chain", "0x6fc6961e4def8614"},
        {"baseline/diurnal", "0x727893cf5c91af6a"},
        {"baseline/echo", "0xb10775ae75faee05"},
        {"baseline/schedule", "0x25f714b2db91b6ba"},
        {"baseline/shed", "0x3186dddc9a792d09"},
        {"baseline/stall", "0x962a4424b9d857a5"},
        {"baseline/steady", "0xc339ba75fadf37a0"},
        {"baseline/throttle", "0xa606301b1ac92d04"},
        {"baseline/write_fail_no_retry", "0x383f48395342b7bd"},
        {"baseline/write_fail_retry3", "0xef54a91380f5aae1"},
        {"chaos/overload_under_faults", "0x48e279980eac2e2c"},
        {"chaos/stall_during_drain", "0xa9d7bc0b867297d1"},
        {"killed/write_in_flight", "0xfa1384c0c24c00ec"},
        {"trainbox/burst", "0x3eb83b3366c6c0a9"},
        {"trainbox/default_chain", "0xc5dc50aababe8ba8"},
        {"trainbox/diurnal", "0x760b96f63c033cfc"},
        {"trainbox/echo", "0xa12e6c695dfb7d49"},
        {"trainbox/schedule", "0xb58d97daff970790"},
        {"trainbox/shed", "0x0b02b90323b50e3d"},
        {"trainbox/stall", "0x71dccc437379d3b2"},
        {"trainbox/steady", "0xf8dda475c23990a5"},
        {"trainbox/throttle", "0x164bdca8cda3dc56"},
        {"trainbox/write_fail_no_retry", "0xd77d08f9c0f37aea"},
        {"trainbox/write_fail_retry3", "0x1879c32046fdf038"},
    };
    std::map<std::string, std::string> got;

    for (ArchPreset preset : {ArchPreset::Baseline, ArchPreset::TrainBox})
        for (const IngestScenario &sc : kScenarios) {
            const std::string key =
                std::string(presetKey(preset)) + "/" + sc.name;
            SCOPED_TRACE(key);
            const SessionResult res =
                runSession(scenarioConfig(preset, sc), 2, 4);
            expectLedgerHolds(res.ingest);
            EXPECT_GT(res.ingest.arrivalEvents, 0u);
            if (sc.overloads) {
                EXPECT_GT(res.ingest.overloadTrips, 0u);
            }
            got[key] = hexDigest(res);
        }

    // The two chaos mixes of tests/test_chaos.cc.
    {
        ServerConfig cfg = baseConfig();
        cfg.ingest.enabled = true;
        cfg.ingest.policyChain = {IngestPolicy::Throttle,
                                  IngestPolicy::Shed, IngestPolicy::Echo,
                                  IngestPolicy::Stall};
        cfg.ingest.bufferCapacity = 65536.0;
        cfg.ingest.highWatermark = 8192.0;
        cfg.ingest.lowWatermark = 4096.0;
        cfg.ingest.throttleFactor = 0.9;
        for (int i = 0; i < 24; ++i)
            cfg.ingest.schedule.push_back(
                {IngestTrafficKind::Burst, 4096.0, 3, 1.0 + 2e-4 * i});
        cfg.elasticity.enabled = true;
        cfg.elasticity.graceWindow = 0.3;
        cfg.elasticity.schedule = {
            {ElasticTargetKind::Group, ElasticAction::Drain, 0, 1.0},
            {ElasticTargetKind::Group, ElasticAction::Join, 0, 4.0},
        };
        got["chaos/stall_during_drain"] = hexDigest(runSession(cfg, 3, 6));
    }
    {
        ServerConfig cfg = baseConfig();
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
        got["chaos/overload_under_faults"] =
            hexDigest(runSession(cfg, 3, 6));
    }

    // Killed mid-run. With no write failures the writer is busy
    // whenever the buffer holds samples, so a nonzero in-flight count
    // means the kill landed on a shard write in flight.
    {
        ServerConfig cfg = baseConfig();
        cfg.ingest.enabled = true;
        cfg.ingest.steady = {20000.0, 256.0, 2};
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        session.start(2, 4);
        EventQueue &eq = server->core().events();
        while (session.stepsSynced() < 3 && eq.step()) {
        }
        ASSERT_FALSE(session.done());
        session.kill();
        const SessionResult res = session.collect();
        expectLedgerHolds(res.ingest);
        EXPECT_GT(res.ingest.samplesInFlightAtEnd, 0.0);
        got["killed/write_in_flight"] = hexDigest(res);
    }

    for (const auto &[key, digest] : got) {
        auto it = pins.find(key);
        EXPECT_TRUE(it != pins.end() && it->second == digest)
            << key << ": digest " << digest;
    }
    EXPECT_EQ(got.size(), pins.size());
}

// --- report ratios ---------------------------------------------------

TEST(IngestReport, DisabledRunRatiosAreDegenerateNotNan)
{
    // With ingest off nothing arrives: every ratio accessor must fall
    // back to its documented degenerate value instead of dividing by
    // zero (the div-by-zero audit regression).
    ServerConfig cfg = baseConfig();
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionReport report = session.runReport(2, 4);

    EXPECT_EQ(report.ingest().arrivalEvents, 0u);
    EXPECT_DOUBLE_EQ(report.ingest().samplesArrived, 0.0);
    EXPECT_DOUBLE_EQ(report.ingestAdmitRate(), 1.0);
    EXPECT_DOUBLE_EQ(report.ingestShedRate(), 0.0);
    EXPECT_DOUBLE_EQ(report.avgIngestStaleness(), 0.0);
    EXPECT_DOUBLE_EQ(report.freshnessSloAttainment(), 1.0);
    EXPECT_DOUBLE_EQ(report.echoEffectiveFactor(), 1.0);

    // The sibling ratio accessors stay clamped on the same run.
    EXPECT_GE(report.efficiency(), 0.0);
    EXPECT_LE(report.efficiency(), 1.0);
    EXPECT_GE(report.capacityAvailability(), 0.0);
    EXPECT_LE(report.capacityAvailability(), 1.0);
    EXPECT_DOUBLE_EQ(report.goodput(0.0), 0.0); // degenerate reference
    EXPECT_LE(report.goodput(report.throughput() / 2.0), 1.0);
}

TEST(IngestReport, OverloadRunRatiosStayInUnitInterval)
{
    ServerConfig cfg = baseConfig();
    cfg.ingest.enabled = true;
    cfg.ingest.steady = {120000.0, 512.0, 2};
    cfg.ingest.stalenessSlo = 1e-6; // almost nothing can meet this
    cfg.ingest.writeFailureProb = 0.3;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionReport report = session.runReport(2, 4);

    EXPECT_GT(report.ingest().samplesArrived, 0.0);
    const double ratios[] = {
        report.ingestAdmitRate(),
        report.ingestShedRate(),
        report.freshnessSloAttainment(),
        report.echoEffectiveFactor(),
    };
    for (double r : ratios) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
    EXPECT_GE(report.avgIngestStaleness(), 0.0);
    EXPECT_LE(report.avgIngestStaleness(),
              report.ingest().stalenessMax + 1e-12);
    // Admit + shed covers everything but the tail still in flight.
    EXPECT_GE(report.ingestAdmitRate() + report.ingestShedRate() + 1e-9,
              1.0 - report.ingest().samplesInFlightAtEnd /
                        std::max(1.0, report.ingest().samplesArrived));
}

} // namespace
} // namespace tb
