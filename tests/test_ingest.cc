/**
 * @file
 * Streaming ingest under overload: the IngestScheduler arrival streams
 * (determinism, diurnal modulation, explicit-schedule merging) and the
 * TrainingSession admission machinery (watermark trips, policy
 * shedding, overflow drops, write retries, the conservation ledger,
 * and bit-determinism of full overload runs). The degenerate report
 * ratios (nothing arrived, zero-length windows) are pinned here too.
 *
 * Companion suites: tests/test_server_config.cc checks the validation
 * messages, tests/test_chaos.cc mixes ingest with faults and
 * elasticity, bench/ingest_sweep.cc --smoke asserts the policy-chain
 * goodput ordering.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/ingest.hh"
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
