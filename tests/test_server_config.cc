/**
 * @file
 * ServerConfig::validate() rejects nonsensical configurations with a
 * message naming the offending field; buildServer() refuses to build
 * them (fatal). A default config of every preset must validate clean,
 * and every preset's command-line key parses back to that preset.
 */

#include <gtest/gtest.h>

#include <set>

#include "trainbox/server_builder.hh"
#include "trainbox/server_config.hh"

namespace tb {
namespace {

ServerConfig
valid()
{
    ServerConfig cfg;
    cfg.numAccelerators = 8;
    return cfg;
}

TEST(ServerConfigValidate, DefaultsAreValid)
{
    for (ArchPreset p : allPresets()) {
        ServerConfig cfg = valid();
        cfg.preset = p;
        EXPECT_EQ(cfg.validate(), "") << presetName(p);
    }
}

TEST(ServerConfigValidate, EnabledSubsystemsStillValid)
{
    ServerConfig cfg = valid();
    cfg.faults.enabled = true;
    cfg.checkpoint.enabled = true;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigValidate, RejectsZeroAccelerators)
{
    ServerConfig cfg = valid();
    cfg.numAccelerators = 0;
    EXPECT_NE(cfg.validate().find("at least one"), std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadPrepShape)
{
    ServerConfig cfg = valid();
    cfg.prefetchDepth = 1;
    EXPECT_NE(cfg.validate().find("prefetchDepth"), std::string::npos);

    cfg = valid();
    cfg.prepChunks = 0;
    EXPECT_NE(cfg.validate().find("prepChunks"), std::string::npos);

    cfg = valid();
    cfg.maxPrepParallelism = 0.0;
    EXPECT_NE(cfg.validate().find("maxPrepParallelism"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsEmptyBoxes)
{
    const auto check = [](void (*mutate)(ServerConfig &),
                          const char *field) {
        ServerConfig cfg;
        cfg.numAccelerators = 8;
        mutate(cfg);
        EXPECT_NE(cfg.validate().find(field), std::string::npos)
            << field;
    };
    check([](ServerConfig &c) { c.box.accPerBox = 0; }, "accPerBox");
    check([](ServerConfig &c) { c.box.prepPerBox = 0; }, "prepPerBox");
    check([](ServerConfig &c) { c.box.ssdsPerBox = 0; }, "ssdsPerBox");
    check([](ServerConfig &c) { c.box.ssdsPerSsdBox = 0; },
          "ssdsPerSsdBox");
}

TEST(ServerConfigValidate, RejectsNonPositiveHostResources)
{
    ServerConfig cfg = valid();
    cfg.host.cpuCores = 0.0;
    EXPECT_NE(cfg.validate().find("cpuCores"), std::string::npos);

    cfg = valid();
    cfg.host.memBandwidth = -1.0;
    EXPECT_NE(cfg.validate().find("memBandwidth"), std::string::npos);

    cfg = valid();
    cfg.host.rcBandwidth = 0.0;
    EXPECT_NE(cfg.validate().find("rcBandwidth"), std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadFaultProbabilities)
{
    ServerConfig cfg = valid();
    cfg.faults.ssdReadFailureProb = 1.0; // certain failure never ends
    EXPECT_NE(cfg.validate().find("ssdReadFailureProb"),
              std::string::npos);

    cfg = valid();
    cfg.faults.stragglerProb = 1.5;
    EXPECT_NE(cfg.validate().find("stragglerProb"), std::string::npos);

    cfg = valid();
    cfg.faults.stragglerFactor = 0.5; // a speedup is not a straggler
    EXPECT_NE(cfg.validate().find("stragglerFactor"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsFaultWindowEndingBeforeStart)
{
    ServerConfig cfg = valid();
    cfg.faults.ssdDegrade.ratePerSec = 0.1;
    cfg.faults.ssdDegrade.duration = 0.0;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("ssdDegrade"), std::string::npos);
    EXPECT_NE(err.find("ends at or before it starts"),
              std::string::npos);

    cfg = valid();
    cfg.faults.prepCrash.ratePerSec = -0.1;
    EXPECT_NE(cfg.validate().find("prepCrash"), std::string::npos);

    cfg = valid();
    cfg.faults.ethDegrade.magnitude = -1.0;
    EXPECT_NE(cfg.validate().find("ethDegrade"), std::string::npos);

    cfg = valid();
    cfg.faults.fatalCrash.ratePerSec = -1.0;
    EXPECT_NE(cfg.validate().find("fatalCrash"), std::string::npos);
    // fatalCrash is a point event: no duration requirement.
    cfg = valid();
    cfg.faults.fatalCrash.ratePerSec = 0.1;
    cfg.faults.fatalCrash.duration = 0.0;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigValidate, RejectsBadCheckpointScenario)
{
    ServerConfig cfg = valid();
    cfg.checkpoint.restartLatency = -1.0;
    EXPECT_NE(cfg.validate().find("restartLatency"), std::string::npos);

    // Checkpoint knobs are only checked once the subsystem is on...
    cfg = valid();
    cfg.checkpoint.interval = -5.0;
    EXPECT_EQ(cfg.validate(), "");
    cfg.checkpoint.enabled = true;
    EXPECT_NE(cfg.validate().find("interval"), std::string::npos);

    cfg = valid();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.optimizerSlots = -1.0;
    EXPECT_NE(cfg.validate().find("optimizerSlots"), std::string::npos);

    cfg = valid();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.snapshotBandwidth = 0.0;
    EXPECT_NE(cfg.validate().find("snapshotBandwidth"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadElasticityKnobs)
{
    ServerConfig cfg = valid();
    cfg.elasticity.graceWindow = -1.0;
    EXPECT_NE(cfg.validate().find("elasticity.graceWindow"),
              std::string::npos);

    cfg = valid();
    cfg.elasticity.rejoinLatency = -0.5;
    EXPECT_NE(cfg.validate().find("elasticity.rejoinLatency"),
              std::string::npos);

    cfg = valid();
    cfg.elasticity.sloTargetSamplesPerSec = -100.0;
    EXPECT_NE(cfg.validate().find("sloTargetSamplesPerSec"),
              std::string::npos);

    cfg = valid();
    cfg.elasticity.groupDrain.ratePerSec = -0.1;
    EXPECT_NE(cfg.validate().find("elasticity.groupDrain.ratePerSec"),
              std::string::npos);

    cfg = valid();
    cfg.elasticity.prepPreempt.ratePerSec = 0.1;
    cfg.elasticity.prepPreempt.absence = -2.0;
    EXPECT_NE(cfg.validate().find("elasticity.prepPreempt.absence"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsOverlargeDeferredJoin)
{
    ServerConfig cfg = valid();
    cfg.numAccelerators = 16; // two groups at accPerBox = 8
    cfg.elasticity.deferredJoinGroups = 2;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("deferredJoinGroups"), std::string::npos);
    EXPECT_NE(err.find("at least one"), std::string::npos);

    // One deferred group out of two is fine.
    cfg.elasticity.deferredJoinGroups = 1;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigValidate, RejectsBadExplicitSchedule)
{
    ServerConfig cfg = valid();
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, -1.0}};
    EXPECT_NE(cfg.validate().find("schedule[0].at"), std::string::npos);

    cfg = valid();
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 5.0},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 2.0}};
    EXPECT_NE(cfg.validate().find("ordered by time"), std::string::npos);

    cfg = valid();
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Prep, ElasticAction::Preempt, 3, 1.0}};
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("targets prep 3"), std::string::npos);
    EXPECT_NE(err.find("only 1 groups"), std::string::npos);

    // A well-formed schedule passes.
    cfg = valid();
    cfg.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 1.0},
        {ElasticTargetKind::Group, ElasticAction::Join, 0, 8.0}};
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigValidate, IngestKnobsOnlyCheckedWhenEnabled)
{
    // Like checkpoint: a nonsense ingest block is ignored until the
    // subsystem is switched on.
    ServerConfig cfg = valid();
    cfg.ingest.bufferCapacity = 0.0;
    EXPECT_EQ(cfg.validate(), "");
    cfg.ingest.enabled = true;
    EXPECT_NE(cfg.validate().find("ingest.bufferCapacity"),
              std::string::npos);

    // A fully armed ingest scenario passes clean.
    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.steady.ratePerSec = 1000.0;
    cfg.ingest.diurnal.ratePerSec = 500.0;
    cfg.ingest.burst.ratePerSec = 200.0;
    cfg.ingest.stalenessSlo = 0.1;
    cfg.ingest.writeFailureProb = 0.1;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigValidate, RejectsBadIngestTrafficClasses)
{
    const auto armed = [] {
        ServerConfig cfg = valid();
        cfg.ingest.enabled = true;
        return cfg;
    };

    ServerConfig cfg = armed();
    cfg.ingest.steady.ratePerSec = -1.0;
    EXPECT_NE(cfg.validate().find("ingest.steady.ratePerSec must be "
                                  ">= 0"),
              std::string::npos);

    // Batch size only matters once the class is live.
    cfg = armed();
    cfg.ingest.burst.samplesPerEvent = 0.0;
    EXPECT_EQ(cfg.validate(), "");
    cfg.ingest.burst.ratePerSec = 100.0;
    EXPECT_NE(cfg.validate().find("ingest.burst.samplesPerEvent must "
                                  "be > 0"),
              std::string::npos);

    cfg = armed();
    cfg.ingest.diurnalAmplitude = 1.5;
    EXPECT_NE(cfg.validate().find("ingest.diurnalAmplitude"),
              std::string::npos);

    // The period only matters once the diurnal class is live.
    cfg = armed();
    cfg.ingest.diurnalPeriod = 0.0;
    EXPECT_EQ(cfg.validate(), "");
    cfg.ingest.diurnal.ratePerSec = 100.0;
    EXPECT_NE(cfg.validate().find("ingest.diurnalPeriod"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadIngestWatermarks)
{
    ServerConfig cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.lowWatermark = -1.0;
    EXPECT_NE(cfg.validate().find("ingest.lowWatermark"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.lowWatermark = 6144.0;
    cfg.ingest.highWatermark = 2048.0;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("ordered low < high <= capacity"),
              std::string::npos);
    EXPECT_NE(err.find("low 6144"), std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.highWatermark = cfg.ingest.bufferCapacity + 1.0;
    EXPECT_NE(cfg.validate().find("ordered low < high <= capacity"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadIngestPolicyChain)
{
    ServerConfig cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.policyChain.clear();
    EXPECT_NE(cfg.validate().find("at least one overload policy"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.policyChain = {IngestPolicy::Throttle, IngestPolicy::Shed,
                              IngestPolicy::Throttle};
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("lists throttle twice"), std::string::npos);
    EXPECT_NE(err.find("positions 0 and 2"), std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.throttleFactor = 1.0; // admits everything: no throttle
    EXPECT_NE(cfg.validate().find("ingest.throttleFactor"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.echoFactor = 0.5; // would consume MORE fresh samples
    EXPECT_NE(cfg.validate().find("ingest.echoFactor"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.echoEfficiency = -0.1;
    EXPECT_NE(cfg.validate().find("ingest.echoEfficiency"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadIngestWriteAndSloKnobs)
{
    ServerConfig cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.stalenessSlo = -0.5;
    EXPECT_NE(cfg.validate().find("ingest.stalenessSlo"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.writeChunkSamples = 0.0;
    EXPECT_NE(cfg.validate().find("ingest.writeChunkSamples"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.writeFailureProb = 1.0; // certain failure never lands
    EXPECT_NE(cfg.validate().find("ingest.writeFailureProb"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.writeRetryBackoff = -1e-3;
    EXPECT_NE(cfg.validate().find("ingest.writeRetryBackoff"),
              std::string::npos);
}

TEST(ServerConfigValidate, RejectsBadIngestSchedule)
{
    ServerConfig cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 64.0, 0, -1.0}};
    EXPECT_NE(cfg.validate().find("ingest.schedule[0].at"),
              std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 64.0, 0, 5.0},
                           {IngestTrafficKind::Burst, 64.0, 0, 2.0}};
    EXPECT_NE(cfg.validate().find("ordered by time"), std::string::npos);

    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, -64.0, 0, 1.0}};
    EXPECT_NE(cfg.validate().find("ingest.schedule[0].samples"),
              std::string::npos);

    // A well-formed schedule passes.
    cfg = valid();
    cfg.ingest.enabled = true;
    cfg.ingest.schedule = {{IngestTrafficKind::Burst, 64.0, 0, 1.0},
                           {IngestTrafficKind::Steady, 32.0, 2, 4.0}};
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfigPresetKeys, EveryKeyParsesBackToItsPreset)
{
    std::set<std::string> keys;
    for (ArchPreset p : allPresets()) {
        const std::string key = presetKey(p);
        EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
        ArchPreset parsed = p == ArchPreset::Baseline ? ArchPreset::TrainBox
                                                      : ArchPreset::Baseline;
        ASSERT_TRUE(parsePresetKey(key, parsed)) << key;
        EXPECT_EQ(parsed, p) << key << " labels " << presetName(p);
    }
    EXPECT_EQ(keys.size(), 7u);
    ArchPreset untouched = ArchPreset::TrainBox;
    EXPECT_FALSE(parsePresetKey("TrainBox", untouched));
    EXPECT_FALSE(parsePresetKey("", untouched));
    EXPECT_EQ(untouched, ArchPreset::TrainBox);
}

TEST(ServerConfigValidate, BuilderRefusesInvalidConfig)
{
    ServerConfig cfg = valid();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = 0.0;
    EXPECT_DEATH(buildServer(cfg), "invalid server config");
}

} // namespace
} // namespace tb
