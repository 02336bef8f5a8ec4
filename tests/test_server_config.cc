/**
 * @file
 * ServerConfig::validate() rejects nonsensical configurations with a
 * message naming the offending field; buildServer() refuses to build
 * them (fatal). A default config of every preset must validate clean,
 * and every preset's command-line key parses back to that preset.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

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
}

TEST(ServerConfigValidate, RejectsEmptyBoxes)
{
    ServerConfig cfg;
    cfg.numAccelerators = 8;
    cfg.box.prepPerBox = 0;
    EXPECT_NE(cfg.validate().find("prepPerBox"), std::string::npos);
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
    cfg.numAccelerators = 16; // two groups at kAccPerBox = 8
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

// NaN compares false both ways, so a check written `x < 0.0` lets it
// through. Every numeric field, set to NaN in a config that switches
// on every check, gets a message that names the field and the NaN.
TEST(ServerConfigValidate, RejectsNaNInEveryNumericField)
{
    ServerConfig armed = valid();
    armed.faults.enabled = true;
    for (FaultClassConfig *cc :
         {&armed.faults.ssdDegrade, &armed.faults.prepCrash,
          &armed.faults.ethDegrade, &armed.faults.routeLoss}) {
        cc->ratePerSec = 0.1;
        cc->duration = 0.5;
    }
    armed.checkpoint.enabled = true;
    for (ElasticClassConfig *cc :
         {&armed.elasticity.groupDrain, &armed.elasticity.groupPreempt,
          &armed.elasticity.prepDrain, &armed.elasticity.prepPreempt})
        cc->ratePerSec = 0.1;
    armed.elasticity.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Drain, 0, 1.0}};
    armed.ingest.enabled = true;
    armed.ingest.steady.ratePerSec = 1000.0;
    armed.ingest.diurnal.ratePerSec = 500.0;
    armed.ingest.burst.ratePerSec = 200.0;
    armed.ingest.schedule = {{IngestTrafficKind::Steady, 64.0, 0, 1.0}};
    ASSERT_EQ(armed.validate(), "");

    using Field = double &(*)(ServerConfig &);
    struct Case
    {
        const char *needle; ///< what the message must name
        Field field;
    };
#define TB_FIELD(needle, path) \
    {needle, [](ServerConfig &c) -> double & { return c.path; }}
#define TB_NAMED(path) TB_FIELD(#path, path)
    const Case cases[] = {
        TB_NAMED(host.cpuCores),
        TB_NAMED(host.memBandwidth),
        TB_NAMED(host.rcBandwidth),
        TB_NAMED(sync.linkBandwidth),
        TB_NAMED(sync.hopLatency),
        TB_NAMED(sync.chunkBytes),
        TB_NAMED(faults.ssdReadFailureProb),
        TB_NAMED(faults.stragglerProb),
        TB_NAMED(faults.stragglerFactor),
        TB_NAMED(faults.stepTimeoutFactor),
        TB_NAMED(faults.ssdDegrade.ratePerSec),
        TB_FIELD("faults.ssdDegrade window", faults.ssdDegrade.duration),
        TB_NAMED(faults.ssdDegrade.magnitude),
        TB_NAMED(faults.prepCrash.ratePerSec),
        TB_FIELD("faults.prepCrash window", faults.prepCrash.duration),
        TB_NAMED(faults.prepCrash.magnitude),
        TB_NAMED(faults.ethDegrade.ratePerSec),
        TB_FIELD("faults.ethDegrade window", faults.ethDegrade.duration),
        TB_NAMED(faults.ethDegrade.magnitude),
        TB_NAMED(faults.routeLoss.ratePerSec),
        TB_FIELD("faults.routeLoss window", faults.routeLoss.duration),
        TB_NAMED(faults.routeLoss.magnitude),
        TB_NAMED(faults.fatalCrash.ratePerSec),
        TB_FIELD("ssd_bit_flip", faults.corruption.ssdBitFlipProb),
        TB_FIELD("pcie_link_error", faults.corruption.pcieErrorProb),
        TB_FIELD("fpga_upset", faults.corruption.fpgaUpsetProb),
        TB_FIELD("host_dram_flip", faults.corruption.hostDramFlipProb),
        TB_NAMED(checkpoint.interval),
        TB_NAMED(checkpoint.optimizerSlots),
        TB_NAMED(checkpoint.snapshotBandwidth),
        TB_NAMED(checkpoint.restartLatency),
        TB_NAMED(elasticity.graceWindow),
        TB_NAMED(elasticity.rejoinLatency),
        TB_NAMED(elasticity.sloTargetSamplesPerSec),
        TB_NAMED(elasticity.scaleUpTime),
        TB_NAMED(elasticity.groupDrain.ratePerSec),
        TB_NAMED(elasticity.groupDrain.absence),
        TB_NAMED(elasticity.groupPreempt.ratePerSec),
        TB_NAMED(elasticity.groupPreempt.absence),
        TB_NAMED(elasticity.prepDrain.ratePerSec),
        TB_NAMED(elasticity.prepDrain.absence),
        TB_NAMED(elasticity.prepPreempt.ratePerSec),
        TB_NAMED(elasticity.prepPreempt.absence),
        TB_NAMED(elasticity.schedule[0].at),
        TB_NAMED(ingest.steady.ratePerSec),
        TB_NAMED(ingest.steady.samplesPerEvent),
        TB_NAMED(ingest.diurnal.ratePerSec),
        TB_NAMED(ingest.diurnal.samplesPerEvent),
        TB_NAMED(ingest.burst.ratePerSec),
        TB_NAMED(ingest.burst.samplesPerEvent),
        TB_NAMED(ingest.diurnalAmplitude),
        TB_NAMED(ingest.diurnalPeriod),
        TB_NAMED(ingest.bufferCapacity),
        TB_NAMED(ingest.lowWatermark),
        TB_FIELD("ingest watermarks", ingest.highWatermark),
        TB_NAMED(ingest.throttleFactor),
        TB_NAMED(ingest.echoFactor),
        TB_NAMED(ingest.echoEfficiency),
        TB_NAMED(ingest.stalenessSlo),
        TB_NAMED(ingest.writeChunkSamples),
        TB_NAMED(ingest.writeFailureProb),
        TB_NAMED(ingest.writeRetryBackoff),
        TB_NAMED(ingest.schedule[0].at),
        TB_NAMED(ingest.schedule[0].samples),
    };
#undef TB_NAMED
#undef TB_FIELD
    for (const Case &k : cases) {
        ServerConfig cfg = armed;
        k.field(cfg) = std::numeric_limits<double>::quiet_NaN();
        const std::string err = cfg.validate();
        EXPECT_NE(err.find(k.needle), std::string::npos)
            << k.needle << ": \"" << err << "\"";
        EXPECT_NE(err.find("nan"), std::string::npos)
            << k.needle << ": \"" << err << "\"";
    }
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
