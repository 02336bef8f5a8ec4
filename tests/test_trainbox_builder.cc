/**
 * @file
 * Tests for server assembly and the train initializer (§V-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

ServerConfig
baseConfig(ArchPreset preset, workload::ModelId model, std::size_t n)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = model;
    cfg.numAccelerators = n;
    return cfg;
}

TEST(Builder, BaselineDeviceCounts)
{
    auto server = buildServer(baseConfig(ArchPreset::Baseline,
                                         workload::ModelId::Resnet50, 256));
    EXPECT_EQ(server->accs.size(), 256u);
    EXPECT_TRUE(server->preps.empty());
    EXPECT_EQ(server->ssds.size(), 64u); // same array as TrainBox
    EXPECT_EQ(server->groups.size(), 32u);
    EXPECT_FALSE(server->pool);
    for (const auto &g : server->groups)
        EXPECT_EQ(g.numAccelerators, 8u);
}

TEST(Builder, AccPresetAddsOneEnginePerFourAccelerators)
{
    for (ArchPreset p : {ArchPreset::BaselineAccFpga,
                         ArchPreset::BaselineAccGpu,
                         ArchPreset::BaselineAccP2p}) {
        auto server = buildServer(
            baseConfig(p, workload::ModelId::Resnet50, 64));
        EXPECT_EQ(server->preps.size(), 16u) << presetName(p);
    }
}

TEST(Builder, GpuPresetUsesGpuEngineRate)
{
    auto fpga = buildServer(baseConfig(ArchPreset::BaselineAccFpga,
                                       workload::ModelId::Resnet50, 64));
    auto gpu = buildServer(baseConfig(ArchPreset::BaselineAccGpu,
                                      workload::ModelId::Resnet50, 64));
    EXPECT_DOUBLE_EQ(fpga->preps[0]->engine()->capacity(), 45000.0);
    EXPECT_DOUBLE_EQ(gpu->preps[0]->engine()->capacity(), 11000.0);
    EXPECT_EQ(gpu->preps[0]->kind(), PrepEngineKind::Gpu);
}

TEST(Builder, TrainBoxStructure)
{
    auto server = buildServer(baseConfig(ArchPreset::TrainBox,
                                         workload::ModelId::Resnet50, 256));
    EXPECT_EQ(server->accs.size(), 256u);
    EXPECT_EQ(server->preps.size(), 64u); // 2 FPGAs per box
    EXPECT_EQ(server->ssds.size(), 64u);  // 2 SSDs per box
    EXPECT_EQ(server->groups.size(), 32u);
    // Clustered FPGAs carry prep-pool Ethernet ports.
    for (const auto &p : server->preps)
        EXPECT_NE(p->ethernetPort(), nullptr);
}

TEST(Builder, TrainBoxRoutesAreLocal)
{
    auto server = buildServer(baseConfig(ArchPreset::TrainBox,
                                         workload::ModelId::Resnet50, 32));
    // No local prep stage may touch the root complex.
    FluidResource *rc = server->topo->rcResource();
    for (const auto &g : server->groups)
        for (const auto &st : g.stages)
            for (const auto &d : st.demandsPerSample)
                EXPECT_NE(d.resource, rc)
                    << g.name << "/" << st.name;
}

TEST(Builder, CentralizedRoutesCrossTheRootComplex)
{
    auto server = buildServer(baseConfig(ArchPreset::BaselineAccP2p,
                                         workload::ModelId::Resnet50, 32));
    FluidResource *rc = server->topo->rcResource();
    bool touches_rc = false;
    for (const auto &g : server->groups)
        for (const auto &st : g.stages)
            for (const auto &d : st.demandsPerSample)
                touches_rc |= d.resource == rc;
    EXPECT_TRUE(touches_rc);
}

TEST(Builder, Gen4DoublesFabricBandwidth)
{
    auto gen3 = buildServer(baseConfig(ArchPreset::BaselineAccP2p,
                                       workload::ModelId::Resnet50, 32));
    auto gen4 = buildServer(baseConfig(ArchPreset::BaselineAccP2pGen4,
                                       workload::ModelId::Resnet50, 32));
    EXPECT_DOUBLE_EQ(gen4->topo->rcResource()->capacity(),
                     2.0 * gen3->topo->rcResource()->capacity());
}

// Gen4 scales only the new server's fabric: a co-resident session's
// flows stay clean, so building it beside them solves nothing.
TEST(Builder, Gen4BuildSolvesNoOtherServersFlows)
{
    SimulationCore core;
    auto base = buildServer(baseConfig(ArchPreset::Baseline,
                                       workload::ModelId::Resnet50, 256),
                            &core, "base.");
    TrainingSession session(*base);
    session.start();
    ASSERT_GT(core.fluid().numActive(), 0u);
    const auto before = core.fluid().solverStats();
    auto gen4 = buildServer(baseConfig(ArchPreset::BaselineAccP2pGen4,
                                       workload::ModelId::Resnet50, 32),
                            &core, "gen4.");
    const auto after = core.fluid().solverStats();
    EXPECT_EQ(after.componentsSolved, before.componentsSolved);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved);
    EXPECT_DOUBLE_EQ(gen4->topo->rcResource()->capacity(),
                     2.0 * base->topo->rcResource()->capacity());
}

TEST(Builder, SmallScaleSingleGroup)
{
    for (ArchPreset p : {ArchPreset::Baseline, ArchPreset::TrainBox,
                         ArchPreset::BaselineAccFpga}) {
        auto server =
            buildServer(baseConfig(p, workload::ModelId::InceptionV4, 1));
        EXPECT_EQ(server->groups.size(), 1u) << presetName(p);
        EXPECT_EQ(server->accs.size(), 1u);
        EXPECT_GE(server->groups[0].stages.size(), 3u);
    }
}

TEST(Builder, StagesHaveDemands)
{
    for (ArchPreset p : allPresets()) {
        auto server =
            buildServer(baseConfig(p, workload::ModelId::TfSr, 16));
        for (const auto &g : server->groups) {
            EXPECT_FALSE(g.stages.empty());
            for (const auto &st : g.stages) {
                EXPECT_FALSE(st.demandsPerSample.empty() &&
                             st.rateCap == 0.0)
                    << presetName(p) << " stage " << st.name;
                EXPECT_FALSE(st.category.empty());
            }
        }
    }
}

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

/** Exact text of @p v, so a one-ulp move changes the digest. */
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Every field of @p st; demands sorted by resource name. */
std::string
dumpTemplate(const StageTemplate &st)
{
    std::string out = st.name + " " + st.category + " " +
                      hexFloat(st.rateCap) + " " +
                      hexFloat(st.fairWeight) + " " +
                      std::to_string(st.corruptionHops) +
                      (st.verifiesIntegrity ? " verifies\n" : "\n");
    std::vector<std::pair<std::string, double>> demands;
    for (const auto &d : st.demandsPerSample)
        demands.emplace_back(d.resource->name(), d.weight);
    std::sort(demands.begin(), demands.end());
    for (const auto &[name, weight] : demands)
        out += "  " + name + " " + hexFloat(weight) + "\n";
    return out;
}

/** Every template of @p g, recovery chains included. */
std::string
dumpGroup(const PrepGroup &g)
{
    std::string out = g.name + " " + std::to_string(g.numAccelerators) +
                      " " + hexFloat(g.offloadFraction) + " " +
                      std::to_string(g.preps.size()) + "\n";
    const std::pair<const char *, const std::vector<StageTemplate> *>
        chains[] = {{"stages", &g.stages},
                    {"offload", &g.offloadStages},
                    {"degraded", &g.degradedStages},
                    {"degraded_offload", &g.degradedOffloadStages},
                    {"host_path", &g.hostPathStages}};
    for (const auto &[label, stages] : chains) {
        out += std::string(label) + "\n";
        for (const auto &st : *stages)
            out += dumpTemplate(st);
    }
    out += "checkpoint\n" + dumpTemplate(g.checkpointWrite);
    out += "ingest\n" + dumpTemplate(g.ingestWrite);
    return out;
}

// One digest per preset over every template of every group, across
// models, scales, integrity checks, ingest and pool sizes. The report
// scenarios only reach the templates a run uses; this also pins the
// recovery chains (degraded, host path) directly. A builder refactor
// must leave every digest as it is. The GPU and Gen4 presets differ
// from their siblings only in device capacities, which no template
// holds, so they share their siblings' digests.
TEST(Builder, EveryTemplateMatchesItsPin)
{
    const std::map<ArchPreset, std::uint64_t> pins = {
        {ArchPreset::Baseline, 0x2e18d7467fd70757ull},
        {ArchPreset::BaselineAccFpga, 0xa749fb10df1c5b61ull},
        {ArchPreset::BaselineAccGpu, 0xa749fb10df1c5b61ull},
        {ArchPreset::BaselineAccP2p, 0x6622f0b125a4f007ull},
        {ArchPreset::BaselineAccP2pGen4, 0x6622f0b125a4f007ull},
        {ArchPreset::TrainBoxNoPool, 0x3296cde89b0461a9ull},
        {ArchPreset::TrainBox, 0x8b5f10aa8ded268full},
    };
    for (ArchPreset p : allPresets()) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const auto &m : workload::modelZoo())
            for (std::size_t n : {1, 8, 12, 64})
                for (bool integrity : {false, true})
                    for (bool ingest : {false, true})
                        for (int pool : {-1, 0, 3}) {
                            ServerConfig cfg = baseConfig(p, m.id, n);
                            cfg.faults.enabled = integrity;
                            cfg.faults.integrityChecks = integrity;
                            cfg.ingest.enabled = ingest;
                            cfg.prepPoolFpgas = pool;
                            auto server = buildServer(cfg);
                            h = fnv1a(h, m.name + " " +
                                             std::to_string(n) + "\n");
                            for (const auto &g : server->groups)
                                h = fnv1a(h, dumpGroup(g));
                        }
        char got[32];
        std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", h);
        EXPECT_EQ(h, pins.at(p)) << presetKey(p) << ": digest " << got;
    }
}

/** Every template of @p g, recovery, checkpoint and ingest included. */
std::vector<const StageTemplate *>
allTemplates(const PrepGroup &g)
{
    std::vector<const StageTemplate *> out;
    for (const auto *chain : {&g.stages, &g.offloadStages,
                              &g.degradedStages, &g.degradedOffloadStages,
                              &g.hostPathStages})
        for (const auto &st : *chain)
            out.push_back(&st);
    out.push_back(&g.checkpointWrite);
    out.push_back(&g.ingestWrite);
    return out;
}

/** The first @p n resource names @p st demands, in demand order. */
std::vector<std::string>
leadingNames(const StageTemplate &st, std::size_t n)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < std::min(n, st.demandsPerSample.size()); ++i)
        out.push_back(st.demandsPerSample[i].resource->name());
    return out;
}

const StageTemplate &
stageNamed(const PrepGroup &g, const std::string &name)
{
    for (const auto &st : g.stages)
        if (st.name == name)
            return st;
    ADD_FAILURE() << "no stage " << name << " in " << g.name;
    return g.stages.front();
}

// A template names each resource once, with a positive weight, in the
// order the builder adds them: its routes run source to destination.
// Address order would make the leading names depend on the allocator.
TEST(Builder, TemplateDemandsAreMergedAndInAddOrder)
{
    for (ArchPreset p : allPresets())
        for (const auto &m : workload::modelZoo())
            for (std::size_t n : {8, 256})
                for (bool integrity : {false, true}) {
                    ServerConfig cfg = baseConfig(p, m.id, n);
                    cfg.faults.enabled = integrity;
                    cfg.faults.integrityChecks = integrity;
                    cfg.ingest.enabled = true;
                    auto server = buildServer(cfg);
                    for (const auto &g : server->groups)
                        for (const StageTemplate *st : allTemplates(g)) {
                            std::vector<const FluidResource *> seen;
                            for (const auto &d : st->demandsPerSample) {
                                EXPECT_GT(d.weight, 0.0);
                                seen.push_back(d.resource);
                            }
                            std::sort(seen.begin(), seen.end());
                            EXPECT_EQ(std::adjacent_find(seen.begin(),
                                                         seen.end()),
                                      seen.end())
                                << presetKey(p) << " " << m.name << " "
                                << n << " " << g.name << "/" << st->name;
                        }
                }

    auto baseline = buildServer(baseConfig(ArchPreset::Baseline,
                                           workload::ModelId::Resnet50, 8));
    EXPECT_EQ(leadingNames(stageNamed(baseline->groups[0], "ssd_read"), 4),
              (std::vector<std::string>{"ssdbox0.ssd0.flash",
                                        "ssdbox0.ssd0.up", "ssdbox0.up",
                                        "pcie.rc"}));
    auto trainbox = buildServer(baseConfig(ArchPreset::TrainBox,
                                           workload::ModelId::Resnet50, 8));
    EXPECT_EQ(leadingNames(stageNamed(trainbox->groups[0], "data_load"), 4),
              (std::vector<std::string>{"tbox0.fpga0.up", "tbox0.acc0.down",
                                        "tbox0.sw0.up", "tbox0.sw1.down"}));
}

TEST(Initializer, InceptionNeedsNoPool)
{
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::InceptionV4,
                   256));
    EXPECT_DOUBLE_EQ(plan.offloadFraction, 0.0);
    EXPECT_EQ(plan.poolFpgas, 0u);
    EXPECT_GT(plan.localCapacity, plan.demand);
}

TEST(Initializer, TfSrNeeds54PercentExtraCapacity)
{
    // Fig 21: TF-SR reaches the target with ~54% more FPGA resources.
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256));
    EXPECT_GT(plan.offloadFraction, 0.0);
    EXPECT_NEAR(plan.poolOvercapacityRatio, 0.54, 0.03);
    EXPECT_GT(plan.poolFpgas, 0u);
    EXPECT_TRUE(plan.ethernetFeasible);
}

TEST(Initializer, PoolSizedForPortLimits)
{
    // Image offload is port-limited (35.6k samples/s per 100G port vs
    // 45k engine rate), so the pool must be sized by the port rate.
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::RnnS, 256));
    ASSERT_GT(plan.poolFpgas, 0u);
    const double port_rate =
        PrepAccelerator::defaultEthernetBw /
        (workload::prepDemand(workload::InputType::Image).ssdBytes +
         workload::prepDemand(workload::InputType::Image).preparedBytes);
    EXPECT_GE(static_cast<double>(plan.poolFpgas) * port_rate,
              plan.poolCapacityNeeded * 0.999);
}

TEST(Initializer, PoolMatchesBuilder)
{
    const ServerConfig cfg =
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    const PrepPlan plan = planPreparation(cfg);
    auto server = buildServer(cfg);
    ASSERT_TRUE(server->pool);
    EXPECT_EQ(server->pool->size(), plan.poolFpgas);
    for (const auto &g : server->groups) {
        EXPECT_DOUBLE_EQ(g.offloadFraction, plan.offloadFraction);
        EXPECT_FALSE(g.offloadStages.empty());
    }
}

// The plan credits the server the FPGAs its train boxes hold (a box of
// four or fewer accelerators holds one), every built box keeps up with
// the share of its batch it preps itself, the pool carries the rest,
// and the plan over the built groups' own counts, which is what the
// elastic re-plan computes at full membership, has the plan's offload
// bit for bit, at any box count and batch.
TEST(Initializer, PlanSplitMatchesTheBuiltServer)
{
    for (const auto &m : workload::modelZoo())
        for (std::size_t n = 1; n <= 40; ++n)
            for (const std::size_t batch : {0u, 256u, 2048u}) {
                SCOPED_TRACE(m.name + " n=" + std::to_string(n) +
                             " batch=" + std::to_string(batch));
                ServerConfig cfg = baseConfig(ArchPreset::TrainBox, m.id, n);
                cfg.batchSize = batch;
                const PrepPlan plan = planPreparation(cfg);
                auto server = buildServer(cfg);
                const workload::PrepDemand d = workload::prepDemand(m.input);
                const double chain = d.fpgaChainRate;
                const double per_acc = plan.demand / static_cast<double>(n);
                const double local = 1.0 - plan.offloadFraction;
                PrepBoxes built;
                for (const auto &g : server->groups) {
                    built.add(g.numAccelerators, g.preps.size());
                    EXPECT_LE(local * static_cast<double>(g.numAccelerators) *
                                  per_acc,
                              static_cast<double>(g.preps.size()) * chain *
                                  (1.0 + 1e-12))
                        << g.name;
                }
                EXPECT_EQ(plan.localCapacity,
                          static_cast<double>(built.engines) * chain);
                EXPECT_EQ(planPreparation(cfg, built).offloadFraction,
                          plan.offloadFraction);
                const std::size_t pool =
                    server->pool ? server->pool->size() : 0;
                EXPECT_EQ(pool, plan.poolFpgas);
                const double pool_rate = std::min(
                    chain, PrepAccelerator::defaultEthernetBw /
                               (d.ssdBytes + d.preparedBytes));
                EXPECT_GE(static_cast<double>(pool) * pool_rate,
                          plan.offloadFraction * plan.demand * (1.0 - 1e-12));
            }
}

TEST(Initializer, NoPoolPresetHasNoOffload)
{
    auto server = buildServer(
        baseConfig(ArchPreset::TrainBoxNoPool, workload::ModelId::TfSr,
                   256));
    EXPECT_FALSE(server->pool);
    for (const auto &g : server->groups)
        EXPECT_DOUBLE_EQ(g.offloadFraction, 0.0);
}

TEST(Initializer, ExplicitPoolSizeOverride)
{
    ServerConfig cfg =
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    cfg.prepPoolFpgas = 100;
    auto server = buildServer(cfg);
    ASSERT_TRUE(server->pool);
    EXPECT_EQ(server->pool->size(), 100u);
}

TEST(ServerConfig, PresetPredicates)
{
    EXPECT_FALSE(presetUsesPrepAccelerators(ArchPreset::Baseline));
    EXPECT_TRUE(presetUsesPrepAccelerators(ArchPreset::TrainBox));
    EXPECT_FALSE(presetUsesP2p(ArchPreset::BaselineAccFpga));
    EXPECT_TRUE(presetUsesP2p(ArchPreset::BaselineAccP2p));
    EXPECT_TRUE(presetUsesClustering(ArchPreset::TrainBoxNoPool));
    EXPECT_FALSE(presetUsesClustering(ArchPreset::BaselineAccP2pGen4));
    EXPECT_EQ(allPresets().size(), 7u);
}

TEST(ServerConfig, EffectiveBatchSize)
{
    ServerConfig cfg;
    cfg.model = workload::ModelId::Resnet50;
    EXPECT_EQ(cfg.effectiveBatchSize(), 8192u);
    cfg.batchSize = 128;
    EXPECT_EQ(cfg.effectiveBatchSize(), 128u);
}

TEST(ServerDeath, ZeroAcceleratorsIsFatal)
{
    ServerConfig cfg;
    cfg.numAccelerators = 0;
    EXPECT_DEATH(buildServer(cfg), "at least one");
}

} // namespace
} // namespace tb
