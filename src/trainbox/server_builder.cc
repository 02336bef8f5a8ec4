#include "trainbox/server_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace tb {

using workload::PrepStage;
using workload::stageCategory;

namespace {

/** Host CPU cost of programming one staged DMA (core-sec/sample). */
constexpr double kDmaSetupCpu = 1.0e-5;

/** Host CPU cost per sample when devices run the datapath (P2P). */
constexpr double kP2pControlCpu = 5.0e-6;

/**
 * Host CPU cost of serializing + writing one checkpoint byte
 * (core-sec/byte, ~1 core per GB/s). Central presets only: there the
 * host process owns the checkpoint write path, whereas clustered boxes
 * drain FPGA-staged snapshots to their SSDs without host involvement.
 */
constexpr double kCkptSerializeCpu = 1.0e-9;

/**
 * Host CPU cost of one CRC32C-checked byte (core-sec/byte; ~10 GB/s
 * per core with the hardware CRC instruction). Charged by the inserted
 * integrity stages on host-staged chains.
 */
constexpr double kCrcCpuPerByte = 1.0e-10;

/**
 * Engine-time tax of an inline checksum generate/verify pass on a prep
 * engine, as a fraction of one sample's engine time. The FPGA streams
 * the CRC alongside the data, so the tax is small but not free.
 */
constexpr double kIntegrityEngineTax = 0.02;

/** Shared state while assembling one server. */
struct Builder
{
    Server &s;
    const ServerConfig &cfg;

    std::size_t nAcc;
    std::size_t accPerGroup;
    std::size_t nGroups;
    Rate engineRate;

    /** Per-group device assignments. */
    std::vector<std::vector<NnAccelerator *>> groupAccs;
    std::vector<std::vector<PrepAccelerator *>> groupPreps;
    std::vector<std::vector<NvmeSsd *>> groupSsds;

    explicit Builder(Server &server)
        : s(server), cfg(server.cfg)
    {
        nAcc = cfg.numAccelerators;
        accPerGroup = std::min<std::size_t>(cfg.box.accPerBox, nAcc);
        nGroups = divCeil(nAcc, accPerGroup);
        const workload::PrepDemand &d = s.demand;
        engineRate = cfg.preset == ArchPreset::BaselineAccGpu
            ? d.gpuChainRate : d.fpgaChainRate;
        groupAccs.resize(nGroups);
        groupPreps.resize(nGroups);
        groupSsds.resize(nGroups);
    }

    double stageCpu(PrepStage st) const
    {
        auto it = s.demand.cpuByStage.find(st);
        return it == s.demand.cpuByStage.end() ? 0.0 : it->second;
    }

    double stageMem(PrepStage st) const
    {
        auto it = s.demand.memByStage.find(st);
        return it == s.demand.memByStage.end() ? 0.0 : it->second;
    }

    double
    cpuCap(double core_sec) const
    {
        return core_sec > 0.0
            ? cfg.maxPrepParallelism / core_sec : 0.0;
    }

    /**
     * Fair-share weight for a CPU-bound stage: inversely proportional
     * to its per-sample cost, so concurrent stages split core *time*
     * equally (OS-scheduler semantics) and stage wall time scales with
     * stage work.
     */
    static double
    cpuFair(double core_sec)
    {
        return core_sec > 0.0 ? 1.0e-4 / core_sec : 1.0;
    }

    /** Insert checksum generate/verify stages into the chains? */
    bool integrityOn() const
    {
        return cfg.faults.enabled && cfg.faults.integrityChecks;
    }

    /** Checksum stage streamed through prep engines (P2P chains). */
    StageTemplate
    engineIntegrityStage(const char *name,
                         const std::vector<PrepAccelerator *> &preps) const
    {
        const double prep_share =
            1.0 / static_cast<double>(preps.size());
        StageTemplate st;
        st.name = name;
        st.category = "integrity";
        st.verifiesIntegrity = true;
        DemandSet ds;
        for (auto *prep : preps)
            ds.add(prep->engine(), prep_share * kIntegrityEngineTax);
        ds.add(s.cpu->resource(), kP2pControlCpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Checksum stage run by the host CPU over @p bytes per sample. */
    StageTemplate
    hostIntegrityStage(const char *name, double bytes,
                       bool fairCpu) const
    {
        StageTemplate st;
        st.name = name;
        st.category = "integrity";
        st.verifiesIntegrity = true;
        const double cpu = bytes * kCrcCpuPerByte;
        DemandSet ds;
        ds.add(s.cpu->resource(), cpu);
        ds.add(s.hostMem->resource(), bytes);
        st.demandsPerSample = ds.build();
        if (fairCpu) {
            st.rateCap = cpuCap(cpu);
            st.fairWeight = cpuFair(cpu);
        }
        return st;
    }

    /** Accelerator-ingest verify on P2P delivery (control CPU only). */
    StageTemplate
    p2pSinkIntegrityStage() const
    {
        StageTemplate st;
        st.name = "integrity_sink";
        st.category = "integrity";
        st.verifiesIntegrity = true;
        DemandSet ds;
        ds.add(s.cpu->resource(), kP2pControlCpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Build the non-clustered presets (Figs 12-14 + Gen4 + GPU). */
    void buildCentral();

    /** Build the clustered presets (Fig 15). */
    void buildClustered();

    void makeCentralStages(std::size_t g);
    void makeClusteredStages(std::size_t g);
};

void
Builder::buildCentral()
{
    auto &topo = *s.topo;

    // Accelerator boxes: one 8-accelerator box per group.
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "accbox" + std::to_string(g);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        const std::size_t count =
            std::min(accPerGroup, nAcc - g * accPerGroup);
        for (std::size_t i = 0; i < count; ++i) {
            s.accs.push_back(std::make_unique<NnAccelerator>(
                topo, box + ".acc" + std::to_string(i), sw));
            groupAccs[g].push_back(s.accs.back().get());
        }
    }

    // SSD boxes: same aggregate SSD count as the clustered design.
    const std::size_t n_ssd =
        std::max<std::size_t>(cfg.box.ssdsPerBox,
                              nGroups * cfg.box.ssdsPerBox);
    const std::size_t per_box = cfg.box.ssdsPerSsdBox;
    const std::size_t n_ssd_boxes = divCeil(n_ssd, per_box);
    for (std::size_t b = 0; b < n_ssd_boxes; ++b) {
        const std::string box = "ssdbox" + std::to_string(b);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        for (std::size_t i = 0;
             i < per_box && s.ssds.size() < n_ssd; ++i) {
            s.ssds.push_back(std::make_unique<NvmeSsd>(
                s.core().fluid(), topo, box + ".ssd" + std::to_string(i), sw));
        }
    }
    // Reads are striped across the whole SSD array for every group.
    for (std::size_t g = 0; g < nGroups; ++g)
        for (auto &ssd : s.ssds)
            groupSsds[g].push_back(ssd.get());

    // Prep boxes (all presets but Baseline): 1 engine per 4 accelerators,
    // eight engines per box (§III-A box structure).
    if (presetUsesPrepAccelerators(cfg.preset)) {
        const std::size_t n_prep = std::max<std::size_t>(1, nAcc / 4);
        const PrepEngineKind kind =
            cfg.preset == ArchPreset::BaselineAccGpu
                ? PrepEngineKind::Gpu : PrepEngineKind::Fpga;
        pcie::NodeId sw = pcie::kInvalidNode;
        for (std::size_t i = 0; i < n_prep; ++i) {
            if (i % 8 == 0) {
                const std::string box =
                    "prepbox" + std::to_string(i / 8);
                sw = topo.addSwitch(box, topo.root(),
                                    pcie::gen::gen3x16);
            }
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, "prep" + std::to_string(i), sw, kind,
                engineRate, /*withEthernet=*/false));
        }
        // Assign engines to groups round-robin so every group has at
        // least one.
        for (std::size_t i = 0; i < std::max(n_prep, nGroups); ++i)
            groupPreps[i % nGroups].push_back(
                s.preps[i % n_prep].get());
    }

    for (std::size_t g = 0; g < nGroups; ++g)
        makeCentralStages(g);
}

void
Builder::makeCentralStages(std::size_t g)
{
    auto &topo = *s.topo;
    const workload::PrepDemand &d = s.demand;
    PrepGroup group;
    group.name = "group" + std::to_string(g);
    group.numAccelerators = groupAccs[g].size();
    group.preps = groupPreps[g];

    const auto &accs = groupAccs[g];
    const auto &preps = groupPreps[g];
    const auto &ssds = groupSsds[g];
    const double acc_share = 1.0 / static_cast<double>(accs.size());
    const double ssd_share = 1.0 / static_cast<double>(ssds.size());
    const double prep_share =
        preps.empty() ? 0.0 : 1.0 / static_cast<double>(preps.size());

    const bool p2p = presetUsesP2p(cfg.preset);

    // --- Stage: SSD read ---------------------------------------------
    {
        StageTemplate st;
        st.name = "ssd_read";
        st.category = stageCategory(PrepStage::SsdRead);
        DemandSet ds;
        for (auto *ssd : ssds) {
            ds.add(ssd->readDemand(d.ssdBytes * ssd_share).resource,
                   d.ssdBytes * ssd_share);
            if (p2p) {
                // Direct SSD -> prep-engine DMA (P2P handler on FPGA).
                for (auto *prep : preps)
                    ds.add(topo.routeDemands(
                               ssd->node(), prep->node(),
                               d.ssdBytes * ssd_share * prep_share));
            } else {
                ds.add(topo.hostRouteDemands(ssd->node(), false,
                                             d.ssdBytes * ssd_share));
            }
        }
        if (p2p) {
            ds.add(s.cpu->resource(), kP2pControlCpu);
        } else {
            ds.add(s.hostMem->resource(), d.ssdBytes);
            ds.add(s.cpu->resource(), stageCpu(PrepStage::SsdRead));
            if (preps.empty())
                st.fairWeight = cpuFair(stageCpu(PrepStage::SsdRead));
        }
        st.corruptionHops = corruptionBit(CorruptionKind::SsdBitFlip) |
                            corruptionBit(CorruptionKind::PcieLinkError);
        if (!p2p)
            st.corruptionHops |=
                corruptionBit(CorruptionKind::HostDramFlip);
        st.demandsPerSample = ds.build();
        group.stages.push_back(std::move(st));
    }

    // --- Checksum-generate stage at the source -----------------------
    if (integrityOn())
        group.stages.push_back(
            p2p ? engineIntegrityStage("integrity_src", preps)
                : hostIntegrityStage("integrity_src", d.ssdBytes,
                                     preps.empty()));

    if (preps.empty()) {
        // --- Baseline: CPU formatting --------------------------------
        {
            StageTemplate st;
            st.name = "formatting";
            st.category = stageCategory(PrepStage::Formatting);
            DemandSet ds;
            ds.add(s.cpu->resource(), stageCpu(PrepStage::Formatting));
            ds.add(s.hostMem->resource(), stageMem(PrepStage::Formatting));
            st.demandsPerSample = ds.build();
            st.rateCap = cpuCap(stageCpu(PrepStage::Formatting));
            st.fairWeight = cpuFair(stageCpu(PrepStage::Formatting));
            // CPU decode touches every byte: the framework loader's
            // software validation catches silent flips here (the
            // protection the P2P path gives up).
            st.corruptionHops =
                corruptionBit(CorruptionKind::HostDramFlip);
            st.verifiesIntegrity = true;
            group.stages.push_back(std::move(st));
        }
        // --- Baseline: CPU augmentation ------------------------------
        {
            StageTemplate st;
            st.name = "augmentation";
            st.category = stageCategory(PrepStage::Augmentation);
            DemandSet ds;
            ds.add(s.cpu->resource(), stageCpu(PrepStage::Augmentation));
            ds.add(s.hostMem->resource(),
                   stageMem(PrepStage::Augmentation));
            st.demandsPerSample = ds.build();
            st.rateCap = cpuCap(stageCpu(PrepStage::Augmentation));
            st.fairWeight = cpuFair(stageCpu(PrepStage::Augmentation));
            st.corruptionHops =
                corruptionBit(CorruptionKind::HostDramFlip);
            group.stages.push_back(std::move(st));
        }
    } else if (!p2p) {
        // --- Step 1 only: staged copy host -> prep engines -----------
        {
            StageTemplate st;
            st.name = "copy_to_prep";
            st.category = "data_copy";
            DemandSet ds;
            ds.add(s.hostMem->resource(), d.ssdBytes);
            ds.add(s.cpu->resource(), kDmaSetupCpu);
            for (auto *prep : preps)
                ds.add(topo.hostRouteDemands(prep->node(), true,
                                             d.ssdBytes * prep_share));
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            st.demandsPerSample = ds.build();
            group.stages.push_back(std::move(st));
        }
    }

    if (!preps.empty()) {
        // --- Offloaded formatting + augmentation ---------------------
        StageTemplate st;
        st.name = "formatting";
        st.category = stageCategory(PrepStage::Formatting);
        DemandSet ds;
        for (auto *prep : preps)
            ds.add(prep->engine(), prep_share);
        st.demandsPerSample = ds.build();
        st.corruptionHops = corruptionBit(CorruptionKind::FpgaUpset);
        group.stages.push_back(std::move(st));

        if (!p2p) {
            // --- Staged copy prep engines -> host --------------------
            StageTemplate back;
            back.name = "copy_from_prep";
            back.category = "data_copy";
            DemandSet bs;
            bs.add(s.hostMem->resource(), d.preparedBytes);
            bs.add(s.cpu->resource(), kDmaSetupCpu);
            for (auto *prep : preps)
                bs.add(topo.hostRouteDemands(prep->node(), false,
                                             d.preparedBytes *
                                                 prep_share));
            back.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            back.demandsPerSample = bs.build();
            group.stages.push_back(std::move(back));
        }
    }

    // --- Stage: data load into the accelerators ----------------------
    {
        StageTemplate st;
        st.name = "data_load";
        st.category = stageCategory(PrepStage::DataLoad);
        DemandSet ds;
        if (p2p) {
            // Direct prep engine -> accelerator DMA.
            for (auto *prep : preps)
                for (auto *acc : accs)
                    ds.add(topo.routeDemands(prep->node(), acc->node(),
                                             d.preparedBytes *
                                                 prep_share * acc_share));
            ds.add(s.cpu->resource(), kP2pControlCpu);
        } else {
            ds.add(s.hostMem->resource(), d.preparedBytes);
            for (auto *acc : accs)
                ds.add(topo.hostRouteDemands(acc->node(), true,
                                             d.preparedBytes * acc_share));
            ds.add(s.cpu->resource(),
                   preps.empty() ? stageCpu(PrepStage::DataLoad)
                                 : kDmaSetupCpu);
        }
        st.corruptionHops = corruptionBit(CorruptionKind::PcieLinkError);
        if (!p2p)
            st.corruptionHops |=
                corruptionBit(CorruptionKind::HostDramFlip);
        st.demandsPerSample = ds.build();
        if (preps.empty()) {
            st.rateCap = cpuCap(stageCpu(PrepStage::DataLoad));
            st.fairWeight = cpuFair(stageCpu(PrepStage::DataLoad));
        }
        group.stages.push_back(std::move(st));
    }

    // --- Checksum-verify stage at the sink ---------------------------
    if (integrityOn())
        group.stages.push_back(
            p2p ? p2pSinkIntegrityStage()
                : hostIntegrityStage("integrity_sink", d.preparedBytes,
                                     preps.empty()));

    // --- Stage: framework overheads ----------------------------------
    {
        StageTemplate st;
        st.name = "others";
        st.category = stageCategory(PrepStage::Others);
        DemandSet ds;
        const double cpu = preps.empty()
            ? stageCpu(PrepStage::Others)
            : (p2p ? kP2pControlCpu : stageCpu(PrepStage::Others));
        ds.add(s.cpu->resource(), cpu);
        st.demandsPerSample = ds.build();
        st.rateCap = cpuCap(cpu);
        if (preps.empty())
            st.fairWeight = cpuFair(cpu);
        group.stages.push_back(std::move(st));
    }

    // --- Checkpoint drain path (base unit: one byte) -----------------
    // Central presets stage the snapshot through host DRAM and funnel
    // it through the RC to the shared SSD boxes — the same RC the prep
    // reads cross, so a drain directly steals prep bandwidth.
    {
        StageTemplate st;
        st.name = "ckpt_write";
        st.category = "checkpoint";
        // The drain flows in bytes while prep flows in samples; under
        // progressive filling a frozen flow's rate is level*weight, so
        // weight by one sample's bytes to give the drain the fair share
        // of one prep stream on every contended resource.
        st.fairWeight = d.ssdBytes;
        DemandSet ds;
        ds.add(s.hostMem->resource(), 1.0);
        ds.add(s.cpu->resource(), kCkptSerializeCpu);
        for (auto *ssd : ssds) {
            ds.add(ssd->writeDemand(ssd_share).resource, ssd_share);
            ds.add(ssd->writeReadInterference(ssd_share).resource,
                   ssd_share * NvmeSsd::kWriteReadInterference);
            ds.add(topo.hostRouteDemands(ssd->node(), true, ssd_share));
        }
        st.demandsPerSample = ds.build();
        group.checkpointWrite = std::move(st);
    }

    // --- Ingest shard-append path (base unit: one sample) ------------
    // Freshly arrived samples drain from the host-DRAM ingest buffer
    // through the RC to the shared SSD boxes: every appended byte pays
    // the shard write amplification plus the write->read interference
    // that slows the prep reads striped over the same SSDs.
    if (cfg.ingest.enabled) {
        StageTemplate st;
        st.name = "ingest_write";
        st.category = "ingest";
        DemandSet ds;
        ds.add(s.hostMem->resource(), d.ssdBytes);
        ds.add(s.cpu->resource(),
               kDmaSetupCpu + d.ssdBytes * kCrcCpuPerByte);
        for (auto *ssd : ssds) {
            const FlowDemand wr =
                ssd->shardWriteDemand(d.ssdBytes * ssd_share);
            const FlowDemand rd =
                ssd->shardWriteReadInterference(d.ssdBytes * ssd_share);
            ds.add(wr.resource, wr.weight);
            ds.add(rd.resource, rd.weight);
            ds.add(topo.hostRouteDemands(ssd->node(), true,
                                         d.ssdBytes * ssd_share));
        }
        st.demandsPerSample = ds.build();
        group.ingestWrite = std::move(st);
    }

    s.groups.push_back(std::move(group));
}

void
Builder::buildClustered()
{
    auto &topo = *s.topo;

    // Train boxes: top switch with two sub-switches (4 accs + 1 FPGA
    // each) and the box's SSDs (§V-D / Fig 18).
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "tbox" + std::to_string(g);
        const pcie::NodeId top =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);

        const std::size_t count =
            std::min(accPerGroup, nAcc - g * accPerGroup);
        const std::size_t n_sub = count > 4 ? 2 : 1;
        std::vector<pcie::NodeId> subs;
        for (std::size_t i = 0; i < n_sub; ++i)
            subs.push_back(topo.addSwitch(
                box + ".sw" + std::to_string(i), top,
                pcie::gen::gen3x16));

        for (std::size_t i = 0; i < count; ++i) {
            s.accs.push_back(std::make_unique<NnAccelerator>(
                topo, box + ".acc" + std::to_string(i),
                subs[i % n_sub]));
            groupAccs[g].push_back(s.accs.back().get());
        }
        for (std::size_t i = 0;
             i < std::max<std::size_t>(1, cfg.box.prepPerBox * n_sub / 2);
             ++i) {
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, box + ".fpga" + std::to_string(i),
                subs[i % n_sub], PrepEngineKind::Fpga, engineRate,
                /*withEthernet=*/true));
            groupPreps[g].push_back(s.preps.back().get());
        }
        for (std::size_t i = 0; i < cfg.box.ssdsPerBox; ++i) {
            s.ssds.push_back(std::make_unique<NvmeSsd>(
                s.core().fluid(), topo, box + ".ssd" + std::to_string(i), top));
            groupSsds[g].push_back(s.ssds.back().get());
        }
    }

    // Prep-pool over Ethernet.
    std::size_t pool_size = 0;
    if (cfg.preset == ArchPreset::TrainBox) {
        pool_size = cfg.prepPoolFpgas >= 0
            ? static_cast<std::size_t>(cfg.prepPoolFpgas)
            : s.plan.poolFpgas;
    }
    if (pool_size > 0) {
        s.pool = std::make_unique<PrepPool>(s.core().fluid(), "pool");
        for (std::size_t i = 0; i < pool_size; ++i)
            s.pool->addFpga(engineRate);
    }

    for (std::size_t g = 0; g < nGroups; ++g)
        makeClusteredStages(g);
}

void
Builder::makeClusteredStages(std::size_t g)
{
    auto &topo = *s.topo;
    const workload::PrepDemand &d = s.demand;
    PrepGroup group;
    group.name = "tbox" + std::to_string(g);
    group.numAccelerators = groupAccs[g].size();
    group.preps = groupPreps[g];

    const auto &accs = groupAccs[g];
    const auto &ssds = groupSsds[g];
    const double acc_share = 1.0 / static_cast<double>(accs.size());
    const double ssd_share = 1.0 / static_cast<double>(ssds.size());

    using PrepVec = std::vector<PrepAccelerator *>;
    const PrepVec &all_preps = groupPreps[g];

    // Local SSD -> FPGA fetch demands (shared by local/offload chains).
    auto fetch_demands = [&](const PrepVec &preps) {
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        DemandSet ds;
        for (auto *ssd : ssds) {
            ds.add(ssd->readDemand(d.ssdBytes * ssd_share).resource,
                   d.ssdBytes * ssd_share);
            for (auto *prep : preps)
                ds.add(topo.routeDemands(ssd->node(), prep->node(),
                                         d.ssdBytes * ssd_share *
                                             prep_share));
        }
        return ds;
    };
    // Local FPGA -> accelerator delivery demands.
    auto deliver_demands = [&](const PrepVec &preps) {
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        DemandSet ds;
        for (auto *prep : preps)
            for (auto *acc : accs)
                ds.add(topo.routeDemands(prep->node(), acc->node(),
                                         d.preparedBytes * prep_share *
                                             acc_share));
        return ds;
    };

    // The in-box P2P chain striped over @p preps (all FPGAs for the
    // healthy template, the survivors for the degraded one).
    auto local_chain = [&](const PrepVec &preps) {
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        std::vector<StageTemplate> stages;
        {
            StageTemplate st;
            st.name = "ssd_read";
            st.category = stageCategory(PrepStage::SsdRead);
            DemandSet ds = fetch_demands(preps);
            ds.add(s.cpu->resource(), kP2pControlCpu);
            st.corruptionHops =
                corruptionBit(CorruptionKind::SsdBitFlip) |
                corruptionBit(CorruptionKind::PcieLinkError);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(engineIntegrityStage("integrity_src", preps));
        {
            StageTemplate st;
            st.name = "formatting";
            st.category = stageCategory(PrepStage::Formatting);
            DemandSet ds;
            for (auto *prep : preps)
                ds.add(prep->engine(), prep_share);
            st.demandsPerSample = ds.build();
            st.corruptionHops = corruptionBit(CorruptionKind::FpgaUpset);
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "data_load";
            st.category = stageCategory(PrepStage::DataLoad);
            st.demandsPerSample = deliver_demands(preps).build();
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError);
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(p2pSinkIntegrityStage());
        {
            StageTemplate st;
            st.name = "others";
            st.category = stageCategory(PrepStage::Others);
            DemandSet ds;
            ds.add(s.cpu->resource(), kP2pControlCpu);
            st.demandsPerSample = ds.build();
            st.rateCap = cpuCap(kP2pControlCpu);
            stages.push_back(std::move(st));
        }
        return stages;
    };

    // The prep-pool chain entering/leaving through @p preps' Ethernet.
    auto offload_chain = [&](const PrepVec &preps) {
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        const auto &pool = s.pool->fpgas();
        const double pool_share = 1.0 / static_cast<double>(pool.size());
        std::vector<StageTemplate> stages;
        {
            StageTemplate st;
            st.name = "ssd_read";
            st.category = stageCategory(PrepStage::SsdRead);
            DemandSet ds = fetch_demands(preps);
            ds.add(s.cpu->resource(), kP2pControlCpu);
            st.corruptionHops =
                corruptionBit(CorruptionKind::SsdBitFlip) |
                corruptionBit(CorruptionKind::PcieLinkError);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(engineIntegrityStage("integrity_src", preps));
        {
            StageTemplate st;
            st.name = "pool_send";
            st.category = "data_copy";
            DemandSet ds;
            for (auto *prep : preps)
                ds.add(prep->ethernetPort(), d.ssdBytes * prep_share);
            ds.add(s.pool->fabric(), d.ssdBytes);
            for (const auto &f : pool)
                ds.add(f.port, d.ssdBytes * pool_share);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "formatting";
            st.category = stageCategory(PrepStage::Formatting);
            DemandSet ds;
            for (const auto &f : pool)
                ds.add(f.engine, pool_share);
            st.demandsPerSample = ds.build();
            st.corruptionHops = corruptionBit(CorruptionKind::FpgaUpset);
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "pool_recv";
            st.category = "data_copy";
            DemandSet ds;
            for (const auto &f : pool)
                ds.add(f.port, d.preparedBytes * pool_share);
            ds.add(s.pool->fabric(), d.preparedBytes);
            for (auto *prep : preps)
                ds.add(prep->ethernetPort(),
                       d.preparedBytes * prep_share);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "data_load";
            st.category = stageCategory(PrepStage::DataLoad);
            st.demandsPerSample = deliver_demands(preps).build();
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError);
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(p2pSinkIntegrityStage());
        return stages;
    };

    // Host-memory fallback chain (P2P route lost): the box's data takes
    // the central presets' Step-1 staging path through host DRAM.
    auto host_chain = [&]() {
        const double prep_share =
            1.0 / static_cast<double>(all_preps.size());
        std::vector<StageTemplate> stages;
        {
            StageTemplate st;
            st.name = "ssd_read";
            st.category = stageCategory(PrepStage::SsdRead);
            DemandSet ds;
            for (auto *ssd : ssds) {
                ds.add(ssd->readDemand(d.ssdBytes * ssd_share).resource,
                       d.ssdBytes * ssd_share);
                ds.add(topo.hostRouteDemands(ssd->node(), false,
                                             d.ssdBytes * ssd_share));
            }
            ds.add(s.hostMem->resource(), d.ssdBytes);
            ds.add(s.cpu->resource(), kDmaSetupCpu);
            st.corruptionHops =
                corruptionBit(CorruptionKind::SsdBitFlip) |
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(hostIntegrityStage("integrity_src",
                                                d.ssdBytes, false));
        {
            StageTemplate st;
            st.name = "copy_to_prep";
            st.category = "data_copy";
            DemandSet ds;
            ds.add(s.hostMem->resource(), d.ssdBytes);
            ds.add(s.cpu->resource(), kDmaSetupCpu);
            for (auto *prep : all_preps)
                ds.add(topo.hostRouteDemands(prep->node(), true,
                                             d.ssdBytes * prep_share));
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "formatting";
            st.category = stageCategory(PrepStage::Formatting);
            DemandSet ds;
            for (auto *prep : all_preps)
                ds.add(prep->engine(), prep_share);
            st.demandsPerSample = ds.build();
            st.corruptionHops = corruptionBit(CorruptionKind::FpgaUpset);
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "copy_from_prep";
            st.category = "data_copy";
            DemandSet ds;
            ds.add(s.hostMem->resource(), d.preparedBytes);
            ds.add(s.cpu->resource(), kDmaSetupCpu);
            for (auto *prep : all_preps)
                ds.add(topo.hostRouteDemands(prep->node(), false,
                                             d.preparedBytes *
                                                 prep_share));
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        {
            StageTemplate st;
            st.name = "data_load";
            st.category = stageCategory(PrepStage::DataLoad);
            DemandSet ds;
            ds.add(s.hostMem->resource(), d.preparedBytes);
            ds.add(s.cpu->resource(), kDmaSetupCpu);
            for (auto *acc : accs)
                ds.add(topo.hostRouteDemands(acc->node(), true,
                                             d.preparedBytes * acc_share));
            st.corruptionHops =
                corruptionBit(CorruptionKind::PcieLinkError) |
                corruptionBit(CorruptionKind::HostDramFlip);
            st.demandsPerSample = ds.build();
            stages.push_back(std::move(st));
        }
        if (integrityOn())
            stages.push_back(hostIntegrityStage("integrity_sink",
                                                d.preparedBytes, false));
        return stages;
    };

    // --- Local chain --------------------------------------------------
    group.stages = local_chain(all_preps);

    // --- Recovery templates (exercised only under fault injection) ----
    group.hostPathStages = host_chain();
    if (all_preps.size() > 1) {
        const PrepVec survivors(all_preps.begin(), all_preps.end() - 1);
        group.degradedStages = local_chain(survivors);
    }

    // --- Offload chain (prep-pool) -------------------------------------
    // Built whenever the pool exists — even at offloadFraction 0 — so
    // crash failover can lend pool capacity to a degraded box.
    if (s.pool) {
        group.offloadFraction = s.plan.offloadFraction;
        group.offloadStages = offload_chain(all_preps);
        if (all_preps.size() > 1) {
            const PrepVec survivors(all_preps.begin(),
                                    all_preps.end() - 1);
            group.degradedOffloadStages = offload_chain(survivors);
        }
    }

    // --- Checkpoint drain path (base unit: one byte) -------------------
    // Clustered boxes drain through their FPGAs to their *own* SSDs over
    // the box switch — the write direction opposes the read direction on
    // the switch links and never crosses the RC, so checkpoint traffic
    // costs the prep path far less than in the central designs.
    {
        const double prep_share =
            1.0 / static_cast<double>(all_preps.size());
        StageTemplate st;
        st.name = "ckpt_write";
        st.category = "checkpoint";
        // Same byte-vs-sample weight normalization as the central path.
        st.fairWeight = d.ssdBytes;
        DemandSet ds;
        for (auto *ssd : ssds) {
            ds.add(ssd->writeDemand(ssd_share).resource, ssd_share);
            ds.add(ssd->writeReadInterference(ssd_share).resource,
                   ssd_share * NvmeSsd::kWriteReadInterference);
            for (auto *prep : all_preps)
                ds.add(topo.routeDemands(prep->node(), ssd->node(),
                                         ssd_share * prep_share));
        }
        st.demandsPerSample = ds.build();
        group.checkpointWrite = std::move(st);
    }

    // --- Ingest shard-append path (base unit: one sample) --------------
    // Arrivals land in host DRAM (the ingest buffer fills from the host
    // NIC), so unlike checkpoint drains the shard appends *do* cross the
    // RC — but they target the box's own SSDs, and each appended byte
    // pays the shard write amplification plus the write->read
    // interference that slows this box's prep fetches.
    if (cfg.ingest.enabled) {
        StageTemplate st;
        st.name = "ingest_write";
        st.category = "ingest";
        DemandSet ds;
        ds.add(s.hostMem->resource(), d.ssdBytes);
        ds.add(s.cpu->resource(),
               kDmaSetupCpu + d.ssdBytes * kCrcCpuPerByte);
        for (auto *ssd : ssds) {
            const FlowDemand wr =
                ssd->shardWriteDemand(d.ssdBytes * ssd_share);
            const FlowDemand rd =
                ssd->shardWriteReadInterference(d.ssdBytes * ssd_share);
            ds.add(wr.resource, wr.weight);
            ds.add(rd.resource, rd.weight);
            ds.add(topo.hostRouteDemands(ssd->node(), true,
                                         d.ssdBytes * ssd_share));
        }
        st.demandsPerSample = ds.build();
        group.ingestWrite = std::move(st);
    }

    s.groups.push_back(std::move(group));
}

} // namespace

Server::Server(const ServerConfig &config)
    : Server(config, static_cast<SimulationCore *>(nullptr), std::string())
{
}

Server::Server(const ServerConfig &config, SimulationCore &core,
               std::string resourcePrefix)
    : Server(config, &core, std::move(resourcePrefix))
{
}

Server::Server(const ServerConfig &config, SimulationCore *core,
               std::string resourcePrefix)
    : ownedCore_(core ? nullptr : std::make_unique<SimulationCore>()),
      core_(core ? *core : *ownedCore_),
      prefix_(std::move(resourcePrefix)),
      cfg(config),
      model(workload::model(config.model)),
      demand(workload::prepDemand(model.input)),
      plan(planPreparation(config)),
      metrics(core_.metrics())
{
    // Attach before any resource exists so every device the builder
    // creates gets a utilization history. A disabled registry leaves
    // the network on the exact uninstrumented path. On a shared core
    // the registry stays enabled once any attached server asks for it.
    if (cfg.metricsEnabled)
        metrics.enable(true);
    core_.fluid().attachMetrics(&metrics);
}

void
Server::resetAccounting()
{
    core_.fluid().resetAccounting(resBegin_, resEnd_);
}

void
Server::settleAccounting()
{
    core_.fluid().settleAccounting(resBegin_, resEnd_);
}

Time
Server::computeTime() const
{
    return workload::computeLatency(model, batchSize());
}

Time
Server::syncTime() const
{
    return sync::syncLatency(cfg.sync, cfg.numAccelerators,
                             model.modelBytes);
}

std::unique_ptr<Server>
buildServer(const ServerConfig &cfg)
{
    return buildServer(cfg, nullptr, std::string());
}

std::unique_ptr<Server>
buildServer(const ServerConfig &cfg, SimulationCore *core,
            const std::string &resourcePrefix)
{
    const std::string err = cfg.validate();
    fatal_if(!err.empty(), "invalid server config: %s", err.c_str());

    auto server = std::unique_ptr<Server>(
        new Server(cfg, core, resourcePrefix));
    FluidNetwork &net = server->core().fluid();

    // Namespace every resource this build creates under the server's
    // prefix, and remember the creation-order slice so per-server
    // accounting resets touch only this server's resources.
    net.setNamePrefix(server->resourcePrefix());
    server->resBegin_ = net.resources().size();

    server->topo = std::make_unique<pcie::Topology>(
        net, "pcie.rc", cfg.host.rcBandwidth);
    server->hostMem =
        std::make_unique<HostMemory>(net, cfg.host.memBandwidth);
    server->cpu = std::make_unique<CpuPool>(net, cfg.host.cpuCores);

    Builder builder(*server);
    if (presetUsesClustering(cfg.preset))
        builder.buildClustered();
    else
        builder.buildCentral();

    if (cfg.preset == ArchPreset::BaselineAccP2pGen4)
        server->topo->scaleLinkBandwidth(2.0);

    server->resEnd_ = net.resources().size();
    net.setNamePrefix(std::string());

    return server;
}

} // namespace tb
