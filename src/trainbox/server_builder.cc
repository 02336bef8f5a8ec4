#include "trainbox/server_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace tb {

using workload::PrepStage;
using workload::stageCategory;

namespace {

/** Max CPU cores one batch's prep may use at once (sw pipelining). */
constexpr double kMaxPrepParallelism = 48.0;

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

/** Corruption hops of a PCIe transfer and of a pass through host DRAM. */
constexpr unsigned kPcieHop = corruptionBit(CorruptionKind::PcieLinkError);
constexpr unsigned kDramHop = corruptionBit(CorruptionKind::HostDramFlip);

using PrepVec = std::vector<PrepAccelerator *>;

/** Each of @p n devices' share of a transfer striped over them. */
double
share(std::size_t n)
{
    return 1.0 / static_cast<double>(n);
}

/**
 * How a chain moves a sample between the SSDs, the formatting engines
 * and the accelerators (the paper's §IV steps).
 */
enum class Path
{
    Host, ///< staged through host DRAM (Baseline, Acc; route-loss fallback)
    P2p,  ///< SSD -> engine -> accelerator directly (P2P, train boxes)
    Pool, ///< P2P in the box, formatting on the Ethernet prep pool
};

/** What sets one prep chain apart from another. */
struct ChainSpec
{
    Path path = Path::P2p;

    /**
     * Host CPU per sample of a staged SSD read. The central presets
     * charge Table I's read cost; the clustered route-loss fallback
     * charges one DMA setup.
     */
    double stagedReadCpu = 0.0;

    /**
     * Host CPU per sample of a P2P data load. The central presets
     * charge P2P control; the clustered ones charge none.
     */
    double p2pLoadCpu = 0.0;

    /** End with the framework-overhead `others` stage. */
    bool others = true;
};

/** Shared state while assembling one server. */
struct Builder
{
    Server &s;
    const ServerConfig &cfg;
    const workload::PrepDemand &d;
    pcie::Topology &topo;

    std::size_t nAcc;
    std::size_t nGroups;
    Rate engineRate;

    /** Per-group device assignments (accelerators as PCIe leaves). */
    std::vector<std::vector<pcie::NodeId>> groupAccs;
    std::vector<PrepVec> groupPreps;
    std::vector<std::vector<NvmeSsd *>> groupSsds;

    /** Every template's demands, keyed from the server's first resource. */
    DemandSet ds;

    Builder(Server &server, std::size_t firstResource)
        : s(server), cfg(server.cfg), d(server.demand), topo(*server.topo),
          ds(static_cast<std::uint32_t>(firstResource))
    {
        nAcc = cfg.numAccelerators;
        nGroups = boxCount(nAcc);
        engineRate = prepEngineRate(cfg.preset, d);
        groupAccs.resize(nGroups);
        groupPreps.resize(nGroups);
        groupSsds.resize(nGroups);
    }

    /**
     * A stage with no demands yet. Its name and category are interned
     * here, so starting its flows looks nothing up.
     */
    StageTemplate
    stage(std::string name, std::string category, unsigned hops = 0)
    {
        StageTemplate st;
        st.stageId = s.stageId(name);
        if (st.stageId == kNoStage) {
            st.stageId = static_cast<std::uint32_t>(s.stageNames.size());
            s.stageNames.push_back(name);
        }
        st.categoryId = s.core().fluid().internCategory(category);
        st.name = std::move(name);
        st.category = std::move(category);
        st.corruptionHops = hops;
        return st;
    }

    /** One of Table I's stages (named after its category). */
    StageTemplate
    stage(PrepStage ps, unsigned hops = 0)
    {
        return stage(stageCategory(ps), stageCategory(ps), hops);
    }

    double stageCpu(PrepStage st) const
    {
        auto it = d.cpuByStage.find(st);
        return it == d.cpuByStage.end() ? 0.0 : it->second;
    }

    double stageMem(PrepStage st) const
    {
        auto it = d.memByStage.find(st);
        return it == d.memByStage.end() ? 0.0 : it->second;
    }

    double
    cpuCap(double core_sec) const
    {
        return core_sec > 0.0
            ? kMaxPrepParallelism / core_sec : 0.0;
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
    engineIntegrityStage(const PrepVec &preps)
    {
        StageTemplate st = stage("integrity_src", "integrity");
        st.verifiesIntegrity = true;
        for (auto *prep : preps)
            ds.add(prep->engine(), share(preps.size()) * kIntegrityEngineTax);
        ds.add(s.cpu, kP2pControlCpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Checksum stage run by the host CPU over @p bytes per sample. */
    StageTemplate
    hostIntegrityStage(const char *name, double bytes,
                       bool fairCpu)
    {
        StageTemplate st = stage(name, "integrity");
        st.verifiesIntegrity = true;
        const double cpu = bytes * kCrcCpuPerByte;
        ds.add(s.cpu, cpu);
        ds.add(s.hostMem, bytes);
        st.demandsPerSample = ds.build();
        if (fairCpu) {
            st.rateCap = cpuCap(cpu);
            st.fairWeight = cpuFair(cpu);
        }
        return st;
    }

    /** Accelerator-ingest verify on P2P delivery (control CPU only). */
    StageTemplate
    p2pSinkIntegrityStage()
    {
        StageTemplate st = stage("integrity_sink", "integrity");
        st.verifiesIntegrity = true;
        ds.add(s.cpu, kP2pControlCpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /**
     * SSD read striped over group @p g's SSDs: P2P into @p preps (the
     * P2P handler on the FPGA), or staged into host DRAM.
     */
    StageTemplate
    ssdRead(std::size_t g, const PrepVec &preps, bool p2p,
            double cpu)
    {
        const auto &ssds = groupSsds[g];
        StageTemplate st = stage(
            PrepStage::SsdRead,
            corruptionBit(CorruptionKind::SsdBitFlip) | kPcieHop);
        for (auto *ssd : ssds) {
            const double bytes = d.ssdBytes * share(ssds.size());
            ds.add(ssd->readDemand(bytes).resource, bytes);
            if (p2p) {
                for (auto *prep : preps)
                    topo.addRoute(ds, ssd->node(), prep->node(),
                                  bytes * share(preps.size()));
            } else {
                topo.addHostRoute(ds, ssd->node(), false, bytes);
            }
        }
        if (!p2p) {
            ds.add(s.hostMem, d.ssdBytes);
            st.corruptionHops |= kDramHop;
        }
        ds.add(s.cpu, cpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Staged copy of @p bytes between host DRAM and @p preps. */
    StageTemplate
    hostCopy(const char *name, double bytes, const PrepVec &preps,
             bool toPreps)
    {
        StageTemplate st = stage(name, "data_copy", kPcieHop | kDramHop);
        ds.add(s.hostMem, bytes);
        ds.add(s.cpu, kDmaSetupCpu);
        for (auto *prep : preps)
            topo.addHostRoute(ds, prep->node(), toPreps,
                              bytes * share(preps.size()));
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Ethernet hop of @p bytes between @p preps and the prep pool. */
    StageTemplate
    poolHop(const char *name, double bytes, const PrepVec &preps)
    {
        const auto &pool = s.pool->fpgas();
        StageTemplate st = stage(name, "data_copy");
        for (auto *prep : preps)
            ds.add(prep->ethernetPort(), bytes * share(preps.size()));
        ds.add(s.pool->fabric(), bytes);
        for (const auto &f : pool)
            ds.add(f.port, bytes * share(pool.size()));
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Formatting + augmentation striped over @p preps or the pool. */
    StageTemplate
    engineFormatting(const PrepVec &preps, bool onPool)
    {
        StageTemplate st = stage(PrepStage::Formatting,
                                 corruptionBit(CorruptionKind::FpgaUpset));
        if (onPool) {
            const auto &pool = s.pool->fpgas();
            for (const auto &f : pool)
                ds.add(f.engine, share(pool.size()));
        } else {
            for (auto *prep : preps)
                ds.add(prep->engine(), share(preps.size()));
        }
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Baseline stage @p ps run by the host CPU out of host DRAM. */
    StageTemplate
    cpuStage(PrepStage ps)
    {
        StageTemplate st = stage(ps, kDramHop);
        ds.add(s.cpu, stageCpu(ps));
        ds.add(s.hostMem, stageMem(ps));
        st.demandsPerSample = ds.build();
        st.rateCap = cpuCap(stageCpu(ps));
        st.fairWeight = cpuFair(stageCpu(ps));
        return st;
    }

    /**
     * Delivery into group @p g's accelerators: P2P from @p preps, or
     * staged from host DRAM. A zero @p cpu adds no CPU demand.
     */
    StageTemplate
    dataLoad(std::size_t g, const PrepVec &preps, bool p2p,
             double cpu)
    {
        const auto &accs = groupAccs[g];
        StageTemplate st = stage(PrepStage::DataLoad, kPcieHop);
        if (p2p) {
            for (auto *prep : preps)
                for (pcie::NodeId acc : accs)
                    topo.addRoute(ds, prep->node(), acc,
                                  d.preparedBytes * share(preps.size()) *
                                      share(accs.size()));
        } else {
            ds.add(s.hostMem, d.preparedBytes);
            for (pcie::NodeId acc : accs)
                topo.addHostRoute(ds, acc, true,
                                  d.preparedBytes * share(accs.size()));
            st.corruptionHops |= kDramHop;
        }
        ds.add(s.cpu, cpu);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Framework overheads on the host CPU. */
    StageTemplate
    othersStage(double cpu, bool fairCpu)
    {
        StageTemplate st = stage(PrepStage::Others);
        ds.add(s.cpu, cpu);
        st.demandsPerSample = ds.build();
        st.rateCap = cpuCap(cpu);
        if (fairCpu)
            st.fairWeight = cpuFair(cpu);
        return st;
    }

    /**
     * The one chain shape: ssd_read -> [integrity_src] -> [copy_to_prep
     * | pool_send] -> formatting -> [copy_from_prep | pool_recv] ->
     * data_load -> [integrity_sink] -> [others]. With no @p preps the
     * host CPU formats (Baseline) in two stages, formatting and
     * augmentation.
     */
    std::vector<StageTemplate> chain(std::size_t g, const PrepVec &preps,
                                     const ChainSpec &c);

    /** Checkpoint drain into group @p g's SSDs (base unit: one byte). */
    StageTemplate checkpointWrite(std::size_t g);

    /** Ingest shard append into group @p g's SSDs (unit: one sample). */
    StageTemplate ingestWrite(std::size_t g);

    /**
     * Group @p g with its devices and its checkpoint and ingest writes;
     * the caller adds the prep chains.
     */
    PrepGroup newGroup(const char *prefix, std::size_t g);

    /** Build the non-clustered presets (Figs 12-14 + Gen4 + GPU). */
    void buildCentral();

    /** Build the clustered presets (Fig 15). */
    void buildClustered();

    void makeCentralStages(std::size_t g);
    void makeClusteredStages(std::size_t g);
};

std::vector<StageTemplate>
Builder::chain(std::size_t g, const PrepVec &preps,
               const ChainSpec &c)
{
    const bool staged = c.path == Path::Host;
    const bool onPool = c.path == Path::Pool;
    const bool onCpu = preps.empty();
    std::vector<StageTemplate> out;

    out.push_back(ssdRead(g, preps, !staged,
                          staged ? c.stagedReadCpu : kP2pControlCpu));
    if (onCpu)
        out.back().fairWeight = cpuFair(c.stagedReadCpu);
    if (integrityOn())
        out.push_back(staged ? hostIntegrityStage("integrity_src",
                                                  d.ssdBytes, onCpu)
                             : engineIntegrityStage(preps));

    if (onCpu) {
        // CPU decode touches every byte: the framework loader's
        // software validation catches silent flips here (the
        // protection the P2P path gives up).
        out.push_back(cpuStage(PrepStage::Formatting));
        out.back().verifiesIntegrity = true;
        out.push_back(cpuStage(PrepStage::Augmentation));
    } else {
        if (staged)
            out.push_back(hostCopy("copy_to_prep", d.ssdBytes, preps, true));
        if (onPool)
            out.push_back(poolHop("pool_send", d.ssdBytes, preps));
        out.push_back(engineFormatting(preps, onPool));
        if (onPool)
            out.push_back(poolHop("pool_recv", d.preparedBytes, preps));
        if (staged)
            out.push_back(hostCopy("copy_from_prep", d.preparedBytes, preps,
                                   false));
    }

    const double load_cpu = !staged ? c.p2pLoadCpu
        : onCpu ? stageCpu(PrepStage::DataLoad) : kDmaSetupCpu;
    out.push_back(dataLoad(g, preps, !staged, load_cpu));
    if (onCpu) {
        out.back().rateCap = cpuCap(load_cpu);
        out.back().fairWeight = cpuFair(load_cpu);
    }
    if (integrityOn())
        out.push_back(staged ? hostIntegrityStage("integrity_sink",
                                                  d.preparedBytes, onCpu)
                             : p2pSinkIntegrityStage());

    if (c.others)
        out.push_back(othersStage(
            staged ? stageCpu(PrepStage::Others) : kP2pControlCpu, onCpu));
    return out;
}

StageTemplate
Builder::checkpointWrite(std::size_t g)
{
    // Central presets stage the snapshot through host DRAM and funnel
    // it through the RC to the shared SSD boxes — the same RC the prep
    // reads cross, so a drain directly steals prep bandwidth. Clustered
    // boxes drain through their FPGAs to their *own* SSDs over the box
    // switch — the write direction opposes the read direction on the
    // switch links and never crosses the RC, so checkpoint traffic
    // costs the prep path far less than in the central designs.
    const bool central = !presetUsesClustering(cfg.preset);
    const auto &ssds = groupSsds[g];
    const auto &preps = groupPreps[g];
    const double ssd_share = share(ssds.size());
    StageTemplate st = stage("ckpt_write", "checkpoint");
    // The drain flows in bytes while prep flows in samples; under
    // progressive filling a frozen flow's rate is level*weight, so
    // weight by one sample's bytes to give the drain the fair share
    // of one prep stream on every contended resource.
    st.fairWeight = d.ssdBytes;
    if (central) {
        ds.add(s.hostMem, 1.0);
        ds.add(s.cpu, kCkptSerializeCpu);
    }
    for (auto *ssd : ssds) {
        ds.add(ssd->writeDemand(ssd_share).resource, ssd_share);
        ds.add(ssd->writeReadInterference(ssd_share).resource,
               ssd_share * NvmeSsd::kWriteReadInterference);
        if (central) {
            topo.addHostRoute(ds, ssd->node(), true, ssd_share);
        } else {
            for (auto *prep : preps)
                topo.addRoute(ds, prep->node(), ssd->node(),
                              ssd_share * share(preps.size()));
        }
    }
    st.demandsPerSample = ds.build();
    return st;
}

StageTemplate
Builder::ingestWrite(std::size_t g)
{
    // Arrivals land in host DRAM (the ingest buffer fills from the host
    // NIC) and cross the RC to the group's SSDs: the shared SSD boxes
    // on central presets, the box's own SSDs when clustered. Every
    // appended byte pays the shard write amplification plus the
    // write->read interference that slows the prep reads of the same
    // SSDs.
    const auto &ssds = groupSsds[g];
    const double bytes = d.ssdBytes * share(ssds.size());
    StageTemplate st = stage("ingest_write", "ingest");
    ds.add(s.hostMem, d.ssdBytes);
    ds.add(s.cpu, kDmaSetupCpu + d.ssdBytes * kCrcCpuPerByte);
    for (auto *ssd : ssds) {
        const FlowDemand wr = ssd->shardWriteDemand(bytes);
        const FlowDemand rd = ssd->shardWriteReadInterference(bytes);
        ds.add(wr.resource, wr.weight);
        ds.add(rd.resource, rd.weight);
        topo.addHostRoute(ds, ssd->node(), true, bytes);
    }
    st.demandsPerSample = ds.build();
    return st;
}

PrepGroup
Builder::newGroup(const char *prefix, std::size_t g)
{
    PrepGroup group;
    group.name = prefix + std::to_string(g);
    group.numAccelerators = groupAccs[g].size();
    group.preps = groupPreps[g];
    group.checkpointWrite = checkpointWrite(g);
    if (cfg.ingest.enabled)
        group.ingestWrite = ingestWrite(g);
    return group;
}

void
Builder::buildCentral()
{
    // Accelerator boxes: one 8-accelerator box per group.
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "accbox" + std::to_string(g);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        const std::size_t count =
            std::min(kAccPerBox, nAcc - g * kAccPerBox);
        for (std::size_t i = 0; i < count; ++i)
            groupAccs[g].push_back(topo.addDevice(
                box + ".acc" + std::to_string(i), sw, pcie::gen::gen3x16));
    }

    // SSD boxes: same aggregate SSD count as the clustered design.
    const std::size_t n_ssd = nGroups * kSsdsPerBox;
    const std::size_t n_ssd_boxes = divCeil(n_ssd, kSsdsPerSsdBox);
    for (std::size_t b = 0; b < n_ssd_boxes; ++b) {
        const std::string box = "ssdbox" + std::to_string(b);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        for (std::size_t i = 0;
             i < kSsdsPerSsdBox && s.ssds.size() < n_ssd; ++i) {
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
        pcie::NodeId sw = pcie::kInvalidNode;
        for (std::size_t i = 0; i < n_prep; ++i) {
            if (i % 8 == 0) {
                const std::string box =
                    "prepbox" + std::to_string(i / 8);
                sw = topo.addSwitch(box, topo.root(),
                                    pcie::gen::gen3x16);
            }
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, "prep" + std::to_string(i), sw,
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
    PrepGroup group = newGroup("group", g);
    group.stages = chain(
        g, groupPreps[g],
        {.path = presetUsesP2p(cfg.preset) ? Path::P2p : Path::Host,
         .stagedReadCpu = stageCpu(PrepStage::SsdRead),
         .p2pLoadCpu = kP2pControlCpu});
    s.groups.push_back(std::move(group));
}

void
Builder::buildClustered()
{
    // Train boxes: top switch with two sub-switches (4 accs + 1 FPGA
    // each) and the box's SSDs (§V-D / Fig 18).
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "tbox" + std::to_string(g);
        const pcie::NodeId top =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);

        const std::size_t count =
            std::min(kAccPerBox, nAcc - g * kAccPerBox);
        const std::size_t n_sub = subSwitchCount(count);
        std::vector<pcie::NodeId> subs;
        for (std::size_t i = 0; i < n_sub; ++i)
            subs.push_back(topo.addSwitch(
                box + ".sw" + std::to_string(i), top,
                pcie::gen::gen3x16));

        for (std::size_t i = 0; i < count; ++i)
            groupAccs[g].push_back(topo.addDevice(
                box + ".acc" + std::to_string(i), subs[i % n_sub],
                pcie::gen::gen3x16));
        for (std::size_t i = 0; i < cfg.box.boxFpgas(count); ++i) {
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, box + ".fpga" + std::to_string(i),
                subs[i % n_sub], engineRate, /*withEthernet=*/true));
            groupPreps[g].push_back(s.preps.back().get());
        }
        for (std::size_t i = 0; i < kSsdsPerBox; ++i) {
            s.ssds.push_back(std::make_unique<NvmeSsd>(
                s.core().fluid(), topo, box + ".ssd" + std::to_string(i), top));
            groupSsds[g].push_back(s.ssds.back().get());
        }
    }

    // Prep-pool over Ethernet.
    const std::size_t pool_size = prepPoolSize(cfg);
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
    PrepGroup group = newGroup("tbox", g);
    const PrepVec &preps = groupPreps[g];
    // A prep-FPGA crash kills preps.back(); the survivors stripe the
    // degraded chains.
    const PrepVec survivors(preps.begin(), preps.end() - 1);

    group.stages = chain(g, preps, {.path = Path::P2p});

    // --- Recovery templates (exercised only under fault injection) ----
    // Route loss: the box's data takes the central presets' Step-1
    // staging path through host DRAM.
    group.hostPathStages = chain(
        g, preps,
        {.path = Path::Host, .stagedReadCpu = kDmaSetupCpu, .others = false});
    if (!survivors.empty())
        group.degradedStages = chain(g, survivors, {.path = Path::P2p});

    // --- Offload chain (prep-pool) -------------------------------------
    // Built whenever the pool exists — even at offloadFraction 0 — so
    // crash failover can lend pool capacity to a degraded box.
    if (s.pool) {
        group.offloadFraction = s.plan.offloadFraction;
        group.offloadStages =
            chain(g, preps, {.path = Path::Pool, .others = false});
        if (!survivors.empty())
            group.degradedOffloadStages =
                chain(g, survivors, {.path = Path::Pool, .others = false});
    }
    s.groups.push_back(std::move(group));
}

} // namespace

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

FaultTargets
Server::faultTargets() const
{
    FaultTargets targets;
    targets.numSsds = ssds.size();
    targets.pool = pool != nullptr;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (!groups[g].preps.empty())
            targets.prepGroups.push_back(g);
        if (!groups[g].hostPathStages.empty())
            targets.hostPathGroups.push_back(g);
    }
    return targets;
}

std::uint32_t
Server::stageId(std::string_view name) const
{
    for (std::size_t i = 0; i < stageNames.size(); ++i)
        if (stageNames[i] == name)
            return static_cast<std::uint32_t>(i);
    return kNoStage;
}

std::span<const std::unique_ptr<FluidResource>>
Server::resources() const
{
    return std::span(core_.fluid().resources())
        .subspan(resBegin_, resEnd_ - resBegin_);
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
    server->hostMem = net.addResource("host.dram", cfg.host.memBandwidth);
    server->cpu = net.addResource("host.cpu", cfg.host.cpuCores);

    Builder builder(*server, server->resBegin_);
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
