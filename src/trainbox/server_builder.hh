/**
 * @file
 * Server assembly.
 *
 * buildServer() turns a ServerConfig into a fully wired simulation: the
 * PCIe tree with the preset's box structure, the host resources, the
 * device array, and — per prep group (one group == one 8-accelerator
 * box) — the chain of *stage templates* describing how a batch moves
 * through the machine under that preset. The TrainingSession executes the
 * templates as fluid flows.
 */

#ifndef TRAINBOX_TRAINBOX_SERVER_BUILDER_HH
#define TRAINBOX_TRAINBOX_SERVER_BUILDER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "devices/ethernet.hh"
#include "devices/prep_accelerator.hh"
#include "devices/ssd.hh"
#include "pcie/topology.hh"
#include "sim/metrics.hh"
#include "sim/simulation_core.hh"
#include "trainbox/server_config.hh"
#include "trainbox/train_initializer.hh"
#include "workload/cost_model.hh"

namespace tb {

/** A stage id no server hands out (StageTemplate's default). */
inline constexpr std::uint32_t kNoStage = ~std::uint32_t{0};

/** One serial step of a batch's journey (per prep group). */
struct StageTemplate
{
    /** Stage name for latency reporting ("ssd_read", "formatting", ...). */
    std::string name;

    /** Accounting category charged on every resource the stage touches. */
    std::string category;

    /** category's id in the server's fluid network, interned at build. */
    std::uint32_t categoryId = kNoCategory;

    /** name's index in Server::stageNames, assigned at build. */
    std::uint32_t stageId = kNoStage;

    /** Demands per sample (bytes, core-seconds, engine-samples...). */
    std::vector<FlowDemand> demandsPerSample;

    /** Absolute rate cap in samples/s (0 = uncapped). */
    double rateCap = 0.0;

    /** Fair-share weight (see FlowSpec::fairWeight). */
    double fairWeight = 1.0;

    /**
     * Corruption hop classes the chunk traverses in this stage
     * (corruptionBit() mask). Inert unless fault injection is enabled
     * with nonzero corruption probabilities.
     */
    unsigned corruptionHops = 0;

    /**
     * Completing this stage verifies the chunk's data: an inserted
     * checksum-verify stage, or the baseline CPU formatting stage whose
     * software decode inherently validates every byte. Silent flips
     * pending on the chain are detected here (training_session.cc).
     */
    bool verifiesIntegrity = false;

    /**
     * The flow running this stage over @p size base units. It views the
     * template's demands, which startFlow() copies.
     */
    FlowSpec flow(double size, std::function<void(Time)> onComplete) const
    {
        return {.category = categoryId, .size = size, .rateCap = rateCap,
                .fairWeight = fairWeight, .demands = demandsPerSample,
                .onComplete = std::move(onComplete)};
    }
};

/** A set of accelerators fed by one preparation pipeline. */
struct PrepGroup
{
    std::string name;

    /** Accelerators consuming this group's batches. */
    std::size_t numAccelerators = 0;

    /** Serial chain executed for the locally prepared fraction. */
    std::vector<StageTemplate> stages;

    /** Fraction of each batch prepared by the prep-pool (TrainBox). */
    double offloadFraction = 0.0;

    /** Serial chain for the offloaded fraction (runs in parallel). */
    std::vector<StageTemplate> offloadStages;

    /** Prep accelerators serving this group (builder-assigned order). */
    std::vector<PrepAccelerator *> preps;

    /**
     * Recovery-path templates (clustered presets; see
     * docs/ROBUSTNESS.md). The fault convention is that a prep-FPGA
     * crash kills preps.back(); the degraded chains stripe over the
     * survivors only. Empty when the group has no survivor (single
     * FPGA) — then only the prep-pool can absorb the load.
     */
    std::vector<StageTemplate> degradedStages;

    /** Offload chain avoiding the crashed FPGA's Ethernet port. */
    std::vector<StageTemplate> degradedOffloadStages;

    /**
     * Local chain staged through host memory — the fallback when the
     * switch-local P2P route is lost (route-loss faults).
     */
    std::vector<StageTemplate> hostPathStages;

    /**
     * Checkpoint drain path for this group's snapshot shard (base unit:
     * one byte). Clustered presets write to the box's own SSDs over the
     * box switch; central presets funnel through the RC to the SSD
     * boxes — contending with prep reads either way. Used only by the
     * Checkpointer; costs nothing when checkpointing is disabled.
     */
    StageTemplate checkpointWrite;

    /**
     * Ingest shard-append path for this group's dataset shards (base
     * unit: one *sample*, scaled by the model's per-sample SSD bytes).
     * Freshly arrived samples drain from the host-DRAM ingest buffer
     * onto the box's own SSDs (clustered) or through the RC to the SSD
     * boxes (central), paying the shard write-amplification and the
     * write→read interference that slows concurrent prep reads. Built
     * only when cfg.ingest.enabled; costs nothing otherwise.
     */
    StageTemplate ingestWrite;
};

/**
 * A fully assembled simulated server; only buildServer() makes one.
 *
 * A server is a *client* of a SimulationCore: the core owns the event
 * queue, clock, fluid network, and metrics registry; the server owns
 * the devices, topology, and stage templates wired onto them. Built
 * without a core, a server creates a private one (the historical
 * one-server-one-timeline shape, bit-identical to when the queue and
 * network were value members); built onto a shared core, N servers
 * simulate on one timeline (see docs/FLEET.md).
 */
class Server
{
    // The core (owned or borrowed) must precede the public reference
    // members below: member initialization follows declaration order,
    // and the references bind into the core.
    std::unique_ptr<SimulationCore> ownedCore_;
    SimulationCore &core_;
    std::string prefix_;

  public:
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    ServerConfig cfg;
    workload::ModelInfo model;
    workload::PrepDemand demand;
    PrepPlan plan;

    /** The simulation core this server is wired onto. */
    SimulationCore &core() const { return core_; }

    /** Prefix on this server's fluid-resource and session-metric names. */
    const std::string &resourcePrefix() const { return prefix_; }

    /**
     * Reset served/utilization accounting on this server's slice of
     * the fluid network only (the creation-order range captured during
     * build). For a standalone server the slice is the whole network,
     * so this matches the historical global reset exactly.
     */
    void resetAccounting();

    /**
     * Charge this server's in-flight flows up to now, so its served
     * totals are exact at the current time whatever co-resident
     * servers did last (FluidNetwork::settleAccounting).
     */
    void settleAccounting();

    /** This server's slice of core().fluid().resources(). */
    std::span<const std::unique_ptr<FluidResource>> resources() const;

    /**
     * Observability instruments (docs/OBSERVABILITY.md), owned by the
     * core and shared by every server on it. Enabled iff any attached
     * server sets cfg.metricsEnabled; while disabled it holds no
     * instruments and nothing in the simulation touches it.
     */
    MetricsRegistry &metrics;

    std::unique_ptr<pcie::Topology> topo;

    /**
     * Host DRAM bandwidth (bytes/s), one server for every staging copy
     * through the host: the SSD -> DRAM DMA write, the CPU's read and
     * write passes while formatting, the DRAM -> accelerator DMA read.
     * Its per-category accounting gives the "Memory BW" columns of
     * Figs 10b/11/22.
     */
    FluidResource *hostMem = nullptr;

    /**
     * The host's CPU cores (core-seconds per second). A prep task is a
     * flow of samples demanding its calibrated core-seconds per sample.
     * Its parallelism limit, a software pipeline of kMaxPrepParallelism
     * cores, is its stage's rate cap (server_builder.cc). Its
     * per-category accounting gives the "CPU" columns of Figs 10a/11/22.
     */
    FluidResource *cpu = nullptr;

    std::vector<std::unique_ptr<NvmeSsd>> ssds;
    std::vector<std::unique_ptr<PrepAccelerator>> preps;
    std::unique_ptr<PrepPool> pool;

    std::vector<PrepGroup> groups;

    /** Every template's stage name, indexed by StageTemplate::stageId. */
    std::vector<std::string> stageNames;

    /** The id of stage @p name, or kNoStage when no template has it. */
    std::uint32_t stageId(std::string_view name) const;

    /** Per-accelerator batch size actually used. */
    std::size_t batchSize() const { return cfg.effectiveBatchSize(); }

    /** Compute time of one batch on one accelerator. */
    Time computeTime() const;

    /** Ring-sync time across all accelerators. */
    Time syncTime() const;

    /** What this server's fault windows can strike. */
    FaultTargets faultTargets() const;

  private:
    friend std::unique_ptr<Server> buildServer(const ServerConfig &,
                                               SimulationCore *,
                                               const std::string &);

    /**
     * Server on @p core (nullptr = a private core). Every fluid
     * resource the builder creates is namespaced under @p
     * resourcePrefix ("job0." ...); pass "" only when no other server
     * shares the core.
     */
    Server(const ServerConfig &cfg, SimulationCore *core,
           std::string resourcePrefix);

    /** This server's [begin, end) slice of core().fluid().resources(). */
    std::size_t resBegin_ = 0;
    std::size_t resEnd_ = 0;
};

/** Build a standalone server (private core). fatal()s when invalid. */
std::unique_ptr<Server> buildServer(const ServerConfig &cfg);

/**
 * Build a server onto a shared @p core (nullptr = private core), with
 * its fluid resources namespaced under @p resourcePrefix.
 */
std::unique_ptr<Server> buildServer(const ServerConfig &cfg,
                                    SimulationCore *core,
                                    const std::string &resourcePrefix);

} // namespace tb

#endif // TRAINBOX_TRAINBOX_SERVER_BUILDER_HH
