/**
 * @file
 * Server architecture presets and configuration.
 *
 * The presets mirror the paper's evaluation series (Fig 19/21/22):
 *
 *   Baseline          — Fig 12: CPU data preparation, staging in host DRAM
 *   BaselineAccFpga   — Fig 13: + FPGA prep boxes (Step 1)
 *   BaselineAccGpu    — Step 1 with GPUs instead of FPGAs (Fig 21 series)
 *   BaselineAccP2p    — Fig 14: + peer-to-peer DMA, host DRAM bypassed
 *                       (Step 2; traffic still funnels through the RC)
 *   BaselineAccP2pGen4— Step 2 with doubled PCIe bandwidth
 *   TrainBoxNoPool    — Fig 15 without the Ethernet prep-pool
 *   TrainBox          — the full design (Steps 1+2+3 + prep-pool)
 */

#ifndef TRAINBOX_TRAINBOX_SERVER_CONFIG_HH
#define TRAINBOX_TRAINBOX_SERVER_CONFIG_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/elastic_schedule.hh"
#include "sim/fault_injector.hh"
#include "sim/ingest.hh"
#include "sync/sync_model.hh"
#include "trainbox/checkpoint.hh"
#include "workload/model_zoo.hh"

namespace tb {

/** Architecture variant under evaluation. */
enum class ArchPreset
{
    Baseline,
    BaselineAccFpga,
    BaselineAccGpu,
    BaselineAccP2p,
    BaselineAccP2pGen4,
    TrainBoxNoPool,
    TrainBox,
};

/** Short display name ("B", "B+Acc", ..., "TrainBox"). */
const char *presetName(ArchPreset p);

/** Command-line key ("baseline", "acc", ..., "trainbox"). */
const char *presetKey(ArchPreset p);

/** Parse a presetKey() back to its preset; false on no match. */
bool parsePresetKey(const std::string &key, ArchPreset &out);

/** Long description of the preset. */
const char *presetDescription(ArchPreset p);

/** All presets in Fig 19 order (GPU variant last). */
const std::vector<ArchPreset> &allPresets();

/** True when data preparation runs on offload engines (not host CPUs). */
bool presetUsesPrepAccelerators(ArchPreset p);

/** True when transfers bypass host DRAM (Step 2 applied). */
bool presetUsesP2p(ArchPreset p);

/** True when devices are clustered into train boxes (Step 3 applied). */
bool presetUsesClustering(ArchPreset p);

/** Host-side resource capacities (DGX-2-class reference, §III-B/C). */
struct HostConfig
{
    /** Two-socket Xeon: 48 physical cores. */
    double cpuCores = 48.0;

    /** DGX-2 DRAM bandwidth: 239 GB/s. */
    Rate memBandwidth = 239.0e9;

    /** Effective aggregate PCIe root-complex bandwidth. */
    Rate rcBandwidth = 64.0e9;
};

// Host CPU control costs (core-sec/sample), charged by the server
// builder's stages and by the host-demand profile alike.

/** Programming one staged DMA. */
constexpr double kDmaSetupCpu = 1.0e-5;

/** Controlling a sample whose datapath the devices run (P2P). */
constexpr double kP2pControlCpu = 5.0e-6;

/** NN accelerators per train box (DGX-2 / Supermicro style). */
constexpr std::size_t kAccPerBox = 8;

/** NVMe SSDs per train box. */
constexpr std::size_t kSsdsPerBox = 2;

/** SSDs per dedicated SSD box (non-clustered presets). */
constexpr std::size_t kSsdsPerSsdBox = 4;

/** Train boxes that @p accs accelerators fill: ceil(accs / kAccPerBox). */
std::size_t boxCount(std::size_t accs);

/** PCIe sub-switches of a box of @p accs accelerators, 4 each (Fig 18). */
std::size_t subSwitchCount(std::size_t accs);

/** Physical structure of a train box (§V-D, Fig 18). */
struct BoxConfig
{
    /** Prep FPGAs per full box, half on each sub-switch (1 per 4 accs). */
    std::size_t prepPerBox = 2;

    /**
     * Prep FPGAs in one box of @p accs (1 to kAccPerBox) accelerators:
     * prepPerBox / 2 per sub-switch, and at least one.
     */
    std::size_t boxFpgas(std::size_t accs) const;
};

/**
 * Everything needed to instantiate a simulated server.
 *
 * Two construction styles are supported. Named constructors plus
 * fluent chainable setters are the preferred API:
 *
 *   auto cfg = ServerConfig::trainBox()
 *                  .withModel("Resnet-50")
 *                  .withAccelerators(256)
 *                  .withMetrics();
 *
 * Direct field access keeps working for existing code and for knobs
 * without a dedicated setter.
 */
struct ServerConfig
{
    ArchPreset preset = ArchPreset::TrainBox;
    workload::ModelId model = workload::ModelId::Resnet50;

    /** Number of NN accelerators (the paper's target scale is 256). */
    std::size_t numAccelerators = 256;

    /** Per-accelerator batch size; 0 = the model's Table I batch. */
    std::size_t batchSize = 0;

    HostConfig host;
    BoxConfig box;
    sync::SyncConfig sync;

    /** Batches in flight per prep group (next-batch prefetch >= 2). */
    std::size_t prefetchDepth = 4;

    /**
     * Prep-pool FPGAs of a TrainBox server (no other preset has a
     * pool). Negative = let the train initializer size the pool;
     * 0 = no pool; positive = fixed pool size.
     */
    int prepPoolFpgas = -1;

    /**
     * Fault-injection scenario + recovery policy (docs/ROBUSTNESS.md).
     * Disabled by default; when disabled the session takes exactly the
     * fault-free path (results are bit-identical to a build without
     * the fault subsystem).
     */
    FaultConfig faults;

    /**
     * Periodic checkpoint/restore scenario (docs/ROBUSTNESS.md,
     * "Checkpoint & restore"). Disabled by default; when disabled the
     * session takes exactly the checkpoint-free path (results are
     * bit-identical to a build without the subsystem).
     */
    CheckpointConfig checkpoint;

    /**
     * Elastic-capacity scenario: planned drains, spot-style
     * preemptions, and mid-session joins of train-box groups and prep
     * FPGAs (docs/ROBUSTNESS.md, "Elastic capacity & graceful
     * degradation"). Disabled by default; when disabled the session
     * takes exactly the fixed-membership path (results are
     * bit-identical to a build without the subsystem).
     */
    ElasticityConfig elasticity;

    /**
     * Streaming-ingest scenario: continuous sample arrival into a
     * bounded host-DRAM buffer, shard writes contending with training
     * reads, and the overload policy chain
     * (docs/ROBUSTNESS.md, "Streaming ingest & overload"). Disabled by
     * default; when disabled the session takes exactly the
     * resident-dataset path (results are bit-identical to a build
     * without the subsystem).
     */
    IngestConfig ingest;

    /**
     * Record metrics during the run: per-resource utilization
     * histograms in the fluid solver plus session compute/sync busy
     * counters, surfaced through SessionReport (docs/OBSERVABILITY.md).
     * Off by default; when off no instrument is ever allocated and the
     * simulation is bit-identical to a build without the subsystem.
     */
    bool metricsEnabled = false;

    // --- named constructors (paper's evaluation series) --------------

    /** A config for architecture preset @p p (defaults elsewhere). */
    static ServerConfig forPreset(ArchPreset p);

    /** Fig 12 baseline: CPU prep, host-DRAM staging. */
    static ServerConfig baseline();

    /** Steps 1-2 (Fig 14): FPGA prep + peer-to-peer DMA. */
    static ServerConfig p2p();

    /** Step 3 without the Ethernet prep-pool (Fig 15 minus pool). */
    static ServerConfig clustered();

    /** The full design: clustered train boxes + prep-pool (Fig 15). */
    static ServerConfig trainBox();

    // --- fluent chainable setters ------------------------------------

    ServerConfig &withPreset(ArchPreset p);
    ServerConfig &withModel(workload::ModelId id);
    /** Look the model up by its Table I name (fatal on unknown). */
    ServerConfig &withModel(const std::string &name);
    ServerConfig &withAccelerators(std::size_t n);
    ServerConfig &withBatchSize(std::size_t batch);
    ServerConfig &withPrefetchDepth(std::size_t depth);
    ServerConfig &withPrepPoolFpgas(int fpgas);
    ServerConfig &withElasticity(const ElasticityConfig &e);
    ServerConfig &withIngest(const IngestConfig &i);
    ServerConfig &withMetrics(bool on = true);

    /** Resolved per-accelerator batch size. */
    std::size_t effectiveBatchSize() const;

    /**
     * Sanity-check the configuration. Returns an empty string when the
     * config is buildable, else a description of the first problem
     * found. ServerBuilder fatal()s on a non-empty result; callers
     * constructing configs programmatically can check ahead of time.
     */
    std::string validate() const;
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_SERVER_CONFIG_HH
