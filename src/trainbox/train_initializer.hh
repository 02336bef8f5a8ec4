/**
 * @file
 * Train initializer (§V-A).
 *
 * Before training starts, the initializer measures the per-batch execution
 * time of the model (here: the calibrated compute + sync models), derives
 * the preparation throughput the accelerators must be fed, and — when the
 * in-box FPGAs cannot keep up — sizes an allocation from the prep-pool by
 * dividing the shortfall by the per-FPGA pool throughput.
 *
 * The server builder, the elastic re-plan, the rack planner and the
 * fleet take the engine rates, the plan and the pool size from here.
 */

#ifndef TRAINBOX_TRAINBOX_TRAIN_INITIALIZER_HH
#define TRAINBOX_TRAINBOX_TRAIN_INITIALIZER_HH

#include <cstddef>

#include "devices/prep_accelerator.hh"
#include "trainbox/server_config.hh"
#include "workload/cost_model.hh"

namespace tb {

/** Prep engines preset @p p installs: GPUs on BaselineAccGpu, else FPGAs. */
PrepEngineKind prepEngineKind(ArchPreset p);

/** Samples/s one of preset @p p's prep engines delivers on demand @p d. */
Rate prepEngineRate(ArchPreset p, const workload::PrepDemand &d);

/** Result of the initializer's resource-planning pass. */
struct PrepPlan
{
    /** Samples/s of prepared data the accelerators consume. */
    Rate demand = 0.0;

    /** Samples/s their own prep engines can deliver. */
    Rate localCapacity = 0.0;

    /** Fraction of every batch forwarded to the prep-pool. */
    double offloadFraction = 0.0;

    /** Pool FPGAs the offloaded share needs. */
    std::size_t poolFpgas = 0;

    /** Pool throughput the offloaded share needs (samples/s). */
    Rate poolCapacityNeeded = 0.0;

    /** Extra prep capacity relative to local capacity (Fig 21's +54%). */
    double poolOvercapacityRatio = 0.0;

    /** Offload traffic per FPGA port of the tight box (bytes/s). */
    Rate ethernetPerPort = 0.0;

    /** True when the 100 Gbps ports can carry the offload traffic. */
    bool ethernetFeasible = true;
};

/**
 * The train boxes (or attached prep groups) a plan spreads demand over.
 * Each box preps its own batch and forwards the same share of it to the
 * pool, so the tight box, the one with the fewest prep engines per
 * accelerator, sets the share.
 */
struct PrepBoxes
{
    std::size_t accs = 0;         ///< Accelerators in all the boxes.
    std::size_t engines = 0;      ///< Prep engines in all the boxes.
    std::size_t tightAccs = 0;    ///< The tight box's accelerators.
    std::size_t tightEngines = 0; ///< The tight box's prep engines.

    /** Adds @p copies boxes of @p accs accelerators and @p engines engines. */
    void add(std::size_t accs, std::size_t engines, std::size_t copies = 1);
};

/** The train boxes of @p accs accelerators: full ones, then a partial one. */
PrepBoxes trainBoxes(const BoxConfig &box, std::size_t accs);

/**
 * Plan preparation resources for a configuration (§V-A): the server's
 * accelerators against its train boxes' FPGAs (trainBoxes()).
 * Meaningful for the clustered presets; for the others it reports what
 * a train-box layout of the same size would get.
 */
PrepPlan planPreparation(const ServerConfig &cfg);

/**
 * The plan for @p boxes, whose accelerators synchronize among
 * themselves at cfg's batch, with cfg's preset's prep engines: demand
 * and local capacity over all the boxes, the offload share of the tight
 * one. Each rate is one product of an integer count and a per-device
 * rate, so every count of full boxes plans the offload bits of one.
 */
PrepPlan planPreparation(const ServerConfig &cfg, const PrepBoxes &boxes);

/**
 * Pool FPGAs a server of @p cfg gets: none but on TrainBox, where an
 * explicit ServerConfig::prepPoolFpgas wins over the plan's.
 */
std::size_t prepPoolSize(const ServerConfig &cfg);

} // namespace tb

#endif // TRAINBOX_TRAINBOX_TRAIN_INITIALIZER_HH
