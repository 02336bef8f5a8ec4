/**
 * @file
 * Analytic host-resource demand model (§III-C, Figs 10/11).
 *
 * Fig 10 asks: how much host CPU / DRAM bandwidth / root-complex bandwidth
 * would the *baseline* need to sustain the aggregate throughput of n
 * accelerators? That is a closed-form product of the per-sample demand
 * model with the target throughput — the same methodology the paper uses
 * (profiled per-sample cost x target rate), so we compute it analytically
 * here; the DES measures what a *capacity-limited* host actually delivers.
 */

#ifndef TRAINBOX_TRAINBOX_RESOURCE_PROFILE_HH
#define TRAINBOX_TRAINBOX_RESOURCE_PROFILE_HH

#include <map>
#include <string>

#include "trainbox/server_config.hh"
#include "workload/cost_model.hh"

namespace tb {

/** Absolute host-resource demand with per-category decomposition. */
struct HostDemandBreakdown
{
    /** CPU cores needed (core-seconds per second). */
    double cpuCores = 0.0;

    /** Host DRAM bandwidth needed (bytes/s). */
    Rate memBw = 0.0;

    /** PCIe root-complex bandwidth needed (bytes/s). */
    Rate rcBw = 0.0;

    std::map<std::string, double> cpuByCategory;
    std::map<std::string, double> memByCategory;
    std::map<std::string, double> rcByCategory;
};

/**
 * Optional live-measured per-sample prep CPU cost (core-seconds), as
 * produced by `tb::prep::measurePrepThroughput()`. A field of 0 keeps
 * the corresponding Table I-derived constant (DESIGN.md §4). The
 * measured chain covers formatting + augmentation, so only those stage
 * costs are rescaled; SSD read / data load / framework overheads keep
 * their modeled values.
 */
struct PrepCostCalibration
{
    double imageCoreSecPerSample = 0.0;
    double audioCoreSecPerSample = 0.0;
};

/**
 * Host demand of the given preset's datapath when sustaining the target
 * throughput of @p n accelerators running @p m.
 */
HostDemandBreakdown requiredHostDemand(const workload::ModelInfo &m,
                                       ArchPreset preset, std::size_t n,
                                       const sync::SyncConfig &sync_cfg);

/** Same, with the prep CPU cost calibrated from a live measurement. */
HostDemandBreakdown requiredHostDemand(const workload::ModelInfo &m,
                                       ArchPreset preset, std::size_t n,
                                       const sync::SyncConfig &sync_cfg,
                                       const PrepCostCalibration &calib);

} // namespace tb

#endif // TRAINBOX_TRAINBOX_RESOURCE_PROFILE_HH
