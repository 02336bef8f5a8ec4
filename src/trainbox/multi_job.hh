/**
 * @file
 * Multi-job rack planning (§V-D, third prep-pool realization; §II
 * footnote 2).
 *
 * When one TrainBox rack serves several training jobs, workloads demand
 * different amounts of preparation (Fig 10), so some train boxes have
 * idle FPGAs while others are oversubscribed. The planner partitions the
 * rack's train boxes among jobs and lends surplus in-box FPGAs — over
 * the prep-pool Ethernet, with partial reconfiguration to the borrower's
 * pipeline (§V-C) — before falling back to external pool FPGAs.
 */

#ifndef TRAINBOX_TRAINBOX_MULTI_JOB_HH
#define TRAINBOX_TRAINBOX_MULTI_JOB_HH

#include <cstddef>
#include <vector>

#include "trainbox/train_initializer.hh"

namespace tb {

/** One training job submitted to the rack. */
struct JobRequest
{
    workload::ModelId model;
    std::size_t numAccelerators;
};

/** Planning result for one job. */
struct JobAllocation
{
    JobRequest request;

    /** Train boxes assigned (boxCount(numAccelerators)). */
    std::size_t boxes = 0;

    /** The job's §V-A plan (planPreparation()). */
    PrepPlan plan;

    /** Whole idle FPGAs this job can lend. */
    std::size_t surplusFpgas = 0;

    /** Pool-rate FPGAs this job still needs after local capacity. */
    std::size_t deficitFpgas = 0;

    /** Of the deficit, FPGAs covered by other jobs' surplus. */
    std::size_t borrowedFpgas = 0;

    /** Of the deficit, FPGAs that must come from an external pool. */
    std::size_t externalFpgas = 0;
};

/** Planning result for the whole rack. */
struct RackPlan
{
    std::vector<JobAllocation> jobs;
    std::size_t boxesUsed = 0;
    std::size_t boxesAvailable = 0;

    /** Idle in-box FPGAs lent between jobs. */
    std::size_t fpgasLent = 0;

    /** External (disaggregated) pool FPGAs still required. */
    std::size_t externalPoolFpgas = 0;

    /** False when the rack has too few train boxes. */
    bool feasible = false;
};

/**
 * Plan a rack of @p totalBoxes train boxes for @p jobs. Each job's
 * demand, local capacity and deficit are planPreparation()'s for a
 * TrainBox server of the job's size; the deficit is its pool FPGAs.
 * Jobs are placed in order; lending matches the largest surpluses to
 * the largest deficits. Each job's synchronization spans only its own
 * accelerators, so smaller jobs see lower sync overhead (§II
 * footnote 2).
 */
RackPlan planRack(const std::vector<JobRequest> &jobs,
                  std::size_t totalBoxes, const BoxConfig &box = {},
                  const sync::SyncConfig &sync_cfg = {});

} // namespace tb

#endif // TRAINBOX_TRAINBOX_MULTI_JOB_HH
