/**
 * @file
 * Fleet sweep: multi-job scheduling on one shared simulation core
 * (src/trainbox/fleet.hh, docs/FLEET.md).
 *
 * Sweeps job count × placement policy × shared-pool share
 * (the pool sized as a fraction of the trace's aggregate FPGA
 * request) on a mixed vision + audio arrival trace, reporting
 * makespan, queueing delay, pool fairness, and aggregate throughput —
 * the fleet-level view of the paper's §V-D multi-job sharing argument:
 * pool-aware placement holds fairness (and throughput) as the pool
 * share shrinks, where naive first-fit fragments the grants.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_util.hh"
#include "trainbox/fleet.hh"

namespace {

using namespace tb;

/** One 16-accelerator (2-box) TrainBox job, vision or audio. */
FleetJobSpec
makeJob(std::size_t idx)
{
    FleetJobSpec job;
    const bool audio = idx % 2 == 1;
    job.name = (audio ? "audio" : "vision") + std::to_string(idx);
    job.arrival = 0.05 * static_cast<double>(idx);
    job.config.preset = ArchPreset::TrainBox;
    job.config.model = audio ? workload::ModelId::TfSr
                             : workload::ModelId::Resnet50;
    job.config.numAccelerators = 16;
    job.config.prepPoolFpgas = 4;
    job.warmupSteps = 2;
    job.measureSteps = 4;
    return job;
}

/**
 * @p hostCount two-box hosts; each job needs two boxes, so hostCount
 * == jobs means full co-residency and hostCount < jobs queues the
 * tail of the trace.
 */
FleetConfig
makeFleet(std::size_t jobs, std::size_t hostCount,
          PlacementPolicy policy, double poolShare)
{
    FleetConfig fleet;
    for (std::size_t h = 0; h < hostCount; ++h)
        fleet.hosts.push_back({"host" + std::to_string(h), 2});
    fleet.policy = policy;
    for (std::size_t j = 0; j < jobs; ++j)
        fleet.jobs.push_back(makeJob(j));
    // Pool share is relative to the trace's aggregate request
    // (4 FPGAs/job).
    fleet.sharedPoolFpgas = static_cast<int>(
        std::ceil(poolShare * 4.0 * static_cast<double>(jobs)));
    return fleet;
}

int
sweep(bool csv)
{
    const std::size_t jobCounts[] = {2, 4, 6};
    const PlacementPolicy policies[] = {PlacementPolicy::FirstFit,
                                        PlacementPolicy::Packed,
                                        PlacementPolicy::PrepPoolAware};
    const double poolShares[] = {0.25, 0.5, 1.0};

    if (csv)
        std::printf("jobs,policy,pool_fpgas,makespan_s,avg_queue_s,"
                    "fairness,constrained,agg_throughput\n");
    else
        std::printf("%4s %-10s %6s %11s %11s %9s %12s %15s\n", "jobs",
                    "policy", "pool", "makespan_s", "avg_queue_s",
                    "fairness", "constrained", "agg_samples/s");

    for (std::size_t jobs : jobCounts) {
        for (PlacementPolicy policy : policies) {
            for (double share : poolShares) {
                // Hosts for half the trace: overlapping arrivals queue.
                const FleetReport r = runFleet(
                    makeFleet(jobs, (jobs + 1) / 2, policy, share));
                if (csv)
                    std::printf("%zu,%s,%zu,%.4f,%.4f,%.4f,%zu,%.1f\n",
                                jobs, r.policy.c_str(), r.poolFpgasTotal,
                                r.makespan, r.avgQueueingDelay,
                                r.poolFairness, r.jobsPoolConstrained,
                                r.aggregateThroughput);
                else
                    std::printf(
                        "%4zu %-10s %6zu %11.3f %11.3f %9.3f %12zu "
                        "%15.1f\n",
                        jobs, r.policy.c_str(), r.poolFpgasTotal,
                        r.makespan, r.avgQueueingDelay, r.poolFairness,
                        r.jobsPoolConstrained, r.aggregateThroughput);
            }
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return sweep(bench::wantCsv(argc, argv));
}
