/**
 * @file
 * Fleet fault-tolerance sweep (src/trainbox/fleet.hh,
 * docs/ROBUSTNESS.md "Fleet fault tolerance").
 *
 * Sweeps host-outage MTBF × retry budget on a six-job co-resident
 * trace, reporting completion/abandonment counts, restarts, steps and
 * wall time lost, re-placement latency, and host down time — the
 * fleet-level availability/goodput tradeoff: a deeper retry budget
 * converts abandonments into restarts and buys completions at the cost
 * of replayed work, while checkpointing shrinks the replay itself.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.hh"
#include "trainbox/fleet.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

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

/** Bare-session wall time: the yardstick for MTBF and horizon knobs. */
Time
bareWall()
{
    FleetJobSpec ref = makeJob(0);
    auto server = buildServer(ref.config);
    TrainingSession session(*server);
    return session.run(ref.warmupSteps, ref.measureSteps).wallTime;
}

/**
 * @p jobs two-box jobs on @p hostCount two-box hosts with seeded
 * host-outage/box-loss faults scaled to the bare wall time @p w.
 */
FleetConfig
makeFaultFleet(std::size_t jobs, std::size_t hostCount, Time w,
               double mtbfScale, std::size_t maxRetries,
               std::uint64_t seed)
{
    FleetConfig fleet;
    for (std::size_t h = 0; h < hostCount; ++h)
        fleet.hosts.push_back({"host" + std::to_string(h), 2});
    fleet.policy = PlacementPolicy::Packed;
    fleet.sharedPoolFpgas =
        static_cast<int>(3 * std::max<std::size_t>(jobs, 2));
    for (std::size_t j = 0; j < jobs; ++j)
        fleet.jobs.push_back(makeJob(j));
    fleet.horizon = 10.0 * w;
    fleet.faults.enabled = true;
    fleet.faults.seed = seed;
    fleet.faults.hostOutage = {mtbfScale * w, 0.1 * w};
    fleet.faults.boxLoss = {2.0 * mtbfScale * w, 0.1 * w};
    fleet.faults.maxRetries = maxRetries;
    fleet.faults.retryBackoffBase = 0.02 * w;
    return fleet;
}

int
sweep(bool csv)
{
    const Time w = bareWall();
    const double mtbfScales[] = {1.0, 2.0, 4.0};
    const std::size_t retryBudgets[] = {0, 2, 4};

    if (csv)
        std::printf("mtbf_x,max_retries,completed,abandoned,at_horizon,"
                    "restarts,steps_lost,work_lost_s,avg_replace_s,"
                    "host_down_s,fleet_faults\n");
    else
        std::printf("%6s %7s %9s %9s %10s %8s %10s %11s %13s %11s %12s\n",
                    "mtbf_x", "retries", "completed", "abandoned",
                    "at_horizon", "restarts", "steps_lost",
                    "work_lost_s", "avg_replace_s", "host_down_s",
                    "fleet_faults");

    for (double scale : mtbfScales) {
        for (std::size_t retries : retryBudgets) {
            const FleetReport r = runFleet(makeFaultFleet(
                6, 3, w, scale, retries, /*seed=*/0x5eed + retries));
            const std::size_t atHorizon =
                r.jobsRunningAtHorizon + r.jobsQueuedAtHorizon;
            if (csv)
                std::printf(
                    "%.1f,%zu,%zu,%zu,%zu,%zu,%zu,%.4f,%.4f,%.4f,%zu\n",
                    scale, retries, r.jobsCompleted, r.jobsAbandoned,
                    atHorizon, r.restartsTotal, r.stepsLostTotal,
                    r.workLostTime, r.avgReplacementLatency,
                    r.hostDownTime, r.fleetFaultsInjected);
            else
                std::printf("%6.1f %7zu %9zu %9zu %10zu %8zu %10zu "
                            "%11.3f %13.3f %11.3f %12zu\n",
                            scale, retries, r.jobsCompleted,
                            r.jobsAbandoned, atHorizon, r.restartsTotal,
                            r.stepsLostTotal, r.workLostTime,
                            r.avgReplacementLatency, r.hostDownTime,
                            r.fleetFaultsInjected);
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
