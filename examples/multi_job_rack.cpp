/**
 * @file
 * Multi-job rack planning demo (§V-D): share one TrainBox rack between
 * an image job and an audio job and watch the idle image-side FPGAs act
 * as the audio job's prep-pool, including the partial-reconfiguration
 * cost of retargeting a lent FPGA.
 *
 *   ./multi_job_rack [boxes]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "fpga/engine_library.hh"
#include "trainbox/multi_job.hh"

int
main(int argc, char **argv)
{
    using namespace tb;
    const std::size_t boxes =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 32;

    const std::vector<JobRequest> jobs = {
        {workload::ModelId::InceptionV4, 128},
        {workload::ModelId::TfSr, 128},
    };
    const RackPlan plan = planRack(jobs, boxes);

    std::printf("Rack with %zu train boxes, %zu jobs (%s)\n\n", boxes,
                jobs.size(),
                plan.feasible ? "feasible" : "DOES NOT FIT");

    Table t({"job", "accs", "boxes", "demand (samples/s)",
             "local cap", "surplus FPGAs", "deficit", "borrowed",
             "external", "offload %"});
    for (const auto &j : plan.jobs) {
        t.row()
            .add(workload::model(j.request.model).name)
            .add(static_cast<long long>(j.request.numAccelerators))
            .add(static_cast<long long>(j.boxes))
            .add(j.plan.demand, 0)
            .add(j.plan.localCapacity, 0)
            .add(static_cast<long long>(j.surplusFpgas))
            .add(static_cast<long long>(j.deficitFpgas))
            .add(static_cast<long long>(j.borrowedFpgas))
            .add(static_cast<long long>(j.externalFpgas))
            .add(100.0 * j.plan.offloadFraction, 1);
    }
    t.print();

    std::printf("\nboxes used: %zu/%zu, FPGAs lent between jobs: %zu, "
                "external pool FPGAs: %zu\n",
                plan.boxesUsed, plan.boxesAvailable, plan.fpgasLent,
                plan.externalPoolFpgas);

    // Cost of retargeting a lent image-pipeline FPGA to audio (§V-C).
    const fpga::ReconfigEstimate est = fpga::reconfigurationCost(
        fpga::imageFloorplan(), fpga::audioFloorplan());
    std::printf("\nretargeting a lent FPGA (image -> audio pipeline): "
                "%zu engines reprogrammed, %.1f MB partial bitstream, "
                "%.0f ms — amortized over the whole job, negligible\n",
                est.enginesChanged, est.bitstreamBytes / 1e6,
                est.seconds * 1e3);
    return 0;
}
