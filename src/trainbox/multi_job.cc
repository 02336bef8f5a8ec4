#include "trainbox/multi_job.hh"

#include <algorithm>
#include <cmath>

namespace tb {

RackPlan
planRack(const std::vector<JobRequest> &jobs, std::size_t total_boxes,
         const BoxConfig &box, const sync::SyncConfig &sync_cfg)
{
    using namespace workload;

    RackPlan plan;
    plan.boxesAvailable = total_boxes;

    for (const auto &req : jobs) {
        // Each job's plan is the §V-A plan of a TrainBox server of its
        // own size: it syncs only its own accelerators.
        ServerConfig cfg = ServerConfig::trainBox()
                               .withModel(req.model)
                               .withAccelerators(req.numAccelerators);
        cfg.box = box;
        cfg.sync = sync_cfg;

        JobAllocation alloc;
        alloc.request = req;
        alloc.boxes = boxCount(req.numAccelerators);
        plan.boxesUsed += alloc.boxes;
        alloc.plan = planPreparation(cfg);
        // A lent/borrowed FPGA works at the *borrower's* pool rate.
        alloc.deficitFpgas = alloc.plan.poolFpgas;
        if (alloc.deficitFpgas == 0) {
            // Whole FPGAs this job can give up and still meet demand.
            const Rate surplus = alloc.plan.localCapacity - alloc.plan.demand;
            alloc.surplusFpgas = static_cast<std::size_t>(std::floor(
                surplus / prepDemand(model(req.model).input).fpgaChainRate));
        }
        plan.jobs.push_back(alloc);
    }

    plan.feasible = plan.boxesUsed <= plan.boxesAvailable;

    // Greedy lending: biggest surplus feeds biggest deficit.
    std::vector<std::size_t> order(plan.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
        return plan.jobs[a].deficitFpgas > plan.jobs[b].deficitFpgas;
    });

    std::size_t available = 0;
    for (const auto &j : plan.jobs)
        available += j.surplusFpgas;

    for (std::size_t idx : order) {
        JobAllocation &j = plan.jobs[idx];
        if (j.deficitFpgas == 0)
            continue;
        const std::size_t take = std::min(j.deficitFpgas, available);
        j.borrowedFpgas = take;
        j.externalFpgas = j.deficitFpgas - take;
        available -= take;
        plan.fpgasLent += take;
        plan.externalPoolFpgas += j.externalFpgas;
    }
    return plan;
}

} // namespace tb
