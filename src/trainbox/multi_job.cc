#include "trainbox/multi_job.hh"

#include <algorithm>
#include <cmath>

#include "common/math_util.hh"
#include "devices/prep_accelerator.hh"
#include "workload/cost_model.hh"

namespace tb {

namespace {

/**
 * The prep demand of @p accs accelerators at per-accelerator batch
 * @p batch (0: Table I's) and what @p boxes train boxes' FPGAs can
 * prepare, both in samples/s.
 */
struct PrepSplit
{
    Rate demand = 0.0;
    Rate local = 0.0;

    /** The share of the demand the boxes cannot cover. */
    double offload() const
    {
        return demand > local ? (demand - local) / demand : 0.0;
    }
};

PrepSplit
prepSplit(const workload::ModelInfo &m, std::size_t accs, std::size_t boxes,
          const BoxConfig &box, const sync::SyncConfig &sync_cfg,
          std::size_t batch)
{
    using namespace workload;
    const Rate per_acc = batch == 0
        ? effectiveDeviceThroughput(m, accs, sync_cfg)
        : effectiveDeviceThroughput(m, accs, sync_cfg, batch);
    return {static_cast<double>(accs) * per_acc,
            static_cast<double>(boxes) * static_cast<double>(box.prepPerBox) *
                prepDemand(m.input).fpgaChainRate};
}

} // namespace

RackPlan
planRack(const std::vector<JobRequest> &jobs, std::size_t total_boxes,
         const BoxConfig &box, const sync::SyncConfig &sync_cfg)
{
    using namespace workload;

    RackPlan plan;
    plan.boxesAvailable = total_boxes;

    for (const auto &req : jobs) {
        JobAllocation alloc;
        alloc.request = req;
        alloc.boxes = divCeil(req.numAccelerators, box.accPerBox);
        plan.boxesUsed += alloc.boxes;

        const ModelInfo &m = model(req.model);
        const PrepDemand d = prepDemand(m.input);
        const PrepSplit split = prepSplit(m, req.numAccelerators,
                                          alloc.boxes, box, sync_cfg, 0);
        alloc.demand = split.demand;
        alloc.localCapacity = split.local;

        // A lent/borrowed FPGA works at the *borrower's* chain rate,
        // capped by its 100 Gbps pool port.
        const Rate pool_rate = std::min(
            d.fpgaChainRate,
            PrepAccelerator::defaultEthernetBw /
                (d.ssdBytes + d.preparedBytes));

        if (alloc.demand > alloc.localCapacity) {
            const Rate shortfall = alloc.demand - alloc.localCapacity;
            alloc.deficitFpgas = static_cast<std::size_t>(
                std::ceil(shortfall / pool_rate));
            alloc.offloadFraction = split.offload();
        } else {
            // Whole FPGAs this job can give up and still meet demand.
            const Rate surplus = alloc.localCapacity - alloc.demand;
            alloc.surplusFpgas = static_cast<std::size_t>(
                std::floor(surplus / d.fpgaChainRate));
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

double
replanOffloadFraction(workload::ModelId model_id, std::size_t active_accs,
                      std::size_t active_boxes, const BoxConfig &box,
                      const sync::SyncConfig &sync_cfg,
                      std::size_t batch_size)
{
    if (active_accs == 0 || active_boxes == 0)
        return 0.0;
    // planRack()'s split, over the surviving membership's boxes rather
    // than ceil(accs / accPerBox).
    return prepSplit(workload::model(model_id), active_accs, active_boxes,
                     box, sync_cfg, batch_size)
        .offload();
}

} // namespace tb
