#include "trainbox/train_initializer.hh"

#include <algorithm>
#include <cmath>

#include "devices/prep_accelerator.hh"

namespace tb {

Rate
prepEngineRate(ArchPreset p, const workload::PrepDemand &d)
{
    return p == ArchPreset::BaselineAccGpu ? d.gpuChainRate
                                           : d.fpgaChainRate;
}

void
PrepBoxes::add(std::size_t box_accs, std::size_t box_engines,
               std::size_t copies)
{
    if (copies == 0 || box_accs == 0)
        return;
    accs += copies * box_accs;
    engines += copies * box_engines;
    if (tightAccs == 0 || box_engines * tightAccs < tightEngines * box_accs) {
        tightAccs = box_accs;
        tightEngines = box_engines;
    }
}

PrepBoxes
trainBoxes(const BoxConfig &box, std::size_t accs)
{
    const std::size_t rest = accs % kAccPerBox;
    PrepBoxes boxes;
    boxes.add(kAccPerBox, box.boxFpgas(kAccPerBox), accs / kAccPerBox);
    boxes.add(rest, box.boxFpgas(rest));
    return boxes;
}

PrepPlan
planPreparation(const ServerConfig &cfg)
{
    return planPreparation(cfg, trainBoxes(cfg.box, cfg.numAccelerators));
}

PrepPlan
planPreparation(const ServerConfig &cfg, const PrepBoxes &boxes)
{
    using namespace workload;
    const ModelInfo &m = model(cfg.model);
    const PrepDemand d = prepDemand(m.input);
    const Rate engine = prepEngineRate(cfg.preset, d);

    PrepPlan plan;

    // Step 1 of §V-A: measure the per-batch time and derive the required
    // preparation throughput.
    const Rate per_acc = cfg.batchSize == 0
        ? effectiveDeviceThroughput(m, boxes.accs, cfg.sync)
        : effectiveDeviceThroughput(m, boxes.accs, cfg.sync, cfg.batchSize);
    plan.demand = static_cast<double>(boxes.accs) * per_acc;

    // Step 2: capability of the in-box prep accelerators (measured
    // offline; here the calibrated chain rate).
    plan.localCapacity = static_cast<double>(boxes.engines) * engine;

    // Step 3: pool sizing when a box's local capacity is short. Every
    // box forwards the share the tight one cannot prepare itself, so the
    // pool takes that share of the whole demand. A pool FPGA delivers
    // its chain rate, capped by its 100 Gbps port, which carries the raw
    // input in and the prepared tensor out.
    const Rate box_demand = static_cast<double>(boxes.tightAccs) * per_acc;
    const Rate shortfall = std::max(
        0.0, box_demand - static_cast<double>(boxes.tightEngines) * engine);
    if (shortfall == 0.0)
        return plan;
    const double port_bytes = d.ssdBytes + d.preparedBytes;
    plan.offloadFraction = shortfall / box_demand;
    plan.poolCapacityNeeded =
        shortfall * (static_cast<double>(boxes.accs) /
                     static_cast<double>(boxes.tightAccs));
    plan.poolFpgas = static_cast<std::size_t>(std::ceil(
        plan.poolCapacityNeeded /
        std::min(d.fpgaChainRate,
                 PrepAccelerator::defaultEthernetBw / port_bytes)));
    if (plan.localCapacity > 0.0)
        plan.poolOvercapacityRatio =
            plan.poolCapacityNeeded / plan.localCapacity;

    // Ethernet feasibility: each of the tight box's FPGAs ships its share
    // out and back over its own port.
    if (boxes.tightEngines > 0) {
        plan.ethernetPerPort =
            shortfall / static_cast<double>(boxes.tightEngines) * port_bytes;
        plan.ethernetFeasible =
            plan.ethernetPerPort <= PrepAccelerator::defaultEthernetBw;
    }
    return plan;
}

std::size_t
prepPoolSize(const ServerConfig &cfg)
{
    if (cfg.preset != ArchPreset::TrainBox)
        return 0;
    return cfg.prepPoolFpgas >= 0
        ? static_cast<std::size_t>(cfg.prepPoolFpgas)
        : planPreparation(cfg).poolFpgas;
}

} // namespace tb
