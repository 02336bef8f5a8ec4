/**
 * @file
 * Capacity planner built on the train initializer (§V-A): for a chosen
 * workload and scale, report the server's preparation demand, its train
 * boxes' FPGA capacity, the prep-pool allocation, Ethernet feasibility,
 * and the host resources a baseline server would have needed instead.
 *
 * With `--calibrate`, the baseline host demand is additionally
 * recomputed from a live prep-throughput measurement on this machine
 * (parallel executor, src/prep/executor/) instead of the Table I
 * constants.
 *
 *   ./capacity_planner [model-name] [num-accelerators] [--calibrate]
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/table.hh"
#include "fpga/engine_library.hh"
#include "prep/executor/calibration.hh"
#include "trainbox/resource_profile.hh"
#include "trainbox/train_initializer.hh"

int
main(int argc, char **argv)
{
    using namespace tb;

    constexpr const char *kUsage =
        "[model-name] [num-accelerators] [--calibrate]";
    std::string model_name = "Transformer-SR";
    // Every positional argument after the model name, space-separated:
    // one positive integer, or the count is rejected.
    std::string count;
    bool calibrate = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--calibrate") == 0)
            calibrate = true;
        else if (positional++ == 0)
            model_name = argv[i];
        else
            count += (positional > 2 ? " " : "") + std::string(argv[i]);
    }
    const std::size_t n = positional < 2
        ? 256
        : static_cast<std::size_t>(cli::integerValue(
              argv, "num-accelerators", count.c_str(), kUsage, 1,
              LLONG_MAX, "a positive integer"));

    const workload::ModelInfo &m = workload::modelByName(model_name);
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = m.id;
    cfg.numAccelerators = n;

    const PrepPlan plan = planPreparation(cfg);

    std::printf("TrainBox capacity plan: %s on %zu accelerators "
                "(%zu train boxes, %zu FPGAs)\n\n",
                m.name.c_str(), n, boxCount(n),
                trainBoxes(cfg.box, n).engines);

    Table t({"quantity", "value"});
    t.row().add("prep demand (samples/s)").add(plan.demand, 0);
    t.row().add("local FPGA capacity (samples/s)")
        .add(plan.localCapacity, 0);
    t.row().add("offload fraction to prep-pool")
        .add(100.0 * plan.offloadFraction, 1);
    t.row().add("prep-pool FPGAs to allocate")
        .add(static_cast<long long>(plan.poolFpgas));
    t.row().add("pool capacity needed (samples/s)")
        .add(plan.poolCapacityNeeded, 0);
    t.row().add("extra capacity vs local (%)")
        .add(100.0 * plan.poolOvercapacityRatio, 1);
    t.row().add("Ethernet per 100G port (GB/s)")
        .add(plan.ethernetPerPort / 1e9, 2);
    t.row().add("Ethernet feasible")
        .add(plan.ethernetFeasible ? "yes" : "NO");
    t.print();

    // What the FPGA bitstream looks like for this input type.
    const fpga::Floorplan floorplan =
        m.input == workload::InputType::Image ? fpga::imageFloorplan()
                                              : fpga::audioFloorplan();
    const fpga::Utilization u = floorplan.utilization();
    std::printf("\nPer-FPGA floorplan (%s pipeline on %s): %.1f%% LUT, "
                "%.1f%% FF, %.1f%% BRAM, %.1f%% DSP — %s\n",
                workload::toString(m.input),
                floorplan.device().name.c_str(), u.lutPct, u.ffPct,
                u.bramPct, u.dspPct,
                floorplan.fits() ? "fits" : "DOES NOT FIT");

    // For contrast: what the host would have needed without TrainBox.
    const HostDemandBreakdown host =
        requiredHostDemand(m, ArchPreset::Baseline, n, cfg.sync);
    const HostConfig dgx2;
    std::printf("\nBaseline host demand at the same throughput: "
                "%.0f CPU cores (%.1fx DGX-2), %.0f GB/s DRAM (%.1fx), "
                "%.0f GB/s PCIe RC (%.1fx)\n",
                host.cpuCores, host.cpuCores / dgx2.cpuCores,
                host.memBw / 1e9, host.memBw / dgx2.memBandwidth,
                host.rcBw / 1e9, host.rcBw / dgx2.rcBandwidth);

    if (calibrate) {
        // Replace the Table I prep-cost constants with a live
        // measurement of this machine's functional chains.
        prep::ThroughputMeasureConfig mcfg;
        mcfg.numWorkers = 0; // hardware concurrency
        const prep::PrepThroughputMeasurement meas =
            prep::measurePrepThroughput(mcfg);
        PrepCostCalibration calib;
        calib.imageCoreSecPerSample = meas.imageCoreSecPerSample;
        calib.audioCoreSecPerSample = meas.audioCoreSecPerSample;
        const HostDemandBreakdown live = requiredHostDemand(
            m, ArchPreset::Baseline, n, cfg.sync, calib);
        std::printf("\nCalibrated from live measurement (%zu workers: "
                    "image %.2f core-ms/sample, audio %.2f): "
                    "%.0f CPU cores (%.1fx DGX-2) — unoptimized scalar "
                    "kernels vs the paper's DALI-class constants\n",
                    meas.numWorkers,
                    meas.imageCoreSecPerSample * 1e3,
                    meas.audioCoreSecPerSample * 1e3, live.cpuCores,
                    live.cpuCores / dgx2.cpuCores);
    }
    return 0;
}
