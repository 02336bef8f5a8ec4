/**
 * @file
 * Fig 10: host resources the baseline would need to sustain the target
 * throughput of n accelerators, normalized to DGX-2 capacities
 * (48 cores / 239 GB/s DRAM / 64 GB/s effective root complex).
 * The paper reports maxima of 100.7x cores, 17.9x memory bandwidth, and
 * 18.0x PCIe bandwidth at 256 accelerators.
 *
 * A measured SessionReport at one accelerator (where the baseline host
 * is still unsaturated) cross-checks the analytic projection.
 */

#include <algorithm>
#include <vector>

#include "bench/bench_util.hh"
#include "trainbox/resource_profile.hh"

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    const std::vector<std::size_t> scales = {1, 4, 16, 64, 256};
    const HostConfig dgx2; // the DGX-2 host the figure normalizes to
    const sync::SyncConfig sync_cfg;

    struct Axis
    {
        const char *title;
        double HostDemandBreakdown::*value;
        double norm;
        const char *paper;
    };
    const std::vector<Axis> axes = {
        {"Fig 10a: required CPU cores (normalized to DGX-2's 48)",
         &HostDemandBreakdown::cpuCores, dgx2.cpuCores, "100.7x"},
        {"Fig 10b: required memory bandwidth (normalized to 239 GB/s)",
         &HostDemandBreakdown::memBw, dgx2.memBandwidth, "17.9x"},
        {"Fig 10c: required PCIe bandwidth at the root complex "
         "(normalized to DGX-2)",
         &HostDemandBreakdown::rcBw, dgx2.rcBandwidth, "18.0x"},
    };

    for (const auto &axis : axes) {
        bench::banner(axis.title);
        std::vector<std::string> headers = {"model"};
        for (auto n : scales)
            headers.push_back("n=" + std::to_string(n));
        Table t(headers);

        double peak = 0.0;
        for (const auto &m : workload::modelZoo()) {
            t.row().add(m.name);
            for (std::size_t n : scales) {
                const HostDemandBreakdown demand = requiredHostDemand(
                    m, ArchPreset::Baseline, n, sync_cfg);
                const double normalized = demand.*(axis.value) / axis.norm;
                t.add(normalized, 2);
                peak = std::max(peak, normalized);
            }
        }
        bench::emit(t, csv);
        std::printf("\npeak at 256 accelerators: %.1fx (paper: up to %s)\n",
                    peak, axis.paper);
    }

    bench::banner("Cross-check: analytic projection vs measured "
                  "SessionReport (Resnet-50, 1 accelerator)");
    {
        const workload::ModelInfo &m =
            workload::model(workload::ModelId::Resnet50);
        const HostDemandBreakdown projected =
            requiredHostDemand(m, ArchPreset::Baseline, 1, sync_cfg);
        const SessionReport measured = bench::runReport(
            ServerConfig::baseline().withModel(m.id).withAccelerators(1));

        Table t({"axis", "projected", "measured"});
        t.row()
            .add("CPU cores")
            .add(projected.cpuCores, 2)
            .add(measured.hostCpuCores(), 2);
        t.row()
            .add("memory BW (GB/s)")
            .add(projected.memBw / 1e9, 2)
            .add(measured.hostMemBw() / 1e9, 2);
        t.row()
            .add("RC BW (GB/s)")
            .add(projected.rcBw / 1e9, 2)
            .add(measured.hostRcBw() / 1e9, 2);
        bench::emit(t, csv);
    }
    return 0;
}
