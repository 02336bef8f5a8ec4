/**
 * @file
 * Fig 21: scalability of Inception-v4 and Transformer-SR, 1 -> 256
 * accelerators, across five architectures: CPU baseline, GPU prep,
 * FPGA prep (= B+Acc+P2P in the paper), TrainBox without the prep-pool,
 * and full TrainBox. Throughput is normalized to one accelerator's ideal
 * throughput so "256" means perfect scaling. Reproduces the paper's
 * observations: the CPU baseline saturates first, GPU prep loses to the
 * baseline at small scale (1:4 device ratio and poor decode throughput),
 * FPGA prep wins quickly, and only TrainBox keeps scaling; TF-SR needs
 * the prep-pool (~54% extra FPGA capacity) to reach the target.
 */

#include "bench/bench_util.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    const std::vector<ArchPreset> presets = {
        ArchPreset::Baseline,        ArchPreset::BaselineAccGpu,
        ArchPreset::BaselineAccFpga, ArchPreset::TrainBoxNoPool,
        ArchPreset::TrainBox,
    };
    const std::vector<std::size_t> scales = {1, 4, 16, 64, 256};

    for (workload::ModelId id :
         {workload::ModelId::InceptionV4, workload::ModelId::TfSr}) {
        const workload::ModelInfo &m = workload::model(id);
        const double unit =
            workload::effectiveDeviceThroughput(m, 1, sync::SyncConfig{});

        bench::banner("Fig 21 (" + m.name +
                      "): throughput in ideal-accelerator units");
        std::vector<std::string> headers = {"architecture"};
        for (auto n : scales)
            headers.push_back("n=" + std::to_string(n));
        Table t(headers);

        for (ArchPreset p : presets) {
            t.row().add(presetName(p));
            for (std::size_t n : scales) {
                ServerConfig cfg;
                cfg.preset = p;
                cfg.model = id;
                cfg.numAccelerators = n;
                auto server = buildServer(cfg);
                TrainingSession session(*server);
                t.add(session.run(6, 12).throughput / unit, 1);
            }
        }
        bench::emit(t, csv);

        ServerConfig cfg;
        cfg.preset = ArchPreset::TrainBox;
        cfg.model = id;
        cfg.numAccelerators = 256;
        const PrepPlan plan = planPreparation(cfg);
        const double boxes = static_cast<double>(boxCount(256));
        std::printf("\nprep-pool plan for %s @256: demand/box %.0f, local "
                    "capacity/box %.0f, offload %.1f%%, pool FPGAs %zu "
                    "(+%.0f%% capacity)\n",
                    m.name.c_str(), plan.demand / boxes,
                    plan.localCapacity / boxes,
                    100.0 * plan.offloadFraction, plan.poolFpgas,
                    100.0 * plan.poolOvercapacityRatio);
    }
    std::printf("\n(paper: TF-SR reaches the target with 54%% extra FPGA "
                "resources from the prep-pool)\n");
    return 0;
}
