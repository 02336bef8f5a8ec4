/**
 * @file
 * Checkpoint sweep: interval tuning and drain contention
 * (docs/ROBUSTNESS.md, "Checkpoint & restore").
 *
 * Two experiments, whose claims ctest checks
 * (YoungDaly.SimulatedOptimumNearAnalytic and
 * CheckpointContention.ClusteringShieldsPrepFromDrains):
 *
 *  1. Young–Daly validation — a 32-accelerator TrainBox training VGG-19
 *     under Poisson fatal crashes (MTBF 100 s), sync checkpointing
 *     swept across intervals. The simulated efficiency (useful time /
 *     wall time, averaged over independent crash schedules) peaks
 *     near the analytic optimum W* = sqrt(2 C M), where C is the
 *     measured crash-free checkpoint cost.
 *
 *  2. Drain contention by architecture — async checkpointing with a
 *     negligible snapshot pause, so any throughput loss is the
 *     background drain contending with data preparation. Central
 *     presets (Baseline/B+Acc) pay a real penalty because checkpoint
 *     writes cross host DRAM, CPU serialization, and the PCIe root
 *     complex; clustered train boxes (TrainBox) write over in-box
 *     links only and are expected to shield prep almost entirely.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace {

tb::ServerConfig
baseConfig(tb::ArchPreset preset)
{
    tb::ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = tb::workload::ModelId::Vgg19;
    cfg.numAccelerators = 32;
    cfg.prepPoolFpgas = 8;
    return cfg;
}

tb::SessionResult
run(const tb::ServerConfig &cfg, std::size_t measure)
{
    auto server = tb::buildServer(cfg);
    tb::TrainingSession session(*server);
    return session.run(4, measure);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    // --- 1. Young–Daly interval validation ---------------------------
    const Time mtbf = 100.0;
    const Time restart = 5.0;
    const std::size_t steps = 2000;
    const int seeds = 8;

    // Measure the checkpoint cost C on a crash-free run (capture ->
    // durable latency of a sync drain).
    ServerConfig cfg = baseConfig(ArchPreset::TrainBox);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Sync;
    cfg.checkpoint.interval = 5.0;
    cfg.checkpoint.restartLatency = restart;
    const Time cost = run(cfg, 200).checkpoint.avgCost;
    const Time analytic = youngDalyInterval(cost, mtbf);

    bench::banner(
        "Checkpoint sweep: Young-Daly interval validation "
        "(TrainBox, 32 accelerators, VGG-19, sync mode, MTBF 100 s)");
    std::printf("measured checkpoint cost C = %.3f s\n", cost);
    std::printf("analytic optimum sqrt(2CM) = %.2f s  (Daly: %.2f s)\n\n",
                analytic, dalyInterval(cost, mtbf));

    Table t1({ "interval_s", "sim_efficiency", "model_efficiency",
               "crashes", "steps_lost" });
    const double factors[] = { 0.25, 0.35, 0.5, 0.71, 1.0,
                               1.41, 2.0,  2.83, 4.0 };
    Time best_interval = 0.0;
    double best_eff = -1.0;
    for (double f : factors) {
        const Time interval = f * analytic;
        double eff_sum = 0.0;
        std::size_t crashes = 0, lost = 0;
        for (int s = 0; s < seeds; ++s) {
            cfg.checkpoint.interval = interval;
            cfg.faults.enabled = true;
            cfg.faults.seed = 0x59440000u + s;
            cfg.faults.fatalCrash.ratePerSec = 1.0 / mtbf;
            const SessionResult res = run(cfg, steps);
            eff_sum += SessionReport::computeEfficiency(res.checkpoint,
                                                        res.wallTime);
            crashes += res.checkpoint.fatalCrashes;
            lost += res.checkpoint.stepsLost;
        }
        const double eff = eff_sum / seeds;
        if (eff > best_eff) {
            best_eff = eff;
            best_interval = interval;
        }
        t1.row()
            .add(interval, 2)
            .add(eff, 4)
            .add(checkpointEfficiencyModel(interval, cost, mtbf,
                                           restart),
                 4)
            .add(crashes)
            .add(lost);
    }
    bench::emit(t1, csv);

    const double deviation =
        std::fabs(best_interval - analytic) / analytic;
    std::printf("\nsimulated optimum %.2f s vs analytic %.2f s "
                "-> deviation %.0f%%\n",
                best_interval, analytic, 100.0 * deviation);

    // --- 2. Drain contention by architecture -------------------------
    bench::banner(
        "Checkpoint sweep: prep-throughput penalty of background "
        "drains (async, negligible snapshot pause, VGG-19)");

    Table t2({ "preset", "interval_s", "ckpt_gbps", "healthy_sps",
               "ckpt_sps", "penalty_pct" });
    double base_penalty = 0.0, clustered_penalty = 0.0;
    for (ArchPreset p :
         { ArchPreset::Baseline, ArchPreset::BaselineAccFpga,
           ArchPreset::BaselineAccP2p, ArchPreset::TrainBox }) {
        ServerConfig c = baseConfig(p);
        const double healthy = run(c, 60).throughput;
        for (Time interval : { 0.5, 1.0, 2.0 }) {
            c.checkpoint.enabled = true;
            c.checkpoint.mode = CheckpointMode::Async;
            c.checkpoint.interval = interval;
            c.checkpoint.snapshotBandwidth = 2.0e12;
            const SessionResult res = run(c, 60);
            const double ckpt = res.throughput;
            // Average checkpoint write bandwidth: the share of the
            // storage path the drains claim at this interval.
            const double gbps = res.wallTime > 0.0
                ? res.checkpoint.bytesWritten / res.wallTime / 1e9
                : 0.0;
            const double penalty = 1.0 - ckpt / healthy;
            if (interval == 0.5) {
                if (p == ArchPreset::Baseline)
                    base_penalty = penalty;
                if (p == ArchPreset::TrainBox)
                    clustered_penalty = penalty;
            }
            t2.row()
                .add(std::string(presetName(p)))
                .add(interval, 1)
                .add(gbps, 2)
                .add(healthy, 1)
                .add(ckpt, 1)
                .add(100.0 * penalty, 2);
        }
    }
    bench::emit(t2, csv);

    std::printf("\nBaseline penalty %.2f%%, clustered penalty %.2f%%\n",
                100.0 * base_penalty, 100.0 * clustered_penalty);
    return 0;
}
