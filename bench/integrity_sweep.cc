/**
 * @file
 * Integrity sweep: silent-corruption escape rate and throughput cost of
 * end-to-end checksum verification (docs/ROBUSTNESS.md, "Data integrity
 * & silent corruption").
 *
 * Three experiments on 32-accelerator ResNet-50 servers:
 *
 *  1. Escape-rate sweep — per-hop flip probability from 0.1% to 10%,
 *     Baseline vs TrainBox, integrity checks off vs on. The Baseline's
 *     CPU formatting inherently validates every byte, so it never lets
 *     a flip escape; the TrainBox P2P path leaks every silent SSD/FPGA
 *     flip until the checksum stages are enabled, after which nothing
 *     escapes anywhere.
 *  2. Integrity tax — throughput at zero flip probability with checks
 *     on vs off. The Baseline is CPU-bound, so the CRC cycles cost
 *     throughput; the TrainBox is accelerator-bound and absorbs them.
 *  3. Recovery behaviour — detected flips re-run their prep chain under
 *     the bounded budget; the table reports recoveries, PCIe replays,
 *     and chunks quarantined as the flip rate climbs.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace {

tb::ServerConfig
baseConfig(tb::ArchPreset preset)
{
    tb::ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = tb::workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    if (preset == tb::ArchPreset::TrainBox)
        cfg.prepPoolFpgas = 8;
    return cfg;
}

void
armCorruption(tb::ServerConfig &cfg, double p, bool checks)
{
    cfg.faults.enabled = true;
    cfg.faults.integrityChecks = checks;
    cfg.faults.corruption.ssdBitFlipProb = p;
    cfg.faults.corruption.pcieErrorProb = p / 2.0;
    cfg.faults.corruption.fpgaUpsetProb = p;
    cfg.faults.corruption.hostDramFlipProb = p / 2.0;
}

tb::SessionResult
run(const tb::ServerConfig &cfg)
{
    auto server = tb::buildServer(cfg);
    tb::TrainingSession session(*server);
    return session.run(4, 8);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    const double healthy_baseline =
        run(baseConfig(ArchPreset::Baseline)).throughput;
    const double healthy_trainbox =
        run(baseConfig(ArchPreset::TrainBox)).throughput;

    // --- 1. escape rate vs flip probability --------------------------
    bench::banner("Integrity sweep: escape rate vs per-hop flip "
                  "probability (ResNet-50, 32 accelerators)");
    Table esc_table({"flip_prob", "arch", "checks", "injected",
                     "detected", "escaped", "escape_rate", "goodput"});
    for (double p : {0.001, 0.01, 0.05, 0.1}) {
        for (ArchPreset preset :
             {ArchPreset::Baseline, ArchPreset::TrainBox}) {
            for (bool checks : {false, true}) {
                ServerConfig cfg = baseConfig(preset);
                armCorruption(cfg, p, checks);
                const SessionResult r = run(cfg);
                const double healthy = preset == ArchPreset::Baseline
                    ? healthy_baseline
                    : healthy_trainbox;
                esc_table.row()
                    .add(p)
                    .add(presetName(preset))
                    .add(checks ? "on" : "off")
                    .add(r.integrity.injected)
                    .add(r.integrity.detected)
                    .add(r.integrity.escaped)
                    .add(r.integrity.escapeRate(), 4)
                    .add(SessionReport::computeGoodput(r.throughput,
                                                       healthy),
                         4);
            }
        }
    }
    bench::emit(esc_table, csv);

    // --- 2. integrity tax at zero flip probability --------------------
    bench::banner("Integrity tax: throughput with checks on, zero flips");
    Table tax_table({"arch", "checks", "throughput", "tax_pct"});
    for (ArchPreset preset :
         {ArchPreset::Baseline, ArchPreset::TrainBox}) {
        const double healthy = preset == ArchPreset::Baseline
            ? healthy_baseline
            : healthy_trainbox;
        for (bool checks : {false, true}) {
            ServerConfig cfg = baseConfig(preset);
            armCorruption(cfg, 0.0, checks);
            const SessionResult r = run(cfg);
            tax_table.row()
                .add(presetName(preset))
                .add(checks ? "on" : "off")
                .add(r.throughput, 1)
                .add(100.0 * (1.0 - r.throughput / healthy), 2);
        }
    }
    bench::emit(tax_table, csv);

    // --- 3. recovery behaviour under rising flip rates ----------------
    bench::banner("Recovery behaviour: TrainBox with checks on");
    Table rec_table({"flip_prob", "recoveries", "pcie_replays",
                     "quarantined", "goodput"});
    for (double p : {0.01, 0.05, 0.1, 0.2}) {
        ServerConfig cfg = baseConfig(ArchPreset::TrainBox);
        armCorruption(cfg, p, true);
        const SessionResult r = run(cfg);
        rec_table.row()
            .add(p)
            .add(r.integrity.recoveries)
            .add(r.integrity.pcieReplays)
            .add(r.integrity.chunksQuarantined)
            .add(SessionReport::computeGoodput(r.throughput,
                                               healthy_trainbox),
                 4);
    }
    bench::emit(rec_table, csv);

    return 0;
}
