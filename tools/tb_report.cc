/**
 * @file
 * tb_report: run one training-session config and print its
 * SessionReport — the consolidated view of throughput, the Fig 9
 * latency breakdown, host-resource demand, per-device utilization,
 * and the ranked bottleneck attribution.
 *
 * Examples:
 *   tb_report --preset trainbox --model Resnet-50 --accs 256
 *   tb_report --preset baseline --accs 32 --json report.json
 *   tb_report --preset p2p --csv - --trace trace.json
 *
 * Metrics are enabled by default here (this tool exists to look at
 * them); --no-metrics shows the host-axis fallback attribution.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/integrity.hh"
#include "prep/pipeline.hh"
#include "sim/trace.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "workload/cost_model.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace {

struct Options
{
    tb::ArchPreset preset = tb::ArchPreset::TrainBox;
    std::string model = "Resnet-50";
    std::size_t accs = 256;
    std::size_t batch = 0;
    std::size_t warmup = 4;
    std::size_t measure = 8;
    bool metrics = true;
    double corrupt = 0.0;   // per-hop corruption flip probability
    bool checks = false;    // insert integrity-verify stages
    bool elastic = false;   // canned elasticity demo schedule
    bool ingest = false;    // canned streaming-ingest demo traffic
    std::size_t prepSmoke = 0; // real-executor items to run and attach
    std::string jsonPath;  // "-" = stdout
    std::string csvPath;   // "-" = stdout
    std::string tracePath; // Chrome trace with counter tracks

    bool fleet = false; // canned multi-job fleet instead of one session
    tb::PlacementPolicy policy = tb::PlacementPolicy::PrepPoolAware;
    int fleetPool = 6; // shared prep-pool FPGAs (negative = uncapped)
    bool fleetChaos = false; // scripted fleet faults on the canned fleet
};

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: tb_report [options]\n"
        "  --preset NAME    baseline | acc | acc-gpu | p2p | p2p-gen4 |\n"
        "                   no-pool | trainbox        (default trainbox)\n"
        "  --model NAME     Table I model name      (default Resnet-50)\n"
        "  --accs N         number of accelerators        (default 256)\n"
        "  --batch N        per-accelerator batch     (default Table I)\n"
        "  --warmup N       warmup steps                    (default 4)\n"
        "  --measure N      measured steps                  (default 8)\n"
        "  --json PATH      write the JSON report (PATH '-' = stdout)\n"
        "  --csv PATH       write the CSV report  (PATH '-' = stdout)\n"
        "  --trace PATH     write a Chrome trace with counter tracks\n"
        "  --no-metrics     run without instrumentation (host-axis\n"
        "                   bottleneck fallback only)\n"
        "  --corrupt P      inject silent corruption at per-hop flip\n"
        "                   probability P (docs/ROBUSTNESS.md)\n"
        "  --checks         insert the checksum-verify stages\n"
        "  --elastic        enable a demo elasticity schedule (group\n"
        "                   drains, spot preemptions, rejoins) and the\n"
        "                   SLO/elasticity report block\n"
        "  --ingest         enable a demo streaming-ingest feed (steady\n"
        "                   + diurnal + burst traffic near the shard-\n"
        "                   write drain capacity) and the ingest/\n"
        "                   freshness report block\n"
        "  --prep-smoke N   also run N items through the real prep\n"
        "                   executor (some deliberately bit-flipped)\n"
        "                   and attach its quarantine to the report\n"
        "  --fleet          run the canned mixed vision+audio multi-job\n"
        "                   fleet (arrival trace, shared prep pool) and\n"
        "                   print the FleetReport; --json/--csv export\n"
        "                   the fleet schema (docs/FLEET.md)\n"
        "  --policy NAME    fleet placement policy: first_fit | packed |\n"
        "                   pool_aware              (default pool_aware)\n"
        "  --pool N         fleet shared prep-pool FPGAs; negative =\n"
        "                   uncapped                        (default 6)\n"
        "  --fleet-chaos    --fleet plus a scripted fleet-fault script\n"
        "                   (host outage, pool partition, box loss):\n"
        "                   kills, checkpoint-restart retries, and the\n"
        "                   grant-reclamation path show up in the\n"
        "                   report (docs/ROBUSTNESS.md)\n"
        "  --list           list presets and models, then exit\n");
}

void
listChoices()
{
    std::printf("presets:\n");
    for (tb::ArchPreset p : tb::allPresets())
        std::printf("  %-9s %s — %s\n", tb::presetKey(p),
                    tb::presetName(p), tb::presetDescription(p));
    std::printf("models:\n");
    for (const auto &m : tb::workload::modelZoo())
        std::printf("  %-12s %s (batch %zu)\n", m.name.c_str(),
                    m.task.c_str(), m.batchSize);
}

void
writeOrPrint(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fputs(content.c_str(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "tb_report: cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::fputs(content.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/**
 * Run @p items through a real PrepExecutor — sealed synthetic JPEGs
 * (every 4th bit-flipped) plus waveforms (every 5th NaN-poisoned) —
 * and attach the quarantine breakdown to @p report.
 */
void
runPrepSmoke(std::size_t items, tb::SessionReport &report)
{
    using namespace tb;
    Rng gen(2026);
    const auto jpeg = prep::makeSyntheticJpeg(64, 64, gen);

    const std::size_t n_images = items - items / 3;
    const std::size_t n_audio = items / 3;
    std::vector<std::vector<std::uint8_t>> jpegs;
    Rng flip(2027);
    for (std::size_t i = 0; i < n_images; ++i) {
        auto bytes = jpeg;
        prep::sealItem(bytes);
        if (i % 4 == 0)
            prep::flipRandomBit(bytes, flip);
        jpegs.push_back(std::move(bytes));
    }
    std::vector<std::vector<double>> waves;
    for (std::size_t i = 0; i < n_audio; ++i) {
        std::vector<double> wave(8000);
        for (std::size_t s = 0; s < wave.size(); ++s)
            wave[s] = 0.2 * std::sin(0.01 * static_cast<double>(s + i));
        if (i % 5 == 0)
            wave[i % wave.size()] =
                std::numeric_limits<double>::quiet_NaN();
        waves.push_back(std::move(wave));
    }

    prep::ExecutorConfig cfg;
    cfg.checksummedItems = true;
    cfg.validateOutputs = true;
    cfg.image.cropWidth = 32;
    cfg.image.cropHeight = 32;
    prep::PrepExecutor exec(cfg);
    for (auto &f : exec.submitImageBatch(std::move(jpegs)))
        f.get();
    for (auto &f : exec.submitAudioBatch(std::move(waves)))
        f.get();
    exec.shutdown();

    const auto by_reason = prep::quarantineByReason(exec.quarantined());
    report.attachPrepQuarantine(items, by_reason);
    std::fprintf(stderr,
                 "prep smoke: %zu items, %zu quarantined\n", items,
                 report.prepItemsQuarantined());
}

/**
 * The canned --fleet scenario: a mixed vision + audio trace on two
 * 2-box hosts. The first two jobs are co-resident (one host each) and
 * oversubscribe the shared prep pool, so admission arbitrates grants
 * across jobs; the third arrives while both hosts are full and queues
 * until the first completion frees its boxes — a nonzero queueing
 * delay by construction.
 */
tb::FleetConfig
cannedFleet(const Options &opt)
{
    using namespace tb;
    FleetConfig fleet;
    fleet.hosts.push_back({"hostA", 2});
    fleet.hosts.push_back({"hostB", 2});
    fleet.policy = opt.policy;
    fleet.sharedPoolFpgas = opt.fleetPool;

    auto job = [&](const char *name, workload::ModelId model,
                   Time arrival) {
        FleetJobSpec spec;
        spec.name = name;
        spec.arrival = arrival;
        spec.config.preset = ArchPreset::TrainBox;
        spec.config.model = model;
        spec.config.numAccelerators = 16; // 2 boxes
        spec.config.prepPoolFpgas = 4;
        spec.config.metricsEnabled = opt.metrics;
        spec.warmupSteps = opt.warmup;
        spec.measureSteps = opt.measure;
        fleet.jobs.push_back(spec);
    };
    job("vision0", workload::ModelId::Resnet50, 0.0);
    job("audio0", workload::ModelId::TfSr, 0.02);
    job("vision1", workload::ModelId::Resnet50, 0.05);

    if (opt.fleetChaos) {
        // A deterministic fault script exercising all three fleet
        // fault kinds: hostA dies mid-run (killing its job, which
        // retries from its last durable checkpoint after backoff), a
        // partition fences free pool FPGAs, and hostB loses a box
        // slot. Times sit well inside the default 12-step runs.
        fleet.faults.enabled = true;
        fleet.faults.maxRetries = 2;
        fleet.faults.retryBackoffBase = 0.5;
        fleet.faults.schedule.push_back(
            {FleetFaultKind::HostOutage, /*host=*/0, /*start=*/5.0,
             /*duration=*/1.0});
        fleet.faults.schedule.push_back(
            {FleetFaultKind::PoolPartition, /*host=*/0, /*start=*/6.5,
             /*duration=*/2.0, /*units=*/2});
        fleet.faults.schedule.push_back(
            {FleetFaultKind::BoxLoss, /*host=*/1, /*start=*/8.0,
             /*duration=*/1.5, /*units=*/1});
    }
    return fleet;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "tb_report: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            listChoices();
            return 0;
        } else if (arg == "--preset") {
            const std::string v = value();
            if (!tb::parsePresetKey(v, opt.preset)) {
                std::fprintf(stderr, "tb_report: unknown preset '%s'\n",
                             v.c_str());
                return 2;
            }
        } else if (arg == "--model") {
            opt.model = value();
        } else if (arg == "--accs") {
            opt.accs = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--batch") {
            opt.batch = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--warmup") {
            opt.warmup = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--measure") {
            opt.measure = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--csv") {
            opt.csvPath = value();
        } else if (arg == "--trace") {
            opt.tracePath = value();
        } else if (arg == "--no-metrics") {
            opt.metrics = false;
        } else if (arg == "--corrupt") {
            opt.corrupt = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--checks") {
            opt.checks = true;
        } else if (arg == "--elastic") {
            opt.elastic = true;
        } else if (arg == "--ingest") {
            opt.ingest = true;
        } else if (arg == "--prep-smoke") {
            opt.prepSmoke = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--fleet") {
            opt.fleet = true;
        } else if (arg == "--fleet-chaos") {
            opt.fleet = true;
            opt.fleetChaos = true;
        } else if (arg == "--policy") {
            const std::string v = value();
            if (!tb::parsePlacementPolicy(v, opt.policy)) {
                std::fprintf(stderr, "tb_report: unknown policy '%s'\n",
                             v.c_str());
                return 2;
            }
        } else if (arg == "--pool") {
            opt.fleetPool =
                static_cast<int>(std::strtol(value().c_str(), nullptr, 10));
        } else {
            std::fprintf(stderr, "tb_report: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (opt.fleet) {
        const tb::FleetReport fleet = tb::runFleet(cannedFleet(opt));
        const bool quiet = opt.jsonPath == "-" || opt.csvPath == "-";
        if (!quiet)
            fleet.print(stdout);
        if (!opt.jsonPath.empty())
            writeOrPrint(opt.jsonPath, fleet.toJson());
        if (!opt.csvPath.empty())
            writeOrPrint(opt.csvPath, fleet.toCsv());
        return 0;
    }

    tb::ServerConfig cfg = tb::ServerConfig::forPreset(opt.preset)
                               .withModel(opt.model)
                               .withAccelerators(opt.accs)
                               .withBatchSize(opt.batch)
                               .withMetrics(opt.metrics);
    if (opt.corrupt > 0.0 || opt.checks) {
        cfg.faults.enabled = true;
        cfg.faults.integrityChecks = opt.checks;
        cfg.faults.corruption.ssdBitFlipProb = opt.corrupt;
        cfg.faults.corruption.pcieErrorProb = opt.corrupt / 2.0;
        cfg.faults.corruption.fpgaUpsetProb = opt.corrupt;
        cfg.faults.corruption.hostDramFlipProb = opt.corrupt / 2.0;
    }
    if (opt.elastic) {
        // Canned demo: planned drains and spot-style preemptions on
        // both NN-accelerator groups and prep FPGAs, all rejoining.
        tb::ElasticityConfig e;
        e.enabled = true;
        e.groupDrain.ratePerSec = 0.02;
        e.groupDrain.absence = 8.0;
        e.groupPreempt.ratePerSec = 0.01;
        e.groupPreempt.absence = 12.0;
        e.prepDrain.ratePerSec = 0.02;
        e.prepDrain.absence = 6.0;
        e.prepPreempt.ratePerSec = 0.01;
        e.prepPreempt.absence = 10.0;
        e.sloTargetSamplesPerSec = 0.9 * tb::workload::targetThroughput(
            tb::workload::model(cfg.model), cfg.numAccelerators,
            cfg.sync);
        cfg = cfg.withElasticity(e);
    }
    if (opt.ingest) {
        // Canned demo: three traffic classes sized off the box count
        // (shard-write drain capacity scales with the SSD population),
        // peaking a little above drain so the overload chain engages.
        tb::IngestConfig in;
        in.enabled = true;
        const double boxes = static_cast<double>(
            (cfg.numAccelerators + cfg.box.accPerBox - 1) /
            cfg.box.accPerBox);
        in.steady = {15000.0 * boxes, 256.0, 2};
        in.diurnal = {8000.0 * boxes, 128.0, 1};
        in.burst = {10000.0 * boxes, 512.0, 0};
        in.diurnalAmplitude = 0.8;
        in.bufferCapacity = 16384.0;
        in.highWatermark = 12288.0;
        in.lowWatermark = 4096.0;
        in.stalenessSlo = 0.1;
        cfg = cfg.withIngest(in);
    }
    const std::string problem = cfg.validate();
    if (!problem.empty()) {
        std::fprintf(stderr, "tb_report: invalid config: %s\n",
                     problem.c_str());
        return 2;
    }

    auto server = tb::buildServer(cfg);
    tb::TrainingSession session(*server);

    tb::TraceWriter trace;
    if (!opt.tracePath.empty())
        session.setTrace(&trace);

    tb::SessionReport report = session.runReport(opt.warmup, opt.measure);
    if (opt.prepSmoke > 0)
        runPrepSmoke(opt.prepSmoke, report);

    const bool quiet =
        opt.jsonPath == "-" || opt.csvPath == "-";
    if (!quiet)
        report.print(stdout);
    if (!opt.jsonPath.empty())
        writeOrPrint(opt.jsonPath, report.toJson());
    if (!opt.csvPath.empty())
        writeOrPrint(opt.csvPath, report.toCsv());
    if (!opt.tracePath.empty()) {
        report.emitCounters(trace);
        trace.writeFile(opt.tracePath);
        std::fprintf(stderr, "wrote %s\n", opt.tracePath.c_str());
    }
    return 0;
}
