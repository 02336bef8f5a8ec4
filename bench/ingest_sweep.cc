/**
 * @file
 * Streaming-ingest sweep: what continuous sample arrival costs and what
 * the overload policy chain buys back (docs/ROBUSTNESS.md, "Streaming
 * ingest & overload").
 *
 * Three experiments on 32-accelerator ResNet-50 TrainBox servers:
 *
 *  1. Arrival-rate sweep — steady ingest from well below to well above
 *     the shard-write drain capacity: admit/shed split, overload trips,
 *     staleness, and the training goodput lost to write→read
 *     interference.
 *  2. Buffer-size sweep — at fixed overload, how much buffer (and
 *     watermark headroom) converts drops into delayed admissions, and
 *     what that does to freshness.
 *  3. Policy comparison — the same 4x overload burst handled by each
 *     escalation prefix of throttle → shed → echo vs a hard stall.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace {

tb::ServerConfig
baseConfig()
{
    tb::ServerConfig cfg;
    cfg.preset = tb::ArchPreset::TrainBox;
    cfg.model = tb::workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    cfg.prepPoolFpgas = 8;
    return cfg;
}

tb::SessionResult
run(const tb::ServerConfig &cfg, std::size_t warmup = 4,
    std::size_t measure = 12)
{
    auto server = tb::buildServer(cfg);
    tb::TrainingSession session(*server);
    return session.run(warmup, measure);
}

/** A steady ingest scenario with mid-sized buffer and watermarks. */
tb::IngestConfig
steadyIngest(double rate_per_sec)
{
    tb::IngestConfig ic;
    ic.enabled = true;
    ic.steady.ratePerSec = rate_per_sec;
    ic.steady.samplesPerEvent = 256.0;
    ic.bufferCapacity = 8192.0;
    ic.lowWatermark = 1024.0;
    ic.highWatermark = 4096.0;
    ic.writeChunkSamples = 512.0;
    return ic;
}

/**
 * Empirical shard-write drain capacity (samples/s): offer far more than
 * the writer can take (throttle keeps training alive) and measure what
 * actually lands. Scales all sweep rates so they stay meaningful if the
 * SSD or interference model changes.
 */
double
probeDrainRate()
{
    tb::ServerConfig cfg = baseConfig();
    cfg.ingest = steadyIngest(5.0e5);
    cfg.ingest.policyChain = {tb::IngestPolicy::Throttle};
    cfg.ingest.throttleFactor = 0.5;
    const tb::SessionResult res = run(cfg, 3, 6);
    return res.ingest.samplesAdmitted / std::max(res.wallTime, 1e-9);
}

/**
 * A 4x overload burst riding on light steady traffic. The burst is
 * injected through the explicit arrival schedule so it is finite (a
 * sustained 4x overload under a stall-only policy would rightly never
 * let training resume); @p burst_at places it mid-measurement — steps
 * take on the order of a second at these scales, so the instant must
 * come from the run's own step time, not a hardcoded wall-clock guess.
 */
tb::IngestConfig
burstIngest(double drain_rate, double burst_at)
{
    tb::IngestConfig ic = steadyIngest(0.3 * drain_rate);
    // A buffer big enough that draining it back to the low watermark
    // outlasts a training step — a shorter hard stall hides entirely
    // inside the in-progress compute and the comparison degenerates.
    ic.bufferCapacity = 65536.0;
    ic.highWatermark = 8192.0;
    ic.lowWatermark = 4096.0;
    const double burst_total = 4.0 * ic.bufferCapacity;
    const int arrivals = 64;
    for (int i = 0; i < arrivals; ++i) {
        tb::IngestArrival a;
        a.kind = tb::IngestTrafficKind::Burst;
        a.samples = burst_total / arrivals;
        a.priority = 0;
        a.at = burst_at + 2.0e-4 * i;
        ic.schedule.push_back(a);
    }
    return ic;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    const SessionResult healthy = run(baseConfig());
    const double drain = probeDrainRate();

    // --- 1. arrival rate vs drain capacity ---------------------------
    bench::banner("Ingest sweep: arrival rate vs shard-write drain "
                  "capacity (ResNet-50, 32 accelerators)");
    Table rate_table({"rate_x_drain", "arrived", "admit_rate",
                      "shed_rate", "trips", "avg_stale_ms", "goodput"});
    for (double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        ServerConfig cfg = baseConfig();
        cfg.ingest = steadyIngest(x * drain);
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        const SessionReport rep = session.runReport(4, 12);
        rate_table.row()
            .add(x)
            .add(rep.ingest().samplesArrived, 0)
            .add(rep.ingestAdmitRate(), 4)
            .add(rep.ingestShedRate(), 4)
            .add(rep.ingest().overloadTrips)
            .add(1e3 * rep.avgIngestStaleness(), 2)
            .add(rep.goodput(healthy.throughput), 4);
    }
    bench::emit(rate_table, csv);

    // --- 2. buffer size at fixed 2x overload -------------------------
    bench::banner("Buffer size: drops vs delayed admissions at 2x "
                  "overload");
    Table buf_table({"capacity", "peak_level", "trips", "overflow",
                     "admit_rate", "avg_stale_ms", "slo_attain"});
    for (double cap : {1024.0, 4096.0, 16384.0, 65536.0}) {
        ServerConfig cfg = baseConfig();
        cfg.ingest = steadyIngest(2.0 * drain);
        cfg.ingest.bufferCapacity = cap;
        cfg.ingest.highWatermark = 0.5 * cap;
        cfg.ingest.lowWatermark = 0.125 * cap;
        cfg.ingest.stalenessSlo = 0.1;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        const SessionReport rep = session.runReport(4, 12);
        buf_table.row()
            .add(cap, 0)
            .add(rep.ingest().peakBufferLevel, 0)
            .add(rep.ingest().overloadTrips)
            .add(rep.ingest().samplesOverflowDropped, 0)
            .add(rep.ingestAdmitRate(), 4)
            .add(1e3 * rep.avgIngestStaleness(), 2)
            .add(rep.freshnessSloAttainment(), 4);
    }
    bench::emit(buf_table, csv);

    // --- 3. policy chain under a 4x overload burst -------------------
    bench::banner("Overload policies: 4x burst handled by each "
                  "escalation prefix vs hard stall");
    Table pol_table({"chain", "goodput", "admit_rate", "echoed",
                     "echo_factor", "stall_sec", "overload_sec"});
    const struct
    {
        const char *name;
        std::vector<IngestPolicy> chain;
    } variants[] = {
        {"stall", {IngestPolicy::Stall}},
        {"throttle", {IngestPolicy::Throttle}},
        {"throttle+shed", {IngestPolicy::Throttle, IngestPolicy::Shed}},
        {"throttle+shed+echo",
         {IngestPolicy::Throttle, IngestPolicy::Shed,
          IngestPolicy::Echo}},
    };
    // Mid-measurement-window instant for a (4 warmup, 12 measure) run,
    // end-anchored (warmup is pipeline-fill and much longer per step).
    const double burst_at = healthy.wallTime - 8.0 * healthy.stepTime;
    for (const auto &v : variants) {
        ServerConfig cfg = baseConfig();
        cfg.ingest = burstIngest(drain, burst_at);
        cfg.ingest.policyChain = v.chain;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        const SessionReport rep = session.runReport(4, 12);
        pol_table.row()
            .add(v.name)
            .add(rep.goodput(healthy.throughput), 4)
            .add(rep.ingestAdmitRate(), 4)
            .add(rep.ingest().samplesEchoed, 0)
            .add(rep.echoEffectiveFactor(), 4)
            .add(rep.ingest().stallTime, 3)
            .add(rep.ingest().overloadTime, 3);
    }
    bench::emit(pol_table, csv);

    return 0;
}
