/**
 * @file
 * Elasticity sweep: what leaving capacity costs and what graceful
 * degradation buys back (docs/ROBUSTNESS.md, "Elastic capacity &
 * graceful degradation").
 *
 * Three experiments on 32-accelerator ResNet-50 TrainBox servers:
 *
 *  1. Leave-rate sweep — planned drains vs spot preemptions at equal
 *     arrival rates. Drains keep the grace window's prepped samples
 *     and coordinate a checkpoint; preemptions discard buffered and
 *     in-compute work, so goodput and SLO attainment fall faster.
 *  2. Grace-window sweep — longer notice converts drop-at-detach
 *     samples into saved ones, at the price of a longer degraded tail.
 *  3. Scale-up — groups held back at start and joined mid-run: the
 *     rebalance cost and the throughput recovered per joined group.
 */

#include <cstdio>

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
run(const tb::ServerConfig &cfg)
{
    auto server = tb::buildServer(cfg);
    tb::TrainingSession session(*server);
    return session.run(4, 12);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    const bool csv = bench::wantCsv(argc, argv);

    const SessionResult healthy = run(baseConfig());
    const double slo = 0.9 * healthy.throughput;

    // --- 1. planned drains vs spot preemptions -----------------------
    bench::banner("Elasticity sweep: planned drains vs spot preemptions "
                  "(ResNet-50, 32 accelerators, SLO = 90% of healthy)");
    Table leave_table({"leave_rate", "kind", "events", "goodput",
                       "slo_attain", "avail", "saved", "lost",
                       "dropped"});
    for (double rate : {0.05, 0.1, 0.2, 0.4}) {
        for (const bool planned : {true, false}) {
            ServerConfig cfg = baseConfig();
            cfg.elasticity.enabled = true;
            cfg.elasticity.sloTargetSamplesPerSec = slo;
            auto &cls = planned ? cfg.elasticity.groupDrain
                                : cfg.elasticity.groupPreempt;
            cls.ratePerSec = rate;
            cls.absence = 2.0;
            auto server = buildServer(cfg);
            TrainingSession session(*server);
            const SessionReport rep = session.runReport(4, 12);
            const auto &e = rep.result.elasticity;
            leave_table.row()
                .add(rate)
                .add(planned ? "drain" : "preempt")
                .add(e.events)
                .add(rep.goodput(healthy.throughput), 4)
                .add(rep.sloAttainment(), 4)
                .add(rep.capacityAvailability(), 4)
                .add(e.samplesSavedByDrain, 0)
                .add(e.samplesLostToPreemption, 0)
                .add(e.samplesDroppedAtDrain, 0);
        }
    }
    bench::emit(leave_table, csv);

    // --- 2. grace window ---------------------------------------------
    bench::banner("Grace window: notice time vs samples saved at drain");
    Table grace_table({"grace_sec", "drains", "saved", "dropped",
                       "goodput", "degraded_sec"});
    for (double grace : {0.0, 0.2, 0.5, 1.0, 2.0}) {
        ServerConfig cfg = baseConfig();
        cfg.elasticity.enabled = true;
        cfg.elasticity.graceWindow = grace;
        cfg.elasticity.groupDrain.ratePerSec = 0.2;
        cfg.elasticity.groupDrain.absence = 2.0;
        const SessionResult r = run(cfg);
        grace_table.row()
            .add(grace)
            .add(r.elasticity.drains)
            .add(r.elasticity.samplesSavedByDrain, 0)
            .add(r.elasticity.samplesDroppedAtDrain, 0)
            .add(SessionReport::computeGoodput(r.throughput,
                                               healthy.throughput),
                 4)
            .add(r.elasticity.degradedCapacityTime, 3);
    }
    bench::emit(grace_table, csv);

    // --- 3. mid-session scale-up -------------------------------------
    bench::banner("Scale-up: deferred groups joining mid-run");
    Table scale_table({"deferred", "join_at", "joins", "avg_active",
                       "throughput", "vs_full_pct"});
    for (std::size_t deferred : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}}) {
        ServerConfig cfg = baseConfig();
        cfg.elasticity.enabled = true;
        cfg.elasticity.deferredJoinGroups = deferred;
        cfg.elasticity.scaleUpTime = 0.2;
        cfg.elasticity.rejoinLatency = 0.1;
        const SessionResult r = run(cfg);
        scale_table.row()
            .add(deferred)
            .add(0.2)
            .add(r.elasticity.joins)
            .add(r.elasticity.avgActiveFraction, 4)
            .add(r.throughput, 1)
            .add(100.0 * r.throughput / healthy.throughput, 2);
    }
    bench::emit(scale_table, csv);

    return 0;
}
