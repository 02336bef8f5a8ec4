/**
 * @file
 * tb_perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   tb_perfbench --workload fig19_grid|fleet_outages|prep_mix
 *                --seed N --seconds S --trace 0|1
 *   tb_perfbench --selftest      every output check must catch a fault
 *   tb_perfbench --print-pins    current golden values, for pins.hh
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. An untraced run
 * reports the end-to-end metrics; a traced run spends half its budget
 * untraced and half traced, prints both end-to-end sets and their
 * difference (the tracing overhead), and reports the per-layer
 * metrics. The exit code is 0 only when every output check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"

namespace perfbench {
namespace {

struct Declared
{
    std::string name;
    std::string unit;
};

const std::vector<Declared> &
endToEndMetrics()
{
    static const std::vector<Declared> list = {
        {"throughput_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return list;
}

const std::vector<Declared> &
perLayerMetrics()
{
    static const std::vector<Declared> list = [] {
        std::vector<Declared> l = {
            {"sim.events", "count"},
            {"sim.host_ns_per_event", "ns"},
            {"sim.step_us_p50", "us"},
            {"sim.step_us_p99", "us"},
            {"fluid.resources", "count"},
            {"fluid.solves", "count"},
            {"fluid.components_solved", "count"},
            {"fluid.flows_solved", "count"},
            {"fluid.flows_per_solve", "flows"},
            {"fluid.live_flows_mean", "flows"},
            {"trainbox.build_s", "s"},
            {"trainbox.start_s", "s"},
            {"trainbox.collect_s", "s"},
        };
        for (const char *p : kFig19PresetKeys) {
            l.push_back({std::string("trainbox.") + p + ".events", "count"});
            l.push_back({std::string("trainbox.") + p +
                             ".host_ns_per_event",
                         "ns"});
        }
        const std::vector<Declared> fleetAndModel = {
            {"fleet.construct_s", "s"},
            {"fleet.run_s", "s"},
            {"fleet.jobs_completed", "count"},
            {"fleet.jobs_abandoned", "count"},
            {"fleet.jobs_queued", "count"},
            {"fleet.restarts", "count"},
            {"fleet.faults_injected", "count"},
            {"model.fig19_mean_speedup", "x"},
            {"model.fig19_max_speedup", "x"},
            {"model.fleet_samples_per_s", "samples/sim_s"},
            {"model.fleet_makespan_s", "sim_s"},
        };
        l.insert(l.end(), fleetAndModel.begin(), fleetAndModel.end());
        for (const char *op : kPrepOps)
            l.push_back({std::string("prep.op.") + op + ".measured_ms",
                         "ms"});
        l.push_back({"prep.image_chain_ms", "ms"});
        l.push_back({"prep.audio_chain_ms", "ms"});
        for (const char *op : kPrepOps)
            l.push_back({std::string("workload.op.") + op + ".modeled_ms",
                         "core-ms"});
        const std::vector<Declared> executor = {
            {"executor.busy_frac", "fraction"},
            {"executor.queue_wait_ms_mean", "ms"},
            {"executor.items_retried", "count"},
            {"executor.items_quarantined", "count"},
            {"executor.item_ms_p50", "ms"},
            {"executor.item_ms_p99", "ms"},
        };
        l.insert(l.end(), executor.begin(), executor.end());
        return l;
    }();
    return list;
}

/** A JSON number with all its digits (non-finite values saturate). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = v < 0 ? -std::numeric_limits<double>::max()
                  : std::numeric_limits<double>::max();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * The declared metrics in declaration order, taking values from
 * @p measured. A layer the workload does not run reports 0. Returns
 * false when @p measured holds a name that was never declared.
 */
bool
fillDeclared(const std::vector<Declared> &declared, const Metrics &measured,
             std::string &json)
{
    json = "{";
    for (std::size_t i = 0; i < declared.size(); ++i) {
        const Declared &d = declared[i];
        const auto it = measured.find(d.name);
        const double v = it == measured.end() ? 0.0 : it->second.value;
        json += (i ? ", \"" : "\"") + d.name + "\": {\"value\": " +
                jsonNumber(v) + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}";
    for (const auto &[name, m] : measured) {
        bool known = false;
        for (const Declared &d : declared)
            known = known || (d.name == name && d.unit == m.unit);
        if (!known) {
            std::fprintf(stderr, "undeclared metric %s [%s]\n",
                         name.c_str(), m.unit.c_str());
            return false;
        }
    }
    return true;
}

void
printMetrics(const char *title, const Metrics &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, metric] : m)
        std::printf("  %-42s %16.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

using WorkloadFn = Outcome (*)(const RunOptions &);

WorkloadFn
lookup(const std::string &name)
{
    if (name == "fig19_grid")
        return runFig19Grid;
    if (name == "fleet_outages")
        return runFleetOutages;
    if (name == "prep_mix")
        return runPrepMix;
    return nullptr;
}

/** Traced run: untraced half, traced half, and their difference. */
Outcome
runTraced(WorkloadFn fn, RunOptions opt)
{
    opt.seconds /= 2.0;
    opt.trace = false;
    Outcome untraced = fn(opt);
    opt.trace = true;
    Outcome traced = fn(opt);

    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.endToEnd = untraced.endToEnd;
    traced.peakRssMiB = untraced.peakRssMiB;

    std::printf("\ntracing overhead (traced vs untraced half):\n");
    for (const auto &[name, base] : untraced.endToEnd) {
        const auto it = traced.tracedEndToEnd.find(name);
        if (it == traced.tracedEndToEnd.end())
            continue;
        const double t = it->second.value;
        std::printf("  %-20s untraced %14.6g  traced %14.6g  %+7.2f%% %s\n",
                    name.c_str(), base.value, t,
                    base.value != 0.0 ? (t / base.value - 1.0) * 100.0 : 0.0,
                    base.unit.c_str());
    }
    return traced;
}

int
selftest()
{
    // Each check must turn a deliberately corrupted output into failed
    // operations.
    struct Case
    {
        const char *workload;
        const char *fault;
    };
    const Case cases[] = {
        {"fig19_grid", "one fig19 cell pin perturbed by 1e-6"},
        {"fleet_outages", "default-seed fleet throughput pin perturbed"},
        {"prep_mix", "one bit flipped in prep item 0"},
    };
    int bad = 0;
    for (const Case &c : cases) {
        RunOptions opt;
        opt.seed = kDefaultSeed;
        opt.seconds = 0.0;
        opt.corrupt = true;
        const Outcome o = lookup(c.workload)(opt);
        const bool caught = o.failed > 0;
        std::printf("selftest %-14s %s: %s (%llu of %llu failed)\n",
                    c.workload, c.fault, caught ? "caught" : "MISSED",
                    static_cast<unsigned long long>(o.failed),
                    static_cast<unsigned long long>(o.attempted));
        bad += caught ? 0 : 1;
    }
    return bad == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tb_perfbench --workload fig19_grid|fleet_outages|"
                 "prep_mix --seed N --seconds S --trace 0|1\n"
                 "       tb_perfbench --selftest | --print-pins\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    tb::setQuiet(true);

    if (std::getenv("TB_PARALLEL_SOLVER") != nullptr) {
        std::fprintf(stderr, "tb_perfbench: TB_PARALLEL_SOLVER is set; the "
                             "benchmark measures only the default serial "
                             "solver. Unset it and rerun.\n");
        return 2;
    }

    std::string workload;
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--selftest")
            return selftest();
        if (arg == "--print-pins") {
            printFig19Pins();
            printFleetPins();
            RunOptions pin;
            pin.seconds = 0.0;
            runPrepMix(pin);
            return 0;
        }
        if (arg == "--workload" && hasValue)
            workload = argv[++i];
        else if (arg == "--seed" && hasValue)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && hasValue)
            opt.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && hasValue)
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        else
            return usage();
    }
    const WorkloadFn fn = lookup(workload);
    if (fn == nullptr || !(opt.seconds >= 0.0))
        return usage();

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, "
                "%zu prep workers + 1 submitter, hardware threads %u\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, prepWorkers(),
                std::thread::hardware_concurrency());

    Outcome out = opt.trace ? runTraced(fn, opt) : fn(opt);
    out.endToEnd["peak_rss_mb"] = {out.peakRssMiB, "MiB"};
    if (opt.trace)
        printMetrics("\nper-layer metrics (traced half):", out.perLayer);
    printMetrics("\nend-to-end metrics (untraced):", out.endToEnd);

    std::string metrics;
    const bool declaredOk =
        opt.trace ? fillDeclared(perLayerMetrics(), out.perLayer, metrics)
                  : fillDeclared(endToEndMetrics(), out.endToEnd, metrics);
    if (!declaredOk)
        return 3;
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
