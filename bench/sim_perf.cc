/**
 * @file
 * Simulator hot-path benchmark: solver events/sec and wall time.
 *
 * Scenarios, each run under both solver modes — FullResolve (every
 * component re-solved on every mutation, the reference) and Incremental
 * (only the touched components) — with the same event budget, and
 * repeated: every row records the median and the minimum wall time.
 *
 *  - fig19_at_256: the paper's TrainBox preset at 256 accelerators — a
 *    real end-to-end session, the largest single-server configuration in
 *    the repo.
 *
 *  - fleet_10k: a synthetic fleet of disjoint *heterogeneous* jobs
 *    (~10k concurrent flows over 2500 jobs) with continuous churn —
 *    every completion launches a replacement flow. The sharing graph
 *    decomposes into thousands of small components, so an incremental
 *    event touches one of them while FullResolve pays for all.
 *
 *  - fleet_sessions: co-resident full training sessions on one shared
 *    core (trainbox/fleet.hh), run to completion.
 *
 *  - eq_churn: EventQueue schedule/cancel/step microbenchmark — the
 *    lazy-tombstone cancel path under load.
 *
 * Both modes must produce bit-identical scenario metrics (session
 * throughput, simulated end time): the solver mode is an optimization,
 * not a model change. A violation exits 1.
 *
 * Output: a table on stdout plus BENCH_sim_perf.json (see --out). Each
 * incremental row carries its events/sec ratio over FullResolve in the
 * same run (median over median, and the worst pairing of repetitions),
 * plus a gate floor: half that worst pairing. With --baseline, this run
 * fails (exit 3) when a case's median ratio falls below the committed
 * floor. Absolute events/sec is recorded for trend reading but never
 * gated — it varies with the host.
 *
 * Flags (any other argument exits 2):
 *   --smoke            small sizes for CI (64 accs, 1k-flow fleet)
 *   --out <path>       JSON output path (default BENCH_sim_perf.json)
 *   --baseline <path>  gate ratios against a committed JSON's floors
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace {

using namespace tb;
using Mode = FluidNetwork::SolverMode;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One repetition of a case: host time, events, scenario metric. */
struct Sample
{
    double wallS = 0.0;
    std::uint64_t events = 0;
    double metric = 0.0; ///< must not vary across reps or modes
};

struct CaseResult
{
    std::string name;
    std::string mode;
    std::size_t reps = 0;
    std::uint64_t events = 0; ///< per repetition
    double wallMedian = 0.0;
    double wallMin = 0.0;
    double wallMax = 0.0;
    double eventsPerSec = 0.0; ///< at the median wall time
    double ratio = 0.0;        ///< events/sec over FullResolve (medians)
    double ratioMin = 0.0;     ///< slowest rep here vs fastest reference
    double gateFloor = 0.0;    ///< ratioMin / 2
    double metric = 0.0;
};

const char *
modeName(Mode mode)
{
    return mode == Mode::FullResolve ? "full_resolve" : "incremental";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Time @p reps repetitions of @p inner back-to-back runs of @p once (a
 * short case needs several runs per repetition to outlast timer and
 * scheduler noise). Panics if events or metric vary between runs.
 */
CaseResult
repeat(const char *name, const char *mode, std::size_t reps,
       std::size_t inner, const std::function<Sample()> &once)
{
    CaseResult r;
    r.name = name;
    r.mode = mode;
    r.reps = reps;
    std::vector<double> walls;
    for (std::size_t i = 0; i < reps; ++i) {
        double wall = 0.0;
        std::uint64_t events = 0;
        for (std::size_t k = 0; k < inner; ++k) {
            const Sample s = once();
            if (i == 0 && k == 0)
                r.metric = s.metric;
            panic_if(s.metric != r.metric,
                     "sim_perf: %s/%s is not deterministic across runs",
                     name, mode);
            wall += s.wallS;
            events += s.events;
        }
        if (i == 0)
            r.events = events;
        panic_if(events != r.events,
                 "sim_perf: %s/%s is not deterministic across runs", name,
                 mode);
        walls.push_back(wall);
    }
    r.wallMedian = median(walls);
    r.wallMin = *std::min_element(walls.begin(), walls.end());
    r.wallMax = *std::max_element(walls.begin(), walls.end());
    r.eventsPerSec = r.wallMedian > 0.0
                         ? static_cast<double>(r.events) / r.wallMedian
                         : 0.0;
    return r;
}

/** Fill @p inc's ratios against the reference row @p full. */
void
compare(CaseResult &inc, const CaseResult &full)
{
    // Equal event budgets, so the events/sec ratio is a wall-time ratio.
    inc.ratio = full.wallMedian / inc.wallMedian;
    inc.ratioMin = full.wallMin / inc.wallMax;
    inc.gateFloor = 0.5 * inc.ratioMin;
}

// --- fig19_at_256 --------------------------------------------------------

Sample
runSession(std::size_t accs, Mode mode, std::size_t warmup,
           std::size_t measure)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = accs;

    auto server = buildServer(cfg);
    server->core().fluid().setSolverMode(mode);

    TrainingSession session(*server);
    const auto t0 = Clock::now();
    const SessionReport report = session.runReport(warmup, measure);
    Sample s;
    s.wallS = secondsSince(t0);
    s.events = server->core().events().numExecuted();
    s.metric = report.throughput();
    return s;
}

// --- fleet_10k -----------------------------------------------------------

Sample
runFleet(std::size_t jobs, std::uint64_t targetEvents, Mode mode)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(mode);

    // Per-job private resources with heterogeneous capacities: the
    // sharing graph is `jobs` disjoint components whose bottleneck
    // steps all differ.
    struct Job
    {
        FluidResource *link;
        FluidResource *pool;
    };
    Rng rng(0x7fee7);
    std::vector<Job> jobRes;
    std::vector<std::size_t> jobFlows;
    jobRes.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
        jobRes.push_back({
            net.addResource("job" + std::to_string(j) + ".link",
                            rng.uniform(60.0, 140.0)),
            net.addResource("job" + std::to_string(j) + ".pool",
                            rng.uniform(50.0, 110.0)),
        });
        jobFlows.push_back(
            static_cast<std::size_t>(rng.uniformInt(2, 6)));
    }

    // Churn: every completion launches a replacement flow in its job,
    // so component membership changes on every event. Relaunching is
    // unconditional — the run simply stops stepping at the event budget.
    // Each job's demands are built once; a flow start copies them.
    std::vector<std::array<FlowDemand, 2>> jobDemands;
    jobDemands.reserve(jobs);
    for (const Job &job : jobRes)
        jobDemands.push_back({{{job.link, 1.0}, {job.pool, 0.8}}});
    const std::uint32_t category = net.internCategory("fleet");
    std::function<void(std::size_t)> launch = [&](std::size_t j) {
        FlowSpec spec;
        spec.category = category;
        spec.size = rng.uniform(5.0, 15.0);
        if (rng.uniform() < 0.3)
            spec.rateCap = rng.uniform(3.0, 10.0); // extra filling round
        spec.demands = jobDemands[j];
        spec.onComplete = [&launch, j](Time) { launch(j); };
        net.startFlow(std::move(spec));
    };

    {
        FluidNetwork::FlowBatch batch(net);
        for (std::size_t j = 0; j < jobs; ++j)
            for (std::size_t k = 0; k < jobFlows[j]; ++k)
                launch(j);
    }

    // Measure steady-state churn only (setup + initial solve excluded).
    const std::uint64_t startEvents = eq.numExecuted();
    const auto t0 = Clock::now();
    while (eq.numExecuted() < startEvents + targetEvents && eq.step()) {
    }
    Sample s;
    s.wallS = secondsSince(t0);
    s.events = eq.numExecuted() - startEvents;
    s.metric = eq.now();
    return s;
}

// --- fleet_sessions ------------------------------------------------------

/**
 * End-to-end multi-job fleet on one shared core (trainbox/fleet.hh):
 * @p jobs co-resident mixed vision + audio TrainBox sessions, each a
 * full training run with its own prefixed fluid server — many mid-size
 * disjoint components, all live at once. Metric is the fleet's
 * aggregate throughput.
 */
Sample
runFleetSessions(std::size_t jobs, Mode mode, std::size_t warmup,
                 std::size_t measure)
{
    FleetConfig cfg;
    for (std::size_t j = 0; j < jobs; ++j) {
        cfg.hosts.push_back({"host" + std::to_string(j), 2});
        FleetJobSpec job;
        const bool audio = j % 2 == 1;
        job.name =
            (audio ? "audio" : "vision") + std::to_string(j);
        job.arrival = 0.01 * static_cast<double>(j);
        job.config.preset = ArchPreset::TrainBox;
        job.config.model = audio ? workload::ModelId::TfSr
                                 : workload::ModelId::Resnet50;
        job.config.numAccelerators = 16;
        job.config.prepPoolFpgas = 4;
        job.warmupSteps = warmup;
        job.measureSteps = measure;
        cfg.jobs.push_back(job);
    }

    const auto t0 = Clock::now();
    FleetSimulation fleet(std::move(cfg));
    fleet.core().fluid().setSolverMode(mode);
    const FleetReport report = fleet.run();
    Sample s;
    s.wallS = secondsSince(t0);
    s.events = report.eventsExecuted;
    s.metric = report.aggregateThroughput;
    return s;
}

// --- eq_churn ------------------------------------------------------------

Sample
runEqChurn(std::uint64_t ops)
{
    EventQueue eq;
    Rng rng(0xec0);
    std::vector<EventId> live;
    std::uint64_t fired = 0;

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const double r = rng.uniform();
        if (r < 0.5 || live.empty()) {
            live.push_back(eq.schedule(eq.now() + rng.uniform(0.0, 10.0),
                                       [&fired] { ++fired; }));
        } else if (r < 0.8) {
            // cancel a random pending event (the old O(n) hot spot)
            const std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(live.size()) -
                                      1));
            eq.cancel(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        } else {
            eq.step();
        }
    }
    Sample s;
    s.wallS = secondsSince(t0);
    s.events = ops;
    s.metric = static_cast<double>(fired);
    return s;
}

// --- JSON emit / baseline compare ----------------------------------------

void
writeJson(const std::string &path, const std::vector<CaseResult> &results,
          bool smoke)
{
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"sim_perf\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        char line[768];
        // One case per line: the baseline comparator below is line-based.
        std::snprintf(line, sizeof(line),
                      "    {\"name\": \"%s\", \"mode\": \"%s\", "
                      "\"reps\": %zu, \"events\": %llu, "
                      "\"wall_s_median\": %.6f, \"wall_s_min\": %.6f, "
                      "\"wall_s_max\": %.6f, \"events_per_sec\": %.1f, "
                      "\"ratio_vs_full\": %.3f, \"ratio_min\": %.3f, "
                      "\"gate_floor\": %.3f, \"metric\": %.6f}%s",
                      r.name.c_str(), r.mode.c_str(), r.reps,
                      static_cast<unsigned long long>(r.events),
                      r.wallMedian, r.wallMin, r.wallMax, r.eventsPerSec,
                      r.ratio, r.ratioMin, r.gateFloor, r.metric,
                      i + 1 < results.size() ? "," : "");
        out << line << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

/** Extract `"key": <number>` from a one-case JSON line (-1 if absent). */
double
extractNumber(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(line.c_str() + pos + needle.size());
}

/**
 * Gate this run's incremental-over-FullResolve ratios against the floors
 * in a committed baseline JSON. Returns false when any case+mode present
 * in both files fell below its floor.
 */
bool
compareBaseline(const std::string &path,
                const std::vector<CaseResult> &results)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "sim_perf: cannot read baseline %s\n",
                     path.c_str());
        return false;
    }
    bool ok = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"name\"") == std::string::npos)
            continue;
        const double floor = extractNumber(line, "gate_floor");
        if (floor <= 0.0)
            continue; // reference rows carry no ratio
        for (const CaseResult &r : results) {
            if (line.find("\"name\": \"" + r.name + "\"") ==
                    std::string::npos ||
                line.find("\"mode\": \"" + r.mode + "\"") ==
                    std::string::npos)
                continue;
            if (r.ratio < floor) {
                std::fprintf(stderr,
                             "sim_perf: REGRESSION %s/%s ratio over "
                             "full_resolve %.2fx < floor %.2fx\n",
                             r.name.c_str(), r.mode.c_str(), r.ratio,
                             floor);
                ok = false;
            }
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_sim_perf.json";
    std::string baselinePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baselinePath = argv[++i];
        } else {
            bench::rejectArgument(
                argv[0], "[--smoke] [--out PATH] [--baseline PATH]", argv[i]);
        }
    }

    const std::size_t reps = smoke ? 3 : 5;
    std::vector<CaseResult> results;

    // Runs @p once under both modes; the incremental row is compared
    // against the reference and both must report the same metric.
    auto both = [&](const char *name, std::size_t inner,
                    const std::function<Sample(Mode)> &once) {
        const CaseResult full =
            repeat(name, modeName(Mode::FullResolve), reps, inner,
                   [&] { return once(Mode::FullResolve); });
        CaseResult inc =
            repeat(name, modeName(Mode::Incremental), reps, inner,
                   [&] { return once(Mode::Incremental); });
        compare(inc, full);
        results.push_back(full);
        results.push_back(inc);
        if (inc.metric != full.metric || inc.events != full.events) {
            std::fprintf(stderr,
                         "sim_perf: BIT-IDENTITY VIOLATION: %s incremental "
                         "metric %.17g (%llu events) != full_resolve "
                         "%.17g (%llu events)\n",
                         name, inc.metric,
                         static_cast<unsigned long long>(inc.events),
                         full.metric,
                         static_cast<unsigned long long>(full.events));
            return false;
        }
        return true;
    };

    // fig19_at_256: a real session at the repo's largest single-server
    // scale. Smoke shrinks to 64 accelerators for CI.
    const std::size_t accs = smoke ? 64 : 256;
    const std::size_t warmup = smoke ? 1 : 2;
    const std::size_t measure = smoke ? 2 : 4;
    if (!both(smoke ? "fig19_at_64" : "fig19_at_256", smoke ? 20 : 5,
              [&](Mode mode) {
                  return runSession(accs, mode, warmup, measure);
              }))
        return 1;

    // fleet_10k: disjoint heterogeneous-job churn, one event budget for
    // both modes.
    const std::size_t jobs = smoke ? 250 : 2500;
    const std::uint64_t budget = smoke ? 2000 : 4000;
    if (!both(smoke ? "fleet_1k" : "fleet_10k", 1, [&](Mode mode) {
            return runFleet(jobs, budget, mode);
        }))
        return 1;

    // fleet_sessions: the real multi-job fleet end to end.
    const std::size_t fleetJobs = smoke ? 4 : 12;
    const std::size_t fsWarmup = smoke ? 1 : 2;
    const std::size_t fsMeasure = smoke ? 2 : 4;
    if (!both(smoke ? "fleet_sessions_4" : "fleet_sessions_12",
              smoke ? 10 : 3, [&](Mode mode) {
                  return runFleetSessions(fleetJobs, mode, fsWarmup,
                                          fsMeasure);
              }))
        return 1;

    results.push_back(repeat("eq_churn", "tombstone", reps, 1, [&] {
        return runEqChurn(smoke ? 200000 : 2000000);
    }));

    std::printf("%-18s %-13s %4s %9s %11s %11s %13s %8s %8s\n", "case",
                "mode", "reps", "events", "wall_med_s", "wall_min_s",
                "events/sec", "ratio", "floor");
    for (const CaseResult &r : results) {
        char ratio[32] = "-";
        char floor[32] = "-";
        if (r.ratio > 0.0) {
            std::snprintf(ratio, sizeof(ratio), "%.2fx", r.ratio);
            std::snprintf(floor, sizeof(floor), "%.2fx", r.gateFloor);
        }
        std::printf("%-18s %-13s %4zu %9llu %11.4f %11.4f %13.1f %8s %8s\n",
                    r.name.c_str(), r.mode.c_str(), r.reps,
                    static_cast<unsigned long long>(r.events),
                    r.wallMedian, r.wallMin, r.eventsPerSec, ratio, floor);
    }

    writeJson(outPath, results, smoke);
    std::printf("\nwrote %s\n", outPath.c_str());

    if (!baselinePath.empty() && !compareBaseline(baselinePath, results))
        return 3;
    return 0;
}
