/**
 * @file
 * The two simulator workloads: fig19_grid (the paper's Fig 19 at 256
 * accelerators, one session per cell, event loop driven here) and
 * fleet_outages (a seeded job trace on a fleet with host outages,
 * driven through FleetSimulation::run()).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/random.hh"
#include "pins.hh"
#include "trainbox/fleet.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace perfbench {

namespace {

using namespace tb;

/** Relative difference, safe at zero. */
double
relDiff(double a, double b)
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

constexpr double kPinTolerance = 1e-9;

// --- fig19_grid -----------------------------------------------------------

/** The Fig 19 preset series, Baseline -> TrainBox. */
const ArchPreset kFig19Presets[kFig19NumPresets] = {
    ArchPreset::Baseline,       ArchPreset::BaselineAccFpga,
    ArchPreset::BaselineAccP2p, ArchPreset::BaselineAccP2pGen4,
    ArchPreset::TrainBox,
};

constexpr std::size_t kFig19Accelerators = 256;
constexpr std::size_t kFig19Warmup = 4;
constexpr std::size_t kFig19Measure = 8;

/** Host-time and counter totals of one pass over the grid. */
struct GridPass
{
    double buildSeconds = 0.0;
    double startSeconds = 0.0;
    double loopSeconds = 0.0;
    double collectSeconds = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t events = 0;
    std::uint64_t resources = 0;
    FluidNetwork::SolverStats solver;
    std::vector<double> throughput; ///< per cell, model-major
    std::vector<double> cellBuildSeconds; ///< per cell
    std::vector<double> cellRunSeconds;   ///< per cell, set-up excluded

    std::uint64_t presetEvents[kFig19NumPresets] = {};
    double presetSeconds[kFig19NumPresets] = {};

    /** Traced only: host time of each EventQueue::step() call. */
    std::vector<double> stepMicros;
    double liveFlowSum = 0.0;
    std::uint64_t liveFlowSamples = 0;

    /** Host time of the timed run (set-up excluded). */
    double runSeconds() const
    {
        return startSeconds + loopSeconds + collectSeconds;
    }
};

GridPass
runGridPass(bool trace)
{
    GridPass pass;
    for (const workload::ModelInfo &m : workload::modelZoo()) {
        for (std::size_t p = 0; p < kFig19NumPresets; ++p) {
            ServerConfig cfg = ServerConfig::baseline()
                                   .withModel(m.id)
                                   .withAccelerators(kFig19Accelerators);
            cfg.withPreset(kFig19Presets[p]);

            const double t0 = hostSeconds();
            std::unique_ptr<Server> server = buildServer(cfg);
            const double t1 = hostSeconds();
            TrainingSession session(*server);
            session.start(kFig19Warmup, kFig19Measure);
            const double t2 = hostSeconds();

            EventQueue &eq = server->core().events();
            const FluidNetwork &net = server->core().fluid();
            if (!trace) {
                while (!session.done() && eq.step()) {
                }
            } else {
                while (!session.done()) {
                    const double a = hostSeconds();
                    const bool stepped = eq.step();
                    const double b = hostSeconds();
                    if (!stepped)
                        break;
                    pass.stepMicros.push_back((b - a) * 1e6);
                    pass.liveFlowSum += static_cast<double>(net.numActive());
                    ++pass.liveFlowSamples;
                }
            }
            const double t3 = hostSeconds();
            const SessionResult result = session.collect();
            const double t4 = hostSeconds();

            pass.buildSeconds += t1 - t0;
            pass.startSeconds += t2 - t1;
            pass.loopSeconds += t3 - t2;
            pass.collectSeconds += t4 - t3;
            pass.steps += session.stepsSynced();
            pass.events += eq.numExecuted();
            pass.resources += net.resources().size();
            const FluidNetwork::SolverStats &s = net.solverStats();
            pass.solver.solves += s.solves;
            pass.solver.componentsSolved += s.componentsSolved;
            pass.solver.flowsSolved += s.flowsSolved;
            pass.presetEvents[p] += eq.numExecuted();
            pass.presetSeconds[p] += t4 - t1;
            pass.throughput.push_back(
                session.done() ? result.throughput : 0.0);
            pass.cellBuildSeconds.push_back(t1 - t0);
            pass.cellRunSeconds.push_back(t4 - t1);
        }
    }
    return pass;
}

} // namespace

Outcome
runFig19Grid(const RunOptions &opt)
{
    // No randomness: the seed is ignored. Whole passes only, at least
    // one, until the budget is spent.
    std::vector<GridPass> passes;
    const double begin = hostSeconds();
    Outcome out;
    do {
        passes.push_back(runGridPass(opt.trace));
        if (passes.size() == 1)
            out.peakRssMiB = peakRssMiB();
    } while (hostSeconds() - begin < opt.seconds);

    std::vector<double> pins(std::begin(kFig19Throughput),
                             std::end(kFig19Throughput));
    if (opt.corrupt)
        pins[0] *= 1.0 + 1e-6;

    for (const GridPass &pass : passes) {
        for (std::size_t c = 0; c < pass.throughput.size(); ++c) {
            ++out.attempted;
            if (c >= pins.size() ||
                !(relDiff(pass.throughput[c], pins[c]) <= kPinTolerance)) {
                ++out.failed;
                std::fprintf(stderr,
                             "fig19_grid: cell %zu throughput %.17g != "
                             "pinned %.17g\n",
                             c, pass.throughput[c],
                             c < pins.size() ? pins[c] : 0.0);
            }
        }
    }

    // The model's own answer beside the paper's (never gated).
    const GridPass &first = passes.front();
    double sumSpeedup = 0.0;
    double maxSpeedup = 0.0;
    const std::size_t numModels = workload::modelZoo().size();
    for (std::size_t m = 0; m < numModels; ++m) {
        const double base = first.throughput[m * kFig19NumPresets];
        const double tb =
            first.throughput[m * kFig19NumPresets + kFig19NumPresets - 1];
        const double speedup = base > 0.0 ? tb / base : 0.0;
        sumSpeedup += speedup;
        maxSpeedup = std::max(maxSpeedup, speedup);
    }
    const double meanSpeedup = sumSpeedup / static_cast<double>(numModels);
    std::printf("fig19_grid: %zu passes x %zu cells at %zu accelerators; "
                "TrainBox over Baseline mean %.1fx, max %.1fx "
                "(paper: 44.4x mean, 84.3x max)\n",
                passes.size(), first.throughput.size(), kFig19Accelerators,
                meanSpeedup, maxSpeedup);

    // Each cell's fastest-decile pass, summed over the grid, so a
    // disturbed pass moves neither metric.
    double runSeconds = 0.0;
    double buildSeconds = 0.0;
    for (std::size_t c = 0; c < first.throughput.size(); ++c) {
        std::vector<double> run, build;
        for (const GridPass &p : passes) {
            run.push_back(p.cellRunSeconds[c]);
            build.push_back(p.cellBuildSeconds[c]);
        }
        runSeconds += fastTime(run);
        buildSeconds += fastTime(build);
    }
    Metrics &e2e = opt.trace ? out.tracedEndToEnd : out.endToEnd;
    e2e["throughput_per_s"] = {static_cast<double>(first.steps) / runSeconds,
                               "1/s"};
    e2e["setup_s"] = {buildSeconds, "s"};
    if (!opt.trace)
        return out;

    // Per-layer metrics: counts per pass (they repeat exactly), host
    // times as the median pass.
    const GridPass &pass = first;
    auto medianOf = [&](auto field) {
        std::vector<double> v;
        for (const GridPass &p : passes)
            v.push_back(field(p));
        return median(v);
    };
    Metrics &pl = out.perLayer;
    const double events = static_cast<double>(pass.events);
    pl["sim.events"] = {events, "count"};
    pl["sim.host_ns_per_event"] = {
        medianOf([](const GridPass &p) {
            return p.runSeconds() * 1e9 / static_cast<double>(p.events);
        }),
        "ns"};
    std::vector<double> stepMicros;
    for (const GridPass &p : passes)
        stepMicros.insert(stepMicros.end(), p.stepMicros.begin(),
                          p.stepMicros.end());
    pl["sim.step_us_p50"] = {percentile(stepMicros, 0.50), "us"};
    pl["sim.step_us_p99"] = {percentile(stepMicros, 0.99), "us"};

    pl["fluid.resources"] = {static_cast<double>(pass.resources), "count"};
    pl["fluid.solves"] = {static_cast<double>(pass.solver.solves), "count"};
    pl["fluid.components_solved"] = {
        static_cast<double>(pass.solver.componentsSolved), "count"};
    pl["fluid.flows_solved"] = {
        static_cast<double>(pass.solver.flowsSolved), "count"};
    pl["fluid.flows_per_solve"] = {
        static_cast<double>(pass.solver.flowsSolved) /
            static_cast<double>(pass.solver.componentsSolved),
        "flows"};
    pl["fluid.live_flows_mean"] = {
        pass.liveFlowSum / static_cast<double>(pass.liveFlowSamples),
        "flows"};

    pl["trainbox.build_s"] = {
        medianOf([](const GridPass &p) { return p.buildSeconds; }), "s"};
    pl["trainbox.start_s"] = {
        medianOf([](const GridPass &p) { return p.startSeconds; }), "s"};
    pl["trainbox.collect_s"] = {
        medianOf([](const GridPass &p) { return p.collectSeconds; }), "s"};
    for (std::size_t k = 0; k < kFig19NumPresets; ++k) {
        const std::string key =
            std::string("trainbox.") + kFig19PresetKeys[k];
        pl[key + ".events"] = {static_cast<double>(pass.presetEvents[k]),
                               "count"};
        pl[key + ".host_ns_per_event"] = {
            medianOf([k](const GridPass &p) {
                return p.presetSeconds[k] * 1e9 /
                       static_cast<double>(p.presetEvents[k]);
            }),
            "ns"};
    }

    pl["model.fig19_mean_speedup"] = {meanSpeedup, "x"};
    pl["model.fig19_max_speedup"] = {maxSpeedup, "x"};
    return out;
}

void
printFig19Pins()
{
    const GridPass pass = runGridPass(false);
    std::printf("const double kFig19Throughput[] = {\n");
    for (double v : pass.throughput)
        std::printf("    %.17g,\n", v);
    std::printf("};\n");
}

// --- fleet_outages --------------------------------------------------------

namespace {

constexpr std::size_t kFleetJobs = 100;
constexpr std::size_t kFleetHosts = 48;
constexpr std::size_t kFleetSlotsPerHost = 2;
constexpr int kFleetPoolFpgas = 48;

// Fleet-clock (simulated) seconds.
constexpr Time kFleetMeanGap = 0.05;
constexpr Time kFleetCheckpointInterval = 0.5;
constexpr Time kFleetRestartLatency = 0.2;
constexpr Time kFleetHostMtbf = 25.0;
constexpr Time kFleetHostMttr = 0.5;
constexpr Time kFleetHorizon = 300.0;

/**
 * Trace @p trace of the seeded fleet scenario: job order, arrivals,
 * outage schedule and retry policy.
 */
FleetConfig
makeFleet(std::uint64_t seed, std::size_t trace)
{
    Rng rng(seed ^ 0x666c6565746f7574ull ^
            (trace + 1) * 0x9e3779b97f4a7c15ull);
    FleetConfig fleet;
    for (std::size_t h = 0; h < kFleetHosts; ++h)
        fleet.hosts.push_back({"host" + std::to_string(h),
                               kFleetSlotsPerHost});
    fleet.policy = PlacementPolicy::PrepPoolAware;
    fleet.sharedPoolFpgas = kFleetPoolFpgas;

    // The job mix is the same for every seed: 60 vision and 40 audio
    // jobs, half of each on 8 and half on 16 accelerators, pool requests
    // cycling 1..4. The seed shuffles their order and draws the arrival
    // gaps and the outage schedule.
    const workload::ModelId models[] = {
        workload::ModelId::Resnet50, workload::ModelId::TfSr,
        workload::ModelId::InceptionV4, workload::ModelId::TfAa,
        workload::ModelId::Vgg19};
    std::vector<FleetJobSpec> jobs;
    for (std::size_t j = 0; j < kFleetJobs; ++j) {
        FleetJobSpec job;
        const workload::ModelId id = models[j % 5];
        const bool isAudio = workload::model(id).input ==
                             workload::InputType::Audio;
        job.name = (isAudio ? "audio" : "vision") + std::to_string(j);
        job.config.preset = ArchPreset::TrainBox;
        job.config.model = id;
        job.config.numAccelerators = (j / 5) % 2 == 0 ? 8 : 16;
        job.config.prepPoolFpgas = static_cast<int>(1 + j % 4);
        job.config.checkpoint.enabled = true;
        job.config.checkpoint.interval = kFleetCheckpointInterval;
        job.config.checkpoint.restartLatency = kFleetRestartLatency;
        job.warmupSteps = 4;
        job.measureSteps = 16;
        jobs.push_back(std::move(job));
    }
    for (std::size_t j = jobs.size(); j > 1; --j)
        std::swap(jobs[j - 1], jobs[static_cast<std::size_t>(
                                   rng.uniformInt(0, j - 1))]);
    Time arrival = 0.0;
    for (FleetJobSpec &job : jobs) {
        arrival += -std::log(1.0 - rng.uniform()) * kFleetMeanGap;
        job.arrival = arrival;
        fleet.jobs.push_back(std::move(job));
    }

    fleet.horizon = kFleetHorizon;
    fleet.faults.enabled = true;
    fleet.faults.seed = rng();
    fleet.faults.hostOutage = {kFleetHostMtbf, kFleetHostMttr};
    fleet.faults.maxRetries = 2;
    fleet.faults.retryBackoffBase = 0.05;
    return fleet;
}

/** Steps synchronized: final attempts' steps plus steps lost to failures. */
std::uint64_t
fleetSteps(const FleetConfig &cfg, const FleetReport &r)
{
    std::uint64_t steps = r.stepsLostTotal;
    for (std::size_t j = 0; j < r.jobs.size(); ++j)
        if (r.jobs[j].completed)
            steps += cfg.jobs[j].warmupSteps +
                     r.jobs[j].report.stepsMeasured();
    return steps;
}

struct FleetRun
{
    double constructSeconds = 0.0;
    double runSeconds = 0.0;
    FleetReport report;
    std::uint64_t events = 0;
    std::uint64_t resources = 0;
    FluidNetwork::SolverStats solver;
};

/** Constructions per fleet run; its set-up time is their fastest decile. */
constexpr int kFleetSetupRepeats = 5;

FleetRun
runFleetOnce(const FleetConfig &cfg)
{
    FleetRun run;
    std::vector<double> constructs;
    std::unique_ptr<FleetSimulation> fleet;
    for (int r = 0; r < kFleetSetupRepeats; ++r) {
        FleetConfig copy = cfg;
        fleet.reset();
        const double t0 = hostSeconds();
        fleet = std::make_unique<FleetSimulation>(std::move(copy));
        constructs.push_back(hostSeconds() - t0);
    }
    const double t1 = hostSeconds();
    run.report = fleet->run();
    run.runSeconds = hostSeconds() - t1;
    run.constructSeconds = fastTime(constructs);
    run.events = fleet->core().events().numExecuted();
    run.resources = fleet->core().fluid().resources().size();
    run.solver = fleet->core().fluid().solverStats();
    return run;
}

/** One trace of the workload and its repeated runs. */
struct FleetTrace
{
    FleetConfig cfg;
    std::vector<FleetRun> runs;
    std::uint64_t steps = 0;

    std::vector<double> runSeconds() const
    {
        std::vector<double> v;
        for (const FleetRun &r : runs)
            v.push_back(r.runSeconds);
        return v;
    }

    std::vector<double> constructSeconds() const
    {
        std::vector<double> v;
        for (const FleetRun &r : runs)
            v.push_back(r.constructSeconds);
        return v;
    }
};

/** Why run @p r of trace @p t fails its checks ("" when it passes). */
std::string
checkFleetRun(const FleetTrace &t, std::size_t trace, const FleetReport &r,
              const RunOptions &opt)
{
    const FleetReport &ref = t.runs.front().report;
    if (r.jobsCompleted + r.jobsAbandoned != r.jobsTotal)
        return "a job ended neither completed nor abandoned";
    if (r.aggregateThroughput != ref.aggregateThroughput ||
        r.eventsExecuted != ref.eventsExecuted)
        return "a repeated run of one trace differs";
    if (opt.seed != kDefaultSeed && !opt.corrupt)
        return "";
    FleetPins pins = kFleetPins[trace];
    if (opt.corrupt)
        pins.aggregateThroughput *= 1.0 + 1e-6;
    if (!(relDiff(r.aggregateThroughput, pins.aggregateThroughput) <=
          kPinTolerance) ||
        r.jobsCompleted != pins.jobsCompleted ||
        r.jobsAbandoned != pins.jobsAbandoned ||
        r.restartsTotal != pins.restarts)
        return "default-seed outcome differs from its pins";
    return "";
}

} // namespace

Outcome
runFleetOutages(const RunOptions &opt)
{
    Outcome out;
    std::vector<FleetTrace> traces(kFleetTraces);
    for (std::size_t i = 0; i < kFleetTraces; ++i) {
        traces[i].cfg = makeFleet(opt.seed, i);
        const std::string err = traces[i].cfg.validate();
        if (!err.empty()) {
            std::fprintf(stderr, "fleet_outages: invalid trace %zu: %s\n",
                         i, err.c_str());
            out.attempted = out.failed = 1;
            return out;
        }
    }

    // Whole rounds over the traces, at least one, until the budget is
    // spent.
    const double begin = hostSeconds();
    do {
        for (FleetTrace &t : traces)
            t.runs.push_back(runFleetOnce(t.cfg));
        if (traces[0].runs.size() == 1)
            out.peakRssMiB = peakRssMiB();
    } while (hostSeconds() - begin < opt.seconds);

    double steps = 0.0;
    double runSeconds = 0.0;
    double setupSeconds = 0.0;
    for (std::size_t i = 0; i < kFleetTraces; ++i) {
        FleetTrace &t = traces[i];
        for (const FleetRun &run : t.runs) {
            const FleetReport &r = run.report;
            const std::string why = checkFleetRun(t, i, r, opt);
            out.attempted += r.jobsTotal;
            if (!why.empty()) {
                out.failed += r.jobsTotal;
                std::fprintf(stderr,
                             "fleet_outages: trace %zu: %s (throughput "
                             "%.17g, completed %zu, abandoned %zu, "
                             "restarts %zu)\n",
                             i, why.c_str(), r.aggregateThroughput,
                             r.jobsCompleted, r.jobsAbandoned,
                             r.restartsTotal);
            }
        }
        const FleetRun &first = t.runs.front();
        t.steps = fleetSteps(t.cfg, first.report);
        steps += static_cast<double>(t.steps);
        runSeconds += fastTime(t.runSeconds());
        setupSeconds += fastTime(t.constructSeconds());
        std::printf("fleet_outages: seed %llu trace %zu: %zu runs of %zu "
                    "jobs on %zu hosts; completed %zu, abandoned %zu, "
                    "restarts %zu, %llu steps, %llu events\n",
                    static_cast<unsigned long long>(opt.seed), i,
                    t.runs.size(), first.report.jobsTotal,
                    t.cfg.hosts.size(), first.report.jobsCompleted,
                    first.report.jobsAbandoned, first.report.restartsTotal,
                    static_cast<unsigned long long>(t.steps),
                    static_cast<unsigned long long>(first.events));
    }

    Metrics &e2e = opt.trace ? out.tracedEndToEnd : out.endToEnd;
    e2e["throughput_per_s"] = {steps / runSeconds, "1/s"};
    e2e["setup_s"] = {setupSeconds, "s"};
    if (!opt.trace)
        return out;

    // Per-layer metrics: counts summed over one round of the traces,
    // host times as the sum of each trace's median run.
    double events = 0.0, resources = 0.0, solves = 0.0, components = 0.0;
    double flows = 0.0, runMedian = 0.0, constructMedian = 0.0;
    double completed = 0.0, abandoned = 0.0, queued = 0.0, restarts = 0.0;
    double faults = 0.0, samplesPerSec = 0.0, makespan = 0.0;
    for (const FleetTrace &t : traces) {
        const FleetRun &first = t.runs.front();
        const FleetReport &r = first.report;
        events += static_cast<double>(first.events);
        resources += static_cast<double>(first.resources);
        solves += static_cast<double>(first.solver.solves);
        components += static_cast<double>(first.solver.componentsSolved);
        flows += static_cast<double>(first.solver.flowsSolved);
        runMedian += median(t.runSeconds());
        constructMedian += median(t.constructSeconds());
        completed += static_cast<double>(r.jobsCompleted);
        abandoned += static_cast<double>(r.jobsAbandoned);
        queued += static_cast<double>(r.jobsQueued);
        restarts += static_cast<double>(r.restartsTotal);
        faults += static_cast<double>(r.fleetFaultsInjected);
        samplesPerSec += r.aggregateThroughput / kFleetTraces;
        makespan += r.makespan / kFleetTraces;
    }
    Metrics &pl = out.perLayer;
    pl["sim.events"] = {events, "count"};
    pl["sim.host_ns_per_event"] = {runMedian * 1e9 / events, "ns"};
    pl["fluid.resources"] = {resources, "count"};
    pl["fluid.solves"] = {solves, "count"};
    pl["fluid.components_solved"] = {components, "count"};
    pl["fluid.flows_solved"] = {flows, "count"};
    pl["fluid.flows_per_solve"] = {flows / components, "flows"};
    pl["fleet.construct_s"] = {constructMedian, "s"};
    pl["fleet.run_s"] = {runMedian, "s"};
    pl["fleet.jobs_completed"] = {completed, "count"};
    pl["fleet.jobs_abandoned"] = {abandoned, "count"};
    pl["fleet.jobs_queued"] = {queued, "count"};
    pl["fleet.restarts"] = {restarts, "count"};
    pl["fleet.faults_injected"] = {faults, "count"};
    pl["model.fleet_samples_per_s"] = {samplesPerSec, "samples/sim_s"};
    pl["model.fleet_makespan_s"] = {makespan, "sim_s"};
    return out;
}

void
printFleetPins()
{
    std::printf("const FleetPins kFleetPins[kFleetTraces] = {\n");
    for (std::size_t i = 0; i < kFleetTraces; ++i) {
        const FleetReport r = runFleetOnce(makeFleet(kDefaultSeed, i)).report;
        std::printf("    {%.17g, %zu, %zu, %zu},\n", r.aggregateThroughput,
                    r.jobsCompleted, r.jobsAbandoned, r.restartsTotal);
    }
    std::printf("};\n");
}

} // namespace perfbench
