/**
 * @file
 * Equivalence suite for the incremental fluid solver.
 *
 * The incremental solver (dirty-set tracking + per-component progressive
 * filling) is an optimization, not a model change: for any topology and
 * any arrival/cancel script it must produce the same rates, the same
 * completion times, and the same accounting as re-solving every
 * component on every event (FullResolve). These tests replay randomized
 * scripts — random topologies x random flow arrival/departure schedules
 * — under both modes and compare the full observable trace. Some flows
 * start a successor from their completion callback, as a session's prep
 * chain does. The same harness pins metrics-on/off and
 * FlowBatch-vs-unbatched bit-identity.
 * The O(touched) tests check that a mutation rebases and re-keys only
 * the flows of the component it changes. The whole-run tests take the
 * same equivalence to a session, a fleet of sessions and a churn of
 * disjoint components, and pin each mode's solver work exactly.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

using Mode = FluidNetwork::SolverMode;

// --- randomized script generation ----------------------------------------

struct ScriptDemand
{
    std::size_t res;
    double weight;
};

constexpr std::size_t kNoSuccessor = ~std::size_t{0};

struct ScriptStart
{
    double at = 0.0; ///< start time of a scripted flow
    double size = 0.0;
    double cap = 0.0;
    double fairWeight = 1.0;
    std::vector<ScriptDemand> demands;
    /** Flow this one's completion callback starts (a chained stage). */
    std::size_t successor = kNoSuccessor;
};

struct ScriptCancel
{
    double at;
    std::size_t startIdx;
};

struct Script
{
    std::vector<double> capacities;
    /** Scripted flows first, then the chained stages they start. */
    std::vector<ScriptStart> starts;
    std::size_t scripted = 0; ///< starts[0, scripted) start at `at`
    std::vector<ScriptCancel> cancels;
};

/** Draw a flow's size, cap, weight and demands over @p nres resources. */
ScriptStart
drawFlow(Rng &rng, std::size_t nres)
{
    ScriptStart st;
    st.size = rng.uniform(1.0, 40.0);
    st.cap = rng.uniform() < 0.3 ? rng.uniform(2.0, 20.0) : 0.0;
    st.fairWeight = rng.uniform(0.5, 2.0);
    const std::size_t ndem = static_cast<std::size_t>(rng.uniformInt(0, 3));
    for (std::size_t d = 0; d < ndem; ++d) {
        const std::size_t r = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(nres) - 1));
        bool dup = false;
        for (const auto &have : st.demands)
            dup = dup || have.res == r;
        if (!dup)
            st.demands.push_back({r, rng.uniform(0.2, 2.0)});
    }
    if (st.demands.empty() && st.cap <= 0.0)
        st.cap = rng.uniform(2.0, 20.0); // keep the flow constrained
    return st;
}

Script
makeScript(std::uint64_t seed)
{
    Rng rng(seed);
    Script s;
    const std::size_t nres =
        static_cast<std::size_t>(rng.uniformInt(5, 14));
    for (std::size_t i = 0; i < nres; ++i)
        s.capacities.push_back(rng.uniform(20.0, 200.0));

    double t = 0.0;
    const std::size_t nstarts = 80;
    for (std::size_t i = 0; i < nstarts; ++i) {
        t += rng.uniform(0.0, 0.4);
        ScriptStart st = drawFlow(rng, nres);
        st.at = t;
        s.starts.push_back(std::move(st));
    }
    s.scripted = nstarts;
    for (std::size_t c = 0; c < 15; ++c) {
        const std::size_t idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(nstarts) - 1));
        s.cancels.push_back(
            {s.starts[idx].at + rng.uniform(0.05, 1.5), idx});
    }
    // Completion chains of one to three stages behind 40 % of the
    // scripted flows: each stage starts from its predecessor's
    // completion callback, inside that completion event.
    for (std::size_t i = 0; i < nstarts; ++i) {
        if (rng.uniform() >= 0.4)
            continue;
        std::size_t prev = i;
        for (auto k = rng.uniformInt(1, 3); k > 0; --k) {
            s.starts[prev].successor = s.starts.size();
            prev = s.starts.size();
            s.starts.push_back(drawFlow(rng, nres));
        }
    }
    return s;
}

// --- replay harness ------------------------------------------------------

struct RunTrace
{
    std::vector<double> completionTimes;
    std::vector<std::size_t> completionIdx; ///< script start index
    std::vector<double> rateSamples; ///< all flows' rates after each op
    std::vector<double> servedTotals;
    double endTime = 0.0;
};

struct RunConfig
{
    Mode mode = Mode::FullResolve;
    bool metrics = false;
    bool batchStarts = false; ///< wrap each start op in a FlowBatch
};

RunTrace
replay(const Script &s, const RunConfig &cfg)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(cfg.mode);
    MetricsRegistry reg;
    if (cfg.metrics) {
        reg.enable();
        net.attachMetrics(&reg);
    }

    std::vector<FluidResource *> res;
    for (std::size_t i = 0; i < s.capacities.size(); ++i)
        res.push_back(net.addResource("r" + std::to_string(i),
                                      s.capacities[i]));

    RunTrace trace;
    std::vector<FlowId> ids(s.starts.size(), 0);

    auto sampleRates = [&] {
        for (std::size_t i = 0; i < ids.size(); ++i)
            trace.rateSamples.push_back(
                ids[i] ? net.flowRate(ids[i]) : 0.0);
    };

    std::function<void(std::size_t)> launch = [&](std::size_t i) {
        const ScriptStart &start = s.starts[i];
        FlowSpec spec;
        spec.category = net.internCategory("cat" + std::to_string(i % 5));
        spec.size = start.size;
        spec.rateCap = start.cap;
        spec.fairWeight = start.fairWeight;
        std::vector<FlowDemand> demands;
        for (const auto &d : start.demands)
            demands.push_back({res[d.res], d.weight});
        spec.demands = demands;
        spec.onComplete = [&, i](Time now) {
            trace.completionTimes.push_back(now);
            trace.completionIdx.push_back(i);
            if (s.starts[i].successor != kNoSuccessor)
                launch(s.starts[i].successor);
            // Rates are stale until the completion batch closes; an
            // event at now samples them after it.
            eq.schedule(now, sampleRates);
        };
        if (cfg.batchStarts) {
            FluidNetwork::FlowBatch batch(net);
            ids[i] = net.startFlow(std::move(spec));
        } else {
            ids[i] = net.startFlow(std::move(spec));
        }
    };
    for (std::size_t i = 0; i < s.scripted; ++i) {
        eq.schedule(s.starts[i].at, [&, i] {
            launch(i);
            sampleRates();
        });
    }
    for (const ScriptCancel &c : s.cancels) {
        eq.schedule(c.at, [&, c] {
            if (ids[c.startIdx] != 0)
                net.cancelFlow(ids[c.startIdx]);
            sampleRates();
        });
    }

    eq.run();
    for (const auto &r : net.resources())
        trace.servedTotals.push_back(r->totalServed());
    trace.endTime = eq.now();
    return trace;
}

/** Assert two traces are element-for-element identical. */
void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.completionTimes.size(), b.completionTimes.size());
    for (std::size_t i = 0; i < a.completionTimes.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.completionTimes[i], b.completionTimes[i]);
        EXPECT_EQ(a.completionIdx[i], b.completionIdx[i]);
    }
    ASSERT_EQ(a.rateSamples.size(), b.rateSamples.size());
    for (std::size_t i = 0; i < a.rateSamples.size(); ++i)
        EXPECT_DOUBLE_EQ(a.rateSamples[i], b.rateSamples[i]);
    ASSERT_EQ(a.servedTotals.size(), b.servedTotals.size());
    for (std::size_t i = 0; i < a.servedTotals.size(); ++i)
        EXPECT_DOUBLE_EQ(a.servedTotals[i], b.servedTotals[i]);
    EXPECT_DOUBLE_EQ(a.endTime, b.endTime);
}

// --- tests ---------------------------------------------------------------

TEST(FluidIncremental, RandomizedEquivalenceWithFullResolve)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0x9e37);
        const RunTrace full = replay(s, {.mode = Mode::FullResolve});
        const RunTrace inc = replay(s, {.mode = Mode::Incremental});
        expectTracesEqual(full, inc, "incremental vs full");
    }
}

TEST(FluidIncremental, MetricsOnOffBitIdentity)
{
    // Metrics instrumentation must not perturb the simulation.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0x3e77);
        const RunTrace off = replay(s, {.mode = Mode::Incremental});
        const RunTrace on =
            replay(s, {.mode = Mode::Incremental, .metrics = true});
        expectTracesEqual(off, on, "metrics on vs off");
    }
}

TEST(FluidIncremental, FlowBatchBitIdentity)
{
    // Batching a start defers the solve to batch close; at one start
    // per batch the observable behavior is identical to unbatched.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0xba7c);
        const RunTrace plain = replay(s, {.mode = Mode::Incremental});
        const RunTrace batched =
            replay(s, {.mode = Mode::Incremental, .batchStarts = true});
        expectTracesEqual(plain, batched, "batched vs unbatched");
    }
}

TEST(FluidIncremental, BatchedGroupLaunchMatchesSequential)
{
    // k flows launched at one timestamp inside one FlowBatch must get
    // exactly the rates of k sequential startFlow calls.
    auto run = [](bool batch) {
        EventQueue eq;
        FluidNetwork net(eq);
        FluidResource *a = net.addResource("a", 90.0);
        FluidResource *b = net.addResource("b", 60.0);
        std::vector<FlowId> ids;
        auto launchAll = [&] {
            for (int i = 0; i < 6; ++i) {
                FlowSpec spec;
                spec.category = net.internCategory("g");
                spec.size = 100.0 + i;
                spec.fairWeight = 1.0 + 0.25 * i;
                std::vector<FlowDemand> demands{{a, 1.0}};
                if (i % 2)
                    demands.push_back({b, 0.5});
                spec.demands = demands;
                ids.push_back(net.startFlow(std::move(spec)));
            }
        };
        if (batch) {
            FluidNetwork::FlowBatch fb(net);
            launchAll();
        } else {
            launchAll();
        }
        std::vector<double> rates;
        for (FlowId id : ids)
            rates.push_back(net.flowRate(id));
        return rates;
    };
    const auto seq = run(false);
    const auto bat = run(true);
    ASSERT_EQ(seq.size(), bat.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], bat[i]);
}

TEST(FluidIncremental, CleanComponentsAreSkipped)
{
    // Two disjoint components; mutating one must not re-solve the other.
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    auto start = [&](FluidResource *r, double size) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = size;
        const std::vector<FlowDemand> demands{{r, 1.0}};
        spec.demands = demands;
        return net.startFlow(std::move(spec));
    };

    start(a, 500.0);
    start(a, 500.0);
    const FlowId onB = start(b, 500.0);
    const auto before = net.solverStats();

    // A fourth flow on `a` dirties only component {a}: 3 flows solved.
    start(a, 500.0);
    const auto after = net.solverStats();
    EXPECT_EQ(after.solves, before.solves + 1);
    EXPECT_EQ(after.componentsSolved, before.componentsSolved + 1);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 3);

    // The clean component kept its cached (correct) rate.
    EXPECT_DOUBLE_EQ(net.flowRate(onB), 100.0);
}

TEST(FluidIncremental, TargetedCapacityChangeResolvesOneComponent)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    FlowSpec fa;
    fa.category = net.internCategory("x");
    fa.size = 1000.0;
    const std::vector<FlowDemand> fa_demands{{a, 1.0}};
    fa.demands = fa_demands;
    const FlowId flowA = net.startFlow(std::move(fa));

    FlowSpec fb;
    fb.category = net.internCategory("x");
    fb.size = 1000.0;
    const std::vector<FlowDemand> fb_demands{{b, 1.0}};
    fb.demands = fb_demands;
    const FlowId flowB = net.startFlow(std::move(fb));

    const auto before = net.solverStats();
    a->setCapacity(40.0);
    net.capacityChanged(a);
    const auto after = net.solverStats();

    EXPECT_DOUBLE_EQ(net.flowRate(flowA), 40.0);
    EXPECT_DOUBLE_EQ(net.flowRate(flowB), 100.0);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 1);
}

TEST(FluidIncremental, FullResolveModeStillSolvesEverything)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(Mode::FullResolve);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    auto start = [&](FluidResource *r) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = 500.0;
        const std::vector<FlowDemand> demands{{r, 1.0}};
        spec.demands = demands;
        return net.startFlow(std::move(spec));
    };
    start(a);
    const auto before = net.solverStats();
    start(b);
    const auto after = net.solverStats();
    EXPECT_EQ(after.fullSolves, before.fullSolves + 1);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 2);
    EXPECT_EQ(after.componentsSolved, before.componentsSolved + 2);
}

/** Body of MutationRebasesOnlyItsComponent under solver @p mode. */
void
expectMutationsTouchOneComponent(Mode mode)
{
    constexpr std::size_t kComponents = 16;
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(mode);
    std::vector<FluidResource *> links;
    std::vector<std::vector<FlowId>> flows(kComponents);
    auto start = [&](std::size_t c, double size) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = size;
        const std::vector<FlowDemand> demands{{links[c], 1.0}};
        spec.demands = demands;
        flows[c].push_back(net.startFlow(std::move(spec)));
    };
    for (std::size_t c = 0; c < kComponents; ++c) {
        links.push_back(net.addResource("l" + std::to_string(c), 90.0));
        for (int k = 0; k < 3; ++k)
            start(c, 1000.0 + 100.0 * static_cast<double>(k) +
                         static_cast<double>(c));
    }

    // Start: the new flow and its three peers change rate (30 -> 22.5).
    auto before = net.solverStats();
    start(3, 5000.0);
    auto after = net.solverStats();
    if (mode == Mode::Incremental) {
        EXPECT_EQ(after.flowsSolved - before.flowsSolved, 4u);
    }
    EXPECT_EQ(after.flowsRebased - before.flowsRebased, 4u);
    // One insert for the new flow, one re-key per rebased flow.
    EXPECT_EQ(after.heapUpdates - before.heapUpdates, 5u);

    // Cancel: one removal, the two remaining peers rebased (30 -> 45).
    eq.run(1.0);
    before = net.solverStats();
    net.cancelFlow(flows[5][0]);
    after = net.solverStats();
    EXPECT_EQ(after.flowsRebased - before.flowsRebased, 2u);
    EXPECT_EQ(after.heapUpdates - before.heapUpdates, 3u);
    EXPECT_DOUBLE_EQ(net.flowRate(flows[5][1]), 45.0);
    EXPECT_DOUBLE_EQ(net.flowRate(flows[6][1]), 30.0);

    // Completion: component 5's two flows now run at 45/s, so its
    // smaller one finishes first; only its last peer is rebased.
    before = net.solverStats();
    ASSERT_TRUE(eq.step());
    after = net.solverStats();
    EXPECT_EQ(net.numActive(), 3 * kComponents - 1);
    EXPECT_DOUBLE_EQ(net.flowRemaining(flows[5][1]), 0.0);
    EXPECT_DOUBLE_EQ(net.flowRate(flows[5][2]), 90.0);
    EXPECT_EQ(after.flowsRebased - before.flowsRebased, 1u);
    EXPECT_EQ(after.heapUpdates - before.heapUpdates, 2u);
}

TEST(FluidIncremental, MutationRebasesOnlyItsComponent)
{
    // K disjoint components of three flows each. A start, a cancel and
    // a completion in one component must rebase (charge and re-anchor)
    // and re-key only that component's flows, however many others run
    // — in FullResolve too, whose re-solves of the clean components
    // reproduce their rates bitwise.
    for (Mode mode : {Mode::Incremental, Mode::FullResolve}) {
        SCOPED_TRACE(mode == Mode::Incremental ? "incremental" : "full");
        expectMutationsTouchOneComponent(mode);
    }
}

TEST(FluidIncremental, FinishTieAcrossComponentsCompletesInOneEvent)
{
    // Flows in disjoint components that finish together — exactly, or
    // within the completion tolerance (down to rates far below 1, whose
    // tolerance window is long) — complete in one event, as a scan over
    // every flow would collect them.
    EventQueue eq;
    FluidNetwork net(eq);
    std::vector<Time> done;
    auto start = [&](double capacity, double size) {
        FluidResource *r = net.addResource(
            "r" + std::to_string(net.resources().size()), capacity);
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = size;
        const std::vector<FlowDemand> demands{{r, 1.0}};
        spec.demands = demands;
        spec.onComplete = [&done](Time t) { done.push_back(t); };
        net.startFlow(std::move(spec));
    };
    start(100.0, 500.0);
    start(50.0, 250.0);
    start(100.0, 500.0 + 1e-8);   // 1e-10 s late at rate 100
    start(0.5, 2.5 + 1e-10);      // 2e-10 s late at rate 0.5
    start(1e-3, 5e-3 + 5e-10);    // 5e-7 s late at rate 1e-3
    start(100.0, 500.0 + 1e-3);   // genuinely later: its own event

    eq.run();
    ASSERT_EQ(done.size(), 6u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(done[i], 5.0);
    EXPECT_GT(done[5], 5.0);
    EXPECT_EQ(eq.numExecuted(), 2u);
}

TEST(FluidIncremental, CompletionChainsSolveOncePerEvent)
{
    // k flows finish at one instant, and each completion callback starts
    // its chain's next stage, as a session's prep chain does. The stages
    // start inside the completion event's batch, so the whole event
    // costs one solve, not one per stage.
    constexpr std::size_t kFlows = 4;
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("link", 100.0);
    auto start = [&](double size, std::function<void(Time)> done) {
        FlowSpec spec;
        spec.category = net.internCategory("x");
        spec.size = size;
        const std::vector<FlowDemand> demands{{link, 1.0}};
        spec.demands = demands;
        spec.onComplete = std::move(done);
        return net.startFlow(std::move(spec));
    };
    // Five flows at 20/s each; the four short ones finish at t = 5.
    const FlowId peer = start(1000.0, nullptr);
    std::vector<FlowId> stages;
    double peerRateAfter = -1.0;
    for (std::size_t i = 0; i < kFlows; ++i) {
        start(100.0, [&, i](Time now) {
            stages.push_back(start(50.0 + static_cast<double>(i), nullptr));
            // Rates are stale inside the batch; an event at now reads
            // them after it closes, ahead of the rescheduled completion.
            if (i == 0)
                eq.schedule(now, [&] { peerRateAfter = net.flowRate(peer); });
        });
    }

    const auto before = net.solverStats();
    ASSERT_TRUE(eq.step());
    const auto after = net.solverStats();
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
    ASSERT_EQ(stages.size(), kFlows);
    EXPECT_EQ(after.solves - before.solves, 1u);
    // Only the new stages change rate: the peer's rate goes back to 20/s
    // within the event, so it is not re-anchored.
    EXPECT_EQ(after.flowsRebased - before.flowsRebased, kFlows);
    for (FlowId id : stages)
        EXPECT_DOUBLE_EQ(net.flowRate(id), 20.0);

    ASSERT_TRUE(eq.step());
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
    EXPECT_DOUBLE_EQ(peerRateAfter, 20.0);
}

// --- whole runs under both modes -----------------------------------------

/** What one whole run leaves behind. */
struct WholeRun
{
    double metric = 0.0; ///< the run's result, equal in both modes
    std::uint64_t events = 0;
    std::string json; ///< the full report, where the run has one
    std::uint64_t components = 0; ///< components solved
    std::uint64_t flows = 0;      ///< flows solved
};

/** A TrainBox Resnet-50 session at 64 accelerators, runReport(1, 2). */
WholeRun
runSession(Mode mode)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 64;
    auto server = buildServer(cfg);
    server->core().fluid().setSolverMode(mode);
    TrainingSession session(*server);
    const SessionReport report = session.runReport(1, 2);
    const auto &work = server->core().fluid().solverStats();
    return {report.throughput(), server->core().events().numExecuted(),
            report.toJson(), work.componentsSolved, work.flowsSolved};
}

/** Four co-resident TrainBox jobs, vision and audio in turn, run(1, 2). */
WholeRun
runFleet(Mode mode)
{
    FleetConfig cfg;
    for (std::size_t j = 0; j < 4; ++j) {
        const bool audio = j % 2 == 1;
        cfg.hosts.push_back({"host" + std::to_string(j), 2});
        FleetJobSpec job;
        job.name = (audio ? "audio" : "vision") + std::to_string(j);
        job.arrival = 0.01 * static_cast<double>(j);
        job.config.preset = ArchPreset::TrainBox;
        job.config.model =
            audio ? workload::ModelId::TfSr : workload::ModelId::Resnet50;
        job.config.numAccelerators = 16;
        job.config.prepPoolFpgas = 4;
        job.warmupSteps = 1;
        job.measureSteps = 2;
        cfg.jobs.push_back(job);
    }
    FleetSimulation fleet(std::move(cfg));
    fleet.core().fluid().setSolverMode(mode);
    const FleetReport report = fleet.run();
    const auto &work = fleet.core().fluid().solverStats();
    return {report.aggregateThroughput, report.eventsExecuted,
            report.toJson(), work.componentsSolved, work.flowsSolved};
}

/**
 * 250 jobs of two private resources each, with randomized capacities,
 * flow counts, sizes and rate caps: 250 disjoint components. Every
 * completion starts a replacement flow in its job, so each event
 * changes one component. The run counts the 2,000 events after the
 * initial batch, and the simulated end time is its result.
 */
WholeRun
runChurn(Mode mode)
{
    constexpr std::size_t kJobs = 250;
    constexpr std::uint64_t kEvents = 2000;
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(mode);
    Rng rng(0x7fee7);
    std::vector<std::array<FlowDemand, 2>> demands;
    std::vector<std::size_t> initialFlows;
    for (std::size_t j = 0; j < kJobs; ++j) {
        const std::string name = "job" + std::to_string(j);
        FluidResource *link =
            net.addResource(name + ".link", rng.uniform(60.0, 140.0));
        FluidResource *pool =
            net.addResource(name + ".pool", rng.uniform(50.0, 110.0));
        demands.push_back({{{link, 1.0}, {pool, 0.8}}});
        initialFlows.push_back(
            static_cast<std::size_t>(rng.uniformInt(2, 6)));
    }
    const std::uint32_t category = net.internCategory("churn");
    std::function<void(std::size_t)> launch = [&](std::size_t j) {
        FlowSpec spec;
        spec.category = category;
        spec.size = rng.uniform(5.0, 15.0);
        if (rng.uniform() < 0.3)
            spec.rateCap = rng.uniform(3.0, 10.0); // extra filling round
        spec.demands = demands[j];
        spec.onComplete = [&launch, j](Time) { launch(j); };
        net.startFlow(std::move(spec));
    };
    {
        FluidNetwork::FlowBatch batch(net);
        for (std::size_t j = 0; j < kJobs; ++j)
            for (std::size_t k = 0; k < initialFlows[j]; ++k)
                launch(j);
    }

    const FluidNetwork::SolverStats before = net.solverStats();
    const std::uint64_t start = eq.numExecuted();
    while (eq.numExecuted() < start + kEvents && eq.step()) {
    }
    const FluidNetwork::SolverStats &after = net.solverStats();
    return {eq.now(), eq.numExecuted() - start, "",
            after.componentsSolved - before.componentsSolved,
            after.flowsSolved - before.flowsSolved};
}

/** Components and flows solved over a whole run. */
struct WorkPin
{
    std::uint64_t components;
    std::uint64_t flows;
};

/**
 * Run @p run under both modes. The results must agree bit for bit, and
 * the metric, the event count and each mode's solver work must equal
 * their pins, so a run that does extra solver work, or strays from the
 * pinned run, fails every time. Re-pin only with a change meant to move
 * the simulation, and say so in it.
 */
void
expectPinnedRun(const std::function<WholeRun(Mode)> &run, double metric,
                std::uint64_t events, WorkPin incremental, WorkPin full)
{
    const WholeRun inc = run(Mode::Incremental);
    const WholeRun ref = run(Mode::FullResolve);
    EXPECT_EQ(inc.metric, ref.metric);
    EXPECT_EQ(inc.events, ref.events);
    EXPECT_EQ(inc.json, ref.json);

    EXPECT_DOUBLE_EQ(inc.metric, metric);
    EXPECT_EQ(inc.events, events);
    EXPECT_EQ(inc.components, incremental.components);
    EXPECT_EQ(inc.flows, incremental.flows);
    EXPECT_EQ(ref.components, full.components);
    EXPECT_EQ(ref.flows, full.flows);
}

TEST(FluidIncremental, SessionMatchesFullResolveWithPinnedWork)
{
    expectPinnedRun(runSession, 475014.82780444622, 40, {65, 240},
                    {113, 288});
}

TEST(FluidIncremental, FleetMatchesFullResolveWithPinnedWork)
{
    expectPinnedRun(runFleet, 271093.53114833159, 128, {142, 444},
                    {734, 2622});
}

TEST(FluidIncremental, ChurnSolvesOneComponentPerEvent)
{
    // FullResolve re-solves all 250 components on every event.
    expectPinnedRun(runChurn, 1.4448329016534107, 2000, {2000, 8641},
                    {500000, 2030000});
}

} // namespace
} // namespace tb
