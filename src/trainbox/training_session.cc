#include "trainbox/training_session.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "trainbox/report.hh"
#include "trainbox/train_initializer.hh"

namespace tb {

TrainingSession::TrainingSession(Server &server)
    : server_(server), eq_(server.core().events()),
      net_(server.core().fluid()),
      meter_(server.stageNames,
             {server.cpu->resource(), server.hostMem->resource(),
              server.topo->rcResource()})
{
    groups_.resize(server_.groups.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        groups_[g].spec = &server_.groups[g];
        groups_[g].offloadTrack = server_.groups[g].name + ".offload";
    }
    readStage_ = server_.stageId(
        workload::stageCategory(workload::PrepStage::SsdRead));
}

double
TrainingSession::groupBatchSamples(std::size_t g) const
{
    return static_cast<double>(server_.batchSize()) *
           static_cast<double>(groups_[g].spec->numAccelerators);
}

void
TrainingSession::launchPrep(std::size_t g)
{
    GroupState &gs = groups_[g];
    // Draining groups finish what is in flight but stop topping up the
    // window; detached/joining groups prep nothing.
    if (done_ || down_ || gs.membership != Membership::Active)
        return;
    const double batch = groupBatchSamples(g);
    const double window =
        static_cast<double>(server_.cfg.prefetchDepth) * batch;

    // Launch batch chains as window slots free up; the local and
    // offloaded streams are independent producers of prepared samples,
    // so a slow prep-pool round-trip never stalls completed local work.
    // A crashed or departed FPGA's share shifts onto the prep pool.
    // All of the group's chains launch at one timestamp: batch them so
    // the solver runs once for the group's window instead of once per
    // flow (forEachGroup() widens the batch to every group).
    FluidNetwork::FlowBatch launchBatch(net_);
    while (gs.readySamples + gs.inFlightSamples < window - 1e-6) {
        gs.inFlightSamples += batch;
        const double f = effectiveOffload(g);
        const double local = batch * (1.0 - f);
        if (local > 0.0)
            launchChain(g, /*offload=*/false, local);
        if (f > 0.0)
            launchChain(g, /*offload=*/true, batch * f);
    }
}

/**
 * Run @p step on every group inside one FlowBatch. The handlers that
 * touch all groups at one instant (start, a step boundary, a checkpoint
 * resume, a crash restart, a stall release) then cost one fluid solve,
 * not one per group. Like every session batch it wraps only code that
 * changes flows, and the caller schedules nothing inside it: closing a
 * batch reschedules the completion event, which moves that event's
 * place among same-time events (docs/PERFORMANCE.md).
 */
void
TrainingSession::forEachGroup(void (TrainingSession::*step)(std::size_t))
{
    FluidNetwork::FlowBatch batch(net_);
    for (std::size_t g = 0; g < groups_.size(); ++g)
        (this->*step)(g);
}

// --- prep chains ---------------------------------------------------------
//
// Every prep chain is a ChainRun in chains_, so an open fault window or a
// membership change can cancel its current flow and re-dispatch it on
// another template, and finish() can cancel it outright. A chain
// steps through its template one flow per stage; each flow callback and
// scheduled continuation holds the chain's handle, whose generation a
// restart bumps.

/**
 * Is the group's last prep FPGA out of service for *routing* purposes?
 * A fault crash routes around it only under the poolFailover policy; an
 * elastic leave is known membership change and always routes around it.
 */
bool
TrainingSession::prepOut(const GroupState &gs) const
{
    return gs.prepElasticOut ||
           (gs.prepDegraded && server_.cfg.faults.poolFailover);
}

const std::vector<StageTemplate> &
TrainingSession::selectStages(const ChainRun &run) const
{
    const GroupState &gs = groups_[run.group];
    const PrepGroup &spec = *gs.spec;
    if (run.offload) {
        if ((gs.prepDegraded || gs.prepElasticOut) &&
            !spec.degradedOffloadStages.empty())
            return spec.degradedOffloadStages;
        return spec.offloadStages;
    }
    if (gs.routeLost)
        return spec.hostPathStages;
    if (prepOut(gs) && !spec.degradedStages.empty())
        return spec.degradedStages;
    return spec.stages;
}

double
TrainingSession::effectiveOffload(std::size_t g) const
{
    const GroupState &gs = groups_[g];
    // A membership change re-plans the offload split (replanOffload());
    // the build-time fraction applies until the first change.
    const double f = gs.offloadOverride >= 0.0 ? gs.offloadOverride
                                               : gs.spec->offloadFraction;
    if (!prepOut(gs) || gs.spec->offloadStages.empty())
        return f;
    if (gs.spec->degradedStages.empty())
        return 1.0; // no surviving FPGA: the pool takes the whole chunk
    // The dead FPGA's share of the local fraction moves to the pool.
    const double share =
        1.0 / static_cast<double>(gs.spec->preps.size());
    return f + (1.0 - f) * share;
}

void
TrainingSession::launchChain(std::size_t g, bool offload, double samples)
{
    std::uint32_t slot;
    if (!freeChains_.empty()) {
        slot = freeChains_.back();
        freeChains_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(chains_.size());
        chains_.emplace_back();
    }
    ChainRun &run = chains_[slot];
    const std::uint32_t gen = run.gen;
    run = {.gen = gen, .live = true, .launch = nextLaunch_++, .group = g,
           .offload = offload, .samples = samples, .start = eq_.now()};
    run.stages = &selectStages(run);
    startChainStage({slot, gen}, 0);
}

/** The live chain @p id names, or nullptr once it went stale. */
TrainingSession::ChainRun *
TrainingSession::findChain(ChainId id)
{
    if (id.slot >= chains_.size())
        return nullptr;
    ChainRun &run = chains_[id.slot];
    return run.live && run.gen == id.gen ? &run : nullptr;
}

TrainingSession::ChainId
TrainingSession::chainId(const ChainRun &run) const
{
    return {static_cast<std::uint32_t>(&run - chains_.data()), run.gen};
}

void
TrainingSession::freeChain(ChainRun &run)
{
    run.live = false;
    ++run.gen;
    freeChains_.push_back(chainId(run).slot);
}

/**
 * The live chains' slots in launch order. Handlers that touch many
 * chains visit them in this order, because the flows they start or
 * cancel must come in the same order on every run.
 */
std::vector<std::uint32_t>
TrainingSession::chainsInLaunchOrder() const
{
    std::vector<std::uint32_t> order;
    for (std::uint32_t slot = 0; slot < chains_.size(); ++slot)
        if (chains_[slot].live)
            order.push_back(slot);
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return chains_[a].launch < chains_[b].launch;
              });
    return order;
}

const std::string &
TrainingSession::chainTrack(const ChainRun &run) const
{
    const GroupState &gs = groups_[run.group];
    return run.offload ? gs.offloadTrack : gs.spec->name;
}

void
TrainingSession::startChainStage(ChainId id, std::size_t idx)
{
    ChainRun *run = findChain(id);
    if (run == nullptr)
        return;
    if (idx >= run->stages->size()) {
        // The chunk is prepared: buffer it for compute, top up prep.
        const std::size_t g = run->group;
        GroupState &gs = groups_[g];
        gs.inFlightSamples -= run->samples;
        gs.readySamples += run->samples;
        meter_.chainDone(run->samples, eq_.now() - run->start);
        if (gs.membership == Membership::Draining)
            meter_.elasticity().samplesSavedByDrain += run->samples;
        freeChain(*run);
        tryStartCompute(g);
        launchPrep(g);
        return;
    }
    run->stage = idx;
    run->stageStart = eq_.now();
    run->flow = net_.startFlow((*run->stages)[idx].flow(
        run->samples, [this, id](Time now) { onStageDone(id, now); }));
}

void
TrainingSession::onStageDone(ChainId id, Time now)
{
    ChainRun *found = findChain(id);
    if (found == nullptr)
        return;
    ChainRun &run = *found;
    run.flow = 0;
    const std::size_t idx = run.stage;
    const StageTemplate &done = (*run.stages)[idx];
    const Time start = run.stageStart;
    meter_.stageDone(done.stageId, now - start);
    if (trace_)
        trace_->complete(chainTrack(run), done.name, start, now - start,
                         "prep");
    ChainStep next{.stage = idx + 1};
    if (fault_)
        next = fault_->afterStage(run.retry, *run.stages, idx,
                                  done.stageId == readStage_,
                                  chainTrack(run));
    if (next.restart)
        restartChain(run);
    else if (next.delay > 0.0) {
        // Resume after the delay unless a restart or cancel comes first.
        run.stage = next.stage;
        eq_.scheduleIn(next.delay, [this, id] {
            if (ChainRun *run = findChain(id))
                startChainStage(id, run->stage);
        });
    } else
        startChainStage(id, next.stage);
}

/**
 * Restart @p run at stage 0 on a freshly selected template: cancel its
 * current flow, reset the per-chunk retry state, and bump its generation
 * so pending continuations go stale.
 */
void
TrainingSession::restartChain(ChainRun &run)
{
    if (run.flow != 0) {
        net_.cancelFlow(run.flow);
        run.flow = 0;
    }
    run.stages = &selectStages(run);
    run.retry = {};
    ++run.gen;
    startChainStage(chainId(run), 0);
}

/** Cancel the in-flight chains of group @p g (or of every group). */
void
TrainingSession::cancelChains(std::size_t g)
{
    for (std::uint32_t slot : chainsInLaunchOrder()) {
        ChainRun &run = chains_[slot];
        if (g != kAllGroups && run.group != g)
            continue;
        if (run.flow != 0)
            net_.cancelFlow(run.flow);
        freeChain(run);
    }
}

// --- fault windows (never reached when fault_ is null) ------------------
//
// The FaultInjector plays the windows, counts their time and traces
// them, and calls nothing once finish() stops it; these handlers apply
// each window to the session's devices, groups and chains. A window
// only strikes what the server has (Server::faultTargets()).

std::size_t
TrainingSession::redispatchLocalChains(std::size_t g)
{
    std::size_t redispatched = 0;
    FluidNetwork::FlowBatch batch(net_);
    for (std::uint32_t slot : chainsInLaunchOrder()) {
        ChainRun &run = chains_[slot];
        if (run.group != g || run.offload)
            continue;
        restartChain(run);
        ++redispatched;
    }
    return redispatched;
}

void
TrainingSession::onFault(const FaultEvent &ev)
{
    switch (ev.kind) {
      case FaultKind::SsdDegrade:
        server_.ssds[ev.target]->setReadBandwidthScale(ev.magnitude);
        break;
      case FaultKind::PrepCrash: {
        GroupState &gs = groups_[ev.target];
        // The capacity drop and the re-dispatch share one solve.
        FluidNetwork::FlowBatch batch(net_);
        gs.spec->preps.back()->setFailed(true);
        gs.prepDegraded = true;
        if (fault_->failover())
            redispatchLocalChains(ev.target);
        break;
      }
      case FaultKind::EthDegrade:
        server_.pool->setFabricBandwidthScale(ev.magnitude);
        break;
      case FaultKind::RouteLoss:
        groups_[ev.target].routeLost = true;
        redispatchLocalChains(ev.target);
        break;
      case FaultKind::FatalCrash:
        onFatalCrash(ev);
        break;
    }
}

void
TrainingSession::onRepair(const FaultEvent &ev)
{
    switch (ev.kind) {
      case FaultKind::SsdDegrade:
        server_.ssds[ev.target]->setReadBandwidthScale(1.0);
        break;
      case FaultKind::PrepCrash: {
        GroupState &gs = groups_[ev.target];
        gs.prepDegraded = false;
        // The FPGA only powers back up when no elastic leave holds it
        // away and the group itself is attached (a detached group's
        // devices return at its join).
        if (!gs.prepElasticOut && gs.attached())
            gs.spec->preps.back()->setFailed(false);
        // In-flight degraded chains finish where they are; chains
        // launched from now on use the healthy templates again.
        break;
      }
      case FaultKind::EthDegrade:
        server_.pool->setFabricBandwidthScale(1.0);
        break;
      case FaultKind::RouteLoss:
        groups_[ev.target].routeLost = false;
        break;
      case FaultKind::FatalCrash:
        // Point event: recovery is driven by onFatalCrash's restart
        // timer, not by the zero-length repair window.
        break;
    }
}

void
TrainingSession::onFatalCrash(const FaultEvent &)
{
    // A crash while already down (or after the run finished) changes
    // nothing: the machine is not running, so no extra state is lost.
    if (done_ || down_)
        return;
    const Time now = eq_.now();
    // Everything volatile dies with the process: the capture in flight,
    // in-flight prep chains, buffered prepared samples, running compute,
    // the pending sync. The flows go in one batch, closed before the
    // restart event is scheduled.
    std::size_t durable = 0;
    {
        FluidNetwork::FlowBatch batch(net_);
        durable = ckpt_->crash(now, meter_.steps());
        cancelChains();
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        dropGroupWork(g);
        groups_[g].stepsComputed = durable;
    }
    eq_.cancel(syncEv_);
    meter_.rollBack(durable);
    pausedForCkpt_ = false;
    down_ = true;
    if (trace_)
        trace_->instant("faults", "fatal_crash", now, "fault");

    eq_.scheduleIn(server_.cfg.checkpoint.restartLatency, [this, now] {
        down_ = false;
        ckpt_->restarted(eq_.now());
        if (trace_)
            trace_->complete("faults", "rollback", now,
                             eq_.now() - now, "fault");
        forEachGroup(&TrainingSession::launchPrep);
    });
}

// --- elastic-capacity path -----------------------------------------------
//
// Membership changes arrive from the ElasticScheduler (plus the deferred
// scale-up joins). The state machine lives on GroupState::membership;
// transitions that no longer apply (e.g. a drain for a group a preempt
// already removed) are dropped here. Device capacity changes go through
// setFailed -> capacityChanged inside a FlowBatch, so the fluid re-solve
// stays component-local and runs once per transition.

/**
 * Drop group @p g's volatile work, as a crash, a detach or a kill does:
 * its running compute and its buffered and in-flight samples (the
 * ledger counts the buffered ones discarded). Its chains are the
 * caller's to cancel. Returns the samples lost: those buffered, plus
 * the batch of an aborted compute.
 */
double
TrainingSession::dropGroupWork(std::size_t g)
{
    GroupState &gs = groups_[g];
    double lost = gs.readySamples;
    meter_.discarded(gs.readySamples);
    gs.readySamples = 0.0;
    gs.inFlightSamples = 0.0;
    if (eq_.cancel(gs.computeEv))
        lost += groupBatchSamples(g);
    gs.computing = false;
    return lost;
}

void
TrainingSession::replanOffload()
{
    if (!server_.pool)
        return;
    // The §V-A plan over the attached groups' own accelerators and
    // FPGAs; at full membership it is the build-time plan.
    PrepBoxes boxes;
    for (const GroupState &gs : groups_)
        if (gs.attached())
            boxes.add(gs.spec->numAccelerators, gs.spec->preps.size());
    const double f = planPreparation(server_.cfg, boxes).offloadFraction;
    for (GroupState &gs : groups_)
        if (!gs.spec->offloadStages.empty())
            gs.offloadOverride = f;
}

void
TrainingSession::onElasticEvent(const ElasticEvent &ev)
{
    if (done_ || ev.index >= groups_.size())
        return;
    if (trace_)
        trace_->instant("elastic",
                        std::string(elasticTargetKindName(ev.target)) +
                            "_" + elasticActionName(ev.action),
                        eq_.now(), "elastic");
    const std::size_t g = ev.index;
    const bool group = ev.target == ElasticTargetKind::Group;
    if (ev.action == ElasticAction::Join)
        group ? beginGroupJoin(g) : onPrepJoin(g);
    else if (!group)
        onPrepLeave(g, /*planned=*/ev.action == ElasticAction::Drain);
    else if (ev.action == ElasticAction::Drain)
        beginGroupDrain(g);
    else
        preemptGroup(g);
}

void
TrainingSession::beginGroupDrain(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (gs.membership != Membership::Active)
        return;
    gs.membership = Membership::Draining;
    ++meter_.elasticity().drains;
    // Checkpoint-coordinated drain: durable state at the next step
    // boundary, so the detach loses buffered samples but never steps.
    if (ckpt_)
        ckpt_->requestCapture();
    gs.detachEv = eq_.scheduleIn(
        server_.cfg.elasticity.graceWindow, [this, g] {
            groups_[g].detachEv.invalidate();
            detachGroup(g, /*preempted=*/false);
        });
}

void
TrainingSession::preemptGroup(std::size_t g)
{
    GroupState &gs = groups_[g];
    switch (gs.membership) {
      case Membership::Detached:
        return; // already gone
      case Membership::Joining:
        // Preempted before the attach finished: the join is void.
        eq_.cancel(gs.joinEv);
        gs.membership = Membership::Detached;
        ++meter_.elasticity().preemptions;
        return;
      case Membership::Draining:
        // Escalation: the grace window is cut short.
        eq_.cancel(gs.detachEv);
        break;
      case Membership::Active:
        break;
    }
    ++meter_.elasticity().preemptions;
    detachGroup(g, /*preempted=*/true);
}

void
TrainingSession::detachGroup(std::size_t g, bool preempted)
{
    // A grace-window detach can land after the session finishes on a
    // shared core; the frozen result must not see the teardown.
    if (done_)
        return;
    GroupState &gs = groups_[g];
    if (gs.membership == Membership::Detached)
        return;
    {
        FluidNetwork::FlowBatch batch(net_);
        // In-flight prep chains die with the member, and its buffered
        // samples are discarded: the data shard moves to the survivors,
        // who re-read it from storage.
        cancelChains(g);
        const double lost = dropGroupWork(g);
        SessionResult::ElasticityStats &e = meter_.elasticity();
        (preempted ? e.samplesLostToPreemption : e.samplesDroppedAtDrain) +=
            lost;
        for (PrepAccelerator *p : gs.spec->preps)
            p->setFailed(true);
    }
    meter_.detach(eq_.now());
    gs.membership = Membership::Detached;
    replanOffload();
    // The detach may complete the step the survivors were waiting on.
    stepComplete();
}

void
TrainingSession::beginGroupJoin(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (gs.membership == Membership::Draining) {
        // Capacity returns before the grace window ends: cancel the
        // drain and keep the member (nothing was torn down yet).
        eq_.cancel(gs.detachEv);
        gs.membership = Membership::Active;
        launchPrep(g);
        return;
    }
    if (gs.membership != Membership::Detached)
        return; // already attached or attaching
    gs.membership = Membership::Joining;
    gs.joinEv = eq_.scheduleIn(
        server_.cfg.elasticity.rejoinLatency,
        [this, g] {
            groups_[g].joinEv.invalidate();
            completeJoin(g);
        });
}

void
TrainingSession::completeJoin(std::size_t g)
{
    if (done_)
        return;
    GroupState &gs = groups_[g];
    meter_.attach(eq_.now());
    gs.membership = Membership::Active;
    ++meter_.elasticity().joins;
    meter_.elasticity().rebalanceTime +=
        server_.cfg.elasticity.rejoinLatency;
    // Data-shard rebalance: the joiner picks up at the current global
    // step (or the next one when its sync is already in flight).
    gs.stepsComputed = meter_.steps() + (syncEv_.valid() ? 1 : 0);
    {
        FluidNetwork::FlowBatch batch(net_);
        // Its devices power back up — except the last FPGA while a
        // fault window or an elastic prep leave still holds it down.
        const auto &preps = gs.spec->preps;
        for (std::size_t i = 0; i < preps.size(); ++i) {
            const bool keep_failed = i + 1 == preps.size() &&
                                     (gs.prepDegraded || gs.prepElasticOut);
            preps[i]->setFailed(keep_failed);
        }
    }
    replanOffload();
    launchPrep(g);
    tryStartCompute(g);
}

void
TrainingSession::onPrepLeave(std::size_t g, bool planned)
{
    GroupState &gs = groups_[g];
    if (gs.spec->preps.empty() || !gs.attached())
        return; // the whole group is away; its join restores the FPGA
    if (planned) {
        if (gs.prepElasticOut)
            return; // one elastic prep leave at a time per group
        gs.prepElasticOut = true;
        ++meter_.elasticity().drains;
        // Grace: new chains avoid the leaving FPGA immediately (the
        // degraded templates stripe over the survivors); work already
        // on it may finish until the detach instant.
        const std::uint64_t epoch = ++gs.prepEpoch;
        eq_.scheduleIn(server_.cfg.elasticity.graceWindow,
                              [this, g, epoch] {
            GroupState &gs = groups_[g];
            if (done_ || gs.prepEpoch != epoch || !gs.prepElasticOut ||
                !gs.attached())
                return;
            FluidNetwork::FlowBatch batch(net_);
            gs.spec->preps.back()->setFailed(true);
            meter_.elasticity().chainsRebalanced += redispatchLocalChains(g);
        });
        return;
    }
    // Hard preemption: gone now, in-flight work re-dispatches (the
    // same crash path a PrepCrash fault takes).
    ++gs.prepEpoch; // stales a pending drain detach, if any
    gs.prepElasticOut = true;
    ++meter_.elasticity().preemptions;
    FluidNetwork::FlowBatch batch(net_);
    gs.spec->preps.back()->setFailed(true);
    meter_.elasticity().chainsRebalanced += redispatchLocalChains(g);
}

void
TrainingSession::onPrepJoin(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (gs.spec->preps.empty() || !gs.prepElasticOut)
        return;
    ++gs.prepEpoch; // stales a pending drain detach, if any
    gs.prepElasticOut = false;
    ++meter_.elasticity().joins;
    if (!gs.attached())
        return; // completeJoin powers the FPGA up with the group
    // Back in service unless a fault window still holds it down.
    if (!gs.prepDegraded)
        gs.spec->preps.back()->setFailed(false);
    // In-flight degraded chains finish where they are; new chains use
    // the healthy templates again.
}

void
TrainingSession::tryStartCompute(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (done_ || down_ || pausedForCkpt_ ||
        (ingest_ && ingest_->stalled()) || gs.computing ||
        !gs.attached() || gs.stepsComputed != meter_.steps())
        return;
    const double batch = groupBatchSamples(g);
    const double fresh = ingest_ ? ingest_->freshSamples(batch) : batch;
    if (gs.readySamples + 1e-6 < fresh)
        return;
    gs.readySamples -= fresh;
    meter_.consumed(fresh);
    if (ingest_)
        ingest_->countEchoed(batch - fresh);
    gs.computing = true;
    Time duration = server_.computeTime();
    if (fault_)
        duration = fault_->computeTime(g, gs.stepsComputed, duration,
                                       gs.spec->name);
    gs.computeStart = eq_.now();
    gs.computeEv = eq_.scheduleIn(duration, [this, g] { onComputeDone(g); });
    launchPrep(g);
}

void
TrainingSession::onComputeDone(std::size_t g)
{
    GroupState &gs = groups_[g];
    gs.computeEv.invalidate();
    meter_.computeDone(eq_.now() - gs.computeStart);
    if (trace_)
        trace_->complete(gs.spec->name, "compute", gs.computeStart,
                         eq_.now() - gs.computeStart, "compute");
    gs.computing = false;
    ++gs.stepsComputed;
    // Count the batch toward the step it synchronizes with; a joiner
    // finishing a step whose sync already fired contributes nothing
    // (it recomputes the current step with the re-sharded data).
    if (gs.stepsComputed == meter_.steps() + 1)
        meter_.batchComputed(groupBatchSamples(g));
    stepComplete();
}

/**
 * The step barrier: fire the global sync once every attached
 * (Active/Draining) group has computed past the synced steps. With fixed
 * membership this is exactly the classic counting barrier — the last
 * compute of the step triggers the scan that passes — so results are
 * bit-identical. Under elasticity it additionally fires when a detach
 * removes the group the survivors were waiting on, and deliberately
 * never fires at zero capacity (the session parks until a join).
 */
void
TrainingSession::stepComplete()
{
    if (done_ || down_ || pausedForCkpt_ || syncEv_.valid())
        return;
    std::size_t attached = 0;
    for (const GroupState &gs : groups_) {
        if (!gs.attached())
            continue;
        ++attached;
        if (gs.stepsComputed <= meter_.steps())
            return;
    }
    if (attached == 0)
        return; // zero capacity: park until a join restores a group
    const Time start = eq_.now();
    syncEv_ = eq_.scheduleIn(server_.syncTime(),
                             [this, start] { onSyncDone(start); });
}

/** The sync that started at @p start completes. */
void
TrainingSession::onSyncDone(Time start)
{
    syncEv_.invalidate();
    if (trace_)
        trace_->complete("sync", "ring_allreduce", start, eq_.now() - start,
                         "sync");
    // Opening the window resets only this server's slice of the
    // (possibly shared) network: co-resident sessions own their windows.
    if (meter_.stepSynced(eq_.now()))
        server_.resetAccounting();
    if (meter_.complete()) {
        done_ = true;
        // Freeze the result and tear the session down now: on a shared
        // core other sessions keep simulating, and nothing this session
        // leaves behind may leak into its numbers. Fire the completion
        // hook last so a fleet scheduler sees a fully finalized session.
        finish();
        if (doneCb_) {
            auto cb = std::move(doneCb_);
            doneCb_ = nullptr;
            cb();
        }
        return;
    }
    // Checkpoint decisions happen at step boundaries, where the model
    // is consistent across all accelerators.
    if (ckpt_ &&
        ckpt_->maybeBegin(meter_.steps(), [this] { onCheckpointResume(); })) {
        pausedForCkpt_ = true;
        return;
    }
    forEachGroup(&TrainingSession::tryStartCompute);
}

void
TrainingSession::onCheckpointResume()
{
    pausedForCkpt_ = false;
    if (done_ || down_)
        return;
    forEachGroup(&TrainingSession::tryStartCompute);
    // A membership change during the pause may have already completed
    // the step (no-op with fixed membership: some group is computing).
    stepComplete();
}

void
TrainingSession::start(std::size_t warmup, std::size_t measure)
{
    panic_if(started_, "session already started");
    started_ = true;
    // The busy counter shares the server's resource namespace so N
    // sessions on one registry never collide ("" standalone); it is
    // null while metrics are off.
    MetricCounter *busy = nullptr;
    if (server_.metrics.enabled())
        busy = server_.metrics.counter(
            server_.resourcePrefix() + "session.compute_busy",
            "accelerator-group busy time over the window (group-sec)");
    if (meter_.start(warmup, measure, groups_.size(), eq_.now(), busy))
        server_.resetAccounting();

    if (server_.cfg.faults.enabled) {
        fault_ = std::make_unique<FaultInjector>(
            server_.cfg.faults, server_.faultTargets(), trace_);
        fault_->arm(
            eq_, [this](const FaultEvent &ev) { onFault(ev); },
            [this](const FaultEvent &ev) { onRepair(ev); });
    }

    // The checkpointer exists whenever checkpoints are taken *or* fatal
    // crashes can arrive (then it only tracks lost work and rollbacks —
    // every crash rolls back to step 0).
    if (server_.cfg.checkpoint.enabled ||
        (server_.cfg.faults.enabled &&
         server_.cfg.faults.fatalCrash.ratePerSec > 0.0))
        ckpt_ = std::make_unique<Checkpointer>(server_, trace_);

    if (server_.cfg.elasticity.enabled) {
        elastic_ = std::make_unique<ElasticScheduler>(
            server_.cfg.elasticity, ElasticTargets{groups_.size()});
        // Mid-session scale-up: the deferred groups start detached and
        // receive a Join event at scaleUpTime.
        std::size_t defer = server_.cfg.elasticity.deferredJoinGroups;
        if (!groups_.empty())
            defer = std::min(defer, groups_.size() - 1);
        for (std::size_t i = 0; i < defer; ++i) {
            GroupState &gs = groups_[groups_.size() - 1 - i];
            gs.membership = Membership::Detached;
            for (PrepAccelerator *p : gs.spec->preps)
                p->setFailed(true);
            meter_.detach(eq_.now());
        }
        if (defer > 0)
            replanOffload();
        elastic_->arm(eq_, [this](const ElasticEvent &ev) {
            onElasticEvent(ev);
        });
    }

    if (server_.cfg.ingest.enabled) {
        std::vector<StageTemplate> writes;
        for (const PrepGroup &g : server_.groups)
            writes.push_back(g.ingestWrite);
        ingest_ = std::make_unique<IngestTier>(
            eq_, net_, server_.cfg.ingest, std::move(writes), trace_,
            [this] { forEachGroup(&TrainingSession::tryStartCompute); });
    }

    forEachGroup(&TrainingSession::launchPrep);
}

SessionResult
TrainingSession::run(std::size_t warmup, std::size_t measure)
{
    start(warmup, measure);
    while (!done_ && eq_.step()) {
    }
    panic_if(!done_, "training stalled: event queue drained after %zu steps",
             meter_.steps());
    return collect();
}

void
TrainingSession::finish()
{
    // Charge this server's in-flight flows up to now, so the category
    // maps end at the window end whatever co-resident jobs did last,
    // and extend the utilization histories (no-op without metrics).
    // Cancelling the charged flows then moves no number: the prefetch
    // chains, the shard write and a capture go in one batch.
    server_.settleAccounting();
    net_.flushMetrics();
    if (fault_)
        fault_->stop();
    if (elastic_)
        elastic_->disarm();
    {
        FluidNetwork::FlowBatch batch(net_);
        cancelChains();
        if (ingest_)
            ingest_->stop();
        if (ckpt_)
            ckpt_->abortCapture();
    }

    double cached = 0.0;
    for (const GroupState &gs : groups_)
        cached += gs.readySamples;
    result_ = meter_.finish(eq_.now(), cached);
    SessionResult &res = result_;
    res.computeTime = server_.computeTime();
    res.syncTime = server_.syncTime();
    if (fault_) {
        res.faults = fault_->stats();
        res.integrity = fault_->integrity();
    }
    if (ckpt_)
        res.checkpoint = ckpt_->stats();
    if (elastic_) {
        res.elasticity.events = elastic_->eventsDelivered();
        res.elasticity.sloTargetSamplesPerSec =
            server_.cfg.elasticity.sloTargetSamplesPerSec;
    }
    if (ingest_)
        res.ingest = ingest_->stats();
}

SessionResult
TrainingSession::collect()
{
    panic_if(!done_, "collect() before the session finished");
    // The trace writer is borrowed; drop it so a writer destroyed after
    // the run can never be reached through this session.
    trace_ = nullptr;
    return result_;
}

void
TrainingSession::kill()
{
    if (done_)
        return;
    panic_if(!started_, "kill() before start()");
    // The pending sync is the one scheduled callback without a done_
    // guard (it cannot fire after completion in a normal run); cancel
    // it so a dead session never advances its step count. Every other
    // stray callback lands in a guarded no-op once done_ is set.
    eq_.cancel(syncEv_);
    // Everything volatile dies with the host, as in a fatal crash —
    // but terminally: cancel every per-group compute/membership event
    // here, and let finish() cancel every flow, so the dead job stops
    // loading the shared queue and solver. Buffered prepared samples
    // are lost, not cached: the ledger counts them discarded.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        dropGroupWork(g);
        eq_.cancel(groups_[g].detachEv);
        eq_.cancel(groups_[g].joinEv);
    }
    done_ = true;
    // Termination is the caller's decision, not a completion: the
    // fleet already knows, so the completion hook must never fire.
    doneCb_ = nullptr;
    finish();
    if (trace_)
        trace_->instant("session", "killed", eq_.now(), "fault");
}

SessionReport
TrainingSession::runReport(std::size_t warmup, std::size_t measure)
{
    return SessionReport::build(server_, run(warmup, measure));
}

} // namespace tb
