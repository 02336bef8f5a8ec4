#include "trainbox/training_session.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "trainbox/multi_job.hh"
#include "trainbox/report.hh"

namespace tb {

TrainingSession::TrainingSession(Server &server)
    : server_(server), eq_(server.core().events()),
      net_(server.core().fluid())
{
    groups_.resize(server_.groups.size());
    for (std::size_t g = 0; g < groups_.size(); ++g)
        groups_[g].spec = &server_.groups[g];
}

bool
TrainingSession::measuring() const
{
    return syncedSteps_ >= warmupSteps_ && !done_;
}

std::size_t
TrainingSession::chunksPerBatch() const
{
    return std::max<std::size_t>(1, server_.cfg.prepChunks);
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
    const double chunk = batch / static_cast<double>(chunksPerBatch());
    const double window =
        static_cast<double>(server_.cfg.prefetchDepth) * batch;

    // Launch chunk chains as window slots free up; the local and
    // offloaded streams are independent producers of prepared samples,
    // so a slow prep-pool round-trip never stalls completed local work.
    // A crashed or departed FPGA's share shifts onto the prep pool.
    // All chains launch at one timestamp: batch them so the solver runs
    // once for the whole window instead of once per flow.
    FluidNetwork::FlowBatch launchBatch(net_);
    while (gs.readySamples + gs.inFlightSamples < window - 1e-6) {
        gs.inFlightSamples += chunk;
        const double f = effectiveOffload(g);
        const double local = chunk * (1.0 - f);
        if (local > 0.0)
            launchChain(g, /*offload=*/false, local);
        if (f > 0.0)
            launchChain(g, /*offload=*/true, chunk * f);
    }
}

void
TrainingSession::onChainDone(std::size_t g, double samples,
                             Time chain_start)
{
    GroupState &gs = groups_[g];
    gs.inFlightSamples -= samples;
    gs.readySamples += samples;
    samplesPrepared_ += samples;
    if (elastic_ && gs.membership == Membership::Draining)
        elasticStats_.samplesSavedByDrain += samples;
    if (measuring()) {
        prepLatencySum_ += eq_.now() - chain_start;
        ++prepLatencyCount_;
        if (chainsCtr_)
            chainsCtr_->inc();
    }
    tryStartCompute(g);
    launchPrep(g);
}

// --- prep chains ---------------------------------------------------------
//
// Every prep chain is a ChainRun in chains_, so an open fault window or a
// membership change can cancel its current flow and re-dispatch it on
// another template, and finalizeResult() can cancel it outright. A chain
// steps through its template one flow per stage; each scheduled
// continuation carries the chain's epoch, which a restart bumps.

/**
 * Is the group's last prep FPGA out of service for *routing* purposes?
 * A fault crash routes around it only under the poolFailover policy; an
 * elastic leave is known membership change and always routes around it.
 */
bool
TrainingSession::prepOut(const GroupState &gs) const
{
    return gs.prepElasticOut ||
           (gs.prepDegraded && fault_ && fault_->config().poolFailover);
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
    if (gs.routeLost && fault_ && fault_->config().hostFallback &&
        !spec.hostPathStages.empty())
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
    const std::uint64_t cid = nextChainId_++;
    ChainRun &run = chains_[cid];
    run.group = g;
    run.offload = offload;
    run.samples = samples;
    run.start = eq_.now();
    run.track = groups_[g].spec->name + (offload ? ".offload" : "");
    run.stages = &selectStages(run);
    startChainStage(cid, 0);
}

void
TrainingSession::startChainStage(std::uint64_t cid, std::size_t idx)
{
    auto cit = chains_.find(cid);
    if (cit == chains_.end())
        return;
    ChainRun &run = cit->second;
    const std::vector<StageTemplate> &stages = *run.stages;
    if (idx >= stages.size()) {
        const std::size_t g = run.group;
        const double samples = run.samples;
        const Time chain_start = run.start;
        chains_.erase(cit);
        onChainDone(g, samples, chain_start);
        return;
    }
    const Time start = eq_.now();
    const std::uint64_t epoch = run.epoch;
    run.flow = net_.startFlow(stages[idx].flow(
        run.samples, [this, cid, idx, start, epoch](Time now) {
            auto it = chains_.find(cid);
            if (it == chains_.end() || it->second.epoch != epoch)
                return;
            ChainRun &run = it->second;
            run.flow = 0;
            const StageTemplate &done = (*run.stages)[idx];
            if (measuring()) {
                stageTimeSum_[done.name] += now - start;
                ++stageTimeCount_[done.name];
            }
            if (trace_)
                trace_->complete(run.track, done.name, start, now - start,
                                 "prep");
            if (done.name == "ssd_read" && handleReadFailure(cid, run, idx))
                return;
            if ((done.corruptionHops != 0 || done.verifiesIntegrity) &&
                handleCorruption(cid, run, idx))
                return;
            startChainStage(cid, idx + 1);
        }));
}

/**
 * Start stage @p idx of chain @p cid after @p delay, unless the chain is
 * restarted or cancelled meanwhile.
 */
void
TrainingSession::resumeChainIn(Time delay, std::uint64_t cid,
                               std::size_t idx)
{
    const std::uint64_t epoch = chains_.at(cid).epoch;
    eq_.scheduleIn(delay, [this, cid, idx, epoch] {
        auto it = chains_.find(cid);
        if (it != chains_.end() && it->second.epoch == epoch)
            startChainStage(cid, idx);
    });
}

/**
 * Restart chain @p cid at stage 0 on a freshly selected template: cancel
 * its current flow, reset the per-chunk retry state, and bump its epoch
 * so pending continuations go stale.
 */
void
TrainingSession::restartChain(std::uint64_t cid, ChainRun &run)
{
    if (run.flow != 0) {
        net_.cancelFlow(run.flow);
        run.flow = 0;
    }
    run.stages = &selectStages(run);
    run.readAttempts = 0;
    run.pendingCorruptions = 0;
    run.recoveries = 0;
    ++run.epoch;
    startChainStage(cid, 0);
}

/** Cancel the in-flight chains of group @p g (or of every group). */
void
TrainingSession::cancelChains(std::size_t g)
{
    for (auto it = chains_.begin(); it != chains_.end();) {
        if (g != kAllGroups && it->second.group != g) {
            ++it;
            continue;
        }
        if (it->second.flow != 0)
            net_.cancelFlow(it->second.flow);
        it = chains_.erase(it);
    }
}

// --- fault-injection path (inert when fault_ is null) --------------------

/**
 * Bounded-retry policy for SSD reads. Returns true when the read failed
 * and this function took over scheduling (retry after backoff, or chain
 * restart once the retry budget is exhausted).
 */
bool
TrainingSession::handleReadFailure(std::uint64_t cid, ChainRun &run,
                                   std::size_t idx)
{
    if (!fault_) // no injector: every read succeeds
        return false;
    const FaultConfig &fc = fault_->config();
    if (fc.ssdReadFailureProb <= 0.0 || !fault_->ssdReadAttemptFails()) {
        run.readAttempts = 0;
        return false;
    }
    const Time now = eq_.now();
    if (run.readAttempts < fc.maxReadRetries) {
        const Time backoff = fc.retryBackoffBase *
            static_cast<double>(std::uint64_t{1} << run.readAttempts);
        ++run.readAttempts;
        ++faultStats_.ssdRetries;
        if (trace_)
            trace_->instant(run.track, "read_retry", now, "fault");
        resumeChainIn(backoff, cid, idx);
        return true;
    }
    // Retry budget exhausted: abandon the chunk and restart the chain on
    // fresh data (the dataset is sharded; another replica serves it).
    ++faultStats_.chunksAbandoned;
    if (trace_)
        trace_->instant(run.track, "chunk_abandoned", now, "fault");
    restartChain(cid, run);
    return true;
}

/** Does any stage at @p idx or later on the chain verify the data? */
bool
TrainingSession::chainVerifiesFrom(const ChainRun &run, std::size_t idx)
{
    const std::vector<StageTemplate> &stages = *run.stages;
    for (std::size_t i = idx; i < stages.size(); ++i)
        if (stages[i].verifiesIntegrity)
            return true;
    return false;
}

/**
 * Corruption draws + detection policy, run as stage @p idx of chain
 * @p cid completes. Each hop class tagged on the stage draws once:
 *
 *  - PCIe link errors are always detected by the link LCRC and cost a
 *    replay stall before the next stage starts;
 *  - host-DRAM flips are always corrected by ECC at no modeled cost;
 *  - SSD / FPGA flips are silent: if a downstream stage verifies the
 *    data (an inserted checksum stage, or the baseline CPU formatting)
 *    the flip is *detected* and rides the chain until that stage
 *    triggers a bounded re-read; otherwise it *escapes* into training.
 *
 * Classification happens eagerly at draw time so the accounting
 * invariant injected == detected + escaped holds exactly regardless of
 * chain cancellations or chains still in flight at the end of the run.
 * Returns true when this function took over scheduling (replay stall
 * or verify-triggered recovery).
 */
bool
TrainingSession::handleCorruption(std::uint64_t cid, ChainRun &run,
                                  std::size_t idx)
{
    if (!fault_) // no injector: nothing corrupts or needs re-reading
        return false;
    const StageTemplate &st = (*run.stages)[idx];
    const FaultConfig &fc = fault_->config();
    const CorruptionConfig &cc = fc.corruption;
    const Time now = eq_.now();

    Time replay = 0.0;
    if (st.corruptionHops != 0 && cc.any()) {
        for (std::size_t k = 0; k < kNumCorruptionKinds; ++k) {
            const auto kind = static_cast<CorruptionKind>(k);
            if (!(st.corruptionHops & corruptionBit(kind)))
                continue;
            if (!fault_->corruptionStrikes(kind))
                continue;
            ++integrityStats_.injected;
            ++integrityStats_.injectedByKind[k];
            if (trace_)
                trace_->instant(run.track, corruptionKindName(kind), now,
                                "fault");
            switch (kind) {
              case CorruptionKind::PcieLinkError:
                ++integrityStats_.detected;
                ++integrityStats_.pcieReplays;
                replay += cc.pcieReplayLatency;
                break;
              case CorruptionKind::HostDramFlip:
                ++integrityStats_.detected;
                break;
              case CorruptionKind::SsdBitFlip:
              case CorruptionKind::FpgaUpset:
                if (chainVerifiesFrom(run, idx)) {
                    ++integrityStats_.detected;
                    ++run.pendingCorruptions;
                } else {
                    ++integrityStats_.escaped;
                }
                break;
            }
        }
    }

    if (st.verifiesIntegrity && run.pendingCorruptions > 0) {
        // The verify caught the pending flip(s): re-read the chunk,
        // bounded like the SSD retry policy, then quarantine.
        run.pendingCorruptions = 0;
        if (run.recoveries < fc.maxIntegrityRecoveries) {
            const Time backoff = fc.retryBackoffBase *
                static_cast<double>(std::uint64_t{1} << run.recoveries);
            ++run.recoveries;
            ++integrityStats_.recoveries;
            if (trace_)
                trace_->instant(run.track, "integrity_recover", now,
                                "fault");
            resumeChainIn(backoff, cid, 0);
            return true;
        }
        // Recovery budget exhausted: quarantine the chunk and restart
        // the chain on fresh data (chunksAbandoned semantics).
        ++integrityStats_.chunksQuarantined;
        if (trace_)
            trace_->instant(run.track, "chunk_quarantined", now, "fault");
        restartChain(cid, run);
        return true;
    }

    if (replay > 0.0) {
        resumeChainIn(replay, cid, idx + 1);
        return true;
    }
    return false;
}

std::size_t
TrainingSession::redispatchLocalChains(std::size_t g)
{
    std::size_t redispatched = 0;
    for (auto &[cid, run] : chains_) {
        if (run.group != g || run.offload)
            continue;
        restartChain(cid, run);
        ++redispatched;
    }
    return redispatched;
}

void
TrainingSession::onFault(const FaultEvent &ev)
{
    // finalizeResult() disarms the injector, so no fault arrives once
    // the session is done (only repairs of windows still open do; see
    // onRepair). The guard keeps that a local invariant.
    if (done_)
        return;
    if (activeFaultWindows_++ == 0)
        degradedStart_ = eq_.now();
    if (trace_)
        trace_->complete("faults", faultKindName(ev.kind), ev.start,
                         ev.duration, "fault");
    switch (ev.kind) {
      case FaultKind::SsdDegrade:
        server_.ssds[ev.target]->setReadBandwidthScale(ev.magnitude);
        break;
      case FaultKind::PrepCrash: {
        GroupState &gs = groups_[ev.target];
        if (gs.spec->preps.empty())
            break;
        gs.spec->preps.back()->setFailed(true);
        gs.prepDegraded = true;
        if (fault_->config().poolFailover) {
            ++faultStats_.prepFailovers;
            redispatchLocalChains(ev.target);
        }
        break;
      }
      case FaultKind::EthDegrade:
        if (server_.pool)
            server_.pool->setFabricBandwidthScale(ev.magnitude);
        break;
      case FaultKind::RouteLoss: {
        GroupState &gs = groups_[ev.target];
        gs.routeLost = true;
        if (fault_->config().hostFallback &&
            !gs.spec->hostPathStages.empty())
            redispatchLocalChains(ev.target);
        break;
      }
      case FaultKind::FatalCrash:
        onFatalCrash(ev);
        break;
    }
}

void
TrainingSession::onRepair(const FaultEvent &ev)
{
    // See onFault: post-completion repairs on a shared core are moot
    // (the degradation interval was closed by finalizeResult()), and
    // letting one through would underflow activeFaultWindows_.
    if (done_)
        return;
    switch (ev.kind) {
      case FaultKind::SsdDegrade:
        server_.ssds[ev.target]->setReadBandwidthScale(1.0);
        break;
      case FaultKind::PrepCrash: {
        GroupState &gs = groups_[ev.target];
        if (gs.spec->preps.empty())
            break;
        gs.prepDegraded = false;
        // The FPGA only powers back up when no elastic leave holds it
        // away and the group itself is attached (a detached group's
        // devices return at its join).
        if (!gs.prepElasticOut &&
            gs.membership != Membership::Detached &&
            gs.membership != Membership::Joining)
            gs.spec->preps.back()->setFailed(false);
        // In-flight degraded chains finish where they are; chains
        // launched from now on use the healthy templates again.
        break;
      }
      case FaultKind::EthDegrade:
        if (server_.pool)
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
    if (--activeFaultWindows_ == 0)
        degradedTime_ += eq_.now() - degradedStart_;
}

void
TrainingSession::onFatalCrash(const FaultEvent &)
{
    // A crash while already down (or after the run finished) changes
    // nothing: the machine is not running, so no extra state is lost.
    if (done_ || down_)
        return;
    const Time now = eq_.now();
    const std::size_t at_step = syncedSteps_;
    const std::size_t durable = ckpt_->crash(now, at_step);

    // Everything volatile dies with the process: in-flight prep chains,
    // buffered prepared samples, running compute, the pending sync.
    cancelChains();
    for (GroupState &gs : groups_) {
        if (gs.computeEv.valid())
            eq_.cancel(gs.computeEv);
        gs.computing = false;
        samplesDiscarded_ += gs.readySamples;
        gs.readySamples = 0.0;
        gs.inFlightSamples = 0.0;
        gs.stepsComputed = durable;
    }
    if (syncEv_.valid())
        eq_.cancel(syncEv_);
    stepSamples_ = 0.0;
    syncedSteps_ = durable;
    pausedForCkpt_ = false;
    down_ = true;
    if (trace_)
        trace_->instant("faults", "fatal_crash", now, "fault");

    eq_.scheduleIn(server_.cfg.checkpoint.restartLatency,
                          [this, now] {
        down_ = false;
        ckpt_->restarted(eq_.now());
        if (trace_)
            trace_->complete("faults", "rollback", now,
                             eq_.now() - now, "fault");
        for (std::size_t g = 0; g < groups_.size(); ++g)
            launchPrep(g);
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

void
TrainingSession::accrueCapacity()
{
    if (!elastic_)
        return;
    const Time now = eq_.now();
    const Time dt = now - lastCapacityMark_;
    lastCapacityMark_ = now;
    if (dt <= 0.0 || groups_.empty())
        return;
    activeFractionIntegral_ += dt * static_cast<double>(activeGroups_) /
                               static_cast<double>(groups_.size());
    if (activeGroups_ < groups_.size())
        elasticStats_.degradedCapacityTime += dt;
    if (activeGroups_ == 0)
        elasticStats_.zeroCapacityTime += dt;
}

void
TrainingSession::replanOffload()
{
    if (!elastic_ || !server_.cfg.elasticity.replanOffload ||
        !server_.pool)
        return;
    // Re-run the multi-job lending math for the surviving membership:
    // each attached group is one train box worth of local FPGA capacity.
    std::size_t accs = 0;
    std::size_t boxes = 0;
    for (const GroupState &gs : groups_) {
        if (gs.membership != Membership::Active &&
            gs.membership != Membership::Draining)
            continue;
        accs += gs.spec->numAccelerators;
        ++boxes;
    }
    const double f = replanOffloadFraction(
        server_.cfg.model, accs, boxes, server_.cfg.box, server_.cfg.sync);
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
    if (ev.target == ElasticTargetKind::Group) {
        switch (ev.action) {
          case ElasticAction::Drain:
            beginGroupDrain(ev.index);
            break;
          case ElasticAction::Preempt:
            preemptGroup(ev.index);
            break;
          case ElasticAction::Join:
            beginGroupJoin(ev.index);
            break;
        }
    } else {
        switch (ev.action) {
          case ElasticAction::Drain:
            onPrepLeave(ev.index, /*planned=*/true);
            break;
          case ElasticAction::Preempt:
            onPrepLeave(ev.index, /*planned=*/false);
            break;
          case ElasticAction::Join:
            onPrepJoin(ev.index);
            break;
        }
    }
}

void
TrainingSession::beginGroupDrain(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (gs.membership != Membership::Active)
        return;
    gs.membership = Membership::Draining;
    ++elasticStats_.drains;
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
        gs.joinEv.invalidate();
        gs.membership = Membership::Detached;
        ++elasticStats_.preemptions;
        return;
      case Membership::Draining:
        // Escalation: the grace window is cut short.
        eq_.cancel(gs.detachEv);
        gs.detachEv.invalidate();
        break;
      case Membership::Active:
        break;
    }
    ++elasticStats_.preemptions;
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
        // In-flight prep chains die with the member.
        cancelChains(g);
        gs.inFlightSamples = 0.0;
        // Buffered prepared samples are discarded: the data shard moves
        // to the survivors, who re-read it from storage.
        samplesDiscarded_ += gs.readySamples;
        double lost = gs.readySamples;
        gs.readySamples = 0.0;
        if (gs.computeEv.valid()) {
            eq_.cancel(gs.computeEv);
            gs.computeEv.invalidate();
            lost += groupBatchSamples(g); // aborted mid-step batch
        }
        gs.computing = false;
        if (preempted)
            elasticStats_.samplesLostToPreemption += lost;
        else
            elasticStats_.samplesDroppedAtDrain += lost;
        for (PrepAccelerator *p : gs.spec->preps)
            p->setFailed(true);
    }
    accrueCapacity();
    gs.membership = Membership::Detached;
    --activeGroups_;
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
        gs.detachEv.invalidate();
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
    accrueCapacity();
    gs.membership = Membership::Active;
    ++activeGroups_;
    ++elasticStats_.joins;
    elasticStats_.rebalanceTime += server_.cfg.elasticity.rejoinLatency;
    // Data-shard rebalance: the joiner picks up at the current global
    // step (or the next one when its sync is already in flight).
    gs.stepsComputed = syncedSteps_ + (syncEv_.valid() ? 1 : 0);
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
    if (gs.spec->preps.empty() ||
        gs.membership == Membership::Detached ||
        gs.membership == Membership::Joining)
        return; // the whole group is away; its join restores the FPGA
    if (planned) {
        if (gs.prepElasticOut)
            return; // one elastic prep leave at a time per group
        gs.prepElasticOut = true;
        ++elasticStats_.drains;
        // Grace: new chains avoid the leaving FPGA immediately (the
        // degraded templates stripe over the survivors); work already
        // on it may finish until the detach instant.
        const std::uint64_t epoch = ++gs.prepEpoch;
        eq_.scheduleIn(server_.cfg.elasticity.graceWindow,
                              [this, g, epoch] {
            GroupState &gs = groups_[g];
            if (done_ || gs.prepEpoch != epoch || !gs.prepElasticOut ||
                gs.membership == Membership::Detached ||
                gs.membership == Membership::Joining)
                return;
            gs.spec->preps.back()->setFailed(true);
            elasticStats_.chainsRebalanced += redispatchLocalChains(g);
        });
        return;
    }
    // Hard preemption: gone now, in-flight work re-dispatches (the
    // same crash path a PrepCrash fault takes).
    ++gs.prepEpoch; // stales a pending drain detach, if any
    gs.prepElasticOut = true;
    ++elasticStats_.preemptions;
    gs.spec->preps.back()->setFailed(true);
    elasticStats_.chainsRebalanced += redispatchLocalChains(g);
}

void
TrainingSession::onPrepJoin(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (gs.spec->preps.empty() || !gs.prepElasticOut)
        return;
    ++gs.prepEpoch; // stales a pending drain detach, if any
    gs.prepElasticOut = false;
    ++elasticStats_.joins;
    if (gs.membership == Membership::Detached ||
        gs.membership == Membership::Joining)
        return; // completeJoin powers the FPGA up with the group
    // Back in service unless a fault window still holds it down.
    if (!gs.prepDegraded)
        gs.spec->preps.back()->setFailed(false);
    // In-flight degraded chains finish where they are; new chains use
    // the healthy templates again.
}

// --- streaming-ingest path -----------------------------------------------
//
// Arrivals from the IngestScheduler land in a bounded host-DRAM buffer
// and drain onto the dataset shards through the per-group ingest_write
// template (round-robin over the groups), contending with prep reads
// via the SSD write→read interference. The overload policy chain
// engages in escalation order as the buffer level crosses its
// watermarks and disengages (all at once) at the low watermark. The
// ingest tier lives outside the training process: arrivals and shard
// writes keep flowing through fatal crashes and checkpoint pauses, and
// the write pump never depends on training progress — which is what
// makes the stall policy deadlock-free. None of this is reached when
// ingest is disabled (ingest_ stays null).

bool
TrainingSession::ingestPolicyEngaged(IngestPolicy p) const
{
    const auto &chain = server_.cfg.ingest.policyChain;
    for (std::size_t i = 0; i < chain.size(); ++i)
        if (chain[i] == p && (ingestEngaged_ & (std::uint64_t{1} << i)))
            return true;
    return false;
}

/** Buffer occupancy in samples (the in-flight chunk is still in DRAM). */
double
TrainingSession::ingestLevel() const
{
    return ingestBuffered_ + ingestWriting_;
}

/**
 * Recompute the engaged policy set from the buffer level. With a chain
 * of n policies, policy i engages once the level reaches
 *
 *   highWatermark + i * (bufferCapacity - highWatermark) / n
 *
 * (so a burst landing exactly at the high watermark trips policy 0),
 * and all engaged policies disengage together when the level falls back
 * to the low watermark — classic hysteresis, so policies never flap on
 * a level hovering at a threshold.
 */
void
TrainingSession::updateIngestOverload()
{
    const IngestConfig &ic = server_.cfg.ingest;
    const double level = ingestLevel();
    const Time now = eq_.now();
    if (ingestEngaged_ != 0 && level <= ic.lowWatermark + 1e-9) {
        ingestEngaged_ = 0;
        ingestStats_.overloadTime += now - ingestOverloadStart_;
        if (trace_)
            trace_->instant("ingest", "overload_clear", now, "ingest");
        if (ingestStalled_) {
            ingestStalled_ = false;
            ingestStats_.stallTime += now - ingestStallStart_;
            for (std::size_t g = 0; g < groups_.size(); ++g)
                tryStartCompute(g);
        }
        return;
    }
    const std::size_t n = ic.policyChain.size();
    if (n == 0 || level + 1e-9 < ic.highWatermark)
        return;
    const double span =
        std::max(0.0, ic.bufferCapacity - ic.highWatermark);
    const bool first_trip = ingestEngaged_ == 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double threshold = ic.highWatermark +
            span * static_cast<double>(i) / static_cast<double>(n);
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (level + 1e-9 < threshold || (ingestEngaged_ & bit))
            continue;
        ingestEngaged_ |= bit;
        if (trace_)
            trace_->instant("ingest",
                            std::string("engage_") +
                                ingestPolicyName(ic.policyChain[i]),
                            now, "ingest");
        if (ic.policyChain[i] == IngestPolicy::Stall && !ingestStalled_) {
            ingestStalled_ = true;
            ++ingestStats_.stalls;
            ingestStallStart_ = now;
        }
    }
    if (first_trip && ingestEngaged_ != 0) {
        ++ingestStats_.overloadTrips;
        ingestOverloadStart_ = now;
    }
}

void
TrainingSession::onIngestArrival(const IngestArrival &ev)
{
    if (done_)
        return;
    const IngestConfig &ic = server_.cfg.ingest;
    ++ingestStats_.arrivalEvents;
    ingestStats_.samplesArrived += ev.samples;
    double remaining = ev.samples;
    // Admission control, in escalation order: shed drops the whole
    // batch for the low-priority classes; throttle admits only a
    // fraction of everything else; the capacity clamp is uncondition-
    // ally last — arrivals beyond a full buffer always overflow.
    if (ingestPolicyEngaged(IngestPolicy::Shed) &&
        ev.priority <= ic.shedPriorityCutoff) {
        ingestStats_.samplesShedPolicy += remaining;
        remaining = 0.0;
    } else if (ingestPolicyEngaged(IngestPolicy::Throttle)) {
        const double rejected = remaining * (1.0 - ic.throttleFactor);
        ingestStats_.samplesThrottled += rejected;
        remaining -= rejected;
    }
    const double space = std::max(0.0, ic.bufferCapacity - ingestLevel());
    const double admit = std::min(remaining, space);
    ingestStats_.samplesOverflowDropped += remaining - admit;
    if (admit > 0.0) {
        ingestBuffered_ += admit;
        ingestQueue_.push_back({admit, eq_.now()});
        ingestStats_.peakBufferLevel =
            std::max(ingestStats_.peakBufferLevel, ingestLevel());
    }
    updateIngestOverload();
    pumpIngestWrites();
}

/**
 * Start the next shard-write chunk if the writer is idle. One chunk is
 * in flight at a time (the ingest tier's writer is a serial appender);
 * the cohorts making up the chunk are popped FIFO so freshness
 * accounting sees every sample's true arrival time.
 */
void
TrainingSession::pumpIngestWrites()
{
    if (done_ || ingestWriting_ > 0.0 || ingestBuffered_ <= 1e-9)
        return;
    const double chunk =
        std::min(ingestBuffered_, server_.cfg.ingest.writeChunkSamples);
    ingestBuffered_ -= chunk;
    ingestWriting_ = chunk;
    ingestWritingCohorts_.clear();
    double need = chunk;
    while (need > 1e-9 && !ingestQueue_.empty()) {
        IngestCohort &front = ingestQueue_.front();
        const double take = std::min(front.samples, need);
        ingestWritingCohorts_.push_back({take, front.arrivedAt});
        front.samples -= take;
        need -= take;
        if (front.samples <= 1e-9)
            ingestQueue_.pop_front();
    }
    startIngestWrite(0);
}

void
TrainingSession::startIngestWrite(std::size_t attempt)
{
    const StageTemplate &st =
        server_.groups[ingestWriteGroup_].ingestWrite;
    ++ingestStats_.writeFlows;
    const Time start = eq_.now();
    const std::uint64_t epoch = ingestWriteEpoch_;
    ingestWriteFlow_ = net_.startFlow(st.flow(
        ingestWriting_, [this, attempt, epoch, start](Time now) {
            if (epoch != ingestWriteEpoch_)
                return;
            ingestWriteFlow_ = 0;
            if (trace_)
                trace_->complete("ingest", "ingest_write", start,
                                 now - start, "ingest");
            onIngestWriteDone(attempt);
        }));
}

/**
 * A write chunk finished transferring. The failure draw happens here —
 * a failed attempt paid its full bandwidth (like a failed SSD read) —
 * and retries back off exponentially on the *same* shard target; once
 * the budget is out the chunk is abandoned (the arrival tier re-
 * requests it out of band) so a sick shard can never wedge the buffer.
 */
void
TrainingSession::onIngestWriteDone(std::size_t attempt)
{
    // A shard write in flight at completion lands after the ingest
    // ledger froze; ignore it (unreachable on a private core).
    if (done_)
        return;
    const IngestConfig &ic = server_.cfg.ingest;
    const Time now = eq_.now();
    if (ingest_->writeAttemptFails()) {
        if (attempt < ic.maxWriteRetries) {
            ++ingestStats_.writeRetries;
            if (trace_)
                trace_->instant("ingest", "write_retry", now, "ingest");
            const Time backoff = ic.writeRetryBackoff *
                static_cast<double>(std::uint64_t{1} << attempt);
            const std::uint64_t epoch = ingestWriteEpoch_;
            eq_.scheduleIn(backoff, [this, attempt, epoch] {
                if (done_ || epoch != ingestWriteEpoch_)
                    return;
                startIngestWrite(attempt + 1);
            });
            return;
        }
        ++ingestStats_.writeFailures;
        ingestStats_.samplesAbandonedWrites += ingestWriting_;
        if (trace_)
            trace_->instant("ingest", "write_abandoned", now, "ingest");
    } else {
        // Landed durably: commit the chunk and its freshness ledger.
        ingestStats_.samplesAdmitted += ingestWriting_;
        for (const IngestCohort &c : ingestWritingCohorts_) {
            const Time stale = now - c.arrivedAt;
            ingestStats_.stalenessSum += c.samples * stale;
            ingestStats_.stalenessMax =
                std::max(ingestStats_.stalenessMax, stale);
            if (ic.stalenessSlo <= 0.0 || stale <= ic.stalenessSlo)
                ingestStats_.samplesWithinSlo += c.samples;
        }
    }
    ingestWriting_ = 0.0;
    ingestWritingCohorts_.clear();
    ++ingestWriteEpoch_;
    ingestWriteGroup_ = (ingestWriteGroup_ + 1) % server_.groups.size();
    updateIngestOverload();
    pumpIngestWrites();
}

void
TrainingSession::tryStartCompute(std::size_t g)
{
    GroupState &gs = groups_[g];
    if (done_ || down_ || pausedForCkpt_ || ingestStalled_ ||
        gs.computing ||
        gs.membership == Membership::Detached ||
        gs.membership == Membership::Joining ||
        gs.stepsComputed != syncedSteps_)
        return;
    // Echo policy: under overload part of the batch reuses previously
    // prepped (stale) samples, so only the fresh fraction is consumed
    // from the ready window — cutting prep-side SSD read pressure while
    // the shard writes drain. The statistical-efficiency cost is
    // reported, not folded into throughput (steps still process full
    // hardware batches).
    double fresh = groupBatchSamples(g);
    if (ingest_ && ingestPolicyEngaged(IngestPolicy::Echo))
        fresh /= server_.cfg.ingest.echoFactor;
    if (gs.readySamples + 1e-6 < fresh)
        return;
    gs.readySamples -= fresh;
    samplesConsumed_ += fresh;
    if (ingest_)
        ingestStats_.samplesEchoed += groupBatchSamples(g) - fresh;
    gs.computing = true;
    const Time start = eq_.now();
    Time duration = server_.computeTime();
    if (fault_) {
        const double factor =
            fault_->stragglerFactor(g, gs.stepsComputed);
        if (factor > 1.0) {
            ++faultStats_.stragglerSteps;
            const Time nominal = duration;
            duration = nominal * factor;
            // Straggler-tolerant barrier: if waiting the straggler out
            // costs more than aborting at the timeout and re-running the
            // group's compute from scratch, re-dispatch.
            const double tf = fault_->config().stepTimeoutFactor;
            const Time timeout = nominal * tf;
            if (tf > 0.0 && timeout + nominal < duration) {
                duration = timeout + nominal;
                ++faultStats_.computeRedispatches;
                if (trace_)
                    trace_->instant(gs.spec->name, "compute_redispatch",
                                    start + timeout, "fault");
            }
        }
    }
    gs.computeEv = eq_.scheduleIn(duration, [this, g, start] {
        groups_[g].computeEv.invalidate();
        if (computeBusyCtr_ && measuring())
            computeBusyCtr_->add(eq_.now() - start);
        if (trace_)
            trace_->complete(groups_[g].spec->name, "compute", start,
                             eq_.now() - start, "compute");
        onComputeDone(g);
    });
    launchPrep(g);
}

void
TrainingSession::onComputeDone(std::size_t g)
{
    GroupState &gs = groups_[g];
    gs.computing = false;
    ++gs.stepsComputed;
    // Count the batch toward the step it synchronizes with; a joiner
    // finishing a step whose sync already fired contributes nothing
    // (it recomputes the current step with the re-sharded data).
    if (elastic_ && gs.stepsComputed == syncedSteps_ + 1)
        stepSamples_ += groupBatchSamples(g);
    stepComplete();
}

/**
 * The step barrier: fire the global sync once every attached
 * (Active/Draining) group has computed past syncedSteps_. With fixed
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
        if (gs.membership != Membership::Active &&
            gs.membership != Membership::Draining)
            continue;
        ++attached;
        if (gs.stepsComputed <= syncedSteps_)
            return;
    }
    if (attached == 0)
        return; // zero capacity: park until a join restores a group
    const Time start = eq_.now();
    syncEv_ = eq_.scheduleIn(server_.syncTime(), [this, start] {
        syncEv_.invalidate();
        if (syncBusyCtr_ && measuring())
            syncBusyCtr_->add(eq_.now() - start);
        if (trace_)
            trace_->complete("sync", "ring_allreduce", start,
                             eq_.now() - start, "sync");
        onSyncDone();
    });
}

void
TrainingSession::onSyncDone()
{
    ++syncedSteps_;
    if (elastic_) {
        // Commit each step index once: a crash rollback replays steps
        // the ledger already counted, so recommit nothing on replay.
        if (syncedSteps_ > maxSyncedStep_) {
            maxSyncedStep_ = syncedSteps_;
            if (syncedSteps_ > warmupSteps_)
                measuredSamples_ += stepSamples_;
        }
        stepSamples_ = 0.0;
    }
    if (stepsCtr_ && syncedSteps_ > warmupSteps_)
        stepsCtr_->inc();
    // The window opens at the *first* warmup crossing only: a crash
    // rollback may replay the crossing, and resetting again would
    // discard the crash's cost from the measurement.
    if (syncedSteps_ == warmupSteps_ && !windowOpen_) {
        windowOpen_ = true;
        windowStart_ = eq_.now();
        // Reset only this server's slice of the (possibly shared)
        // network: co-resident sessions own their measurement windows.
        server_.resetAccounting();
        stageTimeSum_.clear();
        stageTimeCount_.clear();
        prepLatencySum_ = 0.0;
        prepLatencyCount_ = 0;
    }
    if (syncedSteps_ >= totalSteps_) {
        windowEnd_ = eq_.now();
        done_ = true;
        // Freeze the result and tear the session down now: on a shared
        // core other sessions keep simulating, and nothing this session
        // leaves behind may leak into its numbers. Fire the completion
        // hook last so a fleet scheduler sees a fully finalized session.
        finalizeResult();
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
        ckpt_->maybeBegin(syncedSteps_, [this] { onCheckpointResume(); })) {
        pausedForCkpt_ = true;
        return;
    }
    for (std::size_t g = 0; g < groups_.size(); ++g)
        tryStartCompute(g);
}

void
TrainingSession::onCheckpointResume()
{
    pausedForCkpt_ = false;
    if (done_ || down_)
        return;
    for (std::size_t g = 0; g < groups_.size(); ++g)
        tryStartCompute(g);
    // A membership change during the pause may have already completed
    // the step (no-op with fixed membership: some group is computing).
    stepComplete();
}

void
TrainingSession::start(std::size_t warmup, std::size_t measure)
{
    panic_if(started_, "session already started");
    started_ = true;
    panic_if(measure == 0, "need at least one measured step");
    warmupSteps_ = warmup;
    measureSteps_ = measure;
    totalSteps_ = warmup + measure;
    startNow_ = eq_.now();

    if (server_.metrics.enabled()) {
        MetricsRegistry &m = server_.metrics;
        // Session instruments share the server's resource namespace so
        // N sessions on one registry never collide ("" standalone).
        const std::string &p = server_.resourcePrefix();
        computeBusyCtr_ = m.counter(
            p + "session.compute_busy",
            "accelerator-group busy time over the window (group-sec)");
        syncBusyCtr_ = m.counter(
            p + "session.sync_busy",
            "ring-sync busy time over the window (sec)");
        stepsCtr_ = m.counter(p + "session.steps",
                              "global steps synchronized in the window");
        chainsCtr_ = m.counter(p + "session.chains_completed",
                               "prep chains finished in the window");
    }

    if (server_.cfg.faults.enabled) {
        FaultTargets targets;
        targets.numSsds = server_.ssds.size();
        targets.numGroups = groups_.size();
        fault_ = std::make_unique<FaultInjector>(server_.cfg.faults,
                                                 targets);
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

    activeGroups_ = groups_.size();
    if (server_.cfg.elasticity.enabled) {
        ElasticTargets etargets;
        etargets.numGroups = groups_.size();
        elastic_ = std::make_unique<ElasticScheduler>(
            server_.cfg.elasticity, etargets);
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
            --activeGroups_;
        }
        lastCapacityMark_ = eq_.now();
        if (defer > 0)
            replanOffload();
        elastic_->arm(eq_, [this](const ElasticEvent &ev) {
            onElasticEvent(ev);
        });
    }

    if (server_.cfg.ingest.enabled) {
        ingest_ = std::make_unique<IngestScheduler>(server_.cfg.ingest);
        ingestStats_.stalenessSloSec = server_.cfg.ingest.stalenessSlo;
        ingestStats_.echoEfficiency = server_.cfg.ingest.echoEfficiency;
        ingest_->arm(eq_, [this](const IngestArrival &ev) {
            onIngestArrival(ev);
        });
    }

    for (std::size_t g = 0; g < groups_.size(); ++g)
        launchPrep(g);
}

SessionResult
TrainingSession::run(std::size_t warmup, std::size_t measure)
{
    start(warmup, measure);
    while (!done_ && eq_.step()) {
    }
    panic_if(!done_,
             "training stalled: event queue drained after %zu/%zu steps",
             syncedSteps_, totalSteps_);
    return collect();
}

void
TrainingSession::finalizeResult(bool partial)
{
    // Charge this server's in-flight flows up to now, so the category
    // maps end at the window end with or without metrics and whatever
    // co-resident jobs did last; then extend the utilization histories
    // (no-op without metrics).
    server_.settleAccounting();
    net_.flushMetrics();
    // Both the done transition and kill() pass through here: stop the
    // injector streams so a finished session stops re-arming no-op
    // events on a shared queue (possibly from inside their handler),
    // and cancel every flow the session started — prefetch chains for
    // steps that will never run, the in-flight shard write, a pending
    // checkpoint capture — so it owns no flow from here on. The flows
    // are already charged up to now, so cancelling them moves no
    // number; batching them costs one solve.
    if (fault_)
        fault_->disarm();
    if (elastic_)
        elastic_->disarm();
    if (ingest_)
        ingest_->disarm();
    {
        FluidNetwork::FlowBatch batch(net_);
        cancelChains();
        if (ingestWriteFlow_ != 0) {
            net_.cancelFlow(ingestWriteFlow_);
            ingestWriteFlow_ = 0;
        }
        if (ckpt_)
            ckpt_->abortCapture();
    }

    SessionResult res;
    const Time elapsed = windowEnd_ - windowStart_;
    panic_if(!partial && elapsed <= 0.0, "empty measurement window");

    // A killed session may die before its measurement window opened
    // (or before anything synchronized inside it); a completed run
    // always has a positive window with every measured step in it.
    const bool window_valid = !partial || (windowOpen_ && elapsed > 0.0);
    const std::size_t measured =
        !partial ? measureSteps_
                 : (syncedSteps_ > warmupSteps_
                        ? std::min(syncedSteps_ - warmupSteps_,
                                   measureSteps_)
                        : 0);

    res.stepsMeasured = measured;
    res.computeTime = server_.computeTime();
    res.syncTime = server_.syncTime();
    if (window_valid && measured > 0) {
        res.stepTime = elapsed / static_cast<double>(measured);
        if (elastic_) {
            // Membership varied: count what detached-aware steps
            // actually synchronized (equals the closed form when no
            // event fired).
            res.throughput = measuredSamples_ / elapsed;
        } else {
            res.throughput =
                static_cast<double>(server_.cfg.numAccelerators) *
                static_cast<double>(server_.batchSize()) *
                static_cast<double>(measured) / elapsed;
        }
    }

    for (const auto &[name, sum] : stageTimeSum_)
        res.prepStageTime[name] =
            sum / static_cast<double>(stageTimeCount_[name]);
    if (prepLatencyCount_ > 0)
        res.prepLatency =
            prepLatencySum_ / static_cast<double>(prepLatencyCount_);

    auto collect = [elapsed](const FluidResource *r,
                             std::map<std::string, double> &out) {
        for (const auto &[cat, units] : r->servedByCategory())
            out[cat] = units / elapsed;
    };
    if (window_valid) {
        collect(server_.cpu->resource(), res.cpuCoresByCategory);
        collect(server_.hostMem->resource(), res.memBwByCategory);
        collect(server_.topo->rcResource(), res.rcBwByCategory);
    }

    if (fault_) {
        // Fault windows still open when the run ends never see their
        // repair event; close the degradation interval at the end time.
        if (activeFaultWindows_ > 0) {
            degradedTime_ += eq_.now() - degradedStart_;
            activeFaultWindows_ = 0;
        }
        res.faults = faultStats_;
        res.faults.faultsInjected = fault_->faultsInjected();
        res.faults.readFailures = fault_->readFailuresInjected();
        res.faults.degradedTime = degradedTime_;
        res.integrity = integrityStats_;
        panic_if(fault_->corruptionsInjected() != integrityStats_.injected,
                 "corruption accounting out of sync: injector %zu vs "
                 "session %zu",
                 fault_->corruptionsInjected(), integrityStats_.injected);
        panic_if(res.integrity.detected + res.integrity.escaped !=
                     res.integrity.injected,
                 "integrity invariant violated: %zu detected + %zu "
                 "escaped != %zu injected",
                 res.integrity.detected, res.integrity.escaped,
                 res.integrity.injected);
    }

    // Wall time is measured from when *this session* started: for the
    // historical standalone run startNow_ == 0 so this is bit-identical
    // to the old absolute-clock reading, while a fleet job admitted at
    // t > 0 reports its own duration, not the fleet clock.
    res.wallTime = windowEnd_ - startNow_;
    if (ckpt_)
        res.checkpoint = ckpt_->stats();

    // The sample ledger is always tracked; its conservation identity is
    // the chaos harness's backbone, so panic instead of misreporting.
    double cached = 0.0;
    for (const GroupState &gs : groups_)
        cached += gs.readySamples;
    elasticStats_.samplesPrepared = samplesPrepared_;
    elasticStats_.samplesConsumed = samplesConsumed_;
    elasticStats_.samplesCachedAtEnd = cached;
    elasticStats_.samplesDiscarded = samplesDiscarded_;
    const double ledger_gap =
        samplesPrepared_ - (samplesConsumed_ + cached + samplesDiscarded_);
    panic_if(std::fabs(ledger_gap) >
                 1e-6 * std::max(1.0, samplesPrepared_),
             "sample ledger violated: prepared %g != consumed %g + "
             "cached %g + discarded %g",
             samplesPrepared_, samplesConsumed_, cached,
             samplesDiscarded_);
    if (elastic_) {
        accrueCapacity();
        elasticStats_.events = elastic_->eventsDelivered();
        const Time total = eq_.now() - startNow_;
        elasticStats_.avgActiveFraction =
            total > 0.0 ? activeFractionIntegral_ / total : 1.0;
        elasticStats_.sloTargetSamplesPerSec =
            server_.cfg.elasticity.sloTargetSamplesPerSec;
    }
    res.elasticity = elasticStats_;

    if (ingest_) {
        // Close windows still open at run end, then check conservation:
        // every offered sample must be accounted for exactly once.
        const Time end = eq_.now();
        if (ingestEngaged_ != 0)
            ingestStats_.overloadTime += end - ingestOverloadStart_;
        if (ingestStalled_)
            ingestStats_.stallTime += end - ingestStallStart_;
        ingestStats_.samplesInFlightAtEnd =
            ingestBuffered_ + ingestWriting_;
        ingestStats_.samplesShed = ingestStats_.samplesThrottled +
                                   ingestStats_.samplesShedPolicy +
                                   ingestStats_.samplesOverflowDropped +
                                   ingestStats_.samplesAbandonedWrites;
        const double ingest_gap = ingestStats_.samplesArrived -
            (ingestStats_.samplesAdmitted + ingestStats_.samplesShed +
             ingestStats_.samplesInFlightAtEnd);
        panic_if(std::fabs(ingest_gap) >
                     1e-6 * std::max(1.0, ingestStats_.samplesArrived),
                 "ingest ledger violated: arrived %g != admitted %g + "
                 "shed %g + in-flight %g",
                 ingestStats_.samplesArrived,
                 ingestStats_.samplesAdmitted, ingestStats_.samplesShed,
                 ingestStats_.samplesInFlightAtEnd);
        res.ingest = ingestStats_;
    }

    result_ = std::move(res);
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

std::size_t
TrainingSession::lastDurableStep() const
{
    return ckpt_ ? ckpt_->lastDurableStep() : 0;
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
    if (syncEv_.valid())
        eq_.cancel(syncEv_);
    // Everything volatile dies with the host, as in a fatal crash —
    // but terminally: cancel every per-group compute/membership event
    // here, and let finalizeResult() cancel every flow, so the dead
    // job stops loading the shared queue and solver.
    for (GroupState &gs : groups_) {
        if (gs.computeEv.valid())
            eq_.cancel(gs.computeEv);
        if (gs.detachEv.valid())
            eq_.cancel(gs.detachEv);
        if (gs.joinEv.valid())
            eq_.cancel(gs.joinEv);
        gs.computing = false;
        // Buffered prepared samples are lost, not cached: the ledger
        // counts them discarded, keeping conservation exact.
        samplesDiscarded_ += gs.readySamples;
        gs.readySamples = 0.0;
        gs.inFlightSamples = 0.0;
    }
    windowEnd_ = eq_.now();
    done_ = true;
    // Termination is the caller's decision, not a completion: the
    // fleet already knows, so the completion hook must never fire.
    doneCb_ = nullptr;
    finalizeResult(/*partial=*/true);
    if (trace_)
        trace_->instant("session", "killed", windowEnd_, "fault");
}

SessionReport
TrainingSession::runReport(std::size_t warmup, std::size_t measure)
{
    return SessionReport::build(server_, run(warmup, measure));
}

} // namespace tb
