#include "trainbox/checkpoint.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "sim/trace.hh"
#include "trainbox/server_builder.hh"

namespace tb {

const char *
checkpointModeName(CheckpointMode m)
{
    switch (m) {
      case CheckpointMode::Sync:
        return "sync";
      case CheckpointMode::Async:
        return "async";
    }
    return "?";
}

Time
youngDalyInterval(Time cost, Time mtbf)
{
    if (cost <= 0.0 || mtbf <= 0.0)
        return 0.0;
    return std::sqrt(2.0 * cost * mtbf);
}

Time
dalyInterval(Time cost, Time mtbf)
{
    if (cost <= 0.0 || mtbf <= 0.0)
        return 0.0;
    if (cost >= 2.0 * mtbf)
        return youngDalyInterval(cost, mtbf);
    const double x = cost / (2.0 * mtbf);
    return youngDalyInterval(cost, mtbf) *
               (1.0 + std::sqrt(x) / 3.0 + x) -
           cost;
}

double
checkpointEfficiencyModel(Time interval, Time cost, Time mtbf,
                          Time restart)
{
    if (interval <= 0.0 || mtbf <= 0.0)
        return 0.0;
    const double overhead = cost / (interval + cost) +
                            (interval / 2.0 + restart) / mtbf;
    return clamp(1.0 - overhead, 0.0, 1.0);
}

Checkpointer::Checkpointer(Server &server, TraceWriter *trace)
    : server_(server), trace_(trace)
{
    // Each prep group drains its accelerator-proportional shard of the
    // snapshot onto its own storage path (its box SSDs under
    // clustering; the shared SSD boxes through the RC otherwise).
    const Bytes total = totalBytes();
    const double n_acc =
        static_cast<double>(server_.cfg.numAccelerators);
    shardBytes_.reserve(server_.groups.size());
    for (const PrepGroup &g : server_.groups)
        shardBytes_.push_back(
            total * static_cast<double>(g.numAccelerators) / n_acc);
}

Checkpointer::~Checkpointer()
{
    // Abandon an unfinished capture: suppress the completions so they
    // cannot reach a dead checkpointer.
    abortCapture();
}

Bytes
Checkpointer::totalBytes() const
{
    return workload::checkpointBytes(
        server_.model, server_.cfg.checkpoint.optimizerSlots);
}

void
Checkpointer::accruePause(Time pause)
{
    stats_.pauseTime += pause;
    pauseSinceAnchor_ += pause;
}

bool
Checkpointer::maybeBegin(std::size_t step, std::function<void()> on_resume)
{
    const CheckpointConfig &cfg = server_.cfg.checkpoint;
    if (!cfg.enabled)
        return false;
    const Time now = server_.core().events().now();
    if (!force_ && now - lastResume_ < cfg.interval)
        return false;
    if (draining_) {
        // An async drain is still in flight; a second concurrent
        // snapshot would need a second buffer, so skip this boundary.
        // A forced request stays pending for the next boundary.
        ++stats_.skipped;
        return false;
    }

    force_ = false;
    draining_ = true;
    captureStep_ = step;
    captureTime_ = now;
    onResume_ = std::move(on_resume);

    if (cfg.mode == CheckpointMode::Sync) {
        drainStart_ = now;
        launchDrain();
        return true;
    }

    // Async: pause only for the device -> buffer snapshot, then drain
    // in the background.
    const Time snapshot = totalBytes() / cfg.snapshotBandwidth;
    snapshotEv_ = server_.core().events().scheduleIn(snapshot, [this] {
        snapshotEv_.invalidate();
        const Time end = server_.core().events().now();
        accruePause(end - captureTime_);
        if (trace_)
            trace_->complete("checkpoint", "ckpt_snapshot", captureTime_,
                             end - captureTime_, "checkpoint");
        lastResume_ = end;
        drainStart_ = end;
        // The drain shards and the prep the resumed training launches
        // share one solve.
        FluidNetwork::FlowBatch batch(server_.core().fluid());
        launchDrain();
        auto resume = std::move(onResume_);
        onResume_ = nullptr;
        resume();
    });
    return true;
}

void
Checkpointer::launchDrain()
{
    panic_if(outstanding_ != 0, "checkpoint drain already in flight");
    FluidNetwork::FlowBatch batch(server_.core().fluid());
    for (std::size_t g = 0; g < server_.groups.size(); ++g) {
        if (shardBytes_[g] <= 0.0)
            continue;
        FlowSpec spec = server_.groups[g].checkpointWrite.flow(
            shardBytes_[g], [this, g](Time now) {
                // Completed flows were never cancelled; forget the id.
                if (g < drainFlows_.size())
                    drainFlows_[g] = 0;
                if (--outstanding_ == 0)
                    onDrainComplete(now);
            });
        ++outstanding_;
        if (drainFlows_.size() <= g)
            drainFlows_.resize(g + 1, 0);
        drainFlows_[g] = server_.core().fluid().startFlow(std::move(spec));
    }
    panic_if(outstanding_ == 0,
             "checkpoint drain launched with no shards");
}

void
Checkpointer::onDrainComplete(Time now)
{
    const CheckpointConfig &cfg = server_.cfg.checkpoint;
    draining_ = false;
    drainFlows_.clear();
    ++stats_.committed;
    stats_.bytesWritten += totalBytes();
    costSum_ += now - captureTime_;
    durableStep_ = captureStep_;

    if (cfg.mode == CheckpointMode::Sync) {
        // The whole drain was a training pause; work committed from
        // here on is protected by this checkpoint.
        accruePause(now - captureTime_);
        if (trace_)
            trace_->complete("checkpoint", "ckpt_sync", captureTime_,
                             now - captureTime_, "checkpoint");
        lastResume_ = now;
        anchor_ = now;
        pauseSinceAnchor_ = 0.0;
        auto resume = std::move(onResume_);
        onResume_ = nullptr;
        resume();
    } else {
        // Async: training already resumed at snapshot end; everything
        // after that instant is at risk until the *next* commit.
        if (trace_)
            trace_->complete("checkpoint", "ckpt_drain", drainStart_,
                             now - drainStart_, "checkpoint");
        anchor_ = drainStart_;
        pauseSinceAnchor_ = 0.0;
    }
    if (trace_)
        trace_->counter("checkpoint", "durable_step", now,
                        static_cast<double>(durableStep_));
}

std::size_t
Checkpointer::crash(Time now, std::size_t current_step)
{
    ++stats_.fatalCrashes;
    stats_.stepsLost += current_step - durableStep_;

    // A partial checkpoint file is useless: abort the capture.
    abortCapture();

    // Work since the at-risk anchor is discarded; pauses inside that
    // window were already billed as checkpoint overhead.
    stats_.lostWorkTime +=
        std::max(0.0, (now - anchor_) - pauseSinceAnchor_);
    pauseSinceAnchor_ = 0.0;
    crashTime_ = now;
    return durableStep_;
}

void
Checkpointer::abortCapture()
{
    server_.core().events().cancel(snapshotEv_);
    // Batch only a drain in flight: its list then holds a live shard
    // flow (the last to finish clears it), and a batch closed on no
    // change would still reschedule the completion event.
    if (!drainFlows_.empty()) {
        FluidNetwork::FlowBatch batch(server_.core().fluid());
        for (FlowId f : drainFlows_)
            if (f != 0)
                server_.core().fluid().cancelFlow(f);
    }
    drainFlows_.clear();
    outstanding_ = 0;
    draining_ = false;
    onResume_ = nullptr;
}

void
Checkpointer::restarted(Time now)
{
    stats_.restartTime += now - crashTime_;
    anchor_ = now;
    lastResume_ = now; // protect the replay before checkpointing again
}

CheckpointStats
Checkpointer::stats() const
{
    CheckpointStats out = stats_;
    if (out.committed > 0)
        out.avgCost = costSum_ / static_cast<double>(out.committed);
    return out;
}

} // namespace tb
