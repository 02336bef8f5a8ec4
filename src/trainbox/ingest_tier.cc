#include "trainbox/ingest_tier.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"

namespace tb {

IngestTier::IngestTier(EventQueue &eq, FluidNetwork &net,
                       const IngestConfig &cfg,
                       std::vector<StageTemplate> writes, TraceWriter *trace,
                       std::function<void()> releaseStall)
    : eq_(eq), net_(net), sched_(cfg), writes_(std::move(writes)),
      trace_(trace), releaseStall_(std::move(releaseStall))
{
    stats_.stalenessSloSec = cfg.stalenessSlo;
    stats_.echoEfficiency = cfg.echoEfficiency;
    sched_.arm(eq_, [this](const IngestArrival &ev) { onArrival(ev); });
}

bool
IngestTier::policyEngaged(IngestPolicy p) const
{
    const auto &chain = sched_.config().policyChain;
    for (std::size_t i = 0; i < chain.size(); ++i)
        if (chain[i] == p && (engaged_ & (std::uint64_t{1} << i)))
            return true;
    return false;
}

double
IngestTier::freshSamples(double batch) const
{
    // Echo policy: under overload part of the batch reuses previously
    // prepped (stale) samples, so only the fresh fraction is consumed
    // from the ready window — cutting prep-side SSD read pressure while
    // the shard writes drain. The statistical-efficiency cost is
    // reported, not folded into throughput (steps still process full
    // hardware batches).
    if (policyEngaged(IngestPolicy::Echo))
        batch /= sched_.config().echoFactor;
    return batch;
}

/** Buffer occupancy in samples (the in-flight chunk is still in DRAM). */
double
IngestTier::level() const
{
    return buffered_ + writing_;
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
IngestTier::updateOverload()
{
    const IngestConfig &ic = sched_.config();
    const double lvl = level();
    const Time now = eq_.now();
    if (engaged_ != 0 && lvl <= ic.lowWatermark + 1e-9) {
        engaged_ = 0;
        stats_.overloadTime += now - overloadStart_;
        if (trace_)
            trace_->instant("ingest", "overload_clear", now, "ingest");
        if (stalled_) {
            stalled_ = false;
            stats_.stallTime += now - stallStart_;
            releaseStall_();
        }
        return;
    }
    const std::size_t n = ic.policyChain.size();
    if (n == 0 || lvl + 1e-9 < ic.highWatermark)
        return;
    const double span =
        std::max(0.0, ic.bufferCapacity - ic.highWatermark);
    const bool first_trip = engaged_ == 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double threshold = ic.highWatermark +
            span * static_cast<double>(i) / static_cast<double>(n);
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (lvl + 1e-9 < threshold || (engaged_ & bit))
            continue;
        engaged_ |= bit;
        if (trace_)
            trace_->instant("ingest",
                            std::string("engage_") +
                                ingestPolicyName(ic.policyChain[i]),
                            now, "ingest");
        if (ic.policyChain[i] == IngestPolicy::Stall && !stalled_) {
            stalled_ = true;
            ++stats_.stalls;
            stallStart_ = now;
        }
    }
    if (first_trip && engaged_ != 0) {
        ++stats_.overloadTrips;
        overloadStart_ = now;
    }
}

void
IngestTier::onArrival(const IngestArrival &ev)
{
    if (stopped_)
        return;
    const IngestConfig &ic = sched_.config();
    ++stats_.arrivalEvents;
    stats_.samplesArrived += ev.samples;
    double remaining = ev.samples;
    // Admission control, in escalation order: shed drops the whole
    // batch for the low-priority classes; throttle admits only a
    // fraction of everything else; the capacity clamp is uncondition-
    // ally last — arrivals beyond a full buffer always overflow.
    if (policyEngaged(IngestPolicy::Shed) &&
        ev.priority <= ic.shedPriorityCutoff) {
        stats_.samplesShedPolicy += remaining;
        remaining = 0.0;
    } else if (policyEngaged(IngestPolicy::Throttle)) {
        const double rejected = remaining * (1.0 - ic.throttleFactor);
        stats_.samplesThrottled += rejected;
        remaining -= rejected;
    }
    const double space = std::max(0.0, ic.bufferCapacity - level());
    const double admit = std::min(remaining, space);
    stats_.samplesOverflowDropped += remaining - admit;
    if (admit > 0.0) {
        buffered_ += admit;
        queue_.push_back({admit, eq_.now()});
        stats_.peakBufferLevel = std::max(stats_.peakBufferLevel, level());
    }
    updateOverload();
    pumpWrites();
}

/**
 * Start the next shard-write chunk if the writer is idle. One chunk is
 * in flight at a time (the ingest tier's writer is a serial appender);
 * the cohorts making up the chunk are popped FIFO so freshness
 * accounting sees every sample's true arrival time.
 */
void
IngestTier::pumpWrites()
{
    if (stopped_ || writing_ > 0.0 || buffered_ <= 1e-9)
        return;
    const double chunk =
        std::min(buffered_, sched_.config().writeChunkSamples);
    buffered_ -= chunk;
    writing_ = chunk;
    writingCohorts_.clear();
    double need = chunk;
    while (need > 1e-9 && !queue_.empty()) {
        Cohort &front = queue_.front();
        const double take = std::min(front.samples, need);
        writingCohorts_.push_back({take, front.arrivedAt});
        front.samples -= take;
        need -= take;
        if (front.samples <= 1e-9)
            queue_.pop_front();
    }
    startWrite(0);
}

void
IngestTier::startWrite(std::size_t attempt)
{
    const StageTemplate &st = writes_[writeTarget_];
    ++stats_.writeFlows;
    const Time start = eq_.now();
    const std::uint64_t epoch = writeEpoch_;
    writeFlow_ = net_.startFlow(st.flow(
        writing_, [this, attempt, epoch, start](Time now) {
            if (epoch != writeEpoch_)
                return;
            writeFlow_ = 0;
            if (trace_)
                trace_->complete("ingest", "ingest_write", start,
                                 now - start, "ingest");
            onWriteDone(attempt);
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
IngestTier::onWriteDone(std::size_t attempt)
{
    // A shard write in flight at stop() lands after the ledger froze;
    // ignore it (stop() cancels the flow, so this is unreachable).
    if (stopped_)
        return;
    const IngestConfig &ic = sched_.config();
    const Time now = eq_.now();
    if (sched_.writeAttemptFails()) {
        if (attempt < ic.maxWriteRetries) {
            ++stats_.writeRetries;
            if (trace_)
                trace_->instant("ingest", "write_retry", now, "ingest");
            const Time backoff = ic.writeRetryBackoff *
                static_cast<double>(std::uint64_t{1} << attempt);
            const std::uint64_t epoch = writeEpoch_;
            eq_.scheduleIn(backoff, [this, attempt, epoch] {
                if (stopped_ || epoch != writeEpoch_)
                    return;
                startWrite(attempt + 1);
            });
            return;
        }
        ++stats_.writeFailures;
        stats_.samplesAbandonedWrites += writing_;
        if (trace_)
            trace_->instant("ingest", "write_abandoned", now, "ingest");
    } else {
        // Landed durably: commit the chunk and its freshness ledger.
        stats_.samplesAdmitted += writing_;
        for (const Cohort &c : writingCohorts_) {
            const Time stale = now - c.arrivedAt;
            stats_.stalenessSum += c.samples * stale;
            stats_.stalenessMax = std::max(stats_.stalenessMax, stale);
            if (ic.stalenessSlo <= 0.0 || stale <= ic.stalenessSlo)
                stats_.samplesWithinSlo += c.samples;
        }
    }
    writing_ = 0.0;
    writingCohorts_.clear();
    ++writeEpoch_;
    writeTarget_ = (writeTarget_ + 1) % writes_.size();
    updateOverload();
    pumpWrites();
}

void
IngestTier::stop()
{
    stopped_ = true;
    sched_.disarm();
    if (writeFlow_ != 0) {
        net_.cancelFlow(writeFlow_);
        writeFlow_ = 0;
    }

    // Close windows still open at the end, then check conservation:
    // every offered sample must be accounted for exactly once.
    const Time end = eq_.now();
    if (engaged_ != 0)
        stats_.overloadTime += end - overloadStart_;
    if (stalled_)
        stats_.stallTime += end - stallStart_;
    stats_.samplesInFlightAtEnd = buffered_ + writing_;
    stats_.samplesShed = stats_.samplesThrottled +
                         stats_.samplesShedPolicy +
                         stats_.samplesOverflowDropped +
                         stats_.samplesAbandonedWrites;
    const double gap = stats_.samplesArrived -
        (stats_.samplesAdmitted + stats_.samplesShed +
         stats_.samplesInFlightAtEnd);
    panic_if(std::fabs(gap) > 1e-6 * std::max(1.0, stats_.samplesArrived),
             "ingest ledger violated: arrived %g != admitted %g + "
             "shed %g + in-flight %g",
             stats_.samplesArrived, stats_.samplesAdmitted,
             stats_.samplesShed, stats_.samplesInFlightAtEnd);
}

} // namespace tb
