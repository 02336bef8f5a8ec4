/**
 * @file
 * The streaming-ingest tier of a training session.
 *
 * When ServerConfig::ingest.enabled is set the session builds one
 * IngestTier. An IngestScheduler (sim/ingest.hh) streams sample
 * arrivals into a bounded host-DRAM ingest buffer; the tier drains it
 * through the per-group ingest_write stage templates (round-robin
 * shard appends contending with prep reads via the SSD write→read
 * interference) with bounded retry/backoff, and applies the configured
 * overload policy chain (throttle → shed → echo → stall) as the buffer
 * crosses its watermarks. The ingest conservation ledger
 *
 *   arrived == admitted + shed + inFlight
 *
 * is panic-checked when the tier stops. With ingest disabled the
 * session holds no tier, so no arrival, buffer, or write machinery
 * exists and results are bit-identical to a build without the
 * subsystem.
 *
 * The tier lives outside the training process: arrivals and shard
 * writes keep flowing through fatal crashes and checkpoint pauses, and
 * the write pump never depends on training progress — which is what
 * makes the stall policy deadlock-free. It needs only the core's event
 * queue and fluid network; training reads its stall and echo state,
 * and it calls back once, when a stall lifts.
 */

#ifndef TRAINBOX_TRAINBOX_INGEST_TIER_HH
#define TRAINBOX_TRAINBOX_INGEST_TIER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "sim/ingest.hh"
#include "sim/trace.hh"
#include "trainbox/server_builder.hh"

namespace tb {

/**
 * Streaming-ingest counters plus the ingest conservation ledger
 * (all zero when ingest is disabled). The ledger identity
 *
 *   arrived == admitted + shed + inFlightAtEnd
 *
 * with shed == throttled + shedPolicy + overflowDropped +
 * abandonedWrites is panic-checked at the end of every
 * ingest-enabled run.
 */
struct IngestStats
{
    std::size_t arrivalEvents = 0;  ///< arrival batches delivered
    std::size_t overloadTrips = 0;  ///< buffer reached high watermark
    std::size_t stalls = 0;         ///< stall-policy engagements
    std::size_t writeFlows = 0;     ///< shard-write flows started
    std::size_t writeRetries = 0;   ///< writes retried after backoff
    std::size_t writeFailures = 0;  ///< chunks abandoned (budget out)

    // --- conservation ledger (samples) -------------------------------
    double samplesArrived = 0.0;   ///< offered by the arrival process
    double samplesAdmitted = 0.0;  ///< durably landed on a shard
    double samplesShed = 0.0;      ///< total rejected/dropped
    double samplesThrottled = 0.0;       ///< throttle-policy rejects
    double samplesShedPolicy = 0.0;      ///< shed-policy drops
    double samplesOverflowDropped = 0.0; ///< buffer-full drops
    double samplesAbandonedWrites = 0.0; ///< retry budget exhausted
    double samplesInFlightAtEnd = 0.0;   ///< buffered or being written

    /** Stale batch-fraction reused by the echo policy (samples). */
    double samplesEchoed = 0.0;

    Time overloadTime = 0.0;     ///< wall time with >=1 policy engaged
    Time stallTime = 0.0;        ///< wall time with compute stalled
    double peakBufferLevel = 0.0; ///< max buffered+writing samples

    // --- freshness / staleness SLO -----------------------------------
    double stalenessSum = 0.0; ///< sum of samples * (land - arrive)
    Time stalenessMax = 0.0;   ///< worst single-sample staleness
    double samplesWithinSlo = 0.0; ///< admitted within stalenessSlo

    /** Config echoes (SessionReport ingest ratios). */
    Time stalenessSloSec = 0.0;
    double echoEfficiency = 1.0;
};

/**
 * Arrivals, the ingest buffer, the serial shard-write pump and the
 * watermark policy chain of one session (docs/ROBUSTNESS.md,
 * "Streaming ingest & overload").
 */
class IngestTier
{
  public:
    /**
     * Build the tier and arm its arrival streams at the clock's current
     * time.
     *
     * @param writes       shard-write templates, one per prep group;
     *                     chunks go to them round-robin
     * @param trace        optional Chrome-trace writer (borrowed; same
     *                     contract as TrainingSession::setTrace)
     * @param releaseStall called when an engaged stall lifts, so
     *                     training can start its held computes
     */
    IngestTier(EventQueue &eq, FluidNetwork &net, const IngestConfig &cfg,
               std::vector<StageTemplate> writes, TraceWriter *trace,
               std::function<void()> releaseStall);

    IngestTier(const IngestTier &) = delete;
    IngestTier &operator=(const IngestTier &) = delete;

    /** Does the stall policy hold compute? */
    bool stalled() const { return stalled_; }

    /**
     * The fresh samples a step of @p batch samples consumes: all of
     * them, or batch / echoFactor while the echo policy is engaged.
     */
    double freshSamples(double batch) const;

    /** Count @p samples of a started step as echoed. */
    void countEchoed(double samples) { stats_.samplesEchoed += samples; }

    /**
     * Stop for good: draw no more arrivals, ignore those already
     * scheduled, cancel the shard write in flight, close the overload
     * and stall windows still open, and panic unless the conservation
     * ledger balances. Call inside a FlowBatch.
     */
    void stop();

    /** The counters; final once stop() has run. */
    const IngestStats &stats() const { return stats_; }

  private:
    /** One admitted arrival batch awaiting its shard write (FIFO). */
    struct Cohort
    {
        double samples = 0.0;
        Time arrivedAt = 0.0;
    };

    void onArrival(const IngestArrival &ev);
    bool policyEngaged(IngestPolicy p) const;
    double level() const;
    void updateOverload();
    void pumpWrites();
    void startWrite(std::size_t attempt);
    void onWriteDone(std::size_t attempt);

    EventQueue &eq_;
    FluidNetwork &net_;
    IngestScheduler sched_;
    std::vector<StageTemplate> writes_;
    TraceWriter *trace_;
    std::function<void()> releaseStall_;
    IngestStats stats_;

    std::deque<Cohort> queue_;           ///< buffered, not yet writing
    std::vector<Cohort> writingCohorts_; ///< current chunk
    double buffered_ = 0.0;          ///< samples buffered (excl. writing)
    double writing_ = 0.0;           ///< samples in the in-flight write
    std::size_t writeTarget_ = 0;    ///< round-robin shard target
    std::uint64_t engaged_ = 0;      ///< bitmask over policyChain
    bool stalled_ = false;           ///< stall policy holds compute
    bool stopped_ = false;           ///< stop() ran; handlers no-op
    Time stallStart_ = 0.0;
    Time overloadStart_ = 0.0;
    std::uint64_t writeEpoch_ = 0;   ///< stales pending retries
    FlowId writeFlow_ = 0;           ///< in-flight write (0 = none)
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_INGEST_TIER_HH
