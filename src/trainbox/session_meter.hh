/**
 * @file
 * The measurement window of a training session.
 *
 * A session warms up for some global steps, then measures some more;
 * its throughput, step time, Fig 9 stage latencies and Figs 11/22 host
 * rates are averages over that window. SessionMeter owns the rule: it
 * counts the synchronized steps, opens the window at the first warm-up
 * crossing (at start without warm-up) and never again, commits each
 * step index's samples once, keeps the sample ledger, and assembles
 * the measured fields of the SessionResult the same way for a
 * completed run and a killed one. It needs no server: the session
 * tells it what happened (docs/ARCHITECTURE.md).
 */

#ifndef TRAINBOX_TRAINBOX_SESSION_METER_HH
#define TRAINBOX_TRAINBOX_SESSION_METER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fluid/fluid.hh"
#include "sim/fault_injector.hh"
#include "sim/metrics.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/ingest_tier.hh"

namespace tb {

/**
 * Raw measurements of a session run.
 *
 * SessionReport (trainbox/report.hh) is the single documented entry
 * point for consuming a run: it wraps this struct together with the
 * config echo, per-device utilization, and the ranked bottleneck
 * attribution, and owns the canonical goodput/efficiency formulas.
 */
struct SessionResult
{
    /** Aggregate training throughput (samples/s). */
    double throughput = 0.0;

    /** Average time per global training step. */
    Time stepTime = 0.0;

    /** Batch compute time on one accelerator. */
    Time computeTime = 0.0;

    /** Ring-sync time per step. */
    Time syncTime = 0.0;

    /** Average wall time each prep stage took per group batch. */
    std::map<std::string, Time> prepStageTime;

    /** Average end-to-end prep latency per group batch. */
    Time prepLatency = 0.0;

    /** Steps included in the measurement window. */
    std::size_t stepsMeasured = 0;

    /** Host CPU demand by category (cores, i.e., core-sec per second). */
    std::map<std::string, double> cpuCoresByCategory;

    /** Host DRAM bandwidth by category (bytes/s). */
    std::map<std::string, double> memBwByCategory;

    /** PCIe root-complex bandwidth by category (bytes/s). */
    std::map<std::string, double> rcBwByCategory;

    /** Fault and recovery counters (sim/fault_injector.hh). */
    using FaultStats = tb::FaultStats;
    FaultStats faults;

    /** Silent-corruption counters (sim/fault_injector.hh). */
    using IntegrityStats = tb::IntegrityStats;
    IntegrityStats integrity;

    /** Checkpoint/restore counters (all zero when disabled). */
    CheckpointStats checkpoint;

    /**
     * Elastic-capacity counters plus the session-wide sample ledger.
     * The event counters are all zero when elasticity is disabled; the
     * ledger (samplesPrepared/Consumed/CachedAtEnd/Discarded) is always
     * tracked, and its conservation identity
     *
     *   prepared == consumed + cachedAtEnd + discarded
     *
     * is panic-checked at the end of every run (in-flight chains that
     * were cancelled never became "prepared", so they are outside the
     * ledger by construction).
     */
    struct ElasticityStats
    {
        std::size_t events = 0;      ///< elastic events delivered
        std::size_t drains = 0;      ///< planned-leave notices applied
        std::size_t preemptions = 0; ///< hard leaves applied
        std::size_t joins = 0;       ///< members (re)activated
        std::size_t chainsRebalanced = 0; ///< chains re-dispatched

        /** Ready + aborted-compute samples killed by hard preemption. */
        double samplesLostToPreemption = 0.0;

        /** Samples whose prep finished inside a drain grace window. */
        double samplesSavedByDrain = 0.0;

        /** Buffered samples discarded at a planned detach. */
        double samplesDroppedAtDrain = 0.0;

        Time degradedCapacityTime = 0.0; ///< wall time below full groups
        Time zeroCapacityTime = 0.0;     ///< wall time with zero groups
        Time rebalanceTime = 0.0;        ///< rejoin/shard-reassign time

        /** Time-weighted mean of activeGroups / totalGroups. */
        double avgActiveFraction = 1.0;

        /** Config echo (SessionReport::sloAttainment()). */
        double sloTargetSamplesPerSec = 0.0;

        // --- sample ledger (always tracked) --------------------------
        double samplesPrepared = 0.0;    ///< prep chains completed
        double samplesConsumed = 0.0;    ///< taken by compute starts
        double samplesCachedAtEnd = 0.0; ///< still buffered at run end
        double samplesDiscarded = 0.0;   ///< dropped (crash or detach)
    };
    ElasticityStats elasticity;

    /** Streaming-ingest counters and ledger (trainbox/ingest_tier.hh). */
    using IngestStats = tb::IngestStats;
    IngestStats ingest;

    /** Total simulated wall time of the run (start to last sync). */
    Time wallTime = 0.0;
};

/** The measurement window of one session; see the file comment. */
class SessionMeter
{
  public:
    /** Host resources whose per-category rates the result reports. */
    struct HostResources
    {
        const FluidResource *cpu = nullptr;
        const FluidResource *mem = nullptr;
        const FluidResource *rc = nullptr;
    };

    /** @p stageNames names the stage ids; a null host resource reports
     *  no rates. */
    SessionMeter(std::vector<std::string> stageNames, HostResources host);

    /**
     * Warm up @p warmup steps, then measure @p measure, from @p now with
     * @p groups prep groups attached; @p computeBusy (null without
     * metrics) sums the measured compute time. Returns true when the
     * window opens here (warm-up 0): the caller resets its accounting.
     */
    bool start(std::size_t warmup, std::size_t measure, std::size_t groups,
               Time now, MetricCounter *computeBusy = nullptr);

    /** Global steps synchronized (after a rollback, its step). */
    std::size_t steps() const { return steps_; }
    bool complete() const { return steps_ >= warmup_ + measure_; }

    /** Counting now? From the warm-up crossing to the end, except
     *  while a rollback replays below it. */
    bool measuring() const { return steps_ >= warmup_ && !ended_; }

    /** Measured steps among the first @p step. */
    std::size_t measuredThrough(std::size_t step) const
    {
        return step > warmup_ ? step - warmup_ : 0;
    }

    /** A group computed @p samples toward the step in progress. */
    void batchComputed(double samples) { stepSamples_ += samples; }

    /**
     * The step in progress synchronized at @p now; a measured step
     * index commits its samples at its first sync. Returns true when
     * this sync opens the window (see start()).
     */
    bool stepSynced(Time now);

    /** A crash rolled training back to @p step, voiding the step in
     *  progress; the window stays as it is. */
    void rollBack(std::size_t step)
    {
        steps_ = step;
        stepSamples_ = 0.0;
    }

    void stageDone(std::uint32_t stage, Time took)
    {
        if (measuring()) {
            stageSum_[stage] += took;
            ++stageCount_[stage];
        }
    }
    void computeDone(Time busy)
    {
        if (computeBusy_ && measuring())
            computeBusy_->add(busy);
    }

    // --- the sample ledger -------------------------------------------
    void chainDone(double samples, Time latency)
    {
        elastic_.samplesPrepared += samples;
        if (measuring()) {
            latencySum_ += latency;
            ++latencyCount_;
        }
    }
    void consumed(double samples) { elastic_.samplesConsumed += samples; }
    void discarded(double samples) { elastic_.samplesDiscarded += samples; }

    /** The elastic counters, which membership changes count into. */
    SessionResult::ElasticityStats &elasticity() { return elastic_; }

    /** One group attaches (detaches) at @p now. */
    void attach(Time now) { setAttached(now, attached_ + 1); }
    void detach(Time now) { setAttached(now, attached_ - 1); }

    /**
     * End the window at @p now, with @p cached samples still buffered,
     * and return the measured fields of the result. Panics when the
     * sample ledger does not balance.
     */
    SessionResult finish(Time now, double cached);

  private:
    void accrue(Time now);
    void setAttached(Time now, std::size_t groups);

    std::vector<std::string> stageNames_;
    HostResources host_;
    MetricCounter *computeBusy_ = nullptr;

    std::size_t warmup_ = 0;
    std::size_t measure_ = 0;
    std::size_t steps_ = 0;
    std::size_t maxStep_ = 0; ///< highest step index synchronized
    bool open_ = false;
    bool ended_ = false;
    Time start_ = 0.0;
    Time windowStart_ = 0.0;

    double stepSamples_ = 0.0;     ///< step in progress
    double measuredSamples_ = 0.0; ///< committed measured steps

    // indexed by StageTemplate::stageId
    std::vector<Time> stageSum_;
    std::vector<std::size_t> stageCount_;
    Time latencySum_ = 0.0;
    std::size_t latencyCount_ = 0;

    // time at each attached-group count
    std::size_t groups_ = 0;
    std::size_t attached_ = 0;
    bool membershipChanged_ = false;
    Time capacityMark_ = 0.0;
    double activeIntegral_ = 0.0;

    SessionResult::ElasticityStats elastic_;
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_SESSION_METER_HH
