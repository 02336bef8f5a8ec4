/**
 * @file
 * Training-session driver.
 *
 * Executes synchronous data-parallel training on a built Server:
 * per prep group, batches flow through the group's stage chain as fluid
 * flows (with next-batch prefetching); compute starts on a group once its
 * batch is ready and the previous global step has synchronized; model
 * synchronization is a global barrier followed by the ring-sync latency.
 *
 * The session measures steady-state throughput over a measurement window
 * (after warmup), per-stage preparation latencies (Fig 9), and per-
 * category host-resource consumption (Figs 11/22) via the fluid
 * accounting.
 *
 * When ServerConfig::faults.enabled is set the session additionally
 * drives a FaultInjector and implements the recovery policies described
 * in docs/ROBUSTNESS.md: bounded SSD read retries with exponential
 * backoff, prep-FPGA crash failover onto the survivors and the prep
 * pool, host-memory fallback on P2P route loss, and a straggler-
 * tolerant sync barrier. With injection disabled (the default) the
 * fault path is never taken and results are bit-identical to a session
 * without the fault subsystem.
 *
 * When ServerConfig::checkpoint.enabled is set a Checkpointer
 * periodically snapshots the model + optimizer state to the train-box
 * SSDs (trainbox/checkpoint.hh); fatal-crash faults then roll training
 * back to the last durable checkpoint, replay the lost steps, and pay a
 * restart latency. The same bit-identical guarantee applies: with
 * checkpointing disabled the session never touches the subsystem.
 *
 * When ServerConfig::elasticity.enabled is set an ElasticScheduler
 * (sim/elastic_schedule.hh) drives a membership state machine over the
 * prep groups: planned drains get a grace window and a checkpoint-
 * coordinated detach, spot-style preemptions kill the member (and its
 * buffered samples) at the event instant, and joins re-shard the data
 * and re-plan prep lending through multi_job. The step barrier becomes
 * a scan over attached groups, so training proceeds at degraded
 * capacity and parks (without deadlock) at zero capacity. With
 * elasticity disabled the membership never changes and results are
 * bit-identical to a build without the subsystem.
 *
 * When ServerConfig::ingest.enabled is set an IngestScheduler
 * (sim/ingest.hh) streams sample arrivals into a bounded host-DRAM
 * ingest buffer; the session drains it through the per-group
 * ingest_write stage template (shard appends contending with prep
 * reads via the SSD write→read interference) with bounded
 * retry/backoff, and applies the configured overload policy chain
 * (throttle → shed → echo → stall) as the buffer crosses its
 * watermarks. The ingest conservation ledger
 *
 *   arrived == admitted + shed + inFlight
 *
 * is panic-checked at the end of every ingest-enabled run. With ingest
 * disabled no arrival, buffer, or write machinery is ever constructed
 * and results are bit-identical to a build without the subsystem.
 */

#ifndef TRAINBOX_TRAINBOX_TRAINING_SESSION_HH
#define TRAINBOX_TRAINBOX_TRAINING_SESSION_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/elastic_schedule.hh"
#include "sim/fault_injector.hh"
#include "sim/ingest.hh"
#include "sim/trace.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/server_builder.hh"

namespace tb {

class SessionReport;

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

    /** Fault-injection and recovery counters (all zero when disabled). */
    struct FaultStats
    {
        std::size_t faultsInjected = 0;      ///< fault windows opened
        std::size_t readFailures = 0;        ///< failed SSD read attempts
        std::size_t ssdRetries = 0;          ///< reads retried after backoff
        std::size_t chunksAbandoned = 0;     ///< chunks restarted from scratch
        std::size_t prepFailovers = 0;       ///< crashes absorbed by failover
        std::size_t computeRedispatches = 0; ///< straggler timeouts fired
        std::size_t stragglerSteps = 0;      ///< group-steps that straggled
        Time degradedTime = 0.0; ///< wall time with >=1 open fault window
    };
    FaultStats faults;

    /**
     * Silent-corruption injection/detection counters (all zero when
     * corruption injection is disabled). The accounting invariant is
     * exact: injected == detected + escaped. "Detected" covers
     * link-level (PCIe LCRC) and ECC catches, checksum-verify catches,
     * and the baseline CPU path's software validation; "escaped" flips
     * reached training silently.
     */
    struct IntegrityStats
    {
        std::size_t injected = 0; ///< corruption strikes drawn
        std::size_t detected = 0; ///< caught before reaching training
        std::size_t escaped = 0;  ///< reached training silently

        /** Strikes per CorruptionKind (index = enum value). */
        std::array<std::size_t, kNumCorruptionKinds> injectedByKind{};

        std::size_t pcieReplays = 0;       ///< LCRC replay stalls paid
        std::size_t recoveries = 0;        ///< verify-triggered re-reads
        std::size_t chunksQuarantined = 0; ///< recovery budget exhausted

        /** Escaped fraction of injected (0 when nothing injected). */
        double escapeRate() const
        {
            return injected == 0
                ? 0.0
                : static_cast<double>(escaped) /
                      static_cast<double>(injected);
        }
    };
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

        // --- conservation ledger (samples) ---------------------------
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

        // --- freshness / staleness SLO -------------------------------
        double stalenessSum = 0.0; ///< sum of samples * (land - arrive)
        Time stalenessMax = 0.0;   ///< worst single-sample staleness
        double samplesWithinSlo = 0.0; ///< admitted within stalenessSlo

        /** Config echoes (SessionReport ingest ratios). */
        Time stalenessSloSec = 0.0;
        double echoEfficiency = 1.0;
    };
    IngestStats ingest;

    /** Total simulated wall time of the run (start to last sync). */
    Time wallTime = 0.0;
};

/**
 * Runs training steps on a Server and measures steady state.
 *
 * The session is a *client* of the server's SimulationCore: run() is a
 * thin shim that arms the session (start()), steps the core's event
 * queue until the session finishes, and returns collect(). A fleet
 * driver instead calls start() on many sessions sharing one core,
 * steps the core itself, and collect()s each session as it completes —
 * an N=1 fleet is bit-identical to run() (docs/FLEET.md).
 */
class TrainingSession
{
  public:
    explicit TrainingSession(Server &server);

    /**
     * Run @p warmup + @p measure global steps and report steady-state
     * metrics over the measurement window. Equivalent to start() +
     * stepping the core until done() + collect().
     */
    SessionResult run(std::size_t warmup = 4, std::size_t measure = 8);

    /**
     * Arm the session on its server's core without stepping the event
     * loop: registers instruments, arms the fault/elastic/ingest
     * injectors, and launches the initial prep chains at the core's
     * current time. The caller (run(), or a fleet driver multiplexing
     * several sessions) then steps the core.
     */
    void start(std::size_t warmup = 4, std::size_t measure = 8);

    /** Has the session synchronized its final step? */
    bool done() const { return done_; }

    /**
     * Invoked exactly once, at the instant the session finishes (after
     * its result is finalized) — the hook a fleet scheduler uses to
     * free capacity and start queued jobs on the shared timeline.
     */
    void onDone(std::function<void()> cb) { doneCb_ = std::move(cb); }

    /**
     * The finalized result. Callable any time after done(); the result
     * is frozen at the completion instant, so co-resident sessions
     * simulating past this session's end never perturb it.
     */
    SessionResult collect();

    /**
     * Terminate the session *now* — the fleet layer's host-failure
     * path (docs/ROBUSTNESS.md). Cancels the pending sync and every
     * per-group compute/membership event, stops the injector streams,
     * cancels every flow the session started (prep chains, the ingest
     * shard write, a checkpoint capture), discards buffered prepared
     * samples (counted in the conservation ledger), and freezes a
     * *partial* result over whatever measurement window had elapsed:
     * stepsMeasured is the synchronized in-window step count,
     * throughput/stepTime are 0 when nothing measured, and every
     * ledger invariant still holds. After kill() the session reports
     * done() but the registered onDone callback never fires —
     * termination is the caller's decision, not a completion. No-op on
     * an already-done session.
     */
    void kill();

    /** Global steps synchronized so far (final count once done()). */
    std::size_t stepsSynced() const { return syncedSteps_; }

    /**
     * Last durably checkpointed step — what a restarted attempt can
     * resume from (0 when checkpointing is disabled: a restart then
     * replays from scratch). See trainbox/checkpoint.hh.
     */
    std::size_t lastDurableStep() const;

    /**
     * Run and assemble the full SessionReport (config echo, latency
     * breakdown, per-device utilization when cfg.metricsEnabled, and
     * ranked bottleneck attribution). The preferred entry point for
     * consuming a run; see trainbox/report.hh.
     */
    SessionReport runReport(std::size_t warmup = 4,
                            std::size_t measure = 8);

    /**
     * Record a Chrome-trace timeline (prep stages per group, compute
     * spans, sync spans, fault windows) into @p trace. Must be set
     * before run(); the writer is only dereferenced *during* run() and
     * the session drops the pointer when run() returns, so the writer
     * must outlive the run() call (not the session).
     */
    void setTrace(TraceWriter *trace) { trace_ = trace; }

  private:
    /**
     * Elastic membership of one prep group (docs/ROBUSTNESS.md). All
     * groups stay Active for the whole run unless elasticity is
     * enabled; the transitions are
     *
     *   Active --drain notice--> Draining --grace end--> Detached
     *   Active/Draining --preempt--> Detached
     *   Detached --join--> Joining --rejoinLatency--> Active
     *   Draining --join--> Active (drain cancelled)
     */
    enum class Membership
    {
        Active,   ///< computing and prepping normally
        Draining, ///< drain notice received; finishes, no new prep
        Detached, ///< out of the job; devices parked, barrier skips it
        Joining,  ///< attach in progress (rejoinLatency)
    };

    struct GroupState
    {
        const PrepGroup *spec;
        double readySamples = 0.0;    ///< prepared samples buffered
        double inFlightSamples = 0.0; ///< samples in running chains
        bool computing = false;
        std::size_t stepsComputed = 0;
        bool prepDegraded = false; ///< its prep FPGA is currently down
        bool routeLost = false;    ///< its P2P route is currently down
        EventId computeEv{};       ///< pending compute completion

        // --- elastic membership (Active forever when disabled) -------
        Membership membership = Membership::Active;
        bool prepElasticOut = false; ///< one FPGA elastically away
        std::uint64_t prepEpoch = 0; ///< stales pending prep detaches
        double offloadOverride = -1.0; ///< re-planned offload (<0: spec)
        EventId detachEv{};            ///< pending grace-window end
        EventId joinEv{};              ///< pending rejoin completion
    };

    /** One in-flight prep chain (chains_, keyed in launch order). */
    struct ChainRun
    {
        std::size_t group = 0;
        bool offload = false;
        double samples = 0.0;
        Time start = 0.0;
        std::string track;

        /** Template in use; re-selected on every (re-)dispatch. */
        const std::vector<StageTemplate> *stages = nullptr;

        FlowId flow = 0;              ///< current stage's flow (0 = none)
        std::size_t readAttempts = 0; ///< failed reads of current chunk
        std::uint64_t epoch = 0;      ///< bumped on re-dispatch; stales
                                      ///< pending retry events

        /**
         * Silent flips riding the chunk that a downstream verify stage
         * will catch (already counted detected at draw time; this
         * drives the recovery behavior only).
         */
        std::size_t pendingCorruptions = 0;

        /** Verify-triggered re-reads of the current chunk. */
        std::size_t recoveries = 0;
    };

    void launchPrep(std::size_t g);
    void onChainDone(std::size_t g, double samples, Time chain_start);
    bool measuring() const;
    std::size_t chunksPerBatch() const;
    double groupBatchSamples(std::size_t g) const;
    void tryStartCompute(std::size_t g);
    void onComputeDone(std::size_t g);
    void stepComplete();
    void onSyncDone();

    // --- prep chains (every chain the session runs is a ChainRun) ----
    void launchChain(std::size_t g, bool offload, double samples);
    void startChainStage(std::uint64_t cid, std::size_t idx);
    void resumeChainIn(Time delay, std::uint64_t cid, std::size_t idx);
    void restartChain(std::uint64_t cid, ChainRun &run);
    static constexpr std::size_t kAllGroups = static_cast<std::size_t>(-1);
    void cancelChains(std::size_t g = kAllGroups);

    std::size_t redispatchLocalChains(std::size_t g);
    const std::vector<StageTemplate> &selectStages(const ChainRun &run)
        const;
    double effectiveOffload(std::size_t g) const;
    bool prepOut(const GroupState &gs) const;

    // --- elastic-capacity path (never reached when elastic_ is null) -
    void onElasticEvent(const ElasticEvent &ev);
    void beginGroupDrain(std::size_t g);
    void preemptGroup(std::size_t g);
    void beginGroupJoin(std::size_t g);
    void completeJoin(std::size_t g);
    void detachGroup(std::size_t g, bool preempted);
    void onPrepLeave(std::size_t g, bool planned);
    void onPrepJoin(std::size_t g);
    void replanOffload();
    void accrueCapacity();

    // --- streaming-ingest path (never reached when ingest_ is null) --
    void onIngestArrival(const IngestArrival &ev);
    bool ingestPolicyEngaged(IngestPolicy p) const;
    double ingestLevel() const;
    void updateIngestOverload();
    void pumpIngestWrites();
    void startIngestWrite(std::size_t attempt);
    void onIngestWriteDone(std::size_t attempt);

    // --- fault-injection path (inert when fault_ is null) ------------
    void onFault(const FaultEvent &ev);
    void onRepair(const FaultEvent &ev);
    void onFatalCrash(const FaultEvent &ev);
    void onCheckpointResume();
    bool handleReadFailure(std::uint64_t cid, ChainRun &run, std::size_t idx);
    bool handleCorruption(std::uint64_t cid, ChainRun &run, std::size_t idx);
    static bool chainVerifiesFrom(const ChainRun &run, std::size_t idx);

    /**
     * Freeze the SessionResult at the completion instant (still inside
     * the final sync event). On a private core this is observably
     * identical to assembling the result after the event loop drains —
     * simulated time cannot advance in between — but on a shared core
     * it guards the result against co-resident sessions that keep
     * simulating past this session's end. It is also the session's
     * one teardown: it disarms the fault/elastic/ingest injectors and
     * cancels every flow the session started, so a finished or killed
     * session stops adding events to a shared queue and owns no flow.
     *
     * @p partial relaxes the completed-run assumptions for kill():
     * the measurement window may be empty (no throughput/resource
     * collection then) and stepsMeasured counts only the steps that
     * actually synchronized inside it. The ledger panics stay armed
     * in both modes. A normal completion (partial = false) computes
     * byte-identical values to the historical code.
     */
    void finalizeResult(bool partial = false);

    Server &server_;
    EventQueue &eq_;    ///< the core's event queue (shared clock)
    FluidNetwork &net_; ///< the core's contention engine
    std::vector<GroupState> groups_;
    TraceWriter *trace_ = nullptr;

    // session-level instruments (nullptr whenever metrics are off, in
    // which case no instrumented statement executes)
    MetricCounter *computeBusyCtr_ = nullptr;
    MetricCounter *syncBusyCtr_ = nullptr;
    MetricCounter *stepsCtr_ = nullptr;
    MetricCounter *chainsCtr_ = nullptr;

    std::unique_ptr<FaultInjector> fault_;
    std::unique_ptr<Checkpointer> ckpt_;
    bool pausedForCkpt_ = false; ///< compute held for a capture
    bool down_ = false;          ///< machine restarting after a crash
    EventId syncEv_{};           ///< pending sync completion
    std::map<std::uint64_t, ChainRun> chains_;
    std::uint64_t nextChainId_ = 1;
    SessionResult::FaultStats faultStats_;
    SessionResult::IntegrityStats integrityStats_;
    std::size_t activeFaultWindows_ = 0;
    Time degradedStart_ = 0.0;
    Time degradedTime_ = 0.0;

    // --- elastic capacity --------------------------------------------
    std::unique_ptr<ElasticScheduler> elastic_;
    std::size_t activeGroups_ = 0; ///< Active + Draining groups
    SessionResult::ElasticityStats elasticStats_;
    Time lastCapacityMark_ = 0.0;
    double activeFractionIntegral_ = 0.0;

    // --- streaming ingest --------------------------------------------
    std::unique_ptr<IngestScheduler> ingest_;
    SessionResult::IngestStats ingestStats_;

    /** One admitted arrival batch awaiting its shard write (FIFO). */
    struct IngestCohort
    {
        double samples = 0.0;
        Time arrivedAt = 0.0;
    };
    std::deque<IngestCohort> ingestQueue_; ///< buffered, not yet writing
    std::vector<IngestCohort> ingestWritingCohorts_; ///< current chunk
    double ingestBuffered_ = 0.0; ///< samples buffered (excl. writing)
    double ingestWriting_ = 0.0;  ///< samples in the in-flight write
    std::size_t ingestWriteGroup_ = 0; ///< round-robin shard target
    std::uint64_t ingestEngaged_ = 0;  ///< bitmask over policyChain
    bool ingestStalled_ = false;       ///< stall policy holds compute
    Time ingestStallStart_ = 0.0;
    Time ingestOverloadStart_ = 0.0;
    std::uint64_t ingestWriteEpoch_ = 0; ///< stales pending retries
    FlowId ingestWriteFlow_ = 0;         ///< in-flight write (0 = none)

    // sample ledger (always tracked; conservation panic-checked)
    double samplesPrepared_ = 0.0;
    double samplesConsumed_ = 0.0;
    double samplesDiscarded_ = 0.0;

    // elastic throughput: per-step compute contributions, committed
    // once per distinct step index at sync (crash replays recommit
    // nothing). Unused when elasticity is disabled — then throughput
    // keeps the fixed-membership closed form, bit-identically.
    double stepSamples_ = 0.0;
    double measuredSamples_ = 0.0;
    std::size_t maxSyncedStep_ = 0;

    std::size_t syncedSteps_ = 0;
    std::size_t warmupSteps_ = 0;
    std::size_t measureSteps_ = 0;
    std::size_t totalSteps_ = 0;
    bool started_ = false;
    bool done_ = false;
    bool windowOpen_ = false; ///< measurement window reset already done
    Time startNow_ = 0.0; ///< core time at start() (0 when standalone)
    Time windowStart_ = 0.0;
    Time windowEnd_ = 0.0;

    /** Result frozen by finalizeResult() at the completion instant. */
    SessionResult result_;
    std::function<void()> doneCb_;

    // measurement accumulators
    std::map<std::string, Time> stageTimeSum_;
    std::map<std::string, std::size_t> stageTimeCount_;
    Time prepLatencySum_ = 0.0;
    std::size_t prepLatencyCount_ = 0;
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_TRAINING_SESSION_HH
