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
 * A SessionMeter (trainbox/session_meter.hh) owns the measurement
 * window: steady-state throughput after warmup, per-stage preparation
 * latencies (Fig 9), per-category host-resource consumption (Figs
 * 11/22) via the fluid accounting, and the sample ledger.
 *
 * Each subsystem below is off by default, and then never touched, so
 * results are bit-identical to a build without it.
 *
 * - Faults (ServerConfig::faults): a FaultInjector
 *   (sim/fault_injector.hh) draws every fault and decides each
 *   recovery: whether a finished prep stage's chain goes on, runs a
 *   stage again after a backoff or replay, or restarts, and how long a
 *   straggling compute runs. The session applies those outcomes and the
 *   fault windows to its own state: prep-FPGA crash failover onto the
 *   survivors and the prep pool, host-memory fallback on P2P route
 *   loss, and the fatal-crash rollback (docs/ROBUSTNESS.md).
 * - Checkpoints (ServerConfig::checkpoint): a Checkpointer
 *   (trainbox/checkpoint.hh) snapshots the model + optimizer state to
 *   the train-box SSDs; a fatal crash rolls training back to the last
 *   durable checkpoint, replays the lost steps and pays a restart
 *   latency.
 * - Elasticity (ServerConfig::elasticity): an ElasticScheduler drives a
 *   membership state machine over the prep groups: planned drains get
 *   a grace window and a checkpoint-coordinated detach, preemptions
 *   kill the member and its buffered samples at once, and joins
 *   re-shard the data. Every membership change re-plans the prep
 *   offload with the train initializer (planPreparation() over the
 *   attached groups' own accelerators and FPGAs). The step barrier
 *   scans the attached groups, so training runs at degraded capacity
 *   and parks (without deadlock) at zero capacity.
 * - Ingest (ServerConfig::ingest): an IngestTier
 *   (trainbox/ingest_tier.hh) owns streaming arrivals, their shard
 *   writes and the overload policy chain; training reads its stall and
 *   echo state.
 */

#ifndef TRAINBOX_TRAINBOX_TRAINING_SESSION_HH
#define TRAINBOX_TRAINBOX_TRAINING_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/elastic_schedule.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"
#include "trainbox/checkpoint.hh"
#include "trainbox/ingest_tier.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/session_meter.hh"

namespace tb {

class SessionReport;

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
     * loop: starts the meter, arms the fault/elastic/ingest injectors,
     * and launches the initial prep chains at the core's current time.
     * The caller (run(), or a fleet driver multiplexing several
     * sessions) then steps the core.
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
     * Terminate the session *now*: the fleet layer's host-failure path
     * (docs/ROBUSTNESS.md). Cancels every pending event and flow of the
     * session, discards buffered samples (the ledger counts them), and
     * freezes the result over the window elapsed so far, exactly as a
     * completion does (SessionMeter::finish()); throughput and stepTime
     * are 0 when nothing was measured. The session then reports done()
     * but the onDone callback never fires: termination is the caller's
     * decision, not a completion. No-op on a done session.
     */
    void kill();

    /** Global steps synchronized so far (final count once done()). */
    std::size_t stepsSynced() const { return meter_.steps(); }

    /**
     * Last durably checkpointed step — what a restarted attempt can
     * resume from (0 when checkpointing is disabled: a restart then
     * replays from scratch). See trainbox/checkpoint.hh.
     */
    std::size_t lastDurableStep() const
    {
        return ckpt_ ? ckpt_->lastDurableStep() : 0;
    }

    /** Measured steps up to lastDurableStep(): what a retry keeps. */
    std::size_t durableMeasuredSteps() const
    {
        return meter_.measuredThrough(lastDurableStep());
    }

    /**
     * Run and build the full SessionReport (trainbox/report.hh), the
     * preferred way to consume a run.
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
        std::string offloadTrack;     ///< trace track of offload chains
        double readySamples = 0.0;    ///< prepared samples buffered
        double inFlightSamples = 0.0; ///< samples in running chains
        bool computing = false;
        Time computeStart = 0.0;      ///< start of the running compute
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

        /** In the job: Active or Draining. */
        bool attached() const
        {
            return membership == Membership::Active ||
                   membership == Membership::Draining;
        }
    };

    /**
     * Handle of a chain: its slot in chains_ and that slot's generation
     * when the handle was made. 8 bytes, so a callback capturing it and
     * `this` fits inside std::function without a heap allocation.
     */
    struct ChainId
    {
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };

    /** One in-flight prep chain (a live slot of chains_). */
    struct ChainRun
    {
        /**
         * Bumped when the slot is freed and when the chain is
         * re-dispatched, so older handles (and the continuations that
         * hold them) go stale.
         */
        std::uint32_t gen = 0;
        bool live = false;
        std::uint64_t launch = 0; ///< launch order among the chains

        std::size_t group = 0;
        bool offload = false;
        double samples = 0.0;
        Time start = 0.0;

        /** Template in use; re-selected on every (re-)dispatch. */
        const std::vector<StageTemplate> *stages = nullptr;

        /** Stage running, or to run when a pending resume fires. */
        std::size_t stage = 0;
        Time stageStart = 0.0; ///< when the running stage started
        FlowId flow = 0;       ///< current stage's flow (0 = none)
        ChainRetryState retry{}; ///< the current chunk's retry state
    };

    void launchPrep(std::size_t g);
    void forEachGroup(void (TrainingSession::*step)(std::size_t));
    double groupBatchSamples(std::size_t g) const;
    void tryStartCompute(std::size_t g);
    void onComputeDone(std::size_t g);
    void stepComplete();
    void onSyncDone(Time start);

    // --- prep chains (every chain the session runs is a ChainRun) ----
    void launchChain(std::size_t g, bool offload, double samples);
    ChainRun *findChain(ChainId id);
    ChainId chainId(const ChainRun &run) const;
    void freeChain(ChainRun &run);
    std::vector<std::uint32_t> chainsInLaunchOrder() const;
    const std::string &chainTrack(const ChainRun &run) const;
    void startChainStage(ChainId id, std::size_t idx);
    void onStageDone(ChainId id, Time now);
    void restartChain(ChainRun &run);
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
    double dropGroupWork(std::size_t g);

    // --- fault windows (never reached when fault_ is null) -----------
    void onFault(const FaultEvent &ev);
    void onRepair(const FaultEvent &ev);
    void onFatalCrash(const FaultEvent &ev);
    void onCheckpointResume();

    /**
     * Freeze the SessionResult at the completion instant (still inside
     * the final sync event) or at kill(): on a shared core, co-resident
     * sessions that keep simulating never perturb it. It is also the
     * session's one teardown: it disarms the fault/elastic/ingest
     * injectors and cancels every flow the session started, so a
     * finished or killed session stops adding events to a shared queue
     * and owns no flow.
     */
    void finish();

    Server &server_;
    EventQueue &eq_;    ///< the core's event queue (shared clock)
    FluidNetwork &net_; ///< the core's contention engine
    std::vector<GroupState> groups_;
    TraceWriter *trace_ = nullptr;

    std::unique_ptr<FaultInjector> fault_;
    std::unique_ptr<Checkpointer> ckpt_;
    bool pausedForCkpt_ = false; ///< compute held for a capture
    bool down_ = false;          ///< machine restarting after a crash
    EventId syncEv_{};           ///< pending sync completion
    /** Chain storage; free slots are recycled (see freeChains_). */
    std::vector<ChainRun> chains_;
    std::vector<std::uint32_t> freeChains_;
    std::uint64_t nextLaunch_ = 0;
    /** Stage id of the SSD read, whose completion may fail a read. */
    std::uint32_t readStage_ = kNoStage;

    /** Elastic membership; null unless cfg.elasticity.enabled. */
    std::unique_ptr<ElasticScheduler> elastic_;

    /** Streaming ingest; null unless cfg.ingest.enabled. */
    std::unique_ptr<IngestTier> ingest_;

    SessionMeter meter_;
    bool started_ = false;
    bool done_ = false;

    /** Result frozen by finish(). */
    SessionResult result_;
    std::function<void()> doneCb_;
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_TRAINING_SESSION_HH
