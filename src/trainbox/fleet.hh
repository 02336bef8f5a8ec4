/**
 * @file
 * Fleet-scale multi-job simulation (§V-D, dynamic counterpart of the
 * static rack planner in multi_job.hh).
 *
 * A FleetSimulation runs N training jobs on one shared SimulationCore:
 * jobs arrive over a trace, a placement policy binds each to a logical
 * host with free train-box capacity, and admissions arbitrate the
 * fleet's shared Ethernet prep pool — the §V-C disaggregated FPGAs —
 * across jobs. Every admitted job builds its own fluid server under a
 * unique resource prefix, so jobs contend for the pool at the grant
 * level (integer FPGAs, held until the job finishes) while their fluid
 * networks stay disjoint; cross-job *bandwidth* interference inside the
 * pool fabric is out of scope here and covered by the per-job offload
 * stage templates.
 *
 * Exactness contract: a one-job fleet with capacity to spare, an
 * uncapped pool, and arrival 0 replays the bare
 * TrainingSession::run() event sequence bit-for-bit — the only extra
 * event is the arrival at t = 0, which shifts every sequence number by
 * one and changes no relative order. tests/test_fleet.cc pins this
 * against the chaos-harness goldens.
 *
 * See docs/FLEET.md for the placement policies, the pool-grant
 * semantics, and the FleetReport field reference.
 */

#ifndef TRAINBOX_TRAINBOX_FLEET_HH
#define TRAINBOX_TRAINBOX_FLEET_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/simulation_core.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/server_config.hh"
#include "trainbox/training_session.hh"

namespace tb {

/** How waiting jobs are bound to hosts (docs/FLEET.md). */
enum class PlacementPolicy
{
    /** First host (spec order) with enough free box capacity. */
    FirstFit,

    /**
     * Topology-aware packing: the *fullest* host that still fits
     * (best-fit), keeping large contiguous box blocks free for big
     * jobs.
     */
    Packed,

    /**
     * Packed, plus pool-aware admission ordering: a job whose pool
     * request cannot be met in full yields (within one admission
     * round) to a waiting job whose request fits the remaining pool,
     * avoiding fragmented partial grants when whole grants are
     * available.
     */
    PrepPoolAware,
};

const char *placementPolicyName(PlacementPolicy p);

/** Parse "first_fit" / "packed" / "pool_aware"; false on no match. */
bool parsePlacementPolicy(const std::string &name, PlacementPolicy &out);

/** One logical host: a rack position holding train-box slots. */
struct FleetHostSpec
{
    std::string name;

    /** Train-box slots (one 8-accelerator box per slot). */
    std::size_t boxCapacity = 4;
};

/** One job of the arrival trace. */
struct FleetJobSpec
{
    /**
     * Unique job name; prefixes the job's resources ("<name>."). It
     * must not be another job's name followed by '.' and more, which
     * would share that job's (or its retries') namespace.
     */
    std::string name;

    /** Arrival time on the fleet clock (seconds). */
    Time arrival = 0.0;

    /** Higher runs first when several jobs wait (ties: arrival, idx). */
    int priority = 0;

    /** The job's full server configuration (model, preset, faults...). */
    ServerConfig config;

    std::size_t warmupSteps = 4;
    std::size_t measureSteps = 8;
};

/**
 * Lifecycle of a fleet job (docs/ROBUSTNESS.md "Fleet fault
 * tolerance"). `Failed` is transient — a killed job transitions to
 * Requeued or Abandoned within the same event — so at report time
 * every job is in one of the other five states, and the conservation
 * ledger `submitted == completed + abandoned + runningAtHorizon +
 * queuedAtHorizon` is panic-checked over them.
 *
 *   Queued --admit--> Running --host death--> Failed
 *   Failed --retries left--> Requeued --backoff + admit--> Running
 *   Failed --retries exhausted--> Abandoned        (terminal)
 *   Running --final sync--> Completed              (terminal)
 */
enum class FleetJobState
{
    Queued,    ///< submitted, never admitted (or not yet arrived)
    Running,   ///< admitted and simulating (or frozen at the horizon)
    Failed,    ///< transient: killed by a fault, disposition pending
    Requeued,  ///< waiting for backoff + capacity after a failure
    Completed, ///< ran to its final sync
    Abandoned, ///< retry budget exhausted
};

const char *fleetJobStateName(FleetJobState s);

/** A fleet scenario: hosts + shared prep pool + job trace. */
struct FleetConfig
{
    std::vector<FleetHostSpec> hosts;
    std::vector<FleetJobSpec> jobs;
    PlacementPolicy policy = PlacementPolicy::FirstFit;

    /**
     * Fleet-wide Ethernet prep-pool FPGAs arbitrated across jobs.
     * Negative = uncapped: every job keeps its own configured/planned
     * pool size untouched (the exactness-contract setting). >= 0:
     * admission grants min(request, free) whole FPGAs and rewrites the
     * job's ServerConfig::prepPoolFpgas to the grant; the grant returns
     * to the pool when the job finishes.
     */
    int sharedPoolFpgas = -1;

    /**
     * Safety horizon (fleet-clock seconds; 0 = none). The fleet stops
     * on all-jobs-done, not on queue exhaustion (a running job's
     * injector streams re-arm until it finishes); the horizon bounds a
     * run whose job stalls.
     * Jobs unfinished at the horizon report completed = false.
     */
    Time horizon = 0.0;

    /**
     * Fleet-level fault injection + the retry/backoff re-admission
     * policy (sim/fault_injector.hh). Disabled by default; when
     * disabled the fleet schedules zero fault events, keeping the
     * event sequence — and therefore every pinned golden —
     * bit-identical. Seeded streams require horizon > 0 (they are
     * pre-enumerated over it); scripted windows work on unbounded
     * runs.
     */
    FleetFaultConfig faults;

    /**
     * Validate the scenario: "" when admissible, else a one-line
     * description of the first problem found (same contract as
     * ServerConfig::validate()). The FleetSimulation constructor
     * fatal()s on a non-empty answer.
     */
    std::string validate() const;
};

/** Outcome of one job in the fleet. */
struct FleetJobResult
{
    std::string job;
    std::string host;    ///< "" when never admitted
    int priority = 0;

    Time arrival = 0.0;
    Time started = 0.0;  ///< admission time (== arrival when no wait)
    Time finished = 0.0; ///< done-transition time (0 when incomplete)

    /** started - arrival: time spent waiting for capacity. */
    Time queueingDelay = 0.0;

    /** Train-box slots the job occupied on its host. */
    std::size_t boxesUsed = 0;

    /** Pool FPGAs the job asked for (its natural/configured size). */
    std::size_t poolFpgasRequested = 0;

    /** Pool FPGAs actually granted (== requested when uncapped). */
    std::size_t poolFpgasGranted = 0;

    /** Grant was cut below the request by pool contention. */
    bool poolConstrained = false;

    bool admitted = false;
    bool completed = false;

    /** Where the job ended up in the lifecycle state machine. */
    FleetJobState state = FleetJobState::Queued;

    /** Failed attempts (each one either requeued or abandoned the job). */
    std::size_t restarts = 0;

    /**
     * Steps whose work was lost to failures: synchronized beyond the
     * last durable checkpoint when the host died, summed over failed
     * attempts (the checkpoint-restart replay cost, in steps).
     */
    std::size_t stepsLost = 0;

    /** Wall time spent in attempts that did not complete. */
    Time workLost = 0.0;

    /** Total failure-to-re-admission latency, summed over restarts. */
    Time replacementLatency = 0.0;

    /**
     * Full per-job report: the completed run, or — for a job killed by
     * a fault or frozen at the horizon — the ledger-consistent partial
     * report of its last attempt.
     */
    SessionReport report;
};

struct FleetReport;

/** The fleet report's fields, in export order (docs/FLEET.md). */
ReportNode fieldTable(const FleetReport &report);

/** Fleet-level rollup of per-job results (docs/FLEET.md). */
struct FleetReport
{
    std::string policy;
    std::vector<FleetJobResult> jobs;

    std::size_t jobsTotal = 0;
    std::size_t jobsCompleted = 0;

    /** Fleet-clock time of the last job completion. */
    Time makespan = 0.0;

    /** Sum of completed jobs' throughputs (samples/s). */
    double aggregateThroughput = 0.0;

    // --- queueing ------------------------------------------------------
    Time avgQueueingDelay = 0.0;
    Time maxQueueingDelay = 0.0;
    std::size_t jobsQueued = 0; ///< jobs with nonzero queueing delay

    // --- shared prep pool ----------------------------------------------
    /** Configured pool size (0 when uncapped — then grants are echoes). */
    std::size_t poolFpgasTotal = 0;
    std::size_t poolFpgasRequestedTotal = 0;
    std::size_t poolFpgasGrantedTotal = 0;
    std::size_t jobsPoolConstrained = 0;

    /**
     * Jain fairness index over per-job grant ratios
     * (granted/requested, jobs with requests only): 1 = equal
     * treatment, 1/n = one job took everything. 1 when nothing was
     * requested.
     */
    double poolFairness = 1.0;

    // --- stragglers / robustness rollup --------------------------------
    /**
     * Max / median completed-job wall time: 1 = perfectly balanced,
     * large = one job straggled far behind the fleet.
     */
    double stragglerRatio = 1.0;

    /** Elastic hard-preemptions summed over every attempt of every job. */
    std::size_t preemptions = 0;

    /** Per-job fault windows summed over every attempt of every job. */
    std::size_t faultsInjected = 0;

    // --- fleet fault tolerance -----------------------------------------
    /** Jobs whose retry budget ran out. */
    std::size_t jobsAbandoned = 0;

    /** Jobs still running when the horizon cut the run (frozen partial). */
    std::size_t jobsRunningAtHorizon = 0;

    /** Jobs still queued/requeued when the run ended. */
    std::size_t jobsQueuedAtHorizon = 0;

    /** Failed attempts summed over jobs. */
    std::size_t restartsTotal = 0;

    /** Steps of work lost to failures, summed over jobs. */
    std::size_t stepsLostTotal = 0;

    /** Wall time spent in attempts that did not complete, summed. */
    Time workLostTime = 0.0;

    /** Failure-to-re-admission latency over all restarts. */
    Time avgReplacementLatency = 0.0;
    Time maxReplacementLatency = 0.0;

    /**
     * retryHistogram[k] = jobs that failed exactly k times (index 0 =
     * never failed). Sized to the worst job; empty when no job ran.
     */
    std::vector<std::size_t> retryHistogram;

    /** Fleet-level fault windows injected (host/box/pool classes). */
    std::size_t fleetFaultsInjected = 0;

    /** Host-down wall time summed over hosts (outage windows). */
    Time hostDownTime = 0.0;

    /** Events executed on the shared core over the whole run. */
    std::uint64_t eventsExecuted = 0;

    /** Serialize as JSON (schema in docs/FLEET.md). */
    std::string toJson() const { return renderJson(fieldTable(*this)); }

    /** Serialize as "section,key,value" CSV rows (per-job sections). */
    std::string toCsv() const { return renderCsv(fieldTable(*this)); }

    /** Human-readable summary (the tb_report --fleet default). */
    void print(std::FILE *out = stdout) const;
};

/**
 * A fleet run in progress. Construction validates the config and
 * fatal()s on an impossible scenario (a job too large for every host,
 * duplicate or colliding job names, an empty trace).
 */
class FleetSimulation
{
  public:
    explicit FleetSimulation(FleetConfig cfg);
    ~FleetSimulation();

    FleetSimulation(const FleetSimulation &) = delete;
    FleetSimulation &operator=(const FleetSimulation &) = delete;

    /** The shared core every job simulates on. */
    SimulationCore &core() { return core_; }

    /** Run the trace to completion (or the horizon); build the report. */
    FleetReport run();

  private:
    struct Host
    {
        FleetHostSpec spec;
        std::size_t freeBoxes = 0;

        /** Nested outage depth: the host is down while > 0. */
        std::size_t downDepth = 0;

        /** Box slots fenced by open BoxLoss windows. */
        std::size_t lostBoxes = 0;

        Time downSince = 0.0;
        Time downTime = 0.0; ///< accumulated outage wall time

        bool down() const { return downDepth > 0; }

        /** Slots a new job could take right now. */
        std::size_t available() const
        {
            if (down())
                return 0;
            return freeBoxes > lostBoxes ? freeBoxes - lostBoxes : 0;
        }
    };

    struct Job
    {
        FleetJobSpec spec;
        std::size_t boxesNeeded = 0;
        std::size_t poolRequest = 0; ///< prepPoolSize() of spec.config
        std::size_t host = 0; ///< hosts_ index of the current attempt
        FleetJobResult result;
        // Admitted jobs own a server + session until the run ends:
        // repairs or joins of open windows and guarded timers may
        // still reach them, so teardown mid-run would dangle callbacks. Retired attempt
        // pairs (failed, replaced by a retry) move to the graveyard
        // below for the same reason.
        std::unique_ptr<Server> server;
        std::unique_ptr<TrainingSession> session;
        bool waiting = false;
        bool running = false;

        /** Admissions so far (names the retry's resource prefix). */
        std::size_t attempts = 0;

        /** Measured steps durably banked by failed attempts. */
        std::size_t measureDone = 0;

        /** Admission order stamp (most recent evicted first). */
        std::uint64_t admitStamp = 0;

        Time failedAt = 0.0;

        // Attempt-cumulative rollups: every attempt (failed, frozen,
        // or completed) adds its share when it ends, so fleet stats
        // never silently drop abnormal terminations.
        std::size_t cumPreemptions = 0;
        std::size_t cumFaults = 0;
        Time cumWall = 0.0;
    };

    void onArrival(std::size_t j);
    void onJobDone(std::size_t j);
    void tryAdmit();
    bool admit(std::size_t j, std::size_t host);
    int pickHost(const Job &job) const;
    bool allDone() const;
    FleetReport buildReport();

    // --- fault-tolerance path ---------------------------------------
    /** Freeze the attempt's partial report and accumulate rollups. */
    void freezeAttempt(std::size_t j);

    /** Kill a running job (host death / eviction) and disposition it. */
    void killJob(std::size_t j);

    /** Return the job's boxes and pool grant to the free sets. */
    void releaseCapacity(Job &job);

    void onFleetFault(const FleetFaultEvent &ev, std::size_t idx);
    void onFleetRepair(const FleetFaultEvent &ev, std::size_t idx);

    /** Kill running jobs on @p host until its freeBoxes >= lostBoxes. */
    void evictForLostBoxes(std::size_t host);

    /** Panic unless granted + free + partitioned == the pool size. */
    void checkPoolLedger() const;

    FleetConfig cfg_;
    SimulationCore core_;
    std::vector<Host> hosts_;
    std::vector<Job> jobs_;
    std::vector<std::size_t> waiting_; ///< arrival-order indices
    std::size_t poolFree_ = 0;
    std::size_t poolGranted_ = 0;     ///< held by running jobs
    std::size_t poolPartitioned_ = 0; ///< fenced by open partitions
    std::size_t terminal_ = 0;        ///< completed + abandoned jobs
    bool horizonHit_ = false;
    std::uint64_t admitSeq_ = 0;

    // Re-admission latency accounting (one sample per retry admit).
    Time replacementSum_ = 0.0;
    Time maxReplacement_ = 0.0;
    std::size_t replacementCount_ = 0;

    std::unique_ptr<FleetFaultInjector> fleetFaults_;

    /** Per fault event: the severity its handler actually applied. */
    std::vector<std::size_t> faultApplied_;

    /** Retired server/session pairs from failed attempts (see Job). */
    std::vector<std::unique_ptr<Server>> retiredServers_;
    std::vector<std::unique_ptr<TrainingSession>> retiredSessions_;
};

/** Convenience one-shot: build, run, report. */
FleetReport runFleet(FleetConfig cfg);

} // namespace tb

#endif // TRAINBOX_TRAINBOX_FLEET_HH
