/**
 * @file
 * Deterministic fault injection for the server simulator.
 *
 * At 256 accelerators the interesting property of the clustered design
 * (§V) is not peak throughput but how gracefully it degrades: an SSD
 * that starts throwing read errors, a prep FPGA that dies, an Ethernet
 * link that drops to a fraction of line rate, an accelerator that
 * straggles. The injector turns a FaultConfig into a *reproducible*
 * stream of such events: every decision is drawn from seed-derived
 * tb::Rng streams, so two runs with the same config produce the same
 * fault schedule and the same degradation curve.
 *
 * Two kinds of faults are modeled:
 *
 *  - **per-attempt faults** drawn as a prep-chain stage finishes (does
 *    the SSD read fail? does a corruption strike a hop?) or a compute
 *    starts (is this group's step a straggler?);
 *  - **windowed faults** (SSD latency spike, prep-FPGA crash, Ethernet
 *    degradation, loss of a switch-local P2P route) generated as
 *    non-overlapping (per class) windows with exponential inter-arrival
 *    times by the shared WindowStream (sim/window_stream.hh) and played
 *    onto the EventQueue by arm().
 *
 * The injector also owns the recovery policy and its counters: for each
 * finished stage it decides whether the chain goes on, runs a stage
 * again after a delay, or restarts (bounded read retries, corruption
 * classification and verify-triggered re-reads, PCIe replay stalls);
 * it times each straggling compute under the step timeout, counts the
 * time with a fault window open, and fills FaultStats and
 * IntegrityStats. The TrainingSession applies the outcomes to its
 * chains, groups and devices. See docs/ROBUSTNESS.md.
 */

#ifndef TRAINBOX_SIM_FAULT_INJECTOR_HH
#define TRAINBOX_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "sim/window_stream.hh"

namespace tb {

/** Classes of windowed faults the injector can schedule. */
enum class FaultKind
{
    SsdDegrade,  ///< one SSD's read path slows (latency spike window)
    PrepCrash,   ///< one group's prep FPGA dies until repaired
    EthDegrade,  ///< the prep-pool Ethernet fabric loses capacity
    RouteLoss,   ///< one group loses its switch-local P2P route
    FatalCrash,  ///< whole-machine crash: rollback to last checkpoint
};

/** Display name of a fault kind ("ssd_degrade", ...). */
const char *faultKindName(FaultKind kind);

/**
 * Classes of silent data corruption on the sample path. Unlike the
 * windowed availability faults these are per-chunk, per-hop Bernoulli
 * draws made as each prep-chain stage completes: the P2P path
 * (SSD→FPGA→accelerator) never lands in host DRAM, so it bypasses the
 * host's ECC and the framework loader's software validation — a bit
 * flipped on an NVMe read, a PCIe hop, or inside a prep FPGA reaches
 * training silently unless a checksum stage catches it.
 */
enum class CorruptionKind
{
    SsdBitFlip = 0,    ///< NVMe media / controller flip on a chunk read
    PcieLinkError = 1, ///< PCIe lane error — LCRC detects, replay costs
    FpgaUpset = 2,     ///< logic upset inside a prep engine
    HostDramFlip = 3,  ///< DRAM flip on the host staging path (ECC'd)
};

/** Number of CorruptionKind values (array sizing). */
constexpr std::size_t kNumCorruptionKinds = 4;

/** Display name of a corruption kind ("ssd_bit_flip", ...). */
const char *corruptionKindName(CorruptionKind kind);

/** Bit for @p kind in a stage template's corruption-hop mask. */
constexpr unsigned
corruptionBit(CorruptionKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/**
 * Per-chunk corruption probabilities for each hop class. A probability
 * applies once per traversal of a hop of that class (a chunk crossing
 * two PCIe hops draws twice). PCIe link errors are always detected by
 * the link-level LCRC and cost a replay delay; host-DRAM flips are
 * always corrected by ECC; SSD and FPGA flips are *silent* — they
 * escape unless a downstream stage verifies the data.
 */
struct CorruptionConfig
{
    double ssdBitFlipProb = 0.0;
    double pcieErrorProb = 0.0;
    double fpgaUpsetProb = 0.0;
    double hostDramFlipProb = 0.0;

    /** The probability for one kind. */
    double probFor(CorruptionKind kind) const
    {
        switch (kind) {
          case CorruptionKind::SsdBitFlip:
            return ssdBitFlipProb;
          case CorruptionKind::PcieLinkError:
            return pcieErrorProb;
          case CorruptionKind::FpgaUpset:
            return fpgaUpsetProb;
          case CorruptionKind::HostDramFlip:
            return hostDramFlipProb;
        }
        return 0.0;
    }
};

/** One windowed-fault class: arrival rate, outage length, severity. */
struct FaultClassConfig
{
    /** Mean arrivals per simulated second (0 = class disabled). */
    double ratePerSec = 0.0;

    /** Length of each fault window in simulated seconds. */
    Time duration = 0.0;

    /**
     * Severity while the window is open. For capacity faults this is
     * the factor the resource capacity is scaled by (0.1 = 10% left);
     * unused for PrepCrash/RouteLoss which are binary.
     */
    double magnitude = 0.1;
};

/** Full fault-injection + recovery-policy scenario description. */
struct FaultConfig
{
    /** Master switch. When false the fault path costs nothing. */
    bool enabled = false;

    /** Seed for every injection stream (schedules are reproducible). */
    std::uint64_t seed = 0x7472626f78666c74ull;

    // --- per-attempt faults -----------------------------------------

    /** Probability one chunk's SSD read attempt returns bad data. */
    double ssdReadFailureProb = 0.0;

    /** Probability a group's compute straggles on a given step. */
    double stragglerProb = 0.0;

    /** Compute-time multiplier of a straggling step. */
    double stragglerFactor = 4.0;

    // --- windowed faults --------------------------------------------

    FaultClassConfig ssdDegrade;
    FaultClassConfig prepCrash;
    FaultClassConfig ethDegrade;
    FaultClassConfig routeLoss;

    /**
     * Whole-machine fatal crashes (training process dies, state is
     * lost). Point events: `duration` and `magnitude` are ignored and
     * the window machinery schedules an instantaneous fault+repair
     * pair. The mean time between failures is 1 / ratePerSec — the
     * MTBF the Young–Daly interval analysis consumes
     * (trainbox/checkpoint.hh). Recovery — rollback to the last
     * durable checkpoint, replay, restart latency — is implemented by
     * TrainingSession + Checkpointer.
     */
    FaultClassConfig fatalCrash;

    // --- data corruption --------------------------------------------

    /** Silent-corruption hop probabilities (all 0 = no corruption). */
    CorruptionConfig corruption;

    /**
     * Insert checksum generate/verify stages into every prep chain
     * (server_builder.cc). The checks cost modeled compute/bandwidth
     * even when no corruption strikes, so the integrity tax is itself
     * measurable; with them enabled every silent flip is caught at the
     * next verify stage instead of escaping into training.
     */
    bool integrityChecks = false;

    // --- recovery policy --------------------------------------------

    /**
     * Straggler-tolerant barrier: when a step's compute exceeds
     * stepTimeoutFactor x the nominal compute time, the group's chain
     * is re-dispatched (fresh compute from the timeout instant).
     * 0 disables the timeout (the barrier waits the straggler out).
     */
    double stepTimeoutFactor = 1.5;

    /** Fail a dead FPGA's load over to survivors / the prep-pool. */
    bool poolFailover = true;
};

/**
 * What a server's fault windows can strike. A class draws its victims
 * from its own targets only, and a class without targets opens no
 * window: a Baseline server has no prep FPGA, pool or P2P route.
 */
struct FaultTargets
{
    std::size_t numSsds = 0;
    std::vector<std::size_t> prepGroups;     ///< groups with a prep FPGA
    bool pool = false;                       ///< a prep pool exists
    std::vector<std::size_t> hostPathGroups; ///< groups with a host path
};

/** One scheduled windowed fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::SsdDegrade;

    /** Victim index (SSD index or prep-group index, per kind). */
    std::size_t target = 0;

    Time start = 0.0;
    Time duration = 0.0;
    double magnitude = 1.0;
};

/**
 * Fault-injection and recovery counters (all zero when disabled).
 * SessionResult::FaultStats is an alias.
 */
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

/**
 * Silent-corruption injection/detection counters (all zero when
 * corruption injection is disabled; SessionResult::IntegrityStats is
 * an alias). The accounting invariant is exact and panic-checked:
 * injected == detected + escaped. "Detected" covers link-level (PCIe
 * LCRC) and ECC catches, checksum-verify catches, and the baseline CPU
 * path's software validation; "escaped" flips reached training
 * silently.
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

/**
 * A prep chain's retry state for its current chunk. The chain owns it
 * and resets it when it restarts; FaultInjector::afterStage() updates
 * it.
 */
struct ChainRetryState
{
    std::size_t readAttempts = 0; ///< failed reads of the current chunk

    /**
     * Silent flips riding the chunk that a downstream verify stage will
     * catch (counted detected at draw time; this drives the re-read).
     */
    std::size_t pendingCorruptions = 0;

    std::size_t recoveries = 0; ///< verify-triggered re-reads
};

/** What a prep chain does once a stage finishes. */
struct ChainStep
{
    bool restart = false;  ///< drop the chunk; restart the chain
    std::size_t stage = 0; ///< otherwise run this stage...
    Time delay = 0.0;      ///< ...this long from now (0: at once)
};

/**
 * Draws every fault decision of one simulation run and applies the
 * recovery policy to it. Construct one per session; per-attempt streams
 * are consumed in simulation order, which is itself deterministic, so
 * runs reproduce exactly.
 */
class FaultInjector
{
  public:
    /**
     * @param trace optional Chrome-trace writer for the fault windows
     *              and the recovery instants (borrowed; same contract
     *              as TrainingSession::setTrace)
     */
    FaultInjector(const FaultConfig &cfg, const FaultTargets &targets,
                  TraceWriter *trace = nullptr);

    /**
     * The recovery policy, run as stage @p idx of a prep chain
     * finishes; returns what the chain does next. @p stages is the
     * chain's template (elements with `corruptionHops` and
     * `verifiesIntegrity`), @p read marks the chunk's SSD read, and
     * @p track is the chain's trace track.
     *
     *  - A failed read runs again after a bounded backoff; once that
     *    budget is spent the chunk is abandoned and the chain restarts
     *    on fresh data (another replica of the sharded dataset).
     *  - Each corruption class tagged on the stage draws once. PCIe
     *    errors are caught by the link LCRC and stall the next stage
     *    for a replay each; ECC corrects host-DRAM flips; SSD and FPGA
     *    flips are detected when this or a later stage verifies the
     *    data and escape otherwise. Classifying at draw time keeps
     *    injected == detected + escaped exact.
     *  - A verifying stage that finds detected flips pending re-reads
     *    the chunk from stage 0 under the same bounded backoff, then
     *    quarantines it and restarts the chain.
     */
    template <class Stage>
    ChainStep afterStage(ChainRetryState &chain,
                         const std::vector<Stage> &stages, std::size_t idx,
                         bool read, const std::string &track)
    {
        bool verified = false; // does this stage or a later one verify?
        for (std::size_t i = idx; i < stages.size() && !verified; ++i)
            verified = stages[i].verifiesIntegrity;
        return afterStage(chain, idx, read, stages[idx].corruptionHops,
                          stages[idx].verifiesIntegrity, verified, track);
    }

    /**
     * How long group @p group's compute of step @p step runs, nominally
     * @p nominal. A straggling step (a pure hash of seed, group and
     * step) runs stragglerFactor times longer, unless the step timeout
     * aborts it first and re-dispatches a fresh compute: then it costs
     * the timeout plus one nominal compute. Traced on @p track.
     */
    Time computeTime(std::size_t group, std::size_t step, Time nominal,
                     const std::string &track);

    /**
     * A prep FPGA crashed: does its load fail over to the survivors
     * and the prep pool (FaultConfig::poolFailover)? Counts failovers.
     */
    bool failover();

    using FaultHandler = std::function<void(const FaultEvent &)>;

    /**
     * Play the windowed-fault schedule onto @p eq: @p onFault fires at
     * each window's start, @p onRepair at its end. Windows of one class
     * never overlap; the schedule is a pure function of (config,
     * targets) and is exactly what schedule() previews, shifted by the
     * clock reading at arm() time — a fleet job armed at t > 0 replays
     * the same job-relative schedule on its own offset timeline. The
     * wall time with at least one window open is counted once however
     * many windows overlap.
     */
    void arm(EventQueue &eq, FaultHandler onFault, FaultHandler onRepair);

    /**
     * Stop drawing windows: cancel each class's pending fault. Repairs
     * of windows already open still fire. Safe from inside @p onFault.
     */
    void disarm() { windows_.disarm(); }

    /**
     * Stop for good: disarm, close the windows still open at the
     * current time (their repairs then do nothing), and panic unless
     * injected == detected + escaped.
     */
    void stop();

    /** The fault counters; final once stop() has run. */
    const FaultStats &stats() const { return stats_; }

    /** The corruption counters; final once stop() has run. */
    const IntegrityStats &integrity() const { return integrity_; }

    /**
     * Deterministically enumerate the windowed events in [0, horizon)
     * for a scenario, without an event queue — what arm() will play.
     */
    static std::vector<FaultEvent> schedule(const FaultConfig &cfg,
                                            const FaultTargets &targets,
                                            Time horizon);

  private:
    /** A bounded retry: its budget, counters and trace names. */
    struct Retry;

    ChainStep afterStage(ChainRetryState &chain, std::size_t idx,
                         bool read, unsigned hops, bool verifies,
                         bool verified, const std::string &track);
    ChainStep retry(const Retry &rule, std::size_t &attempts,
                    std::size_t stage, const std::string &track);
    void instant(const std::string &track, const char *name) const;

    FaultConfig cfg_;
    FaultTargets targets_;
    TraceWriter *trace_;
    EventQueue *eq_ = nullptr; ///< set by arm()
    Rng readFailRng_;
    std::array<Rng, kNumCorruptionKinds> corruptionRngs_;
    WindowStream windows_;
    FaultHandler onFault_;
    FaultHandler onRepair_;
    FaultStats stats_;
    IntegrityStats integrity_;
    std::size_t openWindows_ = 0;
    Time degradedStart_ = 0.0;
    bool stopped_ = false; ///< stop() ran; repairs do nothing
};

// --- fleet-level faults -------------------------------------------------
//
// The classes above strike *inside* one training server; the fleet layer
// (trainbox/fleet.hh) additionally models failures of the hosts the
// servers run on and of the shared prep-pool fabric between them. The
// same determinism rules apply: a FleetFaultConfig is a pure description,
// FleetFaultInjector::schedule() enumerates the exact windows arm() will
// play, and same-seed runs reproduce bit-for-bit.

/** Classes of fleet-level faults. */
enum class FleetFaultKind
{
    HostOutage,    ///< a whole host dies; every co-resident job is killed
    BoxLoss,       ///< a host loses train-box slots for a window
    PoolPartition, ///< pool fabric partition fences free shared-pool FPGAs
};

/** Display name of a fleet fault kind ("host_outage", ...). */
const char *fleetFaultKindName(FleetFaultKind kind);

/** One windowed fleet-fault class, parameterized MTBF/MTTR style. */
struct FleetFaultClassConfig
{
    /**
     * Mean time between failures *per target* in simulated seconds
     * (0 = class disabled). Host classes draw a uniform victim, so the
     * aggregate arrival rate is numHosts / mtbf.
     */
    double mtbf = 0.0;

    /** Mean time to repair: the deterministic outage window length. */
    Time mttr = 0.0;
};

/** One scheduled (or scripted) fleet-level fault window. */
struct FleetFaultEvent
{
    FleetFaultKind kind = FleetFaultKind::HostOutage;

    /** Victim host index (ignored for PoolPartition). */
    std::size_t host = 0;

    Time start = 0.0;
    Time duration = 0.0;

    /** Severity: boxes lost (BoxLoss) / pool FPGAs fenced (PoolPartition). */
    std::size_t units = 1;
};

/**
 * Fleet-level fault scenario + the re-admission policy the fleet applies
 * to jobs those faults kill. Random streams need a finite
 * FleetConfig::horizon (they are pre-enumerated over it); the scripted
 * schedule works on unbounded runs too.
 */
struct FleetFaultConfig
{
    /** Master switch. When false the fleet schedules zero fault events. */
    bool enabled = false;

    /** Seed for the windowed streams (schedules are reproducible). */
    std::uint64_t seed = 0x666c656574666c74ull;

    // --- seeded windowed classes ------------------------------------

    FleetFaultClassConfig hostOutage;
    FleetFaultClassConfig boxLoss;
    FleetFaultClassConfig poolPartition;

    /** Boxes lost per seeded BoxLoss window. */
    std::size_t boxLossUnits = 1;

    /** Free-pool FPGAs fenced per seeded PoolPartition window. */
    std::size_t poolPartitionFpgas = 1;

    // --- scripted windows -------------------------------------------

    /** Hand-written fault windows (must be sorted by start time). */
    std::vector<FleetFaultEvent> schedule;

    // --- re-admission policy ----------------------------------------

    /** Re-admissions allowed per job before it is abandoned. */
    std::size_t maxRetries = 3;

    /** Backoff before the first re-admission attempt. */
    Time retryBackoffBase = 0.05;

    /** Backoff multiplier per subsequent failure (>= 1). */
    double retryBackoffFactor = 2.0;
};

/**
 * Plays a FleetFaultConfig onto the fleet's event queue. Unlike the
 * per-session FaultInjector the whole schedule is pre-enumerated (fleet
 * runs are horizon-bounded when random streams are active), so handlers
 * additionally receive the event's index into schedule() — the fleet
 * uses it to pair each repair with exactly the severity its fault
 * actually applied (clamped box counts, partial pool fences).
 */
class FleetFaultInjector
{
  public:
    FleetFaultInjector(const FleetFaultConfig &cfg, std::size_t numHosts,
                       Time horizon);

    using Handler =
        std::function<void(const FleetFaultEvent &, std::size_t idx)>;

    /**
     * Schedule every fault/repair pair onto @p eq, offset by the clock
     * reading at arm() time. @p onFault fires at each window's start,
     * @p onRepair at its end (repairs of zero-length windows fire in
     * schedule order after the fault).
     */
    void arm(EventQueue &eq, Handler onFault, Handler onRepair);

    /** The pre-enumerated schedule arm() plays. */
    const std::vector<FleetFaultEvent> &events() const { return events_; }

    /** Fleet faults injected so far (after arm()). */
    std::size_t faultsInjected() const { return faultsInjected_; }

    /**
     * Deterministically enumerate the fleet-fault windows in
     * [0, horizon): the scripted schedule merged with the seeded
     * exponential streams (per-class windows never overlap), sorted by
     * start time with scripted-before-seeded tie-breaking.
     */
    static std::vector<FleetFaultEvent>
    schedule(const FleetFaultConfig &cfg, std::size_t numHosts,
             Time horizon);

  private:
    std::vector<FleetFaultEvent> events_;
    Handler onFault_;
    Handler onRepair_;
    std::size_t faultsInjected_ = 0;
};

} // namespace tb

#endif // TRAINBOX_SIM_FAULT_INJECTOR_HH
