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
 *  - **per-attempt faults** queried synchronously by the training
 *    session (does this SSD read attempt fail? is this group's compute
 *    a straggler this step?);
 *  - **windowed faults** (SSD latency spike, prep-FPGA crash, Ethernet
 *    degradation, loss of a switch-local P2P route) generated as
 *    non-overlapping (per class) windows with exponential inter-arrival
 *    times by the shared WindowStream (sim/window_stream.hh) and played
 *    onto the EventQueue by arm().
 *
 * Recovery *policy* knobs (retry budgets, backoff, failover switches)
 * also live in FaultConfig so a whole scenario is one struct; the
 * policies themselves are implemented by the TrainingSession. See
 * docs/ROBUSTNESS.md.
 */

#ifndef TRAINBOX_SIM_FAULT_INJECTOR_HH
#define TRAINBOX_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"
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

    /** True when any class can strike. */
    bool any() const
    {
        return ssdBitFlipProb > 0.0 || pcieErrorProb > 0.0 ||
               fpgaUpsetProb > 0.0 || hostDramFlipProb > 0.0;
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

    /**
     * Verify-triggered re-reads of one chunk before it is quarantined
     * and replaced with fresh data (bounded so a hot corruption source
     * cannot livelock a chain; backoff reuses retryBackoffBase).
     */
    std::size_t maxIntegrityRecoveries = 3;

    // --- recovery policy --------------------------------------------

    /** First retry backoff; doubles per subsequent attempt. */
    Time retryBackoffBase = 50e-6;

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

/** Target-space sizes the injector picks victims from. */
struct FaultTargets
{
    std::size_t numSsds = 0;
    std::size_t numGroups = 0;
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
 * Draws every fault decision for one simulation run. Construct one per
 * session; per-attempt streams are consumed in simulation order, which
 * is itself deterministic, so runs reproduce exactly.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &cfg, const FaultTargets &targets);

    const FaultConfig &config() const { return cfg_; }

    /** Does the next SSD read attempt fail? (consumes the stream) */
    bool ssdReadAttemptFails();

    /**
     * Does a corruption of @p kind strike the hop being traversed?
     * Consumes the kind's stream (only when its probability is > 0, so
     * corruption-free scenarios are unperturbed) and counts strikes.
     */
    bool corruptionStrikes(CorruptionKind kind);

    /** Total corruptions injected so far, across all kinds. */
    std::size_t corruptionsInjected() const;

    /**
     * Compute-time multiplier for (group, step); 1.0 = healthy.
     * Pure hash of (seed, group, step) — order-independent.
     */
    double stragglerFactor(std::size_t group, std::size_t step) const;

    using FaultHandler = std::function<void(const FaultEvent &)>;

    /**
     * Play the windowed-fault schedule onto @p eq: @p onFault fires at
     * each window's start, @p onRepair at its end. Windows of one class
     * never overlap; the schedule is a pure function of (config,
     * targets) and is exactly what schedule() previews, shifted by the
     * clock reading at arm() time — a fleet job armed at t > 0 replays
     * the same job-relative schedule on its own offset timeline.
     */
    void arm(EventQueue &eq, FaultHandler onFault, FaultHandler onRepair);

    /**
     * Stop drawing windows: cancel each class's pending fault. Repairs
     * of windows already open still fire. Safe from inside @p onFault.
     */
    void disarm() { windows_.disarm(); }

    /**
     * Deterministically enumerate the windowed events in [0, horizon)
     * for a scenario, without an event queue — what arm() will play.
     */
    static std::vector<FaultEvent> schedule(const FaultConfig &cfg,
                                            const FaultTargets &targets,
                                            Time horizon);

    /** Windowed faults injected so far (after arm()). */
    std::size_t faultsInjected() const { return faultsInjected_; }

    /** SSD read-attempt failures injected so far. */
    std::size_t readFailuresInjected() const { return readFailures_; }

  private:
    FaultConfig cfg_;
    Rng readFailRng_;
    std::array<Rng, kNumCorruptionKinds> corruptionRngs_;
    std::array<std::size_t, kNumCorruptionKinds> corruptions_{};
    WindowStream windows_;
    FaultHandler onFault_;
    FaultHandler onRepair_;
    std::size_t faultsInjected_ = 0;
    std::size_t readFailures_ = 0;
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
