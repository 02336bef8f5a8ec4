/**
 * @file
 * Fluid-flow contention engine.
 *
 * Every shared hardware resource in the simulated server — a PCIe link
 * direction, the root complex, host DRAM bandwidth, the CPU core pool, an
 * SSD's read path, an FPGA prep pipeline, an Ethernet link — is a
 * FluidResource with a capacity in units/second. Work moves through the
 * system as fluid flows: a flow has a size in *base units* (bytes for a DMA,
 * samples for a prep task) and a set of per-resource demand weights (units
 * of that resource consumed per base unit served). A DMA that crosses three
 * PCIe links and writes host memory is one flow with four demands.
 *
 * At any instant the engine assigns each active flow a base rate via
 * progressive filling (weighted max-min fairness with optional per-flow
 * rate caps — a prep task cannot exceed its parallelism, a device port
 * cannot exceed its line rate). Rates are piecewise constant between flow
 * arrivals/departures, so progress has a closed form: a flow stores
 * (r0, t0, rate) and remaining(t) = r0 - min(r0, rate * (t - t0)). A flow
 * is rebased (accounting charged, r0 and t0 moved to now) only when a
 * re-solve changes its rate bitwise. Finish times live in an indexed
 * min-heap, and exactly one completion event stays pending in the
 * EventQueue.
 *
 * The solver is *incremental*: progressive filling is run per connected
 * component of the flow/resource sharing graph, and a mutation (flow
 * start/cancel/completion, capacity change) only re-solves the components
 * it touched. Clean components keep their cached rates, which are exactly
 * what a fresh solve would produce — max-min allocations are independent
 * across components and the solve never reads progress (the rebase
 * invariant; see docs/PERFORMANCE.md). An event therefore costs only the
 * flows of the components it re-solves, times log n for the heaps.
 * FullResolve mode re-solves every component on every mutation and is the
 * reference the equivalence tests pin against.
 *
 * The engine also performs per-category accounting on every resource
 * (bytes moved for "data_load" vs "formatting" vs ...), which is what the
 * host-resource figures of the paper (Figs 10/11/22) are built from.
 */

#ifndef TRAINBOX_FLUID_FLUID_HH
#define TRAINBOX_FLUID_FLUID_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace tb {

class MetricsRegistry;
class MetricCounter;
class MetricGauge;
class TimeWeightedHistogram;

/**
 * A capacity-limited shared resource (link, memory, core pool, ...).
 * Only FluidNetwork::addResource() makes one.
 */
class FluidResource
{
  public:
    const std::string &name() const { return name_; }
    Rate capacity() const { return capacity_; }

    /** Dense creation index in the owning network (0, 1, 2, ...). */
    std::uint32_t index() const { return index_; }

    /**
     * Change capacity (e.g., Gen3 -> Gen4 sweep); caller must notify the
     * network via capacityChanged(this). Zero is legal — active flows
     * demanding a zero-capacity resource are parked at rate 0 (no
     * divide-by-zero, no NaN rates) until a later setCapacity +
     * capacityChanged restores them. Negative or non-finite panics.
     */
    void setCapacity(Rate capacity);

    /**
     * Total units served through this resource so far. In-flight flows
     * are charged when they are rebased, complete or are cancelled, and
     * when FluidNetwork::settleAccounting() covers this resource.
     */
    double totalServed() const { return totalServed_; }

    /** Units served per accounting category. */
    const std::map<std::string, double> &servedByCategory() const;

    /** Served units for one category (0 when absent). */
    double served(const std::string &category) const;

    /**
     * Time-average utilization in [0, 1] over the window since the last
     * resetAccounting(), given the current simulation time.
     */
    double utilization(Time now) const;

    /** Clear accounting counters and restart the utilization window. */
    void resetAccounting(Time now);

    /**
     * Time-weighted utilization history recorded by the network's
     * metrics instrumentation (nullptr when metrics are disabled).
     */
    const TimeWeightedHistogram *utilizationHistory() const
    {
        return utilHist_;
    }

  private:
    friend class FluidNetwork;

    FluidResource(std::string name, Rate capacity, std::uint32_t index);

    /** Charge @p units to the interned category @p category. */
    void
    account(std::uint32_t category, double units)
    {
        totalServed_ += units;
        if (category >= served_.size())
            served_.resize(category + 1, 0.0);
        served_[category] += units;
    }

    std::string name_;
    Rate capacity_;
    double totalServed_ = 0.0;
    /** Served units by interned category id (0 = never charged). */
    std::vector<double> served_;
    /** The owning network's category names, indexed by id. */
    const std::vector<std::string> *categoryNames_ = nullptr;
    /** servedByCategory()'s view, rebuilt on each call. */
    mutable std::map<std::string, double> servedView_;
    Time windowStart_ = 0.0;

    // scratch space for the allocator
    double allocScratch_ = 0.0;
    double weightScratch_ = 0.0;
    bool saturated_ = false;

    // incremental-solver state
    bool dirty_ = false;     ///< queued in the network's dirty set
    std::uint32_t index_;    ///< see index(); fills the padding
    std::uint64_t mark_ = 0; ///< component BFS visit epoch
    /** Flows demanding this resource, as (flow slot, demand index). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> members_;

    // metrics instrumentation (inert while metrics are disabled)
    double util_ = 0.0;     ///< utilization since utilSince_
    Time utilSince_ = 0.0;  ///< start of the unrecorded interval
    TimeWeightedHistogram *utilHist_ = nullptr;
};

/** One resource consumed by a flow: @p weight units per base unit. */
struct FlowDemand
{
    FluidResource *resource;
    double weight;
};

/**
 * Handle of a started flow: its start sequence number (1, 2, ...) above
 * the low FluidNetwork::kSlotBits, which hold its storage slot. Handles
 * therefore compare in start order and find their flow without a table;
 * 0 is no flow, and the handle of a finished or cancelled flow finds
 * nothing, even once a newer flow reuses its slot.
 */
using FlowId = std::uint64_t;

/** A category id no network hands out (FlowSpec's default). */
inline constexpr std::uint32_t kNoCategory = ~std::uint32_t{0};

/** Everything needed to launch a flow. */
struct FlowSpec
{
    /**
     * Accounting category (e.g., "formatting", "data_load"), as the id
     * FluidNetwork::internCategory() returned for its name.
     */
    std::uint32_t category = kNoCategory;

    /** Total size in base units. */
    double size = 0.0;

    /** Maximum base rate (0 = uncapped). */
    double rateCap = 0.0;

    /**
     * Fair-share weight: under contention flows receive base rates
     * proportional to this weight (progressive filling raises rate by
     * weight * t). Use it to model processor-time fairness: a CPU task
     * costing c core-seconds per sample with fairWeight 1/c receives the
     * same core-time as its peers, so its wall time scales with its
     * work, as an OS scheduler would arrange.
     */
    double fairWeight = 1.0;

    /**
     * Resources consumed while the flow runs. startFlow() copies them,
     * so the viewed storage need only outlive that call.
     */
    std::span<const FlowDemand> demands;

    /** Invoked (once) at completion time. */
    std::function<void(Time)> onComplete;
};

/**
 * Solver-internal per-flow state (one storage slot); not part of the
 * public API.
 *
 * Progress is closed-form: the flow had r0 base units left at t0 and has
 * run at `rate` since, so served(t) = min(r0, rate * (t - t0)). `charged`
 * is the part of served(t) already charged to the resources' accounting.
 */
struct FluidFlow
{
    FlowId id = 0; ///< the flow's handle; 0 while the slot is free
    std::uint32_t category = 0; ///< interned accounting category
    double r0 = 0.0;
    Time t0 = 0.0;
    double rate = 0.0;
    double charged = 0.0;
    double rateCap = 0.0;
    double fairWeight = 1.0;
    bool empty = false; ///< started with size 0: never gets a rate
    /** Copied from FlowSpec::demands; kept with the slot for reuse. */
    std::vector<FlowDemand> demands;
    std::function<void(Time)> onComplete;

    // allocator scratch
    double fill = 0.0; ///< rate being computed by the current solve
    bool frozen = false;

    /** Slot of demand i in demands[i].resource->members_. */
    std::vector<std::uint32_t> memberSlot;
    std::uint64_t mark = 0; ///< component BFS visit epoch

    double served(Time now) const { return std::min(r0, rate * (now - t0)); }
    double remaining(Time now) const { return r0 - served(now); }
};

/**
 * Binary min-heap of (key, slot) pairs that knows where each slot sits,
 * so a slot's key can be changed or removed in O(log n).
 */
class SlotHeap
{
  public:
    /** Insert @p slot with @p key, or move it to @p key. */
    void set(std::uint32_t slot, double key);

    /** Remove @p slot (no-op when absent). */
    void erase(std::uint32_t slot);

    bool empty() const { return nodes_.empty(); }

    /** Smallest key; the heap must not be empty. */
    double topKey() const { return nodes_.front().key; }

    /** Call @p fn(slot) for every slot whose key is <= @p bound. */
    template <typename Fn>
    void
    forEachAtMost(double bound, Fn &&fn, std::size_t i = 0) const
    {
        if (i >= nodes_.size() || nodes_[i].key > bound)
            return;
        fn(nodes_[i].slot);
        forEachAtMost(bound, fn, 2 * i + 1);
        forEachAtMost(bound, fn, 2 * i + 2);
    }

  private:
    struct Node
    {
        double key;
        std::uint32_t slot;
    };

    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

    void place(std::size_t i, Node node);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> pos_; ///< slot -> index in nodes_
};

/**
 * Accumulates (resource, weight) pairs into one flow's demands, merging
 * duplicates — convenient when a flow's route shares links with other
 * parts of its path (e.g., reads spread over many SSDs behind common
 * switches). A flat table keyed by FluidResource::index() minus the
 * set's first index, so every resource added must come from one network
 * and lie at or past that index: a server built onto a shared network
 * keys only its own resources. A duplicate's weights sum in add order,
 * and demands come out in the order their resources were first added,
 * so a template's demand order follows its construction, never the
 * allocator.
 */
class DemandSet
{
  public:
    /** A set for resources whose index() is at least @p firstIndex. */
    explicit DemandSet(std::uint32_t firstIndex = 0) : first_(firstIndex) {}

    /**
     * Add @p weight on @p resource (summed onto an earlier add of the
     * same resource). A non-positive weight adds nothing.
     */
    void add(FluidResource *resource, double weight);

    /**
     * The merged demands in first-add order, as an exact-size vector.
     * Leaves the set empty, ready for the next flow.
     */
    std::vector<FlowDemand> build();

  private:
    std::uint32_t first_;
    std::vector<FlowDemand> demands_; ///< first-add order
    /** index() - first_ -> 1 + its position in demands_ (0 = absent). */
    std::vector<std::uint32_t> pos_;
};

/**
 * The contention engine. Owns resources, runs flows, and keeps the
 * completion event in the EventQueue up to date.
 */
class FluidNetwork
{
  public:
    /**
     * Solver strategy. Incremental (the default) re-solves only the
     * connected components touched since the last solve; FullResolve
     * re-solves every component on every mutation. Both run the same
     * per-component progressive filling, and a re-solve of a clean
     * component reproduces its rates bitwise (so it rebases nothing),
     * which makes the two bit-identical — FullResolve exists as the
     * reference for the equivalence tests, whose whole-run pins also
     * count each mode's solver work.
     */
    enum class SolverMode
    {
        Incremental,
        FullResolve,
    };

    /** Cumulative solver work counters (monotonic; for bench/tests). */
    struct SolverStats
    {
        std::uint64_t solves = 0; ///< solve passes that re-solved work
        std::uint64_t fullSolves = 0; ///< passes forced by FullResolve
        std::uint64_t componentsSolved = 0;
        std::uint64_t flowsSolved = 0; ///< sum of solved component sizes
        std::uint64_t flowsRebased = 0; ///< rate changes (charge + re-anchor)
        std::uint64_t heapUpdates = 0; ///< finish/due heap insert/move/erase
    };

    /**
     * RAII batch scope: while at least one FlowBatch is alive, startFlow
     * and cancelFlow defer the rate solve and completion (re)scheduling;
     * the dirty set accumulates and is solved once when the outermost
     * batch ends. Launching k flows at one timestamp costs one solve
     * instead of k. Every completion event runs its callbacks inside
     * one batch, so the stages they start share the event's one solve.
     *
     * Rates and the completion event are stale inside the scope:
     * flowRate() panics there, and the EventQueue must not be stepped.
     * A completion callback that needs a new rate schedules an event at
     * now, which runs after the batch closes. flowRemaining() stays
     * exact, because the old rates held up to now. Rates are
     * bit-identical to unbatched calls because component solves are
     * from-scratch (see docs/PERFORMANCE.md); a flow whose rate the
     * unbatched calls change and change back is simply not re-anchored,
     * so its progress may differ in the last ulp.
     */
    class FlowBatch
    {
      public:
        explicit FlowBatch(FluidNetwork &net) : net_(net)
        {
            net_.beginBatch();
        }
        ~FlowBatch() { net_.endBatch(); }

        FlowBatch(const FlowBatch &) = delete;
        FlowBatch &operator=(const FlowBatch &) = delete;

      private:
        FluidNetwork &net_;
    };

    explicit FluidNetwork(EventQueue &eq);
    ~FluidNetwork();

    FluidNetwork(const FluidNetwork &) = delete;
    FluidNetwork &operator=(const FluidNetwork &) = delete;

    /**
     * Create a resource owned by the network. The current name prefix
     * (see setNamePrefix) is prepended to @p name, so component builders
     * stay prefix-oblivious while multiple sessions share one network.
     */
    FluidResource *addResource(const std::string &name, Rate capacity);

    /**
     * Namespace prefix prepended to every subsequently added resource
     * name ("job0." while building that job's server, "" afterwards).
     * Per-session namespacing keeps name lookups and the "util.<name>"
     * metric space collision-free when N servers share one network;
     * the dirty-set solver is unaffected (components are discovered
     * structurally, not by name).
     */
    void setNamePrefix(std::string prefix) { namePrefix_ = std::move(prefix); }

    /** All resources, in creation order. */
    const std::vector<std::unique_ptr<FluidResource>> &resources() const
    {
        return resources_;
    }

    /**
     * The id of accounting category @p name, interned on first use.
     * Intern every name before its flows start: startFlow() takes ids
     * only, so no flow start hashes a name.
     */
    std::uint32_t internCategory(const std::string &name);

    /**
     * Launch a flow. Completion fires through the EventQueue. A flow of
     * size 0 completes via an immediate event.
     */
    FlowId startFlow(FlowSpec spec);

    /** Abort a flow without firing its completion callback. */
    void cancelFlow(FlowId id);

    /**
     * Current allocated base rate of a flow (0 when unknown/starved).
     * Panics while a FlowBatch is open, completion callbacks included.
     */
    double flowRate(FlowId id) const;

    /** Remaining base units of a flow (0 when unknown). */
    double flowRemaining(FlowId id) const;

    /** Number of in-flight flows. */
    std::size_t numActive() const
    {
        return slots_.size() - freeSlots_.size();
    }

    /** Low bits of a FlowId that hold the flow's slot. */
    static constexpr unsigned kSlotBits = 24;

    /**
     * Notify the network that one resource's capacity changed. Only the
     * component containing @p resource is re-solved (in Incremental
     * mode); several changes inside one FlowBatch cost one solve.
     */
    void capacityChanged(FluidResource *resource);

    /** Select the solver strategy (takes effect at the next solve). */
    void setSolverMode(SolverMode mode) { mode_ = mode; }
    SolverMode solverMode() const { return mode_; }

    /** Cumulative solver work counters. */
    const SolverStats &solverStats() const { return stats_; }

    /**
     * Reset accounting on all resources (and, when metrics are
     * attached, their utilization histories — the metrics window is
     * the accounting window).
     */
    void resetAccounting();

    /**
     * Reset accounting on the creation-order index range
     * [begin, end) only — one session's slice of a shared network.
     * A session opening its measurement window must not clear the
     * served totals of co-resident sessions; a standalone server's
     * range covers every resource, making this identical to the
     * global reset.
     */
    void resetAccounting(std::size_t begin, std::size_t end);

    /**
     * Charge every in-flight flow that touches a resource in
     * [begin, end) for its progress up to now, so that range's served
     * totals are exact at the current time. Only accounting moves:
     * rates, finish times and every later event are unaffected.
     */
    void settleAccounting(std::size_t begin, std::size_t end);

    /**
     * Attach a metrics registry. When the registry is enabled, the
     * network keeps one time-weighted utilization histogram per
     * resource ("util.<resource>") — rates are piecewise constant
     * between flow events, so every interval between two load changes
     * of a resource becomes one exact histogram sample — plus flow
     * lifecycle counters. A disabled registry (or nullptr) leaves the
     * network exactly on the uninstrumented path, and attaching the
     * registry already attached is a no-op. Attach before flows start.
     */
    void attachMetrics(MetricsRegistry *metrics);

    /**
     * Record utilization histories up to the current time. Touches no
     * accounting, and is a no-op when metrics are not attached.
     */
    void flushMetrics();

  private:
    /** Solve + reschedule, unless inside a FlowBatch. */
    void afterMutation();
    void beginBatch() { ++batchDepth_; }
    void endBatch();

    /** Re-solve each component holding a dirty flow or resource. */
    void solveDirty();
    /**
     * Gather @p seed's component into compFlows_ (sorted by id) and
     * compRes_, solve it and rebase the flows whose rate changed. The
     * caller checks that pass @p mark has not reached @p seed yet.
     */
    void solveFrom(FluidFlow &seed, std::uint64_t mark);
    /** Progressive filling over compFlows_ and compRes_. */
    void solveComponent();

    void scheduleCompletion();
    void completeEarliest();
    void instrumentResource(FluidResource *r);

    /** Charge @p flow's uncharged progress up to @p now. */
    void settle(FluidFlow &flow, Time now);
    /** Settle, then re-anchor (r0, t0) at @p now with @p rate. */
    void rebase(FluidFlow &flow, Time now, double rate);
    /** Recompute @p flow's finish and due keys in both heaps. */
    void updateHeaps(FluidFlow &flow);
    /** Unlink a finished or cancelled flow and free its slot. */
    void removeFlow(FluidFlow &flow);
    /** Record @p r's utilization if its load or capacity changed. */
    void refreshUtil(FluidResource &r);

    std::uint32_t slotOf(const FluidFlow &flow) const
    {
        return static_cast<std::uint32_t>(&flow - slots_.data());
    }

    static std::uint32_t
    slotOf(FlowId id)
    {
        return static_cast<std::uint32_t>(id & ((FlowId{1} << kSlotBits) - 1));
    }

    /** The live flow @p id names, or nullptr when it is stale or 0. */
    const FluidFlow *findFlow(FlowId id) const;

    /** Register/unregister a flow in its resources' member lists. */
    void addMembership(FluidFlow &flow);
    void removeMembership(FluidFlow &flow);

    void
    markDirty(FluidResource *r)
    {
        if (!r->dirty_) {
            r->dirty_ = true;
            dirtyResources_.push_back(r);
        }
    }

    /** Mark a flow and all resources it touches dirty. */
    void
    markFlowDirty(FluidFlow &flow)
    {
        for (const auto &d : flow.demands)
            markDirty(d.resource);
        dirtyFlows_.push_back(flow.id);
    }

    EventQueue &eq_;
    std::vector<std::unique_ptr<FluidResource>> resources_;
    std::string namePrefix_;
    std::uint64_t nextSeq_ = 1; ///< start sequence of the next flow
    EventId pending_{};

    /** Flow storage; free slots are recycled (see freeSlots_). */
    std::vector<FluidFlow> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** Finish time t0 + r0/rate per flow: the pending event's time. */
    SlotHeap finish_;
    /**
     * Earliest time each flow can pass the completion test (a safe
     * lower bound): completeEarliest() walks this heap, not all flows.
     */
    SlotHeap due_;

    std::unordered_map<std::string, std::uint32_t> categoryIds_;
    std::vector<std::string> categoryNames_;

    SolverMode mode_ = SolverMode::Incremental;
    SolverStats stats_;
    unsigned batchDepth_ = 0;
    std::uint64_t mark_ = 0; ///< BFS epoch source

    /** Resources touched since the last solve (dirty_ flag set). */
    std::vector<FluidResource *> dirtyResources_;
    /**
     * Flows touched since the last solve. A stale handle finds a flow
     * started and cancelled within one batch (its slot freed or reused).
     * Also covers demandless (cap-only) flows, which no resource member
     * list reaches.
     */
    std::vector<FlowId> dirtyFlows_;

    // reusable solver scratch (cleared per solve; avoids per-event
    // allocation in the hot path)
    std::vector<FluidFlow *> affected_; ///< FullResolve's seeds
    std::vector<FluidFlow *> compFlows_;
    std::vector<FluidResource *> compRes_;
    std::vector<FluidFlow *> doneFlows_;
    std::vector<std::function<void(Time)>> doneCallbacks_;

    // metrics instrumentation (all nullptr when metrics are disabled)
    MetricsRegistry *metrics_ = nullptr;
    MetricCounter *flowsStartedCtr_ = nullptr;
    MetricCounter *flowsCompletedCtr_ = nullptr;
    MetricCounter *flowsCancelledCtr_ = nullptr;
    MetricGauge *activeFlowsGauge_ = nullptr;
};

} // namespace tb

#endif // TRAINBOX_FLUID_FLUID_HH
