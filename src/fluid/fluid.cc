#include "fluid/fluid.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "sim/metrics.hh"

namespace tb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Completion test tolerance: done once remaining <= kDoneTol * scale. */
constexpr double kDoneTol = 1e-9;

/** Flow-id order: every order-sensitive loop runs in it. */
bool
byId(const FluidFlow *a, const FluidFlow *b)
{
    return a->id < b->id;
}

/** The completion test completeEarliest() applies to every flow. */
bool
isDone(double remaining, double rate)
{
    return remaining <= kDoneTol * std::max(1.0, remaining + rate);
}

/** Time at which @p flow finishes at its current rate (+inf if never). */
double
finishKey(const FluidFlow &flow)
{
    if (flow.r0 <= 0.0)
        return flow.t0;
    if (flow.rate <= 0.0)
        return kInf;
    return flow.t0 + flow.r0 / flow.rate;
}

/**
 * A lower bound on the earliest time @p flow can pass isDone(). Passing
 * needs remaining <= E := kDoneTol * (1 + rate) / (1 - kDoneTol), i.e.
 * t >= t0 + (r0 - E) / rate; the key subtracts a second E / rate, which
 * dwarfs the rounding of both this key and remaining(t). So a flow that
 * passes at time T has a key <= T (1 + 1e-12), the bound
 * completeEarliest() walks to — for any rate, however small.
 */
double
dueKey(const FluidFlow &flow)
{
    if (isDone(flow.r0, flow.rate))
        return -kInf;
    if (flow.rate <= 0.0)
        return kInf;
    const double tol = 2.0 * kDoneTol * (1.0 + flow.rate) / (1.0 - kDoneTol);
    return flow.t0 + (flow.r0 - tol) / flow.rate;
}

} // namespace

FluidResource::FluidResource(std::string name, Rate capacity,
                             std::uint32_t index)
    : name_(std::move(name)), capacity_(capacity), index_(index)
{
    panic_if(capacity <= 0.0, "resource %s with non-positive capacity %g",
             name_.c_str(), capacity);
}

const std::map<std::string, double> &
FluidResource::servedByCategory() const
{
    servedView_.clear();
    for (std::size_t c = 0; c < served_.size(); ++c)
        if (served_[c] != 0.0)
            servedView_.emplace((*categoryNames_)[c], served_[c]);
    return servedView_;
}

double
FluidResource::served(const std::string &category) const
{
    for (std::size_t c = 0; c < served_.size(); ++c)
        if ((*categoryNames_)[c] == category)
            return served_[c];
    return 0.0;
}

double
FluidResource::utilization(Time now) const
{
    const double window = now - windowStart_;
    if (window <= 0.0 || capacity_ <= 0.0)
        return 0.0;
    return totalServed_ / (capacity_ * window);
}

void
FluidResource::resetAccounting(Time now)
{
    totalServed_ = 0.0;
    std::fill(served_.begin(), served_.end(), 0.0);
    windowStart_ = now;
}

void
DemandSet::add(FluidResource *resource, double weight)
{
    panic_if(resource == nullptr, "DemandSet::add null resource");
    panic_if(resource->index() < first_,
             "DemandSet from index %u given %s at index %u", first_,
             resource->name().c_str(), resource->index());
    if (weight <= 0.0)
        return;
    const std::uint32_t i = resource->index() - first_;
    if (i >= pos_.size())
        pos_.resize(i + 1, 0);
    if (pos_[i] == 0) {
        demands_.push_back({resource, weight});
        pos_[i] = static_cast<std::uint32_t>(demands_.size());
        return;
    }
    FlowDemand &d = demands_[pos_[i] - 1];
    panic_if(d.resource != resource,
             "DemandSet mixes resources of two networks (%s, %s)",
             d.resource->name().c_str(), resource->name().c_str());
    d.weight += weight;
}

std::vector<FlowDemand>
DemandSet::build()
{
    std::vector<FlowDemand> out(demands_.begin(), demands_.end());
    for (const FlowDemand &d : demands_)
        pos_[d.resource->index() - first_] = 0;
    demands_.clear();
    return out;
}

FluidNetwork::FluidNetwork(EventQueue &eq) : eq_(eq) {}

FluidNetwork::~FluidNetwork()
{
    eq_.cancel(pending_);
}

FluidResource *
FluidNetwork::addResource(const std::string &name, Rate capacity)
{
    resources_.push_back(std::unique_ptr<FluidResource>(new FluidResource(
        namePrefix_ + name, capacity,
        static_cast<std::uint32_t>(resources_.size()))));
    FluidResource *r = resources_.back().get();
    r->categoryNames_ = &categoryNames_;
    if (metrics_)
        instrumentResource(r);
    return r;
}

void
FluidNetwork::instrumentResource(FluidResource *r)
{
    r->utilHist_ = metrics_->histogram(
        "util." + r->name(), "time-weighted utilization of " + r->name());
    r->utilSince_ = eq_.now();
}

void
FluidNetwork::attachMetrics(MetricsRegistry *metrics)
{
    // Each server on a shared core attaches it again: re-instrumenting
    // would drop every resource's open utilization interval.
    if (metrics == nullptr || !metrics->enabled() || metrics == metrics_)
        return;
    metrics_ = metrics;
    for (auto &r : resources_)
        instrumentResource(r.get());
}

void
FluidNetwork::flushMetrics()
{
    if (!metrics_)
        return;
    const Time now = eq_.now();
    for (auto &r : resources_) {
        if (now > r->utilSince_)
            r->utilHist_->record(r->util_, now - r->utilSince_);
        r->utilSince_ = now;
    }
}

void
FluidNetwork::refreshUtil(FluidResource &r)
{
    // Rates are piecewise constant, so the utilization held since
    // utilSince_ is one exact time-weighted sample.
    double load = 0.0;
    for (const auto &[slot, di] : r.members_) {
        const FluidFlow &flow = slots_[slot];
        load += flow.demands[di].weight * flow.rate;
    }
    const double util = std::min(1.0, load / r.capacity());
    if (util == r.util_)
        return;
    const Time now = eq_.now();
    if (now > r.utilSince_)
        r.utilHist_->record(r.util_, now - r.utilSince_);
    r.utilSince_ = now;
    r.util_ = util;
}

const FluidFlow *
FluidNetwork::findFlow(FlowId id) const
{
    const std::uint32_t slot = slotOf(id);
    if (id == 0 || slot >= slots_.size() || slots_[slot].id != id)
        return nullptr;
    return &slots_[slot];
}

std::uint32_t
FluidNetwork::internCategory(const std::string &name)
{
    auto [it, fresh] = categoryIds_.try_emplace(
        name, static_cast<std::uint32_t>(categoryNames_.size()));
    if (fresh)
        categoryNames_.push_back(name);
    return it->second;
}

void
FluidNetwork::addMembership(FluidFlow &flow)
{
    const std::uint32_t slot = slotOf(flow);
    flow.memberSlot.resize(flow.demands.size());
    for (std::size_t i = 0; i < flow.demands.size(); ++i) {
        FluidResource *r = flow.demands[i].resource;
        flow.memberSlot[i] = static_cast<std::uint32_t>(r->members_.size());
        r->members_.emplace_back(slot, static_cast<std::uint32_t>(i));
    }
}

void
FluidNetwork::removeMembership(FluidFlow &flow)
{
    for (std::size_t i = 0; i < flow.demands.size(); ++i) {
        FluidResource *r = flow.demands[i].resource;
        auto &vec = r->members_;
        const std::uint32_t slot = flow.memberSlot[i];
        vec[slot] = vec.back();
        vec.pop_back();
        // Swap-remove moved another entry into this slot; fix its
        // back-reference (self-moves were just popped).
        if (slot < vec.size())
            slots_[vec[slot].first].memberSlot[vec[slot].second] = slot;
    }
}

FlowId
FluidNetwork::startFlow(FlowSpec spec)
{
    panic_if(spec.category >= categoryNames_.size(),
             "flow with category id %u, which this network never interned",
             spec.category);
    panic_if(spec.size < 0.0, "flow with negative size %g", spec.size);
    panic_if(spec.fairWeight <= 0.0, "flow with fair weight %g",
             spec.fairWeight);
    panic_if(spec.demands.empty() && spec.rateCap <= 0.0 && spec.size > 0.0,
             "flow '%s' has neither demands nor a rate cap",
             categoryNames_[spec.category].c_str());
    for (const auto &d : spec.demands) {
        panic_if(d.resource == nullptr, "flow demand with null resource");
        panic_if(d.weight <= 0.0, "flow demand with weight %g on %s",
                 d.weight, d.resource->name().c_str());
    }

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        panic_if(slot >> kSlotBits != 0, "more than %u flows in flight",
                 slot);
        slots_.emplace_back();
    }
    panic_if(nextSeq_ >> (64 - kSlotBits) != 0, "flow sequence exhausted");

    // The handle's high bits are the start sequence, so handles (and
    // byId) order flows by start.
    const FlowId id = (nextSeq_++ << kSlotBits) | slot;
    FluidFlow &flow = slots_[slot];
    flow.id = id;
    flow.category = spec.category;
    flow.r0 = spec.size;
    flow.t0 = eq_.now();
    flow.rate = 0.0;
    flow.charged = 0.0;
    flow.rateCap = spec.rateCap;
    flow.fairWeight = spec.fairWeight;
    flow.empty = spec.size <= 0.0;
    // Copy into the slot's recycled storage: a reused slot's vectors
    // already have their capacity, so a start allocates nothing.
    flow.demands.assign(spec.demands.begin(), spec.demands.end());
    flow.onComplete = std::move(spec.onComplete);
    addMembership(flow);
    markFlowDirty(flow);
    updateHeaps(flow);
    afterMutation();
    return id;
}

void
FluidNetwork::cancelFlow(FlowId id)
{
    if (findFlow(id) != nullptr) {
        FluidFlow &flow = slots_[slotOf(id)];
        settle(flow, eq_.now());
        removeFlow(flow);
    }
    afterMutation();
}

void
FluidNetwork::removeFlow(FluidFlow &flow)
{
    removeMembership(flow);
    for (const auto &d : flow.demands)
        markDirty(d.resource);
    const std::uint32_t slot = slotOf(flow);
    finish_.erase(slot);
    due_.erase(slot);
    ++stats_.heapUpdates;
    flow.id = 0;
    flow.onComplete = nullptr;
    freeSlots_.push_back(slot);
}

double
FluidNetwork::flowRate(FlowId id) const
{
    panic_if(batchDepth_ > 0,
             "flowRate(%llu) inside a FlowBatch: rates are stale until "
             "the batch closes", static_cast<unsigned long long>(id));
    const FluidFlow *flow = findFlow(id);
    return flow ? flow->rate : 0.0;
}

double
FluidNetwork::flowRemaining(FlowId id) const
{
    const FluidFlow *flow = findFlow(id);
    return flow ? flow->remaining(eq_.now()) : 0.0;
}

void
FluidNetwork::setCapacity(FluidResource *resource, Rate capacity)
{
    panic_if(resource == nullptr, "setCapacity(null resource)");
    // Zero is a legal *runtime* capacity (an elastic member that left,
    // a device that is fully down): the solver parks flows demanding a
    // zero-capacity resource at rate 0 until capacity returns. Only
    // negative or non-finite capacities are programming errors.
    panic_if(capacity < 0.0 || !std::isfinite(capacity),
             "resource %s capacity %g must be finite and >= 0",
             resource->name().c_str(), capacity);
    resource->capacity_ = capacity;
    markDirty(resource);
    afterMutation();
}

void
FluidNetwork::resetAccounting()
{
    resetAccounting(0, resources_.size());
}

void
FluidNetwork::resetAccounting(std::size_t begin, std::size_t end)
{
    // Charge in-flight progress first, so only post-reset progress
    // lands in the new window.
    settleAccounting(begin, end);
    const Time now = eq_.now();
    for (std::size_t i = begin; i < end; ++i) {
        FluidResource &r = *resources_[i];
        r.resetAccounting(now);
        if (r.utilHist_) {
            r.utilHist_->reset();
            r.utilSince_ = now;
        }
    }
}

void
FluidNetwork::settleAccounting(std::size_t begin, std::size_t end)
{
    panic_if(begin > end || end > resources_.size(),
             "accounting range [%zu, %zu) out of bounds (%zu resources)",
             begin, end, resources_.size());
    const Time now = eq_.now();
    const std::uint64_t mark = ++mark_;
    for (std::size_t i = begin; i < end; ++i) {
        for (const auto &[slot, di] : resources_[i]->members_) {
            FluidFlow &flow = slots_[slot];
            if (flow.mark != mark) {
                flow.mark = mark;
                settle(flow, now);
            }
        }
    }
}

void
FluidNetwork::settle(FluidFlow &flow, Time now)
{
    const double served = flow.served(now);
    const double delta = served - flow.charged;
    if (delta > 0.0) {
        for (const auto &d : flow.demands)
            d.resource->account(flow.category, d.weight * delta);
        flow.charged = served;
    }
}

void
FluidNetwork::rebase(FluidFlow &flow, Time now, double rate)
{
    settle(flow, now);
    flow.r0 -= flow.served(now);
    flow.t0 = now;
    flow.charged = 0.0;
    flow.rate = rate;
    ++stats_.flowsRebased;
    updateHeaps(flow);
}

void
FluidNetwork::updateHeaps(FluidFlow &flow)
{
    const std::uint32_t slot = slotOf(flow);
    finish_.set(slot, finishKey(flow));
    due_.set(slot, dueKey(flow));
    ++stats_.heapUpdates;
}

void
FluidNetwork::afterMutation()
{
    if (batchDepth_ > 0)
        return;
    solveDirty();
    scheduleCompletion();
}

void
FluidNetwork::endBatch()
{
    panic_if(batchDepth_ == 0, "endBatch without beginBatch");
    if (--batchDepth_ == 0) {
        solveDirty();
        scheduleCompletion();
    }
}

void
FluidNetwork::solveDirty()
{
    // One BFS per component. A mutation can shift the max-min share of
    // every flow it reaches through shared resources, so the components
    // holding a dirty flow or a dirty resource are exactly the work.
    // FullResolve seeds from every live flow in id order instead: it is
    // the reference. A seed already reached in this pass belongs to a
    // component solved earlier in it.
    const std::uint64_t mark = ++mark_;
    const std::uint64_t componentsBefore = stats_.componentsSolved;
    if (mode_ == SolverMode::FullResolve) {
        ++stats_.fullSolves;
        affected_.clear();
        for (FluidFlow &flow : slots_)
            if (flow.id != 0)
                affected_.push_back(&flow);
        std::sort(affected_.begin(), affected_.end(), byId);
        for (FluidFlow *flow : affected_)
            if (flow->mark != mark)
                solveFrom(*flow, mark);
    } else {
        for (FlowId id : dirtyFlows_) {
            FluidFlow &flow = slots_[slotOf(id)];
            if (flow.id == id && flow.mark != mark)
                solveFrom(flow, mark);
        }
        for (FluidResource *r : dirtyResources_) {
            if (r->members_.empty())
                continue;
            FluidFlow &flow = slots_[r->members_.front().first];
            if (flow.mark != mark)
                solveFrom(flow, mark);
        }
    }
    dirtyFlows_.clear();
    for (FluidResource *r : dirtyResources_) {
        r->dirty_ = false;
        // A resource left without flows belongs to no component, so no
        // solve above refreshed its utilization.
        if (metrics_ && r->members_.empty())
            refreshUtil(*r);
    }
    dirtyResources_.clear();
    if (stats_.componentsSolved != componentsBefore)
        ++stats_.solves;
}

void
FluidNetwork::solveFrom(FluidFlow &seed, std::uint64_t mark)
{
    compFlows_.clear();
    compRes_.clear();
    seed.mark = mark;
    compFlows_.push_back(&seed);
    for (std::size_t head = 0; head < compFlows_.size(); ++head) {
        for (const auto &d : compFlows_[head]->demands) {
            FluidResource *r = d.resource;
            if (r->mark_ == mark)
                continue;
            r->mark_ = mark;
            compRes_.push_back(r);
            for (const auto &[slot, di] : r->members_) {
                FluidFlow *member = &slots_[slot];
                if (member->mark != mark) {
                    member->mark = mark;
                    compFlows_.push_back(member);
                }
            }
        }
    }
    std::sort(compFlows_.begin(), compFlows_.end(), byId);
    solveComponent();
    ++stats_.componentsSolved;
    stats_.flowsSolved += compFlows_.size();

    // Only a bitwise rate change moves a flow's closed form: a re-solve
    // of an unchanged component rebases nothing.
    const Time now = eq_.now();
    for (FluidFlow *flow : compFlows_)
        if (flow->fill != flow->rate)
            rebase(*flow, now, flow->fill);
    if (metrics_)
        for (FluidResource *r : compRes_)
            refreshUtil(*r);
}

void
FluidNetwork::solveComponent()
{
    // Progressive filling: raise all unfrozen flow rates uniformly until a
    // flow hits its cap or a resource saturates; repeat. Flows run in id
    // order, so every per-resource sum accumulates in the order a
    // whole-network solve would use; resources may come in any order,
    // because each one reaches the step only through a min. Restricted
    // to one connected component this is the whole-network result bit
    // for bit — resources outside the component never constrain it, and
    // flows outside never contribute weight. It reads no progress state,
    // so its result depends on the component alone.
    for (FluidResource *r : compRes_) {
        r->allocScratch_ = r->capacity(); // remaining slack
        r->weightScratch_ = 0.0;          // active weight (recomputed below)
    }

    std::size_t unfrozen = 0;
    for (FluidFlow *flow : compFlows_) {
        flow->fill = 0.0;
        flow->frozen = flow->empty;
        if (!flow->frozen)
            ++unfrozen;
    }

    while (unfrozen > 0) {
        for (FluidResource *r : compRes_)
            r->weightScratch_ = 0.0;
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            for (const auto &d : flow->demands)
                d.resource->weightScratch_ += d.weight * flow->fairWeight;
        }

        double step = kInf;
        for (FluidResource *r : compRes_) {
            if (r->weightScratch_ > 0.0)
                step = std::min(step,
                                std::max(0.0, r->allocScratch_) /
                                    r->weightScratch_);
        }
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen || flow->rateCap <= 0.0)
                continue;
            step = std::min(step, (flow->rateCap - flow->fill) /
                                      flow->fairWeight);
        }
        panic_if(std::isinf(step),
                 "unconstrained flow in fluid network (no demand, no cap)");

        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            flow->fill += step * flow->fairWeight;
            for (const auto &d : flow->demands)
                d.resource->allocScratch_ -=
                    d.weight * flow->fairWeight * step;
        }

        // Freeze the flows that hit their caps or demand a saturated
        // resource: mark the saturated resources, then one pass.
        for (FluidResource *r : compRes_)
            r->saturated_ = r->weightScratch_ > 0.0 &&
                            r->allocScratch_ <= 1e-12 * r->capacity();
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            const bool freeze =
                (flow->rateCap > 0.0 &&
                 flow->fill >= flow->rateCap * (1.0 - 1e-12)) ||
                std::any_of(flow->demands.begin(), flow->demands.end(),
                            [](const FlowDemand &d) {
                                return d.resource->saturated_;
                            });
            if (freeze) {
                flow->frozen = true;
                --unfrozen;
            }
        }
    }
}

void
FluidNetwork::scheduleCompletion()
{
    // Cancel and reschedule after every solve, even when the time is
    // unchanged: event sequence numbers (and so tie-breaks) depend on it.
    eq_.cancel(pending_);
    if (finish_.empty())
        return;
    const double when = finish_.topKey();
    if (std::isinf(when))
        return;
    pending_ = eq_.schedule(std::max(when, eq_.now()),
                            [this] { completeEarliest(); });
}

void
FluidNetwork::completeEarliest()
{
    pending_.invalidate();
    const Time now = eq_.now();
    // The callbacks start their chains' next stages inside one batch,
    // so the event costs one solve and one reschedule, at its close.
    FlowBatch batch(*this);

    // Collect every flow that has (numerically) finished. Only flows
    // whose due key is within the bound can pass the test (see
    // dueKey), so this visits the finishing flows, not all of them.
    doneFlows_.clear();
    due_.forEachAtMost(now + 1e-12 * now, [&](std::uint32_t slot) {
        FluidFlow &flow = slots_[slot];
        if (isDone(flow.remaining(now), flow.rate))
            doneFlows_.push_back(&flow);
    });
    std::sort(doneFlows_.begin(), doneFlows_.end(), byId);

    // The callbacks move to a member buffer first: they start flows,
    // which may reuse the slots just freed.
    doneCallbacks_.clear();
    for (FluidFlow *flow : doneFlows_) {
        settle(*flow, now);
        doneCallbacks_.push_back(std::move(flow->onComplete));
        removeFlow(*flow);
    }

    for (auto &cb : doneCallbacks_)
        if (cb)
            cb(now);
    doneCallbacks_.clear();
}

} // namespace tb
