#include "trainbox/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/escape.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/table.hh"
#include "sim/trace.hh"

namespace tb {

namespace {

/** Prep stages that move data (vs transform it) — the Fig 9 buckets. */
bool
isTransferStage(const std::string &name)
{
    static const char *const kTransfer[] = {
        "ssd_read",  "data_load", "others",    "copy_to_prep",
        "copy_from_prep", "pool_send", "pool_recv",
    };
    for (const char *t : kTransfer)
        if (name == t)
            return true;
    return false;
}

} // namespace

double
categoryShare(const std::map<std::string, double> &by_category,
              const std::string &category, double total)
{
    if (total <= 0.0)
        return 0.0;
    auto it = by_category.find(category);
    return it == by_category.end() ? 0.0 : it->second / total;
}

std::string
classifyResource(const std::string &name)
{
    auto ends_with = [&name](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name == "host.cpu")
        return "cpu";
    if (name == "host.dram")
        return "dram";
    if (name == "pcie.rc")
        return "root_complex";
    if (ends_with(".flash"))
        return "ssd_read";
    if (ends_with(".write"))
        return "ssd_write";
    if (ends_with(".engine"))
        return name.rfind("pool.", 0) == 0 ? "pool_engine"
                                           : "prep_engine";
    if (ends_with(".eth") || ends_with(".fabric"))
        return "ethernet";
    if (ends_with(".up") || ends_with(".down"))
        return "pcie_link";
    return "other";
}

double
SessionReport::computeGoodput(double throughput, double reference)
{
    // Clamped: a degraded run can never report more than the reference,
    // and measurement noise must not push the fraction past 1.
    return reference > 0.0 ? clamp(throughput / reference, 0.0, 1.0)
                           : 0.0;
}

double
SessionReport::computeEfficiency(const CheckpointStats &ckpt,
                                 Time wall_time)
{
    if (wall_time <= 0.0)
        return 0.0;
    const Time overhead =
        ckpt.pauseTime + ckpt.lostWorkTime + ckpt.restartTime;
    return clamp(1.0 - overhead / wall_time, 0.0, 1.0);
}

double
SessionReport::sumCategories(const std::map<std::string, double> &by)
{
    double total = 0.0;
    for (const auto &[cat, v] : by)
        total += v;
    return total;
}

// @p res may be a *partial* result frozen by TrainingSession::kill()
// (fleet host faults / horizon freezes): stepsMeasured can be 0 and the
// measurement window degenerate. Every derived metric below and in the
// accessors guards its divisor (wallTime, windowElapsed, stepTime), so
// partial reports flow through build() and the exporters unchanged.
SessionReport
SessionReport::build(const Server &server, const SessionResult &res)
{
    SessionReport r;
    r.preset = presetName(server.cfg.preset);
    r.model = server.model.name;
    r.numAccelerators = server.cfg.numAccelerators;
    r.batchSize = server.batchSize();
    r.targetThroughput = workload::targetThroughput(
        server.model, server.cfg.numAccelerators, server.cfg.sync);
    r.result = res;
    r.hostCpuCapacity_ = server.cfg.host.cpuCores;
    r.hostMemCapacity_ = server.cfg.host.memBandwidth;
    r.hostRcCapacity_ = server.cfg.host.rcBandwidth;

    const MetricsRegistry &m = server.core().metrics();
    if (!m.enabled())
        return r;
    r.hasMetrics = true;

    // This server's own resources in creation order — on a shared core
    // the network also holds every co-resident server's. Classification
    // and display use the *unprefixed* name, so a report for "job0."
    // reads identically to a standalone one.
    const std::size_t prefix_len = server.resourcePrefix().size();
    for (const auto &fr : server.resources()) {
        const TimeWeightedHistogram *util = fr->utilizationHistory();
        if (util == nullptr)
            continue;
        ResourceUsage u;
        u.name = fr->name().substr(prefix_len);
        u.kind = classifyResource(u.name);
        u.utilization = util->timeAverage();
        u.peak = util->peak();
        u.saturatedFraction = util->saturatedFraction();
        for (const auto &[cat, units] : fr->servedByCategory()) {
            if (units > u.dominantShare * fr->totalServed()) {
                u.dominantCategory = cat;
                u.dominantShare = fr->totalServed() > 0.0
                    ? units / fr->totalServed() : 0.0;
            }
        }
        r.resources.push_back(std::move(u));
    }

    // The NN accelerators are events, not fluid flows; synthesize their
    // utilization from the session's busy counter.
    const MetricCounter *busy =
        m.findCounter(server.resourcePrefix() + "session.compute_busy");
    const Time elapsed = r.windowElapsed();
    if (busy && elapsed > 0.0 && !server.groups.empty()) {
        ResourceUsage u;
        u.name = "acc.compute";
        u.kind = "accelerator";
        u.utilization = clamp(
            busy->value() /
                (static_cast<double>(server.groups.size()) * elapsed),
            0.0, 1.0);
        u.peak = u.utilization > 0.0 ? 1.0 : 0.0;
        // A group computing back-to-back is a saturated accelerator.
        u.saturatedFraction =
            u.utilization >= TimeWeightedHistogram::kDefaultSaturation
                ? 1.0 : 0.0;
        u.dominantCategory = "compute";
        u.dominantShare = 1.0;
        r.resources.push_back(std::move(u));
    }
    return r;
}

Time
SessionReport::windowElapsed() const
{
    return result.stepTime * static_cast<double>(result.stepsMeasured);
}

double
SessionReport::targetFraction() const
{
    return targetThroughput > 0.0
        ? result.throughput / targetThroughput : 0.0;
}

double
SessionReport::goodput(double reference_throughput) const
{
    return computeGoodput(result.throughput, reference_throughput);
}

double
SessionReport::efficiency() const
{
    return computeEfficiency(result.checkpoint, result.wallTime);
}

void
SessionReport::attachPrepQuarantine(
    std::size_t items_processed,
    const std::map<std::string, std::size_t> &by_reason)
{
    prepItemsProcessed = items_processed;
    prepQuarantineByReason = by_reason;
}

std::size_t
SessionReport::prepItemsQuarantined() const
{
    std::size_t total = 0;
    for (const auto &[reason, n] : prepQuarantineByReason)
        total += n;
    return total;
}

double
SessionReport::availability() const
{
    if (result.wallTime <= 0.0)
        return 0.0;
    return clamp(1.0 - result.faults.degradedTime / result.wallTime,
                 0.0, 1.0);
}

double
SessionReport::capacityAvailability() const
{
    if (result.wallTime <= 0.0)
        return 0.0;
    return clamp(1.0 - result.elasticity.degradedCapacityTime /
                           result.wallTime,
                 0.0, 1.0);
}

double
SessionReport::sloAttainment() const
{
    const double target = result.elasticity.sloTargetSamplesPerSec;
    if (target <= 0.0)
        return 1.0;
    return clamp(result.throughput / target, 0.0, 1.0);
}

double
SessionReport::ingestAdmitRate() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesArrived <= 0.0)
        return 1.0;
    return clamp(in.samplesAdmitted / in.samplesArrived, 0.0, 1.0);
}

double
SessionReport::ingestShedRate() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesArrived <= 0.0)
        return 0.0;
    return clamp(in.samplesShed / in.samplesArrived, 0.0, 1.0);
}

Time
SessionReport::avgIngestStaleness() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesAdmitted <= 0.0)
        return 0.0;
    return in.stalenessSum / in.samplesAdmitted;
}

double
SessionReport::freshnessSloAttainment() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.stalenessSloSec <= 0.0 || in.samplesAdmitted <= 0.0)
        return 1.0;
    return clamp(in.samplesWithinSlo / in.samplesAdmitted, 0.0, 1.0);
}

double
SessionReport::echoEffectiveFactor() const
{
    const SessionResult::IngestStats &in = result.ingest;
    const double fresh = result.elasticity.samplesConsumed;
    const double total = fresh + in.samplesEchoed;
    if (total <= 0.0 || in.samplesEchoed <= 0.0)
        return 1.0;
    return clamp((fresh + in.echoEfficiency * in.samplesEchoed) / total,
                 0.0, 1.0);
}

double
SessionReport::LatencyBreakdown::share(Time part) const
{
    const Time t = total();
    return t > 0.0 ? part / t : 0.0;
}

SessionReport::LatencyBreakdown
SessionReport::latency() const
{
    LatencyBreakdown b;
    for (const auto &[name, t] : result.prepStageTime) {
        if (name == "formatting")
            b.formatting += t;
        else if (name == "augmentation")
            b.augmentation += t;
        else if (isTransferStage(name))
            b.transfer += t;
        // ckpt_write and other non-prep stages are not batch latency
    }
    b.compute = result.computeTime;
    b.sync = result.syncTime;
    return b;
}

Time
SessionReport::stageTime(const std::string &stage) const
{
    auto it = result.prepStageTime.find(stage);
    return it == result.prepStageTime.end() ? 0.0 : it->second;
}

double
SessionReport::hostCpuCores() const
{
    return sumCategories(result.cpuCoresByCategory);
}

double
SessionReport::hostMemBw() const
{
    return sumCategories(result.memBwByCategory);
}

double
SessionReport::hostRcBw() const
{
    return sumCategories(result.rcBwByCategory);
}

double
SessionReport::cpuShare(const std::string &category) const
{
    return categoryShare(result.cpuCoresByCategory, category,
                         hostCpuCores());
}

double
SessionReport::memShare(const std::string &category) const
{
    return categoryShare(result.memBwByCategory, category, hostMemBw());
}

double
SessionReport::rcShare(const std::string &category) const
{
    return categoryShare(result.rcBwByCategory, category, hostRcBw());
}

std::vector<Bottleneck>
SessionReport::bottlenecks() const
{
    std::vector<Bottleneck> ranked;
    if (hasMetrics) {
        // Per device class, the bottleneck is its most-utilized member
        // (one saturated link stalls the pipeline regardless of its
        // siblings' slack).
        std::map<std::string, const ResourceUsage *> best;
        for (const ResourceUsage &u : resources) {
            auto [it, fresh] = best.emplace(u.kind, &u);
            if (!fresh && u.utilization > it->second->utilization)
                it->second = &u;
        }
        for (const auto &[kind, u] : best) {
            if (u->utilization <= 0.0)
                continue;
            ranked.push_back({kind, u->name, u->utilization,
                              u->saturatedFraction,
                              u->dominantCategory});
        }
    } else {
        // Metrics-free fallback: the three host axes from the fluid
        // accounting, normalized as demand / configured capacity so the
        // axes are comparable. Device-level attribution needs
        // cfg.metricsEnabled.
        const struct
        {
            const char *kind;
            const char *resource;
            double used;
            double capacity;
            const std::map<std::string, double> &by;
        } axes[] = {
            {"cpu", "host.cpu", hostCpuCores(), hostCpuCapacity_,
             result.cpuCoresByCategory},
            {"dram", "host.dram", hostMemBw(), hostMemCapacity_,
             result.memBwByCategory},
            {"root_complex", "pcie.rc", hostRcBw(), hostRcCapacity_,
             result.rcBwByCategory},
        };
        for (const auto &axis : axes) {
            Bottleneck b;
            b.kind = axis.kind;
            b.resource = axis.resource;
            b.utilization = axis.capacity > 0.0
                ? axis.used / axis.capacity : axis.used;
            for (const auto &[cat, v] : axis.by)
                if (b.dominantCategory.empty() ||
                    v > axis.by.at(b.dominantCategory))
                    b.dominantCategory = cat;
            ranked.push_back(std::move(b));
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Bottleneck &a, const Bottleneck &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  if (a.saturatedFraction != b.saturatedFraction)
                      return a.saturatedFraction > b.saturatedFraction;
                  return a.kind < b.kind;
              });
    return ranked;
}

ReportNode::ReportNode(std::string csv_section, std::string k, Kind kd)
    : kind(kd), key(k), csvSection(std::move(csv_section)), csvKey(k)
{
}

ReportNode &
ReportNode::leaf(const std::string &k, Format f, std::string v)
{
    ReportNode &n = children.emplace_back(csvSection, k, Kind::Leaf);
    n.format = f;
    n.value = std::move(v);
    return *this;
}

ReportNode &
ReportNode::num(const std::string &k, double v, Format f)
{
    static const char *const kSpec[] = {"%.12g", "%.4f", "%.6f", "%.0f"};
    panic_if(f > Format::Integer, "report: %s is not a number", k.c_str());
    char buf[512]; // %.6f of the largest double fits
    std::snprintf(buf, sizeof(buf), kSpec[static_cast<int>(f)],
                  f == Format::Percent ? 100.0 * v : v);
    return leaf(k, f, buf);
}

ReportNode &
ReportNode::flag(const std::string &k, bool v)
{
    return leaf(k, Format::Bool, v ? "true" : "false");
}

ReportNode &
ReportNode::text(const std::string &k, const std::string &v)
{
    return leaf(k, Format::String, v);
}

ReportNode &
ReportNode::csvAs(const std::string &section, const std::string &k)
{
    children.back().csvSection = section;
    children.back().csvKey = k;
    return *this;
}

ReportNode &
ReportNode::object(const std::string &k, const std::string &csv_section)
{
    return children.emplace_back(csv_section, k);
}

ReportNode &
ReportNode::array(const std::string &k, const std::string &csv_section)
{
    return children.emplace_back(csv_section, k, Kind::Array);
}

namespace {

void
appendJson(std::string &out, const ReportNode &n, std::size_t depth)
{
    // The root, and a block of blocks, put each entry on its own line.
    bool lines = !n.children.empty();
    for (const ReportNode &c : n.children)
        lines = lines && c.kind != ReportNode::Kind::Leaf;
    lines = lines || depth == 0;
    const bool array = n.kind == ReportNode::Kind::Array;
    out += array ? '[' : '{';
    for (const ReportNode &c : n.children) {
        if (&c != &n.children.front())
            out += lines ? "," : ", ";
        if (lines)
            out += "\n" + std::string(2 * depth + 2, ' ');
        if (!array) {
            appendJsonString(out, c.key);
            out += ": ";
        }
        if (c.kind != ReportNode::Kind::Leaf)
            appendJson(out, c, depth + 1);
        else if (c.format == ReportNode::Format::String)
            appendJsonString(out, c.value);
        else
            out += c.value;
    }
    if (lines && !n.children.empty())
        out += "\n" + std::string(2 * depth, ' ');
    out += array ? ']' : '}';
}

void
appendCsv(std::string &out, const ReportNode &n)
{
    for (const ReportNode &c : n.children)
        appendCsv(out, c);
    if (n.kind != ReportNode::Kind::Leaf || n.csvSection.empty())
        return;
    appendCsvField(out, n.csvSection);
    out += ',';
    appendCsvField(out, n.csvKey);
    out += ',';
    if (n.format == ReportNode::Format::Bool)
        out += n.value == "true" ? '1' : '0';
    else
        appendCsvField(out, n.value);
    out += '\n';
}

} // namespace

std::string
renderJson(const ReportNode &root)
{
    std::string out;
    appendJson(out, root, 0);
    return out + '\n';
}

std::string
renderCsv(const ReportNode &root)
{
    std::string out = "section,key,value\n";
    appendCsv(out, root);
    return out;
}

ReportNode
fieldTable(const SessionReport &r)
{
    const SessionResult &res = r.result;
    const SessionReport::LatencyBreakdown lat = r.latency();
    using F = ReportNode::Format;
    ReportNode root("session");
    root.object("config", "config")
        .text("preset", r.preset)
        .text("model", r.model)
        .num("accelerators", r.numAccelerators)
        .num("batch_size", r.batchSize);
    root.object("throughput", "throughput")
        .num("samples_per_sec", res.throughput)
        .num("target_samples_per_sec", r.targetThroughput)
        .num("target_fraction", r.targetFraction())
        .num("step_time_sec", res.stepTime)
        .num("compute_time_sec", res.computeTime)
        .num("sync_time_sec", res.syncTime)
        .num("prep_latency_sec", res.prepLatency)
        .num("steps_measured", res.stepsMeasured);
    root.object("latency_breakdown_pct", "latency_pct")
        .num("transfer", lat.share(lat.transfer), F::Percent)
        .num("formatting", lat.share(lat.formatting), F::Percent)
        .num("augmentation", lat.share(lat.augmentation), F::Percent)
        .num("compute", lat.share(lat.compute), F::Percent)
        .num("sync", lat.share(lat.sync), F::Percent)
        .num("prep_total", lat.prepShare(), F::Percent);
    root.map("prep_stage_time_sec", "prep_stage_time_sec",
             res.prepStageTime);
    ReportNode &host = root.object("host_demand", "");
    host.object("cpu_cores", "")
        .num("total", r.hostCpuCores()).csvAs("host_demand", "cpu_cores")
        .map("by_category", "cpu_by_category", res.cpuCoresByCategory);
    host.object("mem_bw", "")
        .num("total", r.hostMemBw()).csvAs("host_demand", "mem_bw")
        .map("by_category", "mem_by_category", res.memBwByCategory);
    host.object("rc_bw", "")
        .num("total", r.hostRcBw()).csvAs("host_demand", "rc_bw")
        .map("by_category", "rc_by_category", res.rcBwByCategory);
    root.object("robustness", "robustness")
        .num("efficiency", r.efficiency())
        .num("availability", r.availability())
        .num("faults_injected", res.faults.faultsInjected)
        .num("checkpoints_committed", res.checkpoint.committed)
        .num("steps_lost", res.checkpoint.stepsLost);
    const SessionResult::ElasticityStats &el = res.elasticity;
    root.object("elasticity", "elasticity")
        .num("events", el.events)
        .num("drains", el.drains)
        .num("preemptions", el.preemptions)
        .num("joins", el.joins)
        .num("chains_rebalanced", el.chainsRebalanced)
        .num("samples_lost_to_preemption", el.samplesLostToPreemption)
        .num("samples_saved_by_drain", el.samplesSavedByDrain)
        .num("samples_dropped_at_drain", el.samplesDroppedAtDrain)
        .num("degraded_capacity_time_sec", el.degradedCapacityTime)
        .num("zero_capacity_time_sec", el.zeroCapacityTime)
        .num("rebalance_time_sec", el.rebalanceTime)
        .num("avg_active_fraction", el.avgActiveFraction)
        .num("capacity_availability", r.capacityAvailability())
        .num("slo_target_samples_per_sec", el.sloTargetSamplesPerSec)
        .num("slo_attainment", r.sloAttainment())
        .object("ledger", "sample_ledger")
        .num("prepared", el.samplesPrepared)
        .num("consumed", el.samplesConsumed)
        .num("cached_at_end", el.samplesCachedAtEnd)
        .num("discarded", el.samplesDiscarded);
    root.object("ingest", "ingest")
        .num("arrival_events", res.ingest.arrivalEvents)
        .num("overload_trips", res.ingest.overloadTrips)
        .num("stalls", res.ingest.stalls)
        .num("write_flows", res.ingest.writeFlows)
        .num("write_retries", res.ingest.writeRetries)
        .num("write_failures", res.ingest.writeFailures)
        .num("admit_rate", r.ingestAdmitRate())
        .num("shed_rate", r.ingestShedRate())
        .num("overload_time_sec", res.ingest.overloadTime)
        .num("stall_time_sec", res.ingest.stallTime)
        .num("peak_buffer_level", res.ingest.peakBufferLevel)
        .num("samples_echoed", res.ingest.samplesEchoed)
        .num("echo_effective_factor", r.echoEffectiveFactor())
        .num("avg_staleness_sec", r.avgIngestStaleness())
        .num("max_staleness_sec", res.ingest.stalenessMax)
        .num("staleness_slo_sec", res.ingest.stalenessSloSec)
        .num("freshness_slo_attainment", r.freshnessSloAttainment())
        .object("ledger", "ingest_ledger")
        .num("arrived", res.ingest.samplesArrived)
        .num("admitted", res.ingest.samplesAdmitted)
        .num("shed", res.ingest.samplesShed)
        .num("throttled", res.ingest.samplesThrottled)
        .num("shed_policy", res.ingest.samplesShedPolicy)
        .num("overflow_dropped", res.ingest.samplesOverflowDropped)
        .num("abandoned_writes", res.ingest.samplesAbandonedWrites)
        .num("in_flight_at_end", res.ingest.samplesInFlightAtEnd);
    ReportNode &by_kind = root.object("integrity", "integrity")
        .num("injected", res.integrity.injected)
        .num("detected", res.integrity.detected)
        .num("escaped", res.integrity.escaped)
        .num("escape_rate", res.integrity.escapeRate())
        .num("pcie_replays", res.integrity.pcieReplays)
        .num("recoveries", res.integrity.recoveries)
        .num("chunks_quarantined", res.integrity.chunksQuarantined)
        .object("by_kind", "integrity_by_kind");
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        by_kind.num(corruptionKindName(static_cast<CorruptionKind>(k)),
                    res.integrity.injectedByKind[k]);
    root.object("prep_quarantine", "prep_quarantine")
        .num("items_processed", r.prepItemsProcessed)
        .num("quarantined", r.prepItemsQuarantined())
        .map("by_reason", "prep_quarantine_by_reason",
             r.prepQuarantineByReason);
    root.flag("has_metrics", r.hasMetrics);
    // Record arrays keep their transposed CSV rows, one per resource.
    ReportNode &usage = root.array("utilization", "");
    for (const ResourceUsage &u : r.resources)
        usage.object("", "")
            .text("resource", u.name)
            .text("kind", u.kind)
            .num("utilization", u.utilization).csvAs("utilization", u.name)
            .num("peak", u.peak)
            .num("saturated_fraction", u.saturatedFraction)
            .csvAs("saturated_fraction", u.name)
            .text("dominant_category", u.dominantCategory);
    ReportNode &ranked = root.array("bottlenecks", "");
    std::size_t rank = 1;
    for (const Bottleneck &b : r.bottlenecks()) {
        const std::string id = std::to_string(rank) + ":" + b.kind;
        ranked.object("", "")
            .num("rank", rank++)
            .text("kind", b.kind)
            .text("resource", b.resource)
            .num("utilization", b.utilization).csvAs("bottleneck", id)
            .num("saturated_fraction", b.saturatedFraction)
            .text("dominant_category", b.dominantCategory);
    }
    return root;
}


void
SessionReport::emitCounters(TraceWriter &trace) const
{
    const Time end = result.wallTime;
    const Time start = std::max(0.0, end - windowElapsed());
    for (const ResourceUsage &u : resources) {
        trace.counter("util." + u.kind, u.name, start,
                      100.0 * u.utilization);
        trace.counter("util." + u.kind, u.name, end,
                      100.0 * u.utilization);
    }
    std::size_t rank = 1;
    for (const Bottleneck &b : bottlenecks()) {
        if (rank > 3)
            break;
        trace.instant("report",
                      "bottleneck#" + std::to_string(rank++) + " " +
                          b.kind + " (" + b.resource + ")",
                      end, "report");
    }
}

void
SessionReport::print(std::FILE *out) const
{
    const LatencyBreakdown lat = latency();
    std::fprintf(out, "=== SessionReport: %s | %s | %zu accelerators "
                      "(batch %zu) ===\n",
                 preset.c_str(), model.c_str(), numAccelerators,
                 batchSize);
    std::fprintf(out,
                 "throughput  %.1f samples/s (%.1f%% of target %.1f)\n",
                 result.throughput, 100.0 * targetFraction(),
                 targetThroughput);
    std::fprintf(out,
                 "step time   %.3f ms (compute %.3f ms, sync %.3f ms), "
                 "prep latency %.3f ms\n",
                 result.stepTime * 1e3, result.computeTime * 1e3,
                 result.syncTime * 1e3, result.prepLatency * 1e3);
    std::fprintf(out,
                 "latency     transfer %.1f%% | formatting %.1f%% | "
                 "augmentation %.1f%% | compute %.1f%% | sync %.1f%% "
                 "(prep total %.1f%%)\n",
                 100.0 * lat.share(lat.transfer),
                 100.0 * lat.share(lat.formatting),
                 100.0 * lat.share(lat.augmentation),
                 100.0 * lat.share(lat.compute),
                 100.0 * lat.share(lat.sync), 100.0 * lat.prepShare());
    std::fprintf(out,
                 "host demand cpu %.1f cores | dram %.2f GB/s | "
                 "rc %.2f GB/s\n",
                 hostCpuCores(), hostMemBw() / 1e9, hostRcBw() / 1e9);
    if (result.faults.faultsInjected > 0 ||
        result.checkpoint.committed > 0)
        std::fprintf(out,
                     "robustness  efficiency %.4f | availability %.4f | "
                     "faults %zu | checkpoints %zu\n",
                     efficiency(), availability(),
                     result.faults.faultsInjected,
                     result.checkpoint.committed);
    if (result.elasticity.events > 0)
        std::fprintf(out,
                     "elasticity  events %zu (drains %zu, preemptions "
                     "%zu, joins %zu) | capacity availability %.4f | "
                     "avg active %.2f%% | slo attainment %.4f\n"
                     "            samples lost %.0f, saved by drain "
                     "%.0f, dropped at drain %.0f | rebalance %.2f s | "
                     "zero-capacity %.2f s\n",
                     result.elasticity.events, result.elasticity.drains,
                     result.elasticity.preemptions,
                     result.elasticity.joins, capacityAvailability(),
                     100.0 * result.elasticity.avgActiveFraction,
                     sloAttainment(),
                     result.elasticity.samplesLostToPreemption,
                     result.elasticity.samplesSavedByDrain,
                     result.elasticity.samplesDroppedAtDrain,
                     result.elasticity.rebalanceTime,
                     result.elasticity.zeroCapacityTime);
    if (result.ingest.arrivalEvents > 0)
        std::fprintf(out,
                     "ingest      arrived %.0f | admitted %.0f (rate "
                     "%.4f) | shed %.0f | echoed %.0f | overload trips "
                     "%zu (%.2f s) | stalls %zu (%.2f s)\n"
                     "            avg staleness %.3f s (max %.3f s) | "
                     "freshness SLO attainment %.4f | echo factor %.4f\n",
                     result.ingest.samplesArrived,
                     result.ingest.samplesAdmitted, ingestAdmitRate(),
                     result.ingest.samplesShed,
                     result.ingest.samplesEchoed,
                     result.ingest.overloadTrips,
                     result.ingest.overloadTime, result.ingest.stalls,
                     result.ingest.stallTime, avgIngestStaleness(),
                     result.ingest.stalenessMax,
                     freshnessSloAttainment(), echoEffectiveFactor());
    if (result.integrity.injected > 0)
        std::fprintf(out,
                     "integrity   injected %zu | detected %zu | escaped "
                     "%zu (rate %.2e) | replays %zu | recoveries %zu | "
                     "quarantined %zu\n",
                     result.integrity.injected, result.integrity.detected,
                     result.integrity.escaped,
                     result.integrity.escapeRate(),
                     result.integrity.pcieReplays,
                     result.integrity.recoveries,
                     result.integrity.chunksQuarantined);
    if (prepItemsProcessed > 0) {
        std::fprintf(out, "prep items  %zu processed | %zu quarantined",
                     prepItemsProcessed, prepItemsQuarantined());
        for (const auto &[reason, n] : prepQuarantineByReason)
            std::fprintf(out, " | %s %zu", reason.c_str(), n);
        std::fprintf(out, "\n");
    }

    const std::vector<Bottleneck> ranked = bottlenecks();
    if (ranked.empty())
        return;
    if (!hasMetrics) {
        std::fprintf(out, "\nbottleneck attribution (host axes; run "
                          "with metrics for device-level ranking):\n");
        Table t({"rank", "axis", "demand / capacity %",
                 "dominant category"});
        std::size_t rank = 1;
        for (const Bottleneck &b : ranked)
            t.row()
                .add(rank++)
                .add(b.kind + " (" + b.resource + ")")
                .add(100.0 * b.utilization, 1)
                .add(b.dominantCategory.empty() ? "-"
                                                : b.dominantCategory);
        t.print(out);
        return;
    }
    std::fprintf(out, "\nbottleneck attribution:\n");
    Table t({"rank", "class", "resource", "util %", "saturated %",
             "dominant category"});
    std::size_t rank = 1;
    for (const Bottleneck &b : ranked)
        t.row()
            .add(rank++)
            .add(b.kind)
            .add(b.resource)
            .add(100.0 * b.utilization, 1)
            .add(100.0 * b.saturatedFraction, 1)
            .add(b.dominantCategory.empty() ? "-" : b.dominantCategory);
    t.print(out);
}

} // namespace tb
