#include "trainbox/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/logging.hh"
#include "trainbox/train_initializer.hh"

namespace tb {

namespace {

/** Train-box slots a job's accelerators occupy (preset-independent). */
std::size_t
boxesFor(const FleetJobSpec &spec)
{
    return boxCount(std::max<std::size_t>(spec.config.numAccelerators, 1));
}

} // namespace

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
    case PlacementPolicy::FirstFit:
        return "first_fit";
    case PlacementPolicy::Packed:
        return "packed";
    case PlacementPolicy::PrepPoolAware:
        return "pool_aware";
    }
    return "?";
}

bool
parsePlacementPolicy(const std::string &name, PlacementPolicy &out)
{
    if (name == "first_fit") {
        out = PlacementPolicy::FirstFit;
    } else if (name == "packed") {
        out = PlacementPolicy::Packed;
    } else if (name == "pool_aware") {
        out = PlacementPolicy::PrepPoolAware;
    } else {
        return false;
    }
    return true;
}

const char *
fleetJobStateName(FleetJobState s)
{
    switch (s) {
    case FleetJobState::Queued:
        return "queued";
    case FleetJobState::Running:
        return "running";
    case FleetJobState::Failed:
        return "failed";
    case FleetJobState::Requeued:
        return "requeued";
    case FleetJobState::Completed:
        return "completed";
    case FleetJobState::Abandoned:
        return "abandoned";
    }
    return "?";
}

std::string
FleetConfig::validate() const
{
    // The numeric checks are written so that NaN fails them.
    if (hosts.empty())
        return "no hosts configured";
    if (jobs.empty())
        return "empty job trace";
    if (!std::isfinite(horizon) || horizon < 0.0)
        return stringPrintf("horizon must be finite and >= 0, got %g",
                            horizon);

    std::size_t max_boxes = 0;
    for (const FleetHostSpec &h : hosts) {
        if (h.boxCapacity == 0)
            return stringPrintf("host %s has zero capacity", h.name.c_str());
        max_boxes = std::max(max_boxes, h.boxCapacity);
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const FleetJobSpec &spec = jobs[i];
        if (spec.name.empty())
            return stringPrintf("job %zu has no name", i);
        if (!std::isfinite(spec.arrival) || spec.arrival < 0.0)
            return stringPrintf("job %s must arrive at a finite time >= 0, "
                                "got %g",
                                spec.name.c_str(), spec.arrival);
        if (spec.measureSteps == 0)
            return stringPrintf("job %s has zero measured steps",
                                spec.name.c_str());
        const std::size_t need = boxesFor(spec);
        if (need > max_boxes)
            return stringPrintf("job %s needs %zu boxes but the largest "
                                "host has %zu",
                                spec.name.c_str(), need, max_boxes);
    }

    // A job's resources and metrics live under "<name>." and a retry's
    // under "<name>.r<k>.", so a name may neither repeat nor extend
    // another job's name past a '.' ("a.b" would share a's namespace,
    // "a.r1" that of a's first retry). Sorted, a duplicate sits beside
    // its twin, and only a dotted name needs its prefixes looked up.
    std::vector<std::string_view> names;
    names.reserve(jobs.size());
    for (const FleetJobSpec &spec : jobs)
        names.emplace_back(spec.name);
    std::sort(names.begin(), names.end());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string_view name = names[i];
        if (i > 0 && name == names[i - 1])
            return stringPrintf("duplicate job name %s",
                                std::string(name).c_str());
        for (std::size_t dot = name.find('.'); dot != name.npos;
             dot = name.find('.', dot + 1))
            if (std::binary_search(names.begin(), names.end(),
                                   name.substr(0, dot)))
                return stringPrintf(
                    "job name %s extends job name %s past a '.'",
                    std::string(name).c_str(),
                    std::string(name.substr(0, dot)).c_str());
    }

    if (!faults.enabled)
        return "";

    // --- retry policy ---------------------------------------------------
    constexpr std::size_t kMaxRetries = 64;
    if (faults.maxRetries > kMaxRetries)
        return stringPrintf("faults.maxRetries %zu exceeds the cap %zu",
                            faults.maxRetries, kMaxRetries);
    if (!(faults.retryBackoffBase >= 0.0))
        return stringPrintf("faults.retryBackoffBase must be >= 0, got %g",
                            faults.retryBackoffBase);
    if (!(faults.retryBackoffFactor >= 1.0))
        return stringPrintf("faults.retryBackoffFactor must be >= 1, "
                            "got %g",
                            faults.retryBackoffFactor);

    // --- seeded classes -------------------------------------------------
    struct NamedClass
    {
        const char *name;
        const FleetFaultClassConfig *cc;
    };
    const NamedClass classes[] = {
        {"hostOutage", &faults.hostOutage},
        {"boxLoss", &faults.boxLoss},
        {"poolPartition", &faults.poolPartition},
    };
    for (const NamedClass &nc : classes) {
        if (!(nc.cc->mtbf >= 0.0))
            return stringPrintf("faults.%s.mtbf must be >= 0, got %g",
                                nc.name, nc.cc->mtbf);
        if (!(nc.cc->mttr >= 0.0))
            return stringPrintf("faults.%s.mttr must be >= 0, got %g",
                                nc.name, nc.cc->mttr);
        if (nc.cc->mtbf > 0.0 && horizon <= 0.0)
            return stringPrintf("faults.%s.mtbf %g needs a positive "
                                "horizon (seeded streams are enumerated "
                                "over it)",
                                nc.name, nc.cc->mtbf);
    }
    if (faults.boxLoss.mtbf > 0.0 && faults.boxLossUnits == 0)
        return "faults.boxLossUnits must be >= 1 when boxLoss is active";
    if (faults.poolPartition.mtbf > 0.0 && faults.poolPartitionFpgas == 0)
        return "faults.poolPartitionFpgas must be >= 1 when "
               "poolPartition is active";

    // --- scripted schedule ----------------------------------------------
    for (std::size_t i = 0; i < faults.schedule.size(); ++i) {
        const FleetFaultEvent &ev = faults.schedule[i];
        if (!std::isfinite(ev.start))
            return stringPrintf("faults.schedule[%zu] starts at %g, not a "
                                "finite time",
                                i, ev.start);
        if (ev.start < 0.0)
            return stringPrintf("faults.schedule[%zu] starts at %g < 0", i,
                                ev.start);
        if (!(ev.duration >= 0.0))
            return stringPrintf("faults.schedule[%zu] has negative "
                                "duration %g",
                                i, ev.duration);
        if (i > 0 && ev.start < faults.schedule[i - 1].start)
            return stringPrintf("faults.schedule[%zu] starts at %g, before "
                                "schedule[%zu] at %g (must be sorted)",
                                i, ev.start, i - 1,
                                faults.schedule[i - 1].start);
        if (ev.kind != FleetFaultKind::PoolPartition &&
            ev.host >= hosts.size())
            return stringPrintf("faults.schedule[%zu] targets host %zu but "
                                "the fleet has only %zu hosts",
                                i, ev.host, hosts.size());
        if (ev.kind != FleetFaultKind::HostOutage && ev.units == 0)
            return stringPrintf("faults.schedule[%zu] (%s) has zero units",
                                i, fleetFaultKindName(ev.kind));
    }
    return "";
}

FleetSimulation::FleetSimulation(FleetConfig cfg)
    : cfg_(std::move(cfg))
{
    const std::string err = cfg_.validate();
    fatal_if(!err.empty(), "fleet: %s", err.c_str());

    for (const FleetHostSpec &h : cfg_.hosts) {
        Host host;
        host.spec = h;
        host.freeBoxes = h.boxCapacity;
        hosts_.push_back(std::move(host));
    }

    poolFree_ = cfg_.sharedPoolFpgas > 0
        ? static_cast<std::size_t>(cfg_.sharedPoolFpgas) : 0;

    jobs_.reserve(cfg_.jobs.size());
    for (std::size_t i = 0; i < cfg_.jobs.size(); ++i) {
        const FleetJobSpec &spec = cfg_.jobs[i];
        Job job;
        job.spec = spec;
        job.boxesNeeded = boxesFor(spec);
        job.poolRequest = prepPoolSize(spec.config);
        job.result.job = spec.name;
        job.result.priority = spec.priority;
        job.result.arrival = spec.arrival;
        job.result.boxesUsed = job.boxesNeeded;
        jobs_.push_back(std::move(job));
    }
}

FleetSimulation::~FleetSimulation() = default;

int
FleetSimulation::pickHost(const Job &job) const
{
    // available() excludes down hosts and slots fenced by open BoxLoss
    // windows; with fleet faults disabled it equals freeBoxes exactly.
    int best = -1;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (hosts_[h].available() < job.boxesNeeded)
            continue;
        if (cfg_.policy == PlacementPolicy::FirstFit)
            return static_cast<int>(h);
        // Packed / PrepPoolAware: best-fit — the fullest host that
        // still fits, keeping large contiguous blocks free.
        if (best < 0 ||
            hosts_[h].available() <
                hosts_[static_cast<std::size_t>(best)].available())
            best = static_cast<int>(h);
    }
    return best;
}

bool
FleetSimulation::admit(std::size_t j, std::size_t host)
{
    Job &job = jobs_[j];
    ServerConfig config = job.spec.config;

    const std::size_t request = job.poolRequest;
    std::size_t granted = request;
    if (cfg_.sharedPoolFpgas >= 0) {
        granted = std::min(request, poolFree_);
        // Rewrite the config only when the grant actually cuts the
        // request: a full grant leaves the job's plan byte-identical
        // to a standalone run.
        if (granted != request)
            config.prepPoolFpgas = static_cast<int>(granted);
        poolFree_ -= granted;
        poolGranted_ += granted;
        checkPoolLedger();
    }

    job.host = host;
    job.result.host = hosts_[host].spec.name;
    if (job.attempts == 0) {
        job.result.started = core_.now();
        job.result.queueingDelay = core_.now() - job.spec.arrival;
    } else {
        // Re-placement after a failure: attribute the failure-to-
        // re-admission gap (backoff + any capacity wait).
        const Time gap = core_.now() - job.failedAt;
        job.result.replacementLatency += gap;
        replacementSum_ += gap;
        maxReplacement_ = std::max(maxReplacement_, gap);
        ++replacementCount_;
    }
    job.result.poolFpgasRequested = request;
    job.result.poolFpgasGranted = granted;
    job.result.poolConstrained = granted != request;
    job.result.admitted = true;
    job.result.state = FleetJobState::Running;

    hosts_[host].freeBoxes -= job.boxesNeeded;
    // Attempt 0 keeps the historical plain prefix (bit-identity with
    // PR 9 runs); retries get a distinct namespace so both attempts'
    // resources coexist on the shared registry. A retry restarts from
    // the job's last durable checkpoint: measured steps banked by
    // failed attempts are subtracted, so only the lost tail replays.
    const std::string prefix = job.attempts == 0
        ? job.spec.name + "."
        : job.spec.name + ".r" + std::to_string(job.attempts) + ".";
    const std::size_t measure = job.spec.measureSteps - job.measureDone;
    job.server = buildServer(config, &core_, prefix);
    job.session = std::make_unique<TrainingSession>(*job.server);
    job.session->onDone([this, j] { onJobDone(j); });
    job.session->start(job.spec.warmupSteps, measure);
    job.admitStamp = ++admitSeq_;
    ++job.attempts;
    job.running = true;
    job.waiting = false;
    return true;
}

void
FleetSimulation::tryAdmit()
{
    // Admission order: priority desc, then arrival, then trace index.
    // Re-sorted per round — the waiting set changes as jobs land.
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<std::size_t> order = waiting_;
        std::sort(order.begin(), order.end(),
                  [this](std::size_t a, std::size_t b) {
                      const FleetJobSpec &ja = jobs_[a].spec;
                      const FleetJobSpec &jb = jobs_[b].spec;
                      if (ja.priority != jb.priority)
                          return ja.priority > jb.priority;
                      if (ja.arrival != jb.arrival)
                          return ja.arrival < jb.arrival;
                      return a < b;
                  });
        for (std::size_t j : order) {
            Job &job = jobs_[j];
            const int host = pickHost(job);
            if (host < 0)
                continue;
            if (cfg_.policy == PlacementPolicy::PrepPoolAware &&
                cfg_.sharedPoolFpgas >= 0) {
                // Yield to a waiting job whose pool request fits whole:
                // a partial grant now would fragment the pool while a
                // clean grant is available.
                if (job.poolRequest > poolFree_) {
                    bool betterFit = false;
                    for (std::size_t k : order) {
                        if (k == j || !jobs_[k].waiting)
                            continue;
                        const std::size_t rk = jobs_[k].poolRequest;
                        if (rk > 0 && rk <= poolFree_) {
                            betterFit = true;
                            break;
                        }
                    }
                    if (betterFit)
                        continue;
                }
            }
            admit(j, static_cast<std::size_t>(host));
            waiting_.erase(
                std::find(waiting_.begin(), waiting_.end(), j));
            progress = true;
        }
    }
}

void
FleetSimulation::onArrival(std::size_t j)
{
    jobs_[j].waiting = true;
    waiting_.push_back(j);
    tryAdmit();
}

void
FleetSimulation::onJobDone(std::size_t j)
{
    Job &job = jobs_[j];
    job.running = false;
    job.result.finished = core_.now();
    job.result.completed = true;
    job.result.state = FleetJobState::Completed;
    // Snapshot the report at the completion instant: the shared
    // utilization histograms keep advancing while other jobs run, and
    // post-done idle time must not dilute this job's averages.
    job.result.report =
        SessionReport::build(*job.server, job.session->collect());
    job.cumWall += job.result.report.wallTime();
    job.cumPreemptions += job.result.report.elasticity().preemptions;
    job.cumFaults += job.result.report.faults().faultsInjected;
    ++terminal_;

    // Release held capacity. The server itself stays alive: repairs or
    // joins of windows already open and guarded timers may still reach
    // it (as no-ops; the session cancelled its flows as it finished).
    releaseCapacity(job);

    tryAdmit();
}

void
FleetSimulation::releaseCapacity(Job &job)
{
    hosts_[job.host].freeBoxes += job.boxesNeeded;
    if (cfg_.sharedPoolFpgas >= 0) {
        poolFree_ += job.result.poolFpgasGranted;
        poolGranted_ -= job.result.poolFpgasGranted;
        checkPoolLedger();
    }
}

void
FleetSimulation::checkPoolLedger() const
{
    if (cfg_.sharedPoolFpgas < 0)
        return;
    const std::size_t total =
        static_cast<std::size_t>(cfg_.sharedPoolFpgas);
    panic_if(poolGranted_ + poolFree_ + poolPartitioned_ != total,
             "pool grant ledger violated: granted %zu + free %zu + "
             "partitioned %zu != pool %zu",
             poolGranted_, poolFree_, poolPartitioned_, total);
}

void
FleetSimulation::freezeAttempt(std::size_t j)
{
    Job &job = jobs_[j];
    job.session->kill();
    // Snapshot the ledger-consistent partial report and fold the
    // attempt into the job's cumulative rollups — abnormal ends count
    // in fleet stats exactly like completions.
    job.result.report =
        SessionReport::build(*job.server, job.session->collect());
    job.cumWall += job.result.report.wallTime();
    job.cumPreemptions += job.result.report.elasticity().preemptions;
    job.cumFaults += job.result.report.faults().faultsInjected;
}

void
FleetSimulation::killJob(std::size_t j)
{
    Job &job = jobs_[j];
    panic_if(!job.running, "fleet: killJob on non-running job %s",
             job.spec.name.c_str());
    const Time now = core_.now();
    const std::size_t synced = job.session->stepsSynced();
    const std::size_t durable = job.session->lastDurableStep();
    const std::size_t banked = job.session->durableMeasuredSteps();
    // Remaining measured steps this attempt was running (its start()
    // argument) — banked progress from earlier failures is already off.
    const std::size_t attempt_measure =
        job.spec.measureSteps - job.measureDone;

    freezeAttempt(j);
    job.result.workLost += job.result.report.wallTime();
    job.result.stepsLost += synced > durable ? synced - durable : 0;
    // Bank the measured steps this attempt durably checkpointed: the
    // retry replays only from there (PR 3's restart machinery prices
    // the rollback; without checkpointing durable == 0 and the retry
    // starts from scratch). Strictly < attempt_measure — a fully
    // durable final step would have completed the job.
    job.measureDone += std::min(banked, attempt_measure - 1);

    // The dead attempt's server/session must outlive it (guarded timers
    // and repairs or joins of open windows still fire into no-ops), but
    // the job slot needs room for the retry: retire the pair.
    retiredServers_.push_back(std::move(job.server));
    retiredSessions_.push_back(std::move(job.session));
    job.running = false;
    releaseCapacity(job);

    job.result.restarts += 1;
    job.failedAt = now;
    if (job.result.restarts > cfg_.faults.maxRetries) {
        job.result.state = FleetJobState::Abandoned;
        ++terminal_;
        return;
    }
    // Queued → ... → Failed → Requeued: exponential backoff, plus the
    // checkpoint restart latency when the job will actually restore.
    job.result.state = FleetJobState::Requeued;
    Time delay = cfg_.faults.retryBackoffBase *
        std::pow(cfg_.faults.retryBackoffFactor,
                 static_cast<double>(job.result.restarts - 1));
    if (job.spec.config.checkpoint.enabled)
        delay += job.spec.config.checkpoint.restartLatency;
    core_.events().scheduleIn(delay, [this, j] {
        jobs_[j].waiting = true;
        waiting_.push_back(j);
        tryAdmit();
    });
}

void
FleetSimulation::evictForLostBoxes(std::size_t host)
{
    Host &h = hosts_[host];
    // Fenced slots may overlap occupied ones: evict the most recently
    // admitted co-resident jobs (minimizing lost work) until the free
    // slots cover the fenced count. Each eviction releases capacity,
    // so the loop strictly progresses.
    while (h.freeBoxes < h.lostBoxes) {
        int victim = -1;
        std::uint64_t newest = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const Job &job = jobs_[j];
            if (!job.running || job.host != host)
                continue;
            if (victim < 0 || job.admitStamp > newest) {
                victim = static_cast<int>(j);
                newest = job.admitStamp;
            }
        }
        if (victim < 0)
            break;
        killJob(static_cast<std::size_t>(victim));
    }
}

void
FleetSimulation::onFleetFault(const FleetFaultEvent &ev, std::size_t idx)
{
    switch (ev.kind) {
    case FleetFaultKind::HostOutage: {
        Host &host = hosts_[ev.host];
        if (host.downDepth++ == 0)
            host.downSince = core_.now();
        // Failure detection: every co-resident session dies with the
        // host, and each killed job is requeued or abandoned on the
        // spot (its grant returns to the pool for immediate
        // re-lending).
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            if (jobs_[j].running && jobs_[j].host == ev.host)
                killJob(j);
        break;
    }
    case FleetFaultKind::BoxLoss: {
        Host &host = hosts_[ev.host];
        const std::size_t room = host.spec.boxCapacity - host.lostBoxes;
        const std::size_t applied = std::min(ev.units, room);
        faultApplied_[idx] = applied;
        host.lostBoxes += applied;
        if (!host.down())
            evictForLostBoxes(ev.host);
        break;
    }
    case FleetFaultKind::PoolPartition: {
        // The partition fences *free* FPGAs only: grants in use run on
        // the jobs' own fabric slices and ride out the window.
        if (cfg_.sharedPoolFpgas < 0)
            break;
        const std::size_t cut = std::min(ev.units, poolFree_);
        faultApplied_[idx] = cut;
        poolFree_ -= cut;
        poolPartitioned_ += cut;
        checkPoolLedger();
        break;
    }
    }
}

void
FleetSimulation::onFleetRepair(const FleetFaultEvent &ev, std::size_t idx)
{
    switch (ev.kind) {
    case FleetFaultKind::HostOutage: {
        Host &host = hosts_[ev.host];
        if (host.downDepth > 0 && --host.downDepth == 0) {
            host.downTime += core_.now() - host.downSince;
            tryAdmit();
        }
        break;
    }
    case FleetFaultKind::BoxLoss: {
        Host &host = hosts_[ev.host];
        host.lostBoxes -= std::min(host.lostBoxes, faultApplied_[idx]);
        tryAdmit();
        break;
    }
    case FleetFaultKind::PoolPartition: {
        if (cfg_.sharedPoolFpgas < 0)
            break;
        poolFree_ += faultApplied_[idx];
        poolPartitioned_ -= faultApplied_[idx];
        checkPoolLedger();
        tryAdmit();
        break;
    }
    }
}

bool
FleetSimulation::allDone() const
{
    return terminal_ == jobs_.size();
}

FleetReport
FleetSimulation::run()
{
    EventQueue &eq = core_.events();
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        eq.schedule(jobs_[j].spec.arrival, [this, j] { onArrival(j); });
    if (cfg_.horizon > 0.0)
        eq.schedule(cfg_.horizon, [this] { horizonHit_ = true; });

    // Fleet fault injection: armed after arrivals/horizon so the
    // disabled path schedules zero events and every sequence number —
    // and therefore every pinned golden — stays bit-identical.
    if (cfg_.faults.enabled) {
        fleetFaults_ = std::make_unique<FleetFaultInjector>(
            cfg_.faults, hosts_.size(), cfg_.horizon);
        faultApplied_.assign(fleetFaults_->events().size(), 0);
        fleetFaults_->arm(
            eq,
            [this](const FleetFaultEvent &ev, std::size_t i) {
                onFleetFault(ev, i);
            },
            [this](const FleetFaultEvent &ev, std::size_t i) {
                onFleetRepair(ev, i);
            });
    }

    // Stop on all-jobs-done (or the safety horizon) rather than on an
    // empty queue: finished sessions disarm their injectors and cancel
    // their flows, but repairs or joins of open windows, guarded timers
    // and fleet fault windows past the last completion may still wait.
    while (!allDone() && !horizonHit_ && eq.step()) {
    }
    panic_if(!allDone() && !horizonHit_,
             "fleet stalled: queue drained with %zu/%zu jobs terminal",
             terminal_, jobs_.size());

    // Freeze jobs cut off by the horizon: their ledger-consistent
    // partial reports enter the rollups, and the conservation ledger
    // counts them runningAtHorizon. Close still-open outage windows for
    // the host-down-time accounting.
    if (horizonHit_)
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            if (jobs_[j].running) {
                freezeAttempt(j);
                jobs_[j].running = false;
            }
    for (Host &h : hosts_)
        if (h.down()) {
            h.downTime += core_.now() - h.downSince;
            h.downDepth = 0;
        }
    return buildReport();
}

FleetReport
FleetSimulation::buildReport()
{
    FleetReport r;
    r.policy = placementPolicyName(cfg_.policy);
    r.jobsTotal = jobs_.size();
    r.poolFpgasTotal = cfg_.sharedPoolFpgas > 0
        ? static_cast<std::size_t>(cfg_.sharedPoolFpgas) : 0;
    r.eventsExecuted = core_.events().numExecuted();

    double ratioSum = 0.0, ratioSqSum = 0.0;
    std::size_t nRatios = 0;
    std::vector<double> walls;
    Time delaySum = 0.0;
    std::size_t admitted = 0;
    std::size_t queuedAtEnd = 0;

    for (Job &job : jobs_) {
        const FleetJobResult &res = job.result;
        if (res.admitted) {
            ++admitted;
            delaySum += res.queueingDelay;
            r.maxQueueingDelay =
                std::max(r.maxQueueingDelay, res.queueingDelay);
            if (res.queueingDelay > 0.0)
                ++r.jobsQueued;
            r.poolFpgasRequestedTotal += res.poolFpgasRequested;
            r.poolFpgasGrantedTotal += res.poolFpgasGranted;
            if (res.poolConstrained)
                ++r.jobsPoolConstrained;
            if (res.poolFpgasRequested > 0) {
                const double ratio =
                    static_cast<double>(res.poolFpgasGranted) /
                    static_cast<double>(res.poolFpgasRequested);
                ratioSum += ratio;
                ratioSqSum += ratio * ratio;
                ++nRatios;
            }
            // Straggler/robustness rollups cover every *attempted*
            // job — failed and frozen attempts included via the
            // cumulative accumulators, so abnormal terminations are
            // never silently dropped from fleet stats. For a fully
            // completed fleet these equal the per-report sums exactly.
            walls.push_back(job.cumWall);
            r.preemptions += job.cumPreemptions;
            r.faultsInjected += job.cumFaults;
        }
        if (res.completed) {
            ++r.jobsCompleted;
            r.makespan = std::max(r.makespan, res.finished);
            r.aggregateThroughput += res.report.throughput();
        }
        switch (res.state) {
        case FleetJobState::Completed:
            break;
        case FleetJobState::Abandoned:
            ++r.jobsAbandoned;
            break;
        case FleetJobState::Running:
            ++r.jobsRunningAtHorizon;
            break;
        case FleetJobState::Queued:
        case FleetJobState::Requeued:
            ++queuedAtEnd;
            break;
        case FleetJobState::Failed:
            panic("fleet: job %s left in transient Failed state",
                  res.job.c_str());
        }
        r.restartsTotal += res.restarts;
        r.stepsLostTotal += res.stepsLost;
        r.workLostTime += res.workLost;
        r.jobs.push_back(std::move(job.result));
    }
    r.jobsQueuedAtHorizon = queuedAtEnd;

    // The fleet-wide conservation ledger: every submitted job is in
    // exactly one terminal-or-parked state when the run ends.
    panic_if(r.jobsCompleted + r.jobsAbandoned + r.jobsRunningAtHorizon +
                     queuedAtEnd !=
                 r.jobsTotal,
             "fleet job ledger violated: %zu completed + %zu abandoned "
             "+ %zu running + %zu queued != %zu submitted",
             r.jobsCompleted, r.jobsAbandoned, r.jobsRunningAtHorizon,
             queuedAtEnd, r.jobsTotal);

    if (replacementCount_ > 0)
        r.avgReplacementLatency =
            replacementSum_ / static_cast<double>(replacementCount_);
    r.maxReplacementLatency = maxReplacement_;
    r.fleetFaultsInjected = fleetFaults_ ? fleetFaults_->faultsInjected()
                                         : 0;
    for (const Host &h : hosts_)
        r.hostDownTime += h.downTime;
    std::size_t maxRestarts = 0;
    for (const FleetJobResult &res : r.jobs)
        maxRestarts = std::max(maxRestarts, res.restarts);
    r.retryHistogram.assign(maxRestarts + 1, 0);
    for (const FleetJobResult &res : r.jobs)
        ++r.retryHistogram[res.restarts];

    if (admitted > 0)
        r.avgQueueingDelay = delaySum / static_cast<double>(admitted);
    if (nRatios > 0 && ratioSqSum > 0.0)
        r.poolFairness = (ratioSum * ratioSum) /
            (static_cast<double>(nRatios) * ratioSqSum);
    if (!walls.empty()) {
        std::sort(walls.begin(), walls.end());
        const double median = walls[walls.size() / 2];
        if (median > 0.0)
            r.stragglerRatio = walls.back() / median;
    }
    return r;
}

FleetReport
runFleet(FleetConfig cfg)
{
    FleetSimulation fleet(std::move(cfg));
    return fleet.run();
}

ReportNode
fieldTable(const FleetReport &r)
{
    using F = ReportNode::Format;
    ReportNode root("fleet");
    root.text("policy", r.policy)
        .num("jobs_total", r.jobsTotal, F::Integer)
        .num("jobs_completed", r.jobsCompleted, F::Integer)
        .num("makespan_s", r.makespan, F::Fixed)
        .num("aggregate_throughput", r.aggregateThroughput, F::Fixed)
        .num("avg_queueing_delay_s", r.avgQueueingDelay, F::Fixed)
        .num("max_queueing_delay_s", r.maxQueueingDelay, F::Fixed)
        .num("jobs_queued", r.jobsQueued, F::Integer)
        .num("pool_fpgas_total", r.poolFpgasTotal, F::Integer)
        .num("pool_fpgas_requested", r.poolFpgasRequestedTotal, F::Integer)
        .num("pool_fpgas_granted", r.poolFpgasGrantedTotal, F::Integer)
        .num("jobs_pool_constrained", r.jobsPoolConstrained, F::Integer)
        .num("pool_fairness", r.poolFairness, F::Fixed)
        .num("straggler_ratio", r.stragglerRatio, F::Fixed)
        .num("preemptions", r.preemptions, F::Integer)
        .num("faults_injected", r.faultsInjected, F::Integer)
        .num("events_executed", r.eventsExecuted, F::Integer)
        .num("jobs_abandoned", r.jobsAbandoned, F::Integer)
        .num("jobs_running_at_horizon", r.jobsRunningAtHorizon, F::Integer)
        .num("jobs_queued_at_horizon", r.jobsQueuedAtHorizon, F::Integer)
        .num("restarts_total", r.restartsTotal, F::Integer)
        .num("steps_lost_total", r.stepsLostTotal, F::Integer)
        .num("work_lost_s", r.workLostTime, F::Fixed)
        .num("avg_replacement_latency_s", r.avgReplacementLatency, F::Fixed)
        .num("max_replacement_latency_s", r.maxReplacementLatency, F::Fixed)
        .num("fleet_faults_injected", r.fleetFaultsInjected, F::Integer)
        .num("host_down_time_s", r.hostDownTime, F::Fixed);
    ReportNode &retries = root.array("retry_histogram", "retry_histogram");
    for (std::size_t k = 0; k < r.retryHistogram.size(); ++k)
        retries.num(std::to_string(k), r.retryHistogram[k], F::Integer);
    ReportNode &jobs = root.array("jobs", "");
    for (const FleetJobResult &j : r.jobs)
        jobs.object("", "job." + j.job)
            .text("name", j.job).csvAs("", "") // the section names the job
            .text("host", j.host)
            .num("priority", j.priority, F::Integer)
            .num("arrival_s", j.arrival, F::Fixed)
            .num("started_s", j.started, F::Fixed)
            .num("finished_s", j.finished, F::Fixed)
            .num("queueing_delay_s", j.queueingDelay, F::Fixed)
            .num("boxes", j.boxesUsed, F::Integer)
            .num("pool_fpgas_requested", j.poolFpgasRequested, F::Integer)
            .num("pool_fpgas_granted", j.poolFpgasGranted, F::Integer)
            .flag("pool_constrained", j.poolConstrained)
            .flag("admitted", j.admitted)
            .flag("completed", j.completed)
            .num("throughput", j.completed ? j.report.throughput() : 0.0,
                 F::Fixed)
            .num("wall_time_s", j.completed ? j.report.wallTime() : 0.0,
                 F::Fixed)
            .text("state", fleetJobStateName(j.state))
            .num("restarts", j.restarts, F::Integer)
            .num("steps_lost", j.stepsLost, F::Integer)
            .num("work_lost_s", j.workLost, F::Fixed)
            .num("replacement_latency_s", j.replacementLatency, F::Fixed);
    return root;
}

void
FleetReport::print(std::FILE *out) const
{
    std::fprintf(out, "=== Fleet report (%s) ===\n", policy.c_str());
    std::fprintf(out,
                 "jobs: %zu/%zu completed   makespan: %.3f s   "
                 "aggregate throughput: %.1f samples/s\n",
                 jobsCompleted, jobsTotal, makespan,
                 aggregateThroughput);
    std::fprintf(out,
                 "queueing: avg %.3f s, max %.3f s (%zu jobs waited)\n",
                 avgQueueingDelay, maxQueueingDelay, jobsQueued);
    if (poolFpgasTotal > 0)
        std::fprintf(out,
                     "prep pool: %zu FPGAs, %zu requested, %zu granted "
                     "(%zu jobs constrained), fairness %.3f\n",
                     poolFpgasTotal, poolFpgasRequestedTotal,
                     poolFpgasGrantedTotal, jobsPoolConstrained,
                     poolFairness);
    std::fprintf(out,
                 "straggler ratio: %.2f   preemptions: %zu   faults: "
                 "%zu   events: %llu\n",
                 stragglerRatio, preemptions, faultsInjected,
                 static_cast<unsigned long long>(eventsExecuted));
    if (fleetFaultsInjected > 0 || restartsTotal > 0 ||
        jobsAbandoned > 0)
        std::fprintf(out,
                     "fleet faults: %zu   restarts: %zu   abandoned: "
                     "%zu   work lost: %.3f s   steps lost: %zu   host "
                     "down: %.3f s   re-place avg/max: %.3f/%.3f s\n",
                     fleetFaultsInjected, restartsTotal, jobsAbandoned,
                     workLostTime, stepsLostTotal, hostDownTime,
                     avgReplacementLatency, maxReplacementLatency);
    std::fprintf(out, "%-12s %-10s %4s %10s %10s %10s %6s %6s %12s\n",
                 "job", "host", "prio", "arrival", "queued_s",
                 "wall_s", "pool", "grant", "samples/s");
    for (const FleetJobResult &j : jobs) {
        char note[48];
        if (j.completed && j.restarts > 0)
            std::snprintf(note, sizeof(note), "  (%zu restarts)",
                          j.restarts);
        else if (!j.completed)
            std::snprintf(note, sizeof(note), "  (%s)",
                          fleetJobStateName(j.state));
        else
            note[0] = '\0';
        std::fprintf(
            out, "%-12s %-10s %4d %10.3f %10.3f %10.3f %6zu %6zu %12.1f%s\n",
            j.job.c_str(), j.admitted ? j.host.c_str() : "-", j.priority,
            j.arrival, j.queueingDelay,
            j.completed ? j.report.wallTime() : 0.0,
            j.poolFpgasRequested, j.poolFpgasGranted,
            j.completed ? j.report.throughput() : 0.0,
            note);
    }
}

} // namespace tb
