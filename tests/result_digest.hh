/**
 * @file
 * One FNV-1a digest of every SessionResult field, for tests that pin
 * whole session results: a refactor that moves session code must leave
 * every digest as it is. Doubles print with %a, so a one-ulp move
 * changes the digest.
 */

#ifndef TRAINBOX_TESTS_RESULT_DIGEST_HH
#define TRAINBOX_TESTS_RESULT_DIGEST_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "trainbox/training_session.hh"

namespace tb {

/** FNV-1a over the bytes of @p text, continuing from @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Every field of @p r, one per line; doubles print with %a so a
 * one-ulp move changes the text.
 */
inline std::string
dumpResult(const SessionResult &r)
{
    std::string out;
    auto num = [&out](const std::string &key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " %a\n", v);
        out += key + buf;
    };
    auto count = [&out](const std::string &key, std::size_t v) {
        out += key + " " + std::to_string(v) + "\n";
    };
    auto table = [&num](const std::string &key,
                        const std::map<std::string, double> &m) {
        for (const auto &[name, v] : m)
            num(key + "." + name, v);
    };
    num("throughput", r.throughput);
    num("stepTime", r.stepTime);
    num("computeTime", r.computeTime);
    num("syncTime", r.syncTime);
    table("prepStageTime", r.prepStageTime);
    num("prepLatency", r.prepLatency);
    count("stepsMeasured", r.stepsMeasured);
    table("cpu", r.cpuCoresByCategory);
    table("mem", r.memBwByCategory);
    table("rc", r.rcBwByCategory);

    const auto &f = r.faults;
    count("faults.injected", f.faultsInjected);
    count("faults.readFailures", f.readFailures);
    count("faults.ssdRetries", f.ssdRetries);
    count("faults.chunksAbandoned", f.chunksAbandoned);
    count("faults.prepFailovers", f.prepFailovers);
    count("faults.computeRedispatches", f.computeRedispatches);
    count("faults.stragglerSteps", f.stragglerSteps);
    num("faults.degradedTime", f.degradedTime);

    const auto &in = r.integrity;
    count("integrity.injected", in.injected);
    count("integrity.detected", in.detected);
    count("integrity.escaped", in.escaped);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        count("integrity.byKind." + std::to_string(k),
              in.injectedByKind[k]);
    count("integrity.pcieReplays", in.pcieReplays);
    count("integrity.recoveries", in.recoveries);
    count("integrity.chunksQuarantined", in.chunksQuarantined);

    const auto &c = r.checkpoint;
    count("ckpt.committed", c.committed);
    count("ckpt.skipped", c.skipped);
    count("ckpt.fatalCrashes", c.fatalCrashes);
    count("ckpt.stepsLost", c.stepsLost);
    num("ckpt.bytesWritten", c.bytesWritten);
    num("ckpt.pauseTime", c.pauseTime);
    num("ckpt.lostWorkTime", c.lostWorkTime);
    num("ckpt.restartTime", c.restartTime);
    num("ckpt.avgCost", c.avgCost);

    const auto &e = r.elasticity;
    count("elastic.events", e.events);
    count("elastic.drains", e.drains);
    count("elastic.preemptions", e.preemptions);
    count("elastic.joins", e.joins);
    count("elastic.chainsRebalanced", e.chainsRebalanced);
    num("elastic.samplesLostToPreemption", e.samplesLostToPreemption);
    num("elastic.samplesSavedByDrain", e.samplesSavedByDrain);
    num("elastic.samplesDroppedAtDrain", e.samplesDroppedAtDrain);
    num("elastic.degradedCapacityTime", e.degradedCapacityTime);
    num("elastic.zeroCapacityTime", e.zeroCapacityTime);
    num("elastic.rebalanceTime", e.rebalanceTime);
    num("elastic.avgActiveFraction", e.avgActiveFraction);
    num("elastic.sloTarget", e.sloTargetSamplesPerSec);
    num("elastic.samplesPrepared", e.samplesPrepared);
    num("elastic.samplesConsumed", e.samplesConsumed);
    num("elastic.samplesCachedAtEnd", e.samplesCachedAtEnd);
    num("elastic.samplesDiscarded", e.samplesDiscarded);

    const auto &s = r.ingest;
    count("ingest.arrivalEvents", s.arrivalEvents);
    count("ingest.overloadTrips", s.overloadTrips);
    count("ingest.stalls", s.stalls);
    count("ingest.writeFlows", s.writeFlows);
    count("ingest.writeRetries", s.writeRetries);
    count("ingest.writeFailures", s.writeFailures);
    num("ingest.samplesArrived", s.samplesArrived);
    num("ingest.samplesAdmitted", s.samplesAdmitted);
    num("ingest.samplesShed", s.samplesShed);
    num("ingest.samplesThrottled", s.samplesThrottled);
    num("ingest.samplesShedPolicy", s.samplesShedPolicy);
    num("ingest.samplesOverflowDropped", s.samplesOverflowDropped);
    num("ingest.samplesAbandonedWrites", s.samplesAbandonedWrites);
    num("ingest.samplesInFlightAtEnd", s.samplesInFlightAtEnd);
    num("ingest.samplesEchoed", s.samplesEchoed);
    num("ingest.overloadTime", s.overloadTime);
    num("ingest.stallTime", s.stallTime);
    num("ingest.peakBufferLevel", s.peakBufferLevel);
    num("ingest.stalenessSum", s.stalenessSum);
    num("ingest.stalenessMax", s.stalenessMax);
    num("ingest.samplesWithinSlo", s.samplesWithinSlo);
    num("ingest.stalenessSloSec", s.stalenessSloSec);
    num("ingest.echoEfficiency", s.echoEfficiency);

    num("wallTime", r.wallTime);
    return out;
}

/** The digest of dumpResult(@p r), as "0x" and 16 hex digits. */
inline std::string
hexDigest(const SessionResult &r)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64,
                  fnv1a(0xcbf29ce484222325ull, dumpResult(r)));
    return buf;
}

} // namespace tb

#endif // TRAINBOX_TESTS_RESULT_DIGEST_HH
