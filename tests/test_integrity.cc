/**
 * @file
 * End-to-end data integrity: CRC32C envelopes and validators on the
 * functional path, corruption injection and detection accounting on the
 * simulated path, and the exact conservation law the subsystem is built
 * around — every injected flip is detected or escaped, never lost:
 *
 *     injected == detected + escaped
 *
 * See docs/ROBUSTNESS.md ("Data integrity & silent corruption").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32c.hh"
#include "common/random.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/integrity.hh"
#include "prep/pipeline.hh"
#include "sim/fault_injector.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

// --- CRC32C ----------------------------------------------------------

TEST(Crc32c, StandardCheckValue)
{
    // The canonical CRC32C check value (RFC 3720 appendix / every
    // published implementation).
    const char digits[] = "123456789";
    EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> data(1024);
    Rng rng(7);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

    const std::uint32_t whole = crc32c(data.data(), data.size());
    std::uint32_t inc = 0;
    inc = crc32c(data.data(), 100, inc);
    inc = crc32c(data.data() + 100, 500, inc);
    inc = crc32c(data.data() + 600, data.size() - 600, inc);
    EXPECT_EQ(inc, whole);
}

TEST(Crc32c, EmptyInputIsZero)
{
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

// --- envelope --------------------------------------------------------

TEST(Envelope, SealOpenRoundTrip)
{
    std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
    const std::vector<std::uint8_t> original = bytes;
    prep::sealItem(bytes);
    EXPECT_EQ(bytes.size(), original.size() + prep::kEnvelopeBytes);

    std::string error;
    EXPECT_TRUE(prep::openItem(bytes, &error)) << error;
    EXPECT_EQ(bytes, original);
}

TEST(Envelope, EmptyPayloadRoundTrips)
{
    std::vector<std::uint8_t> bytes;
    prep::sealItem(bytes);
    EXPECT_EQ(bytes.size(), prep::kEnvelopeBytes);
    std::string error;
    EXPECT_TRUE(prep::openItem(bytes, &error)) << error;
    EXPECT_TRUE(bytes.empty());
}

TEST(Envelope, EverySingleBitFlipIsDetected)
{
    // Exhaustive: flipping any single bit of a sealed item — payload or
    // footer — must fail verification. This is the whole point of the
    // envelope; a CRC detects all 1-bit errors by construction.
    std::vector<std::uint8_t> sealed = {10, 20, 30, 40, 50, 60, 70};
    prep::sealItem(sealed);
    for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
        auto corrupt = sealed;
        corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        std::string error;
        EXPECT_FALSE(prep::openItem(corrupt, &error))
            << "bit " << bit << " not detected";
        EXPECT_EQ(prep::quarantineReason(error), "checksum_mismatch");
    }
}

TEST(Envelope, TruncatedAndUnsealedItemsRejected)
{
    std::vector<std::uint8_t> tiny = {1, 2, 3};
    std::string error;
    EXPECT_FALSE(prep::openItem(tiny, &error));
    EXPECT_EQ(tiny.size(), 3u); // left unchanged on failure

    // A plausible-size buffer without the magic.
    std::vector<std::uint8_t> unsealed(64, 0xAB);
    EXPECT_FALSE(prep::openItem(unsealed, &error));
    EXPECT_EQ(prep::quarantineReason(error), "checksum_mismatch");
}

// --- validators ------------------------------------------------------

TEST(Validators, ImageTensorScreens)
{
    std::string error;
    EXPECT_TRUE(prep::validateImageTensor({0.0f, 128.5f, 255.0f}, &error));

    EXPECT_FALSE(prep::validateImageTensor({}, &error));
    EXPECT_FALSE(prep::validateImageTensor(
        {1.0f, std::numeric_limits<float>::quiet_NaN()}, &error));
    EXPECT_EQ(prep::quarantineReason(error), "tensor_invalid");
    EXPECT_FALSE(prep::validateImageTensor(
        {std::numeric_limits<float>::infinity()}, &error));
    EXPECT_FALSE(prep::validateImageTensor({-1.0f}, &error));
    EXPECT_FALSE(prep::validateImageTensor({256.0f}, &error));
}

TEST(Validators, AudioFeatureScreens)
{
    std::string error;
    EXPECT_TRUE(prep::validateAudioFeatures({-12.5, 0.0, 3.25}, &error));
    EXPECT_FALSE(prep::validateAudioFeatures({}, &error));
    EXPECT_FALSE(prep::validateAudioFeatures(
        {0.0, std::numeric_limits<double>::quiet_NaN()}, &error));
    EXPECT_EQ(prep::quarantineReason(error), "tensor_invalid");
}

TEST(Validators, FlipRandomBitChangesExactlyOneBit)
{
    Rng rng(11);
    std::vector<std::uint8_t> bytes(32, 0);
    auto flipped = bytes;
    prep::flipRandomBit(flipped, rng);
    int diff_bits = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::uint8_t x = bytes[i] ^ flipped[i];
        while (x) {
            diff_bits += x & 1;
            x >>= 1;
        }
    }
    EXPECT_EQ(diff_bits, 1);

    // Double flavour: the bit pattern must change (value may even become
    // NaN — that is the point).
    std::vector<double> wave(16, 0.25);
    auto wave2 = wave;
    prep::flipRandomBit(wave2, rng);
    bool changed = false;
    for (std::size_t i = 0; i < wave.size(); ++i) {
        std::uint64_t a, b;
        std::memcpy(&a, &wave[i], 8);
        std::memcpy(&b, &wave2[i], 8);
        if (a != b)
            changed = true;
    }
    EXPECT_TRUE(changed);
}

// --- executor: checksummed items and output validation ---------------

TEST(ExecutorIntegrity, FlippedSealedItemsQuarantineAsChecksum)
{
    Rng gen(31);
    const auto jpeg = prep::makeSyntheticJpeg(64, 64, gen);

    constexpr std::size_t kItems = 12;
    std::vector<std::vector<std::uint8_t>> items;
    Rng flip(32);
    for (std::size_t i = 0; i < kItems; ++i) {
        auto bytes = jpeg;
        prep::sealItem(bytes);
        if (i % 3 == 0) // corrupt every third item
            prep::flipRandomBit(bytes, flip);
        items.push_back(std::move(bytes));
    }

    prep::ExecutorConfig cfg;
    cfg.numWorkers = 2;
    cfg.checksummedItems = true;
    cfg.validateOutputs = true;
    cfg.maxItemRetries = 2;
    cfg.image.cropWidth = 32;
    cfg.image.cropHeight = 32;
    prep::PrepExecutor exec(cfg);

    auto futures = exec.submitImageBatch(items);
    std::size_t ok = 0, failed = 0;
    for (auto &f : futures) {
        const prep::PreparedImage out = f.get();
        if (out.ok)
            ++ok;
        else
            ++failed;
    }
    exec.shutdown();

    EXPECT_EQ(ok, kItems - kItems / 3);
    EXPECT_EQ(failed, kItems / 3);

    const auto quarantined = exec.quarantined();
    ASSERT_EQ(quarantined.size(), kItems / 3);
    const auto by_reason = prep::quarantineByReason(quarantined);
    EXPECT_EQ(by_reason.at("checksum_mismatch"), kItems / 3);

    // Checksum failures are deterministic: no retry attempts burned.
    EXPECT_EQ(exec.statsSnapshot().itemsRetried, 0.0);
}

TEST(ExecutorIntegrity, CleanSealedItemsPrepareIdenticallyToUnsealed)
{
    Rng gen(33);
    const auto jpeg = prep::makeSyntheticJpeg(48, 48, gen);

    prep::ExecutorConfig plain;
    plain.numWorkers = 1;
    plain.image.cropWidth = 32;
    plain.image.cropHeight = 32;

    prep::ExecutorConfig sealed_cfg = plain;
    sealed_cfg.checksummedItems = true;
    sealed_cfg.validateOutputs = true;

    std::vector<float> plain_tensor, sealed_tensor;
    {
        prep::PrepExecutor exec(plain);
        auto f = exec.submitImageBatch({jpeg});
        auto out = f[0].get();
        ASSERT_TRUE(out.ok) << out.error;
        plain_tensor = out.tensor;
    }
    {
        auto bytes = jpeg;
        prep::sealItem(bytes);
        prep::PrepExecutor exec(sealed_cfg);
        auto f = exec.submitImageBatch({std::move(bytes)});
        auto out = f[0].get();
        ASSERT_TRUE(out.ok) << out.error;
        sealed_tensor = out.tensor;
    }
    // Envelope verification strips the footer before decode, so the
    // prepared tensor is bit-identical to the unchecked path.
    EXPECT_EQ(plain_tensor, sealed_tensor);
}

TEST(ExecutorIntegrity, CorruptAudioQuarantinesWithReason)
{
    std::vector<std::vector<double>> waves;
    // A clean waveform, one with a NaN, one empty.
    std::vector<double> clean(4000);
    for (std::size_t i = 0; i < clean.size(); ++i)
        clean[i] = 0.1 * std::sin(0.01 * static_cast<double>(i));
    std::vector<double> poisoned = clean;
    poisoned[123] = std::numeric_limits<double>::quiet_NaN();
    waves.push_back(clean);
    waves.push_back(poisoned);
    waves.push_back({});

    prep::ExecutorConfig cfg;
    cfg.numWorkers = 2;
    cfg.validateOutputs = true;
    prep::PrepExecutor exec(cfg);

    auto futures = exec.submitAudioBatch(std::move(waves));
    EXPECT_TRUE(futures[0].get().ok);
    const auto bad = futures[1].get();
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(prep::quarantineReason(bad.error), "audio_malformed");
    EXPECT_FALSE(futures[2].get().ok);
    exec.shutdown();

    const auto by_reason = prep::quarantineByReason(exec.quarantined());
    EXPECT_EQ(by_reason.at("audio_malformed"), 2u);
}

// --- simulator: injection, detection, and the conservation law -------

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 4,
           std::size_t measure = 8)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

ServerConfig
corruptedConfig(ArchPreset preset, bool checks)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16;
    if (preset == ArchPreset::TrainBox)
        cfg.prepPoolFpgas = 8;
    cfg.faults.enabled = true;
    cfg.faults.integrityChecks = checks;
    cfg.faults.corruption.ssdBitFlipProb = 0.02;
    cfg.faults.corruption.pcieErrorProb = 0.01;
    cfg.faults.corruption.fpgaUpsetProb = 0.02;
    cfg.faults.corruption.hostDramFlipProb = 0.01;
    return cfg;
}

TEST(SimIntegrity, ConservationLawHoldsExactly)
{
    for (const bool checks : {false, true}) {
        const SessionResult res =
            runSession(corruptedConfig(ArchPreset::TrainBox, checks));
        const auto &in = res.integrity;
        ASSERT_GT(in.injected, 0u);
        // The invariant the subsystem is named for: nothing vanishes.
        EXPECT_EQ(in.detected + in.escaped, in.injected)
            << "checks=" << checks;
        std::size_t by_kind = 0;
        for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
            by_kind += in.injectedByKind[k];
        EXPECT_EQ(by_kind, in.injected);
    }
}

TEST(SimIntegrity, ChecksOffP2pEscapes_ChecksOnCatchesEverything)
{
    const SessionResult off =
        runSession(corruptedConfig(ArchPreset::TrainBox, false));
    const SessionResult on =
        runSession(corruptedConfig(ArchPreset::TrainBox, true));

    // The P2P path skips the host's validated staging copy: silent SSD
    // flips and FPGA upsets sail through when no checksum stage exists.
    EXPECT_GT(off.integrity.escaped, 0u);
    EXPECT_GT(off.integrity.escapeRate(), 0.0);

    // With end-to-end checks every flip is caught.
    EXPECT_GT(on.integrity.injected, 0u);
    EXPECT_EQ(on.integrity.escaped, 0u);
    EXPECT_EQ(on.integrity.detected, on.integrity.injected);
    EXPECT_GT(on.integrity.recoveries, 0u);

    // PCIe link errors are always detected (LCRC + replay), with or
    // without our checks.
    EXPECT_GT(off.integrity.pcieReplays, 0u);
}

TEST(SimIntegrity, BaselineCpuPathCatchesSilentFlipsWithoutChecks)
{
    // The Baseline stages through host DRAM and decodes on the CPU —
    // software touches every byte, so a corrupted sample fails decode
    // rather than escaping. That is exactly the protection the P2P path
    // gives up.
    const SessionResult res =
        runSession(corruptedConfig(ArchPreset::Baseline, false));
    ASSERT_GT(res.integrity.injected, 0u);
    EXPECT_EQ(res.integrity.escaped, 0u);
    EXPECT_EQ(res.integrity.detected, res.integrity.injected);
}

TEST(SimIntegrity, RecoveryBudgetExhaustionQuarantinesChunk)
{
    ServerConfig cfg = corruptedConfig(ArchPreset::TrainBox, true);
    cfg.faults.corruption.ssdBitFlipProb = 0.9;
    cfg.faults.corruption.fpgaUpsetProb = 0.9;

    const SessionResult res = runSession(cfg);
    EXPECT_GT(res.integrity.chunksQuarantined, 0u);
    EXPECT_EQ(res.integrity.detected + res.integrity.escaped,
              res.integrity.injected);
    // Quarantine keeps the session running to completion.
    EXPECT_GT(res.throughput, 0.0);
}

TEST(SimIntegrity, IntegrityTaxReducesCpuBoundThroughput)
{
    // At zero flip probability the checks are pure overhead. Baseline is
    // CPU-bound, so the CRC stage's cycles must cost throughput.
    ServerConfig clean;
    clean.preset = ArchPreset::Baseline;
    clean.model = workload::ModelId::Resnet50;
    clean.numAccelerators = 16;

    ServerConfig taxed = clean;
    taxed.faults.enabled = true;
    taxed.faults.integrityChecks = true; // all probs zero

    const SessionResult a = runSession(clean);
    const SessionResult b = runSession(taxed);
    EXPECT_EQ(b.integrity.injected, 0u);
    EXPECT_LT(b.throughput, a.throughput);
    // ...but the tax is a few percent, not a collapse.
    EXPECT_GT(b.throughput, 0.8 * a.throughput);
}

TEST(SimIntegrity, DisabledCorruptionKnobsAreBitIdentical)
{
    // Armed-but-disabled corruption knobs must not perturb the run at
    // all — same invariant the availability faults already keep.
    ServerConfig base;
    base.preset = ArchPreset::TrainBox;
    base.model = workload::ModelId::Resnet50;
    base.numAccelerators = 16;
    base.prepPoolFpgas = 8;

    ServerConfig knobs = base;
    knobs.faults.corruption.ssdBitFlipProb = 0.5;
    knobs.faults.corruption.pcieErrorProb = 0.5;
    knobs.faults.corruption.fpgaUpsetProb = 0.5;
    knobs.faults.corruption.hostDramFlipProb = 0.5;
    knobs.faults.integrityChecks = true;
    knobs.faults.enabled = false; // master switch off

    const SessionResult a = runSession(base);
    const SessionResult b = runSession(knobs);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
    EXPECT_DOUBLE_EQ(a.prepLatency, b.prepLatency);
    EXPECT_EQ(b.integrity.injected, 0u);
    EXPECT_EQ(b.integrity.detected, 0u);
    EXPECT_EQ(b.integrity.escaped, 0u);
}

// --- determinism pins (same seed => same schedule) -------------------

TEST(SimIntegrity, SameSeedSameCorruptionSchedule)
{
    const ServerConfig cfg = corruptedConfig(ArchPreset::TrainBox, true);
    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);

    EXPECT_EQ(a.integrity.injected, b.integrity.injected);
    EXPECT_EQ(a.integrity.detected, b.integrity.detected);
    EXPECT_EQ(a.integrity.escaped, b.integrity.escaped);
    EXPECT_EQ(a.integrity.recoveries, b.integrity.recoveries);
    EXPECT_EQ(a.integrity.pcieReplays, b.integrity.pcieReplays);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        EXPECT_EQ(a.integrity.injectedByKind[k],
                  b.integrity.injectedByKind[k]);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);

    // A different seed draws a different corruption schedule.
    ServerConfig reseeded = cfg;
    reseeded.faults.seed ^= 0x1;
    const SessionResult c = runSession(reseeded);
    EXPECT_EQ(c.integrity.detected + c.integrity.escaped,
              c.integrity.injected);
    bool any_diff = c.integrity.injected != a.integrity.injected;
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        any_diff = any_diff || c.integrity.injectedByKind[k] !=
                                   a.integrity.injectedByKind[k];
    EXPECT_TRUE(any_diff);
}

TEST(SimIntegrity, MetricsOnOffDoesNotPerturbFaultSchedule)
{
    // The metrics layer observes; it must never consume fault or
    // corruption randomness. Identical schedules either way.
    ServerConfig cfg = corruptedConfig(ArchPreset::TrainBox, true);
    cfg.faults.ssdReadFailureProb = 0.05;

    ServerConfig with_metrics = cfg;
    with_metrics.metricsEnabled = true;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(with_metrics);
    EXPECT_EQ(a.integrity.injected, b.integrity.injected);
    EXPECT_EQ(a.integrity.detected, b.integrity.detected);
    EXPECT_EQ(a.integrity.escaped, b.integrity.escaped);
    EXPECT_EQ(a.faults.readFailures, b.faults.readFailures);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        EXPECT_EQ(a.integrity.injectedByKind[k],
                  b.integrity.injectedByKind[k]);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

// --- report plumbing -------------------------------------------------

TEST(SimIntegrity, ReportCarriesIntegrityAndPrepQuarantine)
{
    const ServerConfig cfg = corruptedConfig(ArchPreset::TrainBox, true);
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    SessionReport report = session.runReport(4, 8);

    EXPECT_GT(report.integrity().injected, 0u);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"integrity\""), std::string::npos);
    EXPECT_NE(json.find("\"escape_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"ssd_bit_flip\""), std::string::npos);

    report.attachPrepQuarantine(100, {{"checksum_mismatch", 3},
                                      {"audio_malformed", 2}});
    EXPECT_EQ(report.prepItemsQuarantined(), 5u);
    const std::string json2 = report.toJson();
    EXPECT_NE(json2.find("\"prep_quarantine\""), std::string::npos);
    EXPECT_NE(json2.find("\"checksum_mismatch\": 3"), std::string::npos);

    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("integrity,injected,"), std::string::npos);
    EXPECT_NE(csv.find("prep_quarantine_by_reason,audio_malformed,2"),
              std::string::npos);
}

} // namespace
} // namespace tb
