/**
 * @file
 * prep_mix: a closed loop through PrepExecutor's callback overloads.
 *
 * The submitting thread keeps a fixed number of items outstanding,
 * nine 256x256 JPEG images (cropped to 224) for every audio utterance,
 * drawn from a corpus generated from the seed. The traced
 * phase adds the nine-operator table: each prep kernel run
 * single-threaded on the same corpus, beside the modeled per-operator
 * CPU cost of workload::prepChain().
 */

#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/crc32c.hh"
#include "common/random.hh"
#include "pins.hh"
#include "prep/audio/audio_ops.hh"
#include "prep/audio/mel.hh"
#include "prep/audio/stft.hh"
#include "prep/audio/wave_gen.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/image/image_ops.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/pipeline.hh"
#include "workload/prep_ops.hh"

namespace perfbench {

std::size_t
prepWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 1 ? n - 1 : 1;
}

namespace {

using namespace tb;

constexpr std::size_t kCorpusImages = 64;
constexpr std::size_t kCorpusUtterances = 4;
constexpr int kImageSide = 256;

/** Every block of this many items holds exactly one audio item. */
constexpr std::size_t kMixBlock = 10;

/** Items whose outputs the digest covers (item order). */
constexpr std::size_t kDigestItems = 64;

/** Executor constructions per run; setup_s is their fastest decile. */
constexpr int kSetupRepeats = 101;

/** Throughput is measured over blocks of this many ok items. */
constexpr std::size_t kRateBlock = 50;

struct Corpus
{
    std::vector<std::vector<std::uint8_t>> jpegs;
    std::vector<std::vector<double>> waves;
};

/** The seed's corpus (generated once per process; not timed). */
const Corpus &
corpusFor(std::uint64_t seed)
{
    static std::uint64_t cachedSeed = 0;
    static std::unique_ptr<Corpus> cached;
    if (!cached || cachedSeed != seed) {
        cached = std::make_unique<Corpus>();
        Rng rng(seed ^ 0x707265706d6978ull);
        for (std::size_t i = 0; i < kCorpusImages; ++i)
            cached->jpegs.push_back(
                prep::makeSyntheticJpeg(kImageSide, kImageSide, rng));
        audio::WaveGenConfig wcfg;
        for (std::size_t i = 0; i < kCorpusUtterances; ++i) {
            wcfg.pitchHz = rng.uniform(90.0, 220.0);
            cached->waves.push_back(audio::generateUtterance(wcfg, rng));
        }
        cachedSeed = seed;
    }
    return *cached;
}

/**
 * Item order: which corpus entry item k is. Each block of kMixBlock
 * items has its one audio item at a seeded position, so every seed
 * offers the same 9:1 image:audio mix.
 */
struct ItemStream
{
    explicit ItemStream(std::uint64_t seed) : rng(seed ^ 0x6974656d73ull) {}

    bool next(std::size_t &index)
    {
        if (k % kMixBlock == 0)
            audioSlot = static_cast<std::size_t>(
                rng.uniformInt(0, kMixBlock - 1));
        const bool isAudio = k++ % kMixBlock == audioSlot;
        index = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(
                   (isAudio ? kCorpusUtterances : kCorpusImages) - 1)));
        return isAudio;
    }

    Rng rng;
    std::size_t k = 0;
    std::size_t audioSlot = 0;
};

/** Closed-loop state shared with the completion callbacks. */
struct Loop
{
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencyMs;
    std::vector<double> okAt; ///< completion times of ok items
    std::uint32_t crcs[kDigestItems] = {};
    double lastCompletion = 0.0;

    void complete(std::size_t k, double submitted, bool itemOk,
                  std::uint32_t crc)
    {
        const double now = hostSeconds();
        std::lock_guard<std::mutex> lock(mutex);
        // A failed item counts as missing any latency limit.
        latencyMs.push_back(itemOk ? (now - submitted) * 1e3
                                   : std::numeric_limits<double>::infinity());
        ++(itemOk ? ok : failed);
        if (itemOk)
            okAt.push_back(now);
        if (k < kDigestItems)
            crcs[k] = crc;
        lastCompletion = now;
        --outstanding;
        cv.notify_one();
    }
};

/** Single-threaded timings over the corpus (ms samples), per kPrepOps. */
struct OpTable
{
    std::vector<double> op[kNumPrepOps];
    std::vector<double> imageChain, audioChain;
};

template <typename Fn>
auto
timed(std::vector<double> &samples, Fn fn)
{
    const double t0 = hostSeconds();
    auto result = fn();
    samples.push_back((hostSeconds() - t0) * 1e3);
    return result;
}

OpTable
measureOps(const Corpus &corpus, std::uint64_t seed)
{
    OpTable t;
    const prep::ImagePrepConfig icfg;
    const prep::AudioPrepConfig acfg;
    Rng rng(seed ^ 0x6f7073ull);
    constexpr int kRounds = 2;
    for (int round = 0; round < kRounds; ++round) {
        for (const auto &jpeg : corpus.jpegs) {
            const jpeg::DecodeResult d =
                timed(t.op[0], [&] { return jpeg::decodeJpeg(jpeg); });
            const Image c = timed(t.op[1], [&] {
                return imageops::randomCrop(d.image, icfg.cropWidth,
                                            icfg.cropHeight, rng);
            });
            const Image m = timed(
                t.op[2], [&] { return imageops::mirrorHorizontal(c); });
            const Image n = timed(t.op[3], [&] {
                return imageops::addGaussianNoise(m, icfg.noiseStddev, rng);
            });
            timed(t.op[4], [&] { return imageops::castToFloatTensor(n); });
            const prep::ImagePrepPipeline pipe(icfg);
            timed(t.imageChain, [&] { return pipe.prepare(jpeg, rng); });
        }
        for (const auto &wave : corpus.waves) {
            const audio::Spectrogram power = timed(
                t.op[5], [&] { return audio::stft(wave, acfg.stft); });
            audio::Spectrogram feats = timed(t.op[6], [&] {
                return audio::logMel(power, acfg.mel, acfg.stft.fftSize);
            });
            timed(t.op[7], [&] {
                audio::applyMasks(feats, acfg.mask, rng);
                return 0;
            });
            timed(t.op[8], [&] {
                audio::normalize(feats);
                return 0;
            });
            const prep::AudioPrepPipeline pipe(acfg);
            timed(t.audioChain, [&] { return pipe.prepare(wave, rng); });
        }
    }
    return t;
}

/** Modeled CPU cost of operator @p name, in core-ms. */
double
modeledCoreMs(workload::InputType input, const std::string &name)
{
    for (const workload::PrepOpCost &op : workload::prepChain(input))
        if (op.name == name)
            return op.cpuCoreSec * 1e3;
    return 0.0;
}

double
modeledChainCoreMs(workload::InputType input)
{
    double sum = 0.0;
    for (const workload::PrepOpCost &op : workload::prepChain(input))
        sum += op.cpuCoreSec * 1e3;
    return sum;
}

void
reportOps(const OpTable &t, Metrics &pl)
{
    std::printf("\nprep operators, single-threaded on the prep_mix corpus "
                "(median ms) vs workload::prepChain() (core-ms):\n");
    std::printf("  %-16s %12s %14s %8s\n", "operator", "measured_ms",
                "modeled_core_ms", "ratio");
    for (std::size_t i = 0; i < kNumPrepOps; ++i) {
        const char *name = kPrepOps[i];
        const double measured = median(t.op[i]);
        const double modeled = modeledCoreMs(
            i < kImageOps ? workload::InputType::Image
                          : workload::InputType::Audio,
            name);
        std::printf("  %-16s %12.4f %14.4f %8.2f\n", name, measured,
                    modeled, modeled > 0.0 ? measured / modeled : 0.0);
        pl[std::string("prep.op.") + name + ".measured_ms"] = {measured,
                                                               "ms"};
        pl[std::string("workload.op.") + name + ".modeled_ms"] = {
            modeled, "core-ms"};
    }
    const double image = median(t.imageChain);
    const double audioMs = median(t.audioChain);
    std::printf("  %-16s %12.4f %14.4f\n", "image chain", image,
                modeledChainCoreMs(workload::InputType::Image));
    std::printf("  %-16s %12.4f %14.4f\n", "audio chain", audioMs,
                modeledChainCoreMs(workload::InputType::Audio));
    std::printf("  (modeled chains include nvme_read, stage_copy and "
                "framework, which the functional chains do not run)\n");
    pl["prep.image_chain_ms"] = {image, "ms"};
    pl["prep.audio_chain_ms"] = {audioMs, "ms"};
}

/**
 * Completion rate of the fastest-decile block of kRateBlock
 * consecutive ok items (all of them when fewer completed); see
 * fastTime(). @p doneAt is in completion order.
 */
double
blockedRate(const std::vector<double> &doneAt, double begin)
{
    if (doneAt.empty())
        return 0.0;
    if (doneAt.size() <= kRateBlock)
        return static_cast<double>(doneAt.size()) / (doneAt.back() - begin);
    std::vector<double> blockSeconds;
    for (std::size_t i = kRateBlock; i < doneAt.size(); i += kRateBlock)
        blockSeconds.push_back(doneAt[i] - doneAt[i - kRateBlock]);
    return static_cast<double>(kRateBlock) / fastTime(blockSeconds);
}

/** CRC32C of a prepared output; @p flip first flips its lowest bit. */
template <typename T>
std::uint32_t
outputCrc(std::vector<T> &values, bool flip)
{
    if (flip && !values.empty())
        reinterpret_cast<unsigned char *>(values.data())[0] ^= 1u;
    return crc32c(values.data(), values.size() * sizeof(T));
}

} // namespace

Outcome
runPrepMix(const RunOptions &opt)
{
    const Corpus &corpus = corpusFor(opt.seed);
    const std::size_t workers = prepWorkers();
    const std::size_t window = 2 * workers;

    prep::ExecutorConfig ecfg;
    ecfg.numWorkers = workers;
    ecfg.baseSeed = opt.seed * 0x9e3779b97f4a7c15ull + 1;

    // Set-up: construct several executors, keep the last.
    std::vector<double> setups;
    std::unique_ptr<prep::PrepExecutor> ex;
    for (int r = 0; r < kSetupRepeats; ++r) {
        ex.reset();
        const double t0 = hostSeconds();
        ex = std::make_unique<prep::PrepExecutor>(ecfg);
        setups.push_back(hostSeconds() - t0);
    }

    Loop loop;
    ItemStream stream(opt.seed);
    std::uint64_t submitted = 0;
    const double begin = hostSeconds();
    while (hostSeconds() - begin < opt.seconds ||
           submitted < kDigestItems) {
        {
            std::unique_lock<std::mutex> lock(loop.mutex);
            loop.cv.wait(lock, [&] { return loop.outstanding < window; });
            ++loop.outstanding;
        }
        const std::size_t k = submitted++;
        const bool flip = opt.corrupt && k == 0;
        std::size_t index = 0;
        const bool isAudio = stream.next(index);
        const double t = hostSeconds();
        if (isAudio) {
            ex->submitAudioBatch(
                {corpus.waves[index]},
                [&loop, k, t, flip](std::size_t, prep::PreparedAudio &&r) {
                    loop.complete(k, t, r.ok,
                                  r.ok ? outputCrc(r.features.power, flip)
                                       : 0);
                });
        } else {
            ex->submitImageBatch(
                {corpus.jpegs[index]},
                [&loop, k, t, flip](std::size_t, prep::PreparedImage &&r) {
                    loop.complete(k, t, r.ok,
                                  r.ok ? outputCrc(r.tensor, flip) : 0);
                });
        }
    }
    {
        std::unique_lock<std::mutex> lock(loop.mutex);
        loop.cv.wait(lock, [&] { return loop.outstanding == 0; });
    }
    const double wall = loop.lastCompletion - begin;
    const prep::ExecutorStatsSnapshot stats = ex->statsSnapshot();
    ex.reset();

    Outcome out;
    out.peakRssMiB = peakRssMiB();
    out.attempted = submitted;
    out.failed = loop.failed;
    const std::uint32_t digest =
        crc32c(loop.crcs, sizeof loop.crcs);
    if ((opt.seed == kDefaultSeed || opt.corrupt) && digest != kPrepDigest) {
        std::fprintf(stderr,
                     "prep_mix: digest of the first %zu items %08x != "
                     "pinned %08x\n",
                     kDigestItems, digest, kPrepDigest);
        out.failed += kDigestItems;
    }
    std::printf("prep_mix: seed %llu, %zu workers + 1 submitter, %zu "
                "outstanding; %llu items (%g audio), digest %08x\n",
                static_cast<unsigned long long>(opt.seed), workers, window,
                static_cast<unsigned long long>(submitted), stats.audioItems,
                digest);

    Metrics &e2e = opt.trace ? out.tracedEndToEnd : out.endToEnd;
    e2e["throughput_per_s"] = {blockedRate(loop.okAt, begin), "1/s"};
    e2e["setup_s"] = {fastTime(setups), "s"};
    if (!opt.trace)
        return out;

    Metrics &pl = out.perLayer;
    pl["executor.item_ms_p50"] = {percentile(loop.latencyMs, 0.50), "ms"};
    pl["executor.item_ms_p99"] = {percentile(loop.latencyMs, 0.99), "ms"};
    pl["executor.busy_frac"] = {
        (stats.imagePrepSeconds + stats.audioPrepSeconds) /
            (static_cast<double>(workers) * wall),
        "fraction"};
    // Two queued tasks per item: the prep chain and its callback relay.
    pl["executor.queue_wait_ms_mean"] = {
        stats.queueWaitSeconds * 1e3 / (2.0 * static_cast<double>(submitted)),
        "ms"};
    pl["executor.items_retried"] = {stats.itemsRetried, "count"};
    pl["executor.items_quarantined"] = {stats.itemsQuarantined, "count"};
    reportOps(measureOps(corpus, opt.seed), pl);
    return out;
}

} // namespace perfbench
