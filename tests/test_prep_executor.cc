/**
 * @file
 * Tests for the parallel prep executor: determinism across worker
 * counts, graceful shutdown with pending work, empty batches, the
 * callback submission flavour, stats accounting, and an MPMC stress
 * run sized for -fsanitize=thread (see TB_SANITIZE in CMakeLists.txt).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "prep/audio/wave_gen.hh"
#include "prep/executor/calibration.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/executor/work_queue.hh"

namespace tb {
namespace {

/** Small stored items so the suite stays fast under TSan. */
std::vector<std::vector<std::uint8_t>>
makeJpegs(std::size_t count, int size = 96)
{
    Rng gen(7);
    std::vector<std::vector<std::uint8_t>> jpegs;
    for (std::size_t i = 0; i < count; ++i)
        jpegs.push_back(prep::makeSyntheticJpeg(size, size, gen));
    return jpegs;
}

std::vector<std::vector<double>>
makeWaves(std::size_t count, double duration_sec = 0.3)
{
    Rng gen(11);
    audio::WaveGenConfig cfg;
    cfg.durationSec = duration_sec;
    std::vector<std::vector<double>> waves;
    for (std::size_t i = 0; i < count; ++i)
        waves.push_back(audio::generateUtterance(cfg, gen));
    return waves;
}

prep::ExecutorConfig
smallImageConfig(std::size_t workers)
{
    prep::ExecutorConfig cfg;
    cfg.numWorkers = workers;
    cfg.baseSeed = 99;
    cfg.image.cropWidth = 64;
    cfg.image.cropHeight = 64;
    return cfg;
}

/** Results of one full image+audio run at the given worker count. */
struct RunOutput
{
    std::vector<std::vector<float>> imageTensors;
    std::vector<std::vector<double>> audioFeatures;
};

RunOutput
runBoth(std::size_t workers)
{
    prep::PrepExecutor executor(smallImageConfig(workers));
    auto image_futures = executor.submitImageBatch(makeJpegs(12));
    auto audio_futures = executor.submitAudioBatch(makeWaves(6));

    RunOutput out;
    for (auto &f : image_futures) {
        prep::PreparedImage img = f.get();
        EXPECT_TRUE(img.ok) << img.error;
        out.imageTensors.push_back(std::move(img.tensor));
    }
    for (auto &f : audio_futures) {
        prep::PreparedAudio a = f.get();
        EXPECT_TRUE(a.ok);
        out.audioFeatures.push_back(std::move(a.features.power));
    }
    return out;
}

/** The same batches as runBoth, through the callback overloads. */
RunOutput
runBothCallbacks(std::size_t workers)
{
    RunOutput out;
    out.imageTensors.resize(12);
    out.audioFeatures.resize(6);
    {
        prep::PrepExecutor executor(smallImageConfig(workers));
        executor.submitImageBatch(
            makeJpegs(12), [&](std::size_t i, prep::PreparedImage &&img) {
                EXPECT_TRUE(img.ok) << img.error;
                out.imageTensors[i] = std::move(img.tensor);
            });
        executor.submitAudioBatch(
            makeWaves(6), [&](std::size_t i, prep::PreparedAudio &&a) {
                EXPECT_TRUE(a.ok);
                out.audioFeatures[i] = std::move(a.features.power);
            });
    } // the destructor drains the queue and joins the workers
    return out;
}

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// The determinism guarantee: per-item RNG streams derived from
// (base seed, item index) make the output independent of worker count
// and scheduling. Futures come back in item order, so element-wise
// comparison is the "sorted by item index" check.
TEST(PrepExecutor, DeterministicAcrossWorkerCounts)
{
    const RunOutput ref = runBoth(1);
    ASSERT_EQ(ref.imageTensors.size(), 12u);
    ASSERT_EQ(ref.audioFeatures.size(), 6u);

    for (std::size_t workers : {2u, 8u}) {
        const RunOutput got = runBoth(workers);
        ASSERT_EQ(got.imageTensors.size(), ref.imageTensors.size());
        for (std::size_t i = 0; i < ref.imageTensors.size(); ++i)
            EXPECT_EQ(got.imageTensors[i], ref.imageTensors[i])
                << "image tensor " << i << " differs at " << workers
                << " workers";
        ASSERT_EQ(got.audioFeatures.size(), ref.audioFeatures.size());
        for (std::size_t i = 0; i < ref.audioFeatures.size(); ++i)
            EXPECT_EQ(got.audioFeatures[i], ref.audioFeatures[i])
                << "audio features " << i << " differ at " << workers
                << " workers";
    }

    // The futures overloads wrap the callback overloads; both flavours
    // must give the same bits at every worker count.
    for (std::size_t workers : {1u, 2u, 8u}) {
        const RunOutput futures = workers == 1 ? ref : runBoth(workers);
        const RunOutput callbacks = runBothCallbacks(workers);
        ASSERT_EQ(callbacks.imageTensors.size(),
                  futures.imageTensors.size());
        for (std::size_t i = 0; i < futures.imageTensors.size(); ++i)
            EXPECT_TRUE(sameBits(callbacks.imageTensors[i],
                                 futures.imageTensors[i]))
                << "callback image tensor " << i << " differs at "
                << workers << " workers";
        ASSERT_EQ(callbacks.audioFeatures.size(),
                  futures.audioFeatures.size());
        for (std::size_t i = 0; i < futures.audioFeatures.size(); ++i)
            EXPECT_TRUE(sameBits(callbacks.audioFeatures[i],
                                 futures.audioFeatures[i]))
                << "callback audio features " << i << " differ at "
                << workers << " workers";
    }
}

TEST(PrepExecutor, ShutdownDrainsPendingWork)
{
    prep::ExecutorConfig cfg = smallImageConfig(1);
    cfg.queueCapacity = 4; // force most of the batch to be pending
    prep::PrepExecutor executor(cfg);

    auto futures = executor.submitImageBatch(makeJpegs(16, 80));
    executor.shutdown();

    for (auto &f : futures) {
        prep::PreparedImage img = f.get();
        EXPECT_TRUE(img.ok) << img.error;
    }
    EXPECT_DOUBLE_EQ(executor.statsSnapshot().itemsPrepared, 16.0);
}

TEST(PrepExecutor, SubmitAfterShutdownFailsFast)
{
    prep::PrepExecutor executor(smallImageConfig(2));
    executor.shutdown();

    auto futures = executor.submitImageBatch(makeJpegs(2, 80));
    ASSERT_EQ(futures.size(), 2u);
    for (auto &f : futures) {
        prep::PreparedImage img = f.get();
        EXPECT_FALSE(img.ok);
        EXPECT_EQ(img.error, "executor shut down");
    }

    auto audio_futures = executor.submitAudioBatch(makeWaves(2));
    for (auto &f : audio_futures)
        EXPECT_FALSE(f.get().ok);

    // The callback overloads fail every item inline: each index arrives
    // exactly once, on the calling thread, before submit returns.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> image_calls(3, 0);
    executor.submitImageBatch(
        makeJpegs(3, 80), [&](std::size_t i, prep::PreparedImage &&img) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_FALSE(img.ok);
            EXPECT_EQ(img.error, "executor shut down");
            ++image_calls.at(i);
        });
    EXPECT_EQ(image_calls, std::vector<int>(3, 1));

    std::vector<int> audio_calls(3, 0);
    executor.submitAudioBatch(
        makeWaves(3), [&](std::size_t i, prep::PreparedAudio &&a) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_FALSE(a.ok);
            EXPECT_EQ(a.error, "executor shut down");
            ++audio_calls.at(i);
        });
    EXPECT_EQ(audio_calls, std::vector<int>(3, 1));
}

TEST(PrepExecutor, EmptyBatchesComplete)
{
    prep::PrepExecutor executor(smallImageConfig(2));
    EXPECT_TRUE(executor.submitImageBatch({}).empty());
    EXPECT_TRUE(executor.submitAudioBatch({}).empty());
    executor.shutdown();
    EXPECT_DOUBLE_EQ(executor.statsSnapshot().itemsPrepared, 0.0);
}

TEST(PrepExecutor, CallbackFlavourDeliversEveryIndex)
{
    prep::PrepExecutor executor(smallImageConfig(4));

    std::atomic<std::size_t> delivered{0};
    std::atomic<std::uint64_t> index_mask{0};
    executor.submitImageBatch(
        makeJpegs(8, 80),
        [&](std::size_t index, prep::PreparedImage &&img) {
            EXPECT_TRUE(img.ok) << img.error;
            index_mask.fetch_or(1ull << index);
            delivered.fetch_add(1);
        });
    executor.shutdown();
    EXPECT_EQ(delivered.load(), 8u);
    EXPECT_EQ(index_mask.load(), 0xffull);
}

// A callback runs on the worker that prepared its item, after that
// item's stats are recorded and before the worker pops anything else:
// with one worker and a FIFO queue, item i's callback sees exactly
// i + 1 items counted.
TEST(PrepExecutor, CallbackRunsRightAfterItsItem)
{
    prep::PrepExecutor executor(smallImageConfig(1));
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<double> counted(4, -1.0);
    executor.submitImageBatch(
        makeJpegs(4, 80), [&](std::size_t i, prep::PreparedImage &&img) {
            EXPECT_TRUE(img.ok) << img.error;
            EXPECT_NE(std::this_thread::get_id(), caller);
            counted[i] = executor.statsSnapshot().imageItems;
        });
    executor.shutdown();
    EXPECT_EQ(counted, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(PrepExecutor, StatsCountItemsAndBytes)
{
    prep::PrepExecutor executor(smallImageConfig(2));
    auto jpegs = makeJpegs(4, 80);
    double bytes_in = 0.0;
    for (const auto &j : jpegs)
        bytes_in += static_cast<double>(j.size());

    for (auto &f : executor.submitImageBatch(std::move(jpegs)))
        f.wait();
    for (auto &f : executor.submitAudioBatch(makeWaves(2)))
        f.wait();

    const prep::ExecutorStatsSnapshot s = executor.statsSnapshot();
    EXPECT_DOUBLE_EQ(s.itemsPrepared, 6.0);
    EXPECT_DOUBLE_EQ(s.imageItems, 4.0);
    EXPECT_DOUBLE_EQ(s.audioItems, 2.0);
    EXPECT_DOUBLE_EQ(s.itemsFailed, 0.0);
    EXPECT_GE(s.bytesIn, bytes_in); // images plus the audio PCM
    // 64x64x3 bf16 tensors: 4 items x 24576 B, plus audio features.
    EXPECT_GT(s.bytesOut, 4.0 * 64 * 64 * 3 * 2 - 1.0);
    EXPECT_GT(s.imagePrepSeconds, 0.0);
    EXPECT_GT(s.audioPrepSeconds, 0.0);
}

TEST(PrepExecutor, CorruptItemReportsFailureNotCrash)
{
    prep::PrepExecutor executor(smallImageConfig(2));
    std::vector<std::vector<std::uint8_t>> bogus;
    bogus.push_back({0x00, 0x01, 0x02, 0x03});
    auto futures = executor.submitImageBatch(std::move(bogus));
    prep::PreparedImage img = futures[0].get();
    EXPECT_FALSE(img.ok);
    EXPECT_FALSE(img.error.empty());
    executor.shutdown();
    EXPECT_DOUBLE_EQ(executor.statsSnapshot().itemsFailed, 1.0);
}

// A poison item is retried a bounded number of times in-task, then
// quarantined with its submission index and error — never re-enqueued.
TEST(PrepExecutor, PoisonItemQuarantinedAfterBoundedRetries)
{
    prep::ExecutorConfig cfg = smallImageConfig(2);
    cfg.maxItemRetries = 2;
    prep::PrepExecutor executor(cfg);

    auto jpegs = makeJpegs(3, 80);
    jpegs[1] = {0xDE, 0xAD, 0xBE, 0xEF}; // poison at index 1
    auto futures = executor.submitImageBatch(std::move(jpegs));
    EXPECT_TRUE(futures[0].get().ok);
    prep::PreparedImage poison = futures[1].get();
    EXPECT_FALSE(poison.ok);
    EXPECT_FALSE(poison.error.empty());
    EXPECT_TRUE(futures[2].get().ok);
    executor.shutdown();

    const prep::ExecutorStatsSnapshot s = executor.statsSnapshot();
    EXPECT_DOUBLE_EQ(s.itemsPrepared, 2.0);
    EXPECT_DOUBLE_EQ(s.itemsFailed, 1.0);
    // The deterministic decode fails on every attempt: the initial try
    // plus exactly maxItemRetries retries, no more.
    EXPECT_DOUBLE_EQ(s.itemsRetried, 2.0);
    EXPECT_DOUBLE_EQ(s.itemsQuarantined, 1.0);

    const auto quarantined = executor.quarantined();
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0].itemIndex, 1u);
    EXPECT_EQ(quarantined[0].error, poison.error);
}

// Attempt 0 uses the same per-item stream whether or not retries are
// enabled, so turning the policy on cannot change healthy outputs.
TEST(PrepExecutor, RetryPolicyDoesNotPerturbHealthyItems)
{
    auto run = [](std::size_t retries) {
        prep::ExecutorConfig cfg = smallImageConfig(2);
        cfg.maxItemRetries = retries;
        prep::PrepExecutor executor(cfg);
        std::vector<std::vector<float>> tensors;
        for (auto &f : executor.submitImageBatch(makeJpegs(6, 80)))
            tensors.push_back(f.get().tensor);
        const prep::ExecutorStatsSnapshot s = executor.statsSnapshot();
        EXPECT_DOUBLE_EQ(s.itemsRetried, 0.0);
        EXPECT_DOUBLE_EQ(s.itemsQuarantined, 0.0);
        EXPECT_TRUE(executor.quarantined().empty());
        return tensors;
    };
    EXPECT_EQ(run(0), run(3));
}

// MPMC stress: >=1000 items through >=4 workers with a tight queue
// bound, plus a concurrent audio producer thread and a closed-loop
// producer on the callback overloads. Run under -DTB_SANITIZE=thread to
// validate the locking protocol.
TEST(PrepExecutor, StressManyItemsManyWorkers)
{
    prep::ExecutorConfig cfg = smallImageConfig(4);
    cfg.queueCapacity = 32;
    prep::PrepExecutor executor(cfg);

    // Cycle a few distinct stored items; each submission still gets its
    // own RNG stream so the prepared tensors differ.
    const auto base = makeJpegs(4, 64);
    std::vector<std::vector<std::uint8_t>> jpegs;
    constexpr std::size_t kImages = 1000;
    jpegs.reserve(kImages);
    for (std::size_t i = 0; i < kImages; ++i)
        jpegs.push_back(base[i % base.size()]);

    std::atomic<std::size_t> audio_ok{0};
    std::thread audio_producer([&] {
        auto futures = executor.submitAudioBatch(makeWaves(24, 0.2));
        for (auto &f : futures)
            if (f.get().ok)
                audio_ok.fetch_add(1);
    });

    // Closed loop like perfbench's prep_mix: single-item batches through
    // the callback overloads, 2 x workers outstanding, one audio item in
    // every ten. Each callback runs on a worker and wakes the producer.
    constexpr std::size_t kLoopItems = 240;
    const std::size_t window = 2 * executor.numWorkers();
    const auto loop_waves = makeWaves(2, 0.2);
    std::mutex loop_mutex;
    std::condition_variable loop_cv;
    std::size_t outstanding = 0, loop_ok = 0;
    std::vector<int> loop_calls(kLoopItems, 0);
    std::thread loop_producer([&] {
        for (std::size_t k = 0; k < kLoopItems; ++k) {
            {
                std::unique_lock<std::mutex> lock(loop_mutex);
                loop_cv.wait(lock, [&] { return outstanding < window; });
                ++outstanding;
            }
            auto finish = [&, k](bool ok) {
                std::lock_guard<std::mutex> lock(loop_mutex);
                ++loop_calls[k];
                loop_ok += ok ? 1 : 0;
                --outstanding;
                loop_cv.notify_one();
            };
            if (k % 10 == 9)
                executor.submitAudioBatch(
                    {loop_waves[k / 10 % loop_waves.size()]},
                    [finish](std::size_t, prep::PreparedAudio &&a) {
                        finish(a.ok);
                    });
            else
                executor.submitImageBatch(
                    {base[k % base.size()]},
                    [finish](std::size_t, prep::PreparedImage &&img) {
                        finish(img.ok);
                    });
        }
        std::unique_lock<std::mutex> lock(loop_mutex);
        loop_cv.wait(lock, [&] { return outstanding == 0; });
    });

    std::size_t image_ok = 0;
    for (auto &f : executor.submitImageBatch(std::move(jpegs)))
        if (f.get().ok)
            ++image_ok;
    audio_producer.join();
    loop_producer.join();
    executor.shutdown();

    EXPECT_EQ(image_ok, kImages);
    EXPECT_EQ(audio_ok.load(), 24u);
    EXPECT_EQ(loop_ok, kLoopItems);
    EXPECT_EQ(loop_calls, std::vector<int>(kLoopItems, 1));
    const prep::ExecutorStatsSnapshot s = executor.statsSnapshot();
    EXPECT_DOUBLE_EQ(s.itemsPrepared,
                     static_cast<double>(kImages + 24 + kLoopItems));
}

TEST(BoundedWorkQueue, CloseUnblocksProducerAndPreservesItem)
{
    prep::BoundedWorkQueue<int> q(1);
    int a = 1;
    ASSERT_TRUE(q.push(a));

    std::atomic<bool> pushed{false};
    int b = 2;
    std::thread producer([&] {
        pushed.store(q.push(b)); // blocks: queue full
    });
    while (q.size() != 1)
        std::this_thread::yield();
    q.close();
    producer.join();
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(b, 2); // rejected item left intact

    int out = 0;
    EXPECT_TRUE(q.pop(out)); // drain what was queued before close
    EXPECT_EQ(out, 1);
    EXPECT_FALSE(q.pop(out)); // closed and empty
}

TEST(MeasurePrepThroughput, ReportsPositiveRates)
{
    prep::ThroughputMeasureConfig cfg;
    cfg.numWorkers = 2;
    cfg.imageItems = 4;
    cfg.audioItems = 2;
    const prep::PrepThroughputMeasurement m =
        prep::measurePrepThroughput(cfg);
    EXPECT_EQ(m.numWorkers, 2u);
    EXPECT_GT(m.imageSamplesPerSec, 0.0);
    EXPECT_GT(m.audioSamplesPerSec, 0.0);
    EXPECT_GT(m.imageCoreSecPerSample, 0.0);
    EXPECT_GT(m.audioCoreSecPerSample, 0.0);
}

} // namespace
} // namespace tb
