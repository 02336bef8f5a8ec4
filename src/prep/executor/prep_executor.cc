#include "prep/executor/prep_executor.hh"

#include <chrono>
#include <memory>

#include "prep/integrity.hh"

namespace tb {
namespace prep {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One promise per item of an @p n-item batch: appends their futures to
 * @p futures and returns the callback that fulfils promise i.
 */
template <typename Result>
std::function<void(std::size_t, Result &&)>
promiseCallback(std::size_t n, std::vector<std::future<Result>> &futures)
{
    auto promises = std::make_shared<std::vector<std::promise<Result>>>(n);
    futures.reserve(futures.size() + n);
    for (auto &p : *promises)
        futures.push_back(p.get_future());
    return [promises](std::size_t i, Result &&out) {
        (*promises)[i].set_value(std::move(out));
    };
}

} // namespace

PrepExecutor::PrepExecutor(ExecutorConfig cfg)
    : cfg_(cfg), queue_(cfg.queueCapacity)
{
    std::size_t n = cfg_.numWorkers;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    cfg_.numWorkers = n;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

PrepExecutor::~PrepExecutor()
{
    shutdown();
}

std::uint64_t
PrepExecutor::itemSeed(std::uint64_t index) const
{
    // Two rounds of mixing so (base, index) pairs map to unrelated
    // xoshiro initial states even for adjacent indices.
    return mix64(cfg_.baseSeed ^ mix64(index + 0x9e3779b97f4a7c15ull));
}

bool
PrepExecutor::enqueue(Task &task)
{
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        if (shutdown_)
            return false;
    }
    // push() blocks for room (backpressure) and fails only if the
    // queue was closed by a concurrent shutdown(). On failure the task
    // stays valid so the caller can fail or run it inline.
    return queue_.push(task);
}

void
PrepExecutor::workerLoop(std::size_t)
{
    Task task;
    while (queue_.pop(task)) {
        const double waited = nowSeconds() - task.submitSeconds;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.queueWaitSeconds += waited;
        }
        task.run();
    }
}

void
PrepExecutor::submitImageBatch(
    std::vector<std::vector<std::uint8_t>> jpegs,
    std::function<void(std::size_t, PreparedImage &&)> done)
{
    for (std::size_t i = 0; i < jpegs.size(); ++i) {
        const std::uint64_t index = nextItemIndex_++;
        const std::uint64_t seed = itemSeed(index);
        Task task;
        task.submitSeconds = nowSeconds();
        task.run = std::packaged_task<void()>(
            [this, i, index, seed, done,
             bytes = std::move(jpegs[i])]() mutable {
                ImagePrepPipeline pipe(cfg_.image);
                const double t0 = nowSeconds();
                // Bounded in-task retry: attempt a>0 reruns the chain
                // with a fresh stream derived from (seed, a), still a
                // pure function of the item index. The item is never
                // re-enqueued, so a poison item costs at most
                // 1 + maxItemRetries attempts.
                PreparedImage out;
                std::size_t retries = 0;
                // The envelope covers the stored bytes, so one check
                // before the attempt loop suffices; retrying a
                // deterministic mismatch would just burn attempts.
                const bool sealed_ok = !cfg_.checksummedItems ||
                                       openItem(bytes, &out.error);
                for (std::size_t a = 0; sealed_ok; ++a) {
                    Rng rng(a == 0 ? seed : mix64(seed + a));
                    out = pipe.prepare(bytes, rng);
                    if (out.ok && cfg_.validateOutputs &&
                        !validateImageTensor(out.tensor, &out.error))
                        out.ok = false;
                    if (out.ok || a >= cfg_.maxItemRetries)
                        break;
                    ++retries;
                }
                const double dt = nowSeconds() - t0;
                {
                    std::lock_guard<std::mutex> lock(statsMutex_);
                    stats_.itemsRetried += static_cast<double>(retries);
                    if (out.ok) {
                        ++stats_.itemsPrepared;
                        ++stats_.imageItems;
                        stats_.bytesIn += static_cast<double>(bytes.size());
                        // Tensor values are bf16-rounded; count 2 B each
                        // (the prepared-item size the datapath carries).
                        stats_.bytesOut +=
                            static_cast<double>(out.tensor.size() * 2);
                    } else {
                        ++stats_.itemsFailed;
                        ++stats_.itemsQuarantined;
                        quarantine_.push_back({index, out.error});
                    }
                    stats_.imagePrepSeconds += dt;
                }
                done(i, std::move(out));
            });
        if (!enqueue(task)) {
            // Executor already shut down: fail the item immediately.
            PreparedImage failed;
            failed.error = "executor shut down";
            done(i, std::move(failed));
        }
    }
}

std::vector<std::future<PreparedImage>>
PrepExecutor::submitImageBatch(std::vector<std::vector<std::uint8_t>> jpegs)
{
    std::vector<std::future<PreparedImage>> futures;
    auto done = promiseCallback(jpegs.size(), futures);
    submitImageBatch(std::move(jpegs), std::move(done));
    return futures;
}

void
PrepExecutor::submitAudioBatch(
    std::vector<std::vector<double>> waveforms,
    std::function<void(std::size_t, PreparedAudio &&)> done)
{
    for (std::size_t i = 0; i < waveforms.size(); ++i) {
        const std::uint64_t index = nextItemIndex_++;
        const std::uint64_t seed = itemSeed(index);
        Task task;
        task.submitSeconds = nowSeconds();
        task.run = std::packaged_task<void()>(
            [this, i, index, seed, done,
             wave = std::move(waveforms[i])]() mutable {
                AudioPrepPipeline pipe(cfg_.audio);
                const std::size_t pcm_bytes = wave.size() * 2;
                const double t0 = nowSeconds();
                // Same bounded retry policy as the image path; the
                // waveform is kept so later attempts see the input.
                PreparedAudio out;
                std::size_t retries = 0;
                for (std::size_t a = 0;; ++a) {
                    Rng rng(a == 0 ? seed : mix64(seed + a));
                    out = pipe.prepare(wave, rng);
                    if (out.ok && cfg_.validateOutputs &&
                        !validateAudioFeatures(out.features.power,
                                               &out.error))
                        out.ok = false;
                    if (out.ok || a >= cfg_.maxItemRetries)
                        break;
                    ++retries;
                }
                const double dt = nowSeconds() - t0;
                {
                    std::lock_guard<std::mutex> lock(statsMutex_);
                    stats_.itemsRetried += static_cast<double>(retries);
                    if (out.ok) {
                        ++stats_.itemsPrepared;
                        ++stats_.audioItems;
                        stats_.bytesIn += static_cast<double>(pcm_bytes);
                        stats_.bytesOut += static_cast<double>(
                            out.features.frames * out.features.bins * 4);
                    } else {
                        ++stats_.itemsFailed;
                        ++stats_.itemsQuarantined;
                        quarantine_.push_back(
                            {index, out.error.empty()
                                        ? "audio chain failed"
                                        : out.error});
                    }
                    stats_.audioPrepSeconds += dt;
                }
                done(i, std::move(out));
            });
        if (!enqueue(task)) {
            PreparedAudio failed;
            failed.error = "executor shut down";
            done(i, std::move(failed));
        }
    }
}

std::vector<std::future<PreparedAudio>>
PrepExecutor::submitAudioBatch(std::vector<std::vector<double>> waveforms)
{
    std::vector<std::future<PreparedAudio>> futures;
    auto done = promiseCallback(waveforms.size(), futures);
    submitAudioBatch(std::move(waveforms), std::move(done));
    return futures;
}

void
PrepExecutor::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        if (shutdown_)
            return;
        shutdown_ = true;
    }
    // close() rejects new pushes; workers drain what is queued, then
    // pop() returns false and each loop exits.
    queue_.close();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
}

ExecutorStatsSnapshot
PrepExecutor::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

std::vector<QuarantinedItem>
PrepExecutor::quarantined() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return quarantine_;
}

} // namespace prep
} // namespace tb
