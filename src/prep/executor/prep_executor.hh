/**
 * @file
 * Parallel data-preparation executor: a fixed-size worker thread pool
 * running the functional prep chains (pipeline.hh) over a bounded MPMC
 * work queue.
 *
 * This is the measurement substrate for the paper's central claim
 * (Figs 3/8): data preparation saturates the host CPU long before the
 * accelerators do. The simulator *models* that ceiling from Table I
 * constants; the executor lets us *measure* it — samples/s as a
 * function of worker count on real kernels — and feed the measured
 * per-sample cost back into the host-demand model
 * (trainbox/resource_profile.hh, via calibration.hh).
 *
 * Determinism: every submitted item gets its own RNG stream derived
 * from (base seed, global item index), so output tensors are
 * bit-identical for any worker count and any scheduling order. See
 * docs/CONCURRENCY.md for why per-item — not per-worker — streams are
 * required for that guarantee.
 *
 * Thread-safety: submit/shutdown/stats methods may be called from any
 * thread. `tb::Rng` itself is NOT thread-safe and is never shared; each
 * task owns its stream.
 */

#ifndef TRAINBOX_PREP_EXECUTOR_PREP_EXECUTOR_HH
#define TRAINBOX_PREP_EXECUTOR_PREP_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "prep/executor/work_queue.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace prep {

/** Executor sizing and determinism knobs. */
struct ExecutorConfig
{
    /** Worker threads (0 = std::thread::hardware_concurrency()). */
    std::size_t numWorkers = 0;

    /** Work-queue bound; producers block when it is full. */
    std::size_t queueCapacity = 256;

    /** Base seed; item i runs with stream derive(baseSeed, i). */
    std::uint64_t baseSeed = 0x9e3779b97f4a7c15ull;

    /**
     * Extra in-task attempts for an item whose chain reports an error
     * (0 = fail immediately, the historical behaviour). Each attempt
     * runs with a fresh stream derived from (base seed, item index,
     * attempt), so retried outputs stay deterministic for any worker
     * count. Items that exhaust every attempt are quarantined —
     * recorded with their error and reported failed, never re-enqueued.
     */
    std::size_t maxItemRetries = 0;

    /**
     * Submitted image items carry the CRC32C envelope of
     * prep/integrity.hh (sealItem). The envelope is verified and
     * stripped before decode; a mismatch quarantines the item
     * immediately — retries are skipped, since re-running a
     * deterministic checksum over the same bytes cannot succeed.
     */
    bool checksummedItems = false;

    /**
     * Screen prepared outputs (finite, in-range) before reporting them
     * ok; failures quarantine like any other chain error. Catches
     * corruption that strikes after the envelope check — in staging
     * buffers or the prep kernels themselves.
     */
    bool validateOutputs = false;

    ImagePrepConfig image;
    AudioPrepConfig audio;
};

/** A poison item: failed its initial attempt and every retry. */
struct QuarantinedItem
{
    /** Global submission index (the same index that picks the seed). */
    std::uint64_t itemIndex = 0;

    /** Error reported by the final attempt. */
    std::string error;
};

/**
 * The executor's counters. PrepExecutor keeps one under its stats lock;
 * statsSnapshot() returns a consistent copy.
 */
struct ExecutorStatsSnapshot
{
    double itemsPrepared = 0.0;
    double imageItems = 0.0;
    double audioItems = 0.0;
    double itemsFailed = 0.0;

    /** Retry attempts performed / items quarantined as poison. */
    double itemsRetried = 0.0;
    double itemsQuarantined = 0.0;

    /** Stored/compressed bytes in, prepared-tensor bytes out. */
    double bytesIn = 0.0;
    double bytesOut = 0.0;

    /** Per-stage wall time, summed over workers (core-seconds). */
    double imagePrepSeconds = 0.0;
    double audioPrepSeconds = 0.0;
    double queueWaitSeconds = 0.0;
};

/**
 * Fixed-size thread pool executing image/audio preparation chains.
 *
 * Every item enters the queue through a callback overload as one task:
 * the worker that pops it runs the chain, records the item's stats,
 * and then calls `done(index, result)` itself. That worker prepares
 * nothing else until `done` returns (see docs/CONCURRENCY.md for what a
 * callback may do). The futures overloads are wrappers whose callback
 * fulfils promise `index`; they return one future per item, in item
 * order. After shutdown() — or destruction — submissions complete on
 * the calling thread with ok=false and "executor shut down".
 */
class PrepExecutor
{
  public:
    explicit PrepExecutor(ExecutorConfig cfg = {});

    /** Drains pending work and joins the workers. */
    ~PrepExecutor();

    PrepExecutor(const PrepExecutor &) = delete;
    PrepExecutor &operator=(const PrepExecutor &) = delete;

    /** Prepare a batch of stored JPEG items; futures in item order. */
    std::vector<std::future<PreparedImage>>
    submitImageBatch(std::vector<std::vector<std::uint8_t>> jpegs);

    /**
     * Callback flavour: done(index, result) runs on the worker that
     * prepared the item, after its stats are recorded.
     */
    void submitImageBatch(
        std::vector<std::vector<std::uint8_t>> jpegs,
        std::function<void(std::size_t, PreparedImage &&)> done);

    /** Prepare a batch of waveforms; futures in item order. */
    std::vector<std::future<PreparedAudio>>
    submitAudioBatch(std::vector<std::vector<double>> waveforms);

    /** Callback flavour; same contract as the image overload. */
    void submitAudioBatch(
        std::vector<std::vector<double>> waveforms,
        std::function<void(std::size_t, PreparedAudio &&)> done);

    /**
     * Graceful shutdown: stop accepting work, let the workers drain the
     * queue, join them. Idempotent; also run by the destructor.
     */
    void shutdown();

    std::size_t numWorkers() const { return workers_.size(); }

    const ExecutorConfig &config() const { return cfg_; }

    /** Consistent copy of all counters. */
    ExecutorStatsSnapshot statsSnapshot() const;

    /**
     * Items that failed their initial attempt and every configured
     * retry, in completion order. Snapshot copy; safe from any thread.
     */
    std::vector<QuarantinedItem> quarantined() const;

  private:
    struct Task
    {
        /**
         * Runs the prep chain, records its stats, calls `done`. A
         * packaged_task, so an exception from the chain or from `done`
         * stays in the task and never reaches workerLoop().
         */
        std::packaged_task<void()> run;

        /** steady_clock seconds at submission (for queue-wait time). */
        double submitSeconds = 0.0;
    };

    void workerLoop(std::size_t worker_id);
    bool enqueue(Task &task);

    /** Stream for item @p index: same for every worker count. */
    std::uint64_t itemSeed(std::uint64_t index) const;

    ExecutorConfig cfg_;
    BoundedWorkQueue<Task> queue_;
    std::vector<std::thread> workers_;

    std::mutex shutdownMutex_;
    bool shutdown_ = false;

    /** Global item counter; drives per-item RNG stream derivation. */
    std::atomic<std::uint64_t> nextItemIndex_{0};

    /** Every counter; guarded by statsMutex_. */
    mutable std::mutex statsMutex_;
    ExecutorStatsSnapshot stats_;

    /** Poison items, in completion order; guarded by statsMutex_. */
    std::vector<QuarantinedItem> quarantine_;
};

} // namespace prep
} // namespace tb

#endif // TRAINBOX_PREP_EXECUTOR_PREP_EXECUTOR_HH
