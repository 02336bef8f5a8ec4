/**
 * @file
 * Shared types of the repository benchmark (see perfbench/README.md).
 *
 * A workload runs for a fixed host-time budget, checks its outputs,
 * and returns an Outcome: the attempted/failed operation counts, the
 * end-to-end metrics of an untraced run, and — in a traced run — the
 * per-layer metrics plus the traced run's own end-to-end metrics.
 * Every timing is taken from outside the library, around calls into
 * its public functions; every count is read from a public counter.
 */

#ifndef TRAINBOX_PERFBENCH_BENCH_HH
#define TRAINBOX_PERFBENCH_BENCH_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host seconds. */
inline double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated percentile (@p q in [0, 1]); 0 when empty. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/**
 * Host time of the fastest decile of repeated measurements. Noise on a
 * shared host only ever adds time, so the fast tail is the steady
 * reading of what the code costs; a real slowdown moves every
 * repetition, this one included. End-to-end metrics use it; per-layer
 * metrics report medians.
 */
inline double
fastTime(std::vector<double> v)
{
    return percentile(std::move(v), 0.1);
}

/** Peak resident memory of this process so far, in MiB. */
inline double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One reported value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metric name -> value, printed in name order. */
using Metrics = std::map<std::string, Metric>;

/** What one workload run produced. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Peak resident memory after the first repetition: what one user
     * run of the workload needs, whatever the repetition count.
     */
    double peakRssMiB = 0.0;

    /** End-to-end metrics of the (untraced) measurement. */
    Metrics endToEnd;

    /** Traced runs only: per-layer metrics of the traced phase. */
    Metrics perLayer;

    /** Traced runs only: end-to-end metrics of the traced phase. */
    Metrics tracedEndToEnd;
};

/** Run options shared by every workload. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /**
     * Self-test corruption: perturb one pinned value (sim workloads) or
     * flip one bit in one prepared item (prep_mix). The run's checks
     * must then fail.
     */
    bool corrupt = false;
};

/** Metric-name keys of the Fig 19 presets, Baseline -> TrainBox. */
inline constexpr const char *kFig19PresetKeys[] = {
    "baseline", "b_acc", "b_acc_p2p", "b_acc_p2p_gen4", "trainbox",
};
inline constexpr std::size_t kFig19NumPresets = std::size(kFig19PresetKeys);

/**
 * The nine prep operators, named as in workload::prepChain(): the
 * image chain's kImageOps, then the audio chain's.
 */
inline constexpr const char *kPrepOps[] = {
    "jpeg_decode", "crop",        "mirror",         "gaussian_noise",
    "cast_bf16",   "spectrogram", "mel_filterbank", "masking",
    "normalize",
};
inline constexpr std::size_t kNumPrepOps = std::size(kPrepOps);
inline constexpr std::size_t kImageOps = 5;

/** The seed whose outputs are pinned to golden values. */
constexpr std::uint64_t kDefaultSeed = 1;

// Workload entry points (sim_workloads.cc, prep_workload.cc).
Outcome runFig19Grid(const RunOptions &opt);
Outcome runFleetOutages(const RunOptions &opt);
Outcome runPrepMix(const RunOptions &opt);

/** Print the current golden values in pins.hh syntax. */
void printFig19Pins();
void printFleetPins();

/** Threads the prep_mix executor uses (nproc - 1, at least 1). */
std::size_t prepWorkers();

} // namespace perfbench

#endif // TRAINBOX_PERFBENCH_BENCH_HH
