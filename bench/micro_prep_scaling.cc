/**
 * @file
 * Prep-throughput scaling microbenchmark: samples/s of the functional
 * image and audio chains as a function of worker count, measured with
 * the parallel prep executor (src/prep/executor/).
 *
 * This is the measured analogue of the paper's host-CPU prep ceiling
 * (Fig 3 / Fig 8): preparation throughput grows with cores until the
 * host saturates, which is exactly the curve the simulator's per-sample
 * CPU cost constants (DESIGN.md §4) describe analytically. The
 * *CoreSecPerSample columns are directly comparable with those
 * constants and can be fed back into the host-demand model via
 * tb::PrepCostCalibration (resource_profile.hh).
 *
 * Each worker count runs kRepeats times on a fresh executor; the table
 * gives the median samples/s with the min and max beside it, and the
 * speedup and core-ms columns are taken from the medians.
 *
 *   ./micro_prep_scaling [--csv] [--items N] [--max-workers N]
 */

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "prep/executor/calibration.hh"

namespace {

/** Runs per worker count; odd, so the median is one run. */
constexpr int kRepeats = 5;

/** Median, min and max of one column's samples/s. */
struct Spread
{
    double median, min, max;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    const char *usage = "[--csv] [--items N] [--max-workers N]";
    bool csv = false;
    std::size_t image_items = 24;
    std::size_t audio_items = 6;
    std::size_t max_workers = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(argv[i], "--items") == 0) {
            image_items = cli::countArgument(argc, argv, i, usage);
            audio_items = std::max<std::size_t>(1, image_items / 4);
        } else if (std::strcmp(argv[i], "--max-workers") == 0) {
            max_workers = cli::countArgument(argc, argv, i, usage);
        } else {
            bench::rejectArgument(argv[0], usage, argv[i]);
        }
    }

    if (!csv)
        bench::banner("prep throughput vs worker count "
                      "(parallel executor, functional kernels)");

    Table t({"workers", "img samples/s", "img min", "img max",
             "img speedup", "img core-ms", "audio samples/s", "audio min",
             "audio max", "audio speedup", "audio core-ms"});

    double img_base = 0.0;
    double audio_base = 0.0;
    for (std::size_t w = 1; w <= max_workers; w = w < 4 ? w + 1 : w * 2) {
        prep::ThroughputMeasureConfig cfg;
        cfg.numWorkers = w;
        cfg.imageItems = image_items;
        cfg.audioItems = audio_items;
        std::vector<double> img_runs, audio_runs;
        for (int r = 0; r < kRepeats; ++r) {
            const prep::PrepThroughputMeasurement m =
                prep::measurePrepThroughput(cfg);
            img_runs.push_back(m.imageSamplesPerSec);
            audio_runs.push_back(m.audioSamplesPerSec);
        }
        const Spread img = spreadOf(img_runs);
        const Spread audio = spreadOf(audio_runs);
        if (w == 1) {
            img_base = img.median;
            audio_base = audio.median;
        }
        // core-ms per sample = workers / (samples/s), as the
        // calibration's *CoreSecPerSample fields define it.
        const auto coreMs = [w](double rate) {
            return rate > 0.0 ? static_cast<double>(w) / rate * 1e3 : 0.0;
        };
        t.row()
            .add(static_cast<long long>(w))
            .add(img.median, 1)
            .add(img.min, 1)
            .add(img.max, 1)
            .add(img_base > 0.0 ? img.median / img_base : 0.0, 2)
            .add(coreMs(img.median), 3)
            .add(audio.median, 1)
            .add(audio.min, 1)
            .add(audio.max, 1)
            .add(audio_base > 0.0 ? audio.median / audio_base : 0.0, 2)
            .add(coreMs(audio.median), 3);
    }
    bench::emit(t, csv);

    if (!csv)
        std::printf("\nsimulator calibration constants: image 1.572 "
                    "core-ms/sample, audio 5.450 core-ms/sample "
                    "(DESIGN.md §4). Speedup saturates at the host's "
                    "physical core count — the paper's prep ceiling.\n");
    return 0;
}
