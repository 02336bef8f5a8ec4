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
 *   ./micro_prep_scaling [--csv] [--items N] [--max-workers N]
 */

#include <algorithm>
#include <cstring>
#include <thread>

#include "bench/bench_util.hh"
#include "prep/executor/calibration.hh"

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
            image_items = bench::countArgument(argc, argv, i, usage);
            audio_items = std::max<std::size_t>(1, image_items / 4);
        } else if (std::strcmp(argv[i], "--max-workers") == 0) {
            max_workers = bench::countArgument(argc, argv, i, usage);
        } else {
            bench::rejectArgument(argv[0], usage, argv[i]);
        }
    }

    if (!csv)
        bench::banner("prep throughput vs worker count "
                      "(parallel executor, functional kernels)");

    Table t({"workers", "img samples/s", "img speedup", "img core-ms",
             "audio samples/s", "audio speedup", "audio core-ms"});

    double img_base = 0.0;
    double audio_base = 0.0;
    for (std::size_t w = 1; w <= max_workers; w = w < 4 ? w + 1 : w * 2) {
        prep::ThroughputMeasureConfig cfg;
        cfg.numWorkers = w;
        cfg.imageItems = image_items;
        cfg.audioItems = audio_items;
        const prep::PrepThroughputMeasurement m =
            prep::measurePrepThroughput(cfg);
        if (w == 1) {
            img_base = m.imageSamplesPerSec;
            audio_base = m.audioSamplesPerSec;
        }
        t.row()
            .add(static_cast<long long>(w))
            .add(m.imageSamplesPerSec, 1)
            .add(img_base > 0.0 ? m.imageSamplesPerSec / img_base : 0.0, 2)
            .add(m.imageCoreSecPerSample * 1e3, 3)
            .add(m.audioSamplesPerSec, 1)
            .add(audio_base > 0.0 ? m.audioSamplesPerSec / audio_base : 0.0,
                 2)
            .add(m.audioCoreSecPerSample * 1e3, 3);
    }
    bench::emit(t, csv);

    if (!csv)
        std::printf("\nsimulator calibration constants: image 1.572 "
                    "core-ms/sample, audio 5.450 core-ms/sample "
                    "(DESIGN.md §4). Speedup saturates at the host's "
                    "physical core count — the paper's prep ceiling.\n");
    return 0;
}
