/**
 * @file
 * Functional data-preparation demo: runs the exact operator chains the
 * simulator models (Fig 4) on real data — synthetic JPEGs through
 * decode/crop/mirror/noise/cast, and synthetic utterances through
 * STFT/Mel/SpecAugment/normalize — and reports per-item timings and
 * sizes, i.e. the quantities the performance model's prep_ops table is
 * calibrated from.
 *
 * With `--threads N` the same batches additionally run through the
 * parallel prep executor (src/prep/executor/) and the aggregate
 * samples/s plus executor counters are reported — the measured
 * host-CPU prep ceiling the paper's Fig 3 is about.
 *
 *   ./prep_pipeline_demo [items-per-type] [--threads N]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "prep/audio/wave_gen.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/pipeline.hh"

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Run both chains through the executor; print throughput + counters. */
void
runExecutorDemo(int items, std::size_t threads)
{
    using namespace tb;

    Rng gen(2026);
    std::vector<std::vector<std::uint8_t>> jpegs;
    for (int i = 0; i < items; ++i)
        jpegs.push_back(prep::makeSyntheticJpeg(256, 256, gen));
    audio::WaveGenConfig wcfg;
    std::vector<std::vector<double>> waves;
    for (int i = 0; i < items; ++i)
        waves.push_back(audio::generateUtterance(wcfg, gen));

    prep::ExecutorConfig cfg;
    cfg.numWorkers = threads;
    cfg.baseSeed = 2026;
    prep::PrepExecutor executor(cfg);

    std::printf("\nParallel executor: %zu worker(s), queue bound %zu\n",
                executor.numWorkers(), cfg.queueCapacity);

    const auto t0 = std::chrono::steady_clock::now();
    auto image_futures = executor.submitImageBatch(std::move(jpegs));
    for (auto &f : image_futures)
        f.wait();
    const double image_wall = secondsSince(t0);

    const auto t1 = std::chrono::steady_clock::now();
    auto audio_futures = executor.submitAudioBatch(std::move(waves));
    for (auto &f : audio_futures)
        f.wait();
    const double audio_wall = secondsSince(t1);

    std::printf("image batch: %d items in %.1f ms -> %.1f samples/s\n",
                items, image_wall * 1e3, items / image_wall);
    std::printf("audio batch: %d items in %.1f ms -> %.1f samples/s\n",
                items, audio_wall * 1e3, items / audio_wall);

    executor.shutdown();
    const prep::ExecutorStatsSnapshot st = executor.statsSnapshot();
    const std::pair<const char *, double> counters[] = {
        {"items_prepared", st.itemsPrepared},
        {"image_items", st.imageItems},
        {"audio_items", st.audioItems},
        {"items_failed", st.itemsFailed},
        {"items_retried", st.itemsRetried},
        {"items_quarantined", st.itemsQuarantined},
        {"bytes_in", st.bytesIn},
        {"bytes_out", st.bytesOut},
        {"image_prep_seconds", st.imagePrepSeconds},
        {"audio_prep_seconds", st.audioPrepSeconds},
        {"queue_wait_seconds", st.queueWaitSeconds},
    };
    std::printf("\n");
    for (const auto &[name, value] : counters)
        std::printf("prep_executor.%s %.6g\n", name, value);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tb;
    int items = 8;
    std::size_t threads = 0; // 0 = serial-only demo
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = static_cast<std::size_t>(std::atoi(argv[++i]));
        else
            items = std::atoi(argv[i]);
    }

    Rng rng(2026);

    std::printf("Image chain: JPEG -> decode -> random crop 224 -> "
                "mirror -> gaussian noise -> bf16 tensor\n\n");
    {
        Table t({"item", "stored (B)", "decoded (B)", "tensor (B)",
                 "prep time (ms)"});
        prep::ImagePrepPipeline pipe;
        double total_ms = 0.0;
        for (int i = 0; i < items; ++i) {
            const auto jpeg_bytes =
                prep::makeSyntheticJpeg(256, 256, rng);
            const auto t0 = std::chrono::steady_clock::now();
            const prep::PreparedImage out = pipe.prepare(jpeg_bytes, rng);
            const double ms = secondsSince(t0) * 1e3;
            total_ms += ms;
            if (!out.ok) {
                std::fprintf(stderr, "prep failed: %s\n",
                             out.error.c_str());
                return 1;
            }
            t.row()
                .add(static_cast<long long>(i))
                .add(static_cast<long long>(jpeg_bytes.size()))
                .add(static_cast<long long>(256 * 256 * 3))
                .add(static_cast<long long>(out.tensor.size() * 2))
                .add(ms, 2);
        }
        t.print();
        std::printf("\nmean image prep: %.2f ms/item (simulator "
                    "calibration: 1.572 ms/core)\n\n",
                    total_ms / items);
    }

    std::printf("Audio chain: waveform -> STFT -> log-Mel -> SpecAugment "
                "-> normalize\n\n");
    {
        Table t({"item", "PCM (B)", "frames", "mels", "feature (B)",
                 "prep time (ms)"});
        prep::AudioPrepPipeline pipe;
        audio::WaveGenConfig wcfg;
        double total_ms = 0.0;
        for (int i = 0; i < items; ++i) {
            const auto wave = audio::generateUtterance(wcfg, rng);
            const auto t0 = std::chrono::steady_clock::now();
            const prep::PreparedAudio out = pipe.prepare(wave, rng);
            const double ms = secondsSince(t0) * 1e3;
            total_ms += ms;
            if (!out.ok) {
                std::fprintf(stderr, "audio prep failed\n");
                return 1;
            }
            t.row()
                .add(static_cast<long long>(i))
                .add(static_cast<long long>(wave.size() * 2))
                .add(static_cast<long long>(out.features.frames))
                .add(static_cast<long long>(out.features.bins))
                .add(static_cast<long long>(out.features.frames *
                                            out.features.bins * 4))
                .add(ms, 2);
        }
        t.print();
        std::printf("\nmean audio prep: %.2f ms/item (simulator "
                    "calibration: 5.45 ms/core)\n",
                    total_ms / items);
    }

    if (threads > 0)
        runExecutorDemo(items, threads);
    return 0;
}
