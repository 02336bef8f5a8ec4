/**
 * @file
 * The pinned preset throughputs: ResNet-50 on 32 accelerators,
 * run(4, 8), default config. They were recorded before the
 * checkpoint, robustness and fleet subsystems existed; with those off,
 * no resource, flow or event they add may perturb the simulation, so
 * every preset must still reach its throughput to the last bit.
 */

#ifndef TRAINBOX_TESTS_PRESET_GOLDENS_HH
#define TRAINBOX_TESTS_PRESET_GOLDENS_HH

#include "trainbox/server_config.hh"

namespace tb {

/** One preset's pinned throughput (samples/s). */
struct PresetGolden
{
    ArchPreset preset;
    double throughput;
};

inline constexpr PresetGolden kPresetGoldens[] = {
    { ArchPreset::Baseline, 30412.537359822836 },
    { ArchPreset::BaselineAccFpga, 44099.421789335029 },
    { ArchPreset::BaselineAccP2p, 52726.559174010392 },
    { ArchPreset::BaselineAccP2pGen4, 105706.38456337905 },
    { ArchPreset::TrainBoxNoPool, 237516.29284407894 },
    { ArchPreset::TrainBox, 237516.29284407894 },
    { ArchPreset::BaselineAccGpu, 31966.593052101314 },
};

/** The Baseline row of kPresetGoldens. */
inline constexpr double kBaseline32Throughput = kPresetGoldens[0].throughput;

} // namespace tb

#endif // TRAINBOX_TESTS_PRESET_GOLDENS_HH
