/**
 * @file
 * Golden outputs the benchmark checks every run against.
 *
 * Regenerate with `tb_perfbench --print-pins` after a change that is
 * meant to move the simulated numbers, and say so in the change.
 */

#ifndef TRAINBOX_PERFBENCH_PINS_HH
#define TRAINBOX_PERFBENCH_PINS_HH

#include <cstddef>
#include <cstdint>

namespace perfbench {

/** fig19_grid: throughput (samples/s) per cell, model-major. */
const double kFig19Throughput[] = {
    29469.229788919016,
    90789.149895716939,
    91201.175998858729,
    183210.46549188034,
    775242.60071678413,
    28793.930654504315,
    87656.223266308167,
    91244.286761833166,
    182622.40415562407,
    1899816.7496384014,
    30060.641303751028,
    92114.14844932541,
    91554.836916928441,
    194727.73543249219,
    426455.01100052381,
    28635.306189559054,
    86599.54884746045,
    91244.286761833166,
    182603.35555340978,
    3076005.0393783003,
    28852.459987430764,
    88009.396375563199,
    91244.286761833195,
    182965.01006581145,
    1660721.6406203108,
    8766.2080855700715,
    66466.906626162046,
    70111.073877066869,
    140308.34679721794,
    504895.27590851934,
    8745.716101036598,
    64407.787239447171,
    67903.838139112093,
    130978.96218872383,
    730006.51527463202,
};

/** fleet_outages: traces per run (each its own job order and outages). */
constexpr std::size_t kFleetTraces = 4;

/** fleet_outages on the default seed, per trace. */
struct FleetPins
{
    double aggregateThroughput;
    std::size_t jobsCompleted;
    std::size_t jobsAbandoned;
    std::size_t restarts;
};
const FleetPins kFleetPins[kFleetTraces] = {
    {3199333.7415527538, 98, 2, 49},
    {3123450.5904953526, 98, 2, 46},
    {3142455.2999731386, 96, 4, 40},
    {3165074.4265238079, 97, 3, 51},
};

/** prep_mix on the default seed: CRC32C over the first items' outputs. */
constexpr std::uint32_t kPrepDigest = 0xd68071a8;

} // namespace perfbench

#endif // TRAINBOX_PERFBENCH_PINS_HH
