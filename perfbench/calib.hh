/**
 * @file
 * Fixed host-speed calibration work, independent of the simulator.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <cstdint>

namespace perfbench
{

/** Run @p iters iterations of the calibration loop; returns a sink. */
std::uint64_t calibrationChunk(std::uint64_t iters);

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
