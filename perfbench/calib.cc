/**
 * @file
 * The host-speed calibration loop. It lives in its own translation
 * unit and uses nothing from the simulator, so no change to the
 * simulator can speed it up or slow it down: the ratio of a workload's
 * simulated-instruction rate to this loop's rate judges the code, not
 * the host the benchmark happens to run on.
 *
 * The loop mixes what the simulator does most: dependent integer
 * arithmetic, data-dependent branches, and random reads and writes
 * over a table larger than L1 and smaller than L2 (256 KiB).
 */

#include "calib.hh"

#include <cstdint>
#include <vector>

namespace perfbench
{

std::uint64_t
calibrationChunk(std::uint64_t iters)
{
    static std::vector<std::uint64_t> table(1u << 15, 0x9e3779b97f4a7c15ULL);
    std::uint64_t state = 0x853c49e6748fea9bULL;
    std::uint64_t acc = 0;
    const std::uint64_t mask = table.size() - 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t x = state >> 29;
        std::uint64_t &slot = table[x & mask];
        if ((x ^ slot) & 4)
            acc += slot >> 3;
        else
            acc ^= slot << 1;
        slot += x;
    }
    return acc;
}

} // namespace perfbench
