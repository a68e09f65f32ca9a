#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace indra
{

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1) | 1)
{
    next();
    state += seed;
    next();
}

std::uint64_t
Pcg32::next64()
{
    // Sequence the two draws explicitly: the evaluation order of
    // `(next() << 32) | next()` is unspecified, and a deterministic
    // generator cannot depend on the compiler's choice.
    std::uint64_t high = next();
    std::uint64_t low = next();
    return (high << 32) | low;
}

std::uint64_t
Pcg32::uniform(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "uniform: lo > hi");
    std::uint64_t span = hi - lo + 1;
    if (span == 0) {
        // Full 64-bit range.
        return next64();
    }
    if (span <= 0xffffffffULL)
        return lo + nextBounded(static_cast<std::uint32_t>(span));
    // Lemire-style rejection, exactly as nextBounded does for 32-bit
    // spans: a bare `r % span` over-weights the low residues (for a
    // span of 3 * 2^62 the bottom quarter of the range would be drawn
    // twice as often as the rest).
    std::uint64_t threshold = (0 - span) % span;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return lo + (r % span);
    }
}

std::uint32_t
Pcg32::geometric(double p)
{
    panic_if(p <= 0.0 || p > 1.0, "geometric: p out of range");
    if (p == 1.0)
        return 0;
    double u = uniformReal();
    // Guard against log(0).
    if (u <= 0.0)
        u = 1e-12;
    return static_cast<std::uint32_t>(std::log(u) / std::log(1.0 - p));
}

std::uint32_t
Pcg32::zipf(std::uint32_t n, double s)
{
    panic_if(n == 0, "zipf: n == 0");
    if (n == 1)
        return 0;
    // Rejection-inversion (Hormann & Derflinger) for s != 1 handled by
    // the generalized harmonic integral; falls back to s ~ 1 safely.
    auto h = [s](double x) {
        if (std::abs(s - 1.0) < 1e-9)
            return std::log(x);
        return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
    };
    auto hInv = [s](double y) {
        if (std::abs(s - 1.0) < 1e-9)
            return std::exp(y);
        return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
    };
    double hx0 = h(0.5) - 1.0;
    double hn = h(n + 0.5);
    for (;;) {
        double u = hx0 + uniformReal() * (hn - hx0);
        double x = hInv(u);
        std::uint32_t k = static_cast<std::uint32_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double acceptance = std::pow(static_cast<double>(k), -s);
        double bound = h(k + 0.5) - h(k - 0.5);
        // Cheap accept test: acceptance / bound is close to 1 for the
        // dominating density; a uniform draw decides.
        if (uniformReal() * bound <= acceptance)
            return k - 1;
    }
}

Pcg32
Pcg32::fork()
{
    std::uint64_t seed = next64();
    std::uint64_t stream = next64();
    return Pcg32(seed, stream);
}

Cycles
expGap(Pcg32 &rng, double rate_per_mcycle)
{
    double u = rng.uniformReal();
    double gap = -std::log(1.0 - u) * 1e6 / rate_per_mcycle;
    return gap < 1.0 ? 1 : static_cast<Cycles>(gap);
}

} // namespace indra
