#!/usr/bin/env bash
# The CI pipeline, runnable locally: three configurations of the same
# tree, each driven through its CMake preset (see CMakePresets.json).
#
#   ci-release     Release build, the full ctest suite (unit tests,
#                  harness determinism, fault campaign smoke, overload
#                  storm smoke with its self-checks, and the obs
#                  export smoke: --stats-json/--trace validation).
#   ci-asan-ubsan  address+undefined sanitizers over the unit tests
#                  and the labelled corruption paths: -L unit, faults,
#                  resilience, harness, obs, check, adversary, domain,
#                  cluster, rca (the differential-oracle tests run
#                  with INDRA_CHECK=ON under both sanitizer configs).
#   ci-tsan        thread sanitizer over the parallel sweep harness,
#                  the storm cells, and the per-cell trace logs:
#                  -L harness, resilience, obs, check, adversary,
#                  domain, cluster, rca.
#
# The ci-release leg additionally runs scripts/perf_gate.sh (the
# canonical bench_perf_kernel sweep, exported as BENCH_perf.json and
# judged against bench/perf_baseline.json; >15% ops/sec regression on
# any workload fails the pipeline). The --jobs 1/8 bit-identity of
# the adversary, domain-rewind and cluster sweeps runs inside ctest
# (the *_jobs_identity tests, label determinism), as do the
# vulnerability map's checks (bench_vuln_map_roundtrip,
# scripts/rca_roundtrip.sh).
#
# After the presets, scripts/fuzz_smoke.sh runs a fixed-seed slice of
# the oracle fuzzer plus its planted-bug sensitivity check.
#
# Usage: scripts/ci.sh [preset ...]   (default: all three in order)

set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(ci-release ci-asan-ubsan ci-tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)

for preset in "${presets[@]}"; do
    echo "=== [$preset] configure"
    cmake --preset "$preset"
    echo "=== [$preset] build"
    cmake --build --preset "$preset" -j "$jobs"
    echo "=== [$preset] test"
    ctest --preset "$preset" -j "$jobs"
    if [ "$preset" = ci-release ]; then
        # Perf regression gate: release timing only — sanitizer builds
        # are order-of-magnitude slower and would only measure the
        # instrumentation. Emits BENCH_perf.json, fails on a >15%
        # ops/sec regression against bench/perf_baseline.json.
        echo "=== [$preset] perf gate"
        scripts/perf_gate.sh --build build-ci-release
    fi
done

scripts/fuzz_smoke.sh

echo "=== all CI presets passed: ${presets[*]}"
