#!/usr/bin/env bash
# Campaign -> reproducer -> --replay round trip over the full --smoke
# vulnerability map (50 seeds x 9 fault kinds at rate 0.5). The smoke
# run's own self-checks are armed (replay detection strictly faster
# than a delayed in-band verdict, at least one escaped fault class);
# on top of those this script asserts:
#
#   - every escaped cell wrote a JSON reproducer, and
#   - replaying each reproducer through the --replay CLI reproduces
#     the recorded verdict exactly (exit 0, "reproduced" on stdout).
#
# Usage: scripts/rca_roundtrip.sh <path-to-bench_vuln_map>

set -euo pipefail

bin=${1:?usage: rca_roundtrip.sh <bench_vuln_map>}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# A fresh nested path: --repro-dir must create it.
repro="$out/repro/escaped"
echo "=== [rca-roundtrip] --smoke sweep with reproducer output"
"$bin" --smoke --jobs 2 --repro-dir "$repro" > "$out/smoke.txt"

escaped=$(awk '/escaped cells,/ { print $1 }' "$out/smoke.txt")
wrote=$(ls "$repro" | wc -l)
echo "=== [rca-roundtrip] $escaped escaped cells, $wrote reproducers"
if [ -z "$escaped" ] || [ "$escaped" -eq 0 ]; then
    echo "rca roundtrip: smoke sweep produced no escaped cells" >&2
    exit 1
fi
if [ "$wrote" -lt "$escaped" ]; then
    # Cells can share a reproducer file name only if they share
    # (kind, seed); the sweep uses one rate, so names are unique and
    # every escaped cell must have written exactly one file.
    echo "rca roundtrip: $escaped escaped cells but only $wrote" \
         "reproducer files" >&2
    exit 1
fi

echo "=== [rca-roundtrip] replaying every reproducer via --replay"
for f in "$repro"/*.json; do
    "$bin" --replay "$f" > "$out/replay.txt" || {
        echo "rca roundtrip: replay mismatch for $f" >&2
        cat "$out/replay.txt" >&2
        exit 1
    }
    grep -q "reproduced" "$out/replay.txt" || {
        echo "rca roundtrip: no 'reproduced' verdict for $f" >&2
        exit 1
    }
done

echo "rca roundtrip passed"
