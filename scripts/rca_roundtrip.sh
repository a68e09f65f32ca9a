#!/usr/bin/env bash
# Campaign -> reproducer -> --replay round trip over the full --smoke
# vulnerability map (50 seeds x 9 fault kinds at rate 0.5). The smoke
# run's own self-checks are armed (replay detection strictly faster
# than a delayed in-band verdict, at least one escaped fault class,
# every escaped cell round-trips in-process); on top of those this
# script asserts:
#
#   - the ranked tables and the written reproducers are byte-identical
#     across --jobs 1 and --jobs 8 (campaign cells are pure values of
#     their seed; sweep scheduling must not leak into attribution or
#     shrinking),
#   - every escaped cell wrote a JSON reproducer,
#   - replaying each reproducer through the --replay CLI reproduces
#     the recorded verdict exactly (exit 0, "reproduced" on stdout),
#     and
#   - the planted backup-corruption escape is caught by the replay
#     detector, shrunk, and round-tripped, and the reproducer it
#     writes replays through the --replay CLI.
#
# Usage: scripts/rca_roundtrip.sh <path-to-bench_vuln_map>

set -euo pipefail

bin=${1:?usage: rca_roundtrip.sh <bench_vuln_map>}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Fresh nested paths: --repro-dir must create them.
repro="$out/j1/escaped"
echo "=== [rca-roundtrip] --smoke sweep, --jobs 1 vs --jobs 8"
"$bin" --smoke --jobs 1 --repro-dir "$repro" > "$out/smoke.txt"
"$bin" --smoke --jobs 8 --repro-dir "$out/j8/escaped" > "$out/j8.txt"
cmp "$out/smoke.txt" "$out/j8.txt"
diff -r "$repro" "$out/j8/escaped"

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

echo "=== [rca-roundtrip] planted escape caught, shrunk, round-tripped"
"$bin" --plant-escape --repro-dir "$out/plant" > "$out/plant.txt"
grep -q "ok: planted escape" "$out/plant.txt"

echo "=== [rca-roundtrip] replaying every reproducer via --replay"
for f in "$repro"/*.json "$out/plant/planted_escape.json"; do
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
