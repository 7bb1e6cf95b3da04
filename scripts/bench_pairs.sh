#!/usr/bin/env bash
# The house rule for judging a gain or "no regression" (ROADMAP, Open
# items; choosing-metrics §8): interleaved base/change pairs of the one
# benchmark on one seed, alternating which side runs first.
#
#   scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seed=7]
#
# The change is the tree this script is run from, uncommitted edits
# included; the base is a checkout of <base-rev> under $TMPDIR. Each side
# runs its *own* benchmarks/cellbench/bench.sh (so its own copy of the
# benchmark and the library crates) with its own CARGO_TARGET_DIR, at
# `--seconds 10 --trace 0`. Every run made is kept and reported: a run a
# host stall ruined stays in the set.
#
# Prints the records' directories, `cellbench compare <base> <change>`,
# and per end-to-end metric the pairs the change won / lost / tied with
# each side's quartiles. The work directory is keyed by the base commit
# and reused, so a second workload does not rebuild either side.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seed=7]" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=${3:-10} seed=${4:-7}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
work="${TMPDIR:-/tmp}/bench_pairs.${base_sha:0:12}"
records="$work/records/$workload.seed$seed"

# `git archive`, not `git worktree`: the base is only ever read, and a
# plain directory leaves nothing registered in .git to prune.
if [ ! -d "$work/base" ]; then
    mkdir -p "$work/base.partial"
    git -C "$root" archive "$base_sha" | tar -x -C "$work/base.partial"
    mv "$work/base.partial" "$work/base"
fi
mkdir -p "$records/base" "$records/change"

run_side() { # side tree pair
    local out="$records/$1/run$3.json"
    CARGO_TARGET_DIR="$work/target-$1" bash "$2/benchmarks/cellbench/bench.sh" \
        --workload "$workload" --seed "$seed" --seconds 10 --trace 0 --out "$out" \
        >"${out%.json}.txt" 2>"${out%.json}.err" || {
        cat "${out%.json}.err" >&2
        echo "bench_pairs: the $1 side failed on pair $3" >&2
        exit 1
    }
}

first_free=1
while [ -e "$records/base/run$first_free.json" ]; do first_free=$((first_free + 1)); done
for ((i = first_free; i < first_free + pairs; i++)); do
    if ((i % 2)); then
        run_side base "$work/base" "$i"
        run_side change "$root" "$i"
    else
        run_side change "$root" "$i"
        run_side base "$work/base" "$i"
    fi
    echo "pair $i done" >&2
done

echo "base   $base_sha  $records/base"
echo "change $(git -C "$root" describe --always --dirty)  $records/change"
echo
# Exit 1 (a regression) is a result to print, not a reason to stop.
"$work/target-change/release/cellbench" compare "$records/base" "$records/change" || echo "compare: exit $?"
echo

# The result line (last line of a run's stdout) carries the three gated
# metrics as `"name":{"value":N`.
value() { tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[-+.eE0-9]*" | sed 's/.*://'; }
for metric in throughput_per_s:higher request_p50_us:lower setup_s:lower; do
    name=${metric%%:*}
    for b in "$records"/base/run*.txt; do
        echo "$(value "$b" "$name") $(value "$records/change/$(basename "$b")" "$name")"
    done | awk -v name="$name" -v better="${metric##*:}" '
        function quartiles(v, n,    i, j, t, s) {
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            s = ""
            for (i = 1; i <= 3; i++) { t = 1 + (n - 1) * i / 4; j = int(t); s = s " " v[j] + (t - j) * (v[j < n ? j + 1 : j] - v[j]) }
            return s
        }
        BEGIN { CONVFMT = "%.10g" }
        NF == 2 { n++; b[n] = $1; c[n] = $2
                  if ($1 == $2) tied++; else if ((better == "higher") == ($2 > $1)) won++; else lost++ }
        END { printf "%-18s change won %d, lost %d, tied %d of %d pairs (%s is better)\n", name, won, lost, tied, n, better
              printf "  base   q1/median/q3:%s\n  change q1/median/q3:%s\n", quartiles(b, n), quartiles(c, n) }'
done
