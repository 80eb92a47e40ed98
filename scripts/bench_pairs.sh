#!/bin/sh
# Alternating parent/change pairs of one repo-benchmark workload, run
# with the benchmark contract's arguments (`--workload W --seed S
# --seconds 10 --trace 0`). Prints every run's end-to-end metrics, then
# per metric the two medians, the parent's interquartile range and how
# many pairs the change won.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# The parent revision is exported with `git archive` (the repo's git
# state is untouched) and built beside the working tree, each side in
# its own CARGO_TARGET_DIR, both under one scratch directory:
# BENCH_PAIRS_DIR if set (kept, so a second call reuses the builds),
# otherwise a temporary one removed on exit. Runs never overlap; the
# order is parent, change, parent, change, ...
set -eu

[ $# -ge 3 ] || {
    echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
    exit 2
}
rev=$1 workload=$2 pairs=$3 seed=${4:-11}
root=$(cd "$(dirname "$0")/.." && pwd)

if [ -n "${BENCH_PAIRS_DIR:-}" ]; then
    dir=$BENCH_PAIRS_DIR
    mkdir -p "$dir"
else
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
fi

# name:better — the end-to-end metrics of BENCHMARK.json.
metrics="setup_s:lower items_per_s:higher call_ms_p50:lower call_ms_p95:lower peak_rss_mb:lower"

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
build() { # <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --quiet --release --offline \
        --manifest-path benchmark/Cargo.toml)
}
echo "building $rev and the working tree under $dir" >&2
build "$dir/parent" "$dir/target-parent"
build "$root" "$dir/target-change"

runs=$dir/runs.txt
: >"$runs"
run() { # <pair> <side> <checkout>
    line=$(cd "$3" && "$dir/target-$2/release/vrex-benchmark" --workload "$workload" \
        --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
    printf '%-4s %-7s' "$1" "$2"
    for m in $metrics; do
        name=${m%%:*}
        value=$(printf '%s\n' "$line" |
            sed -n "s/.*\"$name\": {\"value\": \([^,}]*\).*/\1/p")
        printf ' %s=%s' "$name" "$value"
        echo "$1 $2 $name $value" >>"$runs"
    done
    printf ' failed=%s\n' "$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
}

echo "== $workload, seed $seed, $pairs pair(s): $rev vs working tree =="
i=1
while [ "$i" -le "$pairs" ]; do
    run "$i" parent "$dir/parent"
    run "$i" change "$root"
    i=$((i + 1))
done

echo
printf '%-12s %-6s %14s %12s %14s %8s %6s\n' \
    metric better parent_median parent_iqr change_median ratio wins
for m in $metrics; do
    name=${m%%:*} better=${m#*:}
    awk -v name="$name" -v better="$better" -v pairs="$pairs" '
        # Linear-interpolation quantile of the sorted a[1..n].
        function q(a, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        $3 == name && $2 == "parent" { p[$1] = $4; ps[++np] = $4 }
        $3 == name && $2 == "change" { c[$1] = $4; cs[++nc] = $4 }
        END {
            if (np == 0 || nc == 0) exit
            for (k = 1; k <= pairs; k++)
                wins += (better == "higher") ? (c[k] > p[k]) : (c[k] < p[k])
            sort(ps, np); sort(cs, nc)
            pm = q(ps, np, 0.5); cm = q(cs, nc, 0.5)
            printf "%-12s %-6s %14.6g %12.4g %14.6g %8.3f %3d/%d\n", name, better,
                pm, q(ps, np, 0.75) - q(ps, np, 0.25), cm, pm == 0 ? 0 : cm / pm, wins, pairs
        }' "$runs"
done
