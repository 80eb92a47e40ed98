#!/bin/sh
# Alternating parent/change pairs of one repo-benchmark workload, run
# with the benchmark contract's arguments (`--workload W --seed S
# --seconds 10 --trace 0`). Prints every run's end-to-end metrics and
# report digest, then per metric the two medians, the parent's
# interquartile range and how many pairs the change won, then whether
# every run's report digest agreed (`digests: identical`) or which pair
# first disagreed (`digests: DIFFER (pair k)`), and last the failed
# operations summed over each side's runs from their `"failed"` field
# (`failed: parent <sum> change <sum>`).
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# The parent revision is exported with `git archive` (the repo's git
# state is untouched) and built beside the working tree, each side in
# its own CARGO_TARGET_DIR, both under one scratch directory:
# BENCH_PAIRS_DIR if set (kept, so a second call reuses the builds),
# otherwise a temporary one removed on exit. Runs never overlap, and
# the side that runs first alternates: odd pairs run the parent first,
# even pairs the change. Each pair still prints parent, then change.
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
digests=$dir/digests.txt
failed=$dir/failed.txt
: >"$runs"
: >"$digests"
: >"$failed"
run() { # <pair> <side> <checkout>
    out=$(cd "$3" && "$dir/target-$2/release/vrex-benchmark" --workload "$workload" \
        --seed "$seed" --seconds 10 --trace 0) || true
    line=$(printf '%s\n' "$out" | tail -n 1)
    digest=$(printf '%s\n' "$out" | sed -n 's/.*report digest \([0-9a-f]*\).*/\1/p' | tail -n 1)
    echo "$1 $2 $digest" >>"$digests"
    printf '%-4s %-7s' "$1" "$2"
    for m in $metrics; do
        name=${m%%:*}
        value=$(printf '%s\n' "$line" |
            sed -n "s/.*\"$name\": {\"value\": \([^,}]*\).*/\1/p")
        printf ' %s=%s' "$name" "$value"
        echo "$1 $2 $name $value" >>"$runs"
    done
    nfailed=$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
    echo "$1 $2 $nfailed" >>"$failed"
    printf ' failed=%s digest=%s\n' "$nfailed" "$digest"
}

echo "== $workload, seed $seed, $pairs pair(s): $rev vs working tree =="
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$i" parent "$dir/parent" >"$dir/line-parent"
        run "$i" change "$root" >"$dir/line-change"
    else
        run "$i" change "$root" >"$dir/line-change"
        run "$i" parent "$dir/parent" >"$dir/line-parent"
    fi
    cat "$dir/line-parent" "$dir/line-change"
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

# Bit-identity: every run of both sides must print the same digest.
awk '
    NR == 1 { first = $3 }
    $3 != first || $3 == "" { if (!bad) bad = $1 }
    END { print bad ? "digests: DIFFER (pair " bad ")" : "digests: identical" }
' "$digests"

# A run that prints no `"failed"` field (it crashed) counts as one.
awk '
    $2 == "parent" { p += $3 == "" ? 1 : $3 }
    $2 == "change" { c += $3 == "" ? 1 : $3 }
    END { printf "failed: parent %d change %d\n", p, c }
' "$failed"
