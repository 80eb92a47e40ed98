#!/bin/sh
# Bit-identity of pinned stdout between a parent revision and the
# working tree. Runs every deterministic bin of vrex-bench — the full
# tier_capacity grids (± --overlap), Figs. 4 / 7 / 13 / 14 / 15 / 16 /
# 17 / 18 / 19 / 20, Tables I / II / III, the ReSV parameter sweep,
# scaling, realtime_session, the full serve_capacity and device_scaling
# sweeps and the --smoke capacity gates — and the four examples on
# both sides, `cmp`s each pair and prints one line per artifact
# (`same <lines>` or `DIFFER`). A `DIFFER` line is followed by the
# first 40 lines of `diff -u <parent> <change>` for that artifact, so
# the log shows what moved. The last line is `stdout: identical` or
# `stdout: DIFFER (<names>)`; any difference exits 1.
#
#   scripts/stdout_cmp.sh <parent-rev>
#
# The parent revision is exported with `git archive` (the repo's git
# state is untouched) and built beside the working tree, each side in
# its own CARGO_TARGET_DIR, both under one scratch directory:
# STDOUT_CMP_DIR if set (kept, so a second call reuses the builds and
# leaves every output for diffing), otherwise a temporary one removed
# on exit. A run that exits non-zero records its status in its output,
# so a gate that starts failing on one side shows as a difference.
set -eu

[ $# -eq 1 ] || {
    echo "usage: $0 <parent-rev>" >&2
    exit 2
}
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)

if [ -n "${STDOUT_CMP_DIR:-}" ]; then
    dir=$STDOUT_CMP_DIR
    mkdir -p "$dir"
else
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
fi

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
build() { # <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --quiet --release --offline \
        -p vrex-bench -p vrex --bins --examples)
}
echo "building $rev and the working tree under $dir" >&2
build "$dir/parent" "$dir/target-parent"
build "$root" "$dir/target-change"

# name|path under target/release|arguments
artifacts="
tier_capacity|tier_capacity|
tier_capacity_overlap|tier_capacity|--overlap
fig13_latency_energy|fig13_latency_energy|
fig14_e2e_breakdown|fig14_e2e_breakdown|
fig16_ablation|fig16_ablation|
tab2_accuracy|tab2_accuracy|
fig07_similarity|fig07_similarity|
fig19_resv_ablation|fig19_resv_ablation|
fig20_ratio_distribution|fig20_ratio_distribution|
sweep_resv_params|sweep_resv_params|
fig04_motivation|fig04_motivation|
fig15_oaken|fig15_oaken|
fig17_bandwidth|fig17_bandwidth|
fig18_roofline|fig18_roofline|
tab1_specs|tab1_specs|
tab3_area_power|tab3_area_power|
scaling|scaling|
serve_capacity|serve_capacity|
device_scaling|device_scaling|
serve_capacity_smoke|serve_capacity|--smoke
tier_capacity_smoke|tier_capacity|--smoke
tier_capacity_smoke_overlap|tier_capacity|--smoke --overlap
device_scaling_smoke|device_scaling|--smoke
realtime_session|realtime_session|
quickstart|examples/quickstart|
retrieval_comparison|examples/retrieval_comparison|
streaming_qa|examples/streaming_qa|
edge_deployment|examples/edge_deployment|
"

run() { # <side> <checkout> <name> <path> <args>
    mkdir -p "$dir/out-$1"
    # shellcheck disable=SC2086 # the argument list splits on purpose
    (cd "$2" && "$dir/target-$1/release/$4" $5 >"$dir/out-$1/$3.txt" 2>/dev/null) ||
        echo "exit status $?" >>"$dir/out-$1/$3.txt"
}

differ=
printf '%s\n' "$artifacts" | while IFS='|' read -r name path args; do
    [ -n "$name" ] || continue
    run parent "$dir/parent" "$name" "$path" "$args"
    run change "$root" "$name" "$path" "$args"
done
for name in $(printf '%s\n' "$artifacts" | sed -n 's/^\([^|]*\)|.*/\1/p'); do
    a=$dir/out-parent/$name.txt b=$dir/out-change/$name.txt
    if cmp -s "$a" "$b"; then
        printf '%-30s same %s\n' "$name" "$(wc -l <"$a" | tr -d ' ')"
    else
        printf '%-30s DIFFER\n' "$name"
        diff -u "$a" "$b" | head -n 40
        differ="$differ${differ:+ }$name"
    fi
done

if [ -z "$differ" ]; then
    echo "stdout: identical"
else
    echo "stdout: DIFFER ($differ)"
    exit 1
fi
