#!/bin/sh
# Non-test lines of Rust source, by the ROADMAP's counting rule: per
# crate (and so for crates/system/src, the number the ROADMAP tracks),
# every *.rs except tests.rs and per_cluster.rs, each cut at its first
# column-0 `#[cfg(test)]`.
#
#   scripts/loc.sh            # every crates/*/src, then the total
#   scripts/loc.sh DIR...     # just these directories
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -name tests.rs ! -name per_cluster.rs -exec \
        awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }' {} +
}

[ $# -gt 0 ] || set -- crates/*/src
total=0
for dir in "$@"; do
    n=$(count "$dir" | awk '{ s += $1 } END { print s + 0 }')
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
