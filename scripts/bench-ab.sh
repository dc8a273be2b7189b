#!/usr/bin/env bash
# Alternating A/B timing of the repo benchmark between a parent revision
# and the working tree, with both binaries built at one absolute path.
#
#   scripts/bench-ab.sh PARENT_REV [PAIRS] [WORKLOAD]
#
# The benchmark binary's function layout depends on the directory it was
# built in, and that alone can move a timing by up to ~20 %. So both
# `bga-benchmark` binaries are built in the same directory,
# target/bench-ab/tree: first the files of PARENT_REV (`git archive`),
# then the working tree's tracked and untracked, not ignored, files,
# uncommitted edits included. The tree is refilled in turn over one cargo
# target directory, and each binary is copied out after its build.
#
# It then runs PAIRS pairs (default 5) per workload (default: every
# workload in BENCHMARK.json), pair i at seed i, parent first in odd pairs
# and change first in even ones, with the arguments benchmark/run.sh
# hands the binary (`--spec`, `--out-dir`) plus `--workload W --seed i
# --seconds 16 --trace 0`. For every end-to-end metric in BENCHMARK.json
# it prints the parent's and the change's medians, the parent's IQR,
# change/parent and in how many pairs the change was better.
#
# Nothing under benchmark/ changes. Each run's result line is kept in
# target/bench-ab/results/. Exit status: 0 when every run finished
# correct, 1 when a run failed or reported `"correct": false`, 2 on a
# usage or build error.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_REV [PAIRS] [WORKLOAD]" >&2
    exit 2
fi
parent_rev="$1"
pairs="${2:-5}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$repo/BENCHMARK.json"
if [ $# -ge 3 ]; then
    workloads="$3"
else
    workloads="$(sed -n '/"workloads"/,/\]/s/.*{"name": "\([a-z_]*\)".*/\1/p' "$spec")"
fi
case "$pairs" in
    '' | *[!0-9]* | 0)
        echo "bench-ab: PAIRS must be a positive integer, not '$pairs'" >&2
        exit 2
        ;;
esac
if ! git -C "$repo" rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null; then
    echo "bench-ab: '$parent_rev' is not a commit" >&2
    exit 2
fi

work="$repo/target/bench-ab"
tree="$work/tree"
results="$work/results"
mkdir -p "$work/bin" "$results"

# Empties the build tree except its cargo target directory.
clear_tree() {
    mkdir -p "$tree"
    find "$tree" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
}

# Builds the benchmark in the tree and copies the binary to bin/$1.
build_as() {
    if ! cargo build --quiet --release --offline \
        --manifest-path "$tree/benchmark/Cargo.toml" --target-dir "$tree/target" >&2; then
        echo "bench-ab: building the $1 benchmark failed" >&2
        exit 2
    fi
    cp "$tree/target/release/bga-benchmark" "$work/bin/$1"
}

clear_tree
git -C "$repo" archive "$parent_rev" | tar -x -C "$tree"
build_as parent
clear_tree
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        # Files deleted from the working tree but still in the index.
        [ -e "$file" ] && printf '%s\0' "$file"
    done | tar --null -T - -c) | tar -x -C "$tree"
build_as change

failed=0
run_one() { # side workload seed
    local out="$results/$2-$1-seed$3.json"
    if ! "$work/bin/$1" --out-dir "$work/out-$1" --spec "$spec" \
        --workload "$2" --seed "$3" --seconds 16 --trace 0 | tail -n 1 >"$out"; then
        echo "bench-ab: $1 run of $2 at seed $3 failed" >&2
        failed=1
    fi
    if ! grep -q '"correct":true' "$out"; then
        echo "bench-ab: $1 run of $2 at seed $3 was not correct" >&2
        failed=1
    fi
}

# "name better" for every end-to-end metric.
metrics="$(sed -n '/"end_to_end"/,/\]/s/.*{"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' "$spec")"

for workload in $workloads; do
    rm -f "$results/$workload-"*.json
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2 == 1)); then
            run_one parent "$workload" "$i"
            run_one change "$workload" "$i"
        else
            run_one change "$workload" "$i"
            run_one parent "$workload" "$i"
        fi
        echo "bench-ab: $workload pair $i of $pairs done" >&2
    done
    echo "== $workload: $pairs alternating pairs, parent $parent_rev vs working tree"
    for ((i = 1; i <= pairs; i++)); do
        for side in parent change; do
            grep -o '"[a-z0-9_.]*":{"value":[^,}]*' "$results/$workload-$side-seed$i.json" |
                sed 's/^"\([^"]*\)":{"value":/'"$side $i"' \1 /'
        done
    done | awk -v metrics="$metrics" -v pairs="$pairs" '
        # Quantile p of the n sorted values in v, linearly interpolated.
        function quantile(v, n, p,    h, lo) {
            h = (n - 1) * p
            lo = int(h)
            return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
        }
        function sorted(side, name, v,    n, i, j, x) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, name) in value) v[n++] = value[side, i, name]
            for (i = 1; i < n; i++) {
                x = v[i]
                for (j = i - 1; j >= 0 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
            return n
        }
        { value[$1, $2, $3] = $4 }
        END {
            printf "%-16s %12s %12s %12s %9s %6s\n", "metric", "parent", "change", "parent IQR", "change/p", "wins"
            count = split(metrics, m, /[ \n]/)
            for (k = 1; k < count; k += 2) {
                name = m[k]; better = m[k + 1]
                np = sorted("parent", name, pv)
                nc = sorted("change", name, cv)
                if (np == 0 || nc == 0) continue
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    if (!(("parent", i, name) in value) || !(("change", i, name) in value)) continue
                    a = value["parent", i, name]; b = value["change", i, name]
                    if ((better == "lower" && b < a) || (better == "higher" && b > a)) wins++
                }
                p50 = quantile(pv, np, 0.5); c50 = quantile(cv, nc, 0.5)
                iqr = quantile(pv, np, 0.75) - quantile(pv, np, 0.25)
                printf "%-16s %12.4g %12.4g %12.4g %9.3f %3d/%-2d\n", name, p50, c50, iqr, (p50 ? c50 / p50 : 0), wins, pairs
            }
        }'
done
exit "$failed"
