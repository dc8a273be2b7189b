#!/usr/bin/env bash
# Compares two `bga` binaries on the kernel subcommands (cc, bfs, bc,
# kcore, sssp): same exit code and same stdout, with `wall clock:` lines
# dropped (see `normalise`), for every invocation below: the ones CI runs
# and the ones the kernel command tests run. Each runs twice: with the
# default fan-out grain and with BGA_PARALLEL_GRAIN=1.
#
#   crates/cli/scripts/compare-kernel-output.sh OLD_BGA NEW_BGA
#
# One relaxation applies to invocations both binaries reject: the new
# binary may fail earlier, so its stdout may be a strict prefix of the old
# one's (e.g. without the `graph:` line printed before a late usage
# check). Error text goes to stderr and is not compared.
#
# Exit status: 0 when every invocation agrees, 1 otherwise.
set -u
old=$(realpath "$1")
new=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

# Fixtures: a weighted edge list and a compressed binary.
printf '0 1 5\n1 2 3\n2 3 9\n' > tiny.edges
"$new" graph convert cond-mat-2005 smoke.bgacsr > /dev/null

G=cond-mat-2005
invocations=(
  # cc
  "cc $G" "cc $G --variant union-find" "cc $G --variant hybrid" "cc $G --variant bfs"
  "cc $G --variant branch-based" "cc $G --variant nope" "cc"
  "cc $G --instrumented" "cc $G --variant branch-based --instrumented"
  "cc $G --variant hybrid --instrumented" "cc $G --variant auto"
  "cc $G --threads 2 --trace t.jsonl" "cc $G --trace t.jsonl"
  "cc $G --threads 2 --instrumented --trace t.jsonl" "cc $G --threads 2 --trace"
  "cc $G --threads 2 --timeout-ms 60000" "cc $G --threads 2 --timeout-ms 0"
  "cc $G --timeout-ms 5" "cc $G --threads 2 --timeout-ms" "cc $G --threads 2 --timeout-ms abc"
  "cc $G --threads 2 --instrumented --timeout-ms 5"
  "cc $G --threads 2 --timeout-ms 0 --trace t.jsonl"
  "cc $G --variant branch-based --threads 2" "cc $G --variant branch-avoiding --threads 2"
  "cc $G --variant auto --threads 2" "cc $G --variant branch-based --threads 2 --instrumented"
  "cc $G --variant branch-avoiding --threads 2 --instrumented"
  "cc $G --variant auto --threads 2 --instrumented" "cc $G --variant hybrid --threads 2"
  "cc $G --threads two" "cc $G --threads" "cc $G --variant avoiding --threads 2"
  "cc $G --variant avoiding" "cc $G --threads 2 --root 5" "cc $G --variant"
  # bfs
  "bfs $G" "bfs $G --variant branch-based" "bfs $G --variant branch-avoiding"
  "bfs $G --variant bottom-up" "bfs $G --variant direction-optimizing" "bfs $G --variant nope"
  "bfs $G --root abc" "bfs $G --root 7" "bfs $G --root" "bfs $G --instrumented"
  "bfs $G --variant branch-avoiding --instrumented" "bfs $G --variant bottom-up --instrumented"
  "bfs $G --variant branch-based --threads 2" "bfs $G --variant branch-avoiding --threads 2"
  "bfs $G --variant direction-optimizing --threads 2" "bfs $G --variant auto --threads 2"
  "bfs $G --variant branch-avoiding --threads 2 --instrumented"
  "bfs $G --variant bottom-up --threads 2" "bfs $G --variant auto"
  "bfs $G --variant branch-based --threads 2 --trace t.jsonl"
  "bfs $G --variant branch-avoiding --threads 2 --trace t.jsonl"
  "bfs $G --variant direction-optimizing --threads 2 --trace t.jsonl"
  "bfs $G --trace t.jsonl" "bfs $G --threads 2 --instrumented --trace t.jsonl"
  "bfs $G --variant bottom-up --threads 2 --trace t.jsonl"
  "bfs $G --variant branch-based --threads 2 --timeout-ms 60000"
  "bfs $G --variant branch-avoiding --threads 2 --timeout-ms 60000"
  "bfs $G --variant direction-optimizing --threads 2 --timeout-ms 60000"
  "bfs $G --variant branch-based --threads 2 --timeout-ms 0"
  "bfs $G --variant branch-avoiding --threads 2 --timeout-ms 0"
  "bfs $G --variant direction-optimizing --threads 2 --timeout-ms 0"
  "bfs $G --timeout-ms 5" "bfs $G --threads 2 --instrumented --timeout-ms 5"
  "bfs $G --threads 2 --timeout-ms 0 --trace t.jsonl"
  "bfs $G --threads 8 --strategy auto" "bfs $G --threads 8 --strategy top-down"
  "bfs $G --threads 8 --strategy bottom-up" "bfs $G --threads 2 --strategy auto"
  "bfs $G --strategy bottom-up" "bfs $G --threads 2 --strategy bottom-up --instrumented"
  "bfs $G --variant direction-optimizing --instrumented" "bfs $G --strategy sideways"
  "bfs $G --strategy" "bfs $G --variant branch-based --strategy auto"
  "bfs $G --variant auto --threads 2 --trace t.jsonl" "bfs smoke.bgacsr --threads 2"
  "bfs $G --variant avoiding --threads 2" "bfs"
  # bc
  "bc $G --sources 4" "bc $G --variant branch-based --sources 4"
  "bc $G --variant branch-based --sources 4 --threads 2"
  "bc $G --variant branch-avoiding --sources 4 --threads 2"
  "bc $G --variant auto --sources 4 --threads 2" "bc $G --variant auto"
  "bc $G --variant branch-avoiding --sources 4" "bc $G --variant avoiding --sources 4"
  "bc $G --sources 4 --threads 2 --trace t.jsonl" "bc $G --trace t.jsonl"
  "bc $G --threads 2 --trace" "bc $G --sources 4 --threads 2 --timeout-ms 60000"
  "bc $G --sources 8 --threads 2 --timeout-ms 0" "bc $G --threads 2 --timeout-ms 5"
  "bc $G --sources 4 --timeout-ms 5" "bc $G --sources 8 --threads 2 --timeout-ms 0 --trace t.jsonl"
  "bc" "bc $G --variant sideways" "bc $G --sources" "bc $G --sources two"
  "bc $G --threads x" "bc $G --instrumented" "bc $G --threads 2 --sources 64"
  "bc $G --variant auto --threads 2 --sources 16" "bc $G --threads 2 --sources 16 --timeout-ms 0"
  "bc $G --threads 2 --sources 16 --instrumented" "bc $G --variant branchy --sources 4 --threads 2"
  # kcore
  "kcore $G" "kcore $G --variant branch-based --threads 2" "kcore $G --variant branch-avoiding --threads 2"
  "kcore $G --variant auto --threads 2" "kcore $G --threads 2 --instrumented"
  "kcore $G --threads 2 --trace t.jsonl" "kcore $G --trace t.jsonl"
  "kcore $G --threads 2 --instrumented --trace t.jsonl" "kcore $G --threads 2 --timeout-ms 60000"
  "kcore $G --threads 2 --timeout-ms 0" "kcore $G --timeout-ms 5"
  "kcore $G --threads 2 --instrumented --timeout-ms 5" "kcore $G --threads 2 --timeout-ms 0 --trace t.jsonl"
  "kcore" "kcore $G --variant sideways --threads 2" "kcore $G --variant branch-avoiding"
  "kcore $G --variant auto" "kcore $G --instrumented" "kcore $G --threads" "kcore $G --threads x"
  "kcore $G --threads 2" "kcore $G --variant avoiding --threads 2" "kcore $G --threads 2 --variant auto --timeout-ms 0"
  # sssp
  "sssp $G" "sssp $G --delta 4" "sssp $G --root 7" "sssp $G --variant branch-based --threads 2"
  "sssp $G --variant branch-avoiding --threads 2" "sssp $G --variant auto --threads 2"
  "sssp $G --threads 2 --instrumented" "sssp $G --weights uniform" "sssp $G --weights uniform --delta 4"
  "sssp $G --weights uniform --variant branch-based --threads 2 --delta 4"
  "sssp $G --weights uniform --variant branch-avoiding --threads 2 --delta 4"
  "sssp $G --weights uniform --threads 2 --instrumented" "sssp tiny.edges --weights file --root 0"
  "sssp tiny.edges --weights file --threads 2 --delta 4" "sssp tiny.edges --weights file"
  "sssp $G --threads 2 --trace t.jsonl" "sssp $G --weights uniform --delta 4 --threads 2 --trace t.jsonl"
  "sssp $G --trace t.jsonl" "sssp $G --threads 2 --instrumented --trace t.jsonl"
  "sssp $G --threads 2 --timeout-ms 60000" "sssp $G --threads 2 --timeout-ms 0"
  "sssp $G --threads 2 --timeout-ms 60000 --weights uniform --delta 4"
  "sssp $G --threads 2 --timeout-ms 0 --weights uniform --delta 4"
  "sssp $G --timeout-ms 5" "sssp $G --threads 2 --instrumented --timeout-ms 5"
  "sssp $G --weights uniform --threads 2 --timeout-ms 0 --trace t.jsonl"
  "sssp" "sssp $G --variant sideways --threads 2" "sssp $G --variant branch-avoiding"
  "sssp $G --instrumented" "sssp $G --root abc" "sssp $G --delta" "sssp $G --delta nope"
  "sssp $G --delta 0" "sssp $G --delta 2 --threads 2" "sssp $G --delta 1 --threads 2"
  "sssp $G --weights" "sssp $G --weights sideways" "sssp $G --weights file"
  "sssp $G --weights uniform --variant branch-avoiding" "sssp $G --threads 2"
  "sssp $G --weights uniform --threads 2" "sssp $G --weights uniform --threads 2 --delta 4 --variant branch-based"
  "sssp $G --weights uniform --threads 2 --timeout-ms 0"
  "sssp $G --weights uniform --threads 2 --delta 4 --variant branch-based"
  "sssp $G --weights uniform --threads 2 --delta 4 --trace t.jsonl"
  "bc $G --sources 5000 --threads 2 --timeout-ms 0"
)
# The CI kernel matrix.
for kernel in cc bfs "bc --sources 16" kcore sssp; do
  name=${kernel%% *}
  rest=${kernel#"$name"}
  for mode in "" " --threads 2" " --threads 2 --variant auto" " --threads 2 --instrumented" \
    " --threads 2 --timeout-ms 0"; do
    invocations+=("$name $G$rest$mode")
  done
done

# Drops `wall clock:` lines. Parallel runs race: two runs of one binary
# can differ in the per-step tallies of an instrumented run (its `totals:`
# line and step-table rows) and in how many sweeps parallel SV takes to
# converge (`iterations:`, printed when instrumented or traced), so those
# lines are masked or dropped.
normalise() {
  case "$1" in
    *--threads*)
      grep -v '^wall clock:' | grep -Ev '^ *[0-9]+ +[0-9]' |
        sed -E 's/^totals: .*/totals: */; s/^iterations: .*/iterations: */' ;;
    *) grep -v '^wall clock:' ;;
  esac
}

failures=0
compare() {
  local args=$1
  # shellcheck disable=SC2086 # word splitting is the point
  "$old" $args > old.out 2> /dev/null
  local old_rc=$?
  # shellcheck disable=SC2086
  "$new" $args > new.out 2> /dev/null
  local new_rc=$?
  normalise "$args" < old.out > old.cmp
  normalise "$args" < new.out > new.cmp
  if [ "$old_rc" -ne "$new_rc" ]; then
    echo "DIFF exit $old_rc -> $new_rc: bga $args"
    failures=$((failures + 1))
  elif ! cmp -s old.cmp new.cmp; then
    local prefix_bytes
    prefix_bytes=$(wc -c < new.cmp)
    if [ "$old_rc" -ne 0 ] && [ "$(head -c "$prefix_bytes" old.cmp | cmp -s - new.cmp && echo y)" = y ]; then
      echo "early rejection (stdout is a prefix): bga $args"
    else
      echo "DIFF stdout (exit $old_rc): bga $args"
      diff old.cmp new.cmp | sed 's/^/    /'
      failures=$((failures + 1))
    fi
  fi
}

count=0
for grain in "" 1; do
  for args in "${invocations[@]}"; do
    if [ -n "$grain" ]; then export BGA_PARALLEL_GRAIN=$grain; else unset BGA_PARALLEL_GRAIN; fi
    compare "$args"
    count=$((count + 1))
  done
done
echo "$count runs, $failures differences"
[ "$failures" -eq 0 ]
