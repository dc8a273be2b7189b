#!/usr/bin/env bash
# Disassembly audit of the Shiloach-Vishkin sweep bodies and the
# sequential top-down BFS bodies.
#
# Builds the `parallel_scaling` example in release mode, disassembles it
# with objdump and extracts every instance of
# `BranchAvoidingSweep::sweep_chunk::<TALLY>` and
# `BranchBasedSweep::sweep_chunk::<TALLY>` (the parallel sweeps, each
# compiled with its counter accounting, `<true>`, and without it,
# `<false>`) and of the sequential kernels' uncounted bodies,
# `cc::sv::plain_sweep<AVOIDING>` and `bfs::topdown::plain_topdown<AVOIDING>`
# (`<true>` is the branch-avoiding discipline, `<false>` the branch-based
# one). All are `#[inline(never)]`, so each instance has a symbol of its
# own. The parallel sweeps rely on one writer per label (see
# crates/parallel/src/sv.rs) and the sequential bodies are single-threaded,
# so no body may hold an atomic read-modify-write: the audit fails on any
# `lock`-prefixed instruction, any `cmpxchg` and any `xchg` with a memory
# operand (implicitly locked). For each body it prints static
# instruction counts: conditional jumps, `cmov`s, and instructions that
# load from or store to an explicit memory operand (a read-modify-write
# such as `add [m], 1` counts as both, `cmp [m], r` as a load; `lea`,
# `nop`, `call` and `jmp` are not counted, nor are push/pop).
#
#   crates/parallel/scripts/sv-asm-audit.sh
#
# The build uses v0 symbol mangling, so the demangled names keep the
# `TALLY` const parameter, in a target directory of its own
# (target/sv-asm-audit) so the main build cache stays valid.
#
# Exit status: 0 when the audit passes (or the host is not x86-64, where
# it is skipped), 1 when a body is locked or one of the four parallel
# bodies (two disciplines, each tallied and untallied) or of the four
# sequential bodies was not found, 2 when the build or objdump fails.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/../../.." && pwd)"
target="$repo/target/sv-asm-audit"

if [ "$(uname -m)" != x86_64 ]; then
    echo "sv-asm-audit: skipped, the audit reads x86-64 disassembly only"
    exit 0
fi

if ! RUSTFLAGS="${RUSTFLAGS:-} -C symbol-mangling-version=v0" \
    cargo build --quiet --release --offline --example parallel_scaling \
    --manifest-path "$repo/Cargo.toml" --target-dir "$target"; then
    echo "sv-asm-audit: the build failed" >&2
    exit 2
fi
binary="$target/release/examples/parallel_scaling"

if ! listing="$(objdump -d --demangle --no-show-raw-insn -M intel "$binary")"; then
    echo "sv-asm-audit: objdump failed on $binary" >&2
    exit 2
fi

awk '
# A function header: "<address> <<name>>:".
/^[0-9a-f]+ <.*>:$/ {
    name = $0
    sub(/^[0-9a-f]+ </, "", name)
    sub(/>:$/, "", name)
    body = (name ~ /Branch(Avoiding|Based)Sweep as .*>::sweep_chunk::<(true|false)>$/)
    if (name ~ /^bga_kernels::(cc::sv::plain_sweep|bfs::topdown::plain_topdown)::<(true|false)>$/) {
        # "bga_kernels::cc::sv::plain_sweep::<true>" -> "cc::sv::plain_sweep<true>".
        short = name
        sub(/^bga_kernels::/, "", short)
        sub(/::</, "<", short)
        order[++bodies] = short
        sequential++
        body = 1
    } else if (body) {
        # "<...::BranchAvoidingSweep as ...SweepKernel<...::CsrGraph>>
        # ::sweep_chunk::<false>" -> "BranchAvoidingSweep<false> on CsrGraph".
        tally = name
        sub(/^.*::sweep_chunk::/, "", tally)
        short = name
        sub(/^<bga_parallel::sv::/, "", short)
        sub(/ as .*SweepKernel</, tally " on ", short)
        sub(/>>::sweep_chunk::<(true|false)>$/, "", short)
        gsub(/[a-z_0-9]+::/, "", short)
        order[++bodies] = short
        # Count each discipline/TALLY pair once, whatever the graph type.
        kind = short
        sub(/ on .*$/, "", kind)
        if (!(kind in kinds)) {
            kinds[kind] = 1
            parallel++
        }
    }
    next
}
/^$/ { body = 0; next }
body && /^ +[0-9a-f]+:\t/ {
    # "  <address>:\t<mnemonic> <operands>" -> mnemonic and operands.
    insn = $0
    sub(/^ +[0-9a-f]+:\t/, "", insn)
    sub(/ +#.*$/, "", insn)
    split(insn, parts, /[ \t]+/)
    mnemonic = parts[1]
    operands = insn
    sub(/^[^ \t]+[ \t]*/, "", operands)
    if (mnemonic == "lock") {
        locked[short]++
        mnemonic = parts[2]
        operands = insn
        sub(/^lock[ \t]+[^ \t]+[ \t]*/, "", operands)
    }
    if (mnemonic == "int3") next
    insns[short]++
    if (mnemonic ~ /cmpxchg/ || (mnemonic == "xchg" && operands ~ /\[/)) locked[short]++
    if (mnemonic ~ /^j/ && mnemonic != "jmp") jcc[short]++
    if (mnemonic ~ /^cmov/) cmov[short]++
    if (operands ~ /\[/ && mnemonic !~ /^(lea|nop|call|jmp)/) {
        split(operands, ops, ",")
        if (ops[1] !~ /\[/ || mnemonic ~ /^(cmp|test|bt)$/) {
            loads[short]++
        } else {
            stores[short]++
            # Only a plain move to memory writes without reading it.
            if (mnemonic !~ /^mov/) loads[short]++
        }
    }
}
END {
    if (parallel < 4) {
        print "sv-asm-audit: found " parallel " of the 4 parallel BranchAvoidingSweep/BranchBasedSweep sweep_chunk::<TALLY> bodies" > "/dev/stderr"
        exit 1
    }
    if (sequential < 4) {
        print "sv-asm-audit: found " sequential " of the 4 sequential plain_sweep/plain_topdown bodies" > "/dev/stderr"
        exit 1
    }
    printf "%-40s %6s %5s %5s %6s %7s %7s\n", "body", "insns", "jcc", "cmov", "loads", "stores", "locked"
    failed = 0
    for (i = 1; i <= bodies; i++) {
        b = order[i]
        printf "%-40s %6d %5d %5d %6d %7d %7d\n", b, insns[b], jcc[b], cmov[b], loads[b], stores[b], locked[b]
        if (locked[b] > 0) failed = 1
    }
    if (failed) {
        print "sv-asm-audit: FAIL, a body holds a locked read-modify-write" > "/dev/stderr"
        exit 1
    }
    print "sv-asm-audit: ok, no lock prefix, cmpxchg or memory xchg in any body"
}
' <<<"$listing"
