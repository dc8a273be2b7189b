#!/usr/bin/env bash
# Disassembly audit of the Shiloach-Vishkin sweep bodies, the sequential
# top-down BFS bodies and the parallel top-down level bodies.
#
# Builds the `parallel_scaling` example in release mode (it runs SV, BFS
# and Brandes on both `CsrGraph` and `CompressedCsrGraph`), disassembles
# it with objdump and extracts, per discipline (`<false>` is Algorithm 2,
# branch-based, and `<true>` Algorithm 3, branch-avoiding) and graph type:
#
# * the uncounted SV body, `cc::sv::plain_sweep<G, AVOIDING>`, which every
#   plain SV kernel runs, sequential and parallel;
# * the tallied parallel body, `Sweep<AVOIDING>::sweep_chunk<true>`, the
#   same sweep inlined on the count-only `ThreadTally` machine;
# * the untallied parallel chunk, `Sweep<AVOIDING>::sweep_chunk<false>`,
#   which must call the uncounted body rather than hold a loop of its own;
#
# the sequential top-down BFS bodies, `bfs::topdown::plain_topdown<AVOIDING>`,
# and the parallel top-down level bodies
# `Branch{Based,Avoiding}Level<SIGMA>::top_down_chunk<TALLY>` (Algorithms 4
# and 5), which BFS and unit SSSP run with `SIGMA = false` and Brandes'
# forward phase with `SIGMA = true`. All are `#[inline(never)]` or too
# large to inline, so each has a symbol of its own. For each
# body it prints static instruction counts: conditional jumps, `cmov`s,
# and instructions that load from or store to an explicit memory operand
# (a read-modify-write such as `add [m], 1` counts as both, `cmp [m], r`
# as a load; `lea`, `nop`, `call` and `jmp` are not counted, nor are
# push/pop), locked instructions, and for the level bodies the
# `lock cmpxchg`s of the discovery claim (a CAS, or the loop `fetch_min`
# compiles to). It then lists who calls each uncounted SV body, resolving
# calls through the GOT with the binary's relative relocations.
#
# The parallel sweep relies on one writer per label (see
# crates/parallel/src/sv.rs), the sequential bodies are single-threaded
# and a level body's only shared read-modify-write is its discovery claim
# (σ is pulled and stored by its owner, see crates/parallel/src/bc.rs), so
# the audit fails when:
#
# * an SV or sequential BFS body holds a `lock`-prefixed instruction, a
#   `cmpxchg` or an `xchg` with a memory operand (implicitly locked);
# * a level body holds any of those other than `lock cmpxchg`;
# * an uncounted SV body appears twice (two copies of one instance);
# * an untallied chunk does not call its uncounted body (a re-forked
#   parallel sweep), or no sequential `cc::sv` function calls the `CsrGraph`
#   body;
# * one of the 12 SV bodies (2 disciplines x 2 graph types x uncounted,
#   tallied and untallied chunk), the 2 BFS bodies or the 16 level bodies
#   (2 disciplines x SIGMA x TALLY x 2 graph types) is missing.
#
# Instructions are matched on their mnemonic field, never as a substring
# of the line (an address such as 0xaddd7 would match "xadd").
#
#   crates/parallel/scripts/sv-asm-audit.sh
#
# The build uses v0 symbol mangling, so the demangled names keep the const
# parameters, in a target directory of its own (target/sv-asm-audit) so
# the main build cache stays valid.
#
# Exit status: 0 when the audit passes (or the host is not x86-64, where
# it is skipped), 1 when it fails, 2 when the build or objdump fails.
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

if ! listing="$(objdump -d --demangle --no-show-raw-insn -M intel "$binary")" ||
    ! relocs="$(objdump -R "$binary")"; then
    echo "sv-asm-audit: objdump failed on $binary" >&2
    exit 2
fi

awk '
# First input: the dynamic relocations. A GOT slot holding a function
# address is "<slot> R_X86_64_RELATIVE *ABS*+0x<address>".
FNR == NR {
    if ($2 == "R_X86_64_RELATIVE" && $3 ~ /^\*ABS\*\+0x/) {
        target = $3
        sub(/^\*ABS\*\+0x0*/, "", target)
        slot = $1
        sub(/^0+/, "", slot)
        got[slot] = target
    }
    next
}
# A function header: "<address> <<name>>:".
/^[0-9a-f]+ <.*>:$/ {
    name = $0
    sub(/^[0-9a-f]+ </, "", name)
    sub(/>:$/, "", name)
    address = $1
    sub(/^0+/, "", address)
    body = ""
    caller = ""
    if (name ~ /^bga_kernels::cc::sv::plain_sweep::<.*, (true|false)>$/) {
        # "bga_kernels::cc::sv::plain_sweep::<bga_graph::csr::CsrGraph, true>"
        # -> "cc::sv::plain_sweep<CsrGraph, true>".
        body = name
        sub(/^bga_kernels::/, "", body)
        sub(/::</, "<", body)
        gsub(/[a-z_0-9]+::/, "", body)
        body = "cc::sv::" body
        if (body in plain) {
            copies[body]++
        } else {
            plain[body] = address
            order[++bodies] = body
        }
    } else if (name ~ /^<bga_parallel::sv::Sweep<(true|false)> as .*SweepKernel<.*>>::sweep_chunk::<(true|false)>$/) {
        # "<bga_parallel::sv::Sweep<true> as ...SweepKernel<...::CsrGraph>>
        # ::sweep_chunk::<false>" -> "Sweep<true>::sweep_chunk<false> on CsrGraph".
        tally = name
        sub(/^.*::sweep_chunk::/, "", tally)
        graph = name
        sub(/^.*SweepKernel</, "", graph)
        sub(/>>::sweep_chunk::<(true|false)>$/, "", graph)
        gsub(/[a-z_0-9]+::/, "", graph)
        discipline = name
        sub(/^<bga_parallel::sv::Sweep/, "", discipline)
        sub(/ as .*$/, "", discipline)
        body = "Sweep" discipline "::sweep_chunk" tally " on " graph
        order[++bodies] = body
        # The untallied chunk is checked for its call to the uncounted body.
        if (tally == "<false>") caller = body
    } else if (name ~ /^<bga_parallel::bfs::Branch(Based|Avoiding)Level<(true|false)> as .*LevelKernel<.*>>::top_down_chunk::<(true|false)>$/) {
        # "<bga_parallel::bfs::BranchAvoidingLevel<true> as ...LevelKernel<
        # ...::CsrGraph>>::top_down_chunk::<false>"
        # -> "BranchAvoidingLevel<true>::top_down_chunk<false> on CsrGraph".
        tally = name
        sub(/^.*::top_down_chunk::/, "", tally)
        graph = name
        sub(/^.*LevelKernel</, "", graph)
        sub(/>>::top_down_chunk::<(true|false)>$/, "", graph)
        gsub(/[a-z_0-9]+::/, "", graph)
        kernel = name
        sub(/^<bga_parallel::bfs::/, "", kernel)
        sub(/ as .*$/, "", kernel)
        body = kernel "::top_down_chunk" tally " on " graph
        level[body] = 1
        order[++bodies] = body
    } else if (name ~ /^bga_kernels::(bfs::topdown::plain_topdown)::<(true|false)>$/) {
        body = name
        sub(/^bga_kernels::/, "", body)
        sub(/::</, "<", body)
        order[++bodies] = body
    } else if (name ~ /^bga_kernels::cc::/) {
        caller = name
        sub(/^bga_kernels::/, "", caller)
    }
    next
}
/^$/ { body = ""; caller = ""; next }
(body != "" || caller != "") && /^ +[0-9a-f]+:\t/ {
    # "  <address>:\t<mnemonic> <operands>" -> mnemonic and operands.
    insn = $0
    sub(/^ +[0-9a-f]+:\t/, "", insn)
    comment = ""
    if (insn ~ / +# [0-9a-f]+/) {
        comment = insn
        sub(/^.* +# /, "", comment)
        sub(/ .*$/, "", comment)
    }
    sub(/ +#.*$/, "", insn)
    split(insn, parts, /[ \t]+/)
    mnemonic = parts[1]
    operands = insn
    sub(/^[^ \t]+[ \t]*/, "", operands)
    if (caller != "") {
        # A direct call/jump target, or a GOT slot named in the comment.
        direct = operands
        sub(/ .*$/, "", direct)
        sub(/^0+/, "", direct)
        slot = comment
        sub(/^0+/, "", slot)
        calls[caller] = calls[caller] " " direct " " (slot in got ? got[slot] : "")
    }
    if (body == "") next
    prefixed = (mnemonic == "lock")
    if (prefixed) {
        mnemonic = parts[2]
        operands = insn
        sub(/^lock[ \t]+[^ \t]+[ \t]*/, "", operands)
    }
    if (mnemonic == "int3") next
    insns[body]++
    if (prefixed && mnemonic == "cmpxchg" && (body in level)) {
        claims[body]++
    } else if (prefixed || mnemonic ~ /^cmpxchg/ || (mnemonic == "xchg" && operands ~ /\[/)) {
        locked[body]++
    }
    if (mnemonic ~ /^j/ && mnemonic != "jmp") jcc[body]++
    if (mnemonic ~ /^cmov/) cmov[body]++
    if (operands ~ /\[/ && mnemonic !~ /^(lea|nop|call|jmp)/) {
        split(operands, ops, ",")
        if (ops[1] !~ /\[/ || mnemonic ~ /^(cmp|test|bt)$/) {
            loads[body]++
        } else {
            stores[body]++
            # Only a plain move to memory writes without reading it.
            if (mnemonic !~ /^mov/) loads[body]++
        }
    }
}
END {
    failed = 0
    printf "%-72s %6s %5s %5s %6s %7s %7s %7s\n", "body", "insns", "jcc", "cmov", "loads", "stores", "locked", "claims"
    for (i = 1; i <= bodies; i++) {
        b = order[i]
        printf "%-72s %6d %5d %5d %6d %7d %7d %7d\n", b, insns[b], jcc[b], cmov[b], loads[b], stores[b], locked[b], claims[b]
        if (locked[b] > 0) {
            what = (b in level) ? "a locked instruction besides the claim'"'"'s lock cmpxchg" : "a locked read-modify-write"
            print "sv-asm-audit: FAIL, " b " holds " what > "/dev/stderr"
            failed = 1
        }
    }
    print ""
    for (b in plain) {
        if (copies[b] > 0) {
            print "sv-asm-audit: FAIL, " b " has " copies[b] + 1 " copies" > "/dev/stderr"
            failed = 1
        }
    }
    expected = 0
    for (g = 0; g < 2; g++) {
        graph = g ? "CompressedCsrGraph" : "CsrGraph"
        for (a = 0; a < 2; a++) {
            discipline = a ? "true" : "false"
            target = "cc::sv::plain_sweep<" graph ", " discipline ">"
            callers = ""
            for (c in calls) {
                if (target in plain && index(calls[c] " ", " " plain[target] " ")) {
                    callers = callers (callers == "" ? "" : ", ") c
                }
            }
            printf "%-56s called by %s\n", target, (callers == "" ? "nobody" : callers)
            if (!(target in plain)) {
                print "sv-asm-audit: FAIL, " target " not found" > "/dev/stderr"
                failed = 1
            }
            for (t = 0; t < 2; t++) {
                chunk = "Sweep<" discipline ">::sweep_chunk<" (t ? "true" : "false") "> on " graph
                if (!(chunk in insns)) {
                    print "sv-asm-audit: FAIL, " chunk " not found" > "/dev/stderr"
                    failed = 1
                }
            }
            chunk = "Sweep<" discipline ">::sweep_chunk<false> on " graph
            if (chunk in insns && !index(callers, chunk)) {
                print "sv-asm-audit: FAIL, " chunk " does not call " target ": a second uncounted SV body" > "/dev/stderr"
                failed = 1
            }
            if (graph == "CsrGraph" && callers !~ /(^|, )cc::/) {
                print "sv-asm-audit: FAIL, no sequential cc:: kernel calls " target > "/dev/stderr"
                failed = 1
            }
        }
    }
    for (a = 0; a < 2; a++) {
        b = "bfs::topdown::plain_topdown<" (a ? "true" : "false") ">"
        if (!(b in insns)) {
            print "sv-asm-audit: FAIL, " b " not found" > "/dev/stderr"
            failed = 1
        }
    }
    for (g = 0; g < 2; g++) {
        graph = g ? "CompressedCsrGraph" : "CsrGraph"
        for (a = 0; a < 2; a++) {
            for (sigma = 0; sigma < 2; sigma++) {
                for (t = 0; t < 2; t++) {
                    b = "Branch" (a ? "Avoiding" : "Based") "Level<" (sigma ? "true" : "false") ">::top_down_chunk<" (t ? "true" : "false") "> on " graph
                    if (!(b in level)) {
                        print "sv-asm-audit: FAIL, " b " not found" > "/dev/stderr"
                        failed = 1
                    }
                }
            }
        }
    }
    if (failed) exit 1
    print "sv-asm-audit: ok, one uncounted SV body per discipline and graph type, no lock prefix, cmpxchg or memory xchg in any SV or sequential BFS body, and no locked instruction but the claim'"'"'s lock cmpxchg in any level body"
}
' <(printf '%s\n' "$relocs") <(printf '%s\n' "$listing")
