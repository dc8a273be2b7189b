//! The one Shiloach-Vishkin label-propagation sweep (paper Algorithms 2
//! and 3) and the fixed-point loop around it.
//!
//! Every SV entry point runs this code. Sequentially, the plain kernels run
//! it on [`Uncounted`], the instrumented ones on an [`ExecMachine`] (so the
//! timed program is the counted program), the hybrid by choosing the
//! discipline before each sweep and the shortcut variant by adding a
//! pointer-jumping pass after it; each sweep covers `0..n`. The parallel
//! kernels in `bga-parallel` run the same sweep over each chunk's vertex
//! range: untallied through [`plain_sweep`], tallied on their count-only
//! machine through [`sweep`].
//!
//! The labels are `AtomicU32` so that a parallel chunk may read a
//! neighbour's label while its owner writes it. Every access is `Relaxed`,
//! a plain `mov` on x86-64; the disassembly audit checks that no body
//! holds a locked instruction.
//!
//! Two corrections relative to the printed pseudocode apply to both
//! disciplines, so the comparison stays fair:
//!
//! 1. The comparison is strict (`cu < cv`). With the printed `<=`, a vertex
//!    whose neighbour already carries the same label would set the `change`
//!    flag every sweep and the algorithm would never terminate.
//! 2. The running minimum `cv` is kept in a register, which is what the
//!    paper's tuned assembly does. The branch-based sweep stores each
//!    improvement as it finds it; the branch-avoiding sweep replaces the
//!    `if` by a conditional move and stores `cv` once per vertex,
//!    unconditionally. Its only conditional branches are the loop bounds,
//!    which a 2-bit predictor handles with O(|V|) misses per sweep
//!    (Section 3.2).
//!
//! Branch sites (Section 4.1 identifies four static conditional branches in
//! the branch-based kernel). A loop-bound test is issued once per trip and
//! once more on exit:
//!
//! | site | paper branch |
//! |------|--------------|
//! | [`SV_WHILE`]     | `while change != 0` termination test |
//! | [`SV_OUTER_FOR`] | `for v in V` |
//! | [`SV_INNER_FOR`] | `for u in Neighbors[v]` |
//! | [`SV_IF`]        | `if cu < cv` (branch-based only) |
//!
//! [`ExecMachine`]: bga_branchsim::ExecMachine

use super::labels::ComponentLabels;
use crate::stats::StepCounters;
use bga_branchsim::machine::{Machine, Uncounted};
use bga_branchsim::site::BranchSite;
use bga_graph::{AdjacencySource, CsrGraph};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Termination test of the outer `while change != 0` loop.
pub const SV_WHILE: BranchSite = BranchSite::new(0, "sv.while_change");
/// The `for v in V` loop condition.
pub const SV_OUTER_FOR: BranchSite = BranchSite::new(1, "sv.for_vertices");
/// The `for u in Neighbors[v]` loop condition.
pub const SV_INNER_FOR: BranchSite = BranchSite::new(2, "sv.for_neighbors");
/// The data-dependent `if cu < cv` label comparison (branch-based only).
pub const SV_IF: BranchSite = BranchSite::new(3, "sv.if_label_smaller");

/// Runs SV to a fixed point on `machine` and returns the labels, the
/// number of sweeps and, on a counting machine, one [`StepCounters`] per
/// sweep. Before each sweep, `avoiding(sweep, updates)` picks its
/// discipline from the 0-based sweep index and the previous sweep's update
/// count (0 before the first); `shortcut` adds the pointer-jumping pass
/// after every sweep.
///
/// Inlined into the caller, which owns the machine: a counting machine
/// then stays a local of the loop and its predictor states in registers.
#[inline(always)]
pub(crate) fn run<M: Machine>(
    graph: &CsrGraph,
    machine: &mut M,
    mut avoiding: impl FnMut(usize, u64) -> bool,
    shortcut: bool,
) -> (ComponentLabels, usize, Vec<StepCounters>) {
    let n = graph.num_vertices();
    let ccid: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut steps = Vec::new();
    let (mut sweeps, mut updates) = (0, 0);
    // while change != 0
    while machine.branch(SV_WHILE, sweeps == 0 || updates != 0) {
        let snapshot = machine.counters();
        machine.alu(1); // change <- 0
        let avoid = avoiding(sweeps, updates);
        updates = match (M::COUNTS, avoid) {
            (true, true) => sweep::<_, M, true>(graph, &ccid, 0..n, machine),
            (true, false) => sweep::<_, M, false>(graph, &ccid, 0..n, machine),
            (false, true) => plain_sweep::<_, true>(graph, &ccid, 0..n),
            (false, false) => plain_sweep::<_, false>(graph, &ccid, 0..n),
        };
        if shortcut {
            updates += jump(&ccid, avoid);
        }
        if M::COUNTS {
            steps.push(StepCounters {
                step: sweeps,
                counters: machine.counters().delta_since(&snapshot),
                edges_traversed: graph.num_edge_slots() as u64,
                vertices_processed: n as u64,
                updates,
            });
        }
        sweeps += 1;
    }
    let labels = ccid.into_iter().map(AtomicU32::into_inner).collect();
    (ComponentLabels::new(labels), sweeps, steps)
}

/// [`run`] on the uncounted machine with one discipline throughout: the
/// plain timed kernels. Returns the labels and the number of sweeps.
pub(crate) fn plain(graph: &CsrGraph, avoiding: bool, shortcut: bool) -> (ComponentLabels, usize) {
    let (labels, sweeps, _) = run(graph, &mut Uncounted, |_, _| avoiding, shortcut);
    (labels, sweeps)
}

/// [`sweep`] on the uncounted machine, as a symbol of its own: the timed
/// body of every SV kernel, sequential and parallel, and the one the
/// disassembly audit (`crates/parallel/scripts/sv-asm-audit.sh`) reads per
/// discipline and graph type.
#[inline(never)]
pub fn plain_sweep<G: AdjacencySource, const AVOIDING: bool>(
    graph: &G,
    ccid: &[AtomicU32],
    range: Range<usize>,
) -> u64 {
    sweep::<G, Uncounted, AVOIDING>(graph, ccid, range, &mut Uncounted)
}

/// One label-propagation sweep over the vertices of `range`. Returns the
/// number of label updates: improvements stored (branch-based) or vertices
/// whose label moved (branch-avoiding); either is zero iff nothing changed.
///
/// Only `ccid[v]` for `v` in `range` is written, and never above the value
/// the sweep loaded from it, so sweeps over disjoint ranges may run
/// concurrently on one label array: labels only decrease.
#[inline(always)]
pub fn sweep<G: AdjacencySource, M: Machine, const AVOIDING: bool>(
    graph: &G,
    ccid: &[AtomicU32],
    range: Range<usize>,
    m: &mut M,
) -> u64 {
    let mut updates = 0u64;
    for v in range {
        let label = &ccid[v];
        m.branch(SV_OUTER_FOR, true);
        let cv_init = m.load(label.load(Relaxed));
        let mut cv = cv_init;
        for u in graph.neighbor_cursor(v as u32) {
            m.branch(SV_INNER_FOR, true);
            let cu = m.load(ccid[u as usize].load(Relaxed));
            if AVOIDING {
                m.alu(1); // CMP cu, cv
                m.cond_move(cu < cv, &mut cv, cu);
            } else if m.branch(SV_IF, cu < cv) {
                cv = cu;
                m.store_shared(label, cu);
                m.alu(2); // register move + flag set
                updates += 1;
            }
            m.alu(1); // index increment
        }
        m.branch(SV_INNER_FOR, false);
        if AVOIDING {
            m.store_shared(label, cv);
            // Register copy of cinit, then change <- change OR (cv XOR cinit).
            m.alu(3);
            updates += (cv != cv_init) as u64;
        }
        m.alu(1); // index increment
    }
    m.branch(SV_OUTER_FOR, false);
    updates
}

/// The shortcut's pointer-jumping pass, `CCid[v] <- CCid[CCid[v]]`, so
/// labels travel two hops per sweep. Returns the number of labels lowered.
fn jump(ccid: &[AtomicU32], avoiding: bool) -> u64 {
    let mut updates = 0;
    for slot in ccid {
        let label = slot.load(Relaxed);
        let jumped = ccid[label as usize].load(Relaxed);
        // Labels only decrease along the chain, so `jumped <= label`: the
        // branch-avoiding pass stores it unconditionally.
        if avoiding || jumped < label {
            slot.store(jumped, Relaxed);
        }
        updates += (jumped != label) as u64;
    }
    updates
}
