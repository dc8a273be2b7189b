//! The one Shiloach-Vishkin label-propagation sweep (paper Algorithms 2
//! and 3) and the fixed-point loop around it.
//!
//! Every sequential SV entry point runs this code: the plain kernels on
//! [`Uncounted`], the instrumented ones on an [`ExecMachine`] (so the timed
//! program is the counted program), the hybrid by choosing the discipline
//! before each sweep and the shortcut variant by adding a pointer-jumping
//! pass after it.
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
//! the branch-based kernel):
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
use bga_graph::CsrGraph;

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
    let mut ccid: Vec<u32> = (0..n as u32).collect();
    let mut steps = Vec::new();
    let (mut sweeps, mut updates) = (0, 0);
    // while change != 0
    while machine.branch(SV_WHILE, sweeps == 0 || updates != 0) {
        let snapshot = machine.counters();
        machine.alu(1); // change <- 0
        let avoid = avoiding(sweeps, updates);
        updates = match (M::COUNTS, avoid) {
            (true, true) => sweep::<M, true>(graph, &mut ccid, machine),
            (true, false) => sweep::<M, false>(graph, &mut ccid, machine),
            (false, true) => plain_sweep::<true>(graph, &mut ccid),
            (false, false) => plain_sweep::<false>(graph, &mut ccid),
        };
        if shortcut {
            updates += jump(&mut ccid, avoid);
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
    (ComponentLabels::new(ccid), sweeps, steps)
}

/// [`run`] on the uncounted machine with one discipline throughout: the
/// plain timed kernels. Returns the labels and the number of sweeps.
pub(crate) fn plain(graph: &CsrGraph, avoiding: bool, shortcut: bool) -> (ComponentLabels, usize) {
    let (labels, sweeps, _) = run(graph, &mut Uncounted, |_, _| avoiding, shortcut);
    (labels, sweeps)
}

/// An uncounted sweep as a symbol of its own, so the disassembly audit
/// (`crates/parallel/scripts/sv-asm-audit.sh`) reads each discipline's
/// timed body by name.
#[inline(never)]
fn plain_sweep<const AVOIDING: bool>(graph: &CsrGraph, ccid: &mut [u32]) -> u64 {
    sweep::<Uncounted, AVOIDING>(graph, ccid, &mut Uncounted)
}

/// One label-propagation sweep over every vertex. Returns the number of
/// label updates: improvements stored (branch-based) or vertices whose
/// label moved (branch-avoiding); either is zero iff nothing changed.
#[inline(always)]
fn sweep<M: Machine, const AVOIDING: bool>(graph: &CsrGraph, ccid: &mut [u32], m: &mut M) -> u64 {
    let mut updates = 0u64;
    let mut v = 0;
    while m.branch(SV_OUTER_FOR, v < ccid.len()) {
        let cv_init = m.load(ccid[v]);
        let mut cv = cv_init;
        let neighbors = graph.neighbors(v as u32);
        let mut i = 0;
        while m.branch(SV_INNER_FOR, i < neighbors.len()) {
            let cu = m.load(ccid[neighbors[i] as usize]);
            if AVOIDING {
                m.alu(1); // CMP cu, cv
                m.cond_move(cu < cv, &mut cv, cu);
            } else if m.branch(SV_IF, cu < cv) {
                cv = cu;
                m.store(&mut ccid[v], cu);
                m.alu(2); // register move + flag set
                updates += 1;
            }
            i += 1;
            m.alu(1); // index increment
        }
        if AVOIDING {
            m.store(&mut ccid[v], cv);
            // Register copy of cinit, then change <- change OR (cv XOR cinit).
            m.alu(3);
            updates += (cv != cv_init) as u64;
        }
        v += 1;
        m.alu(1); // index increment
    }
    updates
}

/// The shortcut's pointer-jumping pass, `CCid[v] <- CCid[CCid[v]]`, so
/// labels travel two hops per sweep. Returns the number of labels lowered.
fn jump(ccid: &mut [u32], avoiding: bool) -> u64 {
    let mut updates = 0;
    for v in 0..ccid.len() {
        let (label, jumped) = (ccid[v], ccid[ccid[v] as usize]);
        // Labels only decrease along the chain, so `jumped <= label`: the
        // branch-avoiding pass stores it unconditionally.
        if avoiding || jumped < label {
            ccid[v] = jumped;
        }
        updates += (jumped != label) as u64;
    }
    updates
}
