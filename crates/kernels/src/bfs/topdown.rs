//! The one top-down BFS expansion (paper Algorithms 4 and 5).
//!
//! Every sequential top-down entry point runs this code: the plain kernels
//! on [`Uncounted`], the instrumented ones on an [`ExecMachine`] with
//! counters snapshotted at every level boundary.
//!
//! The branch-based discipline tests `if d[w] == INFINITY` for every
//! traversed edge and enqueues `w` on the first visit; that `if` is the
//! data-dependent branch whose misprediction behaviour Section 5.1 bounds
//! at up to `2 * |V̂|` misses. The branch-avoiding discipline eliminates it:
//! for **every** traversed edge the kernel
//!
//! 1. writes `w` into the next free queue slot unconditionally,
//! 2. conditionally moves the new distance into a register,
//! 3. conditionally advances the queue length, and
//! 4. writes the (possibly unchanged) distance back to `d[w]`
//!    unconditionally.
//!
//! A vertex that was already visited is simply overwritten in the queue slot
//! by the next candidate ("placed outside the queue" in the paper's words).
//! The price is `O(|E|)` stores instead of `O(|V|)` — the reason the paper's
//! Figure 6 shows slowdowns for this variant on most systems.
//!
//! One correction relative to the printed Algorithm 5: the predicate
//! compares the old distance against `next_level = d[v] + 1` rather than
//! against `d[v]`. With the printed comparison a vertex first discovered by
//! an *earlier vertex of the same frontier* (so `d[w] == d[v] + 1 > d[v]`)
//! would be enqueued a second time; comparing against `next_level` keeps
//! the queue duplicate-free, which is what the store/branch counts in the
//! paper's evaluation reflect.
//!
//! Branch sites (Section 5.1 identifies three static conditional branches in
//! the branch-based kernel):
//!
//! | site | paper branch |
//! |------|--------------|
//! | [`BFS_WHILE`] | `while Q not empty` |
//! | [`BFS_FOR`]   | `for all neighbours w of v` |
//! | [`BFS_IF`]    | `if d[w] == INFINITY` (branch-based only) |
//!
//! [`ExecMachine`]: bga_branchsim::ExecMachine

use super::frontier::BfsResult;
use super::INFINITY;
use crate::stats::StepCounters;
use bga_branchsim::machine::{Machine, Uncounted};
use bga_branchsim::site::BranchSite;
use bga_graph::{CsrGraph, VertexId};

/// The `while Q not empty` queue-drain condition.
pub const BFS_WHILE: BranchSite = BranchSite::new(4, "bfs.while_queue");
/// The `for all neighbours w of v` loop condition.
pub const BFS_FOR: BranchSite = BranchSite::new(5, "bfs.for_neighbors");
/// The data-dependent `if d[w] == INFINITY` visit test (branch-based only).
pub const BFS_IF: BranchSite = BranchSite::new(6, "bfs.if_unvisited");

/// An uncounted traversal as a symbol of its own, so the disassembly audit
/// (`crates/parallel/scripts/sv-asm-audit.sh`) reads each discipline's
/// timed body by name.
#[inline(never)]
pub(crate) fn plain_topdown<const AVOIDING: bool>(graph: &CsrGraph, root: VertexId) -> BfsResult {
    topdown::<Uncounted, AVOIDING>(graph, root, &mut Uncounted).0
}

/// Top-down BFS from `root` on `machine`: the result and, on a counting
/// machine, one [`StepCounters`] per level. A root outside the vertex range
/// yields an all-unreached result and no levels.
///
/// Inlined into the caller, which owns the machine: a counting machine
/// then stays a local of the loop and its predictor states in registers.
#[inline(always)]
pub(crate) fn topdown<M: Machine, const AVOIDING: bool>(
    graph: &CsrGraph,
    root: VertexId,
    m: &mut M,
) -> (BfsResult, Vec<StepCounters>) {
    let n = graph.num_vertices();
    let mut distances = vec![INFINITY; n];
    let mut steps = Vec::new();
    if (root as usize) >= n {
        return (BfsResult::new(distances, Vec::new()), steps);
    }
    // One extra slot so the branch-avoiding discipline's unconditional
    // write of a non-discovery past the end never goes out of bounds.
    let mut queue: Vec<VertexId> = vec![0; n + 1];
    distances[root as usize] = 0;
    queue[0] = root;
    let mut queue_len = 1u64;
    let mut head = 0usize;
    // The level being counted and the counters at its start. Its tallies
    // are only read under `M::COUNTS`, so the plain kernels drop them.
    let (mut level, mut snapshot) = (StepCounters::default(), m.counters());

    while m.branch(BFS_WHILE, (head as u64) < queue_len) {
        let v = queue[head];
        head += 1;
        m.alu(1); // dequeue pointer arithmetic
        let dv = m.load(distances[v as usize]);
        if M::COUNTS && dv as usize != level.step {
            level.counters = m.counters().delta_since(&snapshot);
            steps.push(level);
            level = StepCounters {
                step: dv as usize,
                ..StepCounters::default()
            };
            snapshot = m.counters();
        }
        let next = dv + 1;
        m.alu(1); // next_level = d[v] + 1
        let neighbors = graph.neighbors(v);
        level.vertices_processed += 1;
        level.edges_traversed += neighbors.len() as u64;
        let mut i = 0;
        while m.branch(BFS_FOR, i < neighbors.len()) {
            let w = neighbors[i];
            let old = m.load(distances[w as usize]);
            if AVOIDING {
                let undiscovered = old > next;
                m.alu(1); // CMP(temp, next_level)
                m.store(&mut queue[queue_len as usize], w);
                let mut temp = old;
                m.cond_move(undiscovered, &mut temp, next);
                m.cond_add(undiscovered, &mut queue_len, 1);
                m.store(&mut distances[w as usize], temp);
                level.updates += undiscovered as u64;
            } else if m.branch(BFS_IF, old == INFINITY) {
                m.store(&mut distances[w as usize], next);
                m.store(&mut queue[queue_len as usize], w);
                queue_len += 1;
                m.alu(1); // queue length increment
                level.updates += 1;
            }
            i += 1;
            m.alu(1); // index increment
        }
    }
    if M::COUNTS {
        level.counters = m.counters().delta_since(&snapshot);
        steps.push(level);
    }
    queue.truncate(queue_len as usize);
    (BfsResult::new(distances, queue), steps)
}
