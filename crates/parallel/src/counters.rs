//! Per-thread counter accounting for instrumented parallel runs.
//!
//! The sequential instrumented kernels route every operation through
//! [`bga_branchsim::ExecMachine`], which is inherently single-threaded. A
//! parallel chunk instead accumulates the operations it actually executes
//! into a [`ThreadTally`] of its own; the per-chunk tallies of one
//! sweep/level are then merged into a single step and fed into the same
//! [`RunCounters`] series the figures and reports consume. Shiloach-Vishkin
//! runs the kernels crate's sweep body on the tally, which implements
//! [`Machine`] as a count-only machine; the top-down level bodies (which
//! BFS, unit SSSP and Brandes' forward phase share), the bottom-up claim,
//! weighted SSSP and k-core chunk bodies still add to the tally's fields
//! by hand.
//! The tallies are accumulated inside pool chunks and returned through
//! [`crate::pool::Execute::run`] in chunk order, so merging is
//! deterministic regardless of which worker ran which chunk. The same
//! merged steps feed the trace layer: each engine phase's
//! [`StepCounters`] map field-for-field into a
//! [`bga_obs::PhaseCounters`] on the emitted `bga-trace-v1` phase event.
//!
//! One honest limitation: real branch *mispredictions* cannot be observed
//! without a predictor simulation, so the merged counters carry the paper's
//! analytical bound for the data-dependent branch (at most two misses per
//! label update / discovery, Sections 4.1 and 5.1) rather than a simulated
//! count, and zero for the branch-avoiding kernels whose remaining loop
//! branches are asymptotically perfectly predicted.

use bga_branchsim::{BranchSite, Machine, PerfCounters};
use bga_kernels::cc::sv::{SV_INNER_FOR, SV_OUTER_FOR};
use bga_kernels::stats::{RunCounters, StepCounters};

/// Operation tally one worker accumulates over one sweep/level.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTally {
    /// Edge traversals (inner-loop trips).
    pub edges: u64,
    /// Vertices this worker processed.
    pub vertices: u64,
    /// Label updates (SV) or discoveries (BFS) this worker won.
    pub updates: u64,
    /// Memory loads issued.
    pub loads: u64,
    /// Memory stores issued (atomic RMWs count one load and one store).
    pub stores: u64,
    /// Conditional branches executed (loop bounds plus data-dependent tests).
    pub branches: u64,
    /// Data-dependent conditional branches only (subset of `branches`);
    /// drives the misprediction bound.
    pub data_branches: u64,
    /// Predicated operations (a conditional-move `min`, or the one inside
    /// an atomic fetch-min).
    pub conditional_moves: u64,
}

impl ThreadTally {
    /// Converts the tally into a [`StepCounters`] for `step`, applying the
    /// misprediction bound `min(data_branches, 2 * updates)`.
    pub fn into_step(self, step: usize) -> StepCounters {
        let mispredictions = self.data_branches.min(2 * self.updates);
        let instructions =
            self.loads + self.stores + self.branches + self.conditional_moves + self.edges;
        StepCounters {
            step,
            counters: PerfCounters {
                instructions,
                branches: self.branches,
                branch_mispredictions: mispredictions,
                loads: self.loads,
                stores: self.stores,
                conditional_moves: self.conditional_moves,
            },
            edges_traversed: self.edges,
            vertices_processed: self.vertices,
            updates: self.updates,
        }
    }
}

/// The count-only machine a tallied chunk runs a kernel body on: every
/// operation is the bare operation plus one count, with no predictor, and
/// ALU work is not counted. A taken `for v` / `for u` test of the SV sweep
/// ([`SV_OUTER_FOR`] / [`SV_INNER_FOR`]) is one vertex / edge; any other
/// branch is data-dependent, and an update when taken. A conditional move
/// that selects its source is an update too, so both disciplines count
/// updates per edge.
impl Machine for ThreadTally {
    const COUNTS: bool = true;

    #[inline(always)]
    fn load<T>(&mut self, value: T) -> T {
        self.loads += 1;
        value
    }

    #[inline(always)]
    fn store<T>(&mut self, slot: &mut T, value: T) {
        self.stores += 1;
        *slot = value;
    }

    #[inline(always)]
    fn alu(&mut self, _n: u64) {}

    #[inline(always)]
    fn branch(&mut self, site: BranchSite, condition: bool) -> bool {
        let taken = u64::from(condition);
        self.branches += 1;
        if site == SV_OUTER_FOR {
            self.vertices += taken;
        } else if site == SV_INNER_FOR {
            self.edges += taken;
        } else {
            self.data_branches += 1;
            self.updates += taken;
        }
        condition
    }

    #[inline(always)]
    fn cond_move(&mut self, condition: bool, dst: &mut u32, src: u32) {
        self.conditional_moves += 1;
        self.updates += u64::from(condition);
        *dst = if condition { src } else { *dst };
    }

    #[inline(always)]
    fn cond_add(&mut self, condition: bool, dst: &mut u64, delta: u64) {
        self.conditional_moves += 1;
        *dst += if condition { delta } else { 0 };
    }

    fn counters(&self) -> PerfCounters {
        self.into_step(0).counters
    }
}

/// Merges the per-thread counters of one sweep/level into a single step:
/// every field is summed, and the step index is forced to `step`.
pub fn merge_thread_steps<I>(step: usize, parts: I) -> StepCounters
where
    I: IntoIterator<Item = StepCounters>,
{
    parts.into_iter().fold(
        StepCounters {
            step,
            ..StepCounters::default()
        },
        |acc, part| StepCounters {
            step,
            counters: acc.counters + part.counters,
            edges_traversed: acc.edges_traversed + part.edges_traversed,
            vertices_processed: acc.vertices_processed + part.vertices_processed,
            updates: acc.updates + part.updates,
        },
    )
}

/// Collects merged steps into the [`RunCounters`] series the existing
/// figures/report machinery consumes.
pub fn collect_run<I>(steps: I) -> RunCounters
where
    I: IntoIterator<Item = StepCounters>,
{
    RunCounters {
        steps: steps.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(edges: u64, updates: u64) -> ThreadTally {
        ThreadTally {
            edges,
            vertices: edges / 2,
            updates,
            loads: 2 * edges,
            stores: updates,
            branches: 2 * edges,
            data_branches: edges,
            conditional_moves: 0,
        }
    }

    #[test]
    fn tally_applies_the_misprediction_bound() {
        // Few updates: bound is 2 * updates.
        let step = tally(100, 3).into_step(4);
        assert_eq!(step.step, 4);
        assert_eq!(step.counters.branch_mispredictions, 6);
        // Many updates: bound saturates at the data-branch count.
        let step = tally(10, 9).into_step(0);
        assert_eq!(step.counters.branch_mispredictions, 10);
    }

    #[test]
    fn merge_sums_every_field() {
        let merged = merge_thread_steps(
            2,
            vec![tally(10, 1).into_step(2), tally(30, 5).into_step(2)],
        );
        assert_eq!(merged.step, 2);
        assert_eq!(merged.edges_traversed, 40);
        assert_eq!(merged.vertices_processed, 20);
        assert_eq!(merged.updates, 6);
        assert_eq!(merged.counters.loads, 80);
        assert_eq!(merged.counters.branches, 80);
    }

    #[test]
    fn merge_of_nothing_is_zero() {
        let merged = merge_thread_steps(7, std::iter::empty());
        assert_eq!(merged.step, 7);
        assert_eq!(merged.edges_traversed, 0);
        assert_eq!(merged.counters, PerfCounters::zero());
    }

    #[test]
    fn collected_runs_total_like_sequential_ones() {
        let run = collect_run(vec![tally(10, 1).into_step(0), tally(20, 2).into_step(1)]);
        assert_eq!(run.num_steps(), 2);
        assert_eq!(run.total_edges_traversed(), 30);
        assert_eq!(run.total().loads, 60);
    }
}
