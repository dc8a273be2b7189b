//! The execution machine the kernels are written against.
//!
//! The paper measures its hand-written assembly kernels with hardware
//! performance counters. This reproduction substitutes a software
//! *instrumentation machine*: each kernel is written once against the
//! [`Machine`] trait, calling [`Machine::load`], [`Machine::store`] (or
//! [`Machine::store_shared`] for a slot other threads read),
//! [`Machine::branch`], [`Machine::cond_move`] and [`Machine::alu`] at the
//! points where the assembly version would issue the corresponding
//! instruction. Run on [`ExecMachine`], every event is counted exactly and a
//! pluggable [`PredictorModel`] attributes mispredictions, so the
//! per-iteration counter series of Figures 4, 5, 7 and 8 can be regenerated
//! deterministically. Run on [`Uncounted`], every operation is the bare
//! operation, so the same source is the timed kernel.

use crate::counters::PerfCounters;
use crate::predictor::{Outcome, PredictorModel, TwoBitPredictor};
use crate::site::BranchSite;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The operations a kernel issues, as the paper's assembly would issue them.
pub trait Machine {
    /// True when the machine counts; kernels keep their per-step
    /// bookkeeping under `if M::COUNTS` so it compiles out otherwise.
    const COUNTS: bool;

    /// A memory load, passed through so kernel code reads naturally:
    /// `let cu = machine.load(ccid[u as usize]);`
    fn load<T>(&mut self, value: T) -> T;

    /// A memory store: `*slot = value`.
    fn store<T>(&mut self, slot: &mut T, value: T);

    /// A store to a slot other threads may read: the machine's
    /// [`Machine::store`], published with a `Relaxed` atomic store, which
    /// is a plain `mov` on x86-64.
    #[inline(always)]
    fn store_shared(&mut self, slot: &AtomicU32, value: u32) {
        let mut stored = value;
        self.store(&mut stored, value);
        slot.store(stored, Relaxed);
    }

    /// `n` generic ALU / bookkeeping instructions (index arithmetic,
    /// compares feeding conditional moves, register moves).
    fn alu(&mut self, n: u64);

    /// A conditional branch at `site` with actual direction `condition`,
    /// returned so it can drive Rust control flow:
    /// `if machine.branch(SV_IF, cu < cv) { .. }`.
    fn branch(&mut self, site: BranchSite, condition: bool) -> bool;

    /// Conditional move, the `CMOVcc` the branch-avoiding kernels rely on:
    /// `*dst = src` iff `condition`, with no branch.
    fn cond_move(&mut self, condition: bool, dst: &mut u32, src: u32);

    /// Conditional add, the paper's `COND_ADD` that advances the BFS queue
    /// length: `*dst += delta` iff `condition`, with no branch.
    fn cond_add(&mut self, condition: bool, dst: &mut u64, delta: u64);

    /// Counter values since construction (all zero when uncounted).
    fn counters(&self) -> PerfCounters;
}

/// The machine that counts nothing: a zero-sized type whose operations are
/// the bare operations, so a kernel run on it is the plain timed kernel.
/// Conditional moves and adds are mask selects, never a jump.
#[derive(Clone, Copy, Debug, Default)]
pub struct Uncounted;

impl Machine for Uncounted {
    const COUNTS: bool = false;

    #[inline(always)]
    fn load<T>(&mut self, value: T) -> T {
        value
    }

    #[inline(always)]
    fn store<T>(&mut self, slot: &mut T, value: T) {
        *slot = value;
    }

    #[inline(always)]
    fn alu(&mut self, _n: u64) {}

    #[inline(always)]
    fn branch(&mut self, _site: BranchSite, condition: bool) -> bool {
        condition
    }

    #[inline(always)]
    fn cond_move(&mut self, condition: bool, dst: &mut u32, src: u32) {
        // (condition as u32) is 0 or 1; wrapping_neg turns it into an
        // all-zeros or all-ones mask, so the select is pure data flow.
        let mask = (condition as u32).wrapping_neg();
        *dst = (src & mask) | (*dst & !mask);
    }

    #[inline(always)]
    fn cond_add(&mut self, condition: bool, dst: &mut u64, delta: u64) {
        *dst += delta & (condition as u64).wrapping_neg();
    }

    #[inline(always)]
    fn counters(&self) -> PerfCounters {
        PerfCounters::zero()
    }
}

/// Instrumented machine: a counter block plus a branch-predictor model.
///
/// The generic parameter defaults to the paper's 2-bit predictor; the
/// predictor ablation instantiates the same kernels with other models.
/// Keep it a local of the function that runs the kernel loop: the
/// predictor's per-site states then live in registers.
#[derive(Clone, Debug)]
pub struct ExecMachine<P: PredictorModel = TwoBitPredictor> {
    counters: PerfCounters,
    predictor: P,
}

impl ExecMachine<TwoBitPredictor> {
    /// Machine with the paper's default 2-bit predictor.
    pub fn new() -> Self {
        ExecMachine::with_predictor(TwoBitPredictor::new())
    }
}

impl Default for ExecMachine<TwoBitPredictor> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PredictorModel> ExecMachine<P> {
    /// Machine with a custom predictor model.
    pub fn with_predictor(predictor: P) -> Self {
        ExecMachine {
            counters: PerfCounters::zero(),
            predictor,
        }
    }

    /// Resets counters and predictor state.
    pub fn reset(&mut self) {
        self.counters = PerfCounters::zero();
        self.predictor.reset();
    }
}

impl<P: PredictorModel> Machine for ExecMachine<P> {
    const COUNTS: bool = true;

    #[inline]
    fn load<T>(&mut self, value: T) -> T {
        self.counters.loads += 1;
        self.counters.instructions += 1;
        value
    }

    #[inline]
    fn store<T>(&mut self, slot: &mut T, value: T) {
        self.counters.stores += 1;
        self.counters.instructions += 1;
        *slot = value;
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    #[inline]
    fn branch(&mut self, site: BranchSite, condition: bool) -> bool {
        self.counters.branches += 1;
        self.counters.instructions += 1;
        // Split on the condition before recording, so each path hands the
        // predictor a constant outcome. Recording `Outcome::from_bool`
        // instead lets LLVM thread the predictor's state switch through the
        // kernel loop into jump tables, which made the branch-based SV sweep
        // 1.5x slower to simulate.
        let correct = if condition {
            self.predictor.record(site, Outcome::Taken)
        } else {
            self.predictor.record(site, Outcome::NotTaken)
        };
        if !correct {
            self.counters.branch_mispredictions += 1;
        }
        condition
    }

    /// Counted as a single predicated instruction with **no** branch and no
    /// misprediction.
    #[inline]
    fn cond_move(&mut self, condition: bool, dst: &mut u32, src: u32) {
        self.counters.conditional_moves += 1;
        self.counters.instructions += 1;
        *dst = if condition { src } else { *dst };
    }

    #[inline]
    fn cond_add(&mut self, condition: bool, dst: &mut u64, delta: u64) {
        self.counters.conditional_moves += 1;
        self.counters.instructions += 1;
        *dst += if condition { delta } else { 0 };
    }

    #[inline]
    fn counters(&self) -> PerfCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::AlwaysTakenPredictor;

    const LOOP: BranchSite = BranchSite::new(0, "loop");

    #[test]
    fn load_store_and_alu_count() {
        let mut m = ExecMachine::new();
        let mut x = 0u32;
        let v = m.load(41u32);
        m.store(&mut x, v + 1);
        let shared = AtomicU32::new(0);
        m.store_shared(&shared, 7);
        m.alu(3);
        assert_eq!((x, shared.into_inner()), (42, 7));
        let c = m.counters();
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 2);
        assert_eq!(c.instructions, 1 + 2 + 3);
        assert_eq!(c.branches, 0);
    }

    #[test]
    fn branch_counts_and_returns_condition() {
        let mut m = ExecMachine::new();
        assert!(m.branch(LOOP, true));
        assert!(!m.branch(LOOP, false));
        let c = m.counters();
        assert_eq!(c.branches, 2);
        assert!(c.branch_mispredictions >= 1);
    }

    #[test]
    fn mispredictions_follow_the_predictor() {
        // With always-taken, only not-taken branches mispredict.
        let mut m = ExecMachine::with_predictor(AlwaysTakenPredictor::new());
        for _ in 0..5 {
            m.branch(LOOP, true);
        }
        m.branch(LOOP, false);
        assert_eq!(m.counters().branch_mispredictions, 1);
        assert_eq!(m.counters().branches, 6);
    }

    #[test]
    fn cond_move_applies_only_when_condition_holds() {
        let mut m = ExecMachine::new();
        let mut x = 10u32;
        m.cond_move(false, &mut x, 99);
        assert_eq!(x, 10);
        m.cond_move(true, &mut x, 99);
        assert_eq!(x, 99);
        let c = m.counters();
        assert_eq!(c.conditional_moves, 2);
        assert_eq!(c.branches, 0);
        assert_eq!(c.branch_mispredictions, 0);
    }

    #[test]
    fn cond_add_advances_conditionally() {
        let mut m = ExecMachine::new();
        let mut len = 0u64;
        m.cond_add(true, &mut len, 1);
        m.cond_add(false, &mut len, 1);
        m.cond_add(true, &mut len, 1);
        assert_eq!(len, 2);
        assert_eq!(m.counters().conditional_moves, 3);
    }

    #[test]
    fn uncounted_performs_the_bare_operations() {
        let mut m = Uncounted;
        let mut x = 0u32;
        let v = m.load(41u32);
        m.store(&mut x, v + 1);
        assert_eq!(x, 42);
        let shared = AtomicU32::new(0);
        m.store_shared(&shared, 7);
        assert_eq!(shared.into_inner(), 7);
        assert!(m.branch(LOOP, true) && !m.branch(LOOP, false));
        for (cond, expected) in [(false, 42u32), (true, 7)] {
            let mut y = 42u32;
            m.cond_move(cond, &mut y, 7);
            assert_eq!(y, expected);
        }
        let mut len = u64::MAX - 1;
        m.cond_add(false, &mut len, 1);
        m.cond_add(true, &mut len, 1);
        assert_eq!(len, u64::MAX);
        assert_eq!(m.counters(), PerfCounters::zero());
    }

    #[test]
    fn snapshot_delta_isolates_an_iteration() {
        let mut m = ExecMachine::new();
        m.alu(5);
        let snap = m.counters();
        m.alu(2);
        m.branch(LOOP, true);
        let delta = m.counters().delta_since(&snap);
        assert_eq!(delta.instructions, 3);
        assert_eq!(delta.branches, 1);
    }

    #[test]
    fn reset_clears_counters_and_predictor() {
        let mut m = ExecMachine::new();
        for _ in 0..10 {
            m.branch(LOOP, true);
        }
        m.reset();
        assert_eq!(m.counters(), PerfCounters::zero());
        // After reset the first taken branch should mispredict again
        // (initial state predicts not-taken).
        m.branch(LOOP, true);
        assert_eq!(m.counters().branch_mispredictions, 1);
    }
}
