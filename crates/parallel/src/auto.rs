//! Adaptive variant selection: the [`AutoSwitch`] kernel adapter behind
//! `Variant::Auto`.
//!
//! A run under `Variant::Auto` starts in the *branch-based* discipline with
//! tallying on, feeds the first few phases' merged step counters to the
//! perf model's [`VariantAdvisor`], and switches to the predicted-best
//! discipline at the next phase boundary — the engine loops call
//! [`phase_complete`](crate::engine::PhaseHooks::phase_complete) between
//! phases, which is the only point the mode changes. Switching mid-run is
//! correctness-free: both disciplines maintain the same monotone atomic
//! state (distances only decrease, degrees only decrement), so the
//! remaining phases converge to the same fixpoint from wherever the
//! sampled prefix left it. Sampling starts branch-based because that is
//! the variant whose data-dependent branches the tallies actually count;
//! the advisor charges it the paper's 2-bit-predictor bound and compares
//! against the atomic premium the branch-avoiding variant would pay.
//!
//! The adapter holds one kernel of each discipline and dispatches per
//! chunk on an atomic mode word. Chunks only ever observe the mode the
//! dispatching thread set before fanning the phase out, so a phase runs
//! entirely in one discipline and the per-phase determinism arguments of
//! the engine are untouched. Whether a phase tallies is the engine loop's
//! choice, not the adapter's: it tallies while the adapter samples
//! ([`PhaseHooks::instrumented`]) and, on an instrumented or traced run,
//! after the switch too.

use crate::counters::ThreadTally;
use crate::engine::{
    BucketCtx, BucketKernel, EdgeClass, LevelCtx, LevelKernel, PhaseHooks, SweepKernel,
};
use crate::kcore::{PeelControl, PeelCtx};
use bga_graph::{AdjacencySource, VertexId, WeightedAdjacencySource};
use bga_kernels::bfs::frontier::Bitmap;
use bga_kernels::stats::StepCounters;
use bga_perfmodel::advisor::{AdvisorConfig, ChosenVariant, VariantAdvisor};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;

/// What a kernel reports from `phase_complete` when its advisor decides:
/// the engine loop turns this into the run's `decision` trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchNotice {
    /// The discipline chosen for the remainder of the run.
    pub choice: ChosenVariant,
    /// Whether the choice differs from the sampling discipline (i.e. the
    /// run actually switched).
    pub switched: bool,
    /// Phases sampled before deciding.
    pub sampled: usize,
    /// Data-dependent tests observed across the sampled phases.
    pub edges: u64,
    /// Successful updates observed across the sampled phases.
    pub updates: u64,
    /// The misprediction bound charged to the branch-based discipline.
    pub mispredictions: u64,
}

const MODE_SAMPLING: u8 = 0;
const MODE_BASED: u8 = 1;
const MODE_AVOIDING: u8 = 2;

/// Kernel adapter that samples branch-based phases, consults the
/// [`VariantAdvisor`], and hot-switches discipline at a phase boundary.
///
/// Generic over the branch-based kernel `B` and the branch-avoiding kernel
/// `A` it dispatches to, so the per-chunk indirection is one atomic load
/// and a jump, not dynamic dispatch inside the edge loop. Samples
/// accumulate while the mode word says `sampling`; the decision flips it
/// exactly once.
pub struct AutoSwitch<B, A> {
    based: B,
    avoiding: A,
    mode: AtomicU8,
    advisor: Mutex<VariantAdvisor>,
}

impl<B, A> AutoSwitch<B, A> {
    /// An adapter over the two disciplines' kernels, sampling per the
    /// default [`AdvisorConfig`].
    pub fn new(based: B, avoiding: A) -> Self {
        AutoSwitch {
            based,
            avoiding,
            mode: AtomicU8::new(MODE_SAMPLING),
            advisor: Mutex::new(VariantAdvisor::new(AdvisorConfig::default())),
        }
    }

    /// Whether chunks dispatched right now run branch-avoiding (never
    /// while sampling).
    fn runs_avoiding(&self) -> bool {
        self.mode.load(Relaxed) == MODE_AVOIDING
    }
}

impl<B: Sync, A: Sync> PhaseHooks for AutoSwitch<B, A> {
    /// Tally every phase while sampling: the advisor needs the counts.
    fn instrumented(&self) -> bool {
        self.mode.load(Relaxed) == MODE_SAMPLING
    }

    /// Feed the merged step to the advisor while sampling; flip the mode
    /// exactly once at the decision.
    fn phase_complete(&self, step: Option<&StepCounters>) -> Option<SwitchNotice> {
        if self.mode.load(Relaxed) != MODE_SAMPLING {
            return None;
        }
        let step = step?;
        let mut advisor = self
            .advisor
            .lock()
            .expect("no phase panics holding the advisor");
        let decision = advisor.record_phase(step.edges_traversed, step.updates)?;
        let (mode, switched) = match decision.choice {
            ChosenVariant::BranchBased => (MODE_BASED, false),
            ChosenVariant::BranchAvoiding => (MODE_AVOIDING, true),
        };
        self.mode.store(mode, Relaxed);
        Some(SwitchNotice {
            choice: decision.choice,
            switched,
            sampled: decision.sampled,
            edges: decision.edges,
            updates: decision.updates,
            mispredictions: decision.mispredictions,
        })
    }
}

impl<G, B, A> LevelKernel<G> for AutoSwitch<B, A>
where
    G: AdjacencySource,
    B: LevelKernel<G>,
    A: LevelKernel<G>,
{
    fn top_down_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        if self.runs_avoiding() {
            self.avoiding
                .top_down_chunk::<TALLY>(ctx, frontier, range, chunk_edges, tally)
        } else {
            self.based
                .top_down_chunk::<TALLY>(ctx, frontier, range, chunk_edges, tally)
        }
    }

    fn bottom_up_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        in_frontier: &Bitmap,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        if self.runs_avoiding() {
            self.avoiding
                .bottom_up_chunk::<TALLY>(ctx, in_frontier, range, tally)
        } else {
            self.based
                .bottom_up_chunk::<TALLY>(ctx, in_frontier, range, tally)
        }
    }
}

impl<G, B, A> SweepKernel<G> for AutoSwitch<B, A>
where
    G: AdjacencySource,
    B: SweepKernel<G>,
    A: SweepKernel<G>,
{
    fn sweep_chunk<const TALLY: bool>(
        &self,
        graph: &G,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> bool {
        if self.runs_avoiding() {
            self.avoiding.sweep_chunk::<TALLY>(graph, range, tally)
        } else {
            self.based.sweep_chunk::<TALLY>(graph, range, tally)
        }
    }
}

impl<W, B, A> BucketKernel<W> for AutoSwitch<B, A>
where
    W: WeightedAdjacencySource,
    B: BucketKernel<W>,
    A: BucketKernel<W>,
{
    fn relax_chunk<const TALLY: bool>(
        &self,
        ctx: &BucketCtx<'_, W>,
        frontier: &[(VertexId, u32)],
        range: Range<usize>,
        chunk_edges: usize,
        class: EdgeClass,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        if self.runs_avoiding() {
            self.avoiding
                .relax_chunk::<TALLY>(ctx, frontier, range, chunk_edges, class, tally)
        } else {
            self.based
                .relax_chunk::<TALLY>(ctx, frontier, range, chunk_edges, class, tally)
        }
    }
}

impl<G, B, A> PeelControl<G> for AutoSwitch<B, A>
where
    G: AdjacencySource,
    B: PeelControl<G>,
    A: PeelControl<G>,
{
    fn seed<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> (Vec<VertexId>, u32) {
        if self.runs_avoiding() {
            self.avoiding.seed::<TALLY>(ctx, range, tally)
        } else {
            self.based.seed::<TALLY>(ctx, range, tally)
        }
    }

    fn cascade<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        if self.runs_avoiding() {
            self.avoiding
                .cascade::<TALLY>(ctx, frontier, range, chunk_edges, tally)
        } else {
            self.based
                .cascade::<TALLY>(ctx, frontier, range, chunk_edges, tally)
        }
    }
}
