//! Parallel Shiloach-Vishkin connected components.
//!
//! The paper (Section 6.3) observes that the branch-avoiding hook is a
//! *priority write* — an unconditional "store the minimum" — which makes it
//! concurrency-friendly: in the parallel setting it is exactly one
//! `AtomicU32::fetch_min` per edge, with no compare-and-swap loop and no
//! data-dependent branch. The branch-based hook, by contrast, must test
//! `cu < cv` and then win the store with a CAS retry loop. Both variants
//! reproduce the sequential kernels' contrast in the concurrent setting:
//!
//! * branch-based (`Variant::BranchBased`) — per edge: load both labels,
//!   **branch** on the comparison, and claim the improvement with
//!   `compare_exchange_weak`.
//! * branch-avoiding (`Variant::BranchAvoiding`) — per edge: load the
//!   neighbour label and issue a single `fetch_min`; change detection is
//!   the branch-free `prev ^ min(prev, cu)` accumulation, mirroring the
//!   sequential kernel's `change |= cv ^ cv_init`.
//! * adaptive (`Variant::Auto`) — sample the first sweeps branch-based
//!   with tallying on, then hot-switch to whichever discipline the perf
//!   model's advisor predicts faster ([`crate::auto::AutoSwitch`]).
//!
//! Both are thin clients of the engine's [`SweepLoop`]
//! (see [`crate::engine`]), which owns the edge-balanced chunking, the
//! sweep-until-fixpoint driver and the per-sweep tally merging; the two
//! [`SweepKernel`]s below supply only the per-edge hooking discipline,
//! with a `TALLY` const parameter that compiles the counter accounting in
//! or out. Labels decrease monotonically towards the per-component
//! minimum vertex id — the same unique fixed point the sequential kernels
//! converge to — so the **final labels are identical to the sequential
//! result for every thread count**, even though the number of sweeps and
//! the intra-sweep interleaving may differ.

use crate::auto::AutoSwitch;
use crate::cancel::RunOutcome;
use crate::counters::ThreadTally;
use crate::engine::{SweepKernel, SweepLoop};
use crate::request::{ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::AdjacencySource;
use bga_kernels::cc::ComponentLabels;
use bga_kernels::stats::RunCounters;
use bga_obs::{TraceEvent, TraceSink};
use bga_perfmodel::advisor::AdvisorConfig;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Result of a parallel SV run.
#[derive(Clone, Debug)]
pub struct ParSvRun {
    /// Final component labels (identical to the sequential kernels').
    pub labels: ComponentLabels,
    /// Number of sweeps executed, including the final fixpoint-check
    /// sweep that changed nothing.
    pub sweeps: usize,
    /// Per-sweep counters merged across worker threads — populated only
    /// on instrumented or traced runs, empty otherwise.
    pub counters: RunCounters,
    /// Worker count the run actually used.
    pub threads: usize,
}

impl ParSvRun {
    /// Number of sweeps the algorithm executed.
    pub fn iterations(&self) -> usize {
        self.counters.num_steps()
    }
}

/// The adaptive sweep kernel: samples branch-based, switches per the
/// advisor. `tally_always` keeps post-switch sweeps tallied (instrumented
/// and traced runs want the full counter series).
#[allow(clippy::type_complexity)]
fn auto_sweep<'a>(
    ccid: &'a [AtomicU32],
    tally_always: bool,
) -> AutoSwitch<
    BranchBasedSweep<'a, true>,
    BranchBasedSweep<'a, false>,
    BranchAvoidingSweep<'a, true>,
    BranchAvoidingSweep<'a, false>,
> {
    AutoSwitch::new(
        BranchBasedSweep::<true> { ccid },
        BranchBasedSweep::<false> { ccid },
        BranchAvoidingSweep::<true> { ccid },
        BranchAvoidingSweep::<false> { ccid },
        AdvisorConfig::default(),
        tally_always,
    )
}

fn identity_labels(n: usize) -> Vec<AtomicU32> {
    (0..n as u32).map(AtomicU32::new).collect()
}

fn into_labels(ccid: Vec<AtomicU32>) -> ComponentLabels {
    ComponentLabels::new(ccid.into_iter().map(AtomicU32::into_inner).collect())
}

/// CAS-loop hooking over a borrowed label array: the branch-based sweep
/// kernel.
struct BranchBasedSweep<'a, const TALLY: bool> {
    ccid: &'a [AtomicU32],
}

impl<G: AdjacencySource, const TALLY: bool> SweepKernel<G> for BranchBasedSweep<'_, TALLY> {
    fn instrumented(&self) -> bool {
        TALLY
    }

    fn sweep_chunk(&self, graph: &G, range: Range<usize>, tally: &mut ThreadTally) -> bool {
        let mut changed = false;
        for v in range {
            if TALLY {
                tally.vertices += 1;
            }
            for u in graph.neighbor_cursor(v as u32) {
                let cu = self.ccid[u as usize].load(Relaxed);
                let mut cv = self.ccid[v].load(Relaxed);
                if TALLY {
                    tally.edges += 1;
                    tally.loads += 2;
                    tally.branches += 1; // inner-loop bound
                }
                loop {
                    // The data-dependent comparison, then win the store
                    // via CAS.
                    if TALLY {
                        tally.branches += 1;
                        tally.data_branches += 1;
                    }
                    if cu >= cv {
                        break;
                    }
                    if TALLY {
                        tally.loads += 1;
                    }
                    match self.ccid[v].compare_exchange_weak(cv, cu, Relaxed, Relaxed) {
                        Ok(_) => {
                            if TALLY {
                                tally.stores += 1;
                                tally.updates += 1;
                            }
                            changed = true;
                            break;
                        }
                        Err(current) => cv = current,
                    }
                }
            }
            if TALLY {
                tally.branches += 1; // outer-loop bound
            }
        }
        changed
    }
}

/// Fetch-min hooking over a borrowed label array: the branch-avoiding
/// sweep kernel.
struct BranchAvoidingSweep<'a, const TALLY: bool> {
    ccid: &'a [AtomicU32],
}

impl<G: AdjacencySource, const TALLY: bool> SweepKernel<G> for BranchAvoidingSweep<'_, TALLY> {
    fn instrumented(&self) -> bool {
        TALLY
    }

    fn sweep_chunk(&self, graph: &G, range: Range<usize>, tally: &mut ThreadTally) -> bool {
        let mut change = 0u32;
        for v in range {
            if TALLY {
                tally.vertices += 1;
            }
            for u in graph.neighbor_cursor(v as u32) {
                let cu = self.ccid[u as usize].load(Relaxed);
                // The priority write: unconditional atomic minimum.
                let prev = self.ccid[v].fetch_min(cu, Relaxed);
                // Branch-free change accumulation: non-zero iff the label
                // moved, mirroring the sequential kernel.
                change |= prev ^ prev.min(cu);
                if TALLY {
                    tally.edges += 1;
                    // fetch_min = load + predicated min + store, no branch.
                    tally.loads += 2;
                    tally.stores += 1;
                    tally.conditional_moves += 1;
                    tally.branches += 1; // inner-loop bound only
                    tally.updates += u64::from(prev > cu);
                }
            }
            if TALLY {
                tally.branches += 1; // outer-loop bound
            }
        }
        change != 0
    }
}

/// The one driver behind [`crate::request::run_components`] and its
/// resumed form. `initial` labels (instead of the identity) are how an
/// interrupted run is resumed; everything else about the run — executor,
/// tally, trace, cancellation — is the [`RunScope`]'s.
pub(crate) fn run_request<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    initial: Option<&ComponentLabels>,
    config: &RunConfig<'_, S, X>,
) -> (ParSvRun, RunOutcome) {
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "cc".to_string(),
        variant: variant.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: None,
        root: None,
        footprint: Some(run_footprint(graph.footprint())),
    });
    let ccid: Vec<AtomicU32> = match initial {
        Some(labels) => labels
            .as_slice()
            .iter()
            .copied()
            .map(AtomicU32::new)
            .collect(),
        None => identity_labels(graph.num_vertices()),
    };
    let sweep_loop = SweepLoop::new(graph, scope.exec(), scope.grain);
    let (sink, cancel) = (scope.sink(), scope.cancel);
    let (run, outcome) = match (variant, scope.tally) {
        (Variant::BranchAvoiding, false) => {
            sweep_loop.run(&BranchAvoidingSweep::<false> { ccid: &ccid }, sink, cancel)
        }
        (Variant::BranchAvoiding, true) => {
            sweep_loop.run(&BranchAvoidingSweep::<true> { ccid: &ccid }, sink, cancel)
        }
        (Variant::BranchBased, false) => {
            sweep_loop.run(&BranchBasedSweep::<false> { ccid: &ccid }, sink, cancel)
        }
        (Variant::BranchBased, true) => {
            sweep_loop.run(&BranchBasedSweep::<true> { ccid: &ccid }, sink, cancel)
        }
        (Variant::Auto, tally) => sweep_loop.run(&auto_sweep(&ccid, tally), sink, cancel),
    };
    scope.close(&outcome);
    let result = ParSvRun {
        labels: into_labels(ccid),
        sweeps: run.sweeps,
        counters: run.counters,
        threads: scope.threads(),
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::pool::{ScopedExecutor, WorkerPool};
    use crate::request::{run_components, run_components_resumed};
    use bga_graph::generators::{barabasi_albert, erdos_renyi_gnp, grid_2d, MeshStencil};
    use bga_graph::properties::connected_components_union_find;
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_kernels::cc::{sv_branch_avoiding, sv_branch_based};

    fn labels(g: &CsrGraph, variant: Variant, threads: usize) -> ComponentLabels {
        run_components(g, variant, &RunConfig::new().threads(threads))
            .0
            .labels
    }

    fn shapes() -> Vec<CsrGraph> {
        vec![
            GraphBuilder::undirected(0).build(),
            GraphBuilder::undirected(5).build(),
            GraphBuilder::undirected(7)
                .add_edges([(0, 1), (1, 2), (3, 4), (5, 6)])
                .build(),
            grid_2d(13, 9, MeshStencil::VonNeumann),
            erdos_renyi_gnp(400, 0.008, 3),
            barabasi_albert(500, 2, 17),
            // Above PARALLEL_GRAIN, so chunking fans out for real.
            barabasi_albert(4_000, 3, 23),
        ]
    }

    #[test]
    fn labels_match_sequential_for_every_thread_count() {
        for g in &shapes() {
            let seq_based = sv_branch_based(g);
            let seq_avoiding = sv_branch_avoiding(g);
            assert_eq!(seq_based.as_slice(), seq_avoiding.as_slice());
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    labels(g, Variant::BranchBased, threads).as_slice(),
                    seq_based.as_slice(),
                    "branch-based, {threads} threads"
                );
                assert_eq!(
                    labels(g, Variant::BranchAvoiding, threads).as_slice(),
                    seq_based.as_slice(),
                    "branch-avoiding, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn pool_and_scoped_executors_agree() {
        let g = barabasi_albert(2_000, 3, 29);
        let expected = sv_branch_based(&g);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain of 1 forces fan-out on every sweep, even on tiny graphs.
        for grain in [1, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            let pool_run = run_components(&g, Variant::BranchAvoiding, &on_pool).0;
            let scoped_run = run_components(&g, Variant::BranchAvoiding, &on_scoped).0;
            assert_eq!(pool_run.labels.as_slice(), expected.as_slice());
            assert_eq!(scoped_run.labels.as_slice(), expected.as_slice());
            let pool_based = run_components(&g, Variant::BranchBased, &on_pool).0;
            assert_eq!(pool_based.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn canonical_partition_matches_union_find() {
        let g = erdos_renyi_gnp(300, 0.01, 9);
        let expected = connected_components_union_find(&g);
        assert_eq!(labels(&g, Variant::BranchBased, 4).canonical(), expected);
        assert_eq!(labels(&g, Variant::BranchAvoiding, 4).canonical(), expected);
    }

    #[test]
    fn single_thread_sweep_count_matches_sequential() {
        use bga_kernels::cc::sv_branch::sv_branch_based_with_stats;
        let g = grid_2d(17, 5, MeshStencil::Moore);
        let (_, seq_sweeps) = sv_branch_based_with_stats(&g);
        let cfg = RunConfig::new().threads(1);
        assert_eq!(
            run_components(&g, Variant::BranchBased, &cfg).0.sweeps,
            seq_sweeps
        );
        assert_eq!(
            run_components(&g, Variant::BranchAvoiding, &cfg).0.sweeps,
            seq_sweeps
        );
    }

    #[test]
    fn instrumented_runs_account_for_every_edge_each_sweep() {
        let g = barabasi_albert(2_000, 3, 5);
        for threads in [1, 2, 8] {
            let cfg = RunConfig::new().threads(threads).instrumented(true);
            for run in [
                run_components(&g, Variant::BranchBased, &cfg).0,
                run_components(&g, Variant::BranchAvoiding, &cfg).0,
            ] {
                assert_eq!(run.threads, threads);
                for step in &run.counters.steps {
                    assert_eq!(step.edges_traversed as usize, g.num_edge_slots());
                    assert_eq!(step.vertices_processed as usize, g.num_vertices());
                }
                // The final sweep is the fixed-point check: no updates.
                assert_eq!(run.counters.steps.last().unwrap().updates, 0);
                assert_eq!(run.labels.canonical(), connected_components_union_find(&g));
            }
        }
    }

    #[test]
    fn cancelled_sweeps_return_resumable_partial_labels() {
        use crate::cancel::InterruptReason;
        // A sweep chains labels forward through ascending vertex ids, so
        // most graphs converge in very few sweeps. This zigzag path
        // alternates low and high ids along the walk, forcing the minimum
        // label to cross a descending edge — one hop per sweep — so a
        // one-sweep budget cuts the run genuinely short.
        let m = 30u32;
        let n = 2 * m;
        let walk: Vec<u32> = (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
            .collect();
        let g = GraphBuilder::undirected(n as usize)
            .add_edges(walk.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>())
            .build();
        let expected = sv_branch_avoiding(&g);
        let cancel = CancelToken::new().with_phase_budget(1);
        let (partial, outcome) = run_components(
            &g,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(4).cancel(&cancel),
        );
        assert_eq!(
            outcome.reason(),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        // Partial labels are valid monotone bounds: below the identity
        // start, above (or at) the fixpoint.
        let partial_labels = partial.labels.as_slice();
        assert_ne!(partial_labels, expected.as_slice());
        for (v, &label) in partial_labels.iter().enumerate() {
            assert!(label <= v as u32);
            assert!(label >= expected.as_slice()[v]);
        }
        // Resuming converges to labels bit-identical to the fixpoint, for
        // both disciplines.
        let cfg = RunConfig::new().threads(4);
        let resumed = run_components_resumed(&g, Variant::BranchAvoiding, &partial.labels, &cfg).0;
        assert_eq!(resumed.labels.as_slice(), expected.as_slice());
        let resumed_based =
            run_components_resumed(&g, Variant::BranchBased, &partial.labels, &cfg).0;
        assert_eq!(resumed_based.labels.as_slice(), expected.as_slice());
    }

    #[test]
    fn uncancelled_tokens_leave_runs_complete() {
        let g = erdos_renyi_gnp(300, 0.01, 9);
        let cancel = CancelToken::new();
        let (run, outcome) = run_components(
            &g,
            Variant::BranchBased,
            &RunConfig::new().threads(2).cancel(&cancel),
        );
        assert!(outcome.is_completed());
        assert_eq!(run.labels.as_slice(), sv_branch_based(&g).as_slice());
    }

    #[test]
    fn auto_variant_matches_static_labels() {
        let g = barabasi_albert(2_000, 3, 7);
        let expected = sv_branch_based(&g);
        for threads in [1, 2, 8] {
            let cfg = RunConfig::new().threads(threads).grain(1);
            let auto = run_components(&g, Variant::Auto, &cfg).0;
            assert_eq!(
                auto.labels.as_slice(),
                expected.as_slice(),
                "auto, {threads} threads"
            );
        }
        // Instrumented auto keeps tallying after the switch: one step per
        // sweep, exactly like the static instrumented runs.
        let run = run_components(
            &g,
            Variant::Auto,
            &RunConfig::new().threads(2).instrumented(true),
        )
        .0;
        assert_eq!(run.counters.num_steps(), run.sweeps);
        // Uninstrumented auto stops tallying once the advisor decides —
        // only the sampled prefix reports steps (SV may converge inside
        // the sampling window, in which case every sweep is sampled).
        let plain = run_components(&g, Variant::Auto, &RunConfig::new().threads(2)).0;
        let sampled = AdvisorConfig::default().sample_phases.min(plain.sweeps);
        assert_eq!(plain.counters.num_steps(), sampled);
        assert_eq!(plain.labels.as_slice(), expected.as_slice());
    }

    #[test]
    fn branch_contrast_survives_parallelism() {
        // The branch-based kernel executes a data-dependent branch per edge
        // that the branch-avoiding kernel replaces with a fetch-min, so it
        // must report strictly more branches and a non-zero misprediction
        // bound, while the avoiding kernel reports more stores.
        let g = erdos_renyi_gnp(1_500, 0.004, 21);
        let cfg = RunConfig::new().threads(4).instrumented(true);
        let based = run_components(&g, Variant::BranchBased, &cfg).0;
        let avoiding = run_components(&g, Variant::BranchAvoiding, &cfg).0;
        let b = based.counters.total();
        let a = avoiding.counters.total();
        assert!(b.branches > a.branches, "{} <= {}", b.branches, a.branches);
        assert!(b.branch_mispredictions > 0);
        assert_eq!(a.branch_mispredictions, 0);
        assert!(a.stores > b.stores, "{} <= {}", a.stores, b.stores);
        assert!(a.conditional_moves > 0);
    }
}
