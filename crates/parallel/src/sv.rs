//! Parallel Shiloach-Vishkin connected components.
//!
//! Each chunk runs the sequential kernels' sweep body,
//! [`bga_kernels::cc::sv::sweep`], over its own vertex range: the paper's
//! Algorithm 2 or 3 is written once, and the parallel run times the same
//! machine code as the sequential one. Because [`SweepLoop`] hands every
//! chunk a disjoint vertex range, only the chunk that owns `v` ever writes
//! `ccid[v]` within a sweep, so no label update needs a read-modify-write.
//! The labels are `AtomicU32` only so that a chunk may read a neighbour
//! label another chunk is writing; `Relaxed` loads and stores compile to
//! plain `mov`s on x86-64. The variants:
//!
//! * branch-based (`Variant::BranchBased`, Algorithm 2) — hold `cv` in a
//!   register, load each neighbour label and **branch** on `cu < cv`; the
//!   taken side moves the register and stores it to `ccid[v]`.
//! * branch-avoiding (`Variant::BranchAvoiding`, Algorithm 3) — fold each
//!   neighbour label into the register with a conditional move, store the
//!   register once per vertex and count the vertices whose label moved.
//! * adaptive (`Variant::Auto`) — sample the first sweeps branch-based
//!   with tallying on, then hot-switch to whichever discipline the perf
//!   model's advisor predicts faster ([`crate::auto::AutoSwitch`]).
//!
//! Why `Relaxed` is enough, for both disciplines:
//!
//! * **One writer per label.** `ccid[v]` is written only by the chunk that
//!   owns `v` (the [`SweepKernel::sweep_chunk`] contract), so no store can
//!   be lost to a concurrent one.
//! * **Monotone labels.** The owner stores only values no larger than its
//!   own load of `ccid[v]`, so every label only decreases. A stale read of
//!   a label another chunk is lowering is still a label it held, hence a
//!   valid upper bound: it can slow convergence, never break it.
//! * **Sweeps are ordered.** The executor's batch completion makes every
//!   store of one sweep happen-before every load of the next.
//! * **Fixpoint detection is exact.** A sweep that reports no change only
//!   wrote back the values it read, so the labels it read were the labels
//!   at the end of the sweep, and no edge joins two different labels.
//!
//! The kernel is a thin client of the engine's [`SweepLoop`] (see
//! [`crate::engine`]), which owns the edge-balanced chunking, the
//! sweep-until-fixpoint driver and the per-sweep tallies. An untallied
//! chunk calls the uncounted body, [`plain_sweep`]; a tallied chunk runs
//! [`sweep`] on its [`ThreadTally`], the count-only machine, which counts
//! every operation the body issues, loop-exit tests included. Labels
//! converge to the per-component minimum vertex id, the sequential
//! kernels' unique fixed point, so the **final labels are identical to the
//! sequential result for every thread count**, even though the number of
//! sweeps and the intra-sweep interleaving may differ.

use crate::auto::AutoSwitch;
use crate::cancel::RunOutcome;
use crate::counters::ThreadTally;
use crate::engine::{PhaseHooks, SweepKernel, SweepLoop};
use crate::request::{ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::AdjacencySource;
use bga_kernels::cc::sv::{plain_sweep, sweep};
use bga_kernels::cc::ComponentLabels;
use bga_kernels::stats::RunCounters;
use bga_obs::{TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::atomic::AtomicU32;

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

/// The SV sweep kernel over a borrowed label array, in the discipline
/// `AVOIDING` selects: Algorithm 3 when set, Algorithm 2 otherwise.
struct Sweep<'a, const AVOIDING: bool> {
    ccid: &'a [AtomicU32],
}

impl<const AVOIDING: bool> PhaseHooks for Sweep<'_, AVOIDING> {}

impl<G: AdjacencySource, const AVOIDING: bool> SweepKernel<G> for Sweep<'_, AVOIDING> {
    // Out of line so the disassembly audit
    // (`crates/parallel/scripts/sv-asm-audit.sh`) finds the tallied body
    // under its own symbol, and the untallied call to `plain_sweep`.
    #[inline(never)]
    fn sweep_chunk<const TALLY: bool>(
        &self,
        graph: &G,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> bool {
        let updates = if TALLY {
            sweep::<G, ThreadTally, AVOIDING>(graph, self.ccid, range, tally)
        } else {
            plain_sweep::<G, AVOIDING>(graph, self.ccid, range)
        };
        updates != 0
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
    let ccid: Vec<AtomicU32> = (0..graph.num_vertices() as u32)
        .map(|v| AtomicU32::new(initial.map_or(v, |labels| labels.label(v))))
        .collect();
    let sweep_loop = SweepLoop::new(graph, scope.exec(), scope.grain, scope.tally);
    let (sink, cancel) = (scope.sink(), scope.cancel);
    let (based, avoiding) = (
        Sweep::<false> { ccid: &ccid },
        Sweep::<true> { ccid: &ccid },
    );
    let (run, outcome) = match variant {
        Variant::BranchAvoiding => sweep_loop.run(&avoiding, sink, cancel),
        Variant::BranchBased => sweep_loop.run(&based, sink, cancel),
        Variant::Auto => sweep_loop.run(&AutoSwitch::new(based, avoiding), sink, cancel),
    };
    scope.close(&outcome);
    let result = ParSvRun {
        labels: ComponentLabels::new(ccid.into_iter().map(AtomicU32::into_inner).collect()),
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
    use bga_graph::transform::relabel_random;
    use bga_graph::{CompressedCsrGraph, CsrGraph, GraphBuilder};
    use bga_kernels::cc::{sv_branch_avoiding, sv_branch_based};
    use bga_perfmodel::advisor::AdvisorConfig;

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

    /// A sweep chains labels forward through ascending vertex ids, so most
    /// graphs converge in very few sweeps. This zigzag path alternates low
    /// and high ids along the walk, forcing the minimum label to cross a
    /// descending edge — one hop per sweep — so a small sweep budget cuts
    /// the run genuinely short.
    fn zigzag_path() -> CsrGraph {
        let n = 60u32;
        let walk: Vec<u32> = (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
            .collect();
        GraphBuilder::undirected(n as usize)
            .add_edges(walk.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>())
            .build()
    }

    #[test]
    fn cancelled_sweeps_return_resumable_partial_labels() {
        use crate::cancel::InterruptReason;
        let g = zigzag_path();
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
    fn single_thread_tallies_match_the_sequential_kernels_per_sweep() {
        use bga_kernels::cc::instrumented::{
            sv_branch_avoiding_instrumented, sv_branch_based_instrumented,
        };
        // Relabelled, so propagation needs several sweeps of real updates.
        let g = relabel_random(&grid_2d(20, 20, MeshStencil::Moore), 7);
        let (n, m) = (g.num_vertices() as u64, g.num_edge_slots() as u64);
        let based_seq = sv_branch_based_instrumented(&g).counters.steps;
        let avoiding_seq = sv_branch_avoiding_instrumented(&g).counters.steps;
        assert!(based_seq.len() >= 3, "need a few sweeps for this check");
        let cfg = RunConfig::new().threads(1).instrumented(true);
        for (variant, reference) in [
            (Variant::BranchBased, &based_seq),
            (Variant::BranchAvoiding, &avoiding_seq),
        ] {
            let steps = run_components(&g, variant, &cfg).0.counters.steps;
            assert_eq!(steps.len(), based_seq.len(), "{variant:?}");
            for ((par, based), seq) in steps.iter().zip(&based_seq).zip(reference) {
                let at = format!("{variant:?}, sweep {}", par.step);
                // Both disciplines count updates per edge, against the
                // register, exactly like the branch-based Algorithm 2.
                assert_eq!(par.edges_traversed, based.edges_traversed, "{at}");
                assert_eq!(par.updates, based.updates, "{at}");
                // One chunk runs the sequential body over 0..n, so loads,
                // stores, moves and branches equal the same-discipline
                // sequential kernel's: |V| + |E| loads either way; one store
                // per update (Alg. 2) or per vertex (Alg. 3), plus |E| moves.
                assert_eq!(par.counters.branches, seq.counters.branches, "{at}");
                assert_eq!(par.counters.loads, seq.counters.loads, "{at}");
                assert_eq!(par.counters.loads, n + m, "{at}");
                assert_eq!(par.counters.stores, seq.counters.stores, "{at}");
                let moves = seq.counters.conditional_moves;
                assert_eq!(par.counters.conditional_moves, moves, "{at}");
                if variant == Variant::BranchAvoiding {
                    assert_eq!((par.counters.stores, moves), (n, m), "{at}");
                } else {
                    assert_eq!((par.counters.stores, moves), (par.updates, 0), "{at}");
                }
            }
        }
    }

    #[test]
    fn relaxed_reads_leave_every_cut_resumable() {
        // Grain 1 on 8 workers gives every sweep up to eight chunks racing
        // on each other's labels. Whatever interleaving a run sees, a run
        // cut after any number of sweeps must leave valid bounds that
        // either discipline resumes to the exact fixpoint.
        fn check_every_cut<G: AdjacencySource>(g: &G, expected: &[u32], pool: &WorkerPool) {
            let cfg = RunConfig::new().on(pool).grain(1);
            let disciplines = [Variant::BranchBased, Variant::BranchAvoiding];
            for variant in disciplines {
                let sweeps = run_components(g, variant, &cfg).0.sweeps;
                for k in 1..=sweeps {
                    let cancel = CancelToken::new().with_phase_budget(k);
                    let cut = RunConfig::new().on(pool).grain(1).cancel(&cancel);
                    let partial = run_components(g, variant, &cut).0.labels;
                    for (v, (&label, &floor)) in partial.as_slice().iter().zip(expected).enumerate()
                    {
                        assert!(
                            floor <= label && label <= v as u32,
                            "{variant:?} cut at {k}: label[{v}] = {label}, fixpoint {floor}"
                        );
                    }
                    for resume in disciplines {
                        let resumed = run_components_resumed(g, resume, &partial, &cfg).0;
                        assert_eq!(
                            resumed.labels.as_slice(),
                            expected,
                            "{variant:?} cut at {k}, resumed {resume:?}"
                        );
                    }
                }
            }
        }
        let pool = WorkerPool::new(8);
        for g in [
            relabel_random(&grid_2d(20, 20, MeshStencil::Moore), 7),
            zigzag_path(),
        ] {
            let expected = sv_branch_based(&g);
            let compressed = CompressedCsrGraph::from_csr(&g);
            for _ in 0..20 {
                check_every_cut(&g, expected.as_slice(), &pool);
                check_every_cut(&compressed, expected.as_slice(), &pool);
            }
        }
    }

    #[test]
    fn branch_contrast_survives_parallelism() {
        // Per sweep, the branch-based kernel executes one data-dependent
        // branch per edge and stores once per update; the branch-avoiding
        // kernel replaces the branch with one conditional move per edge and
        // stores once per vertex. Both test each loop bound once per trip
        // and once more on exit: n + chunks `for v` tests and m + n `for u`
        // tests. Thread count moves no count but the chunks' exit tests.
        let g = erdos_renyi_gnp(1_500, 0.004, 21);
        let (n, m) = (g.num_vertices() as u64, g.num_edge_slots() as u64);
        // Grain 1: one chunk per thread.
        let (threads, chunks) = (4, 4);
        let cfg = RunConfig::new()
            .threads(threads)
            .grain(1)
            .instrumented(true);
        let based = run_components(&g, Variant::BranchBased, &cfg).0;
        let avoiding = run_components(&g, Variant::BranchAvoiding, &cfg).0;
        for step in &based.counters.steps {
            assert_eq!(step.counters.branches, 2 * n + 2 * m + chunks);
            assert_eq!(step.counters.stores, step.updates);
            assert_eq!(step.counters.conditional_moves, 0);
        }
        for step in &avoiding.counters.steps {
            assert_eq!(step.counters.branches, 2 * n + m + chunks);
            assert_eq!(step.counters.stores, n);
            assert_eq!(step.counters.conditional_moves, m);
            assert_eq!(step.counters.branch_mispredictions, 0);
        }
        assert!(based.counters.total().branch_mispredictions > 0);
    }
}
