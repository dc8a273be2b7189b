//! Robustness integration suite, end-to-end through the public API:
//! cancellation tokens stop every engine loop at a phase boundary with
//! valid partial state, deadlines and phase budgets are respected,
//! interrupted monotone kernels (SV, weighted SSSP) resume to the exact
//! fixpoint an uninterrupted run reaches, and injected worker faults
//! (panics, deaths) never wedge the pool — it degrades to sequential
//! execution and still computes correct answers.
//!
//! The fault-injection seam compiles out of release builds
//! ([`FAULT_INJECTION`] is `cfg!(debug_assertions)`), so the injected
//! fault tests are `#[cfg(debug_assertions)]` like the pool's own.

use branch_avoiding_graphs::graph::generators::{erdos_renyi_gnm, grid_2d, MeshStencil};
use branch_avoiding_graphs::graph::properties::{
    bfs_distances_reference, connected_components_union_find,
};
use branch_avoiding_graphs::graph::transform::relabel_random;
use branch_avoiding_graphs::graph::weighted::uniform_weights;
use branch_avoiding_graphs::graph::CsrGraph;
use branch_avoiding_graphs::kernels::bc::betweenness_centrality_sources;
use branch_avoiding_graphs::kernels::kcore::kcore_peeling;
use branch_avoiding_graphs::kernels::sssp::sssp_delta_stepping;
use branch_avoiding_graphs::parallel::request::{
    run_betweenness, run_bfs, run_components, run_components_resumed, run_kcore, run_sssp_unit,
    run_sssp_weighted, run_sssp_weighted_resumed,
};
use branch_avoiding_graphs::parallel::{
    BfsStrategy, CancelToken, InterruptReason, RunConfig, RunOutcome, Variant,
};
use std::time::{Duration, Instant};

const THREADS: usize = 2;
const UNREACHED: u32 = u32::MAX;

/// The two-worker cancellable configuration every run here uses.
fn cancel_config(token: &CancelToken) -> RunConfig<'_> {
    RunConfig::new().threads(THREADS).cancel(token)
}

/// A multi-sweep, multi-level workload: a relabelled 2-D grid has a large
/// diameter (so BFS has many levels and SV needs several sweeps) without
/// being slow to traverse.
fn deep_graph() -> CsrGraph {
    relabel_random(&grid_2d(32, 32, MeshStencil::VonNeumann), 0xBAD5EED)
}

/// A denser generator graph for the fault-injection runs: enough edge
/// weight that every sweep fans out to the pool instead of running inline
/// (inline dispatches are not batches, so faults would never fire).
fn fanout_graph() -> CsrGraph {
    erdos_renyi_gnm(2_000, 8_000, 7)
}

#[test]
fn pre_cancelled_tokens_stop_every_loop_before_the_first_phase() {
    let graph = deep_graph();
    let weighted = uniform_weights(&graph, 16, 11);
    let token = CancelToken::new();
    token.cancel();
    let interrupted_at_zero = |outcome: RunOutcome| {
        assert_eq!(
            outcome,
            RunOutcome::Interrupted {
                reason: InterruptReason::Cancelled,
                phases_done: 0,
            }
        );
    };
    // Sweep loop (SV), level loop (BFS, unit SSSP), bucket loop (weighted
    // SSSP) and the concurrent peel (k-core) all share the boundary check.
    let config = cancel_config(&token);
    let avoiding = Variant::BranchAvoiding;
    interrupted_at_zero(run_components(&graph, avoiding, &config).1);
    interrupted_at_zero(run_bfs(&graph, 0, BfsStrategy::Plain(avoiding), &config).1);
    interrupted_at_zero(run_sssp_unit(&graph, 0, avoiding, &config).1);
    interrupted_at_zero(run_sssp_weighted(&weighted, 0, 4, avoiding, &config).1);
    interrupted_at_zero(run_kcore(&graph, avoiding, &config).1);
}

#[test]
fn deadline_bounded_runs_stop_promptly_with_the_deadline_reason() {
    let graph = fanout_graph();
    // An already-expired deadline trips the very first boundary check.
    let token = CancelToken::new().with_deadline_in(Duration::ZERO);
    let started = Instant::now();
    let (_, outcome) = run_components(&graph, Variant::BranchAvoiding, &cancel_config(&token));
    assert_eq!(outcome.reason(), Some(InterruptReason::DeadlineExpired));
    // "Promptly" with a wide margin: the run must not finish the whole
    // kernel first (which would report Completed), nor hang.
    assert!(started.elapsed() < Duration::from_secs(5));
    assert!(!token.is_cancelled(), "a deadline is not a cancel flag");
}

#[test]
fn phase_budgets_interrupt_exactly_at_the_budget() {
    let graph = deep_graph();
    let token = CancelToken::new().with_phase_budget(1);
    let (run, outcome) = run_components(&graph, Variant::BranchAvoiding, &cancel_config(&token));
    assert_eq!(
        outcome,
        RunOutcome::Interrupted {
            reason: InterruptReason::PhaseBudgetExhausted,
            phases_done: 1,
        },
        "the deep grid needs more than one sweep, so budget 1 must interrupt"
    );
    // Partial SV labels are monotone upper bounds: hooking only ever
    // lowers a label below the identity initialisation.
    for (v, &label) in run.labels.as_slice().iter().enumerate() {
        assert!(label as usize <= v, "label {label} above identity at {v}");
    }
}

#[test]
fn interrupted_bfs_is_an_exact_level_prefix() {
    let graph = deep_graph();
    let reference = bfs_distances_reference(&graph, 0);
    let token = CancelToken::new().with_phase_budget(2);
    let (run, outcome) = run_bfs(
        &graph,
        0,
        BfsStrategy::Plain(Variant::BranchAvoiding),
        &cancel_config(&token),
    );
    assert!(!outcome.is_completed());
    // Level-synchronous BFS settles whole levels: every distance written
    // before the cut is final, not just a bound.
    let mut discovered = 0usize;
    for (v, &d) in run.result.distances().iter().enumerate() {
        if d != UNREACHED {
            assert_eq!(d, reference[v], "settled distance differs at {v}");
            discovered += 1;
        }
    }
    assert!(discovered >= 1, "the root itself is always settled");
    let full_reach = reference.iter().filter(|&&d| d != UNREACHED).count();
    assert!(
        discovered < full_reach,
        "an interrupted traversal of a deep grid must be a strict prefix"
    );
}

#[test]
fn interrupted_kcore_reports_final_core_numbers_for_the_peeled_prefix() {
    let graph = relabel_random(&fanout_graph(), 3);
    let reference = kcore_peeling(&graph);
    let token = CancelToken::new().with_phase_budget(2);
    let (run, outcome) = run_kcore(&graph, Variant::BranchAvoiding, &cancel_config(&token));
    assert!(!outcome.is_completed());
    for (v, &core) in run.cores.as_slice().iter().enumerate() {
        if core != UNREACHED {
            assert_eq!(core, reference.core(v as u32), "peeled core differs at {v}");
        }
    }
}

#[test]
fn interrupted_bc_is_exact_over_the_completed_source_prefix() {
    let graph = fanout_graph();
    let sources: Vec<u32> = (0..16).collect();
    let token = CancelToken::new().with_phase_budget(3);
    let (run, outcome) = run_betweenness(
        &graph,
        Variant::BranchAvoiding,
        Some(&sources),
        &cancel_config(&token),
    );
    let (scores, done) = (run.scores, run.sources_done);
    assert!(!outcome.is_completed());
    assert!(done < sources.len(), "budget 3 cannot finish 16 sources");
    let expected = betweenness_centrality_sources(&graph, &sources[..done]);
    for (v, (&got, &want)) in scores.iter().zip(&expected).enumerate() {
        let tolerance = 1e-9 * want.abs().max(1.0);
        assert!(
            (got - want).abs() <= tolerance,
            "prefix score differs at {v}: {got} vs {want}"
        );
    }
}

#[test]
fn resumed_sv_converges_bit_identical_to_an_uninterrupted_run() {
    let graph = deep_graph();
    let expected = run_components(
        &graph,
        Variant::BranchAvoiding,
        &RunConfig::new().threads(THREADS),
    )
    .0
    .labels;
    assert_eq!(
        expected.canonical(),
        connected_components_union_find(&graph),
        "reference run disagrees with union-find — broken precondition"
    );
    for budget in [1, 2] {
        let token = CancelToken::new().with_phase_budget(budget);
        let (partial, outcome) =
            run_components(&graph, Variant::BranchAvoiding, &cancel_config(&token));
        assert!(!outcome.is_completed(), "budget {budget} should interrupt");
        let resume_config = RunConfig::new().threads(THREADS);
        let avoiding = run_components_resumed(
            &graph,
            Variant::BranchAvoiding,
            &partial.labels,
            &resume_config,
        )
        .0;
        assert_eq!(avoiding.labels.as_slice(), expected.as_slice());
        // The branch-based hooks converge to the same fixpoint from the
        // same partial labels: resume is variant-agnostic.
        let based = run_components_resumed(
            &graph,
            Variant::BranchBased,
            &partial.labels,
            &resume_config,
        )
        .0;
        assert_eq!(based.labels.as_slice(), expected.as_slice());
    }
}

#[test]
fn wsssp_resumed_converges_bit_identical_to_an_uninterrupted_run() {
    let graph = deep_graph();
    let weighted = uniform_weights(&graph, 16, 11);
    let delta = 4;
    let expected = run_sssp_weighted(
        &weighted,
        0,
        delta,
        Variant::BranchAvoiding,
        &RunConfig::new().threads(THREADS),
    )
    .0
    .result;
    assert_eq!(
        expected.distances(),
        sssp_delta_stepping(&weighted, 0, delta).distances(),
        "reference run disagrees with sequential delta-stepping"
    );
    for budget in [1, 3] {
        let token = CancelToken::new().with_phase_budget(budget);
        let (partial, outcome) = run_sssp_weighted(
            &weighted,
            0,
            delta,
            Variant::BranchAvoiding,
            &cancel_config(&token),
        );
        assert!(!outcome.is_completed(), "budget {budget} should interrupt");
        // Partial distances are monotone upper bounds on the true ones.
        for (v, (&bound, &exact)) in partial
            .result
            .distances()
            .iter()
            .zip(expected.distances())
            .enumerate()
        {
            assert!(bound >= exact, "partial distance below optimum at {v}");
        }
        let resumed = run_sssp_weighted_resumed(
            &weighted,
            0,
            delta,
            Variant::BranchAvoiding,
            partial.result.distances(),
            &RunConfig::new().threads(THREADS),
        )
        .0;
        assert_eq!(resumed.result.distances(), expected.distances());
    }
}

#[cfg(debug_assertions)] // the fault seam compiles out of release builds
mod injected_faults {
    use super::*;
    use branch_avoiding_graphs::parallel::{FaultPlan, PoolError, WorkerPool};

    /// The acceptance bar end-to-end: 100 consecutive kernel runs, each
    /// hitting an injected panic in its first fanned-out batch, and the
    /// pool neither deadlocks nor aborts — every panic propagates to the
    /// submitter, the 101st run completes and its labels are correct.
    #[test]
    fn a_hundred_injected_panics_never_wedge_the_kernel_pool() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let graph = fanout_graph();
        let expected = connected_components_union_find(&graph);
        let pool = WorkerPool::with_faults(4, FaultPlan::new().panic_in_batches(0..100));
        let on_pool = RunConfig::new().on(&pool).grain(1);
        for attempt in 0..100 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_components(&graph, Variant::BranchBased, &on_pool)
            }));
            assert!(outcome.is_err(), "attempt {attempt} should have panicked");
        }
        // Batches 100+ are past the plan: the same pool still converges.
        let labels = run_components(&graph, Variant::BranchBased, &on_pool)
            .0
            .labels;
        assert_eq!(labels.canonical(), expected);
        assert_eq!(pool.lost_workers(), 0, "task panics are not worker deaths");
        assert_eq!(pool.shutdown(), Ok(()));
    }

    /// Kill the only parked worker; the pool degrades to inline execution
    /// on the submitting thread and the kernel still computes the right
    /// answer. Shutdown reports the loss instead of panicking.
    #[test]
    fn dead_workers_degrade_kernel_runs_to_sequential_execution() {
        let graph = fanout_graph();
        let expected = connected_components_union_find(&graph);
        let pool = WorkerPool::with_faults(2, FaultPlan::new().kill_worker(0, 1));
        let on_pool = RunConfig::new().on(&pool).grain(1);
        let mut spins = 0;
        while pool.lost_workers() < 1 {
            let labels = run_components(&graph, Variant::BranchBased, &on_pool)
                .0
                .labels;
            assert_eq!(labels.canonical(), expected, "degrading run went wrong");
            spins += 1;
            assert!(spins < 10_000, "the worker never picked up a batch");
            std::thread::yield_now();
        }
        assert_eq!(pool.live_workers(), 0);
        let labels = run_components(&graph, Variant::BranchBased, &on_pool)
            .0
            .labels;
        assert_eq!(labels.canonical(), expected, "inline fallback went wrong");
        assert_eq!(pool.shutdown(), Err(PoolError { lost_workers: 1 }));
    }
}

/// The `BGA_FAULT` grammar is part of the public robustness surface: the
/// CI smoke step and operators both write these specs by hand, so the
/// parser's acceptance/rejection behaviour is pinned here (without
/// touching the process environment — that would race other tests).
#[test]
fn fault_spec_grammar_accepts_the_documented_forms_only() {
    use branch_avoiding_graphs::parallel::{parse_fault_spec, FaultPlan};
    let plan = parse_fault_spec("phase:3:panic,phase:2:delay-ms:50,io:short-read").unwrap();
    assert_eq!(
        plan,
        FaultPlan::new()
            .panic_in_batch(3)
            .delay_batch(2, 50)
            .io_short_read()
    );
    assert!(parse_fault_spec("").unwrap().is_empty());
    for bad in ["phase:1:explode", "io:long-read", "panic", "phase:x:panic"] {
        assert!(parse_fault_spec(bad).is_err(), "{bad:?} should not parse");
    }
}
