//! Instrumented Shiloach-Vishkin kernels.
//!
//! The measurement versions of Algorithms 2 and 3: [`super::sv`]'s sweep
//! run on an [`ExecMachine`], so every memory access, conditional branch
//! and conditional move is counted at exactly the point where the paper's
//! assembly issues the corresponding instruction, and counters are
//! snapshotted at each sweep boundary. The resulting per-iteration series
//! regenerate Figures 3, 4, 5, 9(a) and the SV half of Figure 10. The
//! branch sites are listed in [`super::sv`].

use super::labels::ComponentLabels;
use super::sv;
use crate::stats::{RunCounters, StepCounters};
use bga_branchsim::machine::ExecMachine;
use bga_branchsim::predictor::{PredictorModel, TwoBitPredictor};
use bga_graph::CsrGraph;

pub use super::sv::{SV_IF, SV_INNER_FOR, SV_OUTER_FOR, SV_WHILE};

/// Result of an instrumented SV run.
#[derive(Clone, Debug)]
pub struct SvRun {
    /// Final component labels (identical across variants).
    pub labels: ComponentLabels,
    /// Per-sweep counters, workload sizes and label-update counts.
    pub counters: RunCounters,
}

impl SvRun {
    /// Number of sweeps the algorithm executed.
    pub fn iterations(&self) -> usize {
        self.counters.num_steps()
    }
}

/// Instrumented branch-based Shiloach-Vishkin (paper Algorithm 2) under the
/// default 2-bit predictor.
pub fn sv_branch_based_instrumented(graph: &CsrGraph) -> SvRun {
    sv_branch_based_instrumented_with(graph, TwoBitPredictor::new())
}

/// Instrumented branch-based SV under an arbitrary predictor model (used by
/// the predictor ablation).
pub fn sv_branch_based_instrumented_with<P: PredictorModel>(
    graph: &CsrGraph,
    predictor: P,
) -> SvRun {
    let mut machine = ExecMachine::with_predictor(predictor);
    counted(sv::run(graph, &mut machine, |_, _| false, false))
}

/// Instrumented branch-avoiding Shiloach-Vishkin (paper Algorithm 3) under
/// the default 2-bit predictor.
pub fn sv_branch_avoiding_instrumented(graph: &CsrGraph) -> SvRun {
    sv_branch_avoiding_instrumented_with(graph, TwoBitPredictor::new())
}

/// Instrumented branch-avoiding SV under an arbitrary predictor model.
pub fn sv_branch_avoiding_instrumented_with<P: PredictorModel>(
    graph: &CsrGraph,
    predictor: P,
) -> SvRun {
    let mut machine = ExecMachine::with_predictor(predictor);
    counted(sv::run(graph, &mut machine, |_, _| true, false))
}

fn counted((labels, _, steps): (ComponentLabels, usize, Vec<StepCounters>)) -> SvRun {
    SvRun {
        labels,
        counters: RunCounters { steps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::sv_branch::sv_branch_based;
    use bga_graph::generators::{barabasi_albert, grid_2d, path_graph, MeshStencil};
    use bga_graph::properties::connected_components_union_find;

    fn test_graphs() -> Vec<bga_graph::CsrGraph> {
        vec![
            path_graph(50),
            grid_2d(10, 10, MeshStencil::VonNeumann),
            barabasi_albert(300, 2, 21),
        ]
    }

    #[test]
    fn instrumented_kernels_match_reference_labels() {
        for g in test_graphs() {
            let expected = connected_components_union_find(&g);
            assert_eq!(
                sv_branch_based_instrumented(&g).labels.canonical(),
                expected
            );
            assert_eq!(
                sv_branch_avoiding_instrumented(&g).labels.canonical(),
                expected
            );
        }
    }

    #[test]
    fn instrumented_and_plain_kernels_agree_exactly() {
        for g in test_graphs() {
            assert_eq!(
                sv_branch_based_instrumented(&g).labels.as_slice(),
                sv_branch_based(&g).as_slice()
            );
        }
    }

    #[test]
    fn both_variants_run_the_same_number_of_sweeps() {
        for g in test_graphs() {
            let a = sv_branch_based_instrumented(&g);
            let b = sv_branch_avoiding_instrumented(&g);
            assert_eq!(a.iterations(), b.iterations());
        }
    }

    #[test]
    fn branch_based_executes_roughly_twice_the_branches() {
        // Figure 4: the branch-based kernel has ~2x the branches of the
        // branch-avoiding kernel (the extra data-dependent if per edge).
        // The ratio is (2|E'| + 2|V|) / (|E'| + 2|V|) per sweep, so it sits
        // below 2 for very sparse graphs (1.49 for a path) and approaches 2
        // as the average degree grows.
        for g in test_graphs() {
            let based = sv_branch_based_instrumented(&g).counters.total();
            let avoiding = sv_branch_avoiding_instrumented(&g).counters.total();
            let ratio = based.branches as f64 / avoiding.branches as f64;
            assert!(
                (1.4..=2.1).contains(&ratio),
                "branch ratio {ratio} outside the expected band"
            );
        }
    }

    #[test]
    fn branch_avoiding_has_fewer_mispredictions() {
        for g in test_graphs() {
            let based = sv_branch_based_instrumented(&g).counters.total();
            let avoiding = sv_branch_avoiding_instrumented(&g).counters.total();
            assert!(
                avoiding.branch_mispredictions < based.branch_mispredictions,
                "branch-avoiding must mispredict less: {} vs {}",
                avoiding.branch_mispredictions,
                based.branch_mispredictions
            );
        }
    }

    #[test]
    fn branch_avoiding_stores_once_per_vertex_per_sweep() {
        let g = grid_2d(8, 8, MeshStencil::VonNeumann);
        let run = sv_branch_avoiding_instrumented(&g);
        let n = g.num_vertices() as u64;
        for step in &run.counters.steps {
            assert_eq!(step.counters.stores, n, "sweep {}", step.step);
        }
    }

    #[test]
    fn branch_based_stores_only_on_label_updates() {
        let g = grid_2d(8, 8, MeshStencil::VonNeumann);
        let run = sv_branch_based_instrumented(&g);
        for step in &run.counters.steps {
            assert_eq!(step.counters.stores, step.updates, "sweep {}", step.step);
        }
        // The final sweep performs no updates at all.
        assert_eq!(run.counters.steps.last().unwrap().updates, 0);
    }

    #[test]
    fn branch_based_mispredictions_decay_over_iterations() {
        // Figure 5: mispredictions are concentrated in the early sweeps and
        // fall as labels stabilize. Use a randomly relabelled mesh so the
        // propagation needs several sweeps (generator-order ids converge in
        // two), and compare the first sweep against the final no-change
        // sweep, where the data-dependent if is never taken and predicts
        // almost perfectly.
        let g = bga_graph::transform::relabel_random(&grid_2d(20, 20, MeshStencil::Moore), 7);
        let run = sv_branch_based_instrumented(&g);
        let steps = &run.counters.steps;
        assert!(steps.len() >= 3, "need a few sweeps for this check");
        let first = steps[0].counters.branch_mispredictions;
        let last = steps[steps.len() - 1].counters.branch_mispredictions;
        assert!(
            first > 2 * last,
            "early sweeps should mispredict far more: first={first}, last={last}"
        );
    }

    #[test]
    fn per_sweep_edge_counts_cover_every_edge_slot() {
        let g = path_graph(20);
        let run = sv_branch_avoiding_instrumented(&g);
        for step in &run.counters.steps {
            assert_eq!(step.edges_traversed, g.num_edge_slots() as u64);
            assert_eq!(step.vertices_processed, g.num_vertices() as u64);
        }
    }

    #[test]
    fn conditional_moves_appear_only_in_the_avoiding_variant() {
        let g = path_graph(30);
        assert_eq!(
            sv_branch_based_instrumented(&g)
                .counters
                .total()
                .conditional_moves,
            0
        );
        let avoiding = sv_branch_avoiding_instrumented(&g).counters.total();
        assert_eq!(avoiding.conditional_moves, {
            // one cmov per edge traversal per sweep
            let sweeps = sv_branch_avoiding_instrumented(&g).iterations() as u64;
            g.num_edge_slots() as u64 * sweeps
        });
    }
}
