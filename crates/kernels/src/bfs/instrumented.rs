//! Instrumented top-down BFS kernels.
//!
//! Measurement versions of Algorithms 4 and 5: [`super::topdown`]'s
//! expansion run on an [`ExecMachine`], with counters snapshotted at every
//! level boundary. The per-level series regenerate Figures 6, 7, 8, 9(b)
//! and the BFS half of Figure 10. The branch sites are listed in
//! [`super::topdown`].

use super::frontier::BfsResult;
use super::topdown::topdown;
use crate::stats::{RunCounters, StepCounters};
use bga_branchsim::machine::ExecMachine;
use bga_branchsim::predictor::{PredictorModel, TwoBitPredictor};
use bga_graph::{CsrGraph, VertexId};

pub use super::topdown::{BFS_FOR, BFS_IF, BFS_WHILE};

/// Result of an instrumented BFS run.
#[derive(Clone, Debug)]
pub struct BfsRun {
    /// Distances and visit order (identical across variants).
    pub result: BfsResult,
    /// Per-level counters.
    pub counters: RunCounters,
}

impl BfsRun {
    /// Number of BFS levels that processed at least one vertex.
    pub fn levels(&self) -> usize {
        self.counters.num_steps()
    }
}

/// Instrumented branch-based top-down BFS (paper Algorithm 4) under the
/// default 2-bit predictor.
pub fn bfs_branch_based_instrumented(graph: &CsrGraph, root: VertexId) -> BfsRun {
    bfs_branch_based_instrumented_with(graph, root, TwoBitPredictor::new())
}

/// Instrumented branch-based BFS under an arbitrary predictor model.
pub fn bfs_branch_based_instrumented_with<P: PredictorModel>(
    graph: &CsrGraph,
    root: VertexId,
    predictor: P,
) -> BfsRun {
    let mut machine = ExecMachine::with_predictor(predictor);
    counted(topdown::<_, false>(graph, root, &mut machine))
}

/// Instrumented branch-avoiding top-down BFS (paper Algorithm 5) under the
/// default 2-bit predictor.
pub fn bfs_branch_avoiding_instrumented(graph: &CsrGraph, root: VertexId) -> BfsRun {
    bfs_branch_avoiding_instrumented_with(graph, root, TwoBitPredictor::new())
}

/// Instrumented branch-avoiding BFS under an arbitrary predictor model.
pub fn bfs_branch_avoiding_instrumented_with<P: PredictorModel>(
    graph: &CsrGraph,
    root: VertexId,
    predictor: P,
) -> BfsRun {
    let mut machine = ExecMachine::with_predictor(predictor);
    counted(topdown::<_, true>(graph, root, &mut machine))
}

fn counted((result, steps): (BfsResult, Vec<StepCounters>)) -> BfsRun {
    BfsRun {
        result,
        counters: RunCounters { steps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::topdown_branch::bfs_branch_based;
    use bga_graph::generators::{barabasi_albert, grid_2d, path_graph, star_graph, MeshStencil};
    use bga_graph::properties::bfs_distances_reference;

    fn test_graphs() -> Vec<bga_graph::CsrGraph> {
        vec![
            path_graph(40),
            star_graph(30),
            grid_2d(12, 9, MeshStencil::VonNeumann),
            barabasi_albert(300, 3, 6),
        ]
    }

    #[test]
    fn instrumented_kernels_match_reference_distances() {
        for g in test_graphs() {
            let expected = bfs_distances_reference(&g, 0);
            assert_eq!(
                bfs_branch_based_instrumented(&g, 0).result.distances(),
                &expected[..]
            );
            assert_eq!(
                bfs_branch_avoiding_instrumented(&g, 0).result.distances(),
                &expected[..]
            );
        }
    }

    #[test]
    fn instrumented_matches_plain_visit_order() {
        for g in test_graphs() {
            assert_eq!(
                bfs_branch_based_instrumented(&g, 0).result.visit_order(),
                bfs_branch_based(&g, 0).visit_order()
            );
        }
    }

    #[test]
    fn level_counts_match_distance_histogram() {
        for g in test_graphs() {
            let run = bfs_branch_based_instrumented(&g, 0);
            let sizes = run.result.level_sizes();
            assert_eq!(run.levels(), sizes.len());
            for (level, step) in run.counters.steps.iter().enumerate() {
                assert_eq!(
                    step.vertices_processed as usize, sizes[level],
                    "level {level} processed the wrong number of vertices"
                );
            }
        }
    }

    #[test]
    fn branch_based_has_roughly_twice_the_branches() {
        // Figure 7: ~2x more branches in the branch-based kernel (the extra
        // per-edge if).
        for g in test_graphs() {
            let based = bfs_branch_based_instrumented(&g, 0).counters.total();
            let avoiding = bfs_branch_avoiding_instrumented(&g, 0).counters.total();
            let ratio = based.branches as f64 / avoiding.branches as f64;
            assert!(
                (1.4..=2.5).contains(&ratio),
                "branch ratio {ratio} outside expected band"
            );
        }
    }

    #[test]
    fn branch_avoiding_stores_blow_up_with_edges() {
        // Section 5.2 / Section 7: the branch-avoiding variant performs
        // O(|E|) stores versus O(|V|) for the branch-based variant.
        for g in test_graphs() {
            let based = bfs_branch_based_instrumented(&g, 0).counters.total();
            let avoiding = bfs_branch_avoiding_instrumented(&g, 0).counters.total();
            assert!(
                avoiding.stores > based.stores,
                "branch-avoiding must store more: {} vs {}",
                avoiding.stores,
                based.stores
            );
            // Two stores per traversed edge (queue slot + distance
            // write-back); the root initialisation happens before the first
            // level snapshot so it is not part of any per-level delta.
            let edges = bfs_branch_avoiding_instrumented(&g, 0)
                .counters
                .total_edges_traversed();
            assert_eq!(avoiding.stores, 2 * edges);
        }
    }

    #[test]
    fn branch_avoiding_mispredictions_do_not_exceed_branch_based() {
        for g in test_graphs() {
            let based = bfs_branch_based_instrumented(&g, 0).counters.total();
            let avoiding = bfs_branch_avoiding_instrumented(&g, 0).counters.total();
            assert!(avoiding.branch_mispredictions <= based.branch_mispredictions);
        }
    }

    #[test]
    fn per_level_updates_sum_to_reached_vertices_minus_root() {
        for g in test_graphs() {
            let run = bfs_branch_based_instrumented(&g, 0);
            let discovered: u64 = run.counters.steps.iter().map(|s| s.updates).sum();
            assert_eq!(discovered as usize, run.result.reached_count() - 1);
        }
    }

    #[test]
    fn out_of_range_root_produces_empty_run() {
        let g = path_graph(5);
        let run = bfs_branch_based_instrumented(&g, 99);
        assert_eq!(run.result.reached_count(), 0);
        assert_eq!(run.levels(), 0);
        let run = bfs_branch_avoiding_instrumented(&g, 99);
        assert_eq!(run.result.reached_count(), 0);
    }
}
