//! Branch-based Shiloach-Vishkin connected components (paper Algorithm 2).
//!
//! The plain timed kernel: the data-dependent comparison `cu < cv` sits
//! inside an `if`, so the compiler emits a conditional branch whose
//! predictability varies across iterations exactly as Section 4.1 analyses.
//! The sweep itself is [`super::sv`]'s, run on the uncounted machine.

use super::labels::ComponentLabels;
use super::sv;
use bga_graph::CsrGraph;

/// Runs branch-based Shiloach-Vishkin label propagation to a fixed point and
/// returns the component labels.
pub fn sv_branch_based(graph: &CsrGraph) -> ComponentLabels {
    sv_branch_based_with_stats(graph).0
}

/// As [`sv_branch_based`], additionally returning the number of label-update
/// sweeps (iterations of the outer `while`) that were executed, which for a
/// connected graph is bounded by the graph diameter plus one.
pub fn sv_branch_based_with_stats(graph: &CsrGraph) -> (ComponentLabels, usize) {
    sv::plain(graph, false, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{cycle_graph, path_graph, star_graph};
    use bga_graph::properties::connected_components_union_find;
    use bga_graph::GraphBuilder;

    #[test]
    fn single_vertex_and_empty_graph() {
        let empty = GraphBuilder::undirected(0).build();
        assert_eq!(sv_branch_based(&empty).len(), 0);
        let single = GraphBuilder::undirected(1).build();
        let labels = sv_branch_based(&single);
        assert_eq!(labels.as_slice(), &[0]);
    }

    #[test]
    fn labels_converge_to_component_minimum() {
        let g = GraphBuilder::undirected(7)
            .add_edges([(1, 2), (2, 3), (4, 6)])
            .build();
        let labels = sv_branch_based(&g);
        assert_eq!(labels.as_slice(), &[0, 1, 1, 1, 4, 5, 4]);
        assert_eq!(labels.component_count(), 4);
    }

    #[test]
    fn matches_union_find_on_classic_shapes() {
        for g in [path_graph(50), cycle_graph(33), star_graph(20)] {
            assert_eq!(
                sv_branch_based(&g).canonical(),
                connected_components_union_find(&g)
            );
        }
    }

    #[test]
    fn iteration_count_tracks_propagation_distance() {
        // On a path, the label of vertex 0 must travel to the far end one
        // hop per iteration: expect roughly diameter iterations.
        let g = path_graph(64);
        let (labels, iterations) = sv_branch_based_with_stats(&g);
        assert_eq!(labels.component_count(), 1);
        assert!(iterations >= 2, "needs multiple sweeps, got {iterations}");
        // Convergence plus the final no-change sweep can't exceed |V| + 1.
        assert!(iterations <= 65);
        // A star converges almost immediately.
        let (_, star_iters) = sv_branch_based_with_stats(&star_graph(64));
        assert!(star_iters <= 3);
    }

    #[test]
    fn terminates_when_labels_are_already_equal() {
        // Regression test for the `<=` vs `<` issue: a triangle where all
        // labels collapse to 0 in the first sweep must stop afterwards.
        let g = GraphBuilder::undirected(3)
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .build();
        let (labels, iterations) = sv_branch_based_with_stats(&g);
        assert_eq!(labels.as_slice(), &[0, 0, 0]);
        assert!(iterations <= 3);
    }
}
