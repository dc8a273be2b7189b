//! Branch-avoiding Shiloach-Vishkin connected components (paper Algorithm 3).
//!
//! The plain timed kernel: the data-dependent `if` of the branch-based
//! version is replaced by a conditional move into a register
//! (`cv <- min(cv, cu)`), one unconditional store of `cv` per vertex per
//! sweep, and a branch-free change count — the same transformation the
//! paper's hand-written assembly performs with `CMOVcc`. The sweep itself
//! is [`super::sv`]'s, run on the uncounted machine.

use super::labels::ComponentLabels;
use super::sv;
use bga_graph::CsrGraph;

/// Runs branch-avoiding Shiloach-Vishkin label propagation to a fixed point.
pub fn sv_branch_avoiding(graph: &CsrGraph) -> ComponentLabels {
    sv_branch_avoiding_with_stats(graph).0
}

/// As [`sv_branch_avoiding`], additionally returning the number of sweeps.
pub fn sv_branch_avoiding_with_stats(graph: &CsrGraph) -> (ComponentLabels, usize) {
    sv::plain(graph, true, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::sv_branch::sv_branch_based_with_stats;
    use bga_graph::generators::{
        barabasi_albert, erdos_renyi_gnp, grid_3d, path_graph, MeshStencil,
    };
    use bga_graph::properties::connected_components_union_find;
    use bga_graph::GraphBuilder;

    #[test]
    fn empty_and_trivial_graphs() {
        assert_eq!(
            sv_branch_avoiding(&GraphBuilder::undirected(0).build()).len(),
            0
        );
        let isolated = GraphBuilder::undirected(4).build();
        assert_eq!(sv_branch_avoiding(&isolated).as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn matches_union_find_reference() {
        let graphs = vec![
            path_graph(40),
            grid_3d(5, 5, 5, MeshStencil::VonNeumann),
            erdos_renyi_gnp(256, 0.012, 3),
            barabasi_albert(256, 2, 4),
        ];
        for g in &graphs {
            assert_eq!(
                sv_branch_avoiding(g).canonical(),
                connected_components_union_find(g)
            );
        }
    }

    #[test]
    fn produces_identical_labels_to_branch_based() {
        // Not just the same partition: both converge to the component
        // minimum, so the raw label vectors must match exactly.
        let g = erdos_renyi_gnp(400, 0.008, 11);
        assert_eq!(
            sv_branch_avoiding(&g).as_slice(),
            super::super::sv_branch::sv_branch_based(&g).as_slice()
        );
    }

    #[test]
    fn sweep_count_matches_branch_based() {
        // Both variants perform identical label updates per sweep, so the
        // number of sweeps to convergence must be identical too.
        for g in [path_graph(30), barabasi_albert(200, 2, 8)] {
            let (_, branchy) = sv_branch_based_with_stats(&g);
            let (_, branchless) = sv_branch_avoiding_with_stats(&g);
            assert_eq!(branchy, branchless);
        }
    }
}
