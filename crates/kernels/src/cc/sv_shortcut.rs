//! Shiloach-Vishkin with the pointer-jumping shortcut.
//!
//! The paper notes (Section 4) that "there is a shortcut that can reduce the
//! number of iterations to d/2" but does not evaluate it. This module
//! implements that variant as an extension: after every label-propagation
//! sweep, a pointer-jumping pass replaces every label by its label's label
//! (`CCid[v] <- CCid[CCid[v]]`), so information travels two hops per
//! iteration instead of one. Both disciplines are provided so the
//! branch-behaviour comparison can be repeated on the shortcut algorithm:
//! the branch-avoiding jump pass stores the jumped label unconditionally
//! (it can never be larger than the current one, since labels only
//! decrease).

use super::labels::ComponentLabels;
use super::sv;
use bga_graph::CsrGraph;

/// Branch-based SV with pointer jumping. Returns labels and sweep count.
pub fn sv_shortcut_branch_based(graph: &CsrGraph) -> (ComponentLabels, usize) {
    sv::plain(graph, false, true)
}

/// Branch-avoiding SV with pointer jumping.
pub fn sv_shortcut_branch_avoiding(graph: &CsrGraph) -> (ComponentLabels, usize) {
    sv::plain(graph, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::sv_branch::sv_branch_based_with_stats;
    use bga_graph::generators::{barabasi_albert, erdos_renyi_gnm, path_graph};
    use bga_graph::properties::connected_components_union_find;
    use bga_graph::transform::relabel_random;

    #[test]
    fn both_shortcut_variants_match_the_reference() {
        let graphs = vec![
            relabel_random(&path_graph(150), 2),
            barabasi_albert(400, 2, 3),
            erdos_renyi_gnm(300, 200, 4),
        ];
        for g in &graphs {
            let expected = connected_components_union_find(g);
            assert_eq!(sv_shortcut_branch_based(g).0.canonical(), expected);
            assert_eq!(sv_shortcut_branch_avoiding(g).0.canonical(), expected);
        }
    }

    #[test]
    fn shortcut_variants_agree_on_sweep_counts() {
        let g = relabel_random(&path_graph(300), 9);
        let (_, a) = sv_shortcut_branch_based(&g);
        let (_, b) = sv_shortcut_branch_avoiding(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn shortcut_reduces_the_number_of_sweeps() {
        // On a long, randomly-relabelled path the plain SV needs many more
        // sweeps than the pointer-jumping variant.
        let g = relabel_random(&path_graph(600), 5);
        let (_, plain) = sv_branch_based_with_stats(&g);
        let (_, shortcut) = sv_shortcut_branch_based(&g);
        assert!(
            shortcut < plain && shortcut * 4 <= plain * 3 + 4,
            "pointer jumping should cut the sweep count: plain={plain}, shortcut={shortcut}"
        );
    }

    #[test]
    fn degenerate_graphs() {
        let empty = bga_graph::GraphBuilder::undirected(0).build();
        assert_eq!(sv_shortcut_branch_based(&empty).0.len(), 0);
        let isolated = bga_graph::GraphBuilder::undirected(3).build();
        assert_eq!(
            sv_shortcut_branch_avoiding(&isolated).0.as_slice(),
            &[0, 1, 2]
        );
    }
}
