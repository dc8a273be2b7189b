//! Connected-components kernels.
//!
//! The paper's first case study (Section 4): the Shiloach-Vishkin
//! label-propagation algorithm in a branch-based form (paper Alg. 2) and a
//! branch-avoiding form (paper Alg. 3), plus baselines and a hybrid.
//!
//! * [`sv`] — the one label-propagation sweep, written once against
//!   [`bga_branchsim::Machine`] and generic over the discipline and the
//!   graph, plus the fixed-point loop around it. Every entry point below
//!   runs it, and so does every chunk of parallel SV in `bga-parallel`.
//! * [`sv_branch`] / [`sv_branchless`] — the plain timed kernels (the
//!   sweep on the zero-cost [`bga_branchsim::Uncounted`] machine).
//! * [`instrumented`] — the same sweep on [`bga_branchsim::ExecMachine`],
//!   producing exact per-iteration counter series (Figures 3-5, 9a, 10a).
//! * [`sv_hybrid()`] — the crossover hybrid the paper suggests in Section
//!   6.2: the discipline is chosen before each sweep.
//! * [`sv_shortcut`] — the pointer-jumping extension: the sweep plus a jump
//!   pass.
//! * [`baseline`] — union-find and BFS-based reference implementations used
//!   to cross-validate every SV variant.

pub mod baseline;
pub mod instrumented;
pub mod labels;
pub mod sv;
pub mod sv_branch;
pub mod sv_branchless;
pub mod sv_hybrid;
pub mod sv_shortcut;

pub use instrumented::{sv_branch_avoiding_instrumented, sv_branch_based_instrumented, SvRun};
pub use labels::ComponentLabels;
pub use sv_branch::sv_branch_based;
pub use sv_branchless::sv_branch_avoiding;
pub use sv_hybrid::{sv_hybrid, HybridConfig};
pub use sv_shortcut::{sv_shortcut_branch_avoiding, sv_shortcut_branch_based};

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{barabasi_albert, erdos_renyi_gnp, grid_2d, MeshStencil};
    use bga_graph::properties::connected_components_union_find;
    use bga_graph::GraphBuilder;

    /// Every CC variant must agree with the union-find reference on a mix of
    /// graph shapes, including disconnected ones.
    #[test]
    fn all_variants_agree_with_reference() {
        let graphs = vec![
            GraphBuilder::undirected(1).build(),
            GraphBuilder::undirected(6)
                .add_edges([(0, 1), (1, 2), (3, 4)])
                .build(),
            grid_2d(9, 7, MeshStencil::VonNeumann),
            erdos_renyi_gnp(300, 0.01, 5),
            barabasi_albert(400, 2, 9),
        ];
        for g in &graphs {
            let expected = connected_components_union_find(g);
            assert_eq!(sv_branch_based(g).canonical(), expected, "branch-based");
            assert_eq!(
                sv_branch_avoiding(g).canonical(),
                expected,
                "branch-avoiding"
            );
            assert_eq!(
                sv_hybrid(g, HybridConfig::default()).canonical(),
                expected,
                "hybrid"
            );
            assert_eq!(
                sv_branch_based_instrumented(g).labels.canonical(),
                expected,
                "instrumented branch-based"
            );
            assert_eq!(
                sv_branch_avoiding_instrumented(g).labels.canonical(),
                expected,
                "instrumented branch-avoiding"
            );
            assert_eq!(baseline::cc_union_find(g).canonical(), expected);
            assert_eq!(baseline::cc_bfs(g).canonical(), expected);
        }
    }
}
