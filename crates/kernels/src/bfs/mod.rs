//! Breadth-first search kernels.
//!
//! The paper's second case study (Section 5): classic top-down BFS in a
//! branch-based form (paper Alg. 4) and a branch-avoiding form (paper
//! Alg. 5), plus the bottom-up and direction-optimizing variants referenced
//! as related work (\[8\] Beamer et al.) as extensions.
//!
//! * [`topdown`] — the one top-down expansion, written once against
//!   [`bga_branchsim::Machine`] and generic over the discipline. Every
//!   top-down entry point below runs it.
//! * [`topdown_branch`] / [`topdown_branchless`] — the plain timed kernels
//!   (the expansion on the zero-cost [`bga_branchsim::Uncounted`] machine).
//! * [`instrumented`] — the same expansion on
//!   [`bga_branchsim::ExecMachine`], producing exact per-level counter
//!   series (Figures 6-8, 9b, 10b).
//! * [`bottom_up`] / [`direction_optimizing`] — extension kernels showing
//!   how the branch-avoiding idea composes with frontier-direction
//!   optimization.

pub mod bottom_up;
pub mod direction_optimizing;
pub mod frontier;
pub mod instrumented;
pub mod topdown;
pub mod topdown_branch;
pub mod topdown_branchless;

pub use frontier::{bitmap_from_frontier, BfsResult, Bitmap};
pub use instrumented::{bfs_branch_avoiding_instrumented, bfs_branch_based_instrumented, BfsRun};
pub use topdown_branch::bfs_branch_based;
pub use topdown_branchless::bfs_branch_avoiding;

/// Distance value for vertices not reached from the BFS root (matches
/// [`bga_graph::properties::UNREACHED`]).
pub const INFINITY: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{barabasi_albert, erdos_renyi_gnp, grid_2d, MeshStencil};
    use bga_graph::properties::bfs_distances_reference;
    use bga_graph::GraphBuilder;

    #[test]
    fn all_variants_agree_with_reference_distances() {
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
            let expected = bfs_distances_reference(g, 0);
            assert_eq!(
                bfs_branch_based(g, 0).distances(),
                &expected[..],
                "branch-based"
            );
            assert_eq!(
                bfs_branch_avoiding(g, 0).distances(),
                &expected[..],
                "branch-avoiding"
            );
            assert_eq!(
                bottom_up::bfs_bottom_up(g, 0).distances(),
                &expected[..],
                "bottom-up"
            );
            assert_eq!(
                direction_optimizing::bfs_direction_optimizing(
                    g,
                    0,
                    direction_optimizing::DirectionConfig::default()
                )
                .distances(),
                &expected[..],
                "direction-optimizing"
            );
            assert_eq!(
                bfs_branch_based_instrumented(g, 0).result.distances(),
                &expected[..],
                "instrumented branch-based"
            );
            assert_eq!(
                bfs_branch_avoiding_instrumented(g, 0).result.distances(),
                &expected[..],
                "instrumented branch-avoiding"
            );
        }
    }
}
