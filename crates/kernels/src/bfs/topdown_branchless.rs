//! Branch-avoiding top-down BFS (paper Algorithm 5).
//!
//! The plain timed kernel: [`super::topdown`]'s expansion with the per-edge
//! test replaced by unconditional queue and distance stores plus a
//! conditional move and a conditional add, run on the uncounted machine.

use super::frontier::BfsResult;
use super::topdown::plain_topdown;
use bga_graph::{CsrGraph, VertexId};

/// Runs branch-avoiding top-down BFS from `root`.
pub fn bfs_branch_avoiding(graph: &CsrGraph, root: VertexId) -> BfsResult {
    plain_topdown::<true>(graph, root)
}

#[cfg(test)]
mod tests {
    use super::super::topdown_branch::bfs_branch_based;
    use super::*;
    use crate::bfs::INFINITY;
    use bga_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, grid_2d, path_graph, star_graph, MeshStencil,
    };
    use bga_graph::properties::bfs_distances_reference;
    use bga_graph::GraphBuilder;

    #[test]
    fn distances_match_reference() {
        let graphs = vec![
            path_graph(25),
            cycle_graph(16),
            star_graph(12),
            complete_graph(9),
            grid_2d(7, 11, MeshStencil::Moore),
            barabasi_albert(300, 3, 2),
        ];
        for g in &graphs {
            for root in [0u32, 5] {
                assert_eq!(
                    bfs_branch_avoiding(g, root).distances(),
                    &bfs_distances_reference(g, root)[..]
                );
            }
        }
    }

    #[test]
    fn queue_contains_each_reached_vertex_exactly_once() {
        let g = grid_2d(6, 6, MeshStencil::VonNeumann);
        let r = bfs_branch_avoiding(&g, 0);
        let mut order = r.visit_order().to_vec();
        assert_eq!(order.len(), r.reached_count());
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), r.reached_count(), "queue held duplicates");
    }

    #[test]
    fn visit_order_matches_branch_based_exactly() {
        // Both variants scan neighbours in the same order, so discovery
        // order — not just distances — must be identical.
        let g = barabasi_albert(200, 2, 7);
        assert_eq!(
            bfs_branch_avoiding(&g, 0).visit_order(),
            bfs_branch_based(&g, 0).visit_order()
        );
    }

    #[test]
    fn disconnected_and_out_of_range_roots() {
        let g = GraphBuilder::undirected(4).add_edges([(0, 1)]).build();
        let r = bfs_branch_avoiding(&g, 0);
        assert_eq!(r.reached_count(), 2);
        assert_eq!(r.distance(3), INFINITY);
        let oob = bfs_branch_avoiding(&g, 42);
        assert_eq!(oob.reached_count(), 0);
    }

    #[test]
    fn same_frontier_rediscovery_does_not_duplicate() {
        // Vertices 1 and 2 are both at level 1 and share neighbour 3 at
        // level 2: the printed compare-against-d[v] would enqueue 3 twice.
        let g = GraphBuilder::undirected(4)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        let r = bfs_branch_avoiding(&g, 0);
        assert_eq!(r.distances(), &[0, 1, 1, 2]);
        assert_eq!(r.visit_order().len(), 4);
    }
}
