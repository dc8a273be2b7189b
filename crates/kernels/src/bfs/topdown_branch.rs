//! Branch-based top-down BFS (paper Algorithm 4).
//!
//! The plain timed kernel: [`super::topdown`]'s expansion with the
//! per-edge `if d[w] == INFINITY` test, run on the uncounted machine.

use super::frontier::BfsResult;
use super::topdown::plain_topdown;
use bga_graph::{CsrGraph, VertexId};

/// Runs branch-based top-down BFS from `root`. A root outside the vertex
/// range yields an all-unreached result.
pub fn bfs_branch_based(graph: &CsrGraph, root: VertexId) -> BfsResult {
    plain_topdown::<false>(graph, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::INFINITY;
    use bga_graph::generators::{complete_graph, path_graph, star_graph};
    use bga_graph::properties::bfs_distances_reference;
    use bga_graph::GraphBuilder;

    #[test]
    fn distances_match_reference() {
        for g in [path_graph(20), star_graph(15), complete_graph(10)] {
            for root in [0u32, 3] {
                assert_eq!(
                    bfs_branch_based(&g, root).distances(),
                    &bfs_distances_reference(&g, root)[..]
                );
            }
        }
    }

    #[test]
    fn visit_order_is_level_monotone() {
        let g = star_graph(10);
        let r = bfs_branch_based(&g, 0);
        let order = r.visit_order();
        assert_eq!(order[0], 0);
        for pair in order.windows(2) {
            assert!(r.distance(pair[0]) <= r.distance(pair[1]));
        }
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let g = GraphBuilder::undirected(5)
            .add_edges([(0, 1), (2, 3)])
            .build();
        let r = bfs_branch_based(&g, 0);
        assert_eq!(r.distance(1), 1);
        assert_eq!(r.distance(2), INFINITY);
        assert_eq!(r.reached_count(), 2);
    }

    #[test]
    fn out_of_range_root() {
        let g = path_graph(3);
        let r = bfs_branch_based(&g, 99);
        assert_eq!(r.reached_count(), 0);
        assert!(r.visit_order().is_empty());
    }
}
