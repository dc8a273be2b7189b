//! The four workloads: what each is made of and how its inputs — graph,
//! roots and query streams — are generated from the seed. The program
//! under test only ever sees the generated inputs, never the seed.

use bga_graph::generators::{grid_3d, rmat, MeshStencil, RmatParams};
use bga_graph::properties::largest_component;
use bga_graph::transform::relabel_with;
use bga_graph::weighted::uniform_weights;
use bga_graph::{CompressedCsrGraph, CsrGraph, VertexId, WeightedCsrGraph};
use bga_obs::QueryKind;

/// Largest edge weight `sssp_ms` draws.
pub const MAX_WEIGHT: u32 = 32;
/// Delta-stepping bucket width `sssp_ms` runs with.
pub const SSSP_DELTA: u32 = 8;
/// Requested R-MAT edges per vertex (the Graph500 edge factor).
const RMAT_EDGE_FACTOR: usize = 16;

/// SplitMix64: the harness's own generator, so streams do not depend on
/// the workspace's vendored `rand` stand-in.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` this harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which graph a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// R-MAT, Graph500 parameters, `2^scale` vertices, 16 requested edges
    /// per vertex: low diameter, so per-edge kernel work dominates.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
    },
    /// `grid_3d(nx, ny, nz, Moore)`, randomly relabelled with both ends of
    /// the long axis pinned: high diameter, one near-empty pool batch per
    /// BFS level, so pool and loop overhead dominate.
    Mesh {
        /// Length of the long axis.
        nx: usize,
        /// Cross-section width.
        ny: usize,
        /// Cross-section height.
        nz: usize,
    },
}

/// A serve traffic mix: how many distinct roots the traversal queries
/// draw from, and the share of each query kind in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Size of the root pool `distance` and `path` queries draw from.
    pub roots: usize,
    /// Percent of `distance` queries.
    pub distance: u32,
    /// Percent of `path` queries.
    pub path: u32,
    /// Percent of `component` queries.
    pub component: u32,
    /// Percent of `core` queries (the remainder).
    pub core: u32,
}

/// 512 roots against a 16-entry cache: about 97 % of traversal queries
/// miss, so the time goes to pool-lock wait and traversal.
const MISS_MIX: Mix = Mix {
    roots: 512,
    distance: 75,
    path: 25,
    component: 0,
    core: 0,
};

/// 8 roots fit the cache: after the warm-up every query hits, so the time
/// goes to the socket, the parser, the LRU mutex and the serialiser.
const HOT_MIX: Mix = Mix {
    roots: 8,
    distance: 50,
    path: 20,
    component: 15,
    core: 15,
};

/// One workload: a graph, a traffic mix, and how the measured seconds are
/// split between the batch op list and the serve loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The graph every part of the workload runs on.
    pub graph: GraphSpec,
    /// The serve traffic mix.
    pub mix: Mix,
    /// Share of the measured seconds spent on batch passes; the serve
    /// loop gets the rest.
    pub batch_share: f64,
}

/// The four workloads. `quick` shrinks every graph to a few thousand
/// vertices for the smoke run.
pub fn workloads(quick: bool) -> [Workload; 4] {
    let rmat_of = |scale| GraphSpec::Rmat {
        scale: if quick { 12 } else { scale },
    };
    let mesh = if quick {
        GraphSpec::Mesh {
            nx: 40,
            ny: 16,
            nz: 12,
        }
    } else {
        GraphSpec::Mesh {
            nx: 350,
            ny: 16,
            nz: 12,
        }
    };
    [
        Workload {
            name: "batch_powerlaw",
            graph: rmat_of(17),
            mix: MISS_MIX,
            batch_share: 0.5,
        },
        Workload {
            name: "batch_mesh",
            graph: mesh,
            mix: MISS_MIX,
            batch_share: 0.5,
        },
        Workload {
            name: "serve_miss",
            graph: rmat_of(16),
            mix: MISS_MIX,
            batch_share: 0.25,
        },
        Workload {
            name: "serve_hot",
            graph: rmat_of(16),
            mix: HOT_MIX,
            batch_share: 0.25,
        },
    ]
}

/// Looks a workload up by name.
pub fn find_workload(name: &str, quick: bool) -> Option<Workload> {
    workloads(quick).into_iter().find(|w| w.name == name)
}

/// Everything generated from the seed for one workload.
pub struct Inputs {
    /// The raw CSR graph.
    pub graph: CsrGraph,
    /// The same graph with seeded uniform weights in `1..=MAX_WEIGHT`.
    pub weighted: WeightedCsrGraph,
    /// The same graph, delta-varint compressed.
    pub compressed: CompressedCsrGraph,
    /// Root of the batch BFS and SSSP ops: smallest id in the giant
    /// component.
    pub root: VertexId,
    /// The two betweenness sources: smallest and largest id in the giant
    /// component.
    pub bc_sources: [VertexId; 2],
    /// Roots the serve `distance` and `path` queries draw from.
    pub root_pool: Vec<VertexId>,
    /// Giant-component vertices outside the pool, for probes that must
    /// miss the cache.
    pub cold_roots: Vec<VertexId>,
}

/// A seeded permutation of `0..n` that fixes `0` and `n - 1`.
///
/// On the mesh those are two opposite corners. Pinning them makes the
/// graph's cost structure the same on every seed: the minimum label always
/// has to cross the whole long axis (Shiloach-Vishkin sweep counts vary 2x
/// with where label 0 lands otherwise), and a BFS from either pinned
/// vertex always has `nx` levels.
pub fn pinned_permutation(n: usize, rng: &mut Rng) -> Vec<VertexId> {
    let mut permutation: Vec<VertexId> = (0..n as VertexId).collect();
    if n > 3 {
        for i in (2..n - 1).rev() {
            permutation.swap(i, 1 + rng.below(i));
        }
    }
    permutation
}

/// Generates the workload's graph.
pub fn build_graph(spec: GraphSpec, seed: u64) -> CsrGraph {
    match spec {
        GraphSpec::Rmat { scale } => rmat(
            scale,
            RMAT_EDGE_FACTOR << scale,
            RmatParams::default(),
            seed,
        ),
        GraphSpec::Mesh { nx, ny, nz } => {
            let grid = grid_3d(nx, ny, nz, MeshStencil::Moore);
            let permutation = pinned_permutation(grid.num_vertices(), &mut Rng::new(seed, 1));
            relabel_with(&grid, &permutation)
        }
    }
}

/// Draws `count` distinct elements of `from` (all of it when shorter) and
/// returns them with the elements left over.
fn draw_distinct(from: &[VertexId], count: usize, rng: &mut Rng) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut rest = from.to_vec();
    let count = count.min(rest.len());
    for i in 0..count {
        let j = i + rng.below(rest.len() - i);
        rest.swap(i, j);
    }
    let drawn = rest.drain(..count).collect();
    (drawn, rest)
}

/// Generates every input of `workload` from `seed`.
pub fn build_inputs(workload: &Workload, seed: u64) -> Inputs {
    let graph = build_graph(workload.graph, seed);
    let weighted = uniform_weights(&graph, MAX_WEIGHT, seed);
    let compressed = CompressedCsrGraph::from_csr(&graph);
    let giant = largest_component(&graph);
    assert!(giant.len() >= 2, "workload graphs have a giant component");
    let root = giant[0];
    let far = giant[giant.len() - 1];
    let (root_pool, mut cold_roots) =
        draw_distinct(&giant, workload.mix.roots, &mut Rng::new(seed, 2));
    // The probes want few cold roots; keep the list short and ordered.
    cold_roots.truncate(256);
    Inputs {
        graph,
        weighted,
        compressed,
        root,
        bc_sources: [root, far],
        root_pool,
        cold_roots,
    }
}

/// The endless, seeded query stream of one connection.
pub struct QueryStream<'a> {
    rng: Rng,
    mix: Mix,
    pool: &'a [VertexId],
    vertices: usize,
}

impl<'a> QueryStream<'a> {
    /// The stream of connection `connection` of a workload run at `seed`.
    pub fn new(inputs: &'a Inputs, mix: Mix, seed: u64, connection: usize) -> Self {
        QueryStream {
            rng: Rng::new(seed, 100 + connection as u64),
            mix,
            pool: &inputs.root_pool,
            vertices: inputs.graph.num_vertices(),
        }
    }
}

impl Iterator for QueryStream<'_> {
    type Item = QueryKind;

    fn next(&mut self) -> Option<QueryKind> {
        let pick = self.rng.below(100) as u32;
        let root = self.pool[self.rng.below(self.pool.len())];
        let any = self.rng.below(self.vertices) as VertexId;
        let mix = self.mix;
        Some(if pick < mix.distance {
            QueryKind::Distance { root, target: any }
        } else if pick < mix.distance + mix.path {
            QueryKind::Path { root, target: any }
        } else if pick < mix.distance + mix.path + mix.component {
            QueryKind::Component { vertex: any }
        } else {
            QueryKind::Core { vertex: any }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str) -> Workload {
        find_workload(name, true).unwrap()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for workload in workloads(true) {
            let a = build_inputs(&workload, 7);
            let b = build_inputs(&workload, 7);
            assert!(a.graph == b.graph, "{}", workload.name);
            assert_eq!(a.weighted, b.weighted);
            assert_eq!(a.root_pool, b.root_pool);
            assert_eq!(a.bc_sources, b.bc_sources);
            let left: Vec<QueryKind> = QueryStream::new(&a, workload.mix, 7, 1).take(200).collect();
            let right: Vec<QueryKind> =
                QueryStream::new(&b, workload.mix, 7, 1).take(200).collect();
            assert_eq!(left, right);
        }
    }

    #[test]
    fn another_seed_gives_other_roots_and_streams() {
        for workload in workloads(true) {
            let a = build_inputs(&workload, 1);
            let b = build_inputs(&workload, 2);
            assert_ne!(a.root_pool, b.root_pool, "{}", workload.name);
            assert!(a.graph != b.graph);
            let left: Vec<QueryKind> = QueryStream::new(&a, workload.mix, 1, 0).take(50).collect();
            let right: Vec<QueryKind> = QueryStream::new(&b, workload.mix, 2, 0).take(50).collect();
            assert_ne!(left, right);
        }
    }

    #[test]
    fn connections_of_one_run_get_different_streams() {
        let workload = quick("serve_hot");
        let inputs = build_inputs(&workload, 3);
        let first: Vec<QueryKind> = QueryStream::new(&inputs, workload.mix, 3, 0)
            .take(50)
            .collect();
        let second: Vec<QueryKind> = QueryStream::new(&inputs, workload.mix, 3, 1)
            .take(50)
            .collect();
        assert_ne!(first, second);
    }

    #[test]
    fn roots_are_distinct_giant_component_vertices() {
        let workload = quick("serve_miss");
        let inputs = build_inputs(&workload, 5);
        let giant = largest_component(&inputs.graph);
        let mut pool = inputs.root_pool.clone();
        pool.sort_unstable();
        pool.dedup();
        assert_eq!(pool.len(), inputs.root_pool.len());
        assert!(pool.iter().all(|v| giant.binary_search(v).is_ok()));
        assert!(inputs
            .cold_roots
            .iter()
            .all(|v| pool.binary_search(v).is_err() && giant.binary_search(v).is_ok()));
        assert_eq!(inputs.root, giant[0]);
    }

    #[test]
    fn the_mesh_permutation_pins_both_corners() {
        let permutation = pinned_permutation(1000, &mut Rng::new(9, 1));
        assert_eq!(permutation[0], 0);
        assert_eq!(permutation[999], 999);
        let mut sorted = permutation.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert_ne!(permutation, (0..1000).collect::<Vec<VertexId>>());
    }

    #[test]
    fn the_mix_shares_are_honoured() {
        let workload = quick("serve_hot");
        let inputs = build_inputs(&workload, 11);
        let mut counts = [0usize; 4];
        for query in QueryStream::new(&inputs, workload.mix, 11, 0).take(20_000) {
            counts[match query {
                QueryKind::Distance { .. } => 0,
                QueryKind::Path { .. } => 1,
                QueryKind::Component { .. } => 2,
                _ => 3,
            }] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / 200.0).collect();
        for (share, want) in shares.iter().zip([50.0, 20.0, 15.0, 15.0]) {
            assert!((share - want).abs() < 2.0, "{shares:?}");
        }
    }
}
