//! The five-graph benchmark suite mirroring the paper's Table 2.
//!
//! The paper evaluates on five graphs from the 10th DIMACS Implementation
//! Challenge. Those files are not redistributed here, so the suite provides
//! **synthetic stand-ins from the same structural family**, since branch
//! behaviour depends on diameter, degree distribution and community
//! structure rather than on the exact files: FEM/partitioning meshes for
//! audikw1, ldoor and auto, a preferential-attachment graph for
//! coAuthorsDBLP and a community-structured graph for cond-mat-2005. When the real METIS files are available they can
//! be loaded with [`crate::io::read_metis`] and substituted 1:1 in every
//! experiment harness.
//!
//! Two scales are provided: [`SuiteScale::Small`] keeps every experiment
//! laptop-fast (seconds) while preserving the structural properties that
//! drive branch behaviour (diameter, degree distribution, community
//! structure); [`SuiteScale::Full`] matches the paper's vertex counts.

use crate::csr::CsrGraph;
use crate::generators::{barabasi_albert, grid_3d, stochastic_block_model, MeshStencil};
use crate::properties::{connected_component_count, pseudo_diameter};

/// Which size of the synthetic suite to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteScale {
    /// Thousands of vertices per graph; every figure harness completes in
    /// seconds. This is the default for tests and the experiment binaries.
    Small,
    /// Vertex counts matching the paper's Table 2 (hundreds of thousands).
    /// Edge counts are lower than the originals because the synthetic
    /// stencils are sparser than the FEM matrices; see EXPERIMENTS.md.
    Full,
}

/// Identifiers of the five Table-2 graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SuiteGraphId {
    /// `audikw1` — a large, dense 3-D finite-element matrix.
    Audikw1,
    /// `auto` — a 3-D partitioning mesh.
    Auto,
    /// `coAuthorsDBLP` — a collaboration (co-authorship) network.
    CoAuthorsDblp,
    /// `cond-mat-2005` — a clustering/collaboration network.
    CondMat2005,
    /// `ldoor` — an elongated finite-element matrix (a car-door part).
    Ldoor,
}

impl SuiteGraphId {
    /// All five graphs in the order the paper lists them.
    pub const ALL: [SuiteGraphId; 5] = [
        SuiteGraphId::Audikw1,
        SuiteGraphId::Auto,
        SuiteGraphId::CoAuthorsDblp,
        SuiteGraphId::CondMat2005,
        SuiteGraphId::Ldoor,
    ];

    /// The DIMACS-10 name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SuiteGraphId::Audikw1 => "audikw1",
            SuiteGraphId::Auto => "auto",
            SuiteGraphId::CoAuthorsDblp => "coAuthorsDBLP",
            SuiteGraphId::CondMat2005 => "cond-mat-2005",
            SuiteGraphId::Ldoor => "ldoor",
        }
    }

    /// The graph-type column of Table 2.
    pub fn graph_type(self) -> &'static str {
        match self {
            SuiteGraphId::Audikw1 => "Matrix",
            SuiteGraphId::Auto => "Partitioning",
            SuiteGraphId::CoAuthorsDblp => "Collaboration",
            SuiteGraphId::CondMat2005 => "Clustering",
            SuiteGraphId::Ldoor => "Matrix",
        }
    }

    /// `|V|` as reported in the paper's Table 2.
    pub fn paper_vertices(self) -> usize {
        match self {
            SuiteGraphId::Audikw1 => 943_695,
            SuiteGraphId::Auto => 448_695,
            SuiteGraphId::CoAuthorsDblp => 299_067,
            SuiteGraphId::CondMat2005 => 40_421,
            SuiteGraphId::Ldoor => 952_203,
        }
    }

    /// `|E|` as reported in the paper's Table 2.
    pub fn paper_edges(self) -> usize {
        match self {
            SuiteGraphId::Audikw1 => 38_354_076,
            SuiteGraphId::Auto => 3_314_611,
            SuiteGraphId::CoAuthorsDblp => 977_676,
            SuiteGraphId::CondMat2005 => 175_691,
            SuiteGraphId::Ldoor => 22_785_136,
        }
    }

    /// Generates the synthetic stand-in at the requested scale.
    ///
    /// Every stand-in is relabelled with a seeded random permutation before
    /// being returned: generator-assigned vertex ids are artificially
    /// aligned with the structure (the minimum id sits in a mesh corner), so
    /// without the permutation Shiloach-Vishkin converges in a couple of
    /// sweeps instead of the tens of iterations the paper's figures show.
    pub fn generate(self, scale: SuiteScale, seed: u64) -> CsrGraph {
        let raw = self.generate_unpermuted(scale, seed);
        crate::transform::relabel_random(&raw, seed ^ 0x05EE_D1AB)
    }

    /// The stand-in with the generator's native vertex numbering (mesh ids
    /// in sweep order, preferential-attachment ids in arrival order).
    pub fn generate_unpermuted(self, scale: SuiteScale, seed: u64) -> CsrGraph {
        match (self, scale) {
            // audikw1: large dense 3-D FEM matrix -> cube mesh, Moore stencil.
            (SuiteGraphId::Audikw1, SuiteScale::Small) => grid_3d(24, 24, 24, MeshStencil::Moore),
            (SuiteGraphId::Audikw1, SuiteScale::Full) => grid_3d(98, 98, 98, MeshStencil::Moore),
            // auto: partitioning mesh, sparser connectivity, many BFS levels.
            (SuiteGraphId::Auto, SuiteScale::Small) => grid_3d(40, 16, 12, MeshStencil::VonNeumann),
            (SuiteGraphId::Auto, SuiteScale::Full) => grid_3d(160, 62, 45, MeshStencil::VonNeumann),
            // coAuthorsDBLP: power-law collaboration network.
            (SuiteGraphId::CoAuthorsDblp, SuiteScale::Small) => {
                barabasi_albert(12_000, 3, seed ^ 0xD1B2)
            }
            (SuiteGraphId::CoAuthorsDblp, SuiteScale::Full) => {
                barabasi_albert(299_067, 3, seed ^ 0xD1B2)
            }
            // cond-mat-2005: clustering graph -> stochastic block model with
            // many small communities.
            (SuiteGraphId::CondMat2005, SuiteScale::Small) => {
                let communities = vec![64usize; 64];
                stochastic_block_model(&communities, 0.15, 0.0006, seed ^ 0xC0DD)
            }
            (SuiteGraphId::CondMat2005, SuiteScale::Full) => {
                // O(n^2) pair sampling is too slow at 40k vertices; a BA graph
                // with moderate attachment keeps the degree scale instead.
                barabasi_albert(40_421, 4, seed ^ 0xC0DD)
            }
            // ldoor: elongated FEM mesh (a door-shaped part), long diameter.
            (SuiteGraphId::Ldoor, SuiteScale::Small) => grid_3d(80, 14, 12, MeshStencil::Moore),
            (SuiteGraphId::Ldoor, SuiteScale::Full) => grid_3d(330, 60, 48, MeshStencil::Moore),
        }
    }
}

/// A generated suite graph together with the paper's reference sizes.
#[derive(Clone, Debug)]
pub struct SuiteGraph {
    /// Which Table-2 graph this stands in for.
    pub id: SuiteGraphId,
    /// The generated synthetic stand-in.
    pub graph: CsrGraph,
}

impl SuiteGraph {
    /// Name of the original DIMACS-10 graph this stands in for.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }
}

/// Generates all five stand-ins at the given scale with a fixed seed.
pub fn benchmark_suite(scale: SuiteScale, seed: u64) -> Vec<SuiteGraph> {
    SuiteGraphId::ALL
        .iter()
        .map(|&id| SuiteGraph {
            id,
            graph: id.generate(scale, seed),
        })
        .collect()
}

/// One row of the reproduced Table 2: the stand-in's measured properties next
/// to the paper's numbers.
#[derive(Clone, Debug)]
pub struct SuiteTableRow {
    /// DIMACS-10 graph name as listed in the paper.
    pub name: &'static str,
    /// Graph-type column of Table 2 (Matrix / Partitioning / Collaboration / Clustering).
    pub graph_type: &'static str,
    /// `|V|` reported in the paper.
    pub paper_vertices: usize,
    /// `|E|` reported in the paper.
    pub paper_edges: usize,
    /// `|V|` of the synthetic stand-in.
    pub standin_vertices: usize,
    /// `|E|` of the synthetic stand-in.
    pub standin_edges: usize,
    /// Number of connected components of the stand-in.
    pub standin_components: usize,
    /// Double-sweep BFS pseudo-diameter of the stand-in.
    pub standin_pseudo_diameter: u32,
    /// Average directed degree (`edge slots / |V|`) of the stand-in.
    pub standin_avg_degree: f64,
}

/// Builds the full Table-2 comparison for a generated suite.
pub fn suite_table(suite: &[SuiteGraph]) -> Vec<SuiteTableRow> {
    suite
        .iter()
        .map(|sg| SuiteTableRow {
            name: sg.id.name(),
            graph_type: sg.id.graph_type(),
            paper_vertices: sg.id.paper_vertices(),
            paper_edges: sg.id.paper_edges(),
            standin_vertices: sg.graph.num_vertices(),
            standin_edges: sg.graph.num_edges(),
            standin_components: connected_component_count(&sg.graph),
            standin_pseudo_diameter: pseudo_diameter(&sg.graph, 0),
            standin_avg_degree: sg.graph.average_degree(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_has_five_valid_graphs() {
        let suite = benchmark_suite(SuiteScale::Small, 42);
        assert_eq!(suite.len(), 5);
        for sg in &suite {
            assert!(sg.graph.validate().is_ok(), "{} invalid", sg.name());
            assert!(sg.graph.num_vertices() >= 4_000, "{} too small", sg.name());
            assert!(sg.graph.num_edges() > sg.graph.num_vertices());
        }
    }

    #[test]
    fn mesh_standins_have_long_diameters_and_social_standins_short() {
        let suite = benchmark_suite(SuiteScale::Small, 42);
        let diam = |id: SuiteGraphId| {
            let sg = suite.iter().find(|s| s.id == id).unwrap();
            pseudo_diameter(&sg.graph, 0)
        };
        // FEM meshes: many SV iterations / BFS levels, like the paper's
        // audikw1/auto/ldoor panels (tens of levels).
        assert!(diam(SuiteGraphId::Audikw1) >= 15);
        assert!(diam(SuiteGraphId::Auto) >= 30);
        assert!(diam(SuiteGraphId::Ldoor) >= 40);
        // Social/collaboration graphs: small-world, few levels.
        assert!(diam(SuiteGraphId::CoAuthorsDblp) <= 15);
        assert!(diam(SuiteGraphId::CondMat2005) <= 15);
    }

    #[test]
    fn social_standins_are_mostly_connected() {
        let suite = benchmark_suite(SuiteScale::Small, 42);
        for sg in &suite {
            let components = connected_component_count(&sg.graph);
            // A giant component must dominate, as in the real graphs.
            assert!(
                components < sg.graph.num_vertices() / 100,
                "{} fragmented into {components} components",
                sg.name()
            );
        }
    }

    #[test]
    fn table_matches_paper_metadata() {
        let suite = benchmark_suite(SuiteScale::Small, 1);
        let table = suite_table(&suite);
        assert_eq!(table.len(), 5);
        let audikw = table.iter().find(|r| r.name == "audikw1").unwrap();
        assert_eq!(audikw.paper_vertices, 943_695);
        assert_eq!(audikw.paper_edges, 38_354_076);
        assert_eq!(audikw.graph_type, "Matrix");
        let dblp = table.iter().find(|r| r.name == "coAuthorsDBLP").unwrap();
        assert_eq!(dblp.graph_type, "Collaboration");
    }

    #[test]
    fn suite_is_deterministic_per_seed() {
        let a = benchmark_suite(SuiteScale::Small, 7);
        let b = benchmark_suite(SuiteScale::Small, 7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.graph, y.graph);
        }
    }
}
