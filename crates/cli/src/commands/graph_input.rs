//! Graph loading shared by the kernel subcommands: built-in suite names
//! or files on disk (METIS or edge-list, selected by extension), in both
//! unweighted and weight-preserving forms.

use bga_graph::io::{
    read_compressed_binary_file, read_edge_list, read_metis, read_weighted_edge_list,
    read_weighted_metis,
};
use bga_graph::suite::{SuiteGraphId, SuiteScale};
use bga_graph::{uniform_weights, AdjacencySource, WeightedAdjacencySource};
use bga_graph::{CsrGraph, GraphFootprint, WeightedCsrGraph};
use std::path::Path;

/// On-disk graph formats, resolved by file extension.
enum GraphFormat {
    Metis,
    EdgeList,
    /// `bga-csr-v2` group-varint binary (`.bgacsr`), written by
    /// `bga graph convert`.
    Compressed,
}

/// Resolves a suite name to its id, `spec` to an existing file plus its
/// format otherwise. This is the single dispatch both the unweighted and
/// the weighted loader share, so extension rules and error text cannot
/// drift between them.
fn resolve_spec(spec: &str) -> Result<Result<SuiteGraphId, (&Path, GraphFormat)>, String> {
    for id in SuiteGraphId::ALL {
        if id.name().eq_ignore_ascii_case(spec) {
            return Ok(Ok(id));
        }
    }
    let path = Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "{spec:?} is neither a built-in suite graph nor an existing file"
        ));
    }
    let by_extension = path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase());
    let format = match by_extension.as_deref() {
        Some("metis") | Some("graph") => GraphFormat::Metis,
        Some("bgacsr") => GraphFormat::Compressed,
        _ => GraphFormat::EdgeList,
    };
    Ok(Err((path, format)))
}

/// Renders a [`GraphFootprint`] as the one-line summary the
/// `--instrumented` paths and `bga graph convert` print. The ratio is
/// against the raw `Vec` CSR layout of the same graph (>1 = smaller).
pub(super) fn footprint_line(fp: &GraphFootprint) -> String {
    format!(
        "footprint: {} representation, {} adjacency + {} index = {} bytes \
         ({:.2}x vs raw CSR)",
        fp.representation,
        fp.adjacency_bytes,
        fp.index_bytes,
        fp.total_bytes(),
        fp.ratio()
    )
}

/// Loads a graph from a suite name or a file path.
///
/// Suite names map to the small-scale synthetic stand-ins with seed 42 (the
/// same graphs the `bga-bench` harnesses use by default). Files ending in
/// `.metis` or `.graph` are parsed as METIS; anything else as an edge list.
pub fn load_graph(spec: &str) -> Result<CsrGraph, String> {
    let (path, format) = match resolve_spec(spec)? {
        Ok(id) => return Ok(id.generate(SuiteScale::Small, 42)),
        Err(file) => file,
    };
    let result = match format {
        GraphFormat::Metis => read_metis(path),
        GraphFormat::EdgeList => read_edge_list(path),
        // The kernel subcommands run the Vec CSR; decoding up front keeps
        // every variant (incl. the sequential kernels) available.
        // `bga serve --compressed` and `examples/parallel_scaling` run the
        // compressed execution path.
        GraphFormat::Compressed => read_compressed_binary_file(path).map(|g| g.to_csr()),
    };
    result.map_err(|e| format!("failed to read {spec}: {e}"))
}

/// Loads a *weighted* graph from a file path, preserving the file's edge
/// weights (`u v w` columns in edge lists, edge-weighted `fmt` in METIS;
/// files without weights lift to unit weights). Suite names have no
/// weight data on disk — callers wanting weighted suite graphs should
/// load them unweighted and apply `bga_graph::uniform_weights`.
pub fn load_weighted_graph(spec: &str) -> Result<WeightedCsrGraph, String> {
    let (path, format) = match resolve_spec(spec)? {
        Ok(_) => {
            return Err(format!(
                "built-in suite graph {spec:?} carries no weights on disk; \
                 use --weights uniform to assign seeded weights"
            ))
        }
        Err(file) => file,
    };
    let result = match format {
        GraphFormat::Metis => read_weighted_metis(path),
        GraphFormat::EdgeList => read_weighted_edge_list(path),
        GraphFormat::Compressed => {
            return Err(format!(
                "{spec:?} is a bga-csr-v2 binary, which carries no weights; \
                 use --weights uniform or a weighted METIS/edge-list file"
            ))
        }
    };
    result.map_err(|e| format!("failed to read {spec}: {e}"))
}

/// `--weights uniform` draws seeded weights from `1..=UNIFORM_MAX_WEIGHT`.
const UNIFORM_MAX_WEIGHT: u32 = 32;
const UNIFORM_SEED: u64 = 42;

/// A kernel's loaded input: a CSR, or a weighted graph that carries one.
pub(super) enum KernelGraph {
    Csr(CsrGraph),
    Weighted(WeightedCsrGraph),
}

impl KernelGraph {
    /// Loads `spec` under a `--weights` mode: `unit` keeps the plain CSR,
    /// `uniform` assigns seeded weights and `file` keeps the file's own.
    pub(super) fn load(spec: &str, weights: &str) -> Result<Self, String> {
        Ok(match weights {
            "uniform" => {
                let graph = load_graph(spec)?;
                KernelGraph::Weighted(uniform_weights(&graph, UNIFORM_MAX_WEIGHT, UNIFORM_SEED))
            }
            "file" => KernelGraph::Weighted(load_weighted_graph(spec)?),
            _ => KernelGraph::Csr(load_graph(spec)?),
        })
    }

    /// The CSR, borrowed out of a weighted graph rather than cloned.
    pub(super) fn csr(&self) -> &CsrGraph {
        match self {
            KernelGraph::Csr(graph) => graph,
            KernelGraph::Weighted(graph) => graph.csr(),
        }
    }

    /// The loaded graph's memory footprint, weights included.
    pub(super) fn footprint(&self) -> GraphFootprint {
        match self {
            KernelGraph::Csr(graph) => graph.footprint(),
            KernelGraph::Weighted(graph) => graph.footprint(),
        }
    }

    /// The `weights:` summary line of a graph loaded under `weights`;
    /// `None` when it is unweighted.
    pub(super) fn weights_line(&self, weights: &str) -> Option<String> {
        let KernelGraph::Weighted(graph) = self else {
            return None;
        };
        let origin = match weights {
            "uniform" => format!("uniform 1..={UNIFORM_MAX_WEIGHT} (seed {UNIFORM_SEED})"),
            _ => "from file".to_string(),
        };
        Some(format!(
            "weights: {origin}, max {}",
            graph.max_weight().unwrap_or(1)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_resolve_case_insensitively() {
        let g = load_graph("coauthorsdblp").unwrap();
        assert!(g.num_vertices() > 1000);
    }

    #[test]
    fn missing_files_are_reported() {
        let err = load_graph("/no/such/file.metis").unwrap_err();
        assert!(err.contains("neither"));
    }

    #[test]
    fn edge_list_files_load() {
        let dir = std::env::temp_dir().join("bga_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.edges");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let g = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_binaries_load_and_reject_weighted_use() {
        use bga_graph::io::write_compressed_binary_file;
        use bga_graph::CompressedCsrGraph;
        let dir = std::env::temp_dir().join("bga_cli_bgacsr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.bgacsr");
        let g = load_graph("cond-mat-2005").unwrap();
        write_compressed_binary_file(&path, &CompressedCsrGraph::from_csr(&g)).unwrap();
        let back = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(g, back);
        let err = load_weighted_graph(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no weights"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn footprint_lines_carry_the_ratio() {
        use bga_graph::AdjacencySource;
        let g = load_graph("cond-mat-2005").unwrap();
        let line = footprint_line(&g.footprint());
        assert!(line.starts_with("footprint: csr"), "{line}");
        assert!(line.contains("1.00x"), "{line}");
    }

    #[test]
    fn weighted_files_load_with_their_weights() {
        let dir = std::env::temp_dir().join("bga_cli_wtest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.edges");
        std::fs::write(&path, "0 1 5\n1 2 3\n").unwrap();
        let g = load_weighted_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(g.weight_of_edge(0, 1), Some(5));
        assert_eq!(g.weight_of_edge(2, 1), Some(3));
        std::fs::remove_file(path).ok();
        // Suite names are rejected with a pointer at --weights uniform.
        let err = load_weighted_graph("cond-mat-2005").unwrap_err();
        assert!(err.contains("uniform"), "{err}");
        // Missing files are reported.
        assert!(load_weighted_graph("/no/such/file.edges").is_err());
    }
}
