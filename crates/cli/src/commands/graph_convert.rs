//! `bga graph convert`: translate between the textual graph formats and
//! the `bga-csr-v2` group-varint binary.
//!
//! The target format is picked by the output path's extension, exactly
//! like the kernel subcommands pick their input parser: `.metis`/`.graph`
//! writes METIS, `.bgacsr` writes the compressed binary, anything else an
//! edge list. Converting to `.bgacsr` prints the footprint line so the
//! compression ratio is visible at conversion time, not just in traces.

use super::graph_input::{footprint_line, load_graph};
use bga_graph::io::{write_compressed_binary_file, write_edge_list, write_metis};
use bga_graph::{AdjacencySource, CompressedCsrGraph, CsrGraph};
use std::path::Path;

/// Runs the `graph` subcommand family.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(|s| s.as_str()) {
        Some("convert") => convert(&args[1..]),
        Some(other) => Err(format!("unknown graph action {other:?} (expected convert)")),
        None => Err("graph needs an action (convert <in> <out>)".to_string()),
    }
}

/// Output formats, picked by the output path's extension.
enum OutputFormat {
    Metis,
    EdgeList,
    Compressed,
}

fn output_format(path: &str) -> OutputFormat {
    let by_extension = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase());
    match by_extension.as_deref() {
        Some("metis") | Some("graph") => OutputFormat::Metis,
        Some("bgacsr") => OutputFormat::Compressed,
        _ => OutputFormat::EdgeList,
    }
}

fn convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("graph convert needs exactly two paths: <in> <out>".to_string());
    };
    // The loader already dispatches on the input extension (METIS,
    // edge list or bga-csr-v2 binary) and resolves suite names, so any
    // supported source converts to any supported target.
    let graph: CsrGraph = load_graph(input)?;
    match output_format(output) {
        OutputFormat::Metis => {
            write_metis(&graph, output).map_err(|e| format!("failed to write {output}: {e}"))?;
        }
        OutputFormat::EdgeList => {
            write_edge_list(&graph, output)
                .map_err(|e| format!("failed to write {output}: {e}"))?;
        }
        OutputFormat::Compressed => {
            let compressed = CompressedCsrGraph::from_csr(&graph);
            write_compressed_binary_file(output, &compressed)
                .map_err(|e| format!("failed to write {output}: {e}"))?;
            println!("{}", footprint_line(&compressed.footprint()));
        }
    }
    println!(
        "converted {input} -> {output} ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bga_cli_graph_convert");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_through_every_format_pair() {
        let metis = temp_path("rt.metis");
        let binary = temp_path("rt.bgacsr");
        let edges = temp_path("rt.edges");
        let reference = load_graph("cond-mat-2005").unwrap();
        // suite -> metis -> bgacsr -> edges, asserting equality each hop.
        run(&strings(&[
            "convert",
            "cond-mat-2005",
            metis.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(load_graph(metis.to_str().unwrap()).unwrap(), reference);
        run(&strings(&[
            "convert",
            metis.to_str().unwrap(),
            binary.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(load_graph(binary.to_str().unwrap()).unwrap(), reference);
        run(&strings(&[
            "convert",
            binary.to_str().unwrap(),
            edges.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(load_graph(edges.to_str().unwrap()).unwrap(), reference);
        for path in [metis, binary, edges] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn corrupt_binaries_surface_structured_errors() {
        let binary = temp_path("corrupt.bgacsr");
        run(&strings(&[
            "convert",
            "cond-mat-2005",
            binary.to_str().unwrap(),
        ]))
        .unwrap();
        // Truncate mid-payload: the parse error names the problem instead
        // of panicking or silently producing a wrong graph.
        let bytes = std::fs::read(&binary).unwrap();
        std::fs::write(&binary, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(&strings(&[
            "convert",
            binary.to_str().unwrap(),
            temp_path("never.edges").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("failed to read"), "{err}");
        std::fs::remove_file(binary).ok();
    }

    #[test]
    fn bad_usage_fails_loudly() {
        assert!(run(&[]).is_err());
        assert!(run(&strings(&["compress", "a", "b"])).is_err());
        assert!(run(&strings(&["convert", "a"])).is_err());
        assert!(run(&strings(&["convert", "/no/such/graph.metis", "out.bgacsr"])).is_err());
    }
}
