//! `bga serve`: run the long-lived query server over one graph.
//!
//! Loads the graph once into an immutable snapshot, binds a TCP
//! listener and answers `bga-serve-v1` queries until a `shutdown`
//! request arrives. `--compressed` serves the group-varint CSR through
//! the same `AdjacencySource` seam the one-shot commands use, so the
//! answers are bit-identical either way.

use super::common_args::{flag_value, parse_number};
use bga_graph::{AdjacencySource, CompressedCsrGraph};
use bga_serve::{ServeOptions, Server};

/// Runs the `serve` subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let Some(graph_spec) = args.first() else {
        return Err("serve needs a graph: bga serve <graph> [--addr HOST:PORT] \
                    [--threads N] [--cache N] [--compressed]"
            .to_string());
    };
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:4817");
    if addr.is_empty()
        || (flag_value(args, "--addr").is_none() && args.iter().any(|a| a == "--addr"))
    {
        return Err("--addr requires a HOST:PORT value".to_string());
    }
    let mut options = ServeOptions::default();
    if let Some(threads) = parse_number(args, "--threads")? {
        options.threads = threads;
    }
    if let Some(cache) = flag_value(args, "--cache") {
        options.cache_capacity = cache
            .parse::<usize>()
            .map_err(|e| format!("invalid --cache value {cache:?}: {e}"))?;
    } else if args.iter().any(|a| a == "--cache") {
        return Err("--cache requires an entry count".to_string());
    }
    let compressed = args.iter().any(|a| a == "--compressed");

    let graph = super::graph_input::load_graph(graph_spec)?;
    if compressed {
        serve(CompressedCsrGraph::from_csr(&graph), addr, options)
    } else {
        serve(graph, addr, options)
    }
}

/// Binds and blocks in the accept loop until shutdown.
fn serve<G: AdjacencySource + Send + Sync + 'static>(
    graph: G,
    addr: &str,
    options: ServeOptions,
) -> Result<(), String> {
    let server =
        Server::bind(graph, addr, options).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // Scripts parse this line to learn the port when --addr ends in :0.
    println!("serving on {bound}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    println!("shutdown complete");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_usage_fails_loudly() {
        assert!(run(&[]).is_err());
        assert!(run(&strings(&["/no/such/graph.metis"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--threads"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--cache"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--cache", "lots"])).is_err());
        // An unbindable address fails fast instead of hanging the test.
        assert!(run(&strings(&["cond-mat-2005", "--addr", "256.0.0.1:1"])).is_err());
    }
}
