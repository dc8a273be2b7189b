//! Graph file I/O.
//!
//! Two formats are supported:
//!
//! * **Edge list** — one `u v` pair per line, `#`/`%` comments. The common
//!   interchange format for SNAP and many web corpora.
//! * **METIS / DIMACS-10** — the format of the 10th DIMACS Implementation
//!   Challenge graphs the paper uses (Table 2), so the real `audikw1`,
//!   `auto`, `coAuthorsDBLP`, `cond-mat-2005` and `ldoor` files can be
//!   dropped in directly when available.
//! * **`bga-csr-v2` binary** — the group-varint compressed representation
//!   serialized with an mmap-ready layout (see [`read_compressed_binary_file`]).

mod binary;
mod edge_list;
mod metis;

pub use binary::{
    read_compressed_binary_bytes, read_compressed_binary_file, write_compressed_binary,
    write_compressed_binary_bytes, write_compressed_binary_file, BGA_CSR_MAGIC, BGA_CSR_VERSION,
};
pub use edge_list::{
    read_edge_list, read_edge_list_str, read_weighted_edge_list, read_weighted_edge_list_str,
    write_edge_list, write_edge_list_string, write_weighted_edge_list,
    write_weighted_edge_list_string,
};
pub use metis::{
    read_metis, read_metis_str, read_weighted_metis, read_weighted_metis_str, write_metis,
    write_metis_string, write_weighted_metis, write_weighted_metis_string,
};

use std::fmt;
use std::io;

/// Debug-only I/O fault seam for the robustness suite. When the
/// `BGA_FAULT` spec (the same environment variable `bga-parallel`'s
/// fault-injection harness reads; checked as a plain substring here
/// because the dependency direction forbids sharing the parsed plan)
/// contains `io:short-read`, every file reader sees its input truncated
/// to half its bytes — simulating a short read / truncated download — so
/// the structured-error paths of the parsers are exercised against real
/// files. Compiles to the identity in release builds.
pub(crate) fn apply_read_faults(text: String) -> String {
    if cfg!(debug_assertions) {
        if let Ok(spec) = std::env::var("BGA_FAULT") {
            if spec.split(',').any(|part| part.trim() == "io:short-read") {
                let mut keep = text.len() / 2;
                while keep > 0 && !text.is_char_boundary(keep) {
                    keep -= 1;
                }
                return text[..keep].to_string();
            }
        }
    }
    text
}

/// Errors produced while reading or writing graph files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and a
    /// description of the problem.
    Parse {
        /// 1-based line number where parsing failed (0 when the problem is
        /// global, e.g. too few vertex lines).
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, grid_2d, MeshStencil};

    #[test]
    fn edge_list_round_trip() {
        let g = barabasi_albert(120, 2, 3);
        let text = write_edge_list_string(&g);
        let back = read_edge_list_str(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn metis_round_trip() {
        let g = grid_2d(6, 7, MeshStencil::Moore);
        let text = write_metis_string(&g);
        let back = read_metis_str(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn formats_agree_with_each_other() {
        let g = barabasi_albert(80, 3, 9);
        let via_metis = read_metis_str(&write_metis_string(&g)).unwrap();
        let via_edges = read_edge_list_str(&write_edge_list_string(&g)).unwrap();
        assert_eq!(via_metis, via_edges);
    }

    #[test]
    fn weighted_formats_agree_with_each_other() {
        use crate::weighted::uniform_weights;
        let g = uniform_weights(&barabasi_albert(60, 2, 5), 20, 8);
        let via_metis = read_weighted_metis_str(&write_weighted_metis_string(&g)).unwrap();
        let via_edges = read_weighted_edge_list_str(&write_weighted_edge_list_string(&g)).unwrap();
        assert_eq!(via_metis, via_edges);
        assert_eq!(via_metis, g);
    }
}
