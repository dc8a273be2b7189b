//! # bga-bench
//!
//! Experiment harness for the *Branch-Avoiding Graph Algorithms*
//! reproduction. The binaries in `src/bin/` regenerate every table and
//! figure of the paper's evaluation, one binary per experiment, named after
//! it (`fig3_sv_time`, `table2_graphs`, ...), with the figure it
//! regenerates in its module doc; this library holds the plumbing they share: suite construction,
//! paired instrumented runs, and CSV/table printing.
//!
//! All binaries accept the `BGA_SUITE_SCALE` environment variable
//! (`small`, the default, or `full`) and `BGA_SEED` (default 42).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod harness;
pub mod report;

pub use harness::{bfs_pair, sv_pair, ExperimentContext};
pub use report::{print_csv_row, print_header, print_section};
