//! # bga-obs
//!
//! The observability layer of the branch-avoiding-graphs workspace: a
//! structured tracing seam the parallel engine and worker pool emit into,
//! a dependency-free JSONL codec for the `bga-trace-v1` schema, trace
//! validation, and the shared table renderer the CLI uses for
//! `--instrumented` output and `bga trace report`.
//!
//! The design mirrors the kernels' `TALLY` const generic: the engine loops
//! are generic over [`TraceSink`] and guard every emission with
//! `S::ENABLED`, so a [`NoopSink`] instantiation compiles the whole layer
//! out — traced and untraced runs are bit-identical, and the untraced fast
//! path pays nothing.
//!
//! ```
//! use bga_obs::{MemorySink, TraceEvent, TraceSink};
//!
//! let sink = bga_obs::MemorySink::new();
//! sink.emit(TraceEvent::PoolSummary { batches: 3, parks: 1, wakes: 2 });
//! let line = sink.take()[0].to_json_line();
//! assert_eq!(TraceEvent::parse_line(&line).unwrap(),
//!            TraceEvent::PoolSummary { batches: 3, parks: 1, wakes: 2 });
//! assert!(!bga_obs::NoopSink::ENABLED);
//! let _ = MemorySink::ENABLED;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod json;
pub mod serve;
pub mod sink;
pub mod table;
pub mod validate;

pub use event::{
    DecisionEvent, PhaseCounters, PhaseEvent, PhaseKind, RunFootprint, TraceEvent, TRACE_SCHEMA,
};
pub use serve::{
    QueryKind, QueryPayload, QueryStatus, ServeRequest, ServeResponse, ServeStats, SERVE_SCHEMA,
};
pub use sink::{JsonlSink, MemorySink, NoopSink, TraceSink};
pub use table::{phase_table, step_table, Table};
pub use validate::{parse_trace, validate_trace, PoolTotals, TraceReport};
