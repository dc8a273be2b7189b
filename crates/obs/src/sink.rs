//! The `TraceSink` seam and its stock implementations.
//!
//! The engine loops are generic over `S: TraceSink` and guard every event
//! construction with `if S::ENABLED { ... }` — the same compile-out
//! discipline as the kernels' `TALLY` const generic, so a [`NoopSink`] run
//! monomorphizes to exactly the untraced code (no event building, no
//! `Instant::now()` calls, no allocation).

use crate::event::TraceEvent;
use std::io::{self, Write};
use std::sync::Mutex;

/// Receives the structured events of one traced run.
pub trait TraceSink: Sync {
    /// Whether this sink observes anything. `false` compiles the emission
    /// sites out of the traversal loops entirely.
    const ENABLED: bool = true;

    /// Consumes one event. Called from the dispatching (submitter) thread
    /// only, in run order.
    fn emit(&self, event: TraceEvent);
}

/// The disabled sink: every traced code path instantiated with it is
/// bit-identical to — and costs the same as — the untraced one.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    fn emit(&self, _event: TraceEvent) {}
}

/// Collects events in memory; the test and report sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the collected events in emission order.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: TraceEvent) {
        self.events.lock().unwrap().push(event);
    }
}

/// Serializes events one-per-line to any writer (the `--trace <file>`
/// sink). Write errors are sticky: the first one is kept and surfaced by
/// [`JsonlSink::finish`], later events are dropped.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlState<W>>,
}

#[derive(Debug)]
struct JsonlState<W> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            inner: Mutex::new(JsonlState {
                writer,
                error: None,
            }),
        }
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(self) -> io::Result<W> {
        let mut state = self.inner.into_inner().unwrap();
        if let Some(error) = state.error {
            return Err(error);
        }
        state.writer.flush()?;
        Ok(state.writer)
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, event: TraceEvent) {
        let mut state = self.inner.lock().unwrap();
        if state.error.is_some() {
            return;
        }
        if let Err(error) = writeln!(state.writer, "{}", event.to_json_line()) {
            state.error = Some(error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PhaseCounters, PhaseEvent, PhaseKind};

    fn phase(index: usize) -> TraceEvent {
        TraceEvent::Phase(PhaseEvent {
            index,
            kind: PhaseKind::TopDown,
            bucket: None,
            frontier: 1,
            discovered: 1,
            changed: None,
            counters: PhaseCounters::default(),
            wall_ns: 0,
        })
    }

    // Compile-time: the no-op sink is disabled, collecting sinks are
    // enabled.
    const _: () = {
        assert!(!NoopSink::ENABLED);
        assert!(MemorySink::ENABLED);
    };

    #[test]
    fn memory_sink_preserves_emission_order() {
        let sink = MemorySink::new();
        sink.emit(phase(0));
        sink.emit(phase(1));
        let events = sink.take();
        assert_eq!(events, vec![phase(0), phase(1)]);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(phase(0));
        sink.emit(phase(1));
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(TraceEvent::parse_line(lines[0]).unwrap(), phase(0));
        assert_eq!(TraceEvent::parse_line(lines[1]).unwrap(), phase(1));
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        #[derive(Debug)]
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(FailingWriter);
        sink.emit(phase(0));
        sink.emit(phase(1)); // dropped, error already sticky
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"));
    }
}
