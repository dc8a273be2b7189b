//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each call it makes into a layer of the
//! program (layer = crate or module name), keeps the spans in memory and
//! writes them out as JSONL when the run ends. A span's *self time* is its
//! duration minus the part of it its child spans cover. The spans sit in
//! the benchmark's own code, outside the timed calls; spans inside the
//! program are a later change.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position of this span in [`Recorder::spans`].
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (a batch op
    /// execution or a serve query).
    pub op: u64,
    /// `layer.what`, for example `parallel.request.cc_based`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. Threads that record concurrently (the
/// serve clients) each own a recorder sharing one epoch and are merged
/// with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder on an existing clock, so spans from several threads
    /// line up in one trace.
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Everything recorded so far, in start order per thread.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, op);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records a child of the closed span `parent` whose length the program
    /// reported (a serve response's `micros`) but whose position the
    /// harness cannot see: it is placed at the end of `parent`, clipped to
    /// it.
    pub fn reported_child(&mut self, parent: usize, name: &'static str, op: u64, duration_ns: u64) {
        let end_ns = self.spans[parent].end_ns;
        let start_ns = end_ns
            .saturating_sub(duration_ns)
            .max(self.spans[parent].start_ns);
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Appends another thread's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of every span: duration minus what its children cover.
    /// Children of one span never overlap (a thread runs one call at a
    /// time), so the covered part is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_time_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id, parent, span.op, span.name, span.start_ns, span.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when there is a recorder, bare otherwise, and
/// returns its result with the span's id. This is how one code path serves
/// both the traced and the untraced run.
pub fn in_span<T>(
    recorder: &mut Option<&mut Recorder>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match recorder {
        Some(r) => {
            let id = r.enter(name, op);
            let out = f();
            r.exit(id);
            (out, Some(id))
        }
        None => (f(), None),
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from `(parent, start, end)` triples.
    fn recorder_of(spans: &[(Option<usize>, u64, u64)]) -> Recorder {
        let mut recorder = Recorder::new();
        for (id, &(parent, start_ns, end_ns)) in spans.iter().enumerate() {
            recorder.spans.push(Span {
                id,
                parent,
                op: 0,
                name: if parent.is_some() { "child" } else { "root" },
                start_ns,
                end_ns,
            });
        }
        recorder
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let recorder = recorder_of(&[
            (None, 0, 100),
            (Some(0), 10, 40),
            (Some(0), 50, 70),
            (Some(1), 15, 25),
        ]);
        assert_eq!(recorder.self_times_ns(), vec![50, 20, 20, 10]);
        let by_name = recorder.self_time_by_name_ns();
        assert_eq!(by_name["root"], 50);
        assert_eq!(by_name["child"], 50);
    }

    #[test]
    fn nesting_follows_enter_and_exit_order() {
        let mut recorder = Recorder::new();
        let outer = recorder.scope("outer", 7, |r| {
            r.scope("inner", 7, |_| {});
            r.spans().len() - 2
        });
        recorder.reported_child(outer, "reported", 7, 0);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[2].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn a_reported_child_is_clipped_to_its_parent() {
        let mut recorder = Recorder::new();
        let mut bare = None;
        assert_eq!(in_span(&mut bare, "outer", 1, || 5), (5, None));
        let (_, outer) = in_span(&mut Some(&mut recorder), "outer", 1, || ());
        recorder.reported_child(outer.unwrap(), "reported", 1, u64::MAX);
        let spans = recorder.spans();
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert!(recorder.self_times_ns()[0] <= spans[0].duration_ns());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = recorder_of(&[(None, 0, 10)]);
        let b = recorder_of(&[(None, 0, 20), (Some(0), 5, 10)]);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans[1].id, 1);
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 15, 5]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let recorder = recorder_of(&[(None, 0, 100), (Some(0), 10, 40)]);
        let mut buffer = Vec::new();
        recorder.write_jsonl(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":70"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":30"));
    }
}
