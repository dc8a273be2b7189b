//! The serve side: an in-process `bga_serve::Server` on a real loopback
//! socket, closed-loop clients that time each query from outside
//! (write → `read_line`), and the after-run check of sampled answers.

use crate::batch::References;
use crate::span::{in_span, Recorder};
use crate::stats::Histogram;
use crate::workload::Inputs;
use bga_graph::properties::{bfs_distances_reference, UNREACHED};
use bga_graph::CsrGraph;
use bga_obs::{QueryKind, QueryPayload, QueryStatus, ServeRequest, ServeResponse, ServeStats};
use bga_serve::{ServeOptions, Server};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Queries at the start of each connection whose answers are kept for the
/// after-run check.
const KEPT_HEAD: u64 = 48;
/// After the head, one query in this many is kept ...
const KEPT_STRIDE: u64 = 1024;
/// ... up to this many per connection.
const KEPT_MAX: usize = 128;
/// Kept answers recomputed after a run, at most.
const CHECKED_MAX: usize = 96;
/// A traced loop records spans for the first query of every block of
/// queries. A block starts at two queries and doubles each time this many
/// spanned queries were recorded, so spans cover the whole of a loop of any
/// rate — a few hundred queries or a few million — in logarithmic memory.
const SPANNED_PER_BLOCK_SIZE: u64 = 1024;

fn kind_index(kind: &QueryKind) -> usize {
    match kind {
        QueryKind::Distance { .. } => 0,
        QueryKind::Path { .. } => 1,
        QueryKind::Component { .. } => 2,
        _ => 3,
    }
}

/// A running in-process server.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Binds `127.0.0.1:0` over `graph` with the default cache and serves
    /// it from a background thread.
    pub fn start(graph: CsrGraph, threads: usize) -> Result<Self, String> {
        let options = ServeOptions {
            threads,
            ..ServeOptions::default()
        };
        let server = Server::bind(graph, "127.0.0.1:0", options)
            .map_err(|e| format!("cannot bind a loopback port for the server: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("cannot read the server's address: {e}"))?;
        let thread = thread::Builder::new()
            .name("bga-serve".to_string())
            .spawn(move || server.serve())
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        Ok(ServerHandle { addr, thread })
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `shutdown` and joins the server, which joins every
    /// connection thread first: nothing outlives this call.
    pub fn stop(self) -> Result<(), String> {
        let sent = Client::connect(self.addr).and_then(|mut c| c.exchange(&ServeRequest::Shutdown));
        let joined = self.thread.join();
        sent.map_err(|e| format!("shutdown request failed: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Writes one request line and reads the response line, returning the
    /// round-trip time in nanoseconds. Serialising and parsing happen in
    /// the callers, outside this interval.
    fn round_trip(&mut self, wire: &str) -> io::Result<u64> {
        self.line.clear();
        let started = Instant::now();
        self.writer.write_all(wire.as_bytes())?;
        let read = self.reader.read_line(&mut self.line)?;
        let nanos = started.elapsed().as_nanos() as u64;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(nanos)
    }

    /// One untimed request and its parsed response.
    pub fn exchange(&mut self, request: &ServeRequest) -> io::Result<ServeResponse> {
        let mut wire = request.to_json_line();
        wire.push('\n');
        self.round_trip(&wire)?;
        ServeResponse::parse_line(&self.line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The server's counters.
    pub fn stats(&mut self) -> io::Result<ServeStats> {
        match self.exchange(&ServeRequest::Stats)? {
            ServeResponse::Stats(stats) => Ok(stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats, got {other:?}"),
            )),
        }
    }
}

/// A query and its answer, kept for the after-run check.
#[derive(Clone, Debug)]
pub struct Kept {
    /// What was asked.
    pub query: QueryKind,
    /// What the server answered.
    pub payload: QueryPayload,
}

/// Everything a set of queries produced. Latencies live in fixed-size
/// histograms (nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Client round trip, every query.
    pub rtt: Histogram,
    /// Round trips of the queries of a traced loop that recorded spans.
    pub rtt_spanned: Histogram,
    /// Round trips of the bare query right after each spanned one: the
    /// same moments of the same loop, without spans.
    pub rtt_bare: Histogram,
    /// The response's `micros`, as nanoseconds.
    pub service: Histogram,
    /// `micros` of queries answered from a fresh traversal.
    pub service_miss: Histogram,
    /// Round trip minus `micros`.
    pub wire: Histogram,
    /// Round trip per query kind: distance, path, component, core.
    pub per_kind: [Histogram; 4],
    /// Queries sent.
    pub attempted: u64,
    /// Queries answered `ok` with the right payload kind.
    pub ok: u64,
    /// Everything else: io errors, `error` and `partial` responses.
    pub failed: u64,
    /// `ok` answers served from the cache.
    pub cached: u64,
    /// Sampled answers for the after-run check.
    pub kept: Vec<Kept>,
}

impl Tally {
    /// Adds `other`'s samples and counts.
    pub fn merge(&mut self, other: Tally) {
        self.rtt.merge(&other.rtt);
        self.rtt_spanned.merge(&other.rtt_spanned);
        self.rtt_bare.merge(&other.rtt_bare);
        self.service.merge(&other.service);
        self.service_miss.merge(&other.service_miss);
        self.wire.merge(&other.wire);
        for (mine, theirs) in self.per_kind.iter_mut().zip(&other.per_kind) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.cached += other.cached;
        self.kept.extend(other.kept);
    }

    /// Share of `ok` answers that came from the cache.
    pub fn hit_ratio(&self) -> f64 {
        self.cached as f64 / self.ok.max(1) as f64
    }
}

/// When a connection stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// At the first completion after this instant.
    Deadline(Instant),
    /// After this many queries.
    Count(u64),
}

fn payload_fits(kind: &QueryKind, payload: &QueryPayload) -> bool {
    matches!(
        (kind, payload),
        (QueryKind::Distance { .. }, QueryPayload::Distance(_))
            | (QueryKind::Path { .. }, QueryPayload::Path(_))
            | (QueryKind::Component { .. }, QueryPayload::Component(_))
            | (QueryKind::Core { .. }, QueryPayload::Core(_))
    )
}

/// Sends `queries` one at a time on `client`, each after the previous
/// answer arrived (closed loop), and tallies the outcome. With a recorder,
/// the first query of every block (see [`SPANNED_PER_BLOCK_SIZE`])
/// records spans around the serialiser, the round trip — with the server-reported service time as
/// its child — and the parser; the other queries run the same code bare. An io error fails the query and ends the
/// connection's loop.
pub fn drive(
    client: &mut Client,
    queries: impl Iterator<Item = QueryKind>,
    until: Until,
    timeout_ms: Option<u64>,
    mut recorder: Option<&mut Recorder>,
    op_base: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut block = 2u64;
    let mut spanned_at_this_size = 0u64;
    for (index, kind) in (0u64..).zip(queries) {
        match until {
            Until::Deadline(deadline) if Instant::now() >= deadline => break,
            Until::Count(count) if index >= count => break,
            _ => {}
        }
        let op = op_base + index;
        let bare_twin = recorder.is_some() && index % block == 1;
        let mut spans = match recorder.as_mut() {
            Some(r) if index % block == 0 => Some(&mut **r),
            _ => None,
        };
        let spanned = spans.is_some();
        tally.attempted += 1;
        let request = ServeRequest::Query {
            kind: kind.clone(),
            variant: None,
            timeout_ms,
        };
        let (wire, _) = in_span(&mut spans, "obs.serialise_request", op, || {
            let mut wire = request.to_json_line();
            wire.push('\n');
            wire
        });
        let (sent, rtt_span) = in_span(&mut spans, "serve.rtt", op, || client.round_trip(&wire));
        let nanos = match sent {
            Ok(nanos) => nanos,
            Err(e) => {
                eprintln!("serve client: {e}");
                tally.failed += 1;
                break;
            }
        };
        let (response, _) = in_span(&mut spans, "obs.parse_response", op, || {
            ServeResponse::parse_line(&client.line)
        });
        if let (Some(r), Some(parent), Ok(ServeResponse::Query { micros, .. })) =
            (spans, rtt_span, &response)
        {
            r.reported_child(parent, "serve.service", op, micros * 1_000);
        }
        tally.rtt.record(nanos);
        if spanned {
            tally.rtt_spanned.record(nanos);
            spanned_at_this_size += 1;
            if spanned_at_this_size == SPANNED_PER_BLOCK_SIZE {
                block *= 2;
                spanned_at_this_size = 0;
            }
        } else if bare_twin {
            tally.rtt_bare.record(nanos);
        }
        tally.per_kind[kind_index(&kind)].record(nanos);
        match response {
            Ok(ServeResponse::Query {
                status: QueryStatus::Ok,
                payload,
                cached,
                micros,
            }) if payload_fits(&kind, &payload) => {
                tally.ok += 1;
                tally.cached += u64::from(cached);
                let service = micros * 1_000;
                tally.service.record(service);
                if !cached {
                    tally.service_miss.record(service);
                }
                tally.wire.record(nanos.saturating_sub(service));
                let keep =
                    index < KEPT_HEAD || (index % KEPT_STRIDE == 0 && tally.kept.len() < KEPT_MAX);
                if keep {
                    tally.kept.push(Kept {
                        query: kind,
                        payload,
                    });
                }
            }
            other => {
                eprintln!("serve client: {kind:?} answered {other:?}");
                tally.failed += 1;
            }
        }
    }
    tally
}

/// What a closed loop produced.
pub struct LoopOutcome {
    /// Merged tallies of every connection.
    pub tally: Tally,
    /// From the common start to the last connection's last answer.
    pub elapsed: Duration,
}

impl LoopOutcome {
    /// Completed `ok` queries per measured second.
    pub fn qps(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs one closed loop: `streams.len()` connections, each sending its own
/// stream until `duration` has passed. With a recorder, each connection
/// records spans on the recorder's clock and they are merged into it.
pub fn closed_loop<I>(
    addr: SocketAddr,
    streams: Vec<I>,
    duration: Duration,
    mut recorder: Option<&mut Recorder>,
) -> Result<LoopOutcome, String>
where
    I: Iterator<Item = QueryKind> + Send,
{
    let epoch = recorder.as_ref().map(|r| r.epoch());
    let barrier = Barrier::new(streams.len());
    let mut clients = Vec::new();
    for _ in &streams {
        clients.push(Client::connect(addr).map_err(|e| format!("cannot connect a client: {e}"))?);
    }
    let started = Instant::now();
    let results: Vec<(Tally, Option<Recorder>, Instant)> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(clients)
            .enumerate()
            .map(|(connection, (stream, mut client))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut own = epoch.map(Recorder::with_epoch);
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    let tally = drive(
                        &mut client,
                        stream,
                        Until::Deadline(deadline),
                        None,
                        own.as_mut(),
                        (connection as u64 + 1) << 40,
                    );
                    (tally, own, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a serve client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut ended = started;
    for (part, own, end) in results {
        tally.merge(part);
        ended = ended.max(end);
        if let (Some(r), Some(own)) = (recorder.as_mut(), own) {
            r.absorb(own);
        }
    }
    Ok(LoopOutcome {
        tally,
        elapsed: ended - started,
    })
}

/// Recomputes kept answers from scratch — an evenly spaced
/// [`CHECKED_MAX`] of them when more were kept, since each distinct root
/// costs a reference BFS — and returns how many are wrong: distances and paths against a reference BFS from the query's
/// root (a path must start at the root, end at the target, be one longer
/// than the distance and follow edges), component and core answers
/// against the sequential references.
pub fn wrong_answers(kept: &[Kept], inputs: &Inputs, references: &References) -> u64 {
    let graph = &inputs.graph;
    let mut by_root: BTreeMap<u32, Vec<&Kept>> = BTreeMap::new();
    let mut wrong = 0;
    let stride = kept.len().div_ceil(CHECKED_MAX).max(1);
    for sample in kept.iter().step_by(stride) {
        match (&sample.query, &sample.payload) {
            (QueryKind::Distance { root, .. } | QueryKind::Path { root, .. }, _) => {
                by_root.entry(*root).or_default().push(sample);
            }
            (QueryKind::Component { vertex }, QueryPayload::Component(label)) => {
                wrong += u64::from(references.labels()[*vertex as usize] != *label);
            }
            (QueryKind::Core { vertex }, QueryPayload::Core(core)) => {
                wrong += u64::from(references.cores()[*vertex as usize] != *core);
            }
            _ => wrong += 1,
        }
    }
    for (root, samples) in by_root {
        let distances = bfs_distances_reference(graph, root);
        for sample in samples {
            let right = match (&sample.query, &sample.payload) {
                (QueryKind::Distance { target, .. }, QueryPayload::Distance(answer)) => {
                    let want = distances[*target as usize];
                    *answer == (want != UNREACHED).then_some(want)
                }
                (QueryKind::Path { target, .. }, QueryPayload::Path(None)) => {
                    distances[*target as usize] == UNREACHED
                }
                (QueryKind::Path { target, .. }, QueryPayload::Path(Some(path))) => {
                    path.first() == Some(&root)
                        && path.last() == Some(target)
                        && path.len() as u64 == u64::from(distances[*target as usize]) + 1
                        && path.windows(2).all(|hop| graph.has_edge(hop[0], hop[1]))
                }
                _ => false,
            };
            wrong += u64::from(!right);
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_inputs, find_workload, QueryStream};

    #[test]
    fn a_closed_loop_answers_correctly_and_shuts_down() {
        let workload = find_workload("serve_hot", true).unwrap();
        let inputs = build_inputs(&workload, 6);
        let references = References::compute(&inputs);
        let server = ServerHandle::start(inputs.graph.clone(), 2).unwrap();
        let streams: Vec<_> = (0..2)
            .map(|c| QueryStream::new(&inputs, workload.mix, 6, c))
            .collect();
        let mut recorder = Recorder::new();
        let outcome = closed_loop(
            server.addr(),
            streams,
            Duration::from_millis(200),
            Some(&mut recorder),
        )
        .unwrap();
        let stats = Client::connect(server.addr()).unwrap().stats().unwrap();
        server.stop().unwrap();

        let tally = &outcome.tally;
        assert!(tally.attempted > 100);
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.ok, tally.attempted);
        assert_eq!(tally.rtt.len() as u64, tally.attempted);
        assert!(
            tally.rtt_spanned.len() >= 1024,
            "the first block size is exhausted"
        );
        assert!(tally.rtt_spanned.len() < tally.rtt.len() / 2, "blocks grow");
        assert!(tally.rtt_bare.len().abs_diff(tally.rtt_spanned.len()) <= 2 * 20);
        assert!(tally.hit_ratio() > 0.5);
        assert!(outcome.qps() > 0.0);
        assert!(stats.queries >= tally.attempted);
        assert!(tally.kept.len() >= 64);
        assert_eq!(wrong_answers(&tally.kept, &inputs, &references), 0);
        // A spanned query records serialise, rtt, service and parse.
        assert_eq!(recorder.spans().len() % 4, 0);
        assert!(!recorder.spans().is_empty());
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let workload = find_workload("serve_miss", true).unwrap();
        let inputs = build_inputs(&workload, 8);
        let references = References::compute(&inputs);
        let root = inputs.root_pool[0];
        let distances = bfs_distances_reference(&inputs.graph, root);
        let target = inputs.bc_sources[1];
        let right = Kept {
            query: QueryKind::Distance { root, target },
            payload: QueryPayload::Distance(Some(distances[target as usize])),
        };
        let off_by_one = Kept {
            query: QueryKind::Distance { root, target },
            payload: QueryPayload::Distance(Some(distances[target as usize] + 1)),
        };
        let teleport = Kept {
            query: QueryKind::Path { root, target },
            payload: QueryPayload::Path(Some(vec![root, target, target])),
        };
        let mislabelled = Kept {
            query: QueryKind::Component { vertex: target },
            payload: QueryPayload::Component(references.labels()[target as usize] + 1),
        };
        assert_eq!(
            wrong_answers(std::slice::from_ref(&right), &inputs, &references),
            0
        );
        assert_eq!(
            wrong_answers(
                &[right, off_by_one, teleport, mislabelled],
                &inputs,
                &references
            ),
            3
        );
    }
}
