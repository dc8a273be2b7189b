//! End-to-end concurrency tests for the query server: many client
//! threads hammering one immutable snapshot must each get answers
//! bit-identical to direct request-API runs, deadline-bounded queries
//! must degrade to well-formed partials without wedging the shared
//! pool, and malformed lines mid-stream must not take a connection
//! (or the server) down with them.

use branch_avoiding_graphs::graph::generators::{barabasi_albert, grid_2d, MeshStencil};
use branch_avoiding_graphs::graph::CsrGraph;
use branch_avoiding_graphs::kernels::bfs::INFINITY;
use branch_avoiding_graphs::obs::{
    QueryKind, QueryPayload, QueryStatus, ServeRequest, ServeResponse,
};
use branch_avoiding_graphs::parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore,
};
use branch_avoiding_graphs::parallel::{BfsStrategy, RunConfig, Variant};
use branch_avoiding_graphs::serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;

const SIDE: u32 = 12;
const N: u32 = SIDE * SIDE;
const CLIENTS: usize = 8;

fn grid() -> CsrGraph {
    grid_2d(SIDE as usize, SIDE as usize, MeshStencil::VonNeumann)
}

fn start(graph: CsrGraph, options: ServeOptions) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(graph, "127.0.0.1:0", options).expect("bind on an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = thread::spawn(move || server.serve().expect("serve until shutdown"));
    (addr, handle)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send_raw(&mut self, line: &str) -> ServeResponse {
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.writer.flush().expect("flush request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        ServeResponse::parse_line(&response).expect("parse response")
    }

    fn send(&mut self, request: &ServeRequest) -> ServeResponse {
        self.send_raw(&format!("{}\n", request.to_json_line()))
    }

    fn query(&mut self, kind: QueryKind) -> ServeResponse {
        self.send(&ServeRequest::Query {
            kind,
            variant: None,
            timeout_ms: None,
        })
    }

    fn stats(&mut self) -> branch_avoiding_graphs::obs::ServeStats {
        match self.send(&ServeRequest::Stats) {
            ServeResponse::Stats(stats) => stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }

    fn shutdown(&mut self) {
        match self.send(&ServeRequest::Shutdown) {
            ServeResponse::ShuttingDown => {}
            other => panic!("expected shutting_down, got {other:?}"),
        }
    }
}

/// The ground truth a serve answer must match bit for bit: the same
/// kernels run directly through the request API on the same graph.
struct Expected {
    distances: Vec<Vec<u32>>,
    labels: Vec<u32>,
    cores: Vec<u32>,
    scores: Vec<f64>,
}

fn expected(graph: &CsrGraph, roots: &[u32]) -> Expected {
    let config = RunConfig::new();
    let variant = Variant::BranchAvoiding;
    let distances = roots
        .iter()
        .map(|&root| {
            run_bfs(graph, root, BfsStrategy::Plain(variant), &config)
                .0
                .result
                .distances()
                .to_vec()
        })
        .collect();
    let labels = run_components(graph, variant, &config).0.labels;
    let cores = run_kcore(graph, variant, &config).0.cores;
    let scores = run_betweenness(graph, variant, None, &config).0.scores;
    Expected {
        distances,
        labels: labels.as_slice().to_vec(),
        cores: cores.as_slice().to_vec(),
        scores,
    }
}

fn bc_rank(scores: &[f64], vertex: u32) -> u32 {
    let score = scores[vertex as usize];
    scores
        .iter()
        .enumerate()
        .filter(|&(u, &s)| s > score || (s == score && (u as u32) < vertex))
        .count() as u32
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let graph = grid();
    let roots: Vec<u32> = (0..CLIENTS as u32).map(|i| (i * 19) % N).collect();
    let truth = Arc::new(expected(&graph, &roots));
    let (addr, server) = start(graph, ServeOptions::default());

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let truth = Arc::clone(&truth);
            let root = (i as u32 * 19) % N;
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..2u32 {
                    // Distance and path against this client's own root.
                    let target = (root + 31 * (round + 1)) % N;
                    let want = truth.distances[i][target as usize];
                    match client.query(QueryKind::Distance { root, target }) {
                        ServeResponse::Query {
                            status: QueryStatus::Ok,
                            payload: QueryPayload::Distance(distance),
                            ..
                        } => {
                            let want = (want != INFINITY).then_some(want);
                            assert_eq!(distance, want, "distance {root}->{target}")
                        }
                        other => panic!("bad distance response: {other:?}"),
                    }
                    match client.query(QueryKind::Path { root, target }) {
                        ServeResponse::Query {
                            payload: QueryPayload::Path(Some(path)),
                            ..
                        } => {
                            assert_eq!(path.len() as u32, want + 1, "path {root}->{target}");
                            assert_eq!(path.first(), Some(&root));
                            assert_eq!(path.last(), Some(&target));
                        }
                        other => panic!("bad path response: {other:?}"),
                    }
                    // Shared single-key kernels: every client, every round.
                    let vertex = (root + round) % N;
                    match client.query(QueryKind::Component { vertex }) {
                        ServeResponse::Query {
                            payload: QueryPayload::Component(label),
                            ..
                        } => assert_eq!(label, truth.labels[vertex as usize]),
                        other => panic!("bad component response: {other:?}"),
                    }
                    match client.query(QueryKind::Core { vertex }) {
                        ServeResponse::Query {
                            payload: QueryPayload::Core(core),
                            ..
                        } => assert_eq!(core, truth.cores[vertex as usize]),
                        other => panic!("bad core response: {other:?}"),
                    }
                    match client.query(QueryKind::BcRank { vertex }) {
                        ServeResponse::Query {
                            payload: QueryPayload::BcRank { rank, score },
                            ..
                        } => {
                            assert_eq!(rank, bc_rank(&truth.scores, vertex));
                            assert_eq!(score, truth.scores[vertex as usize]);
                        }
                        other => panic!("bad bc-rank response: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    let mut client = Client::connect(addr);
    let stats = client.stats();
    assert_eq!(stats.queries, (CLIENTS * 2 * 5) as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.partials, 0);
    // Each client's second round reuses every key its first round filled
    // (8 roots + components + cores + bc = 11 keys, under the default
    // 16-entry capacity, so nothing is evicted in between).
    assert!(
        stats.cache_hits >= (CLIENTS * 5) as u64,
        "expected at least one full round of hits, got {}",
        stats.cache_hits
    );
    assert_eq!(stats.graph_vertices, N as u64);
    client.shutdown();
    server.join().expect("server thread");
}

#[test]
fn deadline_partials_do_not_wedge_the_pool() {
    let (addr, server) = start(grid(), ServeOptions::default());
    let mut client = Client::connect(addr);

    // A zero-millisecond budget expires at the first phase boundary: the
    // response must be a well-formed partial, never cached.
    let starved = client.send(&ServeRequest::Query {
        kind: QueryKind::Distance {
            root: 0,
            target: N - 1,
        },
        variant: None,
        timeout_ms: Some(0),
    });
    match starved {
        ServeResponse::Query {
            status: QueryStatus::Partial,
            cached,
            ..
        } => assert!(!cached, "partials must not be served from cache"),
        other => panic!("expected a partial, got {other:?}"),
    }

    // The pool survives: the same query without a deadline completes,
    // and it is a cache miss because the partial was never stored.
    match client.query(QueryKind::Distance {
        root: 0,
        target: N - 1,
    }) {
        ServeResponse::Query {
            status: QueryStatus::Ok,
            payload: QueryPayload::Distance(Some(distance)),
            cached: false,
            ..
        } => assert_eq!(distance, 2 * (SIDE - 1)),
        other => panic!("expected a completed distance, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.partials, 1);
    client.shutdown();
    server.join().expect("server thread");
}

/// Deadline queries are the same traversal on the same resident pool —
/// not a private pool spun up while the resident one sits locked and
/// idle — so their fanned-out batches show up in the server's own pool
/// counters.
#[test]
fn deadline_queries_run_on_the_resident_pool() {
    // Every middle level of a power-law graph this size carries far more
    // edge slots than the fan-out grain.
    let graph = barabasi_albert(6_000, 4, 29);
    let options = ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    };
    let (addr, server) = start(graph, options);
    let mut client = Client::connect(addr);
    for root in 0..4 {
        let answer = client.send(&ServeRequest::Query {
            kind: QueryKind::Distance { root, target: 17 },
            variant: None,
            timeout_ms: Some(60_000),
        });
        assert!(
            matches!(
                answer,
                ServeResponse::Query {
                    status: QueryStatus::Ok,
                    cached: false,
                    ..
                }
            ),
            "a generous budget must complete: {answer:?}"
        );
    }
    let stats = client.stats();
    assert_eq!(stats.partials, 0);
    assert!(
        stats.pool_batches > 0,
        "deadline queries bypassed the resident pool: {stats:?}"
    );
    client.shutdown();
    server.join().expect("server thread");
}

#[test]
fn malformed_lines_mid_stream_keep_the_connection_alive() {
    let (addr, server) = start(grid(), ServeOptions::default());
    let mut client = Client::connect(addr);

    let before = client.query(QueryKind::Component { vertex: 0 });
    assert!(matches!(
        before,
        ServeResponse::Query {
            status: QueryStatus::Ok,
            ..
        }
    ));
    for garbage in ["this is not json\n", "{\"op\":\"query\"\n", "{}\n"] {
        match client.send_raw(garbage) {
            ServeResponse::Error { .. } => {}
            other => panic!("expected an error for {garbage:?}, got {other:?}"),
        }
    }
    // Same connection, same snapshot, same answer as before the garbage.
    let after = client.query(QueryKind::Component { vertex: 0 });
    match (before, after) {
        (
            ServeResponse::Query {
                payload: QueryPayload::Component(a),
                ..
            },
            ServeResponse::Query {
                status: QueryStatus::Ok,
                payload: QueryPayload::Component(b),
                ..
            },
        ) => assert_eq!(a, b),
        other => panic!("component answers diverged: {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.errors, 3);
    client.shutdown();
    server.join().expect("server thread");
}
