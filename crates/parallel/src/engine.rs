//! The reusable parallel traversal engine every kernel in this crate runs
//! on.
//!
//! Before this module existed, `bfs.rs` hand-rolled one level loop per
//! variant (plain and instrumented, top-down and direction-optimizing) and
//! `sv.rs` duplicated the sweep-until-fixpoint driver the same way. The
//! engine factors the loops out once and leaves the kernels with only the
//! part that actually differs — how one chunk of one level/sweep claims
//! its vertices:
//!
//! * [`TraversalState`] — the shared per-vertex state of a
//!   level-synchronous traversal: atomic distances, plus optional atomic
//!   shortest-path counts (σ) for Brandes betweenness centrality.
//! * [`LevelLoop`] — the level-synchronous driver. It owns queue↔bitmap
//!   frontier flipping, direction switching via [`DirectionConfig`] and
//!   chunk dispatch over the [`Execute`] seam. Kernels implement
//!   [`LevelKernel`]; the loop hands them edge-balanced chunks and
//!   concatenates their discoveries in chunk order, which is what keeps
//!   distances deterministic.
//! * [`BucketLoop`] — the bucket-synchronous driver for weighted
//!   delta-stepping: bucket-indexed frontiers of `(vertex, distance)`
//!   snapshots, light phases re-relaxed until the bucket drains, one
//!   deferred heavy pass per settled bucket. Kernels implement
//!   [`BucketKernel`] (the per-edge relaxation discipline for one
//!   [`EdgeClass`]); the loop owns filing discoveries into buckets,
//!   stale/duplicate elimination and the deterministic settled-bucket
//!   bounds.
//! * [`SweepLoop`] — the fixpoint driver for label-propagation kernels
//!   (Shiloach-Vishkin): run edge-balanced sweeps over the whole vertex
//!   range until no chunk reports a change.
//!
//! Every phase of every loop (and of the k-core peel) runs through one
//! phase step: fan the chunks out, each with a fresh [`ThreadTally`];
//! merge the tallies into a [`StepCounters`] when the phase is tallied or
//! traced; record the step, emit the [`TraceEvent::Phase`] event, and
//! call the kernel's [`PhaseHooks::phase_complete`]. The loop decides
//! once per phase whether it tallies: when the run is instrumented or
//! traced, or while the kernel asks for it
//! ([`PhaseHooks::instrumented`], an adaptive kernel still sampling).
//! Chunk methods take that decision as a `const TALLY: bool` *method*
//! parameter, so every per-edge body is compiled once with its counter
//! accounting and once without, and no kernel type carries a tally axis.
//!
//! Chunking policy: top-down levels balance on the *frontier's* degree
//! prefix sums ([`frontier_degree_prefix`]); bottom-up levels balance on
//! the degree of the *still-unvisited* vertices
//! ([`unvisited_degree_prefix`], computed as a chunked two-pass parallel
//! prefix sum by [`par_unvisited_degree_prefix`] when the executor can
//! fan out) — late levels, where the hubs are usually visited already,
//! would be badly skewed by the whole-graph split; sweeps balance on the
//! representation's degree prefix ([`AdjacencySource::degree_prefix`]).
//! All three reduce to [`balanced_prefix_ranges`] over the
//! [`Execute::parallelism`] and the configured grain.
//!
//! Every loop, context and kernel trait is generic over the graph
//! representation — [`AdjacencySource`] for the level and sweep drivers,
//! [`WeightedAdjacencySource`] for the bucket driver — so the same engine
//! runs unchanged on the `Vec` CSR and on the group-varint compressed
//! form, and produces bit-identical results on both.

use crate::auto::SwitchNotice;
use crate::bitmap::par_fill_bitmap;
use crate::cancel::{self, CancelToken, RunOutcome};
use crate::counters::{collect_run, merge_thread_steps, ThreadTally};
use crate::pool::{
    balanced_prefix_ranges, edge_balanced_ranges, effective_chunks_with_grain, even_ranges, Execute,
};
use bga_graph::{AdjacencySource, VertexId, WeightedAdjacencySource};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::bfs::frontier::Bitmap;
use bga_kernels::bfs::INFINITY;
use bga_kernels::stats::{RunCounters, StepCounters};
use bga_obs::{DecisionEvent, PhaseCounters, PhaseEvent, PhaseKind, TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Renders a kernel's [`SwitchNotice`] as the `decision` trace event,
/// anchored to the phase whose tallies completed the advisor's sample.
fn decision_event(phase: usize, notice: &SwitchNotice) -> TraceEvent {
    TraceEvent::Decision(DecisionEvent {
        phase,
        variant: notice.choice.as_str().to_string(),
        switched: notice.switched,
        sampled: notice.sampled,
        edges: notice.edges,
        updates: notice.updates,
        mispredictions: notice.mispredictions,
    })
}

/// The phase-boundary side every engine kernel shares: whether the next
/// phase must tally, and what happens once it has run.
pub trait PhaseHooks: Sync {
    /// Whether the next phase must tally even on a run that is neither
    /// instrumented nor traced. The loop tallies a phase when the run asks
    /// for counters, when a trace needs them, or when this returns `true`:
    /// an adaptive kernel ([`crate::auto::AutoSwitch`]) does so while it
    /// samples. Static kernels keep the default `false`.
    fn instrumented(&self) -> bool {
        false
    }

    /// Phase-boundary hook, called by the loop after every phase with its
    /// merged step (when one was computed). Adaptive kernels feed their
    /// advisor here and may hot-switch discipline for the following
    /// phases; the returned [`SwitchNotice`] becomes the run's `decision`
    /// trace event. Static kernels keep the default no-op.
    fn phase_complete(&self, step: Option<&StepCounters>) -> Option<SwitchNotice> {
        let _ = step;
        None
    }
}

/// Builds the `(untallied, tallied)` pair of chunk bodies
/// [`Phases::step`] picks from: `$body` is compiled twice, with `$tally`
/// bound to a `const bool` that is `false` in the first and `true` in the
/// second.
macro_rules! chunk_bodies {
    (|$range:ident, $counts:ident| $tally:ident => $body:expr) => {
        (
            |$range: ::std::ops::Range<usize>, $counts: &mut $crate::counters::ThreadTally| {
                const $tally: bool = false;
                $body
            },
            |$range: ::std::ops::Range<usize>, $counts: &mut $crate::counters::ThreadTally| {
                const $tally: bool = true;
                $body
            },
        )
    };
}
pub(crate) use chunk_bodies;

/// What one phase reports beyond its counters and wall clock: the
/// `(kind, bucket, frontier, discovered, changed)` fields of its
/// [`PhaseEvent`].
pub(crate) type PhaseShape = (PhaseKind, Option<usize>, usize, usize, Option<bool>);

/// The per-run side of every engine phase: the executor chunks fan out
/// on, the run's tally flag, the sink and cancel token, the run-wide
/// phase count and the merged steps of the tallied phases. Every loop
/// runs its phases through [`Phases::step`].
pub(crate) struct Phases<'r, E, S> {
    exec: &'r E,
    /// The run is instrumented or traced: every phase tallies.
    tally: bool,
    sink: &'r S,
    cancel: Option<&'r CancelToken>,
    /// Run-wide index of the next phase (and the count of phases done).
    next: usize,
    /// Merged counters of the tallied phases, in phase order.
    steps: Vec<StepCounters>,
}

impl<'r, E: Execute, S: TraceSink> Phases<'r, E, S> {
    /// Starts a run's phases at index `first` (non-zero when a driver
    /// runs several loops in one run, as Brandes does per source).
    pub(crate) fn new(
        exec: &'r E,
        tally: bool,
        sink: &'r S,
        cancel: Option<&'r CancelToken>,
        first: usize,
    ) -> Self {
        Phases {
            exec,
            tally,
            sink,
            cancel,
            next: first,
            steps: Vec::new(),
        }
    }

    /// The cancel check at a phase boundary, against the run-wide count
    /// of completed phases.
    pub(crate) fn stop(&self) -> Option<RunOutcome> {
        cancel::check(self.cancel, self.next)
    }

    /// Runs one phase: fans `ranges` out over the executor, each chunk on
    /// a fresh [`ThreadTally`] and on the tallied body of `bodies` when
    /// the run tallies or `kernel` asks for it; merges and records the
    /// step of a tallied phase; emits the phase event (shaped by `shape`
    /// from the chunk results and the merged step) and then the kernel's
    /// decision, if it made one. Returns the chunk results in chunk order.
    pub(crate) fn step<K, R, U, T>(
        &mut self,
        kernel: &K,
        ranges: Vec<Range<usize>>,
        (untallied, tallied): (U, T),
        shape: impl FnOnce(&[R], &StepCounters) -> PhaseShape,
    ) -> Vec<R>
    where
        K: PhaseHooks + ?Sized,
        R: Send,
        U: Fn(Range<usize>, &mut ThreadTally) -> R + Sync,
        T: Fn(Range<usize>, &mut ThreadTally) -> R + Sync,
    {
        let started = S::ENABLED.then(Instant::now);
        let tally = self.tally || kernel.instrumented();
        let outcomes = if tally {
            fan_out(self.exec, ranges, tallied)
        } else {
            fan_out(self.exec, ranges, untallied)
        };
        let index = self.next;
        self.next += 1;
        // The merged step feeds both the counter series and the trace
        // event; it is skipped entirely when neither consumer is present
        // (the hot untraced-untallied path).
        let merged = (tally || S::ENABLED)
            .then(|| merge_thread_steps(index, outcomes.iter().map(|(_, t)| t.into_step(index))));
        if tally {
            self.steps.extend(merged);
        }
        let results: Vec<R> = outcomes.into_iter().map(|(result, _)| result).collect();
        if S::ENABLED {
            let step = merged.unwrap_or_default();
            let (kind, bucket, frontier, discovered, changed) = shape(&results, &step);
            self.sink.emit(TraceEvent::Phase(PhaseEvent {
                index,
                kind,
                bucket,
                frontier,
                discovered,
                changed,
                counters: PhaseCounters::from(&step),
                wall_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
            }));
        }
        // Phase boundary: adaptive kernels may switch discipline for the
        // next phase.
        match kernel.phase_complete(merged.as_ref()) {
            Some(notice) if S::ENABLED => self.sink.emit(decision_event(index, &notice)),
            _ => {}
        }
        results
    }

    /// The merged steps as the run's counter series.
    pub(crate) fn counters(self) -> RunCounters {
        collect_run(self.steps)
    }
}

/// Runs `chunk` on every range, each with a fresh [`ThreadTally`] that is
/// returned next to the chunk's result.
fn fan_out<E: Execute, R: Send>(
    exec: &E,
    ranges: Vec<Range<usize>>,
    chunk: impl Fn(Range<usize>, &mut ThreadTally) -> R + Sync,
) -> Vec<(R, ThreadTally)> {
    exec.run(ranges, |_chunk, range| {
        let mut tally = ThreadTally::default();
        (chunk(range, &mut tally), tally)
    })
}

/// Traversal direction one level ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The frontier pushed outwards (paper Algorithms 4/5).
    TopDown,
    /// Unvisited vertices pulled from the frontier bitmap.
    BottomUp,
}

/// Shared per-vertex state of a level-synchronous traversal: the atomic
/// distance array every kernel updates, plus an optional atomic
/// shortest-path-count (σ) array for betweenness centrality. Allocated
/// once and reusable across runs via [`TraversalState::reset`], which is
/// what makes an all-sources Brandes accumulation allocation-free per
/// source.
pub struct TraversalState {
    distances: Vec<AtomicU32>,
    sigma: Option<Vec<AtomicU64>>,
}

impl TraversalState {
    /// Distance-only state over `n` vertices, all unreached.
    pub fn new(n: usize) -> Self {
        TraversalState {
            distances: (0..n).map(|_| AtomicU32::new(INFINITY)).collect(),
            sigma: None,
        }
    }

    /// State carrying shortest-path counts as well, for Brandes-style
    /// kernels.
    pub fn with_sigma(n: usize) -> Self {
        TraversalState {
            sigma: Some((0..n).map(|_| AtomicU64::new(0)).collect()),
            ..TraversalState::new(n)
        }
    }

    /// State seeded from an existing distance vector — the resume path:
    /// the partial distances an interrupted run left behind become the
    /// starting upper bounds of the resumed one.
    pub fn from_distances(distances: &[u32]) -> Self {
        TraversalState {
            distances: distances.iter().copied().map(AtomicU32::new).collect(),
            sigma: None,
        }
    }

    /// Number of vertices the state covers.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// True when the state covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }

    /// The atomic distance array (`INFINITY` = unreached).
    pub fn distances(&self) -> &[AtomicU32] {
        &self.distances
    }

    /// The atomic shortest-path-count array, if this state carries one.
    pub fn sigma(&self) -> Option<&[AtomicU64]> {
        self.sigma.as_deref()
    }

    /// Marks `root` as the traversal origin: distance 0, one shortest
    /// path. Called by [`LevelLoop::run`]; `root` must be in range.
    pub fn init_root(&self, root: VertexId) {
        self.distances[root as usize].store(0, Relaxed);
        if let Some(sigma) = &self.sigma {
            sigma[root as usize].store(1, Relaxed);
        }
    }

    /// Returns the state to "every vertex unreached" without reallocating
    /// (plain stores through `&mut self` — no atomic traffic).
    pub fn reset(&mut self) {
        for d in &mut self.distances {
            *d.get_mut() = INFINITY;
        }
        if let Some(sigma) = &mut self.sigma {
            for s in sigma {
                *s.get_mut() = 0;
            }
        }
    }

    /// Consumes the state into a plain distance vector.
    pub fn into_distances(self) -> Vec<u32> {
        self.distances
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect()
    }
}

/// Read-only per-level context handed to [`LevelKernel`] chunk methods.
pub struct LevelCtx<'a, G: AdjacencySource> {
    /// The graph being traversed — any [`AdjacencySource`], so the same
    /// kernels run on the `Vec` CSR and the compressed representation.
    pub graph: &'a G,
    /// Shared traversal state (distances, optional σ).
    pub state: &'a TraversalState,
    /// The level being discovered by this expansion (root is level 0, the
    /// first expansion writes level 1).
    pub next_level: u32,
}

/// How one kernel expands a single chunk of a level. Implementations
/// supply the per-edge claim discipline (CAS vs `fetch_min`, σ
/// accumulation, …); [`LevelLoop`] supplies everything around it. The
/// trait is generic over the graph representation: kernels iterate
/// neighbours through [`AdjacencySource::neighbor_cursor`], so one
/// `impl<G: AdjacencySource> LevelKernel<G>` covers both the `Vec` CSR
/// and the compressed group-varint form. With `TALLY` a chunk accounts
/// its operations into `tally`; without it the accounting compiles out.
pub trait LevelKernel<G: AdjacencySource>: PhaseHooks {
    /// Expand the top-down chunk `frontier[range]` at
    /// [`LevelCtx::next_level`], returning the vertices this chunk
    /// discovered. `chunk_edges` is the number of adjacency slots the
    /// chunk owns (for sizing write-past-the-end buffers).
    fn top_down_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId>;

    /// Claim the bottom-up vertex chunk `range`: every still-unvisited
    /// vertex scans its neighbours for a parent in `in_frontier`. The
    /// default is the BFS claim, [`bottom_up_claim`]; kernels whose state
    /// goes beyond distances must override this or pin the direction to
    /// top-down via their [`DirectionConfig`].
    fn bottom_up_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        in_frontier: &Bitmap,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        bottom_up_claim::<G, TALLY>(ctx, in_frontier, range, tally)
    }
}

/// The standard bottom-up claim: each still-unvisited vertex in `range`
/// scans its neighbours until it finds one in `in_frontier`, then adopts
/// [`LevelCtx::next_level`]. Discoveries are race-free (each vertex
/// belongs to exactly one chunk), so concatenating chunk results yields
/// the next frontier in ascending vertex order.
///
/// The untallied path walks the chunk **word-at-a-time**: for each block
/// of 64 vertices it builds an unvisited mask with branch-free predicated
/// ORs (one `u64::from(d == INFINITY) << bit` per vertex — no
/// data-dependent branch, and a pattern autovectorizers turn into SIMD
/// compares), then iterates the mask's set bits with
/// `u64::trailing_zeros` / clear-lowest-bit. Visited-heavy late levels
/// skip 64 vertices per `mask == 0` test instead of taking one
/// unpredictable visited-branch per vertex. Bits are consumed in
/// ascending order, so discoveries — and with them the frontier and every
/// downstream distance — are bit-identical to the per-vertex scan.
///
/// With `TALLY` the claim keeps the original per-vertex loop and accounts
/// for its work: one load and a data-dependent visited test per scanned
/// vertex, one load plus a data-dependent frontier-membership test per
/// neighbour probe, and two stores (distance + queue slot) per discovery
/// — the accounting the instrumented direction-optimizing BFS reports for
/// its bottom-up levels.
pub fn bottom_up_claim<G: AdjacencySource, const TALLY: bool>(
    ctx: &LevelCtx<'_, G>,
    in_frontier: &Bitmap,
    range: Range<usize>,
    tally: &mut ThreadTally,
) -> Vec<VertexId> {
    let distances = ctx.state.distances();
    let mut local = Vec::new();
    if !TALLY {
        // Word-at-a-time scan over 64-vertex blocks of the chunk.
        let mut v = range.start;
        while v < range.end {
            let block = v & !63;
            let hi = (block + 64).min(range.end);
            let mut unvisited = 0u64;
            for (u, d) in distances.iter().enumerate().take(hi).skip(v) {
                unvisited |= u64::from(d.load(Relaxed) == INFINITY) << (u - block);
            }
            while unvisited != 0 {
                let u = block + unvisited.trailing_zeros() as usize;
                unvisited &= unvisited - 1;
                for w in ctx.graph.neighbor_cursor(u as VertexId) {
                    if in_frontier.get(w as usize) {
                        distances[u].store(ctx.next_level, Relaxed);
                        local.push(u as VertexId);
                        break;
                    }
                }
            }
            v = hi;
        }
        return local;
    }
    for v in range {
        tally.loads += 1;
        tally.branches += 2; // loop bound + visited test
        tally.data_branches += 1;
        if distances[v].load(Relaxed) != INFINITY {
            continue;
        }
        tally.vertices += 1;
        for u in ctx.graph.neighbor_cursor(v as VertexId) {
            tally.edges += 1;
            tally.loads += 1;
            tally.branches += 2; // neighbour-loop bound + frontier test
            tally.data_branches += 1;
            if in_frontier.get(u as usize) {
                distances[v].store(ctx.next_level, Relaxed);
                tally.stores += 2; // distance + queue slot
                tally.updates += 1;
                local.push(v as VertexId);
                break;
            }
        }
    }
    local
}

/// Degree prefix sums of a frontier: `prefix[i]` = adjacency slots owned
/// by `frontier[..i]`. Input to the edge-balanced chunker for top-down
/// levels and for the betweenness back-sweep's per-level slices.
pub fn frontier_degree_prefix<G: AdjacencySource>(graph: &G, frontier: &[VertexId]) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(frontier.len() + 1);
    let mut sum = 0usize;
    prefix.push(0);
    for &v in frontier {
        sum += graph.degree(v);
        prefix.push(sum);
    }
    prefix
}

/// Degree prefix sums restricted to *unvisited* vertices: `prefix[v]` =
/// adjacency slots owned by still-unvisited vertices `0..v`. The
/// bottom-up chunker balances on this instead of the whole-graph offsets
/// array, so a level late in the traversal — where the hubs are usually
/// visited already — still splits its remaining scan work evenly. The
/// accumulation is branch-free (visited vertices contribute zero weight),
/// and the result is deterministic because distances are.
pub fn unvisited_degree_prefix<G: AdjacencySource>(
    graph: &G,
    distances: &[AtomicU32],
) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(graph.num_vertices() + 1);
    let mut sum = 0usize;
    prefix.push(0);
    for (v, distance) in distances.iter().enumerate() {
        sum += graph.degree(v as VertexId) * usize::from(distance.load(Relaxed) == INFINITY);
        prefix.push(sum);
    }
    prefix
}

/// Shared output buffer for the chunked prefix-sum: every chunk writes a
/// disjoint index range, so plain (non-atomic) writes through the raw
/// pointer are race-free.
struct DisjointPrefixWriter(*mut usize);

// SAFETY: chunks write disjoint index ranges (the `even_ranges` tiling),
// and `Execute::run` guarantees every closure invocation returns before
// the buffer is read.
unsafe impl Sync for DisjointPrefixWriter {}

impl DisjointPrefixWriter {
    /// # Safety
    /// `index` must be in bounds and owned by exactly one chunk.
    unsafe fn write(&self, index: usize, value: usize) {
        *self.0.add(index) = value;
    }
}

/// [`unvisited_degree_prefix`] computed as a chunked two-pass prefix sum
/// over the [`Execute`] seam: pass one reduces each vertex chunk to its
/// unvisited-degree total, a (chunk-count-sized) sequential scan turns the
/// totals into per-chunk offsets, and pass two has every chunk fill its
/// disjoint slice of the output. Falls back to the sequential
/// single-pass accumulation when the executor has no parallelism or the
/// graph is below the grain — the O(n)-per-level sequential wall the
/// bottom-up chunker used to pay only falls on runs that can actually
/// fan out.
///
/// The caller must guarantee `distances` has no concurrent writers for
/// the duration of the call (the level loop computes the prefix between
/// level barriers, where that holds by construction); both passes then
/// observe identical values and the result is bit-identical to the
/// sequential accumulation.
pub fn par_unvisited_degree_prefix<G: AdjacencySource, E: Execute>(
    graph: &G,
    distances: &[AtomicU32],
    exec: &E,
    grain: usize,
) -> Vec<usize> {
    let n = graph.num_vertices();
    let chunks = effective_chunks_with_grain(n, exec.parallelism(), grain);
    if exec.parallelism() == 1 || chunks <= 1 {
        return unvisited_degree_prefix(graph, distances);
    }
    let weight = |v: usize| {
        graph.degree(v as VertexId) * usize::from(distances[v].load(Relaxed) == INFINITY)
    };
    let ranges = even_ranges(n, chunks);
    // Pass 1: reduce every chunk to its total unvisited degree.
    let totals: Vec<usize> = exec.run(ranges.clone(), |_chunk, range| range.map(weight).sum());
    // Sequential scan over the (tiny) per-chunk totals.
    let mut offsets = Vec::with_capacity(totals.len());
    let mut running = 0usize;
    for total in &totals {
        offsets.push(running);
        running += total;
    }
    // Pass 2: every chunk fills its disjoint slice of the output.
    let mut prefix = vec![0usize; n + 1];
    let writer = DisjointPrefixWriter(prefix.as_mut_ptr());
    let (writer_ref, offsets_ref) = (&writer, &offsets);
    exec.run(ranges, move |chunk, range| {
        let mut sum = offsets_ref[chunk];
        for v in range {
            sum += weight(v);
            // SAFETY: chunk ranges tile `0..n`, so the written indices
            // `range.start + 1 ..= range.end` are disjoint across chunks
            // and in bounds of the `n + 1`-element buffer; index 0 is the
            // pre-initialised leading zero no chunk touches.
            unsafe { writer_ref.write(v + 1, sum) };
        }
    });
    prefix
}

/// Everything a finished [`LevelLoop::run`] reports besides the distances
/// (which live in the [`TraversalState`] the caller handed in).
#[derive(Clone, Debug)]
pub struct LevelRun {
    /// Vertices in discovery order, root first. Level-monotone: each
    /// level's discoveries are contiguous.
    pub order: Vec<VertexId>,
    /// Contiguous ranges of `order` holding each level's vertices
    /// (`level_bounds[l]` spans the vertices at distance `l`, starting
    /// with `0..1` for the root). The betweenness back-sweep walks these
    /// in reverse.
    pub level_bounds: Vec<Range<usize>>,
    /// Direction of each expansion step (one per level whose frontier
    /// was non-empty, starting with the root's own expansion).
    pub directions: Vec<Direction>,
    /// Per-level counters merged across chunks: every level of an
    /// instrumented or traced run, the levels an adaptive kernel sampled,
    /// nothing otherwise.
    pub counters: RunCounters,
}

/// The level-synchronous driver: owns frontier flipping between the queue
/// (top-down) and bitmap (bottom-up) representations, direction switching
/// via [`DirectionConfig`] and chunk dispatch over [`Execute`]. Kernels
/// only see one chunk at a time.
pub struct LevelLoop<'a, G: AdjacencySource, E: Execute> {
    graph: &'a G,
    exec: &'a E,
    grain: usize,
    tally: bool,
    config: DirectionConfig,
    first_phase: usize,
}

impl<'a, G: AdjacencySource, E: Execute> LevelLoop<'a, G, E> {
    /// A level loop over `graph` on `exec`, fanning a level out only when
    /// it carries at least `grain` weight units, tallying every level when
    /// `tally` is set (an instrumented or traced run), switching
    /// directions per `config` (use [`DirectionConfig::always_top_down`]
    /// for classic top-down traversals).
    pub fn new(
        graph: &'a G,
        exec: &'a E,
        grain: usize,
        tally: bool,
        config: DirectionConfig,
    ) -> Self {
        LevelLoop {
            graph,
            exec,
            grain,
            tally,
            config,
            first_phase: 0,
        }
    }

    /// This loop with its phases numbered from `first`: a driver that runs
    /// one traversal per source (Brandes) keeps the run's phase indices,
    /// and the cancel token's phase budget, counting across sources.
    pub(crate) fn starting_at(&self, first: usize) -> Self {
        LevelLoop {
            first_phase: first,
            ..*self
        }
    }

    /// Runs the traversal from `root`. The caller provides the state
    /// (already reset); the loop initialises the root, expands level by
    /// level until the frontier empties, and reports order, level
    /// boundaries, directions and the merged counters of the tallied
    /// levels. A root outside the vertex range yields an empty run, as in
    /// the sequential kernels.
    ///
    /// Distances are deterministic for every executor and grain: within a
    /// level every contender writes the same value, and the switching
    /// heuristic sees deterministic frontier sizes.
    ///
    /// `sink` observes the traversal: one [`TraceEvent::Phase`] per
    /// expansion, carrying the direction the level ran in, the frontier
    /// size it expanded, how many vertices it discovered, the merged step
    /// counters (all-zero for untallied levels) and the wall-clock time
    /// of the expansion. Every emission site is guarded by the sink's
    /// [`TraceSink::ENABLED`] constant, so with a [`bga_obs::NoopSink`]
    /// the seam compiles out and the results are bit-identical.
    ///
    /// `cancel`, when given, is checked at every level boundary. An
    /// interrupted run returns the levels it completed — the distances in
    /// `state` are valid monotone upper bounds, `order` / `level_bounds`
    /// cover exactly the levels that finished and phase events were
    /// emitted for those levels only — together with the [`RunOutcome`]
    /// saying why it stopped; the caller's `run-end` trailer marks the
    /// interruption.
    pub fn run<K: LevelKernel<G>, S: TraceSink>(
        &self,
        state: &TraversalState,
        root: VertexId,
        kernel: &K,
        sink: &S,
        cancel: Option<&CancelToken>,
    ) -> (LevelRun, RunOutcome) {
        let n = self.graph.num_vertices();
        let threads = self.exec.parallelism();
        if (root as usize) >= n {
            let run = LevelRun {
                order: Vec::new(),
                level_bounds: Vec::new(),
                directions: Vec::new(),
                counters: RunCounters::default(),
            };
            return (run, RunOutcome::Completed);
        }
        state.init_root(root);
        let mut phases = Phases::new(self.exec, self.tally, sink, cancel, self.first_phase);
        let mut frontier = vec![root];
        let mut order = vec![root];
        // (`once(..).collect()` rather than `vec![0..1]`, which clippy
        // reads as a possible attempt to collect the range's elements.)
        let mut level_bounds: Vec<Range<usize>> = std::iter::once(0..1).collect();
        let mut next_level = 0u32;
        let mut bottom_up = false;
        let mut directions = Vec::new();
        // One bitmap allocation reused (cleared) across bottom-up levels.
        let mut in_frontier = Bitmap::new(n);
        let mut outcome = RunOutcome::Completed;

        while !frontier.is_empty() {
            // Level boundary: every completed level's distance writes are
            // fully published, so stopping here leaves the state a valid
            // set of monotone upper bounds.
            if let Some(stop) = phases.stop() {
                outcome = stop;
                break;
            }
            let frontier_fraction = frontier.len() as f64 / n.max(1) as f64;
            if !bottom_up && frontier_fraction > self.config.to_bottom_up {
                bottom_up = true;
            } else if bottom_up && frontier_fraction < self.config.to_top_down {
                bottom_up = false;
            }
            let (direction, kind) = if bottom_up {
                (Direction::BottomUp, PhaseKind::BottomUp)
            } else {
                (Direction::TopDown, PhaseKind::TopDown)
            };
            directions.push(direction);

            next_level += 1;
            let ctx = &LevelCtx {
                graph: self.graph,
                state,
                next_level,
            };
            let expanded = frontier.len();
            let shape = |found: &[Vec<VertexId>], _: &StepCounters| {
                let discovered = found.iter().map(Vec::len).sum();
                (kind, None, expanded, discovered, None)
            };
            let found = if bottom_up {
                // Flip the queue frontier into the shared bitmap, then let
                // every chunk of still-unvisited vertices pull from it.
                in_frontier.clear();
                let fill_chunks = effective_chunks_with_grain(frontier.len(), threads, self.grain);
                par_fill_bitmap(self.exec, &in_frontier, &frontier, fill_chunks);
                // Between-level barrier: no distance writes are in flight,
                // so the two-pass parallel prefix sees stable values.
                let prefix = par_unvisited_degree_prefix(
                    self.graph,
                    state.distances(),
                    self.exec,
                    self.grain,
                );
                let chunks =
                    effective_chunks_with_grain(*prefix.last().unwrap_or(&0), threads, self.grain);
                let ranges = balanced_prefix_ranges(&prefix, chunks);
                let bitmap = &in_frontier;
                let bodies = chunk_bodies!(|range, tally| TALLY => {
                    kernel.bottom_up_chunk::<TALLY>(ctx, bitmap, range, tally)
                });
                phases.step(kernel, ranges, bodies, shape)
            } else {
                let prefix = &frontier_degree_prefix(self.graph, &frontier);
                let chunks =
                    effective_chunks_with_grain(*prefix.last().unwrap_or(&0), threads, self.grain);
                let ranges = balanced_prefix_ranges(prefix, chunks);
                let queue = &frontier;
                let bodies = chunk_bodies!(|range, tally| TALLY => {
                    let chunk_edges = prefix[range.end] - prefix[range.start];
                    kernel.top_down_chunk::<TALLY>(ctx, queue, range, chunk_edges, tally)
                });
                phases.step(kernel, ranges, bodies, shape)
            };
            let start = order.len();
            frontier = found.into_iter().flatten().collect();
            order.extend_from_slice(&frontier);
            if !frontier.is_empty() {
                level_bounds.push(start..order.len());
            }
        }
        let run = LevelRun {
            order,
            level_bounds,
            directions,
            counters: phases.counters(),
        };
        (run, outcome)
    }
}

/// Which edge class one bucket relaxation pass covers: delta-stepping
/// relaxes *light* edges (weight ≤ `Δ`) in repeated phases while a bucket
/// drains, and *heavy* edges (weight > `Δ`) exactly once per settled
/// vertex after it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeClass {
    /// Weight ≤ `Δ`: may refill the current bucket, re-relaxed per phase.
    Light,
    /// Weight > `Δ`: always lands in a strictly later bucket, relaxed once.
    Heavy,
}

/// Read-only per-pass context handed to [`BucketKernel`] chunk methods.
pub struct BucketCtx<'a, W: WeightedAdjacencySource> {
    /// The weighted graph being relaxed over — any
    /// [`WeightedAdjacencySource`], so the same kernels run on the
    /// parallel-array CSR and the compressed representation.
    pub graph: &'a W,
    /// Shared traversal state (atomic distances).
    pub state: &'a TraversalState,
    /// The bucket width `Δ` (≥ 1) splitting light from heavy edges.
    pub delta: u32,
}

/// How one kernel relaxes a single chunk of one bucket pass.
/// Implementations supply the per-edge relaxation discipline
/// (unconditional `fetch_min` with a predicated enqueue vs test-and-CAS);
/// [`BucketLoop`] supplies everything around it: batch formation with
/// stale/duplicate elimination, frontier snapshots, chunk dispatch, filing
/// discoveries into buckets and settled-order bookkeeping. With `TALLY`
/// a chunk accounts its operations into `tally`.
pub trait BucketKernel<W: WeightedAdjacencySource>: PhaseHooks {
    /// Relax the `class` edges of `frontier[range]`, returning every
    /// vertex whose distance this chunk improved (the loop re-reads the
    /// improved distances between passes and files each discovery into its
    /// bucket). Each frontier entry is a `(vertex, distance)` snapshot
    /// taken at batch formation; kernels must relax from the snapshot, not
    /// from a fresh load, so a phase's relaxations are a pure function of
    /// its frontier and the phase structure stays identical across thread
    /// counts. `chunk_edges` is the number of adjacency slots the chunk
    /// owns (for sizing write-past-the-end buffers).
    fn relax_chunk<const TALLY: bool>(
        &self,
        ctx: &BucketCtx<'_, W>,
        frontier: &[(VertexId, u32)],
        range: Range<usize>,
        chunk_edges: usize,
        class: EdgeClass,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId>;
}

/// Everything a finished [`BucketLoop::run`] reports besides the distances
/// (which live in the [`TraversalState`] the caller handed in).
#[derive(Clone, Debug)]
pub struct BucketRun {
    /// Vertices in settle order, source first. Bucket-monotone and
    /// duplicate-free: each settled bucket's vertices are contiguous, and
    /// the order is identical for every executor, thread count and grain
    /// (frontiers are sorted snapshots of deterministic sets).
    pub order: Vec<VertexId>,
    /// For each bucket that settled at least one vertex, its index and the
    /// contiguous range of [`BucketRun::order`] holding its vertices.
    pub bucket_bounds: Vec<(usize, Range<usize>)>,
    /// Total relaxation phases: light phases (one per non-empty batch of a
    /// draining bucket) plus heavy passes that improved at least one
    /// distance. Deterministic across executors, thread counts and grains.
    pub phases: usize,
    /// How many of [`BucketRun::phases`] were heavy passes.
    pub heavy_phases: usize,
    /// Per-phase counters merged across chunks, for the tallied passes
    /// (as [`LevelRun::counters`]).
    pub counters: RunCounters,
}

/// The bucket-synchronous driver for weighted delta-stepping: owns the
/// bucket-indexed pending queues, batch formation (stale and duplicate
/// copies eliminated, frontier sorted), light-phase re-relaxation until
/// the bucket drains, the deferred heavy pass per settled bucket and
/// chunk dispatch over [`Execute`]. Kernels only see one chunk of one
/// `(frontier, edge class)` pass at a time.
///
/// Determinism: a phase's relaxations are a pure function of its frontier
/// snapshot, so the set of vertices improved per phase — and with it every
/// frontier, the settle order, the phase count and the final distances —
/// is identical for every executor, thread count and grain. (How many
/// duplicate claims the chunks report may vary; the loop's filing
/// deduplicates them.)
pub struct BucketLoop<'a, W: WeightedAdjacencySource, E: Execute> {
    graph: &'a W,
    exec: &'a E,
    grain: usize,
    tally: bool,
    delta: u32,
}

impl<'a, W: WeightedAdjacencySource, E: Execute> BucketLoop<'a, W, E> {
    /// A bucket loop over `graph` on `exec` with bucket width `delta`
    /// (clamped to ≥ 1), fanning a pass out only when it carries at least
    /// `grain` weight units and tallying every pass when `tally` is set.
    pub fn new(graph: &'a W, exec: &'a E, grain: usize, tally: bool, delta: u32) -> Self {
        BucketLoop {
            graph,
            exec,
            grain,
            tally,
            delta: delta.max(1),
        }
    }

    /// Runs weighted delta-stepping from `source`. The caller provides the
    /// state (already reset); the loop initialises the source and settles
    /// buckets in ascending order until every pending queue is empty. A
    /// source outside the vertex range yields an empty run, as in the
    /// sequential kernels.
    ///
    /// `sink` observes the bucket schedule: one [`TraceEvent::Phase`] per
    /// dispatched pass — [`PhaseKind::Light`] or [`PhaseKind::Heavy`],
    /// tagged with the bucket index — carrying the pass's frontier size,
    /// the number of *distinct* vertices it improved (deterministic,
    /// unlike raw claim counts), the merged step counters and the pass's
    /// wall-clock time. Non-improving heavy passes emit an event (they ran
    /// and cost time) even though [`BucketRun::phases`] does not count
    /// them. With a [`bga_obs::NoopSink`] the seam compiles out.
    ///
    /// `cancel`, when given, is checked before every dispatched pass. An
    /// interrupted run returns only the fully settled buckets in `order` /
    /// `bucket_bounds` (a bucket cut mid-drain is dropped from the settle
    /// order — its distances may still improve), while the distances in
    /// `state` remain valid monotone upper bounds for *every* vertex
    /// touched so far.
    ///
    /// With `resume` the state is taken as is instead of freshly reset:
    /// every vertex with a finite distance is re-filed as pending in the
    /// bucket of that distance, and the loop runs to convergence from
    /// there. Because the branch-avoiding relaxation is a monotone
    /// idempotent `fetch_min`, resuming from any valid upper-bound state —
    /// in particular the state an interrupted run left behind — converges
    /// to distances bit-identical to an uninterrupted run. (The settle
    /// order restarts from the resume point and is not comparable to the
    /// uninterrupted order.)
    pub fn run<K: BucketKernel<W>, S: TraceSink>(
        &self,
        state: &TraversalState,
        source: VertexId,
        kernel: &K,
        sink: &S,
        cancel: Option<&CancelToken>,
        resume: bool,
    ) -> (BucketRun, RunOutcome) {
        let n = self.graph.num_vertices();
        let delta = self.delta;
        let mut run = BucketRun {
            order: Vec::new(),
            bucket_bounds: Vec::new(),
            phases: 0,
            heavy_phases: 0,
            counters: RunCounters::default(),
        };
        if (source as usize) >= n {
            return (run, RunOutcome::Completed);
        }
        state.init_root(source);
        let distances = state.distances();
        let has_heavy = self.graph.max_weight().unwrap_or(1) > delta;
        // Pending copies per bucket, kept *sparse* (keyed by index, not
        // dense-indexed): memory scales with the pending entries and
        // stepping to the next non-empty bucket is a map lookup, so one
        // huge file-supplied weight cannot allocate or sweep billions of
        // empty buckets. A vertex may be filed several times (each
        // improvement files a copy); formation keeps only the live,
        // not-yet-expanded-at-this-distance one.
        let mut buckets: std::collections::BTreeMap<usize, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        if resume {
            // Re-file *every* finite-distance vertex as pending, not just
            // the frontier an interrupted run would have kept: a vertex
            // whose distance is already optimal still has to re-relax its
            // out-edges, because its neighbours' bounds may predate it.
            for (v, distance) in distances.iter().enumerate() {
                let d = distance.load(Relaxed);
                if d != INFINITY {
                    buckets
                        .entry((d / delta) as usize)
                        .or_default()
                        .push(v as VertexId);
                }
            }
        } else {
            buckets.insert(0, vec![source]);
        }
        // Distance at which each vertex was last expanded (`INFINITY` =
        // never): lets a within-bucket improvement re-expand the vertex
        // while same-distance duplicate copies are dropped.
        let mut expanded_at = vec![INFINITY; n];
        // Whether the vertex has already been recorded in the settle order.
        let mut settled = vec![false; n];
        // Counts dispatched passes, apart from `run.phases`: a
        // non-improving heavy pass emits a trace event but is not a
        // relaxation phase.
        let mut phases = Phases::new(self.exec, self.tally, sink, cancel, 0);
        let ctx = BucketCtx {
            graph: self.graph,
            state,
            delta,
        };

        let mut outcome = RunOutcome::Completed;
        'buckets: while let Some((&index, _)) = buckets.first_key_value() {
            let bucket_start = run.order.len();
            // Phase loop: light relaxations out of bucket `index` may
            // refill it, so keep draining until it stays empty.
            while let Some(pending) = buckets.remove(&index) {
                // Pass boundary: all prior distance writes are published.
                // A bucket cut mid-drain is not settled, so its vertices
                // are dropped from the reported order (their distances may
                // still improve); the distance state itself stays valid.
                if let Some(stop) = phases.stop() {
                    outcome = stop;
                    run.order.truncate(bucket_start);
                    break 'buckets;
                }
                let mut frontier: Vec<(VertexId, u32)> = Vec::new();
                for v in pending {
                    let d = distances[v as usize].load(Relaxed);
                    // Stale copy: v improved into an earlier bucket after
                    // this copy was filed; its live copy settles it there.
                    if (d / delta) as usize != index {
                        continue;
                    }
                    // Duplicate copy: v was already expanded at exactly
                    // this distance (several chunks claimed the same
                    // improvement, or claims from different phases landed
                    // in the same bucket).
                    if expanded_at[v as usize] == d {
                        continue;
                    }
                    expanded_at[v as usize] = d;
                    frontier.push((v, d));
                }
                if frontier.is_empty() {
                    continue;
                }
                // The pending *set* is deterministic but its order is not
                // (chunks race for claims); sorting restores a canonical
                // frontier, which makes chunking — and the tallies — stable
                // across runs too. The settle order must be recorded from
                // the *sorted* frontier for the same reason: pending order
                // leaks the duplicate-claim races.
                frontier.sort_unstable();
                for &(v, _) in &frontier {
                    if !settled[v as usize] {
                        settled[v as usize] = true;
                        run.order.push(v);
                    }
                }
                let found = self.pass(
                    &mut phases,
                    kernel,
                    &ctx,
                    &frontier,
                    EdgeClass::Light,
                    index,
                );
                run.phases += 1;
                file_discoveries(&found, distances, delta, &mut buckets);
            }
            // Heavy pass: every vertex this bucket settled relaxes its
            // heavy edges once, at its now-final distance.
            if has_heavy && run.order.len() > bucket_start {
                let frontier: Vec<(VertexId, u32)> = run.order[bucket_start..]
                    .iter()
                    .map(|&v| (v, distances[v as usize].load(Relaxed)))
                    .collect();
                let found = self.pass(
                    &mut phases,
                    kernel,
                    &ctx,
                    &frontier,
                    EdgeClass::Heavy,
                    index,
                );
                // A heavy pass that improved nothing is bookkeeping, not a
                // relaxation phase (discovery emptiness is deterministic
                // even though duplicate claim counts are not).
                if found.iter().any(|chunk| !chunk.is_empty()) {
                    run.phases += 1;
                    run.heavy_phases += 1;
                }
                file_discoveries(&found, distances, delta, &mut buckets);
            }
            if run.order.len() > bucket_start {
                run.bucket_bounds
                    .push((index, bucket_start..run.order.len()));
            }
            // Every remaining entry targets a strictly later bucket
            // (weights are positive and buckets below `index` are
            // settled), so the next `first_key_value` advances
            // monotonically.
        }
        run.counters = phases.counters();
        (run, outcome)
    }

    /// Runs one `(frontier, edge class)` pass of bucket `bucket` as a
    /// phase. Returns the per-chunk discovery lists in chunk order.
    fn pass<K: BucketKernel<W>, S: TraceSink>(
        &self,
        phases: &mut Phases<'_, E, S>,
        kernel: &K,
        ctx: &BucketCtx<'_, W>,
        frontier: &[(VertexId, u32)],
        class: EdgeClass,
        bucket: usize,
    ) -> Vec<Vec<VertexId>> {
        // Balance on the frontier's degree prefix (all edge slots — the
        // class split is per-edge work the kernel skips cheaply).
        let mut prefix = Vec::with_capacity(frontier.len() + 1);
        let mut sum = 0usize;
        prefix.push(0);
        for &(v, _) in frontier {
            sum += self.graph.degree(v);
            prefix.push(sum);
        }
        let chunks = effective_chunks_with_grain(sum, self.exec.parallelism(), self.grain);
        let ranges = balanced_prefix_ranges(&prefix, chunks);
        let prefix = &prefix;
        let bodies = chunk_bodies!(|range, tally| TALLY => {
            let chunk_edges = prefix[range.end] - prefix[range.start];
            kernel.relax_chunk::<TALLY>(ctx, frontier, range, chunk_edges, class, tally)
        });
        let kind = match class {
            EdgeClass::Light => PhaseKind::Light,
            EdgeClass::Heavy => PhaseKind::Heavy,
        };
        phases.step(kernel, ranges, bodies, |found, _| {
            // Distinct improved vertices: the improved *set* is a pure
            // function of the frontier snapshot (chunks merely race for
            // duplicate claims of the same improvement), so the deduped
            // count is deterministic where the raw claim total is not.
            let mut improved: Vec<VertexId> = found.iter().flatten().copied().collect();
            improved.sort_unstable();
            improved.dedup();
            (kind, Some(bucket), frontier.len(), improved.len(), None)
        })
    }
}

/// Files every discovered vertex into the bucket of its *current*
/// distance (re-read after the pass barrier, so later claims within the
/// same pass route the vertex to its best-known bucket). Claims are only
/// made on strict improvements, so the distance is finite.
fn file_discoveries(
    found: &[Vec<VertexId>],
    distances: &[AtomicU32],
    delta: u32,
    buckets: &mut std::collections::BTreeMap<usize, Vec<VertexId>>,
) {
    for &v in found.iter().flatten() {
        let bucket = (distances[v as usize].load(Relaxed) / delta) as usize;
        buckets.entry(bucket).or_default().push(v);
    }
}

/// How one kernel processes a single vertex chunk of one sweep. The
/// kernel owns its label state (typically a borrowed `&[AtomicU32]`);
/// [`SweepLoop`] owns the chunking and the fixpoint detection. With
/// `TALLY` a chunk accounts its operations into `tally`.
pub trait SweepKernel<G: AdjacencySource>: PhaseHooks {
    /// Process the vertex chunk `range` of one sweep; return whether this
    /// chunk changed anything (drives fixpoint detection).
    ///
    /// Contract: within one sweep every vertex lies in exactly one chunk,
    /// and the next sweep starts only after every chunk of this one has
    /// returned. The per-vertex state of `range` is therefore written by
    /// this call alone; the Shiloach-Vishkin kernels rely on that to
    /// update labels with plain `Relaxed` stores.
    fn sweep_chunk<const TALLY: bool>(
        &self,
        graph: &G,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> bool;
}

/// Result of a [`SweepLoop`] run.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Number of sweeps executed, including the final fixpoint-check
    /// sweep that changed nothing.
    pub sweeps: usize,
    /// Per-sweep counters merged across chunks, for the tallied sweeps
    /// (as [`LevelRun::counters`]).
    pub counters: RunCounters,
}

/// The fixpoint driver for label-propagation kernels: repeats
/// edge-balanced sweeps over the whole vertex range until no chunk
/// reports a change. Chunk ranges are computed once per run (the sweep
/// domain never changes), so every sweep reuses the same deterministic
/// split.
pub struct SweepLoop<'a, G: AdjacencySource, E: Execute> {
    graph: &'a G,
    exec: &'a E,
    grain: usize,
    tally: bool,
}

impl<'a, G: AdjacencySource, E: Execute> SweepLoop<'a, G, E> {
    /// A sweep loop over `graph` on `exec` with the given fan-out grain,
    /// tallying every sweep when `tally` is set.
    pub fn new(graph: &'a G, exec: &'a E, grain: usize, tally: bool) -> Self {
        SweepLoop {
            graph,
            exec,
            grain,
            tally,
        }
    }

    /// Runs sweeps until the kernel reaches its fixpoint.
    ///
    /// `sink` observes the fixpoint iteration: one [`TraceEvent::Phase`]
    /// of kind [`PhaseKind::Sweep`] per sweep, carrying the sweep domain
    /// size as `frontier`, the merged change (update) count as
    /// `discovered`, whether the sweep changed anything, the merged step
    /// counters and the sweep's wall-clock time. With a
    /// [`bga_obs::NoopSink`] the seam compiles out.
    ///
    /// `cancel`, when given, is checked at every sweep boundary. An
    /// interrupted run reports the sweeps that completed; the kernel's
    /// label state is whatever those sweeps left behind — for monotone
    /// label-propagation kernels, valid upper bounds that a fresh run
    /// over the same state converges to the same fixpoint.
    pub fn run<K: SweepKernel<G>, S: TraceSink>(
        &self,
        kernel: &K,
        sink: &S,
        cancel: Option<&CancelToken>,
    ) -> (SweepRun, RunOutcome) {
        // The sweep domain never changes, so the degree prefix — borrowed
        // for free from a CSR, materialised once per run from the
        // compressed index — is computed exactly once.
        let prefix = self.graph.degree_prefix();
        let ranges = edge_balanced_ranges(
            prefix.as_ref(),
            effective_chunks_with_grain(
                self.graph.num_edge_slots(),
                self.exec.parallelism(),
                self.grain,
            ),
        );
        // The `SweepKernel::sweep_chunk` contract: the chunks tile the
        // vertex range in order, without gaps or overlap.
        debug_assert_eq!(
            ranges.iter().try_fold(0, |next, r| {
                (r.start == next && r.start <= r.end).then_some(r.end)
            }),
            Some(self.graph.num_vertices()),
            "sweep chunks must tile 0..n: {ranges:?}"
        );
        let n = self.graph.num_vertices();
        let mut phases = Phases::new(self.exec, self.tally, sink, cancel, 0);
        let mut outcome = RunOutcome::Completed;
        loop {
            // Sweep boundary: between sweeps no label writes are in
            // flight, so stopping leaves the kernel's state consistent.
            if let Some(stop) = phases.stop() {
                outcome = stop;
                break;
            }
            let bodies = chunk_bodies!(|range, tally| TALLY => {
                kernel.sweep_chunk::<TALLY>(self.graph, range, tally)
            });
            let changed = phases.step(kernel, ranges.clone(), bodies, |changed, step| {
                let changed = Some(changed.contains(&true));
                (PhaseKind::Sweep, None, n, step.updates as usize, changed)
            });
            if !changed.contains(&true) {
                break;
            }
        }
        let run = SweepRun {
            sweeps: phases.next,
            counters: phases.counters(),
        };
        (run, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{edge_balanced_ranges, ScopedExecutor, WorkerPool};
    use bga_graph::generators::{complete_graph, path_graph, star_graph};
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_obs::NoopSink;

    /// The plain branch-avoiding BFS claim, used to exercise the loop
    /// seams directly without going through `bfs.rs`.
    struct ProbeKernel;

    impl PhaseHooks for ProbeKernel {}

    impl<G: AdjacencySource> LevelKernel<G> for ProbeKernel {
        fn top_down_chunk<const TALLY: bool>(
            &self,
            ctx: &LevelCtx<'_, G>,
            frontier: &[VertexId],
            range: Range<usize>,
            chunk_edges: usize,
            _tally: &mut ThreadTally,
        ) -> Vec<VertexId> {
            let distances = ctx.state.distances();
            let mut buffer = vec![0 as VertexId; chunk_edges.min(ctx.graph.num_vertices()) + 1];
            let mut len = 0usize;
            for &v in &frontier[range] {
                for w in ctx.graph.neighbor_cursor(v) {
                    let prev = distances[w as usize].fetch_min(ctx.next_level, Relaxed);
                    buffer[len] = w;
                    len += usize::from(prev > ctx.next_level);
                }
            }
            buffer.truncate(len);
            buffer
        }
    }

    fn run_probe(
        graph: &CsrGraph,
        root: VertexId,
        config: DirectionConfig,
    ) -> (Vec<u32>, LevelRun) {
        let pool = WorkerPool::new(4);
        let state = TraversalState::new(graph.num_vertices());
        let (run, _) = LevelLoop::new(graph, &pool, 1, false, config).run(
            &state,
            root,
            &ProbeKernel,
            &NoopSink,
            None,
        );
        (state.into_distances(), run)
    }

    #[test]
    fn single_vertex_graph_yields_one_root_level() {
        let g = GraphBuilder::undirected(1).build();
        let (distances, run) = run_probe(&g, 0, DirectionConfig::default());
        assert_eq!(distances, vec![0]);
        assert_eq!(run.order, vec![0]);
        assert_eq!(run.level_bounds, vec![0..1]);
        // One expansion step ran (and found nothing).
        assert_eq!(run.directions.len(), 1);
    }

    #[test]
    fn isolated_root_expands_an_empty_level_and_stops() {
        let g = GraphBuilder::undirected(4).add_edges([(1, 2)]).build();
        let (distances, run) = run_probe(&g, 0, DirectionConfig::default());
        assert_eq!(distances, vec![0, INFINITY, INFINITY, INFINITY]);
        assert_eq!(run.order, vec![0]);
        assert_eq!(run.level_bounds, vec![0..1]);
    }

    #[test]
    fn out_of_range_root_yields_an_empty_run() {
        let g = path_graph(3);
        let (distances, run) = run_probe(&g, 99, DirectionConfig::default());
        assert!(distances.iter().all(|&d| d == INFINITY));
        assert!(run.order.is_empty());
        assert!(run.level_bounds.is_empty());
        assert!(run.directions.is_empty());
    }

    #[test]
    fn all_vertices_level_flips_to_bitmap_and_back() {
        // Star from the hub: level 1 is every other vertex at once, which
        // crosses any bottom-up threshold immediately; the follow-up
        // expansion from that full frontier is empty.
        let g = star_graph(40);
        let (distances, run) = run_probe(&g, 0, DirectionConfig::default());
        assert_eq!(distances[0], 0);
        assert!(distances[1..].iter().all(|&d| d == 1));
        assert_eq!(run.level_bounds, vec![0..1, 1..40]);
        // Level 1 discoveries come back in ascending vertex order when the
        // expansion ran bottom-up.
        if run.directions.first() == Some(&Direction::BottomUp) {
            let level1 = &run.order[1..];
            assert!(level1.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn complete_graph_bottom_up_level_covers_everything() {
        let g = complete_graph(12);
        let (distances, run) = run_probe(&g, 3, DirectionConfig::always_bottom_up());
        assert!(distances.iter().enumerate().all(|(v, &d)| {
            if v == 3 {
                d == 0
            } else {
                d == 1
            }
        }));
        assert_eq!(run.directions, vec![Direction::BottomUp; 2]);
        assert_eq!(run.level_bounds.len(), 2);
        assert_eq!(run.level_bounds[1].len(), 11);
    }

    #[test]
    fn level_bounds_tile_the_order_per_level() {
        let g = path_graph(30);
        for config in [
            DirectionConfig::default(),
            DirectionConfig::always_bottom_up(),
        ] {
            let (distances, run) = run_probe(&g, 0, config);
            assert_eq!(run.level_bounds.len(), 30);
            let mut covered = 0usize;
            for (level, bound) in run.level_bounds.iter().enumerate() {
                assert_eq!(bound.start, covered);
                covered = bound.end;
                for &v in &run.order[bound.clone()] {
                    assert_eq!(distances[v as usize], level as u32);
                }
            }
            assert_eq!(covered, run.order.len());
        }
    }

    #[test]
    fn executors_agree_on_engine_runs() {
        let g = star_graph(50);
        let pool = WorkerPool::new(3);
        let scoped = ScopedExecutor::new(3);
        let state_a = TraversalState::new(g.num_vertices());
        let state_b = TraversalState::new(g.num_vertices());
        let (run_a, _) = LevelLoop::new(&g, &pool, 1, false, DirectionConfig::default()).run(
            &state_a,
            0,
            &ProbeKernel,
            &NoopSink,
            None,
        );
        let (run_b, _) = LevelLoop::new(&g, &scoped, 1, false, DirectionConfig::default()).run(
            &state_b,
            0,
            &ProbeKernel,
            &NoopSink,
            None,
        );
        assert_eq!(state_a.into_distances(), state_b.into_distances());
        assert_eq!(run_a.level_bounds, run_b.level_bounds);
        assert_eq!(run_a.directions, run_b.directions);
    }

    #[test]
    fn reset_clears_distances_and_sigma() {
        let mut state = TraversalState::with_sigma(5);
        state.init_root(2);
        assert_eq!(state.distances()[2].load(Relaxed), 0);
        assert_eq!(state.sigma().unwrap()[2].load(Relaxed), 1);
        state.reset();
        assert!(state
            .distances()
            .iter()
            .all(|d| d.load(Relaxed) == INFINITY));
        assert!(state.sigma().unwrap().iter().all(|s| s.load(Relaxed) == 0));
        assert_eq!(state.len(), 5);
        assert!(!state.is_empty());
        assert!(TraversalState::new(0).is_empty());
    }

    #[test]
    fn unvisited_degree_chunker_outbalances_the_whole_graph_split_on_skew() {
        // A star with the hub already visited: the hub owns half of every
        // adjacency slot, so the whole-graph edge-balanced split gives one
        // chunk almost no *remaining* work while the others carry ~21
        // unvisited slots each. Balancing on the unvisited-degree prefix
        // splits the 63 remaining slots evenly instead.
        let g = star_graph(64);
        let state = TraversalState::new(g.num_vertices());
        state.distances()[0].store(0, Relaxed); // hub visited
        let unvisited_weight = |r: &Range<usize>| -> usize {
            r.clone()
                .filter(|&v| state.distances()[v].load(Relaxed) == INFINITY)
                .map(|v| g.degree(v as VertexId))
                .sum()
        };
        let chunks = 4;
        let old_max = edge_balanced_ranges(g.offsets(), chunks)
            .iter()
            .map(unvisited_weight)
            .max()
            .unwrap();
        let prefix = unvisited_degree_prefix(&g, state.distances());
        assert_eq!(*prefix.last().unwrap(), 63);
        let new_ranges = balanced_prefix_ranges(&prefix, chunks);
        let new_max = new_ranges.iter().map(unvisited_weight).max().unwrap();
        assert!(
            new_max < old_max,
            "degree-aware split max {new_max} should beat whole-graph split max {old_max}"
        );
        // Each chunk holds at most an equal share plus one max-degree
        // unvisited row.
        assert!(new_max <= 63 / chunks + 1);
        // The ranges still tile the vertex span.
        assert_eq!(new_ranges.first().unwrap().start, 0);
        assert_eq!(new_ranges.last().unwrap().end, g.num_vertices());
    }

    #[test]
    fn parallel_prefix_matches_sequential_on_assorted_visitation_patterns() {
        use bga_graph::generators::barabasi_albert;
        let g = barabasi_albert(3_000, 3, 41);
        let state = TraversalState::new(g.num_vertices());
        // Visit a scattered subset so the weights are non-trivial.
        for v in (0..g.num_vertices()).step_by(3) {
            state.distances()[v].store(1, Relaxed);
        }
        let expected = unvisited_degree_prefix(&g, state.distances());
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(3);
        for grain in [1, 64, 4096] {
            assert_eq!(
                par_unvisited_degree_prefix(&g, state.distances(), &pool, grain),
                expected,
                "pool, grain {grain}"
            );
            assert_eq!(
                par_unvisited_degree_prefix(&g, state.distances(), &scoped, grain),
                expected,
                "scoped, grain {grain}"
            );
        }
        // Single-thread executors take the sequential path and still agree.
        let single = WorkerPool::new(1);
        assert_eq!(
            par_unvisited_degree_prefix(&g, state.distances(), &single, 1),
            expected
        );
    }

    #[test]
    fn parallel_prefix_handles_degenerate_inputs() {
        let pool = WorkerPool::new(4);
        // Empty graph: just the leading zero.
        let empty = GraphBuilder::undirected(0).build();
        let state = TraversalState::new(0);
        assert_eq!(
            par_unvisited_degree_prefix(&empty, state.distances(), &pool, 1),
            vec![0]
        );
        // Everything visited: an all-zero prefix of the right length.
        let g = star_graph(10);
        let state = TraversalState::new(g.num_vertices());
        for d in state.distances() {
            d.store(0, Relaxed);
        }
        let prefix = par_unvisited_degree_prefix(&g, state.distances(), &pool, 1);
        assert_eq!(prefix, vec![0; g.num_vertices() + 1]);
    }

    #[test]
    fn word_at_a_time_claim_matches_the_per_bit_scan() {
        use bga_graph::generators::barabasi_albert;
        use bga_graph::CompressedCsrGraph;
        // Scattered visited pattern + a scattered frontier, claimed over
        // assorted unaligned ranges: the popcount walk (TALLY = false)
        // must discover exactly what the per-vertex scan (TALLY = true)
        // does, in the same ascending order, on both representations.
        let g = barabasi_albert(700, 3, 23);
        let compressed = CompressedCsrGraph::from_csr(&g);
        let n = g.num_vertices();
        let in_frontier = Bitmap::new(n);
        let seed_state = |state: &TraversalState| {
            for v in (0..n).step_by(3) {
                state.distances()[v].store(1, Relaxed);
            }
        };
        for v in (0..n).step_by(3) {
            in_frontier.set(v);
        }
        for range in [0..n, 1..n - 1, 63..130, 64..128, 5..6, 0..0] {
            let word_state = TraversalState::new(n);
            seed_state(&word_state);
            let bit_state = TraversalState::new(n);
            seed_state(&bit_state);
            let mut tally = ThreadTally::default();
            let by_word = bottom_up_claim::<CsrGraph, false>(
                &LevelCtx {
                    graph: &g,
                    state: &word_state,
                    next_level: 2,
                },
                &in_frontier,
                range.clone(),
                &mut tally,
            );
            let by_bit = bottom_up_claim::<CsrGraph, true>(
                &LevelCtx {
                    graph: &g,
                    state: &bit_state,
                    next_level: 2,
                },
                &in_frontier,
                range.clone(),
                &mut tally,
            );
            assert_eq!(by_word, by_bit, "range {range:?}");
            assert_eq!(
                word_state.into_distances(),
                bit_state.into_distances(),
                "range {range:?}"
            );
            // The compressed representation claims the same set too.
            let compressed_state = TraversalState::new(n);
            seed_state(&compressed_state);
            let by_compressed = bottom_up_claim::<CompressedCsrGraph, false>(
                &LevelCtx {
                    graph: &compressed,
                    state: &compressed_state,
                    next_level: 2,
                },
                &in_frontier,
                range.clone(),
                &mut tally,
            );
            assert_eq!(by_compressed, by_bit, "compressed, range {range:?}");
        }
    }

    /// A minimal branch-avoiding bucket kernel, used to exercise the
    /// bucket-loop seams directly without going through `sssp.rs`.
    struct ProbeRelax;

    impl PhaseHooks for ProbeRelax {}

    impl<W: WeightedAdjacencySource> BucketKernel<W> for ProbeRelax {
        fn relax_chunk<const TALLY: bool>(
            &self,
            ctx: &BucketCtx<'_, W>,
            frontier: &[(VertexId, u32)],
            range: Range<usize>,
            chunk_edges: usize,
            class: EdgeClass,
            _tally: &mut ThreadTally,
        ) -> Vec<VertexId> {
            let distances = ctx.state.distances();
            let mut buffer = vec![0 as VertexId; chunk_edges + 1];
            let mut len = 0usize;
            for &(v, dv) in &frontier[range] {
                for (w, wt) in ctx.graph.weighted_neighbor_cursor(v) {
                    let wanted = (wt <= ctx.delta) == (class == EdgeClass::Light);
                    let candidate = if wanted {
                        dv.saturating_add(wt)
                    } else {
                        INFINITY
                    };
                    let prev = distances[w as usize].fetch_min(candidate, Relaxed);
                    buffer[len] = w;
                    len += usize::from(prev > candidate);
                }
            }
            buffer.truncate(len);
            buffer
        }
    }

    fn run_bucket_probe(
        graph: &bga_graph::WeightedCsrGraph,
        source: VertexId,
        delta: u32,
        threads: usize,
    ) -> (Vec<u32>, BucketRun) {
        let pool = WorkerPool::new(threads);
        let state = TraversalState::new(graph.num_vertices());
        let (run, _) = BucketLoop::new(graph, &pool, 1, false, delta).run(
            &state,
            source,
            &ProbeRelax,
            &NoopSink,
            None,
            false,
        );
        (state.into_distances(), run)
    }

    #[test]
    fn bucket_loop_settles_a_weighted_path() {
        use bga_graph::weighted::WeightedGraphBuilder;
        // 0 -2- 1 -2- 2 plus a heavy shortcut 0 -5- 2 (Δ = 2): the light
        // path wins, and the heavy pass must still have run.
        let g = WeightedGraphBuilder::undirected(3)
            .add_edges([(0, 1, 2), (1, 2, 2), (0, 2, 5)])
            .build();
        let (distances, run) = run_bucket_probe(&g, 0, 2, 4);
        assert_eq!(distances, vec![0, 2, 4]);
        assert_eq!(run.order, vec![0, 1, 2]);
        // Buckets 0 (dist 0), 1 (dist 2), 2 (dist 4) each settle one vertex.
        assert_eq!(run.bucket_bounds, vec![(0, 0..1), (1, 1..2), (2, 2..3)]);
        // The heavy shortcut relaxed 2 into bucket 2 before the light path
        // undercut it — exactly one improving heavy pass.
        assert_eq!(run.heavy_phases, 1);
    }

    #[test]
    fn bucket_loop_is_deterministic_across_executors_and_threads() {
        use bga_graph::generators::barabasi_albert;
        use bga_graph::weighted::uniform_weights;
        let g = uniform_weights(&barabasi_albert(900, 3, 31), 20, 9);
        let reference = run_bucket_probe(&g, 0, 4, 1);
        for threads in [2, 8] {
            let run = run_bucket_probe(&g, 0, 4, threads);
            assert_eq!(run.0, reference.0, "{threads} threads");
            assert_eq!(run.1.order, reference.1.order, "{threads} threads");
            assert_eq!(run.1.bucket_bounds, reference.1.bucket_bounds);
            assert_eq!(run.1.phases, reference.1.phases);
            assert_eq!(run.1.heavy_phases, reference.1.heavy_phases);
        }
        let scoped = ScopedExecutor::new(4);
        let state = TraversalState::new(g.num_vertices());
        let (run, _) = BucketLoop::new(&g, &scoped, 1, false, 4).run(
            &state,
            0,
            &ProbeRelax,
            &NoopSink,
            None,
            false,
        );
        assert_eq!(state.into_distances(), reference.0);
        assert_eq!(run.order, reference.1.order);
        assert_eq!(run.phases, reference.1.phases);
    }

    #[test]
    fn bucket_bounds_tile_the_settle_order_and_match_distances() {
        use bga_graph::generators::{grid_2d, MeshStencil};
        use bga_graph::weighted::uniform_weights;
        let g = uniform_weights(&grid_2d(12, 9, MeshStencil::VonNeumann), 12, 4);
        let (distances, run) = run_bucket_probe(&g, 0, 4, 3);
        let mut covered = 0usize;
        for (bucket, bound) in &run.bucket_bounds {
            assert_eq!(bound.start, covered);
            covered = bound.end;
            for &v in &run.order[bound.clone()] {
                assert_eq!(
                    (distances[v as usize] / 4) as usize,
                    *bucket,
                    "vertex {v} settled in the wrong bucket"
                );
            }
        }
        assert_eq!(covered, run.order.len());
        // Every reached vertex settled exactly once.
        let reached = distances.iter().filter(|&&d| d != INFINITY).count();
        assert_eq!(run.order.len(), reached);
        let mut sorted = run.order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), run.order.len());
    }

    #[test]
    fn bucket_loop_degenerate_inputs() {
        use bga_graph::weighted::unit_weights;
        // Out-of-range source: empty run.
        let g = unit_weights(&path_graph(3));
        let (distances, run) = run_bucket_probe(&g, 99, 2, 2);
        assert!(distances.iter().all(|&d| d == INFINITY));
        assert!(run.order.is_empty());
        assert!(run.bucket_bounds.is_empty());
        assert_eq!(run.phases, 0);
        // Empty graph.
        let empty = unit_weights(&GraphBuilder::undirected(0).build());
        let (distances, run) = run_bucket_probe(&empty, 0, 1, 2);
        assert!(distances.is_empty());
        assert_eq!(run.phases, 0);
        // Isolated source settles itself in one light phase.
        let lonely = unit_weights(&GraphBuilder::undirected(3).add_edges([(1, 2)]).build());
        let (distances, run) = run_bucket_probe(&lonely, 0, 1, 2);
        assert_eq!(distances[0], 0);
        assert_eq!(run.order, vec![0]);
        assert_eq!(run.phases, 1);
        assert_eq!(run.heavy_phases, 0);
        // Δ is clamped to >= 1 rather than dividing by zero.
        let (distances, _) = run_bucket_probe(&unit_weights(&path_graph(4)), 0, 0, 2);
        assert_eq!(distances, vec![0, 1, 2, 3]);
    }

    #[test]
    fn level_loop_phase_budget_cuts_at_an_exact_level() {
        use crate::cancel::InterruptReason;
        let g = path_graph(30);
        let pool = WorkerPool::new(2);
        let state = TraversalState::new(g.num_vertices());
        let cancel = CancelToken::new().with_phase_budget(5);
        let (run, outcome) = LevelLoop::new(
            &g,
            &pool,
            1,
            false,
            DirectionConfig::always_top_down(),
        )
        .run(&state, 0, &ProbeKernel, &NoopSink, Some(&cancel));
        assert_eq!(
            outcome,
            RunOutcome::Interrupted {
                reason: InterruptReason::PhaseBudgetExhausted,
                phases_done: 5,
            }
        );
        // Exactly the completed levels are reported, and the distances
        // behind them are final while everything beyond is untouched.
        assert_eq!(run.directions.len(), 5);
        assert_eq!(run.order, vec![0, 1, 2, 3, 4, 5]);
        let distances = state.into_distances();
        for (v, &d) in distances.iter().enumerate() {
            if v <= 5 {
                assert_eq!(d, v as u32);
            } else {
                assert_eq!(d, INFINITY);
            }
        }
    }

    #[test]
    fn cancelled_tokens_stop_runs_before_the_first_phase() {
        let g = path_graph(10);
        let pool = WorkerPool::new(2);
        let state = TraversalState::new(g.num_vertices());
        let cancel = CancelToken::new();
        cancel.cancel();
        let (run, outcome) = LevelLoop::new(&g, &pool, 1, false, DirectionConfig::default()).run(
            &state,
            0,
            &ProbeKernel,
            &NoopSink,
            Some(&cancel),
        );
        assert!(!outcome.is_completed());
        assert!(run.directions.is_empty());
        // Only the root was initialised.
        assert_eq!(state.distances()[0].load(Relaxed), 0);
        assert!(state.distances()[1..]
            .iter()
            .all(|d| d.load(Relaxed) == INFINITY));
    }

    #[test]
    fn unlimited_tokens_complete_and_match_the_plain_run() {
        let g = star_graph(40);
        let pool = WorkerPool::new(3);
        let state_plain = TraversalState::new(g.num_vertices());
        let (plain, _) = LevelLoop::new(&g, &pool, 1, false, DirectionConfig::default()).run(
            &state_plain,
            0,
            &ProbeKernel,
            &NoopSink,
            None,
        );
        let state_cancel = TraversalState::new(g.num_vertices());
        let (run, outcome) = LevelLoop::new(&g, &pool, 1, false, DirectionConfig::default()).run(
            &state_cancel,
            0,
            &ProbeKernel,
            &NoopSink,
            Some(&CancelToken::new()),
        );
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(run.level_bounds, plain.level_bounds);
        assert_eq!(state_cancel.into_distances(), state_plain.into_distances());
    }

    #[test]
    fn bucket_loop_interruption_keeps_settled_buckets_and_resume_converges() {
        use bga_graph::generators::barabasi_albert;
        use bga_graph::weighted::uniform_weights;
        let g = uniform_weights(&barabasi_albert(600, 3, 17), 20, 5);
        let pool = WorkerPool::new(4);
        // The uninterrupted reference.
        let reference = {
            let state = TraversalState::new(g.num_vertices());
            let (run, _) = BucketLoop::new(&g, &pool, 1, false, 4).run(
                &state,
                0,
                &ProbeRelax,
                &NoopSink,
                None,
                false,
            );
            (state.into_distances(), run)
        };
        // Cut the run after a handful of passes, then resume it.
        let state = TraversalState::new(g.num_vertices());
        let cancel = CancelToken::new().with_phase_budget(3);
        let loop_ = BucketLoop::new(&g, &pool, 1, false, 4);
        let (partial, outcome) = loop_.run(&state, 0, &ProbeRelax, &NoopSink, Some(&cancel), false);
        assert!(!outcome.is_completed());
        // The budget bounds dispatched passes; one deferred heavy pass may
        // slip in between checks, but the run is genuinely cut short.
        assert!(partial.phases <= 4);
        assert!(partial.phases < reference.1.phases);
        // Partial distances are valid upper bounds on the true distances.
        for (v, d) in state.distances().iter().enumerate() {
            assert!(d.load(Relaxed) >= reference.0[v]);
        }
        // Reported settle order is a prefix of the reference order (only
        // fully settled buckets survive the cut).
        assert_eq!(
            partial.order.as_slice(),
            &reference.1.order[..partial.order.len()]
        );
        // Resuming from the partial state converges bit-identically.
        let (resumed, _) = loop_.run(&state, 0, &ProbeRelax, &NoopSink, None, true);
        assert_eq!(state.into_distances(), reference.0);
        assert!(resumed.phases > 0);
    }

    #[test]
    fn bucket_loop_resume_from_scratch_matches_a_plain_run() {
        use bga_graph::weighted::WeightedGraphBuilder;
        let g = WeightedGraphBuilder::undirected(3)
            .add_edges([(0, 1, 2), (1, 2, 2), (0, 2, 5)])
            .build();
        let pool = WorkerPool::new(2);
        let state = TraversalState::new(g.num_vertices());
        BucketLoop::new(&g, &pool, 1, false, 2).run(&state, 0, &ProbeRelax, &NoopSink, None, true);
        assert_eq!(state.into_distances(), vec![0, 2, 4]);
    }

    #[test]
    fn sweep_loop_phase_budget_counts_completed_sweeps() {
        use crate::cancel::InterruptReason;
        use std::sync::atomic::AtomicUsize;
        struct Endless {
            rounds: AtomicUsize,
        }
        impl PhaseHooks for Endless {}
        impl<G: AdjacencySource> SweepKernel<G> for Endless {
            fn sweep_chunk<const TALLY: bool>(
                &self,
                _graph: &G,
                range: Range<usize>,
                _tally: &mut ThreadTally,
            ) -> bool {
                if range.start == 0 {
                    self.rounds.fetch_add(1, Relaxed);
                }
                true // never converges on its own
            }
        }
        let g = path_graph(10);
        let pool = WorkerPool::new(2);
        let kernel = Endless {
            rounds: AtomicUsize::new(0),
        };
        let cancel = CancelToken::new().with_phase_budget(4);
        let (run, outcome) =
            SweepLoop::new(&g, &pool, 1, false).run(&kernel, &NoopSink, Some(&cancel));
        assert_eq!(
            outcome,
            RunOutcome::Interrupted {
                reason: InterruptReason::PhaseBudgetExhausted,
                phases_done: 4,
            }
        );
        assert_eq!(run.sweeps, 4);
        assert_eq!(kernel.rounds.load(Relaxed), 4);
    }

    #[test]
    fn sweep_loop_counts_the_fixpoint_sweep() {
        // A kernel that reports change for its first two sweeps, then
        // settles: the loop must run exactly three sweeps.
        use std::sync::atomic::AtomicUsize;
        struct Settling {
            rounds: AtomicUsize,
        }
        impl PhaseHooks for Settling {}
        impl<G: AdjacencySource> SweepKernel<G> for Settling {
            fn sweep_chunk<const TALLY: bool>(
                &self,
                _graph: &G,
                range: Range<usize>,
                _tally: &mut ThreadTally,
            ) -> bool {
                // Only the first chunk of a sweep advances the round.
                if range.start == 0 {
                    return self.rounds.fetch_add(1, Relaxed) < 2;
                }
                false
            }
        }
        let g = path_graph(10);
        let pool = WorkerPool::new(2);
        let kernel = Settling {
            rounds: AtomicUsize::new(0),
        };
        let (run, _) = SweepLoop::new(&g, &pool, 1, false).run(&kernel, &NoopSink, None);
        assert_eq!(run.sweeps, 3);
        assert_eq!(run.counters.num_steps(), 0, "uninstrumented: no steps");
    }
}
