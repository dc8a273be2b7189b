//! Execution layer shared by the parallel kernels: work distribution by
//! *edge-balanced chunking* and two executors for the resulting chunks.
//!
//! Work distribution is deliberately simple — contiguous vertex (or
//! frontier) ranges chosen so each worker owns roughly the same number of
//! adjacency slots rather than the same number of vertices. On power-law
//! graphs a vertex-balanced split can hand one thread a hub with half the
//! edges; balancing on the degree prefix sums (which the CSR offsets array
//! already is) fixes that for free.
//!
//! Two executors implement the [`Execute`] seam the kernels run on:
//!
//! * [`WorkerPool`] — the default: long-lived workers handed chunks
//!   through an atomic claim counter. Between batches an idle worker
//!   spins on an epoch word for up to [`SPIN_BOUND`], then parks on a
//!   condvar; the submitter waits for completion the same way. Spawn cost
//!   is paid once per *run*, not once per level, and back-to-back levels
//!   are picked up by a spinning worker without a futex park and wake,
//!   which is what makes BFS over a high-diameter graph (hundreds of small
//!   frontiers) fast.
//! * [`ScopedExecutor`] — the previous behaviour, one `std::thread::scope`
//!   spawn per chunk per sweep. Kept as the baseline the benchmarks
//!   compare the pool against.
//!
//! Everything is dependency-free `std`.

use crate::fault::{FaultPlan, FAULT_INJECTION};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most workers any kernel will spawn, however large the request. Each
/// worker is one OS thread, so an unbounded request (say `--threads 50000`)
/// would die in `thread::spawn` rather than fail cleanly; past this many
/// workers there is no graph large enough in this workspace for more
/// fan-out to help.
pub const MAX_THREADS: usize = 256;

/// Resolves a requested worker count: `0` means "use the machine", any
/// other value is taken literally, capped at [`MAX_THREADS`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested.min(MAX_THREADS)
    } else {
        host_parallelism().min(MAX_THREADS)
    }
}

/// The host's `available_parallelism`, read once per process: a pool is
/// built per kernel run, and the read costs file and affinity syscalls.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How long an idle pool worker spins for the next batch, and a submitter
/// for its batch's completion, before blocking on a condvar.
///
/// The ski-rental rule: spinning for as long as a block costs is never
/// worse than twice the best choice made in hindsight. A block is a futex
/// park plus, later, a futex wake and reschedule. On the 2-vCPU reference
/// host that round trip is ≈ 50 µs: a batch whose threads are spawned and
/// joined afresh costs 65 µs (`pool.scoped_batch_us`), and a `batch_mesh`
/// BFS level, one near-empty 2-chunk batch whose worker parks in between,
/// takes 54–65 µs (`engine.level_us_per_phase`) against ≈ 25 µs for a
/// level of the one-thread kernel. So spin for 50 µs. Levels arriving
/// closer together than that never block; a pool left idle longer burns
/// at most 50 µs of one core per worker before it sleeps.
pub const SPIN_BOUND: Duration = Duration::from_micros(50);

/// Spin iterations between two reads of the clock in [`spin_until`].
const SPIN_CHECK_EVERY: u32 = 64;

/// Spins until `ready()` holds or [`SPIN_BOUND`] has passed, and returns
/// the last value of `ready()`.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..SPIN_CHECK_EVERY {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_BOUND {
            return ready();
        }
    }
}

/// Default minimum number of weight units (edge slots) that justifies
/// fanning work out to more than one thread. Below this, hand-off overhead
/// dominates — a BFS level with a ten-vertex frontier is faster on the
/// calling thread. Override per run with [`PoolConfig::grain`] or the
/// `BGA_PARALLEL_GRAIN` environment variable.
pub const PARALLEL_GRAIN: usize = 4096;

/// Environment variable that overrides [`PARALLEL_GRAIN`] for every kernel
/// entry point that builds its configuration via [`PoolConfig::from_env`],
/// so scaling experiments can sweep the grain without recompiling.
pub const GRAIN_ENV_VAR: &str = "BGA_PARALLEL_GRAIN";

/// Tuning knobs for one parallel kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker count (already resolved — never 0).
    pub threads: usize,
    /// Minimum weight units before a sweep/level fans out (see
    /// [`PARALLEL_GRAIN`]).
    pub grain: usize,
}

impl PoolConfig {
    /// A config with an explicit grain; `threads` is resolved as in
    /// [`resolve_threads`].
    pub fn new(threads: usize, grain: usize) -> Self {
        PoolConfig {
            threads: resolve_threads(threads),
            grain: grain.max(1),
        }
    }

    /// The config the public kernel entry points use: requested thread
    /// count, grain from `BGA_PARALLEL_GRAIN` when set (and a positive
    /// integer), [`PARALLEL_GRAIN`] otherwise.
    pub fn from_env(requested_threads: usize) -> Self {
        let grain = parse_grain_override(std::env::var(GRAIN_ENV_VAR).ok().as_deref())
            .unwrap_or(PARALLEL_GRAIN);
        PoolConfig::new(requested_threads, grain)
    }
}

/// Parses a `BGA_PARALLEL_GRAIN` value: `Some(n)` for a positive integer,
/// `None` for anything else (absent, empty, zero, garbage). Split out from
/// the environment read so the policy is unit-testable.
pub fn parse_grain_override(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|text| text.trim().parse::<usize>().ok())
        .filter(|&grain| grain > 0)
}

/// Number of chunks actually worth using for `total_weight` units of work:
/// `1` when the work is below `grain`, the requested thread count
/// otherwise. Depends only on the workload, so chunking (and with it every
/// deterministic guarantee) is stable across runs.
pub fn effective_chunks_with_grain(total_weight: usize, threads: usize, grain: usize) -> usize {
    if total_weight < grain {
        1
    } else {
        threads.max(1)
    }
}

/// [`effective_chunks_with_grain`] at the default [`PARALLEL_GRAIN`].
pub fn effective_chunks(total_weight: usize, threads: usize) -> usize {
    effective_chunks_with_grain(total_weight, threads, PARALLEL_GRAIN)
}

/// Splits `0..prefix.len() - 1` into up to `chunks` contiguous ranges with
/// approximately equal weight, where `prefix` is a non-decreasing prefix-sum
/// array (`prefix[i]` = total weight of items `0..i`).
///
/// Falls back to an even item split when the total weight is zero, and never
/// returns more ranges than items. Ranges are returned in order and exactly
/// cover the item span.
pub fn balanced_prefix_ranges(prefix: &[usize], chunks: usize) -> Vec<Range<usize>> {
    let items = prefix.len().saturating_sub(1);
    let chunks = chunks.max(1).min(items.max(1));
    if items == 0 {
        // One empty range, so callers can treat "no items" uniformly.
        return std::iter::once(0..0).collect();
    }
    let total = prefix[items];
    if total == 0 {
        // No weight to balance: split the items evenly instead.
        return (0..chunks)
            .map(|k| (items * k / chunks)..(items * (k + 1) / chunks))
            .collect();
    }
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for k in 1..=chunks {
        let end = if k == chunks {
            items
        } else {
            // First item boundary whose cumulative weight reaches the k-th
            // equal share. `partition_point` over the prefix array lands on a
            // valid boundary in 0..=items.
            let target = (total as u128 * k as u128 / chunks as u128) as usize;
            prefix
                .partition_point(|&w| w < target)
                .min(items)
                .max(start)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Edge-balanced contiguous vertex ranges for a CSR graph, derived directly
/// from its offsets array (which is the degree prefix-sum).
pub fn edge_balanced_ranges(offsets: &[usize], chunks: usize) -> Vec<Range<usize>> {
    balanced_prefix_ranges(offsets, chunks)
}

/// Evenly splits `0..items` into up to `chunks` contiguous ranges. For work
/// whose per-item cost is uniform (bitmap fills, word scans), where the
/// degree-prefix machinery would be overkill.
pub fn even_ranges(items: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(items.max(1));
    if items == 0 {
        return std::iter::once(0..0).collect();
    }
    (0..chunks)
        .map(|k| (items * k / chunks)..(items * (k + 1) / chunks))
        .collect()
}

/// The seam the parallel kernels run on: execute `f(chunk_index, range)`
/// for every range and return the results in range order.
///
/// Implementations must guarantee that every closure invocation has
/// returned before `run` returns (the kernels borrow stack-local state into
/// `f`), and that results land at the index of their chunk.
pub trait Execute: Sync {
    /// Worker count this executor fans out to (used to pick chunk counts).
    fn parallelism(&self) -> usize;

    /// Runs `f` over every range, returning results in range order. A
    /// panic in any invocation propagates to the caller.
    fn run<T, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync;
}

/// Runs `f(chunk_index, range)` for every range, one scoped thread per
/// range, and returns the results in range order. With a single range the
/// closure runs on the calling thread — thread count 1 has zero spawn
/// overhead and exactly sequential behaviour.
///
/// Panics in a worker propagate to the caller.
pub fn run_chunks<T, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| f(i, r))
            .collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(index, range)| scope.spawn(move || f(index, range)))
            .collect();
        // Join every worker before propagating, then re-throw the first
        // panic payload itself — `expect` here would abort the process
        // with a double panic while later handles are still unjoined.
        let mut first_panic = None;
        let results: Vec<T> = handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(value) => Some(value),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                    None
                }
            })
            .collect();
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    })
}

/// The pre-pool behaviour as an [`Execute`] implementation: spawn one
/// scoped thread per chunk, every sweep. Kept so benchmarks can measure
/// what the persistent pool saves.
#[derive(Clone, Copy, Debug)]
pub struct ScopedExecutor {
    /// Worker count reported to the chunkers.
    pub threads: usize,
}

impl ScopedExecutor {
    /// A scoped executor for a resolved thread count.
    pub fn new(threads: usize) -> Self {
        ScopedExecutor {
            threads: resolve_threads(threads),
        }
    }
}

impl Execute for ScopedExecutor {
    fn parallelism(&self) -> usize {
        self.threads
    }

    fn run<T, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        run_chunks(ranges, f)
    }
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// Work-distribution record of one fanned-out batch: how many chunks it
/// had and how many each participant claimed. Inline batches (single
/// chunk, or a pool with no parked workers) are not recorded — there is no
/// distribution to observe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRecord {
    /// Total chunk count of the batch.
    pub chunks: usize,
    /// Chunks claimed per participant: slot 0 is the submitting thread,
    /// slots `1..` the parked workers in spawn order. Sums to
    /// [`BatchRecord::chunks`].
    pub claimed: Vec<u64>,
}

impl BatchRecord {
    /// Ratio of the busiest participant's claim count to a perfectly even
    /// share (`1.0` = perfect balance, `participants` = one thread claimed
    /// everything). `1.0` for degenerate empty batches.
    pub fn imbalance(&self) -> f64 {
        let max = self.claimed.iter().copied().max().unwrap_or(0);
        if self.chunks == 0 || self.claimed.is_empty() {
            return 1.0;
        }
        max as f64 * self.claimed.len() as f64 / self.chunks as f64
    }
}

/// Metrics drained from a [`PoolMonitor`]: every fanned-out batch's claim
/// distribution plus the pool-wide park/wake totals.
#[derive(Clone, Debug, Default)]
pub struct PoolMetrics {
    /// One record per fanned-out batch, in submission order.
    pub batches: Vec<BatchRecord>,
    /// Times a worker parked on the job condvar.
    pub parks: u64,
    /// Times a parked worker was woken.
    pub wakes: u64,
}

/// Observes a [`WorkerPool`]'s work distribution: attach one via
/// [`WorkerPool::with_monitor`] and drain it with
/// [`PoolMonitor::take_metrics`] after (or between) runs. An unmonitored
/// pool allocates and records nothing.
#[derive(Debug, Default)]
pub struct PoolMonitor {
    parks: AtomicU64,
    wakes: AtomicU64,
    batches: Mutex<Vec<BatchRecord>>,
}

impl PoolMonitor {
    /// A fresh monitor, ready to attach to a pool.
    pub fn new() -> Arc<Self> {
        Arc::new(PoolMonitor::default())
    }

    /// Drains everything recorded so far, resetting the monitor. Call
    /// between kernel runs to attribute batches to the run that issued
    /// them. (Park/wake counts are pool-wide: a worker parked because no
    /// batch was in flight is still a park.)
    pub fn take_metrics(&self) -> PoolMetrics {
        // Relaxed: the park/wake counters are statistics that order
        // nothing; a count racing a drain lands in this drain or the next.
        PoolMetrics {
            batches: std::mem::take(&mut self.batches.lock().unwrap()),
            parks: self.parks.swap(0, Relaxed),
            wakes: self.wakes.swap(0, Relaxed),
        }
    }
}

/// One published batch of work. Workers claim chunk indices through
/// `next_chunk` and report through `completed`; the submitter waits until
/// `completed == chunks`. A fresh `Job` is allocated per [`WorkerPool::run`]
/// call so a worker that wakes late and still holds the *previous* job can
/// only ever observe an exhausted claim counter — it can never claim (and
/// thus never dereference the task of) a batch that has already retired.
struct Job {
    /// Type-erased task: runs chunk `i`. Points into the submitting
    /// `run` call's stack frame; guaranteed valid until `completed ==
    /// chunks`, which `run` awaits before returning. Never dereferenced
    /// after the claim counter is exhausted, so the dangling pointer a
    /// stale worker may still hold is inert.
    task: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to hand out.
    next_chunk: AtomicUsize,
    /// Chunks whose task invocation has returned.
    completed: AtomicUsize,
    /// Total chunk count of this batch.
    chunks: usize,
    /// Per-participant claim tallies (slot 0 = submitter, then workers in
    /// spawn order), allocated only when the pool carries a
    /// [`PoolMonitor`]. Claims are recorded before the `completed`
    /// increment, so the submitter's completion barrier makes them
    /// visible.
    claimed: Option<Vec<AtomicU64>>,
    /// First panic payload captured from a worker, re-thrown by the
    /// submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Fanned-out batch ordinal, used only to address injected faults
    /// (dead weight in release builds, where the fault seam compiles out).
    fault_batch: usize,
}

// SAFETY: the raw `task` pointer is the only field that is not already
// `Send + Sync`. Invariant: `task` is dereferenced only by a thread that
// has just won a chunk index `< chunks` from `next_chunk`, and the
// submitting `run` frame that owns the closure cannot return before that
// chunk's `completed` increment (its completion barrier waits for
// `completed == chunks`). So every dereference, on any thread, happens
// while the closure is alive, and the closure is `Sync`, so shared calls
// from several threads are sound. A worker that holds the `Arc<Job>` past
// the batch only ever sees `next_chunk >= chunks` and never dereferences.
// The remaining fields are atomics, a `Mutex` and plain integers written
// before the job is published.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes chunks until the batch is exhausted; `who` is
    /// the claiming participant (0 = submitter, then workers in spawn
    /// order). Returns once this thread can take no more work; the batch
    /// may still be finishing on other threads.
    fn work(&self, who: usize, done_lock: &Mutex<()>, done_cv: &Condvar) {
        loop {
            // Relaxed: the claim counter only has to hand each index out
            // once (RMW atomicity). Visibility of the task and the job's
            // fields comes from the publication barrier: the `control`
            // mutex, taken by the worker after it saw the new epoch.
            let index = self.next_chunk.fetch_add(1, Relaxed);
            if index >= self.chunks {
                return;
            }
            if let Some(claimed) = &self.claimed {
                // Relaxed: read by the submitter only after the completion
                // barrier, which this claim precedes in program order.
                claimed[who].fetch_add(1, Relaxed);
            }
            // SAFETY: a successful claim proves the batch is still live
            // (the submitter cannot return before this chunk completes),
            // so the task pointer is valid.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(index))) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            // Count the chunk even on panic so the submitter never
            // deadlocks; it re-throws the payload after the barrier.
            // AcqRel: the Release half publishes this chunk's slot write
            // and claim tally to the submitter's Acquire load of
            // `completed` (the completion barrier in `run`); the Acquire
            // half chains the other chunks' releases through the RMW
            // sequence, so whoever reads the final count sees them all.
            if self.completed.fetch_add(1, AcqRel) + 1 == self.chunks {
                // Take the lock so a submitter between its predicate check
                // and `wait` cannot miss this notification.
                let _guard = done_lock.lock().unwrap();
                done_cv.notify_all();
            }
        }
    }
}

/// Epoch-stamped job hand-off cell the workers sleep on.
struct Control {
    /// Bumped once per published batch; workers run a batch at most once.
    epoch: u64,
    /// The current batch, if any.
    job: Option<Arc<Job>>,
    /// Set once, by `Drop`: workers exit instead of sleeping.
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// What idle workers spin on: a copy of `control.epoch`, stored under
    /// the lock by `publish`, and bumped once more by shutdown. A worker
    /// whose last-seen epoch differs from it takes `control` to find out
    /// which of the two happened.
    signal: AtomicU64,
    /// Whether waits spin for [`SPIN_BOUND`] before blocking: only when
    /// the pool has no more threads than the host has cores. An
    /// oversubscribed pool's spinner would burn the very core the thread
    /// it waits for needs, so it blocks at once.
    spin: bool,
    /// Wakes parked workers when a batch is published or on shutdown.
    work_cv: Condvar,
    /// Pair backing the submitter's completion wait.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Attached observer, if any; `None` keeps the hot path free of any
    /// recording.
    monitor: Option<Arc<PoolMonitor>>,
    /// Workers that died abnormally (their unwind guard increments this).
    lost: AtomicUsize,
    /// Injected-fault schedule; empty outside the robustness harness and
    /// inert in release builds.
    faults: FaultPlan,
    /// Fanned-out batches so far, the index injected faults address.
    fault_batches: AtomicUsize,
}

/// Structured report of abnormal worker deaths, returned by
/// [`WorkerPool::shutdown`] instead of a panic-during-drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolError {
    /// Workers whose threads terminated by panic over the pool's lifetime.
    pub lost_workers: usize,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pool worker{} died abnormally",
            self.lost_workers,
            if self.lost_workers == 1 { "" } else { "s" }
        )
    }
}

impl std::error::Error for PoolError {}

/// A persistent pool of worker threads, reused across every sweep/level
/// of a kernel run.
///
/// `threads == n` means *n-way parallelism*: `n - 1` pool workers plus
/// the submitting thread, which always participates in its own batches —
/// `WorkerPool::new(1)` spawns nothing and runs everything inline, giving
/// exactly sequential behaviour. Batches are handed out as chunk indices
/// through an atomic claim counter, so a chunk list longer than the worker
/// count load-balances dynamically on top of the static edge-balanced
/// split.
///
/// Between batches a worker spins for up to [`SPIN_BOUND`] on the epoch
/// word `publish` stores, then parks on a condvar; a submitter spins for
/// its batch's completion the same way before it blocks. Neither spins
/// when the pool has more threads than the host has cores.
///
/// Dropping the pool parks no new work, wakes every worker and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads`-way parallelism (resolved as in
    /// [`resolve_threads`]; `0` means "use the machine").
    pub fn new(threads: usize) -> Self {
        WorkerPool::build(threads, None, WorkerPool::env_faults())
    }

    /// A pool with an attached [`PoolMonitor`] recording every fanned-out
    /// batch's claim distribution and the workers' park/wake counts.
    pub fn with_monitor(threads: usize, monitor: Arc<PoolMonitor>) -> Self {
        WorkerPool::build(threads, Some(monitor), WorkerPool::env_faults())
    }

    /// A pool with an explicit injected-fault schedule — the robustness
    /// harness's constructor. In release builds the plan is inert (the
    /// fault seam compiles out; see [`FAULT_INJECTION`]).
    pub fn with_faults(threads: usize, faults: FaultPlan) -> Self {
        WorkerPool::build(threads, None, faults)
    }

    /// The `BGA_FAULT` plan in debug builds, an empty plan otherwise. A
    /// malformed spec panics: a fault harness that silently injects
    /// nothing would pass every robustness test vacuously.
    fn env_faults() -> FaultPlan {
        if FAULT_INJECTION {
            FaultPlan::from_env().expect("malformed BGA_FAULT fault spec")
        } else {
            FaultPlan::new()
        }
    }

    fn build(threads: usize, monitor: Option<Arc<PoolMonitor>>, faults: FaultPlan) -> Self {
        let threads = resolve_threads(threads);
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            signal: AtomicU64::new(0),
            spin: threads <= host_parallelism(),
            work_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            monitor,
            lost: AtomicUsize::new(0),
            faults,
            fault_batches: AtomicUsize::new(0),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bga-pool-{index}"))
                    .spawn(move || worker_main(&shared, index))
                    .expect("failed to spawn bga-parallel pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// A pool sized by a [`PoolConfig`].
    pub fn with_config(config: &PoolConfig) -> Self {
        WorkerPool::new(config.threads)
    }

    /// Worker parallelism of the pool (including the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Health probe: parked workers that died abnormally since the pool
    /// was built. A healthy pool reports 0.
    pub fn lost_workers(&self) -> usize {
        // Relaxed: a health probe. A death it misses now is seen by the
        // next call; no data is read on the strength of this count.
        self.shared.lost.load(Relaxed).min(self.handles.len())
    }

    /// Health probe: parked workers still alive (the submitting thread is
    /// not counted). When this reaches 0 the pool degrades to sequential
    /// execution on the submitting thread instead of aborting.
    pub fn live_workers(&self) -> usize {
        self.handles.len() - self.lost_workers()
    }

    /// Shuts the pool down, joining every worker, and reports how many
    /// died abnormally instead of propagating their panics — the
    /// structured alternative to dropping the pool.
    pub fn shutdown(mut self) -> Result<(), PoolError> {
        let lost_workers = self.join_workers();
        // Drop would repeat the shutdown protocol on an already-drained
        // handle list — harmless, but pointless.
        std::mem::forget(self);
        if lost_workers == 0 {
            Ok(())
        } else {
            Err(PoolError { lost_workers })
        }
    }

    /// The shutdown protocol shared by [`WorkerPool::shutdown`] and
    /// `Drop`: park no new work, wake everyone, join all handles. Returns
    /// the number of workers whose threads terminated by panic. Never
    /// panics itself, so it is safe to run during unwinding.
    fn join_workers(&mut self) -> usize {
        if let Ok(mut control) = self.shared.control.lock() {
            control.shutdown = true;
            // Moves the spin word off every worker's last-seen epoch, so a
            // spinning worker takes `control` and sees `shutdown` now, not
            // after the spin bound. Release pairs with the spin's Acquire
            // load, like `publish`'s store.
            self.shared.signal.fetch_add(1, Release);
        }
        self.shared.work_cv.notify_all();
        self.handles
            .drain(..)
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count()
    }

    fn publish(&self, job: &Arc<Job>) {
        let mut control = self.shared.control.lock().unwrap();
        control.epoch += 1;
        control.job = Some(Arc::clone(job));
        // Release, under the lock: a spinning worker's Acquire load that
        // reads this value happens after the new `job` was stored. The
        // worker then takes `control` to read the job, so the mutex, not
        // this store, is what hands the job over; the store only ends the
        // spin early.
        self.shared.signal.store(control.epoch, Release);
        drop(control);
        self.shared.work_cv.notify_all();
    }
}

impl Execute for WorkerPool {
    fn parallelism(&self) -> usize {
        self.threads
    }

    fn run<T, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let chunks = ranges.len();
        // Single chunk or no (live) parked workers: run inline — zero
        // hand-off overhead and exactly sequential behaviour. A pool whose
        // workers have all died degrades to this path rather than
        // publishing batches nobody else will drain.
        if chunks <= 1 || self.handles.is_empty() || self.live_workers() == 0 {
            return ranges
                .into_iter()
                .enumerate()
                .map(|(i, r)| f(i, r))
                .collect();
        }

        let fault_batch = if FAULT_INJECTION {
            // Relaxed: only the RMW's uniqueness matters (a batch ordinal).
            self.shared.fault_batches.fetch_add(1, Relaxed)
        } else {
            0
        };
        // One write-once slot per chunk; each index is claimed exactly
        // once, so each cell is written by exactly one thread.
        let slots: Vec<ResultSlot<T>> = (0..chunks).map(|_| ResultSlot::new()).collect();
        let faults = &self.shared.faults;
        let task = |index: usize| {
            if FAULT_INJECTION && !faults.is_empty() && index == 0 {
                // Injected task faults land in chunk 0 only, inside the
                // pool's catch_unwind, so a panic propagates to the
                // submitter exactly like a real kernel panic.
                if let Some(delay) = faults.delay_at(fault_batch) {
                    std::thread::sleep(delay);
                }
                if faults.panic_at(fault_batch) {
                    panic!("injected fault: panic in batch {fault_batch}");
                }
            }
            let value = f(index, ranges[index].clone());
            // SAFETY: `index` was claimed exactly once (atomic counter),
            // so this is the only write to the slot.
            unsafe { slots[index].write(value) };
        };
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: the 'static lifetime is a lie confined to this frame.
        // Invariant: `task` (and the `slots` and `f` it borrows) outlives
        // every dereference of the pointer, because each dereference
        // follows a won chunk claim, and this frame does not return before
        // the completion barrier has seen every chunk complete. Nor does it
        // unwind before then: task panics are caught per chunk inside
        // `Job::work`, and no code panics while holding the mutexes locked
        // on the way, so none of their `unwrap`s can meet a poisoned lock.
        // Stale holders of the job never dereference an exhausted claim
        // counter (see `Job`).
        let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
        let job = Arc::new(Job {
            task: task_static as *const _,
            next_chunk: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            chunks,
            claimed: self
                .shared
                .monitor
                .as_ref()
                .map(|_| (0..self.threads).map(|_| AtomicU64::new(0)).collect()),
            panic: Mutex::new(None),
            fault_batch,
        });

        self.publish(&job);
        // The submitter is a full participant: it claims chunks like any
        // worker, so a batch completes even if every parked worker is slow
        // to wake.
        job.work(0, &self.shared.done_lock, &self.shared.done_cv);

        // Completion barrier: wait until every chunk's task invocation has
        // returned, spinning first when the pool may. The Acquire loads
        // pair with the workers' AcqRel `completed` increments, making
        // their slot writes and claim tallies visible.
        let finished = || job.completed.load(Acquire) == chunks;
        if !(self.shared.spin && spin_until(finished)) {
            let mut guard = self.shared.done_lock.lock().unwrap();
            while !finished() {
                guard = self.shared.done_cv.wait(guard).unwrap();
            }
        }

        // All claims happen before their chunk's AcqRel `completed`
        // increment, so after the barrier the tallies are final.
        if let (Some(monitor), Some(claimed)) = (&self.shared.monitor, &job.claimed) {
            let claimed: Vec<u64> = claimed.iter().map(|c| c.load(Relaxed)).collect();
            monitor
                .batches
                .lock()
                .unwrap()
                .push(BatchRecord { chunks, claimed });
        }

        if let Some(payload) = job.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            // SAFETY: all chunks completed without panicking, so every
            // slot was written.
            .map(|slot| unsafe { slot.take() })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Workers that died abnormally were already recorded by their
        // unwind guard; re-panicking here would double panic when the pool
        // is dropped during unwinding, aborting the process. Callers who
        // want the structured report use [`WorkerPool::shutdown`].
        let _ = self.join_workers();
    }
}

fn worker_main(shared: &Shared, who: usize) {
    /// Records an abnormal worker death so the pool's health probe and
    /// sequential fallback see it; a normal (shutdown) return records
    /// nothing.
    struct LossGuard<'a>(&'a Shared);
    impl Drop for LossGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // Relaxed: see `WorkerPool::lost_workers`.
                self.0.lost.fetch_add(1, Relaxed);
            }
        }
    }
    let _guard = LossGuard(shared);
    let mut seen_epoch = 0u64;
    loop {
        // Spin before parking: a batch (or shutdown) that arrives within
        // the bound is picked up without a futex park and wake. Acquire
        // pairs with the Release store in `publish` / `join_workers`.
        // Whatever the spin saw, the lock below decides: a park still
        // means "waited on `work_cv`", which the monitor counts.
        if shared.spin {
            spin_until(|| shared.signal.load(Acquire) != seen_epoch);
        }
        let job = {
            let mut control = shared.control.lock().unwrap();
            loop {
                if control.shutdown {
                    return;
                }
                if control.epoch != seen_epoch {
                    seen_epoch = control.epoch;
                    break control.job.clone().expect("epoch bumped without a job");
                }
                if let Some(monitor) = &shared.monitor {
                    // Relaxed: statistics (see `PoolMonitor::take_metrics`).
                    monitor.parks.fetch_add(1, Relaxed);
                }
                control = shared.work_cv.wait(control).unwrap();
                if let Some(monitor) = &shared.monitor {
                    monitor.wakes.fetch_add(1, Relaxed);
                }
            }
        };
        // Injected worker deaths fire here, *between* batches — after the
        // pick-up, before any chunk claim — so a killed worker can never
        // strand a claimed-but-uncompleted chunk and wedge the completion
        // barrier. The submitter (who drains every unclaimed chunk itself)
        // still completes the batch.
        if FAULT_INJECTION && shared.faults.kill_at(job.fault_batch, who) {
            panic!(
                "injected fault: worker {who} killed at batch {}",
                job.fault_batch
            );
        }
        job.work(who, &shared.done_lock, &shared.done_cv);
    }
}

/// A write-once cell, written by exactly one pool worker and read by the
/// submitter after the completion barrier.
struct ResultSlot<T> {
    value: std::cell::UnsafeCell<Option<T>>,
}

// SAFETY: invariant: slot `i` is written only by the thread that won chunk
// index `i` from the claim counter, which hands every index out exactly
// once, so there is never more than one writer. The slot is read (moved
// out by `take`, which needs ownership) only by the submitter after the
// completion barrier; the writer's AcqRel `completed` increment and the
// submitter's Acquire load order the write before the read, so no access
// races. `T: Send` because the value moves from the writer's thread to
// the submitter's.
unsafe impl<T: Send> Sync for ResultSlot<T> {}

impl<T> ResultSlot<T> {
    fn new() -> Self {
        ResultSlot {
            value: std::cell::UnsafeCell::new(None),
        }
    }

    /// # Safety
    /// Must be called at most once per slot, from the thread that claimed
    /// the slot's chunk index.
    unsafe fn write(&self, value: T) {
        *self.value.get() = Some(value);
    }

    /// # Safety
    /// Must only be called after the completion barrier, with the slot
    /// written.
    unsafe fn take(self) -> T {
        self.value
            .into_inner()
            .expect("pool chunk completed without writing its result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{barabasi_albert, star_graph};

    fn check_cover(ranges: &[Range<usize>], items: usize) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, items);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must tile the span");
        }
    }

    #[test]
    fn ranges_tile_the_vertex_span() {
        let g = barabasi_albert(500, 3, 7);
        for chunks in [1, 2, 3, 8, 499, 500, 501] {
            let ranges = edge_balanced_ranges(g.offsets(), chunks);
            check_cover(&ranges, g.num_vertices());
            assert!(ranges.len() <= chunks.max(1));
        }
    }

    #[test]
    fn edge_weight_is_roughly_balanced() {
        let g = barabasi_albert(2_000, 4, 11);
        let chunks = 8;
        let ranges = edge_balanced_ranges(g.offsets(), chunks);
        let offsets = g.offsets();
        let total = g.num_edge_slots();
        for r in &ranges {
            let weight = offsets[r.end] - offsets[r.start];
            // Each chunk holds at most an equal share plus one max-degree row.
            assert!(
                weight <= total / chunks + g.max_degree(),
                "chunk {r:?} holds {weight} of {total} edge slots"
            );
        }
    }

    #[test]
    fn hub_vertex_does_not_break_chunking() {
        // A star's hub owns half of all edge slots; the split must still
        // tile the span without panicking or producing inverted ranges.
        let g = star_graph(64);
        let ranges = edge_balanced_ranges(g.offsets(), 4);
        check_cover(&ranges, g.num_vertices());
        for r in &ranges {
            assert!(r.start <= r.end);
        }
    }

    #[test]
    fn one_giant_item_dominating_the_prefix_still_tiles() {
        // A single item carrying all the weight: every boundary collapses
        // around it, but the ranges must stay ordered and covering.
        let prefix = vec![0, 0, 0, 1_000_000, 1_000_000, 1_000_000];
        for chunks in [1, 2, 3, 5, 9] {
            let ranges = balanced_prefix_ranges(&prefix, chunks);
            check_cover(&ranges, 5);
            for r in &ranges {
                assert!(r.start <= r.end);
            }
        }
    }

    #[test]
    fn zero_weight_falls_back_to_even_split() {
        let offsets = vec![0usize; 11]; // 10 isolated vertices
        let ranges = balanced_prefix_ranges(&offsets, 4);
        check_cover(&ranges, 10);
        assert!(ranges.iter().all(|r| r.len() <= 3));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(balanced_prefix_ranges(&[0], 4), vec![0..0]);
        assert_eq!(balanced_prefix_ranges(&[], 4), vec![0..0]);
        let one = balanced_prefix_ranges(&[0, 5], 8);
        check_cover(&one, 1);
    }

    #[test]
    fn more_chunks_than_items_never_over_splits() {
        // chunks > items: one range per item at most, still a tiling.
        let prefix = vec![0, 3, 7];
        let ranges = balanced_prefix_ranges(&prefix, 16);
        check_cover(&ranges, 2);
        assert!(ranges.len() <= 2);
        let even = even_ranges(2, 16);
        check_cover(&even, 2);
        assert!(even.len() <= 2);
    }

    #[test]
    fn even_ranges_tile_and_balance() {
        assert_eq!(even_ranges(0, 4), vec![0..0]);
        for (items, chunks) in [(10, 3), (7, 7), (1, 5), (100, 8)] {
            let ranges = even_ranges(items, chunks);
            check_cover(&ranges, items);
            let max = ranges.iter().map(Range::len).max().unwrap();
            let min = ranges.iter().map(Range::len).min().unwrap();
            assert!(max - min <= 1, "{ranges:?}");
        }
    }

    #[test]
    fn run_chunks_returns_results_in_range_order() {
        let ranges = vec![0..3, 3..7, 7..10];
        let sums = run_chunks(ranges, |index, range| (index, range.sum::<usize>()));
        assert_eq!(sums, vec![(0, 3), (1, 18), (2, 24)]);
    }

    #[test]
    fn resolve_threads_handles_zero_and_caps_huge_requests() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(50_000), MAX_THREADS);
    }

    #[test]
    fn grain_override_parsing() {
        assert_eq!(parse_grain_override(None), None);
        assert_eq!(parse_grain_override(Some("")), None);
        assert_eq!(parse_grain_override(Some("0")), None);
        assert_eq!(parse_grain_override(Some("-3")), None);
        assert_eq!(parse_grain_override(Some("grain")), None);
        assert_eq!(parse_grain_override(Some("1")), Some(1));
        assert_eq!(parse_grain_override(Some(" 8192 ")), Some(8192));
    }

    #[test]
    fn pool_config_resolves_threads_and_clamps_grain() {
        let config = PoolConfig::new(3, 0);
        assert_eq!(config.threads, 3);
        assert_eq!(config.grain, 1);
        assert!(PoolConfig::from_env(1).threads == 1);
        assert_eq!(PoolConfig::new(50_000, 64).threads, MAX_THREADS);
    }

    #[test]
    fn effective_chunks_respects_the_grain() {
        assert_eq!(effective_chunks(PARALLEL_GRAIN - 1, 8), 1);
        assert_eq!(effective_chunks(PARALLEL_GRAIN, 8), 8);
        assert_eq!(effective_chunks_with_grain(10, 8, 1), 8);
        assert_eq!(effective_chunks_with_grain(10, 8, 100), 1);
        assert_eq!(effective_chunks_with_grain(10, 0, 1), 1);
    }

    #[test]
    fn pool_runs_chunks_in_range_order() {
        let pool = WorkerPool::new(4);
        let ranges = vec![0..3, 3..7, 7..10];
        let sums = pool.run(ranges, |index, range| (index, range.sum::<usize>()));
        assert_eq!(sums, vec![(0, 3), (1, 18), (2, 24)]);
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        // The point of the pool: hundreds of small batches on the same
        // workers, interleaved with inline single-chunk batches.
        let pool = WorkerPool::new(3);
        for round in 0..200usize {
            let chunks = 1 + round % 5;
            let ranges = even_ranges(round + 1, chunks);
            let got: usize = pool
                .run(ranges, |_i, range| range.sum::<usize>())
                .into_iter()
                .sum();
            assert_eq!(got, (round + 1) * round / 2, "round {round}");
        }
    }

    #[test]
    fn pool_with_one_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let ids = pool.run(vec![0..1, 1..2], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn pool_matches_scoped_executor_results() {
        let g = barabasi_albert(600, 3, 5);
        let ranges = edge_balanced_ranges(g.offsets(), 4);
        let offsets = g.offsets();
        let weight = |_i: usize, r: Range<usize>| offsets[r.end] - offsets[r.start];
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        assert_eq!(pool.run(ranges.clone(), weight), scoped.run(ranges, weight));
        assert_eq!(pool.parallelism(), scoped.parallelism());
    }

    #[test]
    fn monitored_pool_records_batches_and_claims() {
        let monitor = PoolMonitor::new();
        let pool = WorkerPool::with_monitor(4, Arc::clone(&monitor));
        for _ in 0..3 {
            pool.run(even_ranges(64, 8), |_i, range| range.sum::<usize>());
        }
        // Inline batches are not recorded: a single chunk is exactly the
        // case that stays on the calling thread.
        #[allow(clippy::single_range_in_vec_init)]
        pool.run(vec![0..5], |_i, range| range.sum::<usize>());
        let metrics = monitor.take_metrics();
        assert_eq!(metrics.batches.len(), 3);
        for batch in &metrics.batches {
            assert_eq!(batch.chunks, 8);
            assert_eq!(batch.claimed.len(), 4);
            assert_eq!(batch.claimed.iter().sum::<u64>(), 8);
            assert!(batch.imbalance() >= 1.0 - 1e-9);
            assert!(batch.imbalance() <= 4.0 + 1e-9);
        }
        // Draining resets the monitor.
        assert!(monitor.take_metrics().batches.is_empty());
    }

    #[test]
    fn unmonitored_pool_records_nothing_and_batch_imbalance_is_sane() {
        let pool = WorkerPool::new(3);
        pool.run(even_ranges(30, 6), |_i, range| range.len());
        // No monitor: nothing to drain, nothing allocated — just assert the
        // record math directly.
        let even = BatchRecord {
            chunks: 8,
            claimed: vec![2, 2, 2, 2],
        };
        assert!((even.imbalance() - 1.0).abs() < 1e-9);
        let skewed = BatchRecord {
            chunks: 8,
            claimed: vec![8, 0, 0, 0],
        };
        assert!((skewed.imbalance() - 4.0).abs() < 1e-9);
        let degenerate = BatchRecord {
            chunks: 0,
            claimed: Vec::new(),
        };
        assert!((degenerate.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_counts_parks_and_wakes() {
        let monitor = PoolMonitor::new();
        {
            let pool = WorkerPool::with_monitor(2, Arc::clone(&monitor));
            // Give the worker a chance to park at least once, then feed it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            pool.run(even_ranges(16, 4), |_i, range| range.sum::<usize>());
        }
        let metrics = monitor.take_metrics();
        assert!(metrics.parks >= 1, "worker never parked");
        // Shutdown wakes the parked worker, so wakes keep pace with parks.
        assert!(metrics.wakes >= 1, "worker never woke");
    }

    #[test]
    fn spinning_and_parked_workers_both_return_batches_in_range_order() {
        // Pauses of none, about half the spin bound and about twice it
        // catch the worker mid-spin, at the end of its spin and parked.
        // Busy-waits, not sleeps: a sleep's timer slack alone exceeds
        // half the bound.
        let pauses = [Duration::ZERO, SPIN_BOUND / 2, SPIN_BOUND * 2];
        let monitor = PoolMonitor::new();
        let pool = WorkerPool::with_monitor(2, Arc::clone(&monitor));
        for batch in 0..5_000usize {
            let chunks = 2 + batch % 3;
            let ranges = even_ranges(batch + chunks, chunks);
            let got = pool.run(ranges.clone(), |index, range| (index, range));
            let expected: Vec<_> = ranges.into_iter().enumerate().collect();
            assert_eq!(got, expected, "batch {batch}");
            let until = Instant::now() + pauses[batch / 7 % pauses.len()];
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        drop(pool);
        let metrics = monitor.take_metrics();
        assert_eq!(metrics.batches.len(), 5_000);
        assert!(metrics.parks >= 1, "worker never parked");
    }

    #[test]
    fn dropping_a_pool_right_after_a_batch_joins_its_workers() {
        // The worker is still spinning for the next batch when the pool
        // drops; shutdown must reach it and the join must return.
        for round in 0..200usize {
            let pool = WorkerPool::new(2);
            let sums = pool.run(even_ranges(round + 2, 2), |_i, range| range.sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), (round + 2) * (round + 1) / 2);
            drop(pool);
        }
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = WorkerPool::new(4);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![0..1, 1..2, 2..3, 3..4], |index, _| {
                if index == 2 {
                    panic!("chunk 2 exploded");
                }
                index
            })
        }));
        assert!(outcome.is_err());
        // The pool survives the panic and keeps serving batches.
        let sums = pool.run(vec![0..2, 2..4], |_, range| range.sum::<usize>());
        assert_eq!(sums, vec![1, 5]);
    }

    #[test]
    fn healthy_pools_report_no_losses_and_shut_down_cleanly() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.lost_workers(), 0);
        assert_eq!(pool.live_workers(), 2);
        pool.run(even_ranges(16, 4), |_i, range| range.sum::<usize>());
        assert_eq!(pool.lost_workers(), 0);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn injected_task_panics_propagate_and_the_pool_survives() {
        // `phase:0:panic` and `phase:2:panic`: batches 0 and 2 panic in a
        // task, batches 1 and 3 succeed. Task panics are caught per chunk,
        // so no worker thread dies.
        let plan = FaultPlan::new().panic_in_batch(0).panic_in_batch(2);
        let pool = WorkerPool::with_faults(4, plan);
        for batch in 0..4usize {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run(even_ranges(20, 4), |_i, range| range.sum::<usize>())
            }));
            if batch % 2 == 0 {
                assert!(outcome.is_err(), "batch {batch} should panic");
            } else {
                assert_eq!(outcome.unwrap().iter().sum::<usize>(), 190);
            }
        }
        assert_eq!(pool.lost_workers(), 0, "task panics are not worker deaths");
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn injected_delays_slow_a_batch_without_failing_it() {
        let pool = WorkerPool::with_faults(2, FaultPlan::new().delay_batch(0, 10));
        let started = std::time::Instant::now();
        let sums = pool.run(even_ranges(8, 4), |_i, range| range.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 28);
        assert!(started.elapsed() >= std::time::Duration::from_millis(10));
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn dead_workers_degrade_the_pool_to_inline_execution() {
        // Kill both parked workers on their next batch pick-up. The
        // batches still complete (the submitter drains every chunk), the
        // health probe sees the losses, later batches run inline, and
        // shutdown reports the deaths instead of panicking.
        let plan = FaultPlan::new().kill_worker(0, 1).kill_worker(0, 2);
        let pool = WorkerPool::with_faults(3, plan);
        // Parked workers race the submitter to pick a batch up; every
        // batch completes regardless, and each worker dies the first time
        // it wakes for one. Publish batches until both are gone.
        await_worker_deaths(&pool, 2, || {
            let sums = pool.run(even_ranges(24, 6), |_i, range| range.sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), 276);
        });
        assert_eq!(pool.live_workers(), 0);
        // All workers dead: batches fall back to the submitting thread.
        let sums = pool.run(even_ranges(24, 6), |_i, range| range.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 276);
        assert_eq!(pool.shutdown(), Err(PoolError { lost_workers: 2 }));
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn dropping_a_degraded_pool_does_not_panic() {
        let pool = WorkerPool::with_faults(2, FaultPlan::new().kill_worker(0, 1));
        await_worker_deaths(&pool, 1, || {
            pool.run(even_ranges(8, 4), |_i, range| range.sum::<usize>());
        });
        drop(pool); // must not double panic
    }

    /// Publishes batches via `submit` until `deaths` workers have died on
    /// a pick-up. A worker that wakes for a published batch always picks
    /// it up, so the only way to miss one is to not be scheduled before
    /// the submitter has drained the batch alone: on a loaded host that
    /// can outlast any fixed number of back-to-back batches. Sleeping
    /// between batches hands the workers the CPU, and the bound is
    /// elapsed time, not a spin count.
    #[cfg(debug_assertions)]
    fn await_worker_deaths(pool: &WorkerPool, deaths: usize, mut submit: impl FnMut()) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pool.lost_workers() < deaths {
            submit();
            assert!(
                std::time::Instant::now() < deadline,
                "workers never picked up a batch"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn repeated_injected_panics_never_wedge_the_pool() {
        // The acceptance bar: 100 consecutive batches, every one with an
        // injected panic, and the pool neither deadlocks nor aborts — each
        // panic propagates to the submitter as an Err and the next batch
        // runs normally.
        let plan = FaultPlan::new().panic_in_batches(0..100);
        let pool = WorkerPool::with_faults(4, plan);
        for batch in 0..100 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run(even_ranges(16, 4), |_i, range| range.sum::<usize>())
            }));
            assert!(outcome.is_err(), "batch {batch} should have panicked");
        }
        // Batch 100 is past the plan: the pool still works.
        let sums = pool.run(even_ranges(16, 4), |_i, range| range.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 120);
        assert_eq!(pool.lost_workers(), 0);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn run_chunks_rethrows_the_original_panic_payload() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(vec![0..1, 1..2, 2..3], |index, _| {
                if index == 1 {
                    panic!("scoped chunk 1 exploded");
                }
                index
            })
        }));
        let payload = outcome.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "scoped chunk 1 exploded");
    }
}
