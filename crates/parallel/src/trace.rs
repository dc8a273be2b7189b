//! Run-level scaffolding shared by the kernel drivers.
//!
//! [`RunScope`] is where a [`RunConfig`] turns into a run: it decides,
//! once, which executor the kernels fan out on, whether they tally, and
//! whether the pool is monitored and a trace header built — so every
//! kernel has one driver and a default config pays for none of it.
//!
//! The engine loops emit bare [`TraceEvent::Phase`] events; what turns a
//! stream of phases into a well-formed `bga-trace-v1` document is the
//! [`TraceRun`] wrapper below: it emits the `run-start` header, counts and
//! accumulates every phase that flows through it, replays the worker
//! pool's collected metrics, and closes the stream with a `run-end`
//! trailer whose totals are exactly the sum of the forwarded phase
//! counters — the invariant `bga trace validate` checks.

use crate::cancel::{CancelToken, RunOutcome};
use crate::pool::{Execute, PoolMetrics, PoolMonitor, WorkerPool};
use crate::request::{ExecutorAxis, RunConfig};
use bga_graph::GraphFootprint;
use bga_obs::{PhaseCounters, RunFootprint, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One kernel run's resolved configuration: the executor, the fan-out
/// grain, the tally switch, the cancel token and the trace scope. Every
/// driver opens one first and closes it with the run's outcome.
pub(crate) struct RunScope<'a, S: TraceSink, X: ExecutorAxis> {
    axis: X,
    /// The pool the run built for itself, when the caller lent none.
    own: Option<WorkerPool>,
    /// Attached to `own` on traced runs only: nothing but the trace reads
    /// the batch records, and an unmonitored pool records nothing.
    monitor: Option<Arc<PoolMonitor>>,
    trace: TraceRun<'a, S>,
    /// Minimum weight units before a phase fans out.
    pub(crate) grain: usize,
    /// Whether every phase tallies: the caller asked for counters, or a
    /// trace needs real phase counters. A cancel token alone does not.
    /// The engine loops take it with the executor and grain.
    pub(crate) tally: bool,
    /// Checked by the loops at every phase boundary.
    pub(crate) cancel: Option<&'a CancelToken>,
}

impl<'a, S: TraceSink, X: ExecutorAxis> RunScope<'a, S, X> {
    /// Resolves `config` into a run. `header` builds the `run-start`
    /// event from the resolved `(threads, grain)`; it is only called (and
    /// its strings only allocated) when the sink is enabled.
    pub(crate) fn open(
        config: &RunConfig<'a, S, X>,
        header: impl FnOnce(usize, usize) -> TraceEvent,
    ) -> Self {
        let monitor = (X::OWN_POOL && S::ENABLED).then(PoolMonitor::new);
        let own = X::OWN_POOL.then(|| match &monitor {
            Some(monitor) => WorkerPool::with_monitor(config.threads, Arc::clone(monitor)),
            None => WorkerPool::new(config.threads),
        });
        let grain = config.resolved_grain();
        let threads = config.exec.executor(own.as_ref()).parallelism();
        RunScope {
            axis: config.exec,
            own,
            monitor,
            trace: TraceRun::start(config.sink, || header(threads, grain)),
            grain,
            tally: config.instrumented || S::ENABLED,
            cancel: config.cancel,
        }
    }

    /// The executor the run fans out on.
    pub(crate) fn exec(&self) -> &X::Exec {
        self.axis.executor(self.own.as_ref())
    }

    /// Worker count the run uses.
    pub(crate) fn threads(&self) -> usize {
        self.exec().parallelism()
    }

    /// The sink the engine loops emit phases into.
    pub(crate) fn sink(&self) -> &TraceRun<'a, S> {
        &self.trace
    }

    /// Ends the run: the pool-degradation warning and batch records of a
    /// pool the run owns, then the outcome-marked `run-end` trailer (all
    /// of it compiled out with a disabled sink). The pool itself goes
    /// when the scope is dropped.
    pub(crate) fn close(&self, outcome: &RunOutcome) {
        if let Some(pool) = &self.own {
            emit_degradation_warning(pool, &self.trace);
        }
        let metrics = self.monitor.as_ref().map(|monitor| monitor.take_metrics());
        self.trace.finish_with_outcome(metrics, outcome);
    }
}

/// Scopes one kernel run over an inner sink: header on construction,
/// phase accounting while the engine runs, pool metrics and trailer on
/// [`TraceRun::finish_with_outcome`]. Implements [`TraceSink`] itself so
/// it can be handed straight to the engine loops' `run`; with a disabled
/// inner sink every method is a no-op.
pub(crate) struct TraceRun<'a, S: TraceSink> {
    inner: &'a S,
    /// `(phase events forwarded, summed phase counters)`.
    acc: Mutex<(usize, PhaseCounters)>,
    started: Option<Instant>,
}

impl<'a, S: TraceSink> TraceRun<'a, S> {
    /// Emits the `run-start` header (built only for an enabled sink) and
    /// opens the run scope.
    pub(crate) fn start(inner: &'a S, header: impl FnOnce() -> TraceEvent) -> Self {
        let started = S::ENABLED.then(Instant::now);
        if S::ENABLED {
            inner.emit(header());
        }
        TraceRun {
            inner,
            acc: Mutex::new((0, PhaseCounters::default())),
            started,
        }
    }

    /// Replays the pool's collected metrics (when monitored) and emits
    /// the `run-end` trailer. A completed outcome leaves the trailer
    /// plain; an interrupted one marks it with the reason, so the stream
    /// stays a valid `bga-trace-v1` document (header, consecutive phases,
    /// totals that sum) that *says* it stopped early.
    pub(crate) fn finish_with_outcome(&self, metrics: Option<PoolMetrics>, outcome: &RunOutcome) {
        if !S::ENABLED {
            return;
        }
        if let Some(metrics) = &metrics {
            emit_pool_metrics(self.inner, metrics);
        }
        let (phases, totals) = *self.acc.lock().unwrap();
        self.inner.emit(TraceEvent::RunEnd {
            phases,
            totals,
            wall_ns: self.started.map_or(0, |t| t.elapsed().as_nanos() as u64),
            interrupted: outcome.reason_str().map(str::to_string),
        });
    }
}

impl<S: TraceSink> TraceSink for TraceRun<'_, S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&self, event: TraceEvent) {
        if let TraceEvent::Phase(phase) = &event {
            let mut acc = self.acc.lock().unwrap();
            acc.0 += 1;
            acc.1 += phase.counters;
        }
        self.inner.emit(event);
    }
}

/// Converts the graph crate's [`GraphFootprint`] into the owned form the
/// `run-start` header carries (`bga-obs` cannot depend on `bga-graph`, so
/// the trace schema keeps its own copy of the shape).
pub(crate) fn run_footprint(fp: GraphFootprint) -> RunFootprint {
    RunFootprint {
        representation: fp.representation.to_string(),
        adjacency_bytes: fp.adjacency_bytes,
        index_bytes: fp.index_bytes,
        csr_bytes: fp.csr_bytes,
    }
}

/// Emits a `pool-degraded` [`TraceEvent::Warning`] when the run's pool
/// lost workers: the run still completed (dead workers' chunks are
/// drained by the survivors and the submitting thread; with no survivors
/// the pool falls back to inline execution), but the schedule degraded
/// and the trace should say so. Guarded by the sink's `ENABLED` constant
/// like every other emission site.
pub(crate) fn emit_degradation_warning<S: TraceSink>(pool: &WorkerPool, sink: &S) {
    if S::ENABLED && pool.lost_workers() > 0 {
        sink.emit(TraceEvent::Warning {
            code: "pool-degraded".to_string(),
            message: format!(
                "{} of {} pool workers lost; their chunks ran on surviving \
                 threads (inline once none survive)",
                pool.lost_workers(),
                pool.threads().saturating_sub(1),
            ),
        });
    }
}

/// Replays collected [`PoolMetrics`] as one `pool-batch` event per
/// recorded batch followed by the `pool-summary` totals.
fn emit_pool_metrics<S: TraceSink>(sink: &S, metrics: &PoolMetrics) {
    for (batch, record) in metrics.batches.iter().enumerate() {
        sink.emit(TraceEvent::PoolBatch {
            batch,
            chunks: record.chunks,
            claimed: record.claimed.clone(),
            imbalance: record.imbalance(),
        });
    }
    sink.emit(TraceEvent::PoolSummary {
        batches: metrics.batches.len(),
        parks: metrics.parks as usize,
        wakes: metrics.wakes as usize,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BatchRecord;
    use bga_obs::{MemorySink, NoopSink, PhaseEvent, PhaseKind};

    fn phase(counters_scale: u64) -> TraceEvent {
        TraceEvent::Phase(PhaseEvent {
            index: 0,
            kind: PhaseKind::TopDown,
            bucket: None,
            frontier: 1,
            discovered: 1,
            changed: None,
            counters: PhaseCounters {
                updates: counters_scale,
                edges: 2 * counters_scale,
                ..PhaseCounters::default()
            },
            wall_ns: 0,
        })
    }

    #[test]
    fn run_scope_brackets_phases_with_header_and_totals() {
        let sink = MemorySink::new();
        let scope = TraceRun::start(&sink, || TraceEvent::RunStart {
            kernel: "bfs".to_string(),
            variant: "branch-avoiding".to_string(),
            vertices: 4,
            edges: 6,
            threads: 2,
            grain: 64,
            delta: None,
            root: Some(0),
            footprint: None,
        });
        scope.emit(phase(1));
        scope.emit(phase(2));
        scope.finish_with_outcome(
            Some(PoolMetrics {
                batches: vec![BatchRecord {
                    chunks: 4,
                    claimed: vec![3, 1],
                }],
                parks: 5,
                wakes: 4,
            }),
            &RunOutcome::Completed,
        );
        let events = sink.take();
        assert_eq!(events.len(), 6);
        assert!(matches!(events[0], TraceEvent::RunStart { .. }));
        assert!(matches!(
            events[3],
            TraceEvent::PoolBatch {
                batch: 0,
                chunks: 4,
                ..
            }
        ));
        assert!(matches!(
            events[4],
            TraceEvent::PoolSummary {
                batches: 1,
                parks: 5,
                wakes: 4
            }
        ));
        match &events[5] {
            TraceEvent::RunEnd { phases, totals, .. } => {
                assert_eq!(*phases, 2);
                assert_eq!(totals.updates, 3);
                assert_eq!(totals.edges, 6);
            }
            other => panic!("expected run-end, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_outcomes_mark_the_trailer() {
        use crate::cancel::InterruptReason;
        let sink = MemorySink::new();
        let scope = TraceRun::start(&sink, || TraceEvent::RunStart {
            kernel: "cc".to_string(),
            variant: "branch-avoiding".to_string(),
            vertices: 4,
            edges: 6,
            threads: 2,
            grain: 64,
            delta: None,
            root: None,
            footprint: None,
        });
        scope.emit(phase(1));
        scope.finish_with_outcome(
            None,
            &RunOutcome::Interrupted {
                reason: InterruptReason::DeadlineExpired,
                phases_done: 1,
            },
        );
        let events = sink.take();
        match events.last() {
            Some(TraceEvent::RunEnd {
                phases,
                interrupted,
                ..
            }) => {
                assert_eq!(*phases, 1);
                assert_eq!(interrupted.as_deref(), Some("deadline"));
            }
            other => panic!("expected run-end, got {other:?}"),
        }
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn lost_workers_surface_as_a_degradation_warning() {
        use crate::fault::FaultPlan;
        use crate::pool::{even_ranges, Execute};

        let pool = WorkerPool::with_faults(2, FaultPlan::new().kill_worker(0, 1));
        let mut spins = 0;
        while pool.lost_workers() < 1 {
            pool.run(even_ranges(8, 4), |_i, range| range.sum::<usize>());
            spins += 1;
            assert!(spins < 10_000, "worker never picked up a batch");
            std::thread::yield_now();
        }
        let sink = MemorySink::new();
        emit_degradation_warning(&pool, &sink);
        match sink.take().as_slice() {
            [TraceEvent::Warning { code, message }] => {
                assert_eq!(code, "pool-degraded");
                assert!(message.contains("1 of 1"), "unexpected message {message:?}");
            }
            other => panic!("expected one pool-degraded warning, got {other:?}"),
        }
        // A healthy pool warns about nothing.
        let healthy = WorkerPool::new(2);
        emit_degradation_warning(&healthy, &sink);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn disabled_scope_emits_nothing() {
        let scope = TraceRun::start(&NoopSink, || {
            unreachable!("a disabled sink builds no header")
        });
        const _: () = assert!(!TraceRun::<'static, NoopSink>::ENABLED);
        assert!(scope.started.is_none());
        scope.finish_with_outcome(None, &RunOutcome::Completed);
    }
}
