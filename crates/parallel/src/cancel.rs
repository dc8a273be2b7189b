//! Cooperative cancellation for the engine loops.
//!
//! The paper's branch-avoiding kernels make interruption unusually cheap
//! to offer: every update is monotone and idempotent (a label store never
//! above the old label, `fetch_min` on a distance, `fetch_sub` on a degree), so
//! stopping between phases leaves the shared [`crate::TraversalState`] (or
//! label/degree array) *valid* — each entry is a correct upper bound that a
//! resumed run can keep lowering — merely unconverged. The engine loops
//! therefore check a [`CancelToken`] only at phase boundaries: the check
//! is a couple of loads per BFS level / SV sweep / bucket pass, and an
//! interrupted run returns the partial state intact together with a
//! structured [`RunOutcome`].
//!
//! A token combines three independent stop conditions, all optional:
//!
//! * a shared flag raised by [`CancelToken::cancel`] (remote cancellation
//!   — clones share the flag, so any clone can stop the run);
//! * a monotonic deadline ([`CancelToken::with_deadline_in`]) — the basis
//!   of the CLI's `--timeout-ms`;
//! * a phase budget ([`CancelToken::with_phase_budget`]) — deterministic
//!   "stop after N phases", which is what the robustness tests use to cut
//!   a run at an exact, reproducible point.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cancellable run stopped before convergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptReason {
    /// [`CancelToken::cancel`] was called (on this token or a clone).
    Cancelled,
    /// The token's monotonic deadline passed.
    DeadlineExpired,
    /// The token's phase budget was used up.
    PhaseBudgetExhausted,
}

impl InterruptReason {
    /// The serialized name, as carried by the trace trailer's
    /// `interrupted` field: `cancelled`, `deadline` or `phase-budget`.
    pub fn as_str(self) -> &'static str {
        match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::DeadlineExpired => "deadline",
            InterruptReason::PhaseBudgetExhausted => "phase-budget",
        }
    }
}

/// How a cancellable run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The kernel ran to convergence; results are final.
    Completed,
    /// The kernel stopped at a phase boundary before convergence. The
    /// returned state is valid partial state: every per-vertex value is a
    /// correct monotone bound, and resuming from it converges to the same
    /// fixpoint an uninterrupted run reaches.
    Interrupted {
        /// Which stop condition fired.
        reason: InterruptReason,
        /// Engine phases that fully completed before the stop.
        phases_done: usize,
    },
}

impl RunOutcome {
    /// `true` when the run converged.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// The interruption reason, `None` for a completed run.
    pub fn reason(&self) -> Option<InterruptReason> {
        match self {
            RunOutcome::Completed => None,
            RunOutcome::Interrupted { reason, .. } => Some(*reason),
        }
    }

    /// The serialized interruption reason for the trace trailer.
    pub fn reason_str(&self) -> Option<&'static str> {
        self.reason().map(InterruptReason::as_str)
    }
}

/// A cooperative stop request checked by the engine loops at phase
/// boundaries.
///
/// Cloning shares the cancellation flag (any clone's [`CancelToken::cancel`]
/// stops the run) but copies the deadline and budget, which are immutable
/// after construction.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    phase_budget: Option<usize>,
}

impl CancelToken {
    /// A token with no deadline and no budget: it only stops a run once
    /// [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Adds a monotonic deadline `timeout` from now. A run holding this
    /// token stops at the first phase boundary after the deadline passes.
    pub fn with_deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Adds an explicit monotonic deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a phase budget: the run stops at the boundary where `phases`
    /// engine phases have completed. `with_phase_budget(0)` stops before
    /// the first phase runs — the state returned is the freshly
    /// initialised one.
    pub fn with_phase_budget(mut self, phases: usize) -> Self {
        self.phase_budget = Some(phases);
        self
    }

    /// Raises the shared cancellation flag. Idempotent; visible to every
    /// clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Relaxed);
    }

    /// Whether the shared flag has been raised (deadline and budget are
    /// not consulted — use [`CancelToken::should_stop`] for the full
    /// check).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Relaxed)
    }

    /// The phase-boundary check: given that `phases_done` phases have
    /// completed, should the run stop now, and why? Checks the flag first,
    /// then the budget, then the deadline (`Instant::now` is only read
    /// when a deadline was set).
    pub fn should_stop(&self, phases_done: usize) -> Option<InterruptReason> {
        if self.flag.load(Relaxed) {
            return Some(InterruptReason::Cancelled);
        }
        if let Some(budget) = self.phase_budget {
            if phases_done >= budget {
                return Some(InterruptReason::PhaseBudgetExhausted);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptReason::DeadlineExpired);
            }
        }
        None
    }
}

/// The engine-side helper: `None` tokens never stop (the path every run
/// without a token takes), `Some` tokens get the full check. Split out so
/// every loop phrases its boundary check identically.
pub(crate) fn check(cancel: Option<&CancelToken>, phases_done: usize) -> Option<RunOutcome> {
    let token = cancel?;
    token
        .should_stop(phases_done)
        .map(|reason| RunOutcome::Interrupted {
            reason,
            phases_done,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_never_stop() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.should_stop(0), None);
        assert_eq!(token.should_stop(1_000_000), None);
        assert_eq!(check(None, 3), None);
        assert_eq!(check(Some(&token), 3), None);
    }

    #[test]
    fn cancel_is_shared_across_clones_and_idempotent() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.should_stop(0), Some(InterruptReason::Cancelled));
        assert_eq!(
            check(Some(&token), 7),
            Some(RunOutcome::Interrupted {
                reason: InterruptReason::Cancelled,
                phases_done: 7
            })
        );
    }

    #[test]
    fn phase_budget_stops_at_the_exact_boundary() {
        let token = CancelToken::new().with_phase_budget(3);
        assert_eq!(token.should_stop(0), None);
        assert_eq!(token.should_stop(2), None);
        assert_eq!(
            token.should_stop(3),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        assert_eq!(
            token.should_stop(4),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        // Budget 0 stops before any phase runs.
        let zero = CancelToken::new().with_phase_budget(0);
        assert_eq!(
            zero.should_stop(0),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
    }

    #[test]
    fn deadlines_fire_once_passed() {
        let expired = CancelToken::new().with_deadline_at(Instant::now() - Duration::from_secs(1));
        assert_eq!(
            expired.should_stop(0),
            Some(InterruptReason::DeadlineExpired)
        );
        let distant = CancelToken::new().with_deadline_in(Duration::from_secs(3600));
        assert_eq!(distant.should_stop(0), None);
    }

    #[test]
    fn flag_beats_budget_beats_deadline() {
        let token = CancelToken::new()
            .with_phase_budget(0)
            .with_deadline_at(Instant::now() - Duration::from_secs(1));
        assert_eq!(
            token.should_stop(0),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        token.cancel();
        assert_eq!(token.should_stop(0), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn outcome_accessors() {
        assert!(RunOutcome::Completed.is_completed());
        assert_eq!(RunOutcome::Completed.reason(), None);
        assert_eq!(RunOutcome::Completed.reason_str(), None);
        let interrupted = RunOutcome::Interrupted {
            reason: InterruptReason::DeadlineExpired,
            phases_done: 5,
        };
        assert!(!interrupted.is_completed());
        assert_eq!(interrupted.reason(), Some(InterruptReason::DeadlineExpired));
        assert_eq!(interrupted.reason_str(), Some("deadline"));
        assert_eq!(InterruptReason::Cancelled.as_str(), "cancelled");
        assert_eq!(
            InterruptReason::PhaseBudgetExhausted.as_str(),
            "phase-budget"
        );
    }
}
