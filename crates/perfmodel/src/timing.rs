//! Modelled-time conversion (Figures 3 and 6).
//!
//! The paper plots wall-clock time per SV iteration / BFS level measured on
//! seven real systems. Here each per-step counter block is converted into
//! modelled cycles with the corresponding [`MachineModel`] cost profile; the
//! *shape* of the resulting series — which variant is faster in which
//! iterations, where the crossover falls, the total speedup — is the
//! reproduction target, because it follows from the exact event counts and
//! the profile's relative costs, while absolute cycles would need the
//! original hardware.

use bga_branchsim::MachineModel;
use bga_kernels::stats::RunCounters;

/// A per-step modelled-time series for one (run, machine) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedRun {
    /// Machine the run was modelled on.
    pub machine: &'static str,
    /// Modelled cycles per step (SV iteration or BFS level).
    pub step_cycles: Vec<f64>,
}

impl TimedRun {
    /// Total modelled cycles over all steps.
    pub fn total_cycles(&self) -> f64 {
        self.step_cycles.iter().sum()
    }

    /// Fastest (minimum) step, the paper's per-figure normalization anchor.
    /// Returns `None` for an empty run.
    pub fn fastest_step_cycles(&self) -> Option<f64> {
        self.step_cycles
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
    }

    /// Each step divided by the fastest step of `baseline` — exactly the
    /// ratio plotted on the y-axis of Figures 3 and 6.
    pub fn relative_to_fastest_of(&self, baseline: &TimedRun) -> Vec<f64> {
        match baseline.fastest_step_cycles() {
            Some(min) if min > 0.0 => self.step_cycles.iter().map(|c| c / min).collect(),
            _ => Vec::new(),
        }
    }
}

/// Models every step of `run` on `machine`.
pub fn time_run(run: &RunCounters, machine: &MachineModel) -> TimedRun {
    TimedRun {
        machine: machine.name,
        step_cycles: run
            .steps
            .iter()
            .map(|s| machine.modeled_cycles(&s.counters))
            .collect(),
    }
}

/// Overall speedup of `candidate` over `reference` in modelled time
/// (`reference total / candidate total`) — the number annotated in the
/// corner of each Figure 3 / Figure 6 panel. `None` when the candidate total
/// is zero.
pub fn modeled_speedup(
    reference: &RunCounters,
    candidate: &RunCounters,
    machine: &MachineModel,
) -> Option<f64> {
    let r = time_run(reference, machine).total_cycles();
    let c = time_run(candidate, machine).total_cycles();
    if c == 0.0 {
        None
    } else {
        Some(r / c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_branchsim::machine_model::{bonnell, haswell, piledriver};
    use bga_branchsim::PerfCounters;
    use bga_graph::generators::grid_2d;
    use bga_graph::generators::MeshStencil;
    use bga_graph::transform::relabel_random;
    use bga_kernels::cc::{sv_branch_avoiding_instrumented, sv_branch_based_instrumented};
    use bga_kernels::stats::StepCounters;

    fn synthetic_run(cycles_like: &[u64]) -> RunCounters {
        RunCounters {
            steps: cycles_like
                .iter()
                .enumerate()
                .map(|(i, &c)| StepCounters {
                    step: i,
                    counters: PerfCounters {
                        instructions: c,
                        ..PerfCounters::zero()
                    },
                    edges_traversed: c,
                    vertices_processed: 1,
                    updates: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn totals_and_minima() {
        let run = synthetic_run(&[100, 40, 60]);
        let timed = time_run(&run, &haswell());
        assert_eq!(timed.step_cycles.len(), 3);
        assert!(timed.total_cycles() > 0.0);
        let min = timed.fastest_step_cycles().unwrap();
        assert!(timed.step_cycles.iter().all(|&c| c >= min));
        assert!(TimedRun {
            machine: "x",
            step_cycles: vec![]
        }
        .fastest_step_cycles()
        .is_none());
    }

    #[test]
    fn relative_series_normalizes_to_baseline_minimum() {
        let baseline = time_run(&synthetic_run(&[100, 40, 60]), &haswell());
        let candidate = time_run(&synthetic_run(&[80, 20]), &haswell());
        let rel = candidate.relative_to_fastest_of(&baseline);
        assert_eq!(rel.len(), 2);
        assert!((rel[0] - 2.0).abs() < 1e-12);
        assert!((rel[1] - 0.5).abs() < 1e-12);
        // Self-normalization of the baseline bottoms out at 1.0.
        let self_rel = baseline.relative_to_fastest_of(&baseline);
        let min = self_rel.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_of_identical_runs_is_one() {
        let run = synthetic_run(&[10, 20]);
        let s = modeled_speedup(&run, &run, &piledriver()).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(modeled_speedup(&run, &RunCounters::default(), &piledriver()).is_none());
    }

    #[test]
    fn sv_branch_avoiding_wins_on_deep_pipelines_in_early_iterations() {
        // The headline qualitative claim of Figure 3: on machines with a
        // large misprediction penalty the branch-avoiding kernel is faster
        // in the chaotic early iterations.
        let g = relabel_random(&grid_2d(24, 24, MeshStencil::Moore), 5);
        let based = sv_branch_based_instrumented(&g);
        let avoiding = sv_branch_avoiding_instrumented(&g);
        let machine = piledriver();
        let t_based = time_run(&based.counters, &machine);
        let t_avoiding = time_run(&avoiding.counters, &machine);
        assert!(
            t_avoiding.step_cycles[0] < t_based.step_cycles[0],
            "first sweep: avoiding {} should beat based {}",
            t_avoiding.step_cycles[0],
            t_based.step_cycles[0]
        );
    }

    #[test]
    fn bonnell_penalizes_conditional_moves_more_than_haswell() {
        // The paper's Bonnell panels are where the branch-based SV wins by
        // up to 20%; in the cost model that comes from the expensive
        // predicated operations on the narrow in-order core.
        let mut counters = PerfCounters::zero();
        counters.conditional_moves = 1000;
        assert!(bonnell().modeled_cycles(&counters) > haswell().modeled_cycles(&counters));
    }
}
