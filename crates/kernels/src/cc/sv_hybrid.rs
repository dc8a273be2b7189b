//! Hybrid Shiloach-Vishkin: branch-avoiding early sweeps, branch-based late
//! sweeps.
//!
//! Section 6.2 of the paper observes that when the two variants cross over,
//! there is a *single* crossover point per (graph, platform): the
//! branch-avoiding version wins the chaotic early iterations (labels change
//! constantly, branches are unpredictable) while the branch-based version
//! wins the calm late iterations (the `if` is almost never taken and
//! predicts perfectly). "The significance of the single crossover point is
//! that this may allow creating a hybrid algorithm that uses the faster of
//! the two algorithms based on the iteration." This module implements that
//! hybrid.

use super::labels::ComponentLabels;
use super::sv;
use bga_branchsim::Uncounted;
use bga_graph::CsrGraph;

/// Switching policy for the hybrid kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SwitchPolicy {
    /// Run the branch-avoiding kernel for exactly this many sweeps, then
    /// switch to branch-based for the remainder (0: every sweep is
    /// branch-based).
    FixedIteration(usize),
    /// Switch to branch-based once the fraction of vertices whose label
    /// changed in a sweep drops below this threshold (the point where the
    /// data-dependent branch becomes predictable).
    ChangeFractionBelow(f64),
}

/// Configuration of [`sv_hybrid`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridConfig {
    /// When to switch from branch-avoiding to branch-based sweeps.
    pub policy: SwitchPolicy,
}

impl Default for HybridConfig {
    /// Default policy: switch once fewer than 5% of vertices change per
    /// sweep, the regime where the paper's branch-based variant regains the
    /// lead on the systems that showed a crossover.
    fn default() -> Self {
        HybridConfig {
            policy: SwitchPolicy::ChangeFractionBelow(0.05),
        }
    }
}

/// Result metadata of a hybrid run (which sweep switched strategies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridReport {
    /// Total sweeps executed.
    pub iterations: usize,
    /// Sweep index (0-based) of the first branch-based sweep; `None` if the
    /// run converged before switching.
    pub switched_at: Option<usize>,
}

/// Runs the hybrid kernel and returns the labels.
pub fn sv_hybrid(graph: &CsrGraph, config: HybridConfig) -> ComponentLabels {
    sv_hybrid_with_report(graph, config).0
}

/// Runs the hybrid kernel, also reporting when the switch happened. The
/// discipline is chosen before each sweep; once switched, the run stays
/// branch-based.
pub fn sv_hybrid_with_report(
    graph: &CsrGraph,
    config: HybridConfig,
) -> (ComponentLabels, HybridReport) {
    let n = graph.num_vertices() as f64;
    let mut switched_at = None;
    // Before sweep `sweep`, given the previous (branch-avoiding) sweep's
    // update count: switch once the policy says so, then stay switched.
    let avoiding = |sweep, updates| {
        let switch = match config.policy {
            SwitchPolicy::FixedIteration(k) => sweep >= k,
            SwitchPolicy::ChangeFractionBelow(threshold) => {
                sweep > 0 && (updates as f64 / n) < threshold
            }
        };
        if switch && switched_at.is_none() {
            switched_at = Some(sweep);
        }
        switched_at.is_none()
    };
    let (labels, iterations, _) = sv::run(graph, &mut Uncounted, avoiding, false);
    let report = HybridReport {
        iterations,
        switched_at,
    };
    (labels, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{barabasi_albert, grid_2d, path_graph, MeshStencil};
    use bga_graph::properties::connected_components_union_find;

    #[test]
    fn hybrid_is_correct_under_both_policies() {
        let graphs = vec![
            path_graph(60),
            grid_2d(12, 12, MeshStencil::Moore),
            barabasi_albert(300, 2, 2),
        ];
        let configs = vec![
            HybridConfig::default(),
            HybridConfig {
                policy: SwitchPolicy::FixedIteration(1),
            },
            HybridConfig {
                policy: SwitchPolicy::FixedIteration(1000),
            },
            HybridConfig {
                policy: SwitchPolicy::ChangeFractionBelow(1.1),
            },
        ];
        for g in &graphs {
            let expected = connected_components_union_find(g);
            for &cfg in &configs {
                assert_eq!(sv_hybrid(g, cfg).canonical(), expected, "{cfg:?}");
            }
        }
    }

    #[test]
    fn fixed_iteration_policy_switches_at_the_requested_sweep() {
        // A randomly relabelled path needs many sweeps to converge (the
        // identity-labelled path collapses in one because every vertex has a
        // lower-numbered neighbour towards vertex 0), so the switch point is
        // actually reached.
        let g = bga_graph::transform::relabel_random(&path_graph(200), 3);
        let (_, report) = sv_hybrid_with_report(
            &g,
            HybridConfig {
                policy: SwitchPolicy::FixedIteration(2),
            },
        );
        assert_eq!(report.switched_at, Some(2));
        assert!(report.iterations > 2, "a long path needs many more sweeps");
        // Zero avoiding sweeps: the run is branch-based from the start.
        let (_, report) = sv_hybrid_with_report(
            &g,
            HybridConfig {
                policy: SwitchPolicy::FixedIteration(0),
            },
        );
        assert_eq!(report.switched_at, Some(0));
    }

    #[test]
    fn no_switch_when_convergence_comes_first() {
        // A star graph converges in a couple of sweeps, before the fixed
        // switch point is reached.
        let g = bga_graph::generators::star_graph(50);
        let (_, report) = sv_hybrid_with_report(
            &g,
            HybridConfig {
                policy: SwitchPolicy::FixedIteration(10),
            },
        );
        assert_eq!(report.switched_at, None);
        assert!(report.iterations <= 3);
    }

    #[test]
    fn change_fraction_policy_switches_when_labels_stabilize() {
        // A high threshold forces an immediate switch after the first sweep
        // on a graph that still has work to do.
        let g = path_graph(200);
        let (_, report) = sv_hybrid_with_report(
            &g,
            HybridConfig {
                policy: SwitchPolicy::ChangeFractionBelow(2.0),
            },
        );
        assert_eq!(report.switched_at, Some(1));
    }
}
