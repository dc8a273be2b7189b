//! The batch op list: nine public request calls, run round-robin in
//! passes so interference hits every op alike. Each call is timed from
//! outside and its whole result compared with a sequential reference
//! outside the timer.

use crate::span::{in_span, Recorder};
use crate::stats::median;
use crate::workload::{Inputs, SSSP_DELTA};
use bga_graph::properties::bfs_distances_reference;
use bga_kernels::bc::betweenness_centrality_sources;
use bga_kernels::cc::sv_branch_avoiding;
use bga_kernels::kcore::kcore_peeling;
use bga_kernels::sssp::sssp_dijkstra;
use bga_parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore, run_sssp_weighted, BfsStrategy, RunConfig,
    Variant,
};
use bga_parallel::{ParBcRun, ParDirBfsRun, ParKcoreRun, ParSvRun, ParWssspRun};
use std::time::{Duration, Instant};

/// Relative tolerance for betweenness scores against sequential Brandes
/// (the parallel reduction reassociates floating-point sums).
const SCORE_TOLERANCE: f64 = 1e-9;

/// One timed public request call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `run_components`, branch-based, raw CSR.
    CcBased,
    /// `run_components`, branch-avoiding, raw CSR.
    CcAvoiding,
    /// `run_bfs`, plain branch-based, raw CSR.
    BfsBased,
    /// `run_bfs`, plain branch-avoiding, raw CSR.
    BfsAvoiding,
    /// `run_components`, branch-avoiding, compressed CSR.
    CcCompressed,
    /// `run_bfs`, plain branch-avoiding, compressed CSR.
    BfsCompressed,
    /// `run_kcore`, branch-avoiding.
    Kcore,
    /// `run_sssp_weighted`, branch-avoiding, `delta = 8`.
    Sssp,
    /// `run_betweenness`, branch-avoiding, two sources.
    Bc,
}

impl Op {
    /// The op list, in the order every pass runs it.
    pub const ALL: [Op; 9] = [
        Op::CcBased,
        Op::CcAvoiding,
        Op::BfsBased,
        Op::BfsAvoiding,
        Op::CcCompressed,
        Op::BfsCompressed,
        Op::Kcore,
        Op::Sssp,
        Op::Bc,
    ];

    /// The end-to-end metric this op's wall time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Op::CcBased => "cc_based_ms",
            Op::CcAvoiding => "cc_avoiding_ms",
            Op::BfsBased => "bfs_based_ms",
            Op::BfsAvoiding => "bfs_avoiding_ms",
            Op::CcCompressed => "cc_compressed_ms",
            Op::BfsCompressed => "bfs_compressed_ms",
            Op::Kcore => "kcore_ms",
            Op::Sssp => "sssp_ms",
            Op::Bc => "bc_ms",
        }
    }

    /// Name of the span the traced run opens around this op.
    fn span(self) -> &'static str {
        match self {
            Op::CcBased => "parallel.request.cc_based",
            Op::CcAvoiding => "parallel.request.cc_avoiding",
            Op::BfsBased => "parallel.request.bfs_based",
            Op::BfsAvoiding => "parallel.request.bfs_avoiding",
            Op::CcCompressed => "parallel.request.cc_compressed",
            Op::BfsCompressed => "parallel.request.bfs_compressed",
            Op::Kcore => "parallel.request.kcore",
            Op::Sssp => "parallel.request.sssp",
            Op::Bc => "parallel.request.bc",
        }
    }
}

/// The run struct an op's request call returned, kept whole so that
/// nothing but the call sits inside the timer.
pub enum Output {
    /// A connected-components run.
    Labels(ParSvRun),
    /// A BFS run.
    Bfs(ParDirBfsRun),
    /// A k-core run.
    Kcore(ParKcoreRun),
    /// A weighted SSSP run.
    Sssp(ParWssspRun),
    /// A betweenness run.
    Bc(ParBcRun),
}

/// Ground truth for betweenness scores.
enum ScoreReference {
    /// Sequential Brandes, compared at [`SCORE_TOLERANCE`] relative.
    Sequential(Vec<f64>),
    /// The same request at one thread, compared bit for bit. Used when
    /// sequential Brandes itself returns non-finite scores: the workspace
    /// counts shortest paths in a wrapping `u64`, and a 350-level Moore
    /// mesh has about 9^350 of them, so neither kernel's scores there are
    /// centralities. What can still be checked is that threads do not
    /// change the result (scores are bit-identical across thread counts).
    OneThread(Vec<f64>),
}

/// Sequential ground truth for every op, computed once per run.
pub struct References {
    labels: Vec<u32>,
    bfs: Vec<u32>,
    sssp: Vec<u32>,
    cores: Vec<u32>,
    scores: ScoreReference,
}

impl References {
    /// Runs the sequential reference of every op on `inputs`.
    ///
    /// Weighted SSSP is checked against sequential Dijkstra, not
    /// `bellman_ford_reference`: Bellman-Ford is O(V·E) and takes seconds
    /// on the mesh, which a gate that runs inside every benchmark run
    /// cannot afford (the workspace's own tests pin Dijkstra to it).
    pub fn compute(inputs: &Inputs) -> Self {
        let sequential = betweenness_centrality_sources(&inputs.graph, &inputs.bc_sources);
        let scores = if sequential.iter().all(|score| score.is_finite()) {
            ScoreReference::Sequential(sequential)
        } else {
            eprintln!(
                "  note: sequential Brandes overflowed its u64 path counts on this graph; \
                 bc_ms is checked bit for bit against a one-thread run instead"
            );
            let one_thread = RunConfig::new().threads(1);
            let sources = Some(&inputs.bc_sources[..]);
            let run = run_betweenness(&inputs.graph, Variant::BranchAvoiding, sources, &one_thread);
            ScoreReference::OneThread(run.0.scores)
        };
        References {
            labels: sv_branch_avoiding(&inputs.graph).as_slice().to_vec(),
            bfs: bfs_distances_reference(&inputs.graph, inputs.root),
            sssp: sssp_dijkstra(&inputs.weighted, inputs.root).into_distances(),
            cores: kcore_peeling(&inputs.graph).into_inner(),
            scores,
        }
    }

    /// Sequential component labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Sequential core numbers.
    pub fn cores(&self) -> &[u32] {
        &self.cores
    }

    /// Whether `output` is what `op` must return.
    pub fn matches(&self, op: Op, output: &Output) -> bool {
        match (op, output) {
            (Op::CcBased | Op::CcAvoiding | Op::CcCompressed, Output::Labels(run)) => {
                run.labels.as_slice() == self.labels
            }
            (Op::BfsBased | Op::BfsAvoiding | Op::BfsCompressed, Output::Bfs(run)) => {
                run.result.distances() == self.bfs
            }
            (Op::Sssp, Output::Sssp(run)) => run.result.distances() == self.sssp,
            (Op::Kcore, Output::Kcore(run)) => run.cores.as_slice() == self.cores,
            (Op::Bc, Output::Bc(run)) => match &self.scores {
                ScoreReference::Sequential(want) => scores_match(&run.scores, want),
                ScoreReference::OneThread(want) => {
                    run.scores.len() == want.len()
                        && run
                            .scores
                            .iter()
                            .zip(want)
                            .all(|(g, w)| g.to_bits() == w.to_bits())
                }
            },
            _ => false,
        }
    }
}

/// Element-wise comparison at [`SCORE_TOLERANCE`] relative.
pub fn scores_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= SCORE_TOLERANCE * w.abs().max(1.0))
}

/// Runs `op` once and returns its wall time in milliseconds with its
/// output. Only the request call is inside the timer.
pub fn run_op(op: Op, inputs: &Inputs, threads: usize) -> (f64, Output) {
    let config = RunConfig::new().threads(threads);
    let avoiding = BfsStrategy::Plain(Variant::BranchAvoiding);
    let started = Instant::now();
    let output = match op {
        Op::CcBased => {
            Output::Labels(run_components(&inputs.graph, Variant::BranchBased, &config).0)
        }
        Op::CcAvoiding => {
            Output::Labels(run_components(&inputs.graph, Variant::BranchAvoiding, &config).0)
        }
        Op::CcCompressed => {
            Output::Labels(run_components(&inputs.compressed, Variant::BranchAvoiding, &config).0)
        }
        Op::BfsBased => {
            let strategy = BfsStrategy::Plain(Variant::BranchBased);
            Output::Bfs(run_bfs(&inputs.graph, inputs.root, strategy, &config).0)
        }
        Op::BfsAvoiding => Output::Bfs(run_bfs(&inputs.graph, inputs.root, avoiding, &config).0),
        Op::BfsCompressed => {
            Output::Bfs(run_bfs(&inputs.compressed, inputs.root, avoiding, &config).0)
        }
        Op::Kcore => Output::Kcore(run_kcore(&inputs.graph, Variant::BranchAvoiding, &config).0),
        Op::Sssp => Output::Sssp(
            run_sssp_weighted(
                &inputs.weighted,
                inputs.root,
                SSSP_DELTA,
                Variant::BranchAvoiding,
                &config,
            )
            .0,
        ),
        Op::Bc => Output::Bc(
            run_betweenness(
                &inputs.graph,
                Variant::BranchAvoiding,
                Some(&inputs.bc_sources),
                &config,
            )
            .0,
        ),
    };
    let millis = started.elapsed().as_secs_f64() * 1e3;
    (millis, output)
}

/// Timings and failure counts of a sequence of passes.
#[derive(Debug, Default)]
pub struct BatchSamples {
    /// Wall times in milliseconds, one vector per op in [`Op::ALL`] order,
    /// one sample per timed pass.
    pub millis: Vec<Vec<f64>>,
    /// Op executions, the warm-up pass included.
    pub attempted: u64,
    /// Op executions whose output differed from the reference.
    pub failed: u64,
}

impl BatchSamples {
    fn new() -> Self {
        BatchSamples {
            millis: vec![Vec::new(); Op::ALL.len()],
            ..BatchSamples::default()
        }
    }

    /// Median wall time of `op` over the timed passes, in milliseconds.
    pub fn median_of(&self, op: Op) -> f64 {
        // `Op::ALL` lists the ops in declaration order.
        median(&self.millis[op as usize])
    }

    /// Number of timed passes.
    pub fn passes(&self) -> usize {
        self.millis[0].len()
    }

    /// Sum of every op's wall time in timed pass `pass`.
    pub fn pass_total(&self, pass: usize) -> f64 {
        self.millis.iter().map(|samples| samples[pass]).sum()
    }
}

/// Runs every op once. With `keep` the timings are recorded as a timed
/// pass; without, the pass only warms up and checks. With a recorder a
/// span is opened around each call and each check.
fn run_pass(
    inputs: &Inputs,
    references: &References,
    threads: usize,
    samples: &mut BatchSamples,
    keep: bool,
    mut recorder: Option<&mut Recorder>,
) {
    let pass = samples.attempted / Op::ALL.len() as u64;
    for (index, op) in Op::ALL.into_iter().enumerate() {
        let op_id = pass * Op::ALL.len() as u64 + index as u64;
        let ((millis, output), _) = in_span(&mut recorder, op.span(), op_id, || {
            run_op(op, inputs, threads)
        });
        let (ok, _) = in_span(&mut recorder, "harness.verify", op_id, || {
            references.matches(op, &output)
        });
        samples.attempted += 1;
        if !ok {
            eprintln!(
                "batch pass {pass}: {} differs from its sequential reference",
                op.metric()
            );
            samples.failed += 1;
        }
        if keep {
            samples.millis[index].push(millis);
        }
    }
}

/// One warm-up pass (also the correctness pass), then timed passes until
/// `budget` is spent — at least `min_passes` of them.
pub fn run_passes(
    inputs: &Inputs,
    references: &References,
    threads: usize,
    budget: Duration,
    min_passes: usize,
) -> BatchSamples {
    let mut samples = BatchSamples::new();
    run_pass(inputs, references, threads, &mut samples, false, None);
    let started = Instant::now();
    while samples.passes() < min_passes || started.elapsed() < budget {
        run_pass(inputs, references, threads, &mut samples, true, None);
    }
    samples
}

/// The traced variant of [`run_passes`]: passes run in pairs, one with
/// spans and one without, alternating which goes first, so the two series
/// see the same drift. Returns `(spanned, plain)`.
pub fn run_paired_passes(
    inputs: &Inputs,
    references: &References,
    threads: usize,
    budget: Duration,
    min_pairs: usize,
    recorder: &mut Recorder,
) -> (BatchSamples, BatchSamples) {
    let mut spanned = BatchSamples::new();
    let mut plain = BatchSamples::new();
    run_pass(inputs, references, threads, &mut plain, false, None);
    let started = Instant::now();
    while spanned.passes() < min_pairs || started.elapsed() < budget {
        let spans_first = spanned.passes().is_multiple_of(2);
        if spans_first {
            run_pass(
                inputs,
                references,
                threads,
                &mut spanned,
                true,
                Some(recorder),
            );
        }
        run_pass(inputs, references, threads, &mut plain, true, None);
        if !spans_first {
            run_pass(
                inputs,
                references,
                threads,
                &mut spanned,
                true,
                Some(recorder),
            );
        }
    }
    (spanned, plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_inputs, find_workload};
    use bga_kernels::bfs::BfsResult;

    #[test]
    fn every_op_matches_its_reference_on_both_graph_shapes() {
        for name in ["batch_powerlaw", "batch_mesh"] {
            let workload = find_workload(name, true).unwrap();
            let inputs = build_inputs(&workload, 4);
            let references = References::compute(&inputs);
            let samples = run_passes(&inputs, &references, 2, Duration::ZERO, 1);
            assert_eq!(samples.passes(), 1);
            assert_eq!(samples.attempted, 18);
            assert_eq!(samples.failed, 0, "{name}");
            assert!(samples.pass_total(0) > 0.0);
        }
    }

    #[test]
    fn a_wrong_output_is_a_failed_op() {
        let workload = find_workload("batch_mesh", true).unwrap();
        let inputs = build_inputs(&workload, 4);
        let references = References::compute(&inputs);
        let (_, output) = run_op(Op::BfsAvoiding, &inputs, 1);
        assert!(references.matches(Op::BfsAvoiding, &output));
        assert!(!references.matches(Op::CcAvoiding, &output));
        let Output::Bfs(mut run) = output else {
            panic!("bfs returns a bfs run");
        };
        let mut distances = run.result.distances().to_vec();
        distances[1] ^= 1;
        run.result = BfsResult::new(distances, run.result.visit_order().to_vec());
        assert!(!references.matches(Op::BfsAvoiding, &Output::Bfs(run)));
    }

    #[test]
    fn the_op_list_is_in_declaration_order() {
        for (index, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, index);
        }
    }

    #[test]
    fn scores_compare_at_a_relative_tolerance() {
        assert!(scores_match(&[1e12, 0.0], &[1e12 + 1.0, 0.0]));
        assert!(!scores_match(&[1e12, 0.0], &[1.001e12, 0.0]));
        assert!(!scores_match(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn paired_passes_record_spans_only_on_the_spanned_series() {
        let workload = find_workload("batch_powerlaw", true).unwrap();
        let inputs = build_inputs(&workload, 2);
        let references = References::compute(&inputs);
        let mut recorder = Recorder::new();
        let (spanned, plain) =
            run_paired_passes(&inputs, &references, 2, Duration::ZERO, 2, &mut recorder);
        assert_eq!(spanned.passes(), 2);
        assert_eq!(plain.passes(), 2);
        assert_eq!(spanned.failed + plain.failed, 0);
        // Two spanned passes, nine ops, one call span and one check span each.
        assert_eq!(recorder.spans().len(), 2 * 9 * 2);
    }
}
