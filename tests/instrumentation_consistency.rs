//! Integration tests: the instrumentation substrate reports counts that are
//! consistent with the structure of the graph and with the paper's
//! qualitative claims (branch ratios, store blow-ups, misprediction decay).

use branch_avoiding_graphs::graph::generators::{
    barabasi_albert, grid_2d, grid_3d, path_graph, MeshStencil,
};
use branch_avoiding_graphs::graph::transform::relabel_random;
use branch_avoiding_graphs::graph::CsrGraph;
use branch_avoiding_graphs::kernels::bfs::{
    bfs_branch_avoiding_instrumented, bfs_branch_based_instrumented,
};
use branch_avoiding_graphs::kernels::cc::{
    sv_branch_avoiding_instrumented, sv_branch_based_instrumented,
};
use branch_avoiding_graphs::kernels::stats::RunCounters;

fn mesh() -> CsrGraph {
    relabel_random(&grid_3d(10, 10, 10, MeshStencil::Moore), 17)
}

fn social() -> CsrGraph {
    barabasi_albert(3_000, 3, 5)
}

#[test]
fn sv_branch_counts_match_the_loop_structure_exactly() {
    // Per sweep, the branch-based kernel evaluates:
    //   while: (not counted inside the sweep delta)
    //   outer for: |V| + 1, inner for: |E'| + |V|, if: |E'|
    // and the branch-avoiding kernel everything except the if.
    for g in [mesh(), social()] {
        let e = g.num_edge_slots() as u64;
        let v = g.num_vertices() as u64;
        let based = sv_branch_based_instrumented(&g);
        for step in &based.counters.steps {
            assert_eq!(
                step.counters.branches,
                (v + 1) + (e + v) + e,
                "branch-based sweep"
            );
        }
        let avoiding = sv_branch_avoiding_instrumented(&g);
        for step in &avoiding.counters.steps {
            assert_eq!(
                step.counters.branches,
                (v + 1) + (e + v),
                "branch-avoiding sweep"
            );
        }
    }
}

#[test]
fn sv_load_counts_match_the_algorithm() {
    // Both variants load CCid[v] once per vertex and CCid[u] once per edge
    // slot, every sweep.
    for g in [mesh(), social()] {
        let e = g.num_edge_slots() as u64;
        let v = g.num_vertices() as u64;
        for run in [
            sv_branch_based_instrumented(&g),
            sv_branch_avoiding_instrumented(&g),
        ] {
            for step in &run.counters.steps {
                assert_eq!(step.counters.loads, v + e);
            }
        }
    }
}

#[test]
fn sv_conditional_move_counts_match_edges() {
    let g = mesh();
    let run = sv_branch_avoiding_instrumented(&g);
    for step in &run.counters.steps {
        assert_eq!(step.counters.conditional_moves, g.num_edge_slots() as u64);
    }
    assert_eq!(
        sv_branch_based_instrumented(&g)
            .counters
            .total()
            .conditional_moves,
        0
    );
}

#[test]
fn bfs_store_blowup_tracks_average_degree() {
    // Branch-avoiding BFS stores ~2 per traversed edge; branch-based ~2 per
    // discovered vertex. Their ratio is therefore approximately the average
    // degree of the traversed region — "up to two orders of magnitude" in
    // the paper's denser graphs.
    for g in [mesh(), social()] {
        let based = bfs_branch_based_instrumented(&g, 0);
        let avoiding = bfs_branch_avoiding_instrumented(&g, 0);
        let reached = based.result.reached_count() as f64;
        let edges = based.counters.total_edges_traversed() as f64;
        let expected_ratio = edges / reached;
        let actual_ratio =
            avoiding.counters.total().stores as f64 / based.counters.total().stores.max(1) as f64;
        assert!(
            (actual_ratio / expected_ratio - 1.0).abs() < 0.25,
            "store ratio {actual_ratio:.2} should be near the average degree {expected_ratio:.2}"
        );
    }
}

#[test]
fn sv_early_sweeps_dominate_mispredictions() {
    // Figure 5's shape: the first half of the sweeps accounts for the large
    // majority of the data-dependent mispredictions of the branch-based
    // kernel.
    let g = mesh();
    let based = sv_branch_based_instrumented(&g);
    let avoiding = sv_branch_avoiding_instrumented(&g);
    let extra: Vec<u64> = based
        .counters
        .steps
        .iter()
        .zip(avoiding.counters.steps.iter())
        .map(|(b, a)| {
            b.counters
                .branch_mispredictions
                .saturating_sub(a.counters.branch_mispredictions)
        })
        .collect();
    let half = extra.len() / 2;
    let early: u64 = extra[..half].iter().sum();
    let late: u64 = extra[half..].iter().sum();
    assert!(
        early > 2 * late,
        "data-dependent mispredictions should concentrate early: early={early}, late={late}"
    );
}

#[test]
fn instrumented_counters_are_deterministic() {
    let g = social();
    let a = sv_branch_based_instrumented(&g);
    let b = sv_branch_based_instrumented(&g);
    assert_eq!(a.counters.total(), b.counters.total());
    let x = bfs_branch_avoiding_instrumented(&g, 0);
    let y = bfs_branch_avoiding_instrumented(&g, 0);
    assert_eq!(x.counters.total(), y.counters.total());
}

/// FNV-1a over every field of every step, so a change to any per-step
/// count (not only the totals) changes the hash.
fn fnv_steps(run: &RunCounters) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for s in &run.steps {
        let c = s.counters;
        for word in [
            s.step as u64,
            c.instructions,
            c.branches,
            c.branch_mispredictions,
            c.loads,
            c.stores,
            c.conditional_moves,
            s.edges_traversed,
            s.vertices_processed,
            s.updates,
        ] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn simulator_output_is_pinned() {
    // Exact simulator output (default 2-bit predictor) of the four
    // instrumented kernels: step count, run totals as (instructions,
    // branches, mispredictions, loads, stores, cmovs) and a hash over every
    // step. A refactor of the kernels must leave every number unchanged.
    type Totals = (u64, u64, u64, u64, u64, u64);
    let graphs = [
        ("path50", path_graph(50)),
        ("grid10", grid_2d(10, 10, MeshStencil::VonNeumann)),
        ("ba300", barabasi_albert(300, 2, 21)),
        (
            "moore20",
            relabel_random(&grid_2d(20, 20, MeshStencil::Moore), 7),
        ),
    ];
    let mut runs: Vec<(String, RunCounters)> = Vec::new();
    for (name, g) in &graphs {
        runs.push((
            format!("sv_based/{name}"),
            sv_branch_based_instrumented(g).counters,
        ));
        runs.push((
            format!("sv_avoiding/{name}"),
            sv_branch_avoiding_instrumented(g).counters,
        ));
        runs.push((
            format!("bfs_based/{name}"),
            bfs_branch_based_instrumented(g, 0).counters,
        ));
        runs.push((
            format!("bfs_avoiding/{name}"),
            bfs_branch_avoiding_instrumented(g, 0).counters,
        ));
    }
    let out_of_range = graphs[0].1.num_vertices() as u32;
    runs.push((
        "bfs_based/path50/out_of_range".into(),
        bfs_branch_based_instrumented(&graphs[0].1, out_of_range).counters,
    ));
    runs.push((
        "bfs_avoiding/path50/out_of_range".into(),
        bfs_branch_avoiding_instrumented(&graphs[0].1, out_of_range).counters,
    ));
    #[rustfmt::skip]
    let expected: &[(&str, usize, Totals, u64)] = &[
        ("sv_based/path50", 2, (1335, 594, 154, 296, 49, 0), 0xc959d7740dcacd3f),
        ("sv_avoiding/path50", 2, (1784, 398, 105, 296, 100, 196), 0x2bcd0a0b90f5f570),
        ("bfs_based/path50", 50, (790, 297, 152, 148, 98, 0), 0x4467e77063b4b68c),
        ("bfs_avoiding/path50", 50, (1035, 199, 54, 148, 196, 196), 0x61bc85401df32979),
        ("sv_based/grid10", 2, (3981, 1842, 303, 920, 99, 0), 0xe189a9ffb4847e5b),
        ("sv_avoiding/grid10", 2, (5204, 1122, 204, 920, 200, 720), 0x25af7865793d1ec5),
        ("bfs_based/grid10", 19, (2238, 921, 210, 460, 198, 0), 0x50cd34651683bbc4),
        ("bfs_avoiding/grid10", 19, (3381, 561, 103, 460, 720, 720), 0xafb55de6e4a76027),
        ("sv_based/ba300", 2, (12853, 5978, 903, 2988, 299, 0), 0xfe7fc13db651a008),
        ("sv_avoiding/ba300", 2, (16744, 3590, 604, 2988, 600, 2388), 0x6230869a91b8a226),
        ("bfs_based/ba300", 5, (7174, 2989, 553, 1494, 598, 0), 0xab34427ad2359815),
        ("bfs_avoiding/ba300", 5, (11053, 1795, 303, 1494, 2388, 2388), 0xc7e35becce3a4dc6),
        ("sv_based/moore20", 6, (84669, 40374, 3876, 20184, 1307, 0), 0xb610a48aead95c43),
        ("sv_avoiding/moore20", 6, (108132, 22590, 2408, 20184, 2400, 17784), 0xfa6ee9e2b2ac4fc7),
        ("bfs_based/moore20", 16, (15054, 6729, 827, 3364, 798, 0), 0x55fdba804d145b88),
        ("bfs_avoiding/moore20", 16, (25713, 3765, 403, 3364, 5928, 5928), 0x30293aee1ebe883b),
        ("bfs_based/path50/out_of_range", 0, (0, 0, 0, 0, 0, 0), 0xcbf29ce484222325),
        ("bfs_avoiding/path50/out_of_range", 0, (0, 0, 0, 0, 0, 0), 0xcbf29ce484222325),
    ];
    assert_eq!(runs.len(), expected.len());
    for ((name, run), &(want_name, steps, totals, hash)) in runs.iter().zip(expected) {
        assert_eq!(name, want_name);
        let t = run.total();
        let got: Totals = (
            t.instructions,
            t.branches,
            t.branch_mispredictions,
            t.loads,
            t.stores,
            t.conditional_moves,
        );
        assert_eq!(
            (run.num_steps(), got, fnv_steps(run)),
            (steps, totals, hash),
            "{name}"
        );
    }
}
