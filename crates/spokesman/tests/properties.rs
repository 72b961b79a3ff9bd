//! Property-based tests for the Spokesman Election solvers: validity of the
//! returned subsets, honesty of the reported coverage, the exact solver as
//! ground truth on tiny instances, and the original full-rescan Procedure
//! Partition as the oracle for the incremental one.

use proptest::prelude::*;
use wx_graph::degree::degree_class_buckets;
use wx_graph::{BipartiteGraph, VertexSet};
use wx_spokesman::partition::{procedure_partition, PartitionOutcome};
use wx_spokesman::{
    ChlamtacWeinsteinSolver, CoverageTracker, DegreeClassSolver, ExactSolver,
    GreedyMinDegreeSolver, LocalSearchSolver, PartitionSolver, PortfolioSolver, RandomDecaySolver,
    SpokesmanSolver,
};

fn bipartite(s: usize, n: usize) -> impl Strategy<Value = BipartiteGraph> {
    prop::collection::vec((0..s, 0..n), 0..(s * n / 2).max(1))
        .prop_map(move |edges| BipartiteGraph::from_edges(s, n, edges).expect("edges are in range"))
}

/// Left vertices in groups of identical neighborhoods: `copies` twins of
/// each of 4 prototypes, followed by `isolated` left vertices with no edges.
fn twin_heavy(n: usize) -> impl Strategy<Value = BipartiteGraph> {
    (
        prop::collection::vec((0..4usize, 0..n), 0..3 * n),
        1usize..5,
        0usize..4,
    )
        .prop_map(move |(proto_edges, copies, isolated)| {
            let edges = proto_edges
                .iter()
                .flat_map(|&(p, w)| (0..copies).map(move |c| (p * copies + c, w)));
            BipartiteGraph::from_edges(4 * copies + isolated, n, edges).expect("edges are in range")
        })
}

/// Procedure Partition exactly as it was first written: every promotion
/// rescans all of `S_tmp` and their edges for the argmax. The oracle that
/// [`procedure_partition`]'s incremental gain queue must match bit for bit.
fn procedure_partition_naive(g: &BipartiteGraph, candidates: &VertexSet) -> PartitionOutcome {
    let num_left = g.num_left();
    let num_right = g.num_right();

    let mut s_tmp = VertexSet::full(num_left);
    let mut s_uni = VertexSet::empty(num_left);
    let mut n_tmp = candidates.clone();
    let mut n_uni = VertexSet::empty(num_right);
    let mut n_many = VertexSet::empty(num_right);

    loop {
        if s_tmp.is_empty() {
            break;
        }
        // Pick v ∈ S_tmp maximizing gain(v) = |N_tmp(v)| − 2·|N_uni(v)|.
        let mut best: Option<(usize, i64)> = None;
        for u in s_tmp.iter() {
            let mut tmp_cnt = 0i64;
            let mut uni_cnt = 0i64;
            for &w in g.left_neighbors(u) {
                if n_tmp.contains(w) {
                    tmp_cnt += 1;
                } else if n_uni.contains(w) {
                    uni_cnt += 1;
                }
            }
            let gain = tmp_cnt - 2 * uni_cnt;
            match best {
                None => best = Some((u, gain)),
                Some((_, bg)) if gain > bg => best = Some((u, gain)),
                _ => {}
            }
        }
        let (v, gain) = best.expect("s_tmp is non-empty");
        if gain <= 0 {
            break;
        }
        // Promote v: S_tmp → S_uni.
        s_tmp.remove(v);
        s_uni.insert(v);
        // Neighbors of v previously in N_uni lose uniqueness → N_many.
        // Neighbors of v in N_tmp become uniquely covered → N_uni.
        for &w in g.left_neighbors(v) {
            if n_uni.contains(w) {
                n_uni.remove(w);
                n_many.insert(w);
            } else if n_tmp.contains(w) {
                n_tmp.remove(w);
                n_uni.insert(w);
            }
        }
    }

    PartitionOutcome {
        s_uni,
        s_tmp,
        n_uni,
        n_many,
        n_tmp,
    }
}

/// Runs both Procedure Partitions on `candidates`: the outcomes must be
/// identical, all five sets, and the fast one must satisfy (P1)–(P4)
/// whenever every candidate has a neighbor (an isolated candidate stays in
/// `N_tmp` and breaks (P2); no solver passes one).
fn assert_partition_matches_oracle(
    g: &BipartiteGraph,
    candidates: &VertexSet,
) -> Result<(), TestCaseError> {
    let fast = procedure_partition(g, candidates);
    prop_assert_eq!(&fast, &procedure_partition_naive(g, candidates));
    if candidates.iter().all(|w| g.right_degree(w) > 0) {
        let conditions = fast.check_conditions(g, candidates);
        prop_assert!(conditions.is_ok(), "{:?}", conditions);
    }
    Ok(())
}

/// The candidate sets the solvers hand to Procedure Partition (all right
/// vertices, the non-isolated ones, every degree class at two bases) plus an
/// arbitrary restriction given by `mask`.
fn candidate_sets(g: &BipartiteGraph, mask: &[bool]) -> Vec<VertexSet> {
    let n = g.num_right();
    let mut sets = vec![
        VertexSet::full(n),
        VertexSet::from_iter(n, (0..n).filter(|&w| g.right_degree(w) > 0)),
        VertexSet::from_iter(n, (0..n).filter(|&w| mask.get(w).copied().unwrap_or(false))),
    ];
    for base in [2.0, wx_spokesman::degree_class::OPTIMAL_BASE] {
        for bucket in degree_class_buckets(g, base) {
            sets.push(VertexSet::from_iter(n, bucket));
        }
    }
    sets
}

fn all_solvers() -> Vec<Box<dyn SpokesmanSolver>> {
    vec![
        Box::new(ExactSolver),
        Box::new(RandomDecaySolver::fast()),
        Box::new(PartitionSolver::default()),
        Box::new(PartitionSolver::low_degree_once()),
        Box::new(GreedyMinDegreeSolver),
        Box::new(DegreeClassSolver::default()),
        Box::new(ChlamtacWeinsteinSolver {
            trials_per_level: 2,
        }),
        Box::new(LocalSearchSolver::default()),
        Box::new(PortfolioSolver::fast()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every solver returns a valid subset with honestly computed coverage
    /// that never exceeds the exact optimum, and the optimum itself never
    /// exceeds the number of non-isolated right vertices.
    #[test]
    fn solvers_are_sound_against_the_exact_optimum(g in bipartite(8, 14), seed in 0u64..1000) {
        let (opt, witness) = ExactSolver::optimum(&g);
        prop_assert_eq!(g.unique_coverage(&witness), opt);
        let coverable = (0..g.num_right()).filter(|&w| g.right_degree(w) > 0).count();
        prop_assert!(opt <= coverable);
        for solver in all_solvers() {
            let r = solver.solve(&g, seed);
            prop_assert!(r.subset.iter().all(|u| u < g.num_left()));
            prop_assert_eq!(r.unique_coverage, g.unique_coverage(&r.subset));
            prop_assert!(r.unique_coverage <= opt,
                "{} exceeded the optimum", solver.kind());
        }
    }

    /// Determinism: the deterministic solvers ignore the seed entirely; the
    /// randomized ones are reproducible for a fixed seed.
    #[test]
    fn determinism_contract(g in bipartite(7, 12), seed in 0u64..500) {
        for solver in [&GreedyMinDegreeSolver as &dyn SpokesmanSolver,
                       &PartitionSolver::default(),
                       &DegreeClassSolver::deterministic(3.0)] {
            let a = solver.solve(&g, seed);
            let b = solver.solve(&g, seed.wrapping_add(17));
            prop_assert_eq!(a.unique_coverage, b.unique_coverage,
                "{} is supposed to ignore the seed", solver.kind());
        }
        let r1 = RandomDecaySolver::default().solve(&g, seed);
        let r2 = RandomDecaySolver::default().solve(&g, seed);
        prop_assert_eq!(r1.subset.to_vec(), r2.subset.to_vec());
    }

    /// Monotonicity of the objective itself: adding isolated right vertices
    /// changes nothing; duplicating a right vertex cannot reduce optimal
    /// coverage.
    #[test]
    fn objective_is_stable_under_padding(g in bipartite(6, 10)) {
        let (opt, _) = ExactSolver::optimum(&g);
        // pad with isolated right vertices
        let padded = BipartiteGraph::from_edges(
            g.num_left(),
            g.num_right() + 3,
            g.edges(),
        ).unwrap();
        prop_assert_eq!(ExactSolver::optimum(&padded).0, opt);
        // duplicate right vertex 0 (if it exists): optimum cannot drop
        if g.num_right() > 0 {
            let dup_id = g.num_right();
            let mut edges: Vec<(usize, usize)> = g.edges().collect();
            for &u in g.right_neighbors(0) {
                edges.push((u, dup_id));
            }
            let dup = BipartiteGraph::from_edges(g.num_left(), g.num_right() + 1, edges).unwrap();
            prop_assert!(ExactSolver::optimum(&dup).0 >= opt);
        }
    }

    /// Incremental-delta consistency: over an arbitrary move sequence, the
    /// local-search [`CoverageTracker`]'s O(deg v) delta evaluation and its
    /// maintained coverage agree with a full re-measurement
    /// (`BipartiteGraph::unique_coverage`) after every single flip.
    #[test]
    fn delta_evaluation_agrees_with_full_remeasurement(
        g in bipartite(9, 15),
        moves in prop::collection::vec(0usize..9, 1..60),
        start in prop::collection::btree_set(0usize..9, 0..9),
    ) {
        let start_set = VertexSet::from_iter(g.num_left(), start.iter().copied());
        let mut tracker = CoverageTracker::new(&g, &start_set);
        prop_assert_eq!(tracker.coverage(), g.unique_coverage(&start_set));
        for &u in &moves {
            let was_chosen = tracker.contains(u);
            let before = tracker.coverage() as i64;
            let predicted = tracker.flip_delta(u);
            let applied = tracker.flip(u);
            prop_assert_eq!(predicted, applied);
            prop_assert_eq!(tracker.contains(u), !was_chosen);
            // the maintained coverage matches a from-scratch re-measurement
            let full = g.unique_coverage(tracker.chosen());
            prop_assert_eq!(tracker.coverage(), full,
                "delta path drifted from full re-measurement after flipping {u}");
            prop_assert_eq!(before + applied, full as i64);
        }
    }

    /// The Lemma A.13 guarantee holds for the recursive partition solver on
    /// arbitrary random instances (not just the structured ones in the unit
    /// tests).
    #[test]
    fn partition_meets_lemma_a13_on_arbitrary_instances(g in bipartite(10, 18), seed in 0u64..100) {
        let gamma = (0..g.num_right()).filter(|&w| g.right_degree(w) > 0).count();
        if gamma == 0 {
            return Ok(());
        }
        let delta_n = g.num_edges() as f64 / gamma as f64;
        let guarantee = wx_spokesman::bounds::lemma_a_13_guarantee(gamma, delta_n);
        let r = PartitionSolver::default().solve(&g, seed);
        prop_assert!(r.unique_coverage as f64 >= guarantee.floor(),
            "coverage {} below Lemma A.13 guarantee {guarantee}", r.unique_coverage);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The incremental Procedure Partition picks exactly what the full
    /// rescan picks, on every candidate set the solvers use.
    #[test]
    fn partition_matches_the_naive_scan(
        g in bipartite(16, 24),
        mask in prop::collection::vec(prop::bool::ANY, 24),
    ) {
        for candidates in candidate_sets(&g, &mask) {
            assert_partition_matches_oracle(&g, &candidates)?;
        }
    }

    /// Twins tie on gain throughout, so only the lowest-index rule tells
    /// them apart; isolated left vertices keep gain 0 and are never picked.
    #[test]
    fn partition_matches_the_naive_scan_on_twins(
        g in twin_heavy(18),
        mask in prop::collection::vec(prop::bool::ANY, 18),
    ) {
        for candidates in candidate_sets(&g, &mask) {
            assert_partition_matches_oracle(&g, &candidates)?;
        }
    }

    /// Sparse wide instances run long promotion sequences, where gains
    /// swing both ways and the queue sheds retired entries.
    #[test]
    fn partition_matches_the_naive_scan_on_sparse_instances(
        edges in prop::collection::vec((0usize..60, 0usize..90), 0..240),
        mask in prop::collection::vec(prop::bool::ANY, 90),
    ) {
        let g = BipartiteGraph::from_edges(60, 90, edges).expect("edges are in range");
        for candidates in candidate_sets(&g, &mask) {
            assert_partition_matches_oracle(&g, &candidates)?;
        }
    }
}

#[test]
fn partition_matches_the_naive_scan_on_empty_instances() {
    for (s, n) in [(0, 0), (0, 5), (5, 0), (4, 4)] {
        let g = BipartiteGraph::from_edges(s, n, []).expect("no edges");
        for candidates in [VertexSet::empty(n), VertexSet::full(n)] {
            assert_partition_matches_oracle(&g, &candidates).expect("oracle agrees");
        }
    }
}
