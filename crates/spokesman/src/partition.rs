//! Procedure Partition (Appendix A.1.2) and the solvers built on top of it.
//!
//! Procedure Partition splits the right side `N` into `N_uni ∪ N_many ∪ N_tmp`
//! and the left side `S` into `S_uni ∪ S_tmp` so that the four *partition
//! conditions* hold:
//!
//! * **(P1)** every vertex of `N_uni` has a unique neighbor in `S_uni`;
//! * **(P2)** every vertex of `N_tmp` has at least one neighbor in `S_tmp`
//!   and no neighbor in `S_uni`;
//! * **(P3)** `|N_uni| ≥ |N_many|`;
//! * **(P4)** either `N_tmp = ∅` or `|E_tmp| ≤ 2·|E_uni|`, where `E_uni`
//!   (resp. `E_tmp`) are the edges between `S_tmp` and `N_uni` (resp.
//!   `N_tmp`).
//!
//! On top of the procedure we implement:
//!
//! * [`PartitionSolver`] in *low-degree* mode — the Lemma A.3 argument:
//!   restrict `N` to the vertices of degree at most `2δ_N` and run the
//!   procedure once, giving `|Γ¹_S(S')| ≥ |N|/(8δ_N)`.
//! * [`PartitionSolver`] in *recursive* mode (the default) — the Lemma A.13
//!   argument: run the procedure, and if `N_tmp` is non-empty recursively
//!   solve the residual instance `(S_tmp, N_tmp)`, returning the better of
//!   `S_uni` and the recursive answer. This achieves the near-optimal
//!   deterministic bound `|Γ¹_S(S')| ≥ |N|/(9·log 2δ_N)`.

use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wx_graph::{BipartiteGraph, VertexSet};

/// The outcome of one run of Procedure Partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// Left vertices promoted to the spokesman set.
    pub s_uni: VertexSet,
    /// Left vertices never promoted.
    pub s_tmp: VertexSet,
    /// Right vertices with a unique neighbor in `s_uni` (condition P1).
    pub n_uni: VertexSet,
    /// Right vertices that once were in `n_uni` but lost uniqueness ("junk").
    pub n_many: VertexSet,
    /// Right vertices never touched (condition P2).
    pub n_tmp: VertexSet,
}

impl PartitionOutcome {
    /// Verifies the four partition conditions; returns an error message for
    /// the first violated condition. Used by tests and by debug assertions in
    /// the experiment harnesses.
    pub fn check_conditions(
        &self,
        g: &BipartiteGraph,
        candidates: &VertexSet,
    ) -> Result<(), String> {
        // The three right-side parts partition the candidate set.
        let mut seen = VertexSet::empty(g.num_right());
        for part in [&self.n_uni, &self.n_many, &self.n_tmp] {
            for w in part.iter() {
                if !candidates.contains(w) {
                    return Err(format!("right vertex {w} not among candidates"));
                }
                if !seen.insert(w) {
                    return Err(format!("right vertex {w} appears in two parts"));
                }
            }
        }
        if seen.len() != candidates.len() {
            return Err("right parts do not cover all candidates".to_string());
        }
        // (P1)
        for w in self.n_uni.iter() {
            let cnt = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_uni.contains(u))
                .count();
            if cnt != 1 {
                return Err(format!(
                    "(P1) violated: vertex {w} has {cnt} neighbors in S_uni"
                ));
            }
        }
        // (P2)
        for w in self.n_tmp.iter() {
            let in_tmp = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_tmp.contains(u))
                .count();
            let in_uni = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_uni.contains(u))
                .count();
            if in_tmp == 0 {
                return Err(format!(
                    "(P2) violated: vertex {w} of N_tmp has no S_tmp neighbor"
                ));
            }
            if in_uni != 0 {
                return Err(format!("(P2) violated: vertex {w} of N_tmp sees S_uni"));
            }
        }
        // (P3)
        if self.n_uni.len() < self.n_many.len() {
            return Err(format!(
                "(P3) violated: |N_uni| = {} < |N_many| = {}",
                self.n_uni.len(),
                self.n_many.len()
            ));
        }
        // (P4)
        if !self.n_tmp.is_empty() {
            let e_uni: usize = self
                .s_tmp
                .iter()
                .map(|u| {
                    g.left_neighbors(u)
                        .iter()
                        .filter(|&&w| self.n_uni.contains(w))
                        .count()
                })
                .sum();
            let e_tmp: usize = self
                .s_tmp
                .iter()
                .map(|u| {
                    g.left_neighbors(u)
                        .iter()
                        .filter(|&&w| self.n_tmp.contains(w))
                        .count()
                })
                .sum();
            if e_tmp > 2 * e_uni {
                return Err(format!(
                    "(P4) violated: |E_tmp| = {e_tmp} > 2·|E_uni| = {}",
                    2 * e_uni
                ));
            }
        }
        Ok(())
    }
}

/// Right-vertex states of Procedure Partition. A right vertex outside the
/// candidate set never counts towards a gain; a candidate moves at most
/// twice, `TMP → UNI → MANY`.
const OUTSIDE: u8 = 0;
const TMP: u8 = 1;
const UNI: u8 = 2;
const MANY: u8 = 3;

/// Runs Procedure Partition on the bipartite graph `g`, considering only the
/// right vertices in `candidates` (Lemma A.3 and A.13 both run the procedure
/// on a degree-restricted subset of `N`); `candidates` is a set over the
/// right side. Left side is all of `0..num_left`.
///
/// Each step promotes the `v ∈ S_tmp` of highest
/// `gain(v) = |N_tmp(v)| − 2·|N_uni(v)|`, lowest index on ties, while that
/// gain is positive. Gains are kept current incrementally: a right vertex
/// moving `TMP → UNI` shifts the gain of each of its `S_tmp` neighbors by
/// −3, and `UNI → MANY` by +2. Every right vertex moves at most twice, so a
/// run makes at most `2·|E|` gain updates, each costing one push onto a
/// max-queue keyed on `(gain, lowest index)`: `O((|S| + |E|)·log|S|)` in all.
pub fn procedure_partition(g: &BipartiteGraph, candidates: &VertexSet) -> PartitionOutcome {
    let _span = wx_trace::span("spokesman.partition");
    let num_left = g.num_left();
    let num_right = g.num_right();

    let mut state = vec![OUTSIDE; num_right];
    for w in candidates.iter() {
        state[w] = TMP;
    }
    let mut gain: Vec<i64> = (0..num_left)
        .map(|u| {
            g.left_neighbors(u)
                .iter()
                .filter(|&&w| state[w] == TMP)
                .count() as i64
        })
        .collect();
    let mut promoted = vec![false; num_left];
    // The queue holds exactly one live entry `(gain, Reverse(u), stamp[u])`
    // for each u ∈ S_tmp of positive gain; bumping `stamp[u]` retires the
    // previous entry, which is then skipped when popped.
    let mut stamp = vec![0usize; num_left];
    let mut queue: BinaryHeap<(i64, Reverse<usize>, usize)> = gain
        .iter()
        .enumerate()
        .filter(|&(_, &gu)| gu > 0)
        .map(|(u, &gu)| (gu, Reverse(u), 0))
        .collect();
    let mut s_tmp_len = num_left;

    while let Some((_, Reverse(v), v_stamp)) = queue.pop() {
        if stamp[v] != v_stamp {
            continue;
        }
        // Promote v: S_tmp → S_uni. Neighbors of v in N_tmp become uniquely
        // covered (→ N_uni); those in N_uni lose uniqueness (→ N_many).
        promoted[v] = true;
        s_tmp_len -= 1;
        for &w in g.left_neighbors(v) {
            let delta = match state[w] {
                TMP => {
                    state[w] = UNI;
                    -3
                }
                UNI => {
                    state[w] = MANY;
                    2
                }
                _ => continue,
            };
            for &u in g.right_neighbors(w) {
                if promoted[u] {
                    continue;
                }
                gain[u] += delta;
                stamp[u] += 1;
                if gain[u] > 0 {
                    queue.push((gain[u], Reverse(u), stamp[u]));
                }
            }
        }
        // Drop retired entries once they outnumber the live ones, so the
        // queue stays O(|S_tmp|) instead of growing with |E|.
        if queue.len() > 2 * s_tmp_len {
            queue.retain(|&(_, Reverse(u), s)| stamp[u] == s);
        }
    }

    let left_where = |want: bool| {
        VertexSet::from_sorted(
            num_left,
            (0..num_left).filter(|&u| promoted[u] == want).collect(),
        )
    };
    let right_where = |want: u8| {
        VertexSet::from_sorted(
            num_right,
            candidates.iter().filter(|&w| state[w] == want).collect(),
        )
    };
    PartitionOutcome {
        s_uni: left_where(true),
        s_tmp: left_where(false),
        n_uni: right_where(UNI),
        n_many: right_where(MANY),
        n_tmp: right_where(TMP),
    }
}

/// Which variant of the partition-based argument to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// Lemma A.3: restrict to right vertices of degree at most `2δ_N`, run
    /// the procedure once. Guarantee `|N|/(8δ_N)`.
    LowDegreeOnce,
    /// Lemma A.13: run the procedure on all of `N`, recursing into the
    /// residual `(S_tmp, N_tmp)` instance. Guarantee `|N|/(9·log 2δ_N)`.
    Recursive,
}

/// Deterministic solver built on Procedure Partition.
#[derive(Clone, Copy, Debug)]
pub struct PartitionSolver {
    /// Which argument (Lemma A.3 or Lemma A.13) to follow.
    pub mode: PartitionMode,
    /// Safety cap on recursion depth for [`PartitionMode::Recursive`]; the
    /// residual instance shrinks strictly so `log₂|N| + 1` always suffices,
    /// but the cap keeps adversarial inputs from deep recursion.
    pub max_depth: usize,
}

impl Default for PartitionSolver {
    fn default() -> Self {
        PartitionSolver {
            mode: PartitionMode::Recursive,
            max_depth: 64,
        }
    }
}

impl PartitionSolver {
    /// A solver following the single-pass Lemma A.3 argument.
    pub fn low_degree_once() -> Self {
        PartitionSolver {
            mode: PartitionMode::LowDegreeOnce,
            max_depth: 1,
        }
    }

    fn solve_recursive(&self, g: &BipartiteGraph, depth: usize) -> VertexSet {
        let candidates = VertexSet::from_iter(
            g.num_right(),
            (0..g.num_right()).filter(|&w| g.right_degree(w) > 0),
        );
        if candidates.is_empty() || g.num_left() == 0 {
            return VertexSet::empty(g.num_left());
        }
        let outcome = procedure_partition(g, &candidates);
        let mut best_subset = outcome.s_uni.clone();
        let mut best_cov = g.unique_coverage(&best_subset);

        if self.mode == PartitionMode::Recursive
            && depth < self.max_depth
            && !outcome.n_tmp.is_empty()
            && !outcome.s_tmp.is_empty()
            // guard against non-shrinking recursion (possible only if the
            // first round promoted nothing, which cannot happen when some
            // left vertex has a positive gain; be defensive anyway)
            && outcome.n_tmp.len() < candidates.len()
        {
            // Recurse into the residual instance induced by (S_tmp, N_tmp).
            let sub = g.induced(&outcome.s_tmp, &outcome.n_tmp);
            let rec_local = self.solve_recursive(&sub, depth + 1);
            let s_tmp_vertices = outcome.s_tmp.as_slice();
            let rec_subset =
                VertexSet::from_iter(g.num_left(), rec_local.iter().map(|i| s_tmp_vertices[i]));
            let rec_cov = g.unique_coverage(&rec_subset);
            if rec_cov > best_cov {
                best_cov = rec_cov;
                best_subset = rec_subset;
            }
        }
        let _ = best_cov;
        best_subset
    }

    fn solve_low_degree(&self, g: &BipartiteGraph) -> VertexSet {
        let delta_n = g.average_right_degree();
        let cutoff = (2.0 * delta_n).floor() as usize;
        let candidates = VertexSet::from_iter(
            g.num_right(),
            (0..g.num_right()).filter(|&w| {
                let d = g.right_degree(w);
                d > 0 && d <= cutoff.max(1)
            }),
        );
        if candidates.is_empty() {
            return VertexSet::empty(g.num_left());
        }
        procedure_partition(g, &candidates).s_uni
    }
}

impl SpokesmanSolver for PartitionSolver {
    fn kind(&self) -> SolverKind {
        SolverKind::Partition
    }

    fn solve(&self, g: &BipartiteGraph, _seed: u64) -> SpokesmanResult {
        let subset = match self.mode {
            PartitionMode::LowDegreeOnce => self.solve_low_degree(g),
            PartitionMode::Recursive => self.solve_recursive(g, 0),
        };
        SpokesmanResult::from_subset(SolverKind::Partition, g, subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_instance(seed: u64, s: usize, n: usize, p: f64) -> BipartiteGraph {
        let mut rng = wx_graph::random::rng_from_seed(seed);
        let mut edges = Vec::new();
        for u in 0..s {
            for w in 0..n {
                if rng.gen_bool(p) {
                    edges.push((u, w));
                }
            }
        }
        BipartiteGraph::from_edges(s, n, edges).unwrap()
    }

    #[test]
    fn partition_conditions_hold_on_random_instances() {
        for seed in 0..25u64 {
            let g = random_instance(seed, 8, 14, 0.25);
            let candidates = VertexSet::from_iter(
                g.num_right(),
                (0..g.num_right()).filter(|&w| g.right_degree(w) > 0),
            );
            let outcome = procedure_partition(&g, &candidates);
            outcome
                .check_conditions(&g, &candidates)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn partition_on_star() {
        let g = BipartiteGraph::from_edges(1, 5, (0..5).map(|w| (0, w))).unwrap();
        let candidates = VertexSet::full(5);
        let outcome = procedure_partition(&g, &candidates);
        outcome.check_conditions(&g, &candidates).unwrap();
        assert_eq!(outcome.n_uni.len(), 5);
        assert_eq!(outcome.s_uni.len(), 1);
        assert!(outcome.n_tmp.is_empty());
    }

    #[test]
    fn recursive_solver_meets_lemma_a13_guarantee() {
        for seed in 0..20u64 {
            let g = random_instance(seed + 100, 10, 25, 0.3);
            if g.num_edges() == 0 {
                continue;
            }
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;
            let guarantee = (gamma as f64) / (9.0 * (2.0 * delta_n).log2().max(1.0));
            let r = PartitionSolver::default().solve(&g, 0);
            assert!(
                (r.unique_coverage as f64) >= guarantee.floor(),
                "seed {seed}: coverage {} below Lemma A.13 guarantee {guarantee}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn low_degree_solver_meets_lemma_a3_guarantee() {
        for seed in 0..20u64 {
            let g = random_instance(seed + 500, 12, 20, 0.35);
            if g.num_edges() == 0 {
                continue;
            }
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;
            let guarantee = gamma as f64 / (8.0 * delta_n.max(1.0));
            let r = PartitionSolver::low_degree_once().solve(&g, 0);
            assert!(
                (r.unique_coverage as f64) >= guarantee.floor(),
                "seed {seed}: coverage {} below Lemma A.3 guarantee {guarantee}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn recursion_beats_or_matches_single_pass() {
        for seed in 0..10u64 {
            let g = random_instance(seed + 900, 10, 30, 0.4);
            let single = PartitionSolver {
                mode: PartitionMode::Recursive,
                max_depth: 0,
            }
            .solve(&g, 0);
            let rec = PartitionSolver::default().solve(&g, 0);
            assert!(rec.unique_coverage >= single.unique_coverage);
        }
    }

    #[test]
    fn empty_and_edgeless_instances() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(PartitionSolver::default().solve(&g, 0).unique_coverage, 0);
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        assert_eq!(PartitionSolver::default().solve(&g, 0).unique_coverage, 0);
        assert_eq!(
            PartitionSolver::low_degree_once()
                .solve(&g, 0)
                .unique_coverage,
            0
        );
    }

    #[test]
    fn twin_heavy_instance() {
        // Many identical left vertices: partition must promote exactly one.
        let mut edges = Vec::new();
        for u in 0..6 {
            for w in 0..4 {
                edges.push((u, w));
            }
        }
        let g = BipartiteGraph::from_edges(6, 4, edges).unwrap();
        let r = PartitionSolver::default().solve(&g, 0);
        assert_eq!(r.unique_coverage, 4);
    }
}
