//! Centralized spokesman-schedule broadcast.
//!
//! This protocol is the algorithmic payoff of wireless expansion: in every
//! round, take the current informed set `S`, build the bipartite view
//! `(S, Γ⁻(S))`, run a Spokesman-Election solver to pick the subset
//! `S' ⊆ S` with (approximately) maximum unique coverage, and have exactly
//! `S'` transmit. If the network is an `(αw, βw)`-wireless expander, every
//! such round informs at least `βw·|S|` new vertices while `|S| ≤ αw·n`, so
//! the informed set grows geometrically — this is the broadcast framework of
//! Chlamtac–Weinstein \[7\] with the paper's improved spokesman bounds plugged
//! in.
//!
//! The schedule is *centralized* (it needs the topology); it serves as the
//! algorithmic upper bound the distributed decay protocol is compared
//! against, and as the optimal-schedule adversary in the Section-5
//! lower-bound experiment (even this schedule cannot beat `Ω(D·log(n/D))` on
//! the broadcast chain).

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use wx_graph::random::WxRng;
use wx_graph::{BipartiteGraph, GraphView, VertexSet};
use wx_spokesman::{PortfolioSolver, SpokesmanSolver};

/// Which spokesman solver the schedule uses each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleSolver {
    /// The full polynomial-time portfolio (best quality, slowest).
    Portfolio,
    /// The fast portfolio (Procedure Partition + greedy).
    FastPortfolio,
    /// Greedy only (cheapest).
    Greedy,
}

/// Centralized spokesman-schedule broadcast protocol.
#[derive(Clone, Copy, Debug)]
pub struct SpokesmanBroadcast {
    /// Solver choice per round.
    pub solver: ScheduleSolver,
}

impl Default for SpokesmanBroadcast {
    fn default() -> Self {
        SpokesmanBroadcast {
            solver: ScheduleSolver::FastPortfolio,
        }
    }
}

impl SpokesmanBroadcast {
    /// A schedule using the full portfolio each round.
    pub fn thorough() -> Self {
        SpokesmanBroadcast {
            solver: ScheduleSolver::Portfolio,
        }
    }
}

impl<G: GraphView + ?Sized> BroadcastProtocol<G> for SpokesmanBroadcast {
    fn name(&self) -> &'static str {
        "spokesman-schedule"
    }

    fn transmitters_into(
        &mut self,
        view: &RoundView<'_, G>,
        _rng: &mut WxRng,
        out: &mut VertexSet,
    ) {
        // Frontier-only optimization: restrict S to informed vertices with at
        // least one uninformed neighbor. Their S-excluding unique coverage is
        // unaffected (interior vertices contribute no external edges) and the
        // spokesman instance shrinks dramatically on large graphs.
        let frontier = crate::protocols::useful_transmitters(view);
        if frontier.is_empty() {
            return;
        }
        let (bip, left_ids, _right_ids) =
            BipartiteGraph::from_set_in_graph(view.graph, view.informed);
        // Map the frontier into the bipartite instance's left indices and
        // restrict to it.
        let mut keep = VertexSet::empty(bip.num_left());
        for (i, &orig) in left_ids.iter().enumerate() {
            if frontier.contains(orig) {
                keep.insert(i);
            }
        }
        let (restricted, kept_left, _) = bip.restrict_left(&keep);
        let seed = wx_graph::random::derive_seed(0xB40ADCA57, view.round as u64);
        let result = match self.solver {
            ScheduleSolver::Portfolio => PortfolioSolver::default().solve(&restricted, seed),
            ScheduleSolver::FastPortfolio => PortfolioSolver::fast().solve(&restricted, seed),
            ScheduleSolver::Greedy => wx_spokesman::GreedyMinDegreeSolver.solve(&restricted, seed),
        };
        // Translate back: restricted index -> bipartite left index (via
        // `kept_left`) -> original vertex id (via `left_ids`).
        for local in result.subset.iter() {
            out.insert(left_ids[kept_left[local]]);
        }
        // Never return an empty transmitter set while uninformed neighbors
        // remain (could happen if the solver finds zero unique coverage):
        // fall back to a single frontier vertex, which always informs
        // someone... unless that someone has other informed neighbors — in
        // which case any single transmitter is still the safest fallback.
        if out.is_empty() {
            let v = frontier.iter().next().expect("frontier non-empty");
            out.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EnsembleStats;
    use crate::protocols::naive::NaiveFlooding;
    use crate::simulator::{RadioSimulator, SimulatorConfig};

    #[test]
    fn completes_on_c_plus_in_a_few_rounds() {
        let (g, src) = wx_constructions::families::complete_plus_graph(12).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcome = sim.run(&mut SpokesmanBroadcast::default(), 1);
        assert!(outcome.completed_at.is_some());
        assert!(
            outcome.completed_at.unwrap() <= 4,
            "spokesman schedule took {} rounds on C⁺",
            outcome.completed_at.unwrap()
        );
        // while naive flooding never completes
        assert_eq!(sim.run(&mut NaiveFlooding, 1).completed_at, None);
    }

    #[test]
    fn beats_decay_on_expanders() {
        let g = wx_constructions::families::random_regular_graph(128, 6, 11).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let spokesman = sim.run(&mut SpokesmanBroadcast::default(), 3);
        let decay_outcomes: Vec<_> = (0..5)
            .map(|s| sim.run(&mut crate::protocols::decay::DecayProtocol::default(), s))
            .collect();
        let decay_stats = EnsembleStats::from_outcomes(&decay_outcomes);
        assert!(spokesman.completed_at.is_some());
        assert!(decay_stats.completed > 0);
        assert!(
            (spokesman.completed_at.unwrap() as f64) <= decay_stats.mean_rounds.unwrap(),
            "spokesman {} vs decay mean {}",
            spokesman.completed_at.unwrap(),
            decay_stats.mean_rounds.unwrap()
        );
    }

    #[test]
    fn transmitters_are_always_informed_and_nonempty_while_incomplete() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let informed = g.vertex_set([0, 1, src]);
        let newly = g.vertex_set([0, 1]);
        let view = RoundView {
            graph: &g,
            round: 1,
            source: src,
            informed: &informed,
            newly_informed: &newly,
        };
        let mut rng = wx_graph::random::rng_from_seed(0);
        let mut t = g.vertex_set([]);
        SpokesmanBroadcast::default().transmitters_into(&view, &mut rng, &mut t);
        assert!(!t.is_empty());
        assert!(t.is_subset_of(&informed));
        // on C⁺ the chosen subset must be a single clique vertex ({x} or {y})
        assert_eq!(t.len(), 1);
        assert!(t.contains(0) || t.contains(1));
    }

    #[test]
    fn greedy_variant_also_completes() {
        let g = wx_constructions::families::grid_graph(6, 6).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut proto = SpokesmanBroadcast {
            solver: ScheduleSolver::Greedy,
        };
        assert!(sim.run(&mut proto, 0).completed_at.is_some());
    }
}
