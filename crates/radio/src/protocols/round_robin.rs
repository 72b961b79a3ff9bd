//! Deterministic round-robin broadcast.
//!
//! Vertex `v` transmits (when informed) only in rounds `r` with
//! `r ≡ v (mod n)`. At most one vertex transmits per round, so collisions
//! are impossible and broadcast always completes — in `O(n·D)` rounds, the
//! trivially correct but slow deterministic baseline against which the decay
//! and spokesman protocols are compared.

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use wx_graph::random::WxRng;
use wx_graph::{GraphView, VertexSet};

/// Round-robin single-transmitter schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin {
    /// Skip turns of vertices that have no uninformed neighbors (a mild,
    /// still-deterministic optimization; defaults to `false` so the schedule
    /// matches the textbook definition).
    pub skip_useless_turns: bool,
}

impl RoundRobin {
    /// A variant that skips turns of vertices with no uninformed neighbors.
    pub fn skipping() -> Self {
        RoundRobin {
            skip_useless_turns: true,
        }
    }
}

impl<G: GraphView + ?Sized> BroadcastProtocol<G> for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn transmitters_into(
        &mut self,
        view: &RoundView<'_, G>,
        _rng: &mut WxRng,
        out: &mut VertexSet,
    ) {
        let n = view.graph.num_vertices();
        if n == 0 {
            return;
        }
        let turn = view.round % n;
        if view.informed.contains(turn) {
            let useful = !self.skip_useless_turns
                || view
                    .graph
                    .neighbors_iter(turn)
                    .any(|u| !view.informed.contains(u));
            if useful {
                out.insert(turn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use wx_graph::Graph;

    #[test]
    fn at_most_one_transmitter_per_round() {
        let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
        let informed = g.vertex_set(0..6);
        let newly = g.vertex_set([5]);
        let mut rng = wx_graph::random::rng_from_seed(0);
        for round in 0..12 {
            let view = RoundView {
                graph: &g,
                round,
                source: 0,
                informed: &informed,
                newly_informed: &newly,
            };
            let mut t = g.vertex_set([]);
            RoundRobin::default().transmitters_into(&view, &mut rng, &mut t);
            assert!(t.len() <= 1);
        }
    }

    #[test]
    fn completes_on_collision_heavy_graphs() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcome = sim.run(&mut RoundRobin::default(), 0);
        assert!(outcome.completed_at.is_some());
        // the bound is at most n rounds per BFS layer
        assert!(outcome.completed_at.unwrap() <= g.num_vertices() * 3);
    }

    #[test]
    fn skipping_variant_is_no_slower() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let plain = sim.run(&mut RoundRobin::default(), 0).completed_at.unwrap();
        let skipping = sim
            .run(&mut RoundRobin::skipping(), 0)
            .completed_at
            .unwrap();
        assert!(skipping <= plain);
    }
}
