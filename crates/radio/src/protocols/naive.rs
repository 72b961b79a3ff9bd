//! Naive flooding: every informed vertex transmits every round.
//!
//! This is the strawman the paper's introduction uses to motivate unique and
//! wireless expansion: on the `C⁺` example it deadlocks after the first
//! round because every uninformed vertex always hears a collision.

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use wx_graph::random::WxRng;
use wx_graph::{GraphView, VertexSet};

/// Every informed vertex transmits in every round.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveFlooding;

impl<G: GraphView + ?Sized> BroadcastProtocol<G> for NaiveFlooding {
    fn name(&self) -> &'static str {
        "naive-flooding"
    }

    fn transmitters_into(
        &mut self,
        view: &RoundView<'_, G>,
        _rng: &mut WxRng,
        out: &mut VertexSet,
    ) {
        out.copy_from(view.informed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use wx_graph::Graph;

    #[test]
    fn transmits_exactly_the_informed_set() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let informed = g.vertex_set([0, 1]);
        let newly = g.vertex_set([1]);
        let view = RoundView {
            graph: &g,
            round: 0,
            source: 0,
            informed: &informed,
            newly_informed: &newly,
        };
        let mut rng = wx_graph::random::rng_from_seed(0);
        let mut t = g.vertex_set([]);
        NaiveFlooding.transmitters_into(&view, &mut rng, &mut t);
        assert_eq!(t.to_vec(), vec![0, 1]);
    }

    #[test]
    fn completes_on_star_but_not_on_double_star() {
        // star: the center is the source; all leaves get the message round 1.
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let sim = RadioSimulator::new(&star, 0, SimulatorConfig::default());
        assert_eq!(sim.run(&mut NaiveFlooding, 0).completed_at, Some(1));

        // two centers adjacent to the same leaves: starting from an extra
        // vertex attached to both centers, the leaves always hear collisions.
        let mut edges = vec![(4usize, 0usize), (4, 1)];
        for leaf in 2..4 {
            edges.push((0, leaf));
            edges.push((1, leaf));
        }
        let g = Graph::from_edges(5, edges).unwrap();
        let sim = RadioSimulator::new(
            &g,
            4,
            SimulatorConfig {
                max_rounds: 30,
                stop_when_complete: true,
            },
        );
        assert_eq!(sim.run(&mut NaiveFlooding, 0).completed_at, None);
    }
}
