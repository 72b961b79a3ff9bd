//! The Bar-Yehuda–Goldreich–Itai decay protocol \[5\].
//!
//! Time is divided into phases of `k = ⌈log₂ n⌉ + 1` rounds. In the `i`-th
//! round of each phase (`i = 0, …, k−1`), every informed vertex transmits
//! independently with probability `2^{-i}`. For any uninformed vertex with
//! `d ≥ 1` informed neighbors there is a round in each phase where the
//! expected number of transmitting neighbors is `Θ(1)`, so it receives the
//! message within `O(log n)` phases with constant probability per phase —
//! the classical randomized broadcast that the paper's decay-style argument
//! (Lemma 4.2) is an offline, existential analogue of.

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use wx_graph::random::WxRng;
use wx_graph::{GraphView, Vertex, VertexSet};

/// The decay protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecayProtocol {
    /// Number of rounds per phase; `None` means `⌈log₂ n⌉ + 1`, the standard
    /// choice when only `n` is known.
    pub phase_length: Option<usize>,
    /// Restrict transmissions to vertices that still have uninformed
    /// neighbors (requires neighborhood knowledge; defaults to `false`,
    /// the classical fully-local protocol).
    pub only_useful: bool,
}

impl DecayProtocol {
    /// Decay with an explicit phase length (e.g. `⌈log₂ Δ⌉ + 1` when a degree
    /// bound is known).
    pub fn with_phase_length(phase_length: usize) -> Self {
        DecayProtocol {
            phase_length: Some(phase_length.max(1)),
            only_useful: false,
        }
    }

    fn effective_phase_length(&self, n: usize) -> usize {
        self.phase_length
            .unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize + 1)
            .max(1)
    }
}

impl<G: GraphView + ?Sized> BroadcastProtocol<G> for DecayProtocol {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn reset(&mut self, _graph: &G, _source: Vertex) {}

    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet) {
        let n = view.graph.num_vertices();
        let k = self.effective_phase_length(n);
        let i = view.round % k;
        let p = 0.5f64.powi(i as i32);
        // One `gen_bool(p)` per eligible vertex in ascending order, drawn in
        // bulk for a stack buffer of eligible vertices at a time
        // (`fill_decision_bits` consumes exactly the per-vertex stream; no
        // per-round allocation). The usefulness test comes before the draw.
        let mut eligible = [0usize; DRAW_CHUNK];
        let mut len = 0;
        for v in view.informed.iter() {
            if !self.only_useful || crate::protocols::is_useful_transmitter(view, v) {
                eligible[len] = v;
                len += 1;
                if len == DRAW_CHUNK {
                    transmit_drawn(rng, p, &eligible, out);
                    len = 0;
                }
            }
        }
        transmit_drawn(rng, p, &eligible[..len], out);
    }
}

/// Eligible vertices whose decisions are drawn per bulk call.
const DRAW_CHUNK: usize = 1024;

/// Draws one `gen_bool(p)` per vertex of `vs` (ascending) and adds the
/// winners to `out`; they append in order, since `vs` is sorted.
fn transmit_drawn(rng: &mut WxRng, p: f64, vs: &[usize], out: &mut VertexSet) {
    let mut bits = [0u64; DRAW_CHUNK / 64];
    rng.fill_decision_bits(p, vs.len(), &mut bits);
    for (w, &word) in bits.iter().enumerate() {
        let mut b = word;
        while b != 0 {
            out.insert(vs[w * 64 + b.trailing_zeros() as usize]);
            b &= b - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EnsembleStats;
    use crate::simulator::{RadioSimulator, SimulatorConfig};

    #[test]
    fn completes_on_c_plus_where_flooding_stalls() {
        let (g, src) = wx_constructions::families::complete_plus_graph(10).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcomes: Vec<_> = (0..10)
            .map(|seed| sim.run(&mut DecayProtocol::default(), seed))
            .collect();
        let stats = EnsembleStats::from_outcomes(&outcomes);
        assert_eq!(stats.completed, 10, "decay failed on C⁺: {stats:?}");
    }

    #[test]
    fn phase_length_defaults_to_log_n() {
        let d = DecayProtocol::default();
        assert_eq!(d.effective_phase_length(16), 5);
        assert_eq!(d.effective_phase_length(1024), 11);
        assert_eq!(
            DecayProtocol::with_phase_length(3).effective_phase_length(1_000_000),
            3
        );
        assert_eq!(
            DecayProtocol::with_phase_length(0).effective_phase_length(8),
            1
        );
    }

    #[test]
    fn first_round_of_each_phase_transmits_everything() {
        // with probability 2^0 = 1, every informed vertex transmits in the
        // first round of a phase regardless of the rng
        let g = wx_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = g.vertex_set([0, 1]);
        let newly = g.vertex_set([1]);
        let view = RoundView {
            graph: &g,
            round: 0,
            source: 0,
            informed: &informed,
            newly_informed: &newly,
        };
        let mut rng = wx_graph::random::rng_from_seed(5);
        let mut t = g.vertex_set([]);
        DecayProtocol::default().transmitters_into(&view, &mut rng, &mut t);
        assert_eq!(t.to_vec(), vec![0, 1]);
    }

    #[test]
    fn completes_reasonably_fast_on_random_regular_graphs() {
        let g = wx_constructions::families::random_regular_graph(128, 6, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let outcomes: Vec<_> = (0..5)
            .map(|seed| sim.run(&mut DecayProtocol::default(), seed))
            .collect();
        let stats = EnsembleStats::from_outcomes(&outcomes);
        assert_eq!(stats.completed, 5);
        // D = O(log n) here; decay should finish well within a few hundred rounds
        assert!(stats.max_rounds.unwrap() < 500, "{stats:?}");
    }

    #[test]
    fn only_useful_variant_never_transmits_from_interior() {
        let g = wx_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = g.vertex_set([0, 1, 2]);
        let newly = g.vertex_set([2]);
        let view = RoundView {
            graph: &g,
            round: 0,
            source: 0,
            informed: &informed,
            newly_informed: &newly,
        };
        let mut rng = wx_graph::random::rng_from_seed(5);
        let mut proto = DecayProtocol {
            phase_length: None,
            only_useful: true,
        };
        let mut t = g.vertex_set([]);
        proto.transmitters_into(&view, &mut rng, &mut t);
        assert_eq!(t.to_vec(), vec![2]);
    }
}
