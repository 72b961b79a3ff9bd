//! Broadcast protocols for the radio collision model.
//!
//! | Protocol | Knowledge | Paper role |
//! |----------|-----------|------------|
//! | [`naive::NaiveFlooding`] | local | the strawman the introduction rules out (stalls on `C⁺`) |
//! | [`round_robin::RoundRobin`] | ids + `n` | slow but collision-free deterministic baseline |
//! | [`decay::DecayProtocol`] | `n` (or a degree bound) | the Bar-Yehuda–Goldreich–Itai decay protocol \[5\], the classical `O(D·log n + log² n)`-style randomized broadcast |
//! | [`spokesman::SpokesmanBroadcast`] | centralized | transmits from the subset a Spokesman-Election solver picks — the algorithmic content of wireless expansion (and of the Chlamtac–Weinstein broadcast framework \[7\]) |

pub mod decay;
pub mod naive;
pub mod round_robin;
pub mod spokesman;

use crate::simulator::RoundView;
use serde::{Deserialize, Serialize};
use wx_graph::random::WxRng;
use wx_graph::{Graph, GraphView, Vertex, VertexSet};

/// Identifies a protocol in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Every informed vertex transmits every round.
    NaiveFlooding,
    /// Vertex `v` transmits only in rounds `≡ v (mod n)`.
    RoundRobin,
    /// The randomized decay protocol.
    Decay,
    /// Centralized spokesman-schedule broadcast.
    Spokesman,
}

impl ProtocolKind {
    /// Every protocol kind, in the module table's order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::NaiveFlooding,
        ProtocolKind::RoundRobin,
        ProtocolKind::Decay,
        ProtocolKind::Spokesman,
    ];

    /// The short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::NaiveFlooding => "naive-flooding",
            ProtocolKind::RoundRobin => "round-robin",
            ProtocolKind::Decay => "decay",
            ProtocolKind::Spokesman => "spokesman",
        }
    }

    /// Parses a [`ProtocolKind::name`] string (case-insensitive; also
    /// accepts the bare aliases `naive` and `flooding`).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "naive-flooding" | "naive" | "flooding" => Some(ProtocolKind::NaiveFlooding),
            "round-robin" | "roundrobin" => Some(ProtocolKind::RoundRobin),
            "decay" => Some(ProtocolKind::Decay),
            "spokesman" | "spokesman-schedule" => Some(ProtocolKind::Spokesman),
            _ => None,
        }
    }

    /// `true` if the protocol's behavior depends on the trial seed. Running
    /// multiple Monte-Carlo trials of a non-randomized protocol on a fixed
    /// graph reproduces the same run; batch drivers use this to avoid
    /// simulating identical trials.
    pub fn randomized(self) -> bool {
        matches!(self, ProtocolKind::Decay)
    }

    /// Builds a fresh default-configured instance of this protocol — the
    /// by-name factory declarative callers (scenario specs, CLI flags) use.
    /// Generic over the graph backend the protocol will run on (inferred
    /// from the simulator; defaults to the CSR [`Graph`]).
    pub fn build<G: GraphView + ?Sized>(self) -> Box<dyn BroadcastProtocol<G>> {
        match self {
            ProtocolKind::NaiveFlooding => Box::new(naive::NaiveFlooding),
            ProtocolKind::RoundRobin => Box::new(round_robin::RoundRobin::default()),
            ProtocolKind::Decay => Box::new(decay::DecayProtocol::default()),
            ProtocolKind::Spokesman => Box::new(spokesman::SpokesmanBroadcast::default()),
        }
    }

    /// Builds the bit-sliced lane form of this protocol for the engine in
    /// [`crate::bitslice`]: decay runs natively over lanes
    /// ([`crate::bitslice::LaneDecay`], per-lane RNG streams bit-exact
    /// against the scalar protocol); the deterministic protocols are wrapped
    /// in [`crate::bitslice::LaneMirror`], which runs the scalar protocol
    /// once per round and broadcasts the transmitter mask to every lane.
    pub fn build_lanes<'g, G: GraphView + ?Sized + 'g>(
        self,
    ) -> Box<dyn crate::bitslice::LaneProtocol<G> + 'g> {
        match self {
            // wx-allow(hot-path-alloc): by-name factory like `build`, called once per lane batch
            ProtocolKind::Decay => Box::new(crate::bitslice::LaneDecay::default()),
            // wx-allow(hot-path-alloc): by-name factory like `build`, called once per lane batch
            other => Box::new(crate::bitslice::LaneMirror::new(other.build::<G>())),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The interface every broadcast protocol implements, generic over the
/// graph backend it broadcasts on (any [`GraphView`]; defaults to the CSR
/// [`Graph`], so `dyn BroadcastProtocol` keeps meaning what it always did).
pub trait BroadcastProtocol<G: GraphView + ?Sized = Graph> {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Called once before a simulation starts; protocols may precompute
    /// whatever they need from the topology (centralized protocols) or just
    /// reset their per-run state.
    fn reset(&mut self, _graph: &G, _source: Vertex) {}

    /// Chooses which informed vertices transmit this round, filling `out`.
    ///
    /// `out` arrives empty, over the graph's vertex universe, and must end up
    /// holding a subset of `view.informed`. Taking the output buffer as a
    /// parameter lets [`crate::LaneMirror`] reuse one [`VertexSet`] for every
    /// round of every trial, so the classical protocols allocate nothing per
    /// round.
    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet);
}

// A boxed or borrowed protocol is a protocol, so by-name factories
// ([`ProtocolKind::build`]) and `&mut dyn BroadcastProtocol` arguments wrap
// straight into `crate::LaneMirror`.
impl<G: GraphView + ?Sized, P: BroadcastProtocol<G> + ?Sized> BroadcastProtocol<G> for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn reset(&mut self, graph: &G, source: Vertex) {
        (**self).reset(graph, source);
    }
    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet) {
        (**self).transmitters_into(view, rng, out);
    }
}

impl<G: GraphView + ?Sized, P: BroadcastProtocol<G> + ?Sized> BroadcastProtocol<G> for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn reset(&mut self, graph: &G, source: Vertex) {
        (**self).reset(graph, source);
    }
    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet) {
        (**self).transmitters_into(view, rng, out);
    }
}

/// `true` if informed vertex `v` still has at least one uninformed neighbor
/// — the per-vertex predicate behind [`useful_transmitters`], exposed so
/// allocation-free protocol loops (decay's `only_useful` variant) can test
/// usefulness inline while iterating the informed bitset.
#[inline]
pub fn is_useful_transmitter<G: GraphView + ?Sized>(view: &RoundView<'_, G>, v: usize) -> bool {
    view.graph
        .neighbors_iter(v)
        .any(|u| !view.informed.contains(u))
}

/// Helper shared by protocols: the subset of informed vertices that still
/// have at least one uninformed neighbor (transmitting from anywhere else is
/// pointless).
pub fn useful_transmitters<G: GraphView + ?Sized>(view: &RoundView<'_, G>) -> VertexSet {
    VertexSet::from_iter(
        view.graph.num_vertices(),
        view.informed
            .iter()
            .filter(|&v| is_useful_transmitter(view, v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{RadioSimulator, SimulatorConfig};

    #[test]
    fn useful_transmitters_excludes_interior_vertices() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = g.vertex_set([0, 1, 2]);
        let newly = g.vertex_set([2]);
        let view = RoundView {
            graph: &g,
            round: 3,
            source: 0,
            informed: &informed,
            newly_informed: &newly,
        };
        // only vertex 2 has an uninformed neighbor (3)
        assert_eq!(useful_transmitters(&view).to_vec(), vec![2]);
    }

    #[test]
    fn all_protocols_complete_on_a_small_tree() {
        let g = wx_constructions::families::complete_k_ary_tree(2, 4).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        for kind in ProtocolKind::ALL {
            let mut p = kind.build();
            let outcome = sim.run(&mut p, 42);
            assert!(
                outcome.completed_at.is_some(),
                "{} did not complete on the binary tree",
                p.name()
            );
        }
    }

    #[test]
    fn protocol_kind_parse_round_trips() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            ProtocolKind::parse("naive"),
            Some(ProtocolKind::NaiveFlooding)
        );
        assert_eq!(
            ProtocolKind::parse("spokesman-schedule"),
            Some(ProtocolKind::Spokesman)
        );
        assert!(ProtocolKind::parse("carrier-pigeon").is_none());
    }
}
