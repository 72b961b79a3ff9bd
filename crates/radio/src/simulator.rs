//! The simulator: a graph, a source and a round cap, run through the lane
//! engine in [`crate::bitslice`].

use crate::bitslice::{run_lanes_in, LaneMirror, LaneWorkspace};
use crate::metrics::BroadcastOutcome;
use crate::protocols::BroadcastProtocol;
use wx_graph::{Graph, GraphView, Vertex, VertexSet};

/// Read-only view of the simulation state handed to protocols each round.
///
/// Distributed protocols should only consult fields a real processor would
/// know (its own informed status, the round number, global parameters `n`
/// and `D`); centralized schedules (the spokesman broadcast) may use the
/// whole view. The simulator does not police this — the distinction is
/// documented per protocol.
#[derive(Debug)]
pub struct RoundView<'a, G: GraphView + ?Sized = Graph> {
    /// The underlying network (any [`GraphView`] backend).
    pub graph: &'a G,
    /// The current round number (the first round is 0).
    pub round: usize,
    /// The broadcast source.
    pub source: Vertex,
    /// Vertices that currently hold the message.
    pub informed: &'a VertexSet,
    /// Vertices that first received the message in the previous round.
    pub newly_informed: &'a VertexSet,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimulatorConfig {
    /// Hard cap on the number of rounds simulated.
    pub max_rounds: usize,
    /// Stop as soon as every vertex reachable from the source is informed.
    pub stop_when_complete: bool,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            max_rounds: 10_000,
            stop_when_complete: true,
        }
    }
}

/// The radio-network simulator.
///
/// Graph and source are fixed per simulator, so the completion target (the
/// number of vertices reachable from the source) is computed **once** at
/// construction and cached — a 10k-trial ensemble on one simulator performs
/// one BFS, not 10k. Use [`RadioSimulator::run`] for a one-off simulation,
/// [`RadioSimulator::run_in`] with a reused [`LaneWorkspace`] for one trial
/// at a time, or [`run_lanes_in`] for batches of up to 64 trials.
pub struct RadioSimulator<'a, G: GraphView + ?Sized = Graph> {
    graph: &'a G,
    source: Vertex,
    config: SimulatorConfig,
    /// Cached number of vertices reachable from `source` (the completion
    /// target); computed by one BFS in the constructor.
    reachable: usize,
}

impl<'a, G: GraphView + ?Sized> RadioSimulator<'a, G> {
    /// Creates a simulator for broadcasting from `source` on `graph`.
    ///
    /// Runs one BFS to determine the completion target; every subsequent
    /// trial reuses the cached count.
    pub fn new(graph: &'a G, source: Vertex, config: SimulatorConfig) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        let reachable = reachable_from(graph, source);
        RadioSimulator {
            graph,
            source,
            config,
            reachable,
        }
    }

    /// Creates a simulator with an externally computed reachable count,
    /// skipping the constructor BFS entirely. The caller vouches that
    /// `reachable` is the number of vertices reachable from `source` (a
    /// wrong value only affects completion detection, not safety). Used by
    /// batch drivers that already ran a BFS on the shared graph.
    pub fn with_reachable(
        graph: &'a G,
        source: Vertex,
        config: SimulatorConfig,
        reachable: usize,
    ) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        RadioSimulator {
            graph,
            source,
            config,
            reachable,
        }
    }

    /// The number of vertices reachable from the source (the completion
    /// target). Cached at construction — calling this in a loop is free.
    pub fn reachable_count(&self) -> usize {
        self.reachable
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a G {
        self.graph
    }

    /// The broadcast source.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// The simulator configuration (round cap and stopping rule).
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Executes one round given the set of transmitters; returns the set of
    /// vertices that receive the message this round (whether or not they
    /// were already informed).
    ///
    /// The collision rule is applied literally: a vertex receives iff it is
    /// not itself transmitting and exactly one neighbor transmits — which is
    /// precisely the unique neighborhood `Γ¹(T)` of the transmitter set, so
    /// this is a thin wrapper over the `wx_graph` neighborhood kernel. The
    /// lane engine resolves receivers word-parallel instead of calling this
    /// materializing form.
    pub fn step(graph: &G, transmitters: &VertexSet) -> VertexSet {
        wx_graph::neighborhood::unique_neighborhood(graph, transmitters)
    }

    /// Runs the protocol until completion or the round cap, returning the
    /// full outcome. `seed` drives the protocol's randomness and nothing
    /// else (the simulator itself is deterministic).
    ///
    /// Allocates a fresh [`LaneWorkspace`] per call; ensembles should use
    /// [`RadioSimulator::run_in`] (or the runner in [`crate::trials`]) to
    /// reuse one workspace across trials.
    pub fn run(&self, protocol: &mut dyn BroadcastProtocol<G>, seed: u64) -> BroadcastOutcome {
        let mut ws = LaneWorkspace::new(self.graph.num_vertices());
        self.run_in(protocol, seed, &mut ws);
        self.outcome_from(protocol.name(), &ws)
    }

    /// Materializes a full [`BroadcastOutcome`] (per-round trajectory plus
    /// per-vertex first-informed rounds) from lane 0 of the batch a
    /// [`RadioSimulator::run_in`] call left in `ws`. `protocol_name` is the
    /// [`BroadcastProtocol::name`] of the protocol that ran.
    pub fn outcome_from(&self, protocol_name: &str, ws: &LaneWorkspace) -> BroadcastOutcome {
        let n = self.graph.num_vertices();
        let trial = ws.lane_outcome(0);
        BroadcastOutcome {
            protocol: protocol_name.to_string(),
            num_vertices: n,
            reachable: trial.reachable,
            completed_at: trial.completed_at,
            rounds_simulated: trial.rounds_simulated,
            informed_per_round: ws.lane_informed_per_round(0).to_vec(),
            first_informed_round: (0..n).map(|v| ws.lane_first_informed_round(0, v)).collect(),
        }
    }

    /// Runs the protocol until completion or the round cap as a 1-lane batch
    /// of the lane engine ([`run_lanes_in`] through a [`LaneMirror`]),
    /// reusing the buffers in `ws`.
    ///
    /// The returned [`TrialOutcome`] is a constant-size summary; the full
    /// trajectory remains readable from lane 0 of `ws` (and can be
    /// materialized with [`RadioSimulator::outcome_from`]) until the next
    /// run overwrites it.
    pub fn run_in(
        &self,
        protocol: &mut dyn BroadcastProtocol<G>,
        seed: u64,
        ws: &mut LaneWorkspace,
    ) -> TrialOutcome {
        run_lanes_in(self, &mut LaneMirror::new(protocol), &[seed], ws);
        ws.lane_outcome(0)
    }
}

/// The number of vertices reachable from `source` in `graph` (one BFS) —
/// the completion-target definition. [`RadioSimulator::new`] computes it
/// once per simulator; batch drivers that share a graph across many
/// simulators compute it here once and pass it to
/// [`RadioSimulator::with_reachable`].
pub fn reachable_from<G: GraphView + ?Sized>(graph: &G, source: Vertex) -> usize {
    wx_graph::traversal::bfs(graph, source)
        .dist
        .iter()
        .filter(|&&d| d != usize::MAX)
        .count()
}

/// Constant-size summary of one trial ([`RadioSimulator::run_in`],
/// [`LaneWorkspace::lane_outcome`]) — everything
/// an online aggregator needs without materializing the n-sized trajectory
/// vectors of [`BroadcastOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Number of vertices reachable from the source (the completion target).
    pub reachable: usize,
    /// Number of vertices informed when the run stopped.
    pub informed: usize,
    /// The round at which the last reachable vertex became informed, if the
    /// broadcast completed within the round cap.
    pub completed_at: Option<usize>,
    /// Number of rounds actually simulated.
    pub rounds_simulated: usize,
}

impl TrialOutcome {
    /// `true` if every reachable vertex was informed.
    pub fn completed(&self) -> bool {
        self.completed_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::naive::NaiveFlooding;
    use crate::protocols::round_robin::RoundRobin;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn step_applies_collision_rule() {
        // star: center 0 with leaves 1..=3
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        // single transmitter: all neighbors receive
        let recv = RadioSimulator::step(&g, &g.vertex_set([0]));
        assert_eq!(recv.to_vec(), vec![1, 2, 3]);
        // two leaves transmit: the center hears a collision, nothing received
        let recv = RadioSimulator::step(&g, &g.vertex_set([1, 2]));
        assert!(recv.is_empty());
        // one leaf transmits: only the center receives
        let recv = RadioSimulator::step(&g, &g.vertex_set([1]));
        assert_eq!(recv.to_vec(), vec![0]);
        // a transmitter does not receive even if a neighbor transmits
        let recv = RadioSimulator::step(&g, &g.vertex_set([0, 1]));
        assert_eq!(recv.to_vec(), vec![2, 3]);
    }

    #[test]
    fn naive_flooding_completes_on_a_path() {
        // On a path there are never two informed neighbors of the frontier
        // vertex, so naive flooding advances one hop per round.
        let g = path(6);
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let outcome = sim.run(&mut NaiveFlooding, 1);
        assert_eq!(outcome.completed_at, Some(5));
        assert_eq!(outcome.first_informed_round[5], Some(5));
    }

    #[test]
    fn naive_flooding_stalls_on_c_plus() {
        // The introduction's example: after round 1 the informed set is
        // {s0, x, y}; from round 2 on every clique vertex hears ≥ 2
        // transmitters, so naive flooding never finishes.
        let (g, src) = wx_constructions::families::complete_plus_graph(6).unwrap();
        let sim = RadioSimulator::new(
            &g,
            src,
            SimulatorConfig {
                max_rounds: 50,
                stop_when_complete: true,
            },
        );
        let outcome = sim.run(&mut NaiveFlooding, 1);
        assert_eq!(outcome.completed_at, None);
        assert_eq!(outcome.informed_per_round.last().copied(), Some(3));
    }

    #[test]
    fn round_robin_always_completes() {
        let (g, src) = wx_constructions::families::complete_plus_graph(6).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcome = sim.run(&mut RoundRobin::default(), 1);
        assert!(outcome.completed_at.is_some());
        assert_eq!(outcome.informed_per_round.last().copied(), Some(7));
    }

    #[test]
    fn unreachable_vertices_do_not_block_completion() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        assert_eq!(sim.reachable_count(), 3);
        let outcome = sim.run(&mut NaiveFlooding, 0);
        assert_eq!(outcome.completed_at, Some(2));
        assert!(outcome.first_informed_round[3].is_none());
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_must_be_valid() {
        let g = path(3);
        RadioSimulator::new(&g, 3, SimulatorConfig::default());
    }

    #[test]
    fn run_in_matches_run_across_reused_workspace() {
        use crate::protocols::decay::DecayProtocol;
        let g = wx_constructions::families::random_regular_graph(48, 4, 7).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        for seed in 0..6u64 {
            let mut p1 = DecayProtocol::default();
            let mut p2 = DecayProtocol::default();
            let fresh = sim.run(&mut p1, seed);
            let trial = sim.run_in(&mut p2, seed, &mut ws);
            let reused = sim.outcome_from(BroadcastProtocol::<Graph>::name(&p2), &ws);
            assert_eq!(fresh.completed_at, reused.completed_at);
            assert_eq!(fresh.rounds_simulated, reused.rounds_simulated);
            assert_eq!(fresh.informed_per_round, reused.informed_per_round);
            assert_eq!(fresh.first_informed_round, reused.first_informed_round);
            assert_eq!(
                trial.informed,
                reused.informed_per_round.last().copied().unwrap()
            );
        }
    }

    #[test]
    fn completed_at_records_the_first_completion_round_without_early_stop() {
        // with stop_when_complete = false the simulation keeps running past
        // completion; completed_at must stay pinned to the first completion
        // round instead of advancing with every subsequent full round
        let g = path(4);
        let sim = RadioSimulator::new(
            &g,
            0,
            SimulatorConfig {
                max_rounds: 50,
                stop_when_complete: false,
            },
        );
        let outcome = sim.run(&mut NaiveFlooding, 0);
        assert_eq!(outcome.completed_at, Some(3));
        assert_eq!(outcome.rounds_simulated, 50);
    }

    #[test]
    fn with_reachable_skips_the_bfs_but_behaves_identically() {
        let g = path(6);
        let plain = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let hinted = RadioSimulator::with_reachable(&g, 0, SimulatorConfig::default(), 6);
        assert_eq!(plain.reachable_count(), hinted.reachable_count());
        let a = plain.run(&mut NaiveFlooding, 1);
        let b = hinted.run(&mut NaiveFlooding, 1);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.informed_per_round, b.informed_per_round);
    }
}
