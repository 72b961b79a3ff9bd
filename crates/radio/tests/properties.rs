//! Property-based tests for the radio simulator: the collision rule and the
//! simulation bookkeeping, pinned against their definitions on random graphs
//! and random transmitter sets, and whole trials pinned against the scalar
//! reference loop in `oracle`.

mod oracle;

use proptest::prelude::*;
use wx_graph::random::WxRng;
use wx_graph::{Graph, GraphView, ImplicitGraph, SubgraphView, Vertex, VertexSet};
use wx_radio::protocols::decay::DecayProtocol;
use wx_radio::protocols::naive::NaiveFlooding;
use wx_radio::protocols::round_robin::RoundRobin;
use wx_radio::protocols::ProtocolKind;
use wx_radio::{BroadcastProtocol, RadioSimulator, RoundView, SimulatorConfig};

/// A protocol that records the informed and newly-informed sets of every
/// view it is handed, then lets `inner` choose.
struct Recorder<P> {
    inner: P,
    views: Vec<(Vec<Vertex>, Vec<Vertex>)>,
}

impl<G: GraphView + ?Sized, P: BroadcastProtocol<G>> BroadcastProtocol<G> for Recorder<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self, graph: &G, source: Vertex) {
        self.inner.reset(graph, source);
    }
    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet) {
        let sets = (view.informed.to_vec(), view.newly_informed.to_vec());
        self.views.push(sets);
        self.inner.transmitters_into(view, rng, out);
    }
}

/// `RadioSimulator::run` of a fresh `kind` from vertex 0 equals the oracle's
/// run in every [`wx_radio::BroadcastOutcome`] field, and hands the protocol
/// the same views round by round.
fn run_matches_oracle<G: GraphView + ?Sized>(
    g: &G,
    kind: ProtocolKind,
    config: &SimulatorConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    let sim = RadioSimulator::new(g, 0, config.clone());
    let record = || Recorder {
        inner: kind.build::<G>(),
        views: Vec::new(),
    };
    let (mut on_lanes, mut on_oracle) = (record(), record());
    let lanes = sim.run(&mut on_lanes, seed);
    let scalar = oracle::run(g, 0, config, &mut on_oracle, seed);
    prop_assert_eq!(lanes, scalar, "{} seed {}", kind, seed);
    prop_assert!(
        on_lanes.views == on_oracle.views,
        "{} seed {}: views differ",
        kind,
        seed
    );
    Ok(())
}

fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 3).max(1)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The collision rule, literally: a vertex receives iff it is silent and
    /// exactly one neighbor transmits.
    #[test]
    fn step_matches_collision_rule(edges in edge_list(14),
                                   tx in prop::collection::btree_set(0usize..14, 0..10)) {
        let g = Graph::from_edges(14, edges).unwrap();
        let transmitters = VertexSet::from_iter(14, tx.iter().copied());
        let received = RadioSimulator::step(&g, &transmitters);
        for v in 0..14 {
            let transmitting_neighbors = g
                .neighbors(v)
                .iter()
                .filter(|&&u| transmitters.contains(u))
                .count();
            let should_receive = !transmitters.contains(v) && transmitting_neighbors == 1;
            prop_assert_eq!(received.contains(v), should_receive,
                "vertex {} (tx neighbors = {})", v, transmitting_neighbors);
        }
    }

    /// Simulation bookkeeping: the informed count is monotone, matches the
    /// first-informed-round records, never exceeds the reachable count, and
    /// the source is informed at round 0.
    #[test]
    fn outcome_bookkeeping_is_consistent(edges in edge_list(12), seed in 0u64..100, proto_id in 0usize..3) {
        let g = Graph::from_edges(12, edges).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig {
            max_rounds: 200,
            stop_when_complete: true,
        });
        let mut protocol: Box<dyn BroadcastProtocol> = match proto_id {
            0 => Box::new(NaiveFlooding),
            1 => Box::new(RoundRobin::default()),
            _ => Box::new(DecayProtocol::default()),
        };
        let outcome = sim.run(protocol.as_mut(), seed);

        prop_assert_eq!(outcome.first_informed_round[0], Some(0));
        prop_assert!(outcome.informed_per_round.windows(2).all(|w| w[1] >= w[0]));
        prop_assert!(outcome.informed_per_round.iter().all(|&c| c <= outcome.reachable));
        let informed_total = outcome.first_informed_round.iter().filter(|r| r.is_some()).count();
        prop_assert_eq!(informed_total, *outcome.informed_per_round.last().unwrap());
        // every informed vertex (other than the source) is reachable and has
        // an informed-round no larger than the number of simulated rounds
        for (v, round) in outcome.first_informed_round.iter().enumerate() {
            if let Some(r) = round {
                prop_assert!(*r <= outcome.rounds_simulated);
                if v != 0 {
                    prop_assert!(wx_graph::traversal::distance(&g, 0, v).is_some());
                    prop_assert!(*r >= wx_graph::traversal::distance(&g, 0, v).unwrap(),
                        "vertex {} informed at round {} faster than its distance", v, r);
                }
            }
        }
        if let Some(done) = outcome.completed_at {
            prop_assert_eq!(*outcome.informed_per_round.last().unwrap(), outcome.reachable);
            prop_assert!(done <= outcome.rounds_simulated);
        }
    }

    /// Round-robin and any single-transmitter schedule can never suffer a
    /// collision: every round informs at most Δ new vertices.
    #[test]
    fn round_robin_has_no_collisions(edges in edge_list(12), seed in 0u64..20) {
        let g = Graph::from_edges(12, edges).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig {
            max_rounds: 400,
            stop_when_complete: true,
        });
        let outcome = sim.run(&mut RoundRobin::default(), seed);
        let delta = g.max_degree();
        for w in outcome.informed_per_round.windows(2) {
            prop_assert!(w[1] - w[0] <= delta.max(1));
        }
        // round-robin always completes on the source's component within n
        // rounds per BFS layer
        prop_assert!(outcome.completed_at.is_some());
    }

    /// Backend equivalence: a full radio trial (decay — rng-driven, so any
    /// divergence in iteration order would show — plus the deterministic
    /// protocols) produces identical outcomes on a zero-copy `SubgraphView`
    /// vs the materialized induced subgraph.
    #[test]
    fn full_trial_agrees_on_subgraph_view_vs_materialized(
        edges in edge_list(16),
        keep_raw in prop::collection::btree_set(0usize..16, 2..12),
        seed in 0u64..50,
    ) {
        let g = Graph::from_edges(16, edges).unwrap();
        let keep = VertexSet::from_iter(16, keep_raw.iter().copied());
        let view = wx_graph::SubgraphView::new(&g, &keep);
        let (mat, _) = g.induced_subgraph(&keep);
        let config = SimulatorConfig { max_rounds: 300, stop_when_complete: true };
        let sim_view = RadioSimulator::new(&view, 0, config.clone());
        let sim_mat = RadioSimulator::new(&mat, 0, config);
        prop_assert_eq!(sim_view.reachable_count(), sim_mat.reachable_count());
        let a = sim_view.run(&mut DecayProtocol::default(), seed);
        let b = sim_mat.run(&mut DecayProtocol::default(), seed);
        prop_assert_eq!(a.completed_at, b.completed_at);
        prop_assert_eq!(a.informed_per_round, b.informed_per_round);
        prop_assert_eq!(a.first_informed_round, b.first_informed_round);
        let a = sim_view.run(&mut NaiveFlooding, seed);
        let b = sim_mat.run(&mut NaiveFlooding, seed);
        prop_assert_eq!(a.informed_per_round, b.informed_per_round);
    }

    /// `RadioSimulator::run` — one lane of the lane engine through
    /// `LaneMirror`, decay included — equals the scalar oracle for every
    /// protocol kind, on the CSR, subgraph-view and implicit backends, with
    /// and without early stopping, down to the views the protocol sees.
    #[test]
    fn run_matches_the_scalar_oracle(
        edges in edge_list(16),
        keep_raw in prop::collection::btree_set(0usize..16, 2..12),
        run in (8usize..40, 0u64..1_000_000),
        flags in (0usize..4, prop::bool::ANY),
    ) {
        let ((n, seed), (kind, stop)) = (run, flags);
        let kind = ProtocolKind::ALL[kind];
        let config = SimulatorConfig {
            max_rounds: if stop { 400 } else { 60 },
            stop_when_complete: stop,
        };
        let g = Graph::from_edges(16, edges).unwrap();
        run_matches_oracle(&g, kind, &config, seed)?;
        let keep = VertexSet::from_iter(16, keep_raw.iter().copied());
        run_matches_oracle(&SubgraphView::new(&g, &keep), kind, &config, seed)?;
        let implicit = ImplicitGraph::cycle_power(n, 2).unwrap();
        run_matches_oracle(&implicit, kind, &config, seed)?;
    }

    /// Backend equivalence: a full decay trial on an `ImplicitGraph` equals
    /// the trial on the materialized family graph, bit for bit.
    #[test]
    fn full_trial_agrees_on_implicit_vs_materialized(
        n in 8usize..40,
        seed in 0u64..50,
    ) {
        let implicit = wx_graph::ImplicitGraph::cycle_power(n, 2).unwrap();
        let mat = wx_graph::view::materialize(&implicit);
        let config = SimulatorConfig { max_rounds: 500, stop_when_complete: true };
        let sim_implicit = RadioSimulator::new(&implicit, 0, config.clone());
        let sim_mat = RadioSimulator::new(&mat, 0, config);
        prop_assert_eq!(sim_implicit.reachable_count(), sim_mat.reachable_count());
        let a = sim_implicit.run(&mut DecayProtocol::default(), seed);
        let b = sim_mat.run(&mut DecayProtocol::default(), seed);
        prop_assert_eq!(a.completed_at, b.completed_at);
        prop_assert_eq!(a.informed_per_round, b.informed_per_round);
        prop_assert_eq!(a.first_informed_round, b.first_informed_round);
        // the centralized spokesman schedule exercises the bipartite-view
        // extraction on both backends
        let a = sim_implicit.run(&mut wx_radio::protocols::spokesman::SpokesmanBroadcast::default(), seed);
        let b = sim_mat.run(&mut wx_radio::protocols::spokesman::SpokesmanBroadcast::default(), seed);
        prop_assert_eq!(a.completed_at, b.completed_at);
        prop_assert_eq!(a.informed_per_round, b.informed_per_round);
    }
}
