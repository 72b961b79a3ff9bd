//! The scalar reference engine: one trial at a time, the collision rule
//! applied literally every round. The library runs every trial on the lane
//! engine (`wx_radio::run_lanes_in`); the tests compare it against this
//! loop, which shares no code with it beyond the protocols and the graph
//! kernels.
//!
//! The radio integration tests include it as `mod oracle;`; the radio
//! crate's and the lab runner's unit tests include it with `#[path]`.

#![allow(dead_code)]

use wx_graph::neighborhood::unique_neighborhood;
use wx_graph::random::rng_from_seed;
use wx_graph::{GraphView, Vertex, VertexSet};
use wx_radio::{BroadcastOutcome, BroadcastProtocol, RoundView, SimulatorConfig, TrialOutcome};

/// Runs one broadcast of `protocol` from `source` under `config`, with the
/// protocol's coins drawn from `rng_from_seed(seed)`.
pub fn run<G: GraphView + ?Sized>(
    graph: &G,
    source: Vertex,
    config: &SimulatorConfig,
    protocol: &mut dyn BroadcastProtocol<G>,
    seed: u64,
) -> BroadcastOutcome {
    let n = graph.num_vertices();
    let reachable = wx_graph::traversal::bfs(graph, source)
        .dist
        .iter()
        .filter(|&&d| d != usize::MAX)
        .count();
    let mut rng = rng_from_seed(seed);
    let mut informed = VertexSet::from_iter(n, [source]);
    let mut newly = informed.clone();
    let mut first_informed_round = vec![None; n];
    first_informed_round[source] = Some(0);
    let mut informed_per_round = vec![1];
    let mut completed_at = None;

    protocol.reset(graph, source);
    for round in 0..config.max_rounds {
        let mut transmitters = VertexSet::empty(n);
        let view = RoundView {
            graph,
            round,
            source,
            informed: &informed,
            newly_informed: &newly,
        };
        protocol.transmitters_into(&view, &mut rng, &mut transmitters);
        assert!(
            transmitters.is_subset_of(&informed),
            "{} transmitted from an uninformed vertex",
            protocol.name()
        );
        // A vertex receives iff it is silent and exactly one neighbor
        // transmits: the unique neighborhood Γ¹(T).
        let heard = unique_neighborhood(graph, &transmitters);
        newly = VertexSet::from_iter(n, heard.iter().filter(|&v| !informed.contains(v)));
        for v in newly.iter() {
            first_informed_round[v] = Some(round + 1);
        }
        informed.insert_sorted(newly.as_slice());
        informed_per_round.push(informed.len());
        if informed.len() == reachable && completed_at.is_none() {
            completed_at = Some(round + 1);
            if config.stop_when_complete {
                break;
            }
        }
    }

    BroadcastOutcome {
        protocol: protocol.name().to_string(),
        num_vertices: n,
        reachable,
        completed_at,
        rounds_simulated: informed_per_round.len() - 1,
        informed_per_round,
        first_informed_round,
    }
}

/// The constant-size summary of `outcome`, as the lane engine reports it.
pub fn summary(outcome: &BroadcastOutcome) -> TrialOutcome {
    TrialOutcome {
        reachable: outcome.reachable,
        informed: outcome.informed_per_round.last().copied().unwrap_or(0),
        completed_at: outcome.completed_at,
        rounds_simulated: outcome.rounds_simulated,
    }
}
