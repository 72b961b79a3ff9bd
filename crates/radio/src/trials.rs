//! Parallel Monte-Carlo trial runner.
//!
//! Randomized protocols (decay) and randomized instances (random relays in
//! the broadcast chain) need many independent trials for meaningful
//! statistics; [`map_trials_lanes`] farms them out over rayon in lane
//! batches with per-trial derived seeds, so the ensemble is reproducible
//! regardless of thread scheduling or batch width.
//!
//! All batches share one [`RadioSimulator`] (one BFS per ensemble, cached in
//! the constructor) and one [`LaneWorkspace`] per rayon worker (pulled from
//! the thread-local pool of [`with_thread_lane_workspace`]), so the
//! per-batch work is exactly: reseed, simulate, summarize. Each trial is
//! reduced to a caller-chosen summary while its trajectory is still in the
//! workspace, so ensemble memory is O(trials · |summary|), never
//! O(trials · n).

use crate::bitslice::{
    run_lanes_in, with_thread_lane_workspace, LaneProtocol, LaneWorkspace, MAX_LANES,
};
use crate::simulator::{RadioSimulator, TrialOutcome};
use rayon::prelude::*;
use wx_graph::{GraphView, Vertex};

/// One trial's view into the [`LaneWorkspace`] that ran it, handed to
/// [`map_trials_lanes`] summarize closures.
#[derive(Clone, Copy, Debug)]
pub struct LaneTrialView<'a> {
    ws: &'a LaneWorkspace,
    lane: usize,
}

impl LaneTrialView<'_> {
    /// Per-round informed counts of this trial (`[0] == 1`).
    pub fn informed_per_round(&self) -> &[usize] {
        self.ws.lane_informed_per_round(self.lane)
    }

    /// The round at which this trial first informed vertex `v`.
    pub fn first_informed_round(&self, v: Vertex) -> Option<usize> {
        self.ws.lane_first_informed_round(self.lane, v)
    }

    /// Rounds needed to inform at least `fraction` of `reachable` vertices
    /// (mirrors [`crate::BroadcastOutcome::rounds_to_reach_fraction`]).
    pub fn rounds_to_reach_fraction(&self, fraction: f64, reachable: usize) -> Option<usize> {
        self.ws
            .lane_rounds_to_reach_fraction(self.lane, fraction, reachable)
    }
}

/// Runs `trials` independent simulations in word-parallel batches of up to
/// `lanes` trials each (`lanes ∈ 1..=64`), reducing each trial to whatever
/// `summarize` returns; results come back in trial order.
///
/// Trial `t` runs on seed `derive_seed(base_seed, t)`, and a lane's trial
/// does not depend on the batch it shares, so summaries are identical for
/// every `lanes`. Batches are farmed out over rayon with one
/// [`LaneWorkspace`] per worker from the thread-local pool.
pub fn map_trials_lanes<G, P, F, T, S>(
    sim: &RadioSimulator<'_, G>,
    trials: usize,
    base_seed: u64,
    lanes: usize,
    make_protocol: F,
    summarize: S,
) -> Vec<T>
where
    G: GraphView + Sync + ?Sized,
    P: LaneProtocol<G>,
    F: Fn() -> P + Sync,
    T: Send,
    S: Fn(usize, &TrialOutcome, &LaneTrialView<'_>) -> T + Sync,
{
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane width must be 1..=64, got {lanes}"
    );
    let batches = trials.div_ceil(lanes);
    (0..batches)
        .into_par_iter()
        .map(|b| {
            let start = b * lanes;
            let width = lanes.min(trials - start);
            let mut seeds = [0u64; MAX_LANES];
            for (j, s) in seeds[..width].iter_mut().enumerate() {
                *s = wx_graph::random::derive_seed(base_seed, (start + j) as u64);
            }
            with_thread_lane_workspace(|ws| {
                let mut proto = make_protocol();
                run_lanes_in(sim, &mut proto, &seeds[..width], ws);
                (0..width)
                    .map(|lane| {
                        let outcome = ws.lane_outcome(lane);
                        summarize(start + lane, &outcome, &LaneTrialView { ws, lane })
                    })
                    .collect::<Vec<T>>()
            })
        })
        .collect::<Vec<Vec<T>>>()
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::{LaneDecay, LaneMirror};
    use crate::oracle;
    use crate::protocols::decay::DecayProtocol;
    use crate::protocols::naive::NaiveFlooding;
    use crate::simulator::SimulatorConfig;

    #[test]
    fn trials_are_reproducible() {
        let g = wx_constructions::families::random_regular_graph(64, 4, 2).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let run = || {
            map_trials_lanes(&sim, 6, 9, 4, LaneDecay::default, |_, outcome, view| {
                (outcome.completed_at, view.informed_per_round().to_vec())
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_protocols_give_identical_trials() {
        // one trial per batch, so every trial is a run of its own
        let g = wx_constructions::families::complete_k_ary_tree(2, 5).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let completions = map_trials_lanes(
            &sim,
            3,
            1,
            1,
            || LaneMirror::new(NaiveFlooding),
            |_, outcome, _| outcome.completed_at,
        );
        assert!(completions.iter().all(|&c| c == completions[0]));
    }

    #[test]
    fn lane_summaries_match_full_outcomes() {
        let g = wx_constructions::families::random_regular_graph(64, 4, 5).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let summaries =
            map_trials_lanes(&sim, 5, 17, 64, LaneDecay::default, |t, outcome, view| {
                (
                    t,
                    outcome.completed_at,
                    outcome.rounds_simulated,
                    view.rounds_to_reach_fraction(0.5, outcome.reachable),
                )
            });
        assert_eq!(summaries.len(), 5);
        for (i, (t, completed_at, rounds, half)) in summaries.iter().enumerate() {
            let seed = wx_graph::random::derive_seed(17, i as u64);
            let full = sim.run(&mut DecayProtocol::default(), seed);
            assert_eq!(*t, i);
            assert_eq!(*completed_at, full.completed_at);
            assert_eq!(*rounds, full.rounds_simulated);
            assert_eq!(*half, full.rounds_to_reach_fraction(0.5));
        }
    }

    #[test]
    fn lane_summaries_are_identical_to_scalar_summaries() {
        let g = wx_constructions::families::random_regular_graph(90, 4, 11).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let scalar: Vec<_> = (0..70)
            .map(|t| {
                let seed = wx_graph::random::derive_seed(23, t as u64);
                let o = oracle::run(&g, 0, sim.config(), &mut DecayProtocol::default(), seed);
                (
                    t,
                    oracle::summary(&o),
                    o.rounds_to_reach_fraction(0.5),
                    o.first_informed_round[89],
                )
            })
            .collect();
        for lanes in [1usize, 8, 64] {
            let sliced = map_trials_lanes(
                &sim,
                70,
                23,
                lanes,
                LaneDecay::default,
                |t, outcome, view| {
                    (
                        t,
                        *outcome,
                        view.rounds_to_reach_fraction(0.5, outcome.reachable),
                        view.first_informed_round(89),
                    )
                },
            );
            assert_eq!(scalar, sliced, "lanes={lanes}");
        }
    }

    #[test]
    fn shared_simulator_does_one_bfs_and_caches_the_target() {
        // the reachable count is computed in the constructor; afterwards it
        // is a field read, identical across all trials
        let g = wx_constructions::families::grid_graph(6, 6).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let targets = map_trials_lanes(&sim, 8, 1, 3, LaneDecay::default, |_, outcome, _| {
            outcome.reachable
        });
        assert!(targets.iter().all(|&r| r == sim.reachable_count()));
    }
}
