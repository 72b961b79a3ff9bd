//! Radio-broadcast throughput harness: the perf trajectory behind `wx bench`.
//!
//! The paper's experimental comparisons (decay vs. spokesman broadcast) rest
//! on large Monte-Carlo ensembles, so the figure of merit for the streaming
//! trial engine is simple: how many *trials per second* and *simulated
//! rounds per second* the engine sustains on a production-scale instance.
//! [`run`] races the configured protocols on one shared
//! `random_regular(n, d)` instance — one graph build, one BFS, one lane
//! workspace per rayon worker — and records wall-clock throughput per
//! protocol, one trial per batch and then across a sweep of batch widths. The default full configuration is the ROADMAP-scale
//! `random_regular(100_000, 8)`; [`ThroughputConfig::smoke`] is the
//! CI-sized variant.
//!
//! Reports serialize as a single JSON object (so `wx validate` accepts
//! them) and are written as `BENCH_radio_throughput.json`, extending the
//! machine-readable perf trajectory the criterion shim started.

use serde::Serialize;
use wx_core::graph::{GraphView, Result as GraphResult, Vertex};
use wx_core::radio::protocols::ProtocolKind;
use wx_core::radio::trials::map_trials_lanes;
use wx_core::radio::{LaneProtocol, LaneView, RadioSimulator, SimulatorConfig};
use wx_core::report::{fmt_f64, render_table, to_json_pretty, TableRow};
use wx_core::trace::Clock;

/// Configuration of one throughput race.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputConfig {
    /// Number of vertices of the shared `random_regular` instance.
    pub n: usize,
    /// Degree of the instance.
    pub d: usize,
    /// Trials per randomized protocol (non-randomized protocols reproduce
    /// the same run every trial, so they execute once).
    pub trials: usize,
    /// Base seed for graph generation and per-trial protocol streams.
    pub seed: u64,
    /// Round cap per trial.
    pub max_rounds: usize,
    /// Protocols racing on the instance.
    pub protocols: Vec<ProtocolKind>,
    /// Lane widths for the batch-width sweep. Each randomized protocol
    /// races once at one trial per batch and then once per width listed
    /// here, simulating that many trials per `u64` word; empty disables the
    /// sweep. Deterministic protocols run one trial total, so
    /// word-parallelism has nothing to amortize and they are excluded.
    pub lanes: Vec<usize>,
}

impl ThroughputConfig {
    /// The production-scale default: decay vs. spokesman broadcast on
    /// `random_regular(100_000, 8)`.
    pub fn full() -> ThroughputConfig {
        ThroughputConfig {
            n: 100_000,
            d: 8,
            trials: 8,
            seed: 0xBE,
            max_rounds: 10_000,
            protocols: vec![ProtocolKind::Decay, ProtocolKind::Spokesman],
            lanes: vec![8, 32, 64],
        }
    }

    /// CI-sized smoke variant (same race, small instance, few trials).
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            n: 2_000,
            d: 8,
            trials: 4,
            seed: 0xBE,
            max_rounds: 10_000,
            protocols: vec![ProtocolKind::Decay, ProtocolKind::Spokesman],
            lanes: vec![64],
        }
    }
}

/// Measured throughput of one protocol on the shared instance.
#[derive(Clone, Debug, Serialize)]
pub struct ProtocolThroughput {
    /// `radio_throughput/<protocol>/<n>` — same labeling scheme as the
    /// criterion-shim records, so trajectory tooling can treat all
    /// `BENCH_*.json` files uniformly.
    pub label: String,
    /// Protocol name.
    pub protocol: String,
    /// The trial engine that produced the record: always `"bitsliced"`, the
    /// lane engine in [`wx_core::radio::bitslice`]; kept so readers of
    /// earlier `BENCH_radio_throughput.json` files see one schema.
    pub engine: String,
    /// Trials simulated per machine word — 1 for the per-protocol row, the
    /// swept width for the others.
    pub lanes: usize,
    /// Trials executed (1 for non-randomized protocols).
    pub trials: usize,
    /// Trials that completed the broadcast within the round cap.
    pub completed: usize,
    /// Mean completion round over completed trials.
    pub mean_rounds: Option<f64>,
    /// Total simulated rounds across all trials.
    pub total_rounds: usize,
    /// Wall-clock time for the whole ensemble.
    pub elapsed_seconds: f64,
    /// Wall-clock time the protocol itself spent choosing transmitters
    /// (`reset` plus every per-round `fill_transmitters`) — for centralized
    /// protocols (spokesman) this is dominated by the per-round schedule
    /// *solver*, which earlier report versions conflated with simulation
    /// throughput. Per-protocol (1-lane) rows only; `None` for the width
    /// sweep.
    pub solve_seconds: Option<f64>,
    /// `elapsed_seconds` minus `solve_seconds`: the time spent in the
    /// simulator proper (collision resolution, bookkeeping). Per-protocol
    /// rows only.
    pub simulate_seconds: Option<f64>,
    /// Trials per second of wall-clock time.
    pub trials_per_sec: f64,
    /// Simulated rounds per second of wall-clock time.
    pub rounds_per_sec: f64,
}

/// A full throughput report (one shared instance, one record per protocol).
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputReport {
    /// Report discriminator (`"radio_throughput"`).
    pub bench: String,
    /// Instance size.
    pub n: usize,
    /// Instance degree.
    pub d: usize,
    /// Base seed.
    pub seed: u64,
    /// Round cap per trial.
    pub max_rounds: usize,
    /// Seconds spent building the shared instance (generation + the one
    /// reachability BFS).
    pub setup_seconds: f64,
    /// Per-protocol throughput, in configuration order.
    pub records: Vec<ProtocolThroughput>,
}

impl ThroughputReport {
    /// Serializes the report as pretty JSON (a single top-level object, as
    /// `wx validate` expects).
    pub fn to_json(&self) -> String {
        to_json_pretty(self)
    }

    /// Renders the human-readable summary table.
    pub fn summary_table(&self) -> String {
        let rows: Vec<TableRow> = self
            .records
            .iter()
            .map(|r| {
                TableRow::new(
                    r.protocol.clone(),
                    vec![
                        r.engine.clone(),
                        r.lanes.to_string(),
                        r.trials.to_string(),
                        r.completed.to_string(),
                        r.mean_rounds.map(fmt_f64).unwrap_or_else(|| "-".into()),
                        fmt_f64(r.elapsed_seconds),
                        r.solve_seconds.map(fmt_f64).unwrap_or_else(|| "-".into()),
                        fmt_f64(r.trials_per_sec),
                        fmt_f64(r.rounds_per_sec),
                    ],
                )
            })
            .collect();
        render_table(
            &format!(
                "radio throughput — random_regular({}, {}), seed {}",
                self.n, self.d, self.seed
            ),
            &[
                "protocol",
                "engine",
                "lanes",
                "trials",
                "completed",
                "mean_rounds",
                "elapsed_s",
                "solve_s",
                "trials/s",
                "rounds/s",
            ],
            &rows,
        )
    }
}

/// Span name under which [`SolveSpanProtocol`] records protocol time; the
/// per-ensemble solve split is read back from the drained trace's
/// overflow-immune phase totals for this name.
const SOLVE_SPAN: &str = "bench.solve";

/// Wraps a lane protocol and records the wall-clock time spent inside the
/// protocol's own calls — `reset` plus every per-round `fill_transmitters`,
/// where centralized protocols (spokesman) run their schedule solver — as
/// `bench.solve` spans, so the report can split `elapsed_seconds` into
/// protocol *solve* time vs simulator time instead of conflating them into
/// one throughput number. Spans land in each rayon worker's thread-local
/// ring; [`run`] drains them per ensemble and reads the phase total.
struct SolveSpanProtocol<P> {
    inner: P,
}

impl<G: GraphView + ?Sized, P: LaneProtocol<G>> LaneProtocol<G> for SolveSpanProtocol<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]) {
        let _span = wx_trace::span(SOLVE_SPAN);
        self.inner.reset(graph, source, seeds);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let _span = wx_trace::span(SOLVE_SPAN);
        self.inner.fill_transmitters(view, transmit);
    }
}

/// One `(completed_at, rounds_simulated)` summary per trial.
type TrialSummary = (Option<usize>, usize);

/// Assembles a [`ProtocolThroughput`] record from an ensemble's summaries
/// and its wall-clock time.
fn record_from_summaries(
    label: String,
    kind: ProtocolKind,
    lanes: usize,
    summaries: &[TrialSummary],
    elapsed_seconds: f64,
    solve_seconds: Option<f64>,
) -> ProtocolThroughput {
    let trials = summaries.len();
    let completed = summaries.iter().filter(|(c, _)| c.is_some()).count();
    let total_rounds: usize = summaries.iter().map(|(_, r)| r).sum();
    let mean_rounds = (completed > 0)
        .then(|| summaries.iter().filter_map(|(c, _)| *c).sum::<usize>() as f64 / completed as f64);
    ProtocolThroughput {
        label,
        protocol: kind.name().to_string(),
        engine: "bitsliced".to_string(),
        lanes,
        trials,
        completed,
        mean_rounds,
        total_rounds,
        elapsed_seconds,
        solve_seconds,
        simulate_seconds: solve_seconds.map(|s| (elapsed_seconds - s).max(0.0)),
        trials_per_sec: trials as f64 / elapsed_seconds,
        rounds_per_sec: total_rounds as f64 / elapsed_seconds,
    }
}

/// Runs the configured race: builds the shared instance once, then drives
/// each protocol through the lane engine one trial per batch (label
/// `radio_throughput/<protocol>/<n>`) and times the ensemble. Randomized
/// protocols additionally race once per configured lane width (labels
/// `radio_throughput/<protocol>/lanes<L>/<n>`, at least `L` trials so a
/// full word is exercised).
pub fn run(config: &ThroughputConfig) -> GraphResult<ThroughputReport> {
    // The solve split is read from the process-global tracer, so the whole
    // race owns it: serialize against other traced sections.
    let _session = wx_trace::exclusive();

    let setup_clock = Clock::start();
    let graph =
        wx_core::constructions::families::random_regular_graph(config.n, config.d, config.seed)?;
    let sim = RadioSimulator::new(
        &graph,
        0,
        SimulatorConfig {
            max_rounds: config.max_rounds,
            stop_when_complete: true,
        },
    );
    let setup_seconds = setup_clock.elapsed_seconds();

    // Remember the caller's enabled state and start from drained buffers;
    // nothing below can early-return, so both are restored at the end.
    let was_enabled = wx_trace::is_enabled();
    wx_trace::enable();
    let _ = wx_trace::take_trace();

    let mut records = Vec::new();
    for &kind in &config.protocols {
        let trials = if kind.randomized() {
            config.trials.max(1)
        } else {
            1
        };
        let clock = Clock::start();
        let summaries = map_trials_lanes(
            &sim,
            trials,
            config.seed,
            1,
            || SolveSpanProtocol {
                inner: kind.build_lanes(),
            },
            |_, outcome, _| (outcome.completed_at, outcome.rounds_simulated),
        );
        let elapsed_seconds = clock.elapsed_seconds().max(f64::EPSILON);
        let solve_seconds = wx_trace::take_trace().phase_seconds(SOLVE_SPAN);
        records.push(record_from_summaries(
            format!("radio_throughput/{}/{}", kind.name(), config.n),
            kind,
            1,
            &summaries,
            elapsed_seconds,
            Some(solve_seconds),
        ));

        if !kind.randomized() {
            continue;
        }
        for &width in &config.lanes {
            let lane_trials = trials.max(width);
            let clock = Clock::start();
            let summaries = map_trials_lanes(
                &sim,
                lane_trials,
                config.seed,
                width,
                || kind.build_lanes(),
                |_, outcome, _| (outcome.completed_at, outcome.rounds_simulated),
            );
            let elapsed_seconds = clock.elapsed_seconds().max(f64::EPSILON);
            records.push(record_from_summaries(
                format!(
                    "radio_throughput/{}/lanes{}/{}",
                    kind.name(),
                    width,
                    config.n
                ),
                kind,
                width,
                &summaries,
                elapsed_seconds,
                None,
            ));
        }
    }

    // Leave the tracer as we found it: drop our leftover simulator spans
    // and restore the caller's enabled state.
    let _ = wx_trace::take_trace();
    if !was_enabled {
        wx_trace::disable();
    }

    Ok(ThroughputReport {
        bench: "radio_throughput".to_string(),
        n: config.n,
        d: config.d,
        seed: config.seed,
        max_rounds: config.max_rounds,
        setup_seconds,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_race_produces_well_formed_records() {
        let config = ThroughputConfig {
            n: 256,
            d: 4,
            trials: 3,
            ..ThroughputConfig::smoke()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.bench, "radio_throughput");
        // decay 1-lane + decay lanes-64 + spokesman 1-lane
        assert_eq!(report.records.len(), 3);
        let decay = &report.records[0];
        assert_eq!(decay.protocol, "decay");
        assert_eq!(decay.engine, "bitsliced");
        assert_eq!(decay.lanes, 1);
        assert_eq!(decay.trials, 3);
        assert_eq!(decay.completed, 3, "decay failed on a 4-regular expander");
        assert!(decay.trials_per_sec > 0.0);
        assert!(decay.rounds_per_sec > 0.0);
        assert!(decay.mean_rounds.unwrap() >= 1.0);
        // the width sweep runs at least one full word of trials
        let sliced = &report.records[1];
        assert_eq!(sliced.protocol, "decay");
        assert_eq!(sliced.engine, "bitsliced");
        assert_eq!(sliced.lanes, 64);
        assert_eq!(sliced.trials, 64);
        assert_eq!(sliced.completed, 64);
        assert_eq!(sliced.label, "radio_throughput/decay/lanes64/256");
        assert!(sliced.solve_seconds.is_none());
        // the spokesman schedule is deterministic: one trial suffices, and
        // the solve/simulate split accounts for the whole elapsed time
        let spokesman = &report.records[2];
        assert_eq!(spokesman.trials, 1);
        assert_eq!(spokesman.completed, 1);
        assert_eq!(spokesman.lanes, 1);
        let solve = spokesman.solve_seconds.unwrap();
        let simulate = spokesman.simulate_seconds.unwrap();
        // the per-round schedule solver always costs measurable time
        assert!(solve > 0.0 && simulate >= 0.0);
        assert!(solve + simulate <= spokesman.elapsed_seconds + 1e-9);
        // the JSON form is a single top-level object with the records inline
        let json = report.to_json();
        assert!(json.trim_start().starts_with('{'));
        assert!(json.contains("\"radio_throughput/decay/256\""));
        assert!(json.contains("\"radio_throughput/decay/lanes64/256\""));
        assert!(json.contains("\"trials_per_sec\""));
        assert!(json.contains("\"solve_seconds\""));
        // and the table lists every protocol and engine
        let table = report.summary_table();
        assert!(table.contains("decay"));
        assert!(table.contains("spokesman"));
        assert!(table.contains("bitsliced"));
    }

    #[test]
    fn one_lane_and_wide_records_agree_on_shared_trials() {
        // Same seed, same trial count: a trial's result does not depend on
        // its batch width, so the aggregate round statistics of the 1-lane
        // row and the 16-lane row must coincide exactly.
        let config = ThroughputConfig {
            n: 256,
            d: 4,
            trials: 16,
            protocols: vec![ProtocolKind::Decay],
            lanes: vec![16],
            ..ThroughputConfig::smoke()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.records.len(), 2);
        let (single, wide) = (&report.records[0], &report.records[1]);
        assert_eq!((single.lanes, wide.lanes), (1, 16));
        assert_eq!(single.trials, wide.trials);
        assert_eq!(single.completed, wide.completed);
        assert_eq!(single.mean_rounds, wide.mean_rounds);
        assert_eq!(single.total_rounds, wide.total_rounds);
    }

    #[test]
    fn invalid_configurations_error_cleanly() {
        let bad = ThroughputConfig {
            n: 4,
            d: 9,
            ..ThroughputConfig::smoke()
        };
        assert!(run(&bad).is_err());
    }
}
