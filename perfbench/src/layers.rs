//! The layer pass of every traced run.
//!
//! A traced run prints every per-layer metric `BENCHMARK.json` declares,
//! whichever workload it belongs to, so every traced run makes the same
//! passes, each on inputs derived from the workload seed and each call
//! under a `bench.*` span of its own:
//!
//! - the paper sweep, entry by entry (`run_builtin_ctx`);
//! - the spokesman solvers on `spokesman_cold`'s first instance
//!   (`GraphSource::build_backend`, `BipartiteGraph::from_set_in_graph_with`,
//!   `SolverKind::build().solve`);
//! - the radio engines on `radio_ensemble`'s first pass (`reachable_from`,
//!   `run_lanes_in`, `RadioSimulator::run_in`);
//! - a short `wx serve` session (`serve::layer_session`), except in
//!   `serve_mixed`, which measures that layer on its own load.
//!
//! The work counters, `runner.op_s`, the tracing overhead and
//! `failed_share` come from the workload's own batches; the caller puts
//! them after this pass, so they replace what the pass measured.

use std::time::Instant;

use wx_core::graph::random::{derive_seed, random_subset_of_size, rng_from_seed};
use wx_core::graph::scratch::with_thread_scratch;
use wx_core::graph::{BipartiteGraph, Graph};
use wx_core::radio::protocols::ProtocolKind;
use wx_core::radio::{
    reachable_from, run_lanes_in, with_thread_lane_workspace, with_thread_workspace,
    RadioSimulator, SimulatorConfig, MAX_LANES,
};
use wx_core::spokesman::SolverKind;
use wx_core::trace::{self as wx_trace, CounterId, Trace};
use wx_lab::cache::{ArtifactCache, CacheConfig, RunContext};
use wx_lab::registry::{builtins, run_builtin_ctx, BuiltinKind, SweepOptions};
use wx_lab::runner::{Runner, ScenarioReport};
use wx_lab::source::{BuiltGraph, GraphSource};
use wx_lab::spec::ScenarioSpec;

use crate::batch::{coverage_key, radio_scenarios, radio_spec, spokesman_cold_spec, SPOKESMAN_SET};
use crate::report::{median, ratio, secs, Metrics, Tally};
use crate::{serve, Args};

/// Seconds of the short serve session in the traced runs of the
/// in-process workloads: half at the nominal rate, half at the peak rate,
/// about 56 requests.
const SERVE_SESSION_S: f64 = 4.0;

/// The deterministic work counters every traced run reports, each summed
/// over the workload's first batch (0 where the workload does no such
/// work).
pub const COUNTERS: [&str; 13] = [
    "engine.sets_evaluated",
    "engine.pool_sets",
    "sampler.draws",
    "engine.induced_viewed",
    "engine.induced_materialized",
    "spokesman.greedy_picks",
    "spokesman.flips_accepted",
    "spokesman.flips_rejected",
    "radio.rounds_simulated",
    "radio.lane_rounds",
    "radio.lanes_completed",
    "radio.informed_final",
    "graph.memory_bytes",
];

/// Joins two drained traces (spans and events concatenated, phase totals
/// merged by name).
pub fn merge_traces(mut a: Trace, b: Trace) -> Trace {
    a.spans.extend(b.spans);
    a.events.extend(b.events);
    for phase in b.phases {
        match a.phases.iter_mut().find(|p| p.name == phase.name) {
            Some(p) => {
                p.count += phase.count;
                p.total_nanos += phase.total_nanos;
            }
            None => a.phases.push(phase),
        }
    }
    a.dropped += b.dropped;
    a.spans.sort_by_key(|s| (s.start_nanos, s.tid));
    a
}

/// Runs every pass with tracing on and returns their drained trace.
/// `spokesman_report` is the runner's report of `spokesman_cold`'s first
/// instance when the workload made it, so the solver pass can be checked
/// against it; `serve_session` adds the short `wx serve` session.
pub fn run(
    args: &Args,
    spokesman_report: Option<&ScenarioReport>,
    serve_session: bool,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<Trace, String> {
    wx_trace::enable();
    let result = passes(args, spokesman_report, serve_session, tally, metrics);
    wx_trace::disable();
    let trace = wx_trace::take_trace();
    result.map(|sweep_trace| merge_traces(sweep_trace, trace))
}

fn passes(
    args: &Args,
    spokesman_report: Option<&ScenarioReport>,
    serve_session: bool,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<Trace, String> {
    let _ = wx_trace::take_trace();
    let sets = sweep(args.seed, metrics);
    // Drained here so the engine spans below are the sweep's alone (the
    // serve session's output check measures too).
    let sweep_trace = wx_trace::take_trace();
    let minimize_s = sweep_trace.phase_seconds("engine.minimize");
    let pool_s = sweep_trace.phase_seconds("engine.evaluate_pool");
    metrics.put("span.engine.minimize_s", minimize_s, "s");
    metrics.put("span.engine.evaluate_pool_s", pool_s, "s");
    metrics.put(
        "engine.sets_per_s",
        ratio(sets as f64, minimize_s + pool_s),
        "1/s",
    );

    let mut build_s = 0.0;
    spokesman(args.seed, spokesman_report, &mut build_s, tally, metrics)?;
    radio(args.seed, &mut build_s, tally, metrics)?;
    metrics.put("graph.build_s", build_s, "s");
    if serve_session {
        serve::layer_session(args, SERVE_SESSION_S, tally, metrics)?;
    }
    Ok(sweep_trace)
}

fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

// ---------------------------------------------------------------- sweep

/// The entries, cache and order of `run_sweep` at full size with the first
/// batch's seed, one entry at a time so each gets its own time. Returns
/// the sets the measurement engine evaluated, as counted on this thread.
fn sweep(seed: u64, metrics: &mut Metrics) -> u64 {
    let opts = SweepOptions {
        quick: false,
        seed: derive_seed(seed, 0),
    };
    let runner = Runner::new();
    let cache = ArtifactCache::new(CacheConfig::default());
    let ctx = RunContext {
        graphs: Some(&cache),
        solutions: Some(&cache),
    };
    let mut runner_ops = Vec::new();
    let ((), counters) = wx_trace::with_counters(|| {
        for entry in builtins() {
            let span_name = leak(format!("bench.sweep.{}", entry.name));
            let _span = wx_trace::span(span_name);
            let t = Instant::now();
            let _ = run_builtin_ctx(&entry, &runner, opts, &ctx);
            let elapsed = secs(t.elapsed());
            metrics.put(format!("sweep.{}_s", entry.name), elapsed, "s");
            if matches!(entry.kind, BuiltinKind::Scenario(_)) {
                runner_ops.push(elapsed);
            }
        }
    });
    // Over the sweep, `Runner::run` is the declarative entries; a workload
    // whose batches call it replaces this.
    metrics.put("runner.op_s", median(&runner_ops), "s");
    CounterId::from_name("engine.sets_evaluated").map_or(0, |id| counters.get(id))
}

// ------------------------------------------------------------ spokesman

/// `spokesman_cold`'s first instance re-derived step by step the way the
/// runner derives it: build seed, task seed, the set S, its bipartite
/// view, and one child seed per portfolio member.
fn spokesman(
    seed: u64,
    first: Option<&ScenarioReport>,
    build_s: &mut f64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let spec = spokesman_cold_spec(seed, 0);
    let trial_seed = derive_seed(spec.seed, 0);
    let task_seed = derive_seed(trial_seed, 1);
    let t = Instant::now();
    let built = {
        let _span = wx_trace::span("bench.graph.build");
        spec.source
            .build_backend(derive_seed(trial_seed, 0))
            .map_err(|e| format!("building the spokesman graph: {e}"))?
    };
    *build_s += secs(t.elapsed());
    let BuiltGraph::Csr(g) = &built else {
        return Err("random_regular did not build a CSR graph".to_string());
    };
    let n = g.num_vertices();
    let s = random_subset_of_size(
        &mut rng_from_seed(derive_seed(task_seed, 0)),
        n,
        SPOKESMAN_SET,
    );
    let t = Instant::now();
    let view = {
        let _span = wx_trace::span("bench.graph.bipartite_extract");
        with_thread_scratch(n, |scratch| {
            BipartiteGraph::from_set_in_graph_with(g, &s, scratch)
        })
        .0
    };
    metrics.put("graph.bipartite_extract_s", secs(t.elapsed()), "s");

    let mut coverages = Vec::new();
    for (i, kind) in SolverKind::POLYNOMIAL.iter().enumerate() {
        let span_name = leak(format!("bench.solver.{kind}"));
        let t = Instant::now();
        let result = {
            let _span = wx_trace::span(span_name);
            kind.build()
                .solve(&view, derive_seed(task_seed, 1 + i as u64))
        };
        metrics.put(format!("solver.{kind}_s"), secs(t.elapsed()), "s");
        // Coverage recomputed from the returned subset alone: right
        // vertices with exactly one neighbour in it.
        let unique = (0..view.num_right())
            .filter(|&w| {
                view.right_neighbors(w)
                    .iter()
                    .filter(|&&u| result.subset.contains(u))
                    .count()
                    == 1
            })
            .count();
        let fraction = ratio(unique as f64, view.num_right() as f64);
        metrics.put(format!("solver.{kind}.coverage"), fraction, "ratio");
        tally.check(
            unique == result.unique_coverage,
            &format!(
                "{kind}: reported coverage {} but the subset covers {unique}",
                result.unique_coverage
            ),
        );
        if let Some(first) = first {
            let reported = first.metrics.get(&coverage_key(*kind)).map(|s| s.mean);
            tally.check(
                reported == Some(fraction),
                &format!("{kind}: runner reported {reported:?}, layer pass found {fraction}"),
            );
        }
        coverages.push((*kind, unique));
    }
    let portfolio = coverages
        .iter()
        .find(|(k, _)| *k == SolverKind::Portfolio)
        .map_or(0, |(_, c)| *c);
    for (kind, unique) in &coverages {
        tally.check(
            portfolio >= *unique,
            &format!("portfolio covers {portfolio}, below {kind}'s {unique}"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- radio

fn sim_config(n: usize) -> SimulatorConfig {
    SimulatorConfig {
        max_rounds: 10 * n + 100,
        stop_when_complete: true,
    }
}

/// Lane batches of one shared-graph scenario through `run_lanes_in`, as
/// the runner batches them; returns (seconds in the engine, live
/// lane-rounds, word rounds).
fn lanes(
    g: &Graph,
    spec: &ScenarioSpec,
    protocol: ProtocolKind,
    reachable: usize,
    span_name: &'static str,
    tally: &mut Tally,
) -> (f64, u64, u64) {
    let n = g.num_vertices();
    let sim = RadioSimulator::with_reachable(g, 0, sim_config(n), reachable);
    let trial_seeds: Vec<u64> = (0..spec.trials)
        .map(|i| derive_seed(derive_seed(spec.seed, i as u64), 1))
        .collect();
    let (mut engine_s, mut live, mut word_rounds) = (0.0, 0u64, 0u64);
    for seeds in trial_seeds.chunks(MAX_LANES) {
        let mut proto = protocol.build_lanes::<Graph>();
        with_thread_lane_workspace(|ws| {
            let t = Instant::now();
            {
                let _span = wx_trace::span(span_name);
                run_lanes_in(&sim, &mut *proto, seeds, ws);
            }
            engine_s += secs(t.elapsed());
            let mut batch_rounds = 0u64;
            for lane in 0..seeds.len() {
                let o = ws.lane_outcome(lane);
                tally.check(
                    o.completed() && o.reachable == n,
                    &format!(
                        "{}: lane {lane} ended incomplete ({} of {n} reachable)",
                        spec.name, o.reachable
                    ),
                );
                live += o.rounds_simulated as u64;
                batch_rounds = batch_rounds.max(o.rounds_simulated as u64);
            }
            word_rounds += batch_rounds;
        });
    }
    (engine_s, live, word_rounds)
}

/// `radio_ensemble`'s first pass, engine by engine.
fn radio(
    seed: u64,
    build_s: &mut f64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let [decay_lanes, decay_scalar, schedule] = radio_scenarios(true);
    let mut reachable_s = 0.0;
    let mut build = |source: &GraphSource, seed: u64| -> Result<BuiltGraph, String> {
        let _span = wx_trace::span("bench.graph.build");
        let t = Instant::now();
        let built = source
            .build_backend(seed)
            .map_err(|e| format!("building a radio graph: {e}"));
        *build_s += secs(t.elapsed());
        built
    };
    let mut reach = |g: &Graph| -> usize {
        let _span = wx_trace::span("bench.radio.reachable");
        let t = Instant::now();
        let r = reachable_from(g, 0);
        reachable_s += secs(t.elapsed());
        r
    };
    let scenario_seed = |j: u64| derive_seed(seed, j);

    // Shared deterministic graphs build once with seed 0, as in the runner.
    let spec = radio_spec(&decay_lanes, scenario_seed(0));
    let built = build(&spec.source, 0)?;
    let BuiltGraph::Csr(g) = &built else {
        return Err("Margulis did not build a CSR graph".to_string());
    };
    let reachable = reach(g);
    let (lanes_s, live, word_rounds) = lanes(
        g,
        &spec,
        ProtocolKind::Decay,
        reachable,
        "bench.radio.lanes",
        tally,
    );
    metrics.put("radio.lanes_s", lanes_s, "s");
    metrics.put(
        "radio.lanes_trials_per_s",
        ratio(spec.trials as f64, lanes_s),
        "1/s",
    );
    metrics.put(
        "radio.lane_occupancy",
        ratio(live as f64, (MAX_LANES as u64 * word_rounds) as f64),
        "ratio",
    );
    drop(built);

    let spec = radio_spec(&decay_scalar, scenario_seed(1));
    let mut scalar_s = 0.0;
    for i in 0..spec.trials {
        let trial_seed = derive_seed(spec.seed, i as u64);
        let built = build(&spec.source, derive_seed(trial_seed, 0))?;
        let BuiltGraph::Csr(g) = &built else {
            return Err("random_regular did not build a CSR graph".to_string());
        };
        let n = g.num_vertices();
        let reachable = reach(g);
        let sim = RadioSimulator::with_reachable(g, 0, sim_config(n), reachable);
        let mut proto = ProtocolKind::Decay.build::<Graph>();
        let outcome = with_thread_workspace(|ws| {
            let _span = wx_trace::span("bench.radio.scalar");
            let t = Instant::now();
            let outcome = sim.run_in(&mut *proto, derive_seed(trial_seed, 1), ws);
            scalar_s += secs(t.elapsed());
            outcome
        });
        tally.check(
            outcome.completed() && outcome.reachable == n,
            &format!("{}: trial {i} ended incomplete", spec.name),
        );
    }
    metrics.put("radio.scalar_s", scalar_s, "s");
    metrics.put(
        "radio.scalar_trials_per_s",
        ratio(spec.trials as f64, scalar_s),
        "1/s",
    );

    let spec = radio_spec(&schedule, scenario_seed(2));
    let built = build(&spec.source, 0)?;
    let BuiltGraph::Csr(g) = &built else {
        return Err("Margulis did not build a CSR graph".to_string());
    };
    let reachable = reach(g);
    let (mirror_s, _, _) = lanes(
        g,
        &spec,
        ProtocolKind::Spokesman,
        reachable,
        "bench.radio.mirror",
        tally,
    );
    metrics.put("radio.mirror_s", mirror_s, "s");
    metrics.put("radio.reachable_s", reachable_s, "s");
    Ok(())
}
