//! The in-process workloads: `paper_sweep`, `spokesman_cold` and
//! `radio_ensemble`.
//!
//! Each runs a fixed batch of operations through the library's public
//! entry points (`run_sweep`, `Runner::run`) back to back for the run's
//! seconds. The untraced run reports end-to-end metrics. The traced run
//! repeats every batch on the same seed with tracing off and then on,
//! checks that the work counters agree, and adds the layer pass
//! (`layers.rs`) that calls each crate's public functions under the
//! benchmark's spans.

use std::collections::BTreeMap;
use std::time::Instant;

use wx_core::graph::random::derive_seed;
use wx_core::radio::protocols::ProtocolKind;
use wx_core::spokesman::SolverKind;
use wx_core::trace::{self as wx_trace, CounterSet};
use wx_lab::registry::{run_sweep, SweepOptions};
use wx_lab::runner::{Runner, ScenarioReport};
use wx_lab::source::GraphSource;
use wx_lab::spec::{ScenarioSpec, Task};

use crate::report::{median, peak_rss_mib, quantile, ratio, secs, Metrics, Tally};
use crate::{layers, traced, Args};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every batch workload times at least this many batches per run.
const MIN_BATCHES: usize = 2;
/// An operation of a batch workload meets its latency limit when it
/// finishes within this many seconds: an interactive user's patience for
/// one `wx run` or `wx sweep`. Every batch takes under 9 s today on a
/// 2-core machine, so only a several-fold slowdown misses it.
const BATCH_LIMIT_S: f64 = 30.0;

/// What one timed batch produced.
struct Batch {
    wall_s: f64,
    /// Duration of each `Runner::run` call the batch made.
    runner_runs_s: Vec<f64>,
    /// Checked units of work (sweep entries, solves, scenarios) with the
    /// latency of the operation that holds them and whether they passed.
    units: Vec<(f64, bool)>,
    /// Deterministic work counters, by telemetry name.
    counters: BTreeMap<String, u64>,
    /// Everything else a repeat on the same seed must reproduce exactly.
    fingerprint: String,
}

trait Workload {
    /// One set-up: input generation plus a warm-up on reduced inputs, so
    /// lazy initialisation (thread pools, per-thread scratch, allocator
    /// arenas) is paid before timing.
    fn set_up(&mut self, rep: usize);
    /// Batch `k`: inputs derived from the workload seed and `k`.
    fn batch(&mut self, k: usize, tally: &mut Tally) -> Batch;
    /// The runner's report of `spokesman_cold`'s first instance, if this
    /// workload made it (the layer pass checks its solvers against it).
    fn first_report(&self) -> Option<&ScenarioReport> {
        None
    }
}

fn counter_map(set: &CounterSet) -> BTreeMap<String, u64> {
    set.iter_nonzero()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

fn add_counters(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (name, value) in from {
        *into.entry(name.clone()).or_insert(0) += value;
    }
}

pub fn run(name: &str, args: &Args) -> Result<(Tally, Metrics), String> {
    let started = Instant::now();
    let mut workload: Box<dyn Workload> = match name {
        "paper_sweep" => Box::new(PaperSweep::new(args.seed)),
        "spokesman_cold" => Box::new(SpokesmanCold::new(args.seed)),
        "radio_ensemble" => Box::new(RadioEnsemble::new(args.seed)),
        other => return Err(format!("no in-process workload `{other}`")),
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        workload.set_up(rep);
        setups.push(secs(t.elapsed()));
    }
    eprintln!(
        "perfbench: {name}: set-up {:.3} s (median of {SETUP_REPS}), {:.3} s since start",
        median(&setups),
        secs(started.elapsed())
    );
    let mut tally = Tally::new();
    let mut metrics = Metrics::default();
    if args.trace {
        traced_run(name, workload.as_mut(), args, &mut tally, &mut metrics)?;
    } else {
        timed_run(
            workload.as_mut(),
            args,
            &mut tally,
            &mut metrics,
            median(&setups),
        );
    }
    Ok((tally, metrics))
}

fn timed_run(
    w: &mut dyn Workload,
    args: &Args,
    tally: &mut Tally,
    metrics: &mut Metrics,
    setup_s: f64,
) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut met = 0u64;
    loop {
        let b = w.batch(walls.len(), tally);
        walls.push(b.wall_s);
        met += b
            .units
            .iter()
            .filter(|(lat, ok)| *ok && *lat <= BATCH_LIMIT_S)
            .count() as u64;
        let elapsed = secs(t0.elapsed());
        if walls.len() >= MIN_BATCHES && elapsed + b.wall_s > args.seconds {
            break;
        }
    }
    eprintln!(
        "perfbench: {} batches, walls {:?}",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    // Each batch is one operation a user waits for (a sweep, a solve, an
    // ensemble), run one at a time: the nominal and the peak load are the
    // same, so both latency pairs are percentiles of the batch walls.
    let p50 = quantile(&walls, 0.5) * 1e3;
    let p90 = quantile(&walls, 0.9) * 1e3;
    metrics.put("setup_s", setup_s, "s");
    metrics.put("wall_s", median(&walls), "s");
    metrics.put("ok_share", tally.ok_share(), "ratio");
    metrics.put("peak_rss_mb", peak_rss_mib(None), "MiB");
    metrics.put("latency_p50_ms", p50, "ms");
    metrics.put("latency_p90_ms", p90, "ms");
    metrics.put("peak_latency_p50_ms", p50, "ms");
    metrics.put("peak_latency_p90_ms", p90, "ms");
    metrics.put(
        "slo_met_share",
        ratio(met as f64, tally.attempted as f64),
        "ratio",
    );
}

fn traced_run(
    name: &str,
    w: &mut dyn Workload,
    args: &Args,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    wx_trace::disable();
    let _ = wx_trace::take_trace();
    let t0 = Instant::now();
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut runner_runs = Vec::new();
    let mut first_counters: Option<BTreeMap<String, u64>> = None;
    loop {
        let k = untraced.len();
        let plain = w.batch(k, tally);
        wx_trace::enable();
        let with_trace = w.batch(k, tally);
        wx_trace::disable();
        tally.check(
            plain.counters == with_trace.counters,
            &format!(
                "{name} batch {k}: work counters differ with tracing on: {:?} vs {:?}",
                plain.counters, with_trace.counters
            ),
        );
        tally.check(
            plain.fingerprint == with_trace.fingerprint,
            &format!("{name} batch {k}: results differ between a run and its traced repeat"),
        );
        let pair = plain.wall_s + with_trace.wall_s;
        untraced.push(plain.wall_s);
        runner_runs.extend(plain.runner_runs_s);
        traced_walls.push(with_trace.wall_s);
        first_counters.get_or_insert(plain.counters);
        if secs(t0.elapsed()) + pair > args.seconds {
            break;
        }
    }
    let batches_trace = wx_trace::take_trace();
    // Over the workload's own operations; the layer pass's checks count in
    // the result line's totals only.
    let failed_share = ratio(tally.failed as f64, tally.attempted as f64);

    let layer_trace = layers::run(args, w.first_report(), true, tally, metrics)?;
    let counters = first_counters.unwrap_or_default();
    put_counters(&counters, metrics);
    if !runner_runs.is_empty() {
        metrics.put("runner.op_s", median(&runner_runs), "s");
    }
    let overhead = (median(&traced_walls) - median(&untraced)) / median(&untraced);
    metrics.put("trace.overhead_share", overhead, "ratio");
    metrics.put("failed_share", failed_share, "ratio");

    let dir = args.out.join(format!("{name}-seed{}", args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let trace = layers::merge_traces(batches_trace, layer_trace);
    let table = traced::write_in_process(&dir, &trace);
    eprintln!("perfbench: self-time table ({}):\n{table}", dir.display());
    Ok(())
}

/// Every counter of [`layers::COUNTERS`] (0 when `counters` lacks it) and
/// the local-search accept ratio.
pub fn put_counters(counters: &BTreeMap<String, u64>, metrics: &mut Metrics) {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    for counter in layers::COUNTERS {
        let unit = if counter.ends_with("_bytes") {
            "bytes"
        } else {
            "count"
        };
        metrics.put(counter, get(counter) as f64, unit);
    }
    let accepted = get("spokesman.flips_accepted") as f64;
    let rejected = get("spokesman.flips_rejected") as f64;
    metrics.put(
        "spokesman.flip_accept_ratio",
        ratio(accepted, accepted + rejected),
        "ratio",
    );
}

// ---------------------------------------------------------------- sweep

/// `wx sweep --all` at full size: every registry entry, one pass per seed.
struct PaperSweep {
    seed: u64,
    runner: Runner,
}

impl PaperSweep {
    fn new(seed: u64) -> PaperSweep {
        PaperSweep {
            seed,
            runner: Runner::new(),
        }
    }

    fn options(&self, k: usize) -> SweepOptions {
        SweepOptions {
            quick: false,
            seed: derive_seed(self.seed, k as u64),
        }
    }
}

impl Workload for PaperSweep {
    fn set_up(&mut self, rep: usize) {
        let opts = SweepOptions {
            quick: true,
            seed: derive_seed(self.seed, 1_000 + rep as u64),
        };
        if let Err(e) = run_sweep(&[], &self.runner, opts) {
            eprintln!("perfbench: warm-up sweep failed: {e}");
        }
    }

    fn batch(&mut self, k: usize, tally: &mut Tally) -> Batch {
        let opts = self.options(k);
        let _span = wx_trace::span("bench.sweep.pass");
        let t = Instant::now();
        let (result, counters) = wx_trace::with_counters(|| run_sweep(&[], &self.runner, opts));
        let wall_s = secs(t.elapsed());
        let mut units = Vec::new();
        let mut fingerprint = String::new();
        match result {
            Err(e) => {
                tally.error(&format!("sweep seed {}: {e}", opts.seed));
                units.push((wall_s, false));
            }
            Ok(report) => {
                let mut failures = Vec::new();
                for entry in &report.entries {
                    fingerprint.push_str(&format!("{}={} ", entry.name, entry.passed));
                    if !entry.passed {
                        let error = entry.error.clone().unwrap_or_default();
                        tally.error(&format!(
                            "sweep seed {} entry {}: {error}",
                            opts.seed, entry.name
                        ));
                        failures.push(format!("{}: {error}", entry.name));
                        units.push((wall_s, false));
                    } else if entry.scenario.is_none()
                        && entry.text_report.as_deref().is_none_or(str::is_empty)
                    {
                        tally.wrong(&format!(
                            "sweep entry {} passed without a report",
                            entry.name
                        ));
                        units.push((wall_s, false));
                    } else {
                        tally.ok();
                        units.push((wall_s, true));
                    }
                }
                eprintln!(
                    "perfbench: sweep seed {}: {}/{} passed in {wall_s:.3} s; failed: [{}]",
                    opts.seed,
                    report.passed,
                    report.entries.len(),
                    failures.join("; ")
                );
            }
        }
        Batch {
            wall_s,
            runner_runs_s: Vec::new(),
            units,
            counters: counter_map(&counters),
            fingerprint,
        }
    }
}

// ------------------------------------------------------------ spokesman

/// Cold spokesman portfolio solves: one trial per operation, no cache.
struct SpokesmanCold {
    seed: u64,
    /// Report of batch 0, which the layer pass re-derives.
    first: Option<ScenarioReport>,
}

const SPOKESMAN_N: usize = 20_000;
pub const SPOKESMAN_SET: usize = 10_000;

fn spokesman_spec(n: usize, set_size: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "spokesman-cold".to_string(),
        description: String::new(),
        source: GraphSource::RandomRegular { n, d: 8 },
        task: Task::Spokesman {
            set_size,
            solvers: None,
        },
        trials: 1,
        seed,
    }
}

impl SpokesmanCold {
    fn new(seed: u64) -> SpokesmanCold {
        SpokesmanCold { seed, first: None }
    }

    fn spec(&self, k: usize) -> ScenarioSpec {
        spokesman_cold_spec(self.seed, k)
    }
}

/// `spokesman_cold`'s operation `k` for workload seed `seed`.
pub fn spokesman_cold_spec(seed: u64, k: usize) -> ScenarioSpec {
    spokesman_spec(SPOKESMAN_N, SPOKESMAN_SET, derive_seed(seed, k as u64))
}

pub fn coverage_key(kind: SolverKind) -> String {
    format!("coverage_fraction:{kind}")
}

impl Workload for SpokesmanCold {
    fn set_up(&mut self, rep: usize) {
        let spec = spokesman_spec(6_000, 3_000, derive_seed(self.seed, 1_000 + rep as u64));
        if let Err(e) = Runner::new().run(&spec) {
            eprintln!("perfbench: warm-up solve failed: {e}");
        }
    }

    fn batch(&mut self, k: usize, tally: &mut Tally) -> Batch {
        let spec = self.spec(k);
        let t = Instant::now();
        let result = {
            let _span = wx_trace::span("bench.runner.run");
            Runner::new().run(&spec)
        };
        let wall_s = secs(t.elapsed());
        let mut counters = BTreeMap::new();
        let mut fingerprint = String::new();
        let mut ok = false;
        match result {
            Err(e) => tally.error(&format!("spokesman seed {}: {e}", spec.seed)),
            Ok(report) => {
                let coverage =
                    |kind: SolverKind| report.metrics.get(&coverage_key(kind)).map(|s| s.mean);
                let members: Vec<Option<f64>> = SolverKind::POLYNOMIAL
                    .iter()
                    .filter(|k| **k != SolverKind::Portfolio)
                    .map(|k| coverage(*k))
                    .collect();
                let portfolio = coverage(SolverKind::Portfolio);
                if report.trials != 1 || portfolio.is_none() || members.iter().any(Option::is_none)
                {
                    tally.wrong(&format!(
                        "spokesman seed {}: report lacks a solver's coverage",
                        spec.seed
                    ));
                } else {
                    let best = members.iter().flatten().fold(0.0f64, |a, b| a.max(*b));
                    let p = portfolio.unwrap_or(0.0);
                    if p + 1e-12 < best {
                        tally.wrong(&format!(
                            "spokesman seed {}: portfolio coverage {p} below a member's {best}",
                            spec.seed
                        ));
                    } else {
                        tally.ok();
                        ok = true;
                    }
                }
                counters = report.telemetry.clone();
                fingerprint = report.to_json();
                if k == 0 {
                    self.first = Some(report);
                }
            }
        }
        Batch {
            wall_s,
            runner_runs_s: vec![wall_s],
            units: vec![(wall_s, ok)],
            counters,
            fingerprint,
        }
    }

    fn first_report(&self) -> Option<&ScenarioReport> {
        self.first.as_ref()
    }
}

// ---------------------------------------------------------------- radio

/// Three cold radio scenarios per pass: decay on a shared Margulis graph
/// (64-lane engine), decay on per-trial random regular graphs (scalar
/// engine) and the spokesman schedule (`LaneMirror`).
struct RadioEnsemble {
    seed: u64,
}

pub struct RadioScenario {
    name: &'static str,
    source: GraphSource,
    protocol: ProtocolKind,
    trials: usize,
}

pub fn radio_scenarios(full: bool) -> [RadioScenario; 3] {
    let (m_big, n_rr, m_small) = if full {
        (316, 20_000, 150)
    } else {
        (100, 4_000, 50)
    };
    [
        RadioScenario {
            name: "radio-decay-lanes",
            source: GraphSource::Margulis { m: m_big },
            protocol: ProtocolKind::Decay,
            trials: if full { 256 } else { 64 },
        },
        RadioScenario {
            name: "radio-decay-scalar",
            source: GraphSource::RandomRegular { n: n_rr, d: 8 },
            protocol: ProtocolKind::Decay,
            trials: if full { 32 } else { 8 },
        },
        RadioScenario {
            name: "radio-spokesman-schedule",
            source: GraphSource::Margulis { m: m_small },
            protocol: ProtocolKind::Spokesman,
            trials: if full { 64 } else { 16 },
        },
    ]
}

pub fn radio_spec(s: &RadioScenario, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: s.name.to_string(),
        description: String::new(),
        source: s.source.clone(),
        task: Task::Radio {
            protocol: s.protocol,
            source_vertex: None,
            max_rounds: None,
        },
        trials: s.trials,
        seed,
    }
}

impl RadioEnsemble {
    fn new(seed: u64) -> RadioEnsemble {
        RadioEnsemble { seed }
    }

    fn scenario_seed(&self, k: usize, j: usize) -> u64 {
        derive_seed(self.seed, (3 * k + j) as u64)
    }
}

impl Workload for RadioEnsemble {
    fn set_up(&mut self, rep: usize) {
        for (j, s) in radio_scenarios(false).iter().enumerate() {
            let spec = radio_spec(s, derive_seed(self.seed, (1_000 + 3 * rep + j) as u64));
            if let Err(e) = Runner::new().run(&spec) {
                eprintln!("perfbench: warm-up {} failed: {e}", s.name);
            }
        }
    }

    fn batch(&mut self, k: usize, tally: &mut Tally) -> Batch {
        let mut units = Vec::new();
        let mut runner_runs_s = Vec::new();
        let mut counters = BTreeMap::new();
        let mut fingerprint = String::new();
        let t_batch = Instant::now();
        for (j, s) in radio_scenarios(true).iter().enumerate() {
            let spec = radio_spec(s, self.scenario_seed(k, j));
            let t = Instant::now();
            let result = {
                let _span = wx_trace::span("bench.runner.run");
                Runner::new().run(&spec)
            };
            let latency = secs(t.elapsed());
            runner_runs_s.push(latency);
            let ok = match result {
                Err(e) => {
                    tally.error(&format!("{} seed {}: {e}", s.name, spec.seed));
                    false
                }
                Ok(report) => {
                    let stat = |key: &str| report.metrics.get(key);
                    let n = stat("graph_n").map(|st| st.max);
                    let complete = report.trials == s.trials
                        && stat("completed").is_some_and(|st| st.min == 1.0)
                        && n.is_some()
                        && stat("reachable").is_some_and(|st| Some(st.min) == n);
                    add_counters(&mut counters, &report.telemetry);
                    fingerprint.push_str(&report.to_json());
                    if complete {
                        tally.ok();
                    } else {
                        tally.wrong(&format!(
                            "{} seed {}: not every trial informed all n vertices",
                            s.name, spec.seed
                        ));
                    }
                    complete
                }
            };
            units.push((latency, ok));
        }
        Batch {
            wall_s: secs(t_batch.elapsed()),
            runner_runs_s,
            units,
            counters,
            fingerprint,
        }
    }
}
