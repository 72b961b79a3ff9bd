//! The scenario runner: spec → deterministic trial plan → parallel
//! execution → aggregated JSON report.
//!
//! # Determinism contract
//!
//! [`Runner::plan`] expands a [`ScenarioSpec`] into a [`TrialPlan`] whose
//! per-trial seeds are derived from the spec's base seed with
//! [`derive_seed`], never from global state. Trials execute rayon-parallel
//! but collect **in trial order**, every randomized component inside a trial
//! is seeded from that trial's seed, and aggregated metrics are stored in
//! `BTreeMap`s — so two runs of the same spec produce byte-identical JSON
//! reports regardless of thread scheduling.
//!
//! # Performance
//!
//! The hot paths reuse the workspace's fast inner loops: expansion tasks run
//! through the [`MeasurementEngine`]'s per-rayon-worker
//! `NeighborhoodScratch` pool, the spokesman task extracts its bipartite
//! views through [`with_thread_scratch`], and the radio simulator resolves
//! per-round receivers through one scratch reused across rounds.
//! Deterministic graph sources are built once and shared across trials;
//! randomized sources draw one instance per trial from the trial seed.

use crate::cache::{RunContext, SolutionEntry, SolutionStore};
use crate::canon;
use crate::error::{LabError, Result};
use crate::source::{BuiltGraph, GraphSource};
use crate::spec::{ScenarioSpec, Task};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wx_core::expansion::engine::{MeasurementEngine, Wireless};
use wx_core::graph::random::{derive_seed, random_subset_of_size, rng_from_seed};
use wx_core::graph::scratch::with_thread_scratch;
use wx_core::graph::{BipartiteGraph, GraphView, SubgraphView};
use wx_core::radio::{
    run_lanes_in, with_thread_lane_workspace, LaneWorkspace, RadioSimulator, SimulatorConfig,
    MAX_LANES,
};
use wx_core::report::{
    fmt_f64, render_table, to_json_pretty, AggregateStats, StatsAccumulator, TableRow,
};
use wx_core::spokesman::SolverKind;

/// One planned trial: its index and its derived seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TrialSpec {
    /// Trial index `0..trials`.
    pub index: usize,
    /// Seed derived from the scenario seed (`derive_seed(spec.seed, index)`).
    pub seed: u64,
}

/// The deterministic expansion of a spec into trials.
#[derive(Clone, Debug)]
pub struct TrialPlan {
    /// The spec the plan was derived from.
    pub spec: ScenarioSpec,
    /// One entry per trial, in execution order.
    pub trials: Vec<TrialSpec>,
}

/// The measured metrics of one executed trial.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TrialRecord {
    /// Trial index.
    pub trial: usize,
    /// The trial's derived seed.
    pub seed: u64,
    /// Metric name → value. Non-finite values serialize as `null` and are
    /// skipped by aggregation.
    pub metrics: BTreeMap<String, f64>,
}

/// The aggregated, serializable result of one scenario run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub name: String,
    /// Scenario description (from the spec).
    pub description: String,
    /// Human-readable graph-source label.
    pub source: String,
    /// Human-readable task label.
    pub task: String,
    /// The base seed.
    pub seed: u64,
    /// Number of executed trials.
    pub trials: usize,
    /// Metric name → aggregate statistics over the trials (streamed through
    /// [`StatsAccumulator`]s, so aggregation memory is bounded regardless of
    /// trial count).
    pub metrics: BTreeMap<String, AggregateStats>,
    /// Deterministic work counters summed over every trial (counter name →
    /// total). Only scheduling-independent counts are recorded — rounds
    /// simulated, candidate sets evaluated, solver flips — and they are
    /// collected whether or not tracing is enabled, so this section is
    /// byte-identical across thread counts and with `--trace` on or off.
    pub telemetry: BTreeMap<String, u64>,
    /// The first raw per-trial records (in trial order), up to the runner's
    /// [`Runner::keep_per_trial`] cap.
    pub per_trial: Vec<TrialRecord>,
    /// `true` if more trials ran than `per_trial` retains (the aggregates in
    /// `metrics` always cover every trial).
    pub per_trial_truncated: bool,
}

impl ScenarioReport {
    /// Serializes the report to pretty JSON (the `wx` CLI's output format).
    pub fn to_json(&self) -> String {
        to_json_pretty(self)
    }

    /// Renders a human-readable summary table of the aggregated metrics.
    pub fn summary_table(&self) -> String {
        let rows: Vec<TableRow> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                TableRow::new(
                    name.clone(),
                    vec![
                        s.count.to_string(),
                        fmt_f64(s.mean),
                        fmt_f64(s.median),
                        fmt_f64(s.min),
                        fmt_f64(s.max),
                        fmt_f64(s.p95),
                    ],
                )
            })
            .collect();
        render_table(
            &format!(
                "{} — {} · {} · {} trial(s), seed {}",
                self.name, self.source, self.task, self.trials, self.seed
            ),
            &["metric", "count", "mean", "median", "min", "max", "p95"],
            &rows,
        )
    }
}

/// Default number of raw per-trial records a report retains
/// (see [`Runner::keep_per_trial`]).
pub const DEFAULT_PER_TRIAL_CAP: usize = 1024;

/// Number of trials executed per parallel batch. Trials stream into the
/// aggregators batch by batch, so peak memory is O(chunk + per-trial cap)
/// records instead of O(trials).
const TRIAL_CHUNK: usize = 256;

/// Executes scenarios. See the module docs for the determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    parallel: bool,
    per_trial_cap: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A runner with rayon-parallel trial execution (the default).
    pub fn new() -> Runner {
        Runner {
            parallel: true,
            per_trial_cap: DEFAULT_PER_TRIAL_CAP,
        }
    }

    /// Disables parallel trial execution (useful for debugging; results are
    /// identical either way).
    pub fn sequential(mut self) -> Runner {
        self.parallel = false;
        self
    }

    /// Caps how many raw per-trial records the report keeps (default
    /// [`DEFAULT_PER_TRIAL_CAP`]). Aggregated metrics always cover every
    /// trial; the cap only bounds the verbatim `per_trial` echo so reports
    /// for million-trial runs stay small.
    pub fn keep_per_trial(mut self, cap: usize) -> Runner {
        self.per_trial_cap = cap;
        self
    }

    /// Expands a spec into its deterministic trial plan.
    pub fn plan(&self, spec: &ScenarioSpec) -> TrialPlan {
        TrialPlan {
            spec: spec.clone(),
            trials: (0..spec.trials)
                .map(|index| TrialSpec {
                    index,
                    seed: derive_seed(spec.seed, index as u64),
                })
                .collect(),
        }
    }

    /// Runs a scenario end to end: plan, execute every trial, aggregate.
    ///
    /// Trials execute in fixed-size batches and their metrics stream
    /// into per-key [`StatsAccumulator`]s **in trial order** (preserving the
    /// determinism contract), so runner memory is bounded by the batch size
    /// plus the per-trial record cap — it no longer grows linearly with the
    /// trial count.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport> {
        self.run_ctx(spec, &RunContext::default())
    }

    /// [`Runner::run`] with a cache seam: built graphs are looked up in /
    /// retained by `ctx.graphs` (shared via `Arc` instead of rebuilt per
    /// call) and spokesman solves in `ctx.solutions` (a hit skips the
    /// solver and replays its deterministic counters). With both stores
    /// absent this *is* the batch path; with them present report bytes
    /// are unchanged — the caches only shift where artifacts come from.
    /// `wx serve` and sweep runs thread one long-lived
    /// [`ArtifactCache`](crate::cache::ArtifactCache) through here.
    pub fn run_ctx(&self, spec: &ScenarioSpec, ctx: &RunContext<'_>) -> Result<ScenarioReport> {
        spec.validate()?;
        let plan = self.plan(spec);

        // The content address of the source, mixed with a build seed per
        // instance; also the graph half of solution keys.
        let source_fp = canon::source_fingerprint(&spec.source)?;

        let shared_build = |source: &GraphSource, fp: u64| -> Result<Arc<BuiltGraph>> {
            let _span = wx_trace::span("lab.build_graph");
            match ctx.graphs {
                Some(store) => store.get_or_build(canon::graph_instance_key(fp, 0), &mut || {
                    Ok(source.build_backend(0)?)
                }),
                None => Ok(Arc::new(source.build_backend(0)?)),
            }
        };

        // Deterministic sources are built once and shared by every trial;
        // randomized sources draw a per-trial instance from the trial seed.
        // The backend form is preserved: implicit sources stay implicit,
        // induced sources stay a base-plus-subset pair that each task wraps
        // in a zero-copy `SubgraphView`.
        let shared: Option<Arc<BuiltGraph>> = if spec.source.is_randomized() {
            None
        } else {
            Some(shared_build(&spec.source, source_fp)?)
        };

        // An `Induced` source with a deterministic base and a seeded random
        // subset is "randomized" only in its subset: build the base once and
        // redraw just the O(size) subset per trial, instead of regenerating
        // the whole base graph every trial.
        let shared_induced: Option<(Arc<BuiltGraph>, usize)> = match &spec.source {
            crate::source::GraphSource::Induced {
                base,
                size: Some(k),
                vertices: None,
            } if shared.is_none() && !base.is_randomized() => {
                Some((shared_build(base, canon::source_fingerprint(base)?)?, *k))
            }
            _ => None,
        };

        // Graph metadata is constant when the graph is shared; compute the
        // n/m/Δ metrics once here (on induced views they cost a pass over
        // the whole subgraph volume) instead of once per trial.
        let shared_meta: Option<GraphMeta> = shared
            .as_ref()
            .map(|bg| with_graph_view!(bg.as_ref(), g => graph_meta(g)));

        // For a shared graph with a radio task, the completion target (one
        // BFS) is computed once here instead of once per trial.
        let radio_reachable: Option<usize> = match (&shared, &spec.task) {
            (Some(bg), Task::Radio { source_vertex, .. }) => {
                let source = source_vertex.unwrap_or(0);
                with_graph_view!(bg.as_ref(), g => {
                    (source < g.num_vertices())
                        .then(|| wx_core::radio::reachable_from(g, source))
                })
            }
            _ => None,
        };

        // Shared-graph radio ensembles: every radio trial runs on the lane
        // engine in `wx_core::radio::bitslice`, and when the graph is shared
        // across trials, up to 64 of them share one batch as the bit-lanes
        // of one `u64` word per vertex. A lane's trial does not depend on
        // its batch, so these reports are byte-identical to running each
        // trial as a 1-lane batch (the per-trial path below), except for the
        // batch-occupancy counters recorded here.
        if let (
            Some(bg),
            Task::Radio {
                protocol,
                source_vertex,
                max_rounds,
            },
            Some(reachable),
        ) = (&shared, &spec.task, radio_reachable)
        {
            let source = source_vertex.unwrap_or(0);
            return with_graph_view!(bg.as_ref(), g => {
                // always `Some` when the graph is shared; the recompute arm
                // only exists to keep this path panic-free
                let meta = shared_meta.unwrap_or_else(|| graph_meta(g));
                let config = SimulatorConfig {
                    max_rounds: max_rounds.unwrap_or(10 * g.num_vertices() + 100),
                    stop_when_complete: true,
                };
                let sim = RadioSimulator::with_reachable(g, source, config, reachable);
                // The counter scope lives *inside* the closure, so counts
                // land on whichever thread rayon runs the batch on and are
                // summed in deterministic batch order by `aggregate`.
                let run_batch = |batch: &[TrialSpec]| -> WorkUnit {
                    wx_trace::with_counters(|| {
                        let _span = wx_trace::span("lab.simulate");
                        // One footprint sample per trial, matching what the
                        // per-trial path records.
                        wx_trace::count(
                            wx_trace::CounterId::GraphMemoryBytes,
                            (batch.len() as u64) * g.memory_bytes() as u64,
                        );
                        let mut proto = protocol.build_lanes();
                        let mut seeds = [0u64; MAX_LANES];
                        for (j, trial) in batch.iter().enumerate() {
                            seeds[j] = derive_seed(trial.seed, 1);
                        }
                        with_thread_lane_workspace(|ws| {
                            run_lanes_in(&sim, &mut *proto, &seeds[..batch.len()], ws);
                            // Batch occupancy: the word-rounds paid (the
                            // slowest lane's rounds times the width) and
                            // the lanes that completed.
                            let lanes = || (0..batch.len()).map(|lane| ws.lane_outcome(lane));
                            let rounds = lanes().map(|o| o.rounds_simulated).max().unwrap_or(0);
                            let completed = lanes().filter(|o| o.completed()).count();
                            wx_trace::count(
                                wx_trace::CounterId::RadioLaneRounds,
                                (rounds * batch.len()) as u64,
                            );
                            wx_trace::count(
                                wx_trace::CounterId::RadioLanesCompleted,
                                completed as u64,
                            );
                            batch
                                .iter()
                                .enumerate()
                                .map(|(lane, trial)| {
                                    let mut metrics = lane_metrics(ws, lane);
                                    insert_graph_meta(&mut metrics, meta);
                                    Ok(TrialRecord {
                                        trial: trial.index,
                                        seed: trial.seed,
                                        metrics,
                                    })
                                })
                                .collect()
                        })
                    })
                };
                let chunks = plan.trials.chunks(TRIAL_CHUNK).map(|chunk| {
                    let lanes: Vec<&[TrialSpec]> = chunk.chunks(MAX_LANES).collect();
                    if self.parallel {
                        lanes.par_iter().map(|batch| run_batch(batch)).collect()
                    } else {
                        lanes.iter().map(|batch| run_batch(batch)).collect()
                    }
                });
                self.aggregate(spec, chunks)
            });
        }

        // The counter scope lives *inside* the closure, so counts land on
        // whichever thread rayon runs the trial on and are summed in
        // deterministic trial order by `aggregate`.
        let run_one = |trial: &TrialSpec| -> WorkUnit {
            let (record, counters) = wx_trace::with_counters(|| -> Result<TrialRecord> {
                let _span = wx_trace::span("lab.trial");
                let task_seed = derive_seed(trial.seed, 1);
                // The content address of the instance this trial runs on:
                // shared graphs build with seed 0, everything else (per-trial
                // randomized builds *and* the shared-base induced fast path,
                // which emulates a full per-trial build) with the trial's
                // build seed. Solution keys hang off this address.
                let instance_seed = if shared.is_some() {
                    0
                } else {
                    derive_seed(trial.seed, 0)
                };
                let solve_ctx = ctx.solutions.map(|store| SolveCtx {
                    store,
                    graph_key: canon::graph_instance_key(source_fp, instance_seed),
                });
                let metrics = if let Some((base_backend, size)) = &shared_induced {
                    // Fast path: shared deterministic base, per-trial subset —
                    // the subset draw is byte-identical to what
                    // `build_backend(derive_seed(trial.seed, 0))` would produce.
                    with_graph_view!(base_backend.as_ref(), base => {
                        let set = crate::source::induced_subset_for_seed(
                            base.num_vertices(),
                            *size,
                            derive_seed(trial.seed, 0),
                        )?;
                        let view = SubgraphView::new(base, &set);
                        run_task_with_meta(
                            &view,
                            &spec.task,
                            task_seed,
                            radio_reachable,
                            None,
                            solve_ctx.as_ref(),
                        )
                    })?
                } else {
                    let built: Arc<BuiltGraph>;
                    let backend = match &shared {
                        Some(bg) => bg.as_ref(),
                        None => {
                            let _span = wx_trace::span("lab.build_graph");
                            let build_seed = derive_seed(trial.seed, 0);
                            built = match ctx.graphs {
                                Some(store) => store.get_or_build(
                                    canon::graph_instance_key(source_fp, build_seed),
                                    &mut || Ok(spec.source.build_backend(build_seed)?),
                                )?,
                                None => Arc::new(spec.source.build_backend(build_seed)?),
                            };
                            built.as_ref()
                        }
                    };
                    with_graph_view!(backend, g => {
                        run_task_with_meta(
                            g,
                            &spec.task,
                            task_seed,
                            radio_reachable,
                            shared_meta,
                            solve_ctx.as_ref(),
                        )
                    })?
                };
                Ok(TrialRecord {
                    trial: trial.index,
                    seed: trial.seed,
                    metrics,
                })
            });
            (vec![record], counters)
        };

        self.aggregate(
            spec,
            plan.trials.chunks(TRIAL_CHUNK).map(|chunk| {
                if self.parallel {
                    chunk.par_iter().map(run_one).collect()
                } else {
                    chunk.iter().map(run_one).collect()
                }
            }),
        )
    }

    /// Streams chunked trial results into per-metric accumulators **in trial
    /// order** and assembles the report — shared by the generic per-trial
    /// path and the bit-sliced radio lane path, so both produce identical
    /// report structure (and identical JSON when the metrics agree). Each
    /// [`WorkUnit`]'s deterministic counters are summed in the same fixed
    /// order into the report's `telemetry` section.
    fn aggregate<I>(&self, spec: &ScenarioSpec, chunks: I) -> Result<ScenarioReport>
    where
        I: Iterator<Item = Vec<WorkUnit>>,
    {
        let mut accumulators: BTreeMap<String, StatsAccumulator> = BTreeMap::new();
        let mut per_trial: Vec<TrialRecord> = Vec::new();
        let mut per_trial_truncated = false;
        let mut executed = 0usize;
        let mut totals = wx_trace::CounterSet::new();
        for units in chunks {
            for (results, counters) in units {
                totals.merge(&counters);
                for result in results {
                    let record = result?;
                    executed += 1;
                    for (key, value) in &record.metrics {
                        match accumulators.get_mut(key) {
                            Some(acc) => acc.push(*value),
                            None => {
                                let mut acc = StatsAccumulator::new();
                                acc.push(*value);
                                accumulators.insert(key.clone(), acc);
                            }
                        }
                    }
                    if per_trial.len() < self.per_trial_cap {
                        per_trial.push(record);
                    } else {
                        per_trial_truncated = true;
                    }
                }
            }
        }
        let metrics: BTreeMap<String, AggregateStats> = accumulators
            .into_iter()
            .filter_map(|(key, acc)| acc.finish().map(|stats| (key, stats)))
            .collect();
        let telemetry: BTreeMap<String, u64> = totals
            .iter_nonzero()
            .map(|(name, value)| (name.to_string(), value))
            .collect();

        Ok(ScenarioReport {
            name: spec.name.clone(),
            description: spec.description.clone(),
            source: spec.source.label(),
            task: spec.task.label(),
            seed: spec.seed,
            trials: executed,
            metrics,
            telemetry,
            per_trial,
            per_trial_truncated,
        })
    }
}

/// Dispatches a [`BuiltGraph`] to a generic closure body: each backend kind
/// binds `$g` to a concrete `&impl GraphView` (induced variants construct
/// the zero-copy [`SubgraphView`] here), so the body monomorphizes per
/// backend and the hot paths stay static-dispatch.
macro_rules! with_graph_view {
    ($built:expr, $g:ident => $body:expr) => {
        match $built {
            BuiltGraph::Csr(base) => {
                let $g = base;
                $body
            }
            BuiltGraph::Implicit(base) => {
                let $g = base;
                $body
            }
            BuiltGraph::Mmap(base) => {
                let $g = &**base;
                $body
            }
            BuiltGraph::InducedCsr { base, set } => {
                let view = SubgraphView::new(base, set);
                let $g = &view;
                $body
            }
            BuiltGraph::InducedImplicit { base, set } => {
                let view = SubgraphView::new(base, set);
                let $g = &view;
                $body
            }
            BuiltGraph::InducedMmap { base, set } => {
                let view = SubgraphView::new(&**base, set);
                let $g = &view;
                $body
            }
        }
    };
}
use with_graph_view;

/// One unit of executed work: its trial records plus the deterministic
/// counters captured while they ran (one unit per trial on the generic
/// path, one per lane batch on the bit-sliced radio path).
type WorkUnit = (Vec<Result<TrialRecord>>, wx_trace::CounterSet);

/// The constant per-graph metadata metrics every trial records.
type GraphMeta = (f64, f64, f64);

fn graph_meta<G: GraphView + ?Sized>(g: &G) -> GraphMeta {
    (
        g.num_vertices() as f64,
        g.num_edges() as f64,
        g.max_degree() as f64,
    )
}

/// The solution-cache hook threaded into the spokesman arm of
/// [`execute_task`]: the store plus the content address of the exact graph
/// instance the trial runs on (solution keys are derived from it).
struct SolveCtx<'a> {
    store: &'a dyn SolutionStore,
    graph_key: u64,
}

/// One spokesman solve, through the solution cache when one is attached.
///
/// On a hit the solver is skipped entirely: the cached subset is replayed
/// against the freshly extracted bipartite view (with its coverage
/// recomputed and cross-checked — a stale artifact degrades to a miss)
/// and the cold solve's deterministic counters are re-credited, so both
/// the metric values and the telemetry section of the report are
/// byte-identical to a cold execution. On a miss the solve runs inside a
/// nested counter scope (which transparently merges into the trial's
/// scope) so the captured counters can ride along with the artifact.
fn solve_spokesman(
    solve: Option<&SolveCtx<'_>>,
    kind: SolverKind,
    view: &BipartiteGraph,
    set_size: usize,
    task_seed: u64,
    solver_index: usize,
) -> wx_core::spokesman::SpokesmanResult {
    let child = derive_seed(task_seed, 1 + solver_index as u64);
    let Some(ctx) = solve else {
        return kind.build().solve(view, child);
    };
    let key = canon::solution_key(ctx.graph_key, set_size, task_seed, kind);
    if let Some(entry) = ctx.store.get(key) {
        if entry.artifact.solver == kind {
            if let Some(result) = entry.artifact.rehydrate(view) {
                entry.replay_counters();
                return result;
            }
        }
    }
    let (result, captured) = wx_trace::with_counters(|| kind.build().solve(view, child));
    ctx.store.put(
        key,
        SolutionEntry::new(
            wx_core::spokesman::SolutionArtifact::from_result(&result, view.num_left()),
            &captured,
        ),
    );
    result
}

/// [`execute_task`] plus the metadata metrics. `meta` carries the
/// once-computed values when the graph is shared across trials (on induced
/// views recomputing them costs a pass over the whole subgraph volume).
fn run_task_with_meta<G: GraphView + Sync + ?Sized>(
    g: &G,
    task: &Task,
    seed: u64,
    radio_reachable: Option<usize>,
    meta: Option<GraphMeta>,
    solve: Option<&SolveCtx<'_>>,
) -> Result<BTreeMap<String, f64>> {
    // One resident-footprint sample per trial: O(1) on every backend
    // (CSR and mmap know their sizes; views report their own state), so
    // telemetry shows what the chosen backend actually keeps in memory.
    wx_trace::count(
        wx_trace::CounterId::GraphMemoryBytes,
        g.memory_bytes() as u64,
    );
    let mut metrics = execute_task(g, task, seed, radio_reachable, solve)?;
    insert_graph_meta(&mut metrics, meta.unwrap_or_else(|| graph_meta(g)));
    Ok(metrics)
}

fn insert_graph_meta(metrics: &mut BTreeMap<String, f64>, (n, m, max_degree): GraphMeta) {
    metrics.insert("graph_n".to_string(), n);
    metrics.insert("graph_m".to_string(), m);
    metrics.insert("graph_max_degree".to_string(), max_degree);
}

/// The radio metrics of one finished lane, for the shared-graph batches
/// and the per-trial radio arm of [`execute_task`] alike.
fn lane_metrics(ws: &LaneWorkspace, lane: usize) -> BTreeMap<String, f64> {
    let outcome = ws.lane_outcome(lane);
    let half = ws.lane_rounds_to_reach_fraction(lane, 0.5, outcome.reachable);
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "completed".to_string(),
        if outcome.completed() { 1.0 } else { 0.0 },
    );
    metrics.insert("reachable".to_string(), outcome.reachable as f64);
    if let Some(rounds) = outcome.completed_at {
        metrics.insert("rounds".to_string(), rounds as f64);
    }
    if let Some(half) = half {
        metrics.insert("rounds_to_half".to_string(), half as f64);
    }
    metrics
}

/// Executes one task on one graph instance (any [`GraphView`] backend),
/// returning its metric map. `radio_reachable` carries the once-computed
/// completion target when the graph is shared across trials (radio tasks
/// only).
fn execute_task<G: GraphView + Sync + ?Sized>(
    g: &G,
    task: &Task,
    seed: u64,
    radio_reachable: Option<usize>,
    solve: Option<&SolveCtx<'_>>,
) -> Result<BTreeMap<String, f64>> {
    let mut metrics = BTreeMap::new();
    match task {
        Task::Measure {
            notion,
            alpha,
            exact_up_to,
            fast,
        } => {
            let _span = wx_trace::span("lab.measure");
            let engine = engine_for(*alpha, *exact_up_to, seed);
            let measure = notion.measure(fast.unwrap_or(false));
            let m = engine
                .measure(g, measure.as_ref())
                .ok_or_else(|| LabError::invalid("cannot measure an empty graph"))?;
            metrics.insert("value".to_string(), m.value);
            metrics.insert("witness_size".to_string(), m.witness.len() as f64);
            metrics.insert("exact".to_string(), if m.exact { 1.0 } else { 0.0 });
            if let Some(cert) = &m.certificate {
                metrics.insert("certificate_size".to_string(), cert.len() as f64);
            }
        }
        Task::Profile {
            alpha,
            exact_up_to,
            fast,
        } => {
            let _span = wx_trace::span("lab.measure");
            let engine = engine_for(*alpha, *exact_up_to, seed);
            let wireless = if fast.unwrap_or(false) {
                Wireless::fast()
            } else {
                Wireless::default()
            };
            let t = engine
                .measure_all(g, &wireless)
                .ok_or_else(|| LabError::invalid("cannot profile an empty graph"))?;
            metrics.insert("ordinary".to_string(), t.ordinary.value);
            metrics.insert("wireless".to_string(), t.wireless.value);
            metrics.insert("unique".to_string(), t.unique.value);
            // Theorem 1.1's loss β/βw; non-finite (βw = 0) drops out of the
            // aggregate but stays visible (as null) in the per-trial record.
            metrics.insert(
                "loss_ordinary_over_wireless".to_string(),
                t.ordinary.value / t.wireless.value,
            );
            metrics.insert(
                "gap_wireless_minus_unique".to_string(),
                t.wireless.value - t.unique.value,
            );
        }
        Task::Spokesman { set_size, solvers } => {
            let n = g.num_vertices();
            if *set_size > n {
                return Err(LabError::invalid(format!(
                    "spokesman set_size {set_size} exceeds the graph's {n} vertices"
                )));
            }
            let mut rng = rng_from_seed(derive_seed(seed, 0));
            let s = random_subset_of_size(&mut rng, n, *set_size);
            let (view, _, _) = with_thread_scratch(n, |scratch| {
                BipartiteGraph::from_set_in_graph_with(g, &s, scratch)
            });
            let kinds: Vec<SolverKind> = solvers
                .clone()
                .unwrap_or_else(|| SolverKind::POLYNOMIAL.to_vec());
            let _span = wx_trace::span("lab.solve");
            let mut best = 0.0f64;
            for (i, kind) in kinds.iter().enumerate() {
                let result = solve_spokesman(solve, *kind, &view, *set_size, seed, i);
                let certificate = result.expansion_certificate(&view);
                metrics.insert(
                    format!("coverage_fraction:{kind}"),
                    result.coverage_fraction(&view),
                );
                metrics.insert(format!("certificate:{kind}"), certificate);
                if certificate.is_finite() {
                    best = best.max(certificate);
                }
            }
            metrics.insert("best_certificate".to_string(), best);
            metrics.insert("right_side".to_string(), view.num_right() as f64);
        }
        Task::Radio {
            protocol,
            source_vertex,
            max_rounds,
        } => {
            let n = g.num_vertices();
            let source = source_vertex.unwrap_or(0);
            if source >= n {
                return Err(LabError::invalid(format!(
                    "radio source vertex {source} out of range for {n} vertices"
                )));
            }
            let config = SimulatorConfig {
                max_rounds: max_rounds.unwrap_or(10 * n + 100),
                stop_when_complete: true,
            };
            // Shared graphs reuse the completion target computed once by the
            // runner; per-trial (randomized) graphs pay their one BFS here.
            let sim = match radio_reachable {
                Some(reachable) => RadioSimulator::with_reachable(g, source, config, reachable),
                None => RadioSimulator::new(g, source, config),
            };
            // A 1-lane batch in the per-worker lane workspace — no n-sized
            // allocation per trial.
            let mut proto = protocol.build_lanes();
            metrics = with_thread_lane_workspace(|ws| {
                let _span = wx_trace::span("lab.simulate");
                run_lanes_in(&sim, &mut *proto, &[seed], ws);
                lane_metrics(ws, 0)
            });
        }
    }
    Ok(metrics)
}

fn engine_for(alpha: Option<f64>, exact_up_to: Option<usize>, seed: u64) -> MeasurementEngine {
    MeasurementEngine::builder()
        .alpha(alpha.unwrap_or(0.5))
        .exact_up_to(exact_up_to.unwrap_or(14))
        .seed(seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GraphSource;
    use wx_core::expansion::engine::NotionKind;
    use wx_core::radio::protocols::ProtocolKind;

    fn measure_spec(trials: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".to_string(),
            description: String::new(),
            source: GraphSource::CompletePlus { k: 6 },
            task: Task::Measure {
                notion: NotionKind::Unique,
                alpha: None,
                exact_up_to: None,
                fast: None,
            },
            trials,
            seed: 3,
        }
    }

    #[test]
    fn implicit_source_runs_every_task_kind_unmaterialized() {
        use wx_core::graph::ImplicitFamily;
        let implicit = GraphSource::Implicit {
            family: ImplicitFamily::Hypercube { dim: 4 },
        };
        let csr = GraphSource::Hypercube { dim: 4 };
        let tasks = [
            Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            Task::Profile {
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: Some(true),
            },
            Task::Spokesman {
                set_size: 5,
                solvers: Some(vec![SolverKind::GreedyMinDegree]),
            },
            Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
        ];
        for task in tasks {
            let spec = |source: &GraphSource| ScenarioSpec {
                name: "implicit-vs-csr".to_string(),
                description: String::new(),
                source: source.clone(),
                task: task.clone(),
                trials: 2,
                seed: 13,
            };
            let on_implicit = Runner::new().run(&spec(&implicit)).unwrap();
            let on_csr = Runner::new().run(&spec(&csr)).unwrap();
            // every metric must agree exactly — same seeds, same graph,
            // different backend
            assert_eq!(
                on_implicit.metrics,
                on_csr.metrics,
                "task {} diverged between implicit and CSR backends",
                task.label()
            );
        }
    }

    #[test]
    fn induced_source_matches_the_materialized_subgraph() {
        // Induced view of an explicit vertex list vs running on the
        // materialized induced subgraph: identical metrics.
        let base = GraphSource::RandomRegular { n: 32, d: 4 };
        let vertices: Vec<usize> = (0..16).collect();
        let spec = ScenarioSpec {
            name: "induced".to_string(),
            description: String::new(),
            source: GraphSource::Induced {
                base: Box::new(base.clone()),
                size: None,
                vertices: Some(vertices.clone()),
            },
            task: Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            trials: 1,
            seed: 21,
        };
        let on_view = Runner::new().run(&spec).unwrap();
        assert!(on_view.metrics["graph_n"].mean == 16.0);
        // the materialized path: build the same base per trial and cut it
        // by hand; graph_m must agree with the zero-copy view's edge count
        let g = base.build(derive_seed(derive_seed(21, 0), 0)).unwrap();
        let (mat, _) = g.induced_subgraph(&g.vertex_set(vertices));
        assert_eq!(on_view.metrics["graph_m"].mean, mat.num_edges() as f64);
    }

    #[test]
    fn induced_fast_path_draws_the_same_subsets_as_build_backend() {
        // The runner's shared-base fast path redraws only the subset per
        // trial; its draw must equal what a full build_backend for the same
        // trial seed produces, or reports would silently change.
        let src = GraphSource::Induced {
            base: Box::new(GraphSource::Hypercube { dim: 5 }),
            size: Some(7),
            vertices: None,
        };
        for trial_seed in [derive_seed(2, 0), derive_seed(2, 1), derive_seed(99, 4)] {
            let build_seed = derive_seed(trial_seed, 0);
            let crate::source::BuiltGraph::InducedCsr { set, .. } =
                src.build_backend(build_seed).unwrap()
            else {
                panic!("expected an induced-of-csr backend");
            };
            let fast = crate::source::induced_subset_for_seed(32, 7, build_seed).unwrap();
            assert_eq!(set.to_vec(), fast.to_vec());
        }
        // out-of-range sizes fail identically on both paths
        assert!(crate::source::induced_subset_for_seed(4, 7, 0).is_err());
    }

    #[test]
    fn induced_random_subsets_are_redrawn_per_trial() {
        let spec = ScenarioSpec {
            name: "induced-random".to_string(),
            description: String::new(),
            source: GraphSource::Induced {
                base: Box::new(GraphSource::Hypercube { dim: 4 }),
                size: Some(8),
                vertices: None,
            },
            task: Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(8),
                fast: None,
            },
            trials: 6,
            seed: 2,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.metrics["graph_n"].mean, 8.0);
        // different trials draw different subsets, so the measured values
        // are not all identical (the hypercube is not vertex-transitive
        // under arbitrary 8-subsets)
        assert!(report.metrics["value"].min < report.metrics["value"].max);
        // and reruns are byte-identical
        let again = Runner::new().run(&spec).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn plan_is_deterministic_and_indexed() {
        let runner = Runner::new();
        let plan = runner.plan(&measure_spec(4));
        assert_eq!(plan.trials.len(), 4);
        assert_eq!(plan.trials[0].index, 0);
        assert_eq!(plan.trials, runner.plan(&measure_spec(4)).trials);
        // distinct derived seeds per trial
        let mut seeds: Vec<u64> = plan.trials.iter().map(|t| t.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn measure_task_reproduces_the_headline_phenomenon() {
        // C⁺ has βu = 0 — every trial must agree exactly.
        let report = Runner::new().run(&measure_spec(3)).unwrap();
        assert_eq!(report.trials, 3);
        let value = &report.metrics["value"];
        assert_eq!(value.count, 3);
        assert_eq!(value.min, 0.0);
        assert_eq!(value.max, 0.0);
        assert_eq!(report.metrics["graph_n"].mean, 7.0);
        assert_eq!(report.per_trial.len(), 3);
    }

    #[test]
    fn parallel_and_sequential_reports_are_identical() {
        let spec = ScenarioSpec {
            source: GraphSource::RandomRegular { n: 20, d: 3 },
            trials: 4,
            ..measure_spec(4)
        };
        let par = Runner::new().run(&spec).unwrap();
        let seq = Runner::new().sequential().run(&spec).unwrap();
        assert_eq!(par.to_json(), seq.to_json());
    }

    #[test]
    fn cached_reports_are_byte_identical_cold_and_warm() {
        // The cache seam must be invisible in report bytes: batch path,
        // cold cache, warm cache (graphs + solutions resident), and a
        // sequential runner against the warm cache all agree — for both a
        // shared deterministic source and a per-trial randomized one.
        use crate::cache::{ArtifactCache, CacheConfig, RunContext};
        for source in [
            GraphSource::Hypercube { dim: 4 },
            GraphSource::RandomRegular { n: 24, d: 3 },
        ] {
            let spec = ScenarioSpec {
                source,
                task: Task::Spokesman {
                    set_size: 6,
                    solvers: None,
                },
                trials: 3,
                ..measure_spec(9)
            };
            let batch = Runner::new().run(&spec).unwrap();
            let cache = ArtifactCache::new(CacheConfig::default());
            let ctx = RunContext {
                graphs: Some(&cache),
                solutions: Some(&cache),
            };
            let cold = Runner::new().run_ctx(&spec, &ctx).unwrap();
            let warm = Runner::new().run_ctx(&spec, &ctx).unwrap();
            let warm_seq = Runner::new().sequential().run_ctx(&spec, &ctx).unwrap();
            assert_eq!(batch.to_json(), cold.to_json());
            assert_eq!(batch.to_json(), warm.to_json());
            assert_eq!(batch.to_json(), warm_seq.to_json());
            let stats = cache.stats();
            assert!(
                stats.solution_hits > 0,
                "warm runs must hit the solution cache"
            );
            assert!(stats.graph_hits > 0, "warm runs must hit the graph cache");
        }
    }

    #[test]
    fn profile_task_reports_the_sandwich() {
        let spec = ScenarioSpec {
            name: "profile".to_string(),
            description: String::new(),
            source: GraphSource::Hypercube { dim: 3 },
            task: Task::Profile {
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            trials: 1,
            seed: 1,
        };
        let report = Runner::new().run(&spec).unwrap();
        let beta = report.metrics["ordinary"].mean;
        let beta_w = report.metrics["wireless"].mean;
        let beta_u = report.metrics["unique"].mean;
        assert!(beta + 1e-9 >= beta_w && beta_w + 1e-9 >= beta_u);
    }

    #[test]
    fn spokesman_task_compares_solvers() {
        let spec = ScenarioSpec {
            name: "spokesman".to_string(),
            description: String::new(),
            source: GraphSource::RandomRegular { n: 40, d: 4 },
            task: Task::Spokesman {
                set_size: 10,
                solvers: Some(vec![SolverKind::GreedyMinDegree, SolverKind::Partition]),
            },
            trials: 3,
            seed: 9,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert!(report.metrics.contains_key("certificate:greedy-min-degree"));
        assert!(report.metrics.contains_key("certificate:partition"));
        assert!(report.metrics["best_certificate"].min >= 0.0);
    }

    #[test]
    fn radio_task_aggregates_round_counts() {
        let spec = ScenarioSpec {
            name: "radio".to_string(),
            description: String::new(),
            source: GraphSource::Grid { rows: 4, cols: 4 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
            trials: 5,
            seed: 11,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.metrics["completed"].mean, 1.0);
        assert!(report.metrics["rounds"].min >= 1.0);
        assert_eq!(report.metrics["rounds"].count, 5);
    }

    #[test]
    fn runtime_validation_errors_are_clean() {
        let too_big = ScenarioSpec {
            task: Task::Spokesman {
                set_size: 1000,
                solvers: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&too_big).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        let bad_source = ScenarioSpec {
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: Some(99),
                max_rounds: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&bad_source).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn per_trial_records_are_capped_but_aggregates_cover_every_trial() {
        let spec = measure_spec(6);
        let capped = Runner::new().keep_per_trial(2).run(&spec).unwrap();
        assert_eq!(capped.trials, 6);
        assert_eq!(capped.per_trial.len(), 2);
        assert!(capped.per_trial_truncated);
        assert_eq!(capped.metrics["value"].count, 6);
        // records kept are the first ones, in trial order
        assert_eq!(capped.per_trial[0].trial, 0);
        assert_eq!(capped.per_trial[1].trial, 1);
        // an uncapped run agrees on every aggregate
        let full = Runner::new().run(&spec).unwrap();
        assert!(!full.per_trial_truncated);
        assert_eq!(full.metrics, capped.metrics);
    }

    #[test]
    fn streamed_aggregates_match_batch_aggregation() {
        // radio rounds vary across trials; the streamed stats must equal the
        // batch statistics recomputed from the per-trial records
        let spec = ScenarioSpec {
            name: "radio-stream".to_string(),
            description: String::new(),
            source: GraphSource::RandomRegular { n: 32, d: 4 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
            trials: 12,
            seed: 5,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.per_trial.len(), 12);
        for (key, stats) in &report.metrics {
            let samples: Vec<f64> = report
                .per_trial
                .iter()
                .filter_map(|r| r.metrics.get(key).copied())
                .collect();
            let batch = wx_core::report::AggregateStats::from_samples(&samples).unwrap();
            assert_eq!(stats.count, batch.count, "{key}");
            assert_eq!(stats.min, batch.min, "{key}");
            assert_eq!(stats.max, batch.max, "{key}");
            assert_eq!(stats.median, batch.median, "{key}");
            assert_eq!(stats.p95, batch.p95, "{key}");
            assert!(
                (stats.mean - batch.mean).abs() <= 1e-9 * (1.0 + batch.mean.abs()),
                "{key}: {} vs {}",
                stats.mean,
                batch.mean
            );
        }
    }

    #[test]
    fn shared_radio_lane_reports_match_scalar_simulation() {
        // A shared-graph radio scenario runs in 64-lane batches; every
        // per-trial metric must equal what the scalar reference loop
        // produces with the same derived seed. 70 trials crosses a lane
        // batch boundary (64 + a partial batch of 6).
        let spec = ScenarioSpec {
            name: "radio-lanes".to_string(),
            description: String::new(),
            source: GraphSource::Hypercube { dim: 6 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: Some(3),
                max_rounds: None,
            },
            trials: 70,
            seed: 77,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.per_trial.len(), 70);

        let g = GraphSource::Hypercube { dim: 6 }.build(0).unwrap();
        let config = SimulatorConfig {
            max_rounds: 10 * g.num_vertices() + 100,
            stop_when_complete: true,
        };
        for record in &report.per_trial {
            assert_eq!(record.seed, derive_seed(77, record.trial as u64));
            let mut proto = ProtocolKind::Decay.build();
            let outcome =
                crate::radio_oracle::run(&g, 3, &config, &mut proto, derive_seed(record.seed, 1));
            let half = outcome.rounds_to_reach_fraction(0.5);
            assert_eq!(
                record.metrics.get("rounds").copied(),
                outcome.completed_at.map(|r| r as f64),
                "trial {}",
                record.trial
            );
            assert_eq!(
                record.metrics.get("rounds_to_half").copied(),
                half.map(|r| r as f64),
                "trial {}",
                record.trial
            );
            assert_eq!(record.metrics["reachable"], outcome.reachable as f64);
            assert_eq!(record.metrics["graph_n"], 64.0);
        }
        // distinct lanes draw distinct RNG streams: across 70 trials the
        // round counts must not all collapse to one value
        assert!(report.metrics["rounds"].min < report.metrics["rounds"].max);
    }

    #[test]
    fn mmap_sources_measure_identically_to_the_csr_path() {
        let dir = std::env::temp_dir().join("wx-lab-runner-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        let wxg = dir.join("g.wxg");
        let g = GraphSource::Margulis { m: 4 }.build(0).unwrap();
        wx_core::graph::io::save_graph(&g, &edges).unwrap();
        g.write_wxg(&wxg).unwrap();
        let spec = |source: GraphSource| ScenarioSpec {
            name: "mmap-vs-csr".to_string(),
            description: String::new(),
            source,
            task: Task::Measure {
                notion: NotionKind::Wireless,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: Some(true),
            },
            trials: 2,
            seed: 17,
        };
        let mmap_source = GraphSource::from_file_path(wxg.to_str().unwrap());
        let text_source = GraphSource::from_file_path(edges.to_str().unwrap());
        let on_mmap = Runner::new().run(&spec(mmap_source.clone())).unwrap();
        let on_text = Runner::new().run(&spec(text_source)).unwrap();
        // identical measurement content: aggregates and raw trial records
        assert_eq!(on_mmap.metrics, on_text.metrics);
        assert_eq!(
            serde_json::to_string(&on_mmap.per_trial).unwrap(),
            serde_json::to_string(&on_text.per_trial).unwrap()
        );
        // telemetry agrees except the resident footprint, which reports
        // what each backend actually holds: trials × memory_bytes
        let mapped = wx_core::graph::MmapGraph::open(&wxg).unwrap();
        assert_eq!(
            on_mmap.telemetry["graph.memory_bytes"],
            2 * mapped.memory_bytes() as u64
        );
        assert_eq!(
            on_text.telemetry["graph.memory_bytes"],
            2 * g.memory_bytes() as u64
        );
        let strip = |t: &BTreeMap<String, u64>| {
            let mut t = t.clone();
            t.remove("graph.memory_bytes");
            t
        };
        assert_eq!(strip(&on_mmap.telemetry), strip(&on_text.telemetry));
        // byte-identical across reruns and across thread counts
        let again = Runner::new().sequential().run(&spec(mmap_source)).unwrap();
        assert_eq!(on_mmap.to_json(), again.to_json());
    }

    #[test]
    fn summary_table_lists_every_metric() {
        let report = Runner::new().run(&measure_spec(2)).unwrap();
        let table = report.summary_table();
        for key in report.metrics.keys() {
            assert!(table.contains(key.as_str()), "missing {key} in:\n{table}");
        }
    }
}
