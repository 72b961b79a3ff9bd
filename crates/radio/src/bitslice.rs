//! The radio round loop: bit-sliced, up to 64 trials per batch.
//!
//! Radio round resolution is pure boolean algebra over
//! informed/transmitting/collision bits — so [`run_lanes_in`], the crate's
//! only round loop, packs up to 64 **independent trials** into the
//! bit-lanes of a `u64` and resolves them word-parallel: lane `l` of every
//! word belongs to trial `l`, and one AND/OR/ANDNOT pass over a word
//! advances all of them at once. A single trial is a 1-lane batch
//! ([`crate::RadioSimulator::run_in`]); workspace buffers are sized by the
//! batch width, so it pays for one lane, not 64.
//!
//! # Lane semantics
//!
//! * State is **lane-major**: [`LaneWorkspace`] holds one `u64` per vertex
//!   for each of the informed / transmitter / collision masks; bit `l` of
//!   word `v` is trial `l`'s bit for vertex `v`.
//! * Each lane runs under its own RNG stream, seeded from the caller's
//!   per-lane seed slice (batch drivers derive these with
//!   `derive_seed(base_seed, trial)`, see [`crate::trials::map_trials_lanes`])
//!   — so lane `k` of a batch reproduces the 1-lane `run_in(seed_k)` **bit
//!   for bit**, whatever the batch width: same completion round, same
//!   per-vertex first-informed rounds, same per-round counts.
//! * Lanes retire independently: when a trial completes (and the simulator
//!   is configured to stop on completion) its bit leaves the `live` mask,
//!   its trajectory stops growing, and its RNG stream stops being consumed —
//!   exactly as if it had run alone.
//!
//! # Collision kernel
//!
//! A vertex receives in the lanes where exactly one neighbor transmits and
//! it does not transmit itself — the unique neighborhood `Γ¹(T)` evaluated
//! in 64 trials per word operation. Accumulating a vertex's neighbors' lane
//! masks `t` as `twice |= once & t; once |= t` leaves the receiving lanes
//! in `once & !twice & !transmit`. Each round runs this from the cheaper
//! side: **pulled** by every frontier vertex (below) from its neighbors, or
//! **pushed** by every transmitter into its neighbors' accumulators when
//! transmitters are fewer than half the frontier.
//!
//! # Frontier rounds
//!
//! The engine keeps the frontier `F`: the vertices uninformed in at least
//! one live lane, compacted once per round and handed to protocols as
//! [`LaneView::frontier`]. Only a frontier vertex can be newly informed,
//! and once `|F|·Δ < n` a round's useful work is proportional to `F`, not
//! to `n` (the direction-optimizing idea of breadth-first search, applied
//! to radio rounds). Late in a batch almost every lane has informed almost
//! every vertex, so the long tail of a broadcast runs in time proportional
//! to what is left to inform.
//!
//! The lane protocol contract is relaxed accordingly: a transmission that
//! cannot reach a vertex uninformed in its lane may be omitted
//! ([`LaneProtocol::fill_transmitters`]), since neither its receipt nor
//! its collisions can change that lane's state.
//!
//! # Protocols
//!
//! Randomized protocols implement [`LaneProtocol`] natively. [`LaneDecay`]
//! ports the decay protocol. Its dense rounds transpose 64×64 bit tiles of
//! the eligibility matrix into per-lane vertex masks and draw each lane's
//! Bernoulli decisions in bulk from its own stream
//! (`fill_masked_decision_bits` on the workspace RNG — stream-identical to
//! per-vertex `gen_bool`). Its sparse rounds compute only the draws of
//! (vertex, lane) pairs next to an uninformed vertex of that lane, each at
//! its own position in the lane's counter-mode ChaCha stream, and seek
//! every lane past the rest — so every stream, and every lane, stays
//! bit-exact against the scalar protocol. Deterministic protocols ride along
//! for free: [`LaneMirror`] runs the scalar protocol once per round on a
//! mirror of one lane's state and broadcasts the transmitter mask to every
//! live lane.

use crate::protocols::BroadcastProtocol;
use crate::simulator::{RadioSimulator, RoundView, TrialOutcome};
use std::cell::RefCell;
use wx_graph::random::{gen_bool_threshold, rng_from_seed, WxRng};
use wx_graph::{Graph, GraphView, Vertex, VertexSet};

/// Maximum number of trials per bit-sliced batch (the lanes of a `u64`).
pub const MAX_LANES: usize = 64;

/// Read-only per-round view handed to [`LaneProtocol`] implementations.
#[derive(Debug)]
pub struct LaneView<'a, G: GraphView + ?Sized = Graph> {
    /// The underlying network.
    pub graph: &'a G,
    /// The current round number (the first round is 0).
    pub round: usize,
    /// The broadcast source.
    pub source: Vertex,
    /// Mask of lanes still running; retired lanes must neither transmit nor
    /// consume their RNG streams.
    pub live: u64,
    /// Lane-major informed state: bit `l` of `informed[v]` is set iff vertex
    /// `v` is informed in trial `l`.
    pub informed: &'a [u64],
    /// The frontier: every vertex that is uninformed in at least one live
    /// lane, ascending. A vertex outside it is informed in every live lane.
    pub frontier: &'a [u32],
}

/// A broadcast protocol expressed over bit-lanes: one transmitter mask per
/// vertex word instead of one transmitter set per trial.
pub trait LaneProtocol<G: GraphView + ?Sized = Graph> {
    /// Short name for reports (matches the scalar protocol's name).
    fn name(&self) -> &'static str;

    /// Called once before a batch starts. `seeds[l]` seeds lane `l`'s RNG
    /// stream; the batch width is `seeds.len()`.
    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]);

    /// Chooses the transmitters for this round, overwriting `transmit`
    /// (one word per vertex). On return, bit `(v, l)` may be set only if
    /// vertex `v` is informed in lane `l` and lane `l` is live; **every**
    /// word of `transmit` must be consistent with this round (stale bits
    /// from the previous round must be cleared by the implementation).
    ///
    /// A transmission that cannot reach an uninformed vertex — bit `(v, l)`
    /// where every neighbor of `v` is informed in lane `l` — may be
    /// omitted: only uninformed vertices can receive, so dropping it changes
    /// no lane's state. A protocol that omits such bits must still consume
    /// its random streams as if it had decided them.
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]);
}

impl<G: GraphView + ?Sized, P: LaneProtocol<G> + ?Sized> LaneProtocol<G> for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]) {
        (**self).reset(graph, source, seeds);
    }
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        (**self).fill_transmitters(view, transmit);
    }
}

/// Reusable lane-major state for one bit-sliced batch of up to 64 trials.
///
/// A lane workspace is tied to no particular graph or batch width —
/// [`run_lanes_in`] grows it on demand, so one workspace serves batch after
/// batch without reallocating. After a run it retains every
/// per-lane trajectory (per-round informed counts, per-vertex first-informed
/// rounds) until the next run overwrites them.
#[derive(Debug)]
pub struct LaneWorkspace {
    /// Number of vertices of the last run's graph.
    n: usize,
    /// Number of lanes (trials) of the last run.
    lanes: usize,
    /// Completion target of the last run (reachable vertices).
    target: usize,
    /// Lane-major informed bits, one word per vertex.
    informed: Vec<u64>,
    /// This round's transmitter mask, filled by the protocol.
    transmit: Vec<u64>,
    /// Push rounds' collision accumulator: lanes in which ≥ 1 neighbor
    /// transmitted.
    once: Vec<u64>,
    /// Push rounds' collision accumulator: lanes in which ≥ 2 neighbors
    /// transmitted.
    twice: Vec<u64>,
    /// Vertices with a nonzero `once` word this round (targeted clearing).
    touched: Vec<usize>,
    /// Vertices uninformed in at least one live lane, ascending; compacted
    /// once per round ([`LaneView::frontier`]).
    frontier: Vec<u32>,
    /// `first_informed[v * lanes + l]` = round lane `l` first informed
    /// vertex `v`, or `u32::MAX` if it never did (strided by the batch
    /// width, so a 1-lane batch keeps one entry per vertex).
    first_informed: Vec<u32>,
    /// Per-lane informed counts.
    informed_count: [usize; MAX_LANES],
    /// Per-lane informed-count trajectories (`[lane][round]`).
    informed_per_round: Vec<Vec<usize>>,
    /// Per-lane completion rounds.
    completed_at: [Option<usize>; MAX_LANES],
}

impl Default for LaneWorkspace {
    fn default() -> Self {
        LaneWorkspace::new(0)
    }
}

impl LaneWorkspace {
    /// Creates a workspace pre-sized for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        LaneWorkspace {
            n,
            lanes: 0,
            target: 0,
            informed: vec![0; n],
            transmit: vec![0; n],
            once: vec![0; n],
            twice: vec![0; n],
            touched: Vec::new(),
            frontier: Vec::new(),
            first_informed: vec![u32::MAX; n],
            informed_count: [0; MAX_LANES],
            informed_per_round: (0..MAX_LANES).map(|_| Vec::new()).collect(),
            completed_at: [None; MAX_LANES],
        }
    }

    fn reset(&mut self, n: usize, source: Vertex, lanes: usize, target: usize) {
        self.n = n;
        self.lanes = lanes;
        self.target = target;
        for buf in [
            &mut self.informed,
            &mut self.transmit,
            &mut self.once,
            &mut self.twice,
        ] {
            buf.resize(n, 0);
            buf[..n].iter_mut().for_each(|w| *w = 0);
        }
        self.first_informed.clear();
        self.first_informed.resize(n * lanes, u32::MAX);
        self.touched.clear();
        assert!(
            u32::try_from(n).is_ok(),
            "the lane engine indexes vertices with u32, got n = {n}"
        );
        self.frontier.clear();
        self.frontier
            .extend((0..n as u32).filter(|&v| v as usize != source));
        let live = live_mask(lanes);
        self.informed[source] = live;
        for l in 0..MAX_LANES {
            self.informed_count[l] = usize::from(l < lanes);
            self.informed_per_round[l].clear();
            if l < lanes {
                self.first_informed[source * lanes + l] = 0;
                self.informed_per_round[l].push(1);
            }
            self.completed_at[l] = None;
        }
    }

    /// Marks vertex `u` informed in the lanes `new_bits` (all previously
    /// uninformed) at round `round`.
    #[inline]
    fn inform(&mut self, u: Vertex, new_bits: u64, round: usize) {
        if new_bits == 0 {
            return;
        }
        self.informed[u] |= new_bits;
        let row = &mut self.first_informed[u * self.lanes..(u + 1) * self.lanes];
        let mut b = new_bits;
        while b != 0 {
            let l = b.trailing_zeros() as usize;
            row[l] = round as u32;
            self.informed_count[l] += 1;
            b &= b - 1;
        }
    }

    /// Number of lanes (trials) of the last run.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The constant-size summary of lane `lane`'s trial.
    pub fn lane_outcome(&self, lane: usize) -> TrialOutcome {
        assert!(lane < self.lanes, "lane {lane} out of range");
        TrialOutcome {
            reachable: self.target,
            informed: self.informed_count[lane],
            completed_at: self.completed_at[lane],
            rounds_simulated: self.informed_per_round[lane].len() - 1,
        }
    }

    /// Lane `lane`'s per-round informed counts (`[0] == 1`).
    pub fn lane_informed_per_round(&self, lane: usize) -> &[usize] {
        assert!(lane < self.lanes, "lane {lane} out of range");
        &self.informed_per_round[lane]
    }

    /// The round at which lane `lane` first informed vertex `v`, or `None`
    /// if it never did.
    pub fn lane_first_informed_round(&self, lane: usize, v: Vertex) -> Option<usize> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let r = self.first_informed[v * self.lanes + lane];
        (r != u32::MAX).then_some(r as usize)
    }

    /// The number of rounds lane `lane` needed to inform at least `fraction`
    /// of `reachable` vertices (mirrors
    /// [`crate::BroadcastOutcome::rounds_to_reach_fraction`]).
    pub fn lane_rounds_to_reach_fraction(
        &self,
        lane: usize,
        fraction: f64,
        reachable: usize,
    ) -> Option<usize> {
        let target = (fraction * reachable as f64).ceil() as usize;
        self.informed_per_round[lane]
            .iter()
            .position(|&c| c >= target)
    }
}

/// The live-lane mask for a batch of `lanes` trials.
#[inline]
fn live_mask(lanes: usize) -> u64 {
    if lanes >= MAX_LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// `true` when a frontier of `frontier` vertices is small enough for
/// frontier-proportional rounds: its `frontier · Δ` edge visits cost less
/// than one pass over all `n` vertices.
#[inline]
fn frontier_is_small(frontier: usize, max_degree: usize, n: usize) -> bool {
    frontier.saturating_mul(max_degree) < n
}

/// Runs one bit-sliced batch: `seeds.len()` independent trials (at most 64)
/// of `protocol` on `sim`'s graph, all lanes advancing together through the
/// word-parallel collision kernel. Results are read back per lane from `ws`
/// ([`LaneWorkspace::lane_outcome`] and friends); lane `l` is bit-identical
/// to a 1-lane batch seeded with `seeds[l]`.
///
/// # Panics
/// Panics if `seeds` is empty or longer than [`MAX_LANES`].
pub fn run_lanes_in<G: GraphView + ?Sized>(
    sim: &RadioSimulator<'_, G>,
    protocol: &mut dyn LaneProtocol<G>,
    seeds: &[u64],
    ws: &mut LaneWorkspace,
) {
    let lanes = seeds.len();
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane batch must hold 1..=64 trials, got {lanes}"
    );
    let graph = sim.graph();
    let source = sim.source();
    let config = sim.config();
    let n = graph.num_vertices();
    let target = sim.reachable_count();
    let max_degree = graph.max_degree();
    ws.reset(n, source, lanes, target);
    protocol.reset(graph, source, seeds);
    let mut live = live_mask(lanes);
    let _span = wx_trace::span("radio.lanes");

    for round in 0..config.max_rounds {
        {
            // Drop the vertices every live lane has informed by now.
            let informed = &ws.informed;
            ws.frontier.retain(|&w| !informed[w as usize] & live != 0);
            let view = LaneView {
                graph,
                round,
                source,
                live,
                informed: &ws.informed,
                frontier: &ws.frontier,
            };
            protocol.fill_transmitters(&view, &mut ws.transmit);
        }

        debug_assert!(
            ws.transmit[..n]
                .iter()
                .zip(&ws.informed)
                .all(|(&t, &i)| t & !(i & live) == 0),
            "protocol {} transmitted from uninformed or retired lanes",
            protocol.name()
        );

        // Receivers: exactly one transmitting neighbor, not itself
        // transmitting (`Γ¹(T)` per lane). Only a frontier vertex can be
        // newly informed, so the round is resolved from whichever side is
        // cheaper: pulled by each frontier vertex from its neighbors, or
        // pushed by each transmitter to its neighbors when transmitters
        // are few.
        let pull = frontier_is_small(ws.frontier.len(), max_degree, n)
            || 2 * ws.transmit[..n].iter().filter(|&&t| t != 0).count() >= ws.frontier.len();
        if pull {
            for i in 0..ws.frontier.len() {
                let u = ws.frontier[i] as usize;
                let mut once = 0u64;
                let mut twice = 0u64;
                for v in graph.neighbors_iter(u) {
                    let t = ws.transmit[v];
                    twice |= once & t;
                    once |= t;
                }
                let new_bits = once & !twice & !ws.transmit[u] & !ws.informed[u] & live;
                ws.inform(u, new_bits, round + 1);
            }
        } else {
            ws.touched.clear();
            for v in 0..n {
                let t = ws.transmit[v];
                if t == 0 {
                    continue;
                }
                for u in graph.neighbors_iter(v) {
                    if ws.once[u] == 0 {
                        ws.touched.push(u);
                    }
                    ws.twice[u] |= ws.once[u] & t;
                    ws.once[u] |= t;
                }
            }
            for i in 0..ws.touched.len() {
                let u = ws.touched[i];
                let recv = ws.once[u] & !ws.twice[u] & !ws.transmit[u];
                ws.once[u] = 0;
                ws.twice[u] = 0;
                ws.inform(u, recv & !ws.informed[u] & live, round + 1);
            }
        }

        // Per-lane bookkeeping: trajectories grow only for live lanes, and
        // each lane's first completion round stays pinned (with
        // stop_when_complete = false lanes keep simulating but completed_at
        // must not advance).
        let mut still = live;
        let mut lb = live;
        while lb != 0 {
            let l = lb.trailing_zeros() as usize;
            lb &= lb - 1;
            ws.informed_per_round[l].push(ws.informed_count[l]);
            if ws.informed_count[l] == target && ws.completed_at[l].is_none() {
                ws.completed_at[l] = Some(round + 1);
                wx_trace::event_value("radio.lane_retired", (round + 1) as u64);
                if config.stop_when_complete {
                    still &= !(1u64 << l);
                }
            }
        }
        live = still;
        if live == 0 {
            break;
        }
    }

    // Scheduling-independent work counts, summed over the lanes: the same
    // totals whichever batch width the trials ran in.
    let mut rounds_total = 0u64;
    let mut informed_total = 0u64;
    for l in 0..lanes {
        rounds_total += (ws.informed_per_round[l].len() - 1) as u64;
        informed_total += ws.informed_count[l] as u64;
    }
    wx_trace::count(wx_trace::CounterId::RadioRoundsSimulated, rounds_total);
    wx_trace::count(wx_trace::CounterId::RadioInformedFinal, informed_total);
}

/// Transposes a 64×64 bit matrix in place: bit `j` of `a[i]` moves to bit
/// `i` of `a[j]` (the classical Hacker's Delight block-swap network).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The decay protocol over bit-lanes.
///
/// Every lane consumes exactly the stream the scalar
/// [`crate::protocols::decay::DecayProtocol`] consumes — one draw per
/// eligible vertex (informed ∧ live, optionally ∧ has-an-uninformed-neighbor)
/// in ascending vertex order — so every lane is bit-exact against the scalar
/// run. A round takes one of two paths, chosen by the frontier size:
///
/// * **Dense** (early rounds): it builds the eligibility matrix, transposes
///   it 64×64-tile by tile into per-lane vertex masks, and asks each lane's
///   RNG for its Bernoulli decisions in one bulk call that deposits straight
///   into the mask positions.
/// * **Sparse** (once `|F|·Δ < n` for the frontier `F`): it decides only
///   the (vertex, lane) pairs where the vertex has an uninformed neighbor
///   in that lane, computing each such draw from its position in the lane's
///   counter-mode stream, and then seeks every live lane past the whole
///   round's draws. The omitted transmissions could not have reached an
///   uninformed vertex (see [`LaneProtocol::fill_transmitters`]).
#[derive(Debug, Default)]
pub struct LaneDecay {
    /// Rounds per phase; `None` means `⌈log₂ n⌉ + 1` (the scalar default).
    pub phase_length: Option<usize>,
    /// Restrict transmissions to vertices with uninformed neighbors.
    pub only_useful: bool,
    rngs: Vec<WxRng>,
    lanes: usize,
    tiles: usize,
    /// The graph's maximum degree (sizes a sparse round's work).
    max_degree: usize,
    /// Per-lane eligibility masks, `[lane][tile]` flattened.
    lane_masks: Vec<u64>,
    /// Per-lane decision words aligned with `lane_masks`.
    lane_out: Vec<u64>,
    /// Packed decision stream scratch for the bulk RNG call.
    scratch: Vec<u64>,
    /// `true` while `transmit` may hold bits anywhere (after a dense
    /// round); otherwise only the words of `touched` can be nonzero.
    dense_last: bool,
    /// Sparse rounds: the vertices with a needed transmission, ascending.
    touched: Vec<u32>,
    /// Sparse rounds: the lanes in which each `touched` vertex is needed.
    need: Vec<u64>,
    /// Sparse rounds: per lane, the needed draws as (draw index within the
    /// round, slot in `touched`), ascending.
    requests: Vec<Vec<(u32, u32)>>,
    /// Sparse rounds: the distinct stream blocks of one lane's needed
    /// draws, ascending.
    counters: Vec<u64>,
    /// Sparse rounds: the blocks named by `counters`.
    blocks: Vec<[u32; 16]>,
    /// Rounds since the last reset that took the sparse path.
    sparse_rounds: usize,
}

impl LaneDecay {
    /// Lane decay with an explicit phase length.
    pub fn with_phase_length(phase_length: usize) -> Self {
        LaneDecay {
            phase_length: Some(phase_length.max(1)),
            ..LaneDecay::default()
        }
    }

    fn effective_phase_length(&self, n: usize) -> usize {
        self.phase_length
            .unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize + 1)
            .max(1)
    }

    /// The lanes in which vertex `v` draws a decision this round: informed
    /// and live, and with `only_useful` also with an uninformed neighbor.
    #[inline]
    fn eligible<G: GraphView + ?Sized>(&self, view: &LaneView<'_, G>, v: Vertex) -> u64 {
        let mut e = view.informed[v] & view.live;
        if self.only_useful && e != 0 {
            // lanes with at least one uninformed neighbor of v
            let mut un = 0u64;
            for u in view.graph.neighbors_iter(v) {
                un |= !view.informed[u];
                if un == u64::MAX {
                    break;
                }
            }
            e &= un;
        }
        e
    }

    /// The dense round: transpose the eligibility matrix into per-lane
    /// masks, draw every lane's decisions in bulk, transpose back. A 1-lane
    /// batch gathers and scatters bit 0 instead of transposing.
    fn dense_round<G: GraphView + ?Sized>(
        &mut self,
        view: &LaneView<'_, G>,
        p: f64,
        transmit: &mut [u64],
    ) {
        let n = view.graph.num_vertices();
        let tiles = self.tiles;

        // Eligibility matrix → per-lane vertex masks, one 64×64 bit
        // transpose per vertex tile.
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (j, word) in tile.iter_mut().enumerate().take(height) {
                *word = self.eligible(view, base + j);
                any |= *word;
            }
            if any == 0 {
                for l in 0..self.lanes {
                    self.lane_masks[l * tiles + t] = 0;
                }
            } else if self.lanes == 1 {
                self.lane_masks[t] = tile.iter().enumerate().fold(0, |m, (j, &w)| m | w << j);
            } else {
                transpose64(&mut tile);
                for (l, &word) in tile.iter().enumerate().take(self.lanes) {
                    self.lane_masks[l * tiles + t] = word;
                }
            }
        }

        // One bulk Bernoulli call per lane: deposits each decision onto its
        // eligible vertex, consuming exactly one draw per set mask bit in
        // ascending vertex order (the scalar protocol's draw order).
        for l in 0..self.lanes {
            self.rngs[l].fill_masked_decision_bits(
                p,
                &self.lane_masks[l * tiles..(l + 1) * tiles],
                &mut self.scratch,
                &mut self.lane_out[l * tiles..(l + 1) * tiles],
            );
        }

        // Per-lane decisions → lane-major transmitter words (the inverse
        // transpose).
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (l, word) in tile.iter_mut().enumerate().take(self.lanes) {
                *word = self.lane_out[l * tiles + t];
                any |= *word;
            }
            if any == 0 {
                transmit[base..base + height]
                    .iter_mut()
                    .for_each(|w| *w = 0);
            } else if self.lanes == 1 {
                for (j, w) in transmit[base..base + height].iter_mut().enumerate() {
                    *w = any >> j & 1;
                }
            } else {
                transpose64(&mut tile);
                transmit[base..base + height].copy_from_slice(&tile[..height]);
            }
        }
        self.dense_last = true;
    }

    /// The sparse round: decide only the needed (vertex, lane) pairs, each
    /// from its own position in the lane's stream, then seek every live
    /// lane to where the dense round would have left it.
    fn sparse_round<G: GraphView + ?Sized>(
        &mut self,
        view: &LaneView<'_, G>,
        p: f64,
        transmit: &mut [u64],
    ) {
        let n = view.graph.num_vertices();
        let informed = view.informed;
        self.sparse_rounds += 1;
        if self.dense_last {
            transmit[..n].iter_mut().for_each(|w| *w = 0);
            self.dense_last = false;
        } else {
            for &v in &self.touched {
                transmit[v as usize] = 0;
            }
        }

        // need[v] = lanes where v is informed and has an uninformed
        // neighbor; every such neighbor lies in the frontier. Accumulated in
        // the (now clean) transmit words.
        self.touched.clear();
        for &u in view.frontier {
            let un = !informed[u as usize] & view.live;
            for v in view.graph.neighbors_iter(u as usize) {
                let bits = un & informed[v];
                if bits != 0 {
                    if transmit[v] == 0 {
                        self.touched.push(v as u32);
                    }
                    transmit[v] |= bits;
                }
            }
        }
        self.touched.sort_unstable();

        // One merge walk over the frontier and the touched vertices gives
        // every needed draw's index in its lane's stream. Lane l draws for
        // each eligible vertex in ascending order, so the draw of v is the
        // number of eligible vertices below v: without `only_useful` that is
        // v minus the frontier vertices below v uninformed in l; with it, the
        // needed vertices below v (which are then exactly the eligible ones).
        let t53 = gen_bool_threshold(p);
        let all_pass = t53 == 1u64 << 53;
        for r in &mut self.requests {
            r.clear();
        }
        let mut below = [0u32; MAX_LANES];
        let mut next = 0;
        self.need.clear();
        for (slot, &v) in self.touched.iter().enumerate() {
            let need = transmit[v as usize];
            self.need.push(need);
            if !self.only_useful {
                while let Some(&w) = view.frontier.get(next).filter(|&&w| w < v) {
                    count_lanes(&mut below, !informed[w as usize] & view.live);
                    next += 1;
                }
            }
            let mut b = need;
            while b != 0 {
                let l = b.trailing_zeros() as usize;
                b &= b - 1;
                let draw = if self.only_useful {
                    below[l] += 1;
                    below[l] - 1
                } else {
                    v - below[l]
                };
                if !all_pass {
                    self.requests[l].push((draw, slot as u32));
                }
            }
        }
        if !self.only_useful {
            for &w in &view.frontier[next..] {
                count_lanes(&mut below, !informed[w as usize] & view.live);
            }
        }

        // Per live lane: compute the blocks holding its needed draws, decide
        // them, and seek past the round. Probability-1 rounds need no draws.
        // The draws each lane's dense round would have consumed.
        let mut dense = [0u32; MAX_LANES];
        if cfg!(debug_assertions) {
            for v in 0..n {
                count_lanes(&mut dense, self.eligible(view, v));
            }
        }
        let mut lb = view.live;
        while lb != 0 {
            let l = lb.trailing_zeros() as usize;
            lb &= lb - 1;
            let start = self.rngs[l].get_word_pos();
            let eligible = if self.only_useful {
                below[l] as usize
            } else {
                n - below[l] as usize
            };
            debug_assert_eq!(start % 2, 0, "lane streams move in whole u64 draws");
            if !all_pass {
                // Draw j is the u64 at word `start + 2j`: words w, w+1 of
                // block (start + 2j) / 16, with w even.
                let requests = &self.requests[l];
                self.counters.clear();
                self.counters.extend(
                    requests
                        .iter()
                        .map(|&(j, _)| ((start + 2 * j as u128) / 16) as u64),
                );
                self.counters.dedup();
                self.blocks.resize(self.counters.len(), [0; 16]);
                self.rngs[l].blocks_at(&self.counters, &mut self.blocks);
                let mut ci = 0;
                for &(j, slot) in requests {
                    let pos = start + 2 * j as u128;
                    while self.counters[ci] != (pos / 16) as u64 {
                        ci += 1;
                    }
                    let w = (pos % 16) as usize;
                    let draw = self.blocks[ci][w] as u64 | (self.blocks[ci][w + 1] as u64) << 32;
                    if (draw >> 11) >= t53 {
                        self.need[slot as usize] &= !(1u64 << l);
                    }
                }
            }
            self.rngs[l].set_word_pos(start + 2 * eligible as u128);
            debug_assert_eq!(
                eligible, dense[l] as usize,
                "lane {l}: the sparse round's stream position diverged from the dense path's"
            );
        }

        for (&v, &bits) in self.touched.iter().zip(self.need.iter()) {
            transmit[v as usize] = bits;
        }
    }
}

/// Adds one to `counts[l]` for every set bit `l` of `lanes`.
#[inline]
fn count_lanes(counts: &mut [u32; MAX_LANES], lanes: u64) {
    let mut b = lanes;
    while b != 0 {
        counts[b.trailing_zeros() as usize] += 1;
        b &= b - 1;
    }
}

impl<G: GraphView + ?Sized> LaneProtocol<G> for LaneDecay {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn reset(&mut self, graph: &G, _source: Vertex, seeds: &[u64]) {
        self.lanes = seeds.len();
        self.tiles = graph.num_vertices().div_ceil(64);
        self.max_degree = graph.max_degree();
        self.rngs.clear();
        for &s in seeds {
            self.rngs.push(rng_from_seed(s));
        }
        self.lane_masks.resize(self.lanes * self.tiles, 0);
        self.lane_out.resize(self.lanes * self.tiles, 0);
        self.requests.resize_with(MAX_LANES, Default::default);
        self.touched.clear();
        self.dense_last = true;
        self.sparse_rounds = 0;
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let n = view.graph.num_vertices();
        let k = self.effective_phase_length(n);
        let p = 0.5f64.powi((view.round % k) as i32);
        if frontier_is_small(view.frontier.len(), self.max_degree, n) {
            self.sparse_round(view, p, transmit);
        } else {
            self.dense_round(view, p, transmit);
        }
    }
}

/// Adapts any [`BroadcastProtocol`] to the lane engine by mirroring one
/// lane's state into a [`RoundView`].
///
/// Deterministic protocols (flooding, round-robin, the spokesman schedule)
/// produce the same trajectory in every lane, so the adapter runs the
/// protocol **once** per round against a mirror of the lowest live lane's
/// informed and newly-informed sets, and broadcasts the resulting
/// transmitter mask to every live lane — 64 trials for the price of one
/// protocol call plus O(words) broadcasting. The mirror does not resolve
/// receivers itself: the vertices of the previous round's frontier that
/// are now informed in its lane are that round's newly informed.
///
/// A 1-lane mirror runs any protocol, randomized ones included, on the
/// lane's seed: that is how [`RadioSimulator::run`] runs one trial. Do not
/// give a randomized protocol more than one lane: every lane would replay
/// one stream instead of running an independent trial (use a native
/// [`LaneProtocol`] like [`LaneDecay`] instead).
pub struct LaneMirror<P> {
    inner: P,
    informed: VertexSet,
    newly: VertexSet,
    transmitters: VertexSet,
    rng: WxRng,
    /// The previous round's frontier: every vertex it could have informed.
    frontier: Vec<u32>,
    /// Vertices whose transmit words were written last round.
    prev: Vec<usize>,
    source: Vertex,
}

impl<P> LaneMirror<P> {
    /// Wraps a scalar protocol for lane execution.
    pub fn new(inner: P) -> Self {
        LaneMirror {
            inner,
            informed: VertexSet::empty(0),
            newly: VertexSet::empty(0),
            transmitters: VertexSet::empty(0),
            rng: rng_from_seed(0),
            frontier: Vec::new(),
            prev: Vec::new(),
            source: 0,
        }
    }
}

impl<G: GraphView + ?Sized, P: BroadcastProtocol<G>> LaneProtocol<G> for LaneMirror<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]) {
        let n = graph.num_vertices();
        self.source = source;
        if self.informed.universe() != n {
            self.informed = VertexSet::empty(n);
            self.newly = VertexSet::empty(n);
            self.transmitters = VertexSet::empty(n);
        } else {
            self.informed.clear();
            self.newly.clear();
            self.transmitters.clear();
        }
        self.informed.insert(source);
        self.newly.insert(source);
        self.frontier.clear();
        self.prev.clear();
        // Seeded from lane 0: a 1-lane mirror runs a randomized protocol on
        // exactly the stream its trial seed names.
        self.rng = rng_from_seed(seeds[0]);
        self.inner.reset(graph, source);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        // Catch the mirror up with the round the engine just resolved: the
        // members of that round's frontier now informed in the lowest live
        // lane, ascending.
        if view.round > 0 {
            let lane = 1u64 << view.live.trailing_zeros();
            self.newly.clear();
            for &u in &self.frontier {
                let u = u as usize;
                if view.informed[u] & lane != 0 && !self.informed.contains(u) {
                    self.newly.insert(u);
                }
            }
            self.informed.insert_sorted(self.newly.as_slice());
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(view.frontier);

        // One protocol invocation against the mirrored state…
        self.transmitters.clear();
        let rv = RoundView {
            graph: view.graph,
            round: view.round,
            source: self.source,
            informed: &self.informed,
            newly_informed: &self.newly,
        };
        self.inner
            .transmitters_into(&rv, &mut self.rng, &mut self.transmitters);

        // …broadcast to every live lane.
        for &v in &self.prev {
            transmit[v] = 0;
        }
        self.prev.clear();
        for v in self.transmitters.iter() {
            transmit[v] = view.live;
            self.prev.push(v);
        }
    }
}

thread_local! {
    /// One lane workspace per thread, shared by every batch executed on
    /// that thread.
    static THREAD_LANE_WORKSPACE: RefCell<LaneWorkspace> = RefCell::new(LaneWorkspace::new(0));
}

/// Runs `f` with this thread's shared [`LaneWorkspace`] — the pool behind
/// the batched trial runner in [`crate::trials`] and the lab runner. Also
/// exported as `with_thread_workspace`.
///
/// # Panics
/// Panics if `f` re-enters `with_thread_lane_workspace` on the same thread.
pub fn with_thread_lane_workspace<R>(f: impl FnOnce(&mut LaneWorkspace) -> R) -> R {
    THREAD_LANE_WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        f(&mut ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::protocols::decay::DecayProtocol;
    use crate::protocols::naive::NaiveFlooding;
    use crate::protocols::round_robin::RoundRobin;
    use crate::simulator::SimulatorConfig;
    use proptest::prelude::*;
    use wx_graph::random::derive_seed;

    #[test]
    fn transpose64_matches_naive() {
        let mut rng = rng_from_seed(99);
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = rand::RngCore::next_u64(&mut rng);
        }
        let mut t = a;
        transpose64(&mut t);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in t.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i}, {j})");
            }
        }
        // involution
        transpose64(&mut t);
        assert_eq!(t, a);
    }

    fn assert_lane_matches_scalar<G: GraphView + ?Sized>(
        sim: &RadioSimulator<'_, G>,
        lane_ws: &LaneWorkspace,
        lane: usize,
        seed: u64,
        mut scalar: impl BroadcastProtocol<G>,
    ) {
        let expect = oracle::run(sim.graph(), sim.source(), sim.config(), &mut scalar, seed);
        assert_eq!(
            lane_ws.lane_outcome(lane),
            oracle::summary(&expect),
            "lane {lane} seed {seed}"
        );
        assert_eq!(
            lane_ws.lane_informed_per_round(lane),
            expect.informed_per_round,
            "lane {lane} trajectory"
        );
        for v in 0..sim.graph().num_vertices() {
            assert_eq!(
                lane_ws.lane_first_informed_round(lane, v),
                expect.first_informed_round[v],
                "lane {lane} vertex {v}"
            );
        }
    }

    #[test]
    fn decay_lanes_are_bit_exact_against_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(80, 4, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(42, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        let mut proto = LaneDecay::default();
        run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol::default());
        }
    }

    #[test]
    fn partial_batches_match_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(66, 4, 9).unwrap();
        let sim = RadioSimulator::new(&g, 5, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        for lanes in [1usize, 2, 7, 33] {
            let seeds: Vec<u64> = (0..lanes as u64).map(|t| derive_seed(7, t)).collect();
            let mut proto = LaneDecay::default();
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            assert_eq!(ws.lanes(), lanes);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol::default());
            }
        }
    }

    /// A path `0 – 1 – … – (n−1)` plus `chords`.
    fn path_plus(n: usize, chords: &[(usize, usize)]) -> Graph {
        let path = (1..n).map(|v| (v - 1, v));
        let chords = chords.iter().map(|&(u, v)| (u % n, v % n));
        Graph::from_edges(n, path.chain(chords).filter(|(u, v)| u != v)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Lane decay — dense rounds, sparse rounds and the switch between
        /// them — is bit-exact against scalar decay runs: on paths, on
        /// paths with chords and on random (often disconnected) graphs,
        /// over partial batches, explicit phase lengths, `only_useful` and
        /// `stop_when_complete = false`.
        #[test]
        fn lane_decay_matches_scalar_decay(
            shape in (0usize..3, 3usize..100),
            edges in prop::collection::vec((0usize..100, 0usize..100), 0..160),
            batch in (1usize..=64, 0u64..1_000_000),
            flags in (prop::bool::ANY, prop::bool::ANY, 0usize..5),
        ) {
            let ((kind, n), (lanes, base), (only_useful, stop, phase)) = (shape, batch, flags);
            let source = (base as usize) % n;
            let (g, source) = match kind {
                0 => (path_plus(n, &[]), 0),
                1 => (path_plus(n, &edges[..edges.len() / 8]), source),
                _ => {
                    let edges = edges.iter().map(|&(u, v)| (u % n, v % n)).filter(|(u, v)| u != v);
                    (Graph::from_edges(n, edges).unwrap(), source)
                }
            };
            let config = SimulatorConfig {
                max_rounds: if stop { 4000 } else { 150 },
                stop_when_complete: stop,
            };
            let sim = RadioSimulator::new(&g, source, config);
            let seeds: Vec<u64> = (0..lanes as u64).map(|t| derive_seed(base, t)).collect();
            let phase_length = (phase > 0).then_some(phase);
            let mut proto = LaneDecay { phase_length, only_useful, ..LaneDecay::default() };
            let mut ws = LaneWorkspace::new(0);
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(
                    &sim,
                    &ws,
                    lane,
                    seed,
                    DecayProtocol { phase_length, only_useful },
                );
            }
            if kind == 0 && stop {
                // On a path from vertex 0 a lane informs at most one vertex
                // per round, so in the batch's last round every live lane
                // lacks only vertex n−1: the frontier is {n−1}, and
                // 1·Δ = 2 < n makes that round sparse.
                prop_assert!(proto.sparse_rounds > 0);
            }
        }
    }

    #[test]
    fn sparse_rounds_carry_expander_tails() {
        // On an expander the frontier shrinks below n/Δ long before the
        // last lane completes, so most of the tail runs sparse.
        let g = wx_constructions::families::margulis_graph(20).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        for only_useful in [false, true] {
            let seeds: Vec<u64> = (0..64).map(|t| derive_seed(31, t)).collect();
            let mut ws = LaneWorkspace::new(0);
            let mut proto = LaneDecay {
                only_useful,
                ..LaneDecay::default()
            };
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            assert!(
                proto.sparse_rounds >= 10,
                "{} sparse rounds",
                proto.sparse_rounds
            );
            for (lane, &seed) in seeds.iter().enumerate() {
                let scalar = DecayProtocol {
                    phase_length: None,
                    only_useful,
                };
                assert_lane_matches_scalar(&sim, &ws, lane, seed, scalar);
            }
        }
    }

    #[test]
    fn mirror_adapter_replicates_deterministic_protocols() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let seeds = [3u64, 4, 5];
        let mut ws = LaneWorkspace::new(0);
        let mut flood = LaneMirror::new(NaiveFlooding);
        run_lanes_in(&sim, &mut flood, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, NaiveFlooding);
        }
        let mut rr = LaneMirror::new(RoundRobin::default());
        run_lanes_in(&sim, &mut rr, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, RoundRobin::default());
        }
    }

    #[test]
    fn only_useful_lane_decay_matches_scalar() {
        let g = wx_constructions::families::random_regular_graph(48, 4, 2).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..16).map(|t| derive_seed(13, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        let mut proto = LaneDecay {
            only_useful: true,
            ..LaneDecay::default()
        };
        run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(
                &sim,
                &ws,
                lane,
                seed,
                DecayProtocol {
                    phase_length: None,
                    only_useful: true,
                },
            );
        }
    }

    #[test]
    fn lanes_match_scalar_without_early_stopping() {
        let g = wx_constructions::families::grid_graph(5, 5).unwrap();
        let cfg = SimulatorConfig {
            max_rounds: 40,
            stop_when_complete: false,
        };
        let sim = RadioSimulator::new(&g, 0, cfg);
        let seeds: Vec<u64> = (0..8).map(|t| derive_seed(21, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        let mut proto = LaneDecay::default();
        run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol::default());
            // all lanes simulated the full horizon
            assert_eq!(ws.lane_outcome(lane).rounds_simulated, 40);
        }
    }

    #[test]
    fn disconnected_graphs_complete_on_the_reachable_component() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..5).map(|t| derive_seed(2, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        run_lanes_in(&sim, &mut LaneDecay::default(), &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_eq!(ws.lane_outcome(lane).reachable, 3, "lane {lane}");
            let expect = oracle::run(&g, 0, sim.config(), &mut DecayProtocol::default(), seed);
            assert_eq!(ws.lane_outcome(lane), oracle::summary(&expect));
        }
    }

    #[test]
    fn workspace_reuse_across_graph_sizes_is_clean() {
        let small = wx_constructions::families::grid_graph(3, 3).unwrap();
        let big = wx_constructions::families::random_regular_graph(70, 4, 1).unwrap();
        let mut ws = LaneWorkspace::new(0);
        // the first-informed stride follows the batch width, so widths vary too
        for (g, lanes) in [(&big, 10), (&small, 64), (&big, 1), (&big, 10)] {
            let sim = RadioSimulator::new(g, 0, SimulatorConfig::default());
            let seeds: Vec<u64> = (0..lanes).map(|t| derive_seed(4, t)).collect();
            let mut proto = LaneDecay::default();
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol::default());
            }
        }
    }

    #[test]
    fn per_lane_seed_streams_are_independent() {
        // Lane seeds come from `derive_seed(base, trial)`: the derivation
        // must not collide over realistic trial ranges (a collision would
        // silently replay one RNG stream in two "independent" trials)...
        for base in [0u64, 0xBE, 77, u64::MAX] {
            let mut seeds = std::collections::HashSet::new();
            for trial in 0..4096u64 {
                assert!(
                    seeds.insert(derive_seed(base, trial)),
                    "derive_seed({base}, {trial}) collided with an earlier trial"
                );
            }
        }
        // ...and the per-lane streams must actually diverge: 64 decay lanes
        // on one graph cannot all finish in the same round.
        let g = wx_constructions::families::random_regular_graph(96, 4, 5).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(0xBE, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        run_lanes_in(&sim, &mut LaneDecay::default(), &seeds, &mut ws);
        let first = ws.lane_outcome(0).completed_at;
        assert!(
            (1..64).any(|l| ws.lane_outcome(l).completed_at != first),
            "all 64 lanes completed at {first:?} — lane streams are not independent"
        );
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn oversized_batches_are_rejected() {
        let g = wx_constructions::families::grid_graph(2, 2).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds = vec![0u64; 65];
        run_lanes_in(
            &sim,
            &mut LaneDecay::default(),
            &seeds,
            &mut LaneWorkspace::new(0),
        );
    }
}
