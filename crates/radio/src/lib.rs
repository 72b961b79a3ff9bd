//! # wx-radio
//!
//! A synchronous radio-network simulator implementing the collision model of
//! the *Wireless Expanders* paper (and the classical radio-broadcast
//! literature it builds on):
//!
//! * time proceeds in synchronous rounds;
//! * in each round every processor either transmits or stays silent;
//! * a silent processor **receives** a message iff *exactly one* of its
//!   neighbors transmits in that round;
//! * collisions (two or more transmitting neighbors) are indistinguishable
//!   from silence.
//!
//! On top of the simulator ([`simulator`]) the crate provides the broadcast
//! protocols the paper discusses or compares against ([`protocols`]): naive
//! flooding, deterministic round-robin, the Bar-Yehuda–Goldreich–Itai decay
//! protocol, and a centralized spokesman-schedule broadcast that transmits
//! from the subset `S' ⊆ S` a Spokesman-Election solver selects (the
//! algorithmic content of wireless expansion). [`trials`] runs Monte-Carlo
//! ensembles in parallel, and [`lower_bound`] packages the Section-5
//! experiment measuring broadcast time on the chain of core graphs.
//!
//! # One round loop
//!
//! Every trial runs through [`run_lanes_in`] ([`bitslice`]): one `u64` per
//! vertex holds the informed/transmitting state of up to [`MAX_LANES`] (64)
//! **independent trials** in its bit-lanes, and every round of the
//! collision kernel resolves all lanes with word-parallel AND/OR/NOT
//! operations — one neighborhood traversal per round serves the whole
//! batch. A single trial is a 1-lane batch: [`LaneWorkspace`] sizes its
//! per-lane buffers by the batch width, so one lane costs one lane.
//!
//! * [`RadioSimulator::new`] runs **one** BFS and caches the completion
//!   target, so a 10k-trial ensemble on a fixed simulator does one BFS, not
//!   10k;
//! * [`LaneWorkspace`] owns every n-sized buffer a batch needs and is
//!   reused batch after batch; [`with_thread_lane_workspace`] keeps one per
//!   thread;
//! * [`RadioSimulator::run`]/[`RadioSimulator::run_in`] run any
//!   [`BroadcastProtocol`] as one lane through [`LaneMirror`];
//! * [`trials::map_trials_lanes`] shares one simulator across all trials,
//!   batches them up to 64 per workspace, and reduces each trial to a
//!   caller-chosen summary, so ensemble memory never grows with
//!   `trials × n`.
//!
//! **Lane semantics.** Lane `k` of a batch seeded with `seeds` reproduces a
//! 1-lane run with seed `seeds[k]` *bit for bit*: the same completion
//! round, the same per-round trajectory, the same per-vertex first-informed
//! rounds. Randomized protocols implement [`LaneProtocol`] natively with
//! one RNG stream per lane ([`LaneDecay`] draws its transmission coins
//! through a transpose-to-lane-major bulk path and, once the frontier is
//! small, computes only the draws that can matter). Deterministic
//! protocols wrap their scalar form in [`LaneMirror`], which runs the
//! protocol once per round and broadcasts the transmitter mask to all live
//! lanes. Lanes retire individually on completion, so a batch costs rounds
//! proportional to its slowest lane, not 64× the mean.
//!
//! **Tradeoffs.** Wide batches pay off when trials on one shared graph are
//! plentiful (Monte-Carlo ensembles); trials that each need their own graph
//! (randomized sources) run as 1-lane batches. Batch width never changes a
//! trial's result, only its cost. `wx bench` reports the 1-lane row and a
//! sweep of wider batches (labels `radio_throughput/<protocol>/<n>` and
//! `radio_throughput/<protocol>/lanes<L>/<n>`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod lower_bound;
pub mod metrics;
pub mod protocols;
pub mod simulator;
pub mod trials;

pub use bitslice::{
    run_lanes_in, with_thread_lane_workspace, with_thread_lane_workspace as with_thread_workspace,
    LaneDecay, LaneMirror, LaneProtocol, LaneView, LaneWorkspace, MAX_LANES,
};
pub use metrics::BroadcastOutcome;
pub use protocols::{BroadcastProtocol, ProtocolKind};
pub use simulator::{reachable_from, RadioSimulator, RoundView, SimulatorConfig, TrialOutcome};

#[cfg(test)]
extern crate self as wx_radio;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
