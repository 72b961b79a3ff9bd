//! # wx-graph
//!
//! Graph substrate for the *Wireless Expanders* (SPAA 2018) reproduction.
//!
//! This crate provides the data structures and primitive graph operations that
//! every other crate in the workspace builds on:
//!
//! * [`view`] — the [`GraphView`] trait every algorithm is generic over,
//!   with four backends: the CSR [`Graph`] (default), the zero-copy
//!   induced [`SubgraphView`], the [`ImplicitGraph`] family backend
//!   whose neighborhoods are computed on the fly, and the out-of-core
//!   [`MmapGraph`].
//! * [`disk`] — the versioned, checksummed `.wxg` on-disk CSR format:
//!   [`Graph::write_wxg`] for in-memory graphs and the bounded-memory
//!   external-sort converter [`convert_to_wxg`] for text files that do not
//!   fit in RAM.
//! * [`mmap`] — [`MmapGraph`], a read-only zero-copy [`GraphView`] over a
//!   memory-mapped `.wxg` file, fully validated at open time.
//! * [`Graph`] — an immutable, compressed-sparse-row undirected graph.
//! * [`GraphBuilder`] — incremental construction with duplicate-edge and
//!   self-loop handling.
//! * [`BipartiteGraph`] — an explicit two-sided graph `G_S = (S, N, E_S)` as
//!   used throughout Section 4 and Appendix A of the paper.
//! * [`VertexSet`] — a hybrid bitset + list representation of vertex subsets,
//!   the object all expansion notions quantify over.
//! * [`neighborhood`] — the neighborhood operators `Γ(S)`, `Γ⁻(S)`, `Γ¹(S)`
//!   and the `S`-excluding unique neighborhood `Γ¹_S(S')` (Section 2.1).
//! * [`scratch`] — the epoch-stamped [`NeighborhoodScratch`] counting kernel
//!   behind those operators: allocation-free set-size evaluation for the
//!   expansion engine's hot loop, with a per-thread scratch pool.
//! * [`degree`] — degree statistics (maximum degree `Δ`, average degrees
//!   `δ_S`, `δ_N`, degree histograms).
//! * [`arboricity`] — arboricity / maximum-average-degree estimation
//!   (Section 2.1), used for the low-arboricity corollary.
//! * [`traversal`] — BFS, connected components, distances, diameter.
//! * [`parallel`] — rayon-parallel sweeps over vertices and vertex sets.
//! * [`io`] — edge-list and DIMACS file readers/writers with precise
//!   per-line parse errors (the loaders behind the scenario lab's
//!   file-based graph sources).
//! * [`random`] — reproducible random number utilities shared by the
//!   workspace (every randomized routine takes an explicit `u64` seed).
//!
//! The representation is deliberately simple: vertices are dense indices
//! `0..n`, edges are undirected and stored once per endpoint in a CSR layout.
//! This keeps neighborhood queries cache-friendly, which matters because the
//! expansion computations in `wx-expansion` evaluate `Γ(S)` over very many
//! candidate sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arboricity;
pub mod bipartite;
pub mod builder;
pub mod csr;
pub mod degree;
pub mod disk;
pub mod error;
pub mod io;
pub mod mmap;
pub mod neighborhood;
pub mod parallel;
pub mod random;
pub mod scratch;
pub mod traversal;
pub mod vertex_set;
pub mod view;

pub use bipartite::{BipartiteBuilder, BipartiteGraph, Side};
pub use builder::GraphBuilder;
pub use csr::Graph;
/// Explicit name for the CSR backend behind the default [`Graph`] spelling.
///
/// Code that wants to be explicit about which [`GraphView`] backend it
/// holds (now that [`SubgraphView`] and [`ImplicitGraph`] exist) can say
/// `CsrGraph`; both names are the same type, so downstream diffs against
/// either spelling stay mechanical.
pub type CsrGraph = csr::Graph;
pub use disk::{convert_to_wxg, ConvertOptions, ConvertStats};
pub use error::{GraphError, WxgDefect};
pub use mmap::MmapGraph;
pub use scratch::NeighborhoodScratch;
pub use vertex_set::VertexSet;
pub use view::{GraphView, ImplicitFamily, ImplicitGraph, SubgraphView};

/// A vertex identifier. Vertices of a [`Graph`] with `n` vertices are the
/// dense range `0..n`.
pub type Vertex = usize;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
