//! # sling-graph
//!
//! Directed-graph substrate for the SLING SimRank reproduction
//! (Tian & Xiao, *SLING: A Near-Optimal Index Structure for SimRank*,
//! SIGMOD 2016).
//!
//! The crate provides everything the SimRank methods in this workspace need
//! from a graph library, built from scratch:
//!
//! * [`DiGraph`] — an immutable directed graph stored in compressed sparse
//!   row (CSR) form with **both** out-adjacency and in-adjacency, because
//!   SimRank is defined over in-neighbor sets `I(v)` while local-update
//!   propagation walks out-edges.
//! * [`GraphBuilder`] — mutable edge accumulator that deduplicates parallel
//!   edges, optionally drops self-loops, and symmetrizes undirected inputs.
//! * [`edgelist`] — SNAP-style whitespace edge-list parsing and writing.
//! * [`generators`] — deterministic random-graph generators (Erdős–Rényi,
//!   Barabási–Albert preferential attachment, R-MAT) plus closed-form
//!   utility graphs (cycles, stars, complete graphs, ...) used heavily by
//!   the test suites.
//! * [`datasets`] — the synthetic analogue of the paper's Table 3 dataset
//!   suite, scaled to laptop size (its module docs give the substitution
//!   rationale).
//! * [`fxhash`] — a minimal FxHash-style hasher for integer keys, used
//!   across the workspace instead of SipHash-backed `std` maps.
//! * [`binfmt`] — compact binary graph persistence (CSR dump with full
//!   structural validation on decode).
//! * [`traversal`] / [`transform`] — BFS utilities and whole-graph passes
//!   (induced subgraphs, largest WCC, transpose, k-core, dangling peel).
//! * [`degree`] — degree-distribution summaries (quantiles, Gini) backing
//!   the dataset reports.
//! * [`weighted`] — weighted digraphs ([`WDiGraph`]) for the SimRank++
//!   family of variants.
//!
//! All generators take explicit seeds; every graph produced by this crate is
//! reproducible bit-for-bit.

pub mod binfmt;
pub mod builder;
pub mod components;
pub mod csr;
pub mod datasets;
pub mod degree;
pub mod digraph;
pub mod edgelist;
pub mod error;
pub mod fxhash;
pub mod generators;
pub mod node;
pub mod stats;
pub mod transform;
pub mod traversal;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use degree::{DegreeDistribution, DegreeKind};
pub use digraph::DiGraph;
pub use error::GraphError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use node::NodeId;
pub use stats::GraphStats;
pub use weighted::{WDiGraph, WGraphBuilder};
