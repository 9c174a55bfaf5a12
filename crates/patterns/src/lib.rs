//! # xgft-patterns — communication patterns and workload generators
//!
//! The paper describes communication patterns as connectivity matrices
//! (Sec. III): `M(N × N)` with `m_ij ≠ 0` iff source `i` sends to
//! destination `j`, the value recording a cost metric such as the number of
//! bytes. Permutations — patterns in which every source sends to a distinct
//! destination — play a special role in the combinatorial analysis
//! (Sec. VII-B/C), and general patterns decompose into unions of
//! permutations.
//!
//! This crate provides:
//!
//! * [`ConnectivityMatrix`] — a sparse N×N flow matrix with byte weights.
//! * [`Permutation`] — bijective patterns, inverses and composition.
//! * [`decompose_into_permutations`] — decomposition of a general pattern
//!   into permutations.
//! * [`generators`] — the application patterns used in the paper's
//!   evaluation (WRF-256 pairwise mesh exchange, the five CG.D-128 phases)
//!   and the synthetic patterns common in fat-tree routing studies (shift,
//!   transpose, bit-reversal, bit-complement, all-to-all, uniform random).
//!   Each generator checks its own inputs and refuses bad ones with a
//!   [`PatternError`] that names the generator and the rule.
//! * [`Pattern`] — a named, possibly multi-phase workload description that
//!   the trace simulator turns into rank programs.
//! * [`WorkloadSpec`] — the workload vocabulary of scenario specs: a
//!   generator name plus parameters, instantiated by
//!   [`WorkloadSpec::pattern`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decompose;
pub mod generators;
pub mod matrix;
pub mod pattern;
pub mod permutation;
pub mod stats;
pub mod workload;

pub use decompose::decompose_into_permutations;
pub use generators::PatternError;
pub use matrix::{ConnectivityMatrix, Flow};
pub use pattern::Pattern;
pub use permutation::Permutation;
pub use stats::PatternStats;
pub use workload::WorkloadSpec;
