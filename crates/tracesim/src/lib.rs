//! # xgft-tracesim — trace-driven MPI replay coupled to the network simulator
//!
//! This crate plays the role of **Dimemas** in the paper's evaluation
//! framework (Sec. VI-B): an MPI replay engine driven by a per-rank event
//! program (computation, sends, receives, barriers) that reconstructs the
//! temporal behaviour of an application, relying on the network simulator
//! (`xgft-netsim`, our Venus) for the detailed timing of every message.
//!
//! The paper replays post-mortem traces of real WRF-256 and CG.D-128 runs.
//! Those traces are not available, so [`workloads`] generates synthetic
//! traces that reproduce the communication structure the paper documents for
//! each application (see [`workloads`] for details); any
//! [`xgft_patterns::Pattern`] can
//! be turned into a trace with [`workloads::trace_from_pattern`].
//!
//! ```
//! use xgft_tracesim::{workloads, ReplayEngine, RoutedNetwork};
//! use xgft_netsim::{NetworkConfig, NetworkSim};
//! use xgft_core::{CompiledRouteTable, DModK};
//! use xgft_patterns::generators;
//! use xgft_topo::{Xgft, XgftSpec};
//!
//! // A small WRF-like exchange on a 4-ary 2-tree.
//! let mesh = generators::wrf_mesh_exchange(4, 4, 8 * 1024).unwrap();
//! let trace = workloads::trace_from_pattern(&mesh, 0);
//! let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
//! let table = CompiledRouteTable::compile(&xgft, &DModK::new(), trace.communication_pairs());
//! let net = RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), table);
//! let result = ReplayEngine::new(&trace).run(net).unwrap();
//!
//! // The ideal single-stage crossbar reference: the same routed simulator
//! // on the one-switch XGFT(1; 16; 1).
//! let crossbar = RoutedNetwork::crossbar(16, &NetworkConfig::default()).unwrap();
//! let reference = ReplayEngine::new(&trace).run(crossbar).unwrap();
//! assert!(result.completion_ps >= reference.completion_ps);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod network;
pub mod replay;
pub mod trace;
pub mod workloads;

pub use network::{Network, NetworkError, RoutedNetwork};
pub use replay::{ReplayEngine, ReplayError, ReplayResult};
pub use trace::{RankEvent, Trace};
