//! # xgft-netsim — event-driven network simulator for XGFTs
//!
//! This crate plays the role of **Venus**, the IBM flit-level simulator used
//! in the paper's evaluation framework (Sec. VI-B). It simulates an XGFT
//! built of input/output-buffered switches with the paper's parameters:
//! 2 Gbit/s links, 8-byte flits, 1 KB segments and round-robin interleaving
//! of concurrent messages at the network adapter.
//!
//! ## Model
//!
//! * **Transfer unit.** Messages are split into segments (1 KB by default).
//!   A segment's serialization time on a link is exact at flit granularity
//!   (`segment bytes × 8 / link rate`), so link occupancy and queueing are
//!   flit-accurate even though events are per segment. Segments are
//!   forwarded hop by hop (store-and-forward at segment granularity plus a
//!   configurable per-switch latency); for the multi-hundred-segment
//!   messages of the paper's workloads the extra pipeline fill latency is
//!   below 1 % of the message duration.
//! * **Flow control.** Each directed channel has a finite number of
//!   downstream input-buffer slots (credits, in segments). A segment only
//!   starts transmission when a credit is available; the credit is returned
//!   when the segment leaves that buffer (starts on its next channel or is
//!   consumed by the destination adapter). Output contention is resolved in
//!   arrival order (FIFO), which approximates the round-robin output
//!   arbitration of the reference switch.
//! * **Adapters.** Each source adapter holds the set of its active messages
//!   and interleaves them round-robin at segment boundaries — exactly the
//!   paper's adapter model. The level-0 up/down channels of the XGFT are the
//!   injection/ejection links, so endpoint contention appears naturally as
//!   serialization on the level-0 down channel of the destination.
//! * **Full-Crossbar.** The ideal single-stage reference network of the
//!   paper is the degenerate `XGFT(1; N; 1)` — a single switch connecting
//!   all N nodes — and is a plain [`NetworkSim`] on [`crossbar_xgft`] with
//!   the unlimited-buffer [`crossbar_config`]; there is no separate crossbar
//!   simulator type.
//!
//! ## Quick example
//!
//! ```
//! use xgft_netsim::{NetworkConfig, NetworkSim};
//! use xgft_topo::{Route, Xgft, XgftSpec};
//!
//! let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
//! let mut sim = NetworkSim::new(&xgft, NetworkConfig::default());
//! // 64 KB from node 0 to node 5 through root 2.
//! sim.schedule_message(0, 0, 5, 64 * 1024, Route::new(vec![0, 2]));
//! let report = sim.run_to_completion();
//! assert_eq!(report.completed_messages, 1);
//! assert!(report.makespan_ps > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod config;
pub mod crossbar;
pub mod event;
pub mod message;
pub mod sim;
pub mod stats;

pub use batch::InjectionBatch;
pub use config::{NetworkConfig, SwitchingMode};
pub use crossbar::{crossbar_config, crossbar_xgft};
pub use message::{MessageId, MessageStatus};
pub use sim::{Completion, FailurePolicy, NetworkSim};
pub use stats::SimReport;
