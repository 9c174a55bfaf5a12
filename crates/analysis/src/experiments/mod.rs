//! One driver per table / figure of the paper.
//!
//! Every submodule exposes a `run(...)` entry point returning a serialisable
//! result struct with a `render()` method that prints the same rows/series
//! the paper reports. The `xgft` command line runs each of them by name;
//! each module's docs note how its output compares to the paper's reported
//! numbers. Figs. 2 and 5 are slimming sweeps ([`crate::sweep`]) that the
//! `xgft fig2_*`/`fig5_*` registry entries run; [`fig5`] holds only the
//! claims drawn from Fig. 5.

pub mod ablation;
pub mod equivalence;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod flow_mcl;
pub mod synthetic;
pub mod table1;

use xgft_core::AlgorithmSpec;

/// The oblivious schemes in the order the Fig. 4 and synthetic tables list
/// them: the deterministic pair, then the seeded schemes.
pub const OBLIVIOUS_SCHEMES: [AlgorithmSpec; 5] = [
    AlgorithmSpec::SModK,
    AlgorithmSpec::DModK,
    AlgorithmSpec::Random,
    AlgorithmSpec::RandomNcaUp,
    AlgorithmSpec::RandomNcaDown,
];
