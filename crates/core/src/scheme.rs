//! [`AlgorithmSpec`]: the one table of the paper's routing schemes.
//!
//! Every engine needs four facts about a scheme: the name the paper's
//! legends use, whether it takes a seed, how to build it, and its
//! label-arithmetic closed form. Each fact is written down here once, as
//! one match over [`AlgorithmSpec`]; the `RoutingAlgorithm::name` impls,
//! [`CompactScheme::name`], the analytical flow sweep, the trace sweeps and
//! the scenario layer's serialized scheme names all read this table.

use crate::{
    ColoredRouting, CompactScheme, DModK, RandomNcaDown, RandomNcaUp, RandomRouting,
    RouteDistribution, SModK,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use xgft_patterns::{ConnectivityMatrix, Pattern};
use xgft_topo::Xgft;

/// One of the paper's routing schemes. Deterministic schemes are run once
/// per machine; seeded schemes once per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// Static random NCA selection (seeded).
    Random,
    /// Source-mod-k (deterministic).
    SModK,
    /// Destination-mod-k (deterministic).
    DModK,
    /// Random NCA Up — the paper's proposal, source-guided (seeded).
    RandomNcaUp,
    /// Random NCA Down — the paper's proposal, destination-guided (seeded).
    RandomNcaDown,
    /// Pattern-aware baseline (deterministic, sees the pattern).
    Colored,
}

/// A scheme name [`AlgorithmSpec::parse`] does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme(pub String);

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheme `{}` (expected one of {:?})",
            self.0,
            AlgorithmSpec::ALL.map(|a| a.name())
        )
    }
}

impl std::error::Error for UnknownScheme {}

impl AlgorithmSpec {
    /// Every scheme, in the order the paper introduces them.
    pub const ALL: [AlgorithmSpec; 6] = [
        AlgorithmSpec::Random,
        AlgorithmSpec::SModK,
        AlgorithmSpec::DModK,
        AlgorithmSpec::RandomNcaUp,
        AlgorithmSpec::RandomNcaDown,
        AlgorithmSpec::Colored,
    ];

    /// The name used in reports (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Random => "random",
            AlgorithmSpec::SModK => "s-mod-k",
            AlgorithmSpec::DModK => "d-mod-k",
            AlgorithmSpec::RandomNcaUp => "r-NCA-u",
            AlgorithmSpec::RandomNcaDown => "r-NCA-d",
            AlgorithmSpec::Colored => "colored",
        }
    }

    /// The scheme whose [`Self::name`] is `name`.
    pub fn parse(name: &str) -> Result<AlgorithmSpec, UnknownScheme> {
        AlgorithmSpec::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| UnknownScheme(name.to_string()))
    }

    /// True if the algorithm consumes a seed (and therefore gets a boxplot).
    pub fn is_seeded(&self) -> bool {
        matches!(
            self,
            AlgorithmSpec::Random | AlgorithmSpec::RandomNcaUp | AlgorithmSpec::RandomNcaDown
        )
    }

    /// The full set evaluated by Fig. 2 (classic oblivious schemes).
    pub fn figure2_set() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::Random,
            AlgorithmSpec::SModK,
            AlgorithmSpec::DModK,
            AlgorithmSpec::Colored,
        ]
    }

    /// The full set evaluated by Fig. 5 (proposals plus references).
    pub fn figure5_set() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::SModK,
            AlgorithmSpec::DModK,
            AlgorithmSpec::Colored,
            AlgorithmSpec::RandomNcaUp,
            AlgorithmSpec::RandomNcaDown,
            AlgorithmSpec::Random,
        ]
    }

    /// Build the scheme for a machine and seed (deterministic schemes
    /// ignore the seed). Only Colored calls `connectivity`, for the
    /// pattern it optimises, so the oblivious schemes never pay for it.
    pub fn build(
        &self,
        xgft: &Xgft,
        seed: u64,
        connectivity: impl FnOnce() -> ConnectivityMatrix,
    ) -> Box<dyn RouteDistribution + Send + Sync> {
        match self {
            AlgorithmSpec::Random => Box::new(RandomRouting::new(seed)),
            AlgorithmSpec::SModK => Box::new(SModK::new()),
            AlgorithmSpec::DModK => Box::new(DModK::new()),
            AlgorithmSpec::RandomNcaUp => Box::new(RandomNcaUp::new(xgft, seed)),
            AlgorithmSpec::RandomNcaDown => Box::new(RandomNcaDown::new(xgft, seed)),
            AlgorithmSpec::Colored => Box::new(ColoredRouting::new(xgft, &connectivity())),
        }
    }

    /// [`Self::build`] for a workload pattern (Colored optimises its
    /// combined matrix).
    pub fn instantiate(
        &self,
        xgft: &Xgft,
        pattern: &Pattern,
        seed: u64,
    ) -> Box<dyn RouteDistribution + Send + Sync> {
        self.build(xgft, seed, || pattern.combined())
    }

    /// The label-arithmetic closed form of the scheme, or `None` for the
    /// pattern-aware colored scheme, which has none. For seeded schemes the
    /// same seed yields paths byte-identical to [`Self::build`]'s.
    pub fn closed_form(&self) -> Option<fn(&Xgft, u64) -> CompactScheme> {
        Some(match self {
            AlgorithmSpec::Random => |_, seed| CompactScheme::Random { seed },
            AlgorithmSpec::SModK => |_, _| CompactScheme::SModK,
            AlgorithmSpec::DModK => |_, _| CompactScheme::DModK,
            AlgorithmSpec::RandomNcaUp => CompactScheme::random_nca_up,
            AlgorithmSpec::RandomNcaDown => CompactScheme::random_nca_down,
            AlgorithmSpec::Colored => return None,
        })
    }

    /// The [`CompactScheme`] of [`Self::closed_form`] on a machine for a
    /// seed.
    pub fn compact_scheme(&self, xgft: &Xgft, seed: u64) -> Option<CompactScheme> {
        self.closed_form()
            .map(|closed_form| closed_form(xgft, seed))
    }
}
