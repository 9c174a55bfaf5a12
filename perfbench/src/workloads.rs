//! The benchmark's workloads: one `ScenarioSpec` template each, with every
//! seed stream overridden by the `--seed` argument.

use xgft_scenario::{ScenarioSpec, SeedSpec};

/// The seed at which the pinned check values in `pinned/` apply.
pub const DEFAULT_SEED: u64 = 1;

/// Worker count of the end-to-end passes.
pub const WORKERS: usize = 2;

/// The benchmark's workloads, in catalogue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,048,576 leaves, shift traffic, compact closed-form routes, Flow engine.
    MillionFlow,
    /// The paper's CG slowdown campaign at 1024 ranks over a w2 sweep.
    CgCampaign,
    /// A 16-epoch fault/repair timeline driven through netsim.
    ChaosTimeline,
}

pub const ALL: [Workload; 3] = [
    Workload::MillionFlow,
    Workload::CgCampaign,
    Workload::ChaosTimeline,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MillionFlow => "million_flow",
            Workload::CgCampaign => "cg_campaign",
            Workload::ChaosTimeline => "chaos_timeline",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (expected one of {names:?})")
        })
    }

    fn template(self) -> &'static str {
        match self {
            Workload::MillionFlow => include_str!("../specs/million_flow.json"),
            Workload::CgCampaign => include_str!("../specs/cg_campaign.json"),
            Workload::ChaosTimeline => include_str!("../specs/chaos_timeline.json"),
        }
    }

    /// The workload's spec with every seed stream rooted at `seed`.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let mut spec: ScenarioSpec =
            serde_json::from_str(self.template()).expect("spec templates are valid JSON specs");
        spec.seeds = match spec.seeds {
            SeedSpec::List { .. } => SeedSpec::List { seeds: vec![seed] },
            SeedSpec::Stream {
                seeds_per_point, ..
            } => SeedSpec::Stream {
                base_seed: seed,
                seeds_per_point,
            },
        };
        spec
    }

    /// The spec as the text a user would hand to `xgft run`.
    pub fn spec_text(self, seed: u64) -> String {
        serde_json::to_string(&self.spec(seed)).expect("specs serialize")
    }

    /// The check values pinned at [`DEFAULT_SEED`].
    pub fn pinned(self) -> &'static str {
        match self {
            Workload::MillionFlow => include_str!("../pinned/million_flow.txt"),
            Workload::CgCampaign => include_str!("../pinned/cg_campaign.txt"),
            Workload::ChaosTimeline => include_str!("../pinned/chaos_timeline.txt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_validates_and_takes_the_seed() {
        for workload in ALL {
            assert_eq!(Workload::parse(workload.name()), Ok(workload));
            let spec = workload.spec(77);
            match &spec.seeds {
                SeedSpec::List { seeds } => assert_eq!(seeds, &[77]),
                SeedSpec::Stream { base_seed, .. } => assert_eq!(*base_seed, 77),
            }
            let reparsed: ScenarioSpec = serde_json::from_str(&workload.spec_text(77)).unwrap();
            assert_eq!(reparsed, spec);
        }
        assert!(Workload::parse("hit").is_err());
    }
}
