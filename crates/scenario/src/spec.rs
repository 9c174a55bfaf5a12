//! The declarative [`ScenarioSpec`]: one experiment as serializable data.
//!
//! A spec is the full description of a grid point of the paper's (and this
//! repository's extended) evaluation:
//!
//! ```text
//! ScenarioSpec = topology × schemes × workload × faults × engine
//!                × sweep axis × seed policy × network parameters
//! ```
//!
//! Specs round-trip losslessly through JSON (`serde_json`) and TOML
//! ([`crate::toml`]); the [`crate::runner`] lowers them onto the compiled
//! route-table / campaign / resilience machinery. `schema_version` is
//! checked on load so old tooling fails loudly on specs from the future.

use crate::runner::{Grid, Plan, Routes};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use xgft_analysis::{AlgorithmSpec, ChaosConfig, ResilienceConfig, SweepConfig};
use xgft_core::CompactScheme;
use xgft_netsim::NetworkConfig;
use xgft_patterns::Pattern;
pub use xgft_patterns::WorkloadSpec;
use xgft_topo::{Xgft, XgftSpec};

/// The spec schema version this crate reads and writes.
pub const SPEC_SCHEMA_VERSION: u32 = 1;

/// Everything that can go wrong while validating or lowering a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec's `schema_version` is not supported by this build.
    UnsupportedSchema(u32),
    /// A structurally invalid field combination, with an explanation.
    Invalid(String),
    /// A run broke an invariant its result rests on: `invariant` names it,
    /// `detail` gives the numbers that broke it.
    Invariant {
        /// The violated invariant, e.g. `delivered + dropped = offered`.
        invariant: &'static str,
        /// The observed values.
        detail: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnsupportedSchema(v) => write!(
                f,
                "unsupported scenario schema_version {v} (this build reads {SPEC_SCHEMA_VERSION})"
            ),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Invariant { invariant, detail } => {
                write!(f, "invariant violated: {invariant} ({detail})")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

/// Why the Tracesim machinery rejects every topology but the slimming family.
const TRACESIM_TOPOLOGY: &str = "the Tracesim engine currently requires a SlimmedTwoLevel \
                                 topology (its crossbar-relative sweep is defined on the \
                                 slimming family)";

/// The first item of `items` that repeats an earlier one.
fn first_duplicate<T: PartialEq>(items: &[T]) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find(|(i, item)| items[..*i].contains(item))
        .map(|(_, item)| item)
}

/// The closed form the compact representation routes `scheme` by.
fn closed_form(scheme: SchemeSpec) -> Result<fn(&Xgft, u64) -> CompactScheme, ScenarioError> {
    scheme.0.closed_form().ok_or_else(|| {
        invalid("representation = compact has no closed form for the pattern-aware colored scheme")
    })
}

/// How `scheme`'s grid jobs route under `representation`.
fn routes(scheme: SchemeSpec, representation: RepresentationSpec) -> Result<Routes, ScenarioError> {
    Ok(match representation {
        RepresentationSpec::Compiled => Routes::Compiled,
        RepresentationSpec::Compact => Routes::Compact(closed_form(scheme)?),
    })
}

/// The machine under test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The paper's slimming family `XGFT(2; k, k; 1, w2)`.
    SlimmedTwoLevel {
        /// Switch radix (and first-level width) `k`.
        k: usize,
        /// Number of top-level switches (`w2 = k` is the full tree).
        w2: usize,
    },
    /// A full k-ary n-tree.
    KAryNTree {
        /// Switch radix.
        k: usize,
        /// Tree height.
        n: usize,
    },
    /// An arbitrary `XGFT(h; m1..mh; w1..wh)`.
    Custom {
        /// Children per switch, bottom-up (`m1..mh`).
        m: Vec<usize>,
        /// Parents per node, bottom-up (`w1..wh`).
        w: Vec<usize>,
    },
}

impl TopologySpec {
    /// Lower to the topology crate's [`XgftSpec`].
    pub fn to_xgft(&self) -> Result<XgftSpec, ScenarioError> {
        match self {
            TopologySpec::SlimmedTwoLevel { k, w2 } => {
                XgftSpec::slimmed_two_level(*k, *w2).map_err(|e| invalid(format!("topology: {e}")))
            }
            TopologySpec::KAryNTree { k, n } => {
                if *k < 2 || *n < 1 {
                    return Err(invalid(format!("topology: bad k-ary n-tree ({k}, {n})")));
                }
                Ok(XgftSpec::k_ary_n_tree(*k, *n))
            }
            TopologySpec::Custom { m, w } => {
                XgftSpec::new(m.clone(), w.clone()).map_err(|e| invalid(format!("topology: {e}")))
            }
        }
    }
}

/// A routing scheme, serialized by its paper name (`"d-mod-k"`,
/// `"r-NCA-u"`, …) so specs read like the paper's legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeSpec(pub AlgorithmSpec);

impl SchemeSpec {
    /// The paper name (`"d-mod-k"`, …).
    pub fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl Serialize for SchemeSpec {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for SchemeSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a scheme name string"))?;
        AlgorithmSpec::parse(name)
            .map(SchemeSpec)
            .map_err(serde::Error::custom)
    }
}

/// The route representation the engines inject from.
///
/// Serialized by its lowercase name (`"compiled"` / `"compact"`); specs
/// written before the field existed deserialize to [`Self::Compiled`], the
/// historical behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepresentationSpec {
    /// The flat indexed [`xgft_core::CompiledRouteTable`]: O(1) lookups out
    /// of dense per-source arrays, O(pairs × path) memory.
    #[default]
    Compiled,
    /// The closed-form [`xgft_core::CompactRoutes`] engine: every hop
    /// computed from the pair's labels, near-zero route state — the only
    /// representation that reaches million-leaf machines.
    Compact,
}

impl RepresentationSpec {
    /// The serialized name (`"compiled"` / `"compact"`).
    pub fn name(&self) -> &'static str {
        match self {
            RepresentationSpec::Compiled => "compiled",
            RepresentationSpec::Compact => "compact",
        }
    }

    /// Parse a serialized name.
    pub fn parse(name: &str) -> Result<RepresentationSpec, ScenarioError> {
        match name {
            "compiled" => Ok(RepresentationSpec::Compiled),
            "compact" => Ok(RepresentationSpec::Compact),
            other => Err(invalid(format!(
                "unknown representation `{other}` (expected \"compiled\" or \"compact\")"
            ))),
        }
    }
}

impl Serialize for RepresentationSpec {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for RepresentationSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a representation name string"))?;
        RepresentationSpec::parse(name).map_err(serde::Error::custom)
    }
}

/// The evaluation engine a scenario runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Full trace replay (Send/Recv dependencies) through the event-driven
    /// simulator — the figures' slowdown-vs-crossbar path.
    Tracesim,
    /// Direct injection: every flow scheduled into the event-driven
    /// simulator at t = 0 (no dependencies); reports makespan and
    /// per-channel busy maxima.
    Netsim,
    /// The closed-form channel-load model (`xgft-flow`): expected MCL and
    /// congestion ratio, no simulation, no seed axis.
    Flow,
    /// Routes-per-NCA distributions of the listed oblivious schemes over all
    /// pairs (Fig. 4's metric; no traffic replay; colored is rejected).
    Nca,
    /// Run flow + netsim + tracesim on the same compiled tables and check
    /// they agree channel by channel.
    AllWithAgreement,
}

/// The fault model applied to the machine before routing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Pristine machine.
    None,
    /// Uniform link failures at each listed rate (permille, so the spec
    /// stays integral), `draws_per_point` fault sets per (scheme, rate).
    UniformLinks {
        /// Failure rates in permille (10 = 1%).
        permille: Vec<u32>,
        /// Independent fault draws per (scheme, rate) point.
        draws_per_point: usize,
    },
}

/// The topology sweep axis: a list of `w2` values over the slimming family.
/// Empty = evaluate the base topology only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Top-level widths to sweep (descending by convention).
    pub w2_values: Vec<usize>,
}

impl SweepSpec {
    /// No sweep: evaluate the base topology as-is.
    pub fn none() -> Self {
        SweepSpec {
            w2_values: Vec::new(),
        }
    }

    /// Sweep the listed `w2` values.
    pub fn over(w2_values: Vec<usize>) -> Self {
        SweepSpec { w2_values }
    }
}

/// Where randomised schemes get their seeds: the sweep's seed policy,
/// defined by `xgft-analysis` and serialized under this name.
pub use xgft_analysis::SeedSpec;

/// A chaos campaign riding on the scenario: a deterministic, seeded
/// timeline of fault/repair incidents driven through the event simulator,
/// with per-epoch SLA metrics (see `xgft_analysis::chaos`). All knobs are
/// integers so the serialized form never depends on float formatting.
///
/// Present only when the scenario *is* a chaos run (`engine = "Netsim"`,
/// `faults = "None"`); the key is omitted entirely from serialized specs
/// otherwise, so pre-chaos specs and fixtures are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Number of epochs in the campaign.
    pub epochs: usize,
    /// Epoch length in picoseconds (the mid-epoch strike window).
    pub epoch_ps: u64,
    /// Per-epoch, per-cable link failure probability in permille.
    pub link_fail_permille: u32,
    /// Per-epoch probability (permille) of one top-level switch dying.
    pub switch_kill_permille: u32,
    /// Per-epoch probability (permille) of a correlated top-level cable
    /// cut.
    pub cable_cut_permille: u32,
    /// Epochs an incident stays active before its repair lands.
    pub repair_epochs: usize,
}

/// One fully described experiment. See the module docs for the shape and
/// `examples/scenarios/` in the repository root for annotated instances.
///
/// ```
/// use xgft_core::AlgorithmSpec;
/// use xgft_scenario::{ScenarioSpec, SchemeSpec, TopologySpec, WorkloadSpec};
///
/// let spec = ScenarioSpec::basic(
///     "doc",
///     TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
///     WorkloadSpec::new("wrf", 16, 32 * 1024),
///     vec![SchemeSpec(AlgorithmSpec::parse("d-mod-k").unwrap())],
/// );
/// spec.validate().unwrap();
/// // Specs round-trip losslessly through JSON (and TOML).
/// let json = serde_json::to_string(&spec).unwrap();
/// let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Spec schema version; must equal [`SPEC_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Scenario label, carried into results.
    pub name: String,
    /// The machine under test (the sweep, if any, varies its `w2`).
    pub topology: TopologySpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// The routing schemes to evaluate.
    pub schemes: Vec<SchemeSpec>,
    /// The evaluation engine.
    pub engine: EngineSpec,
    /// The route representation the engine injects from.
    pub representation: RepresentationSpec,
    /// The fault model.
    pub faults: FaultSpec,
    /// The chaos campaign, when the scenario is one (`Netsim` engine).
    pub chaos: Option<ChaosSpec>,
    /// The topology sweep axis.
    pub sweep: SweepSpec,
    /// The seed policy for randomised schemes.
    pub seeds: SeedSpec,
    /// Network parameters (links, flits, buffers).
    pub network: NetworkConfig,
}

/// Hand-written (not derived) so the `chaos` key is *omitted* when absent:
/// non-chaos specs stay byte-identical to the pre-chaos schema (pinned by
/// the golden fixtures), and the TOML form — which cannot represent null —
/// keeps round-tripping.
impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                Serialize::to_value(&self.schema_version),
            ),
            ("name".to_string(), Serialize::to_value(&self.name)),
            ("topology".to_string(), self.topology.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("schemes".to_string(), self.schemes.to_value()),
            ("engine".to_string(), self.engine.to_value()),
            ("representation".to_string(), self.representation.to_value()),
            ("faults".to_string(), self.faults.to_value()),
        ];
        if let Some(chaos) = &self.chaos {
            fields.push(("chaos".to_string(), chaos.to_value()));
        }
        fields.push(("sweep".to_string(), self.sweep.to_value()));
        fields.push(("seeds".to_string(), self.seeds.to_value()));
        fields.push(("network".to_string(), self.network.to_value()));
        Value::Object(fields)
    }
}

/// Hand-rolled so `representation` and `chaos` can default: the derive's
/// `obj_field` hard-errors on missing fields, which would reject every
/// spec written before those fields existed.
impl Deserialize for ScenarioSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, serde::Error> {
            T::from_value(serde::obj_field(value, name)?)
        }
        let representation = match serde::obj_field(value, "representation") {
            Ok(v) => RepresentationSpec::from_value(v)?,
            Err(_) => RepresentationSpec::Compiled,
        };
        let chaos = match serde::obj_field(value, "chaos") {
            Ok(v) => Some(ChaosSpec::from_value(v)?),
            Err(_) => None,
        };
        Ok(ScenarioSpec {
            schema_version: field(value, "schema_version")?,
            name: field(value, "name")?,
            topology: field(value, "topology")?,
            workload: field(value, "workload")?,
            schemes: field(value, "schemes")?,
            engine: field(value, "engine")?,
            representation,
            faults: field(value, "faults")?,
            chaos,
            sweep: field(value, "sweep")?,
            seeds: field(value, "seeds")?,
            network: field(value, "network")?,
        })
    }
}

impl ScenarioSpec {
    /// A minimal valid scenario to build on: tracesim engine, no faults,
    /// no sweep, three seeds, default network.
    pub fn basic(
        name: impl Into<String>,
        topology: TopologySpec,
        workload: WorkloadSpec,
        schemes: Vec<SchemeSpec>,
    ) -> Self {
        ScenarioSpec {
            schema_version: SPEC_SCHEMA_VERSION,
            name: name.into(),
            topology,
            workload,
            schemes,
            engine: EngineSpec::Tracesim,
            representation: RepresentationSpec::Compiled,
            faults: FaultSpec::None,
            chaos: None,
            sweep: SweepSpec::none(),
            seeds: SeedSpec::List {
                seeds: vec![1, 2, 3],
            },
            network: NetworkConfig::default(),
        }
    }

    /// The swept topology list: the base machine at each `w2` of the sweep,
    /// or just the base machine when the sweep is empty.
    pub fn topologies(&self) -> Result<Vec<XgftSpec>, ScenarioError> {
        if self.sweep.w2_values.is_empty() {
            return Ok(vec![self.topology.to_xgft()?]);
        }
        // Only the slimming family has a w2 axis.
        let TopologySpec::SlimmedTwoLevel { k, .. } = self.topology else {
            return Err(invalid(format!(
                "sweep.w2_values requires a SlimmedTwoLevel topology, got {:?}",
                self.topology
            )));
        };
        self.sweep
            .w2_values
            .iter()
            .map(|&w2| TopologySpec::SlimmedTwoLevel { k, w2 }.to_xgft())
            .collect()
    }

    /// Structural validation: every error the runner would otherwise hit
    /// mid-flight, reported up front with a message naming the field. This
    /// is the lowering [`run_scenario`](crate::run_scenario) performs, with
    /// the plan dropped.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.lower().map(|_| ())
    }

    /// Lower the spec, once, into the [`Plan`] its engine runs, together
    /// with the workload pattern (materialised here and nowhere else: an
    /// `all_to_all` on a 4096-leaf machine is ~16.7M flows). Every
    /// validation rule lives here. An invalid `(engine, faults, chaos,
    /// seeds, representation)` combination is an arm of the one match
    /// below that returns a typed error, so the runner's match over the
    /// plan has no unreachable arms.
    pub(crate) fn lower(&self) -> Result<(Plan, Pattern), ScenarioError> {
        if self.schema_version != SPEC_SCHEMA_VERSION {
            return Err(ScenarioError::UnsupportedSchema(self.schema_version));
        }
        if self.name.is_empty() {
            return Err(invalid("name must be non-empty"));
        }
        if self.schemes.is_empty() {
            return Err(invalid("schemes must be non-empty"));
        }
        // Each scheme and w2 value is one point of the result; a repeat
        // would run the point twice under the same seeds.
        if let Some(scheme) = first_duplicate(&self.schemes) {
            return Err(invalid(format!("schemes lists `{}` twice", scheme.name())));
        }
        if let Some(w2) = first_duplicate(&self.sweep.w2_values) {
            return Err(invalid(format!("sweep.w2_values lists {w2} twice")));
        }
        // Segment and flit sizes divide message sizes, and the link rate
        // divides serialization times.
        let network = &self.network;
        if network.segment_bytes == 0 {
            return Err(invalid("network.segment_bytes must be at least 1"));
        }
        if network.flit_bytes == 0 {
            return Err(invalid("network.flit_bytes must be at least 1"));
        }
        let gbps = network.link_bandwidth_gbps;
        if !(gbps.is_finite() && gbps > 0.0) {
            return Err(invalid(format!(
                "network.link_bandwidth_gbps must be finite and positive, got {gbps}"
            )));
        }
        // The simulators work in picoseconds: `switch_latency_ps` multiplies
        // by 1000, which must not overflow.
        if network.switch_latency_ns > u64::MAX / 1000 {
            return Err(invalid(format!(
                "network.switch_latency_ns must be at most {}, got {}",
                u64::MAX / 1000,
                network.switch_latency_ns
            )));
        }
        if matches!(
            self.seeds,
            SeedSpec::Stream {
                seeds_per_point: 0,
                ..
            }
        ) {
            return Err(invalid("seeds.Stream.seeds_per_point must be at least 1"));
        }
        let topologies = self.topologies()?;
        let pattern = self
            .workload
            .pattern()
            .map_err(|e| invalid(e.to_string()))?;
        for spec in &topologies {
            if pattern.num_nodes() > spec.num_leaves() {
                return Err(invalid(format!(
                    "workload has {} ranks but {} has only {} leaves",
                    pattern.num_nodes(),
                    spec,
                    spec.num_leaves()
                )));
            }
        }
        let algorithms = || self.schemes.iter().map(|s| s.0).collect();
        use EngineSpec::{AllWithAgreement, Flow, Nca, Netsim, Tracesim};
        use FaultSpec::UniformLinks;
        use RepresentationSpec::{Compact, Compiled};
        use SeedSpec::{List, Stream};
        let plan = match (
            self.engine,
            &self.faults,
            &self.chaos,
            &self.seeds,
            self.representation,
        ) {
            (
                Netsim,
                FaultSpec::None,
                Some(chaos),
                &Stream {
                    base_seed,
                    seeds_per_point,
                },
                Compiled,
            ) => {
                let (k, w2) =
                    self.one_machine("chaos", "chaos requires a SlimmedTwoLevel topology")?;
                if chaos.epochs == 0 {
                    return Err(invalid("chaos.epochs must be at least 1"));
                }
                if chaos.epoch_ps == 0 {
                    return Err(invalid("chaos.epoch_ps must be positive"));
                }
                for (name, permille) in [
                    ("link_fail_permille", chaos.link_fail_permille),
                    ("switch_kill_permille", chaos.switch_kill_permille),
                    ("cable_cut_permille", chaos.cable_cut_permille),
                ] {
                    if permille > 1000 {
                        return Err(invalid(format!("chaos.{name} must be <= 1000")));
                    }
                }
                Ok(Plan::Chaos(ChaosConfig {
                    name: self.name.clone(),
                    k,
                    w2,
                    algorithms: algorithms(),
                    epochs: chaos.epochs,
                    epoch_ps: chaos.epoch_ps,
                    link_fail_permille: chaos.link_fail_permille,
                    switch_kill_permille: chaos.switch_kill_permille,
                    cable_cut_permille: chaos.cable_cut_permille,
                    repair_epochs: chaos.repair_epochs,
                    seeds_per_point,
                    base_seed,
                    network: self.network.clone(),
                }))
            }
            (Tracesim | Flow | Nca | AllWithAgreement, _, Some(_), _, _) => Err(invalid(
                "chaos campaigns drive the event simulator directly; set engine = \"Netsim\"",
            )),
            (_, UniformLinks { .. }, Some(_), _, _) => Err(invalid(
                "chaos generates its own fault timeline; set faults = \"None\"",
            )),
            (_, _, Some(_), _, Compact) => Err(invalid(
                "chaos repatches compiled route tables; set representation = \"compiled\"",
            )),
            (_, _, Some(_), List { .. }, _) => Err(invalid(
                "chaos requires SeedSpec::Stream (the timeline and shard seeds are derived \
                 from base_seed)",
            )),
            // Every trace slowdown divides by the Full-Crossbar completion
            // time, which is 0 ps when no message crosses the network.
            (Tracesim, _, None, _, _)
                if pattern
                    .phases()
                    .iter()
                    .all(|p| p.network_flows().next().is_none()) =>
            {
                Err(invalid(format!(
                    "workload `{}` sends no message between distinct ranks; the Tracesim \
                     engine normalises by the Full-Crossbar time, which would be 0 ps",
                    pattern.name()
                )))
            }
            (
                Tracesim,
                UniformLinks {
                    permille,
                    draws_per_point,
                },
                None,
                &Stream { base_seed, .. },
                Compiled,
            ) => {
                if permille.is_empty() {
                    return Err(invalid("faults.permille must be non-empty"));
                }
                if permille.iter().any(|&p| p > 1000) {
                    return Err(invalid("faults.permille rates must be <= 1000"));
                }
                if let Some(rate) = first_duplicate(permille) {
                    return Err(invalid(format!("faults.permille lists {rate} twice")));
                }
                if *draws_per_point == 0 {
                    return Err(invalid("faults.draws_per_point must be at least 1"));
                }
                let (k, w2) = self.one_machine("fault", TRACESIM_TOPOLOGY)?;
                Ok(Plan::Resilience(ResilienceConfig {
                    name: self.name.clone(),
                    k,
                    w2,
                    algorithms: algorithms(),
                    failure_permille: permille.clone(),
                    faults_per_point: *draws_per_point,
                    base_seed,
                    network: self.network.clone(),
                }))
            }
            (_, UniformLinks { .. }, None, _, Compact) => Err(invalid(
                "representation = compact does not drive fault campaigns; the compact \
                 fault-patch overlay is exercised at the engine level (UndoableTable over \
                 CompactRoutes)",
            )),
            (Tracesim, UniformLinks { .. }, None, List { .. }, Compiled) => Err(invalid(
                "faults require SeedSpec::Stream (point-local fault seed streams)",
            )),
            (_, UniformLinks { .. }, None, _, Compiled) => Err(invalid(
                "faults currently require the Tracesim engine (the resilience campaign)",
            )),
            (Tracesim, FaultSpec::None, None, seeds, representation) => {
                let (k, w2_values) = self.slimmed_sweep(TRACESIM_TOPOLOGY)?;
                if let List { seeds } = seeds {
                    self.require_seeds(seeds)?;
                }
                if representation == Compact {
                    for scheme in &self.schemes {
                        closed_form(*scheme)?;
                    }
                }
                let config = SweepConfig {
                    k,
                    w2_values,
                    algorithms: algorithms(),
                    seeds: seeds.clone(),
                    network: self.network.clone(),
                };
                Ok(Plan::Trace {
                    name: self.name.clone(),
                    config,
                    representation,
                })
            }
            // Only the trace sweep, the resilience campaign and the chaos
            // lab implement point-local seed streams; every other engine
            // would silently ignore them.
            (_, FaultSpec::None, None, Stream { .. }, _) => Err(invalid(
                "SeedSpec::Stream requires the Tracesim engine or a chaos campaign; other \
                 engines take an explicit SeedSpec::List",
            )),
            (Flow, FaultSpec::None, None, List { .. }, Compiled) => Ok(Plan::Flow {
                specs: topologies,
                schemes: algorithms(),
            }),
            // The Flow engine evaluates randomised schemes by their
            // closed-form expectation, so an empty seed list is allowed.
            (Flow, FaultSpec::None, None, List { seeds }, Compact) => self
                .grid(topologies, seeds, closed_form)
                .map(Plan::CompactFlow),
            (Nca, FaultSpec::None, None, List { seeds }, Compiled) if seeds.is_empty() => {
                Err(invalid(
                    "the Nca engine needs a non-empty seeds.List (the randomised schemes' \
                     distributions are sampled per seed)",
                ))
            }
            (Nca, FaultSpec::None, None, List { .. }, Compiled)
                if self.schemes.contains(&SchemeSpec(AlgorithmSpec::Colored)) =>
            {
                Err(invalid(
                    "the Nca engine reports all-pairs route distributions, which the \
                     pattern-aware colored scheme does not define; list oblivious schemes only",
                ))
            }
            (Nca, FaultSpec::None, None, List { seeds }, Compiled) => Ok(Plan::Nca {
                topologies,
                schemes: algorithms(),
                seeds: seeds.clone(),
            }),
            (Nca, FaultSpec::None, None, List { .. }, Compact) => Err(invalid(
                "the Nca engine reports route distributions and has no representation axis",
            )),
            (Netsim, FaultSpec::None, None, List { seeds }, representation) => {
                self.require_seeds(seeds)?;
                self.grid(topologies, seeds, |s| routes(s, representation))
                    .map(Plan::Direct)
            }
            (AllWithAgreement, FaultSpec::None, None, List { seeds }, representation) => {
                self.require_seeds(seeds)?;
                // One representative instance per scheme: the agreement
                // claim is per-instance (exact), so one seed suffices.
                let first = &seeds[..seeds.len().min(1)];
                self.grid(topologies, first, |s| routes(s, representation))
                    .map(Plan::Agreement)
            }
        }?;
        Ok((plan, pattern))
    }

    /// A seeded scheme needs at least one seed to run.
    fn require_seeds(&self, seeds: &[u64]) -> Result<(), ScenarioError> {
        if seeds.is_empty() && self.schemes.iter().any(|s| s.0.is_seeded()) {
            return Err(invalid("seeds.List is empty but a seeded scheme is listed"));
        }
        Ok(())
    }

    /// `(k, swept w2 values)` of the slimming family: the sweep, or the
    /// base machine's `w2` alone when the sweep is empty.
    fn slimmed_sweep(&self, not_slimmed: &str) -> Result<(usize, Vec<usize>), ScenarioError> {
        let TopologySpec::SlimmedTwoLevel { k, w2 } = self.topology else {
            return Err(invalid(not_slimmed));
        };
        let w2_values = if self.sweep.w2_values.is_empty() {
            vec![w2]
        } else {
            self.sweep.w2_values.clone()
        };
        Ok((k, w2_values))
    }

    /// `(k, w2)` of the one slimmed machine a fault or chaos campaign runs.
    fn one_machine(&self, what: &str, not_slimmed: &str) -> Result<(usize, usize), ScenarioError> {
        match self.slimmed_sweep(not_slimmed)? {
            (k, w2_values) if w2_values.len() == 1 => Ok((k, w2_values[0])),
            _ => Err(invalid(format!(
                "a {what} campaign runs one machine; leave sweep.w2_values empty or give a \
                 single value"
            ))),
        }
    }

    /// The jobs of the grid engines over `topologies`, each built once:
    /// per scheme one job (seed 0) if it is deterministic, or one per seed
    /// of `seeds` if it is seeded. `routes` says how a scheme's jobs route.
    fn grid<R: Copy>(
        &self,
        topologies: Vec<XgftSpec>,
        seeds: &[u64],
        routes: impl Fn(SchemeSpec) -> Result<R, ScenarioError>,
    ) -> Result<Grid<R>, ScenarioError> {
        let mut jobs = Vec::new();
        for &scheme in &self.schemes {
            let routes = routes(scheme)?;
            if scheme.0.is_seeded() {
                jobs.extend(seeds.iter().map(|&seed| (scheme, seed, routes)));
            } else {
                jobs.push((scheme, 0, routes));
            }
        }
        let machines = topologies
            .into_iter()
            .map(|spec| {
                let xgft =
                    Xgft::new(spec.clone()).map_err(|e| invalid(format!("topology: {e}")))?;
                Ok((spec, xgft))
            })
            .collect::<Result<_, ScenarioError>>()?;
        Ok(Grid {
            name: self.name.clone(),
            machines,
            jobs,
            network: self.network.clone(),
        })
    }

    /// The CI preset: truncate seed lists to 3, per-point streams to 2,
    /// fault draws to 2, chaos timelines to 4 epochs and the sweep to its
    /// first 3 values. Keeps every structural property of the scenario
    /// while bounding its cost.
    pub fn quickened(&self) -> ScenarioSpec {
        let mut spec = self.clone();
        spec.seeds = match &self.seeds {
            SeedSpec::List { seeds } => SeedSpec::List {
                seeds: seeds.iter().copied().take(3).collect(),
            },
            SeedSpec::Stream {
                base_seed,
                seeds_per_point,
            } => SeedSpec::Stream {
                base_seed: *base_seed,
                seeds_per_point: (*seeds_per_point).min(2),
            },
        };
        if let FaultSpec::UniformLinks {
            permille,
            draws_per_point,
        } = &self.faults
        {
            spec.faults = FaultSpec::UniformLinks {
                permille: permille.clone(),
                draws_per_point: (*draws_per_point).min(2),
            };
        }
        if let Some(chaos) = &self.chaos {
            spec.chaos = Some(ChaosSpec {
                epochs: chaos.epochs.min(4),
                ..chaos.clone()
            });
        }
        spec.sweep = SweepSpec {
            w2_values: self.sweep.w2_values.iter().copied().take(3).collect(),
        };
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrf16() -> WorkloadSpec {
        WorkloadSpec::new("wrf", 16, 32 * 1024)
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::basic(
            "test",
            TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
            wrf16(),
            vec![
                SchemeSpec(AlgorithmSpec::DModK),
                SchemeSpec(AlgorithmSpec::Random),
            ],
        )
    }

    /// Every scheme's name parses back to it, as text and as a serialized
    /// `SchemeSpec`; an unknown name is an error either way.
    #[test]
    fn scheme_names_round_trip() {
        for algorithm in AlgorithmSpec::ALL {
            let name = algorithm.name();
            assert_eq!(AlgorithmSpec::parse(name), Ok(algorithm));
            let json = serde_json::to_string(&SchemeSpec(algorithm)).unwrap();
            assert_eq!(json, format!("\"{name}\""));
            let back: SchemeSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, SchemeSpec(algorithm));
        }
        assert!(AlgorithmSpec::parse("bogus").is_err());
        assert!(serde_json::from_str::<SchemeSpec>("\"bogus\"").is_err());
    }

    /// The whole scheme vocabulary reads one table: on a full and a
    /// slimmed two-level machine, every scheme's name names its instance
    /// and, for all but colored, its closed form.
    #[test]
    fn every_scheme_reads_one_vocabulary() {
        let pattern = xgft_patterns::generators::shift(16, 4, 1024);
        for w2 in [4, 3] {
            let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, w2).unwrap()).unwrap();
            for algorithm in AlgorithmSpec::ALL {
                let name = algorithm.name();
                assert_eq!(algorithm.instantiate(&xgft, &pattern, 1).name(), name);
                let compact = algorithm.compact_scheme(&xgft, 1);
                let expected = (algorithm != AlgorithmSpec::Colored).then_some(name);
                assert_eq!(compact.as_ref().map(|c| c.name()), expected);
            }
        }
    }

    #[test]
    fn every_generator_is_reachable_by_name() {
        let cases: Vec<WorkloadSpec> = vec![
            WorkloadSpec::new("wrf", 64, 1024),
            WorkloadSpec::new("cg", 64, 1024),
            WorkloadSpec::new("shift", 64, 1024).with_param("offset", 8.0),
            WorkloadSpec::new("transpose", 64, 1024),
            WorkloadSpec::new("bit_reversal", 64, 1024),
            WorkloadSpec::new("bit_complement", 64, 1024),
            WorkloadSpec::new("all_to_all", 64, 1024),
            WorkloadSpec::new("ring", 64, 1024),
            WorkloadSpec::new("hot_spot", 64, 1024)
                .with_param("spots", 4.0)
                .with_param("skew", 0.75),
            WorkloadSpec::new("tornado", 64, 1024),
            WorkloadSpec::new("k_shift", 64, 1024)
                .with_param("k", 8.0)
                .with_param("shifts", 2.0),
            WorkloadSpec::new("random_permutation", 64, 1024).with_param("seed", 7.0),
            WorkloadSpec::new("uniform_random", 64, 1024)
                .with_param("flows_per_node", 2.0)
                .with_param("seed", 7.0),
        ];
        assert_eq!(cases.len(), WorkloadSpec::GENERATORS.len());
        for case in cases {
            let p = case
                .pattern()
                .unwrap_or_else(|e| panic!("{}: {e}", case.generator));
            assert_eq!(p.num_nodes(), 64, "{}", case.generator);
        }
    }

    #[test]
    fn workload_errors_name_the_problem() {
        // Each refusal names the generator and the rule its input broke.
        let hot_spot = |skew| {
            WorkloadSpec::new("hot_spot", 16, 1)
                .with_param("spots", 2.0)
                .with_param("skew", skew)
        };
        for (workload, rule) in [
            (WorkloadSpec::new("nope", 16, 1), "not a generator"),
            (WorkloadSpec::new("ring", 1, 1), "at least two ranks"),
            (WorkloadSpec::new("ring", 16, 0), "bytes >= 1"),
            (WorkloadSpec::new("cg", 24, 1), ">= 32"),
            (WorkloadSpec::new("shift", 16, 1), "needs param `offset`"),
            (WorkloadSpec::new("transpose", 15, 1), "square rank count"),
            (hot_spot(1.5), "skew in [0, 1]"),
            (hot_spot(f64::NAN), "skew in [0, 1]"),
            // Non-integer value for an integral parameter.
            (
                WorkloadSpec::new("shift", 16, 1).with_param("offset", 1.5),
                "`offset` to be an integer",
            ),
        ] {
            let err = workload.pattern().unwrap_err().to_string();
            let generator = format!("`{}`", workload.generator);
            assert!(err.contains(&generator) && err.contains(rule), "{err}");
        }
    }

    #[test]
    fn validation_catches_structural_mistakes() {
        assert!(spec().validate().is_ok());

        let mut bad = spec();
        bad.schema_version = 99;
        assert!(matches!(
            bad.validate(),
            Err(ScenarioError::UnsupportedSchema(99))
        ));

        let mut bad = spec();
        bad.workload = WorkloadSpec::new("wrf", 256, 1024); // 256 ranks on 16 leaves
        assert!(bad.validate().is_err());

        let mut bad = spec();
        bad.schemes.clear();
        assert!(bad.validate().is_err());

        let mut bad = spec();
        bad.faults = FaultSpec::UniformLinks {
            permille: vec![10],
            draws_per_point: 2,
        };
        // Faults need Stream seeds.
        assert!(bad.validate().is_err());
        bad.seeds = SeedSpec::Stream {
            base_seed: 1,
            seeds_per_point: 2,
        };
        assert!(bad.validate().is_ok());

        let mut bad = spec();
        bad.topology = TopologySpec::KAryNTree { k: 4, n: 2 };
        bad.sweep = SweepSpec::over(vec![4, 2]);
        assert!(bad.validate().is_err(), "sweep needs the slimming family");

        // Seed streams are a Tracesim-only feature: any other engine would
        // silently drop seeded schemes or fabricate a seed, in either
        // representation.
        for engine in [
            EngineSpec::Netsim,
            EngineSpec::AllWithAgreement,
            EngineSpec::Flow,
            EngineSpec::Nca,
        ] {
            for representation in [RepresentationSpec::Compiled, RepresentationSpec::Compact] {
                let mut bad = spec();
                bad.engine = engine;
                bad.representation = representation;
                bad.seeds = SeedSpec::Stream {
                    base_seed: 1,
                    seeds_per_point: 2,
                };
                assert!(
                    bad.validate().is_err(),
                    "{engine:?} must reject Stream ({representation:?})"
                );
            }
        }
    }

    #[test]
    fn representation_round_trips_and_defaults_to_compiled() {
        let mut s = spec();
        s.representation = RepresentationSpec::Compact;
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"compact\""));
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);

        // Specs written before the field existed (no `representation` key)
        // still load, with the historical compiled behaviour.
        let value = serde::Serialize::to_value(&spec());
        let trimmed: Vec<(String, serde::Value)> = value
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k != "representation")
            .cloned()
            .collect();
        let back = <ScenarioSpec as serde::Deserialize>::from_value(&serde::Value::Object(trimmed))
            .unwrap();
        assert_eq!(back.representation, RepresentationSpec::Compiled);
        assert_eq!(back, spec());

        assert!(RepresentationSpec::parse("bogus").is_err());
    }

    #[test]
    fn compact_representation_validation_rules() {
        let compact = |mutate: fn(&mut ScenarioSpec)| {
            let mut s = spec();
            s.representation = RepresentationSpec::Compact;
            mutate(&mut s);
            s
        };
        assert!(compact(|_| ()).validate().is_ok());

        let mut flow = compact(|_| ());
        flow.engine = EngineSpec::Flow;
        assert!(flow.validate().is_ok());

        let mut colored = compact(|_| ());
        colored.schemes.push(SchemeSpec(AlgorithmSpec::Colored));
        assert!(colored.validate().is_err(), "colored has no closed form");

        // A compact trace sweep takes either seed policy.
        let mut stream = compact(|_| ());
        stream.seeds = SeedSpec::Stream {
            base_seed: 1,
            seeds_per_point: 2,
        };
        assert!(stream.validate().is_ok(), "compact + Stream on Tracesim");
        stream.schemes.push(SchemeSpec(AlgorithmSpec::Colored));
        assert!(stream.validate().is_err(), "colored has no closed form");

        let mut faulted = compact(|_| ());
        faulted.faults = FaultSpec::UniformLinks {
            permille: vec![10],
            draws_per_point: 2,
        };
        faulted.seeds = SeedSpec::Stream {
            base_seed: 1,
            seeds_per_point: 2,
        };
        assert!(faulted.validate().is_err(), "fault campaigns stay compiled");

        let mut nca = compact(|_| ());
        nca.engine = EngineSpec::Nca;
        assert!(nca.validate().is_err(), "Nca has no representation axis");
    }

    fn chaos_spec() -> ScenarioSpec {
        let mut s = spec();
        s.engine = EngineSpec::Netsim;
        s.seeds = SeedSpec::Stream {
            base_seed: 11,
            seeds_per_point: 2,
        };
        s.chaos = Some(ChaosSpec {
            epochs: 6,
            epoch_ps: 40_000_000,
            link_fail_permille: 100,
            switch_kill_permille: 250,
            cable_cut_permille: 250,
            repair_epochs: 1,
        });
        s
    }

    #[test]
    fn chaos_round_trips_and_the_key_is_omitted_when_absent() {
        let s = chaos_spec();
        assert!(s.validate().is_ok());
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"chaos\""));
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);

        // Non-chaos specs serialize without the key at all (byte-stable
        // with pre-chaos fixtures; TOML cannot represent null).
        let plain = serde_json::to_string(&spec()).unwrap();
        assert!(!plain.contains("chaos"));
        let back: ScenarioSpec = serde_json::from_str(&plain).unwrap();
        assert_eq!(back.chaos, None);
    }

    #[test]
    fn chaos_validation_rules() {
        let mut bad = chaos_spec();
        bad.engine = EngineSpec::Tracesim;
        assert!(bad.validate().is_err(), "chaos needs the Netsim engine");

        let mut bad = chaos_spec();
        bad.faults = FaultSpec::UniformLinks {
            permille: vec![10],
            draws_per_point: 2,
        };
        assert!(bad.validate().is_err(), "chaos draws its own faults");

        let mut bad = chaos_spec();
        bad.representation = RepresentationSpec::Compact;
        assert!(bad.validate().is_err(), "chaos repatches compiled tables");

        let mut bad = chaos_spec();
        bad.seeds = SeedSpec::List { seeds: vec![1] };
        assert!(bad.validate().is_err(), "chaos needs stream seeds");

        let mut bad = chaos_spec();
        bad.chaos.as_mut().unwrap().epochs = 0;
        assert!(bad.validate().is_err(), "zero epochs is not a campaign");

        let mut bad = chaos_spec();
        bad.chaos.as_mut().unwrap().link_fail_permille = 1001;
        assert!(bad.validate().is_err(), "permille rates cap at 1000");

        // Quickening caps the timeline but keeps the campaign valid.
        let quick = chaos_spec().quickened();
        assert_eq!(quick.chaos.as_ref().unwrap().epochs, 4);
        assert!(quick.validate().is_ok());
    }

    #[test]
    fn quickened_bounds_the_scenario() {
        let mut big = spec();
        big.seeds = SeedSpec::List {
            seeds: (1..=40).collect(),
        };
        big.sweep = SweepSpec::over((1..=16).rev().collect());
        let quick = big.quickened();
        assert_eq!(quick.seeds.as_list().unwrap().len(), 3);
        assert_eq!(quick.sweep.w2_values, vec![16, 15, 14]);
        assert!(quick.validate().is_ok());
    }

    /// A repeated entry would be merged into one point with every sample
    /// counted twice; validation rejects it with a typed error instead.
    fn assert_rejects_duplicate(spec: &ScenarioSpec, field: &str) {
        match spec.validate() {
            Err(ScenarioError::Invalid(msg)) => {
                assert!(msg.contains(field) && msg.contains("twice"), "{msg}")
            }
            other => panic!("expected Invalid for a duplicate {field}, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_schemes_are_rejected() {
        let mut dup = spec();
        dup.schemes.push(SchemeSpec(AlgorithmSpec::Random));
        assert_rejects_duplicate(&dup, "schemes");
    }

    #[test]
    fn duplicate_w2_values_are_rejected() {
        let mut dup = spec();
        dup.sweep = SweepSpec::over(vec![4, 2, 4]);
        assert_rejects_duplicate(&dup, "sweep.w2_values");
        dup.sweep = SweepSpec::over(vec![4, 2]);
        assert!(dup.validate().is_ok());
    }

    #[test]
    fn duplicate_fault_rates_are_rejected() {
        let mut dup = spec();
        dup.seeds = SeedSpec::Stream {
            base_seed: 1,
            seeds_per_point: 2,
        };
        dup.faults = FaultSpec::UniformLinks {
            permille: vec![0, 10, 0],
            draws_per_point: 2,
        };
        assert_rejects_duplicate(&dup, "faults.permille");
        dup.faults = FaultSpec::UniformLinks {
            permille: vec![0, 10],
            draws_per_point: 2,
        };
        assert!(dup.validate().is_ok());
    }

    /// Lowering rejects the spec with an `Invalid` message naming `field`.
    fn assert_rejects(spec: &ScenarioSpec, field: &str) {
        match spec.validate() {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected Invalid naming {field}, got {other:?}"),
        }
    }

    #[test]
    fn zero_segment_bytes_is_rejected() {
        let mut bad = spec();
        bad.network.segment_bytes = 0;
        assert_rejects(&bad, "network.segment_bytes");
    }

    #[test]
    fn zero_flit_bytes_is_rejected() {
        let mut bad = spec();
        bad.network.flit_bytes = 0;
        assert_rejects(&bad, "network.flit_bytes");
    }

    #[test]
    fn switch_latency_that_overflows_picoseconds_is_rejected() {
        let mut bad = spec();
        bad.network.switch_latency_ns = u64::MAX / 1000 + 1;
        assert_rejects(&bad, "network.switch_latency_ns");
        bad.network.switch_latency_ns = u64::MAX;
        assert_rejects(&bad, "network.switch_latency_ns");
        let mut edge = spec();
        edge.network.switch_latency_ns = u64::MAX / 1000;
        assert!(edge.validate().is_ok());
        assert_eq!(edge.network.switch_latency_ps(), u64::MAX / 1000 * 1000);
    }

    #[test]
    fn link_bandwidth_must_be_finite_and_positive() {
        for gbps in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let mut bad = spec();
            bad.network.link_bandwidth_gbps = gbps;
            assert_rejects(&bad, "network.link_bandwidth_gbps");
        }
    }

    #[test]
    fn nca_needs_a_seed() {
        for schemes in [
            vec![SchemeSpec(AlgorithmSpec::DModK)],
            vec![
                SchemeSpec(AlgorithmSpec::RandomNcaDown),
                SchemeSpec(AlgorithmSpec::DModK),
            ],
        ] {
            let mut bad = spec();
            bad.engine = EngineSpec::Nca;
            bad.schemes = schemes;
            bad.seeds = SeedSpec::List { seeds: vec![] };
            assert_rejects(&bad, "seeds.List");
            bad.seeds = SeedSpec::List { seeds: vec![1] };
            assert!(bad.validate().is_ok());
        }
    }

    #[test]
    fn nca_lists_oblivious_schemes_only() {
        let mut bad = spec();
        bad.engine = EngineSpec::Nca;
        bad.seeds = SeedSpec::List { seeds: vec![1] };
        bad.schemes = vec![];
        assert_rejects(&bad, "schemes must be non-empty");
        bad.schemes = vec![
            SchemeSpec(AlgorithmSpec::DModK),
            SchemeSpec(AlgorithmSpec::Colored),
        ];
        assert_rejects(&bad, "colored");
    }

    #[test]
    fn topologies_follow_the_sweep() {
        let mut s = spec();
        s.sweep = SweepSpec::over(vec![4, 2, 1]);
        let tops = s.topologies().unwrap();
        assert_eq!(tops.len(), 3);
        assert_eq!(tops[0].w(2), 4);
        assert_eq!(tops[2].w(2), 1);
    }
}
