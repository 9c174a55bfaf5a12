//! The built-in scenario registry: every figure, table, campaign and fault
//! experiment of the reproduction, as named entries over the shared
//! [`ExperimentArgs`] flag set.
//!
//! Grid-shaped experiments (fig2/fig5 sweeps, Fig. 4 distributions, seed
//! campaigns, fault campaigns) build a [`ScenarioSpec`] and go through
//! [`crate::runner::run_scenario`] — `registry::spec_for` exposes the exact
//! spec an entry would run, which is also what `xgft run <file>` consumes.
//! Report-shaped experiments (Table I, Fig. 1, Fig. 3, the Sec. VII
//! analyses) call their `xgft_analysis::experiments` driver directly; their
//! logic lives here, not in any binary.

use crate::args::{scale_bytes, ExperimentArgs};
use crate::runner::{run_announced, ResultPayload, RunOptions, ScenarioResult};
use crate::spec::{
    ChaosSpec, EngineSpec, FaultSpec, RepresentationSpec, ScenarioSpec, SchemeSpec, SeedSpec,
    SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};
use xgft_analysis::experiments::{
    ablation, equivalence, fig1, fig3, fig5, flow_mcl, table1, OBLIVIOUS_SCHEMES,
};
use xgft_analysis::AlgorithmSpec;
use xgft_netsim::NetworkConfig;
use xgft_patterns::generators;
use xgft_topo::XgftSpec;

/// What an entry produced, ready for the CLI to print. (Pre-run progress
/// headers of long campaigns go straight to stderr as the run starts, not
/// through this struct.)
#[derive(Debug, Clone, Default)]
pub struct EntryOutput {
    /// The human-readable report.
    pub stdout: String,
    /// Pretty JSON of the result, built only under `--json`.
    pub json: Option<String>,
    /// Under `--json`, route `stdout` to stderr so piped output is pure
    /// JSON (the historical `campaign`/`faults` contract).
    pub json_owns_stdout: bool,
}

/// Why an entry failed — determines the process exit code.
#[derive(Debug, Clone)]
pub enum EntryError {
    /// Bad input: flag contract violated, invalid spec (exit code 2).
    Usage(String),
    /// A failure after a valid invocation, e.g. a paper-claim check that
    /// did not hold (exit code 1).
    Runtime(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Usage(msg) | EntryError::Runtime(msg) => f.write_str(msg),
        }
    }
}

/// One built-in experiment.
pub struct RegistryEntry {
    /// The `xgft <name>` the entry answers to.
    pub name: &'static str,
    /// Legacy binary names that forward here.
    pub aliases: &'static [&'static str],
    /// One-line description for `xgft list`.
    pub about: &'static str,
    /// Run with the shared flag set.
    pub run: fn(&ExperimentArgs) -> Result<EntryOutput, EntryError>,
}

/// The registry, in the paper's presentation order.
pub fn registry() -> &'static [RegistryEntry] {
    &[
        RegistryEntry {
            name: "table1",
            aliases: &[],
            about: "Table I: node/link labeling, counts and Eq. (1)",
            run: run_table1,
        },
        RegistryEntry {
            name: "fig1",
            aliases: &["fig1_topologies"],
            about: "Fig. 1: example XGFT instantiations",
            run: run_fig1,
        },
        RegistryEntry {
            name: "fig2_wrf",
            aliases: &[],
            about: "Fig. 2(a): WRF-256 under classic oblivious routings",
            run: |args| run_scenario_entry("fig2_wrf", args),
        },
        RegistryEntry {
            name: "fig2_cg",
            aliases: &[],
            about: "Fig. 2(b): CG.D-128 under classic oblivious routings",
            run: |args| run_scenario_entry("fig2_cg", args),
        },
        RegistryEntry {
            name: "fig3",
            aliases: &["fig3_cg_pattern"],
            about: "Fig. 3: the CG.D-128 traffic pattern",
            run: run_fig3,
        },
        RegistryEntry {
            name: "fig4",
            aliases: &["fig4_nca_distribution"],
            about: "Fig. 4: routes-per-NCA distributions (w2 = 16 and 10)",
            run: |args| run_scenario_entry("fig4", args),
        },
        RegistryEntry {
            name: "fig5_wrf",
            aliases: &[],
            about: "Fig. 5(a): WRF-256 under the proposed r-NCA schemes",
            run: |args| run_scenario_entry("fig5_wrf", args),
        },
        RegistryEntry {
            name: "fig5_cg",
            aliases: &[],
            about: "Fig. 5(b): CG.D-128 under the proposed r-NCA schemes",
            run: |args| run_scenario_entry("fig5_cg", args),
        },
        RegistryEntry {
            name: "equivalence",
            aliases: &["sec7_equivalence"],
            about: "Sec. VII-B/C: S-mod-k / D-mod-k duality over permutations",
            run: run_equivalence,
        },
        RegistryEntry {
            name: "ablation",
            aliases: &["ablation_relabeling"],
            about: "Relabeling ablation: balanced vs unbalanced random maps",
            run: run_ablation,
        },
        RegistryEntry {
            name: "synthetic",
            aliases: &["synthetic_patterns"],
            about: "Synthetic permutations: contention on full/slimmed trees",
            run: run_synthetic,
        },
        RegistryEntry {
            name: "flow_mcl",
            aliases: &[],
            about: "Analytical MCL sweeps + netsim cross-validation",
            run: run_flow_mcl,
        },
        RegistryEntry {
            name: "campaign",
            aliases: &[],
            about: "Parallel seed campaign over the slimming family (--k scales)",
            run: |args| run_scenario_entry("campaign", args),
        },
        RegistryEntry {
            name: "faults",
            aliases: &[],
            about: "Resilience campaign: scheme x failure-rate x seed on degraded machines",
            run: |args| run_scenario_entry("faults", args),
        },
        RegistryEntry {
            name: "chaos",
            aliases: &[],
            about: "Chaos lab: time-varying fault/repair timeline with per-epoch SLA metrics",
            run: |args| run_scenario_entry("chaos", args),
        },
    ]
}

/// Look an entry up by name or legacy alias.
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    registry()
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

fn schemes(set: impl IntoIterator<Item = AlgorithmSpec>) -> Vec<SchemeSpec> {
    set.into_iter().map(SchemeSpec).collect()
}

/// The default workload of `--workload <name>` on a radix-`k` two-level
/// machine (`k²` ranks), with per-message sizes scaled by `--scale`. The
/// generator's own rules (cg's power-of-two rank count, …) are checked
/// when the spec lowers.
fn machine_workload(args: &ExperimentArgs) -> Result<WorkloadSpec, String> {
    let n = args.k * args.k;
    let scale = |b: u64| scale_bytes(b, args.byte_scale);
    let wrf_bytes = scale(generators::WRF_DEFAULT_BYTES);
    Ok(match args.workload.as_str() {
        "cg" => WorkloadSpec::new("cg", n, scale(generators::CG_D_PHASE_BYTES)),
        "shift" => WorkloadSpec::new("shift", n, wrf_bytes).with_param("offset", args.k as f64),
        "hot_spot" => WorkloadSpec::new("hot_spot", n, wrf_bytes)
            .with_param("spots", args.k.min(4) as f64)
            .with_param("skew", 0.5),
        "k_shift" => WorkloadSpec::new("k_shift", n, wrf_bytes)
            .with_param("k", args.k as f64)
            .with_param("shifts", 2.0),
        other if WorkloadSpec::GENERATORS.contains(&other) => {
            WorkloadSpec::new(other, n, wrf_bytes)
        }
        other => {
            return Err(format!(
                "unknown workload: {other} (expected one of {:?})",
                WorkloadSpec::GENERATORS
            ))
        }
    })
}

/// The spec a scenario-backed registry entry runs for the given flags.
/// `None` for report-shaped entries (they have no grid to describe).
pub fn spec_for(name: &str, args: &ExperimentArgs) -> Option<Result<ScenarioSpec, String>> {
    build_spec(name, args).transpose()
}

fn build_spec(name: &str, args: &ExperimentArgs) -> Result<Option<ScenarioSpec>, String> {
    let engine = if args.analytic {
        EngineSpec::Flow
    } else {
        EngineSpec::Tracesim
    };
    let spec = match name {
        "fig2_wrf" | "fig5_wrf" => ScenarioSpec {
            schema_version: SPEC_SCHEMA_VERSION,
            name: name.to_string(),
            topology: TopologySpec::SlimmedTwoLevel { k: 16, w2: 16 },
            workload: WorkloadSpec::new(
                "wrf",
                256,
                scale_bytes(generators::WRF_DEFAULT_BYTES, args.byte_scale),
            ),
            schemes: if name == "fig2_wrf" {
                schemes(AlgorithmSpec::figure2_set())
            } else {
                schemes(AlgorithmSpec::figure5_set())
            },
            engine,
            representation: RepresentationSpec::Compiled,
            faults: FaultSpec::None,
            chaos: None,
            sweep: SweepSpec::over(args.w2_sweep()),
            seeds: SeedSpec::List {
                seeds: args.seed_list(),
            },
            network: NetworkConfig::default(),
        },
        "fig2_cg" | "fig5_cg" => ScenarioSpec {
            schema_version: SPEC_SCHEMA_VERSION,
            name: name.to_string(),
            topology: TopologySpec::SlimmedTwoLevel { k: 16, w2: 16 },
            workload: WorkloadSpec::new(
                "cg",
                128,
                scale_bytes(generators::CG_D_PHASE_BYTES, args.byte_scale),
            ),
            schemes: if name == "fig2_cg" {
                schemes(AlgorithmSpec::figure2_set())
            } else {
                schemes(AlgorithmSpec::figure5_set())
            },
            engine,
            representation: RepresentationSpec::Compiled,
            faults: FaultSpec::None,
            chaos: None,
            sweep: SweepSpec::over(args.w2_sweep()),
            seeds: SeedSpec::List {
                seeds: args.seed_list(),
            },
            network: NetworkConfig::default(),
        },
        "fig4" => ScenarioSpec {
            schema_version: SPEC_SCHEMA_VERSION,
            name: "fig4".to_string(),
            topology: TopologySpec::SlimmedTwoLevel { k: 16, w2: 16 },
            // Fig. 4 is a pure routing metric; the workload is irrelevant
            // but the spec records the paper's context.
            workload: WorkloadSpec::new(
                "wrf",
                256,
                scale_bytes(generators::WRF_DEFAULT_BYTES, args.byte_scale),
            ),
            schemes: schemes(OBLIVIOUS_SCHEMES),
            engine: EngineSpec::Nca,
            representation: RepresentationSpec::Compiled,
            faults: FaultSpec::None,
            chaos: None,
            sweep: SweepSpec::over(args.w2_values.clone().unwrap_or_else(|| vec![16, 10])),
            seeds: SeedSpec::List {
                seeds: args.seed_list(),
            },
            network: NetworkConfig::default(),
        },
        "campaign" => {
            let workload = machine_workload(args)?;
            ScenarioSpec {
                schema_version: SPEC_SCHEMA_VERSION,
                name: format!("campaign-{}-k{}", args.workload, args.k),
                topology: TopologySpec::SlimmedTwoLevel {
                    k: args.k,
                    w2: args.k,
                },
                workload,
                schemes: schemes(AlgorithmSpec::figure5_set()),
                engine: EngineSpec::Tracesim,
                representation: RepresentationSpec::Compiled,
                faults: FaultSpec::None,
                chaos: None,
                sweep: SweepSpec::over(args.w2_sweep_for_k()),
                seeds: SeedSpec::Stream {
                    base_seed: args.base_seed,
                    seeds_per_point: args.seeds,
                },
                network: NetworkConfig::default(),
            }
        }
        "faults" => {
            let workload = machine_workload(args)?;
            // One campaign is one machine: --w2 picks a single slimming point.
            let w2 = match args.w2_values.as_deref() {
                None => args.k,
                Some([w2]) => *w2,
                Some(_) => {
                    return Err(
                        "faults runs one machine per campaign; pass a single --w2 value"
                            .to_string(),
                    )
                }
            };
            // 0%, 1%, 5% for the smoke budget; the default run adds 2% and 10%.
            let permille: Vec<u32> = if args.quick {
                vec![0, 10, 50]
            } else {
                vec![0, 10, 20, 50, 100]
            };
            ScenarioSpec {
                schema_version: SPEC_SCHEMA_VERSION,
                name: format!("faults-{}-k{}-w{}", args.workload, args.k, w2),
                topology: TopologySpec::SlimmedTwoLevel { k: args.k, w2 },
                workload,
                schemes: vec![
                    SchemeSpec(AlgorithmSpec::SModK),
                    SchemeSpec(AlgorithmSpec::DModK),
                    SchemeSpec(AlgorithmSpec::Random),
                    SchemeSpec(AlgorithmSpec::RandomNcaUp),
                    SchemeSpec(AlgorithmSpec::RandomNcaDown),
                ],
                engine: EngineSpec::Tracesim,
                representation: RepresentationSpec::Compiled,
                faults: FaultSpec::UniformLinks {
                    permille,
                    draws_per_point: args.seeds,
                },
                chaos: None,
                sweep: SweepSpec::none(),
                seeds: SeedSpec::Stream {
                    base_seed: args.base_seed,
                    seeds_per_point: args.seeds,
                },
                network: NetworkConfig::default(),
            }
        }
        "chaos" => {
            let workload = machine_workload(args)?;
            // One chaos lab is one machine: --w2 picks a single slimming point.
            let w2 = match args.w2_values.as_deref() {
                None => args.k,
                Some([w2]) => *w2,
                Some(_) => {
                    return Err(
                        "chaos runs one machine per campaign; pass a single --w2 value".to_string(),
                    )
                }
            };
            ScenarioSpec {
                schema_version: SPEC_SCHEMA_VERSION,
                name: format!("chaos-{}-k{}-w{}", args.workload, args.k, w2),
                topology: TopologySpec::SlimmedTwoLevel { k: args.k, w2 },
                workload,
                schemes: vec![
                    SchemeSpec(AlgorithmSpec::SModK),
                    SchemeSpec(AlgorithmSpec::DModK),
                    SchemeSpec(AlgorithmSpec::Random),
                    SchemeSpec(AlgorithmSpec::RandomNcaUp),
                    SchemeSpec(AlgorithmSpec::RandomNcaDown),
                ],
                engine: EngineSpec::Netsim,
                representation: RepresentationSpec::Compiled,
                faults: FaultSpec::None,
                chaos: Some(ChaosSpec {
                    epochs: if args.quick { 4 } else { 12 },
                    epoch_ps: 40_000_000,
                    link_fail_permille: 100,
                    switch_kill_permille: 250,
                    cable_cut_permille: 250,
                    repair_epochs: 1,
                }),
                sweep: SweepSpec::none(),
                seeds: SeedSpec::Stream {
                    base_seed: args.base_seed,
                    seeds_per_point: args.seeds,
                },
                network: NetworkConfig::default(),
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(spec))
}

/// Run a scenario-backed entry: build the spec, announce long campaigns
/// on stderr *before* running (so a multi-minute campaign is never
/// silent), run, shape the output. Fig. 5 sweeps print their claims after
/// the table.
fn run_scenario_entry(name: &str, args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    let spec = spec_for(name, args)
        .expect("scenario-backed entry")
        .map_err(EntryError::Usage)?;
    let result = run_announced(&spec, &RunOptions::default(), true)
        .map_err(|e| EntryError::Usage(e.to_string()))?;
    let mut output = shape_scenario_output(&result, args)?;
    if name.starts_with("fig5") {
        if let ResultPayload::Sweep(sweep) = &result.payload {
            output
                .stdout
                .push_str(&fig5::Fig5Claims::evaluate(sweep).render());
        }
    }
    Ok(output)
}

/// The common output shape of scenario-backed entries: the payload's text
/// table on stdout, the full versioned envelope as JSON (owning stdout
/// under `--json` for the campaign/resilience payloads).
fn shape_scenario_output(
    result: &ScenarioResult,
    args: &ExperimentArgs,
) -> Result<EntryOutput, EntryError> {
    let json_owns_stdout = matches!(
        result.payload,
        ResultPayload::Campaign(_) | ResultPayload::Resilience(_) | ResultPayload::Chaos(_)
    );
    Ok(EntryOutput {
        stdout: result.render(),
        json: json_for(args.json, result)?,
        json_owns_stdout,
    })
}

/// The pretty JSON of `value`, built only if `wanted` (`--json`). A value
/// JSON cannot represent (a non-finite float) is a runtime error, not a
/// panic.
pub(crate) fn json_for<T: serde::Serialize>(
    wanted: bool,
    value: &T,
) -> Result<Option<String>, EntryError> {
    if !wanted {
        return Ok(None);
    }
    serde_json::to_string_pretty(value)
        .map(Some)
        .map_err(|e| EntryError::Runtime(format!("--json: {e}")))
}

// ------------------------------------------------- report-shaped entries

fn run_table1(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    let specs = vec![
        XgftSpec::slimmed_two_level(16, 16).expect("valid"),
        XgftSpec::slimmed_two_level(16, 10).expect("valid"),
        XgftSpec::slimmed_two_level(16, 1).expect("valid"),
        XgftSpec::k_ary_n_tree(4, 3),
        XgftSpec::new(vec![4, 4, 4], vec![1, 2, 2]).expect("valid"),
    ];
    let mut stdout = String::new();
    let mut results = Vec::new();
    for spec in &specs {
        let result = table1::run(spec);
        stdout.push_str(&result.render());
        stdout.push('\n');
        if result.inner_switches != result.inner_switches_by_sum {
            return Err(EntryError::Runtime(format!(
                "Eq. (1) mismatch on {spec}: {} vs {}",
                result.inner_switches, result.inner_switches_by_sum
            )));
        }
        results.push(result);
    }
    stdout.push_str(&format!(
        "Eq. (1) validated for {} topologies.\n",
        specs.len()
    ));
    Ok(EntryOutput {
        json: json_for(args.json, &results)?,
        stdout,
        ..EntryOutput::default()
    })
}

fn run_fig1(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    let result = fig1::run();
    Ok(EntryOutput {
        stdout: format!("{}\n", result.render()),
        json: json_for(args.json, &result)?,
        ..EntryOutput::default()
    })
}

fn run_fig3(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    let result = fig3::run(128, 750 * 1024).map_err(|e| EntryError::Runtime(e.to_string()))?;
    Ok(EntryOutput {
        stdout: format!("{}\n", result.render()),
        json: json_for(args.json, &result)?,
        ..EntryOutput::default()
    })
}

fn run_equivalence(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    // Sample count scales with --seeds so --quick stays fast.
    let samples = (args.seeds * 10).max(20);
    let mut stdout = String::new();
    let mut results = Vec::new();
    for w2 in [16usize, 10, 4] {
        let result = equivalence::run(16, w2, samples, 2009);
        stdout.push_str(&result.render());
        stdout.push('\n');
        results.push(result);
    }
    Ok(EntryOutput {
        json: json_for(args.json, &results)?,
        stdout,
        ..EntryOutput::default()
    })
}

fn run_ablation(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    let seeds = args.seed_list();
    let mut stdout = String::new();
    let mut results = Vec::new();
    for w2 in [16usize, 10, 6] {
        let result = ablation::run(16, w2, &seeds);
        stdout.push_str(&result.render());
        stdout.push('\n');
        results.push(result);
    }
    Ok(EntryOutput {
        json: json_for(args.json, &results)?,
        stdout,
        ..EntryOutput::default()
    })
}

fn run_synthetic(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    use xgft_analysis::experiments::synthetic;
    let seeds = args.seed_list();
    let mut stdout = String::new();
    let mut results = Vec::new();
    for w2 in [16usize, 10, 4] {
        let result = synthetic::run(16, w2, &seeds);
        stdout.push_str(&result.render());
        stdout.push('\n');
        results.push(result);
    }
    Ok(EntryOutput {
        json: json_for(args.json, &results)?,
        stdout,
        ..EntryOutput::default()
    })
}

fn run_flow_mcl(args: &ExperimentArgs) -> Result<EntryOutput, EntryError> {
    use std::time::Instant;
    use xgft_core::RandomRouting;
    use xgft_flow::{ExpectedLoads, FlowSweepConfig, TrafficMatrix, TrafficSpec};
    use xgft_topo::Xgft;

    // The paper's XGFT(2;16,16;1,w2) family under every oblivious scheme.
    let sweep = |traffic| {
        let oblivious = AlgorithmSpec::ALL
            .into_iter()
            .filter(|&a| a != AlgorithmSpec::Colored)
            .collect();
        FlowSweepConfig::slimming_family(16, &args.w2_sweep(), oblivious, traffic)
            .map(|config| config.run())
            .map_err(|e| EntryError::Usage(format!("--w2: {e}")))
    };
    let mut stdout = String::new();

    // 1. The analytical slimming sweep, uniform all-pairs traffic.
    let result = sweep(TrafficSpec::Uniform)?;
    stdout.push_str(&result.render_table());
    stdout.push('\n');

    // 2. The same sweep under a pattern (cyclic shift by one switch over
    // the family's 256 leaves), showing the congestion ratios pattern
    // structure induces.
    let shift = TrafficSpec::Pattern(generators::shift(256, 16, 1));
    stdout.push_str(&sweep(shift)?.render_table());
    stdout.push('\n');

    // 3. Cross-validation: seed-averaged netsim utilization vs the model.
    let xgft =
        Xgft::new(XgftSpec::slimmed_two_level(8, 5).expect("valid")).expect("valid topology");
    let n = xgft.num_leaves();
    let flows: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .collect();
    let cv = flow_mcl::cross_validate_mcl(
        &xgft,
        |seed| Box::new(RandomRouting::new(seed)),
        &flows,
        &args.seed_list(),
        1024,
    );
    stdout.push_str(&format!(
        "cross-validation on {} ({} seeds): model MCL {:.1}, netsim {:.1} ({:.1}% off, worst channel {:.1}%)\n\n",
        xgft.spec(),
        args.seeds,
        cv.model_mcl,
        cv.measured_mcl,
        cv.mcl_relative_error * 100.0,
        cv.max_channel_deviation * 100.0
    ));

    // 4. The scale demo: closed-form MCL on machines netsim cannot replay.
    if !args.quick {
        for (spec, scheme) in flow_mcl::large_instance_demo() {
            let start = Instant::now();
            let xgft = Xgft::new(spec.clone()).expect("valid spec");
            let traffic = TrafficMatrix::uniform(xgft.num_leaves());
            let algo = scheme.build(&xgft, 0, || {
                TrafficSpec::Uniform.connectivity(xgft.num_leaves())
            });
            let loads = ExpectedLoads::compute(&xgft, algo.as_ref(), &traffic);
            stdout.push_str(&format!(
                "{} x {}: {} leaves, {} channels, MCL {:.0} in {:.1} ms\n",
                spec,
                scheme.name(),
                xgft.num_leaves(),
                xgft.channels().len(),
                loads.mcl(),
                start.elapsed().as_secs_f64() * 1e3
            ));
        }
    }

    Ok(EntryOutput {
        json: json_for(args.json, &result)?,
        stdout,
        ..EntryOutput::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args() -> ExperimentArgs {
        ExperimentArgs::parse_from(["--quick".to_string()]).unwrap()
    }

    #[test]
    fn every_entry_is_findable_and_named_uniquely() {
        let entries = registry();
        assert_eq!(entries.len(), 15);
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "duplicate registry names");
        // Legacy binary names resolve too.
        for alias in [
            "fig1_topologies",
            "fig3_cg_pattern",
            "fig4_nca_distribution",
            "sec7_equivalence",
            "ablation_relabeling",
            "synthetic_patterns",
        ] {
            assert!(find(alias).is_some(), "{alias}");
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn scenario_backed_entries_expose_their_specs() {
        let args = quick_args();
        for name in [
            "fig2_wrf", "fig2_cg", "fig4", "fig5_wrf", "fig5_cg", "campaign", "faults", "chaos",
        ] {
            let spec = spec_for(name, &args)
                .unwrap_or_else(|| panic!("{name} should be scenario-backed"))
                .unwrap();
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(spec_for("table1", &args).is_none());
        // The analytic flag flips the engine.
        let mut analytic = quick_args();
        analytic.analytic = true;
        let spec = spec_for("fig2_wrf", &analytic).unwrap().unwrap();
        assert_eq!(spec.engine, EngineSpec::Flow);
    }

    #[test]
    fn faults_flag_contract_is_enforced() {
        let mut args = quick_args();
        args.w2_values = Some(vec![4, 2]);
        assert!(spec_for("faults", &args).unwrap().is_err());
        args.w2_values = Some(vec![10]);
        let spec = spec_for("faults", &args).unwrap().unwrap();
        assert_eq!(
            spec.topology,
            TopologySpec::SlimmedTwoLevel { k: 16, w2: 10 }
        );
        args.workload = "bogus".to_string();
        assert!(spec_for("faults", &args).unwrap().is_err());
    }

    #[test]
    fn a_zero_w2_is_a_usage_error_or_ignored_never_a_panic() {
        let args = ExperimentArgs::parse_from(["--quick", "--w2", "0"].map(String::from)).unwrap();
        for entry in registry() {
            match (entry.run)(&args) {
                Ok(_) | Err(EntryError::Usage(_)) => {}
                Err(e) => panic!("{}: {e}", entry.name),
            }
        }
        let err = (find("flow_mcl").unwrap().run)(&args).err();
        assert!(matches!(err, Some(EntryError::Usage(_))), "{err:?}");
    }

    #[test]
    fn machine_workload_accepts_every_campaign_name() {
        // The historical trio plus the new generator families resolve for a
        // 2-level k=8 machine (64 ranks).
        let mut args = quick_args();
        args.k = 8;
        for name in ["wrf", "cg", "shift", "tornado", "hot_spot", "k_shift"] {
            args.workload = name.to_string();
            let p = machine_workload(&args)
                .and_then(|w| w.pattern().map_err(|e| e.to_string()))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.num_nodes(), 64, "{name}");
        }
        args.workload = "bogus".to_string();
        assert!(machine_workload(&args).is_err());
        // cg needs a power-of-two rank count >= 32: the campaign refuses
        // k = 5 as a usage error naming cg, before it runs.
        args.workload = "cg".to_string();
        args.k = 5;
        match (find("campaign").unwrap().run)(&args) {
            Err(EntryError::Usage(msg)) => assert!(msg.contains("`cg`"), "{msg}"),
            other => panic!("expected a usage error, got {:?}", other.map(|o| o.stdout)),
        }
    }

    #[test]
    fn json_is_built_only_under_the_flag() {
        // A value JSON cannot carry is never serialised without --json,
        // and is a runtime error (exit 1) with it.
        assert!(matches!(json_for(false, &f64::NAN), Ok(None)));
        let err = json_for(true, &f64::NAN);
        assert!(matches!(err, Err(EntryError::Runtime(_))));
        assert_eq!(json_for(true, &1u32).unwrap().as_deref(), Some("1"));
    }

    #[test]
    fn report_entries_run_and_emit_json() {
        let mut args = quick_args();
        args.json = true;
        for name in ["table1", "fig1", "fig3"] {
            let entry = find(name).unwrap();
            let out = (entry.run)(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.stdout.is_empty(), "{name}");
            assert!(out.json.is_some(), "{name} must support --json");
            assert!(!out.json_owns_stdout, "{name}");
        }
    }
}
