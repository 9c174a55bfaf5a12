//! The benchmark's worker binary; `run.py` builds it and drives it.
//!
//! ```text
//! perfbench pass --workload W --seed N --budget SECONDS
//! perfbench trace --seed N --seconds SECONDS --spans PATH
//! perfbench pin --workload W
//! perfbench catalogue
//! ```
//!
//! `pass` is one fresh process of the end-to-end measurement: parse the
//! spec text and run it cold (the set-up time), then repeat warm
//! `run_scenario` passes at 2 workers for the budget, checking each. It
//! prints one JSON line of raw timings. `trace` is the layer-traced run at
//! 1 worker and prints the final result line itself. `pin` prints the
//! check values at the default seed (the contents of `pinned/`), and
//! `catalogue` the `per_layer` entries of `BENCHMARK.json`.

mod checks;
mod decompose;
mod metrics;
mod trace;
mod workloads;

use checks::Checks;
use metrics::Source;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::{Workload, ALL, DEFAULT_SEED, WORKERS};
use xgft_scenario::{run_scenario, RunOptions, ScenarioResult, ScenarioSpec};

/// Warm passes a `pass` process makes even when the budget is spent.
const MIN_WARM_PASSES: usize = 3;

/// Fewest repetitions of the traced run, whatever the budget.
const MIN_TRACE_REPS: usize = 3;

/// Error lines one process reports by text.
const MAX_ERRORS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<f64, String> {
        flag(name)?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seed = || -> Result<u64, String> {
        flag("--seed")?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))
    };
    match args.first().map(String::as_str) {
        Some("pass") => {
            let workload = Workload::parse(flag("--workload")?)?;
            pass(workload, seed()?, number("--budget")?);
            Ok(())
        }
        Some("trace") => {
            traced(seed()?, number("--seconds")?, flag("--spans")?);
            Ok(())
        }
        Some("pin") => {
            let workload = Workload::parse(flag("--workload")?)?;
            let spec = workload.spec(DEFAULT_SEED);
            let result = run_checked(&pool(WORKERS), &spec, RunOptions::default())?;
            print!(
                "# Check values of {} at seed {DEFAULT_SEED}; regenerate with `perfbench pin --workload {}`.\n{}",
                workload.name(),
                workload.name(),
                checks::render(&checks::payload_checks(&result.payload)?)
            );
            Ok(())
        }
        Some("catalogue") => {
            for workload in ALL {
                for metric in metrics::catalogue(workload) {
                    let name = metrics::full_name(workload, &metric);
                    if !metrics::valid_name(&name) || !metrics::valid_unit(metric.unit) {
                        return Err(format!("invalid metric {name} [{}]", metric.unit));
                    }
                    println!(
                        "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\"}},",
                        metric.unit,
                        metrics::better(&metric)
                    );
                }
            }
            Ok(())
        }
        _ => Err("usage: perfbench pass|trace|pin|catalogue [flags]".to_string()),
    }
}

fn pool(workers: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("the rayon shim always builds")
}

/// Run `f`, turning a panic into an error.
fn catching<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

/// One `run_scenario` call on `pool`, with errors and panics as `Err`.
fn run_checked(
    pool: &ThreadPool,
    spec: &ScenarioSpec,
    options: RunOptions,
) -> Result<ScenarioResult, String> {
    catching(|| pool.install(|| run_scenario(spec, &options).map_err(|e| e.to_string())))
}

/// Total traffic of the workload in bytes, for flow conservation.
fn total_demand(spec: &ScenarioSpec) -> Result<f64, String> {
    let pattern = spec.workload.pattern().map_err(|e| e.to_string())?;
    Ok(pattern
        .combined()
        .network_flows()
        .map(|f| f.bytes as f64)
        .sum())
}

/// Everything wrong with a first result: broken invariants, and at the
/// default seed any difference from the pinned check values. Returns the
/// result's check values too.
fn first_result_problems(
    workload: Workload,
    seed: u64,
    spec: &ScenarioSpec,
    result: &ScenarioResult,
) -> Result<(Checks, Vec<String>), String> {
    let checks = checks::payload_checks(&result.payload)?;
    let mut problems = checks::invariants(&result.payload, total_demand(spec)?);
    if seed == DEFAULT_SEED {
        let pinned = checks::parse(workload.pinned())?;
        problems.extend(checks::compare(&pinned, &checks));
    }
    Ok((checks, problems))
}

fn payload_text(result: &ScenarioResult) -> String {
    serde_json::to_string(&result.payload).expect("payloads serialize")
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0 so the line stays valid JSON).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Collects pass outcomes: counts plus the first few error texts.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(p);
                }
            }
        }
    }

    fn errors_json(&self) -> String {
        let items: Vec<String> = self.errors.iter().map(|e| json_string(e)).collect();
        format!("[{}]", items.join(","))
    }
}

/// One end-to-end process: the cold set-up, then warm passes.
fn pass(workload: Workload, seed: u64, budget_s: f64) {
    let text = workload.spec_text(seed);
    let pool = pool(WORKERS);
    let mut tally = Tally::default();

    let start = Instant::now();
    let cold = catching(|| {
        let spec: ScenarioSpec = serde_json::from_str(&text).map_err(|e| format!("spec: {e}"))?;
        let result = pool.install(|| run_scenario(&spec, &RunOptions::default()));
        Ok((spec, result.map_err(|e| e.to_string())?))
    });
    let setup_s = start.elapsed().as_secs_f64();

    let mut run_s = Vec::new();
    match cold {
        Err(e) => tally.record(vec![e]),
        Ok((spec, result)) => {
            let (first_ok, problems) = match first_result_problems(workload, seed, &spec, &result) {
                Ok((_, problems)) => (problems.is_empty(), problems),
                Err(e) => (false, vec![e]),
            };
            tally.record(problems);
            let reference = payload_text(&result);
            drop(result);
            let warm_start = Instant::now();
            while run_s.len() < MIN_WARM_PASSES || warm_start.elapsed().as_secs_f64() < budget_s {
                let t0 = Instant::now();
                let outcome = run_checked(&pool, &spec, RunOptions::default());
                run_s.push(t0.elapsed().as_secs_f64());
                tally.record(match outcome {
                    Err(e) => vec![e],
                    Ok(r) if payload_text(&r) != reference => {
                        vec!["payload differs from the first pass".to_string()]
                    }
                    Ok(_) if !first_ok => vec!["first pass failed its checks".to_string()],
                    Ok(_) => Vec::new(),
                });
            }
        }
    }
    let runs: Vec<String> = run_s.iter().map(|&s| json_number(s)).collect();
    println!(
        "{{\"setup_s\":{},\"run_s\":[{}],\"attempted\":{},\"failed\":{},\"peak_rss_mib\":{},\"workers\":{WORKERS},\"errors\":{}}}",
        json_number(setup_s),
        runs.join(","),
        tally.attempted,
        tally.failed,
        json_number(peak_rss_mib()),
        tally.errors_json()
    );
}

/// One workload of the traced run and what it gathered across
/// repetitions.
struct Case {
    workload: Workload,
    text: String,
    spec: ScenarioSpec,
    /// Check values of the end-to-end payload at this seed.
    reference: Checks,
    census: BTreeMap<&'static str, f64>,
    values: Vec<BTreeMap<String, f64>>,
    spans_on_s: Vec<f64>,
    spans_off_s: Vec<f64>,
    telemetry_on_s: Vec<f64>,
    telemetry_off_s: Vec<f64>,
    last_spans: Vec<Span>,
}

impl Case {
    fn prepare(
        pool: &ThreadPool,
        workload: Workload,
        seed: u64,
    ) -> Result<(Case, Vec<String>), String> {
        let text = workload.spec_text(seed);
        let spec: ScenarioSpec = serde_json::from_str(&text).map_err(|e| format!("spec: {e}"))?;
        let result = run_checked(pool, &spec, RunOptions::default())?;
        let (reference, problems) = first_result_problems(workload, seed, &spec, &result)?;
        let census = decompose::census(&spec)?;
        let case = Case {
            workload,
            text,
            spec,
            reference,
            census,
            values: Vec::new(),
            spans_on_s: Vec::new(),
            spans_off_s: Vec::new(),
            telemetry_on_s: Vec::new(),
            telemetry_off_s: Vec::new(),
            last_spans: Vec::new(),
        };
        Ok((case, problems))
    }

    /// One decomposition, spans on or off; returns its problems.
    fn decompose(&mut self, traced: bool, origin: Instant) -> Vec<String> {
        let name = self.workload.name();
        let mut tracer = Tracer::new(traced, name, origin);
        let t0 = Instant::now();
        let outcome =
            catching(|| tracer.span("workload", |t| decompose::run(self.workload, t, &self.text)));
        let wall_s = t0.elapsed().as_secs_f64();
        let mut outcome = match outcome {
            Ok(o) => o,
            Err(e) => return vec![format!("{name} decomposition: {e}")],
        };
        if traced {
            outcome
                .counts
                .extend(self.census.iter().map(|(k, v)| (*k, *v)));
            self.values
                .push(metrics::evaluate(self.workload, tracer.spans(), &outcome));
            self.spans_on_s.push(wall_s);
            self.last_spans = tracer.spans().to_vec();
        } else {
            self.spans_off_s.push(wall_s);
        }
        checks::compare(&self.reference, &outcome.checks)
            .into_iter()
            .map(|d| format!("{name} decomposition: {d}"))
            .collect()
    }

    /// One warm `run_scenario` pass with telemetry on or off; returns its
    /// problems.
    fn run_pass(&mut self, pool: &ThreadPool, telemetry: bool) -> Vec<String> {
        let options = RunOptions {
            quick: false,
            telemetry,
        };
        let t0 = Instant::now();
        let outcome = run_checked(pool, &self.spec, options);
        let wall_s = t0.elapsed().as_secs_f64();
        if telemetry {
            self.telemetry_on_s.push(wall_s);
        } else {
            self.telemetry_off_s.push(wall_s);
        }
        match outcome.and_then(|r| checks::payload_checks(&r.payload)) {
            Err(e) => vec![e],
            Ok(c) => checks::compare(&self.reference, &c),
        }
    }

    /// Every per-layer metric of this workload: medians over repetitions.
    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        metrics::catalogue(self.workload)
            .into_iter()
            .map(|metric| {
                let name = metrics::full_name(self.workload, &metric);
                let value = match metric.source {
                    Source::TelemetryOn => metrics::median(&self.telemetry_on_s),
                    Source::TelemetryOff => metrics::median(&self.telemetry_off_s),
                    Source::Overhead => {
                        metrics::median(&self.spans_on_s) - metrics::median(&self.spans_off_s)
                    }
                    _ => {
                        let samples: Vec<f64> = self
                            .values
                            .iter()
                            .filter_map(|v| v.get(&name).copied())
                            .collect();
                        metrics::median(&samples)
                    }
                };
                (name, value, metric.unit)
            })
            .collect()
    }
}

/// The layer-traced run at 1 worker: every workload decomposed into
/// public layer calls with spans on and off, plus warm `run_scenario`
/// passes with telemetry on and off, alternating which goes first and
/// repeated while the budget allows. Each decomposition and pass must
/// reproduce the end-to-end check values.
fn traced(seed: u64, seconds: f64, spans_path: &str) {
    let pool = pool(1);
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut cases = Vec::new();
    for workload in ALL {
        match Case::prepare(&pool, workload, seed) {
            Ok((case, problems)) => {
                tally.record(problems);
                cases.push(case);
            }
            Err(e) => tally.record(vec![format!("{}: {e}", workload.name())]),
        }
    }

    let mut rep = 0usize;
    while !cases.is_empty() {
        let rep_start = Instant::now();
        let modes = [rep.is_multiple_of(2), !rep.is_multiple_of(2)];
        for case in &mut cases {
            for traced in modes {
                tally.record(case.decompose(traced, start));
            }
            for telemetry in modes {
                tally.record(case.run_pass(&pool, telemetry));
            }
        }
        rep += 1;
        let next_end = start.elapsed().as_secs_f64() + rep_start.elapsed().as_secs_f64();
        if rep >= MIN_TRACE_REPS && next_end > seconds {
            break;
        }
    }

    // Span parents index into one workload's list; rebase them so the
    // combined file stays self-consistent.
    let mut spans = Vec::new();
    for case in &cases {
        let base = spans.len();
        spans.extend(case.last_spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    if let Err(e) = trace::write_jsonl(std::path::Path::new(spans_path), &spans) {
        tally.record(vec![format!("writing spans to {spans_path}: {e}")]);
    }
    for e in &tally.errors {
        eprintln!("perfbench: {e}");
    }
    let metrics: Vec<String> = cases
        .iter()
        .flat_map(Case::metrics)
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && cases.len() == ALL.len(),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
}
