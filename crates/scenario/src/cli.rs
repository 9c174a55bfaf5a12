//! The unified `xgft` command line.
//!
//! ```text
//! xgft run <spec.json|spec.toml> [--quick] [--json]   run a scenario file
//! xgft list [--json]                                  list built-in scenarios
//! xgft <name> [flags]                                 run a built-in scenario
//! xgft help                                           this text
//! ```
//!
//! Exit codes are consistent across every subcommand and every legacy
//! binary shim:
//!
//! * `0` — success;
//! * `2` — bad input: unknown command, bad flags, unreadable/invalid spec;
//! * `1` — runtime failure after a valid invocation.
//!
//! `--json` always puts the machine-readable result on stdout. For
//! commands whose JSON is the primary artifact (`run`, `campaign`,
//! `faults`) the human-readable table moves to stderr so piped stdout is
//! pure JSON.

use crate::args::ExperimentArgs;
use crate::registry::{self, EntryError, EntryOutput};
use crate::runner::{run_announced, RunOptions};
use crate::spec::ScenarioSpec;
use serde::Value;

const USAGE: &str = "\
usage: xgft <command> [flags]

commands:
  run <spec.json|spec.toml>  run a declarative scenario file
                             (--quick bounds seeds/sweep, --json emits the
                             versioned result envelope on stdout,
                             --telemetry adds stage wall-clocks and counters
                             to the result and a summary on stderr)
  bench                      run the fixed performance probes and write
                             versioned BENCH_<area>.json files
                             (--quick for CI scale, --dir DIR for the output
                             directory, --areas a,b to restrict, --json,
                             --strict-checks to fail on check-counter drift
                             against the committed baseline — timings still
                             never gate)
  list                       list the built-in scenarios (--json for tooling)
  <name>                     run a built-in scenario by registry name
                             (see `xgft list`; accepts the shared flag set:
                             --quick --full --seeds N --scale F --w2 a,b,c
                             --json --analytic --k K --base-seed S
                             --workload NAME)
  help                       show this text

environment:
  XGFT_TRACE=<path>          append structured JSONL trace events (compiles,
                             patches, shards, failures) to <path>
";

/// Install the JSONL trace sink when `XGFT_TRACE` names a path. Called once
/// per CLI entry; a bad path is reported but never fatal.
fn install_trace_from_env() {
    if let Ok(path) = std::env::var("XGFT_TRACE") {
        if path.is_empty() {
            return;
        }
        match xgft_obs::TraceSink::to_path(&path) {
            Ok(sink) => {
                xgft_obs::install_trace_sink(sink);
            }
            Err(e) => eprintln!("warning: cannot open XGFT_TRACE=`{path}`: {e}"),
        }
    }
}

/// Entry point over explicit arguments; returns the process exit code.
pub fn main_with_args(argv: Vec<String>) -> i32 {
    let mut iter = argv.into_iter();
    let Some(command) = iter.next() else {
        eprint!("{USAGE}");
        return 2;
    };
    let rest: Vec<String> = iter.collect();
    install_trace_from_env();
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            0
        }
        "list" => run_list(&rest),
        "run" => run_spec_file(&rest),
        "bench" => run_bench_cmd(&rest),
        name => run_named(name, rest),
    }
}

/// Entry point for the `xgft` binary: dispatch on `std::env::args`.
pub fn main() -> i32 {
    main_with_args(std::env::args().skip(1).collect())
}

/// Run a registry entry by name with the shared flag set.
fn run_named(name: &str, args: Vec<String>) -> i32 {
    let Some(entry) = registry::find(name) else {
        eprintln!("unknown scenario `{name}` — try `xgft list`");
        eprint!("{USAGE}");
        return 2;
    };
    let parsed = match ExperimentArgs::parse_from(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    finish(name, (entry.run)(&parsed))
}

/// Print an entry's output and exit 0, or its error with the exit code
/// the error kind maps to (2 bad input, 1 runtime failure).
fn finish(name: &str, outcome: Result<EntryOutput, EntryError>) -> i32 {
    match outcome {
        Ok(output) => {
            emit(&output);
            0
        }
        Err(EntryError::Usage(msg)) => {
            eprintln!("{name}: {msg}");
            2
        }
        Err(EntryError::Runtime(msg)) => {
            eprintln!("{name}: {msg}");
            1
        }
    }
}

fn run_list(rest: &[String]) -> i32 {
    let mut json = false;
    for flag in rest {
        match flag.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("list: unknown flag `{other}`");
                return 2;
            }
        }
    }
    let entries = registry::registry();
    if json {
        let value = Value::Array(
            entries
                .iter()
                .map(|e| {
                    Value::Object(vec![
                        ("name".to_string(), Value::Str(e.name.to_string())),
                        ("about".to_string(), Value::Str(e.about.to_string())),
                        (
                            "aliases".to_string(),
                            Value::Array(
                                e.aliases
                                    .iter()
                                    .map(|a| Value::Str(a.to_string()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        println!("{}", render_value(&value));
        return 0;
    }
    println!("built-in scenarios (run with `xgft <name> [flags]`):\n");
    for e in entries {
        println!("  {:<12} {}", e.name, e.about);
    }
    println!("\ndeclarative scenarios: `xgft run <spec.json|spec.toml>` (see examples/scenarios/)");
    0
}

fn render_value(value: &Value) -> String {
    struct Raw<'a>(&'a Value);
    impl serde::Serialize for Raw<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Raw(value)).expect("serialisable")
}

fn run_spec_file(rest: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut options = RunOptions::default();
    let mut json = false;
    for flag in rest {
        match flag.as_str() {
            "--quick" => options.quick = true,
            "--telemetry" => options.telemetry = true,
            "--json" => json = true,
            other if other.starts_with('-') => {
                eprintln!("run: unknown flag `{other}`");
                return 2;
            }
            file => {
                if path.replace(file).is_some() {
                    eprintln!("run: expected exactly one spec file");
                    return 2;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("run: expected a spec file (`xgft run scenario.json`)");
        return 2;
    };
    let spec = match load_spec(path) {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("run: {msg}");
            return 2;
        }
    };
    // Announce long campaigns before they run (they can take minutes).
    let outcome = run_announced(&spec, &options, true)
        .map_err(|e| EntryError::Usage(e.to_string()))
        .and_then(|result| {
            if let Some(telemetry) = &result.telemetry {
                eprint!("{}", telemetry.render_summary());
            }
            Ok(EntryOutput {
                stdout: result.render(),
                json: registry::json_for(json, &result)?,
                json_owns_stdout: true,
            })
        });
    finish("run", outcome)
}

/// The `xgft bench` subcommand: run the fixed probes, write one
/// `BENCH_<area>.json` per area into `--dir` (default `.`), validate what
/// was written, and report the delta against any committed baseline.
/// Timing moves never fail the command; schema/shape errors do (exit 1).
fn run_bench_cmd(rest: &[String]) -> i32 {
    let mut quick = false;
    let mut json = false;
    let mut strict_checks = false;
    let mut dir = ".".to_string();
    let mut areas: Option<Vec<String>> = None;
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--strict-checks" => strict_checks = true,
            "--dir" => match iter.next() {
                Some(value) => dir = value.clone(),
                None => {
                    eprintln!("bench: `--dir` expects a directory");
                    return 2;
                }
            },
            "--areas" => match iter.next() {
                Some(value) => {
                    areas = Some(value.split(',').map(|a| a.trim().to_string()).collect())
                }
                None => {
                    eprintln!("bench: `--areas` expects a comma-separated list");
                    return 2;
                }
            },
            other => {
                eprintln!("bench: unknown flag `{other}`");
                return 2;
            }
        }
    }
    let selected: Vec<String> = match areas {
        Some(list) => {
            for area in &list {
                if !crate::bench::ALL_AREAS.contains(&area.as_str()) {
                    eprintln!(
                        "bench: unknown area `{area}` — known: {:?}",
                        crate::bench::ALL_AREAS
                    );
                    return 2;
                }
            }
            list
        }
        None => crate::bench::ALL_AREAS
            .iter()
            .map(|a| a.to_string())
            .collect(),
    };
    let mut report = String::new();
    let mut written = Vec::new();
    for area in &selected {
        let file = match crate::bench::bench_area(area, quick) {
            Ok(file) => file,
            Err(msg) => {
                eprintln!("bench: {msg}");
                return 1;
            }
        };
        let path = std::path::Path::new(&dir).join(crate::bench::bench_file_name(area));
        let baseline = match std::fs::read_to_string(&path) {
            Ok(old_text) => match crate::bench::validate_bench_file(&old_text) {
                Ok(old) => Some(old),
                Err(msg) => {
                    report.push_str(&format!(
                        "  {area}: existing baseline invalid ({msg}) — replacing\n"
                    ));
                    None
                }
            },
            Err(_) => None,
        };
        let text = serde_json::to_string_pretty(&file).expect("serialisable bench file");
        // Re-validate the exact bytes we are about to commit: this is the
        // schema gate CI relies on.
        if let Err(msg) = crate::bench::validate_bench_file(&text) {
            eprintln!("bench: produced an invalid `{}`: {msg}", path.display());
            return 1;
        }
        if let Err(e) = std::fs::write(&path, text.as_bytes()) {
            eprintln!("bench: cannot write `{}`: {e}", path.display());
            return 1;
        }
        report.push_str(&format!("wrote {}\n", path.display()));
        match baseline {
            Some(old) => report.push_str(&crate::bench::delta_report(&old, &file)),
            None => report.push_str(&format!("  {area}: no baseline — first trajectory point\n")),
        }
        written.push(file);
    }
    if json {
        eprint!("{report}");
        let value = Value::Array(written.iter().map(serde::Serialize::to_value).collect());
        println!("{}", render_value(&value));
    } else {
        print!("{report}");
    }
    // Timing moves never gate, but under `--strict-checks` a check-counter
    // drift against the committed baseline does: the work changed, not just
    // its speed. CI runs with this flag so behaviour drift cannot land as a
    // silent "perf" diff.
    if strict_checks && report.contains("BEHAVIOUR DRIFT") {
        eprintln!("bench: check counters drifted from the committed baseline (--strict-checks)");
        return 1;
    }
    0
}

/// Load a scenario from a JSON or TOML file (decided by extension; files
/// without a recognised extension are tried as JSON first, then TOML).
pub fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".toml") {
        crate::toml::from_toml_str(&text).map_err(|e| format!("`{path}`: {e}"))
    } else if lower.ends_with(".json") {
        serde_json::from_str(&text).map_err(|e| format!("`{path}`: {e}"))
    } else {
        serde_json::from_str(&text)
            .or_else(|json_err| {
                crate::toml::from_toml_str(&text)
                    .map_err(|toml_err| format!("as JSON: {json_err}; as TOML: {toml_err}"))
            })
            .map_err(|e| format!("`{path}`: {e}"))
    }
}

/// Print an entry's output: the table to stdout, then the JSON built under
/// `--json`. An entry that declares its JSON the primary artifact gets
/// pure JSON on stdout, with the table moved to stderr.
fn emit(output: &EntryOutput) {
    match &output.json {
        Some(json) => {
            if output.json_owns_stdout {
                eprint!("{}", output.stdout);
            } else {
                print!("{}", output.stdout);
            }
            println!("{json}");
        }
        None => print!("{}", output.stdout),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SchemeSpec, TopologySpec, WorkloadSpec};
    use xgft_analysis::AlgorithmSpec;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exit_codes_are_consistent() {
        assert_eq!(main_with_args(vec![]), 2);
        assert_eq!(main_with_args(args(&["help"])), 0);
        assert_eq!(main_with_args(args(&["list"])), 0);
        assert_eq!(main_with_args(args(&["list", "--json"])), 0);
        assert_eq!(main_with_args(args(&["list", "--bogus"])), 2);
        assert_eq!(main_with_args(args(&["no_such_scenario"])), 2);
        assert_eq!(main_with_args(args(&["fig1", "--bogus"])), 2);
        assert_eq!(main_with_args(args(&["run"])), 2);
        assert_eq!(main_with_args(args(&["run", "/no/such/file.json"])), 2);
        assert_eq!(main_with_args(args(&["run", "a.json", "b.json"])), 2);
    }

    #[test]
    fn strict_checks_gates_behaviour_drift_but_not_timing() {
        let dir = std::env::temp_dir().join("xgft-cli-strict-checks");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap().to_string();
        let bench = |extra: &[&str]| {
            let mut argv = vec!["bench", "--quick", "--areas", "compile", "--dir", &dir_s];
            argv.extend_from_slice(extra);
            main_with_args(args(&argv))
        };
        // First run writes the baseline; rerunning the same code cannot
        // drift the deterministic checks, so strict mode stays green even
        // though the timings differ run to run.
        assert_eq!(bench(&[]), 0);
        assert_eq!(bench(&["--strict-checks"]), 0);
        // Tamper with a check counter in the committed baseline. A lax run
        // only reports the drift; a strict run fails on it.
        let path = dir.join(crate::bench::bench_file_name("compile"));
        let tamper = || {
            let mut file =
                crate::bench::validate_bench_file(&std::fs::read_to_string(&path).unwrap())
                    .unwrap();
            file.probes[0].checks[0].value += 1;
            std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();
        };
        tamper();
        assert_eq!(bench(&[]), 0);
        tamper();
        assert_eq!(bench(&["--strict-checks"]), 1);
    }

    #[test]
    fn spec_files_load_in_both_formats() {
        let spec = ScenarioSpec::basic(
            "cli-test",
            TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
            WorkloadSpec::new("wrf", 16, 16 * 1024),
            vec![SchemeSpec(AlgorithmSpec::DModK)],
        );
        let dir = std::env::temp_dir().join("xgft-cli-test");
        std::fs::create_dir_all(&dir).unwrap();

        let json_path = dir.join("spec.json");
        std::fs::write(&json_path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
        let loaded = load_spec(json_path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, spec);

        let toml_path = dir.join("spec.toml");
        std::fs::write(&toml_path, crate::toml::to_toml_string(&spec).unwrap()).unwrap();
        let loaded = load_spec(toml_path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, spec);

        // A valid file run end-to-end through the CLI returns 0.
        assert_eq!(
            main_with_args(args(&["run", json_path.to_str().unwrap(), "--quick"])),
            0
        );

        // Invalid content is a usage-class error.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"schema_version\": 99}").unwrap();
        assert_eq!(main_with_args(args(&["run", bad.to_str().unwrap()])), 2);
    }
}
