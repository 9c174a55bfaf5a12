//! The single shared command-line parser of the experiment layer.
//!
//! Every registry entry (and therefore every legacy binary shim) accepts
//! the same flags through this one parser, so a flag can never drift
//! between experiments again:
//!
//! * `--quick`            — few seeds, strongly scaled-down message sizes.
//! * `--full`             — paper-scale message sizes and 40 seeds.
//! * `--seeds <n>`        — number of seeds for randomised schemes.
//! * `--scale <f>`        — per-message byte scale (1.0 = paper sizes).
//! * `--w2 <a,b,c>`       — explicit list of w2 values to sweep.
//! * `--json`             — additionally emit the result as JSON to stdout.
//! * `--analytic`         — evaluate through the `xgft-flow` closed-form
//!   channel-load model instead of replaying the simulation.
//! * `--k <n>`            — switch radix of the swept family (default 16).
//! * `--base-seed <s>`    — root of deterministic per-shard seed streams.
//! * `--workload <name>`  — workload generator name (`wrf`, `cg`, `shift`,
//!   `tornado`, `hot_spot`, `k_shift`, …; see [`crate::spec::WorkloadSpec`]).

use std::env;

/// Parsed experiment arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Number of seeds for randomised schemes.
    pub seeds: usize,
    /// Per-message byte scale relative to the paper's sizes.
    pub byte_scale: f64,
    /// Explicit w2 sweep values (descending); `None` = 16..=1.
    pub w2_values: Option<Vec<usize>>,
    /// Emit JSON in addition to the text table.
    pub json: bool,
    /// Use the analytical flow-level model instead of simulation replay.
    pub analytic: bool,
    /// The `--quick` preset was requested (CI smoke mode): experiments skip
    /// their expensive optional sections.
    pub quick: bool,
    /// Switch radix of the swept topology family (16 = the paper's).
    pub k: usize,
    /// Root seed of the campaign's deterministic per-shard seed streams.
    pub base_seed: u64,
    /// Workload generator name (`wrf`, `cg`, `shift`, `tornado`, …).
    pub workload: String,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        // The default is a laptop-friendly run: an eighth of the paper's
        // message sizes (identical slowdown structure, ~8x fewer events) and
        // 8 seeds per box.
        ExperimentArgs {
            seeds: 8,
            byte_scale: 0.125,
            w2_values: None,
            json: false,
            analytic: false,
            quick: false,
            k: 16,
            base_seed: 2009,
            workload: "wrf".to_string(),
        }
    }
}

impl ExperimentArgs {
    /// Parse from an explicit argument iterator (exposed for testing).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut parsed = ExperimentArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => {
                    parsed.seeds = 3;
                    parsed.byte_scale = 1.0 / 64.0;
                    parsed.quick = true;
                }
                "--full" => {
                    parsed.seeds = 40;
                    parsed.byte_scale = 1.0;
                }
                "--seeds" => {
                    let v = iter.next().ok_or("--seeds needs a value")?;
                    parsed.seeds = v.parse().map_err(|_| format!("bad --seeds value: {v}"))?;
                }
                "--scale" => {
                    let v = iter.next().ok_or("--scale needs a value")?;
                    parsed.byte_scale = v.parse().map_err(|_| format!("bad --scale value: {v}"))?;
                }
                "--w2" => {
                    let v = iter.next().ok_or("--w2 needs a comma-separated list")?;
                    let values: Result<Vec<usize>, _> =
                        v.split(',').map(|x| x.trim().parse()).collect();
                    parsed.w2_values = Some(values.map_err(|_| format!("bad --w2 list: {v}"))?);
                }
                "--json" => parsed.json = true,
                "--analytic" => parsed.analytic = true,
                "--k" => {
                    let v = iter.next().ok_or("--k needs a value")?;
                    parsed.k = v.parse().map_err(|_| format!("bad --k value: {v}"))?;
                }
                "--base-seed" => {
                    let v = iter.next().ok_or("--base-seed needs a value")?;
                    parsed.base_seed = v
                        .parse()
                        .map_err(|_| format!("bad --base-seed value: {v}"))?;
                }
                "--workload" => {
                    parsed.workload = iter.next().ok_or("--workload needs a name")?;
                }
                "--help" | "-h" => {
                    return Err(concat!(
                        "usage: <experiment> [--quick|--full] [--seeds N] ",
                        "[--scale F] [--w2 a,b,c] [--json] [--analytic] ",
                        "[--k K] [--base-seed S] [--workload NAME]"
                    )
                    .to_string())
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if parsed.seeds == 0 {
            return Err("--seeds must be at least 1".to_string());
        }
        if parsed.k < 2 {
            return Err("--k must be at least 2".to_string());
        }
        if parsed.byte_scale <= 0.0 {
            return Err("--scale must be positive".to_string());
        }
        Ok(parsed)
    }

    /// Parse from the process arguments, exiting with a message on error.
    pub fn parse() -> Self {
        match Self::parse_from(env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The seed list for randomised schemes.
    pub fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds as u64).collect()
    }

    /// The w2 sweep (descending), defaulting to the paper's 16..=1.
    pub fn w2_sweep(&self) -> Vec<usize> {
        self.w2_values
            .clone()
            .unwrap_or_else(|| (1..=16).rev().collect())
    }

    /// The w2 sweep (descending) for the configured radix, defaulting to
    /// the full `k..=1` slimming range.
    pub fn w2_sweep_for_k(&self) -> Vec<usize> {
        self.w2_values
            .clone()
            .unwrap_or_else(|| (1..=self.k).rev().collect())
    }
}

/// Scale a per-message byte count by the CLI's `--scale` factor, flooring
/// at 1 KB so heavily scaled-down runs still move whole segments.
pub fn scale_bytes(bytes: u64, scale: f64) -> u64 {
    ((bytes as f64 * scale).round() as u64).max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_quick_and_full() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.seeds, 8);
        assert!(d.byte_scale > 0.1 && d.byte_scale < 0.2);
        let q = parse(&["--quick"]).unwrap();
        assert_eq!(q.seeds, 3);
        assert!(q.byte_scale < 0.05);
        assert!(q.quick);
        assert!(!d.quick);
        let f = parse(&["--full"]).unwrap();
        assert_eq!(f.seeds, 40);
        assert_eq!(f.byte_scale, 1.0);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&[
            "--seeds",
            "12",
            "--scale",
            "0.5",
            "--w2",
            "16,8,1",
            "--json",
            "--analytic",
        ])
        .unwrap();
        assert_eq!(a.seeds, 12);
        assert_eq!(a.byte_scale, 0.5);
        assert_eq!(a.w2_values, Some(vec![16, 8, 1]));
        assert!(a.json);
        assert!(a.analytic);
        assert!(!parse(&[]).unwrap().analytic);
        assert_eq!(a.seed_list(), (1..=12).collect::<Vec<u64>>());
        assert_eq!(a.w2_sweep(), vec![16, 8, 1]);
    }

    #[test]
    fn campaign_flags() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.k, 16);
        assert_eq!(d.base_seed, 2009);
        assert_eq!(d.workload, "wrf");
        let a = parse(&["--k", "64", "--base-seed", "7", "--workload", "cg"]).unwrap();
        assert_eq!(a.k, 64);
        assert_eq!(a.base_seed, 7);
        assert_eq!(a.workload, "cg");
        assert_eq!(a.w2_sweep_for_k(), (1..=64).rev().collect::<Vec<_>>());
        let explicit = parse(&["--k", "64", "--w2", "64,32"]).unwrap();
        assert_eq!(explicit.w2_sweep_for_k(), vec![64, 32]);
        assert!(parse(&["--k", "1"]).is_err());
        assert!(parse(&["--k"]).is_err());
        assert!(parse(&["--base-seed", "x"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--w2", "a,b"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn default_w2_sweep_is_paper_range() {
        let d = parse(&[]).unwrap();
        let sweep = d.w2_sweep();
        assert_eq!(sweep.len(), 16);
        assert_eq!(sweep[0], 16);
        assert_eq!(sweep[15], 1);
    }
}
