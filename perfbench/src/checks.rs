//! Check values and invariants of a scenario payload.
//!
//! A workload's check values are the simulated results that must never
//! change under a pure speed change: per-scheme MCLs, per-shard slowdowns,
//! per-epoch delivery counts. They are rendered as exact strings (`{:?}`
//! of an `f64` round-trips), so comparison is byte equality.

use std::collections::BTreeMap;
use xgft_analysis::{CampaignResult, ChaosResult};
use xgft_scenario::runner::CompactFlowResult;
use xgft_scenario::ResultPayload;

/// Check name → exact rendered value.
pub type Checks = BTreeMap<String, String>;

/// Largest number of mismatches a comparison reports by name.
const MAX_REPORTED: usize = 5;

pub fn compact_flow_checks(result: &CompactFlowResult) -> Checks {
    let mut checks = Checks::new();
    for p in &result.points {
        let key = format!(
            "leaves_{}.w2_{}.{}.seed_{}",
            p.num_leaves, p.w_top, p.scheme, p.seed
        );
        checks.insert(format!("{key}.mcl"), format!("{:?}", p.mcl));
        checks.insert(format!("{key}.network_mcl"), format!("{:?}", p.network_mcl));
        checks.insert(
            format!("{key}.routed_demand"),
            format!("{:?}", p.routed_demand),
        );
        checks.insert(
            format!("{key}.route_state_bytes"),
            p.route_state_bytes.to_string(),
        );
    }
    checks
}

/// The key of campaign shard `index`.
pub fn campaign_shard_key(index: usize, w2: usize, algorithm: &str, seed: u64) -> String {
    format!("shard.{index:03}.w2_{w2}.{algorithm}.seed_{seed}.slowdown")
}

pub fn campaign_checks(result: &CampaignResult) -> Checks {
    let mut checks = Checks::new();
    checks.insert("crossbar_ps".to_string(), result.crossbar_ps.to_string());
    for (i, s) in result.shards.iter().enumerate() {
        checks.insert(
            campaign_shard_key(i, s.w2, &s.algorithm, s.seed),
            format!("{:?}", s.slowdown),
        );
    }
    checks
}

/// The key prefix of chaos shard `index`, epoch `epoch`.
pub fn chaos_epoch_key(index: usize, algorithm: &str, draw: usize, epoch: usize) -> String {
    format!("shard.{index:02}.{algorithm}.{draw}.epoch_{epoch:02}")
}

pub fn chaos_checks(result: &ChaosResult) -> Checks {
    let mut checks = Checks::new();
    checks.insert("incidents".to_string(), result.incidents.len().to_string());
    for (i, shard) in result.shards.iter().enumerate() {
        for e in &shard.epochs {
            let key = chaos_epoch_key(i, &shard.algorithm, shard.index, e.epoch);
            checks.insert(format!("{key}.delivered"), e.delivered.to_string());
            checks.insert(format!("{key}.dropped"), e.dropped.to_string());
            checks.insert(format!("{key}.unroutable"), e.unroutable.to_string());
        }
    }
    checks
}

/// Check values of any payload the benchmark's workloads produce.
pub fn payload_checks(payload: &ResultPayload) -> Result<Checks, String> {
    match payload {
        ResultPayload::CompactFlow(r) => Ok(compact_flow_checks(r)),
        ResultPayload::Campaign(r) => Ok(campaign_checks(r)),
        ResultPayload::Chaos(r) => Ok(chaos_checks(r)),
        _ => Err("unexpected payload kind".to_string()),
    }
}

/// Invariants that hold at every seed. `total_demand` is the workload's
/// total traffic in bytes (flow conservation).
pub fn invariants(payload: &ResultPayload, total_demand: f64) -> Vec<String> {
    let mut broken = Vec::new();
    match payload {
        ResultPayload::CompactFlow(r) => {
            for p in &r.points {
                let sum = p.routed_demand + p.unroutable_demand;
                if (sum - total_demand).abs() > 1e-9 * total_demand {
                    broken.push(format!(
                        "{} seed {}: routed {} + unroutable {} != total {total_demand}",
                        p.scheme, p.seed, p.routed_demand, p.unroutable_demand
                    ));
                }
                if p.unroutable_demand != 0.0 {
                    broken.push(format!(
                        "{} seed {}: unroutable demand {} on a pristine machine",
                        p.scheme, p.seed, p.unroutable_demand
                    ));
                }
                if !(p.mcl.is_finite() && p.mcl > 0.0) {
                    broken.push(format!("{} seed {}: mcl {}", p.scheme, p.seed, p.mcl));
                }
            }
        }
        ResultPayload::Campaign(r) => {
            if r.crossbar_ps == 0 {
                broken.push("crossbar completion time is 0".to_string());
            }
            for s in &r.shards {
                if !(s.slowdown.is_finite() && s.slowdown > 0.0) {
                    broken.push(format!(
                        "{} seed {}: slowdown {}",
                        s.algorithm, s.seed, s.slowdown
                    ));
                }
            }
        }
        ResultPayload::Chaos(r) => {
            for (i, shard) in r.shards.iter().enumerate() {
                let offered: usize = shard.epochs.iter().map(|e| e.offered).sum();
                let accounted =
                    shard.total_delivered() + shard.total_dropped() + shard.total_unroutable();
                if shard.epochs.len() != r.epochs
                    || offered != r.offered_per_epoch * r.epochs
                    || offered != accounted
                {
                    broken.push(format!(
                        "shard {i} ({}): offered x epochs = {} x {}, delivered + dropped + unroutable = {accounted}",
                        shard.algorithm, r.offered_per_epoch, r.epochs
                    ));
                }
            }
        }
        _ => broken.push("unexpected payload kind".to_string()),
    }
    broken
}

/// Differences between `expected` and `actual`: one line per differing,
/// missing or extra check, the first few by name and the rest as a count.
pub fn compare(expected: &Checks, actual: &Checks) -> Vec<String> {
    let mut diffs = Vec::new();
    for (key, want) in expected {
        match actual.get(key) {
            Some(got) if got == want => {}
            Some(got) => diffs.push(format!("{key}: expected {want}, got {got}")),
            None => diffs.push(format!("{key}: missing")),
        }
    }
    for key in actual.keys().filter(|k| !expected.contains_key(*k)) {
        diffs.push(format!("{key}: unexpected"));
    }
    if diffs.len() > MAX_REPORTED {
        let more = diffs.len() - MAX_REPORTED;
        diffs.truncate(MAX_REPORTED);
        diffs.push(format!("... and {more} more"));
    }
    diffs
}

/// Render checks as `name value` lines (the format of `pinned/*.txt`).
pub fn render(checks: &Checks) -> String {
    checks.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// Parse `name value` lines; blank lines and `#` comments are skipped.
pub fn parse(text: &str) -> Result<Checks, String> {
    let mut checks = Checks::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: expected `name value`", n + 1))?;
        if checks.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("line {}: duplicate check `{key}`", n + 1));
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checks(pairs: &[(&str, &str)]) -> Checks {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn identical_checks_compare_clean() {
        let a = checks(&[("mcl", "1.5"), ("crossbar_ps", "100")]);
        assert!(compare(&a, &a.clone()).is_empty());
    }

    #[test]
    fn comparator_reports_changed_missing_and_extra_values() {
        let expected = checks(&[("a", "1.0"), ("b", "2"), ("c", "3")]);
        let actual = checks(&[("a", "1.0000000000000002"), ("c", "3"), ("d", "4")]);
        assert_eq!(
            compare(&expected, &actual),
            vec![
                "a: expected 1.0, got 1.0000000000000002".to_string(),
                "b: missing".to_string(),
                "d: unexpected".to_string(),
            ]
        );
    }

    #[test]
    fn comparator_caps_the_report() {
        let expected: Checks = (0..20)
            .map(|i| (format!("k{i:02}"), "0".to_string()))
            .collect();
        let diffs = compare(&expected, &Checks::new());
        assert_eq!(diffs.len(), MAX_REPORTED + 1);
        assert_eq!(diffs.last().unwrap(), "... and 15 more");
    }

    #[test]
    fn float_values_render_exactly_and_round_trip() {
        let value = 0.1 + 0.2;
        let rendered = format!("{value:?}");
        assert_eq!(rendered.parse::<f64>().unwrap(), value);
        assert_ne!(rendered, format!("{:?}", 0.3));
    }

    #[test]
    fn pinned_text_round_trips() {
        let a = checks(&[("x.mcl", "16384.0"), ("shard.000.slowdown", "1.25")]);
        assert_eq!(parse(&render(&a)).unwrap(), a);
        assert!(parse("# comment\n\nk v\n").unwrap().contains_key("k"));
        assert!(parse("novalue\n").is_err());
        assert!(parse("k 1\nk 2\n").is_err());
    }
}
