//! The per-layer metric catalogue and its evaluation from spans and counts.
//!
//! Every per-layer metric is named `<workload>.<layer>.<metric>`, so the
//! same layer reads separately on each workload that drives it (netsim
//! serves both the chaos batches and the campaign's replays, and a change
//! can move the two in opposite directions).

use crate::decompose::Outcome;
use crate::trace::{self_times_ns, Span};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// How a metric is computed from one traced decomposition.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Summed self time (s) of every span with this name.
    SelfTime(&'static str),
    /// A count recorded at a layer boundary.
    Count(&'static str),
    /// A count per second of a span's self time.
    Rate(&'static str, &'static str),
    /// One count over another.
    Ratio(&'static str, &'static str),
    /// Median duration (s) of the `analysis.shard` spans.
    ShardP50,
    /// Largest duration (s) of the `analysis.shard` spans.
    ShardMax,
    /// Largest over median shard duration.
    Straggler,
    /// Share of the decomposition's wall time covered by layer self time.
    Coverage,
    /// Median warm `run_scenario` pass with telemetry on (s). This and
    /// the next two come from the traced run's repetitions, not from one
    /// decomposition.
    TelemetryOn,
    /// Median warm `run_scenario` pass with telemetry off (s).
    TelemetryOff,
    /// Median decomposition wall time with spans on minus with spans off.
    Overhead,
}

/// One catalogue entry: the name after the workload prefix, its unit, and
/// how it is computed.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> Metric {
    Metric { name, unit, source }
}

/// Layers every workload drives.
#[rustfmt::skip]
const HEAD: &[Metric] = &[
    m("scenario.parse_s", "s", Source::SelfTime("scenario.parse")),
    m("patterns.generate_s", "s", Source::SelfTime("patterns.generate")),
    m("patterns.flows", "count", Source::Count("patterns.flows")),
    m("topo.build_s", "s", Source::SelfTime("topo.build")),
    m("topo.channels", "count", Source::Count("topo.channels")),
];

#[rustfmt::skip]
const MILLION_FLOW: &[Metric] = &[
    m("core.compact_build_s", "s", Source::SelfTime("core.compact_build")),
    m("core.compact_state_bytes", "bytes", Source::Count("core.compact_state_bytes")),
    m("flow.traffic_s", "s", Source::SelfTime("flow.traffic")),
    m("flow.bound_s", "s", Source::SelfTime("flow.bound")),
    m("flow.loads_s", "s", Source::SelfTime("flow.loads")),
    m("flow.flows", "count", Source::Count("flow.flows")),
    m("flow.hops", "count", Source::Count("flow.hops")),
    m("flow.hops_per_s", "1/s", Source::Rate("flow.hops", "flow.loads")),
];

#[rustfmt::skip]
const COMPILE: &[Metric] = &[
    m("core.compile_s", "s", Source::SelfTime("core.compile")),
    m("core.compile_calls", "count", Source::Count("core.compile_calls")),
    m("core.compile_routes", "count", Source::Count("core.compile_routes")),
    m("core.compile_hops", "count", Source::Count("core.compile_hops")),
];

#[rustfmt::skip]
const SHARDS: &[Metric] = &[
    m("analysis.shards", "count", Source::Count("analysis.shards")),
    m("analysis.shard_s.p50", "s", Source::ShardP50),
    m("analysis.shard_s.max", "s", Source::ShardMax),
    m("analysis.straggler_ratio", "ratio", Source::Straggler),
];

#[rustfmt::skip]
const CG_CAMPAIGN: &[Metric] = &[
    m("tracesim.plan_s", "s", Source::SelfTime("tracesim.plan")),
    m("tracesim.crossbar_s", "s", Source::SelfTime("tracesim.crossbar")),
    m("tracesim.replay_s", "s", Source::SelfTime("tracesim.replay")),
    m("tracesim.replays", "count", Source::Count("tracesim.replays")),
    m("tracesim.messages", "count", Source::Count("tracesim.messages")),
    m("tracesim.messages_per_s", "1/s", Source::Rate("tracesim.messages", "tracesim.replay")),
    m("netsim.build_s", "s", Source::SelfTime("netsim.build")),
    m("netsim.events", "count", Source::Count("netsim.events")),
    m("netsim.event_queue_hwm", "count", Source::Count("netsim.event_queue_hwm")),
    m("netsim.delivered", "count", Source::Count("netsim.delivered")),
];

#[rustfmt::skip]
const CHAOS_TIMELINE: &[Metric] = &[
    m("analysis.timeline_s", "s", Source::SelfTime("analysis.timeline")),
    m("core.clone_s", "s", Source::SelfTime("core.clone")),
    m("core.patch_s", "s", Source::SelfTime("core.patch")),
    m("core.patch_calls", "count", Source::Count("core.patch_calls")),
    m("core.patch_rerouted", "count", Source::Count("core.patch_rerouted")),
    m("core.patch_untouched", "count", Source::Count("core.patch_untouched")),
    m("core.patch_touched_ratio", "ratio", Source::Ratio("core.patch_touched", "core.patch_pairs")),
    m("netsim.build_s", "s", Source::SelfTime("netsim.build")),
    m("netsim.lower_s", "s", Source::SelfTime("netsim.lower")),
    m("netsim.reset_s", "s", Source::SelfTime("netsim.reset")),
    m("netsim.schedule_s", "s", Source::SelfTime("netsim.schedule")),
    m("netsim.event_loop_s", "s", Source::SelfTime("netsim.event_loop")),
    m("netsim.events", "count", Source::Count("netsim.events")),
    m("netsim.events_per_s", "1/s", Source::Rate("netsim.events", "netsim.event_loop")),
    m("netsim.event_queue_hwm", "count", Source::Count("netsim.event_queue_hwm")),
    m("netsim.batch_messages", "count", Source::Count("netsim.batch_messages")),
    m("netsim.delivered", "count", Source::Count("netsim.delivered")),
    m("netsim.dropped", "count", Source::Count("netsim.dropped")),
];

/// Measured by the traced run around the decompositions.
#[rustfmt::skip]
pub const TAIL: &[Metric] = &[
    m("obs.telemetry_on_s", "s", Source::TelemetryOn),
    m("obs.telemetry_off_s", "s", Source::TelemetryOff),
    m("trace.overhead_s", "s", Source::Overhead),
    m("trace.coverage", "ratio", Source::Coverage),
];

/// The catalogue of `workload`, in report order.
pub fn catalogue(workload: Workload) -> Vec<Metric> {
    let body: &[&[Metric]] = match workload {
        Workload::MillionFlow => &[MILLION_FLOW],
        Workload::CgCampaign => &[COMPILE, CG_CAMPAIGN, SHARDS],
        Workload::ChaosTimeline => &[COMPILE, CHAOS_TIMELINE, SHARDS],
    };
    std::iter::once(HEAD)
        .chain(body.iter().copied())
        .chain(std::iter::once(TAIL))
        .flatten()
        .copied()
        .collect()
}

/// The reported name of `metric` on `workload`.
pub fn full_name(workload: Workload, metric: &Metric) -> String {
    format!("{}.{}", workload.name(), metric.name)
}

/// Which direction of `metric` is better: rates, coverage and delivered
/// messages higher, times and work counts lower.
pub fn better(metric: &Metric) -> &'static str {
    let higher =
        metric.unit == "1/s" || matches!(metric.name, "trace.coverage" | "netsim.delivered");
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// True for a valid metric or workload name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Every span-derived metric of one traced decomposition whose spans are
/// `spans` (the first span being the workload's root).
pub fn evaluate(workload: Workload, spans: &[Span], outcome: &Outcome) -> BTreeMap<String, f64> {
    let self_ns = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(&self_ns) {
        *by_name.entry(span.name).or_insert(0) += ns;
    }
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let count = |name: &str| outcome.counts.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let shard_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "analysis.shard")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    let shard_p50 = median(&shard_s);
    let shard_max = shard_s.iter().copied().fold(0.0, f64::max);
    let mut values = BTreeMap::new();
    for metric in catalogue(workload) {
        let value = match metric.source {
            Source::SelfTime(span) => self_s(span),
            Source::Count(name) => count(name),
            Source::Rate(name, span) => per(count(name), self_s(span)),
            Source::Ratio(num, den) => per(count(num), count(den)),
            Source::ShardP50 => shard_p50,
            Source::ShardMax => shard_max,
            Source::Straggler => per(shard_max, shard_p50),
            Source::Coverage => match (spans.first(), self_ns.first()) {
                (Some(root), Some(&root_self)) => {
                    1.0 - per(root_self as f64, root.duration_ns() as f64)
                }
                _ => 0.0,
            },
            Source::TelemetryOn | Source::TelemetryOff | Source::Overhead => continue,
        };
        values.insert(full_name(workload, &metric), value);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for workload in ALL {
            assert!(valid_name(workload.name()));
            for metric in catalogue(workload) {
                let name = full_name(workload, &metric);
                assert!(valid_name(&name), "invalid metric name {name}");
                assert!(valid_unit(metric.unit), "invalid unit {}", metric.unit);
                assert!(seen.insert(name.clone()), "duplicate metric name {name}");
            }
        }
        assert!(seen.len() <= 128);
    }

    #[test]
    fn name_validity_rule() {
        assert!(valid_name("cg_campaign.analysis.shard_s.p50"));
        assert!(valid_unit("1/s") && valid_unit("count") && !valid_unit("per second"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn evaluation_uses_self_time_counts_and_shards() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            workload: "cg_campaign",
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span("workload", 0, 1_000_000_000, None),
            span("analysis.shard", 0, 400_000_000, Some(0)),
            span("tracesim.replay", 100_000_000, 400_000_000, Some(1)),
            span("analysis.shard", 500_000_000, 700_000_000, Some(0)),
            span("tracesim.replay", 500_000_000, 600_000_000, Some(3)),
        ];
        let mut outcome = Outcome::default();
        outcome.counts.insert("tracesim.messages", 800.0);
        let values = evaluate(Workload::CgCampaign, &spans, &outcome);
        let get = |n: &str| values[&format!("cg_campaign.{n}")];
        assert!((get("tracesim.replay_s") - 0.4).abs() < 1e-12);
        assert!((get("tracesim.messages_per_s") - 2000.0).abs() < 1e-9);
        assert!((get("analysis.shard_s.max") - 0.4).abs() < 1e-12);
        assert!((get("analysis.shard_s.p50") - 0.3).abs() < 1e-12);
        // Root self time is 0.4 s of 1 s.
        assert!((get("trace.coverage") - 0.6).abs() < 1e-12);
        assert_eq!(get("core.compile_calls"), 0.0);
        assert!(!values.contains_key("cg_campaign.trace.overhead_s"));
    }
}
