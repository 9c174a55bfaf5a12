//! The metrics registry: named counters, gauges and log2-bucket histograms.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63..=u64::MAX`.
pub const NUM_HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrite the gauge with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water semantics).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log2-bucket histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `b > 0` holds samples in
/// `[2^(b-1), 2^b)` (the last bucket tops out at `u64::MAX`). Count, sum,
/// min and max are tracked exactly; the bucket layout bounds any quantile
/// estimate to within a factor of two, which is all a wall-clock or
/// latency trajectory needs.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_HISTOGRAM_BUCKETS],
}

/// The bucket a value falls into: 0 for 0, `floor(log2(v)) + 1` otherwise.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (`None` while empty).
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample (`None` while empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    fn bucket_counts(&self) -> [u64; NUM_HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// A registry of named metrics. Lookups take a read lock over a sorted
/// map; the returned `Arc` can be cached by hot callers so repeated
/// operations touch only the atomic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// A poisoned lock is recovered, not propagated: the maps only ever gain
/// entries, so a panic elsewhere cannot leave one half-updated, and
/// instrumentation that observes a run must never panic it.
fn get_or_insert<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(found) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return Arc::clone(found);
    }
    let mut write = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(write.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter called `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge called `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram called `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// A consistent-enough point-in-time copy of every metric, sorted by
    /// name. (Individual cells are read atomically; the snapshot as a whole
    /// is not a cross-metric transaction, which per-run deltas don't need.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| CounterSample {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, h)| {
                let raw = h.bucket_counts();
                HistogramSample {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min().unwrap_or(0),
                    max: h.max().unwrap_or(0),
                    buckets: raw
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| HistogramBucket {
                            floor: bucket_floor(i),
                            count: c,
                        })
                        .collect(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Lower bound of bucket `i` (0, then powers of two).
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// One counter's name and value inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Counter value (or delta, inside a [`MetricsSnapshot::delta_since`]).
    pub value: u64,
}

/// One gauge's name and value inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Gauge level at snapshot time.
    pub value: u64,
}

/// One occupied histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Lower bound of the bucket (0, then powers of two).
    pub floor: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One histogram's state inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Occupied buckets, ascending by floor.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSample {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate: the floor of the bucket the
    /// `q`-quantile sample falls in (exact to within a factor of two).
    pub fn quantile_floor(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.floor;
            }
        }
        self.buckets.last().map(|b| b.floor).unwrap_or(0)
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], or the delta between two
/// of them. Serializes deterministically (entries sorted by name).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The counter value for `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The gauge value for `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The histogram sample for `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// What happened between `earlier` and `self`: counters and histogram
    /// counts/sums/buckets are subtracted (entries whose delta is zero are
    /// dropped); gauges keep their later *level* (a gauge is a state, not a
    /// rate — high-water gauges in particular cover the whole process
    /// lifetime). Histogram min/max are the later snapshot's bounds, which
    /// over-approximate the interval when earlier runs saw wider samples.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let before = earlier.counter(&c.name).unwrap_or(0);
                let delta = c.value.saturating_sub(before);
                (delta > 0).then(|| CounterSample {
                    name: c.name.clone(),
                    value: delta,
                })
            })
            .collect();
        let gauges = self.gauges.clone();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let empty_buckets = Vec::new();
                let (count0, sum0, buckets0) = match earlier.histogram(&h.name) {
                    Some(e) => (e.count, e.sum, &e.buckets),
                    None => (0, 0, &empty_buckets),
                };
                let count = h.count.saturating_sub(count0);
                if count == 0 {
                    return None;
                }
                let buckets = h
                    .buckets
                    .iter()
                    .filter_map(|b| {
                        let before = buckets0
                            .iter()
                            .find(|e| e.floor == b.floor)
                            .map(|e| e.count)
                            .unwrap_or(0);
                        let delta = b.count.saturating_sub(before);
                        (delta > 0).then_some(HistogramBucket {
                            floor: b.floor,
                            count: delta,
                        })
                    })
                    .collect();
                Some(HistogramSample {
                    name: h.name.clone(),
                    count,
                    sum: h.sum.saturating_sub(sum0),
                    min: h.min,
                    max: h.max,
                    buckets,
                })
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(5);
        reg.counter("a").incr();
        reg.gauge("g").set(10);
        reg.gauge("g").set_max(7); // lower: ignored
        reg.gauge("g").set_max(12); // higher: wins
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(6));
        assert_eq!(snap.gauge("g"), Some(12));
        assert_eq!(snap.counter("missing"), None);
    }

    /// The satellite edge-case test: 0, 1 and `u64::MAX` land in the first,
    /// second and last bucket respectively, and min/max/count stay exact.
    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("edges");
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let snap = reg.snapshot();
        let sample = snap.histogram("edges").unwrap();
        assert_eq!(sample.count, 3);
        assert_eq!(
            sample.buckets,
            vec![
                HistogramBucket { floor: 0, count: 1 },
                HistogramBucket { floor: 1, count: 1 },
                HistogramBucket {
                    floor: 1 << 63,
                    count: 1
                },
            ]
        );
        assert_eq!(sample.quantile_floor(0.0), 0);
        assert_eq!(sample.quantile_floor(1.0), 1 << 63);
    }

    #[test]
    fn empty_histogram_reports_no_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let snap = reg.snapshot();
        let sample = snap.histogram("empty").unwrap();
        assert_eq!(sample.count, 0);
        assert!(sample.buckets.is_empty());
        assert_eq!(sample.mean(), 0.0);
        assert_eq!(sample.quantile_floor(0.5), 0);
    }

    /// The satellite concurrency test: counter increments from rayon shards
    /// (real scoped threads in the shim) must never lose an update.
    #[test]
    fn concurrent_counter_increments_under_rayon_shards() {
        let reg = MetricsRegistry::new();
        let shards: Vec<usize> = (0..64).collect();
        let _: Vec<()> = shards
            .par_iter()
            .map(|_| {
                let c = reg.counter("shared");
                for _ in 0..1000 {
                    c.incr();
                }
                reg.histogram("lat").record(42);
            })
            .collect();
        assert_eq!(reg.counter("shared").get(), 64_000);
        assert_eq!(reg.histogram("lat").count(), 64);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(10);
        reg.histogram("h").record(5);
        reg.gauge("g").set(3);
        let before = reg.snapshot();
        reg.counter("c").add(7);
        reg.counter("new").add(2);
        reg.histogram("h").record(9);
        reg.histogram("h").record(9);
        reg.gauge("g").set(8);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter("c"), Some(7));
        assert_eq!(delta.counter("new"), Some(2));
        assert_eq!(delta.gauge("g"), Some(8), "gauges keep their level");
        let h = delta.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 18);
        assert_eq!(
            h.buckets,
            vec![HistogramBucket { floor: 8, count: 2 }],
            "only the samples recorded inside the window remain"
        );
        // Unchanged metrics drop out of the delta entirely.
        let quiet = reg.snapshot().delta_since(&reg.snapshot());
        assert!(quiet.counters.is_empty());
        assert!(quiet.histograms.is_empty());
    }

    #[test]
    fn a_poisoned_registry_keeps_counting() {
        let reg = MetricsRegistry::new();
        reg.counter("kept").add(2);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = reg.counters.write();
                    panic!("a panic while the lock is held poisons it");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(reg.counters.is_poisoned());
        reg.counter("kept").incr();
        reg.counter("new").incr();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kept"), Some(3));
        assert_eq!(snap.counter("new"), Some(1));
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(1);
        reg.counter("a").add(2);
        let a = serde_json::to_string(&reg.snapshot()).unwrap();
        let b = serde_json::to_string(&reg.snapshot()).unwrap();
        assert_eq!(a, b);
        assert!(a.find("\"a\"").unwrap() < a.find("\"b\"").unwrap());
        // And the snapshot round-trips through JSON.
        let parsed: MetricsSnapshot = serde_json::from_str(&a).unwrap();
        assert_eq!(parsed, reg.snapshot());
    }
}
