//! The metrics registry: counters, gauges and log₂-bucketed
//! histograms, exportable as Prometheus text exposition or JSON.
//!
//! Everything is hand-rolled on `std::sync` atomics. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the registered metric, so hot paths update an atomic without
//! touching the registry lock; registration is idempotent (the same
//! name + labels returns the same underlying metric).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary float.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log₂ buckets: bucket `i` (for `i < 63`) counts values in
/// `[2^i, 2^(i+1))`, bucket 0 additionally holds 0 and 1, and the last
/// bucket is the overflow bucket for values `>= 2^63`.
const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Multiplier applied to raw (integer) observations for display:
    /// e.g. `1e-9` for a histogram observed in nanoseconds but exported
    /// in seconds.
    scale: f64,
}

/// A log₂-bucketed histogram over `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` in raw units.
fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in *display* units (raw sum × scale).
    pub fn sum(&self) -> f64 {
        scaled(self.0.sum.load(Ordering::Relaxed) as f64, self.0.scale)
    }

    /// Sum of observations in raw units (as observed, unscaled).
    pub fn sum_raw(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) in raw units: the inclusive
    /// upper bound of the bucket containing the target rank, or 0 for
    /// an empty histogram. Log₂ buckets bound the estimate within 2× of
    /// the true value (except in the overflow bucket).
    pub fn quantile_raw(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.0.buckets[i].load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Estimated `q`-quantile in display units.
    pub fn quantile(&self, q: f64) -> f64 {
        scaled(self.quantile_raw(q) as f64, self.0.scale)
    }

    fn snapshot_buckets(&self) -> Vec<(u64, u64)> {
        // (inclusive upper bound, cumulative count), skipping the empty
        // tail so expositions stay small.
        let mut out = Vec::new();
        let mut cumulative = 0;
        let last_nonempty = (0..BUCKETS)
            .rev()
            .find(|i| self.0.buckets[*i].load(Ordering::Relaxed) > 0)
            .unwrap_or(0);
        for i in 0..=last_nonempty {
            cumulative += self.0.buckets[i].load(Ordering::Relaxed);
            out.push((bucket_upper(i), cumulative));
        }
        out
    }
}

fn scaled(v: f64, scale: f64) -> f64 {
    if scale == 1.0 {
        v
    } else {
        v * scale
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    fn render_labels(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        if let Some(e) = extra {
            pairs.push(e);
        }
        if pairs.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            );
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<HashMap<MetricKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let key = MetricKey::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock");
        let entry = metrics.entry(key).or_insert_with(make);
        pick(entry)
            .unwrap_or_else(|| panic!("metric {name:?} already registered with a different type"))
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or retrieves) a labelled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            name,
            labels,
            || Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Registers (or retrieves) a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            name,
            labels,
            || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a histogram observed in raw units.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[], 1.0)
    }

    /// Registers (or retrieves) a labelled histogram whose display
    /// units are `raw × scale` (use `1e-9` for nanosecond observations
    /// exported as seconds).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], scale: f64) -> Histogram {
        self.get_or_insert(
            name,
            labels,
            || {
                Metric::Histogram(Histogram(Arc::new(HistogramInner {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    scale,
                })))
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    fn sorted(&self) -> Vec<(MetricKey, Metric)> {
        let mut items: Vec<(MetricKey, Metric)> = self
            .metrics
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items
    }

    /// Renders the Prometheus text exposition format. Histograms are
    /// exported with `_bucket`/`_sum`/`_count` series plus estimated
    /// `_p50`/`_p90`/`_p95`/`_p99` series, each declared as its own
    /// gauge family so the output stays strictly parseable
    /// ([`crate::parse_prometheus`] round-trips it).
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        let mut declared: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (key, metric) in self.sorted() {
            if declared.insert(key.name.clone()) {
                let _ = writeln!(out, "# TYPE {} {}", key.name, metric.type_name());
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.render_labels(None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.render_labels(None), g.get());
                }
                Metric::Histogram(h) => {
                    let scale = h.0.scale;
                    for (upper, cumulative) in h.snapshot_buckets() {
                        let le = fmt_f64(scaled(upper as f64, scale));
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            key.name,
                            key.render_labels(Some(("le", &le))),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        key.render_labels(Some(("le", "+Inf"))),
                        h.count()
                    );
                    let labels = key.render_labels(None);
                    let _ = writeln!(out, "{}_sum{labels} {}", key.name, fmt_f64(h.sum()));
                    let _ = writeln!(out, "{}_count{labels} {}", key.name, h.count());
                    for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)]
                    {
                        let family = format!("{}_{suffix}", key.name);
                        if declared.insert(family.clone()) {
                            let _ = writeln!(out, "# TYPE {family} gauge");
                        }
                        let _ = writeln!(out, "{family}{labels} {}", fmt_f64(h.quantile(q)));
                    }
                }
            }
        }
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.9}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_are_shared() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("hits").get(), 3);
    }

    #[test]
    fn labelled_metrics_are_distinct_and_order_insensitive() {
        let r = Registry::new();
        r.counter_with("c", &[("x", "1"), ("y", "2")]).inc();
        r.counter_with("c", &[("y", "2"), ("x", "1")]).inc();
        r.counter_with("c", &[("x", "other"), ("y", "2")]).inc();
        assert_eq!(r.counter_with("c", &[("x", "1"), ("y", "2")]).get(), 2);
        assert_eq!(r.counter_with("c", &[("x", "other"), ("y", "2")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn gauge_holds_floats() {
        let r = Registry::new();
        let g = r.gauge("ratio");
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let r = Registry::new();
        let h = r.histogram("h");
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_raw(0.5), 0);
        assert_eq!(h.quantile_raw(0.99), 0);
    }

    #[test]
    fn single_sample_lands_in_its_bucket() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.observe(100); // bucket [64, 127]
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_raw(q), 127, "q={q}");
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn zero_and_one_share_the_first_bucket() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.observe(0);
        h.observe(1);
        assert_eq!(h.quantile_raw(1.0), 1);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.observe(u64::MAX);
        h.observe(1u64 << 63);
        assert_eq!(h.quantile_raw(0.5), u64::MAX);
        assert_eq!(h.quantile_raw(1.0), u64::MAX);
    }

    #[test]
    fn quantile_estimate_is_within_one_bucket() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // True p50 = 500; the estimate is the upper bound of its bucket
        // [512, 1023] or the one below — within 2x either way.
        let p50 = h.quantile_raw(0.5);
        assert!((250..=1023).contains(&p50), "{p50}");
        // p100 must cover the max.
        assert!(h.quantile_raw(1.0) >= 1000);
        // Quantiles are monotone in q.
        assert!(h.quantile_raw(0.5) <= h.quantile_raw(0.9));
        assert!(h.quantile_raw(0.9) <= h.quantile_raw(0.99));
    }

    #[test]
    fn quantile_edge_cases_empty_single_overflow_and_monotone() {
        let r = Registry::new();

        // Empty: every quantile (including the clamped extremes) is 0.
        let h = r.histogram("empty");
        for q in [-1.0, 0.0, 0.5, 0.9, 0.95, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile_raw(q), 0, "empty histogram, q={q}");
        }

        // Single sample: every quantile is that sample's bucket bound,
        // including out-of-range q (clamped) and a zero observation.
        let h = r.histogram("single_zero");
        h.observe(0);
        for q in [-0.5, 0.0, 0.5, 0.99, 1.0, 7.0] {
            assert_eq!(h.quantile_raw(q), 1, "zero sample, q={q}");
        }
        let h = r.histogram("single_big");
        h.observe(1u64 << 40);
        assert_eq!(h.quantile_raw(0.5), (2u64 << 40) - 1);

        // Values landing in the overflow bucket (>= 2^63) report the
        // overflow bound; small values below keep low quantiles sane.
        let h = r.histogram("overflow_mix");
        for _ in 0..98 {
            h.observe(10);
        }
        h.observe(1u64 << 63);
        h.observe(u64::MAX);
        assert_eq!(h.quantile_raw(0.5), 15, "p50 stays in the small bucket");
        assert_eq!(h.quantile_raw(0.99), u64::MAX, "p99 reaches overflow");
        assert_eq!(h.quantile_raw(1.0), u64::MAX);

        // Monotonicity: p50 <= p90 <= p95 <= p99 on a skewed mix that
        // spans many buckets plus the overflow bucket.
        let h = r.histogram("skewed");
        for i in 0..1000u64 {
            h.observe(i * i);
        }
        h.observe(u64::MAX);
        let (p50, p90, p95, p99) = (
            h.quantile_raw(0.50),
            h.quantile_raw(0.90),
            h.quantile_raw(0.95),
            h.quantile_raw(0.99),
        );
        assert!(p50 <= p90, "{p50} > {p90}");
        assert!(p90 <= p95, "{p90} > {p95}");
        assert!(p95 <= p99, "{p95} > {p99}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("acctee_cache_hits_total").add(5);
        let h = r.histogram_with("acctee_latency_seconds", &[], 1e-9);
        h.observe(1_500_000); // 1.5 ms
        let text = r.export_prometheus();
        assert!(
            text.contains("# TYPE acctee_cache_hits_total counter"),
            "{text}"
        );
        assert!(text.contains("acctee_cache_hits_total 5"), "{text}");
        assert!(
            text.contains("# TYPE acctee_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("acctee_latency_seconds_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("acctee_latency_seconds_count 1"), "{text}");
        assert!(text.contains("acctee_latency_seconds_p50 "), "{text}");
        assert!(text.contains("acctee_latency_seconds_p99 "), "{text}");
        // The 1.5 ms sample exports in seconds.
        assert!(text.contains("acctee_latency_seconds_sum 0.0015"), "{text}");
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let c = r.counter("n");
                let h = r.histogram("h");
                for i in 0..1000 {
                    c.inc();
                    h.observe(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 8000);
        assert_eq!(r.histogram("h").count(), 8000);
    }
}
