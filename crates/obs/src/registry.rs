//! Metric registries and snapshots.

use crate::value::json_escape;
use crate::{Counter, Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// A store of named metric families.
///
/// Metrics are created on first use and live for the registry's
/// lifetime. A metric is addressed by name (`"core.restore.calls"`) and
/// optionally a label (`counter_with("sim.outage", "local_edge_bypass")`),
/// which is rendered as `name{label}`. A lookup that finds its metric
/// allocates nothing, labeled or not.
///
/// Entries are never removed ([`reset`](Registry::reset) zeroes them in
/// place). Handles are `Arc`s, and the unlabeled `obs_*!` macros resolve
/// theirs once per call site and keep it in a `static`, recording with
/// atomics and no lock from then on. That is sound only because the
/// entry a cached handle points at is the one every snapshot reads.
///
/// Most code uses the process-global registry via the `obs_*!` macros;
/// separate instances exist for tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Family<Counter>>,
    histograms: Mutex<Family<Histogram>>,
}

/// One metric kind's entries, keyed `name` or `name{label}`, plus a key
/// buffer reused across lookups so a hit never allocates.
#[derive(Debug, Default)]
struct Family<M> {
    metrics: BTreeMap<String, Arc<M>>,
    key: String,
}

impl Registry {
    /// A new empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-global registry the `obs_*!` macros record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name, None)
    }

    /// The `label`-labeled counter in the `name` family.
    pub fn counter_with(&self, name: &str, label: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name, Some(label))
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name, None)
    }

    /// The `label`-labeled histogram in the `name` family.
    pub fn histogram_with(&self, name: &str, label: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name, Some(label))
    }

    fn get_or_insert<M: Default>(
        family: &Mutex<Family<M>>,
        name: &str,
        label: Option<&str>,
    ) -> Arc<M> {
        let mut family = family.lock().unwrap();
        let Family { metrics, key } = &mut *family;
        key.clear();
        key.push_str(name);
        if let Some(l) = label {
            key.push('{');
            key.push_str(l);
            key.push('}');
        }
        if let Some(m) = metrics.get(key.as_str()) {
            return Arc::clone(m);
        }
        Arc::clone(metrics.entry(key.clone()).or_default())
    }

    /// Freezes every metric into a [`Snapshot`], sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .metrics
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .metrics
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// [`snapshot`](Registry::snapshot) of the global registry.
    pub fn global_snapshot() -> Snapshot {
        Registry::global().snapshot()
    }

    /// Zeroes every metric in place. Entries are kept, so handles cached
    /// by call sites keep reporting. Intended for tests and between-suite
    /// isolation.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().metrics.values() {
            c.reset();
        }
        for h in self.histograms.lock().unwrap().metrics.values() {
            h.reset();
        }
    }
}

/// A frozen, sorted view of a [`Registry`]'s metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// The value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The summary of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders a fixed-width human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("histograms\n");
            let width = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0)
                .max("name".len());
            let _ = writeln!(
                out,
                "  {:<width$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, s) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:>10}  {:>12.1}  {:>12}  {:>12}  {:>12}  {:>12}",
                    name, s.count, s.mean, s.p50, s.p95, s.p99, s.max
                );
            }
        }
        out
    }

    /// Serializes the snapshot as one JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, sum, mean, p50,
    /// p95, p99, max}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(name),
                s.count,
                s.sum,
                s.mean,
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_labels() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        r.counter_with("a", "x").inc();
        r.counter_with("a", "x").add(2);
        r.counter_with("a", "y").inc();
        r.histogram("h").record(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(7));
        assert_eq!(snap.counter("a{x}"), Some(3));
        assert_eq!(snap.counter("a{y}"), Some(1));
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn reset_keeps_entries() {
        let r = Registry::new();
        r.counter("a").add(9);
        r.histogram("h").record(5);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(0));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
    }

    #[test]
    fn json_shape() {
        let r = Registry::new();
        r.counter("c").inc();
        r.histogram("h").record(2);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\":1"));
        assert!(json.contains("\"count\":1"));
    }
}
