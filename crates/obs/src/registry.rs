//! Thread-safe metrics registry: counters, gauges, and latency histograms
//! behind one mutex, keyed by name, with JSON and table export.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Apply `f` to the entry for `name`, looked up by `&str`: the name is
/// copied into the map only when the entry is created (at its default).
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named counters, gauges, and log-bucketed
/// histograms.
///
/// All mutation goes through one [`Mutex`]; recording a metric is a lock,
/// a `BTreeMap` lookup, and an add — cheap enough that instrumented call
/// sites batch at most a handful of updates per operation (per Gram call,
/// per query, per fit stage), never per element. `BTreeMap` keeps every
/// export deterministically name-ordered.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock poisons it, but the data is
        // plain counters — always recover.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `by` to counter `name` (created at zero on first use).
    pub fn incr(&self, name: &str, by: u64) {
        update(&mut self.lock().counters, name, |c| *c += by);
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        update(&mut self.lock().gauges, name, |g| *g = v);
    }

    /// Record one sample into histogram `name`.
    pub fn record(&self, name: &str, v: f64) {
        update(&mut self.lock().histograms, name, |h| h.record(v));
    }

    /// Record a wall-time duration (in seconds) into histogram `name`.
    pub fn record_duration(&self, name: &str, d: Duration) {
        self.record(name, d.as_secs_f64());
    }

    /// Time a closure and record its wall time into histogram `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record_duration(name, start.elapsed());
        out
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().histograms.get(name).map(Histogram::snapshot)
    }

    /// Every metric name in the registry (counters, gauges, histograms),
    /// sorted and deduplicated.
    pub fn names(&self) -> Vec<String> {
        let inner = self.lock();
        let mut names: Vec<String> = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.histograms.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Drop every metric (tests and benches use this to isolate runs).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }

    /// Serialize the registry as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters":   { "name": 42, ... },
    ///   "gauges":     { "name": 1.5, ... },
    ///   "histograms": {
    ///     "name": {
    ///       "count": 10, "rejected": 0, "sum": 0.5,
    ///       "min": 0.01, "max": 0.2, "mean": 0.05,
    ///       "p50": 0.04, "p95": 0.2, "p99": 0.2,
    ///       "buckets": [ { "le": 0.065536, "count": 9 }, ... ]
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// Hand-rolled (the crate is zero-dependency); non-finite floats
    /// render as `null` so the output is always valid JSON.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        push_entries(&mut out, inner.counters.iter(), |s, v| {
            s.push_str(&v.to_string());
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, inner.gauges.iter(), |s, v| {
            s.push_str(&json_f64(*v));
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, inner.histograms.iter(), |s, h| {
            push_histogram(s, &h.snapshot());
        });
        out.push_str("}\n}\n");
        out
    }

    /// Render a fixed-width human-readable table of every metric.
    pub fn render_table(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        if !inner.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &inner.counters {
                out.push_str(&format!("  {name:<44} {v:>12}\n"));
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, v) in &inner.gauges {
                out.push_str(&format!("  {name:<44} {v:>12.4}\n"));
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str(&format!(
                "histograms\n  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            ));
            for (name, h) in &inner.histograms {
                let s = h.snapshot();
                out.push_str(&format!(
                    "  {:<44} {:>8} {:>10.6} {:>10} {:>10} {:>10} {:>10.6}\n",
                    name,
                    s.count,
                    s.mean,
                    table_quantile(s.p50),
                    table_quantile(s.p95),
                    table_quantile(s.p99),
                    s.max
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Write [`MetricsRegistry::to_json`] to `path` atomically: the JSON
    /// goes to a dot-prefixed temp file in the destination directory,
    /// is flushed explicitly, and is renamed over the target only on
    /// success; the temp file is removed on any failure.
    ///
    /// The temp name carries the process id *and* a process-global
    /// sequence number so concurrent dumps to the same path (two threads
    /// of one server) never share a temporary — the same fix as
    /// `PipelineSnapshot::save`'s concurrent-save race.
    pub fn write_json_atomic(&self, path: &Path) -> std::io::Result<()> {
        static DUMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let json = self.to_json();
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
            })?
            .to_string_lossy()
            .into_owned();
        let mut tmp = path.to_path_buf();
        tmp.set_file_name(format!(
            ".{file_name}.tmp-{}-{}",
            std::process::id(),
            DUMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
            file.flush()?;
            std::fs::rename(&tmp, path)
        };
        let result = write();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

/// Append `"key": <value>` pairs, comma-separated, via `emit`.
fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    emit: impl Fn(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        emit(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn push_histogram(out: &mut String, s: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\": {}, \"rejected\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        s.count,
        s.rejected,
        json_f64(s.sum),
        json_f64(s.min),
        json_f64(s.max),
        json_f64(s.mean),
        json_opt_f64(s.p50),
        json_opt_f64(s.p95),
        json_opt_f64(s.p99),
    ));
    for (i, (le, count)) in s.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"le\": {}, \"count\": {count}}}",
            json_f64(*le)
        ));
    }
    out.push_str("]}");
}

/// An absent quantile rendered for JSON: `null`, never a fake zero — a
/// fresh histogram has no p99, and consumers must be able to tell "no
/// samples yet" from "all samples were instant".
fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// An absent quantile rendered for the table: `-`, never a fake zero.
fn table_quantile(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.6}"),
        None => "-".to_string(),
    }
}

/// A JSON number, or `null` for non-finite values.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's Display for f64 is round-trip shortest and never emits
        // exponent notation, so the output is always a valid JSON number.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append a JSON string literal with escaping.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // char → u32 is the identity on code points
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.incr("queries", 3);
        reg.incr("queries", 2);
        reg.set_gauge("vocab", 812.0);
        reg.record("latency", 0.001);
        reg.record("latency", 0.002);
        assert_eq!(reg.counter("queries"), 5);
        assert_eq!(reg.gauge("vocab"), Some(812.0));
        let h = reg.histogram("latency").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 0.003).abs() < 1e-12);
        assert_eq!(
            reg.names(),
            vec!["latency".to_string(), "queries".into(), "vocab".into()]
        );
    }

    #[test]
    fn time_records_one_sample_and_returns_value() {
        let reg = MetricsRegistry::new();
        let v = reg.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(reg.histogram("work").unwrap().count, 1);
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let reg = MetricsRegistry::new();
        reg.incr("b.count", 1);
        reg.incr("a.count", 2);
        reg.set_gauge("g", f64::NAN); // must render as null, not NaN
        reg.record("h", 0.5);
        let json = reg.to_json();
        assert!(json.contains("\"a.count\": 2"));
        assert!(json.contains("\"g\": null"));
        assert!(json.contains("\"p50\": 0.5"));
        // Name order is sorted: a.count before b.count.
        assert!(json.find("a.count").unwrap() < json.find("b.count").unwrap());
        assert_eq!(json, reg.to_json());
    }

    #[test]
    fn table_renders_every_section() {
        let reg = MetricsRegistry::new();
        reg.incr("c", 1);
        reg.set_gauge("g", 2.0);
        reg.record("h", 0.25);
        let table = reg.render_table();
        assert!(table.contains("counters"));
        assert!(table.contains("gauges"));
        assert!(table.contains("histograms"));
        assert!(table.contains("p95"));
        assert_eq!(
            MetricsRegistry::new().render_table(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn empty_histogram_exports_null_quantiles_not_zero() {
        // Regression: a histogram whose only samples were rejected (NaN)
        // exists in the registry with count 0; its quantiles used to
        // export as a plausible-looking 0 — a fresh server's /metrics
        // showed p99=0 and looked healthy. Absence is now explicit.
        let reg = MetricsRegistry::new();
        reg.record("empty.latency", f64::NAN);
        let h = reg.histogram("empty.latency").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.p99, None);
        let json = reg.to_json();
        assert!(
            json.contains("\"p50\": null, \"p95\": null, \"p99\": null"),
            "{json}"
        );
        let table = reg.render_table();
        let row = table.lines().find(|l| l.contains("empty.latency")).unwrap();
        assert!(row.contains('-'), "{row}");
        // A recorded histogram still exports numeric quantiles.
        reg.record("live.latency", 0.5);
        assert!(reg.to_json().contains("\"p50\": 0.5"));
    }

    #[test]
    fn clear_empties_everything() {
        let reg = MetricsRegistry::new();
        reg.incr("c", 1);
        reg.record("h", 1.0);
        reg.clear();
        assert_eq!(reg.counter("c"), 0);
        assert!(reg.histogram("h").is_none());
        assert!(reg.names().is_empty());
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn atomic_json_dump_writes_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("obs-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let reg = MetricsRegistry::new();
        reg.incr("c", 7);
        reg.write_json_atomic(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"c\": 7"));
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
