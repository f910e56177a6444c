//! Per-op wall-clock profiler keyed on `OpMeta` scope paths.
//!
//! PR 1 attached an [`crate::OpMeta`] (op name + scope path) to every
//! tape node; this module hangs a timing histogram off that metadata so
//! speedups are measured rather than asserted.
//!
//! Forward timing is *gap attribution*: ops compute their value before
//! calling `Graph::record`, so the elapsed time since the previous
//! recorded op is charged to the op being recorded. Leaf ops (`input`,
//! `param`, `declare`) reset the mark without charging anyone, so host
//! work (rendering, sampling) between tape touches is not misattributed
//! to a tensor op. Backward timing is exact: `Graph::backward` brackets
//! each back-closure call and records it under `<path>/bwd`.
//!
//! The enable flag and the sample registry live on the
//! [`crate::runtime::Runtime`] current at the call site, and the free
//! functions here act on that runtime, so two concurrent jobs profile
//! into disjoint registries. Profiling is off by default and
//! costs one relaxed atomic load per recorded op when disabled. Worker
//! threads record into their runtime's registry through a mutex; with
//! profiling on, contention is an accepted observer cost. The forward
//! gap mark is thread-local (a worker's gaps are its own).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use std::cell::Cell;

use crate::runtime;

thread_local! {
    static LAST_MARK: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Number of log2(ns) histogram buckets per op.
pub const BUCKETS: usize = 32;

/// Aggregated timing for one op path.
#[derive(Clone, Debug)]
pub struct OpStat {
    /// Number of samples recorded.
    pub count: u64,
    /// Total wall-clock nanoseconds across all samples.
    pub total_ns: u64,
    /// Fastest single sample, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Histogram: bucket `i` counts samples with `floor(log2(ns)) == i`.
    pub buckets: [u64; BUCKETS],
}

impl OpStat {
    fn new() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

/// One runtime's profiler: enable flag + sample registry.
pub(crate) struct ProfilerState {
    enabled: AtomicBool,
    registry: Mutex<Option<HashMap<String, OpStat>>>,
}

impl ProfilerState {
    pub(crate) fn new(enabled: bool) -> Self {
        ProfilerState {
            enabled: AtomicBool::new(enabled),
            registry: Mutex::new(None),
        }
    }

    /// Locks the registry, recovering from poison by discarding the
    /// recorded samples of this runtime only — timing data is pure
    /// observability, so dropping a half-updated map is always sound.
    fn registry_guard(&self) -> MutexGuard<'_, Option<HashMap<String, OpStat>>> {
        match self.registry.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.registry.clear_poison();
                let mut g = poisoned.into_inner();
                *g = None;
                g
            }
        }
    }

    fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn add_sample(&self, key: &str, ns: u64) {
        let mut guard = self.registry_guard();
        let map = guard.get_or_insert_with(HashMap::new);
        map.entry(key.to_string())
            .or_insert_with(OpStat::new)
            .add(ns);
    }

    fn reset(&self) {
        *self.registry_guard() = None;
    }

    fn snapshot(&self) -> Vec<(String, OpStat)> {
        let guard = self.registry_guard();
        let mut rows: Vec<(String, OpStat)> = guard
            .as_ref()
            .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        rows
    }
}

/// Turns the current runtime's profiler on or off. Turning it on clears
/// the forward mark so the first charged interval starts from the next
/// recorded op.
pub fn set_enabled(on: bool) {
    runtime::current().inner_profiler(|p| p.set_enabled(on));
    if on {
        LAST_MARK.with(|m| m.set(None));
    }
}

/// Whether profiling is enabled on the current runtime.
pub fn enabled() -> bool {
    runtime::current().inner_profiler(|p| p.enabled())
}

/// Resets the forward gap-attribution mark **without** charging the
/// elapsed time to any op. Called for leaf tape nodes whose "compute"
/// is host-side work.
pub fn mark() {
    LAST_MARK.with(|m| m.set(Some(Instant::now())));
}

/// Charges the time since the last mark to `path` (forward pass gap
/// attribution), then re-marks. No-op if there is no prior mark.
pub fn note_forward(path: &str) {
    let now = Instant::now();
    LAST_MARK.with(|m| {
        if let Some(prev) = m.get() {
            add_sample(path, (now - prev).as_nanos() as u64);
        }
        m.set(Some(Instant::now()));
    });
}

/// Records one exact sample of `ns` nanoseconds under `key` in the
/// current runtime's registry.
pub fn add_sample(key: &str, ns: u64) {
    runtime::current().inner_profiler(|p| p.add_sample(key, ns));
}

/// Clears the current runtime's recorded samples and the forward mark.
pub fn reset() {
    runtime::current().inner_profiler(|p| p.reset());
    LAST_MARK.with(|m| m.set(None));
}

/// Snapshot of the current runtime's op stats, sorted by total time
/// descending.
pub fn snapshot() -> Vec<(String, OpStat)> {
    runtime::current().inner_profiler(|p| p.snapshot())
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the timing table as aligned text, one row per op path.
pub fn report_text() -> String {
    let rows = snapshot();
    let mut out = String::new();
    let total: u64 = rows.iter().map(|r| r.1.total_ns).sum();
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        out,
        "{:<width$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>6}",
        "op", "count", "total", "mean", "min", "max", "share"
    );
    for (path, s) in &rows {
        let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
        let share = if total > 0 {
            100.0 * s.total_ns as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<width$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {share:>5.1}%",
            path,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(mean),
            fmt_ns(s.min_ns),
            fmt_ns(s.max_ns),
        );
    }
    let _ = writeln!(out, "{:<width$}  {:>9}  {:>10}", "TOTAL", "", fmt_ns(total));
    out
}

/// Renders the timing table as a JSON object (hand-rolled; no serde in
/// the dependency tree). Keys are op paths; each value carries count,
/// total/min/max nanoseconds, and the non-empty log2-ns buckets.
pub fn report_json() -> String {
    let rows = snapshot();
    let mut out = String::from("{\n  \"ops\": {\n");
    for (i, (path, s)) in rows.iter().enumerate() {
        let esc: String = path
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c => vec![c],
            })
            .collect();
        let _ = write!(
            out,
            "    \"{esc}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"log2_buckets\": {{",
            s.count,
            s.total_ns,
            if s.count > 0 { s.min_ns } else { 0 },
            s.max_ns
        );
        let mut first = true;
        for (b, &c) in s.buckets.iter().enumerate() {
            if c > 0 {
                if !first {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{b}\": {c}");
                first = false;
            }
        }
        out.push_str("}}");
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};

    #[test]
    fn samples_aggregate_per_key() {
        // A private runtime keeps the registry under test isolated from
        // concurrently running tests.
        Runtime::new(RuntimeConfig::default()).enter(|| {
            add_sample("test-agg/conv2d", 1_000);
            add_sample("test-agg/conv2d", 3_000);
            let rows = snapshot();
            assert_eq!(rows.len(), 1, "private registry holds only this key");
            let stat = &rows.iter().find(|(k, _)| k == "test-agg/conv2d").unwrap().1;
            assert_eq!(stat.count, 2);
            assert_eq!(stat.total_ns, 4_000);
            assert_eq!(stat.min_ns, 1_000);
            assert_eq!(stat.max_ns, 3_000);
            let text = report_text();
            assert!(text.contains("test-agg/conv2d"));
            let json = report_json();
            assert!(json.contains("\"test-agg/conv2d\""));
            assert!(json.contains("\"total_ns\": 4000"));
        });
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = OpStat::new();
        s.add(1); // bucket 0
        s.add(1024); // bucket 10
        s.add(1536); // bucket 10
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[10], 2);
    }

    #[test]
    fn forward_marks_gate_attribution() {
        Runtime::new(RuntimeConfig::default()).enter(|| {
            LAST_MARK.with(|m| m.set(None));
            note_forward("test-mark/op"); // no prior mark on this thread: not charged
            note_forward("test-mark/op"); // now marked: charged once
            let rows = snapshot();
            let stat = &rows.iter().find(|(k, _)| k == "test-mark/op").unwrap().1;
            assert_eq!(stat.count, 1);
        });
    }

    #[test]
    fn registries_are_isolated_per_runtime() {
        let a = Runtime::new(RuntimeConfig {
            profiling: true,
            ..RuntimeConfig::default()
        });
        let b = Runtime::new(RuntimeConfig::default());
        a.enter(|| {
            assert!(enabled());
            add_sample("iso/a", 10);
        });
        b.enter(|| {
            assert!(!enabled(), "profiling flag is per-runtime");
            assert!(snapshot().is_empty(), "B must not see A's samples");
        });
        a.enter(|| assert_eq!(snapshot().len(), 1));
    }
}
