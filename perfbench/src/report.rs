//! Summary statistics and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust keeps; non-finite values (which
/// no metric should produce) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Linear-interpolated percentile `p` in `[0, 1]` (0 for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Nanosecond samples as `scale`-unit values (1e-3 for µs, 1e-6 for ms).
pub fn scaled(ns: &[u64], scale: f64) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * scale).collect()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this host's CPUs so far (the
/// `steal` column of `/proc/stat`, in Linux's fixed 100 Hz ticks), or
/// `None` where the kernel does not report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_serialize_as_json() {
        let mut m = Metrics::default();
        m.push("unit_s", 1.25, "s");
        m.push("x", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"unit_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"count\"}}"
        );
    }
}
