//! Summaries, provenance and the one-line JSON result.

use crate::Fnv;
use std::fmt::Write as _;
use std::path::Path;

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method (what Python's
/// `statistics.quantiles(v, n=4)` returns).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-quantile (0..=1) of already sorted `s`, nearest rank.
pub fn percentile_sorted(s: &[u64], p: f64) -> u64 {
    if s.is_empty() {
        return 0;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// One metric with its unit and per-pass raw values.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// One value per pass (or a single value).
    pub values: Vec<f64>,
    /// Indices of the values the reported median is taken over; empty
    /// means all of them.
    kept: Vec<usize>,
}

impl Metric {
    /// A metric reported as the median of its samples.
    pub fn new(name: &'static str, unit: &'static str, values: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            values,
            kept: Vec::new(),
        }
    }

    /// A metric reported as the median of the samples at `kept` (the
    /// passes the host left undisturbed), with every sample kept for the
    /// report.
    pub fn over(name: &'static str, unit: &'static str, values: Vec<f64>, kept: &[usize]) -> Self {
        Self {
            kept: kept.to_vec(),
            ..Self::new(name, unit, values)
        }
    }

    /// A metric measured once.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    /// The samples the reported value is the median of.
    fn reported(&self) -> Vec<f64> {
        if self.kept.is_empty() {
            self.values.clone()
        } else {
            self.kept.iter().map(|&i| self.values[i]).collect()
        }
    }

    /// The reported value.
    pub fn value(&self) -> f64 {
        median(&self.reported())
    }
}

/// A finite JSON number (NaN and infinities become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value()),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-metric summary lines: the reported value with the quartiles of
/// the samples it is the median of, and every raw value.
pub fn summary_lines(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let reported = m.reported();
            let (q1, q3) = quartiles(&reported);
            let raw: Vec<String> = m.values.iter().map(|v| num(*v)).collect();
            format!(
                "{} {} median={} q1={} q3={} kept={}/{} raw=[{}]",
                m.name,
                m.unit,
                num(m.value()),
                num(q1),
                num(q3),
                reported.len(),
                m.values.len(),
                raw.join(",")
            )
        })
        .collect()
}

/// Host and build provenance, as `key=value` pairs.
pub fn provenance(root: &Path) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into());
    vec![
        ("command", std::env::args().collect::<Vec<_>>().join(" ")),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("git_revision", git),
        ("source_digest", format!("{:016x}", source_digest(root))),
    ]
}

/// FNV digest of every `.rs` and `Cargo.toml` under `root/crates` and the
/// root manifest, in sorted path order: the revision of a checkout that
/// is not a git repository.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// FNV digest of a file's bytes (0 if unreadable).
pub fn file_digest(path: &Path) -> u64 {
    let mut h = Fnv::default();
    h.write(&std::fs::read(path).unwrap_or_default());
    h.0
}
