//! The zero-dependency telemetry core: fixed-size log-bucketed
//! histograms with a lock-free record path, and a Prometheus-style text
//! exposition. The families recorded, and the names they render under,
//! are rows of [`crate::instruments`].
//!
//! The paper this repository reproduces makes implication undecidable,
//! so every answer the service gives is fuel-bounded — which makes
//! *distributions* (where fuel and wall-clock actually go), not flat
//! end-of-run counters, the operationally honest observables. This
//! module keeps the measurement discipline of the hot path it watches:
//!
//! * **No heap growth.** A [`Histogram`] is exactly 66 atomics
//!   (64 power-of-two buckets + count + sum); recording never
//!   allocates.
//! * **Lock-free recording.** [`Histogram::record`] is three `Relaxed`
//!   `fetch_add`s; concurrent recorders never contend on a lock and
//!   never lose an increment.
//!
//! A snapshot taken *while* recorders are running is each-counter
//! atomic but not cross-counter atomic (`count` may momentarily
//! disagree with the bucket sum by in-flight increments); once
//! recorders quiesce, snapshots are exact — the property tests below
//! pin both halves of that contract.

use crate::instruments::{Hist, Instrument, Surface, HISTOGRAMS};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket `i` (for `i < 63`) counts values
/// `v` with `bucket_index(v) == i`, i.e. values up to `2^i - 1`; the
/// last bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, otherwise one plus the
/// position of the highest set bit, clamped to the last bucket. This
/// makes bucket boundaries exact powers of two: bucket 0 holds `{0}`,
/// bucket `i` holds `[2^(i-1), 2^i)` for `1 <= i < 63`, and bucket 63
/// holds `[2^62, u64::MAX]`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size, log2-bucketed concurrent histogram. See the module
/// docs for the concurrency contract.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; never allocates.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters (see the module docs for
    /// what "point-in-time" means under concurrent recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket boundaries per
    /// [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// The histogram families of [`crate::instruments::HISTOGRAMS`]:
/// submit→resolve latency split by how a submission left the in-flight
/// set, queue-wait vs run time for scheduled jobs, fuel and hash-join
/// work per job. Disabled (`ServiceConfig::metrics = false`) it records
/// nothing — one branch per call is the entire overhead.
pub struct Telemetry {
    enabled: bool,
    hist: [Histogram; Hist::COUNT],
}

impl Telemetry {
    /// A telemetry core; `enabled = false` turns every record call into
    /// a single branch.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            hist: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether recording (and its wall-clock sampling upstream) is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observation of `family`.
    pub fn record(&self, family: Hist, value: u64) {
        if self.enabled {
            self.hist[family as usize].record(value);
        }
    }

    /// Snapshots every family at once.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            hist: std::array::from_fn(|i| self.hist[i].snapshot()),
        }
    }
}

/// Owned snapshots of every [`Telemetry`] family, indexed by [`Hist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    hist: [HistogramSnapshot; Hist::COUNT],
}

impl TelemetrySnapshot {
    /// The histogram of one family.
    pub fn get(&self, family: Hist) -> &HistogramSnapshot {
        &self.hist[family as usize]
    }

    /// Renders every family onto `s`, in [`Hist`] order.
    pub fn render(&self, s: &mut impl Surface) {
        for (row, h) in HISTOGRAMS.iter().zip(&self.hist) {
            s.histogram(row, h);
        }
    }

    /// Total submissions with a recorded latency, across all outcomes.
    pub fn latency_count(&self) -> u64 {
        Hist::LATENCY.iter().map(|f| self.get(*f).count).sum()
    }
}

/// The Prometheus text format: `# HELP`/`# TYPE` headers, counter and
/// gauge samples, and histograms with cumulative `le` buckets.
#[derive(Default)]
pub struct Exposition {
    out: String,
    /// The metric whose header was written last.
    family: &'static str,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, row: &Instrument, kind: &str) {
        let _ = writeln!(self.out, "# HELP {} {}", row.prom, row.help);
        let _ = writeln!(self.out, "# TYPE {} {kind}", row.prom);
        self.family = row.prom;
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

impl Surface for Exposition {
    /// A header before the first of consecutive samples of one metric,
    /// then `name value` or `name{dimension="label"} value`.
    fn sample(&mut self, row: &Instrument, kind: &str, label: Option<(&str, &str)>, value: u64) {
        if self.family != row.prom {
            self.header(row, kind);
        }
        let name = row.prom;
        let _ = match label {
            Some((k, v)) => writeln!(self.out, "{name}{{{k}=\"{v}\"}} {value}"),
            None => writeln!(self.out, "{name} {value}"),
        };
    }

    /// Cumulative `_bucket{le="…"}` samples (empty buckets above the last
    /// populated one are elided, `+Inf` always emitted), then `_sum` and
    /// `_count`.
    fn histogram(&mut self, row: &Instrument, h: &HistogramSnapshot) {
        self.header(row, "histogram");
        let name = row.prom;
        let last = h
            .buckets
            .iter()
            .rposition(|b| *b > 0)
            .map(|i| i.min(HIST_BUCKETS - 2))
            .unwrap_or(0);
        let mut cum = 0u64;
        for i in 0..=last {
            cum += h.buckets[i];
            let _ = writeln!(
                self.out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                bucket_upper_bound(i)
            );
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(self.out, "{name}_sum {}", h.sum);
        let _ = writeln!(self.out, "{name}_count {}", h.count);
    }
}

/// Writes `text` to `path` atomically: a unique temp file in the same
/// directory, then `rename` over the target — readers see either the
/// old snapshot or the new one, never a torn write.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| std::ffi::OsString::from("metrics"));
        name.push(format!(".tmp.{}", std::process::id()));
        match dir {
            Some(d) => d.join(name),
            None => std::path::PathBuf::from(name),
        }
    };
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket boundaries are a monotone partition of `u64`: indexes are
    /// non-decreasing in the value, every value's bucket upper bound is
    /// at or above it, and the previous bucket's bound is below it.
    #[test]
    fn bucket_monotonicity_and_coverage() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|i| {
                let p = 1u64 << i;
                [p.wrapping_sub(1), p, p.saturating_add(1)]
            })
            .chain([0, 1, 2, 3, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev_idx = 0usize;
        for v in sorted {
            let i = bucket_index(v);
            assert!(i >= prev_idx, "bucket index must be monotone in the value");
            prev_idx = i;
            assert!(
                bucket_upper_bound(i) >= v,
                "value {v} above its bucket bound {}",
                bucket_upper_bound(i)
            );
            if i > 0 {
                assert!(
                    bucket_upper_bound(i - 1) < v,
                    "value {v} below bucket {i}'s lower edge"
                );
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    /// Concurrent recorders never lose an increment: after all threads
    /// join, count == records issued, bucket sum == count, and the sum
    /// equals the arithmetic total. Snapshots taken mid-flight must
    /// stay internally plausible (bucket sum never exceeds count seen
    /// later… the invariant checked is per-counter monotonicity).
    #[test]
    fn concurrent_record_is_never_lossy() {
        let hist = Histogram::new();
        let threads = 8usize;
        let per = 10_000u64;
        let snapshots = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..per {
                        hist.record(t as u64 * 31 + i % 1000);
                    }
                });
            }
            let hist = &hist;
            let snapshots = &snapshots;
            scope.spawn(move || {
                for _ in 0..50 {
                    snapshots.lock().unwrap().push(hist.snapshot());
                    std::thread::yield_now();
                }
            });
        });
        let fin = hist.snapshot();
        assert_eq!(fin.count, threads as u64 * per);
        assert_eq!(fin.buckets.iter().sum::<u64>(), fin.count);
        let expect: u64 = (0..threads as u64)
            .flat_map(|t| (0..per).map(move |i| t * 31 + i % 1000))
            .sum();
        assert_eq!(fin.sum, expect);
        // Mid-flight snapshots never exceed the final totals.
        for s in snapshots.into_inner().unwrap() {
            assert!(s.count <= fin.count);
            assert!(s.sum <= fin.sum);
            assert!(s.buckets.iter().sum::<u64>() <= fin.count);
        }
    }

    /// The Prometheus rendering is cumulative, ends with `+Inf`, and
    /// `_count`/`_sum` match the snapshot. The disabled core records
    /// nothing.
    #[test]
    fn exposition_renders_cumulative_buckets() {
        let t = Telemetry::new(true);
        t.record(Hist::LatencyMiss, 1500);
        t.record(Hist::LatencyMiss, 3);
        t.record(Hist::FuelPerJob, 64);
        let snap = t.snapshot();
        let mut exp = Exposition::new();
        exp.histogram(&HISTOGRAMS[Hist::LatencyMiss as usize], snap.get(Hist::LatencyMiss));
        let text = exp.finish();
        assert!(text.contains("# TYPE typedtd_latency_miss_nanos histogram"));
        assert!(text.contains("typedtd_latency_miss_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("typedtd_latency_miss_nanos_sum 1503"));
        assert!(text.contains("typedtd_latency_miss_nanos_count 2"));
        // Cumulative: the le bound covering 1500 must already include
        // the earlier value 3.
        let cum_line = text
            .lines()
            .filter(|l| l.starts_with("typedtd_latency_miss_nanos_bucket"))
            .nth_back(1)
            .unwrap();
        assert!(cum_line.ends_with(" 2"), "last finite bucket is cumulative: {cum_line}");

        let off = Telemetry::new(false);
        off.record(Hist::LatencyHit, 99);
        off.record(Hist::FuelPerJob, 7);
        assert_eq!(off.snapshot().latency_count(), 0);
        assert_eq!(off.snapshot().get(Hist::FuelPerJob).count, 0);
    }

    /// The histogram text round-trips through the wire `STATS` parser
    /// shape (`key=value` tokens) and only mentions nonzero buckets.
    #[test]
    fn stats_text_is_key_value_tokens() {
        let t = Telemetry::new(true);
        t.record(Hist::LatencyHit, 10);
        t.record(Hist::QueueWait, 5);
        let mut text = String::new();
        t.snapshot().render(&mut text);
        for tok in text.split_whitespace() {
            let (k, v) = tok.split_once('=').expect("every token is key=value");
            assert!(!k.is_empty());
            v.parse::<u64>().expect("every value is a u64");
        }
        assert!(text.contains("h_latency_hit_count=1"));
        assert!(text.contains("h_queue_wait_count=1"));
        assert!(!text.contains("h_latency_miss_b"), "empty buckets are elided");
    }

    /// `write_atomic` replaces the file content wholesale.
    #[test]
    fn write_atomic_replaces_content() {
        let path = std::env::temp_dir().join(format!(
            "typedtd-telemetry-test-{}.prom",
            std::process::id()
        ));
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let _ = std::fs::remove_file(&path);
    }
}
