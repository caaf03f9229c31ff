//! The zero-dependency telemetry core: fixed-size log-bucketed
//! histograms with a lock-free record path, mergeable snapshots, and a
//! Prometheus-style text exposition.
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
//! * **Mergeable snapshots.** [`HistogramSnapshot::merge`] is
//!   element-wise addition — associative and commutative, so per-shard
//!   or per-process snapshots aggregate in any order.
//!
//! A snapshot taken *while* recorders are running is each-counter
//! atomic but not cross-counter atomic (`count` may momentarily
//! disagree with the bucket sum by in-flight increments); once
//! recorders quiesce, snapshots are exact — the property tests below
//! pin both halves of that contract.

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

/// An owned copy of a [`Histogram`]'s counters; merge snapshots from
/// many shards/processes with [`HistogramSnapshot::merge`].
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

impl HistogramSnapshot {
    /// Element-wise accumulation of `other` into `self` (associative
    /// and commutative, so shard snapshots fold in any order).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The smallest bucket upper bound at or above quantile `q` (0..=1)
    /// of the recorded distribution, or `None` while empty. Quantiles
    /// from log buckets are bounds, not exact order statistics.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }
}

/// Which way a submission left the service — the latency histograms are
/// split by this, because a cache hit and a fuel-cap expiry have
/// distributions that mean entirely different things.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Answered without fresh computation (cache hit, goal-in-Σ
    /// fast path, coalesced onto a finished leader, warm replay).
    Hit,
    /// Computed to a verdict (including honest `Unknown` within fuel).
    Miss,
    /// Fuel cap or global budget expired the job.
    Expired,
    /// Cancelled (explicitly, or its connection dropped).
    Cancelled,
}

impl OutcomeKind {
    const ALL: [OutcomeKind; 4] = [
        OutcomeKind::Hit,
        OutcomeKind::Miss,
        OutcomeKind::Expired,
        OutcomeKind::Cancelled,
    ];

    fn idx(self) -> usize {
        match self {
            OutcomeKind::Hit => 0,
            OutcomeKind::Miss => 1,
            OutcomeKind::Expired => 2,
            OutcomeKind::Cancelled => 3,
        }
    }

    /// Stable lowercase label (metric/exposition name fragment).
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeKind::Hit => "hit",
            OutcomeKind::Miss => "miss",
            OutcomeKind::Expired => "expired",
            OutcomeKind::Cancelled => "cancelled",
        }
    }
}

/// The service's histogram families: submit→resolve latency split by
/// [`OutcomeKind`], queue-wait vs run time for scheduled jobs, and fuel
/// per job. Disabled (`ServiceConfig::metrics = false`) it records
/// nothing — one branch per call is the entire overhead.
pub struct Telemetry {
    enabled: bool,
    latency: [Histogram; 4],
    queue_wait: Histogram,
    run_time: Histogram,
    fuel_per_job: Histogram,
    join_build_rows: Histogram,
    join_probe_hits: Histogram,
}

impl Telemetry {
    /// A telemetry core; `enabled = false` turns every record call into
    /// a single branch.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            latency: std::array::from_fn(|_| Histogram::new()),
            queue_wait: Histogram::new(),
            run_time: Histogram::new(),
            fuel_per_job: Histogram::new(),
            join_build_rows: Histogram::new(),
            join_probe_hits: Histogram::new(),
        }
    }

    /// Whether recording (and its wall-clock sampling upstream) is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Submit→resolve latency for one landed submission.
    pub fn record_latency(&self, kind: OutcomeKind, nanos: u64) {
        if self.enabled {
            self.latency[kind.idx()].record(nanos);
        }
    }

    /// Time a scheduled job spent waiting (not being stepped).
    pub fn record_queue_wait(&self, nanos: u64) {
        if self.enabled {
            self.queue_wait.record(nanos);
        }
    }

    /// Time a scheduled job spent actually being stepped.
    pub fn record_run_time(&self, nanos: u64) {
        if self.enabled {
            self.run_time.record(nanos);
        }
    }

    /// Fuel one landed submission consumed.
    pub fn record_fuel(&self, fuel: u64) {
        if self.enabled {
            self.fuel_per_job.record(fuel);
        }
    }

    /// Join-phase profile of one landed scheduled job: the hash-join
    /// build rows and probe hits its chase spent.
    pub fn record_join(&self, build_rows: u64, probe_hits: u64) {
        if self.enabled {
            self.join_build_rows.record(build_rows);
            self.join_probe_hits.record(probe_hits);
        }
    }

    /// Snapshots every family at once.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            latency: std::array::from_fn(|i| self.latency[i].snapshot()),
            queue_wait: self.queue_wait.snapshot(),
            run_time: self.run_time.snapshot(),
            fuel_per_job: self.fuel_per_job.snapshot(),
            join_build_rows: self.join_build_rows.snapshot(),
            join_probe_hits: self.join_probe_hits.snapshot(),
        }
    }
}

/// Owned snapshots of every [`Telemetry`] family; mergeable like the
/// per-family snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Latency by outcome, indexed like [`OutcomeKind::ALL`] — use
    /// [`TelemetrySnapshot::latency`] for named access.
    latency: [HistogramSnapshot; 4],
    /// Queue-wait distribution (scheduled jobs only), nanoseconds.
    pub queue_wait: HistogramSnapshot,
    /// Run-time distribution (scheduled jobs only), nanoseconds.
    pub run_time: HistogramSnapshot,
    /// Fuel-per-job distribution (fuel units).
    pub fuel_per_job: HistogramSnapshot,
    /// Hash-join build-side rows per scheduled job (chase trigger scans).
    pub join_build_rows: HistogramSnapshot,
    /// Hash-join probe-side hits per scheduled job (chase trigger scans).
    pub join_probe_hits: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// The latency histogram for one outcome kind.
    pub fn latency(&self, kind: OutcomeKind) -> &HistogramSnapshot {
        &self.latency[kind.idx()]
    }

    /// Total submissions with a recorded latency, across all outcomes.
    pub fn latency_count(&self) -> u64 {
        self.latency.iter().map(|h| h.count).sum()
    }

    /// Element-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (a, b) in self.latency.iter_mut().zip(other.latency.iter()) {
            a.merge(b);
        }
        self.queue_wait.merge(&other.queue_wait);
        self.run_time.merge(&other.run_time);
        self.fuel_per_job.merge(&other.fuel_per_job);
        self.join_build_rows.merge(&other.join_build_rows);
        self.join_probe_hits.merge(&other.join_probe_hits);
    }

    /// Iterates `(outcome, histogram)` over the latency families.
    pub fn latencies(&self) -> impl Iterator<Item = (OutcomeKind, &HistogramSnapshot)> {
        OutcomeKind::ALL.iter().map(|k| (*k, &self.latency[k.idx()]))
    }

    /// The compact `key=value` rendering of every family, appended to
    /// the wire `STATS` text: `h_<family>_count`, `h_<family>_sum`,
    /// and one `h_<family>_b<i>` per *nonzero* bucket.
    pub fn stats_text(&self) -> String {
        let mut out = String::new();
        let mut fam = |name: &str, h: &HistogramSnapshot| {
            use std::fmt::Write as _;
            let _ = write!(out, " h_{name}_count={} h_{name}_sum={}", h.count, h.sum);
            for (i, b) in h.buckets.iter().enumerate() {
                if *b > 0 {
                    let _ = write!(out, " h_{name}_b{i}={b}");
                }
            }
        };
        for (kind, h) in self.latencies() {
            fam(&format!("latency_{}", kind.as_str()), h);
        }
        fam("queue_wait", &self.queue_wait);
        fam("run_time", &self.run_time);
        fam("fuel_per_job", &self.fuel_per_job);
        fam("join_build_rows", &self.join_build_rows);
        fam("join_probe_hits", &self.join_probe_hits);
        out
    }
}

/// A Prometheus-text-format builder: `# HELP`/`# TYPE` headers,
/// counters, gauges, and histograms with cumulative `le` buckets.
/// Metric and label names are the caller's responsibility; values are
/// written as plain integers/floats.
#[derive(Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One monotone counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        use std::fmt::Write as _;
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        use std::fmt::Write as _;
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// A counter family with one label: `name{label="v"} value` per
    /// entry.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, entries: &[(String, u64)]) {
        use std::fmt::Write as _;
        self.header(name, help, "counter");
        for (lv, value) in entries {
            let _ = writeln!(self.out, "{name}{{{label}=\"{lv}\"}} {value}");
        }
    }

    /// A gauge family with one label: `name{label="v"} value` per entry.
    pub fn gauge_vec(&mut self, name: &str, help: &str, label: &str, entries: &[(String, u64)]) {
        use std::fmt::Write as _;
        self.header(name, help, "gauge");
        for (lv, value) in entries {
            let _ = writeln!(self.out, "{name}{{{label}=\"{lv}\"}} {value}");
        }
    }

    /// A full histogram family: cumulative `_bucket{le="…"}` samples
    /// (empty buckets above the last populated one are elided, `+Inf`
    /// always emitted), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &HistogramSnapshot) {
        use std::fmt::Write as _;
        self.header(name, help, "histogram");
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

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
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

    /// Merge is associative and commutative with identity `default()`.
    #[test]
    fn merge_is_associative_commutative() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                h.record(x >> (x % 40));
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(1, 500), mk(2, 700), mk(3, 300));
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        // a ∪ b == b ∪ a
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        // identity
        let mut ai = a;
        ai.merge(&HistogramSnapshot::default());
        assert_eq!(ai, a, "default must be the merge identity");
    }

    /// Quantile bounds: ordered, and exact on a single-bucket load.
    #[test]
    fn quantile_bounds_are_ordered() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 1000, 100_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let s = h.snapshot();
        let q50 = s.quantile_bound(0.5).unwrap();
        let q99 = s.quantile_bound(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(HistogramSnapshot::default().quantile_bound(0.5).is_none());
    }

    /// The Prometheus rendering is cumulative, ends with `+Inf`, and
    /// `_count`/`_sum` match the snapshot. The disabled core records
    /// nothing.
    #[test]
    fn exposition_renders_cumulative_buckets() {
        let t = Telemetry::new(true);
        t.record_latency(OutcomeKind::Miss, 1500);
        t.record_latency(OutcomeKind::Miss, 3);
        t.record_fuel(64);
        let snap = t.snapshot();
        let mut exp = Exposition::new();
        exp.histogram(
            "typedtd_latency_miss_nanos",
            "submit to resolve, computed misses",
            snap.latency(OutcomeKind::Miss),
        );
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
        off.record_latency(OutcomeKind::Hit, 99);
        off.record_fuel(7);
        assert_eq!(off.snapshot().latency_count(), 0);
        assert_eq!(off.snapshot().fuel_per_job.count, 0);
    }

    /// `stats_text` round-trips through the wire `STATS` parser shape
    /// (`key=value` tokens) and only mentions nonzero buckets.
    #[test]
    fn stats_text_is_key_value_tokens() {
        let t = Telemetry::new(true);
        t.record_latency(OutcomeKind::Hit, 10);
        t.record_queue_wait(5);
        let text = t.snapshot().stats_text();
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
