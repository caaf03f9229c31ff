//! The instrument table: every service counter, gauge and histogram
//! family, declared once with its text key, Prometheus name and help.
//!
//! The paper makes implication undecidable, so every answer is bought
//! with fuel, and these instruments are how an operator sees what the
//! fuel bought. [`crate::ImplicationClient::render`] walks the table onto
//! any [`Surface`]; the `--stats` ledger, the body of a `STATS` reply
//! (after the connection's five tokens) and the Prometheus exposition are
//! its three renderings, so adding, renaming or documenting a counter is
//! an edit to one row. A counter or gauge renders as `key=value`; a
//! family renders `<key>_<label>=value` for every label, zeros included,
//! and `name{class="label"}` samples; a histogram renders `h_<key>_count`,
//! `h_<key>_sum` and `h_<key>_b<i>` for each nonzero bucket.

use crate::telemetry::HistogramSnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use typedtd_chase::RouteClass;
use typedtd_dependencies::DependencyClass;

/// One instrument: a counter row, a gauge, or a histogram family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instrument {
    /// The `key=value` token key of the ledger and `STATS`.
    pub key: &'static str,
    /// The Prometheus metric name.
    pub prom: &'static str,
    /// The Prometheus `# HELP` text: what the instrument counts.
    pub help: &'static str,
}

/// The Prometheus type of a counter sample.
pub const COUNTER: &str = "counter";
/// The Prometheus type of a gauge sample.
pub const GAUGE: &str = "gauge";

/// A surface the instruments render onto: `String` takes the
/// `key=value` text, [`crate::Exposition`] the Prometheus text.
pub trait Surface {
    /// One counter or gauge value (`kind` is [`COUNTER`] or [`GAUGE`]).
    /// `label` is `(dimension, label)` for one member of a family.
    fn sample(&mut self, row: &Instrument, kind: &str, label: Option<(&str, &str)>, value: u64);
    /// One histogram family.
    fn histogram(&mut self, row: &Instrument, h: &HistogramSnapshot);
}

impl Surface for String {
    fn sample(&mut self, row: &Instrument, _kind: &str, label: Option<(&str, &str)>, value: u64) {
        if !self.is_empty() {
            self.push(' ');
        }
        self.push_str(row.key);
        if let Some((_, l)) = label {
            let _ = write!(self, "_{l}");
        }
        let _ = write!(self, "={value}");
    }

    fn histogram(&mut self, row: &Instrument, h: &HistogramSnapshot) {
        let k = row.key;
        if !self.is_empty() {
            self.push(' ');
        }
        let _ = write!(self, "h_{k}_count={} h_{k}_sum={}", h.count, h.sum);
        for (i, b) in h.buckets.iter().enumerate() {
            if *b > 0 {
                let _ = write!(self, " h_{k}_b{i}={b}");
            }
        }
    }
}

/// Generates [`ServiceStats`], its atomics ([`Counters`]), the relaxed
/// snapshot, [`COUNTERS`] and the rendering walk from one table. A row
/// is `field: "key", "prometheus_name", "help";`, or
/// `field[Label]: …` for a family with one counter per `Label::ALL`
/// member (labelled `class` in the exposition).
macro_rules! counter_table {
    (@value) => { u64 };
    (@value $label:ident) => { [u64; $label::COUNT] };
    (@atomic) => { AtomicU64 };
    (@atomic $label:ident) => { [AtomicU64; $label::COUNT] };
    (@load $a:expr) => { $a.load(Ordering::Relaxed) };
    (@load $a:expr, $label:ident) => {
        std::array::from_fn(|i| $a[i].load(Ordering::Relaxed))
    };
    (@render $s:ident, $row:expr, $v:expr) => { $s.sample($row, COUNTER, None, $v) };
    (@render $s:ident, $row:expr, $v:expr, $label:ident) => {
        for l in $label::ALL {
            $s.sample($row, COUNTER, Some(("class", l.as_str())), $v[l.index()]);
        }
    };
    ($(
        $(#[$attr:meta])*
        $field:ident $([$label:ident])?: $key:literal, $prom:literal, $help:literal;
    )*) => {
        /// Aggregate service counters: a relaxed snapshot of the counter
        /// table (see the [module docs](self)).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct ServiceStats {
            $( $(#[$attr])* pub $field: counter_table!(@value $($label)?), )*
        }

        /// The live counters behind [`ServiceStats`], one relaxed atomic
        /// per counter (per label, for a family), shared by everything
        /// that counts.
        #[derive(Default)]
        pub(crate) struct Counters {
            $( pub(crate) $field: counter_table!(@atomic $($label)?), )*
        }

        /// The counter table's rows, in rendering order.
        pub const COUNTERS: &[Instrument] = &[
            $( Instrument { key: $key, prom: $prom, help: $help }, )*
        ];

        impl Counters {
            /// Each counter individually exact; cross-counter identities
            /// may lag under concurrent stepping.
            pub(crate) fn snapshot(&self) -> ServiceStats {
                ServiceStats {
                    $( $field: counter_table!(@load self.$field $(, $label)?), )*
                }
            }
        }

        impl ServiceStats {
            /// Renders every counter onto `s`, in table order.
            pub fn render(&self, s: &mut impl Surface) {
                $(
                    counter_table!(
                        @render s,
                        &Instrument { key: $key, prom: $prom, help: $help },
                        self.$field
                        $(, $label)?
                    );
                )*
            }
        }
    };
}

counter_table! {
    /// Jobs submitted.
    submitted: "jobs", "typedtd_submitted_total", "Jobs submitted";
    /// Jobs resolved with an outcome: computed, cache-hit, goal-in-Σ and
    /// coalesced answers, expiries and cancellations. A waiter retired
    /// before its leader lands resolves without one.
    completed: "completed", "typedtd_completed_total",
        "Jobs resolved with an outcome, fast-path answers, expiries and cancellations included";
    /// Jobs answered `Yes` (unrestricted implication).
    yes: "yes", "typedtd_answer_yes_total", "Jobs answered Yes";
    /// Jobs answered `No`.
    no: "no", "typedtd_answer_no_total", "Jobs answered No";
    /// Jobs answered `Unknown`.
    unknown: "unknown", "typedtd_answer_unknown_total", "Jobs answered Unknown";
    /// Submissions answered instantly from the cache.
    cache_hits: "cache_hits", "typedtd_cache_hits_total",
        "Submissions answered from the answer cache";
    /// Submissions answered `Yes` at submit time because the goal is
    /// canonically an element of Σ (implication is reflexive).
    goal_in_sigma: "goal_in_sigma", "typedtd_goal_in_sigma_total",
        "Goals answered Yes at submit (goal canonically in Sigma)";
    /// Submissions coalesced onto an identical in-flight job.
    coalesced: "coalesced", "typedtd_coalesced_total",
        "Submissions coalesced onto an in-flight leader";
    /// Submissions that had to run (no cached answer, no in-flight twin).
    cache_misses: "cache_misses", "typedtd_cache_misses_total",
        "Submissions that scheduled a new computation";
    /// Cached answers evicted to keep the cache within
    /// [`ServiceConfig::cache_capacity`](crate::ServiceConfig::cache_capacity).
    evictions: "evictions", "typedtd_evictions_total", "Answer-cache evictions";
    /// Jobs force-answered `Unknown` by fuel exhaustion (global budget or
    /// a per-job [`QuerySpec::fuel_cap`](crate::QuerySpec::fuel_cap)).
    expired: "jobs_expired", "typedtd_expired_total",
        "Jobs expired to Unknown by a fuel cap or the global budget";
    /// Jobs resolved [`JobStatus::Cancelled`](crate::JobStatus::Cancelled)
    /// (directly, via a cancelled coalescing leader, or a leader whose
    /// owner cancelled while detached waiters kept the computation alive).
    cancelled: "jobs_cancelled", "typedtd_cancelled_total", "Jobs resolved Cancelled";
    /// Jobs retired (handle dropped or explicitly retired); their slots
    /// were freed for reuse.
    retired: "retired", "typedtd_retired_total", "Job slots retired";
    /// Submissions a front end bounced at its overload bound instead of
    /// scheduling (`typedtd-sockd --max-inflight`; counted via
    /// [`ImplicationClient::note_shed`](crate::ImplicationClient::note_shed),
    /// so every ledger reports it uniformly).
    shed: "shed", "typedtd_shed_total", "Submissions bounced at a front-end overload bound";
    /// Total fuel spent across all jobs.
    fuel_spent: "fuel_spent", "typedtd_fuel_spent_total",
        "Fuel units consumed by leader computations";
    /// Shard sweeps that stepped at least one job.
    sweeps: "sweeps", "typedtd_sweeps_total", "Shard sweeps that stepped at least one job";
    /// Fuel slices executed by a worker on a shard outside its home
    /// stripe (cross-shard work stealing).
    steals: "steals", "typedtd_steals_total",
        "Fuel slices run by a worker outside its home shard stripe";
    /// Times a waiter or idle worker parked on a condvar instead of
    /// spinning (each park is condvar- or timeout-bounded).
    parked: "parked", "typedtd_parked_total", "Times a waiter or idle worker parked on a condvar";
    /// Cache hits served by an entry replayed from the persistence log —
    /// the warm-restart signal (a subset of [`ServiceStats::cache_hits`]).
    warm_hits: "warm_hits", "typedtd_warm_hits_total",
        "Cache hits served from a replayed persist log";
    /// Failed persistence-log appends (each one also healed the log back
    /// to a record boundary; enough consecutive failures degrade the log
    /// to read-only in-memory mode). Opening an unusable log at startup
    /// counts one.
    persist_errors: "persist_errors", "typedtd_persist_errors_total",
        "Failed persist-log opens and appends (degraded mode)";
    /// Cache key hits rejected by isomorphism verification (should be 0;
    /// a nonzero count flags a canonicalization bug).
    verify_rejects: "verify_rejects", "typedtd_verify_rejects_total",
        "Cache key matches rejected by isomorphism verification";
    /// Submissions broken down by the goal's surface dependency class
    /// (indexed by [`DependencyClass::index`]). The class is the
    /// submitter's tag ([`QuerySpec::goal_class`](crate::QuerySpec::goal_class));
    /// untagged queries default to the goal's normal-form shape (td or
    /// egd).
    class_submitted[DependencyClass]: "class_submitted", "typedtd_class_submitted_total",
        "Jobs submitted by goal dependency class";
    /// Cache hits per goal class (same indexing as
    /// [`ServiceStats::class_submitted`]).
    class_cache_hits[DependencyClass]: "class_cache_hits", "typedtd_class_cache_hits_total",
        "Answer-cache hits by goal dependency class";
    /// Cache misses (scheduled computations) per goal class.
    class_cache_misses[DependencyClass]: "class_cache_misses", "typedtd_class_cache_misses_total",
        "Scheduled computations by goal dependency class";
    /// Scheduled computations by the fragment route the classifier chose
    /// (indexed by [`RouteClass::index`]): `terminating` jobs run the
    /// chase alone under unbounded budgets, `linear`/`guarded` are
    /// observational detections, `dovetail` is the general-case default.
    /// All zero when [`ServiceConfig::classify`](crate::ServiceConfig::classify)
    /// is off; per-query decide overrides also bypass routing.
    class_routed[RouteClass]: "class_routed", "typedtd_class_routed_total",
        "Scheduled computations by classifier fragment route";
    /// Scheduled computations that joined a shared Σ-group saturation
    /// instead of running their own chase
    /// ([`ServiceConfig::group`](crate::ServiceConfig::group)).
    grouped: "grouped", "typedtd_grouped_total",
        "Computations served by a shared Sigma-group saturation";
    /// Shared group saturation chases actually started — the savings
    /// denominator: `grouped` members were served by this many chases.
    group_chases: "group_chases", "typedtd_group_chases_total",
        "Shared Sigma-group saturation chases started";
    /// Group members that fell back to an individual chase after the
    /// shared saturation exhausted its budget without settling their
    /// goal.
    group_fallbacks: "group_fallbacks", "typedtd_group_fallbacks_total",
        "Group members that fell back to a private chase";
}

/// Generates [`Hist`] and [`HISTOGRAMS`] from one table: a row is
/// `Variant: "key", "prometheus_name", "help";`.
macro_rules! histogram_table {
    ($( $(#[$attr:meta])* $variant:ident: $key:literal, $prom:literal, $help:literal; )*) => {
        /// A histogram family, indexing [`HISTOGRAMS`]; recorded with
        /// [`crate::Telemetry::record`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Hist {
            $( $(#[$attr])* $variant, )*
        }

        /// The histogram table's rows, indexed by [`Hist`].
        pub const HISTOGRAMS: &[Instrument] = &[
            $( Instrument { key: $key, prom: $prom, help: $help }, )*
        ];
    };
}

histogram_table! {
    /// Submit→resolve latency of a submission answered without fresh
    /// computation (cache hit, goal-in-Σ fast path, coalesced onto a
    /// finished leader, warm replay), in nanoseconds.
    LatencyHit: "latency_hit", "typedtd_latency_hit_nanos",
        "Submit-to-settle latency of answers served without a computation (ns)";
    /// Submit→resolve latency of a computed verdict (including an honest
    /// `Unknown` within fuel), in nanoseconds.
    LatencyMiss: "latency_miss", "typedtd_latency_miss_nanos",
        "Submit-to-settle latency of computed answers (ns)";
    /// Submit→resolve latency of a job a fuel cap or the global budget
    /// expired, in nanoseconds.
    LatencyExpired: "latency_expired", "typedtd_latency_expired_nanos",
        "Submit-to-settle latency of expired jobs (ns)";
    /// Submit→resolve latency of a cancelled job (explicitly, or its
    /// connection dropped), in nanoseconds.
    LatencyCancelled: "latency_cancelled", "typedtd_latency_cancelled_nanos",
        "Submit-to-settle latency of cancelled jobs (ns)";
    /// Time a scheduled job spent waiting, not being stepped (ns).
    QueueWait: "queue_wait", "typedtd_queue_wait_nanos",
        "Time a leader spent off-CPU between submit and settle (ns)";
    /// Time a scheduled job spent being stepped (ns).
    RunTime: "run_time", "typedtd_run_time_nanos", "Time a leader spent inside fuel slices (ns)";
    /// Fuel one landed submission consumed.
    FuelPerJob: "fuel_per_job", "typedtd_fuel_per_job",
        "Fuel consumed per settled job (0 for cache hits and waiters)";
    /// Hash-join build-side rows one landed scheduled job's chase spent.
    JoinBuildRows: "join_build_rows", "typedtd_join_build_rows",
        "Hash-join build-side rows per settled job (chase trigger scans)";
    /// Hash-join probe-side hits one landed scheduled job's chase spent.
    JoinProbeHits: "join_probe_hits", "typedtd_join_probe_hits",
        "Hash-join probe-side hits per settled job (chase trigger scans)";
}

impl Hist {
    /// Number of histogram families.
    pub const COUNT: usize = HISTOGRAMS.len();

    /// The latency families, one per way a submission leaves the
    /// in-flight set: every submission lands in exactly one.
    pub const LATENCY: [Hist; 4] = [
        Hist::LatencyHit,
        Hist::LatencyMiss,
        Hist::LatencyExpired,
        Hist::LatencyCancelled,
    ];
}

/// The gauges, rendered after the counters: jobs in flight, cached
/// queries, and the per-shard run-queue depth (`queue_depth_<i>`).
pub const GAUGES: [Instrument; 3] = [
    Instrument {
        key: "inflight",
        prom: "typedtd_jobs_inflight",
        help: "Jobs currently running, claimed, or coalesced-waiting",
    },
    Instrument {
        key: "cached_queries",
        prom: "typedtd_cache_entries",
        help: "Distinct canonical queries currently cached",
    },
    Instrument {
        key: "queue_depth",
        prom: "typedtd_queue_depth",
        help: "Runnable jobs queued per shard",
    },
];

impl ServiceStats {
    /// Fraction of cache lookups that hit: `hits / (hits + misses)`.
    /// Coalesced submissions and the goal-in-Σ fast path count as neither
    /// (they never probed a finished entry). `0.0` before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// [`ServiceStats::cache_hit_rate`] restricted to one goal class.
    /// `0.0` before any lookup of that class.
    pub fn class_hit_rate(&self, class: DependencyClass) -> f64 {
        let i = class.index();
        let lookups = self.class_cache_hits[i] + self.class_cache_misses[i];
        if lookups == 0 {
            0.0
        } else {
            self.class_cache_hits[i] as f64 / lookups as f64
        }
    }

    /// The tokens of the shutdown `done` line both front ends print:
    /// `submitted answered unknown cancelled expired warm_hits shed`,
    /// where `answered` counts `Yes` and `No`, so
    /// `submitted == answered + unknown + cancelled` once a batch without
    /// retired waiters or detached cancellations has drained.
    pub fn done_text(&self) -> String {
        format!(
            "submitted={} answered={} unknown={} cancelled={} expired={} warm_hits={} shed={}",
            self.submitted,
            self.yes + self.no,
            self.unknown,
            self.cancelled,
            self.expired,
            self.warm_hits,
            self.shed,
        )
    }

    /// The ledger identities, which hold whenever the service is
    /// quiescent (no submit, step, or cancel in progress). `Err` names
    /// every identity that fails.
    ///
    /// * Every submission takes exactly one submit path:
    ///   `submitted == goal_in_sigma + cache_hits + coalesced + cache_misses`.
    /// * Each per-class family sums to its scalar.
    /// * Routing classifies only misses: `Σ class_routed ≤ cache_misses`
    ///   (equal when classify is on and no query overrides its decide
    ///   config).
    /// * Subsets: `warm_hits ≤ cache_hits`, `expired ≤ unknown`,
    ///   `group_chases ≤ grouped` and `group_fallbacks ≤ grouped`.
    /// * Every resolution with an answer counts as completed, and
    ///   completion happens once per job at most:
    ///   `yes + no + unknown ≤ completed ≤ yes + no + unknown + cancelled`
    ///   and `completed ≤ submitted`. Neither bound is an equality: an
    ///   owner who cancels while detached waiters keep the job alive
    ///   counts `cancelled` but not `completed`, and a waiter retired
    ///   before its leader lands counts neither.
    pub fn check(&self) -> Result<(), String> {
        let sum = |a: &[u64]| a.iter().sum::<u64>();
        let answered = self.yes + self.no + self.unknown;
        let paths = self.goal_in_sigma + self.cache_hits + self.coalesced + self.cache_misses;
        let identities = [
            (
                self.submitted == paths,
                "submitted == goal_in_sigma + cache_hits + coalesced + cache_misses",
            ),
            (sum(&self.class_submitted) == self.submitted, "Σ class_submitted == submitted"),
            (sum(&self.class_cache_hits) == self.cache_hits, "Σ class_cache_hits == cache_hits"),
            (
                sum(&self.class_cache_misses) == self.cache_misses,
                "Σ class_cache_misses == cache_misses",
            ),
            (sum(&self.class_routed) <= self.cache_misses, "Σ class_routed <= cache_misses"),
            (self.warm_hits <= self.cache_hits, "warm_hits <= cache_hits"),
            (self.expired <= self.unknown, "expired <= unknown"),
            (self.group_chases <= self.grouped, "group_chases <= grouped"),
            (self.group_fallbacks <= self.grouped, "group_fallbacks <= grouped"),
            (answered <= self.completed, "yes + no + unknown <= completed"),
            (
                self.completed <= answered + self.cancelled,
                "completed <= yes + no + unknown + cancelled",
            ),
            (self.completed <= self.submitted, "completed <= submitted"),
        ];
        let failed: Vec<&str> = identities
            .iter()
            .filter(|(holds, _)| !holds)
            .map(|(_, what)| *what)
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{} fail in {self:?}", failed.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The README's instrument table names every row's key and
    /// Prometheus name, so the docs cannot drift from the table.
    #[test]
    fn readme_lists_every_instrument() {
        let readme = include_str!("../README.md");
        for row in COUNTERS.iter().chain(&GAUGES).chain(HISTOGRAMS) {
            assert!(readme.contains(&format!("`{}`", row.key)), "README misses key {}", row.key);
            assert!(readme.contains(&format!("`{}`", row.prom)), "README misses {}", row.prom);
        }
    }

    /// A family renders every label on both surfaces, zeros included,
    /// under one Prometheus header.
    #[test]
    fn families_render_every_label_under_one_header() {
        let mut stats = ServiceStats::default();
        stats.class_routed[RouteClass::Terminating.index()] = 2;
        let mut text = String::new();
        stats.render(&mut text);
        for r in RouteClass::ALL {
            assert!(text.contains(&format!(" class_routed_{}=", r.as_str())), "{text}");
        }
        assert!(text.contains(" class_routed_terminating=2 "), "{text}");
        let mut x = crate::Exposition::new();
        stats.render(&mut x);
        let prom = x.finish();
        assert!(prom.contains("typedtd_class_routed_total{class=\"terminating\"} 2\n"));
        assert_eq!(prom.matches("# TYPE typedtd_class_routed_total counter").count(), 1);
    }
}
