//! `typedtd-perfbench`: the end-to-end benchmark of `typedtd-sockd`.
//!
//! One run restarts a real daemon on a Unix socket from a seeded history
//! log, drives one seeded workload through one pipelined `ProtoClient`
//! connection in a closed loop, checks every answer against an in-process
//! reference, and prints the end-to-end metrics. A traced run (`--trace 1`)
//! instead attributes time and counts to the repository's modules by
//! calling their public functions from this package.
//!
//! Every input of a run is fixed by the seed and the build: a fixed query
//! stream per pass, per-query `SUBMIT` fuel caps, and the same history-log
//! bytes before every daemon start. Answers, `definite_frac` and fuel
//! totals therefore repeat exactly; only wall time varies.

pub mod daemon;
pub mod gen;
pub mod reference;
pub mod report;
pub mod run;
pub mod trace;

use gen::Query;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Resubmissions of recent history structures: the cache path.
    ///
    /// Runnable by hand but not among the timed workloads of
    /// `BENCHMARK.json`: its one busy connection thread tracks the shared
    /// host's single-thread speed, which drifted by a fifth over minutes
    /// with no CPU time stolen, so ten runs spread 15-27% of the median.
    HotRepeats,
    /// Distinct weakly acyclic queries: the chase and the cache/log write
    /// side.
    ColdChase,
    /// Fuel-capped dovetail queries in the undecidable fd+ind regime.
    FrontierCap,
}

/// The one fuel cap every `frontier_cap` query carries: below the point
/// where the default search finishes its one-value-domain restarts and
/// first reaches two-value domains, so search changes move
/// `definite_frac`.
pub const FRONTIER_CAP: u64 = 128;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HotRepeats,
        Workload::ColdChase,
        Workload::FrontierCap,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeats => "hot_repeats",
            Workload::ColdChase => "cold_chase",
            Workload::FrontierCap => "frontier_cap",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `SUBMIT`s kept in flight on the one connection.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::HotRepeats => 16,
            Workload::ColdChase | Workload::FrontierCap => 8,
        }
    }

    /// The daemon's `--mode`, when not the default.
    pub fn mode(self) -> Option<&'static str> {
        match self {
            Workload::FrontierCap => Some("dovetail:adaptive"),
            Workload::HotRepeats | Workload::ColdChase => None,
        }
    }

    /// The per-query `SUBMIT` fuel cap. The other workloads are weakly
    /// acyclic, so their chases end by themselves.
    pub fn fuel_cap(self) -> Option<u64> {
        match self {
            Workload::FrontierCap => Some(FRONTIER_CAP),
            Workload::HotRepeats | Workload::ColdChase => None,
        }
    }

    /// Whether every part of every query runs fresh (no cache hits), so
    /// per-query fuel must equal the reference's.
    pub fn all_miss(self) -> bool {
        !matches!(self, Workload::HotRepeats)
    }

    /// The query stream of one pass for `seed`.
    pub fn stream(self, seed: u64, history: &[Query]) -> Vec<Query> {
        match self {
            Workload::HotRepeats => gen::hot_stream(seed, history),
            Workload::ColdChase => gen::cold_stream(seed),
            Workload::FrontierCap => gen::frontier_stream(seed),
        }
    }
}

/// 64-bit FNV-1a, for digests and content keys.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}
