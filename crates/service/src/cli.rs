//! Helpers shared by the `typedtd-serve` and `typedtd-sockd` front
//! ends, so the two binaries cannot silently diverge in the flags they
//! accept or the stats they report.

use crate::service::ImplicationClient;
use typedtd_chase::{DecideMode, RouteClass};
use typedtd_dependencies::DependencyClass;

/// Parses a `--mode` argument: `sequential`, `dovetail[:RATIO]` (fixed
/// `RATIO` chase rounds per search attempt, default 1), or
/// `dovetail:adaptive[:RATIO]` (start at `RATIO`, then rebalance fuel
/// toward whichever procedure progressed last slice).
pub fn parse_decide_mode(text: &str) -> Option<DecideMode> {
    match text {
        "sequential" => Some(DecideMode::Sequential),
        "dovetail" => Some(DecideMode::dovetail(1)),
        "dovetail:adaptive" => Some(DecideMode::adaptive_dovetail(1)),
        _ => {
            let rest = text.strip_prefix("dovetail:")?;
            match rest.strip_prefix("adaptive:") {
                Some(ratio) => Some(DecideMode::adaptive_dovetail(ratio.parse().ok()?)),
                None => Some(DecideMode::dovetail(rest.parse().ok()?)),
            }
        }
    }
}

/// The `--stats` ledger both front ends print: every [`crate::ServiceStats`]
/// counter plus the live cache size and in-flight gauge, `key=value`
/// separated by spaces. Per-class breakdowns (`class_CLASS=submitted/\
/// hits/misses` with hit-rate) appear only for classes that saw at least
/// one submission, so homogeneous workloads keep the classic line.
/// `inflight` is 0 after a full drain — the shutdown tests assert
/// exactly that.
pub fn stats_line(client: &ImplicationClient) -> String {
    let s = client.stats();
    let mut line = format!(
        "jobs={} completed={} yes={} no={} unknown={} cache_hits={} goal_in_sigma={} \
         coalesced={} misses={} hit_rate={:.2} evictions={} expired={} cancelled={} \
         retired={} shed={} fuel={} sweeps={} steals={} parked={} warm_hits={} \
         persist_errors={} verify_rejects={} cached_queries={} inflight={}",
        s.submitted,
        s.completed,
        s.yes,
        s.no,
        s.unknown,
        s.cache_hits,
        s.goal_in_sigma,
        s.coalesced,
        s.cache_misses,
        s.cache_hit_rate(),
        s.evictions,
        s.expired,
        s.cancelled,
        s.retired,
        s.shed,
        s.fuel_spent,
        s.sweeps,
        s.steals,
        s.parked,
        s.warm_hits,
        s.persist_errors,
        s.verify_rejects,
        client.cache_len(),
        client.pending_jobs(),
    );
    for c in DependencyClass::ALL {
        let i = c.index();
        if s.class_submitted[i] == 0 {
            continue;
        }
        use std::fmt::Write as _;
        let _ = write!(
            line,
            " class_{}={}/{}/{}/{:.2}",
            c.as_str(),
            s.class_submitted[i],
            s.class_cache_hits[i],
            s.class_cache_misses[i],
            s.class_hit_rate(c),
        );
    }
    // Fragment-routing breakdown: only routes that saw traffic, so a
    // classifier-off run keeps the classic line.
    for r in RouteClass::ALL {
        let n = s.class_routed[r.index()];
        if n == 0 {
            continue;
        }
        use std::fmt::Write as _;
        let _ = write!(line, " routed_{}={}", r.as_str(), n);
    }
    {
        use std::fmt::Write as _;
        let _ = write!(
            line,
            " grouped={} group_chases={} group_fallbacks={}",
            s.grouped, s.group_chases, s.group_fallbacks,
        );
    }
    line
}
