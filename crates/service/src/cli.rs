//! Helpers shared by the `typedtd-serve` and `typedtd-sockd` front
//! ends, so the two binaries cannot silently diverge in the flags they
//! accept or the stats they report.

use crate::service::ImplicationClient;
use typedtd_chase::DecideMode;

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

/// The `--stats` ledger both front ends print, and the body of a `STATS`
/// reply after the connection's five tokens: the `key=value` rendering
/// of [`ImplicationClient::render`]. `inflight` is 0 after a full drain —
/// the shutdown tests assert exactly that.
pub fn stats_line(client: &ImplicationClient) -> String {
    let mut line = String::new();
    client.render(&mut line);
    line
}

/// The shutdown line both front ends print last on stderr:
/// `PROG: done` followed by [`crate::ServiceStats::done_text`].
pub fn done_line(prog: &str, client: &ImplicationClient) -> String {
    format!("{prog}: done {}", client.stats().done_text())
}
