//! Helpers shared by the `typedtd-serve` and `typedtd-sockd` front
//! ends, so the two binaries cannot silently diverge in the flags they
//! accept or the stats they report.

use crate::persist::PersistConfig;
use crate::service::{ImplicationClient, ServiceConfig};
use typedtd_chase::{ChaseConfig, DecideConfig, DecideMode};

/// The usage text of the flags [`parse_service_args`] accepts, for the
/// front ends' usage lines.
pub const SERVICE_USAGE: &str = "[--slice N] [--global-fuel N] [--shards N] [--cache-cap N] \
     [--verify-hits] [--mode sequential|dovetail:adaptive[:RATIO]] [--classify on|off] \
     [--group on|off] [--quick] [--log PATH]";

/// Parses a front end's arguments into a [`ServiceConfig`]. The flags in
/// [`SERVICE_USAGE`] are parsed here; every other argument goes to `own`
/// together with the arguments after it (so a binary's own flag can take
/// its value), and `own` returns `false` for an argument it does not
/// accept. `--mode` is applied after `--quick`, which rebuilds the decide
/// config, so the two compose in any order. `None` on a missing or
/// malformed value, or on an argument neither side accepts.
pub fn parse_service_args(
    args: impl IntoIterator<Item = String>,
    mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
) -> Option<ServiceConfig> {
    let mut cfg = ServiceConfig::default();
    let mut mode = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => mode = Some(parse_decide_mode(&args.next()?)?),
            "--classify" => cfg.classify = on_off(args.next())?,
            "--group" => cfg.group = on_off(args.next())?,
            "--slice" => cfg.slice_fuel = args.next()?.parse().ok()?,
            "--global-fuel" => cfg.global_fuel = Some(args.next()?.parse().ok()?),
            "--shards" => cfg.shards = args.next()?.parse().ok()?,
            "--cache-cap" => cfg.cache_capacity = args.next()?.parse().ok()?,
            "--verify-hits" => cfg.verify_cache_hits = true,
            "--log" => cfg.persist = Some(PersistConfig::at(args.next()?)),
            "--quick" => {
                cfg.decide = DecideConfig {
                    chase: ChaseConfig::quick(),
                    ..DecideConfig::default()
                }
            }
            _ if own(&arg, &mut args) => {}
            _ => return None,
        }
    }
    if let Some(mode) = mode {
        cfg.decide.mode = mode;
    }
    Some(cfg)
}

fn on_off(value: Option<String>) -> Option<bool> {
    match value.as_deref()? {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    }
}

/// Parses a `--mode` argument: `sequential`, or `dovetail:adaptive[:RATIO]`
/// (start at `RATIO` chase rounds per search attempt, default 1, then
/// rebalance fuel toward whichever procedure progressed last slice).
pub fn parse_decide_mode(text: &str) -> Option<DecideMode> {
    match text {
        "sequential" => Some(DecideMode::Sequential),
        "dovetail:adaptive" => Some(DecideMode::adaptive_dovetail(1)),
        _ => {
            let ratio = text.strip_prefix("dovetail:adaptive:")?;
            Some(DecideMode::adaptive_dovetail(ratio.parse().ok()?))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_flags_parse_once_for_both_front_ends() {
        let parse = |line: &str, own: &mut Vec<String>| {
            parse_service_args(line.split_whitespace().map(String::from), |arg, rest| {
                own.push(arg.to_string());
                own.extend(rest.next().filter(|_| arg == "--unix"));
                matches!(arg, "--unix" | "--stats")
            })
        };
        let mut own = Vec::new();
        let line = "--unix s --slice 4 --global-fuel 9 --shards 3 --cache-cap 7 --verify-hits \
                    --classify off --group on --log L --mode dovetail:adaptive:3 --quick --stats";
        let cfg = parse(line, &mut own).expect("every flag parses");
        assert_eq!(own, ["--unix", "s", "--stats"]);
        let got = (cfg.slice_fuel, cfg.global_fuel, cfg.shards, cfg.cache_capacity);
        assert_eq!(got, (4, Some(9), 3, 7));
        assert!(cfg.verify_cache_hits && !cfg.classify && cfg.group && cfg.persist.is_some());
        // `--mode` survives a later `--quick`.
        assert_eq!(cfg.decide.mode, DecideMode::adaptive_dovetail(3));
        assert_eq!(cfg.decide.chase.max_rounds, ChaseConfig::quick().max_rounds);
        assert_eq!(parse_decide_mode("sequential"), Some(DecideMode::Sequential));
        assert_eq!(parse_decide_mode("dovetail:adaptive"), Some(DecideMode::adaptive_dovetail(1)));
        for bad in ["--slice", "--classify x", "--mode dovetail:2", "--steal on", "--no-cache"] {
            assert!(parse(bad, &mut own).is_none(), "{bad:?} must be refused");
        }
    }
}
