//! Reference answers, computed in-process outside any timed region.
//!
//! Each goal part runs as a `DecideTask` exactly as the daemon's submit
//! path would build it: Σ normalized in order, the goal-in-Σ fast path,
//! Σ deduplicated by canonical encoding as `query_parts` reports it, the
//! route from `classify` turned into a config by `routed_decide_config`,
//! and fuel granted in the service's slices up to the query's cap. Parts
//! conjoin like the wire. fd-only and mvd-only queries are also checked
//! against the chase-free oracles.

use crate::gen::Query;
use crate::Workload;
use std::collections::HashSet;
use typedtd_chase::{
    classify, routed_decide_config, Answer, DecideConfig, DecideStatus, DecideTask, RouteClass,
};
use typedtd_dependencies::{fd_implies, mvd_implies, Dependency, TdOrEgd};
use typedtd_relational::ValuePool;
use typedtd_service::{
    parse_decide_mode, parse_query_line, parse_universe_spec, query_parts, QueryParts,
};

/// Fuel the daemon grants a job per scheduler sweep (`--slice` default).
pub const SLICE_FUEL: u64 = 8;

/// The expected wire answer of one query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expected {
    /// Conjunction of the parts' `Σ ⊨ σ`.
    pub implication: Answer,
    /// Conjunction of the parts' `Σ ⊨_f σ`.
    pub finite: Answer,
    /// Fuel the parts spend when every part runs fresh.
    pub fuel: u64,
    /// Normalized goal parts (one scheduler job each).
    pub parts: u32,
}

/// A query parsed and normalized the way the daemon does it.
pub struct Parsed {
    /// Σ as parsed (before normalization).
    pub sigma_deps: Vec<Dependency>,
    /// The goal as parsed.
    pub goal_dep: Dependency,
    /// Normalized Σ, in submission order.
    pub sigma: Vec<TdOrEgd>,
    /// Normalized goal parts.
    pub parts: Vec<TdOrEgd>,
    /// The pool after normalization (each part's job gets a clone).
    pub pool: ValuePool,
}

/// Parses and normalizes `q`: universe, query line, Σ then goal.
pub fn parse(q: &Query) -> Result<Parsed, String> {
    parse_text(&q.universe(), &q.text())
}

/// [`parse`] for a query given as its `SUBMIT` universe spec and text.
pub fn parse_text(universe: &str, text: &str) -> Result<Parsed, String> {
    let universe = parse_universe_spec(universe)?;
    let mut pool = ValuePool::new(universe.clone());
    let (sigma_deps, goal_dep) = parse_query_line(&universe, &mut pool, text)?;
    let mut sigma = Vec::new();
    for d in &sigma_deps {
        sigma.extend(d.try_normalize(&universe, &mut pool)?);
    }
    let parts = goal_dep.try_normalize(&universe, &mut pool)?;
    Ok(Parsed {
        sigma_deps,
        goal_dep,
        sigma,
        parts,
        pool,
    })
}

/// What the submit path does with one part's canonical form `qp` before
/// building its task: `None` when the goal is canonically in Σ (answered
/// Yes at once), otherwise Σ deduplicated in first-occurrence order.
pub fn dedup_sigma(sigma: &[TdOrEgd], qp: &QueryParts) -> Option<Vec<TdOrEgd>> {
    if qp.sigma_keys.contains(&qp.goal_key) {
        return None;
    }
    let mut seen = HashSet::new();
    Some(
        sigma
            .iter()
            .zip(&qp.sigma_keys)
            .filter(|(_, k)| seen.insert(*k))
            .map(|(d, _)| d.clone())
            .collect(),
    )
}

/// The daemon's base decide config for `workload`.
pub fn base_config(workload: Workload) -> DecideConfig {
    let mut cfg = DecideConfig::default();
    if let Some(mode) = workload.mode() {
        cfg.mode = parse_decide_mode(mode).expect("workload modes parse");
    }
    cfg
}

/// The route and config the classifier gives a deduplicated Σ.
pub fn route(base: &DecideConfig, sigma: &[TdOrEgd]) -> (RouteClass, DecideConfig) {
    let route = classify(sigma).route();
    (route, routed_decide_config(base, route))
}

/// Steps `task` in service-sized slices until it is done or has spent
/// `cap`; returns the answer pair (Unknown on expiry) and fuel spent.
pub fn run_capped(mut task: DecideTask, cap: Option<u64>) -> (Answer, Answer, u64) {
    loop {
        let spent = task.fuel_spent();
        let want = cap.map_or(SLICE_FUEL, |c| SLICE_FUEL.min(c.saturating_sub(spent)));
        if want == 0 {
            return (Answer::Unknown, Answer::Unknown, spent);
        }
        if let DecideStatus::Done(_) = task.step(want as usize) {
            let fuel = task.fuel_spent();
            let (d, _) = task.finish();
            return (d.implication, d.finite_implication, fuel);
        }
    }
}

/// The chase-free verdict for fd-only and mvd-only queries.
pub fn oracle(q: &Query, parsed: &Parsed) -> Option<Answer> {
    let verdict = |b: bool| if b { Answer::Yes } else { Answer::No };
    if q.fd_only() {
        let fds: Vec<_> = parsed
            .sigma_deps
            .iter()
            .filter_map(|d| match d {
                Dependency::Fd(f) => Some(f.clone()),
                _ => None,
            })
            .collect();
        let Dependency::Fd(goal) = &parsed.goal_dep else {
            return None;
        };
        return Some(verdict(fd_implies(&fds, goal)));
    }
    if q.mvd_only() {
        let mvds: Vec<_> = parsed
            .sigma_deps
            .iter()
            .filter_map(|d| match d {
                Dependency::Mvd(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        let Dependency::Mvd(goal) = &parsed.goal_dep else {
            return None;
        };
        return Some(verdict(mvd_implies(goal.universe(), &mvds, goal)));
    }
    None
}

/// The reference answer of one query under `workload`'s mode and cap.
///
/// # Errors
/// A parse failure.
pub fn expected(q: &Query, workload: Workload) -> Result<Expected, String> {
    let parsed = parse(q)?;
    let base = base_config(workload);
    let mut out = Expected {
        implication: Answer::Yes,
        finite: Answer::Yes,
        fuel: 0,
        parts: parsed.parts.len() as u32,
    };
    for part in &parsed.parts {
        let Some(sigma) = dedup_sigma(&parsed.sigma, &query_parts(&parsed.sigma, part)) else {
            continue; // goal-in-Σ: Yes/Yes, no fuel
        };
        let (_, cfg) = route(&base, &sigma);
        let task = DecideTask::new(sigma, part.clone(), parsed.pool.clone(), cfg);
        let (imp, fin, fuel) = run_capped(task, workload.fuel_cap());
        out.implication = out.implication.and(imp);
        out.finite = out.finite.and(fin);
        out.fuel += fuel;
    }
    // fds and typed mvds are decided alike for finite and unrestricted
    // implication; where the chase-free oracle speaks, its verdict is the
    // reference, so a chase that disagrees fails the query on the wire.
    if let Some(truth) = oracle(q, &parsed) {
        out.implication = truth;
        out.finite = truth;
    }
    Ok(out)
}

/// References for a whole stream, computed on `threads` threads (the
/// result does not depend on the thread count).
///
/// # Errors
/// The first per-query error, in stream order.
pub fn expected_all(
    stream: &[Query],
    workload: Workload,
    threads: usize,
) -> Result<Vec<Expected>, String> {
    let chunk = stream.len().div_ceil(threads.max(1)).max(1);
    let results: Vec<Result<Vec<Expected>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = stream
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(|q| expected(q, workload)).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(stream.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

fn answer_code(a: Answer) -> u8 {
    match a {
        Answer::Yes => 0,
        Answer::No => 1,
        Answer::Unknown => 2,
    }
}

fn answer_from_code(c: &str) -> Option<Answer> {
    match c {
        "0" => Some(Answer::Yes),
        "1" => Some(Answer::No),
        "2" => Some(Answer::Unknown),
        _ => None,
    }
}

/// Serializes references, one `implication finite fuel parts` line each.
pub fn to_text(refs: &[Expected]) -> String {
    refs.iter()
        .map(|e| {
            format!(
                "{} {} {} {}\n",
                answer_code(e.implication),
                answer_code(e.finite),
                e.fuel,
                e.parts
            )
        })
        .collect()
}

/// Parses [`to_text`] output; `None` on any malformed line.
pub fn from_text(text: &str) -> Option<Vec<Expected>> {
    text.lines()
        .map(|line| {
            let mut it = line.split(' ');
            let e = Expected {
                implication: answer_from_code(it.next()?)?,
                finite: answer_from_code(it.next()?)?,
                fuel: it.next()?.parse().ok()?,
                parts: it.next()?.parse().ok()?,
            };
            it.next().is_none().then_some(e)
        })
        .collect()
}
