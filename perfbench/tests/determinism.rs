//! Determinism self-test of the benchmark: seeded generators, the shape of
//! each workload's stream, and identical exact counts across daemon runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! The daemon test builds `typedtd-sockd` from the checkout first.

use perfbench::gen;
use perfbench::reference::{self, dedup_sigma, parse};
use perfbench::run::{check, ensure_history, one_pass, to_wire, Ctx};
use perfbench::Workload;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use typedtd_chase::{classify, RouteClass};
use typedtd_dependencies::Dependency;
use typedtd_service::query_parts;

#[test]
fn generators_are_seed_deterministic() {
    assert_eq!(gen::history(7), gen::history(7));
    assert_ne!(gen::history(7), gen::history(8));
    let history = gen::history(7);
    for w in Workload::ALL {
        let a = w.stream(7, &history);
        assert_eq!(a, w.stream(7, &history), "{}", w.name());
        assert_ne!(a, w.stream(8, &gen::history(8)), "{}", w.name());
    }
}

/// Every goal-part key of a stream, failing on a repeat.
fn distinct_keys(w: Workload, stream: &[gen::Query]) -> HashSet<typedtd_service::QueryKey> {
    let mut seen = HashSet::new();
    for q in stream {
        for k in gen::part_keys(q).expect("stream queries parse") {
            assert!(
                seen.insert(k),
                "{}: repeated canonical key at {}",
                w.name(),
                q.text()
            );
        }
    }
    seen
}

#[test]
fn cold_and_frontier_keys_are_distinct_and_new() {
    let history = gen::history(3);
    let history_keys: HashSet<_> = history
        .iter()
        .flat_map(|q| gen::part_keys(q).unwrap_or_default())
        .collect();
    for w in [Workload::ColdChase, Workload::FrontierCap] {
        let keys = distinct_keys(w, &w.stream(3, &history));
        assert!(
            keys.is_disjoint(&history_keys),
            "{} reuses a history key",
            w.name()
        );
    }
}

/// The route the daemon's classifier gives each goal part of `q`.
fn routes(q: &gen::Query) -> Vec<RouteClass> {
    let p = parse(q).expect("stream queries parse");
    p.parts
        .iter()
        .filter_map(|part| dedup_sigma(&p.sigma, &query_parts(&p.sigma, part)))
        .map(|sigma| classify(&sigma).route())
        .collect()
}

#[test]
fn cold_chase_is_weakly_acyclic() {
    for q in gen::cold_stream(5) {
        assert!(
            routes(&q).iter().all(|r| *r == RouteClass::Terminating),
            "cold query not terminating: {}",
            q.text()
        );
    }
}

/// Whether a frontier Σ is in the regime the workload is for: it holds an
/// inclusion dependency or a td with an existential conclusion value.
fn in_frontier_regime(sigma: &[Dependency]) -> bool {
    sigma.iter().any(|d| match d {
        Dependency::Ind(_) => true,
        Dependency::Td(t) => {
            let hyp: HashSet<_> = t
                .hypothesis()
                .iter()
                .flat_map(|r| r.values().to_vec())
                .collect();
            t.conclusion().values().iter().any(|v| !hyp.contains(v))
        }
        _ => false,
    })
}

#[test]
fn frontier_cap_stays_in_the_undecidable_regime() {
    for q in gen::frontier_stream(5) {
        let p = parse(&q).expect("stream queries parse");
        assert!(
            in_frontier_regime(&p.sigma_deps),
            "no ind or successor td: {}",
            q.text()
        );
        assert!(
            routes(&q).iter().all(|r| *r != RouteClass::Terminating),
            "frontier query routed terminating: {}",
            q.text()
        );
    }
}

/// Builds the daemon under test and returns its path.
fn build_sockd(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    let status =
        std::process::Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args([
                "build",
                "--offline",
                "--release",
                "--quiet",
                "-p",
                "typedtd-service",
                "--bin",
                "typedtd-sockd",
            ])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(root)
            .status()
            .expect("cargo runs");
    assert!(status.success(), "building typedtd-sockd failed");
    target.join("release").join("typedtd-sockd")
}

/// Two short daemon runs of each workload agree exactly: answer digest,
/// definite count, fuel total and hit count, with no failed query.
#[test]
fn short_runs_repeat_exactly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the checkout")
        .to_path_buf();
    let sockd = build_sockd(&root);
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let ctx = Ctx::new(root, work, sockd).expect("context");
    let seed = 11;
    let history = gen::history(seed);
    let log = ensure_history(&ctx, seed, &history).expect("history log");
    assert!(
        log.records > log.kept,
        "the history must overflow the cache"
    );
    for (w, len) in [
        (Workload::HotRepeats, 600),
        (Workload::ColdChase, 300),
        (Workload::FrontierCap, 150),
    ] {
        let stream: Vec<_> = w.stream(seed, &history).into_iter().take(len).collect();
        let refs = reference::expected_all(&stream, w, 2).expect("references");
        let wire = to_wire(&stream);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let pass = one_pass(&ctx, w, &log, &wire, false).expect("daemon pass");
                let c = check(w, &stream, &pass.run, &refs);
                assert_eq!(c.failed, 0, "{}: {:?}", w.name(), c.examples);
                (c.digest, c.definite, c.fuel, pass.hits())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{} differs between runs", w.name());
    }
}
