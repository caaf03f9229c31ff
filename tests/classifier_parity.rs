//! Differential parity for the fragment classifier and Σ-group sharing.
//!
//! Three guarantees, checked against randomized corpora:
//!
//! * **routing is invisible** — the classifier may re-route a weakly
//!   acyclic query onto the terminating path (sequential, no search,
//!   unbounded chase budgets), but the answers must be identical to the
//!   unclassified dovetail path on every query of a 200+-case corpus
//!   mixing fds, mvds, pjds, tds, egds, inclusion dependencies, and
//!   independence atoms;
//! * **grouping is invisible** — Σ-group shared saturation must agree
//!   with the per-job blocking `decide` on every member goal;
//! * **expiry is honest** — a group whose shared budget dies falls back
//!   per member and never manufactures a definite answer: whatever the
//!   ungrouped run answers `Unknown`, the grouped run answers `Unknown`.

use typedtd::dependencies::{egd_from_names, parse_dependency, td_from_names, TdOrEgd};
use typedtd::prelude::*;
use typedtd::service::{ImplicationClient, JobStatus, QuerySpec, ServiceConfig};
use typedtd_chase::DecideMode;

/// Tight per-query budgets for the big differential corpora: the quick
/// chase plus a trimmed counterexample search. Both sides of every
/// comparison run the identical budgets, so parity is unaffected — this
/// only keeps the 200-case sweep to seconds instead of minutes.
fn corpus_decide() -> DecideConfig {
    DecideConfig {
        chase: ChaseConfig::quick(),
        search: SearchConfig {
            max_domain: 3,
            attempts: 8,
            repair_steps: 128,
            max_rows: 64,
            ..SearchConfig::default()
        },
        ..DecideConfig::default()
    }
}

/// Deterministic LCG (splitmix-style constants) so the corpus is
/// reproducible without a seed file or an external RNG.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Typed-universe Σ candidates: the decidable fd/mvd/pjd classes plus
/// independence atoms.
const TYPED_SPECS: &[&str] = &[
    "A -> B",
    "B -> C",
    "A -> BC",
    "AB -> C",
    "C -> A",
    "A ->> B",
    "B ->> C",
    "A ->> BC",
    "*[AB, AC]",
    "*[AB, BC]",
    "A _|_ B",
    "A _|_ BC",
    "AB _|_ BC",
];
const TYPED_GOALS: &[&str] = &[
    "A -> C",
    "A -> B",
    "B -> A",
    "A ->> C",
    "A ->> B",
    "A _|_ B",
    "A _|_ C",
    "*[AB, AC]",
];

/// Untyped-universe Σ candidates: inclusion dependencies (the
/// undecidable fd+ind regime), raw tds/egds (including a divergent
/// existential td), and atoms.
const UNTYPED_SPECS: &[&str] = &[
    "[AB] <= [BC]",
    "[BC] <= [CA]",
    "[A] <= [B]",
    "B -> C",
    "A -> B",
    "A _|_ BC",
    "td [x y z ; x y w] => x y z",
    "td [x y z] => y p q",
    "egd [x y1 z1 ; x y2 z2] => y1 = y2",
];
const UNTYPED_GOALS: &[&str] = &[
    "[A] <= [B]",
    "[AB] <= [CA]",
    "B -> C",
    "A -> C",
    "A _|_ C",
    "td [x y z] => x y z",
    "egd [x y1 z1 ; x y2 z2] => z1 = z2",
];

/// Builds corpus case `i`: 1–3 Σ dependencies plus a goal, drawn from
/// one universe's pool, all normalized to tds/egds.
fn corpus_case(i: u64) -> (Vec<TdOrEgd>, Vec<TdOrEgd>, ValuePool) {
    let mut st = 0x9e3779b97f4a7c15u64.wrapping_add(i.wrapping_mul(0xbf58476d1ce4e5b9));
    let typed = next(&mut st).is_multiple_of(2);
    let (u, specs, goals) = if typed {
        (Universe::typed(vec!["A", "B", "C"]), TYPED_SPECS, TYPED_GOALS)
    } else {
        (Universe::untyped(vec!["A", "B", "C"]), UNTYPED_SPECS, UNTYPED_GOALS)
    };
    let mut pool = ValuePool::new(u.clone());
    let n = 1 + (next(&mut st) % 3) as usize;
    let mut sigma = Vec::new();
    for _ in 0..n {
        let spec = specs[(next(&mut st) as usize) % specs.len()];
        let dep = parse_dependency(&u, &mut pool, spec).expect("corpus spec parses");
        sigma.extend(dep.normalize(&u, &mut pool));
    }
    let gspec = goals[(next(&mut st) as usize) % goals.len()];
    let goal = parse_dependency(&u, &mut pool, gspec)
        .expect("corpus goal parses")
        .normalize(&u, &mut pool);
    (sigma, goal, pool)
}

/// Submits every (case, goal-part) query to `client` and returns the
/// settled `(implication, finite, cancelled)` triples in corpus order.
fn run_corpus(client: &ImplicationClient, cases: u64) -> Vec<(Answer, Answer, bool)> {
    let mut jobs = Vec::new();
    for i in 0..cases {
        let (sigma, goals, pool) = corpus_case(i);
        if sigma.is_empty() {
            continue; // a trivial ind can normalize away
        }
        for g in goals {
            jobs.push(client.submit(QuerySpec::new(sigma.clone(), g, pool.clone())));
        }
    }
    client.run_to_completion();
    assert_eq!(client.stats().check(), Ok(()), "ledger identities after the drain");
    jobs.iter()
        .map(|j| match j.poll() {
            JobStatus::Done(o) => (o.implication, o.finite_implication, o.cancelled),
            other => panic!("job left unsettled after run_to_completion: {other:?}"),
        })
        .collect()
}

/// The 200-case differential: classified routing answers byte-identically
/// to the unclassified dovetail path on the full mixed-class corpus.
#[test]
fn classified_routing_matches_unclassified_dovetail() {
    let base = ServiceConfig {
        decide: DecideConfig {
            mode: DecideMode::adaptive_dovetail(1),
            ..corpus_decide()
        },
        ..ServiceConfig::default()
    };
    let routed = ImplicationClient::new(ServiceConfig {
        classify: true,
        ..base.clone()
    });
    let dovetail = ImplicationClient::new(ServiceConfig {
        classify: false,
        ..base
    });
    const CASES: u64 = 200;
    let on = run_corpus(&routed, CASES);
    let off = run_corpus(&dovetail, CASES);
    assert_eq!(on.len(), off.len());
    for (i, (a, b)) in on.iter().zip(&off).enumerate() {
        assert_eq!(a, b, "answer drift on corpus query {i}");
    }
    let s = routed.stats();
    // The typed half of the corpus is weakly acyclic: the classifier must
    // actually route it (terminating), and the untyped divergent mixes
    // must stay on dovetail.
    let terminating = typedtd_chase::RouteClass::Terminating.index();
    let dovetail_idx = typedtd_chase::RouteClass::Dovetail.index();
    assert!(s.class_routed[terminating] > 0, "no queries routed terminating");
    assert!(s.class_routed[dovetail_idx] > 0, "no queries routed dovetail");
    assert_eq!(
        dovetail.stats().class_routed.iter().sum::<u64>(),
        0,
        "classify=false must not route"
    );
}

/// Every weakly acyclic query must leave the dovetail route: on the
/// purely typed fd/mvd/pjd corpus (all weakly acyclic), the dovetail
/// route counter stays at zero while answers still match.
#[test]
fn weakly_acyclic_corpus_never_routes_dovetail() {
    let client = ImplicationClient::new(ServiceConfig {
        decide: corpus_decide(),
        ..ServiceConfig::default()
    });
    let blocking_cfg = corpus_decide();
    let u = Universe::typed(vec!["A", "B", "C"]);
    let mut checked = 0;
    for i in 0..40u64 {
        let mut st = i.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(7);
        let mut pool = ValuePool::new(u.clone());
        let mut sigma = Vec::new();
        for _ in 0..=(next(&mut st) % 2) {
            let spec = TYPED_SPECS[(next(&mut st) as usize) % TYPED_SPECS.len()];
            let dep = parse_dependency(&u, &mut pool, spec).expect("spec parses");
            sigma.extend(dep.normalize(&u, &mut pool));
        }
        let gspec = TYPED_GOALS[(next(&mut st) as usize) % TYPED_GOALS.len()];
        let goals = parse_dependency(&u, &mut pool, gspec)
            .expect("goal parses")
            .normalize(&u, &mut pool);
        for g in goals {
            let expect = decide(&sigma, &g, &mut pool.clone(), &blocking_cfg);
            let job = client.submit(QuerySpec::new(sigma.clone(), g, pool.clone()));
            let out = job.wait();
            assert_eq!(out.implication, expect.implication);
            assert_eq!(out.finite_implication, expect.finite_implication);
            checked += 1;
        }
    }
    assert!(checked >= 40, "corpus too thin: {checked}");
    let s = client.stats();
    assert_eq!(s.check(), Ok(()), "ledger identities after the drain");
    assert_eq!(
        s.class_routed[typedtd_chase::RouteClass::Dovetail.index()],
        0,
        "a weakly acyclic query fell through to the dovetail route"
    );
}

/// Σ-group members: a fixed Σ, many goals over the identical canonical
/// hypothesis (the `service_batch` shape). The grouped run must agree
/// with per-job blocking `decide` on every member.
#[test]
fn grouped_saturation_agrees_with_per_job_decide() {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let rows: &[&[&str]] = &[&["x", "y1", "z1"], &["x", "y2", "z2"]];
    let sigma = vec![
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "y1", "z2"])),
        TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("B'", "y1"), ("B'", "y2"))),
    ];
    // Member goals over the same hypothesis, none canonically in Σ:
    // a No egd, a Yes projection td, a No td, and a Yes mvd-style td.
    let goals = [
        TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("C'", "z1"), ("C'", "z2"))),
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "y1", "z1"])),
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "x", "x"])),
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "y2", "z1"])),
    ];
    let client = ImplicationClient::new(ServiceConfig {
        group: true,
        ..ServiceConfig::default()
    });
    let cfg = DecideConfig::default();
    let jobs: Vec<_> = goals
        .iter()
        .map(|g| client.submit(QuerySpec::new(sigma.clone(), g.clone(), pool.clone())))
        .collect();
    client.run_to_completion();
    for (g, job) in goals.iter().zip(&jobs) {
        let expect = decide(&sigma, g, &mut pool.clone(), &cfg);
        let JobStatus::Done(out) = job.poll() else {
            panic!("grouped member left unsettled");
        };
        assert_eq!(out.implication, expect.implication, "member drifted");
        assert_eq!(out.finite_implication, expect.finite_implication);
        assert!(!out.cancelled);
        // A grouped No still carries a finite counterexample certificate.
        if out.implication == Answer::No && !out.from_cache {
            assert!(out.counterexample.is_some(), "grouped No lost its model");
        }
    }
    let s = client.stats();
    assert_eq!(s.check(), Ok(()), "ledger identities after the drain");
    assert!(s.grouped >= 3, "grouping never engaged: {}", s.grouped);
    assert_eq!(s.group_chases, 1, "one Σ-group must chase exactly once");
    assert_eq!(s.group_fallbacks, 0, "terminating group must not fall back");
}

/// Group-budget expiry: the shared chase dies (tiny budgets, divergent
/// Σ), members fall back to private chases, and every answer matches the
/// ungrouped run — `Unknown` stays `Unknown`, never a manufactured
/// definite answer.
#[test]
fn group_expiry_never_manufactures_definite_answers() {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    // Divergent Σ: the successor td mints fresh rows forever.
    let sigma = vec![TdOrEgd::Td(td_from_names(
        &u,
        &mut pool,
        &[&["x", "y", "z"]],
        &["y", "q1", "q2"],
    ))];
    let rows: &[&[&str]] = &[&["x", "y1", "z1"], &["x", "y2", "z2"]];
    // Two never-derivable egd goals (nothing in Σ merges) and one
    // immediately-derivable td goal over the same hypothesis.
    let goals = [
        TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("B'", "y1"), ("B'", "y2"))),
        TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("C'", "z1"), ("C'", "z2"))),
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["y1", "p", "q"])),
    ];
    let tiny = DecideConfig {
        chase: ChaseConfig {
            max_rounds: 8,
            max_rows: 128,
            max_steps: 512,
            ..ChaseConfig::default()
        },
        skip_search: true,
        ..DecideConfig::default()
    };
    let run = |group: bool| {
        let client = ImplicationClient::new(ServiceConfig {
            decide: tiny.clone(),
            classify: false,
            group,
            ..ServiceConfig::default()
        });
        let jobs: Vec<_> = goals
            .iter()
            .map(|g| client.submit(QuerySpec::new(sigma.clone(), g.clone(), pool.clone())))
            .collect();
        client.run_to_completion();
        let answers: Vec<(Answer, Answer)> = jobs
            .iter()
            .map(|j| match j.poll() {
                JobStatus::Done(o) => (o.implication, o.finite_implication),
                other => panic!("unsettled: {other:?}"),
            })
            .collect();
        let stats = client.stats();
        assert_eq!(stats.check(), Ok(()), "ledger identities after the drain");
        (answers, stats)
    };
    let (grouped, gs) = run(true);
    let (solo, _) = run(false);
    assert_eq!(grouped, solo, "group expiry changed an answer");
    // The never-derivable goals must be honest Unknowns under the tiny
    // budget; the derivable one answers Yes from the shared pool.
    assert_eq!(grouped[0].0, Answer::Unknown);
    assert_eq!(grouped[1].0, Answer::Unknown);
    assert_eq!(grouped[2].0, Answer::Yes);
    assert!(gs.grouped >= 2, "grouping never engaged");
    assert!(
        gs.group_fallbacks >= 1,
        "budget expiry must fall back, not answer"
    );
}
