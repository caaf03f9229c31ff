//! The implication service against the blocking decision path.
//!
//! Five properties anchor the client API:
//!
//! * **resumable-step parity** — driving a `DecideTask` one fuel unit at a
//!   time (or through the service scheduler) answers exactly what the
//!   blocking `decide` answers, on the same fd/mvd corpus
//!   `tests/oracle_agreement.rs` checks against the Armstrong oracles —
//!   including when several threads submit and step through clones of one
//!   [`ImplicationClient`] concurrently;
//! * **scheduler fairness** — a divergent query (the undecidable gap is
//!   real: some chases never terminate) cannot starve a terminating one;
//! * **cache canonicalization** — resubmitting a query under renamed
//!   variables, reordered hypothesis rows, or reordered Σ is answered from
//!   the cache without fresh fuel, and isomorphism verification accepts
//!   every such hit;
//! * **job lifecycle** — retiring a handle (explicitly or on drop) frees
//!   the job's storage for reuse, and polling a retired id is a defined
//!   `Retired` answer, never a panic or another job's result;
//! * **bounded cache** — the cache never exceeds its configured capacity,
//!   evicts cold entries first, never evicts in-flight coalesced
//!   entries, and a fresh insert is never its own eviction victim (even
//!   at `cache_capacity = 1`);
//! * **the preemptible execution core** — dovetail mode answers
//!   refutable-but-divergent queries within a fuel cap where sequential
//!   mode expires to `Unknown` (with full answer parity on decidable
//!   queries), `cancel()` stops an in-flight job without burning further
//!   fuel and leaves coalesced waiters a defined status (detached
//!   waiters keep the answer), parked `wait`ers wake on completions from
//!   another thread's sweep instead of busy-spinning, and cross-shard
//!   work stealing preserves answers under a deliberately skewed shard
//!   assignment.
//!
//! Tests that need every job to really run submit canonically distinct
//! queries, since every submission goes through the cache.

use proptest::prelude::*;
use typedtd::dependencies::{egd_from_names, td_from_names, Dependency, TdOrEgd};
use typedtd::prelude::*;
use typedtd::service::{
    query_parts, stats_line, ImplicationClient, JobStatus, QueryKey, QuerySpec, ServiceConfig,
    ShardStep,
};
use std::collections::HashSet;
use typedtd_chase::{DecideMode, DecideStatus, DecideTask};

fn universe4() -> std::sync::Arc<Universe> {
    Universe::typed(vec!["A", "B", "C", "D"])
}

fn mask_to_set(u: &Universe, mask: u32) -> AttrSet {
    u.attrs().filter(|a| mask & (1 << a.index()) != 0).collect()
}

/// Steps a fresh `DecideTask` with single-unit fuel slices to completion.
fn decide_stepped(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &ValuePool,
    cfg: &DecideConfig,
) -> (Answer, Answer) {
    let mut task = DecideTask::new(sigma.to_vec(), goal.clone(), pool.clone(), cfg.clone());
    let mut slices = 0u64;
    while let DecideStatus::Pending = task.step(1) {
        slices += 1;
        assert!(slices < 1_000_000, "stepped decide failed to terminate");
    }
    let (decision, _pool) = task.finish();
    (decision.implication, decision.finite_implication)
}

/// Whether a query would really run in the service: its canonical key is
/// new to `seen`, and its goal is not an element of Σ (the fast path).
fn runs_fresh(seen: &mut HashSet<QueryKey>, sigma: &[TdOrEgd], goal: &TdOrEgd) -> bool {
    let parts = query_parts(sigma, goal);
    !parts.sigma_keys.contains(&parts.goal_key) && seen.insert(parts.key)
}

/// Builds the fd/mvd corpus query for one mask tuple (shared between the
/// sequential proptest and the concurrent-clients test).
fn corpus_query(
    lhs_masks: &[u32],
    rhs_masks: &[u32],
    goal_lhs: u32,
    goal_rhs: u32,
    goal_is_fd: bool,
) -> (Vec<TdOrEgd>, Vec<TdOrEgd>, ValuePool) {
    let u = universe4();
    let mut pool = ValuePool::new(u.clone());
    let mut deps: Vec<Dependency> = Vec::new();
    for (&l, &r) in lhs_masks.iter().zip(rhs_masks) {
        if l.wrapping_mul(r) % 2 == 0 {
            deps.push(Dependency::from(Fd::new(mask_to_set(&u, l), mask_to_set(&u, r))));
        } else {
            deps.push(Dependency::from(Mvd::new(
                u.clone(),
                mask_to_set(&u, l),
                mask_to_set(&u, r),
            )));
        }
    }
    let goal: Dependency = if goal_is_fd {
        Dependency::from(Fd::new(mask_to_set(&u, goal_lhs), mask_to_set(&u, goal_rhs)))
    } else {
        Dependency::from(Mvd::new(
            u.clone(),
            mask_to_set(&u, goal_lhs),
            mask_to_set(&u, goal_rhs),
        ))
    };
    let sigma_normal: Vec<TdOrEgd> = deps
        .iter()
        .flat_map(|d| d.normalize(&u, &mut pool))
        .collect();
    let goal_parts = goal.normalize(&u, &mut pool);
    (sigma_normal, goal_parts, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuel-sliced `DecideTask`s and service jobs agree with the one-shot
    /// `decide` on the fd/mvd corpus of `tests/oracle_agreement.rs`.
    #[test]
    fn stepped_decide_matches_blocking_decide(
        lhs_masks in prop::collection::vec(1u32..15, 1..4),
        rhs_masks in prop::collection::vec(1u32..15, 1..4),
        goal_lhs in 1u32..15,
        goal_rhs in 1u32..15,
        goal_is_fd in 0u32..2,
    ) {
        let (sigma_normal, goal_parts, pool) =
            corpus_query(&lhs_masks, &rhs_masks, goal_lhs, goal_rhs, goal_is_fd == 0);
        let cfg = DecideConfig::default();
        let client = ImplicationClient::new(ServiceConfig {
            slice_fuel: 1,
            ..ServiceConfig::default()
        });
        for g in goal_parts {
            let blocking = decide(&sigma_normal, &g, &mut pool.clone(), &cfg);
            prop_assert_ne!(blocking.implication, Answer::Unknown);

            let (imp, fin) = decide_stepped(&sigma_normal, &g, &pool, &cfg);
            prop_assert_eq!(imp, blocking.implication, "stepped implication diverged");
            prop_assert_eq!(fin, blocking.finite_implication, "stepped finite diverged");

            let job = client.submit(QuerySpec::new(sigma_normal.clone(), g.clone(), pool.clone()));
            client.run_to_completion();
            let JobStatus::Done(outcome) = job.poll() else {
                panic!("service left a job pending after run_to_completion");
            };
            prop_assert_eq!(outcome.implication, blocking.implication, "service diverged");
            prop_assert_eq!(outcome.finite_implication, blocking.finite_implication);
        }
    }
}

/// The acceptance scenario for the shared-state redesign: several threads
/// submit and step through clones of one client *concurrently* (every
/// method is `&self`), each blocking on its own handles with `wait`, and
/// every answer matches sequential blocking `decide`.
#[test]
fn concurrent_clients_match_blocking_decide() {
    // A deterministic slice of the fd/mvd corpus, a few queries per thread.
    type Case = (Vec<u32>, Vec<u32>, u32, u32, bool);
    let cases: Vec<Case> = (0u32..12)
        .map(|i| {
            (
                vec![1 + i % 14, 1 + (i * 5) % 14],
                vec![1 + (i * 3) % 14, 1 + (i * 7) % 14],
                1 + (i * 11) % 14,
                1 + (i * 13) % 14,
                i % 2 == 0,
            )
        })
        .collect();
    let cfg = DecideConfig::default();
    let expected: Vec<Vec<(Answer, Answer)>> = cases
        .iter()
        .map(|(l, r, gl, gr, fd)| {
            let (sigma, goals, pool) = corpus_query(l, r, *gl, *gr, *fd);
            goals
                .iter()
                .map(|g| {
                    let d = decide(&sigma, g, &mut pool.clone(), &cfg);
                    (d.implication, d.finite_implication)
                })
                .collect()
        })
        .collect();

    let client = ImplicationClient::new(ServiceConfig {
        slice_fuel: 2,
        shards: 4,
        ..ServiceConfig::default()
    });
    let threads = 3;
    let got: Vec<Vec<Vec<(Answer, Answer)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = client.clone();
                let cases = &cases;
                scope.spawn(move || {
                    cases
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|(l, r, gl, gr, fd)| {
                            let (sigma, goals, pool) = corpus_query(l, r, *gl, *gr, *fd);
                            let jobs: Vec<_> = goals
                                .into_iter()
                                .map(|g| {
                                    client.submit(QuerySpec::new(
                                        sigma.clone(),
                                        g,
                                        pool.clone(),
                                    ))
                                })
                                .collect();
                            jobs.iter()
                                .map(|j| {
                                    let o = j.wait();
                                    (o.implication, o.finite_implication)
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, thread_answers) in got.iter().enumerate() {
        for (k, answers) in thread_answers.iter().enumerate() {
            let case_idx = t + k * threads;
            assert_eq!(
                answers, &expected[case_idx],
                "thread {t} case {case_idx} diverged from blocking decide"
            );
        }
    }
    assert_eq!(client.pending_jobs(), 0);
    assert!(
        stats_line(&client).contains(" inflight=0"),
        "the ledger must show the drained in-flight gauge: {}",
        stats_line(&client)
    );
    assert_eq!(client.stats().check(), Ok(()), "ledger identities after the drain");
    assert!(
        stats_line(&client).contains(" verify_rejects=0"),
        "the ledger must show the verification rejects: {}",
        stats_line(&client)
    );
    // Every handle dropped inside the threads: all storage reclaimed.
    assert_eq!(client.live_jobs(), 0, "retire-on-drop must free all slots");
}

/// The Exhausted → search phase transition steps identically too: a
/// divergent-chase query with a finite counterexample must hand over to
/// the search under fuel slicing exactly as the blocking driver does.
#[test]
fn stepped_decide_matches_blocking_through_the_search_phase() {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    // Successor td: every B'-value starts a row — the chase diverges.
    let successor = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    // Goal A' → B' as an egd: refuted by a small finite model.
    let fd_egd = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    let sigma = vec![TdOrEgd::Td(successor)];
    let goal = TdOrEgd::Egd(fd_egd);
    let cfg = DecideConfig {
        chase: ChaseConfig::quick(),
        ..DecideConfig::default()
    };
    let blocking = decide(&sigma, &goal, &mut pool.clone(), &cfg);
    let (imp, fin) = decide_stepped(&sigma, &goal, &pool, &cfg);
    assert_eq!(imp, blocking.implication);
    assert_eq!(fin, blocking.finite_implication);
    assert_eq!(
        blocking.implication,
        Answer::No,
        "the finite-model search must refute this goal"
    );
}

fn divergent_query(u: &std::sync::Arc<Universe>) -> (Vec<TdOrEgd>, TdOrEgd, ValuePool) {
    let mut pool = ValuePool::new(u.clone());
    let successor = td_from_names(u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    // Goal: an egd that never becomes derivable (no egd in Σ ever merges).
    let never = egd_from_names(
        u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    (vec![TdOrEgd::Td(successor)], TdOrEgd::Egd(never), pool)
}

fn big_chase_decide() -> DecideConfig {
    DecideConfig {
        chase: ChaseConfig {
            max_rounds: 100_000,
            max_rows: 1 << 20,
            max_steps: 1 << 24,
            ..ChaseConfig::default()
        },
        skip_search: true,
        ..DecideConfig::default()
    }
}

/// A divergent job cannot starve a terminating one: submitted first, given
/// astronomically larger budgets, it still cannot delay the terminating
/// job past a handful of fair sweeps.
#[test]
fn scheduler_fairness_divergent_cannot_starve() {
    let u = Universe::untyped_abc();
    let (divergent_sigma, divergent_goal, div_pool) = divergent_query(&u);

    let ut = Universe::typed(vec!["A", "B", "C"]);
    let mut term_pool = ValuePool::new(ut.clone());
    let fds = [Fd::parse(&ut, "A -> B").unwrap(), Fd::parse(&ut, "B -> C").unwrap()];
    let term_sigma: Vec<TdOrEgd> = fds
        .iter()
        .flat_map(|f| Dependency::from(f.clone()).normalize(&ut, &mut term_pool))
        .collect();
    let term_goal = Dependency::from(Fd::parse(&ut, "A -> C").unwrap())
        .normalize(&ut, &mut term_pool)
        .pop()
        .expect("fd goal normalizes to one egd");

    let client = ImplicationClient::new(ServiceConfig {
        // The divergent chase may burn 100k rounds before its budget
        // expires; fairness must not make the terminating job wait for
        // any of that.
        decide: big_chase_decide(),
        slice_fuel: 1,
        ..ServiceConfig::default()
    });
    let divergent = client.submit(QuerySpec::new(divergent_sigma, divergent_goal, div_pool));
    let terminating = client.submit(QuerySpec::new(term_sigma, term_goal, term_pool));

    let mut sweeps = 0;
    loop {
        assert!(client.tick(), "queue drained before the terminating job?");
        sweeps += 1;
        if let JobStatus::Done(outcome) = terminating.poll() {
            assert_eq!(outcome.implication, Answer::Yes, "fd transitivity");
            break;
        }
        assert!(
            sweeps <= 16,
            "terminating job starved: {sweeps} sweeps and still pending"
        );
    }
    assert!(
        matches!(divergent.poll(), JobStatus::Pending),
        "the divergent job must still be chasing"
    );

    // A global fuel budget converts the divergent leftovers into honest
    // Unknowns instead of hanging the batch.
    let capped = ImplicationClient::new(ServiceConfig {
        decide: big_chase_decide(),
        slice_fuel: 4,
        global_fuel: Some(64),
        ..ServiceConfig::default()
    });
    let (s2, g2, p2) = divergent_query(&u);
    let job = capped.submit(QuerySpec::new(s2, g2, p2));
    capped.run_to_completion();
    let JobStatus::Done(outcome) = job.poll() else {
        panic!("run_to_completion must resolve every job");
    };
    assert_eq!(outcome.implication, Answer::Unknown);
    assert_eq!(capped.stats().expired, 1);
    assert!(capped.stats().fuel_spent <= 64, "metered budget respected");
}

/// A per-job fuel cap expires exactly the capped job — its divergent chase
/// is answered `Unknown` while an uncapped neighbour still terminates.
#[test]
fn per_job_fuel_cap_expires_only_the_capped_job() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        decide: big_chase_decide(),
        slice_fuel: 4,
        ..ServiceConfig::default()
    });
    let (ds, dg, dp) = divergent_query(&u);
    let capped = client.submit(QuerySpec::new(ds, dg, dp).fuel_cap(12).priority(5));

    let mut pool = ValuePool::new(u.clone());
    let triv = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["x", "y", "z"]);
    // Nonempty Σ (structurally different) so the goal-in-Σ fast path
    // stays out of the way and the job really runs.
    let other = td_from_names(&u, &mut pool, &[&["a", "b", "b"]], &["a", "b", "b"]);
    let quick = client.submit(QuerySpec::new(
        vec![TdOrEgd::Td(other)],
        TdOrEgd::Td(triv),
        pool,
    ));

    let capped_out = capped.wait();
    assert_eq!(capped_out.implication, Answer::Unknown);
    assert!(
        capped_out.fuel_spent <= 12,
        "cap bounds the job's spend (spent {})",
        capped_out.fuel_spent
    );
    let quick_out = quick.wait();
    assert_eq!(quick_out.implication, Answer::Yes, "trivial td is implied");
    assert_eq!(client.stats().expired, 1, "only the capped job expired");
}

/// Renamed variables, reordered hypothesis rows, and reordered Σ all hit
/// the cache; coalescing catches identical in-flight queries; isomorphism
/// verification accepts every hit.
#[test]
fn cache_canonicalization_hits_on_renamings() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        verify_cache_hits: true,
        ..ServiceConfig::default()
    });

    let build = |names: [&str; 7], swap_rows: bool, swap_sigma: bool| {
        let mut pool = ValuePool::new(u.clone());
        let [x, y1, z1, y2, z2, q, r] = names;
        let rows: Vec<Vec<&str>> = if swap_rows {
            vec![vec![x, y2, z2], vec![x, y1, z1]]
        } else {
            vec![vec![x, y1, z1], vec![x, y2, z2]]
        };
        let row_slices: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        let mvd_td = td_from_names(&u, &mut pool, &row_slices, &[x, y1, z2]);
        let extra = td_from_names(&u, &mut pool, &[&[q, r, r]], &[q, r, r]);
        let mut sigma = vec![TdOrEgd::Td(mvd_td.clone()), TdOrEgd::Td(extra)];
        if swap_sigma {
            sigma.reverse();
        }
        // Goal: the *trivial* td over the mvd's hypothesis (conclusion =
        // first row) — implied instantly, but canonically distinct from
        // every element of Σ (the complement td would canonically EQUAL
        // the mvd: swapping rows renames it back), so the goal-in-Σ fast
        // path stays out of the way and the cache is what answers the
        // resubmissions.
        let goal = td_from_names(&u, &mut pool, &row_slices, &[x, y1, z1]);
        (sigma, TdOrEgd::Td(goal), pool)
    };

    let (s1, g1, p1) = build(["x", "y1", "z1", "y2", "z2", "q", "r"], false, false);
    let first = client.submit(QuerySpec::new(s1, g1, p1));
    client.run_to_completion();
    let JobStatus::Done(first_out) = first.poll() else {
        panic!("first job must resolve")
    };
    assert_eq!(first_out.implication, Answer::Yes);
    assert!(!first_out.from_cache);
    assert_eq!(client.stats().goal_in_sigma, 0, "fast path must not fire");

    // Renamed + row-swapped + Σ-reordered: must be a pure cache hit.
    let (s2, g2, p2) = build(["a", "b9", "c9", "b8", "c8", "k", "m"], true, true);
    let second = client.submit(QuerySpec::new(s2, g2, p2));
    let JobStatus::Done(second_out) = second.poll() else {
        panic!("cache hit must resolve at submit time")
    };
    assert_eq!(second_out.implication, Answer::Yes);
    assert!(second_out.from_cache);
    assert_eq!(second_out.fuel_spent, 0);
    assert_eq!(client.stats().cache_hits, 1);
    assert_eq!(client.stats().verify_rejects, 0, "verified hit must pass");

    // Identical queries submitted before any tick coalesce onto one job.
    let fresh_structure = {
        // A structurally new goal (three hypothesis rows) to avoid the
        // cache and the fast path.
        let mut pool = ValuePool::new(u.clone());
        let sig = td_from_names(
            &u,
            &mut pool,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        let goal = td_from_names(
            &u,
            &mut pool,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"], &["x", "y3", "z3"]],
            &["x", "y1", "z3"],
        );
        (vec![TdOrEgd::Td(sig)], TdOrEgd::Td(goal), pool)
    };
    let leader = client.submit(QuerySpec::new(
        fresh_structure.0.clone(),
        fresh_structure.1.clone(),
        fresh_structure.2.clone(),
    ));
    let follower = client.submit(QuerySpec::new(
        fresh_structure.0,
        fresh_structure.1,
        fresh_structure.2,
    ));
    assert_eq!(client.stats().coalesced, 1);
    client.run_to_completion();
    let (JobStatus::Done(lead_out), JobStatus::Done(follow_out)) =
        (leader.poll(), follower.poll())
    else {
        panic!("both coalesced jobs must resolve")
    };
    assert_eq!(lead_out.implication, follow_out.implication);
    assert!(!lead_out.from_cache);
    assert!(follow_out.from_cache);
}

/// Column-permutation normalization: resubmitting a query with one column
/// permutation applied uniformly to every dependency (a relabeling of the
/// universe's attributes) is a pure cache hit — verified through the
/// isomorphism machinery — and a heterogeneous corpus of permuted
/// resubmissions sustains a high hit rate.
#[test]
fn permuted_column_resubmissions_hit_the_cache() {
    use typedtd::relational::Tuple;
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        verify_cache_hits: true,
        ..ServiceConfig::default()
    });

    // One structure: Σ = {fd-as-egd over col B, marker td}, goal = the
    // trivial td over a 2-row hypothesis (implied, runs once).
    let build = |perm: [usize; 3]| {
        let mut pool = ValuePool::new(u.clone());
        let pt = |names: [&str; 3], pool: &mut ValuePool| {
            let vals: Vec<_> = perm
                .iter()
                .map(|&c| pool.untyped(names[c]))
                .collect();
            Tuple::new(vals)
        };
        let fd = typedtd::dependencies::Egd::new(
            u.clone(),
            pool.untyped("y1"),
            pool.untyped("y2"),
            vec![
                pt(["x", "y1", "z1"], &mut pool),
                pt(["x", "y2", "z2"], &mut pool),
            ],
        );
        let marker = typedtd::dependencies::Td::new(
            u.clone(),
            pt(["q", "r", "r"], &mut pool),
            vec![pt(["q", "r", "r"], &mut pool)],
        );
        let goal = typedtd::dependencies::Td::new(
            u.clone(),
            pt(["x", "y1", "z1"], &mut pool),
            vec![
                pt(["x", "y1", "z1"], &mut pool),
                pt(["x", "y2", "z2"], &mut pool),
            ],
        );
        (
            vec![TdOrEgd::Egd(fd), TdOrEgd::Td(marker)],
            TdOrEgd::Td(goal),
            pool,
        )
    };

    let (s0, g0, p0) = build([0, 1, 2]);
    let first = client.submit(QuerySpec::new(s0, g0, p0));
    let first_out = first.wait();
    assert_eq!(first_out.implication, Answer::Yes);
    assert!(!first_out.from_cache, "first submission must run");

    // Every other permutation of the three columns, applied uniformly to
    // Σ and the goal, must be answered from the cache without fuel — and
    // pass isomorphism verification.
    for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let (s, g, p) = build(perm);
        let job = client.submit(QuerySpec::new(s, g, p));
        let JobStatus::Done(outcome) = job.poll() else {
            panic!("permuted resubmission {perm:?} must hit the cache at submit");
        };
        assert!(outcome.from_cache, "permutation {perm:?} missed the cache");
        assert_eq!(outcome.fuel_spent, 0);
        assert_eq!(outcome.implication, Answer::Yes);
    }
    let s = client.stats();
    assert_eq!(s.cache_hits, 5, "all five permutations hit");
    assert_eq!(s.verify_rejects, 0, "verified hits must pass the witness check");

    // Heterogeneous corpus: distinct structures, each resubmitted under
    // renamed values AND a column permutation. Hit rate must reflect one
    // miss per structure, hits for every permuted resubmission.
    let hetero = ImplicationClient::new(ServiceConfig {
        verify_cache_hits: true,
        ..ServiceConfig::default()
    });
    let perms4: [[usize; 4]; 3] = [[1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]];
    let structures: Vec<(u32, u32, bool)> =
        vec![(1, 2, true), (3, 4, false), (5, 9, true), (6, 8, false), (2, 12, true)];
    let mut submissions = 0u64;
    for (i, &(l, r, fd)) in structures.iter().enumerate() {
        // The reference submission (identity columns).
        let (sigma, goals, pool) = corpus_query(&[l], &[r], 1 + (i as u32 * 3) % 14, r, fd);
        for g in &goals {
            hetero
                .submit(QuerySpec::new(sigma.clone(), g.clone(), pool.clone()))
                .wait();
            submissions += 1;
        }
        // Permuted resubmissions: rebuild the same masks with columns
        // relabeled by permuting each mask's bits.
        for perm in &perms4 {
            let pmask = |m: u32| -> u32 {
                (0..4).filter(|&b| m & (1 << perm[b]) != 0).map(|b| 1 << b).sum()
            };
            let (psigma, pgoals, ppool) =
                corpus_query(&[pmask(l)], &[pmask(r)], pmask(1 + (i as u32 * 3) % 14), pmask(r), fd);
            for g in &pgoals {
                hetero
                    .submit(QuerySpec::new(psigma.clone(), g.clone(), ppool.clone()))
                    .wait();
                submissions += 1;
            }
        }
    }
    let hs = hetero.stats();
    assert_eq!(hs.verify_rejects, 0, "no permuted hit may fail verification");
    assert!(
        hs.cache_hit_rate() >= 0.5,
        "permuted resubmissions must sustain the hit rate: {:.2} over {} submissions \
         (hits={} misses={} coalesced={} fast={})",
        hs.cache_hit_rate(),
        submissions,
        hs.cache_hits,
        hs.cache_misses,
        hs.coalesced,
        hs.goal_in_sigma,
    );
}

/// A goal that is canonically an element of Σ is answered `Yes` at submit
/// time — no scheduling, no fuel — and counted in the stats.
#[test]
fn goal_in_sigma_is_answered_at_submit() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig::default());
    let mut pool = ValuePool::new(u.clone());
    let mvd = td_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        &["x", "y1", "z2"],
    );
    let extra = td_from_names(&u, &mut pool, &[&["q", "r", "r"]], &["q", "r", "r"]);
    let sigma = vec![TdOrEgd::Td(mvd), TdOrEgd::Td(extra)];
    // The goal is a *renamed* presentation of Σ's mvd td: still an element
    // post-canonicalization.
    let goal = td_from_names(
        &u,
        &mut pool,
        &[&["a", "b2", "c2"], &["a", "b1", "c1"]],
        &["a", "b2", "c1"],
    );
    let job = client.submit(QuerySpec::new(sigma, TdOrEgd::Td(goal), pool));
    let JobStatus::Done(outcome) = job.poll() else {
        panic!("fast path must resolve at submit time")
    };
    assert_eq!(outcome.implication, Answer::Yes);
    assert_eq!(outcome.finite_implication, Answer::Yes);
    assert!(outcome.from_cache);
    assert_eq!(outcome.fuel_spent, 0);
    let s = client.stats();
    assert_eq!(s.goal_in_sigma, 1);
    assert_eq!(s.fuel_spent, 0, "no chase ran");
    assert_eq!(s.cache_misses, 0, "nothing was scheduled");
}

/// Retiring a handle (drop or explicit) frees the job's slot for reuse,
/// and polling a retired id is the defined `Retired` answer — on every
/// subsequent poll, not just the first.
#[test]
fn retire_frees_storage_and_double_poll_is_defined() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig::default());
    let submit_trivial = |tag: &str| {
        let mut pool = ValuePool::new(u.clone());
        let triv = td_from_names(&u, &mut pool, &[&[tag, "y", "z"]], &[tag, "y", "z"]);
        let other = td_from_names(&u, &mut pool, &[&["a", "b", "b"]], &[tag, "b", "b"]);
        client.submit(QuerySpec::new(
            vec![TdOrEgd::Td(other)],
            TdOrEgd::Td(triv),
            pool,
        ))
    };
    let job = submit_trivial("x");
    client.run_to_completion();
    assert!(matches!(job.poll(), JobStatus::Done(_)));
    assert_eq!(client.live_jobs(), 1);
    let id = job.id();
    job.retire();
    assert_eq!(client.live_jobs(), 0, "retire must free the slot");
    // Double-poll after retire: defined, stable, repeatable.
    assert!(matches!(client.status(id), JobStatus::Retired));
    assert!(matches!(client.status(id), JobStatus::Retired));

    // The freed slot is *reused*, and the stale id still answers Retired
    // (generation guard), not the new job's outcome.
    let job2 = submit_trivial("x");
    client.run_to_completion();
    assert_eq!(client.live_jobs(), 1, "slot storage is reused, not grown");
    assert!(matches!(client.status(id), JobStatus::Retired));
    assert!(matches!(job2.poll(), JobStatus::Done(_)));
    drop(job2);
    assert_eq!(client.live_jobs(), 0, "drop retires too");
    assert_eq!(client.stats().retired, 2);

    // An id whose shard or slot doesn't exist in the queried service is
    // also just Retired — never a panic. (A foreign id that happens to
    // be in range is out of contract; see the JobId docs.)
    let tiny = ImplicationClient::new(ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    });
    assert!(matches!(tiny.status(id), JobStatus::Retired));
}

/// Distinct single-row tds (varied by repeated-value pattern and width of
/// the repeated block) — cheap, terminating, canonically distinct queries
/// for cache-bound tests.
fn distinct_cheap_queries(u: &std::sync::Arc<Universe>, n: usize) -> Vec<(Vec<TdOrEgd>, TdOrEgd, ValuePool)> {
    (0..n)
        .map(|i| {
            let mut pool = ValuePool::new(u.clone());
            let rows: Vec<Vec<String>> = (0..=i)
                .map(|r| vec!["x".to_string(), format!("y{r}"), format!("z{r}")])
                .collect();
            let row_refs: Vec<Vec<&str>> = rows
                .iter()
                .map(|r| r.iter().map(String::as_str).collect())
                .collect();
            let slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
            let goal = td_from_names(u, &mut pool, &slices, &["x", "y0", "z0"]);
            let sig = td_from_names(u, &mut pool, &[&["a", "a", "b"]], &["a", "a", "b"]);
            (vec![TdOrEgd::Td(sig)], TdOrEgd::Td(goal), pool)
        })
        .collect()
}

/// The cache stays within its configured bound under a workload exceeding
/// it, evicts cold entries first, and surfaces the evictions in stats.
#[test]
fn cache_bound_holds_and_cold_entries_go_first() {
    let u = Universe::untyped_abc();
    // One shard so LRU order across the whole workload is deterministic.
    let client = ImplicationClient::new(ServiceConfig {
        shards: 1,
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let queries = distinct_cheap_queries(&u, 3);
    let mut handles = Vec::new();
    for (s, g, p) in &queries[..2] {
        let job = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
        job.wait();
        handles.push(job);
    }
    assert_eq!(client.cache_len(), 2);
    // Touch query 0: query 1 becomes the cold one.
    let touch = client.submit(QuerySpec::new(
        queries[0].0.clone(),
        queries[0].1.clone(),
        queries[0].2.clone(),
    ));
    assert!(matches!(touch.poll(), JobStatus::Done(_)), "cache hit");
    assert_eq!(client.stats().cache_hits, 1);
    // Insert query 2: capacity exceeded, the cold query 1 must go.
    let third = client.submit(QuerySpec::new(
        queries[2].0.clone(),
        queries[2].1.clone(),
        queries[2].2.clone(),
    ));
    third.wait();
    assert_eq!(client.cache_len(), 2, "bound holds under excess workload");
    assert_eq!(client.stats().evictions, 1, "eviction surfaced in stats");
    // Query 0 (hot) still hits; query 1 (cold) was evicted and must run.
    let hot = client.submit(QuerySpec::new(
        queries[0].0.clone(),
        queries[0].1.clone(),
        queries[0].2.clone(),
    ));
    assert!(matches!(hot.poll(), JobStatus::Done(_)), "hot entry kept");
    let misses_before = client.stats().cache_misses;
    let cold = client.submit(QuerySpec::new(
        queries[1].0.clone(),
        queries[1].1.clone(),
        queries[1].2.clone(),
    ));
    assert!(
        matches!(cold.poll(), JobStatus::Pending),
        "cold entry was evicted, so the query must run again"
    );
    assert_eq!(client.stats().cache_misses, misses_before + 1);
    cold.wait();
    assert!(client.cache_len() <= 2);
    assert!(client.stats().cache_hit_rate() > 0.0);
}

/// In-flight coalesced entries are pinned: flooding the cache past its
/// bound while a divergent leader runs must not break coalescing onto it.
#[test]
fn inflight_entries_survive_cache_pressure() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        shards: 1,
        cache_capacity: 2,
        decide: big_chase_decide(),
        slice_fuel: 1,
        ..ServiceConfig::default()
    });
    // A divergent leader: stays in flight for as long as we let it.
    let (ds, dg, dp) = divergent_query(&u);
    let leader = client.submit(QuerySpec::new(ds.clone(), dg.clone(), dp.clone()));
    for _ in 0..4 {
        client.tick(); // let it chase a little: genuinely in flight
    }
    assert!(matches!(leader.poll(), JobStatus::Pending));
    // Flood the cache well past its bound with cheap distinct queries.
    for (s, g, p) in distinct_cheap_queries(&u, 5) {
        client.submit(QuerySpec::new(s, g, p)).wait();
    }
    assert!(client.cache_len() <= 2, "bound holds during the flood");
    assert!(client.stats().evictions >= 3, "the flood evicted");
    // The in-flight entry survived: an identical submission coalesces
    // instead of starting a second chase.
    let twin = client.submit(QuerySpec::new(ds, dg, dp));
    assert_eq!(
        client.stats().coalesced,
        1,
        "identical in-flight query must coalesce — the entry was pinned"
    );
    assert!(matches!(twin.poll(), JobStatus::Pending));
    // Handles drop here: pending jobs are retired (storage freed on
    // completion) — nothing hangs the test.
}

/// Shard stepping is safe and productive from multiple threads: two
/// threads drive the same client's shards to completion concurrently.
#[test]
fn step_shard_from_two_threads() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        shards: 4,
        slice_fuel: 1,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = distinct_cheap_queries(&u, 8)
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p)))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let client = client.clone();
            scope.spawn(move || loop {
                let mut all_empty = true;
                for idx in 0..client.num_shards() {
                    match client.step_shard(idx) {
                        ShardStep::Progressed => all_empty = false,
                        ShardStep::Idle => {
                            all_empty = false;
                            std::thread::yield_now();
                        }
                        ShardStep::Empty => {}
                        ShardStep::FuelExhausted => unreachable!("unmetered"),
                    }
                }
                if all_empty {
                    break;
                }
            });
        }
    });
    for h in &handles {
        let JobStatus::Done(outcome) = h.poll() else {
            panic!("concurrent stepping left a job pending");
        };
        assert_eq!(outcome.implication, Answer::Yes, "trivial tds are implied");
    }
    let s = client.stats();
    assert_eq!(s.completed, 8);
    assert_eq!(s.cache_misses, 8, "distinct queries: every job ran");
}

/// The batch front end parses, submits, and conjoins multi-part goals —
/// and malformed lines degrade to per-line errors instead of aborting.
#[test]
fn batch_front_end_round_trip() {
    use typedtd::service::submit_batch;
    let text = "\
# comment
@universe A B C
A -> B & B -> C |= A -> C
A -> B |= B -> A
B -> C & A -> B |= A -> C
@universe untyped A' B' C'
|= td [x y z] => x y z
";
    let client = ImplicationClient::new(ServiceConfig::default());
    let batch = submit_batch(&client, text);
    assert!(batch.errors.is_empty());
    client.run_to_completion();
    assert_eq!(batch.queries.len(), 4);
    let verdicts: Vec<_> = batch
        .queries
        .iter()
        .map(|q| q.conjoined().expect("resolved"))
        .collect();
    assert_eq!(verdicts[0].implication, Answer::Yes);
    assert_eq!(verdicts[1].implication, Answer::No);
    assert_eq!(verdicts[2].implication, Answer::Yes);
    assert!(
        verdicts[2].from_cache,
        "Σ-reordered resubmission must be served from cache"
    );
    assert_eq!(verdicts[3].implication, Answer::Yes, "trivial td");

    // Malformed lines are reported per line; the good lines still answer.
    let mixed = "\
A -> B |= B -> A
@universe A B
A -> B |= |= B -> A
A -> B & B -> A |= A -> B
@universes A B C
";
    let client2 = ImplicationClient::new(ServiceConfig::default());
    let batch2 = submit_batch(&client2, mixed);
    client2.run_to_completion();
    let error_lines: Vec<usize> = batch2.errors.iter().map(|e| e.line).collect();
    assert_eq!(
        error_lines,
        vec![1, 3, 5],
        "no-universe, double |=, and misspelled directive each report their line"
    );
    assert_eq!(batch2.queries.len(), 1, "the good line was still submitted");
    assert_eq!(
        batch2.queries[0].conjoined().expect("resolved").implication,
        Answer::Yes
    );
}

/// Dovetail mode agrees with sequential blocking `decide` on the fd/mvd
/// oracle corpus — both through the direct task API and the service. Only
/// queries the service would really run are submitted, so no answer comes
/// from the cache or the goal-in-Σ fast path.
#[test]
fn dovetail_matches_sequential_on_oracle_corpus() {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c0c);
    let mut mask = || rng.random_range(1..15u32);
    type Case = (Vec<u32>, Vec<u32>, u32, u32, bool);
    let cases: Vec<Case> = (0u32..24)
        .map(|i| (vec![mask(), mask()], vec![mask(), mask()], mask(), mask(), i % 2 == 1))
        .collect();
    let seq_cfg = DecideConfig::default();
    let client = ImplicationClient::new(ServiceConfig {
        decide: DecideConfig {
            mode: DecideMode::adaptive_dovetail(2),
            ..DecideConfig::default()
        },
        ..ServiceConfig::default()
    });
    let mut seen = HashSet::new();
    let mut submitted = 0;
    for (l, r, gl, gr, fd) in &cases {
        let (sigma, goals, pool) = corpus_query(l, r, *gl, *gr, *fd);
        for g in goals {
            if !runs_fresh(&mut seen, &sigma, &g) {
                continue;
            }
            submitted += 1;
            let blocking = decide(&sigma, &g, &mut pool.clone(), &seq_cfg);
            assert_ne!(blocking.implication, Answer::Unknown, "corpus is decidable");
            let job = client.submit(QuerySpec::new(sigma.clone(), g, pool.clone()));
            let outcome = job.wait();
            assert_eq!(outcome.implication, blocking.implication, "dovetail diverged");
            assert_eq!(outcome.finite_implication, blocking.finite_implication);
        }
    }
    assert!(submitted >= 16, "the corpus keeps enough distinct queries ({submitted})");
    assert_eq!(client.stats().cache_misses, submitted, "every job really ran");
}

/// The per-job dovetail acceptance bar: under the same fuel cap, a
/// refutable-but-divergent query expires to `Unknown` in sequential mode
/// but is refuted definitively (from the search phase) in dovetail mode.
#[test]
fn dovetail_refutes_divergent_query_where_sequential_expires() {
    let u = Universe::untyped_abc();
    let cap = 512u64;
    let run_mode = |mode: DecideMode| {
        let client = ImplicationClient::new(ServiceConfig {
            decide: DecideConfig {
                chase: ChaseConfig {
                    max_rounds: 100_000,
                    max_rows: 1 << 20,
                    max_steps: 1 << 24,
                    ..ChaseConfig::default()
                },
                mode,
                ..DecideConfig::default()
            },
            ..ServiceConfig::default()
        });
        let (s, g, p) = divergent_query(&u);
        let job = client.submit(QuerySpec::new(s, g, p).fuel_cap(cap));
        let outcome = job.wait();
        (outcome, client.stats())
    };
    let (seq_out, seq_stats) = run_mode(DecideMode::Sequential);
    assert_eq!(
        seq_out.implication,
        Answer::Unknown,
        "sequential burns the whole cap on the divergent chase"
    );
    assert_eq!(seq_stats.expired, 1);
    let (dov_out, dov_stats) = run_mode(DecideMode::adaptive_dovetail(1));
    assert_eq!(
        dov_out.implication,
        Answer::No,
        "dovetail must answer from the search phase within the cap"
    );
    assert_eq!(dov_out.finite_implication, Answer::No);
    assert!(
        dov_out.fuel_spent <= cap,
        "refutation stayed within the cap (spent {})",
        dov_out.fuel_spent
    );
    assert_eq!(dov_stats.expired, 0);
}

/// `cancel()` on an in-flight divergent job stops it without burning
/// further fuel, frees its run-queue slot, and leaves its coalesced
/// waiter with the defined `Cancelled` status.
#[test]
fn cancel_mid_flight_bounds_fuel_and_resolves_waiters() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        decide: big_chase_decide(),
        slice_fuel: 8,
        ..ServiceConfig::default()
    });
    let (ds, dg, dp) = divergent_query(&u);
    let leader = client.submit(QuerySpec::new(ds.clone(), dg.clone(), dp.clone()));
    for _ in 0..3 {
        client.tick(); // let the chase make real progress
    }
    assert!(matches!(leader.poll(), JobStatus::Pending));
    let waiter = client.submit(QuerySpec::new(ds, dg, dp));
    assert_eq!(client.stats().coalesced, 1, "twin must coalesce");

    let fuel_before = client.stats().fuel_spent;
    leader.cancel();
    // The job was unclaimed, so cancellation is immediate: zero extra
    // fuel (well within the one-slice acceptance bound).
    assert!(matches!(leader.poll(), JobStatus::Cancelled));
    assert!(matches!(waiter.poll(), JobStatus::Cancelled));
    client.run_to_completion(); // nothing left to drive
    let stats = client.stats();
    assert_eq!(
        stats.fuel_spent, fuel_before,
        "fuel spent after cancel must be within one slice (here: zero)"
    );
    assert_eq!(stats.cancelled, 2, "leader and waiter both cancelled");
    assert_eq!(client.pending_jobs(), 0, "cancel frees the in-flight slots");
    assert!(
        stats_line(&client).contains(" inflight=0"),
        "the ledger must show the drained in-flight gauge: {}",
        stats_line(&client)
    );
    assert_eq!(client.stats().check(), Ok(()), "ledger identities after the drain");
    let outcome = leader.wait();
    assert!(outcome.cancelled);
    assert_eq!(outcome.implication, Answer::Unknown);
    // Cancel is idempotent and a cancelled job stays Cancelled.
    leader.cancel();
    assert!(matches!(leader.poll(), JobStatus::Cancelled));
}

/// A waiter that `detach()`ed before its leader's cancel keeps the
/// computation alive and still receives the real answer (which also
/// feeds the cache); only the canceller's view resolves `Cancelled`.
#[test]
fn detached_waiter_survives_leader_cancel_with_the_answer() {
    let ut = Universe::typed(vec!["A", "B", "C", "D"]);
    let build = || {
        // An mvd chain: the td chase needs several breadth-first rounds,
        // so at slice_fuel = 1 the job is reliably still in flight after
        // one tick (an fd chain would finish inside round 0's egd
        // saturation, which is not fuel-bounded per merge).
        let mut pool = ValuePool::new(ut.clone());
        let mvds = [
            Mvd::parse(&ut, "A ->> B").unwrap(),
            Mvd::parse(&ut, "B ->> C").unwrap(),
            Mvd::parse(&ut, "C ->> D").unwrap(),
        ];
        let sigma: Vec<TdOrEgd> = mvds
            .iter()
            .flat_map(|m| Dependency::from(m.clone()).normalize(&ut, &mut pool))
            .collect();
        let goal = Dependency::from(Mvd::parse(&ut, "A ->> D").unwrap())
            .normalize(&ut, &mut pool)
            .pop()
            .expect("mvd goal normalizes to one td");
        (sigma, goal, pool)
    };
    let client = ImplicationClient::new(ServiceConfig {
        slice_fuel: 1,
        ..ServiceConfig::default()
    });
    let (s, g, p) = build();
    let leader = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
    client.tick(); // arm the task; the chain needs several single-round slices
    assert!(matches!(leader.poll(), JobStatus::Pending), "still chasing");
    let twin = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
    assert_eq!(client.stats().coalesced, 1, "twin must coalesce");
    twin.detach();
    leader.cancel();
    client.run_to_completion();
    assert!(
        matches!(leader.poll(), JobStatus::Cancelled),
        "the canceller's view resolves Cancelled once the job lands"
    );
    let JobStatus::Done(twin_out) = twin.poll() else {
        panic!("detached waiter must receive the real answer");
    };
    assert_eq!(twin_out.implication, Answer::Yes, "mvd chain transitivity");
    assert!(twin_out.from_cache, "waiters are served the leader's answer");
    assert_eq!(client.stats().cancelled, 1, "only the canceller's view");
    // The kept-alive answer reached the cache too.
    let third = client.submit(QuerySpec::new(s, g, p));
    let JobStatus::Done(cached) = third.poll() else {
        panic!("resubmission must hit the cache");
    };
    assert!(cached.from_cache);
    assert_eq!(client.stats().cache_hits, 1);
    // The owner's cancel counted `cancelled` but not `completed`: the
    // case that keeps `completed` a bound, not an identity.
    assert_eq!(client.stats().check(), Ok(()), "ledger identities after the drain");
}

/// A parked `wait` wakes on a completion landed by another thread's
/// sweep: the waiter contributes no sweeps of its own (no busy-spin —
/// the claim is observed, parked on, and the condvar wakes it).
#[test]
fn parked_wait_wakes_on_foreign_sweep_without_spinning() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        // One huge slice: the foreign sweep holds the claim for the whole
        // (budget-bounded) chase, guaranteeing the waiter finds the job
        // claimed and parks.
        slice_fuel: 1 << 20,
        decide: DecideConfig {
            chase: ChaseConfig {
                max_rounds: 30_000,
                max_rows: 1 << 20,
                max_steps: 1 << 24,
                ..ChaseConfig::default()
            },
            skip_search: true,
            ..DecideConfig::default()
        },
        ..ServiceConfig::default()
    });
    let (s, g, p) = divergent_query(&u);
    let job = client.submit(QuerySpec::new(s, g, p).pin_shard(0));
    let outcome = std::thread::scope(|scope| {
        let sweeper = client.clone();
        scope.spawn(move || {
            assert_eq!(sweeper.step_shard(0), ShardStep::Progressed);
        });
        // Deterministic hand-off: the sweep counter bumps at claim time
        // (before the long slice executes), so once it reads 1 the
        // foreign thread owns the job and wait() below must find the
        // shard claimed and park — no sleep-and-hope timing.
        while client.stats().sweeps == 0 {
            std::thread::yield_now();
        }
        job.wait()
    });
    assert_eq!(outcome.implication, Answer::Unknown, "budget-bounded chase");
    let stats = client.stats();
    assert_eq!(
        stats.sweeps, 1,
        "only the foreign thread swept; the waiter never claimed (no busy-spin)"
    );
    assert!(
        stats.parked >= 1,
        "the waiter must have parked on the shard condvar at least once"
    );
}

/// Steal-path parity: every job pinned onto one shard (a deliberately
/// skewed assignment), multiple pinned workers — idle workers steal from
/// the deep queue, and every answer still matches blocking `decide`.
#[test]
fn stealing_preserves_answers_under_skewed_shard_assignment() {
    let u = Universe::untyped_abc();
    type Case = (Vec<u32>, Vec<u32>, u32, u32, bool);
    let cases: Vec<Case> = (0u32..8)
        .map(|i| {
            (
                vec![1 + (i * 5) % 14],
                vec![1 + (i * 3) % 14, 1 + (i * 11) % 14],
                1 + (i * 9) % 14,
                1 + (i * 13) % 14,
                i % 2 == 0,
            )
        })
        .collect();
    let cfg = DecideConfig::default();
    let client = ImplicationClient::new(ServiceConfig {
        shards: 4,
        workers: 3,
        slice_fuel: 4,
        ..ServiceConfig::default()
    });
    // Divergent ballast (fuel-capped) keeps the hot queue deep long
    // enough that the idle workers reliably wake and steal. The two goals
    // differ (equal B' vs equal C'), so neither coalesces onto the other.
    let ballast: Vec<_> = [("B'", "y1", "y2"), ("C'", "z1", "z2")]
        .into_iter()
        .map(|(col, l, r)| {
            let (s, _, mut p) = divergent_query(&u);
            let rows: &[&[&str]] = &[&["x", "y1", "z1"], &["x", "y2", "z2"]];
            let g = TdOrEgd::Egd(egd_from_names(&u, &mut p, rows, (col, l), (col, r)));
            client.submit(
                QuerySpec::new(s, g, p)
                    .decide_config(big_chase_decide())
                    .fuel_cap(1024)
                    .pin_shard(0),
            )
        })
        .collect();
    let mut expected = Vec::new();
    let mut seen = HashSet::new();
    let jobs: Vec<_> = cases
        .iter()
        .flat_map(|(l, r, gl, gr, fd)| {
            let (sigma, goals, pool) = corpus_query(l, r, *gl, *gr, *fd);
            goals
                .into_iter()
                .filter(|g| runs_fresh(&mut seen, &sigma, g))
                .map(|g| {
                    let d = decide(&sigma, &g, &mut pool.clone(), &cfg);
                    expected.push((d.implication, d.finite_implication));
                    client.submit(QuerySpec::new(sigma.clone(), g, pool.clone()).pin_shard(0))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    client.run_to_completion();
    for (job, (imp, fin)) in jobs.iter().zip(&expected) {
        let JobStatus::Done(outcome) = job.poll() else {
            panic!("run_to_completion must resolve every pinned job");
        };
        assert_eq!(outcome.implication, *imp, "steal-path answer diverged");
        assert_eq!(outcome.finite_implication, *fin);
    }
    for b in &ballast {
        let JobStatus::Done(outcome) = b.poll() else {
            panic!("capped ballast must expire");
        };
        assert_eq!(outcome.implication, Answer::Unknown);
    }
    let stats = client.stats();
    assert_eq!(stats.cache_misses, jobs.len() as u64 + 2, "every job really ran");
    assert!(stats.steals > 0, "idle pinned workers must steal from the deep shard");
}

/// The small-capacity eviction regression: at `cache_capacity = 1` (fewer
/// than the shard count) a fresh insert must never be its own immediate
/// eviction victim — the latest answer is always cached.
#[test]
fn cache_capacity_one_keeps_the_latest_answer() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        cache_capacity: 1,
        ..ServiceConfig::default()
    });
    let queries = distinct_cheap_queries(&u, 4);
    for (i, (s, g, p)) in queries.iter().enumerate() {
        let job = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
        job.wait();
        let hits_before = client.stats().cache_hits;
        let again = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
        let JobStatus::Done(outcome) = again.poll() else {
            panic!("query {i}: the just-inserted answer must be served from cache");
        };
        assert!(outcome.from_cache, "query {i}: fresh insert was evicted");
        assert_eq!(client.stats().cache_hits, hits_before + 1);
        // The per-shard fresh-insert reserve bounds the transient excess.
        assert!(client.cache_len() <= client.num_shards());
    }
}

/// Regression: a spent global fuel budget must terminate a multi-worker
/// `run_to_completion` even when the starved queue lives outside an idle
/// worker's home stripe — once the budget is spent, the idle worker's
/// thefts claim nothing, and it must see the spent budget instead of
/// parking on `inflight > 0` forever while `expire_all` waits for it.
#[test]
fn multi_worker_run_terminates_when_global_fuel_exhausts() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        decide: big_chase_decide(),
        shards: 4,
        workers: 2,
        slice_fuel: 4,
        global_fuel: Some(16),
        ..ServiceConfig::default()
    });
    let (s, g, p) = divergent_query(&u);
    let job = client.submit(QuerySpec::new(s, g, p).pin_shard(0));
    client.run_to_completion();
    let JobStatus::Done(outcome) = job.poll() else {
        panic!("the starved job must be expired, not stranded");
    };
    assert_eq!(outcome.implication, Answer::Unknown);
    let stats = client.stats();
    assert_eq!(stats.expired, 1);
    assert!(stats.fuel_spent <= 16, "budget respected");
}

/// Regression: when the last detached waiter that was keeping a
/// cancelled leader alive departs, the deferred cancel finally takes
/// effect — the leader must not burn its remaining budget with no
/// interested party left (the owner's repeat `cancel()` would no-op on
/// the idempotency guard).
#[test]
fn dropping_the_last_detached_waiter_completes_a_deferred_cancel() {
    let u = Universe::untyped_abc();
    let client = ImplicationClient::new(ServiceConfig {
        decide: big_chase_decide(),
        slice_fuel: 4,
        ..ServiceConfig::default()
    });
    let (s, g, p) = divergent_query(&u);
    let leader = client.submit(QuerySpec::new(s.clone(), g.clone(), p.clone()));
    client.tick();
    let twin = client.submit(QuerySpec::new(s, g, p));
    assert_eq!(client.stats().coalesced, 1);
    twin.detach();
    leader.cancel();
    assert!(
        matches!(leader.poll(), JobStatus::Pending),
        "the detached waiter keeps the computation alive"
    );
    let fuel_before = client.stats().fuel_spent;
    twin.retire(); // the last interested party leaves
    assert!(
        matches!(leader.poll(), JobStatus::Cancelled),
        "the deferred cancel must take effect once nobody wants the answer"
    );
    client.run_to_completion(); // returns immediately: nothing in flight
    assert_eq!(
        client.stats().fuel_spent,
        fuel_before,
        "no further fuel burned after the keep-alive dropped"
    );
    assert_eq!(client.pending_jobs(), 0);
    assert!(
        stats_line(&client).contains(" inflight=0"),
        "the ledger must show the drained in-flight gauge: {}",
        stats_line(&client)
    );
    assert_eq!(client.stats().check(), Ok(()), "ledger identities after the drain");
}

/// Lazy-LRU pinning for Σ-group registry entries: with `cache_capacity =
/// 1` the registry is permanently over budget, but an entry with live
/// members must never be evicted. Submitting a second Σ-group while the
/// first still has an un-stepped member must leave the first entry in
/// place, so a later member of the first group joins the existing shared
/// chase instead of starting a third one.
#[test]
fn group_entries_pinned_at_capacity_one() {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let rows: &[&[&str]] = &[&["x", "y1", "z1"], &["x", "y2", "z2"]];
    // Group A: the mvd-style td plus the B'-fd egd.
    let sigma_a = vec![
        TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "y1", "z2"])),
        TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("B'", "y1"), ("B'", "y2"))),
    ];
    // Group B: a different Σ (the egd alone) over the same hypothesis.
    let sigma_b = vec![TdOrEgd::Egd(egd_from_names(
        &u,
        &mut pool,
        rows,
        ("B'", "y1"),
        ("B'", "y2"),
    ))];
    let goal_c = TdOrEgd::Egd(egd_from_names(&u, &mut pool, rows, ("C'", "z1"), ("C'", "z2")));
    let goal_xxx = TdOrEgd::Td(td_from_names(&u, &mut pool, rows, &["x", "x", "x"]));
    let client = ImplicationClient::new(ServiceConfig {
        cache_capacity: 1,
        group: true,
        ..ServiceConfig::default()
    });
    // a1 pins group A's entry (one live member, never stepped yet).
    let a1 = client.submit(QuerySpec::new(sigma_a.clone(), goal_c.clone(), pool.clone()));
    // b1 creates group B at capacity: A is pinned, so B must not evict it.
    let b1 = client.submit(QuerySpec::new(sigma_b, goal_c, pool.clone()));
    // a2 must find group A still resident and join its shared chase.
    let a2 = client.submit(QuerySpec::new(sigma_a, goal_xxx, pool.clone()));
    client.run_to_completion();
    for job in [&a1, &b1, &a2] {
        let JobStatus::Done(out) = job.poll() else {
            panic!("group member left unsettled");
        };
        assert_eq!(out.implication, Answer::No, "all three goals are refutable");
        assert_eq!(out.finite_implication, Answer::No);
    }
    let s = client.stats();
    assert_eq!(s.grouped, 3, "all submissions must group");
    assert_eq!(
        s.group_chases, 2,
        "a pinned entry was evicted: the returning member restarted its group"
    );
    assert_eq!(s.group_fallbacks, 0);
}
