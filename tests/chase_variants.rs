//! Terminal chase instances must verify as counterexamples, and a
//! divergent chase must stop at its budget.
//!
//! The decide layer rides the same engine: `DecideMode::AdaptiveDovetail`
//! must answer exactly what `DecideMode::Sequential` answers under both trigger
//! scans, semi-naive and naive (typed and untyped), and cancelling a
//! dovetailed task mid-flight stops it within one fuel slice.

use proptest::prelude::*;
use typedtd::chase::{
    chase_implication, decide, is_counterexample, Answer, ChaseConfig, ChaseOutcome, DecideConfig,
    DecideMode, DecideStatus, DecideTask,
};
use typedtd::dependencies::{egd_from_names, td_from_names, TdOrEgd};
use typedtd::prelude::*;

fn universe4() -> std::sync::Arc<Universe> {
    Universe::typed(vec!["A", "B", "C", "D"])
}

fn mask_to_set(u: &Universe, mask: u32) -> AttrSet {
    u.attrs().filter(|a| mask & (1 << a.index()) != 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Terminal (NotImplied) chase instances really are counterexamples:
    /// they satisfy Σ and violate the goal.
    #[test]
    fn terminal_instances_verify_as_counterexamples(
        lhs_masks in prop::collection::vec(1u32..15, 1..3),
        rhs_masks in prop::collection::vec(1u32..15, 1..3),
        goal_lhs in 1u32..15,
        goal_rhs in 1u32..15,
    ) {
        let u = universe4();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = lhs_masks
            .iter()
            .zip(&rhs_masks)
            .map(|(&l, &r)| {
                let mvd = Mvd::new(u.clone(), mask_to_set(&u, l), mask_to_set(&u, r));
                TdOrEgd::Td(mvd.to_pjd().to_td(&u, &mut pool))
            })
            .collect();
        let goal_mvd = Mvd::new(u.clone(), mask_to_set(&u, goal_lhs), mask_to_set(&u, goal_rhs));
        let goal = TdOrEgd::Td(goal_mvd.to_pjd().to_td(&u, &mut pool));
        let run = chase_implication(&sigma, &goal, &mut pool, &ChaseConfig::default());
        if run.outcome == ChaseOutcome::NotImplied {
            prop_assert!(is_counterexample(&run.final_relation, &sigma, &goal),
                "terminal instance must be a universal-model counterexample");
        }
    }
}

/// Steps a dovetailed `DecideTask` in small fuel slices to completion.
fn decide_dovetailed(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &ValuePool,
    chase: ChaseConfig,
    ratio: u32,
) -> (Answer, Answer) {
    let cfg = DecideConfig {
        chase,
        mode: DecideMode::adaptive_dovetail(ratio),
        ..DecideConfig::default()
    };
    let mut task = DecideTask::new(sigma.to_vec(), goal.clone(), pool.clone(), cfg);
    let mut slices = 0u64;
    while let DecideStatus::Pending = task.step(3) {
        slices += 1;
        assert!(slices < 1_000_000, "dovetailed decide failed to terminate");
    }
    let (decision, _pool) = task.finish();
    (decision.implication, decision.finite_implication)
}

/// Both trigger scans, semi-naive and the naive reference, for the
/// decide-layer parity tests below.
const ENGINE_COMBOS: [bool; 2] = [true, false];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DecideMode::AdaptiveDovetail` answers exactly what sequential
    /// `decide` answers on the typed mvd corpus, under both scans (naive
    /// and semi-naive) and two starting ratios: the task-level counterpart of
    /// the service-level check in `tests/service.rs`.
    #[test]
    fn dovetail_matches_sequential_across_typed_variants(
        lhs_masks in prop::collection::vec(1u32..15, 1..3),
        rhs_masks in prop::collection::vec(1u32..15, 1..3),
        goal_lhs in 1u32..15,
        goal_rhs in 1u32..15,
    ) {
        let u = universe4();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = lhs_masks
            .iter()
            .zip(&rhs_masks)
            .map(|(&l, &r)| {
                let mvd = Mvd::new(u.clone(), mask_to_set(&u, l), mask_to_set(&u, r));
                TdOrEgd::Td(mvd.to_pjd().to_td(&u, &mut pool))
            })
            .collect();
        let goal_mvd = Mvd::new(u.clone(), mask_to_set(&u, goal_lhs), mask_to_set(&u, goal_rhs));
        let goal = TdOrEgd::Td(goal_mvd.to_pjd().to_td(&u, &mut pool));

        for semi in ENGINE_COMBOS {
            let chase = ChaseConfig::default().with_semi_naive(semi);
            let seq_cfg = DecideConfig {
                chase: chase.clone(),
                ..DecideConfig::default()
            };
            let seq = decide(&sigma, &goal, &mut pool.clone(), &seq_cfg);
            // The mvd corpus must be decidable under both scans.
            prop_assert_ne!(seq.implication, Answer::Unknown);
            for ratio in [1, 3] {
                let (imp, fin) =
                    decide_dovetailed(&sigma, &goal, &pool, chase.clone(), ratio);
                prop_assert_eq!(
                    imp, seq.implication,
                    "dovetail {}:1 diverged under semi={}",
                    ratio, semi
                );
                prop_assert_eq!(fin, seq.finite_implication);
            }
        }
    }
}

/// The untyped side of the backfill: a divergent-chase, refutable goal
/// (`successor td ⊨ fd-as-egd`), where the answer must come from the
/// search phase — sequential after chase exhaustion, dovetail
/// interleaved — identically under both scans.
#[test]
fn dovetail_matches_sequential_on_untyped_divergent_refutable() {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let successor = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    let fd_egd = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    let sigma = vec![TdOrEgd::Td(successor)];
    let goal = TdOrEgd::Egd(fd_egd);
    for semi in ENGINE_COMBOS {
        let chase = ChaseConfig::quick().with_semi_naive(semi);
        let seq_cfg = DecideConfig {
            chase: chase.clone(),
            ..DecideConfig::default()
        };
        let seq = decide(&sigma, &goal, &mut pool.clone(), &seq_cfg);
        assert_eq!(
            seq.implication,
            Answer::No,
            "the finite-model search must refute under semi={semi}"
        );
        for ratio in [1, 4] {
            let (imp, fin) = decide_dovetailed(&sigma, &goal, &pool, chase.clone(), ratio);
            assert_eq!(
                imp, seq.implication,
                "dovetail {ratio}:1 diverged under semi={semi}"
            );
            assert_eq!(fin, seq.finite_implication);
        }
    }
}

/// Cancel-mid-dovetail: tripping the token while both procedures are
/// live finishes the task within the current fuel slice with
/// `Decision::cancelled` — it must not burn the rest of its (huge)
/// budgets, and further fuel is ignored.
#[test]
fn cancel_mid_dovetail_stops_within_one_slice() {
    // Casanova–Fagin–Papadimitriou: `A -> B & [A] <= [B] |= [B] <= [A]`
    // over A'B'C'. In a finite relation the fd gives |B| <= |A| and the
    // inclusion gives |A| <= |B|, so A and B hold the same values and the
    // goal follows; an infinite relation refutes it. Finitely implied but
    // not implied: the chase grows forever and no finite counterexample
    // exists for the search to find, so the task never finishes.
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let fd = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    let a_in_b = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["w", "x", "v"]);
    let b_in_a = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "w", "v"]);
    let cfg = DecideConfig {
        chase: ChaseConfig {
            max_rounds: 100_000,
            max_rows: 1 << 20,
            max_steps: 1 << 24,
            ..ChaseConfig::default()
        },
        skip_search: false,
        mode: DecideMode::adaptive_dovetail(2),
        ..DecideConfig::default()
    };
    let mut task = DecideTask::new(
        vec![TdOrEgd::Egd(fd), TdOrEgd::Td(a_in_b)],
        TdOrEgd::Td(b_in_a),
        pool,
        cfg,
    );
    // Let the dovetail genuinely interleave: a few small slices touch
    // both the chase and the search.
    for _ in 0..6 {
        assert!(matches!(task.step(3), DecideStatus::Pending));
    }
    let before = task.fuel_spent();
    task.cancel_token().cancel();
    // One huge slice after the cancel: the task must stop at the next
    // round/attempt boundary instead of consuming it.
    let status = task.step(1_000_000);
    assert!(matches!(status, DecideStatus::Done(Answer::Unknown)));
    assert!(
        task.fuel_spent() - before <= 2,
        "cancelled task burned {} fuel after the token tripped",
        task.fuel_spent() - before
    );
    // A finished (cancelled) task ignores further fuel and stays done.
    assert!(matches!(task.step(1_000), DecideStatus::Done(_)));
    let (decision, _pool) = task.finish();
    assert!(decision.cancelled, "cancelled decision must say so");
    assert_eq!(decision.implication, Answer::Unknown);
    assert_eq!(decision.finite_implication, Answer::Unknown);
}

#[test]
fn divergent_chase_is_bounded_by_budget() {
    // The successor td (x, y, z) → (y, q1, q2): every row's B' value needs
    // a row starting with it, and each new row's fresh B' value needs
    // another, so the standard chase diverges and must stop at the budget.
    // It adds one row per round, so the row budget is the one that binds.
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let successor = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    let sigma = vec![TdOrEgd::Td(successor)];
    // No chase step ever creates a row starting with the goal's `r`.
    let goal_td = td_from_names(&u, &mut pool, &[&["p", "q", "r"]], &["r", "s", "t"]);
    let goal = TdOrEgd::Td(goal_td);
    let cfg = ChaseConfig {
        max_rounds: 1_000,
        max_rows: 64,
        max_steps: 128,
        ..ChaseConfig::default()
    };
    let run = chase_implication(&sigma, &goal, &mut pool, &cfg);
    assert_eq!(run.outcome, ChaseOutcome::Exhausted);
    assert!(run.final_relation.len() <= 64 + 1);
}
