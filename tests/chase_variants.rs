//! The three chase variants must agree on decidable instances, and found
//! counterexamples must always verify.
//!
//! The decide layer rides the same engines: `DecideMode::Dovetail` must
//! answer exactly what `DecideMode::Sequential` answers across every
//! variant/scan combination (typed and untyped), and cancelling a
//! dovetailed task mid-flight stops it within one fuel slice.

use proptest::prelude::*;
use typedtd::chase::{
    chase_implication, decide, is_counterexample, Answer, ChaseConfig, ChaseOutcome,
    ChaseVariant, DecideConfig, DecideMode, DecideStatus, DecideTask,
};
use typedtd::dependencies::{egd_from_names, td_from_names, TdOrEgd};
use typedtd::prelude::*;

fn universe4() -> std::sync::Arc<Universe> {
    Universe::typed(vec!["A", "B", "C", "D"])
}

fn mask_to_set(u: &Universe, mask: u32) -> AttrSet {
    u.attrs().filter(|a| mask & (1 << a.index()) != 0).collect()
}

fn run_variant(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut ValuePool,
    variant: ChaseVariant,
) -> ChaseOutcome {
    let cfg = ChaseConfig::default().with_variant(variant);
    chase_implication(sigma, goal, pool, &cfg).outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Standard and core chase agree on mvd instances
    /// (total tds: guaranteed termination). The oblivious chase agrees on
    /// the Implied verdict whenever the others imply.
    #[test]
    fn variants_agree_on_mvd_instances(
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

        let standard = run_variant(&sigma, &goal, &mut pool, ChaseVariant::Standard);
        let core = run_variant(&sigma, &goal, &mut pool, ChaseVariant::Core);
        prop_assert_eq!(standard, core);
        if standard == ChaseOutcome::Implied {
            let obl = run_variant(&sigma, &goal, &mut pool, ChaseVariant::Oblivious);
            prop_assert_eq!(obl, ChaseOutcome::Implied);
        }
    }

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
        mode: DecideMode::dovetail(ratio),
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

/// Every engine variant × scan combination the chase parity tests cover,
/// for the decide-layer parity tests below. The oblivious variant is
/// separate: it diverges by design on instances the others decide, so it
/// gets the Implied-subset treatment (as in
/// `variants_agree_on_mvd_instances`).
const ENGINE_COMBOS: [(ChaseVariant, bool); 4] = [
    (ChaseVariant::Standard, true),
    (ChaseVariant::Standard, false),
    (ChaseVariant::Core, true),
    (ChaseVariant::Core, false),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DecideMode::Dovetail` answers exactly what sequential `decide`
    /// answers on the typed mvd corpus, under every engine variant
    /// (standard/core × naive/semi-naive) and two
    /// dovetail ratios. PR 4 proved this only through the service layer
    /// (`tests/service.rs`); this is the direct task-level backfill.
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

        for (variant, semi) in ENGINE_COMBOS {
            let chase = ChaseConfig::default()
                .with_variant(variant)
                .with_semi_naive(semi);
            let seq_cfg = DecideConfig {
                chase: chase.clone(),
                ..DecideConfig::default()
            };
            let seq = decide(&sigma, &goal, &mut pool.clone(), &seq_cfg);
            // The mvd corpus must be decidable under every variant.
            prop_assert_ne!(seq.implication, Answer::Unknown);
            for ratio in [1, 3] {
                let (imp, fin) =
                    decide_dovetailed(&sigma, &goal, &pool, chase.clone(), ratio);
                prop_assert_eq!(
                    imp, seq.implication,
                    "dovetail {}:1 diverged under {:?} semi={}",
                    ratio, variant, semi
                );
                prop_assert_eq!(fin, seq.finite_implication);
            }
        }

        // Oblivious: divergent by design, so only the Implied subset is
        // comparable — when the sequential oblivious decide proves the
        // goal, the dovetailed one must prove it too.
        let obl = ChaseConfig::default().with_variant(ChaseVariant::Oblivious);
        let seq_obl = decide(
            &sigma,
            &goal,
            &mut pool.clone(),
            &DecideConfig { chase: obl.clone(), ..DecideConfig::default() },
        );
        if seq_obl.implication == Answer::Yes {
            let (imp, _) = decide_dovetailed(&sigma, &goal, &pool, obl, 2);
            prop_assert_eq!(imp, Answer::Yes, "oblivious dovetail lost an Implied verdict");
        }
    }
}

/// The untyped side of the backfill: a divergent-chase, refutable goal
/// (`successor td ⊨ fd-as-egd`), where the answer must come from the
/// search phase — sequential after chase exhaustion, dovetail
/// interleaved — identically across engine variants.
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
    for (variant, semi) in ENGINE_COMBOS {
        let chase = ChaseConfig::quick()
            .with_variant(variant)
            .with_semi_naive(semi);
        let seq_cfg = DecideConfig {
            chase: chase.clone(),
            ..DecideConfig::default()
        };
        let seq = decide(&sigma, &goal, &mut pool.clone(), &seq_cfg);
        assert_eq!(
            seq.implication,
            Answer::No,
            "the finite-model search must refute under {variant:?}"
        );
        for ratio in [1, 4] {
            let (imp, fin) = decide_dovetailed(&sigma, &goal, &pool, chase.clone(), ratio);
            assert_eq!(
                imp, seq.implication,
                "dovetail {ratio}:1 diverged under {variant:?} semi={semi}"
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
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let successor = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    // A goal no chase step ever derives and no finite model refutes
    // quickly at these budgets: the task would run a long time.
    let never = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    let cfg = DecideConfig {
        chase: ChaseConfig {
            max_rounds: 100_000,
            max_rows: 1 << 20,
            max_steps: 1 << 24,
            ..ChaseConfig::default()
        },
        skip_search: false,
        mode: DecideMode::dovetail(2),
        ..DecideConfig::default()
    };
    let mut task = DecideTask::new(
        vec![TdOrEgd::Td(successor)],
        TdOrEgd::Egd(never),
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
fn core_chase_keeps_instances_no_larger() {
    // On an instance with redundant derivations the core chase's final
    // relation is no larger than the standard chase's.
    let u = universe4();
    let mut pool = ValuePool::new(u.clone());
    let sigma: Vec<TdOrEgd> = ["A ->> B", "B ->> C", "C ->> D"]
        .iter()
        .map(|s| TdOrEgd::Td(Mvd::parse(&u, s).unwrap().to_pjd().to_td(&u, &mut pool)))
        .collect();
    let goal_mvd = Mvd::parse(&u, "A ->> D").unwrap();
    let goal = TdOrEgd::Td(goal_mvd.to_pjd().to_td(&u, &mut pool));

    let std_run = chase_implication(&sigma, &goal, &mut pool, &ChaseConfig::default());
    let core_run = chase_implication(
        &sigma,
        &goal,
        &mut pool,
        &ChaseConfig::default().with_variant(ChaseVariant::Core),
    );
    assert_eq!(std_run.outcome, core_run.outcome);
    assert!(core_run.final_relation.len() <= std_run.final_relation.len());
}

#[test]
fn oblivious_chase_is_bounded_by_budget_on_divergent_input() {
    // A self-feeding non-total td: the oblivious chase diverges by design
    // and must stop at the budget.
    let u = Universe::typed(vec!["A", "B"]);
    let mut pool = ValuePool::new(u.clone());
    // Inert for the standard chase (its conclusion is satisfied by the
    // matched row itself) but endlessly refired by the oblivious chase.
    let td = typedtd::dependencies::td_from_names(&u, &mut pool, &[&["x", "y"]], &["x", "y2"]);
    let sigma = vec![TdOrEgd::Td(td)];
    // The goal demands a combination (p, q2) no chase step ever creates.
    let goal_td = typedtd::dependencies::td_from_names(
        &u,
        &mut pool,
        &[&["p", "q"], &["p2", "q2"]],
        &["p", "q2"],
    );
    let goal = TdOrEgd::Td(goal_td);
    let cfg = ChaseConfig {
        max_rounds: 8,
        max_rows: 64,
        max_steps: 128,
        variant: ChaseVariant::Oblivious,
        ..ChaseConfig::default()
    };
    let run = chase_implication(&sigma, &goal, &mut pool, &cfg);
    assert_eq!(run.outcome, ChaseOutcome::Exhausted);
    assert!(run.final_relation.len() <= 64 + 1);
}
