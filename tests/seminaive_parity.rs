//! Differential testing of the semi-naive chase against the naive
//! full-rescan reference.
//!
//! The semi-naive engine restricts trigger discovery to embeddings touching
//! the per-dependency delta; the naive reference re-enumerates everything
//! every round (`ChaseConfig::semi_naive = false`). The two must agree
//! *exactly* on outcome and round count, and up to isomorphism of labeled
//! nulls on the final instance — on seeded random fd/mvd/pjd sets over a
//! typed universe, and random td/egd sets over the untyped universe
//! `U' = A'B'C'`, across all chase variants.

use proptest::prelude::*;
use typedtd::dependencies::{egd_from_names, td_from_names, Dependency, TdOrEgd};
use typedtd::prelude::*;
use typedtd::relational::isomorphic;
use typedtd_chase::saturate;

fn universe4() -> std::sync::Arc<Universe> {
    Universe::typed(vec!["A", "B", "C", "D"])
}

fn mask_to_set(u: &Universe, mask: u32) -> AttrSet {
    u.attrs().filter(|a| mask & (1 << a.index()) != 0).collect()
}

/// Runs the goal under a config and returns the comparable fingerprint.
fn run(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut ValuePool,
    cfg: &ChaseConfig,
) -> (ChaseOutcome, usize, typedtd::relational::Relation) {
    let r = chase_implication(sigma, goal, pool, cfg);
    (r.outcome, r.rounds, r.final_relation)
}

/// Asserts the naive reference and the semi-naive engine agree on
/// outcome, rounds, and final instance up to iso.
fn assert_parity(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut ValuePool,
    variant: ChaseVariant,
) -> Result<(), TestCaseError> {
    let base = ChaseConfig::default().with_variant(variant);
    let naive = run(sigma, goal, pool, &base.clone().with_semi_naive(false));
    let semi = run(sigma, goal, pool, &base.clone().with_semi_naive(true));
    prop_assert_eq!(naive.0, semi.0, "outcome diverged ({:?})", variant);
    prop_assert_eq!(naive.1, semi.1, "round count diverged ({:?})", variant);
    prop_assert_eq!(naive.2.len(), semi.2.len(), "row count diverged ({:?})", variant);
    prop_assert!(
        isomorphic(&naive.2, &semi.2),
        "final instances not isomorphic ({:?})",
        variant
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Typed universe: random fd/mvd/pjd sets against an fd or mvd goal.
    #[test]
    fn typed_fd_mvd_pjd_sets_agree(
        fd_masks in prop::collection::vec([1u32..15, 1u32..15], 0..3),
        mvd_masks in prop::collection::vec([1u32..15, 1u32..15], 0..3),
        pjd_masks in prop::collection::vec([1u32..15, 1u32..15], 0..2),
        goal_masks in [1u32..15, 1u32..15],
        goal_is_fd in 0u32..2,
    ) {
        let u = universe4();
        let mut pool = ValuePool::new(u.clone());
        let mut deps: Vec<Dependency> = Vec::new();
        for m in &fd_masks {
            deps.push(Dependency::from(Fd::new(mask_to_set(&u, m[0]), mask_to_set(&u, m[1]))));
        }
        for m in &mvd_masks {
            deps.push(Dependency::from(Mvd::new(
                u.clone(),
                mask_to_set(&u, m[0]),
                mask_to_set(&u, m[1]),
            )));
        }
        for m in &pjd_masks {
            // A two-component jd *[R1, R2] with R1 ∪ R2 = U.
            let r1 = mask_to_set(&u, m[0]);
            let r2 = mask_to_set(&u, m[1]).union(&u.all().difference(&r1));
            deps.push(Dependency::from(Pjd::jd(vec![r1, r2])));
        }
        let goal: Dependency = if goal_is_fd == 0 {
            Dependency::from(Fd::new(mask_to_set(&u, goal_masks[0]), mask_to_set(&u, goal_masks[1])))
        } else {
            Dependency::from(Mvd::new(
                u.clone(),
                mask_to_set(&u, goal_masks[0]),
                mask_to_set(&u, goal_masks[1]),
            ))
        };
        let sigma: Vec<TdOrEgd> = deps
            .iter()
            .flat_map(|d| d.normalize(&u, &mut pool))
            .collect();
        for g in goal.normalize(&u, &mut pool) {
            assert_parity(&sigma, &g, &mut pool, ChaseVariant::Standard)?;
            assert_parity(&sigma, &g, &mut pool, ChaseVariant::Core)?;
            assert_parity(&sigma, &g, &mut pool, ChaseVariant::Oblivious)?;
        }
    }

    /// Untyped universe: random tds and egds built from value-name indices.
    #[test]
    fn untyped_td_egd_sets_agree(
        td_rows in prop::collection::vec([0usize..3, 0usize..3, 0usize..3], 2..5),
        concl in [0usize..3, 0usize..3, 0usize..3],
        egd_rows in prop::collection::vec([0usize..4, 0usize..4, 0usize..4], 2..4),
        goal_rows in prop::collection::vec([0usize..3, 0usize..3, 0usize..3], 1..4),
        goal_concl in [0usize..3, 0usize..3, 0usize..3],
    ) {
        let u = Universe::untyped_abc();
        let mut pool = ValuePool::new(u.clone());
        let name = |i: usize| format!("v{i}");
        let row_names = |r: &[usize; 3]| [name(r[0]), name(r[1]), name(r[2])];

        let td_hyp: Vec<[String; 3]> = td_rows.iter().map(row_names).collect();
        let td_hyp_refs: Vec<Vec<&str>> = td_hyp
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let td_hyp_slices: Vec<&[&str]> = td_hyp_refs.iter().map(Vec::as_slice).collect();
        let concl_names = row_names(&concl);
        let concl_refs: Vec<&str> = concl_names.iter().map(String::as_str).collect();
        let td = td_from_names(&u, &mut pool, &td_hyp_slices, &concl_refs);

        let egd_hyp: Vec<[String; 3]> = egd_rows.iter().map(row_names).collect();
        let egd_hyp_refs: Vec<Vec<&str>> = egd_hyp
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let egd_hyp_slices: Vec<&[&str]> = egd_hyp_refs.iter().map(Vec::as_slice).collect();
        // Equate the B'-values of the first two hypothesis rows.
        let egd = egd_from_names(
            &u,
            &mut pool,
            &egd_hyp_slices,
            ("B'", &egd_hyp[0][1]),
            ("B'", &egd_hyp[1][1]),
        );

        let goal_hyp: Vec<[String; 3]> = goal_rows.iter().map(row_names).collect();
        let goal_refs: Vec<Vec<&str>> = goal_hyp
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let goal_slices: Vec<&[&str]> = goal_refs.iter().map(Vec::as_slice).collect();
        let goal_concl_names = row_names(&goal_concl);
        let goal_concl_refs: Vec<&str> =
            goal_concl_names.iter().map(String::as_str).collect();
        let goal = TdOrEgd::Td(td_from_names(&u, &mut pool, &goal_slices, &goal_concl_refs));

        let sigma = vec![TdOrEgd::Td(td), TdOrEgd::Egd(egd)];
        assert_parity(&sigma, &goal, &mut pool, ChaseVariant::Standard)?;
        assert_parity(&sigma, &goal, &mut pool, ChaseVariant::Core)?;
    }
}

/// Saturation parity: chasing a fixed relation to its universal model must
/// reach the same fixpoint (same rows, not just isomorphic — the initial
/// values are frozen and no goal exists to stop early).
#[test]
fn saturation_reaches_identical_fixpoint() {
    let u = universe4();
    let mut pool = ValuePool::new(u.clone());
    let deps = [
        Dependency::from(Mvd::parse(&u, "A ->> B").unwrap()),
        Dependency::from(Fd::parse(&u, "B -> C").unwrap()),
        Dependency::from(Mvd::parse(&u, "C ->> D").unwrap()),
    ];
    let sigma: Vec<TdOrEgd> = deps
        .iter()
        .flat_map(|d| d.normalize(&u, &mut pool))
        .collect();
    let init = Relation::from_rows(
        u.clone(),
        (0..3).map(|i| {
            Tuple::new(
                u.attrs()
                    .map(|a| pool.typed(a, &format!("{}{}", u.name(a), i)))
                    .collect(),
            )
        }),
    );
    let naive = saturate(
        &init,
        &sigma,
        &mut pool,
        &ChaseConfig::default().with_semi_naive(false),
    );
    let semi = saturate(&init, &sigma, &mut pool, &ChaseConfig::default());
    assert_eq!(naive.outcome, semi.outcome);
    assert_eq!(naive.rounds, semi.rounds);
    assert_eq!(naive.final_relation.len(), semi.final_relation.len());
    assert!(isomorphic(&naive.final_relation, &semi.final_relation));
}
