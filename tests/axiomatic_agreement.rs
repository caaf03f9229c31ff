//! Differential testing of the axiomatic proof-search oracles against
//! the chase on the fragments where both are decision procedures:
//!
//! * **fd-only** — Armstrong's rules are sound and complete, and the
//!   chase on egds always terminates, so the two must agree exactly.
//! * **ind-only** — the Casanova–Fagin–Papadimitriou rules are sound and
//!   complete (and implication ≡ finite implication), but the *chase*
//!   on an ind's generating td can diverge: the dovetailed decide covers
//!   the refutations from the finite-model search. Cases either side
//!   leaves `Unknown` are skipped, but the test demands a large floor of
//!   definite agreements so the skip path cannot hollow it out.
//!
//! Every proof object the oracles emit is replayed through the
//! independent checker — agreement on the verdict alone would not catch
//! an oracle that guesses right for the wrong reason.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use typedtd::dependencies::{fd_implies, Ind};
use typedtd::formal::{
    fd_axiomatic_implies, ind_axiomatic_implies, verify_axiomatic, AxFact, Verdict,
};
use typedtd::prelude::*;

const FD_CASES: usize = 140;
const IND_CASES: usize = 140;
/// Definite (non-Unknown) chase verdicts required across both corpora.
const MIN_DEFINITE_AGREEMENTS: usize = 200;

fn mask_to_set(u: &Universe, mask: u32) -> AttrSet {
    u.attrs().filter(|a| mask & (1 << a.index()) != 0).collect()
}

/// A random nonempty attribute sequence with a duplicate-free rhs twin:
/// repetitions on the *left* are legal everywhere, while a repeated rhs
/// attribute fed from distinct lhs positions has no single-td normal
/// form (`Ind::to_td` rejects it), so the chase side could not run.
fn random_ind(rng: &mut StdRng, width: u16) -> Ind {
    let len = rng.random_range(1..=2usize);
    let lhs: Vec<AttrId> = (0..len)
        .map(|_| AttrId(rng.random_range(0..width as u32) as u16))
        .collect();
    let mut rhs: Vec<AttrId> = Vec::with_capacity(len);
    while rhs.len() < len {
        let a = AttrId(rng.random_range(0..width as u32) as u16);
        if !rhs.contains(&a) {
            rhs.push(a);
        }
    }
    Ind::new(lhs, rhs).expect("equal nonzero lengths")
}

#[test]
fn fd_axiomatic_oracle_agrees_with_chase() {
    let u = Universe::typed(vec!["A", "B", "C", "D"]);
    let mut rng = StdRng::seed_from_u64(0xf0f0_1982);
    let mut definite = 0usize;
    for case in 0..FD_CASES {
        let mut pool = ValuePool::new(u.clone());
        let nfds = rng.random_range(1..=4usize);
        let fds: Vec<Fd> = (0..nfds)
            .map(|_| {
                Fd::new(
                    mask_to_set(&u, rng.random_range(1..16u32)),
                    mask_to_set(&u, rng.random_range(1..16u32)),
                )
            })
            .collect();
        let goal = Fd::new(
            mask_to_set(&u, rng.random_range(1..16u32)),
            mask_to_set(&u, rng.random_range(1..16u32)),
        );

        let facts: Vec<AxFact> = fds.iter().cloned().map(AxFact::from).collect();
        let goal_fact = AxFact::from(goal.clone());
        let proof = fd_axiomatic_implies(&facts, &goal);
        let ax_implied = match &proof {
            Some(p) => {
                verify_axiomatic(&facts, &goal_fact, p)
                    .unwrap_or_else(|e| panic!("case {case}: emitted fd proof rejected: {e}"));
                true
            }
            None => false,
        };
        // The closure oracle is an independent second opinion on the
        // same fragment; a three-way tie pins both implementations.
        assert_eq!(
            ax_implied,
            fd_implies(&fds, &goal),
            "case {case}: axiomatic oracle disagrees with fd closure"
        );

        let sigma: Vec<Dependency> = fds.into_iter().map(Dependency::from).collect();
        let verdict = decide_dependencies(
            &sigma,
            &Dependency::from(goal),
            &u,
            &mut pool,
            &DecideConfig::default(),
        );
        let chase_implied = match verdict.implication {
            Answer::Yes => true,
            Answer::No => false,
            Answer::Unknown => panic!("case {case}: fd chase must terminate"),
        };
        assert_eq!(
            ax_implied, chase_implied,
            "case {case}: axiomatic oracle disagrees with the chase"
        );
        assert_eq!(verdict.implication, verdict.finite_implication);
        definite += 1;
    }
    assert_eq!(definite, FD_CASES);
}

#[test]
fn ind_axiomatic_oracle_agrees_with_dovetailed_chase() {
    let u = Universe::untyped(vec!["A", "B", "C"]);
    let width = u.width() as u16;
    let mut rng = StdRng::seed_from_u64(0x1d1d_1982);
    let cfg = DecideConfig {
        mode: DecideMode::adaptive_dovetail(1),
        ..DecideConfig::default()
    };
    let mut definite = 0usize;
    for case in 0..IND_CASES {
        let mut pool = ValuePool::new(u.clone());
        let ninds = rng.random_range(1..=3usize);
        let inds: Vec<Ind> = (0..ninds).map(|_| random_ind(&mut rng, width)).collect();
        let goal = random_ind(&mut rng, width);

        let facts: Vec<AxFact> = inds.iter().cloned().map(AxFact::from).collect();
        let goal_fact = AxFact::from(goal.clone());
        let (ax_verdict, proof) = ind_axiomatic_implies(&facts, &goal, 1_000_000);
        match ax_verdict {
            Verdict::Proved => {
                let p = proof.as_ref().expect("Proved comes with a proof");
                verify_axiomatic(&facts, &goal_fact, p)
                    .unwrap_or_else(|e| panic!("case {case}: emitted ind proof rejected: {e}"));
            }
            Verdict::Refuted => assert!(proof.is_none()),
            // With this fuel the CFP search must complete on 3-attr
            // sequences; Unknown would mean the oracle regressed.
            Verdict::Unknown => panic!("case {case}: ind oracle ran out of fuel"),
        }

        let sigma: Vec<Dependency> = inds.into_iter().map(Dependency::from).collect();
        let verdict =
            decide_dependencies(&sigma, &Dependency::from(goal), &u, &mut pool, &cfg);
        // For inds implication ≡ finite implication, so any definite
        // chase answer (Yes from the chase branch, No from the search
        // branch) must match the axiomatic verdict exactly.
        match verdict.implication {
            Answer::Yes => {
                assert_eq!(
                    ax_verdict,
                    Verdict::Proved,
                    "case {case}: chase proved what the axioms refute"
                );
                definite += 1;
            }
            Answer::No => {
                assert_eq!(
                    ax_verdict,
                    Verdict::Refuted,
                    "case {case}: search refuted what the axioms prove"
                );
                definite += 1;
            }
            Answer::Unknown => {
                if verdict.finite_implication == Answer::No {
                    assert_eq!(
                        ax_verdict,
                        Verdict::Refuted,
                        "case {case}: finite refutation contradicts the axioms"
                    );
                    definite += 1;
                }
            }
        }
    }
    assert!(
        definite + FD_CASES >= MIN_DEFINITE_AGREEMENTS,
        "only {definite} definite ind agreements — budgets too small for the corpus"
    );
}
