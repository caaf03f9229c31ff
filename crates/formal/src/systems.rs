//! Formal systems for pjd implication (Theorems 7 and 8).
//!
//! **Theorem 7.** There are only finitely many `U`-pjds over a fixed
//! universe, so a sound and complete *universe-bounded* formal system would
//! decide pjd implication by enumerating the finitely many candidate
//! proofs — contradicting Theorem 6. [`all_pjds`] is that finite
//! enumeration, and [`universe_bounded_decides`] demonstrates the
//! enumeration argument on the *decidable* subclass of total jds (where a
//! universe-bounded complete system does exist, the paper's \[11\]).
//!
//! **Theorem 8.** A sound and complete system exists once proofs may leave
//! the universe: transform the pjds to tds (Lemma 6), chase, and present
//! the derivation — which travels through tableaux over arbitrarily many
//! fresh values. [`PjdProof`] packages exactly that, with
//! [`check_pjd_proof`] as the recursive proof-checking relation.

use crate::proof::{self, Proof};
use typedtd_chase::{ChaseConfig, ChaseOutcome};
use typedtd_dependencies::{Pjd, TdOrEgd};
use typedtd_relational::{AttrSet, Universe, ValuePool};
use std::sync::Arc;

/// Enumerates every pjd over `universe` with at most `max_components`
/// components (there are finitely many — the crux of Theorem 7).
///
/// Components are nonempty attribute subsets without repetition, in a
/// canonical order; projections range over subsets of the union.
pub fn all_pjds(universe: &Arc<Universe>, max_components: usize) -> Vec<Pjd> {
    let n = universe.width();
    let subsets: Vec<AttrSet> = (1..(1u32 << n))
        .map(|mask| {
            universe
                .attrs()
                .filter(|a| mask & (1 << a.index()) != 0)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    // Choose a set of components (order is irrelevant for satisfaction, so
    // canonical ascending index order suffices).
    let k = subsets.len();
    let mut combo: Vec<usize> = Vec::new();
    fn rec(
        subsets: &[AttrSet],
        start: usize,
        combo: &mut Vec<usize>,
        max: usize,
        out: &mut Vec<Pjd>,
    ) {
        if !combo.is_empty() {
            let comps: Vec<AttrSet> = combo.iter().map(|&i| subsets[i].clone()).collect();
            let r = comps
                .iter()
                .fold(AttrSet::new(), |acc, c| acc.union(c));
            // All projections X ⊆ R.
            let r_attrs: Vec<_> = r.iter().collect();
            for mask in 0..(1u32 << r_attrs.len()) {
                let x: AttrSet = r_attrs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, a)| *a)
                    .collect();
                out.push(Pjd::new(comps.clone(), x));
            }
        }
        if combo.len() == max {
            return;
        }
        for i in start..subsets.len() {
            combo.push(i);
            rec(subsets, i + 1, combo, max, out);
            combo.pop();
        }
    }
    let _ = k;
    rec(&subsets, 0, &mut combo, max_components, &mut out);
    out
}

/// The enumeration argument of Theorem 7, run on the decidable total-jd
/// subclass: decides `Σ ⊨ σ` for total jds by the (terminating) chase.
/// Returns `None` when a budget is hit — which the theory says cannot
/// happen for total jds, and the tests confirm on their instances.
pub fn universe_bounded_decides(
    sigma: &[Pjd],
    goal: &Pjd,
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
) -> Option<bool> {
    for p in sigma.iter().chain(std::iter::once(goal)) {
        assert!(
            p.is_jd() && p.is_total(universe),
            "the decidable enumeration subclass is the total jds"
        );
    }
    let sigma_tds: Vec<TdOrEgd> = sigma
        .iter()
        .map(|p| TdOrEgd::Td(p.to_td(universe, pool)))
        .collect();
    let goal_td = TdOrEgd::Td(goal.to_td(universe, pool));
    let run = typedtd_chase::chase_implication(&sigma_tds, &goal_td, pool, &ChaseConfig::default());
    match run.outcome {
        ChaseOutcome::Implied => Some(true),
        ChaseOutcome::NotImplied => Some(false),
        ChaseOutcome::Exhausted | ChaseOutcome::Cancelled => None,
    }
}

/// A Theorem 8 proof: pjd implication certified through the td transform.
#[derive(Clone, Debug)]
pub struct PjdProof {
    /// The td forms of `Σ` (Lemma 6 images), in order.
    pub sigma_tds: Vec<TdOrEgd>,
    /// The td form of the goal.
    pub goal_td: TdOrEgd,
    /// The chase derivation.
    pub proof: Proof,
}

/// Searches for a Theorem 8 proof of `Σ ⊨ σ` between pjds.
pub fn prove_pjd(
    sigma: &[Pjd],
    goal: &Pjd,
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    cfg: &ChaseConfig,
) -> Option<PjdProof> {
    let sigma_tds: Vec<TdOrEgd> = sigma
        .iter()
        .map(|p| TdOrEgd::Td(p.to_td(universe, pool)))
        .collect();
    let goal_td = TdOrEgd::Td(goal.to_td(universe, pool));
    let proof = proof::prove(&sigma_tds, &goal_td, pool, cfg)?;
    Some(PjdProof {
        sigma_tds,
        goal_td,
        proof,
    })
}

/// The recursive proof-checking relation for Theorem 8 proofs.
///
/// # Errors
/// Describes the first failure: a mismatched transform or an unsound step.
pub fn check_pjd_proof(
    sigma: &[Pjd],
    goal: &Pjd,
    p: &PjdProof,
) -> Result<(), String> {
    if p.sigma_tds.len() != sigma.len() {
        return Err("proof premise count differs from Σ".into());
    }
    // The td forms must be shallow tds matching the pjds structurally.
    for (i, (td, pjd)) in p.sigma_tds.iter().zip(sigma).enumerate() {
        let td = td
            .as_td()
            .ok_or_else(|| format!("premise {i} is not a td"))?;
        let back = Pjd::from_shallow_td(td)
            .map_err(|e| format!("premise {i} is not pjd-shaped: {e}"))?;
        if back.components() != pjd.components() || back.projection() != pjd.projection() {
            return Err(format!("premise {i} does not transform to its pjd"));
        }
    }
    let goal_td = p
        .goal_td
        .as_td()
        .ok_or_else(|| "goal form is not a td".to_string())?;
    let back = Pjd::from_shallow_td(goal_td).map_err(|e| format!("goal not pjd-shaped: {e}"))?;
    if back.components() != goal.components() || back.projection() != goal.projection() {
        return Err("goal does not transform to its pjd".into());
    }
    proof::verify(&p.sigma_tds, &p.goal_td, &p.proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finitely_many_u_pjds() {
        // Over a 2-attribute universe with ≤ 2 components: a small, exactly
        // countable space. Subsets: {A}, {B}, {AB} → component sets of size
        // ≤ 2 ... each with its 2^|R| projections.
        let u = Universe::typed(vec!["A", "B"]);
        let pjds = all_pjds(&u, 2);
        // Component sets: {A}(2), {B}(2), {AB}(4), {A,B}(4), {A,AB}(4),
        // {B,AB}(4) → 20 pjds.
        assert_eq!(pjds.len(), 20);
        // And they are pairwise distinct.
        for (i, a) in pjds.iter().enumerate() {
            for b in &pjds[i + 1..] {
                assert!(a != b);
            }
        }
    }

    #[test]
    fn enumeration_decides_total_jds() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut pool = ValuePool::new(u.clone());
        let sigma = vec![Pjd::parse(&u, "*[AB, AC]").unwrap()];
        let goal_same = Pjd::parse(&u, "*[AB, AC]").unwrap();
        assert_eq!(
            universe_bounded_decides(&sigma, &goal_same, &u, &mut pool),
            Some(true)
        );
        let goal_other = Pjd::parse(&u, "*[AB, BC]").unwrap();
        assert_eq!(
            universe_bounded_decides(&sigma, &goal_other, &u, &mut pool),
            Some(false)
        );
        // The 3-way jd follows from the mvd *[AB, AC].
        let goal_three = Pjd::parse(&u, "*[AB, AC, BC]").unwrap();
        assert_eq!(
            universe_bounded_decides(&sigma, &goal_three, &u, &mut pool),
            Some(true)
        );
    }

    #[test]
    fn pjd_proofs_roundtrip() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut pool = ValuePool::new(u.clone());
        let sigma = vec![Pjd::parse(&u, "*[AB, AC]").unwrap()];
        let goal = Pjd::parse(&u, "*[AB, AC, BC]").unwrap();
        let proof = prove_pjd(&sigma, &goal, &u, &mut pool, &ChaseConfig::default())
            .expect("implication holds");
        check_pjd_proof(&sigma, &goal, &proof).expect("proof checks");
        // Checking against the wrong goal fails.
        let wrong = Pjd::parse(&u, "*[AB, BC]").unwrap();
        assert!(check_pjd_proof(&sigma, &wrong, &proof).is_err());
    }

    #[test]
    fn embedded_jd_proofs_work_too() {
        // pjds proper: project the joined result.
        let u = Universe::typed(vec!["A", "B", "C", "D"]);
        let mut pool = ValuePool::new(u.clone());
        let sigma = vec![Pjd::parse(&u, "*[AB, BC, CD]").unwrap()];
        let goal = Pjd::parse(&u, "*[AB, BC, CD] on AD").unwrap();
        let proof = prove_pjd(&sigma, &goal, &u, &mut pool, &ChaseConfig::default())
            .expect("a jd implies its projections");
        check_pjd_proof(&sigma, &goal, &proof).expect("proof checks");
    }
}
