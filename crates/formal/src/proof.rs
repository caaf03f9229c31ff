//! Machine-checkable implication proofs.
//!
//! A proof that `Σ ⊨ σ` is a chase derivation; this module *verifies* such
//! derivations independently of the engine that produced them. The checker
//! replays each step against its own instance, re-establishing that
//!
//! * an `AddRow` step's row really is forced by the named dependency under
//!   some valuation into the instance so far, and
//! * a `Merge` step's equality really is forced by the named egd,
//!
//! and finally that the goal is derivable in the end instance. The paper's
//! notion of a formal system (Section 6) is exactly "a recursive set of
//! checkable proofs"; soundness of this system is the soundness of the
//! chase, and its *incompleteness for finite implication* is forced by
//! Theorem 2 — no recursive proof system can capture `⊨_f` for typed tds.

use typedtd_chase::{ChaseInstance, ChaseStep, ChaseTrace, StepKind};
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{AttrId, Embedder, Tuple, Valuation};
use std::ops::ControlFlow;

/// A proof object: the claimed derivation for `Σ ⊨ goal`.
#[derive(Clone, Debug)]
pub struct Proof {
    /// The derivation steps.
    pub trace: ChaseTrace,
}

impl Proof {
    /// Wraps an engine trace as a proof.
    pub fn from_trace(trace: ChaseTrace) -> Self {
        Self { trace }
    }
}

/// Verifies `proof` as a derivation of `goal` from `sigma`.
///
/// # Errors
/// Returns a human-readable description of the first unsound step.
pub fn verify(sigma: &[TdOrEgd], goal: &TdOrEgd, proof: &Proof) -> Result<(), String> {
    let (universe, init) = match goal {
        TdOrEgd::Td(t) => (t.universe().clone(), t.hypothesis().to_vec()),
        TdOrEgd::Egd(e) => (e.universe().clone(), e.hypothesis().to_vec()),
    };
    let mut inst = ChaseInstance::new(universe.clone(), init);

    for (i, step) in proof.trace.steps.iter().enumerate() {
        let dep = sigma
            .get(step.dep)
            .ok_or_else(|| format!("step {i}: dependency index {} out of range", step.dep))?;
        match (&step.kind, dep) {
            (StepKind::AddRow { row }, TdOrEgd::Td(td)) => {
                // Constrain the conclusion to the claimed row, then embed
                // the hypothesis into the current instance.
                let mut seed = Valuation::new();
                for a in universe.attrs() {
                    let cv = td.conclusion().get(a);
                    let target = inst.resolve(row.get(a));
                    match seed.get(cv) {
                        Some(existing) if existing != target => {
                            return Err(format!(
                                "step {i}: claimed row is inconsistent with the conclusion pattern"
                            ));
                        }
                        Some(_) => {}
                        None => {
                            seed.bind(cv, target);
                        }
                    }
                }
                // Existential targets must not pre-exist unless the pattern
                // binds them through the hypothesis; soundness only needs
                // the implication "hypothesis matched ⇒ row is a legal
                // conclusion instance", which the embedding below checks.
                let emb = Embedder::new(inst.relation());
                let hyp_only_seed = restrict_to(td, &seed);
                if !emb.embeds(td.hypothesis(), &hyp_only_seed) {
                    return Err(format!(
                        "step {i}: no valuation maps the hypothesis of dependency {} into the instance consistently with the added row",
                        step.dep
                    ));
                }
                let canon = row.map(|v| inst.resolve(v));
                inst.insert(&canon);
            }
            (StepKind::Merge { kept, gone }, TdOrEgd::Egd(egd)) => {
                let (k, g) = (inst.resolve(*kept), inst.resolve(*gone));
                let emb = Embedder::new(inst.relation());
                if k != g {
                    let mut justified = false;
                    for (l, r) in [(k, g), (g, k)] {
                        let mut seed = Valuation::new();
                        seed.bind(egd.left(), l);
                        seed.bind(egd.right(), r);
                        let mut found = false;
                        emb.for_each_embedding(egd.hypothesis(), &seed, |_| {
                            found = true;
                            ControlFlow::Break(())
                        });
                        if found {
                            justified = true;
                            break;
                        }
                    }
                    if !justified {
                        return Err(format!(
                            "step {i}: the egd does not force the claimed equality"
                        ));
                    }
                    drop(emb);
                    inst.merge(k, g);
                }
            }
            (StepKind::AddRow { .. }, TdOrEgd::Egd(_)) => {
                return Err(format!("step {i}: an egd cannot justify a row addition"));
            }
            (StepKind::Merge { .. }, TdOrEgd::Td(_)) => {
                return Err(format!("step {i}: a td cannot justify a merge"));
            }
        }
    }

    // Goal derivable in the final instance?
    let derived = match goal {
        TdOrEgd::Egd(e) => inst.identified(e.left(), e.right()),
        TdOrEgd::Td(td) => {
            let seed = Valuation::from_pairs(
                td.hypothesis_values()
                    .into_iter()
                    .map(|v| (v, inst.resolve(v))),
            );
            let emb = Embedder::new(inst.relation());
            emb.embeds(std::slice::from_ref(td.conclusion()), &seed)
        }
    };
    if derived {
        Ok(())
    } else {
        Err("derivation complete but the goal is not derivable".into())
    }
}

/// Keeps only the seed bindings for values that occur in the hypothesis
/// (the existentials of the conclusion are free for the embedding).
fn restrict_to(td: &typedtd_dependencies::Td, seed: &Valuation) -> Valuation {
    let hyp_vals = td.hypothesis_values();
    Valuation::from_pairs(seed.iter().filter(|(v, _)| hyp_vals.contains(v)))
}

/// Produces a proof by running the chase; `None` if the budget expires or
/// the implication is refuted.
///
/// ```
/// use typedtd_formal::{prove, verify};
/// use typedtd_chase::ChaseConfig;
/// use typedtd_dependencies::{Mvd, TdOrEgd};
/// use typedtd_relational::{Universe, ValuePool};
///
/// let u = Universe::typed(vec!["A", "B", "C"]);
/// let mut pool = ValuePool::new(u.clone());
/// let sigma = vec![TdOrEgd::Td(Mvd::parse(&u, "A ->> B").unwrap().to_pjd().to_td(&u, &mut pool))];
/// let goal = TdOrEgd::Td(Mvd::parse(&u, "A ->> C").unwrap().to_pjd().to_td(&u, &mut pool));
/// let proof = prove(&sigma, &goal, &mut pool, &ChaseConfig::default()).unwrap();
/// assert!(verify(&sigma, &goal, &proof).is_ok());
/// ```
pub fn prove(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut typedtd_relational::ValuePool,
    cfg: &typedtd_chase::ChaseConfig,
) -> Option<Proof> {
    let run = typedtd_chase::chase_implication(sigma, goal, pool, cfg);
    match run.outcome {
        typedtd_chase::ChaseOutcome::Implied => Some(Proof::from_trace(run.trace)),
        _ => None,
    }
}

/// Corrupts nothing: convenience that proves and immediately verifies,
/// returning the checked proof.
pub fn prove_checked(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut typedtd_relational::ValuePool,
    cfg: &typedtd_chase::ChaseConfig,
) -> Option<Proof> {
    let p = prove(sigma, goal, pool, cfg)?;
    verify(sigma, goal, &p).ok()?;
    Some(p)
}

/// A deliberately corrupted variant of a proof (for tests and the
/// experiment harness): the first added row gets one of its values swapped
/// for a hypothesis value of the goal.
pub fn corrupt(proof: &Proof, goal: &TdOrEgd) -> Option<Proof> {
    let poison = match goal {
        TdOrEgd::Td(t) => t.hypothesis()[0].get(AttrId(0)),
        TdOrEgd::Egd(e) => e.hypothesis()[0].get(AttrId(0)),
    };
    let mut out = proof.clone();
    for step in &mut out.trace.steps {
        if let StepKind::AddRow { row } = &mut step.kind {
            let width = row.width();
            let mut vals: Vec<_> = row.values().to_vec();
            vals[width - 1] = poison;
            let new_row = Tuple::new(vals);
            if new_row != *row {
                *step = ChaseStep {
                    dep: step.dep,
                    matched: step.matched.clone(),
                    kind: StepKind::AddRow { row: new_row },
                };
                return Some(out);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use typedtd_chase::ChaseConfig;
    use typedtd_dependencies::{td_from_names, Fd, Mvd};
    use typedtd_relational::{Universe, ValuePool};

    fn mvd_instance() -> (Arc<Universe>, ValuePool, Vec<TdOrEgd>, TdOrEgd) {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let sigma = vec![TdOrEgd::Td(
            Mvd::parse(&u, "A ->> B").unwrap().to_pjd().to_td(&u, &mut p),
        )];
        let goal = TdOrEgd::Td(Mvd::parse(&u, "A ->> C").unwrap().to_pjd().to_td(&u, &mut p));
        (u, p, sigma, goal)
    }

    #[test]
    fn proofs_verify() {
        let (_u, mut p, sigma, goal) = mvd_instance();
        let proof = prove(&sigma, &goal, &mut p, &ChaseConfig::default()).expect("implied");
        verify(&sigma, &goal, &proof).expect("proof must verify");
    }

    #[test]
    fn corrupted_proofs_are_rejected() {
        let (_u, mut p, sigma, goal) = mvd_instance();
        let proof = prove(&sigma, &goal, &mut p, &ChaseConfig::default()).unwrap();
        if let Some(bad) = corrupt(&proof, &goal) {
            assert!(
                verify(&sigma, &goal, &bad).is_err(),
                "checker must reject the corrupted step"
            );
        }
    }

    #[test]
    fn wrong_sigma_is_rejected() {
        // A proof against a different Σ (whose dependency cannot justify
        // the steps) must fail verification.
        let (u, mut p, sigma, goal) = mvd_instance();
        let proof = prove(&sigma, &goal, &mut p, &ChaseConfig::default()).unwrap();
        let other_sigma = vec![TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["q", "r", "s"]],
            &["q", "r", "s"],
        ))];
        assert!(verify(&other_sigma, &goal, &proof).is_err());
    }

    #[test]
    fn egd_steps_verify() {
        // Fd transitivity: proof contains merges only.
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let mut sigma = Vec::new();
        for fd in ["A -> B", "B -> C"] {
            for e in Fd::parse(&u, fd).unwrap().to_egds(&u, &mut p) {
                sigma.push(TdOrEgd::Egd(e));
            }
        }
        let goal_egd = Fd::parse(&u, "A -> C").unwrap().to_egds(&u, &mut p).remove(0);
        let goal = TdOrEgd::Egd(goal_egd);
        let proof = prove(&sigma, &goal, &mut p, &ChaseConfig::default()).expect("implied");
        assert!(proof.trace.merges() > 0);
        verify(&sigma, &goal, &proof).expect("merge-only proof verifies");
    }

    #[test]
    fn empty_proof_only_verifies_trivial_goals() {
        let (u, mut p, sigma, goal) = mvd_instance();
        let empty = Proof::from_trace(ChaseTrace::default());
        assert!(verify(&sigma, &goal, &empty).is_err());
        // A trivial goal verifies with no steps.
        let trivial = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["q", "r", "s"]],
            &["q", "r", "s"],
        ));
        verify(&sigma, &trivial, &empty).expect("trivial goal");
    }
}
