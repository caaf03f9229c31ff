//! Lemmas 5 and 9 — eliminating equality-generating dependencies.
//!
//! The paper replaces an fd `X → A` by the **total** td `θ_{X→A}`
//! (Example 4): two rows agreeing exactly on `X`, a third row agreeing with
//! the second on `A` and fresh elsewhere, and a conclusion that grafts the
//! first row's `A`-value onto the third row. Chasing with `θ_{X→A}` lets
//! any row's `A`-value be swapped for the one the fd would have equated —
//! equality is simulated by tuple generation.
//!
//! `θ` generalizes verbatim to an arbitrary typed egd `ε = (a = b, I)`:
//! hypothesis `I ∪ {u₃}` with `u₃[A] = b` and fresh values elsewhere,
//! conclusion `u₃` with its `A`-value replaced by `a` (the printed
//! `θ_{X→A}` is exactly this construction applied to the fd read as an
//! egd). Lemma 9 (= Sadri–Ullman's result for unrestricted implication)
//! justifies the replacement inside `Σ`; Lemma 5 (from the Beeri–Vardi
//! report \[9\], reconstructed here — see DESIGN.md §3) additionally converts
//! the *goal* egd into the total td `θ_σ`.
//!
//! Every `θ` is total, so a chase using only `θ`s never invents values:
//! the fragment is decidable and the tests verify the replacement against
//! the Armstrong-closure oracle.

use typedtd_dependencies::{Egd, Fd, Td, TdOrEgd};
use typedtd_relational::{AttrId, Tuple, Universe, Value, ValuePool};
use std::sync::Arc;

/// Builds `θ_{X→A}` for a single target attribute `A ∉ X` (Lemma 9,
/// Example 4).
pub fn theta_fd_single(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    x: &typedtd_relational::AttrSet,
    a: AttrId,
) -> Td {
    assert!(!x.contains(a), "target attribute must lie outside X");
    let sorted = universe.is_typed();
    let fresh = |pool: &mut ValuePool, attr: AttrId, p: &str| -> Value {
        pool.fresh(Some(attr).filter(|_| sorted), p)
    };
    let mut u1 = Vec::with_capacity(universe.width());
    let mut u2 = Vec::with_capacity(universe.width());
    let mut u3 = Vec::with_capacity(universe.width());
    for b in universe.attrs() {
        let v1 = fresh(pool, b, "v1_");
        u1.push(v1);
        u2.push(if x.contains(b) { v1 } else { fresh(pool, b, "v2_") });
        u3.push(if b == a {
            *u2.last().unwrap()
        } else {
            fresh(pool, b, "v3_")
        });
    }
    let u: Vec<Value> = universe
        .attrs()
        .map(|b| if b == a { u1[b.index()] } else { u3[b.index()] })
        .collect();
    Td::new(
        universe.clone(),
        Tuple::new(u),
        vec![Tuple::new(u1), Tuple::new(u2), Tuple::new(u3)],
    )
}

/// Replaces an fd `X → Y` by one `θ_{X→A}` per `A ∈ Y − X`.
pub fn theta_fd(universe: &Arc<Universe>, pool: &mut ValuePool, fd: &Fd) -> Vec<Td> {
    fd.rhs
        .difference(&fd.lhs)
        .iter()
        .map(|a| theta_fd_single(universe, pool, &fd.lhs, a))
        .collect()
}

/// Builds `θ_ε` for a typed egd `ε = (a = b, I)`: hypothesis `I ∪ {u₃}`
/// with `u₃[A] = b`, conclusion `u₃` with `a` in column `A`.
///
/// # Panics
/// Panics on untyped egds (the construction needs the sort of `a`/`b`).
pub fn theta_egd(egd: &Egd, pool: &mut ValuePool) -> Td {
    let universe = egd.universe().clone();
    assert!(
        universe.is_typed(),
        "θ_ε is defined for typed egds (Lemma 5 is about the typed case)"
    );
    let sort = pool
        .sort(egd.left())
        .expect("typed value has a sort");
    assert_eq!(
        Some(sort),
        pool.sort(egd.right()),
        "egd equates same-sorted values"
    );
    let mut u3 = Vec::with_capacity(universe.width());
    for b in universe.attrs() {
        u3.push(if b == sort {
            egd.right()
        } else {
            pool.fresh(Some(b), "v3_")
        });
    }
    let w: Vec<Value> = universe
        .attrs()
        .map(|b| if b == sort { egd.left() } else { u3[b.index()] })
        .collect();
    let mut hyp = egd.hypothesis().to_vec();
    hyp.push(Tuple::new(u3));
    Td::new(universe, Tuple::new(w), hyp)
}

/// Lemma 9 transformation of a dependency set: every egd is replaced by its
/// `θ`; tds pass through.
pub fn eliminate_egds(sigma: &[TdOrEgd], pool: &mut ValuePool) -> Vec<Td> {
    sigma
        .iter()
        .map(|d| match d {
            TdOrEgd::Td(t) => t.clone(),
            TdOrEgd::Egd(e) => theta_egd(e, pool),
        })
        .collect()
}

/// Lemma 5 instance: `(Σ′, σ′)` with `Σ′ = eliminate_egds(Σ)` and
/// `σ′ = θ_σ` — a set of typed tds and a typed **total** td such that
/// `Σ ⊨ σ ⇔ Σ′ ⊨ σ′` (and likewise finitely).
pub fn lemma5_instance(
    sigma: &[TdOrEgd],
    goal: &Egd,
    pool: &mut ValuePool,
) -> (Vec<Td>, Td) {
    let sigma_prime = eliminate_egds(sigma, pool);
    let goal_prime = theta_egd(goal, pool);
    debug_assert!(goal_prime.is_total(), "θ_σ must be total");
    (sigma_prime, goal_prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_chase::{chase_implication, ChaseConfig, ChaseOutcome};
    use typedtd_dependencies::fd_implies;

    fn u6() -> Arc<Universe> {
        Universe::typed_abcdef()
    }

    #[test]
    fn example4_shape() {
        // θ_{A→B} over U = ABCDEF, as printed in Example 4.
        let u = u6();
        let mut p = ValuePool::new(u.clone());
        let td = theta_fd_single(&u, &mut p, &u.set("A"), u.a("B"));
        assert!(td.is_total());
        assert_eq!(td.hypothesis().len(), 3);
        let [u1, u2, u3] = [&td.hypothesis()[0], &td.hypothesis()[1], &td.hypothesis()[2]];
        let w = td.conclusion();
        // (1) u1[A] = u2[A], all other columns differ.
        assert_eq!(u1.get(u.a("A")), u2.get(u.a("A")));
        for col in ["B", "C", "D", "E", "F"] {
            assert_ne!(u1.get(u.a(col)), u2.get(u.a(col)));
        }
        // (2) u3[B] = u2[B]; u3 fresh elsewhere.
        assert_eq!(u3.get(u.a("B")), u2.get(u.a("B")));
        for col in ["A", "C", "D", "E", "F"] {
            assert_ne!(u3.get(u.a(col)), u1.get(u.a(col)));
            assert_ne!(u3.get(u.a(col)), u2.get(u.a(col)));
        }
        // (3) w[B] = u1[B], w agrees with u3 off B.
        assert_eq!(w.get(u.a("B")), u1.get(u.a("B")));
        for col in ["A", "C", "D", "E", "F"] {
            assert_eq!(w.get(u.a(col)), u3.get(u.a(col)));
        }
        td.check_typed(&p).unwrap();
    }

    /// The θ replacement must agree with the Armstrong oracle on fd
    /// implication (the decidable fragment): Σ ⊨ X→A iff {θ_fd} ⊨ θ_{X→A}.
    #[test]
    fn theta_replacement_agrees_with_fd_oracle() {
        let u = Universe::typed(vec!["A", "B", "C", "D"]);
        let cases = [
            (vec!["A -> B", "B -> C"], "A -> C", true),
            (vec!["A -> B", "B -> C"], "C -> A", false),
            (vec!["A -> B"], "AC -> B", true),
            (vec!["AB -> C", "A -> B"], "A -> C", true),
            (vec!["AB -> C"], "A -> C", false),
        ];
        for (fd_specs, goal_spec, expected) in cases {
            let mut p = ValuePool::new(u.clone());
            let fds: Vec<Fd> = fd_specs.iter().map(|s| Fd::parse(&u, s).unwrap()).collect();
            let goal_fd = Fd::parse(&u, goal_spec).unwrap();
            assert_eq!(fd_implies(&fds, &goal_fd), expected, "oracle sanity");

            let mut sigma: Vec<TdOrEgd> = Vec::new();
            for fd in &fds {
                sigma.extend(theta_fd(&u, &mut p, fd).into_iter().map(TdOrEgd::Td));
            }
            let target_attr = goal_fd.rhs.difference(&goal_fd.lhs).iter().next().unwrap();
            let goal_td = theta_fd_single(&u, &mut p, &goal_fd.lhs, target_attr);
            let run = chase_implication(
                &sigma,
                &TdOrEgd::Td(goal_td),
                &mut p,
                &ChaseConfig::default(),
            );
            let got = match run.outcome {
                ChaseOutcome::Implied => true,
                ChaseOutcome::NotImplied => false,
                ChaseOutcome::Exhausted | ChaseOutcome::Cancelled => {
                    panic!("total-td chase must terminate")
                }
            };
            assert_eq!(
                got, expected,
                "θ-replacement implication mismatch for {fd_specs:?} ⊨ {goal_spec}"
            );
        }
    }

    #[test]
    fn theta_egd_generalizes_theta_fd() {
        // For an fd-shaped egd the generalized construction produces the
        // same tableau pattern as θ_{X→A}.
        let u = u6();
        let mut p = ValuePool::new(u.clone());
        let fd = Fd::parse(&u, "A -> B").unwrap();
        let egd = fd.to_egds(&u, &mut p).remove(0);
        let td = theta_egd(&egd, &mut p);
        assert!(td.is_total());
        assert_eq!(td.hypothesis().len(), 3);
        // Conclusion's B-value is the egd's left side; off B it copies u3.
        assert_eq!(td.conclusion().get(u.a("B")), egd.left());
        let u3 = &td.hypothesis()[2];
        assert_eq!(u3.get(u.a("B")), egd.right());
        td.check_typed(&p).unwrap();
    }

    #[test]
    fn lemma5_goal_is_total() {
        let u = u6();
        let mut p = ValuePool::new(u.clone());
        let fd = Fd::parse(&u, "AB -> C").unwrap();
        let egd = fd.to_egds(&u, &mut p).remove(0);
        let (sigma_prime, goal_prime) = lemma5_instance(&[TdOrEgd::Egd(egd.clone())], &egd, &mut p);
        assert!(goal_prime.is_total());
        assert_eq!(sigma_prime.len(), 1);
        // Σ contains σ itself, so Σ′ ⊨ σ′ must hold (σ′ ∈ Σ′ up to renaming).
        let sigma_tds: Vec<TdOrEgd> = sigma_prime.into_iter().map(TdOrEgd::Td).collect();
        let run = chase_implication(
            &sigma_tds,
            &TdOrEgd::Td(goal_prime),
            &mut p,
            &ChaseConfig::default(),
        );
        assert_eq!(run.outcome, ChaseOutcome::Implied);
    }
}
