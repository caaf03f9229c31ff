//! Armstrong relations (Theorem 5 and the paper's reference \[18\]).
//!
//! A finite Armstrong relation for `Σ` within a class `C` satisfies
//! exactly the `C`-dependencies finitely implied by `Σ`. Theorem 5 shows
//! the fixed set `Σ₂` has none in the class of typed tds (else its finite
//! implication problem would be decidable). On the positive side, fd sets
//! famously *do* have Armstrong relations; [`fd_armstrong`] constructs one
//! by direct product of per-violation witnesses, and the tests check the
//! defining biconditional against the closure oracle.

use typedtd_dependencies::{Fd, TdOrEgd};
use typedtd_relational::{AttrSet, FxHashMap, Relation, Tuple, Universe, Value, ValuePool};
use std::sync::Arc;

/// Direct product of two relations over the same universe: rows pair up
/// componentwise, values are interned pairs. Classes defined by egds/fds
/// are closed under products, which is why the construction below works.
pub fn direct_product(
    r1: &Relation,
    r2: &Relation,
    pool: &mut ValuePool,
) -> Relation {
    let universe = r1.universe().clone();
    assert_eq!(universe.width(), r2.universe().width());
    let mut memo: FxHashMap<(Value, Value), Value> = FxHashMap::default();
    let mut out = Relation::new(universe.clone());
    for t1 in r1.iter() {
        for t2 in r2.iter() {
            let vals: Vec<Value> = universe
                .attrs()
                .map(|a| {
                    let key = (t1.get(a), t2.get(a));
                    *memo.entry(key).or_insert_with(|| {
                        pool.fresh(Some(a).filter(|_| universe.is_typed()), "pair")
                    })
                })
                .collect();
            out.insert(Tuple::new(vals));
        }
    }
    out
}

/// A two-row relation agreeing exactly on `agree` (the classical witness
/// violating every fd `X → A` with `X ⊆ agree`, `A ∉ agree`).
pub fn agreement_witness(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    agree: &AttrSet,
) -> Relation {
    let mut row1 = Vec::with_capacity(universe.width());
    let mut row2 = Vec::with_capacity(universe.width());
    for a in universe.attrs() {
        let sort = Some(a).filter(|_| universe.is_typed());
        if agree.contains(a) {
            let shared = pool.fresh(sort, "s");
            row1.push(shared);
            row2.push(shared);
        } else {
            row1.push(pool.fresh(sort, "l"));
            row2.push(pool.fresh(sort, "r"));
        }
    }
    Relation::from_rows(
        universe.clone(),
        [Tuple::new(row1), Tuple::new(row2)],
    )
}

/// Builds a finite Armstrong relation for a set of fds: a relation
/// satisfying exactly the fds implied by `fds`.
///
/// Construction: for every closed attribute set `X = X⁺` (other than `U`),
/// take the two-row witness agreeing exactly on `X`; direct-product them
/// all together.
pub fn fd_armstrong(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    fds: &[Fd],
) -> Relation {
    let n = universe.width();
    let mut witnesses: Vec<Relation> = Vec::new();
    for mask in 0..(1u32 << n) {
        let x: AttrSet = universe
            .attrs()
            .filter(|a| mask & (1 << a.index()) != 0)
            .collect();
        let closed = typedtd_dependencies::fd_closure(&x, fds);
        if closed == x && x != universe.all() {
            witnesses.push(agreement_witness(universe, pool, &x));
        }
    }
    match witnesses.len() {
        0 => {
            // Every set is a key: the single-row relation works.
            let row: Vec<Value> = universe
                .attrs()
                .map(|a| pool.fresh(Some(a).filter(|_| universe.is_typed()), "o"))
                .collect();
            Relation::from_rows(universe.clone(), [Tuple::new(row)])
        }
        _ => {
            let mut acc = witnesses.pop().unwrap();
            for w in witnesses {
                acc = direct_product(&acc, &w, pool);
            }
            acc
        }
    }
}

/// Checks the Armstrong biconditional for a probe set of dependencies:
/// `rel ⊨ σ ⇔ decided(σ)` for every probe, where `decided` is the caller's
/// ground truth for `Σ ⊨_f σ`. Returns offending probes.
pub fn armstrong_violations<'a>(
    rel: &Relation,
    probes: impl IntoIterator<Item = (&'a TdOrEgd, bool)>,
) -> Vec<usize> {
    probes
        .into_iter()
        .enumerate()
        .filter(|(_, (dep, expected))| dep.satisfied_by(rel) != *expected)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::fd_implies;

    fn u4() -> Arc<Universe> {
        Universe::typed(vec!["A", "B", "C", "D"])
    }

    #[test]
    fn product_preserves_fds_and_violations() {
        let u = u4();
        let mut pool = ValuePool::new(u.clone());
        let w1 = agreement_witness(&u, &mut pool, &u.set("AB"));
        let w2 = agreement_witness(&u, &mut pool, &u.set("C"));
        let prod = direct_product(&w1, &w2, &mut pool);
        assert_eq!(prod.len(), 4);
        // A fd violated in either factor is violated in the product.
        let fd = Fd::parse(&u, "AB -> C").unwrap();
        assert!(!fd.satisfied_by(&w1));
        assert!(!fd.satisfied_by(&prod));
        // A fd satisfied in both factors is satisfied in the product.
        let ok = Fd::parse(&u, "ABCD -> A").unwrap();
        assert!(ok.satisfied_by(&prod));
    }

    #[test]
    fn armstrong_for_simple_fd_set() {
        let u = u4();
        let mut pool = ValuePool::new(u.clone());
        let fds = vec![Fd::parse(&u, "A -> B").unwrap(), Fd::parse(&u, "B -> C").unwrap()];
        let arm = fd_armstrong(&u, &mut pool, &fds);
        // Probe EVERY single-attribute-rhs fd.
        for lhs_mask in 0..(1u32 << 4) {
            let x: AttrSet = u
                .attrs()
                .filter(|a| lhs_mask & (1 << a.index()) != 0)
                .collect();
            for a in u.attrs() {
                let goal = Fd::new(x.clone(), [a].into_iter().collect());
                assert_eq!(
                    goal.satisfied_by(&arm),
                    fd_implies(&fds, &goal),
                    "Armstrong biconditional fails for {}",
                    goal.render(&u)
                );
            }
        }
    }

    #[test]
    fn armstrong_for_empty_fd_set() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut pool = ValuePool::new(u.clone());
        let arm = fd_armstrong(&u, &mut pool, &[]);
        // Only trivial fds hold.
        assert!(Fd::parse(&u, "AB -> A").unwrap().satisfied_by(&arm));
        assert!(!Fd::parse(&u, "A -> B").unwrap().satisfied_by(&arm));
        assert!(!Fd::parse(&u, "B -> A").unwrap().satisfied_by(&arm));
    }

    #[test]
    fn armstrong_when_everything_is_a_key() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut pool = ValuePool::new(u.clone());
        let fds = vec![
            Fd::parse(&u, "A -> B").unwrap(),
            Fd::parse(&u, "B -> A").unwrap(),
        ];
        let arm = fd_armstrong(&u, &mut pool, &fds);
        for goal in ["A -> B", "B -> A", "A -> AB"] {
            let g = Fd::parse(&u, goal).unwrap();
            assert_eq!(g.satisfied_by(&arm), fd_implies(&fds, &g));
        }
    }

    #[test]
    fn violation_probe_reports_mismatches() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut pool = ValuePool::new(u.clone());
        let arm = fd_armstrong(&u, &mut pool, &[]);
        let egd = Fd::parse(&u, "A -> B").unwrap().to_egds(&u, &mut pool).remove(0);
        let dep = TdOrEgd::Egd(egd);
        // Claiming the fd should hold is a violation; claiming it fails is
        // not.
        assert_eq!(armstrong_violations(&arm, [(&dep, true)]), vec![0]);
        assert!(armstrong_violations(&arm, [(&dep, false)]).is_empty());
    }
}
