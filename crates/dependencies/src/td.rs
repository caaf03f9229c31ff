//! Template dependencies (Section 2.3 of the paper).
//!
//! A template dependency (td) is a pair `(w, I)` of a tuple `w` (the
//! *conclusion*) and a finite relation `I` (the *hypothesis*). A relation
//! `J` satisfies `(w, I)` when every valuation `α` with `α(I) ⊆ J` can be
//! extended to `w` so that `α(w) ∈ J`.

use crate::egd::Egd;
use std::ops::ControlFlow;
use typedtd_relational::{
    satisfies_row, AttrId, AttrSet, Embedder, Embedding, Relation, Tuple, Universe, Valuation,
    ValuePool,
};
use typedtd_relational::FxHashSet;
use std::sync::Arc;

/// A template dependency `(w, I)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Td {
    universe: Arc<Universe>,
    conclusion: Tuple,
    hypothesis: Vec<Tuple>,
}

impl Td {
    /// Builds a td from a conclusion tuple and hypothesis rows.
    ///
    /// # Panics
    /// Panics if the hypothesis is empty (relations are nonempty in the
    /// paper) or widths disagree with the universe.
    pub fn new(universe: Arc<Universe>, conclusion: Tuple, hypothesis: Vec<Tuple>) -> Self {
        assert!(!hypothesis.is_empty(), "td hypothesis must be nonempty");
        assert_eq!(conclusion.width(), universe.width());
        for t in &hypothesis {
            assert_eq!(t.width(), universe.width());
        }
        Self {
            universe,
            conclusion,
            hypothesis,
        }
    }

    /// The universe this td is over.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// The conclusion tuple `w`.
    pub fn conclusion(&self) -> &Tuple {
        &self.conclusion
    }

    /// The hypothesis rows `I`.
    pub fn hypothesis(&self) -> &[Tuple] {
        &self.hypothesis
    }

    /// The hypothesis as a relation.
    pub fn hypothesis_relation(&self) -> Relation {
        Relation::from_rows(self.universe.clone(), self.hypothesis.iter().cloned())
    }

    /// `VAL(I)`: values of the hypothesis.
    pub fn hypothesis_values(&self) -> FxHashSet<typedtd_relational::Value> {
        let mut s = FxHashSet::default();
        for t in &self.hypothesis {
            s.extend(t.val());
        }
        s
    }

    /// `true` if `(w, I)` is **V-total**: `VAL(w[V]) ⊆ VAL(I)`.
    pub fn is_v_total(&self, v: &AttrSet) -> bool {
        let vals = self.hypothesis_values();
        v.iter().all(|a| vals.contains(&self.conclusion.get(a)))
    }

    /// `true` if `(w, I)` is **total**: `VAL(w) ⊆ VAL(I)`.
    pub fn is_total(&self) -> bool {
        self.is_v_total(&self.universe.all())
    }

    /// Syntactic triviality: the conclusion is literally a hypothesis row
    /// (such a td is satisfied by every relation).
    pub fn is_trivially_satisfied(&self) -> bool {
        self.hypothesis.contains(&self.conclusion)
    }

    /// `REP(θ, A)` (Section 6): the set of *repeating* A-values — values
    /// `u[A]` of hypothesis rows that also occur as `w[A]` or as `v[A]`
    /// for a different hypothesis row `v`.
    pub fn rep(&self, a: AttrId) -> FxHashSet<typedtd_relational::Value> {
        let mut out = FxHashSet::default();
        for (i, u) in self.hypothesis.iter().enumerate() {
            let x = u.get(a);
            let repeats = x == self.conclusion.get(a)
                || self
                    .hypothesis
                    .iter()
                    .enumerate()
                    .any(|(j, v)| j != i && v.get(a) == x);
            if repeats {
                out.insert(x);
            }
        }
        out
    }

    /// `true` if the td is **k-simple**: `|REP(θ, A)| ≤ k` for all `A`.
    ///
    /// Shallow tds are exactly the 1-simple tds; the generalized join
    /// dependencies of Sciore are the 2-simple tds.
    pub fn is_k_simple(&self, k: usize) -> bool {
        self.universe.attrs().all(|a| self.rep(a).len() <= k)
    }

    /// `true` if the td is **shallow** (1-simple).
    pub fn is_shallow(&self) -> bool {
        self.is_k_simple(1)
    }

    /// Checks typedness of all rows against a pool.
    pub fn check_typed(&self, pool: &ValuePool) -> Result<(), String> {
        for t in self.hypothesis.iter().chain(std::iter::once(&self.conclusion)) {
            for a in self.universe.attrs() {
                if !pool.fits(t.get(a), a) {
                    return Err(format!(
                        "value {} may not appear in column {}",
                        pool.name(t.get(a)),
                        self.universe.name(a)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decides `J ⊨ (w, I)` by enumerating all valuations of the hypothesis
    /// into `J` and checking each extends to the conclusion.
    pub fn satisfied_by(&self, j: &Relation) -> bool {
        assert_eq!(j.universe().width(), self.universe.width());
        self.violation_in(j, |_| ()).is_none()
    }

    /// Finds a valuation witnessing `J ⊭ (w, I)`, if one exists.
    pub fn violation(&self, j: &Relation) -> Option<Valuation> {
        self.violation_in(j, |alpha| alpha.to_valuation())
    }

    /// The first hypothesis embedding into `J` that does not extend to the
    /// conclusion, handed to `keep`. The conclusion check borrows the
    /// embedding, so only the kept witness is materialized.
    fn violation_in<T>(&self, j: &Relation, keep: impl FnOnce(Embedding<'_>) -> T) -> Option<T> {
        let mut scratch = Vec::new();
        let mut keep = Some(keep);
        let mut witness = None;
        Embedder::new(j).for_each_embedding(&self.hypothesis, &Valuation::new(), |alpha| {
            if satisfies_row(j, &self.conclusion, alpha, &mut scratch) {
                ControlFlow::Continue(())
            } else {
                witness = keep.take().map(|k| k(alpha));
                ControlFlow::Break(())
            }
        });
        witness
    }

    /// Number of hypothesis rows, written `|I|` in the paper (the `m` of the
    /// Section 6 translation).
    pub fn arity(&self) -> usize {
        self.hypothesis.len()
    }

    /// Renders the td in the paper's two-block style via the given pool.
    pub fn render(&self, pool: &ValuePool) -> String {
        let mut rows: Vec<(String, &Tuple)> = vec![("w".to_string(), &self.conclusion)];
        for (i, t) in self.hypothesis.iter().enumerate() {
            rows.push((format!("w{}", i + 1), t));
        }
        typedtd_relational::render_rows(&self.universe, pool, &rows)
    }
}

/// Convenience builder used throughout tests, examples, and the reductions:
/// constructs a td over `universe` from rows of value names.
///
/// Every name is interned via [`ValuePool::for_attr`], so in typed universes
/// the same name in different columns denotes *different* values (disjoint
/// domains), exactly as in the paper's examples.
pub fn td_from_names(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    hypothesis: &[&[&str]],
    conclusion: &[&str],
) -> Td {
    let mk_row = |pool: &mut ValuePool, names: &[&str]| -> Tuple {
        assert_eq!(names.len(), universe.width(), "row width mismatch");
        Tuple::new(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| pool.for_attr(AttrId(i as u16), n))
                .collect(),
        )
    };
    let hyp: Vec<Tuple> = hypothesis.iter().map(|r| mk_row(pool, r)).collect();
    let w = mk_row(pool, conclusion);
    Td::new(universe.clone(), w, hyp)
}

/// Convenience builder for egds from rows of value names; the equated pair
/// is given as `(column, name)` coordinates.
pub fn egd_from_names(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    hypothesis: &[&[&str]],
    left: (&str, &str),
    right: (&str, &str),
) -> Egd {
    let mk_row = |pool: &mut ValuePool, names: &[&str]| -> Tuple {
        assert_eq!(names.len(), universe.width(), "row width mismatch");
        Tuple::new(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| pool.for_attr(AttrId(i as u16), n))
                .collect(),
        )
    };
    let hyp: Vec<Tuple> = hypothesis.iter().map(|r| mk_row(pool, r)).collect();
    let l = pool.for_attr(universe.a(left.0), left.1);
    let r = pool.for_attr(universe.a(right.0), right.1);
    Egd::new(universe.clone(), l, r, hyp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(u: &Arc<Universe>, p: &mut ValuePool, rows: &[&[&str]]) -> Relation {
        Relation::from_rows(
            u.clone(),
            rows.iter().map(|r| {
                Tuple::new(
                    r.iter()
                        .enumerate()
                        .map(|(i, n)| p.for_attr(AttrId(i as u16), n))
                        .collect(),
                )
            }),
        )
    }

    #[test]
    fn totality_flags() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let total = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "z"]);
        assert!(total.is_total());
        let partial = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "q"]);
        assert!(!partial.is_total());
        assert!(partial.is_v_total(&u.set("A' B'")));
        assert!(!partial.is_v_total(&u.set("C'")));
    }

    #[test]
    fn trivial_td_is_always_satisfied() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let td = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "z"]);
        assert!(td.is_trivially_satisfied());
        let j = rel(&u, &mut p, &[&["a", "b", "c"], &["d", "e", "f"]]);
        assert!(td.satisfied_by(&j));
    }

    #[test]
    fn mvd_style_td_satisfaction() {
        // td encoding of A' ↠ B': rows (x,y1,z1), (x,y2,z2) imply (x,y1,z2).
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let td = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        // Closed under the exchange: satisfied.
        let good = rel(
            &u,
            &mut p,
            &[
                &["a", "b1", "c1"],
                &["a", "b2", "c2"],
                &["a", "b1", "c2"],
                &["a", "b2", "c1"],
            ],
        );
        assert!(td.satisfied_by(&good));
        // Missing the exchanged tuple: violated.
        let bad = rel(&u, &mut p, &[&["a", "b1", "c1"], &["a", "b2", "c2"]]);
        assert!(!td.satisfied_by(&bad));
        let w = td.violation(&bad).expect("violation witness");
        // The witness maps the two hypothesis rows onto the two tuples.
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn existential_conclusion_value() {
        // td: if (x,y,z) then exists (x, y, fresh-anything).
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let td = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "free"]);
        let j = rel(&u, &mut p, &[&["a", "b", "c"]]);
        // The row itself witnesses the existential.
        assert!(td.satisfied_by(&j));
    }

    #[test]
    fn rep_and_shallowness() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        // Join-dependency tableau *[A'B', B'C']: shallow.
        let jd_td = td_from_names(
            &u,
            &mut p,
            &[&["x", "y", "q1"], &["q2", "y", "z"]],
            &["x", "y", "z"],
        );
        assert!(jd_td.is_shallow());
        assert_eq!(jd_td.rep(u.a("B'")).len(), 1);
        assert_eq!(jd_td.rep(u.a("A'")).len(), 1); // x repeats via w[A']
        // Two distinct repeating values in one column: not shallow.
        let deep = td_from_names(
            &u,
            &mut p,
            &[
                &["x", "y", "c1"],
                &["x", "y2", "c2"],
                &["x2", "y", "c3"],
                &["x2", "y2", "c4"],
            ],
            &["x", "y2", "c5"],
        );
        assert!(!deep.is_shallow());
        assert!(deep.is_k_simple(2));
    }

    #[test]
    fn typed_same_names_in_distinct_columns_are_distinct_values() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut p = ValuePool::new(u.clone());
        let td = td_from_names(&u, &mut p, &[&["x", "x"]], &["x", "x"]);
        // The two `x`s are different (disjoint domains): the td is typed-ok.
        td.check_typed(&p).unwrap();
        let vals = td.hypothesis_values();
        assert_eq!(vals.len(), 2);
    }
}
