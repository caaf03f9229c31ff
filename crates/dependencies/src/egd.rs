//! Equality-generating dependencies (Section 2.3).
//!
//! An egd is a pair `(a = b, I)` with `a, b ∈ VAL(I)`. A relation `J`
//! satisfies it when every valuation `α` with `α(I) ⊆ J` has `α(a) = α(b)`.
//! In typed universes `a` and `b` must belong to the same attribute domain.

use std::ops::ControlFlow;
use std::sync::Arc;
use typedtd_relational::{
    Embedder, Relation, ScanScope, ScanStats, Tuple, Universe, Valuation, Value, ValuePool,
};

/// An equality-generating dependency `(a = b, I)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Egd {
    universe: Arc<Universe>,
    left: Value,
    right: Value,
    hypothesis: Vec<Tuple>,
}

impl Egd {
    /// Builds an egd.
    ///
    /// # Panics
    /// Panics if the hypothesis is empty, widths disagree, or `a`/`b` do not
    /// occur in the hypothesis.
    pub fn new(universe: Arc<Universe>, left: Value, right: Value, hypothesis: Vec<Tuple>) -> Self {
        assert!(!hypothesis.is_empty(), "egd hypothesis must be nonempty");
        for t in &hypothesis {
            assert_eq!(t.width(), universe.width());
        }
        let occurs = |v: Value| hypothesis.iter().any(|t| t.val().any(|x| x == v));
        assert!(occurs(left), "left side of egd must occur in hypothesis");
        assert!(occurs(right), "right side of egd must occur in hypothesis");
        Self {
            universe,
            left,
            right,
            hypothesis,
        }
    }

    /// The universe this egd is over.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Left value of the equality.
    pub fn left(&self) -> Value {
        self.left
    }

    /// Right value of the equality.
    pub fn right(&self) -> Value {
        self.right
    }

    /// Hypothesis rows `I`.
    pub fn hypothesis(&self) -> &[Tuple] {
        &self.hypothesis
    }

    /// The hypothesis as a relation.
    pub fn hypothesis_relation(&self) -> Relation {
        Relation::from_rows(self.universe.clone(), self.hypothesis.iter().cloned())
    }

    /// `true` if the equated values are literally equal (trivial egd).
    pub fn is_trivially_satisfied(&self) -> bool {
        self.left == self.right
    }

    /// Typedness check: rows are well-sorted and the two equated values have
    /// the same sort.
    pub fn check_typed(&self, pool: &ValuePool) -> Result<(), String> {
        for t in &self.hypothesis {
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
        if self.universe.is_typed() && pool.sort(self.left) != pool.sort(self.right) {
            return Err(format!(
                "egd equates values of different sorts: {} vs {}",
                pool.name(self.left),
                pool.name(self.right)
            ));
        }
        Ok(())
    }

    /// Decides `J ⊨ (a = b, I)`.
    pub fn satisfied_by(&self, j: &Relation) -> bool {
        assert_eq!(j.universe().width(), self.universe.width());
        let emb = Embedder::new(j);
        let violated = emb.for_each_embedding(&self.hypothesis, &Valuation::new(), |alpha| {
            if alpha.get(self.left) == alpha.get(self.right) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        !violated
    }

    /// Finds a valuation witnessing `J ⊭ (a = b, I)`, if any.
    pub fn violation(&self, j: &Relation) -> Option<Valuation> {
        let plan = Embedder::scan_plan(&self.hypothesis, &Valuation::new());
        let mut stats = ScanStats::default();
        self.violation_planned(&Embedder::new(j), ScanScope::Full, &plan, &mut stats)
    }

    /// Finds a violating valuation among the hypothesis embeddings `scope`
    /// admits, placing hypothesis rows in `plan` order ([`Embedder::scan`]
    /// with an empty seed). The chase caches plans per dependency and
    /// scans each pin of its delta in turn ([`ScanScope::Pinned`]).
    ///
    /// Complete relative to the semi-naive invariant: if every embedding
    /// avoiding the delta was previously verified non-violating (and the
    /// touched rows have not changed since), `None` from every pin means
    /// `J ⊨ self`.
    pub fn violation_planned(
        &self,
        emb: &Embedder<'_>,
        scope: ScanScope<'_>,
        plan: &[usize],
        stats: &mut ScanStats,
    ) -> Option<Valuation> {
        let mut witness = None;
        let seed = Valuation::new();
        emb.scan(&self.hypothesis, &seed, scope, plan, stats, |alpha| {
            if alpha.get(self.left) == alpha.get(self.right) {
                ControlFlow::Continue(())
            } else {
                witness = Some(alpha.to_valuation());
                ControlFlow::Break(())
            }
        });
        witness
    }

    /// Renders the egd as `a = b ⇐ I` via the given pool.
    pub fn render(&self, pool: &ValuePool) -> String {
        let rows: Vec<(String, &Tuple)> = self
            .hypothesis
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("w{}", i + 1), t))
            .collect();
        format!(
            "{} = {}  given\n{}",
            pool.name(self.left),
            pool.name(self.right),
            typedtd_relational::render_rows(&self.universe, pool, &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::td::egd_from_names;
    use typedtd_relational::{AttrId, RowDelta};

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
    fn fd_style_egd() {
        // A' → B' as egd: rows (x,y1,z1), (x,y2,z2) force y1 = y2.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let egd = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        );
        let good = rel(&u, &mut p, &[&["a", "b", "c"], &["a", "b", "d"]]);
        assert!(egd.satisfied_by(&good));
        let bad = rel(&u, &mut p, &[&["a", "b", "c"], &["a", "e", "d"]]);
        assert!(!egd.satisfied_by(&bad));
        assert!(egd.violation(&bad).is_some());
    }

    /// The semi-naive check: pinned scans over every pin of `delta`.
    fn violation_touching(egd: &Egd, j: &Relation, delta: &RowDelta) -> Option<Valuation> {
        let emb = Embedder::new(j);
        let plans = Embedder::touch_plans(egd.hypothesis(), &Valuation::new());
        let mut stats = ScanStats::default();
        plans.iter().enumerate().find_map(|(pin, plan)| {
            egd.violation_planned(&emb, ScanScope::Pinned { delta, pin }, plan, &mut stats)
        })
    }

    #[test]
    fn violation_touching_respects_delta() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let egd = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        );
        // Rows 0 and 1 are clean together; row 2 introduces the violation.
        let j = rel(
            &u,
            &mut p,
            &[&["a", "b", "c"], &["a", "b", "d"], &["a", "e", "f"]],
        );
        assert!(egd.violation(&j).is_some());
        // Any delta containing the offending row finds it …
        assert!(violation_touching(&egd, &j, &RowDelta::from_ids(vec![2])).is_some());
        // … and an empty delta scans nothing, violating relation or not.
        assert!(violation_touching(&egd, &j, &RowDelta::from_ids(vec![])).is_none());
    }

    #[test]
    fn trivial_egd() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let egd = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y", "z"]],
            ("A'", "x"),
            ("A'", "x"),
        );
        assert!(egd.is_trivially_satisfied());
        let j = rel(&u, &mut p, &[&["a", "b", "c"]]);
        assert!(egd.satisfied_by(&j));
    }

    #[test]
    fn typed_egd_rejects_cross_sort_equality() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut p = ValuePool::new(u.clone());
        let x = p.typed(u.a("A"), "x");
        let y = p.typed(u.a("B"), "y");
        let egd = Egd::new(u.clone(), x, y, vec![Tuple::new(vec![x, y])]);
        assert!(egd.check_typed(&p).is_err());
    }

    #[test]
    #[should_panic(expected = "must occur in hypothesis")]
    fn egd_values_must_occur() {
        let u = Universe::typed(vec!["A", "B"]);
        let mut p = ValuePool::new(u.clone());
        let x = p.typed(u.a("A"), "x");
        let y = p.typed(u.a("B"), "y");
        let ghost = p.typed(u.a("A"), "ghost");
        let _ = Egd::new(u.clone(), ghost, x, vec![Tuple::new(vec![x, y])]);
    }
}
