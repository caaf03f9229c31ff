//! Tuples — `U`-values in the paper's terminology (Section 2.1).

use crate::bitset::AttrSet;
use crate::universe::{AttrId, Universe};
use crate::value::{Value, ValuePool};
use std::fmt;

/// A tuple over a universe: one [`Value`] per column, in column order.
///
/// The width is implicit; all operations that combine tuples with relations
/// or universes check it. Construction through [`Tuple::checked`] also
/// verifies typedness (each value's sort matches its column).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values in column order (no typedness check).
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into_boxed_slice(),
        }
    }

    /// Builds a tuple, verifying width and (for typed universes) sorts.
    ///
    /// # Errors
    /// Returns a description of the first violation found.
    pub fn checked(
        universe: &Universe,
        pool: &ValuePool,
        values: Vec<Value>,
    ) -> Result<Self, String> {
        if values.len() != universe.width() {
            return Err(format!(
                "tuple width {} does not match universe width {}",
                values.len(),
                universe.width()
            ));
        }
        for (i, &v) in values.iter().enumerate() {
            let attr = AttrId(i as u16);
            if !pool.fits(v, attr) {
                return Err(format!(
                    "value {:?} ({}) has sort {:?} but sits in column {}",
                    v,
                    pool.name(v),
                    pool.sort(v).map(|a| universe.name(a).to_string()),
                    universe.name(attr),
                ));
            }
        }
        Ok(Self::new(values))
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Value in column `a` — `w[A]` in the paper.
    #[inline]
    pub fn get(&self, a: AttrId) -> Value {
        self.values[a.index()]
    }

    /// All values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Restriction `w[Y]`: the values of `self` on the attributes of `set`,
    /// in column order.
    pub fn restrict(&self, set: &AttrSet) -> Box<[Value]> {
        set.iter().map(|a| self.get(a)).collect()
    }

    /// `true` if `self[X] = other[X]`.
    pub fn agrees_on(&self, other: &Tuple, set: &AttrSet) -> bool {
        set.iter().all(|a| self.get(a) == other.get(a))
    }

    /// Replaces the value in column `a`, returning a new tuple.
    pub fn with(&self, a: AttrId, v: Value) -> Tuple {
        let mut values = self.values.to_vec();
        values[a.index()] = v;
        Tuple::new(values)
    }

    /// Applies `f` to every value, returning the image tuple — `α(w)`.
    pub fn map(&self, mut f: impl FnMut(Value) -> Value) -> Tuple {
        Tuple::new(self.values.iter().map(|&v| f(v)).collect())
    }

    /// `VAL(w)`: the set of values occurring in the tuple.
    pub fn val(&self) -> impl Iterator<Item = Value> + '_ {
        self.values.iter().copied()
    }

    /// Renders the tuple as `(v1, v2, …)` using pool names.
    pub fn render(&self, pool: &ValuePool) -> String {
        let parts: Vec<_> = self.values.iter().map(|&v| pool.name(v)).collect();
        format!("({})", parts.join(", "))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple{:?}", self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (std::sync::Arc<Universe>, ValuePool) {
        let u = Universe::typed_abcdef();
        let p = ValuePool::new(u.clone());
        (u, p)
    }

    #[test]
    fn checked_rejects_wrong_width() {
        let (u, mut p) = setup();
        let a = p.typed(u.a("A"), "a");
        assert!(Tuple::checked(&u, &p, vec![a]).is_err());
    }

    #[test]
    fn checked_rejects_sort_violation() {
        let (u, mut p) = setup();
        let a = p.typed(u.a("A"), "a");
        let vals: Vec<Value> = std::iter::repeat_n(a, 6).collect();
        let err = Tuple::checked(&u, &p, vals).unwrap_err();
        assert!(err.contains("column B"), "unexpected error: {err}");
    }

    #[test]
    fn checked_accepts_well_typed_row() {
        let (u, mut p) = setup();
        let vals: Vec<Value> = u.attrs().map(|a| p.fresh(Some(a), "x")).collect();
        let t = Tuple::checked(&u, &p, vals).unwrap();
        assert_eq!(t.width(), 6);
    }

    #[test]
    fn restrict_and_agrees() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b, c, d) = (
            p.untyped("a"),
            p.untyped("b"),
            p.untyped("c"),
            p.untyped("d"),
        );
        let t1 = Tuple::new(vec![a, b, c]);
        let t2 = Tuple::new(vec![a, b, d]);
        let ab = u.set("A' B'");
        assert!(t1.agrees_on(&t2, &ab));
        assert!(!t1.agrees_on(&t2, &u.all()));
        assert_eq!(&*t1.restrict(&ab), &[a, b]);
    }

    #[test]
    fn with_replaces_single_column() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b) = (p.untyped("a"), p.untyped("b"));
        let t = Tuple::new(vec![a, a, a]).with(u.a("B'"), b);
        assert_eq!(t.get(u.a("A'")), a);
        assert_eq!(t.get(u.a("B'")), b);
    }
}
