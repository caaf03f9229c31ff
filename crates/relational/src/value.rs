//! Interned domain values.
//!
//! Every domain element (and every variable of a tableau — the paper does not
//! distinguish the two, a dependency simply *is* a pair of a tuple and a
//! finite relation) is an interned [`Value`] handle. A [`ValuePool`] owns the
//! metadata: a display name and, for typed universes, the *sort* — the unique
//! attribute whose domain the value belongs to. Sorts make the paper's
//! typedness restriction (`A ≠ B ⟹ DOM(A) ∩ DOM(B) = ∅`) machine-checked.

use crate::fx::{FxHashMap, FxHashSet};
use crate::universe::{AttrId, Typing, Universe};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An interned domain value (or tableau variable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

impl Value {
    /// Raw interner index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// How a value is named.
#[derive(Clone)]
enum Name {
    /// A name the caller interned.
    Interned(Arc<str>),
    /// A fresh value: `"{prefixes[prefix]}{n}"`, rendered on demand.
    Fresh { prefix: u32, n: u32 },
}

/// Owner of value metadata for one universe.
///
/// Values are *interned* under a caller's name ([`ValuePool::typed`],
/// [`ValuePool::untyped`], [`ValuePool::for_attr`]) or minted *fresh*
/// ([`ValuePool::fresh`]): the chase's nulls, the search's domain values and
/// the variables normalization invents. A fresh value stores only its
/// prefix and a pool-wide counter; its name `"{prefix}{counter}"` is
/// rendered on demand by [`ValuePool::name`], so minting one allocates
/// nothing and cloning a pool copies no strings.
///
/// **Names are unique within a sort** (an untyped pool has one sort):
/// no two values of one sort ever render the same name, whichever was
/// created first. `fresh` skips a counter whose rendering an existing value
/// of the sort already has, and interning a name that a fresh value of the
/// sort renders returns that value. Interned names are kept as given.
#[derive(Clone)]
pub struct ValuePool {
    universe: Arc<Universe>,
    names: Vec<Name>,
    sorts: Vec<Option<AttrId>>,
    /// Interned values by name, one map per sort (see [`sort_slot`]), so
    /// a lookup borrows the name instead of building a key; fresh values
    /// are never entered.
    by_name: Vec<FxHashMap<Arc<str>, Value>>,
    /// Every prefix fresh values were minted with, once each.
    prefixes: Vec<Arc<str>>,
    /// Fresh values in minting order, which is ascending counter order.
    fresh_values: Vec<Value>,
    /// Counters that another name could render as: the numeric tails of
    /// interned names, and of fresh names whose prefix ends in a digit.
    /// Only these counters need a clash check when minted.
    reserved: FxHashSet<u32>,
    fresh: u32,
}

/// The index of `sort`'s name map in [`ValuePool`]: 0 for the untyped
/// domain, `1 + attr` for a typed sort.
fn sort_slot(sort: Option<AttrId>) -> usize {
    sort.map_or(0, |a| 1 + a.index())
}

/// The ways to read `name` as `"{prefix}{counter}"`: every split inside its
/// trailing run of ASCII digits whose counter has no leading zero and fits
/// a `u32`.
fn counter_splits(name: &str) -> impl Iterator<Item = (&str, u32)> {
    let digits = name.len() - name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    (name.len() - digits..name.len()).filter_map(move |k| {
        let tail = &name[k..];
        if tail.starts_with('0') {
            return None;
        }
        Some((&name[..k], tail.parse().ok()?))
    })
}

impl ValuePool {
    /// Creates an empty pool for `universe`.
    pub fn new(universe: Arc<Universe>) -> Self {
        Self {
            universe,
            names: Vec::new(),
            sorts: Vec::new(),
            by_name: Vec::new(),
            prefixes: Vec::new(),
            fresh_values: Vec::new(),
            reserved: FxHashSet::default(),
            fresh: 0,
        }
    }

    /// The universe this pool belongs to.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The value of sort `sort` named `name`, interning it if new.
    fn intern(&mut self, sort: Option<AttrId>, name: &str) -> Value {
        if let Some(v) = self.get(sort, name) {
            return v;
        }
        let v = Value(self.names.len() as u32);
        let name: Arc<str> = name.into();
        for (_, n) in counter_splits(&name) {
            self.reserved.insert(n);
        }
        let slot = sort_slot(sort);
        if self.by_name.len() <= slot {
            self.by_name.resize_with(slot + 1, FxHashMap::default);
        }
        self.by_name[slot].insert(name.clone(), v);
        self.names.push(Name::Interned(name));
        self.sorts.push(sort);
        v
    }

    /// Interns a value of attribute `attr`'s domain in a **typed** universe.
    ///
    /// Repeated calls with the same `(attr, name)` return the same handle.
    ///
    /// # Panics
    /// Panics if the universe is untyped.
    pub fn typed(&mut self, attr: AttrId, name: &str) -> Value {
        assert_eq!(
            self.universe.typing(),
            Typing::Typed,
            "typed() requires a typed universe; use untyped()"
        );
        self.intern(Some(attr), name)
    }

    /// Interns a value of the shared domain in an **untyped** universe.
    ///
    /// # Panics
    /// Panics if the universe is typed.
    pub fn untyped(&mut self, name: &str) -> Value {
        assert_eq!(
            self.universe.typing(),
            Typing::Untyped,
            "untyped() requires an untyped universe; use typed()"
        );
        self.intern(None, name)
    }

    /// Interns a value appropriate for `attr` under the pool's discipline:
    /// sorted in typed universes, unsorted otherwise.
    pub fn for_attr(&mut self, attr: AttrId, name: &str) -> Value {
        match self.universe.typing() {
            Typing::Typed => self.typed(attr, name),
            Typing::Untyped => self.untyped(name),
        }
    }

    /// Allocates a brand-new value that is distinct from every existing one.
    ///
    /// In a typed universe the value is sorted by `attr`. Its name is
    /// `"{prefix}{counter}"` with a pool-wide counter, rendered only when
    /// asked for; a counter whose rendering is already a name of the sort
    /// is skipped.
    pub fn fresh(&mut self, attr: Option<AttrId>, prefix: &str) -> Value {
        let sort = match self.universe.typing() {
            Typing::Typed => Some(attr.expect("typed universes require a sort for fresh values")),
            Typing::Untyped => None,
        };
        let p = match self.prefixes.iter().position(|q| **q == *prefix) {
            Some(p) => p,
            None => {
                self.prefixes.push(prefix.into());
                self.prefixes.len() - 1
            }
        };
        // A digit-final prefix renders names with several readings, and
        // another name may already read as `{prefix}{n}` for any `n`.
        let ambiguous = prefix.ends_with(|c: char| c.is_ascii_digit());
        loop {
            self.fresh += 1;
            let n = self.fresh;
            if (ambiguous || self.reserved.contains(&n))
                && self.get(sort, &format!("{prefix}{n}")).is_some()
            {
                continue;
            }
            if ambiguous {
                for (_, m) in counter_splits(&format!("{prefix}{n}")) {
                    self.reserved.insert(m);
                }
            }
            let v = Value(self.names.len() as u32);
            self.names.push(Name::Fresh { prefix: p as u32, n });
            self.sorts.push(sort);
            self.fresh_values.push(v);
            return v;
        }
    }

    /// Looks a value up by sort and name without interning it. Finds fresh
    /// values by their rendered names too.
    pub fn get(&self, sort: Option<AttrId>, name: &str) -> Option<Value> {
        if let Some(&v) = self.by_name.get(sort_slot(sort)).and_then(|m| m.get(name)) {
            return Some(v);
        }
        counter_splits(name).find_map(|(prefix, n)| {
            let p = self.prefixes.iter().position(|q| **q == *prefix)?;
            let at = self
                .fresh_values
                .binary_search_by_key(&n, |&v| match self.names[v.index()] {
                    Name::Fresh { n, .. } => n,
                    Name::Interned(_) => unreachable!("fresh_values holds fresh values"),
                })
                .ok()?;
            let v = self.fresh_values[at];
            let same_prefix =
                matches!(self.names[v.index()], Name::Fresh { prefix, .. } if prefix as usize == p);
            (same_prefix && self.sorts[v.index()] == sort).then_some(v)
        })
    }

    /// Display name of `v`: borrowed for interned values, rendered for
    /// fresh ones.
    pub fn name(&self, v: Value) -> Cow<'_, str> {
        match &self.names[v.index()] {
            Name::Interned(name) => Cow::Borrowed(name),
            Name::Fresh { prefix, n } => {
                Cow::Owned(format!("{}{n}", self.prefixes[*prefix as usize]))
            }
        }
    }

    /// Sort of `v` (`None` in untyped universes).
    pub fn sort(&self, v: Value) -> Option<AttrId> {
        self.sorts[v.index()]
    }

    /// `true` if `v` may legally appear in column `attr`.
    pub fn fits(&self, v: Value, attr: AttrId) -> bool {
        match self.sorts[v.index()] {
            None => true,
            Some(s) => s == attr,
        }
    }
}

impl fmt::Debug for ValuePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ValuePool({} values over {:?})", self.len(), self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_interning_is_idempotent() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let a1 = p.typed(u.a("A"), "a1");
        let a1_again = p.typed(u.a("A"), "a1");
        assert_eq!(a1, a1_again);
        assert_eq!(p.len(), 1);
        assert_eq!(p.name(a1), "a1");
        assert_eq!(p.sort(a1), Some(u.a("A")));
    }

    #[test]
    fn same_name_different_sorts_are_distinct() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let va = p.typed(u.a("A"), "x");
        let vb = p.typed(u.a("B"), "x");
        assert_ne!(va, vb);
        assert!(p.fits(va, u.a("A")));
        assert!(!p.fits(va, u.a("B")));
    }

    #[test]
    fn untyped_values_fit_everywhere() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let a = p.untyped("a");
        assert!(p.fits(a, u.a("A'")));
        assert!(p.fits(a, u.a("C'")));
    }

    #[test]
    fn fresh_values_never_collide() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        let named = p.untyped("n1");
        let f1 = p.fresh(None, "n");
        let f2 = p.fresh(None, "n");
        assert_ne!(f1, f2);
        assert_ne!(f1, named, "fresh must dodge existing names");
        assert_ne!(p.name(f1), p.name(named));
    }

    /// Fresh names are rendered on demand but stay unique within a sort
    /// whichever value came first: interning a fresh value's name finds
    /// that value, and no fresh value renders a name an earlier value has,
    /// even when a prefix ending in a digit gives a name two readings.
    #[test]
    fn fresh_names_stay_unique_in_either_order() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        let f1 = p.fresh(None, "n");
        assert_eq!(p.name(f1), "n1");
        assert_eq!(p.untyped("n1"), f1, "interning a fresh name finds the value");
        assert_eq!(p.get(None, "n1"), Some(f1));
        p.untyped("n13");
        p.fresh(None, "x");
        // Counter 3 would render "n1" + "3", an interned name.
        let c = p.fresh(None, "n1");
        assert_eq!(p.name(c), "n14");
        for _ in 5..14 {
            p.fresh(None, "x");
        }
        // Counter 14 would render "n" + "14", the name `c` has.
        let d = p.fresh(None, "n");
        assert_eq!(p.name(d), "n15");
        let names: std::collections::HashSet<String> =
            (0..p.len()).map(|i| p.name(Value(i as u32)).into_owned()).collect();
        assert_eq!(names.len(), p.len(), "every name is unique");
    }

    #[test]
    #[should_panic(expected = "typed() requires a typed universe")]
    fn typed_on_untyped_universe_panics() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let _ = p.typed(u.a("A'"), "a");
    }

    #[test]
    fn get_does_not_intern() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        assert!(p.get(None, "ghost").is_none());
        let v = p.untyped("ghost");
        assert_eq!(p.get(None, "ghost"), Some(v));
    }
}
