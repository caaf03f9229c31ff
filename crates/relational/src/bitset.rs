//! Growable attribute bitsets.
//!
//! Universes produced by the hat-translation of Section 6 have
//! `|U| · (m(m−1)/2 + 1)` attributes, which exceeds 64 already for modest
//! tableaux, so a fixed-width word is not enough. `AttrSet` is a compact
//! variable-width bitset ordered lexicographically by attribute index, with
//! its first word inline.

use crate::universe::AttrId;
use std::fmt;

/// A set of attributes, stored as a bitmap. Attributes 0–63 live in an
/// inline word, so sets over universes of up to 64 attributes never touch
/// the heap; wider universes spill the rest into `high`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AttrSet {
    /// Attributes 0–63.
    low: u64,
    /// Attributes from 64 up, 64 per word, with no trailing zero words (so
    /// derived `Eq`/`Hash` are semantic).
    high: Vec<u64>,
}

impl AttrSet {
    /// The empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Word `i` of the bitmap (0 past the end).
    #[inline]
    fn word(&self, i: usize) -> u64 {
        match i {
            0 => self.low,
            _ => self.high.get(i - 1).copied().unwrap_or(0),
        }
    }

    /// Number of stored words.
    fn words(&self) -> usize {
        1 + self.high.len()
    }

    /// The set whose word `i` is `f(i)` for `i < n`.
    fn from_words(n: usize, f: impl Fn(usize) -> u64) -> Self {
        let mut out = Self {
            low: f(0),
            high: (1..n).map(f).collect(),
        };
        out.normalize();
        out
    }

    /// Drops trailing zero words so that derived `Eq`/`Hash` are semantic.
    fn normalize(&mut self) {
        while self.high.last() == Some(&0) {
            self.high.pop();
        }
    }

    /// The set `{0, 1, …, n−1}` (all attributes of a width-`n` universe).
    pub fn full(n: usize) -> Self {
        Self::from_words(n.div_ceil(64).max(1), |i| match n.saturating_sub(64 * i) {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1 << k) - 1,
        })
    }

    /// Inserts `a`; returns `true` if it was not already present.
    pub fn insert(&mut self, a: AttrId) -> bool {
        let (w, b) = (a.0 as usize / 64, a.0 as usize % 64);
        let word = match w {
            0 => &mut self.low,
            _ => {
                if w > self.high.len() {
                    self.high.resize(w, 0);
                }
                &mut self.high[w - 1]
            }
        };
        let had = *word & (1 << b) != 0;
        *word |= 1 << b;
        !had
    }

    /// Removes `a`; returns `true` if it was present.
    pub fn remove(&mut self, a: AttrId) -> bool {
        let (w, b) = (a.0 as usize / 64, a.0 as usize % 64);
        let word = match w {
            0 => &mut self.low,
            _ if w > self.high.len() => return false,
            _ => &mut self.high[w - 1],
        };
        let had = *word & (1 << b) != 0;
        *word &= !(1 << b);
        self.normalize();
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, a: AttrId) -> bool {
        let (w, b) = (a.0 as usize / 64, a.0 as usize % 64);
        self.word(w) & (1 << b) != 0
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        (0..self.words())
            .map(|i| self.word(i).count_ones() as usize)
            .sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.words()).all(|i| self.word(i) == 0)
    }

    /// Union, written `XY` in the paper.
    pub fn union(&self, other: &Self) -> Self {
        let n = self.words().max(other.words());
        Self::from_words(n, |i| self.word(i) | other.word(i))
    }

    /// Intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        let n = self.words().min(other.words());
        Self::from_words(n, |i| self.word(i) & other.word(i))
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &Self) -> Self {
        Self::from_words(self.words(), |i| self.word(i) & !other.word(i))
    }

    /// Complement within a width-`n` universe, written `X̄` in the paper.
    pub fn complement(&self, n: usize) -> Self {
        Self::full(n).difference(self)
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        (0..self.words()).all(|i| self.word(i) & !other.word(i) == 0)
    }

    /// Iterates attributes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.words()).flat_map(move |wi| {
            let w = self.word(wi);
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| AttrId((wi * 64 + b) as u16))
        })
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let mut s = Self::new();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|a| a.0)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[u16]) -> AttrSet {
        items.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut x = AttrSet::new();
        assert!(x.insert(AttrId(3)));
        assert!(!x.insert(AttrId(3)));
        assert!(x.contains(AttrId(3)));
        assert!(!x.contains(AttrId(4)));
        assert!(x.remove(AttrId(3)));
        assert!(!x.remove(AttrId(3)));
        assert!(x.is_empty());
    }

    #[test]
    fn works_beyond_64_attributes() {
        let mut x = AttrSet::new();
        x.insert(AttrId(130));
        x.insert(AttrId(2));
        assert!(x.contains(AttrId(130)));
        assert_eq!(x.len(), 2);
        assert_eq!(x.iter().collect::<Vec<_>>(), vec![AttrId(2), AttrId(130)]);
    }

    #[test]
    fn union_intersection_difference() {
        let a = s(&[1, 2, 3]);
        let b = s(&[3, 4]);
        assert_eq!(a.union(&b), s(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), s(&[3]));
        assert_eq!(a.difference(&b), s(&[1, 2]));
    }

    #[test]
    fn complement_in_universe() {
        let a = s(&[0, 2]);
        assert_eq!(a.complement(4), s(&[1, 3]));
    }

    #[test]
    fn subset() {
        assert!(s(&[1]).is_subset(&s(&[1, 2])));
        assert!(!s(&[1, 3]).is_subset(&s(&[1, 2])));
        assert!(AttrSet::new().is_subset(&s(&[])));
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = s(&[1]);
        a.insert(AttrId(100));
        a.remove(AttrId(100));
        assert_eq!(a, s(&[1]), "remove() must drop trailing zero words");
        assert_eq!(a.len(), 1);
    }
}
