//! Relations, projections, natural joins, and the project-join mapping
//! `m_R` (Sections 2.1 and 6 of the paper).
//!
//! # Columnar layout
//!
//! A [`Relation`] stores its tuples as **flat column vectors**: one
//! `Vec<Value>` per attribute (and a [`Value`] is a `u32` handle into the
//! owning [`ValuePool`]'s arena, so each column is machine-word-flat). The
//! chase's hot loops — embedding search probing `(column, value) → rows`
//! postings, egd rewrites patching one column value — read single cells of
//! single columns, and the columnar layout makes those reads contiguous
//! instead of chasing one heap allocation per row.
//!
//! Row identity is maintained without materializing tuples: a row-hash
//! bucket map (`hash → candidate row ids`) answers duplicate checks by
//! column-wise comparison, and a memoized per-value occurrence count keeps
//! `VAL(I)` available as an allocation-free view. The [`Tuple`] API stays
//! as a thin adapter ([`Relation::row_tuple`], [`Relation::tuples`]) for
//! cold callers; hot callers use [`Relation::cell`] / [`RowRef`].
//!
//! ## Invariants
//!
//! * every column vector has exactly `len()` entries (rectangularity);
//! * `seen` holds every row id exactly once, under its current row hash;
//! * [`ColumnIndex`] postings are sorted ascending and list exactly the
//!   rows holding the value in that column;
//! * `val_counts[v]` equals the number of cells holding `v`, and its key
//!   set is exactly `VAL(I)`.

use crate::bitset::AttrSet;
use crate::fx::{FxHashMap, FxHashSet, FxHasher};
use crate::tuple::Tuple;
use crate::universe::{AttrId, Universe};
use crate::value::{Value, ValuePool};
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Hash of a row's values in column order (the dedup key).
fn row_hash(vals: impl IntoIterator<Item = Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in vals {
        h.write_u32(v.0);
    }
    h.finish()
}

/// A finite relation: a duplicate-free, insertion-ordered set of tuples over
/// one universe, stored columnar (see the module docs).
///
/// Insertion order is preserved so that the paper's tables print
/// byte-for-byte; equality is *set* equality and ignores order.
///
/// The relation maintains its own inverted [`ColumnIndex`] incrementally:
/// [`Relation::insert`] appends postings and [`Relation::rewrite_value`]
/// (the equality-generating chase step) patches exactly the postings of the
/// rewritten value. Embedding search therefore never pays an index build.
#[derive(Clone)]
pub struct Relation {
    universe: Arc<Universe>,
    /// One flat vector per attribute: `cols[a][row]`.
    cols: Vec<Vec<Value>>,
    /// Row-hash buckets: `row_hash → rows with that hash` (dedup without
    /// storing tuples; collisions resolved by column-wise comparison).
    seen: FxHashMap<u64, RowIds>,
    index: ColumnIndex,
    /// Memoized `VAL(I)` with per-value cell-occurrence counts.
    val_counts: FxHashMap<Value, u32>,
}

impl Relation {
    /// Creates an empty relation over `universe`.
    pub fn new(universe: Arc<Universe>) -> Self {
        let width = universe.width();
        Self {
            universe,
            cols: vec![Vec::new(); width],
            seen: FxHashMap::default(),
            index: ColumnIndex::new(width),
            val_counts: FxHashMap::default(),
        }
    }

    /// Creates a relation from rows (duplicates are dropped), sized up
    /// front for as many rows as the iterator promises.
    pub fn from_rows(universe: Arc<Universe>, rows: impl IntoIterator<Item = Tuple>) -> Self {
        let rows = rows.into_iter();
        let mut r = Self::with_capacity(universe, rows.size_hint().0);
        for t in rows {
            r.insert(t);
        }
        r
    }

    /// An empty relation with room for `rows` rows before any column,
    /// dedup bucket or posting map grows.
    pub fn with_capacity(universe: Arc<Universe>, rows: usize) -> Self {
        let mut r = Self::new(universe);
        for col in &mut r.cols {
            col.reserve(rows);
        }
        r.seen.reserve(rows);
        for col in &mut r.index.cols {
            col.reserve(rows);
        }
        r.val_counts.reserve(rows * r.cols.len());
        r
    }

    /// The universe of this relation.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple width does not match the universe.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.insert_values(t.values())
    }

    /// Inserts a row given as a value slice in column order; returns `true`
    /// if it was new. Builds no [`Tuple`].
    ///
    /// # Panics
    /// Panics if the slice width does not match the universe.
    pub fn insert_values(&mut self, vals: &[Value]) -> bool {
        assert_eq!(vals.len(), self.cols.len(), "row width must match universe width");
        let h = row_hash(vals.iter().copied());
        if let Some(cands) = self.seen.get(&h) {
            if cands.iter().any(|&i| self.row_equals(i as usize, vals)) {
                return false;
            }
        }
        let id = self.len() as u32;
        for (a, &v) in vals.iter().enumerate() {
            self.cols[a].push(v);
            *self.val_counts.entry(v).or_insert(0) += 1;
        }
        self.index.add_row(id, vals);
        self.seen.entry(h).or_default().push(id);
        true
    }

    /// Column-wise comparison of row `i` against a value slice.
    #[inline]
    fn row_equals(&self, i: usize, vals: &[Value]) -> bool {
        self.cols.iter().zip(vals).all(|(col, &v)| col[i] == v)
    }

    /// Hash of row `i`'s current values.
    fn hash_of_row(&self, i: usize) -> u64 {
        row_hash(self.cols.iter().map(|col| col[i]))
    }

    /// Membership test for a value slice in column order.
    pub fn contains_values(&self, vals: &[Value]) -> bool {
        debug_assert_eq!(vals.len(), self.universe.width());
        let h = row_hash(vals.iter().copied());
        self.seen
            .get(&h)
            .is_some_and(|cands| cands.iter().any(|&i| self.row_equals(i as usize, vals)))
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        t.width() == self.universe.width() && self.contains_values(t.values())
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// `true` if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols[0].is_empty()
    }

    /// The value in row `row`, column `a` — the hot-path cell accessor.
    #[inline]
    pub fn cell(&self, row: usize, a: AttrId) -> Value {
        self.cols[a.index()][row]
    }

    /// The flat column vector of attribute `a` (all of `I[A]`, row order,
    /// with repetitions).
    pub fn column(&self, a: AttrId) -> &[Value] {
        &self.cols[a.index()]
    }

    /// A borrowed view of row `i` (no allocation).
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        RowRef {
            cols: &self.cols,
            i,
        }
    }

    /// Row `i` materialized as a [`Tuple`] (the compatibility adapter).
    pub fn row_tuple(&self, i: usize) -> Tuple {
        Tuple::new(self.cols.iter().map(|col| col[i]).collect())
    }

    /// Iterates borrowed row views in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// All rows materialized as [`Tuple`]s, in insertion order (the
    /// compatibility adapter for cold callers).
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.row_tuple(i)).collect()
    }

    /// `VAL(I)`: every value appearing anywhere in the relation, as an
    /// allocation-free view (memoized; unspecified order).
    pub fn val(&self) -> impl Iterator<Item = Value> + '_ {
        self.val_counts.keys().copied()
    }

    /// `|VAL(I)|` in O(1).
    pub fn val_count(&self) -> usize {
        self.val_counts.len()
    }

    /// `true` if `v` occurs anywhere in the relation, in O(1).
    pub fn contains_value(&self, v: Value) -> bool {
        self.val_counts.contains_key(&v)
    }

    /// `I[A]` as a set view: the distinct values appearing in column `a`
    /// (allocation-free; unspecified order).
    pub fn column_values(&self, a: AttrId) -> impl Iterator<Item = Value> + '_ {
        self.index.column_values(a)
    }

    /// The projection `I[X]` (an X-relation).
    pub fn project(&self, set: &AttrSet) -> Projection {
        let attrs: Vec<AttrId> = set.iter().collect();
        let mut rows = FxHashSet::default();
        for i in 0..self.len() {
            rows.insert(attrs.iter().map(|&a| self.cell(i, a)).collect());
        }
        Projection { attrs, rows }
    }

    /// Applies a total valuation, returning the image relation `α(I)`.
    ///
    /// # Panics
    /// Panics if some value of the relation is not in the valuation's domain.
    pub fn map(&self, f: &FxHashMap<Value, Value>) -> Relation {
        let mut out = Relation::with_capacity(self.universe.clone(), self.len());
        let mut buf: Vec<Value> = Vec::with_capacity(self.universe.width());
        for i in 0..self.len() {
            buf.clear();
            buf.extend(self.cols.iter().map(|col| {
                let v = col[i];
                *f.get(&v)
                    .unwrap_or_else(|| panic!("valuation undefined on {v:?}"))
            }));
            out.insert_values(&buf);
        }
        out
    }

    /// Set-union of two relations over the same universe.
    pub fn union(&self, other: &Relation) -> Relation {
        assert!(Arc::ptr_eq(&self.universe, &other.universe) || self.universe == other.universe);
        let mut out = self.clone();
        let mut buf: Vec<Value> = Vec::with_capacity(self.universe.width());
        for i in 0..other.len() {
            buf.clear();
            buf.extend(other.cols.iter().map(|col| col[i]));
            out.insert_values(&buf);
        }
        out
    }

    /// `true` if every tuple of `self` is in `other`.
    pub fn is_subrelation_of(&self, other: &Relation) -> bool {
        let mut buf: Vec<Value> = Vec::with_capacity(self.universe.width());
        (0..self.len()).all(|i| {
            buf.clear();
            buf.extend(self.cols.iter().map(|col| col[i]));
            other.contains_values(&buf)
        })
    }

    /// Verifies that every value sits in a column compatible with its sort.
    pub fn check_typed(&self, pool: &ValuePool) -> Result<(), String> {
        for a in self.universe.attrs() {
            for &v in &self.cols[a.index()] {
                if !pool.fits(v, a) {
                    return Err(format!(
                        "value {} may not appear in column {}",
                        pool.name(v),
                        self.universe.name(a)
                    ));
                }
            }
        }
        Ok(())
    }

    /// The incrementally maintained index from `(column, value)` to row
    /// positions. Always consistent with the stored rows.
    pub fn index(&self) -> &ColumnIndex {
        &self.index
    }

    /// Replaces every occurrence of `from` by `to`, in place — the
    /// equality-generating chase's row rewrite.
    ///
    /// Affected rows are located through the index (no full scan), and when
    /// no rows collapse into duplicates the columns are patched in place and
    /// `from`'s postings migrate to `to`. Returns `None` if `from` does not
    /// occur (or equals `to`); otherwise a [`RewriteReport`] naming the
    /// surviving rewritten rows and any removed duplicates.
    ///
    /// When a rewritten row collides with another row, the *first occurrence
    /// in row order of the resulting tuple* survives; later copies are
    /// removed and subsequent rows shift down, exactly as if all rows had
    /// been re-inserted in order.
    pub fn rewrite_value(&mut self, from: Value, to: Value) -> Option<RewriteReport> {
        if from == to {
            return None;
        }
        let width = self.universe.width();
        let mut affected: Vec<u32> = Vec::new();
        for a in self.universe.attrs() {
            affected.extend_from_slice(self.index.rows_with(a, from));
        }
        if affected.is_empty() {
            return None;
        }
        affected.sort_unstable();
        affected.dedup();

        // Optimistic fast path: detect collisions before touching anything.
        // An image may collide with an untouched row or with an earlier
        // image (two affected rows can rewrite to the same tuple).
        let mut images: Vec<Value> = Vec::with_capacity(affected.len() * width);
        let mut image_hashes: Vec<u64> = Vec::with_capacity(affected.len());
        let mut image_buckets: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut collision = false;
        'detect: for (k, &i) in affected.iter().enumerate() {
            let start = images.len();
            for a in 0..width {
                let v = self.cols[a][i as usize];
                images.push(if v == from { to } else { v });
            }
            let img = &images[start..start + width];
            let h = row_hash(img.iter().copied());
            if let Some(prev) = image_buckets.get(&h) {
                for &p in prev {
                    if images[p * width..(p + 1) * width] == *img {
                        collision = true;
                        break 'detect;
                    }
                }
            }
            if let Some(cands) = self.seen.get(&h) {
                for &j in cands.iter() {
                    if affected.binary_search(&j).is_err() && self.row_equals(j as usize, img) {
                        collision = true;
                        break 'detect;
                    }
                }
            }
            image_hashes.push(h);
            image_buckets.entry(h).or_default().push(k);
        }

        if !collision {
            // No collapse: commit the images in place; `from`'s postings
            // migrate wholesale to `to`, and all of `from`'s cell
            // occurrences transfer to `to`'s count.
            for &i in &affected {
                let h_old = self.hash_of_row(i as usize);
                let bucket = self.seen.get_mut(&h_old).expect("row hashed");
                bucket.remove(i);
                if bucket.is_empty() {
                    self.seen.remove(&h_old);
                }
            }
            for (k, &i) in affected.iter().enumerate() {
                for a in 0..width {
                    self.cols[a][i as usize] = images[k * width + a];
                }
                self.seen.entry(image_hashes[k]).or_default().push(i);
            }
            self.index.merge_value_postings(from, to);
            let moved = self.val_counts.remove(&from).expect("from occurs");
            *self.val_counts.entry(to).or_insert(0) += moved;
            return Some(RewriteReport {
                changed: affected,
                removed: Vec::new(),
            });
        }

        // Slow path — some rows collapse. Replay the reference semantics
        // ("rewrite every row, re-insert in order, first occurrence wins"),
        // rebuilding columns, buckets, index, and counts from scratch. Note
        // the survivor of a collision group is the *earliest position*,
        // which may itself be a rewritten row standing in front of an
        // untouched duplicate.
        let n = self.len();
        let old_cols = std::mem::replace(&mut self.cols, vec![Vec::with_capacity(n); width]);
        self.seen.clear();
        self.index.clear();
        self.val_counts.clear();
        let mut changed: Vec<u32> = Vec::new();
        let mut removed: Vec<u32> = Vec::new();
        let mut buf: Vec<Value> = Vec::with_capacity(width);
        for i in 0..n {
            let was_affected = affected.binary_search(&(i as u32)).is_ok();
            buf.clear();
            for col in &old_cols {
                let v = col[i];
                buf.push(if v == from { to } else { v });
            }
            if !self.insert_values(&buf) {
                removed.push(i as u32);
                continue;
            }
            if was_affected {
                changed.push(self.len() as u32 - 1);
            }
        }
        Some(RewriteReport { changed, removed })
    }
}

/// A borrowed, allocation-free view of one relation row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    cols: &'a [Vec<Value>],
    i: usize,
}

impl<'a> RowRef<'a> {
    /// Value in column `a` — `w[A]` in the paper.
    #[inline]
    pub fn get(&self, a: AttrId) -> Value {
        self.cols[a.index()][self.i]
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Row position within the relation.
    pub fn position(&self) -> usize {
        self.i
    }

    /// All values in column order.
    pub fn values(&self) -> impl Iterator<Item = Value> + 'a {
        let i = self.i;
        self.cols.iter().map(move |col| col[i])
    }

    /// Values restricted to `set`, in column order.
    pub fn restrict(self, set: &AttrSet) -> Box<[Value]> {
        set.iter().map(|a| self.get(a)).collect()
    }

    /// `true` if the two rows agree on every attribute of `set`.
    pub fn agrees_on(self, other: RowRef<'_>, set: &AttrSet) -> bool {
        set.iter().all(|a| self.get(a) == other.get(a))
    }

    /// Materializes the row as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values().collect())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowRef{:?}", self.values().collect::<Vec<_>>())
    }
}

/// What [`Relation::rewrite_value`] did to the row set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteReport {
    /// Row positions (post-compaction) whose tuple was rewritten.
    pub changed: Vec<u32>,
    /// Pre-compaction positions of rows removed as duplicates, ascending.
    /// When nonempty, every position after `removed[0]` has shifted down.
    pub removed: Vec<u32>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.len() == other.len()
            && self.is_subrelation_of(other)
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({} rows over {:?})", self.len(), self.universe)
    }
}

/// Inverted index over a relation: per attribute, `value → rows`.
///
/// Posting lists are kept sorted ascending by row position; every mutation
/// preserves that invariant, so iteration over candidates is deterministic.
#[derive(Clone)]
pub struct ColumnIndex {
    cols: Vec<FxHashMap<Value, RowIds>>,
}

impl ColumnIndex {
    fn new(width: usize) -> Self {
        Self {
            cols: vec![FxHashMap::default(); width],
        }
    }

    /// Row positions whose column `a` holds `v`, ascending.
    pub fn rows_with(&self, a: AttrId, v: Value) -> &[u32] {
        self.cols[a.index()].get(&v).map_or(&[], |ids| ids)
    }

    /// Distinct values present in column `a` (unspecified order). Every
    /// yielded value has a non-empty posting list.
    pub fn column_values(&self, a: AttrId) -> impl Iterator<Item = Value> + '_ {
        self.cols[a.index()].keys().copied()
    }

    /// Appends postings for a row being pushed at position `id`.
    fn add_row(&mut self, id: u32, vals: &[Value]) {
        for (col, &v) in self.cols.iter_mut().zip(vals) {
            col.entry(v).or_default().push(id);
        }
    }

    /// Moves every posting of `from` into `to`'s lists (merge of two sorted,
    /// disjoint lists per column).
    fn merge_value_postings(&mut self, from: Value, to: Value) {
        for col in &mut self.cols {
            let Some(old) = col.remove(&from) else {
                continue;
            };
            let entry = col.entry(to).or_default();
            if entry.is_empty() {
                *entry = old;
            } else {
                let mut merged = Vec::with_capacity(entry.len() + old.len());
                let (mut i, mut j) = (0, 0);
                while i < entry.len() && j < old.len() {
                    if entry[i] < old[j] {
                        merged.push(entry[i]);
                        i += 1;
                    } else {
                        merged.push(old[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&entry[i..]);
                merged.extend_from_slice(&old[j..]);
                *entry = RowIds::from(merged);
            }
        }
    }

    /// Drops every posting (used before a from-scratch replay).
    fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
    }
}

/// Row positions: a posting list or a dedup bucket. Up to [`INLINE_IDS`]
/// positions live inline: most values of a tableau or chase instance sit in
/// one or two rows, and most row hashes are unique, so building a relation
/// rarely allocates per value or per row.
#[derive(Clone)]
enum RowIds {
    Inline(u8, [u32; INLINE_IDS]),
    Heap(Vec<u32>),
}

/// Positions a [`RowIds`] holds without allocating.
const INLINE_IDS: usize = 3;

impl Default for RowIds {
    fn default() -> Self {
        RowIds::Inline(0, [0; INLINE_IDS])
    }
}

impl From<Vec<u32>> for RowIds {
    fn from(ids: Vec<u32>) -> Self {
        if ids.len() <= INLINE_IDS {
            let mut inline = [0; INLINE_IDS];
            inline[..ids.len()].copy_from_slice(&ids);
            RowIds::Inline(ids.len() as u8, inline)
        } else {
            RowIds::Heap(ids)
        }
    }
}

impl std::ops::Deref for RowIds {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            RowIds::Inline(n, ids) => &ids[..*n as usize],
            RowIds::Heap(ids) => ids,
        }
    }
}

impl RowIds {
    fn push(&mut self, id: u32) {
        match self {
            RowIds::Inline(n, ids) if (*n as usize) < INLINE_IDS => {
                ids[*n as usize] = id;
                *n += 1;
            }
            RowIds::Inline(_, ids) => {
                let mut heap = Vec::with_capacity(2 * INLINE_IDS);
                heap.extend_from_slice(ids);
                heap.push(id);
                *self = RowIds::Heap(heap);
            }
            RowIds::Heap(ids) => ids.push(id),
        }
    }

    fn remove(&mut self, id: u32) {
        match self {
            RowIds::Inline(n, ids) => {
                if let Some(at) = ids[..*n as usize].iter().position(|&i| i == id) {
                    ids.copy_within(at + 1..*n as usize, at);
                    *n -= 1;
                }
            }
            RowIds::Heap(ids) => ids.retain(|&i| i != id),
        }
    }
}

/// An X-relation: the result of projecting onto an attribute set, or of a
/// join of such projections. Attribute order is the column order of the
/// parent universe.
#[derive(Clone, PartialEq, Eq)]
pub struct Projection {
    attrs: Vec<AttrId>,
    rows: FxHashSet<Box<[Value]>>,
}

impl Projection {
    /// The attributes (schema) of this projection, in column order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row set.
    pub fn rows(&self) -> &FxHashSet<Box<[Value]>> {
        &self.rows
    }

    /// Projects this projection further onto `set ⊆ attrs`.
    pub fn project(&self, set: &AttrSet) -> Projection {
        let keep: Vec<usize> = self
            .attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| set.contains(**a))
            .map(|(i, _)| i)
            .collect();
        let attrs = keep.iter().map(|&i| self.attrs[i]).collect();
        let mut rows = FxHashSet::default();
        for r in &self.rows {
            rows.insert(keep.iter().map(|&i| r[i]).collect());
        }
        Projection { attrs, rows }
    }

    /// Natural join with `other` on their shared attributes.
    ///
    /// The result's schema is the union of the two schemas in parent-universe
    /// column order. This is the engine behind the project-join mapping.
    pub fn join(&self, other: &Projection) -> Projection {
        // Positions of shared attributes in each side.
        let shared: Vec<(usize, usize)> = self
            .attrs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| other.attrs.iter().position(|b| b == a).map(|j| (i, j)))
            .collect();
        let other_extra: Vec<usize> = (0..other.attrs.len())
            .filter(|&j| !shared.iter().any(|&(_, sj)| sj == j))
            .collect();

        // Output schema: self.attrs ++ other extras, then sorted by AttrId to
        // keep the canonical column order.
        let mut attrs: Vec<AttrId> = self.attrs.clone();
        attrs.extend(other_extra.iter().map(|&j| other.attrs[j]));
        let mut order: Vec<usize> = (0..attrs.len()).collect();
        order.sort_by_key(|&i| attrs[i]);
        let out_attrs: Vec<AttrId> = order.iter().map(|&i| attrs[i]).collect();

        // Hash join: bucket `other` rows by shared-attr key.
        let mut buckets: FxHashMap<Box<[Value]>, Vec<&Box<[Value]>>> = FxHashMap::default();
        for r in &other.rows {
            let key: Box<[Value]> = shared.iter().map(|&(_, j)| r[j]).collect();
            buckets.entry(key).or_default().push(r);
        }

        let mut rows = FxHashSet::default();
        for l in &self.rows {
            let key: Box<[Value]> = shared.iter().map(|&(i, _)| l[i]).collect();
            let Some(matches) = buckets.get(&key) else {
                continue;
            };
            for r in matches {
                let mut combined: Vec<Value> = l.to_vec();
                combined.extend(other_extra.iter().map(|&j| r[j]));
                let reordered: Box<[Value]> = order.iter().map(|&i| combined[i]).collect();
                rows.insert(reordered);
            }
        }
        Projection {
            attrs: out_attrs,
            rows,
        }
    }
}

impl fmt::Debug for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Projection({} rows over {} attrs)",
            self.rows.len(),
            self.attrs.len()
        )
    }
}

/// The project-join mapping `m_R` of Section 6:
/// `m_R(I) = { t : t is an R-value with t[Rᵢ] ∈ I[Rᵢ] for all i }`,
/// computed as the natural join `I[R₁] ⋈ … ⋈ I[R_k]`.
///
/// # Panics
/// Panics if `components` is empty.
pub fn project_join(relation: &Relation, components: &[AttrSet]) -> Projection {
    assert!(!components.is_empty(), "m_R needs at least one component");
    let mut acc = relation.project(&components[0]);
    for r in &components[1..] {
        acc = acc.join(&relation.project(r));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Arc<Universe>, ValuePool) {
        let u = Universe::untyped_abc();
        let p = ValuePool::new(u.clone());
        (u, p)
    }

    fn rel(u: &Arc<Universe>, p: &mut ValuePool, rows: &[[&str; 3]]) -> Relation {
        Relation::from_rows(
            u.clone(),
            rows.iter()
                .map(|r| Tuple::new(r.iter().map(|n| p.untyped(n)).collect())),
        )
    }

    #[test]
    fn insert_dedups_and_preserves_order() {
        let (u, mut p) = abc();
        let mut r = Relation::new(u);
        let a = p.untyped("a");
        let b = p.untyped("b");
        assert!(r.insert(Tuple::new(vec![a, a, a])));
        assert!(r.insert(Tuple::new(vec![b, b, b])));
        assert!(!r.insert(Tuple::new(vec![a, a, a])));
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, AttrId(0)), a);
        assert_eq!(r.row_tuple(0).get(AttrId(0)), a);
    }

    #[test]
    fn set_equality_ignores_order() {
        let (u, mut p) = abc();
        let r1 = rel(&u, &mut p, &[["a", "b", "c"], ["x", "y", "z"]]);
        let r2 = rel(&u, &mut p, &[["x", "y", "z"], ["a", "b", "c"]]);
        assert_eq!(r1, r2);
    }

    #[test]
    fn val_collects_all_values() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a", "b", "a"]]);
        assert_eq!(r.val_count(), 2);
        assert_eq!(r.val().count(), 2);
        let a = p.get(None, "a").unwrap();
        assert!(r.contains_value(a));
    }

    #[test]
    fn column_views_match_rows() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a", "b", "c"], ["a", "d", "c"]]);
        let a = p.get(None, "a").unwrap();
        assert_eq!(r.column(AttrId(0)), &[a, a]);
        let col_b: Vec<Value> = {
            let mut v: Vec<Value> = r.column_values(AttrId(1)).collect();
            v.sort_unstable();
            v
        };
        let mut want = vec![p.get(None, "b").unwrap(), p.get(None, "d").unwrap()];
        want.sort_unstable();
        assert_eq!(col_b, want);
    }

    #[test]
    fn projection_dedups() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a", "b", "c"], ["a", "b", "d"]]);
        let ab = r.project(&u.set("A' B'"));
        assert_eq!(ab.len(), 1);
        let abc = r.project(&u.all());
        assert_eq!(abc.len(), 2);
    }

    #[test]
    fn join_recovers_lossless_decomposition() {
        let (u, mut p) = abc();
        // I = {(a,b,c)}: join of I[A'B'] and I[B'C'] over B' gives back I.
        let r = rel(&u, &mut p, &[["a", "b", "c"]]);
        let joined = project_join(&r, &[u.set("A' B'"), u.set("B' C'")]);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.attrs().len(), 3);
    }

    #[test]
    fn join_produces_spurious_tuples_when_lossy() {
        let (u, mut p) = abc();
        // Classic lossy decomposition: two tuples agreeing on B'.
        let r = rel(&u, &mut p, &[["a1", "b", "c1"], ["a2", "b", "c2"]]);
        let joined = project_join(&r, &[u.set("A' B'"), u.set("B' C'")]);
        assert_eq!(joined.len(), 4, "join must include the two spurious tuples");
    }

    #[test]
    fn join_on_disjoint_schemas_is_cross_product() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a1", "b1", "c1"], ["a2", "b2", "c2"]]);
        let joined = project_join(&r, &[u.set("A'"), u.set("C'")]);
        assert_eq!(joined.len(), 4);
    }

    #[test]
    fn projection_of_projection() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a", "b", "c"], ["a", "d", "e"]]);
        let abc = r.project(&u.all());
        let a = abc.project(&u.set("A'"));
        assert_eq!(a.len(), 1);
    }

    /// The incrementally maintained index, hash buckets, and value counts
    /// must all match a from-scratch build.
    fn assert_index_consistent(r: &Relation) {
        let u = r.universe().clone();
        for (i, t) in r.iter().enumerate() {
            for a in u.attrs() {
                let posting = r.index().rows_with(a, t.get(a));
                assert!(
                    posting.contains(&(i as u32)),
                    "row {i} missing from posting ({a:?}, {:?})",
                    t.get(a)
                );
                assert!(
                    posting.windows(2).all(|w| w[0] < w[1]),
                    "posting ({a:?}, {:?}) not strictly sorted: {posting:?}",
                    t.get(a)
                );
            }
        }
        // No stale postings: every posting entry points at a row that
        // actually holds the value in that column.
        for a in u.attrs() {
            for v in r.column_values(a).collect::<Vec<_>>() {
                for &ri in r.index().rows_with(a, v) {
                    assert_eq!(r.cell(ri as usize, a), v);
                }
            }
        }
        // Value counts match a recount; membership matches the tuples.
        let mut recount: FxHashMap<Value, u32> = FxHashMap::default();
        for t in r.iter() {
            for v in t.values() {
                *recount.entry(v).or_insert(0) += 1;
            }
        }
        assert_eq!(recount, r.val_counts, "val_counts diverged");
        for t in r.tuples() {
            assert!(r.contains(&t), "stored row not found via hash buckets");
        }
    }

    #[test]
    fn insert_maintains_index() {
        let (u, mut p) = abc();
        let r = rel(
            &u,
            &mut p,
            &[["a", "b", "c"], ["b", "a", "c"], ["a", "a", "a"]],
        );
        assert_index_consistent(&r);
        let a = p.get(None, "a").unwrap();
        assert_eq!(r.index().rows_with(AttrId(0), a), &[0, 2]);
        assert_eq!(r.index().rows_with(AttrId(2), a), &[2]);
    }

    #[test]
    fn rewrite_value_patches_index_without_collapse() {
        let (u, mut p) = abc();
        let mut r = rel(&u, &mut p, &[["a", "b", "c"], ["b", "d", "e"]]);
        let (a, b) = (p.get(None, "a").unwrap(), p.get(None, "b").unwrap());
        let report = r.rewrite_value(b, a).expect("b occurs");
        assert_eq!(report.changed, vec![0, 1]);
        assert!(report.removed.is_empty());
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, AttrId(1)), a);
        assert_eq!(r.cell(1, AttrId(0)), a);
        // b's postings are gone; a's postings absorbed them, sorted.
        assert_eq!(r.index().rows_with(AttrId(0), a), &[0, 1]);
        assert!(r.index().rows_with(AttrId(0), b).is_empty());
        assert!(!r.contains_value(b), "b no longer occurs");
        assert_index_consistent(&r);
    }

    #[test]
    fn rewrite_value_collapses_duplicates_and_rebuilds() {
        let (u, mut p) = abc();
        // Rewriting b2 -> b1 makes rows 0 and 1 equal; row 1 must vanish
        // and row 2 shift down.
        let mut r = rel(
            &u,
            &mut p,
            &[["a", "b1", "c"], ["a", "b2", "c"], ["x", "y", "z"]],
        );
        let (b1, b2) = (p.get(None, "b1").unwrap(), p.get(None, "b2").unwrap());
        let report = r.rewrite_value(b2, b1).expect("b2 occurs");
        assert_eq!(report.removed, vec![1]);
        assert_eq!(report.changed, Vec::<u32>::new());
        assert_eq!(r.len(), 2);
        let x = p.get(None, "x").unwrap();
        assert_eq!(r.index().rows_with(AttrId(0), x), &[1], "row 2 shifted to 1");
        assert_index_consistent(&r);
    }

    #[test]
    fn rewrite_collision_with_later_row_keeps_earlier_position() {
        let (u, mut p) = abc();
        // Rewriting b -> a makes row 0 equal row 2. First occurrence in row
        // order wins: the (rewritten) row 0 survives, the later untouched
        // copy is removed — exactly as if all rows were re-inserted in
        // order.
        let mut r = rel(
            &u,
            &mut p,
            &[["b", "x", "c"], ["m", "n", "o"], ["a", "x", "c"]],
        );
        let (a, b) = (p.get(None, "a").unwrap(), p.get(None, "b").unwrap());
        let report = r.rewrite_value(b, a).expect("b occurs");
        assert_eq!(report.changed, vec![0]);
        assert_eq!(report.removed, vec![2]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, AttrId(0)), a, "survivor sits at position 0");
        let m = p.get(None, "m").unwrap();
        assert_eq!(r.cell(1, AttrId(0)), m);
        assert_index_consistent(&r);
    }

    #[test]
    fn rewrite_collision_between_two_images_collapses() {
        let (u, mut p) = abc();
        // Rewriting b -> a maps BOTH rows to (a, a, c): two affected rows
        // collide with each other, not with an untouched row.
        let mut r = rel(&u, &mut p, &[["b", "a", "c"], ["a", "b", "c"]]);
        let (a, b) = (p.get(None, "a").unwrap(), p.get(None, "b").unwrap());
        let report = r.rewrite_value(b, a).expect("b occurs");
        assert_eq!(report.changed, vec![0]);
        assert_eq!(report.removed, vec![1]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, AttrId(0)), a);
        assert_index_consistent(&r);
    }

    #[test]
    fn rewrite_value_missing_is_noop() {
        let (u, mut p) = abc();
        let mut r = rel(&u, &mut p, &[["a", "b", "c"]]);
        let ghost = p.untyped("ghost");
        let a = p.get(None, "a").unwrap();
        assert!(r.rewrite_value(ghost, a).is_none());
        assert!(r.rewrite_value(a, a).is_none());
        assert_eq!(r.len(), 1);
        assert_index_consistent(&r);
    }

    #[test]
    fn rewrite_value_chain_keeps_index_consistent() {
        let (u, mut p) = abc();
        let mut r = rel(
            &u,
            &mut p,
            &[
                ["v0", "v1", "v2"],
                ["v1", "v2", "v3"],
                ["v2", "v3", "v4"],
                ["v3", "v4", "v0"],
            ],
        );
        let v: Vec<Value> = (0..5)
            .map(|i| p.get(None, &format!("v{i}")).unwrap())
            .collect();
        // Collapse the whole chain into v0, one merge at a time.
        for i in 1..5 {
            r.rewrite_value(v[i], v[0]);
            assert_index_consistent(&r);
        }
        assert_eq!(r.len(), 1, "all rows collapse to (v0, v0, v0)");
        assert!(r.row(0).values().all(|x| x == v[0]));
    }

    #[test]
    fn map_applies_valuation() {
        let (u, mut p) = abc();
        let r = rel(&u, &mut p, &[["a", "b", "c"]]);
        let x = p.untyped("x");
        let mut f = FxHashMap::default();
        for v in r.val() {
            f.insert(v, x);
        }
        let image = r.map(&f);
        assert_eq!(image.len(), 1);
        assert!(image.row(0).values().all(|v| v == x));
    }
}
