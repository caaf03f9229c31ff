//! The mutable tableau the chase operates on.
//!
//! A chase instance starts from the goal dependency's hypothesis (the
//! symbols the final answer is phrased in) and grows by td steps (new rows
//! with fresh labeled nulls) and egd steps (merging two values in a
//! union-find, then rewriting the rows that contain the merged-away value
//! to canonical representatives). Those are its only mutations: rows are
//! never deleted except as duplicates collapsed by a merge.
//!
//! For the semi-naive engine the instance also keeps a *version* per row
//! (a monotone counter stamped when the row was inserted or last rewritten)
//! and, crucially, an **append-only dirty-row log**: every stamp also
//! appends `(version, row)` to the log. [`ChaseInstance::delta_since`] then
//! answers "which rows changed since a dependency was last scanned" by
//! binary-searching the log for the frontier and draining only the suffix —
//! work proportional to the *delta*, not to the whole instance. (The stamp
//! vector is retained as the log's compaction source and for debug
//! assertions.) Merge compaction remaps the log's row ids in place, and the
//! log itself is compacted down to one entry per row whenever stale entries
//! outnumber live rows.

use crate::unionfind::UnionFind;
use std::sync::Arc;
use typedtd_relational::{FxHashSet, Relation, RowDelta, Tuple, Universe, Value};

/// Mutable chase state.
#[derive(Clone)]
pub struct ChaseInstance {
    relation: Relation,
    uf: UnionFind,
    /// Monotone mutation counter; bumped by inserts and merges.
    version: u64,
    /// Per-row version stamps, parallel to `relation.rows()`.
    row_versions: Vec<u64>,
    /// Append-only `(version, row)` dirty stamps in version order. Row ids
    /// are kept current across merge compaction (entries of removed rows are
    /// dropped, survivors remapped).
    dirty_log: Vec<(u64, u32)>,
}

impl ChaseInstance {
    /// Starts an instance from initial rows.
    pub fn new(universe: Arc<Universe>, rows: impl IntoIterator<Item = Tuple>) -> Self {
        let relation = Relation::from_rows(universe, rows);
        let row_versions = vec![1; relation.len()];
        let dirty_log = (0..relation.len() as u32).map(|i| (1, i)).collect();
        Self {
            relation,
            uf: UnionFind::new(),
            version: 1,
            row_versions,
            dirty_log,
        }
    }

    /// The current rows as a relation (canonical representatives only).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The universe of the instance.
    pub fn universe(&self) -> &Arc<Universe> {
        self.relation.universe()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// `true` if the instance has no rows.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Canonical representative of `v` under the merges so far.
    pub fn resolve(&mut self, v: Value) -> Value {
        self.uf.find(v)
    }

    /// Canonical representative without path compression.
    pub fn resolve_readonly(&self, v: Value) -> Value {
        self.uf.find_readonly(v)
    }

    /// The current mutation version (stamped on the most recent change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The rows inserted or rewritten strictly after version `since`.
    ///
    /// Cost is proportional to the number of dirty stamps after `since`
    /// (a binary search plus a suffix drain of the dirty-row log), not to
    /// the total row count.
    pub fn delta_since(&self, since: u64) -> RowDelta {
        let start = self.dirty_log.partition_point(|&(v, _)| v <= since);
        let delta =
            RowDelta::from_ids(self.dirty_log[start..].iter().map(|&(_, id)| id).collect());
        debug_assert_eq!(
            delta.ids(),
            self.row_versions
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > since)
                .map(|(i, _)| i as u32)
                .collect::<Vec<_>>()
                .as_slice(),
            "dirty log diverged from the row-version stamps"
        );
        delta
    }

    /// Compacts the dirty log down to one entry per row (its latest stamp)
    /// once stale entries outnumber live rows, keeping `delta_since` drains
    /// proportional to real deltas on merge-heavy runs.
    fn maybe_compact_log(&mut self) {
        if self.dirty_log.len() <= 2 * self.row_versions.len() + 64 {
            return;
        }
        let mut entries: Vec<(u64, u32)> = self
            .row_versions
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        entries.sort_unstable();
        self.dirty_log = entries;
    }

    /// Inserts a row after canonicalizing its values.
    /// Returns `true` if the row is new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let canon = t.map(|v| self.uf.find(v));
        if self.relation.insert(canon) {
            self.version += 1;
            self.row_versions.push(self.version);
            self.dirty_log
                .push((self.version, self.row_versions.len() as u32 - 1));
            true
        } else {
            false
        }
    }

    /// Merges the classes of `a` and `b` and rewrites the rows containing
    /// the losing representative (located through the relation's index; no
    /// full rescan).
    ///
    /// Returns `(winner, loser)` if the classes were distinct.
    pub fn merge(&mut self, a: Value, b: Value) -> Option<(Value, Value)> {
        let (winner, loser) = self.uf.union(a, b)?;
        // Rows hold canonical representatives only, so the sole stale value
        // is `loser`; rewrite exactly the rows containing it.
        if let Some(report) = self.relation.rewrite_value(loser, winner) {
            if !report.removed.is_empty() {
                // Duplicate rows were compacted away: shift version stamps
                // and remap the dirty log (entries of removed rows vanish —
                // their surviving duplicate carries its own stamps).
                let removed: FxHashSet<u32> = report.removed.iter().copied().collect();
                let mut remap: Vec<Option<u32>> = Vec::with_capacity(self.row_versions.len());
                let mut next = 0u32;
                for i in 0..self.row_versions.len() as u32 {
                    if removed.contains(&i) {
                        remap.push(None);
                    } else {
                        remap.push(Some(next));
                        next += 1;
                    }
                }
                let mut idx = 0usize;
                self.row_versions.retain(|_| {
                    let keep = remap[idx].is_some();
                    idx += 1;
                    keep
                });
                self.dirty_log.retain_mut(|entry| match remap[entry.1 as usize] {
                    Some(n) => {
                        entry.1 = n;
                        true
                    }
                    None => false,
                });
            }
            self.version += 1;
            for &i in &report.changed {
                self.row_versions[i as usize] = self.version;
                self.dirty_log.push((self.version, i));
            }
            self.maybe_compact_log();
            debug_assert_eq!(self.row_versions.len(), self.relation.len());
        }
        Some((winner, loser))
    }

    /// `true` if `a` and `b` are currently identified.
    pub fn identified(&mut self, a: Value, b: Value) -> bool {
        self.uf.same(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_relational::{Universe, ValuePool};

    #[test]
    fn insert_canonicalizes() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b, c) = (p.untyped("a"), p.untyped("b"), p.untyped("c"));
        let mut inst = ChaseInstance::new(u.clone(), [Tuple::new(vec![a, b, c])]);
        assert_eq!(inst.len(), 1);

        inst.merge(b, c);
        let root = inst.resolve(c);
        assert_eq!(root, inst.resolve(b));
        // Row was rewritten: column B' and C' now share the representative.
        let row = inst.relation().row(0);
        assert_eq!(row.get(u.a("B'")), row.get(u.a("C'")));
        // Inserting the un-canonical row again is a no-op.
        assert!(!inst.insert(Tuple::new(vec![a, b, c])));
    }

    #[test]
    fn merge_collapses_duplicate_rows() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b1, b2, c) = (
            p.untyped("a"),
            p.untyped("b1"),
            p.untyped("b2"),
            p.untyped("c"),
        );
        let mut inst = ChaseInstance::new(
            u.clone(),
            [
                Tuple::new(vec![a, b1, c]),
                Tuple::new(vec![a, b2, c]),
            ],
        );
        assert_eq!(inst.len(), 2);
        inst.merge(b1, b2);
        assert_eq!(inst.len(), 1, "merged rows must collapse");
    }

    #[test]
    fn delta_tracks_inserts_and_merges() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b, c, d) = (
            p.untyped("a"),
            p.untyped("b"),
            p.untyped("c"),
            p.untyped("d"),
        );
        let mut inst = ChaseInstance::new(
            u.clone(),
            [Tuple::new(vec![a, b, c]), Tuple::new(vec![a, c, d])],
        );
        // Everything is dirty relative to version 0.
        assert_eq!(inst.delta_since(0).ids(), &[0, 1]);
        let checkpoint = inst.version();
        assert!(inst.delta_since(checkpoint).is_empty());

        // An insert dirties exactly the new row.
        assert!(inst.insert(Tuple::new(vec![d, d, d])));
        assert_eq!(inst.delta_since(checkpoint).ids(), &[2]);

        // A merge dirties exactly the rewritten rows.
        let checkpoint = inst.version();
        inst.merge(b, c);
        // Rows 0 and 1 contain the loser c (b wins: smaller index); row 2
        // is untouched.
        assert_eq!(inst.delta_since(checkpoint).ids(), &[0, 1]);
    }

    #[test]
    fn delta_survives_merge_compaction() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b1, b2, c, x) = (
            p.untyped("a"),
            p.untyped("b1"),
            p.untyped("b2"),
            p.untyped("c"),
            p.untyped("x"),
        );
        let mut inst = ChaseInstance::new(
            u.clone(),
            [
                Tuple::new(vec![a, b1, c]),
                Tuple::new(vec![a, b2, c]),
                Tuple::new(vec![x, x, x]),
            ],
        );
        let checkpoint = inst.version();
        inst.merge(b1, b2);
        assert_eq!(inst.len(), 2, "duplicate row collapsed");
        // Old row 1 rewrote into a copy of row 0 and vanished; row 0 itself
        // never changed, and old row 2 (now row 1) must not be dirty either
        // — a collapsed duplicate creates no new embeddings.
        let delta = inst.delta_since(checkpoint);
        assert!(delta.is_empty(), "unexpected dirty rows: {:?}", delta.ids());
        // Version bookkeeping stayed aligned with the rows.
        assert_eq!(inst.relation().cell(1, u.a("A'")), x);
    }

    #[test]
    fn dirty_log_compaction_preserves_deltas() {
        // Re-stamp the same rows many times (every merge rewrites row 0) so
        // the log's stale entries force a compaction; `delta_since` carries
        // a debug assertion comparing the log against the stamp vector, so
        // each call cross-checks the two representations.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let vals: Vec<_> = (0..64).map(|i| p.untyped(&format!("v{i}"))).collect();
        let mut inst = ChaseInstance::new(
            u.clone(),
            [
                Tuple::new(vec![vals[0], vals[1], vals[2]]),
                Tuple::new(vec![vals[3], vals[4], vals[5]]),
            ],
        );
        for w in vals.windows(2) {
            let checkpoint = inst.version();
            inst.merge(w[0], w[1]);
            assert!(inst.delta_since(checkpoint).ids().len() <= inst.len());
            assert_eq!(inst.delta_since(inst.version()).ids(), &[] as &[u32]);
        }
        // Every surviving row ends up fully merged; all rows were dirtied
        // at some point and the final delta from version 0 covers them all.
        assert_eq!(
            inst.delta_since(0).ids().len(),
            inst.len(),
            "full-history delta must cover every row"
        );
    }

    #[test]
    fn merge_is_idempotent() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (a, b, c) = (p.untyped("a"), p.untyped("b"), p.untyped("c"));
        let mut inst = ChaseInstance::new(u.clone(), [Tuple::new(vec![a, b, c])]);
        assert!(inst.merge(a, b).is_some());
        assert!(inst.merge(a, b).is_none());
        assert!(inst.identified(a, b));
    }
}
