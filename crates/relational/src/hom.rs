//! Valuations and homomorphism (embedding) search.
//!
//! A *valuation* (Section 2.2) is a partial map on values; in typed
//! universes it preserves sorts. Dependency satisfaction, chase triggers,
//! tableau cores, and the paper's `T⁻¹` construction all reduce to one
//! primitive: enumerate the valuations `α` with `α(I) ⊆ J` for a list of
//! source rows `I` and a target relation `J`, optionally extending a fixed
//! partial valuation.
//!
//! The search is hash-join-shaped: source rows are placed
//! most-constrained-first ([`Embedder::scan_plan`]); at each level the
//! partially built valuation selects the shortest `(column, value) → rows`
//! posting of the target's [`ColumnIndex`] (or, for the semi-naive pinned
//! row, the delta itself) as the candidate list, and each candidate is
//! probed by comparing target cells column-wise against the bindings.
//! Bindings live on a linear *trail* of `(source, image)` pairs layered over
//! the read-only seed — source patterns bind a handful of values, so a
//! linear scan beats per-candidate hash-map writes, and backtracking is a
//! truncate. Each emitted embedding reaches its consumer as a borrowed
//! [`Embedding`] view of seed and trail; a full [`Valuation`] is
//! materialized only when a consumer keeps it ([`Embedding::to_valuation`]).

use crate::fx::FxHashMap;
use crate::relation::{ColumnIndex, Relation};
use crate::tuple::Tuple;
use crate::universe::AttrId;
use crate::value::Value;
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::ControlFlow;

/// A partial mapping from values to values.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Valuation {
    map: FxHashMap<Value, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a valuation from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        Self {
            map: pairs.into_iter().collect(),
        }
    }

    /// The identity valuation on `values`.
    pub fn identity_on(values: impl IntoIterator<Item = Value>) -> Self {
        Self::from_pairs(values.into_iter().map(|v| (v, v)))
    }

    /// Image of `v`, if bound.
    #[inline]
    pub fn get(&self, v: Value) -> Option<Value> {
        self.map.get(&v).copied()
    }

    /// Binds `v ↦ w`. Returns the previous image, if any.
    pub fn bind(&mut self, v: Value, w: Value) -> Option<Value> {
        self.map.insert(v, w)
    }

    /// Removes the binding of `v`.
    pub fn unbind(&mut self, v: Value) {
        self.map.remove(&v);
    }

    /// Number of bound values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(source, image)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.map.iter().map(|(&a, &b)| (a, b))
    }

    /// Applies the valuation to a tuple — `α(w)`.
    ///
    /// # Panics
    /// Panics if some value of the tuple is unbound.
    pub fn apply_tuple(&self, t: &Tuple) -> Tuple {
        Embedding::of(self).apply_tuple(t)
    }

    /// Applies the valuation to every row — `α(I)`.
    pub fn apply_rows(&self, rows: &[Tuple]) -> Vec<Tuple> {
        Embedding::of(self).apply_rows(rows)
    }
}

/// A set of target-row positions used to restrict embedding search: the
/// semi-naive chase's *delta* (rows added or rewritten since a dependency
/// was last checked).
#[derive(Clone, Debug, Default)]
pub struct RowDelta {
    sorted: Vec<u32>,
}

impl RowDelta {
    /// Builds a delta from row positions (deduplicated, kept sorted).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self { sorted: ids }
    }

    /// Number of delta rows.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Membership test (binary search on the sorted positions).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.sorted.binary_search(&id).is_ok()
    }

    /// The positions, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.sorted
    }
}

/// Per-scan join counters: how much work one embedding enumeration did.
///
/// `build_rows` counts delta rows taken as the pinned (build-side) source
/// row; `probe_hits` counts index-probe candidates that matched the partial
/// valuation. The caller owns the counters and lends them to each scan, so
/// the [`Embedder`] itself stays immutable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Delta rows enumerated as the pinned source row.
    pub build_rows: u64,
    /// Probed candidate rows consistent with the bindings so far.
    pub probe_hits: u64,
}

/// Which embeddings a planned scan ([`Embedder::scan`]) enumerates.
#[derive(Clone, Copy, Debug)]
pub enum ScanScope<'d> {
    /// Every embedding into the target.
    Full,
    /// The embeddings whose source row `pin` lands on a row of `delta`
    /// while every earlier source row lands outside it — the semi-naive
    /// unit of work. Scanning pins `0..source.len()` in turn enumerates
    /// each embedding that touches the delta exactly once: at the smallest
    /// source index whose image lies in the delta.
    Pinned {
        /// The delta rows.
        delta: &'d RowDelta,
        /// Index of the source row pinned to the delta.
        pin: usize,
    },
}

/// How a source row may be placed during search.
#[derive(Clone, Copy, Debug)]
enum RowClass<'d> {
    /// Any target row.
    Any,
    /// Only delta rows (the pinned source row).
    Delta(&'d RowDelta),
    /// Only non-delta rows (source rows before the pin, so each embedding is
    /// enumerated exactly once: at its smallest delta-touching source index).
    Old(&'d RowDelta),
}

impl<'d> ScanScope<'d> {
    /// The placement class of source row `row`.
    fn class(self, row: usize) -> RowClass<'d> {
        match self {
            ScanScope::Full => RowClass::Any,
            ScanScope::Pinned { delta, pin } => match row.cmp(&pin) {
                std::cmp::Ordering::Less => RowClass::Old(delta),
                std::cmp::Ordering::Equal => RowClass::Delta(delta),
                std::cmp::Ordering::Greater => RowClass::Any,
            },
        }
    }
}

/// The valuation that binds nothing, for views with no seed.
static UNBOUND: Valuation = Valuation {
    map: std::collections::HashMap::with_hasher(std::hash::BuildHasherDefault::new()),
};

/// One embedding as the search holds it: a seed [`Valuation`] with a
/// *trail* of further `(source, image)` bindings layered over it, at most
/// one per source value and none for a value the seed binds. Scans hand
/// these to their callbacks; the view borrows the search's state, so a
/// consumer that keeps an embedding copies it out with
/// [`Embedding::to_valuation`].
#[derive(Clone, Copy, Debug)]
pub struct Embedding<'a> {
    seed: &'a Valuation,
    trail: &'a [(Value, Value)],
}

impl<'a> Embedding<'a> {
    /// A view of `seed` alone.
    pub fn of(seed: &'a Valuation) -> Self {
        Self { seed, trail: &[] }
    }

    /// A view of `pairs` alone: `(source, image)` bindings, at most one per
    /// source value.
    pub fn from_pairs(pairs: &'a [(Value, Value)]) -> Self {
        Self {
            seed: &UNBOUND,
            trail: pairs,
        }
    }

    /// Image of `v`, if bound.
    #[inline]
    pub fn get(&self, v: Value) -> Option<Value> {
        lookup(self.seed, self.trail, v)
    }

    /// Every `(source, image)` binding, the seed's first (in unspecified
    /// order), then the trail's in binding order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, Value)> + 'a {
        self.seed.iter().chain(self.trail.iter().copied())
    }

    /// The embedding as an owned [`Valuation`].
    pub fn to_valuation(&self) -> Valuation {
        Valuation::from_pairs(self.iter())
    }

    /// Applies the embedding to a tuple — `α(w)`.
    ///
    /// # Panics
    /// Panics if some value of the tuple is unbound.
    pub fn apply_tuple(&self, t: &Tuple) -> Tuple {
        t.map(|v| {
            self.get(v)
                .unwrap_or_else(|| panic!("valuation undefined on {v:?}"))
        })
    }

    /// Applies the embedding to every row — `α(I)`.
    pub fn apply_rows(&self, rows: &[Tuple]) -> Vec<Tuple> {
        rows.iter().map(|t| self.apply_tuple(t)).collect()
    }
}

/// Where emitted embeddings go. `Exists` short-circuits; `Each` hands the
/// consumer a borrowed [`Embedding`] of seed and trail.
enum Sink<'s> {
    Exists(&'s mut bool),
    Each(&'s mut dyn FnMut(Embedding<'_>) -> ControlFlow<()>),
}

impl Sink<'_> {
    fn emit(&mut self, seed: &Valuation, trail: &[(Value, Value)]) -> ControlFlow<()> {
        match self {
            Sink::Exists(found) => {
                **found = true;
                ControlFlow::Break(())
            }
            Sink::Each(f) => f(Embedding { seed, trail }),
        }
    }
}

/// Image of `v` under the layered bindings: trail first (most recent wins),
/// then the read-only seed. Trails hold at most one entry per source value.
#[inline]
fn lookup(seed: &Valuation, trail: &[(Value, Value)], v: Value) -> Option<Value> {
    for &(s, t) in trail.iter().rev() {
        if s == v {
            return Some(t);
        }
    }
    if seed.is_empty() {
        return None;
    }
    seed.get(v)
}

/// Reusable embedding searcher for one target relation.
///
/// Borrows the target's incrementally maintained [`ColumnIndex`] —
/// construction is free of index-build cost. Searching changes nothing
/// but the binding trail the `Embedder` lends each search (so every scan
/// through one `Embedder` reuses one buffer); join counters go to a
/// caller-owned [`ScanStats`].
pub struct Embedder<'a> {
    target: &'a Relation,
    index: &'a ColumnIndex,
    trail: Cell<Vec<(Value, Value)>>,
}

impl<'a> Embedder<'a> {
    /// Prepares a searcher over `target` (no index build; the relation
    /// maintains its index incrementally).
    pub fn new(target: &'a Relation) -> Self {
        Self {
            target,
            index: target.index(),
            trail: Cell::default(),
        }
    }

    /// The target relation.
    pub fn target(&self) -> &'a Relation {
        self.target
    }

    /// The lent trail, emptied and sized for `source`'s values at most
    /// once per `Embedder`.
    fn take_trail(&self, source: &[Tuple]) -> Vec<(Value, Value)> {
        let mut trail = self.trail.take();
        trail.clear();
        trail.reserve(source.iter().map(Tuple::width).sum());
        trail
    }

    /// Calls `f` for every valuation `α ⊇ seed` with `α(source) ⊆ target`.
    ///
    /// Returns `true` if `f` broke out early. Valuations are *not*
    /// required to be injective (per the paper's definition).
    pub fn for_each_embedding(
        &self,
        source: &[Tuple],
        seed: &Valuation,
        f: impl FnMut(Embedding<'_>) -> ControlFlow<()>,
    ) -> bool {
        let order = Self::plan(source, seed, None);
        let mut stats = ScanStats::default();
        self.scan(source, seed, ScanScope::Full, &order, &mut stats, f)
    }

    /// Calls `f` for every valuation `α ⊇ seed` with `α(source) ⊆ target`
    /// that `scope` admits, placing source rows in `plan` order — the
    /// chase's trigger-scan entry point. Join counters accumulate into
    /// `stats`.
    ///
    /// Plans depend only on the source rows and the seed's bound set, so a
    /// caller scanning the same dependency every round computes them once:
    /// [`Self::scan_plan`] for [`ScanScope::Full`], [`Self::touch_plans`]
    /// (indexed by pin) for [`ScanScope::Pinned`]. Every ordering of the
    /// source rows enumerates the same set of embeddings; the plan decides
    /// the emission order and the cost. A pinned scan over an empty delta
    /// enumerates nothing.
    ///
    /// Returns `true` if `f` broke out early.
    pub fn scan(
        &self,
        source: &[Tuple],
        seed: &Valuation,
        scope: ScanScope<'_>,
        plan: &[usize],
        stats: &mut ScanStats,
        mut f: impl FnMut(Embedding<'_>) -> ControlFlow<()>,
    ) -> bool {
        if let ScanScope::Pinned { delta, pin } = scope {
            assert!(pin < source.len(), "pin {pin} is not a source row");
            if delta.is_empty() {
                return false;
            }
        }
        let mut trail = self.take_trail(source);
        let mut sink = Sink::Each(&mut f);
        let broke = self
            .search(source, plan, 0, seed, &mut trail, scope, stats, &mut sink)
            .is_break();
        self.trail.set(trail);
        broke
    }

    /// `true` if some embedding extending `seed` exists (no valuation is
    /// materialized).
    pub fn embeds(&self, source: &[Tuple], seed: &Valuation) -> bool {
        let order = Self::plan(source, seed, None);
        let mut found = false;
        let mut trail = self.take_trail(source);
        let mut stats = ScanStats::default();
        let mut sink = Sink::Exists(&mut found);
        let _ = self.search(
            source,
            &order,
            0,
            seed,
            &mut trail,
            ScanScope::Full,
            &mut stats,
            &mut sink,
        );
        self.trail.set(trail);
        found
    }

    /// Number of embeddings extending `seed` (for tests and diagnostics).
    pub fn count_embeddings(&self, source: &[Tuple], seed: &Valuation) -> usize {
        let mut n = 0;
        self.for_each_embedding(source, seed, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// The placement order for a full (un-pinned) scan: source rows
    /// most-constrained-first. Depends only on the source rows and the
    /// seed's *bound set*, so a plan may be cached and reused across rounds
    /// whose seeds bind the same values.
    pub fn scan_plan(source: &[Tuple], seed: &Valuation) -> Vec<usize> {
        Self::plan(source, seed, None).into_owned()
    }

    /// One placement plan per pin for [`ScanScope::Pinned`] scans, each
    /// placing its pin first (its candidates are the small delta). Cache
    /// these per dependency: they are invariant across chase rounds.
    pub fn touch_plans(source: &[Tuple], seed: &Valuation) -> Vec<Vec<usize>> {
        (0..source.len())
            .map(|pin| Self::plan(source, seed, Some(pin)).into_owned())
            .collect()
    }

    /// Orders source rows most-constrained-first: rows sharing values with
    /// the seed or with already-placed rows come early. With `first` set,
    /// that row is placed up front (the semi-naive pin, whose candidate set
    /// is the small delta). Plans of up to two rows borrow a static slice.
    fn plan(source: &[Tuple], seed: &Valuation, first: Option<usize>) -> Cow<'static, [usize]> {
        match source.len() {
            n @ (0 | 1) => Cow::Borrowed(&[0][..n]),
            2 => {
                let mut order = [0; 2];
                Self::place(source, seed, first, &mut order);
                Cow::Borrowed(if order[0] == 0 { &[0, 1] } else { &[1, 0] })
            }
            n => {
                let mut order = vec![0; n];
                Self::place(source, seed, first, &mut order);
                Cow::Owned(order)
            }
        }
    }

    /// Fills `order` (one slot per source row) with [`Self::plan`]'s
    /// placement.
    fn place(source: &[Tuple], seed: &Valuation, first: Option<usize>, order: &mut [usize]) {
        let mut placed = 0;
        if let Some(pin) = first {
            order[0] = pin;
            placed = 1;
        }
        // A value is bound once the seed or a placed row holds it; sources
        // are a handful of rows, so rescanning the placed rows beats a set.
        while placed < order.len() {
            let done = &order[..placed];
            let bound = |v: Value| {
                seed.get(v).is_some() || done.iter().any(|&i| source[i].values().contains(&v))
            };
            let best = (0..source.len())
                .filter(|i| !done.contains(i))
                .max_by_key(|&i| {
                    let b = source[i].val().filter(|&v| bound(v)).count();
                    // Tie-break toward earlier rows for determinism.
                    (b, usize::MAX - i)
                })
                .expect("unplaced row exists");
            order[placed] = best;
            placed += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        source: &[Tuple],
        order: &[usize],
        depth: usize,
        seed: &Valuation,
        trail: &mut Vec<(Value, Value)>,
        scope: ScanScope<'_>,
        stats: &mut ScanStats,
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        if depth == order.len() {
            return sink.emit(seed, trail);
        }
        let row = &source[order[depth]];
        let class = scope.class(order[depth]);

        // Choose the cheapest candidate source: the bound column with the
        // shortest posting list, or the whole relation if nothing is bound.
        let mut best: Option<&[u32]> = None;
        let attrs = || (0..row.width()).map(|i| AttrId(i as u16));
        for a in attrs() {
            if let Some(img) = lookup(seed, trail, row.get(a)) {
                let posting = self.index.rows_with(a, img);
                if best.is_none_or(|b| posting.len() < b.len()) {
                    best = Some(posting);
                }
            }
        }

        let try_candidate = |this: &Self,
                                 ri: u32,
                                 trail: &mut Vec<(Value, Value)>,
                                 stats: &mut ScanStats,
                                 sink: &mut Sink<'_>|
         -> ControlFlow<()> {
            match class {
                RowClass::Any => {}
                RowClass::Delta(delta) => {
                    if !delta.contains(ri) {
                        return ControlFlow::Continue(());
                    }
                    stats.build_rows += 1;
                }
                RowClass::Old(delta) => {
                    if delta.contains(ri) {
                        return ControlFlow::Continue(());
                    }
                }
            }
            let mark = trail.len();
            let mut ok = true;
            for a in attrs() {
                let sv = row.get(a);
                let tv = this.target.cell(ri as usize, a);
                match lookup(seed, trail, sv) {
                    Some(existing) => {
                        if existing != tv {
                            ok = false;
                            break;
                        }
                    }
                    None => trail.push((sv, tv)),
                }
            }
            let flow = if ok {
                if !matches!(class, RowClass::Delta(_)) {
                    stats.probe_hits += 1;
                }
                self.search(source, order, depth + 1, seed, trail, scope, stats, sink)
            } else {
                ControlFlow::Continue(())
            };
            trail.truncate(mark);
            flow
        };

        // For a pinned (delta-class) row, the delta itself is usually the
        // smallest candidate set; consistency with the bindings is re-checked
        // by `try_candidate`, so any superset of the true candidates is sound.
        let delta_ids = match class {
            RowClass::Delta(delta) => Some(delta.ids()),
            _ => None,
        };
        match (best, delta_ids) {
            (Some(posting), Some(ids)) if ids.len() < posting.len() => {
                for &ri in ids {
                    try_candidate(self, ri, trail, stats, sink)?;
                }
            }
            (None, Some(ids)) => {
                for &ri in ids {
                    try_candidate(self, ri, trail, stats, sink)?;
                }
            }
            (Some(posting), _) => {
                for &ri in posting {
                    try_candidate(self, ri, trail, stats, sink)?;
                }
            }
            (None, None) => {
                for ri in 0..self.target.len() as u32 {
                    try_candidate(self, ri, trail, stats, sink)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Convenience: `true` if the rows of `source` embed into `target` extending
/// `seed` (one-shot index build).
pub fn embeds(source: &[Tuple], target: &Relation, seed: &Valuation) -> bool {
    Embedder::new(target).embeds(source, seed)
}

/// `true` if some row of `target` is an image of `row` under a valuation
/// extending `seed` — the satisfaction probe for a one-row td conclusion.
///
/// The depth-1 specialization of [`Embedder`]'s search: the same candidate
/// choice (shortest posting list among seed-bound columns, the whole
/// relation when nothing is bound) and the same consistency rule for a
/// value repeated across columns, but with no per-call allocation — the
/// caller lends `scratch` for the binding trail and no plan is built. The
/// seed is a borrowed [`Embedding`], so a scan callback probes its own
/// embedding without materializing it, and the chase's apply loop probes
/// once per trigger without a map.
pub fn satisfies_row(
    target: &Relation,
    row: &Tuple,
    seed: Embedding<'_>,
    scratch: &mut Vec<(Value, Value)>,
) -> bool {
    let index = target.index();
    let mut best: Option<&[u32]> = None;
    for a in target.universe().attrs() {
        if let Some(img) = seed.get(row.get(a)) {
            let posting = index.rows_with(a, img);
            if best.is_none_or(|b| posting.len() < b.len()) {
                best = Some(posting);
            }
        }
    }
    let mut check = |ri: u32| -> bool {
        scratch.clear();
        for a in target.universe().attrs() {
            let sv = row.get(a);
            let tv = target.cell(ri as usize, a);
            let bound = scratch
                .iter()
                .find(|&&(s, _)| s == sv)
                .map(|&(_, t)| t)
                .or_else(|| seed.get(sv));
            match bound {
                Some(existing) if existing != tv => return false,
                Some(_) => {}
                None => scratch.push((sv, tv)),
            }
        }
        true
    };
    match best {
        Some(posting) => posting.iter().any(|&ri| check(ri)),
        None => (0..target.len() as u32).any(&mut check),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use crate::value::ValuePool;
    use std::sync::Arc;

    fn rel(
        u: &Arc<Universe>,
        p: &mut ValuePool,
        rows: &[[&str; 3]],
    ) -> (Relation, Vec<Tuple>) {
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|n| p.untyped(n)).collect()))
            .collect();
        (
            Relation::from_rows(u.clone(), tuples.iter().cloned()),
            tuples,
        )
    }

    #[test]
    fn identity_embedding_always_exists() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, rows) = rel(&u, &mut p, &[["a", "b", "c"], ["b", "a", "c"]]);
        let e = Embedder::new(&r);
        assert!(e.embeds(&rows, &Valuation::new()));
        // And the identity is among the embeddings.
        let id = Valuation::identity_on(r.val());
        assert!(e.embeds(&rows, &id));
    }

    #[test]
    fn embedding_respects_seed() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        let pattern = vec![Tuple::new(vec![x, y, z])];
        let e = Embedder::new(&r);
        // Unconstrained: embeds.
        assert!(e.embeds(&pattern, &Valuation::new()));
        // Seed forcing x ↦ b cannot match (a,b,c) in column A'.
        let b = p.get(None, "b").unwrap();
        let seed = Valuation::from_pairs([(x, b)]);
        assert!(!e.embeds(&pattern, &seed));
    }

    #[test]
    fn non_injective_embeddings_are_allowed() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "a", "a"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        // Pattern with three distinct variables maps onto the single
        // constant row by collapsing all of them.
        let pattern = vec![Tuple::new(vec![x, y, z])];
        assert!(embeds(&pattern, &r, &Valuation::new()));
    }

    #[test]
    fn shared_variable_forces_equality() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "d", "e"]]);
        let x = p.untyped("x");
        let z = p.untyped("z");
        // Pattern row (x, x, z): only (d,d,e) matches.
        let pattern = vec![Tuple::new(vec![x, x, z])];
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 1);
        let mut image = None;
        e.for_each_embedding(&pattern, &Valuation::new(), |hom| {
            image = hom.get(x);
            ControlFlow::Break(())
        });
        assert_eq!(image, p.get(None, "d"));
    }

    #[test]
    fn multi_row_pattern_with_join_variable() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[["a", "b", "c"], ["c", "d", "e"], ["a", "d", "e"]],
        );
        // Pattern: rows (x,_,m), (m,_,_) — chained through m.
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![
            Tuple::new(vec![x, q1, m]),
            Tuple::new(vec![m, q2, q3]),
        ];
        let e = Embedder::new(&r);
        // (a,b,c) chains to (c,d,e); no other first row has its C'-value in
        // column A' of the relation... except (a,d,e)? e not in column A'.
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 1);
    }

    #[test]
    fn count_embeddings_product() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "e", "f"]]);
        // Two independent single-variable-per-column rows: 2 × 2 embeddings.
        let mk = |p: &mut ValuePool, i: usize| {
            Tuple::new(vec![
                p.untyped(&format!("x{i}")),
                p.untyped(&format!("y{i}")),
                p.untyped(&format!("z{i}")),
            ])
        };
        let pattern = vec![mk(&mut p, 1), mk(&mut p, 2)];
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 4);
    }

    #[test]
    fn empty_source_has_exactly_the_seed_embedding() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&[], &Valuation::new()), 1);
    }

    /// Pinned scans over every pin in order, with the cached touch plans:
    /// the semi-naive enumeration of the embeddings touching `delta`.
    fn scan_touching(
        e: &Embedder<'_>,
        source: &[Tuple],
        delta: &RowDelta,
        stats: &mut ScanStats,
        mut f: impl FnMut(Embedding<'_>) -> ControlFlow<()>,
    ) -> bool {
        let seed = Valuation::new();
        let plans = Embedder::touch_plans(source, &seed);
        plans.iter().enumerate().any(|(pin, plan)| {
            let scope = ScanScope::Pinned { delta, pin };
            e.scan(source, &seed, scope, plan, stats, &mut f)
        })
    }

    fn count_touching(e: &Embedder<'_>, source: &[Tuple], delta: &RowDelta) -> usize {
        let mut n = 0;
        scan_touching(e, source, delta, &mut ScanStats::default(), |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// An embedding as a sorted list of pairs, for order-free comparison.
    fn pairs(a: Embedding<'_>) -> Vec<(Value, Value)> {
        let mut v: Vec<(Value, Value)> = a.iter().collect();
        v.sort_unstable();
        v
    }

    /// The delta-restricted enumeration must produce exactly the embeddings
    /// that touch the delta, each exactly once: full = touching + avoiding.
    #[test]
    fn touching_partitions_the_embedding_space() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[["a", "b", "c"], ["c", "d", "e"], ["a", "d", "e"], ["e", "b", "a"]],
        );
        // A two-row chained pattern with plenty of matches.
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![Tuple::new(vec![x, q1, m]), Tuple::new(vec![m, q2, q3])];
        let e = Embedder::new(&r);

        for delta_ids in [vec![0u32], vec![1, 3], vec![0, 1, 2, 3], vec![]] {
            let delta = RowDelta::from_ids(delta_ids.clone());
            // Count "avoiding" embeddings: all rows land outside the delta.
            let old_rows: Vec<Tuple> = r
                .iter()
                .enumerate()
                .filter(|(i, _)| !delta.contains(*i as u32))
                .map(|(_, t)| t.to_tuple())
                .collect();
            let old_rel = Relation::from_rows(u.clone(), old_rows);
            let old_emb = Embedder::new(&old_rel);
            let avoiding = old_emb.count_embeddings(&pattern, &Valuation::new());
            let total = e.count_embeddings(&pattern, &Valuation::new());
            assert_eq!(
                count_touching(&e, &pattern, &delta) + avoiding,
                total,
                "partition failed for delta {delta_ids:?}"
            );
        }
    }

    /// Pinned scans over every pin emit exactly the full scan's embeddings
    /// that map some pattern row onto a delta row, each once — with the
    /// cached pin-first plans and with the full-scan plan alike, since a
    /// plan only decides emission order and cost.
    #[test]
    fn pinned_scans_reproduce_touching_enumeration() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[["a", "b", "c"], ["c", "d", "e"], ["a", "d", "e"], ["e", "b", "a"]],
        );
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![Tuple::new(vec![x, q1, m]), Tuple::new(vec![m, q2, q3])];
        let e = Embedder::new(&r);
        let seed = Valuation::new();
        let delta = RowDelta::from_ids(vec![1, 3]);
        let delta_rows: Vec<Tuple> = delta
            .ids()
            .iter()
            .map(|&i| r.row(i as usize).to_tuple())
            .collect();

        let touches = |a: Embedding<'_>| {
            let image = a.apply_rows(&pattern);
            image.iter().any(|t| delta_rows.contains(t))
        };
        let mut expected: Vec<Vec<(Value, Value)>> = Vec::new();
        e.for_each_embedding(&pattern, &seed, |a| {
            if touches(a) {
                expected.push(pairs(a));
            }
            ControlFlow::Continue(())
        });
        expected.sort();

        let mut stats = ScanStats::default();
        let mut pinned: Vec<Vec<(Value, Value)>> = Vec::new();
        scan_touching(&e, &pattern, &delta, &mut stats, |a| {
            pinned.push(pairs(a));
            ControlFlow::Continue(())
        });
        pinned.sort();
        assert_eq!(pinned, expected);

        let full_plan = Embedder::scan_plan(&pattern, &seed);
        let mut replanned: Vec<Vec<(Value, Value)>> = Vec::new();
        for pin in 0..pattern.len() {
            let scope = ScanScope::Pinned { delta: &delta, pin };
            e.scan(&pattern, &seed, scope, &full_plan, &mut stats, |a| {
                replanned.push(pairs(a));
                ControlFlow::Continue(())
            });
        }
        replanned.sort();
        assert_eq!(replanned, expected);

        // Every emission pinned one source row onto a delta row, so the
        // build-side counter saw at least one row.
        assert!(!pinned.is_empty());
        assert!(stats.build_rows >= 1);
    }

    #[test]
    fn touching_with_empty_delta_or_source_finds_nothing() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, rows) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let e = Embedder::new(&r);
        assert_eq!(count_touching(&e, &rows, &RowDelta::from_ids(vec![])), 0);
        assert_eq!(count_touching(&e, &[], &RowDelta::from_ids(vec![0])), 0);
    }

    #[test]
    fn touching_respects_break() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "e", "f"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        let pattern = vec![Tuple::new(vec![x, y, z])];
        let e = Embedder::new(&r);
        let delta = RowDelta::from_ids(vec![0, 1]);
        let mut calls = 0;
        let broke = scan_touching(&e, &pattern, &delta, &mut ScanStats::default(), |_| {
            calls += 1;
            ControlFlow::Break(())
        });
        assert!(broke);
        assert_eq!(calls, 1);
    }

    /// `satisfies_row` is a hand-specialized depth-1 search; pin it to the
    /// general machinery on random single-row probes, covering bound,
    /// unbound, and repeated-unbound cells against a random target.
    #[test]
    fn satisfies_row_matches_general_embeds() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let u = Universe::untyped_abc();
        for case in 0..200 {
            let mut p = ValuePool::new(u.clone());
            let consts: Vec<Value> = (0..4).map(|i| p.untyped(&format!("c{i}"))).collect();
            let mut r = Relation::new(u.clone());
            for _ in 0..(1 + next() % 4) {
                r.insert(Tuple::new(
                    (0..3).map(|_| consts[(next() % 4) as usize]).collect(),
                ));
            }
            // Probe-row cells draw from two existential variables (possibly
            // repeated across columns) and the constants; the seed binds a
            // random subset of the existentials.
            let exts = [p.untyped("e0"), p.untyped("e1")];
            let row = Tuple::new(
                (0..3)
                    .map(|_| {
                        if next() % 2 == 0 {
                            exts[(next() % 2) as usize]
                        } else {
                            consts[(next() % 4) as usize]
                        }
                    })
                    .collect(),
            );
            let mut seed = Valuation::new();
            for &e in &exts {
                if next() % 2 == 0 {
                    seed.bind(e, consts[(next() % 4) as usize]);
                }
            }
            let mut scratch = Vec::new();
            let fast = satisfies_row(&r, &row, Embedding::of(&seed), &mut scratch);
            let slow = Embedder::new(&r).embeds(std::slice::from_ref(&row), &seed);
            assert_eq!(fast, slow, "case {case}: probe row {row:?} seed {seed:?}");
        }
    }
}
