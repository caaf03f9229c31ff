//! The bounded, memoizing answer cache — one instance per scheduler shard.
//!
//! A shard's cache unifies two roles behind one map keyed by canonical
//! query form ([`crate::canon`]):
//!
//! * **in-flight coalescing** — while a query runs, its key maps to the
//!   leader job's slot so identical submissions wait on it instead of
//!   chasing in parallel; in-flight entries are pinned (never counted
//!   against the bound, never evicted);
//! * **answer memoization** — a finished query's pair of three-valued
//!   answers is recorded under its key; later submissions hit without
//!   spending any fuel.
//!
//! Counterexample relations are *not* replayed from cache: their values
//! are interned in the original submitter's pool and would be meaningless
//! handles in another query's pool — the cache serves answers,
//! certificates stay with the job that computed them.
//!
//! # Bounded eviction
//!
//! Cached answers are bounded by a service-wide capacity shared across
//! shards through an atomic count: whenever an insert pushes the global
//! count over the bound, the inserting shard evicts from its own LRU order
//! until the count is back under (approximate global LRU — a shard only
//! ever evicts entries it owns, so no cross-shard locking). Recency is
//! tracked with a lazy queue of `(key, tick)` stamps: touching an entry
//! pushes a fresh stamp and stale stamps are skipped at eviction time,
//! keeping both hit and eviction amortized O(1). Expensive-to-recompute
//! answers (high recorded fuel cost) get one **reprieve**: the first time
//! the LRU clock reaches them they are re-stamped instead of dropped, so a
//! burst of cheap one-off queries cannot flush the answers that took real
//! chase work to establish.
//!
//! # Verified hits
//!
//! With verification enabled, every key hit is re-checked through the
//! isomorphism machinery (`typedtd_relational::isomorphic`) on the goal's
//! hypothesis tableau — an independent guard on the canonicalization
//! layer, cheap at tableau scale. A rejected hit is reported (and treated
//! as a miss) rather than served. Since keys normalize the query's column
//! order (see [`crate::canon`]'s column-permutation normalization), both
//! sides of the check are the *permuted* hypotheses — each side normalized
//! by its own canonical permutation, which is exactly the equivalence an
//! equal key certifies.
//!
//! An entry keeps its witness only when verification is on: nothing else
//! reads it, and building one costs a relation per keyed miss and per
//! replayed log record. A live entry keeps the inserted query's *own*
//! permuted hypothesis rather than one rebuilt from its key: a key whose
//! goal encoding does not match the query it was computed for then fails
//! verification against that query's twins instead of vouching for
//! itself. Only entries replayed from the log, which have nothing but the
//! key, rebuild it from the encoding ([`QueryKey::witness_relation`]). A
//! verified probe never hits an entry without a witness.

use crate::canon::QueryKey;
use std::collections::VecDeque;
use std::sync::Arc;
use typedtd_chase::Answer;
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{isomorphic, FxHashMap, Relation};

/// Fuel cost at or above which a cached answer earns one eviction
/// reprieve (see the module docs).
pub const REPRIEVE_COST: u64 = 8;

/// The cached pair of answers for one canonical query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Answer for unrestricted implication `Σ ⊨ σ`.
    pub implication: Answer,
    /// Answer for finite implication `Σ ⊨_f σ`.
    pub finite_implication: Answer,
}

/// One entry: a running leader or a finished answer.
enum Entry {
    /// The query is in flight; identical submissions coalesce onto the
    /// leader job at this slot (in the owning shard's slab). Pinned:
    /// neither counted against the capacity bound nor evictable.
    InFlight {
        /// Leader job's slot index in the owning shard.
        leader: u32,
    },
    /// The query is answered.
    Cached {
        answer: CachedAnswer,
        /// The goal's hypothesis tableau at insert time (columns already
        /// in the inserting query's canonical order), kept for hit
        /// verification via `isomorphic`; `None` when inserted with
        /// verification off.
        goal_hypothesis: Option<Relation>,
        /// Stamp of the latest touch; older stamps in the LRU queue for
        /// this key are stale and skipped.
        last_tick: u64,
        /// Remaining "not yet" passes when the LRU clock reaches this
        /// entry (1 for answers that cost ≥ [`REPRIEVE_COST`] fuel).
        reprieves: u8,
        /// Replayed from the persistence log at startup (hits on it count
        /// toward `ServiceStats::warm_hits`).
        warm: bool,
    },
}

/// The goal's hypothesis tableau as a relation (the verification witness).
pub fn goal_hypothesis(goal: &TdOrEgd) -> Relation {
    match goal {
        TdOrEgd::Td(t) => t.hypothesis_relation(),
        TdOrEgd::Egd(e) => e.hypothesis_relation(),
    }
}

/// Hit verification: value-bijection isomorphism, insensitive to the
/// universes' attribute *names*. `typedtd_relational::isomorphic`
/// requires identical universes, which is right for the paper's
/// constructions but too strict here: a canonical key certifies width
/// and typedness (both are part of the key), while attribute names never
/// enter the encoding — implication is invariant under renaming columns.
/// In particular the witness of an entry replayed from the persistence
/// log is rebuilt over a throwaway universe
/// ([`QueryKey::witness_relation`]) whose names can't match any live
/// query's. When the universes differ, the stored side is recast over
/// the probing side's universe (values are opaque ids; only the
/// bijection matters) before the row-level check runs.
pub fn witness_match(stored: &Relation, probe: &Relation) -> bool {
    if stored.universe() == probe.universe() {
        return isomorphic(stored, probe);
    }
    if stored.universe().width() != probe.universe().width() {
        return false;
    }
    let mut recast = Relation::new(probe.universe().clone());
    for row in stored.tuples() {
        recast.insert(row);
    }
    isomorphic(&recast, probe)
}

/// Result of a cache probe.
pub enum Probe {
    /// No entry under this key.
    Miss,
    /// A finished entry was found (and, if requested, verified).
    Hit {
        /// The cached answer pair.
        answer: CachedAnswer,
        /// The entry was replayed from the persistence log (a warm hit).
        warm: bool,
    },
    /// The key's query is in flight; coalesce onto the leader slot.
    InFlight(u32),
    /// An entry was found but failed isomorphism verification, or holds
    /// no witness to verify against; served as a miss and counted
    /// separately — a hit here would be a canonicalization bug.
    Rejected,
}

/// One shard's slice of the answer cache. All methods are called under the
/// owning shard's lock. Keys are interned behind an `Arc` so the LRU
/// stamps a hit pushes clone a pointer, not the whole canonical Σ
/// encoding.
#[derive(Default)]
pub struct ShardCache {
    map: FxHashMap<Arc<QueryKey>, Entry>,
    /// Lazy LRU order: `(key, tick)` stamps, oldest first. Stale stamps
    /// (entry re-touched or gone) are dropped when the clock reaches them.
    lru: VecDeque<(Arc<QueryKey>, u64)>,
    tick: u64,
    /// Finished (`Cached`) entries in this shard.
    cached: usize,
}

impl ShardCache {
    /// Finished answers held by this shard.
    pub fn len(&self) -> usize {
        self.cached
    }

    /// `true` if no finished answers are held.
    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    fn stamp(&mut self, key: &Arc<QueryKey>) -> u64 {
        self.tick += 1;
        self.lru.push_back((Arc::clone(key), self.tick));
        // Stale stamps are normally dropped at eviction time, but a cache
        // running *under* capacity never evicts — compact here so a hot
        // working set probed millions of times cannot grow the queue
        // beyond O(live entries). The stamp just pushed must survive
        // explicitly: the caller updates its entry's `last_tick` only
        // after this returns (on insert the entry doesn't even exist
        // yet), so the map cannot vouch for it.
        if self.lru.len() > 2 * self.map.len() + 8 {
            let fresh = self.tick;
            let map = &self.map;
            self.lru.retain(|(k, t)| {
                *t == fresh
                    || matches!(map.get(k), Some(Entry::Cached { last_tick, .. }) if last_tick == t)
            });
        }
        self.tick
    }

    /// Probes for `key`. A finished hit is re-stamped most-recently-used.
    /// With `verify: Some(goal_hyp)`, a key hit must also pass the
    /// isomorphism cross-check against `goal_hyp` — the probing query's
    /// hypothesis with columns already in *its* canonical order. `None`
    /// skips verification (and lets callers skip *building* the witness
    /// on the hit path). A verified probe of an entry inserted without a
    /// witness is [`Probe::Rejected`].
    pub fn probe(&mut self, key: &QueryKey, verify: Option<&Relation>) -> Probe {
        match self.map.get_key_value(key) {
            None => Probe::Miss,
            Some((_, Entry::InFlight { leader })) => Probe::InFlight(*leader),
            Some((
                interned,
                Entry::Cached {
                    answer,
                    goal_hypothesis: hyp,
                    warm,
                    ..
                },
            )) => {
                if let Some(goal_hyp) = verify {
                    if !hyp.as_ref().is_some_and(|hyp| witness_match(hyp, goal_hyp)) {
                        return Probe::Rejected;
                    }
                }
                let answer = *answer;
                let warm = *warm;
                let interned = Arc::clone(interned);
                let tick = self.stamp(&interned);
                let Some(Entry::Cached { last_tick, .. }) = self.map.get_mut(key) else {
                    unreachable!("entry probed above")
                };
                *last_tick = tick;
                Probe::Hit { answer, warm }
            }
        }
    }

    /// Marks `key` in flight with `leader` as the coalescing target.
    /// Callers guarantee the key is absent (a probe ran under the same
    /// lock).
    pub fn insert_inflight(&mut self, key: QueryKey, leader: u32) {
        let prior = self.map.insert(Arc::new(key), Entry::InFlight { leader });
        debug_assert!(prior.is_none(), "in-flight insert over a live entry");
    }

    /// Drops the in-flight marker for `key` (leader finished without a
    /// cacheable answer, expired, or was retired). No-op on finished
    /// entries.
    pub fn clear_inflight(&mut self, key: &QueryKey) {
        if let Some(Entry::InFlight { .. }) = self.map.get(key) {
            self.map.remove(key);
        }
    }

    /// Records the finished answer for `key`, replacing its in-flight
    /// marker. Callers only record *definite* answers (Yes/No hold of
    /// every isomorphic presentation of the query; Unknown is a budget
    /// artifact and is never cached), and the scheduler guarantees at most
    /// one in-flight leader per key, so a conflicting overwrite is
    /// impossible. `goal_hyp` is the goal's hypothesis tableau with
    /// columns already in the inserting query's canonical order (the
    /// verification witness; pass `None` when hits are not verified);
    /// `cost` is the fuel the answer took (drives the eviction reprieve).
    /// Returns the interned key when a fresh entry was added (callers pass
    /// it back as the eviction-protect handle without re-cloning the
    /// encoding), `None` when the key was already answered.
    pub fn insert(
        &mut self,
        key: QueryKey,
        answer: CachedAnswer,
        goal_hyp: impl Into<Option<Relation>>,
        cost: u64,
    ) -> Option<Arc<QueryKey>> {
        self.insert_entry(key, answer, goal_hyp.into(), cost, false)
    }

    /// As [`ShardCache::insert`], but marks the entry *warm* — replayed
    /// from the persistence log at startup. Hits on warm entries are
    /// counted in `ServiceStats::warm_hits` (the warm-restart signal);
    /// everything else — verification, LRU, reprieves — behaves exactly
    /// like a freshly computed entry.
    pub fn insert_warm(
        &mut self,
        key: QueryKey,
        answer: CachedAnswer,
        goal_hyp: impl Into<Option<Relation>>,
        cost: u64,
    ) -> Option<Arc<QueryKey>> {
        self.insert_entry(key, answer, goal_hyp.into(), cost, true)
    }

    fn insert_entry(
        &mut self,
        key: QueryKey,
        answer: CachedAnswer,
        goal_hyp: Option<Relation>,
        cost: u64,
        warm: bool,
    ) -> Option<Arc<QueryKey>> {
        if matches!(self.map.get(&key), Some(Entry::Cached { .. })) {
            return None;
        }
        let key = Arc::new(key);
        let tick = self.stamp(&key);
        self.map.insert(
            Arc::clone(&key),
            Entry::Cached {
                answer,
                goal_hypothesis: goal_hyp,
                last_tick: tick,
                reprieves: u8::from(cost >= REPRIEVE_COST),
                warm,
            },
        );
        self.cached += 1;
        Some(key)
    }

    /// Evicts the least-recently-used finished entry (honoring reprieves).
    /// Returns `false` when nothing is evictable — in-flight entries are
    /// pinned and never considered.
    pub fn evict_one(&mut self) -> bool {
        self.evict_one_protecting(None)
    }

    /// As [`ShardCache::evict_one`], but never evicts `protect` — the
    /// interned handle of the entry an over-capacity insert just added
    /// (returned by [`ShardCache::insert`]; compared by `Arc` identity,
    /// not structurally). Without the protection a capacity smaller than
    /// the shard count makes every fresh insert its own immediate
    /// eviction victim (it is the only LRU entry its shard owns) while
    /// hot shards keep stale answers. A protected entry encountered by
    /// the LRU clock is re-stamped most-recently-used; meeting it a
    /// second time means nothing else is evictable.
    pub fn evict_one_protecting(&mut self, protect: Option<&Arc<QueryKey>>) -> bool {
        let mut protected_seen = false;
        let mut reprieved_since = false;
        while let Some((key, tick)) = self.lru.pop_front() {
            match self.map.get_mut(&key) {
                Some(Entry::Cached {
                    last_tick,
                    reprieves,
                    ..
                }) if *last_tick == tick => {
                    if protect.is_some_and(|p| Arc::ptr_eq(p, &key)) {
                        self.tick += 1;
                        *last_tick = self.tick;
                        let fresh = self.tick;
                        self.lru.push_back((key, fresh));
                        if protected_seen && !reprieved_since {
                            // A full cycle with no reprieve granted in
                            // between: the fresh entry is all that's left.
                            return false;
                        }
                        protected_seen = true;
                        reprieved_since = false;
                        continue;
                    }
                    if *reprieves > 0 {
                        *reprieves -= 1;
                        reprieved_since = true;
                        self.tick += 1;
                        *last_tick = self.tick;
                        let tick = self.tick;
                        self.lru.push_back((key, tick));
                        continue;
                    }
                    self.map.remove(&key);
                    self.cached -= 1;
                    return true;
                }
                // Stale stamp: re-touched since, in flight, or gone.
                _ => continue,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::td_from_names;
    use typedtd_relational::{Universe, ValuePool};

    fn keyed_td(seed: &str) -> (QueryKey, TdOrEgd) {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let td = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&[seed, "y", "z"], &[seed, seed, "w"]],
            &[seed, "y", "w"],
        ));
        (crate::canon::query_key(&[], &td), td)
    }

    fn distinct_keyed_tds(n: usize) -> Vec<(QueryKey, TdOrEgd)> {
        // Vary the hypothesis shape via repeated-variable patterns so the
        // canonical keys genuinely differ.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        (0..n)
            .map(|i| {
                let rows: Vec<Vec<String>> = (0..=i)
                    .map(|r| vec!["x".to_string(), format!("y{r}"), format!("z{r}")])
                    .collect();
                let row_refs: Vec<Vec<&str>> =
                    rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
                let slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
                let td =
                    TdOrEgd::Td(td_from_names(&u, &mut p, &slices, &["x", "y0", "z0"]));
                (crate::canon::query_key(&[], &td), td)
            })
            .collect()
    }

    const YES: CachedAnswer = CachedAnswer {
        implication: Answer::Yes,
        finite_implication: Answer::Yes,
    };

    #[test]
    fn lru_evicts_coldest_first() {
        let mut cache = ShardCache::default();
        let deps = distinct_keyed_tds(3);
        for (k, g) in &deps {
            assert!(cache.insert(k.clone(), YES, goal_hypothesis(g), 0).is_some());
        }
        // Touch the first entry: the second becomes coldest.
        assert!(matches!(
            cache.probe(&deps[0].0, None),
            Probe::Hit { .. }
        ));
        assert!(cache.evict_one());
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.probe(&deps[1].0, None),
            Probe::Miss
        ));
        assert!(matches!(
            cache.probe(&deps[0].0, None),
            Probe::Hit { .. }
        ));
    }

    #[test]
    fn inflight_entries_are_pinned() {
        let mut cache = ShardCache::default();
        let (k, _g) = keyed_td("x");
        cache.insert_inflight(k.clone(), 7);
        assert!(!cache.evict_one(), "nothing evictable: in-flight is pinned");
        let deps = distinct_keyed_tds(2);
        for (dk, dg) in &deps {
            cache.insert(dk.clone(), YES, goal_hypothesis(dg), 0);
        }
        assert!(cache.evict_one());
        assert!(cache.evict_one());
        assert!(!cache.evict_one());
        let (k2, _g2) = keyed_td("x");
        assert!(matches!(cache.probe(&k2, None), Probe::InFlight(7)));
    }

    #[test]
    fn hot_hits_do_not_grow_the_stamp_queue() {
        let mut cache = ShardCache::default();
        let deps = distinct_keyed_tds(2);
        for (k, g) in &deps {
            cache.insert(k.clone(), YES, goal_hypothesis(g), 0);
        }
        // An under-capacity cache never evicts, so the stamp queue must
        // self-compact instead of recording every hit forever.
        for _ in 0..10_000 {
            assert!(matches!(
                cache.probe(&deps[0].0, None),
                Probe::Hit { .. }
            ));
        }
        assert!(
            cache.lru.len() <= 2 * cache.map.len() + 8,
            "stamp queue must stay O(live entries), got {}",
            cache.lru.len()
        );
        // Compaction must not orphan live stamps: both entries stay
        // evictable (cold deps[1] goes first), and nothing is left behind.
        assert!(cache.evict_one(), "entries must remain evictable");
        assert!(matches!(
            cache.probe(&deps[1].0, None),
            Probe::Miss
        ));
        assert!(cache.evict_one(), "the hot entry is evictable too");
        assert!(!cache.evict_one());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn verified_probes_reject_entries_without_a_witness() {
        let mut cache = ShardCache::default();
        let (k, g) = keyed_td("x");
        cache.insert(k.clone(), YES, None::<Relation>, 0);
        let witness = goal_hypothesis(&g);
        assert!(matches!(cache.probe(&k, Some(&witness)), Probe::Rejected));
        assert!(matches!(cache.probe(&k, None), Probe::Hit { .. }));
    }

    #[test]
    fn expensive_answers_get_one_reprieve() {
        let mut cache = ShardCache::default();
        let deps = distinct_keyed_tds(2);
        cache.insert(deps[0].0.clone(), YES, goal_hypothesis(&deps[0].1), REPRIEVE_COST);
        cache.insert(deps[1].0.clone(), YES, goal_hypothesis(&deps[1].1), 0);
        // Entry 0 is colder but cost-protected: the cheap entry 1 goes
        // first.
        assert!(cache.evict_one());
        assert!(matches!(
            cache.probe(&deps[0].0, None),
            Probe::Hit { .. }
        ));
        assert!(matches!(
            cache.probe(&deps[1].0, None),
            Probe::Miss
        ));
    }
}
