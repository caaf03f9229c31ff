//! Canonical, isomorphism-invariant keys for implication queries.
//!
//! Two queries `(Σ, σ)` and `(Σ', σ')` pose the *same* implication problem
//! whenever they differ only by a renaming of tableau variables, a
//! reordering of hypothesis rows, or a reordering (or duplication) of the
//! dependencies of Σ — the chase outcome is invariant under all three (the
//! paper's constructions are all "up to renaming"). A production service
//! sees vast numbers of such structurally identical queries, so the answer
//! cache keys on a **canonical form**:
//!
//! * each dependency is encoded as a token stream whose variables are
//!   numbered by first occurrence under the *lexicographically minimal*
//!   hypothesis-row order (a backtracking search with prefix pruning, the
//!   same shape as the row-matching search in
//!   `typedtd_relational::isomorphism` — both explore row pairings and cut
//!   on the induced value bijection);
//! * Σ is the *sorted, deduplicated set* of its dependencies' encodings;
//! * the universe contributes only its width and typing discipline —
//!   attribute *names* never affect the answer.
//!
//! Equal keys therefore imply isomorphic queries, and renamed/reordered
//! resubmissions hit the cache. The converse direction is guarded for
//! pathological tableaux: when the row-order search would blow up (more
//! rows than [`ROW_CAP`], or more than [`LEAF_CAP`] candidate orders), the
//! encoder falls back to the submitted row order — still deterministic and
//! still *sound* (a false key match is impossible because the encoding is
//! injective up to renaming), it merely forfeits hits for that dependency.
//! The `isomorphic` machinery remains available as an independent
//! cross-check of key collisions (see `ServiceConfig::verify_cache_hits`
//! and this module's tests).
//!
//! # Column-permutation normalization
//!
//! A fourth invariance rides on top of the per-dependency encodings:
//! applying one column permutation **uniformly** to every dependency of a
//! query relabels the universe's attributes, and attribute identity never
//! affects the answer (the key already reduces the universe to width +
//! typing discipline). [`query_parts`] therefore normalizes the *whole
//! query's* column order before keying: each column gets a signature that
//! is invariant under value renaming, hypothesis-row order, and Σ order
//! and repetition (per-column value-frequency profiles, cross-column
//! sharing counts, and conclusion/equality linkage, aggregated over the
//! *set* of Σ's per-dependency descriptor vectors), and columns are sorted
//! by signature with the submitted position as the tiebreak. No tie
//! enumeration runs on the hot submit path, so columns the signature
//! fails to separate keep their submitted order. When such a tied block
//! is a query automorphism (fully interchangeable spectator columns), any
//! order yields the same canonical encodings and permuted resubmissions
//! still collide. When it is not, a relabeled resubmission may key apart,
//! and that is not rare: the random-query test in this module counts the
//! splits. A split merely forfeits the hit; it can never manufacture a
//! false one (the chosen permutation is part of how the key was computed,
//! and the per-dependency encodings stay injective up to renaming).
//! Queries wider than [`COL_CAP`] skip the normalization entirely
//! (identity order). Verified cache hits compare goal hypotheses
//! *after* each side's own canonical permutation (see
//! [`permute_relation`]), which is exactly the equivalence equal keys now
//! certify.

use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{FxHashMap, Relation, Tuple, Universe, Value, ValuePool};

/// Hypothesis-row count above which row-order canonicalization is skipped.
pub const ROW_CAP: usize = 8;

/// Bound on complete row orders examined before falling back.
pub const LEAF_CAP: usize = 512;

/// Universe width above which column-permutation normalization is skipped
/// (signature cost grows quadratically with width; wide universes keep
/// the submitted column order).
pub const COL_CAP: usize = 8;

const TAG_TD: u32 = u32::MAX;
const TAG_EGD: u32 = u32::MAX - 1;

/// The canonical key of one query `(Σ, σ)`: the universe's width and
/// typedness, plus one flat word stream holding exactly the words
/// [`QueryKey::encode_into`] writes after them — Σ's member count, each
/// member's length and canonical encoding (sorted, deduplicated), then the
/// goal's length and encoding. Building, cloning, decoding and dropping a
/// key each cost one allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueryKey {
    /// Universe width (attribute names are irrelevant to the answer).
    width: u16,
    /// Domain discipline (typedness changes which embeddings exist).
    typed: bool,
    /// `[|Σ|, len, Σ₀…, len, Σ₁…, …, len, goal…]`.
    words: Box<[u32]>,
}

impl std::hash::Hash for QueryKey {
    /// Writes the stream `#[derive(Hash)]` wrote for the nested layout
    /// this key replaced (width, typedness, Σ as a `Vec<Vec<u32>>`, the
    /// goal as a `Vec<u32>`), so shard routing and the cache's buckets
    /// place every key where they always have.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.typed.hash(state);
        state.write_usize(self.words[0] as usize);
        for dep in self.sigma() {
            dep.hash(state);
        }
        self.goal().hash(state);
    }
}

impl QueryKey {
    /// Lays out the key of `sigma` (sorted and deduplicated by the caller)
    /// and `goal` in one exactly sized buffer.
    fn new(width: u16, typed: bool, sigma: &[&[u32]], goal: &[u32]) -> Self {
        let len = 2 + sigma.iter().map(|d| 1 + d.len()).sum::<usize>() + goal.len();
        let mut words = Vec::with_capacity(len);
        words.push(sigma.len() as u32);
        for part in sigma.iter().chain([&goal]) {
            words.push(part.len() as u32);
            words.extend_from_slice(part);
        }
        Self {
            width,
            typed,
            words: words.into_boxed_slice(),
        }
    }

    /// Σ's canonical member encodings, in key order.
    fn sigma(&self) -> impl Iterator<Item = &[u32]> {
        let mut at = 1;
        (0..self.words[0]).map(move |_| {
            let len = self.words[at] as usize;
            at += 1 + len;
            &self.words[at - len..at]
        })
    }

    /// The goal's canonical encoding (the stream's last part).
    fn goal(&self) -> &[u32] {
        let at = 1 + self.sigma().map(|d| 1 + d.len()).sum::<usize>();
        &self.words[at + 1..]
    }

    /// Appends a stable, self-delimiting byte encoding of this key to
    /// `out` (little-endian width, a typedness byte, then the word
    /// stream) — the persistence log's record body format.
    /// [`QueryKey::decode`] round-trips it exactly.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.width.to_le_bytes());
        out.push(u8::from(self.typed));
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a key from the front of `bytes` (the inverse of
    /// [`QueryKey::encode_into`]), returning it with the number of bytes
    /// consumed. `None` on any malformed input — truncated buffers and
    /// absurd lengths are rejected, never panicked on, so a corrupted log
    /// record degrades to a dropped record. The stream's structure is
    /// checked before anything is allocated.
    pub fn decode(bytes: &[u8]) -> Option<(Self, usize)> {
        let width = u16::from_le_bytes(bytes.get(..2)?.try_into().ok()?);
        if width == 0 {
            return None;
        }
        let typed = match *bytes.get(2)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let mut at = 3usize;
        // A count or length can't exceed the words the buffer could still
        // hold.
        let count = |at: &mut usize| -> Option<usize> {
            let n = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?) as usize;
            *at += 4;
            (n <= (bytes.len() - *at) / 4).then_some(n)
        };
        let ndeps = count(&mut at)?;
        // Σ's members, then the goal.
        for _ in 0..=ndeps {
            at += 4 * count(&mut at)?;
        }
        let words = bytes[3..at]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
            .collect();
        Some((Self { width, typed, words }, at))
    }

    /// The goal's hypothesis rows as canonical ids (`rows × width` words),
    /// or `None` when the goal encoding is malformed (a decoded-from-disk
    /// key whose checksum lied). Replay keeps exactly the records for
    /// which this is `Some`, whether or not it builds their witnesses.
    pub fn witness_ids(&self) -> Option<&[u32]> {
        let width = self.width as usize;
        let goal = self.goal();
        if width == 0 || goal.len() < 2 {
            return None;
        }
        if goal[0] != TAG_TD && goal[0] != TAG_EGD {
            return None;
        }
        let nrows = goal[1] as usize;
        goal[2..].get(..nrows.checked_mul(width)?)
    }

    /// Rebuilds the goal's hypothesis tableau from the canonical encoding,
    /// over a throwaway pool — the verification witness for a cache entry
    /// replayed from the persistence log. The goal encoding starts
    /// `[tag, hyp_len, hyp_len × width canonical ids, …]`, so each id maps
    /// to one fresh value; the result is isomorphic (value bijection) to
    /// `permute_relation(goal_hypothesis(goal), perm)` of any query that
    /// keys here, which is exactly what verified hits compare. `None`
    /// exactly when [`QueryKey::witness_ids`] is.
    pub fn witness_relation(&self) -> Option<Relation> {
        let ids = self.witness_ids()?;
        let width = self.width as usize;
        // The witness only feeds value-bijection isomorphism checks, so an
        // untyped universe works for typed queries too (typedness lives in
        // the key itself, not the witness).
        let universe = Universe::untyped((0..width).map(|c| format!("c{c}")).collect::<Vec<_>>());
        let mut pool = ValuePool::new(universe.clone());
        let mut values: FxHashMap<u32, Value> = FxHashMap::default();
        let mut rel = Relation::new(universe);
        for row in ids.chunks_exact(width) {
            rel.insert(Tuple::new(
                row.iter()
                    .map(|id| {
                        *values
                            .entry(*id)
                            .or_insert_with(|| pool.untyped(&format!("v{id}")))
                    })
                    .collect(),
            ));
        }
        Some(rel)
    }
}

/// Computes the canonical key of `(sigma, goal)`.
pub fn query_key(sigma: &[TdOrEgd], goal: &TdOrEgd) -> QueryKey {
    query_parts(sigma, goal).key
}

/// Everything `submit` needs from one canonicalization pass.
pub struct QueryParts {
    /// The canonical key of the whole query.
    pub key: QueryKey,
    /// Each Σ dependency's canonical encoding, aligned with the submitted
    /// order (for Σ dedup without a second canonicalization).
    pub sigma_keys: Vec<Vec<u32>>,
    /// The goal's canonical encoding (for the goal-in-Σ fast path:
    /// `sigma_keys.contains(&goal_key)` means `σ ∈ Σ` up to isomorphism,
    /// so `Σ ⊨ σ` and `Σ ⊨_f σ` hold by reflexivity).
    pub goal_key: Vec<u32>,
    /// The canonical column permutation the key was computed under:
    /// canonical position `i` reads submitted column `perm[i]`. Two
    /// queries with equal keys are isomorphic *after* each applies its own
    /// permutation, so hit verification must compare
    /// [`permute_relation`]-normalized hypotheses.
    pub perm: Vec<u16>,
}

/// Canonicalizes a query once, returning the key plus the per-dependency
/// encodings of Σ and of the goal (all under the canonical column
/// permutation, which is returned alongside). One set of scratch
/// buffers serves the whole call, so only the returned encodings are
/// allocated per dependency.
pub fn query_parts(sigma: &[TdOrEgd], goal: &TdOrEgd) -> QueryParts {
    let universe = match goal {
        TdOrEgd::Td(t) => t.universe().clone(),
        TdOrEgd::Egd(e) => e.universe().clone(),
    };
    let width = universe.width();
    let mut scratch = Scratch::default();
    let perm = scratch.column_order(sigma, Some(goal), width);
    let dep_keys: Vec<Vec<u32>> = sigma.iter().map(|d| scratch.dep_key(d, &perm)).collect();
    let goal_key = scratch.dep_key(goal, &perm);
    let mut members: Vec<&[u32]> = dep_keys.iter().map(Vec::as_slice).collect();
    members.sort_unstable();
    members.dedup();
    let key = QueryKey::new(width as u16, universe.is_typed(), &members, &goal_key);
    QueryParts {
        key,
        sigma_keys: dep_keys,
        goal_key,
        perm,
    }
}

/// `rel` with its columns reordered into the canonical positions of
/// `perm` (position `i` takes the submitted column `perm[i]`). The result
/// lives over the same universe and is only meaningful for *structural*
/// comparison (value-bijection isomorphism) against other relations
/// normalized the same way — which is exactly what verified cache hits do.
pub fn permute_relation(rel: &Relation, perm: &[u16]) -> Relation {
    if is_identity(perm) {
        return rel.clone();
    }
    let mut out = Relation::new(rel.universe().clone());
    for row in rel.iter() {
        let vals: Vec<_> = row.values().collect();
        out.insert(Tuple::new(perm.iter().map(|&c| vals[c as usize]).collect()));
    }
    out
}

fn is_identity(perm: &[u16]) -> bool {
    perm.iter().enumerate().all(|(i, &c)| i == c as usize)
}

/// What follows the hypothesis rows in a dependency encoding.
enum Tail<'a> {
    /// A td's conclusion row (may contain existential values).
    Row(&'a Tuple),
    /// An egd's equated pair (order-normalized: the equality is symmetric).
    Pair(Value, Value),
}

/// The hypothesis rows of either dependency kind.
fn hypothesis(dep: &TdOrEgd) -> &[Tuple] {
    match dep {
        TdOrEgd::Td(t) => t.hypothesis(),
        TdOrEgd::Egd(e) => e.hypothesis(),
    }
}

/// Canonical encoding of one dependency, invariant under variable renaming
/// and hypothesis-row reordering (columns read in submitted order).
pub fn dep_key(dep: &TdOrEgd) -> Vec<u32> {
    let width = match dep {
        TdOrEgd::Td(t) => t.universe().width(),
        TdOrEgd::Egd(e) => e.universe().width(),
    };
    let identity: Vec<u16> = (0..width as u16).collect();
    Scratch::default().dep_key(dep, &identity)
}

/// The buffers one canonicalization pass reuses for every dependency it
/// encodes, so per-dependency work allocates nothing but its result.
#[derive(Default)]
struct Scratch {
    /// Column descriptors, flat; `desc_spans[d * width + c]` is the span of
    /// dependency `d`'s descriptor of column `c` (the goal, when given,
    /// follows Σ as dependency `sigma.len()`).
    desc: Vec<u32>,
    desc_spans: Vec<(usize, usize)>,
    /// One column's values (for its frequency profile), and the profile.
    col_vals: Vec<Value>,
    profile: Vec<u32>,
    /// Column signatures, flat; `sig_spans[c]` is column `c`'s span.
    sig: Vec<u32>,
    sig_spans: Vec<(usize, usize)>,
    /// Dependency indices (distinct descriptor vectors, then one column's
    /// order over them).
    deps: Vec<usize>,
    col_order: Vec<usize>,
    /// The row-order search: values numbered so far, rows placed, the
    /// encoding of the placed prefix, every level's candidate encodings
    /// stacked, one complete candidate, and the best complete encoding
    /// found.
    numbering: Numbering,
    used: Vec<bool>,
    acc: Vec<u32>,
    levels: Vec<u32>,
    candidate: Vec<u32>,
    best: Vec<u32>,
}

impl Scratch {
    /// The canonical column order for `(sigma, goal)`: columns sorted by
    /// an invariant signature, submitted position breaking ties (tied
    /// columns are not enumerated; see the module docs). A column's
    /// signature is the goal's descriptor of it, when a goal is given,
    /// then the sorted descriptors of it over Σ's *distinct* per-dependency
    /// descriptor vectors, each followed by a sentinel. Deduplicating whole
    /// vectors makes the signature a function of the *set* Σ, so repeating
    /// a member cannot reorder the columns. [`group_query`] passes no goal,
    /// so every member of a Σ-group computes the same permutation whatever
    /// its goal's shape. Columns related by a uniform permutation of the
    /// query carry equal signatures in their permuted positions, so the
    /// sort is itself permutation-invariant. This runs on every submit, so
    /// each dependency is scanned once for all of its columns.
    fn column_order(
        &mut self,
        sigma: &[TdOrEgd],
        goal: Option<&TdOrEgd>,
        width: usize,
    ) -> Vec<u16> {
        let mut order: Vec<u16> = (0..width as u16).collect();
        if !(2..=COL_CAP).contains(&width) {
            return order;
        }
        self.desc.clear();
        self.desc_spans.clear();
        for dep in sigma.iter().chain(goal) {
            self.push_col_descs(dep, width);
        }
        let span = |d: usize, c: usize| {
            let (a, b) = self.desc_spans[d * width + c];
            &self.desc[a..b]
        };
        // Σ's distinct descriptor vectors (compared column by column).
        self.deps.clear();
        self.deps.extend(0..sigma.len());
        let vector_cmp = |&a: &usize, &b: &usize| {
            (0..width)
                .map(|c| span(a, c).cmp(span(b, c)))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        self.deps.sort_unstable_by(vector_cmp);
        self.deps.dedup_by(|a, b| vector_cmp(a, b).is_eq());
        self.sig.clear();
        self.sig_spans.clear();
        for c in 0..width {
            let start = self.sig.len();
            if goal.is_some() {
                self.sig.extend_from_slice(span(sigma.len(), c));
                self.sig.push(u32::MAX);
            }
            self.col_order.clear();
            self.col_order.extend_from_slice(&self.deps);
            self.col_order.sort_unstable_by(|&a, &b| span(a, c).cmp(span(b, c)));
            for &d in &self.col_order {
                self.sig.extend_from_slice(span(d, c));
                self.sig.push(u32::MAX);
            }
            self.sig_spans.push((start, self.sig.len()));
        }
        let sig = |c: u16| {
            let (a, b) = self.sig_spans[c as usize];
            &self.sig[a..b]
        };
        order.sort_by(|&a, &b| sig(a).cmp(sig(b)).then(a.cmp(&b)));
        order
    }

    /// Appends one dependency's descriptors, one per column: counts only
    /// (invariant under value renaming and hypothesis-row order).
    fn push_col_descs(&mut self, dep: &TdOrEgd, width: usize) {
        let hyp = hypothesis(dep);
        for c in 0..width {
            let start = self.desc.len();
            // Value-frequency profile: sorted multiset of per-distinct-
            // value occurrence counts (tableaux are small, so a sort beats
            // a hash map).
            self.col_vals.clear();
            self.col_vals.extend(hyp.iter().map(|r| r.values()[c]));
            self.col_vals.sort_unstable();
            self.profile.clear();
            let mut run = 0u32;
            for (i, v) in self.col_vals.iter().enumerate() {
                run += 1;
                if i + 1 == self.col_vals.len() || self.col_vals[i + 1] != *v {
                    self.profile.push(run);
                    run = 0;
                }
            }
            self.profile.sort_unstable();
            // Cross-column sharing: other cells of the column's rows
            // holding the column's value.
            let shared: usize = hyp
                .iter()
                .map(|r| {
                    let vals = r.values();
                    vals.iter().enumerate().filter(|&(i, w)| i != c && *w == vals[c]).count()
                })
                .sum();
            let kind = u32::from(matches!(dep, TdOrEgd::Egd(_)));
            self.desc.extend([kind, hyp.len() as u32, self.profile.len() as u32, shared as u32]);
            self.desc.extend_from_slice(&self.profile);
            match dep {
                TdOrEgd::Td(t) => {
                    // Conclusion linkage: same-column hypothesis
                    // occurrences of the conclusion value, its repeats
                    // across the conclusion row, and whether it is
                    // existential (fresh anywhere).
                    let w = t.conclusion().values();
                    let same_col = hyp.iter().filter(|r| r.values()[c] == w[c]).count();
                    let in_concl =
                        w.iter().enumerate().filter(|&(i, v)| i != c && *v == w[c]).count();
                    let fresh = !hyp.iter().any(|r| r.values().contains(&w[c]));
                    self.desc.extend([same_col as u32, in_concl as u32, u32::from(fresh)]);
                }
                TdOrEgd::Egd(e) => {
                    // Equality linkage, order-normalized (the equality is
                    // symmetric): same-column occurrence counts of each
                    // equated value.
                    let l = hyp.iter().filter(|r| r.values()[c] == e.left()).count() as u32;
                    let r = hyp.iter().filter(|r| r.values()[c] == e.right()).count() as u32;
                    self.desc.extend([l.min(r), l.max(r)]);
                }
            }
            self.desc_spans.push((start, self.desc.len()));
        }
    }

    /// `dep`'s canonical encoding `[tag, rows, row ids…, tail ids…]`, reading
    /// columns through `perm` (canonical position `i` reads submitted
    /// column `perm[i]`) — the per-dependency piece of the query-wide
    /// column-permutation normalization.
    fn dep_key(&mut self, dep: &TdOrEgd, perm: &[u16]) -> Vec<u32> {
        let (tag, rows, tail) = match dep {
            TdOrEgd::Td(t) => (TAG_TD, t.hypothesis(), Tail::Row(t.conclusion())),
            TdOrEgd::Egd(e) => (TAG_EGD, e.hypothesis(), Tail::Pair(e.left(), e.right())),
        };
        self.canonical_rows(rows, &tail, perm);
        let mut out = Vec::with_capacity(2 + self.best.len());
        out.extend([tag, rows.len() as u32]);
        out.extend_from_slice(&self.best);
        out
    }

    /// Leaves in `best` the lexicographically minimal encoding of `rows ++
    /// tail` over all row orders, or the submitted-order encoding when the
    /// search would blow up.
    fn canonical_rows(&mut self, rows: &[Tuple], tail: &Tail<'_>, perm: &[u16]) {
        let cells = (rows.len() + 1) * perm.len();
        self.numbering.reset(cells);
        self.acc.clear();
        self.best.clear();
        if rows.len() <= ROW_CAP {
            self.used.clear();
            self.used.resize(rows.len(), false);
            self.levels.clear();
            let mut leaves = 0;
            if self.dfs(rows, tail, perm, &mut leaves) {
                return;
            }
            self.numbering.reset(cells);
            self.acc.clear();
        }
        // Submitted row order (renaming-invariant only).
        for row in rows {
            encode_row(row, perm, &mut self.numbering, &mut self.acc);
        }
        self.best.clear();
        self.best.extend_from_slice(&self.acc);
        encode_tail(tail, perm, &mut self.numbering, &mut self.best);
    }

    /// Backtracking minimal-order search. At every level only the rows
    /// whose encoded tuple is lexicographically minimal under the current
    /// numbering can extend a minimal prefix (encodings have fixed width,
    /// so prefix dominance is exact); ties branch because they bind
    /// different values. Returns `false` once more than [`LEAF_CAP`]
    /// complete orders were examined.
    fn dfs(&mut self, rows: &[Tuple], tail: &Tail<'_>, perm: &[u16], leaves: &mut usize) -> bool {
        let width = perm.len();
        if self.acc.len() == rows.len() * width {
            *leaves += 1;
            if *leaves > LEAF_CAP {
                return false;
            }
            self.candidate.clear();
            self.candidate.extend_from_slice(&self.acc);
            encode_tail(tail, perm, &mut self.numbering, &mut self.candidate);
            if self.best.is_empty() || self.candidate < self.best {
                std::mem::swap(&mut self.best, &mut self.candidate);
            }
            return true;
        }
        // Encode every unused row once, without numbering its new values.
        let base = self.levels.len();
        for (i, row) in rows.iter().enumerate() {
            if !self.used[i] {
                let mark = self.numbering.len();
                encode_row(row, perm, &mut self.numbering, &mut self.levels);
                self.numbering.truncate(mark);
            }
        }
        // Candidate `k`'s encoding (the `k`-th unused row's).
        fn enc(levels: &[u32], base: usize, width: usize, k: usize) -> &[u32] {
            &levels[base + k * width..base + (k + 1) * width]
        }
        let unused = (self.levels.len() - base) / width;
        let min = (1..unused).fold(0, |m, k| {
            if enc(&self.levels, base, width, k) < enc(&self.levels, base, width, m) {
                k
            } else {
                m
            }
        });
        let mut k = 0;
        for i in 0..rows.len() {
            if self.used[i] {
                continue;
            }
            k += 1;
            if enc(&self.levels, base, width, k - 1) != enc(&self.levels, base, width, min) {
                continue;
            }
            self.used[i] = true;
            let (mark, acc_mark) = (self.numbering.len(), self.acc.len());
            encode_row(&rows[i], perm, &mut self.numbering, &mut self.acc);
            let complete = self.dfs(rows, tail, perm, leaves);
            self.acc.truncate(acc_mark);
            self.numbering.truncate(mark);
            self.used[i] = false;
            if !complete {
                return false;
            }
        }
        self.levels.truncate(base);
        true
    }
}

/// Cells (rows plus tail, times width) above which a [`Numbering`] also
/// keeps a hash index: a linear scan beats hashing for the usual handful
/// of values, but would make wide tableaux quadratic.
const LINEAR_NUMBERING: usize = 64;

/// Values numbered in first-occurrence order: a value's id is its
/// position. Backtracking truncates.
#[derive(Default)]
struct Numbering {
    order: Vec<Value>,
    /// `order` inverted, kept only for tableaux past [`LINEAR_NUMBERING`].
    index: FxHashMap<Value, u32>,
    indexed: bool,
}

impl Numbering {
    /// Empties the numbering for a tableau of `cells` cells.
    fn reset(&mut self, cells: usize) {
        self.order.clear();
        self.index.clear();
        self.indexed = cells > LINEAR_NUMBERING;
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn id(&self, v: Value) -> Option<u32> {
        if self.indexed {
            self.index.get(&v).copied()
        } else {
            self.order.iter().position(|&w| w == v).map(|id| id as u32)
        }
    }

    /// `v`'s id, numbering it next if it is new.
    fn id_or_push(&mut self, v: Value) -> u32 {
        self.id(v).unwrap_or_else(|| {
            let id = self.order.len() as u32;
            self.order.push(v);
            if self.indexed {
                self.index.insert(v, id);
            }
            id
        })
    }

    /// Forgets every value numbered after the first `mark`.
    fn truncate(&mut self, mark: usize) {
        if self.indexed {
            for v in &self.order[mark..] {
                self.index.remove(v);
            }
        }
        self.order.truncate(mark);
    }
}

/// Appends `row`'s encoding (read through `perm`) to `out`, numbering
/// new values in canonical column order.
fn encode_row(row: &Tuple, perm: &[u16], numbering: &mut Numbering, out: &mut Vec<u32>) {
    let vals = row.values();
    out.extend(perm.iter().map(|&c| numbering.id_or_push(vals[c as usize])));
}

/// Appends the tail's encoding under `numbering`, leaving the numbering
/// as it found it.
fn encode_tail(tail: &Tail<'_>, perm: &[u16], numbering: &mut Numbering, out: &mut Vec<u32>) {
    match tail {
        Tail::Row(conclusion) => {
            let mark = numbering.len();
            encode_row(conclusion, perm, numbering, out);
            numbering.truncate(mark);
        }
        Tail::Pair(l, r) => {
            let id = |v: Value| numbering.id(v).expect("equated values occur in the hypothesis");
            let (li, ri) = (id(*l), id(*r));
            out.extend([li.min(ri), li.max(ri)]);
        }
    }
}

// ──────────────────── Σ-group identity and decoding ────────────────────
//
// Σ-group shared saturation keys jobs on (canonical Σ, canonical goal
// hypothesis): every member of a group poses an implication question over
// the *same* seed tableau under the *same* Σ, so one saturation chase of
// that seed answers all of them — a derivation certificate for any member
// whose goal becomes derivable, and (at the terminal fixpoint) a finite
// universal model refuting every member whose goal did not. Unlike the
// cache key, the column permutation here is computed from Σ alone, so
// same-Σ members with differently shaped goals still land in one group.
// The encodings are the same lossless `[tag, nrows, rows…, tail]` streams
// the cache uses, which is what makes decoding into a fresh shared value
// space possible at all.

use typedtd_dependencies::{Egd, Td};
use typedtd_relational::AttrId;

/// Identity of one Σ-group: canonical Σ under the Σ-only column
/// permutation, plus the canonical goal-hypothesis tableau. Equal keys
/// mean "same Σ and same seed tableau up to renaming, row order, Σ order,
/// and a uniform column permutation" — exactly the equivalence under
/// which one shared saturation soundly serves every member.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroupKey {
    width: u16,
    typed: bool,
    sigma: Vec<Vec<u32>>,
    hyp: Vec<u32>,
}

/// One query's Σ-group membership: the group identity plus the member
/// goal's full canonical encoding under the group permutation (decoded
/// into the group's value space by [`GoalDecoder::decode_goal`]).
pub struct GroupQuery {
    /// The group this query belongs to.
    pub key: GroupKey,
    /// The member goal's canonical encoding under the group permutation.
    pub goal: Vec<u32>,
}

/// Computes `(sigma, goal)`'s Σ-group membership. The column permutation
/// is derived from Σ's signatures alone (never the goal's), so members
/// with different goal shapes over one Σ agree on it. `None` only for
/// degenerate inputs (zero-width universes).
pub fn group_query(sigma: &[TdOrEgd], goal: &TdOrEgd) -> Option<GroupQuery> {
    let universe = match goal {
        TdOrEgd::Td(t) => t.universe().clone(),
        TdOrEgd::Egd(e) => e.universe().clone(),
    };
    let width = universe.width();
    if width == 0 {
        return None;
    }
    let mut scratch = Scratch::default();
    let perm = scratch.column_order(sigma, None, width);
    let mut sigma_keys: Vec<Vec<u32>> = sigma.iter().map(|d| scratch.dep_key(d, &perm)).collect();
    sigma_keys.sort_unstable();
    sigma_keys.dedup();
    let goal_key = scratch.dep_key(goal, &perm);
    let nrows = *goal_key.get(1)? as usize;
    let hyp = goal_key.get(2..2 + nrows.checked_mul(width)?)?.to_vec();
    Some(GroupQuery {
        key: GroupKey {
            width: width as u16,
            typed: universe.is_typed(),
            sigma: sigma_keys,
            hyp,
        },
        goal: goal_key,
    })
}

/// Everything one shared saturation needs, decoded from a [`GroupKey`]
/// into a fresh canonical value space: Σ, the shared seed tableau, the
/// pool they live in, and the [`GoalDecoder`] that maps member goal
/// encodings into the same space.
pub struct DecodedGroup {
    /// Σ, decoded (each dependency over its own variable space).
    pub sigma: Vec<TdOrEgd>,
    /// The shared seed tableau (every member's goal hypothesis).
    pub seed: Relation,
    /// The pool the decoded values were minted from.
    pub pool: ValuePool,
    /// Decodes member goals into the seed's value space.
    pub decoder: GoalDecoder,
}

/// Decodes member goal encodings into a group's canonical value space:
/// hypothesis ids resolve to the shared seed values, conclusion
/// existentials mint goal-local fresh values from the (chase-owned) pool.
pub struct GoalDecoder {
    universe: std::sync::Arc<Universe>,
    width: usize,
    /// Canonical hypothesis id → shared seed value.
    map: FxHashMap<u32, Value>,
}

impl GroupKey {
    /// Decodes the group into a fresh canonical value space. `None` on a
    /// malformed encoding (impossible for keys built by [`group_query`],
    /// but decoding stays defensive rather than panicking).
    pub fn decode(&self) -> Option<DecodedGroup> {
        let width = self.width as usize;
        if width == 0 || self.hyp.is_empty() || !self.hyp.len().is_multiple_of(width) {
            return None;
        }
        let names: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
        let universe = if self.typed {
            Universe::typed(names)
        } else {
            Universe::untyped(names)
        };
        let mut pool = ValuePool::new(universe.clone());
        // Each Σ dependency's variables are quantified per dependency, so
        // each decodes over its own id space (distinct name prefixes keep
        // the minted values apart).
        let mut sigma = Vec::with_capacity(self.sigma.len());
        for (di, words) in self.sigma.iter().enumerate() {
            let mut map = FxHashMap::default();
            sigma.push(decode_dep(
                words,
                &universe,
                &mut pool,
                &mut map,
                &format!("s{di}_"),
            )?);
        }
        // The shared seed tableau; its id → value map is what member goal
        // decoding resolves hypothesis ids through.
        let mut map = FxHashMap::default();
        let mut seed = Relation::new(universe.clone());
        for row in self.hyp.chunks_exact(width) {
            seed.insert(decode_row(row, &mut pool, &mut map, "g"));
        }
        Some(DecodedGroup {
            sigma,
            seed,
            pool,
            decoder: GoalDecoder {
                universe,
                width,
                map,
            },
        })
    }
}

impl GoalDecoder {
    /// Decodes one member goal (a canonical dependency encoding whose
    /// hypothesis matches the group's seed tableau) into the group's
    /// value space. Hypothesis ids must resolve through the shared map;
    /// a td conclusion may additionally mint goal-local existentials from
    /// `pool` — which must be the *chase's* pool ([`super::service`]
    /// passes `ChaseTask::pool_mut`), so existentials can never collide
    /// with the nulls the saturation mints. `None` if the encoding does
    /// not belong to this group.
    pub fn decode_goal(&self, words: &[u32], pool: &mut ValuePool) -> Option<TdOrEgd> {
        let width = self.width;
        let tag = *words.first()?;
        let nrows = *words.get(1)? as usize;
        let body = words.get(2..)?;
        let rows_len = nrows.checked_mul(width)?;
        if nrows == 0 || body.len() < rows_len {
            return None;
        }
        let hyp: Vec<Tuple> = body[..rows_len]
            .chunks_exact(width)
            .map(|row| {
                row.iter()
                    .map(|id| self.map.get(id).copied())
                    .collect::<Option<Vec<Value>>>()
                    .map(Tuple::new)
            })
            .collect::<Option<_>>()?;
        let tail = &body[rows_len..];
        match tag {
            t if t == TAG_TD => {
                if tail.len() != width {
                    return None;
                }
                // Conclusion: hypothesis ids resolve shared; fresh ids
                // mint goal-local values (repeats within the conclusion
                // share one mint via the name-keyed pool).
                let w = Tuple::new(
                    tail.iter()
                        .enumerate()
                        .map(|(c, id)| match self.map.get(id) {
                            Some(v) => *v,
                            None => pool.for_attr(AttrId(c as u16), &format!("gx{id}")),
                        })
                        .collect(),
                );
                Some(TdOrEgd::Td(Td::new(self.universe.clone(), w, hyp)))
            }
            t if t == TAG_EGD => {
                if tail.len() != 2 {
                    return None;
                }
                let l = *self.map.get(&tail[0])?;
                let r = *self.map.get(&tail[1])?;
                Some(TdOrEgd::Egd(Egd::new(self.universe.clone(), l, r, hyp)))
            }
            _ => None,
        }
    }
}

/// Decodes one encoded row, minting values at first occurrence (typed
/// universes sort the mint by the first column the id appears in).
fn decode_row(
    words: &[u32],
    pool: &mut ValuePool,
    map: &mut FxHashMap<u32, Value>,
    prefix: &str,
) -> Tuple {
    Tuple::new(
        words
            .iter()
            .enumerate()
            .map(|(c, id)| {
                *map.entry(*id)
                    .or_insert_with(|| pool.for_attr(AttrId(c as u16), &format!("{prefix}{id}")))
            })
            .collect(),
    )
}

/// Decodes one canonical dependency encoding over its own id space.
fn decode_dep(
    words: &[u32],
    universe: &std::sync::Arc<Universe>,
    pool: &mut ValuePool,
    map: &mut FxHashMap<u32, Value>,
    prefix: &str,
) -> Option<TdOrEgd> {
    let width = universe.width();
    let tag = *words.first()?;
    let nrows = *words.get(1)? as usize;
    let body = words.get(2..)?;
    let rows_len = nrows.checked_mul(width)?;
    if nrows == 0 || body.len() < rows_len {
        return None;
    }
    let hyp: Vec<Tuple> = body[..rows_len]
        .chunks_exact(width)
        .map(|row| decode_row(row, pool, map, prefix))
        .collect();
    let tail = &body[rows_len..];
    match tag {
        t if t == TAG_TD => {
            if tail.len() != width {
                return None;
            }
            let w = decode_row(tail, pool, map, prefix);
            Some(TdOrEgd::Td(Td::new(universe.clone(), w, hyp)))
        }
        t if t == TAG_EGD => {
            if tail.len() != 2 {
                return None;
            }
            // The encoder only emits equated values that occur in the
            // hypothesis, so both ids must already be mapped.
            let l = *map.get(&tail[0])?;
            let r = *map.get(&tail[1])?;
            Some(TdOrEgd::Egd(Egd::new(universe.clone(), l, r, hyp)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{goal_hypothesis, witness_match, CachedAnswer, Probe, ShardCache};
    use std::sync::Arc;
    use typedtd_dependencies::{egd_from_names, td_from_names};
    use typedtd_relational::{isomorphic, Universe, ValuePool};

    fn setup() -> (Arc<Universe>, ValuePool) {
        let u = Universe::untyped_abc();
        let p = ValuePool::new(u.clone());
        (u, p)
    }

    #[test]
    fn renaming_is_invisible() {
        let (u, mut p) = setup();
        let a = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        let b = td_from_names(
            &u,
            &mut p,
            &[&["q", "r1", "s1"], &["q", "r2", "s2"]],
            &["q", "r1", "s2"],
        );
        assert_eq!(dep_key(&TdOrEgd::Td(a)), dep_key(&TdOrEgd::Td(b)));
    }

    #[test]
    fn row_reordering_is_invisible() {
        let (u, mut p) = setup();
        let a = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        let b = td_from_names(
            &u,
            &mut p,
            &[&["x", "y2", "z2"], &["x", "y1", "z1"]],
            &["x", "y1", "z2"],
        );
        // Under the swapped row order the conclusion reads differently, but
        // the canonical order restores a single encoding.
        assert_eq!(dep_key(&TdOrEgd::Td(a)), dep_key(&TdOrEgd::Td(b)));
    }

    #[test]
    fn structure_differences_are_visible() {
        let (u, mut p) = setup();
        let mvd = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        let trivial = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z1"],
        );
        assert_ne!(dep_key(&TdOrEgd::Td(mvd)), dep_key(&TdOrEgd::Td(trivial)));
    }

    #[test]
    fn egd_equality_is_symmetric() {
        let (u, mut p) = setup();
        let a = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        );
        let b = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y2"),
            ("B'", "y1"),
        );
        assert_eq!(dep_key(&TdOrEgd::Egd(a)), dep_key(&TdOrEgd::Egd(b)));
    }

    #[test]
    fn sigma_order_and_duplicates_are_invisible() {
        let (u, mut p) = setup();
        let t1 = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y", "z"]],
            &["x", "y", "w"],
        ));
        let t2 = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y", "z"]],
            &["w", "y", "z"],
        ));
        let goal = t1.clone();
        let k1 = query_key(&[t1.clone(), t2.clone()], &goal);
        let k2 = query_key(&[t2.clone(), t1.clone(), t2.clone()], &goal);
        assert_eq!(k1, k2);
    }

    #[test]
    fn typing_discipline_is_part_of_the_key() {
        let (u, mut p) = setup();
        let ut = Universe::typed(vec!["A", "B", "C"]);
        let mut pt = ValuePool::new(ut.clone());
        let a = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "w"]);
        let b = td_from_names(&ut, &mut pt, &[&["x", "y", "z"]], &["x", "y", "w"]);
        assert_ne!(
            query_key(&[], &TdOrEgd::Td(a)),
            query_key(&[], &TdOrEgd::Td(b))
        );
    }

    #[test]
    fn equal_keys_imply_isomorphic_hypotheses() {
        // The independent cross-check against the isomorphism machinery:
        // whenever two dependency keys agree, the hypothesis tableaux must
        // be isomorphic as relations.
        let (u, mut p) = setup();
        let mk = |p: &mut ValuePool, rows: &[&[&str]], w: &[&str]| {
            TdOrEgd::Td(td_from_names(&u, p, rows, w))
        };
        let deps = [
            mk(
                &mut p,
                &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
                &["x", "y1", "z2"],
            ),
            mk(
                &mut p,
                &[&["a", "b2", "c2"], &["a", "b1", "c1"]],
                &["a", "b1", "c1"],
            ),
            mk(&mut p, &[&["x", "x", "z"]], &["x", "x", "z"]),
            mk(&mut p, &[&["x", "y", "z"]], &["x", "y", "z"]),
        ];
        for (i, d1) in deps.iter().enumerate() {
            for d2 in &deps[i..] {
                if dep_key(d1) == dep_key(d2) {
                    let (TdOrEgd::Td(t1), TdOrEgd::Td(t2)) = (d1, d2) else {
                        unreachable!()
                    };
                    assert!(
                        isomorphic(&t1.hypothesis_relation(), &t2.hypothesis_relation()),
                        "equal keys must mean isomorphic hypothesis tableaux"
                    );
                }
            }
        }
    }

    /// Applies one column permutation to every dependency of a query:
    /// the uniform attribute relabeling the key must normalize away.
    fn permute_query(
        u: &Arc<Universe>,
        _pool: &mut ValuePool,
        sigma: &[TdOrEgd],
        goal: &TdOrEgd,
        perm: &[usize],
    ) -> (Vec<TdOrEgd>, TdOrEgd) {
        let permute_tuple =
            |t: &Tuple| Tuple::new(perm.iter().map(|&c| t.values()[c]).collect());
        let permute_dep = |d: &TdOrEgd| match d {
            TdOrEgd::Td(t) => {
                let hyp: Vec<Tuple> = t.hypothesis().iter().map(&permute_tuple).collect();
                TdOrEgd::Td(typedtd_dependencies::Td::new(
                    u.clone(),
                    permute_tuple(t.conclusion()),
                    hyp,
                ))
            }
            TdOrEgd::Egd(e) => {
                let hyp: Vec<Tuple> = e.hypothesis().iter().map(&permute_tuple).collect();
                TdOrEgd::Egd(typedtd_dependencies::Egd::new(
                    u.clone(),
                    e.left(),
                    e.right(),
                    hyp,
                ))
            }
        };
        (
            sigma.iter().map(permute_dep).collect(),
            permute_dep(goal),
        )
    }

    #[test]
    fn uniform_column_permutations_are_invisible() {
        let (u, mut p) = setup();
        let mvd = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        ));
        let extra = TdOrEgd::Td(td_from_names(&u, &mut p, &[&["q", "r", "r"]], &["q", "r", "r"]));
        let goal = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z1"],
        ));
        let sigma = vec![mvd, extra];
        let base = query_key(&sigma, &goal);
        // Every permutation of the three columns must key identically.
        for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let (ps, pg) = permute_query(&u, &mut p, &sigma, &goal, &perm);
            assert_eq!(
                query_key(&ps, &pg),
                base,
                "column permutation {perm:?} must be normalized away"
            );
        }
    }
    #[test]
    fn nonuniform_column_changes_stay_visible() {
        // Permuting the goal's columns WITHOUT permuting Σ poses a
        // different implication problem — the keys must differ (the
        // normalization is query-wide, not per-dependency). Here:
        // `A' → B' ⊨ A' → B'` (true) versus `A' → B' ⊨ A' → C'` (false).
        let (u, mut p) = setup();
        let fd_b = TdOrEgd::Egd(egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        ));
        let sigma = vec![fd_b.clone()];
        // Swap the goal's B'/C' columns only: the equated pair now lives
        // in column C'.
        let (_, goal_swapped) = permute_query(&u, &mut p, &sigma, &fd_b, &[0, 2, 1]);
        assert_ne!(
            query_key(&sigma, &fd_b),
            query_key(&sigma, &goal_swapped),
            "goal-only column swap changes the problem and must change the key"
        );
    }

    #[test]
    fn permuted_keys_stay_sound_on_near_collisions() {
        // Structurally different queries that are symmetric in two
        // columns: the tie-enumeration path must still keep them apart.
        let (u, mut p) = setup();
        let mvd = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        ));
        let trivial = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z1"],
        ));
        assert_ne!(
            query_key(&[], &mvd),
            query_key(&[], &trivial),
            "distinct structures must not collide under column normalization"
        );
    }

    #[test]
    fn wide_universes_fall_back_to_submitted_column_order() {
        let names: Vec<String> = (0..COL_CAP + 2).map(|i| format!("W{i}")).collect();
        let u = Universe::untyped(names);
        let mut p = ValuePool::new(u.clone());
        let row: Vec<String> = (0..COL_CAP + 2).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        let td = TdOrEgd::Td(td_from_names(&u, &mut p, &[&refs], &refs));
        let k1 = query_key(&[], &td);
        let k2 = query_key(&[], &td);
        assert_eq!(k1, k2, "fallback keys stay deterministic");
        let parts = query_parts(&[], &td);
        assert_eq!(
            parts.perm,
            (0..(COL_CAP + 2) as u16).collect::<Vec<_>>(),
            "beyond COL_CAP the permutation is the identity"
        );
    }

    #[test]
    fn query_key_round_trips_through_bytes() {
        let (u, mut p) = setup();
        let mvd = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        ));
        let fd = TdOrEgd::Egd(egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        ));
        let key = query_key(&[mvd, fd.clone()], &fd);
        let mut bytes = Vec::new();
        key.encode_into(&mut bytes);
        let (back, used) = QueryKey::decode(&bytes).expect("well-formed encoding");
        assert_eq!(used, bytes.len(), "decode must consume exactly what encode wrote");
        assert_eq!(back, key);
        // Truncations never decode (and never panic).
        for cut in 0..bytes.len() {
            assert!(QueryKey::decode(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn witness_relation_is_isomorphic_to_the_permuted_hypothesis() {
        let (u, mut p) = setup();
        let mvd = TdOrEgd::Td(td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        ));
        let parts = query_parts(std::slice::from_ref(&mvd), &mvd);
        let rebuilt = parts.key.witness_relation().expect("well-formed goal encoding");
        let original = permute_relation(&crate::cache::goal_hypothesis(&mvd), &parts.perm);
        assert!(
            crate::cache::witness_match(&rebuilt, &original),
            "replayed witness must pass the same verified-hit check a live witness would"
        );
        // And for a typed query, whose witness lives over a typed universe.
        let ut = Universe::typed(vec!["A", "B", "C"]);
        let mut pt = ValuePool::new(ut.clone());
        let tfd = TdOrEgd::Egd(egd_from_names(
            &ut,
            &mut pt,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B", "y1"),
            ("B", "y2"),
        ));
        let tparts = query_parts(&[], &tfd);
        let trebuilt = tparts.key.witness_relation().expect("typed goal encoding");
        let toriginal = permute_relation(&crate::cache::goal_hypothesis(&tfd), &tparts.perm);
        assert!(crate::cache::witness_match(&trebuilt, &toriginal));
    }

    #[test]
    fn oversized_tableaux_still_get_deterministic_keys() {
        let (u, mut p) = setup();
        let names: Vec<Vec<String>> = (0..ROW_CAP + 2)
            .map(|i| vec![format!("a{i}"), format!("b{i}"), format!("c{i}")])
            .collect();
        let rows: Vec<Vec<&str>> = names
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let row_slices: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        let td = td_from_names(&u, &mut p, &row_slices, &["a0", "b0", "c0"]);
        let k1 = dep_key(&TdOrEgd::Td(td.clone()));
        let k2 = dep_key(&TdOrEgd::Td(td));
        assert_eq!(k1, k2);
    }

    /// A random `(Σ, σ)` over `u`: one to four members, each a td or an
    /// egd with one to three hypothesis rows over three values per
    /// column, listed in reverse when `reverse` is set. Value `v{id}` is
    /// minted at first use, so pre-minting the names in another order
    /// renames every value.
    fn random_query(
        rng: &mut rand::rngs::StdRng,
        u: &Arc<Universe>,
        pool: &mut ValuePool,
        reverse: bool,
    ) -> (Vec<TdOrEgd>, TdOrEgd) {
        use rand::RngExt;
        let width = u.width();
        let mut dep = |rng: &mut rand::rngs::StdRng| {
            let mut val = |c: usize, id: u32| pool.for_attr(AttrId(c as u16), &format!("v{id}"));
            let mut rows: Vec<Tuple> = (0..rng.random_range(1..=3usize))
                .map(|_| (0..width).map(|c| val(c, rng.random_range(0..3u32))).collect())
                .map(Tuple::new)
                .collect();
            let pick = |rng: &mut rand::rngs::StdRng, c: usize| {
                rows[rng.random_range(0..rows.len())].values()[c]
            };
            let tail = if rng.random_range(0..2u32) == 0 {
                let w = (0..width).map(|c| match rng.random_range(0..3u32) {
                    0 => val(c, 3 + rng.random_range(0..2u32)),
                    _ => pick(rng, c),
                });
                Ok(Tuple::new(w.collect()))
            } else {
                let c = rng.random_range(0..width);
                Err((pick(rng, c), pick(rng, c)))
            };
            if reverse {
                rows.reverse();
            }
            match tail {
                Ok(w) => TdOrEgd::Td(Td::new(u.clone(), w, rows)),
                Err((l, r)) => TdOrEgd::Egd(Egd::new(u.clone(), l, r, rows)),
            }
        };
        let sigma = (0..rng.random_range(1..=4usize)).map(|_| dep(rng)).collect();
        (sigma, dep(rng))
    }

    #[test]
    fn random_queries_key_alike_under_every_presentation() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6b65_7973);
        let yes = typedtd_chase::Answer::Yes;
        let (mut splits, mut group_splits) = (0, 0);
        for case in 0..400 {
            let width = rng.random_range(3..=5usize);
            let names: Vec<String> = (0..width).map(|c| format!("A{c}")).collect();
            let u = if case % 2 == 0 { Universe::typed(names) } else { Universe::untyped(names) };
            // Redraws of this query: over a pool that minted every name in
            // reverse order first (every value renamed), and with reversed
            // hypothesis rows.
            let draw = rng.clone();
            let (sigma, goal) = random_query(&mut rng, &u, &mut ValuePool::new(u.clone()), false);
            let mut renamed_pool = ValuePool::new(u.clone());
            for id in (0..5).rev() {
                for c in 0..width {
                    renamed_pool.for_attr(AttrId(c as u16), &format!("v{id}"));
                }
            }
            let redraw =
                |pool: &mut ValuePool, reverse| random_query(&mut draw.clone(), &u, pool, reverse);
            let (renamed, renamed_goal) = redraw(&mut renamed_pool, false);
            let base = query_parts(&sigma, &goal);
            let base_group = group_query(&sigma, &goal).expect("nonzero width");
            if let Some(i) = base.sigma_keys.iter().position(|k| *k == base.goal_key) {
                assert!(
                    witness_match(&goal_hypothesis(&sigma[i]), &goal_hypothesis(&goal)),
                    "case {case}: goal-in-Σ key without isomorphic hypotheses"
                );
            }
            let mut cache = ShardCache::default();
            let answer = CachedAnswer { implication: yes, finite_implication: yes };
            let hyp = permute_relation(&goal_hypothesis(&goal), &base.perm);
            cache.insert(base.key.clone(), answer, hyp, 1);
            let verified = |cache: &mut ShardCache, parts: &QueryParts, goal: &TdOrEgd| {
                let witness = permute_relation(&goal_hypothesis(goal), &parts.perm);
                matches!(cache.probe(&parts.key, Some(&witness)), Probe::Hit { .. })
            };
            let (reversed, reversed_goal) = redraw(&mut ValuePool::new(u.clone()), true);
            let mut rotated = sigma.clone();
            rotated.rotate_left(1);
            let mut repeated = sigma.clone();
            repeated.insert(0, sigma[sigma.len() - 1].clone());
            let (mut all, all_goal) = redraw(&mut renamed_pool, true);
            all.rotate_left(1);
            all.push(all[all.len() - 1].clone());
            for (what, s, g) in [
                ("renaming", renamed.clone(), renamed_goal.clone()),
                ("row order", reversed, reversed_goal),
                ("Σ rotation", rotated, goal.clone()),
                ("Σ repetition", repeated, goal.clone()),
                ("all four", all, all_goal),
            ] {
                let parts = query_parts(&s, &g);
                assert_eq!(parts.key, base.key, "case {case}: {what} changed the key");
                let group = group_query(&s, &g).expect("nonzero width");
                assert_eq!(group.key, base_group.key, "case {case}: {what} changed the group");
                assert_eq!(group.goal, base_group.goal, "case {case}: {what} moved the goal");
                assert!(verified(&mut cache, &parts, &g), "case {case}: {what} hit must verify");
            }
            // A uniform column relabeling poses the same problem, but tied
            // columns keep their submitted order, so it may key apart.
            // Splits are counted; a relabeling that keys alike must verify.
            let mut perm: Vec<usize> = (0..width).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.random_range(0..=i));
            }
            let (s, g) = permute_query(&u, &mut renamed_pool, &renamed, &renamed_goal, &perm);
            let parts = query_parts(&s, &g);
            if parts.key != base.key {
                splits += 1;
            } else {
                assert!(verified(&mut cache, &parts, &g), "case {case}: relabeled hit must verify");
            }
            group_splits += usize::from(group_query(&s, &g).expect("width").key != base_group.key);
        }
        eprintln!("column relabelings: {splits} of 400 keys and {group_splits} Σ-groups split");
    }

    /// Calls `visit` on each query of a seeded corpus of 2,400 random
    /// queries, typed and untyped: widths 1–10 (past [`COL_CAP`]), one to
    /// ten hypothesis rows (past [`ROW_CAP`], and symmetric enough to hit
    /// [`LEAF_CAP`]), and Σ of zero to four members with repeats.
    fn golden_corpus(mut visit: impl FnMut(&[TdOrEgd], &TdOrEgd)) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x676f_6c64);
        for case in 0..2_400 {
            let width = rng.random_range(1..=10usize);
            let names: Vec<String> = (0..width).map(|c| format!("A{c}")).collect();
            let u = if case % 2 == 0 { Universe::typed(names) } else { Universe::untyped(names) };
            let mut pool = ValuePool::new(u.clone());
            // Few distinct values make repeats and ties; many make
            // all-fresh rows, whose orders all tie.
            let spread = [2u32, 3, 12][rng.random_range(0..3usize)];
            let max_rows: usize = if case % 5 == 0 { 10 } else { 4 };
            let mut dep = |rng: &mut rand::rngs::StdRng| {
                let mut val =
                    |c: usize, id: u32| pool.for_attr(AttrId(c as u16), &format!("v{id}"));
                let rows: Vec<Tuple> = (0..rng.random_range(1..=max_rows))
                    .map(|_| (0..width).map(|c| val(c, rng.random_range(0..spread))).collect())
                    .map(Tuple::new)
                    .collect();
                let pick = |rng: &mut rand::rngs::StdRng, c: usize| {
                    rows[rng.random_range(0..rows.len())].values()[c]
                };
                if rng.random_range(0..2u32) == 0 {
                    let w = (0..width)
                        .map(|c| match rng.random_range(0..3u32) {
                            0 => val(c, spread + rng.random_range(0..2u32)),
                            _ => pick(rng, c),
                        })
                        .collect();
                    TdOrEgd::Td(Td::new(u.clone(), Tuple::new(w), rows))
                } else {
                    let c = rng.random_range(0..width);
                    let (l, r) = (pick(rng, c), pick(rng, c));
                    TdOrEgd::Egd(Egd::new(u.clone(), l, r, rows))
                }
            };
            let mut sigma: Vec<TdOrEgd> =
                (0..rng.random_range(0..=4usize)).map(|_| dep(&mut rng)).collect();
            if !sigma.is_empty() && rng.random_range(0..4u32) == 0 {
                let again = sigma[rng.random_range(0..sigma.len())].clone();
                sigma.push(again);
            }
            let goal = if !sigma.is_empty() && rng.random_range(0..8u32) == 0 {
                sigma[0].clone()
            } else {
                dep(&mut rng)
            };
            visit(&sigma, &goal);
        }
    }

    /// 64-bit FNV-1a over the little-endian bytes of `words`, then a
    /// separator byte, so concatenations cannot alias.
    fn fnv_fold(digest: &mut u64, words: impl Iterator<Item = u32>) {
        for w in words {
            for b in w.to_le_bytes() {
                *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        *digest = (*digest ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    /// Golden digest of every key this module computes over
    /// [`golden_corpus`]. The digest folds in the bytes of
    /// [`QueryKey::encode_into`], the permutation, the per-dependency
    /// encodings and the goal's, and the Σ-group key and goal. Keys are
    /// persisted in answer logs, so the digest must never move: a change
    /// here orphans every log written before it.
    #[test]
    fn keys_match_their_golden_digest() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        golden_corpus(|sigma, goal| {
            let parts = query_parts(sigma, goal);
            let mut bytes = Vec::new();
            parts.key.encode_into(&mut bytes);
            fnv_fold(&mut digest, bytes.iter().map(|&b| u32::from(b)));
            fnv_fold(&mut digest, parts.perm.iter().map(|&c| u32::from(c)));
            for k in &parts.sigma_keys {
                fnv_fold(&mut digest, k.iter().copied());
            }
            fnv_fold(&mut digest, parts.goal_key.iter().copied());
            let group = group_query(sigma, goal).expect("nonzero width");
            for k in &group.key.sigma {
                fnv_fold(&mut digest, k.iter().copied());
            }
            fnv_fold(&mut digest, group.key.hyp.iter().copied());
            fnv_fold(&mut digest, group.goal.iter().copied());
        });
        assert_eq!(digest, GOLDEN_KEY_DIGEST, "canonical keys moved: {digest:#018x}");
    }

    /// [`keys_match_their_golden_digest`]'s digest.
    const GOLDEN_KEY_DIGEST: u64 = 0x228b_123e_ddaa_3a87;

    /// Golden digest of how [`QueryKey`]'s `Hash` places the keys of
    /// [`golden_corpus`]: each key's `DefaultHasher` output (which picks
    /// its scheduler shard) and `FxHasher` output (which picks its cache
    /// bucket). A change here moves keys between shards and buckets.
    #[test]
    fn key_hashes_match_their_golden_digest() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let sip = BuildHasherDefault::<DefaultHasher>::default();
        let fx = FxHashMap::<QueryKey, ()>::default();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        golden_corpus(|sigma, goal| {
            let key = query_key(sigma, goal);
            for h in [sip.hash_one(&key), fx.hasher().hash_one(&key)] {
                fnv_fold(&mut digest, [h as u32, (h >> 32) as u32].into_iter());
            }
        });
        assert_eq!(digest, GOLDEN_HASH_DIGEST, "key hashes moved: {digest:#018x}");
    }

    /// [`key_hashes_match_their_golden_digest`]'s digest.
    const GOLDEN_HASH_DIGEST: u64 = 0x0e26_64b8_3cbd_a2cf;

    /// The standard shared-Σ fixture: mvd + fd over untyped ABC, three
    /// member goals over one hypothesis tableau (a td and two egds).
    fn group_fixture() -> (Vec<TdOrEgd>, Vec<TdOrEgd>) {
        let (u, mut p) = setup();
        let rows: &[&[&str]] = &[&["x", "y1", "z1"], &["x", "y2", "z2"]];
        let mvd = TdOrEgd::Td(td_from_names(&u, &mut p, rows, &["x", "y1", "z2"]));
        let fd = TdOrEgd::Egd(egd_from_names(&u, &mut p, rows, ("B'", "y1"), ("B'", "y2")));
        let sigma = vec![mvd.clone(), fd];
        let goals = vec![
            mvd,
            TdOrEgd::Egd(egd_from_names(&u, &mut p, rows, ("B'", "y1"), ("B'", "y2"))),
            TdOrEgd::Egd(egd_from_names(&u, &mut p, rows, ("C'", "z1"), ("C'", "z2"))),
        ];
        (sigma, goals)
    }

    #[test]
    fn same_sigma_same_hypothesis_goals_share_a_group() {
        let (sigma, goals) = group_fixture();
        let keys: Vec<GroupKey> = goals
            .iter()
            .map(|g| group_query(&sigma, g).expect("groupable").key)
            .collect();
        // A td goal and two egd goals over one hypothesis: one group.
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[1], keys[2]);
        // A different Σ keys a different group.
        let (u, mut p) = setup();
        let other = TdOrEgd::Td(td_from_names(&u, &mut p, &[&["a", "b", "c"]], &["a", "b", "w"]));
        assert_ne!(group_query(&[other], &goals[0]).unwrap().key, keys[0]);
    }

    #[test]
    fn renamed_reordered_members_share_a_group() {
        let (sigma, goals) = group_fixture();
        let base = group_query(&sigma, &goals[1]).unwrap();
        // Same member, renamed and with its hypothesis rows swapped.
        let (u, mut p) = setup();
        let renamed = TdOrEgd::Egd(egd_from_names(
            &u,
            &mut p,
            &[&["q", "r2", "s2"], &["q", "r1", "s1"]],
            ("B'", "r2"),
            ("B'", "r1"),
        ));
        let rq = group_query(&sigma, &renamed).unwrap();
        assert_eq!(rq.key, base.key);
        assert_eq!(rq.goal, base.goal);
    }

    #[test]
    fn decoded_group_saturation_answers_every_member() {
        use typedtd_chase::{ChaseConfig, ChaseOutcome, ChaseTask};
        let (sigma, goals) = group_fixture();
        let queries: Vec<GroupQuery> =
            goals.iter().map(|g| group_query(&sigma, g).unwrap()).collect();
        let decoded = queries[0].key.decode().expect("well-formed group key");
        assert_eq!(decoded.sigma.len(), 2, "Σ decodes dependency-for-dependency");
        assert_eq!(decoded.seed.len(), 2, "seed is the two-row hypothesis");
        let mut task = ChaseTask::saturation(
            &decoded.seed,
            decoded.sigma,
            decoded.pool,
            ChaseConfig::default(),
        );
        assert_eq!(task.run_to_completion(), ChaseOutcome::NotImplied, "terminal");
        // Member 0 (the mvd td, an element of Σ) and member 1 (the fd's
        // own egd) are derivable; member 2 (C'-equality) is refuted by
        // the terminal instance.
        let expect = [true, true, false];
        for (q, want) in queries.iter().zip(expect) {
            let goal = decoded
                .decoder
                .decode_goal(&q.goal, task.pool_mut())
                .expect("member goal decodes into the group space");
            assert_eq!(task.goal_derivable(&goal), want);
        }
    }
}
