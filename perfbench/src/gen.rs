//! Seeded workload generators. The same seed always yields the same query
//! texts, in the same order; nothing here reads a clock.
//!
//! * the **history corpus** — fd/mvd Σ over 5–6 typed attributes and full
//!   tds over 3–4, several times more structures than the daemon's
//!   4,096-entry cache holds; it is driven through `--log` to build the
//!   answer log every timed daemon starts from;
//! * **`hot_repeats`** — the most recent history structures again, with
//!   renamed variables, rotated Σ and repeated Σ members;
//! * **`cold_chase`** — structurally distinct weakly acyclic queries: typed
//!   mvd/fd Σ with three-component total-jd goals over 6–8 attributes;
//! * **`frontier_cap`** — untyped queries in the undecidable regime: fds
//!   mixed with one unary ind, and successor tds with egd goals.

use crate::reference;
use std::collections::{HashMap, HashSet};
use typedtd_service::{query_parts, QueryKey};

/// Structures in the history corpus.
pub const HISTORY_LEN: usize = 26_000;
/// Distinct recent history structures `hot_repeats` resubmits.
pub const HOT_LEN: usize = 2_000;
/// Rounds of fresh re-presentations of those structures in one pass.
pub const HOT_ROUNDS: usize = 5;
/// Queries in one `cold_chase` pass.
pub const COLD_LEN: usize = 8_000;
/// Queries in one `frontier_cap` pass.
pub const FRONTIER_LEN: usize = 4_000;

const NAMES: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-stream salt.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct attributes out of `0..n`, in random order.
    fn attrs(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

/// One dependency, kept structured so a re-presentation can rename and
/// reorder it without changing what it says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dep {
    /// `X -> Y`.
    Fd(Vec<usize>, Vec<usize>),
    /// `X ->> Y`.
    Mvd(Vec<usize>, Vec<usize>),
    /// `*[R1, …, Rk]` (total).
    Jd(Vec<Vec<usize>>),
    /// `[X] <= [Y]` over attribute sequences.
    Ind(Vec<usize>, Vec<usize>),
    /// `td [rows] => row`; cells are variable ids.
    Td(Vec<Vec<u32>>, Vec<u32>),
    /// `egd [rows] => a = b`.
    Egd(Vec<Vec<u32>>, (u32, u32)),
}

impl Dep {
    fn render(&self, names: &dyn Fn(u32) -> String) -> String {
        let set = |s: &[usize]| s.iter().map(|&a| NAMES[a]).collect::<String>();
        let rows = |rs: &[Vec<u32>]| {
            rs.iter()
                .map(|r| r.iter().map(|&v| names(v)).collect::<Vec<_>>().join(" "))
                .collect::<Vec<_>>()
                .join(" ; ")
        };
        match self {
            Dep::Fd(l, r) => format!("{} -> {}", set(l), set(r)),
            Dep::Mvd(l, r) => format!("{} ->> {}", set(l), set(r)),
            Dep::Jd(cs) => format!(
                "*[{}]",
                cs.iter().map(|c| set(c)).collect::<Vec<_>>().join(", ")
            ),
            Dep::Ind(l, r) => format!("[{}] <= [{}]", set(l), set(r)),
            Dep::Td(h, c) => format!("td [{}] => {}", rows(h), rows(std::slice::from_ref(c))),
            Dep::Egd(h, (a, b)) => format!("egd [{}] => {} = {}", rows(h), names(*a), names(*b)),
        }
    }

    /// The same dependency written differently: attribute letters of each
    /// side shuffled, td/egd hypothesis rows reordered. Sequences of an ind
    /// keep their order (it is part of the meaning).
    fn reordered(&self, rng: &mut Rng) -> Dep {
        let mut d = self.clone();
        match &mut d {
            Dep::Fd(l, r) | Dep::Mvd(l, r) => {
                rng.shuffle(l);
                rng.shuffle(r);
            }
            Dep::Jd(cs) => {
                for c in cs.iter_mut() {
                    rng.shuffle(c);
                }
                rng.shuffle(cs);
            }
            Dep::Td(h, _) | Dep::Egd(h, _) => rng.shuffle(h),
            Dep::Ind(..) => {}
        }
        d
    }
}

/// A query as the generators build it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Universe width.
    pub width: usize,
    /// Typed (disjoint column domains) or untyped.
    pub typed: bool,
    /// Σ, in submission order.
    pub sigma: Vec<Dep>,
    /// The goal.
    pub goal: Dep,
    /// Variable names are `{prefix}{id}`; a renamed presentation changes
    /// the prefix and permutes the ids.
    pub var_prefix: &'static str,
    /// Variable id bijection applied at render time.
    pub var_perm: Vec<u32>,
}

/// Variable ids stay below this bound in every generator.
const VARS: u32 = 32;

impl Query {
    fn new(width: usize, typed: bool, sigma: Vec<Dep>, goal: Dep) -> Self {
        Self {
            width,
            typed,
            sigma,
            goal,
            var_prefix: "v",
            var_perm: (0..VARS).collect(),
        }
    }

    /// The `SUBMIT` universe spec: `[untyped] A B …`.
    pub fn universe(&self) -> String {
        let names = NAMES[..self.width].join(" ");
        if self.typed {
            names
        } else {
            format!("untyped {names}")
        }
    }

    /// The `SUBMIT` query text: `σ1 & σ2 |= goal`.
    pub fn text(&self) -> String {
        let names = |v: u32| format!("{}{}", self.var_prefix, self.var_perm[v as usize]);
        let sigma: Vec<String> = self.sigma.iter().map(|d| d.render(&names)).collect();
        format!("{} |= {}", sigma.join(" & "), self.goal.render(&names))
    }

    /// Σ is all fds and the goal is an fd: Armstrong closure decides it.
    pub fn fd_only(&self) -> bool {
        matches!(self.goal, Dep::Fd(..)) && self.sigma.iter().all(|d| matches!(d, Dep::Fd(..)))
    }

    /// Typed, Σ all mvds, goal an mvd: the dependency basis decides it.
    pub fn mvd_only(&self) -> bool {
        self.typed
            && matches!(self.goal, Dep::Mvd(..))
            && self.sigma.iter().all(|d| matches!(d, Dep::Mvd(..)))
    }

    /// A re-presentation of the same structure: Σ rotated, one member
    /// repeated one time in four, sides and rows reordered, and variables
    /// renamed.
    pub fn represented(&self, rng: &mut Rng) -> Query {
        let mut q = self.clone();
        let n = q.sigma.len();
        q.sigma.rotate_left(rng.below(n));
        if rng.chance(1, 4) {
            let dup = q.sigma[rng.below(n)].clone();
            q.sigma.insert(rng.below(n + 1), dup);
        }
        q.sigma = q.sigma.iter().map(|d| d.reordered(rng)).collect();
        q.goal = q.goal.reordered(rng);
        q.var_prefix = ["w", "x", "y", "z"][rng.below(4)];
        rng.shuffle(&mut q.var_perm);
        q
    }
}

/// A nontrivial fd or mvd side pair over `width` attributes: `lhs` of
/// 1–2 attributes, `rhs` of 1–`max_rhs` others.
fn sides(rng: &mut Rng, width: usize, max_rhs: usize) -> (Vec<usize>, Vec<usize>) {
    let l = rng.range(1, 2);
    let r = rng.range(1, max_rhs.min(width - l - 1).max(1));
    let picked = rng.attrs(width, l + r);
    (picked[..l].to_vec(), picked[l..].to_vec())
}

fn fd(rng: &mut Rng, width: usize, max_rhs: usize) -> Dep {
    let (l, r) = sides(rng, width, max_rhs);
    Dep::Fd(l, r)
}

fn mvd(rng: &mut Rng, width: usize) -> Dep {
    let (l, r) = sides(rng, width, 2);
    Dep::Mvd(l, r)
}

/// A full td over `width` columns: 2–3 hypothesis rows whose columns
/// share values, and a conclusion built from hypothesis values only.
fn full_td(rng: &mut Rng, width: usize) -> Dep {
    let rows = rng.range(2, 3);
    let mut hyp = vec![vec![0u32; width]; rows];
    let mut concl = vec![0u32; width];
    for c in 0..width {
        // Column `c` draws from its own ids (`c*4 ..`), so a typed reading
        // and an untyped one agree on which cells are equal.
        let distinct = rng.range(1, rows) as u32;
        for row in hyp.iter_mut() {
            row[c] = c as u32 * 4 + rng.below(distinct as usize) as u32;
        }
        concl[c] = hyp[rng.below(rows)][c];
    }
    Dep::Td(hyp, concl)
}

/// The history corpus for `seed`: [`HISTORY_LEN`] structures, three in
/// four fd/mvd queries over 5–6 attributes, the rest full tds over 3–4.
pub fn history(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0x4849_5354);
    (0..HISTORY_LEN)
        .map(|_| {
            if rng.chance(3, 4) {
                let width = rng.range(5, 6);
                let n = rng.range(2, 4);
                match rng.below(10) {
                    // fd-only: Armstrong closure checks these.
                    0..=3 => Query::new(
                        width,
                        true,
                        (0..n).map(|_| fd(&mut rng, width, 2)).collect(),
                        fd(&mut rng, width, 1),
                    ),
                    // mvd-only: the dependency basis checks these.
                    4..=6 => Query::new(
                        width,
                        true,
                        (0..n).map(|_| mvd(&mut rng, width)).collect(),
                        mvd(&mut rng, width),
                    ),
                    _ => {
                        let sigma = (0..n)
                            .map(|_| {
                                if rng.chance(1, 2) {
                                    fd(&mut rng, width, 2)
                                } else {
                                    mvd(&mut rng, width)
                                }
                            })
                            .collect();
                        let goal = if rng.chance(1, 2) {
                            fd(&mut rng, width, 1)
                        } else {
                            mvd(&mut rng, width)
                        };
                        Query::new(width, true, sigma, goal)
                    }
                }
            } else {
                let width = rng.range(3, 4);
                let n = rng.range(1, 2);
                Query::new(
                    width,
                    true,
                    (0..n).map(|_| full_td(&mut rng, width)).collect(),
                    full_td(&mut rng, width),
                )
            }
        })
        .collect()
}

/// The `hot_repeats` pass: the [`HOT_LEN`] most recent history structures
/// whose keys occur once in the corpus, re-presented afresh in each of
/// [`HOT_ROUNDS`] rounds.
///
/// A re-presentation either keeps its structure's key (resident in the
/// replayed cache) or, through the repeated-Σ canonicalization defect,
/// lands on a key no other query of the pass uses: such a key misses
/// exactly once and is never raced by an in-flight twin, so the pass's hit
/// count is the same on every run.
pub fn hot_stream(seed: u64, history: &[Query]) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0x484f_5421);
    // Only structures whose keys occur once in the whole corpus: each was
    // computed and logged at its own position, so the recent ones hold the
    // newest records, which replay keeps and a pass's evictions never
    // reach. (A structure seen before may have been served from the cache
    // and never logged again, leaving it an old record at the LRU's cold
    // end, evicted or not depending on when misses land.)
    let keyed: Vec<Vec<QueryKey>> = history
        .iter()
        .map(|q| part_keys(q).unwrap_or_default())
        .collect();
    let mut count: HashMap<&QueryKey, u32> = HashMap::new();
    for k in keyed.iter().flatten() {
        *count.entry(k).or_insert(0) += 1;
    }
    let mut recent: Vec<(&Query, &Vec<QueryKey>)> = history
        .iter()
        .zip(&keyed)
        .rev()
        .filter(|(_, keys)| !keys.is_empty() && keys.iter().all(|k| count[k] == 1))
        .take(HOT_LEN)
        .collect();
    let seen: HashSet<&QueryKey> = count.keys().copied().collect();
    // One structure order for every round, so a structure's presentations
    // are a whole round apart and never in flight together.
    rng.shuffle(&mut recent);
    let mut taken: HashSet<QueryKey> = HashSet::new();
    let mut out = Vec::with_capacity(recent.len() * HOT_ROUNDS);
    for _ in 0..HOT_ROUNDS {
        for (q, own) in &recent {
            // A re-presentation keeps its structure's own key or moves to
            // a key no other presentation in the stream uses.
            let clashes = |keys: &[QueryKey], taken: &HashSet<QueryKey>| {
                keys.iter()
                    .any(|k| !own.contains(k) && (taken.contains(k) || seen.contains(k)))
            };
            for _ in 0..8 {
                let r = q.represented(&mut rng);
                let Ok(keys) = part_keys(&r) else { continue };
                if !clashes(&keys, &taken) {
                    taken.extend(keys.into_iter().filter(|k| !own.contains(k)));
                    out.push(r);
                    break;
                }
            }
        }
    }
    out
}

/// Canonical keys of every normalized goal part of `q`, as the daemon's
/// submit path computes them (parse, normalize Σ then the goal, key each
/// part against the whole normalized Σ).
pub fn part_keys(q: &Query) -> Result<Vec<QueryKey>, String> {
    let p = reference::parse(q)?;
    Ok(p.parts
        .iter()
        .map(|part| query_parts(&p.sigma, part).key)
        .collect())
}

/// Keeps generating with `make` until `len` queries whose goal parts all
/// carry keys no earlier query used: every query of the stream misses the
/// cache, and no two coalesce.
fn distinct(len: usize, mut make: impl FnMut() -> Query) -> Vec<Query> {
    let mut seen: HashSet<QueryKey> = HashSet::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let q = make();
        let Ok(keys) = part_keys(&q) else { continue };
        if keys.is_empty() || keys.iter().any(|k| seen.contains(k)) {
            continue;
        }
        seen.extend(keys);
        out.push(q);
    }
    out
}

/// The `cold_chase` pass: [`COLD_LEN`] structurally distinct typed
/// queries, 2–3 mvds plus 0–2 fds over 6–8 attributes, each asking for a
/// total jd of three components. (A fourth component, or a fourth mvd,
/// lets a few tableaux grow into chases of 50–130 ms that set a seed's
/// whole mean.)
pub fn cold_stream(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0x434f_4c44);
    let mut i = 0usize;
    distinct(COLD_LEN, || {
        // Width and Σ size cycle through fixed proportions, so seeds differ
        // in the queries, not in the mix.
        i += 1;
        let width = 6 + i % 3;
        let mut sigma: Vec<Dep> = (0..2 + (i / 3) % 2).map(|_| mvd(&mut rng, width)).collect();
        for _ in 0..(i / 6) % 3 {
            sigma.push(fd(&mut rng, width, 2));
        }
        rng.shuffle(&mut sigma);
        Query::new(width, true, sigma, jd(&mut rng, width))
    })
}

/// A total jd over `width` attributes with three components of at least
/// two attributes, every attribute covered and consecutive components
/// overlapping.
fn jd(rng: &mut Rng, width: usize) -> Dep {
    let k = 3;
    let mut order: Vec<usize> = (0..width).collect();
    rng.shuffle(&mut order);
    // Cut the shuffled attributes into k runs, then let each run borrow
    // the first attribute of the next, so the components chain.
    let mut cuts: Vec<usize> = (1..width).collect();
    rng.shuffle(&mut cuts);
    let mut cuts: Vec<usize> = cuts[..k - 1].to_vec();
    cuts.sort_unstable();
    let mut comps = Vec::with_capacity(k);
    let mut start = 0;
    for (i, &end) in cuts.iter().chain(std::iter::once(&width)).enumerate() {
        let mut c: Vec<usize> = order[start..end].to_vec();
        if i + 1 < k {
            c.push(order[end]);
        } else if c.len() < 2 {
            c.push(order[0]);
        }
        c.sort_unstable();
        comps.push(c);
        start = end;
    }
    Dep::Jd(comps)
}

/// The `frontier_cap` pass: [`FRONTIER_LEN`] untyped queries over 3–5
/// attributes with no canonical duplicates. Two in three mix 1–3 fds with
/// one unary ind, asked for an fd (implied by the fds alone two times in
/// five) or a unary ind; one in three is one successor td asked for an
/// egd, which no chase of tds can ever derive.
///
/// Each Σ holds exactly one value-creating dependency, so every chase round
/// adds a bounded number of rows. Two of them (two inds, or two successor
/// tds) would let each fresh row trigger both and double the instance per
/// round, until one fuel unit costs seconds.
pub fn frontier_stream(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0x4652_4f4e);
    let mut i = 0usize;
    distinct(FRONTIER_LEN, || {
        i += 1;
        let width = rng.range(3, 5);
        if !i.is_multiple_of(3) {
            let mut sigma: Vec<Dep> = (0..rng.range(1, 3))
                .map(|_| fd(&mut rng, width, 1))
                .collect();
            sigma.push(unary_ind(&mut rng, width));
            rng.shuffle(&mut sigma);
            // Goal kinds in fixed proportions, so seeds differ in the
            // queries, not in the mix.
            let goal = match (i / 3) % 5 {
                0 | 1 => implied_fd(&mut rng, width, &sigma),
                2 => fd(&mut rng, width, 1),
                _ => unary_ind(&mut rng, width),
            };
            Query::new(width, false, sigma, goal)
        } else {
            Query::new(
                width,
                false,
                vec![successor_td(&mut rng, width)],
                egd(&mut rng, width),
            )
        }
    })
}

/// An fd that Σ's fds imply by Armstrong closure from the left side of
/// one of them (a random fd when that closure adds nothing).
fn implied_fd(rng: &mut Rng, width: usize, sigma: &[Dep]) -> Dep {
    let fds: Vec<(&Vec<usize>, &Vec<usize>)> = sigma
        .iter()
        .filter_map(|d| match d {
            Dep::Fd(l, r) => Some((l, r)),
            _ => None,
        })
        .collect();
    let lhs = fds[rng.below(fds.len())].0.clone();
    let mut closed = vec![false; width];
    for &a in &lhs {
        closed[a] = true;
    }
    let mut grew = true;
    while grew {
        grew = false;
        for (l, r) in &fds {
            if l.iter().all(|&a| closed[a]) {
                for &a in r.iter() {
                    grew |= !closed[a];
                    closed[a] = true;
                }
            }
        }
    }
    let targets: Vec<usize> = (0..width)
        .filter(|a| closed[*a] && !lhs.contains(a))
        .collect();
    if targets.is_empty() {
        return fd(rng, width, 1);
    }
    Dep::Fd(lhs, vec![targets[rng.below(targets.len())]])
}

fn unary_ind(rng: &mut Rng, width: usize) -> Dep {
    let ab = rng.attrs(width, 2);
    Dep::Ind(vec![ab[0]], vec![ab[1]])
}

/// An untyped td whose conclusion moves a hypothesis value into another
/// column next to a fresh (existential) value: every row demands a
/// successor row, so the chase never stops.
fn successor_td(rng: &mut Rng, width: usize) -> Dep {
    let hyp: Vec<u32> = (0..width as u32).collect();
    let target = rng.below(width);
    let source = (target + rng.range(1, width - 1)) % width;
    let mut next = width as u32;
    // The source column of the new row holds a fresh value, which in turn
    // moves to `target` in the next row: R(x, y) -> R(y, z) on two columns.
    let concl = (0..width)
        .map(|c| {
            if c == target {
                hyp[source]
            } else if c == source || rng.chance(1, 3) {
                next += 1;
                next - 1
            } else {
                hyp[c]
            }
        })
        .collect();
    Dep::Td(vec![hyp], concl)
}

/// A two-row untyped egd equating two distinct values of one column.
fn egd(rng: &mut Rng, width: usize) -> Dep {
    let col = rng.below(width);
    let mut r0: Vec<u32> = (0..width).map(|_| rng.below(4) as u32).collect();
    let mut r1: Vec<u32> = (0..width).map(|_| rng.below(4) as u32).collect();
    r0[col] = 4;
    r1[col] = 5;
    if rng.chance(1, 2) {
        // Agree on one other column, fd-style.
        let other = (col + rng.range(1, width - 1)) % width;
        r1[other] = r0[other];
    }
    Dep::Egd(vec![r0, r1], (4, 5))
}
