//! Workload generators shared by the Criterion benches and the
//! `experiments` binary.
//!
//! The paper has no empirical section — its "evaluation" is a sequence of
//! constructions — so the measured workloads here are the natural scaling
//! families around those constructions: random relations for satisfaction
//! and homomorphism search, fd/mvd families for the decidable chase, td
//! families for the translations, and the Section 6 blowup series.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use typedtd_dependencies::{egd_from_names, td_from_names, Fd, Mvd, Td, TdOrEgd};
use typedtd_relational::{AttrId, Relation, Tuple, Universe, Value, ValuePool};

/// A typed universe `A1 … A{width}`.
pub fn universe(width: usize) -> Arc<Universe> {
    Universe::typed((1..=width).map(|i| format!("A{i}")).collect())
}

/// A random relation with `rows` rows over a per-column domain of `k`
/// values (deterministic in `seed`).
pub fn random_relation(
    u: &Arc<Universe>,
    pool: &mut ValuePool,
    rows: usize,
    k: usize,
    seed: u64,
) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain: Vec<Vec<Value>> = u
        .attrs()
        .map(|a| {
            (0..k)
                .map(|i| pool.typed(a, &format!("{}v{i}", u.name(a))))
                .collect()
        })
        .collect();
    let mut rel = Relation::new(u.clone());
    for _ in 0..rows {
        rel.insert(Tuple::new(
            (0..u.width())
                .map(|c| domain[c][rng.random_range(0..k)])
                .collect(),
        ));
    }
    rel
}

/// The fd chain `A1 → A2, A2 → A3, …` of the given length.
pub fn fd_chain(_u: &Arc<Universe>, len: usize) -> Vec<Fd> {
    (0..len)
        .map(|i| {
            Fd::new(
                [AttrId(i as u16)].into_iter().collect(),
                [AttrId(i as u16 + 1)].into_iter().collect(),
            )
        })
        .collect()
}

/// The mvd chain `A1 ↠ A2, A2 ↠ A3, …`.
pub fn mvd_chain(u: &Arc<Universe>, len: usize) -> Vec<Mvd> {
    (0..len)
        .map(|i| {
            Mvd::new(
                u.clone(),
                [AttrId(i as u16)].into_iter().collect(),
                [AttrId(i as u16 + 1)].into_iter().collect(),
            )
        })
        .collect()
}

/// Chase-ready form of an mvd chain plus the transitive goal
/// `A1 ↠ A{len+1}`.
pub fn mvd_chain_instance(
    u: &Arc<Universe>,
    pool: &mut ValuePool,
    len: usize,
) -> (Vec<TdOrEgd>, TdOrEgd) {
    let sigma = mvd_chain(u, len)
        .into_iter()
        .map(|m| TdOrEgd::Td(m.to_pjd().to_td(u, pool)))
        .collect();
    let goal_mvd = Mvd::new(
        u.clone(),
        [AttrId(0)].into_iter().collect(),
        [AttrId(len as u16)].into_iter().collect(),
    );
    (sigma, TdOrEgd::Td(goal_mvd.to_pjd().to_td(u, pool)))
}

/// A random td with `rows` hypothesis rows over `vars` variables per
/// column; the conclusion reuses hypothesis variables on a prefix of the
/// columns and is fresh elsewhere.
pub fn random_td(
    u: &Arc<Universe>,
    pool: &mut ValuePool,
    rows: usize,
    vars: usize,
    seed: u64,
) -> Td {
    let mut rng = StdRng::seed_from_u64(seed);
    let var_pool: Vec<Vec<Value>> = u
        .attrs()
        .map(|a| {
            (0..vars)
                .map(|i| pool.fresh(Some(a), &format!("x{i}_")))
                .collect()
        })
        .collect();
    let hyp: Vec<Tuple> = (0..rows)
        .map(|_| {
            Tuple::new(
                (0..u.width())
                    .map(|c| var_pool[c][rng.random_range(0..vars)])
                    .collect(),
            )
        })
        .collect();
    let w = Tuple::new(
        (0..u.width())
            .map(|c| {
                if c < u.width() / 2 {
                    hyp[rng.random_range(0..rows)].get(AttrId(c as u16))
                } else {
                    pool.fresh(Some(AttrId(c as u16)), "w_")
                }
            })
            .collect(),
    );
    Td::new(u.clone(), w, hyp)
}

/// A saturation workload: a seeded random initial relation plus the mvd
/// chain `A1 ↠ A2, …` as tds, ready for [`typedtd_chase::saturate`].
///
/// This is the configuration where naive per-round full rescans are most
/// expensive: the chase keeps adding exchange rows, and every round the
/// naive engine re-enumerates every hypothesis embedding over the whole
/// grown instance while the semi-naive engine only probes the delta.
pub fn saturation_workload(
    width: usize,
    chain: usize,
    rows: usize,
    seed: u64,
) -> (Relation, Vec<TdOrEgd>, ValuePool) {
    let u = universe(width);
    let mut pool = ValuePool::new(u.clone());
    let init = random_relation(&u, &mut pool, rows, 2, seed);
    let sigma = mvd_chain(&u, chain)
        .into_iter()
        .map(|m| TdOrEgd::Td(m.to_pjd().to_td(&u, &mut pool)))
        .collect();
    (init, sigma, pool)
}

/// A budget-bounded divergent saturation workload: `inert_rows` rows of
/// pairwise-distinct values over `U' = A'B'C'` plus the non-total td
/// `(x, y, z) ⇒ (y, q1, q2)` ("every B'-value starts a row").
///
/// The chase never terminates on this instance — each round extends every
/// chain by one fresh row — so saturation runs to the configured budget.
/// Growth is *linear* (one new row per live chain per round) across many
/// rounds, which is exactly where naive per-round full rescans go
/// quadratic while the semi-naive engine stays linear.
pub fn divergent_saturation_workload(
    inert_rows: usize,
    seed: u64,
) -> (Relation, Vec<TdOrEgd>, ValuePool) {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut init = Relation::new(u.clone());
    let mut i = 0usize;
    while init.len() < inert_rows {
        // Distinct values everywhere; the seed only shuffles naming.
        let salt = rng.random_range(0..1_000_000usize);
        init.insert(Tuple::new(vec![
            pool.untyped(&format!("a{i}_{salt}")),
            pool.untyped(&format!("b{i}_{salt}")),
            pool.untyped(&format!("c{i}_{salt}")),
        ]));
        i += 1;
    }
    let successor = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    (init, vec![TdOrEgd::Td(successor)], pool)
}

/// An egd-heavy saturation workload: a seeded random relation over a
/// `k`-per-column domain plus the fd chain `A1 → A2, …` normalized to egds
/// (and the closing mvd `A1 ↠ A2` so td rounds interleave with merges).
///
/// Dense value reuse (small `k`) makes the fd chain cascade: every merge
/// rewrites rows, which under the naive engine restarts a full violation
/// scan per merge — the quadratic behaviour the semi-naive engine removes.
pub fn egd_saturation_workload(
    width: usize,
    rows: usize,
    k: usize,
    seed: u64,
) -> (Relation, Vec<TdOrEgd>, ValuePool) {
    let u = universe(width);
    let mut pool = ValuePool::new(u.clone());
    let init = random_relation(&u, &mut pool, rows, k, seed);
    let mut sigma: Vec<TdOrEgd> = fd_chain(&u, width - 1)
        .into_iter()
        .flat_map(|f| f.to_egds(&u, &mut pool))
        .map(TdOrEgd::Egd)
        .collect();
    sigma.push(TdOrEgd::Td(exchange_td(&u, &mut pool)));
    (init, sigma, pool)
}

/// An egd-cascade workload whose union-find merge activity stays
/// proportional to rounds (instead of collapsing in round 0).
///
/// Over `U' = A'B'C'` each of `chains` seed rows `(aᵢ, bᵢ, cᵢ)` starts an
/// infinite chain driven by two successor tds and two fds-as-egds:
///
/// * td₁ `(x, y, z) ⇒ (y, q₁, q₂)` and td₂ `(x, y, z) ⇒ (y, z, q₃)` both
///   fire on every live row, producing two rows that share their `A'`
///   value;
/// * `A' → B'` then merges the fresh `q₁` with the old `z`, and `A' → C'`
///   merges `q₂` with `q₃` — collapsing the two successors into one row
///   (which also exercises duplicate-row compaction and the dirty-log
///   remap) that seeds the next round.
///
/// Steady state: per chain per round, two td inserts, two egd merges, one
/// compaction — linear growth, constant per-round merge activity, never
/// terminating (runs to the configured budget).
pub fn egd_cascade_workload(chains: usize, seed: u64) -> (Relation, Vec<TdOrEgd>, ValuePool) {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut init = Relation::new(u.clone());
    let mut i = 0usize;
    while init.len() < chains {
        let salt = rng.random_range(0..1_000_000usize);
        init.insert(Tuple::new(vec![
            pool.untyped(&format!("a{i}_{salt}")),
            pool.untyped(&format!("b{i}_{salt}")),
            pool.untyped(&format!("c{i}_{salt}")),
        ]));
        i += 1;
    }
    let td1 = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
    let td2 = td_from_names(&u, &mut pool, &[&["x", "y", "z"]], &["y", "z", "q3"]);
    let fd_b = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    let fd_c = egd_from_names(
        &u,
        &mut pool,
        &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
        ("C'", "z1"),
        ("C'", "z2"),
    );
    let sigma = vec![
        TdOrEgd::Td(td1),
        TdOrEgd::Td(td2),
        TdOrEgd::Egd(fd_b),
        TdOrEgd::Egd(fd_c),
    ];
    (init, sigma, pool)
}

/// One implication query: `(Σ, goal, pool)` ready for `decide` or a
/// service submission.
pub type Query = (Vec<TdOrEgd>, TdOrEgd, ValuePool);

/// A cache-friendly batch: `distinct` structurally different fd/mvd-chain
/// implication queries, each resubmitted `renamings` times under fresh
/// variable names and rotated Σ order — the million-tenant shape a real
/// service sees. Every query carries its own pool, as service jobs do.
pub fn service_batch_workload(distinct: usize, renamings: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(distinct * renamings);
    for d in 0..distinct {
        // Alternate decided-yes chains and refuted goals so the batch
        // exercises both chase terminations.
        let width = 3 + d % 3;
        let u = universe(width);
        for r in 0..renamings {
            let mut pool = ValuePool::new(u.clone());
            // Fresh salt per renaming: same structure, disjoint names.
            let salt = rng.random_range(0..1_000_000u32);
            for c in 0..width {
                // Pre-intern decoy values so variable handles differ even
                // for the first dependency minted from this pool.
                pool.typed(AttrId(c as u16), &format!("decoy{salt}_{c}"));
            }
            let (mut sigma, goal) = mvd_chain_instance(&u, &mut pool, width - 1);
            let goal = if d % 2 == 0 {
                goal
            } else {
                // Reverse the chain direction: not implied, finite
                // counterexample found by the terminal chase instance.
                let back = Mvd::new(
                    u.clone(),
                    [AttrId(width as u16 - 1)].into_iter().collect(),
                    [AttrId(0)].into_iter().collect(),
                );
                TdOrEgd::Td(back.to_pjd().to_td(&u, &mut pool))
            };
            let rot = r % sigma.len().max(1);
            sigma.rotate_left(rot);
            queries.push((sigma, goal, pool));
        }
    }
    queries
}

/// The Σ-group acceptance shape: `members` queries sharing one Σ (the
/// mvd chain as tds) and one goal hypothesis up to renaming, each asking
/// a *different* conclusion row. Ungrouped, the service saturates the
/// same instance once per member; Σ-group mode saturates it once and
/// answers every member from the shared pool. Conclusions are drawn
/// without replacement from the hypothesis variables, so no two members
/// are canonically equal (no cache hits) and every answer is definite
/// (the chain Σ is full and weakly acyclic, so the chase terminates).
pub fn shared_sigma_workload(width: usize, rows: usize, members: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = universe(width);
    let vars = rows.clamp(2, 3);
    assert!(
        members <= vars.pow(width as u32) / 2,
        "not enough distinct conclusions for {members} members"
    );
    // Shared structure, chosen once: which variable index fills each
    // hypothesis cell and each member's conclusion cell.
    let cells: Vec<Vec<usize>> = (0..rows)
        .map(|_| (0..width).map(|_| rng.random_range(0..vars)).collect())
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut concls: Vec<Vec<usize>> = Vec::with_capacity(members);
    while concls.len() < members {
        let c: Vec<usize> = (0..width).map(|_| rng.random_range(0..vars)).collect();
        if seen.insert(c.clone()) {
            concls.push(c);
        }
    }
    concls
        .into_iter()
        .enumerate()
        .map(|(m, concl)| {
            // Fresh names per member: same structure, disjoint names —
            // the canonical forms (and so the group key) still coincide.
            let mut pool = ValuePool::new(u.clone());
            let var_pool: Vec<Vec<Value>> = u
                .attrs()
                .map(|a| {
                    (0..vars)
                        .map(|i| pool.fresh(Some(a), &format!("m{m}_{}v{i}_", u.name(a))))
                        .collect()
                })
                .collect();
            let hyp: Vec<Tuple> = cells
                .iter()
                .map(|row| {
                    Tuple::new(row.iter().enumerate().map(|(c, &i)| var_pool[c][i]).collect())
                })
                .collect();
            let w = Tuple::new(concl.iter().enumerate().map(|(c, &i)| var_pool[c][i]).collect());
            let goal = TdOrEgd::Td(Td::new(u.clone(), w, hyp));
            let sigma: Vec<TdOrEgd> = mvd_chain(&u, width - 1)
                .into_iter()
                .map(|mv| TdOrEgd::Td(mv.to_pjd().to_td(&u, &mut pool)))
                .collect();
            (sigma, goal, pool)
        })
        .collect()
}

/// A divergent implication query for standing background load: a
/// successor td keeps the chase growing forever and the egd goal never
/// becomes derivable, so the job stays in flight until its budget
/// expires. `salt` varies the *universe width* (`3 + salt` attributes) —
/// width is part of the canonical query key, so each salt yields a
/// distinct key (renaming alone would coalesce them all onto one job),
/// while chase cost per round stays linear (one hypothesis row; extra
/// hypothesis rows sharing a variable would explode the embedding count
/// combinatorially).
pub fn divergent_service_query(salt: usize) -> Query {
    let width = 3 + salt;
    let names: Vec<String> = (0..width)
        .map(|i| match i {
            0 => "A'".to_string(),
            1 => "B'".to_string(),
            2 => "C'".to_string(),
            _ => format!("X{i}'"),
        })
        .collect();
    let u = Universe::untyped(names);
    let mut pool = ValuePool::new(u.clone());
    let pad = |prefix: &str, base: Vec<String>| -> Vec<String> {
        let mut row = base;
        row.extend((3..width).map(|i| format!("{prefix}{i}")));
        row
    };
    let succ_hyp = pad("p", vec!["x".into(), "y".into(), "z".into()]);
    let succ_con = pad("q", vec!["y".into(), "q1".into(), "q2".into()]);
    let hyp_refs: Vec<&str> = succ_hyp.iter().map(String::as_str).collect();
    let con_refs: Vec<&str> = succ_con.iter().map(String::as_str).collect();
    let successor = td_from_names(&u, &mut pool, &[&hyp_refs], &con_refs);
    let goal_r1 = pad("v", vec!["x".into(), "y1".into(), "z1".into()]);
    let goal_r2 = pad("w", vec!["x".into(), "y2".into(), "z2".into()]);
    let r1_refs: Vec<&str> = goal_r1.iter().map(String::as_str).collect();
    let r2_refs: Vec<&str> = goal_r2.iter().map(String::as_str).collect();
    let never = egd_from_names(
        &u,
        &mut pool,
        &[&r1_refs, &r2_refs],
        ("B'", "y1"),
        ("B'", "y2"),
    );
    (vec![TdOrEgd::Td(successor)], TdOrEgd::Egd(never), pool)
}

/// The exchange td encoding `A1 ↠ A2`.
pub fn exchange_td(u: &Arc<Universe>, pool: &mut ValuePool) -> Td {
    Mvd::new(
        u.clone(),
        [AttrId(0)].into_iter().collect(),
        [AttrId(1)].into_iter().collect(),
    )
    .to_pjd()
    .to_td(u, pool)
}

// ──────────── The query path on one thread (`prepare_path`) ────────────

/// The system allocator, counting each thread's requests for memory
/// (`alloc`, `alloc_zeroed` and `realloc`). A binary or test that
/// installs it with `#[global_allocator]` reads the calling thread's count
/// with [`thread_allocations`].
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocations the calling thread has made so far under [`CountingAlloc`]
/// (0 where another allocator is installed).
pub fn thread_allocations() -> u64 {
    ALLOCS.with(std::cell::Cell::get)
}

fn count_allocation() {
    // `try_with`: a thread's last frees run while its locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_allocation();
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_allocation();
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        std::alloc::System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}


const NAMES: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// A tiny deterministic generator (64-bit LCG, high bits) for the query
/// texts below, independent of any RNG crate's stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// `k` distinct attributes of `0..width`, in random order.
    fn attrs(&mut self, width: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..width).collect();
        for i in (1..width).rev() {
            all.swap(i, self.below(i + 1));
        }
        all.truncate(k);
        all
    }
}

fn attr_set(attrs: &[usize]) -> String {
    let mut a = attrs.to_vec();
    a.sort_unstable();
    a.iter().map(|&i| NAMES[i]).collect()
}

/// Left and right sides of an fd or mvd: disjoint, nonempty.
fn sides(rng: &mut Lcg, width: usize, max_rhs: usize) -> (String, String) {
    let lhs = 1 + rng.below(2);
    let rhs = 1 + rng.below(max_rhs);
    let a = rng.attrs(width, lhs + rhs);
    (attr_set(&a[..lhs]), attr_set(&a[lhs..]))
}

/// A total jd of three chained components covering every attribute.
fn chained_jd(rng: &mut Lcg, width: usize) -> String {
    let order = rng.attrs(width, width);
    let c1 = 2 + rng.below(width - 5);
    let c2 = (4 + rng.below(width - 5)).max(c1 + 1);
    let comps = [
        order[..=c1].to_vec(),
        order[c1..=c2].to_vec(),
        order[c2..].iter().copied().chain([order[0]]).collect(),
    ];
    let comps: Vec<String> = comps.iter().map(|c| attr_set(c)).collect();
    format!("*[{}]", comps.join(", "))
}

/// `n` `(universe spec, query text)` pairs shaped like the end-to-end
/// benchmark's `cold_chase`: typed Σ of 2–3 mvds and 0–2 fds over 6–8
/// attributes, each asking for a three-component jd.
pub fn cold_shape_queries(n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            let width = 6 + i % 3;
            let mut sigma: Vec<String> = (0..2 + (i / 3) % 2)
                .map(|_| {
                    let (l, r) = sides(&mut rng, width, 2);
                    format!("{l} ->> {r}")
                })
                .collect();
            for _ in 0..(i / 6) % 3 {
                let (l, r) = sides(&mut rng, width, 2);
                sigma.push(format!("{l} -> {r}"));
            }
            let goal = chained_jd(&mut rng, width);
            (NAMES[..width].join(" "), format!("{} |= {goal}", sigma.join(" & ")))
        })
        .collect()
}

/// `n` `(universe spec, query text)` pairs shaped like the end-to-end
/// benchmark's `frontier_cap` fd+ind queries: untyped fds plus one unary
/// ind over 3–5 attributes, asking for an fd or a unary ind. Run them
/// under [`frontier_shape_config`] with a fuel cap of [`FRONTIER_SHAPE_CAP`].
pub fn frontier_shape_queries(n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let width = 3 + rng.below(3);
            let ind = |rng: &mut Lcg| {
                let a = rng.attrs(width, 2);
                format!("[{}] <= [{}]", NAMES[a[0]], NAMES[a[1]])
            };
            let fd = |rng: &mut Lcg| {
                let (l, r) = sides(rng, width, 1);
                format!("{l} -> {r}")
            };
            let mut sigma: Vec<String> = (0..1 + rng.below(3)).map(|_| fd(&mut rng)).collect();
            sigma.push(ind(&mut rng));
            let goal = if rng.below(2) == 0 { fd(&mut rng) } else { ind(&mut rng) };
            let universe = format!("untyped {}", NAMES[..width].join(" "));
            (universe, format!("{} |= {goal}", sigma.join(" & ")))
        })
        .collect()
}

/// The fuel cap the frontier shape runs under.
pub const FRONTIER_SHAPE_CAP: u64 = 128;

/// The service configuration the frontier shape runs under: the defaults
/// with `dovetail:adaptive`.
pub fn frontier_shape_config() -> typedtd_service::ServiceConfig {
    let mut cfg = typedtd_service::ServiceConfig::default();
    cfg.decide.mode = typedtd_chase::DecideMode::adaptive_dovetail(1);
    cfg
}

/// Answers one query on the calling thread the way a `typedtd-sockd`
/// driver does: parse the text with `parse_query_line`, normalize it with
/// `try_normalize`, submit one job per goal part (the last part takes Σ
/// and the pool, earlier parts copies), step the job's shard with
/// `step_shard` until every part is answered, and read the answers with
/// `JobHandle::summary` as the connection does. Returns each part's
/// `(implication, finite implication)`.
///
/// # Panics
/// If the text does not parse, or `client` has more than one shard
/// (only shard 0 is stepped).
pub fn answer_on_this_thread(
    client: &typedtd_service::ImplicationClient,
    uspec: &str,
    text: &str,
    fuel_cap: Option<u64>,
) -> Vec<(typedtd_chase::Answer, typedtd_chase::Answer)> {
    use typedtd_service::{parse_query_line, parse_universe_spec, QuerySpec};
    assert_eq!(client.num_shards(), 1, "one shard, stepped on this thread");
    let universe = parse_universe_spec(uspec).expect("universe parses");
    let mut pool = ValuePool::new(universe.clone());
    let (sigma, goal) = parse_query_line(&universe, &mut pool, text).expect("query parses");
    let mut sigma_normal = Vec::new();
    for d in &sigma {
        sigma_normal.extend(d.try_normalize(&universe, &mut pool).expect("normalizes"));
    }
    let class = goal.class();
    let mut parts = goal.try_normalize(&universe, &mut pool).expect("normalizes");
    let last = parts.pop().expect("a goal has parts");
    let mut specs: Vec<_> = parts
        .into_iter()
        .map(|part| (part, sigma_normal.clone(), pool.clone()))
        .collect();
    specs.push((last, sigma_normal, pool));
    let handles: Vec<_> = specs
        .into_iter()
        .map(|(part, sigma, pool)| {
            let spec = QuerySpec::new(sigma, part, pool).goal_class(class);
            client.submit(match fuel_cap {
                Some(cap) => spec.fuel_cap(cap),
                None => spec,
            })
        })
        .collect();
    while client.pending_jobs() > 0 {
        client.step_shard(0);
    }
    handles
        .iter()
        .map(|h| {
            let s = h.summary().expect("every part answered");
            (s.implication, s.finite_implication)
        })
        .collect()
}

/// Sequential `decide` of each goal part of one query text, with the
/// default budgets: the reference [`answer_on_this_thread`] is checked
/// against.
pub fn decide_text(uspec: &str, text: &str) -> Vec<(typedtd_chase::Answer, typedtd_chase::Answer)> {
    use typedtd_service::{parse_query_line, parse_universe_spec};
    let universe = parse_universe_spec(uspec).expect("universe parses");
    let mut pool = ValuePool::new(universe.clone());
    let (sigma, goal) = parse_query_line(&universe, &mut pool, text).expect("query parses");
    let sigma: Vec<TdOrEgd> = sigma
        .iter()
        .flat_map(|d| d.normalize(&universe, &mut pool))
        .collect();
    let cfg = typedtd_chase::DecideConfig::default();
    goal.normalize(&universe, &mut pool)
        .iter()
        .map(|part| {
            let d = typedtd_chase::decide(&sigma, part, &mut pool.clone(), &cfg);
            (d.implication, d.finite_implication)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let u = universe(4);
        let mut p1 = ValuePool::new(u.clone());
        let mut p2 = ValuePool::new(u.clone());
        let r1 = random_relation(&u, &mut p1, 20, 3, 7);
        let r2 = random_relation(&u, &mut p2, 20, 3, 7);
        assert_eq!(r1.len(), r2.len());
    }

    #[test]
    fn chain_instance_is_implied() {
        let u = universe(4);
        let mut pool = ValuePool::new(u.clone());
        let (sigma, goal) = mvd_chain_instance(&u, &mut pool, 3);
        let run = typedtd_chase::chase_implication(
            &sigma,
            &goal,
            &mut pool,
            &typedtd_chase::ChaseConfig::default(),
        );
        assert_eq!(run.outcome, typedtd_chase::ChaseOutcome::Implied);
    }

    #[test]
    fn egd_cascade_merges_stay_proportional_to_rounds() {
        use typedtd_chase::{saturate, ChaseConfig, ChaseOutcome};
        let (init, sigma, mut pool) = egd_cascade_workload(4, 7);
        let cfg = ChaseConfig {
            max_rounds: 24,
            ..ChaseConfig::default()
        };
        let run = saturate(&init, &sigma, &mut pool, &cfg);
        assert_eq!(run.outcome, ChaseOutcome::Exhausted, "cascade never terminates");
        // Two merges per chain per steady-state round: merge activity must
        // scale with rounds, not collapse at the start.
        let merges = run.trace.merges();
        assert!(
            merges >= 2 * 4 * (run.rounds.saturating_sub(2)),
            "merges ({merges}) must stay proportional to rounds ({})",
            run.rounds
        );
        // Steady state adds two rows and merges twice per chain per round
        // (round 0 inserts before any merge exists), so inserts keep pace.
        assert!(run.trace.rows_added() >= merges, "tds keep pace with egds");
    }

    #[test]
    fn divergent_service_queries_have_distinct_keys() {
        let keys: Vec<_> = (0..6)
            .map(|s| {
                let (sigma, goal, _pool) = divergent_service_query(s);
                typedtd_service::query_key(&sigma, &goal)
            })
            .collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "each salt must key distinctly");
    }

    #[test]
    fn service_batch_is_cache_friendly() {
        let queries = service_batch_workload(3, 4, 11);
        assert_eq!(queries.len(), 12);
        // Renamings of the same structure share a canonical key.
        let keys: Vec<_> = queries
            .iter()
            .map(|(s, g, _)| typedtd_service::query_key(s, g))
            .collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "4 renamings per structure must collapse");
    }

    #[test]
    fn random_td_is_well_typed() {
        let u = universe(5);
        let mut pool = ValuePool::new(u.clone());
        let td = random_td(&u, &mut pool, 4, 3, 11);
        td.check_typed(&pool).unwrap();
        assert_eq!(td.arity(), 4);
    }
}
