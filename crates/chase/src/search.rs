//! Finite counterexample search: the *other* semidecision procedure.
//!
//! Section 2.3 of the paper observes that `{(Σ, σ) : Σ ⊭_f σ}` is
//! recursively enumerable: enumerate finite relations and test each. This
//! module implements that enumeration as [`random_counterexample`]:
//! randomized model construction with chase-style *repair over a finite
//! domain* — td violations are fixed by binding existentials to random
//! existing domain values instead of fresh nulls, egd violations by
//! collapsing the two values.
//!
//! Together with the chase (the r.e. procedure for `Σ ⊨ σ`) these bracket
//! the undecidable gap the paper establishes: for typed tds and pjds no
//! total procedure can close it.
//!
//! **Where the search spends its fuel.** It starts at two values per
//! column. With one value per column (one shared value when untyped) a
//! relation holds at most one row, and that row meets every td's
//! conclusion (the conclusion maps onto the same row) and every egd's
//! equality (both sides map to the column's one value). Such a relation
//! satisfies every td and egd, σ included, so it is never a
//! counterexample. Every other attempt starts from a violation of σ: its
//! hypothesis rows under a random valuation into the domain, with an egd
//! goal's two sides kept apart. A counterexample must contain such a
//! violation, and random rows rarely do; the attempts in between start
//! from random rows. Whatever the start, a witness is returned only once
//! [`is_counterexample`] accepts it.
//!
//! Like the chase, the randomized search is *resumable*: a [`SearchTask`]
//! holds the enumeration state (current domain size, remaining restarts,
//! RNG) and [`SearchTask::step`] runs at most `fuel` repair attempts before
//! yielding, so a scheduler can dovetail many searches — and dovetail each
//! against its chase — fairly. [`random_counterexample`] is the blocking
//! driver over it.

use crate::cancel::CancelToken;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{Relation, Tuple, Universe, Valuation, Value, ValuePool};

/// Budget for counterexample search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Largest per-attribute domain size tried. Sizes run
    /// `2..=max_domain` (see the module docs for why not 1), so a value
    /// below 2 finishes the search at once with no witness.
    pub max_domain: usize,
    /// Restarts per domain size, alternating between the goal's
    /// hypothesis and random rows as the starting relation.
    pub attempts: usize,
    /// Repair iterations per attempt.
    pub repair_steps: usize,
    /// Abort an attempt when the relation grows past this.
    pub max_rows: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_domain: 4,
            attempts: 64,
            repair_steps: 512,
            max_rows: 256,
            seed: 0x7d0_1982,
        }
    }
}

/// The smallest per-attribute domain size that can hold a counterexample
/// (see the module docs).
const MIN_DOMAIN: usize = 2;

/// Mints a domain of `k` values per attribute (typed) or `k` shared values
/// (untyped), returning per-attribute candidate lists.
fn make_domain(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    k: usize,
) -> Vec<Vec<Value>> {
    if universe.is_typed() {
        universe
            .attrs()
            .map(|a| (0..k).map(|_| pool.fresh(Some(a), "d")).collect())
            .collect()
    } else {
        let shared: Vec<Value> = (0..k).map(|_| pool.fresh(None, "d")).collect();
        universe.attrs().map(|_| shared.clone()).collect()
    }
}

/// `true` if `rel` satisfies all of `sigma` but violates `goal`.
pub fn is_counterexample(rel: &Relation, sigma: &[TdOrEgd], goal: &TdOrEgd) -> bool {
    !rel.is_empty()
        && sigma.iter().all(|d| d.satisfied_by(rel))
        && !goal.satisfied_by(rel)
}

/// Randomized finite-model search with repair. Thin driver over
/// [`SearchTask`]: snapshots the pool into a task, runs it to completion,
/// and writes the evolved pool back.
pub fn random_counterexample(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    cfg: &SearchConfig,
) -> Option<Relation> {
    let empty = ValuePool::new(pool.universe().clone());
    let taken = std::mem::replace(pool, empty);
    let mut task = SearchTask::new(sigma.to_vec(), goal.clone(), universe.clone(), taken, cfg.clone());
    task.run_to_completion();
    let (found, evolved) = task.finish();
    *pool = evolved;
    found
}

/// Whether a [`SearchTask`] needs more fuel or has finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchStatus {
    /// The fuel slice ran out; step again.
    Pending,
    /// The enumeration finished; `true` means a counterexample was found.
    Done(bool),
}

/// A resumable randomized counterexample search: the enumeration of
/// [`random_counterexample`] (domain sizes `2..=max_domain`, `attempts`
/// restarts each) preemptible at attempt granularity.
///
/// The task owns its [`ValuePool`] snapshot (domains are minted from it)
/// and its RNG, so many searches can be held and interleaved. Stepping a
/// task to completion visits exactly the attempts the blocking driver
/// would, in the same order, with the same RNG stream.
pub struct SearchTask {
    sigma: Arc<[TdOrEgd]>,
    goal: TdOrEgd,
    universe: Arc<Universe>,
    pool: ValuePool,
    cfg: SearchConfig,
    rng: StdRng,
    /// Current per-attribute domain size; `0` until the first attempt.
    k: usize,
    domain: Vec<Vec<Value>>,
    attempts_left: usize,
    /// Repair attempts actually executed (the task's fuel meter).
    attempts_done: u64,
    /// `Some` once the enumeration finished.
    found: Option<Option<Relation>>,
    /// Checked at attempt granularity; tripping it finishes the task
    /// empty-handed with [`SearchTask::was_cancelled`] set.
    cancel: CancelToken,
    /// `true` if the task finished because its token was tripped (rather
    /// than exhausting the enumeration or finding a witness).
    cancelled: bool,
}

impl SearchTask {
    /// A resumable search for a finite model of `sigma` violating `goal`.
    pub fn new(
        sigma: impl Into<Arc<[TdOrEgd]>>,
        goal: TdOrEgd,
        universe: Arc<Universe>,
        pool: ValuePool,
        cfg: SearchConfig,
    ) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            sigma: sigma.into(),
            goal,
            universe,
            pool,
            cfg,
            rng,
            k: 0,
            domain: Vec::new(),
            attempts_left: 0,
            attempts_done: 0,
            found: None,
            cancel: CancelToken::new(),
            cancelled: false,
        }
    }

    /// Installs a shared cancellation token (builder style). The task
    /// checks it before every attempt.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The task's cancellation token (see [`crate::cancel::CancelToken`]).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// `true` if the task stopped because its token was tripped. Only
    /// meaningful once `step` reports [`SearchStatus::Done`].
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Runs at most `fuel` repair attempts. A finished task ignores further
    /// fuel and keeps reporting its status.
    pub fn step(&mut self, fuel: usize) -> SearchStatus {
        for _ in 0..fuel {
            if self.found.is_some() {
                break;
            }
            if self.cancel.is_cancelled() {
                self.cancelled = true;
                self.found = Some(None);
                break;
            }
            self.attempt_once();
        }
        match &self.found {
            Some(f) => SearchStatus::Done(f.is_some()),
            None => SearchStatus::Pending,
        }
    }

    /// Drives the task to completion. Always terminates: each domain size
    /// gets at most `attempts` attempts.
    pub fn run_to_completion(&mut self) -> bool {
        loop {
            if let SearchStatus::Done(found) = self.step(64) {
                return found;
            }
        }
    }

    /// Repair attempts executed so far (the task's fuel meter).
    pub fn attempts_done(&self) -> u64 {
        self.attempts_done
    }

    /// Extracts the result and the evolved pool.
    ///
    /// # Panics
    /// Panics if the task has not finished.
    pub fn finish(self) -> (Option<Relation>, ValuePool) {
        let found = self
            .found
            .expect("SearchTask::finish on an unfinished task; step it to Done first");
        (found, self.pool)
    }

    /// One restart (minting the next domain when the previous size
    /// is out of attempts). The even-numbered attempts of each size start
    /// from the goal's hypothesis, the odd-numbered ones from random rows.
    fn attempt_once(&mut self) {
        if self.attempts_left == 0 {
            let next = (self.k + 1).max(MIN_DOMAIN);
            if next > self.cfg.max_domain {
                self.found = Some(None);
                return;
            }
            self.k = next;
            self.domain = make_domain(&self.universe, &mut self.pool, self.k);
            self.attempts_left = self.cfg.attempts;
            if self.attempts_left == 0 {
                // Degenerate config (zero attempts per size): exhaust sizes.
                return;
            }
        }
        let from_goal = (self.cfg.attempts - self.attempts_left).is_multiple_of(2);
        self.attempts_left -= 1;
        self.attempts_done += 1;
        let start = if from_goal {
            goal_rows(&self.goal, &self.universe, &self.domain, &mut self.rng)
        } else {
            random_rows(&self.universe, &self.domain, &mut self.rng)
        };
        if let Some(rel) = repair(
            start,
            &self.sigma,
            &self.goal,
            &self.universe,
            &self.domain,
            &self.cfg,
            &mut self.rng,
        ) {
            self.found = Some(Some(rel));
        }
    }
}

/// Between one and `2k` rows of random domain values.
fn random_rows(universe: &Arc<Universe>, domain: &[Vec<Value>], rng: &mut StdRng) -> Relation {
    let k = domain[0].len();
    let n_rows = rng.random_range(1..=2 * k);
    let mut rel = Relation::new(universe.clone());
    for _ in 0..n_rows {
        rel.insert(Tuple::new(
            (0..universe.width())
                .map(|i| domain[i][rng.random_range(0..k)])
                .collect(),
        ));
    }
    rel
}

/// The goal's hypothesis rows under a random valuation into `domain`: the
/// same variable gets the same value, and an egd goal's two sides get
/// distinct values.
fn goal_rows(
    goal: &TdOrEgd,
    universe: &Arc<Universe>,
    domain: &[Vec<Value>],
    rng: &mut StdRng,
) -> Relation {
    let k = domain[0].len();
    let mut alpha = Valuation::new();
    let hypothesis = match goal {
        TdOrEgd::Td(t) => t.hypothesis(),
        TdOrEgd::Egd(e) => {
            // A typed egd equates values of one column, and untyped columns
            // share one domain list, so distinct indices are distinct
            // values; `k >= MIN_DOMAIN` leaves room for two.
            let column = |v: Value| {
                e.hypothesis()
                    .iter()
                    .find_map(|row| row.values().iter().position(|&x| x == v))
                    .expect("egd sides occur in the hypothesis")
            };
            let a = rng.random_range(0..k);
            let b = (a + rng.random_range(1..k)) % k;
            alpha.bind(e.left(), domain[column(e.left())][a]);
            alpha.bind(e.right(), domain[column(e.right())][b]);
            e.hypothesis()
        }
    };
    for row in hypothesis {
        for (i, &v) in row.values().iter().enumerate() {
            if alpha.get(v).is_none() {
                alpha.bind(v, domain[i][rng.random_range(0..k)]);
            }
        }
    }
    Relation::from_rows(universe.clone(), alpha.apply_rows(hypothesis))
}

/// Repairs `rel` toward a model of `sigma` over `domain` and returns it if
/// it ends as a counterexample to `goal`.
fn repair(
    mut rel: Relation,
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    universe: &Arc<Universe>,
    domain: &[Vec<Value>],
    cfg: &SearchConfig,
    rng: &mut StdRng,
) -> Option<Relation> {
    let k = domain[0].len();
    for _ in 0..cfg.repair_steps {
        if rel.len() > cfg.max_rows {
            return None;
        }
        let mut repaired = false;
        for dep in sigma {
            match dep {
                TdOrEgd::Egd(e) => {
                    if let Some(alpha) = e.violation(&rel) {
                        let a = alpha.get(e.left()).expect("bound");
                        let b = alpha.get(e.right()).expect("bound");
                        // Collapse b into a everywhere, in place.
                        rel.rewrite_value(b, a);
                        repaired = true;
                        break;
                    }
                }
                TdOrEgd::Td(t) => {
                    if let Some(alpha) = t.violation(&rel) {
                        // Bind existentials to random domain values of the
                        // right column — the finite twist.
                        let mut ext = alpha.clone();
                        for (i, attr) in universe.attrs().enumerate() {
                            let v = t.conclusion().get(attr);
                            if ext.get(v).is_none() {
                                ext.bind(v, domain[i][rng.random_range(0..k)]);
                            }
                        }
                        rel.insert(ext.apply_tuple(t.conclusion()));
                        repaired = true;
                        break;
                    }
                }
            }
        }
        if !repaired {
            break;
        }
    }
    if is_counterexample(&rel, sigma, goal) {
        Some(rel)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::{egd_from_names, parse_dependency, td_from_names, Egd, Td};
    use typedtd_relational::AttrId;

    /// A random td or egd over `u`: one to three hypothesis rows drawn from
    /// three variables per column (shared across columns when untyped), a
    /// td conclusion mixing hypothesis variables with existentials, or an
    /// egd equating two hypothesis values (of one column when typed).
    fn random_dep(u: &Arc<Universe>, pool: &mut ValuePool, rng: &mut StdRng) -> TdOrEgd {
        let width = u.width();
        let hypothesis: Vec<Tuple> = (0..rng.random_range(1..=3usize))
            .map(|_| {
                Tuple::new(
                    (0..width)
                        .map(|i| {
                            let name = format!("v{}", rng.random_range(0..3usize));
                            pool.for_attr(AttrId(i as u16), &name)
                        })
                        .collect(),
                )
            })
            .collect();
        let pick = |rng: &mut StdRng, column: usize| {
            hypothesis[rng.random_range(0..hypothesis.len())].values()[column]
        };
        if rng.random_range(0..2u32) == 0 {
            let conclusion = Tuple::new(
                (0..width)
                    .map(|i| {
                        if rng.random_range(0..2u32) == 0 {
                            pick(rng, i)
                        } else {
                            pool.fresh(Some(AttrId(i as u16)), "e")
                        }
                    })
                    .collect(),
            );
            TdOrEgd::Td(Td::new(u.clone(), conclusion, hypothesis))
        } else {
            let left_col = rng.random_range(0..width);
            let right_col = if u.is_typed() {
                left_col
            } else {
                rng.random_range(0..width)
            };
            let (left, right) = (pick(rng, left_col), pick(rng, right_col));
            TdOrEgd::Egd(Egd::new(u.clone(), left, right, hypothesis))
        }
    }

    #[test]
    fn one_value_per_column_satisfies_every_td_and_egd() {
        // Why the search starts at two values per column: over one value
        // per column the only non-empty relation is a single row, and it
        // satisfies any td or egd, so it refutes nothing.
        let mut rng = StdRng::seed_from_u64(1982);
        for u in [
            Universe::typed(vec!["A", "B", "C", "D"]),
            Universe::untyped_abc(),
        ] {
            let mut pool = ValuePool::new(u.clone());
            let domain = make_domain(&u, &mut pool, 1);
            let row = Relation::from_rows(
                u.clone(),
                [Tuple::new(domain.iter().map(|d| d[0]).collect())],
            );
            for _ in 0..500 {
                let dep = random_dep(&u, &mut pool, &mut rng);
                assert!(dep.satisfied_by(&row), "{dep:?} fails on {row:?}");
            }
        }
    }

    #[test]
    fn sizes_below_two_finish_without_an_attempt() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let goal = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["y", "x", "z"]);
        for max_domain in [0, 1] {
            let cfg = SearchConfig {
                max_domain,
                ..Default::default()
            };
            let mut task = SearchTask::new(
                Vec::new(),
                TdOrEgd::Td(goal.clone()),
                u.clone(),
                p.clone(),
                cfg,
            );
            assert_eq!(task.step(1), SearchStatus::Done(false));
            assert_eq!(task.attempts_done(), 0);
        }
    }

    #[test]
    fn finitely_implied_cfp_query_has_no_witness() {
        // Casanova–Fagin–Papadimitriou: in a finite relation `A -> B` gives
        // |B| <= |A| and `[A] <= [B]` gives |A| <= |B|, so A and B hold the
        // same values and `[B] <= [A]` follows. No finite counterexample
        // exists, whatever the seeding tries.
        let u = Universe::untyped(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let mut parse = |spec: &str| {
            parse_dependency(&u, &mut p, spec)
                .expect("parses")
                .normalize(&u, &mut p)
        };
        let mut sigma = parse("A -> B");
        sigma.extend(parse("[A] <= [B]"));
        let goal = parse("[B] <= [A]").pop().expect("one td");
        let cfg = SearchConfig {
            max_domain: 5,
            attempts: 128,
            ..Default::default()
        };
        let mut task = SearchTask::new(sigma, goal, u.clone(), p, cfg);
        assert_eq!(task.step(usize::MAX), SearchStatus::Done(false));
        assert_eq!(task.attempts_done(), 4 * 128);
    }

    #[test]
    fn mvd_does_not_imply_fd() {
        // A' ↠ B' (as td) does not imply A' → B' (as egd): search finds a
        // finite witness.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let mvd_td = td_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            &["x", "y1", "z2"],
        );
        let fd_egd = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        );
        let sigma = vec![TdOrEgd::Td(mvd_td)];
        let goal = TdOrEgd::Egd(fd_egd);
        let found = random_counterexample(&sigma, &goal, &u, &mut p, &SearchConfig::default());
        let rel = found.expect("counterexample must exist");
        assert!(is_counterexample(&rel, &sigma, &goal));
    }

    #[test]
    fn no_counterexample_for_reflexive_goal() {
        // Goal: trivial td implied by anything; search must fail.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let trivial = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "z"]);
        let goal = TdOrEgd::Td(trivial);
        let cfg = SearchConfig {
            max_domain: 2,
            attempts: 8,
            ..Default::default()
        };
        assert!(random_counterexample(&[], &goal, &u, &mut p, &cfg).is_none());
    }
}
