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
use typedtd_relational::{FxHashMap, Relation, Tuple, Universe, Value, ValuePool};

/// Budget for counterexample search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Largest per-attribute domain size tried.
    pub max_domain: usize,
    /// Random restarts per domain size.
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
/// [`random_counterexample`] (domain sizes `1..=max_domain`, `attempts`
/// seeded restarts each) preemptible at attempt granularity.
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

    /// Drives the task to completion. Always terminates: the attempt count
    /// is bounded by `max_domain * attempts`.
    pub fn run_to_completion(&mut self) -> bool {
        loop {
            if let SearchStatus::Done(found) = self.step(64) {
                return found;
            }
        }
    }

    /// Attempts executed so far count toward this total before exhaustion.
    pub fn attempts_budget(&self) -> usize {
        self.cfg.max_domain * self.cfg.attempts
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

    /// One seeded restart (minting the next domain when the previous size
    /// is out of attempts).
    fn attempt_once(&mut self) {
        if self.attempts_left == 0 {
            if self.k >= self.cfg.max_domain {
                self.found = Some(None);
                return;
            }
            self.k += 1;
            self.domain = make_domain(&self.universe, &mut self.pool, self.k);
            self.attempts_left = self.cfg.attempts;
            if self.attempts_left == 0 {
                // Degenerate config (zero attempts per size): exhaust sizes.
                return;
            }
        }
        self.attempts_left -= 1;
        self.attempts_done += 1;
        if let Some(rel) = attempt(
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

fn attempt(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    universe: &Arc<Universe>,
    domain: &[Vec<Value>],
    cfg: &SearchConfig,
    rng: &mut StdRng,
) -> Option<Relation> {
    let width = universe.width();
    let k = domain[0].len();
    let n_rows = rng.random_range(1..=(2 * k).max(2));
    let mut rel = Relation::new(universe.clone());
    for _ in 0..n_rows {
        rel.insert(Tuple::new(
            (0..width)
                .map(|i| domain[i][rng.random_range(0..k)])
                .collect(),
        ));
    }

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
                        // Collapse b into a everywhere.
                        let map: FxHashMap<Value, Value> = rel
                            .val()
                            .map(|v| (v, if v == b { a } else { v }))
                            .collect();
                        rel = rel.map(&map);
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
    use typedtd_dependencies::{egd_from_names, td_from_names};

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
