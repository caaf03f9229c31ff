//! High-level decision API pairing the two semidecision procedures.
//!
//! The paper (Section 2.3) frames the landscape exactly as this module
//! implements it:
//!
//! * `{(Σ, σ) : Σ ⊨ σ}` is r.e. — enumerated here by the chase;
//! * `{(Σ, σ) : Σ ⊭_f σ}` is r.e. — enumerated here by finite model search;
//! * a chase that *terminates* answers both problems at once (its terminal
//!   instance is a finite universal model);
//! * no algorithm closes the remaining gap for typed tds or pjds — that is
//!   the paper's main theorem — so [`decide`] can and does return
//!   [`Answer::Unknown`] when budgets expire.
//!
//! Both semidecision procedures are resumable, so the pairing is too: a
//! [`DecideTask`] is an explicit phase machine over a [`ChaseTask`] and a
//! [`SearchTask`], preemptible at round/attempt granularity, in one of two
//! modes ([`DecideMode`]):
//!
//! * **Sequential** (the default): step the chase until a certificate
//!   appears or its budget runs out, then hand the evolved pool to the
//!   search — exactly the two phases the blocking [`decide`] historically
//!   performed, trace-for-trace;
//! * **Dovetail**: alternate fuel between the chase and the search at a
//!   configurable ratio, so a *refutable-but-divergent* query (the chase
//!   never terminates, but a finite counterexample exists) is answered
//!   `No` from the search without waiting for a chase budget that may be
//!   astronomically large. This is the textbook dovetailing of the two
//!   r.e. sets, now *within* one query rather than only across queries.
//!
//! Every task also carries a [`CancelToken`] shared with its sub-tasks:
//! tripping it stops the task at the next round/attempt boundary with
//! [`Decision::cancelled`] set, instead of burning the remaining budget —
//! the hook the `typedtd-service` scheduler's `JobHandle::cancel` pulls.
//! This is the unit the scheduler multiplexes.

use crate::cancel::CancelToken;
use crate::engine::{ChaseConfig, ChaseOutcome, ChaseRun, ChaseTask, StepStatus};
use crate::search::{SearchConfig, SearchStatus, SearchTask};
use std::sync::Arc;
use typedtd_dependencies::{Dependency, TdOrEgd};
use typedtd_relational::{Relation, Universe, ValuePool};

/// A three-valued answer: the problems are undecidable, so `Unknown` is an
/// honest possible outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// Implication holds (certificate: a chase derivation).
    Yes,
    /// Implication fails (certificate: a finite counterexample relation).
    No,
    /// Budget exhausted with no certificate either way.
    Unknown,
}

impl Answer {
    /// Three-valued conjunction: `No` dominates (one failing conjunct
    /// refutes the whole goal), `Unknown` propagates otherwise, and
    /// `Yes` requires every conjunct. This is how multi-part goals (a
    /// dependency normalizing to several tds/egds) fold their parts'
    /// verdicts.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        match (self, other) {
            (Self::No, _) | (_, Self::No) => Self::No,
            (Self::Unknown, _) | (_, Self::Unknown) => Self::Unknown,
            (Self::Yes, Self::Yes) => Self::Yes,
        }
    }
}

/// How a [`DecideTask`] schedules its two semidecision procedures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DecideMode {
    /// Chase to a verdict or budget exhaustion, then search — the
    /// historical [`decide`] order, trace-for-trace.
    #[default]
    Sequential,
    /// Alternate fuel between the chase and the search:
    /// `chase_ratio` chase rounds per search attempt (clamped to ≥ 1).
    /// Refutable-but-divergent queries answer from the search phase
    /// without waiting on a chase that never terminates.
    Dovetail {
        /// Chase rounds granted per search attempt.
        chase_ratio: u32,
    },
    /// Like [`DecideMode::Dovetail`], but the ratio adapts at every period
    /// boundary toward whichever procedure progressed last slice: a chase
    /// period that merged values or stopped deriving is converging and
    /// earns a doubled ratio (capped at 8× the initial), while a period of
    /// pure row growth looks divergent and halves the ratio (floored at 1)
    /// so the refutation search gets fuel sooner.
    AdaptiveDovetail {
        /// Initial chase rounds per search attempt.
        chase_ratio: u32,
    },
}

impl DecideMode {
    /// Dovetail with the given fixed chase:search fuel ratio.
    pub fn dovetail(chase_ratio: u32) -> Self {
        Self::Dovetail { chase_ratio }
    }

    /// Dovetail with a self-adjusting ratio starting at `chase_ratio`.
    pub fn adaptive_dovetail(chase_ratio: u32) -> Self {
        Self::AdaptiveDovetail { chase_ratio }
    }

    /// The configured starting chase:search ratio, if dovetailing.
    pub fn initial_ratio(self) -> Option<u32> {
        match self {
            Self::Sequential => None,
            Self::Dovetail { chase_ratio } | Self::AdaptiveDovetail { chase_ratio } => {
                Some(chase_ratio.max(1))
            }
        }
    }
}

/// Knobs for [`decide`].
#[derive(Clone, Debug, Default)]
pub struct DecideConfig {
    /// Chase budgets.
    pub chase: ChaseConfig,
    /// Counterexample search budget.
    pub search: SearchConfig,
    /// Skip the model search (pure chase mode).
    pub skip_search: bool,
    /// Phase scheduling: sequential (default) or dovetailed.
    pub mode: DecideMode,
}

/// A full verdict for one implication instance `Σ ⊨(f) σ`.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Answer for unrestricted implication `Σ ⊨ σ`.
    pub implication: Answer,
    /// Answer for finite implication `Σ ⊨_f σ`.
    pub finite_implication: Answer,
    /// The chase run (trace is a proof when `implication` is `Yes`; in
    /// dovetail mode an abandoned chase reports
    /// [`ChaseOutcome::Cancelled`] with its progress so far).
    pub chase: ChaseRun,
    /// A finite counterexample when either answer is `No`.
    pub counterexample: Option<Relation>,
    /// `true` if the task was stopped by its [`CancelToken`] before
    /// either certificate appeared (the answers are then `Unknown`).
    pub cancelled: bool,
}

/// Decides `Σ ⊨ σ` and `Σ ⊨_f σ` as far as the budgets allow. Thin driver
/// over [`DecideTask`]: snapshots the pool into a task, runs it to
/// completion, and writes the evolved pool back.
pub fn decide(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &mut ValuePool,
    cfg: &DecideConfig,
) -> Decision {
    let empty = ValuePool::new(pool.universe().clone());
    let taken = std::mem::replace(pool, empty);
    let mut task = DecideTask::new(sigma.to_vec(), goal.clone(), taken, cfg.clone());
    task.run_to_completion();
    let (decision, evolved) = task.finish();
    *pool = evolved;
    decision
}

/// Whether a [`DecideTask`] needs more fuel or has finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecideStatus {
    /// The fuel slice ran out; step again.
    Pending,
    /// The decision is in; the payload is the unrestricted-implication
    /// [`Answer`] (the full [`Decision`] comes from [`DecideTask::finish`]).
    Done(Answer),
}

/// Coarse phase of a [`DecideTask`], as reported by
/// [`DecideTask::progress_snapshot`]. The names are stable: they ride
/// wire-protocol `PROGRESS` frames and metrics labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TaskPhase {
    /// Running the chase alone (the r.e. procedure for `Σ ⊨ σ`).
    #[default]
    Chase,
    /// Running finite-model search alone (the r.e. procedure for
    /// `Σ ⊭_f σ`).
    Search,
    /// Both procedures live, fuel alternating between them.
    Dovetail,
    /// Finished; the decision is in.
    Done,
}

impl TaskPhase {
    /// Stable lowercase name (used as a wire/metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            TaskPhase::Chase => "chase",
            TaskPhase::Search => "search",
            TaskPhase::Dovetail => "dovetail",
            TaskPhase::Done => "done",
        }
    }
}

/// A point-in-time profile of a [`DecideTask`]: which procedure is
/// running and how much work each has done. Every field is a plain
/// counter read — sampling one per fuel slice costs no allocation and
/// no locking, so schedulers can attribute fuel per phase cheaply.
///
/// Counters are cumulative and never decrease over the task's life;
/// after a phase transition the finished procedure's last readings are
/// retained (not reset).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProgressSnapshot {
    /// Which procedure(s) the task is running right now.
    pub phase: TaskPhase,
    /// Fuel units (chase rounds + search attempts) consumed so far.
    pub fuel_spent: u64,
    /// Breadth-first chase rounds executed.
    pub chase_rounds: u64,
    /// Chase steps applied (row adds + equality merges).
    pub chase_steps: u64,
    /// Equality merges applied by the chase (the egd share of steps).
    pub chase_merges: u64,
    /// Rows in the chase instance (its final size once the chase ended).
    pub instance_rows: u64,
    /// Finite-model search attempts completed.
    pub search_attempts: u64,
    /// Hash-join build-side rows taken by the chase's trigger scans.
    pub join_build_rows: u64,
    /// Hash-join probe-side hits scored by the chase's trigger scans.
    pub join_probe_hits: u64,
}

/// Progress phase of a [`DecideTask`].
enum DecidePhase {
    /// Running the chase alone (the r.e. procedure for `Σ ⊨ σ`): the
    /// sequential first phase, or a dovetail whose search has exhausted
    /// its enumeration.
    Chasing(Box<ChaseTask>),
    /// Chase concluded without a verdict; running finite-model search
    /// alone (the r.e. procedure for `Σ ⊭_f σ`).
    Searching {
        chase_run: Box<ChaseRun>,
        task: Box<SearchTask>,
    },
    /// [`DecideMode::Dovetail`] / [`DecideMode::AdaptiveDovetail`]: both
    /// procedures live, fuel alternating between them. `chase_turn` counts
    /// the chase rounds left before the search's next attempt; `ratio` is
    /// the current period length (fixed mode never changes it). The
    /// `last_*` counters are the chase readings at the previous period
    /// boundary, the adaptive mode's progress baseline. The search runs
    /// over its own snapshot of the initial pool (the procedures are
    /// independent enumerations).
    Dovetailing {
        chase: Box<ChaseTask>,
        search: Box<SearchTask>,
        chase_turn: u32,
        ratio: u32,
        last_steps: u64,
        last_merges: u64,
    },
    /// Finished.
    Done(Box<Decision>, ValuePool),
    /// Transient state during a phase transition; never observable.
    Poisoned,
}

/// A resumable [`decide`]: one implication query `Σ ⊨(f) σ` as a
/// preemptible task.
///
/// In [`DecideMode::Sequential`] the task steps its chase until a
/// certificate appears or the chase budget runs out, then (unless
/// [`DecideConfig::skip_search`]) steps the counterexample search over the
/// same evolved pool — exactly the blocking driver's historical two
/// phases, trace-for-trace. In [`DecideMode::Dovetail`] both procedures
/// run from the start, fuel alternating at the configured ratio, so a
/// refutable query whose chase diverges is still answered `No` once the
/// search finds its witness. Either way one fuel unit is one chase round
/// or one search attempt, so interleaving many tasks with small slices is
/// fair in the dovetailing sense: a terminating query finishes within a
/// bounded number of global slices no matter how many divergent queries
/// run beside it. A shared [`CancelToken`] ([`DecideTask::cancel_token`])
/// stops the task mid-slice with [`Decision::cancelled`] set.
pub struct DecideTask {
    /// Shared with the chase (and, on exhaustion, the search) task: the
    /// `Arc` makes the hand-offs allocation-free.
    sigma: Arc<[TdOrEgd]>,
    goal: TdOrEgd,
    cfg: DecideConfig,
    phase: DecidePhase,
    fuel_spent: u64,
    /// Shared with both sub-tasks; tripping it finishes the task with
    /// [`Decision::cancelled`] within the current fuel slice.
    cancel: CancelToken,
    /// Dovetail bookkeeping: the search exhausted its enumeration, so a
    /// later chase exhaustion must conclude `Unknown` instead of starting
    /// a second search.
    search_exhausted: bool,
    /// Last readings of sub-task counters, frozen at each phase
    /// transition (transitions consume the sub-tasks, so
    /// [`DecideTask::progress_snapshot`] falls back to these once a
    /// procedure is gone). The `phase`/`fuel_spent` fields are
    /// overwritten at snapshot time.
    mirror: ProgressSnapshot,
}

impl DecideTask {
    /// A resumable decision task for `Σ ⊨(f) σ`.
    ///
    /// `pool` must be (a snapshot of) the pool the dependencies' values came
    /// from; it is returned, evolved, by [`DecideTask::finish`]. In
    /// dovetail mode the search runs over its own clone of the pool, and
    /// `finish` returns the pool of whichever phase the task *ended in*:
    /// the chase's when the chase decided (or outlived an exhausted
    /// search), the search's when it found the counterexample (its values
    /// are the witness's) or ran last after the chase budget expired.
    pub fn new(
        sigma: impl Into<Arc<[TdOrEgd]>>,
        goal: TdOrEgd,
        pool: ValuePool,
        cfg: DecideConfig,
    ) -> Self {
        let sigma: Arc<[TdOrEgd]> = sigma.into();
        let cancel = CancelToken::new();
        let phase = match cfg.mode.initial_ratio() {
            Some(ratio) if !cfg.skip_search => {
                let universe: Arc<Universe> = match &goal {
                    TdOrEgd::Td(t) => t.universe().clone(),
                    TdOrEgd::Egd(e) => e.universe().clone(),
                };
                let search = SearchTask::new(
                    sigma.clone(),
                    goal.clone(),
                    universe,
                    pool.clone(),
                    cfg.search.clone(),
                )
                .with_cancel_token(cancel.clone());
                let chase =
                    ChaseTask::implication(sigma.clone(), goal.clone(), pool, cfg.chase.clone())
                        .with_cancel_token(cancel.clone());
                DecidePhase::Dovetailing {
                    chase: Box::new(chase),
                    search: Box::new(search),
                    chase_turn: ratio,
                    ratio,
                    last_steps: 0,
                    last_merges: 0,
                }
            }
            _ => DecidePhase::Chasing(Box::new(
                ChaseTask::implication(sigma.clone(), goal.clone(), pool, cfg.chase.clone())
                    .with_cancel_token(cancel.clone()),
            )),
        };
        Self {
            sigma,
            goal,
            cfg,
            phase,
            fuel_spent: 0,
            cancel,
            search_exhausted: false,
            mirror: ProgressSnapshot::default(),
        }
    }

    /// The task's cancellation token. Tripping it (from any thread) makes
    /// the task stop at its next round/attempt boundary and report a
    /// [`Decision`] with `cancelled` set instead of spending the rest of
    /// its budgets. Cancelling a finished task is a no-op.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs at most `fuel` units (chase rounds + search attempts). A
    /// finished task ignores further fuel and keeps reporting its answer.
    pub fn step(&mut self, fuel: usize) -> DecideStatus {
        let mut left = fuel;
        loop {
            match &mut self.phase {
                DecidePhase::Poisoned => unreachable!("DecideTask phase poisoned"),
                DecidePhase::Done(d, _) => return DecideStatus::Done(d.implication),
                DecidePhase::Chasing(task) => {
                    if left == 0 {
                        return DecideStatus::Pending;
                    }
                    let before = task.rounds();
                    let status = task.step(left);
                    let used = (task.rounds() - before).max(1);
                    left = left.saturating_sub(used);
                    self.fuel_spent += used as u64;
                    match status {
                        StepStatus::Pending => return DecideStatus::Pending,
                        StepStatus::Done(outcome) => self.leave_chase(outcome),
                    }
                }
                DecidePhase::Searching { task, .. } => {
                    if left == 0 {
                        return DecideStatus::Pending;
                    }
                    let before = task.attempts_done();
                    let status = task.step(left);
                    let used = ((task.attempts_done() - before) as usize).max(1);
                    left = left.saturating_sub(used);
                    self.fuel_spent += used as u64;
                    if let SearchStatus::Done(_) = status {
                        self.leave_search();
                    } else {
                        return DecideStatus::Pending;
                    }
                }
                DecidePhase::Dovetailing {
                    chase,
                    search,
                    chase_turn,
                    ratio,
                    last_steps,
                    last_merges,
                } => {
                    if left == 0 {
                        return DecideStatus::Pending;
                    }
                    if *chase_turn > 0 {
                        // The chase's share of the period (bounded by the
                        // slice so preemption stays fair across tasks).
                        let want = (*chase_turn as usize).min(left);
                        let before = chase.rounds();
                        let status = chase.step(want);
                        let used = (chase.rounds() - before).max(1);
                        left = left.saturating_sub(used);
                        self.fuel_spent += used as u64;
                        *chase_turn = chase_turn.saturating_sub(used as u32);
                        if let StepStatus::Done(outcome) = status {
                            self.leave_dovetail_chase(outcome);
                        }
                    } else {
                        // The search's turn: one attempt, then a new period.
                        let before = search.attempts_done();
                        let status = search.step(1);
                        let used = ((search.attempts_done() - before) as usize).max(1);
                        left = left.saturating_sub(used);
                        self.fuel_spent += used as u64;
                        match self.cfg.mode {
                            DecideMode::Dovetail { .. } => {}
                            DecideMode::AdaptiveDovetail { chase_ratio } => {
                                // Re-ratio toward whoever progressed: a
                                // period with merges or with no new steps
                                // means the chase is converging (give it
                                // more); pure row growth looks divergent
                                // (let the search in sooner).
                                let steps = chase.steps_applied() as u64;
                                let merges = chase.merges() as u64;
                                let converging =
                                    steps == *last_steps || merges > *last_merges;
                                let cap = chase_ratio.max(1).saturating_mul(8);
                                *ratio = if converging {
                                    ratio.saturating_mul(2).min(cap)
                                } else {
                                    (*ratio / 2).max(1)
                                };
                                *last_steps = steps;
                                *last_merges = merges;
                            }
                            DecideMode::Sequential => {
                                unreachable!("dovetail phase outside dovetail mode")
                            }
                        }
                        *chase_turn = (*ratio).max(1);
                        if let SearchStatus::Done(found) = status {
                            self.leave_dovetail_search(found);
                        }
                    }
                }
            }
        }
    }

    /// Drives the task to completion (the blocking mode). Always
    /// terminates: the chase is bounded by its round budget and the search
    /// by its attempt budget.
    pub fn run_to_completion(&mut self) -> Answer {
        loop {
            if let DecideStatus::Done(a) = self.step(256) {
                return a;
            }
        }
    }

    /// The finished decision, if any (borrowing poll).
    pub fn decision(&self) -> Option<&Decision> {
        match &self.phase {
            DecidePhase::Done(d, _) => Some(d),
            _ => None,
        }
    }

    /// Fuel units (chase rounds + search attempts) consumed so far.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }

    /// A cheap point-in-time profile: current phase plus cumulative
    /// per-procedure counters (see [`ProgressSnapshot`]). O(1) field
    /// reads; intended to be sampled once per fuel slice.
    pub fn progress_snapshot(&self) -> ProgressSnapshot {
        let mut snap = self.mirror;
        snap.fuel_spent = self.fuel_spent;
        match &self.phase {
            DecidePhase::Chasing(task) => {
                snap.phase = TaskPhase::Chase;
                Self::read_chase(&mut snap, task);
            }
            DecidePhase::Searching { task, .. } => {
                snap.phase = TaskPhase::Search;
                snap.search_attempts = task.attempts_done();
            }
            DecidePhase::Dovetailing { chase, search, .. } => {
                snap.phase = TaskPhase::Dovetail;
                Self::read_chase(&mut snap, chase);
                snap.search_attempts = search.attempts_done();
            }
            DecidePhase::Done(..) | DecidePhase::Poisoned => snap.phase = TaskPhase::Done,
        }
        snap
    }

    fn read_chase(snap: &mut ProgressSnapshot, task: &ChaseTask) {
        snap.chase_rounds = task.rounds() as u64;
        snap.chase_steps = task.steps_applied() as u64;
        snap.chase_merges = task.merges() as u64;
        snap.instance_rows = task.instance_rows() as u64;
        snap.join_build_rows = task.join_build_rows();
        snap.join_probe_hits = task.join_probe_hits();
    }

    /// Freezes the chase counters into the mirror before the sub-task is
    /// consumed by a phase transition.
    fn mirror_chase(&mut self, task: &ChaseTask) {
        Self::read_chase(&mut self.mirror, task);
    }

    /// Freezes the search counter into the mirror before the sub-task is
    /// consumed by a phase transition.
    fn mirror_search(&mut self, task: &SearchTask) {
        self.mirror.search_attempts = task.attempts_done();
    }

    /// Extracts the decision and the evolved pool.
    ///
    /// # Panics
    /// Panics if the task has not finished.
    pub fn finish(self) -> (Decision, ValuePool) {
        match self.phase {
            DecidePhase::Done(d, pool) => (*d, pool),
            _ => panic!("DecideTask::finish on an unfinished task; step it to Done first"),
        }
    }

    /// Transitions out of the chase phase on its outcome.
    fn leave_chase(&mut self, outcome: ChaseOutcome) {
        let DecidePhase::Chasing(task) =
            std::mem::replace(&mut self.phase, DecidePhase::Poisoned)
        else {
            unreachable!("leave_chase outside the chase phase");
        };
        self.mirror_chase(&task);
        let (run, pool) = task.finish();
        self.phase = match outcome {
            ChaseOutcome::Implied => DecidePhase::Done(
                Box::new(Decision {
                    implication: Answer::Yes,
                    // Implication entails finite implication (every finite
                    // relation is a relation).
                    finite_implication: Answer::Yes,
                    chase: run,
                    counterexample: None,
                    cancelled: false,
                }),
                pool,
            ),
            ChaseOutcome::NotImplied => {
                // The terminal chase instance is a finite model of Σ
                // violating σ, so both problems are answered negatively.
                let cex = run.final_relation.clone();
                DecidePhase::Done(
                    Box::new(Decision {
                        implication: Answer::No,
                        finite_implication: Answer::No,
                        chase: run,
                        counterexample: Some(cex),
                        cancelled: false,
                    }),
                    pool,
                )
            }
            ChaseOutcome::Cancelled => DecidePhase::Done(
                Box::new(Decision {
                    implication: Answer::Unknown,
                    finite_implication: Answer::Unknown,
                    chase: run,
                    counterexample: None,
                    cancelled: true,
                }),
                pool,
            ),
            ChaseOutcome::Exhausted if self.cfg.skip_search || self.search_exhausted => {
                DecidePhase::Done(
                    Box::new(Decision {
                        implication: Answer::Unknown,
                        finite_implication: Answer::Unknown,
                        chase: run,
                        counterexample: None,
                        cancelled: false,
                    }),
                    pool,
                )
            }
            ChaseOutcome::Exhausted => {
                let universe: Arc<Universe> = match &self.goal {
                    TdOrEgd::Td(t) => t.universe().clone(),
                    TdOrEgd::Egd(e) => e.universe().clone(),
                };
                DecidePhase::Searching {
                    chase_run: Box::new(run),
                    task: Box::new(
                        SearchTask::new(
                            self.sigma.clone(),
                            self.goal.clone(),
                            universe,
                            pool,
                            self.cfg.search.clone(),
                        )
                        .with_cancel_token(self.cancel.clone()),
                    ),
                }
            }
        };
    }

    /// Transitions out of the search phase once it finishes.
    fn leave_search(&mut self) {
        let DecidePhase::Searching { chase_run, task } =
            std::mem::replace(&mut self.phase, DecidePhase::Poisoned)
        else {
            unreachable!("leave_search outside the search phase");
        };
        self.mirror_search(&task);
        let cancelled = task.was_cancelled();
        let (found, pool) = task.finish();
        let decision = match found {
            Some(rel) => Decision {
                // A finite model of Σ violating σ refutes both notions.
                implication: Answer::No,
                finite_implication: Answer::No,
                chase: *chase_run,
                counterexample: Some(rel),
                cancelled: false,
            },
            None => Decision {
                implication: Answer::Unknown,
                finite_implication: Answer::Unknown,
                chase: *chase_run,
                counterexample: None,
                cancelled,
            },
        };
        self.phase = DecidePhase::Done(Box::new(decision), pool);
    }

    /// Transitions out of the dovetail when the *chase* concluded.
    fn leave_dovetail_chase(&mut self, outcome: ChaseOutcome) {
        let DecidePhase::Dovetailing { chase, search, .. } =
            std::mem::replace(&mut self.phase, DecidePhase::Poisoned)
        else {
            unreachable!("leave_dovetail_chase outside the dovetail phase");
        };
        self.mirror_chase(&chase);
        self.mirror_search(&search);
        match outcome {
            ChaseOutcome::Exhausted => {
                // The chase budget is spent but the search still has
                // attempts (a dovetail whose search ran dry leaves this
                // phase for `Chasing`, so it cannot reach here): continue
                // search-only — the sequential second phase, except the
                // search keeps its own pool lineage.
                let (run, _chase_pool) = chase.finish();
                self.phase = DecidePhase::Searching {
                    chase_run: Box::new(run),
                    task: search,
                };
            }
            _ => {
                // Implied / NotImplied / Cancelled: the chase's verdict
                // is the task's. The search is abandoned; its pool (and
                // any witnesses it was building) are dropped.
                drop(search);
                self.phase = DecidePhase::Chasing(chase);
                self.leave_chase(outcome);
            }
        }
    }

    /// Transitions out of the dovetail when the *search* concluded.
    fn leave_dovetail_search(&mut self, found: bool) {
        let DecidePhase::Dovetailing { chase, search, .. } =
            std::mem::replace(&mut self.phase, DecidePhase::Poisoned)
        else {
            unreachable!("leave_dovetail_search outside the dovetail phase");
        };
        self.mirror_chase(&chase);
        self.mirror_search(&search);
        let cancelled = search.was_cancelled();
        let (witness, search_pool) = search.finish();
        if found {
            // A finite model of Σ violating σ refutes both notions; the
            // still-running chase is abandoned (its run records progress).
            let rel = witness.expect("SearchStatus::Done(true) carries a witness");
            let (run, _chase_pool) = chase.abandon();
            self.phase = DecidePhase::Done(
                Box::new(Decision {
                    implication: Answer::No,
                    finite_implication: Answer::No,
                    chase: run,
                    counterexample: Some(rel),
                    cancelled: false,
                }),
                search_pool,
            );
        } else if cancelled {
            let (run, chase_pool) = chase.abandon();
            self.phase = DecidePhase::Done(
                Box::new(Decision {
                    implication: Answer::Unknown,
                    finite_implication: Answer::Unknown,
                    chase: run,
                    counterexample: None,
                    cancelled: true,
                }),
                chase_pool,
            );
        } else {
            // Search enumeration exhausted empty-handed: the chase keeps
            // its remaining budget (chase-only from here).
            self.search_exhausted = true;
            self.phase = DecidePhase::Chasing(chase);
        }
    }
}

/// Aggregated verdict when the goal normalizes to several td/egd parts
/// (e.g. an fd goal becomes one egd per dependent attribute).
#[derive(Clone, Debug)]
pub struct MultiDecision {
    /// Conjunction over parts.
    pub implication: Answer,
    /// Conjunction over parts.
    pub finite_implication: Answer,
    /// First counterexample found, if any part failed.
    pub counterexample: Option<Relation>,
    /// Per-part decisions, in normalization order.
    pub parts: Vec<Decision>,
}

fn conjoin(parts: impl Iterator<Item = Answer>) -> Answer {
    let mut acc = Answer::Yes;
    for a in parts {
        match a {
            Answer::No => return Answer::No,
            Answer::Unknown => acc = Answer::Unknown,
            Answer::Yes => {}
        }
    }
    acc
}

/// Decides implication between [`Dependency`] values of any class by
/// normalizing both sides into the td/egd fragment.
pub fn decide_dependencies(
    sigma: &[Dependency],
    goal: &Dependency,
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
    cfg: &DecideConfig,
) -> MultiDecision {
    let sigma_normal: Vec<TdOrEgd> = sigma
        .iter()
        .flat_map(|d| d.normalize(universe, pool))
        .collect();
    let goal_parts = goal.normalize(universe, pool);
    if goal_parts.is_empty() {
        // A goal that normalizes to nothing (e.g. an fd with Y ⊆ X) is
        // vacuously implied.
        return MultiDecision {
            implication: Answer::Yes,
            finite_implication: Answer::Yes,
            counterexample: None,
            parts: Vec::new(),
        };
    }
    let parts: Vec<Decision> = goal_parts
        .iter()
        .map(|g| decide(&sigma_normal, g, pool, cfg))
        .collect();
    MultiDecision {
        implication: conjoin(parts.iter().map(|p| p.implication)),
        finite_implication: conjoin(parts.iter().map(|p| p.finite_implication)),
        counterexample: parts.iter().find_map(|p| p.counterexample.clone()),
        parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::{egd_from_names, td_from_names, Fd, Mvd, Pjd};
    use typedtd_relational::Universe;

    #[test]
    fn fd_transitivity_via_chase() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let sigma = vec![
            Dependency::from(Fd::parse(&u, "A -> B").unwrap()),
            Dependency::from(Fd::parse(&u, "B -> C").unwrap()),
        ];
        let goal = Dependency::from(Fd::parse(&u, "A -> C").unwrap());
        let d = decide_dependencies(&sigma, &goal, &u, &mut p, &DecideConfig::default());
        assert_eq!(d.implication, Answer::Yes);
        assert_eq!(d.finite_implication, Answer::Yes);
    }

    #[test]
    fn fd_non_implication_has_counterexample() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let sigma = vec![Dependency::from(Fd::parse(&u, "A -> B").unwrap())];
        let goal = Dependency::from(Fd::parse(&u, "B -> A").unwrap());
        let d = decide_dependencies(&sigma, &goal, &u, &mut p, &DecideConfig::default());
        assert_eq!(d.implication, Answer::No);
        assert_eq!(d.finite_implication, Answer::No);
        let cex = d.counterexample.expect("counterexample");
        assert!(sigma[0].satisfied_by(&cex) && !goal.satisfied_by(&cex));
    }

    #[test]
    fn mvd_complementation_via_chase() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let sigma = vec![Dependency::from(Mvd::parse(&u, "A ->> B").unwrap())];
        let goal = Dependency::from(Mvd::parse(&u, "A ->> C").unwrap());
        let d = decide_dependencies(&sigma, &goal, &u, &mut p, &DecideConfig::default());
        assert_eq!(d.implication, Answer::Yes);
    }

    #[test]
    fn fd_implies_mvd_but_not_conversely() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let fd: Dependency = Fd::parse(&u, "A -> B").unwrap().into();
        let mvd: Dependency = Mvd::parse(&u, "A ->> B").unwrap().into();
        let cfg = DecideConfig::default();
        let d1 = decide_dependencies(std::slice::from_ref(&fd), &mvd, &u, &mut p, &cfg);
        assert_eq!(d1.implication, Answer::Yes, "X → Y ⊨ X ↠ Y");
        let d2 = decide_dependencies(std::slice::from_ref(&mvd), &fd, &u, &mut p, &cfg);
        assert_eq!(d2.implication, Answer::No, "X ↠ Y ⊭ X → Y");
        assert!(d2.counterexample.is_some());
    }

    #[test]
    fn jd_implied_by_its_mvd() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let mvd: Dependency = Mvd::parse(&u, "A ->> B").unwrap().into();
        let jd: Dependency = Pjd::parse(&u, "*[AB, AC]").unwrap().into();
        let d = decide_dependencies(std::slice::from_ref(&mvd), &jd, &u, &mut p, &DecideConfig::default());
        assert_eq!(d.implication, Answer::Yes);
        let d2 = decide_dependencies(std::slice::from_ref(&jd), &mvd, &u, &mut p, &DecideConfig::default());
        assert_eq!(d2.implication, Answer::Yes);
    }

    /// A refutable-but-divergent query: the successor td keeps the chase
    /// growing forever, while a 2-row finite model refutes the fd goal.
    fn refutable_divergent() -> (Vec<TdOrEgd>, TdOrEgd, ValuePool) {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let successor = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["y", "q1", "q2"]);
        let fd_egd = egd_from_names(
            &u,
            &mut p,
            &[&["x", "y1", "z1"], &["x", "y2", "z2"]],
            ("B'", "y1"),
            ("B'", "y2"),
        );
        (vec![TdOrEgd::Td(successor)], TdOrEgd::Egd(fd_egd), p)
    }

    /// Chase budgets so large the chase effectively never exhausts.
    fn huge_chase() -> crate::engine::ChaseConfig {
        crate::engine::ChaseConfig {
            max_rounds: 1 << 20,
            max_rows: 1 << 22,
            max_steps: 1 << 26,
            ..Default::default()
        }
    }

    #[test]
    fn dovetail_refutes_divergent_query_with_bounded_fuel() {
        let (sigma, goal, pool) = refutable_divergent();
        let cfg = DecideConfig {
            chase: huge_chase(),
            mode: DecideMode::dovetail(1),
            ..DecideConfig::default()
        };
        let mut task = DecideTask::new(sigma.clone(), goal.clone(), pool, cfg);
        let mut spent = 0u64;
        let answer = loop {
            match task.step(64) {
                DecideStatus::Done(a) => break a,
                DecideStatus::Pending => {
                    spent += 64;
                    assert!(
                        spent < 4096,
                        "dovetail must refute well before the chase budget"
                    );
                }
            }
        };
        assert_eq!(answer, Answer::No, "the finite search must win the race");
        let (decision, _pool) = task.finish();
        assert_eq!(decision.finite_implication, Answer::No);
        assert!(!decision.cancelled);
        let cex = decision.counterexample.expect("search returns its witness");
        assert!(crate::search::is_counterexample(&cex, &sigma, &goal));
        assert_eq!(
            decision.chase.outcome,
            ChaseOutcome::Cancelled,
            "the abandoned chase records that it was cut short"
        );
    }

    #[test]
    fn dovetail_matches_sequential_on_decidable_queries() {
        // fd transitivity (Yes via chase) and its converse (No via the
        // terminal chase instance) answer identically in both modes.
        let u = Universe::typed(vec!["A", "B", "C"]);
        let cases = [("A -> C", Answer::Yes), ("C -> A", Answer::No)];
        for (goal_text, expected) in cases {
            let p = ValuePool::new(u.clone());
            let sigma = vec![
                Dependency::from(Fd::parse(&u, "A -> B").unwrap()),
                Dependency::from(Fd::parse(&u, "B -> C").unwrap()),
            ];
            let goal = Dependency::from(Fd::parse(&u, goal_text).unwrap());
            for mode in [
                DecideMode::Sequential,
                DecideMode::dovetail(2),
                DecideMode::adaptive_dovetail(2),
            ] {
                let cfg = DecideConfig {
                    mode,
                    ..DecideConfig::default()
                };
                let d = decide_dependencies(&sigma, &goal, &u, &mut p.clone(), &cfg);
                assert_eq!(d.implication, expected, "mode {mode:?} diverged on {goal_text}");
                assert_eq!(d.finite_implication, expected);
            }
        }
    }

    #[test]
    fn adaptive_dovetail_parity_with_fixed_ratio() {
        // The adaptive ratio never changes the *answers* — only the fuel
        // split. Parity across implied, refuted, and divergent-refutable
        // queries, at several starting ratios.
        let (sigma, goal, pool) = refutable_divergent();
        for ratio in [1, 2, 8] {
            let mut answers = Vec::new();
            for mode in [
                DecideMode::dovetail(ratio),
                DecideMode::adaptive_dovetail(ratio),
            ] {
                let cfg = DecideConfig {
                    chase: huge_chase(),
                    mode,
                    ..DecideConfig::default()
                };
                let mut task =
                    DecideTask::new(sigma.clone(), goal.clone(), pool.clone(), cfg);
                let answer = task.run_to_completion();
                let (decision, _pool) = task.finish();
                answers.push((answer, decision.finite_implication));
            }
            assert_eq!(
                answers[0], answers[1],
                "fixed vs adaptive parity at ratio {ratio}"
            );
            assert_eq!(answers[0].1, Answer::No, "both must refute the divergent query");
        }
    }

    #[test]
    fn adaptive_dovetail_shrinks_ratio_on_divergence() {
        // On the pure-growth divergent query the re-ratio rule drives the
        // period length down to 1, so the search gets in at least as often
        // as with the same fixed starting ratio.
        let (sigma, goal, pool) = refutable_divergent();
        let mk = |mode| DecideConfig {
            chase: huge_chase(),
            mode,
            ..DecideConfig::default()
        };
        let mut fixed = DecideTask::new(
            sigma.clone(),
            goal.clone(),
            pool.clone(),
            mk(DecideMode::dovetail(32)),
        );
        let mut adaptive = DecideTask::new(
            sigma.clone(),
            goal.clone(),
            pool,
            mk(DecideMode::adaptive_dovetail(32)),
        );
        assert_eq!(fixed.run_to_completion(), Answer::No);
        assert_eq!(adaptive.run_to_completion(), Answer::No);
        assert!(
            adaptive.fuel_spent() <= fixed.fuel_spent(),
            "divergence detection must not waste fuel vs fixed ratio (adaptive {} vs fixed {})",
            adaptive.fuel_spent(),
            fixed.fuel_spent()
        );
    }

    #[test]
    fn cancel_stops_a_divergent_task_within_one_slice() {
        let (sigma, goal, pool) = refutable_divergent();
        let cfg = DecideConfig {
            chase: huge_chase(),
            skip_search: true,
            ..DecideConfig::default()
        };
        let mut task = DecideTask::new(sigma, goal, pool, cfg);
        assert_eq!(task.step(32), DecideStatus::Pending, "chase must diverge");
        let token = task.cancel_token();
        token.cancel();
        let before = task.fuel_spent();
        let status = task.step(100_000);
        assert_eq!(status, DecideStatus::Done(Answer::Unknown));
        assert!(
            task.fuel_spent() - before <= 1,
            "a cancelled task must not burn its remaining fuel (burned {})",
            task.fuel_spent() - before
        );
        let (decision, _pool) = task.finish();
        assert!(decision.cancelled, "cancellation is surfaced on the decision");
        assert_eq!(decision.chase.outcome, ChaseOutcome::Cancelled);
    }

    #[test]
    fn cancel_after_finish_keeps_the_real_answer() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = [Fd::parse(&u, "A -> B").unwrap(), Fd::parse(&u, "B -> C").unwrap()]
            .iter()
            .flat_map(|f| Dependency::from(f.clone()).normalize(&u, &mut p))
            .collect();
        let goal = Dependency::from(Fd::parse(&u, "A -> C").unwrap())
            .normalize(&u, &mut p)
            .pop()
            .expect("one egd part");
        let mut task = DecideTask::new(sigma, goal, p, DecideConfig::default());
        let answer = task.run_to_completion();
        assert_eq!(answer, Answer::Yes);
        task.cancel_token().cancel();
        assert_eq!(task.step(16), DecideStatus::Done(Answer::Yes));
        let (decision, _pool) = task.finish();
        assert!(!decision.cancelled, "cancel after Done is a no-op");
    }

    #[test]
    fn td_goal_with_egd_support() {
        // Σ = {A' → B' (egd), td: (x,y,z) ⊢ (x,y,z')} over untyped ABC —
        // goal follows because the td is its own goal.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let td = td_from_names(&u, &mut p, &[&["x", "y", "z"]], &["x", "y", "z2"]);
        let egd = egd_from_names(
            &u,
            &mut p,
            &[&["q", "r1", "s1"], &["q", "r2", "s2"]],
            ("B'", "r1"),
            ("B'", "r2"),
        );
        let sigma = vec![TdOrEgd::Td(td.clone()), TdOrEgd::Egd(egd)];
        let goal = TdOrEgd::Td(td);
        let d = decide(&sigma, &goal, &mut p, &DecideConfig::default());
        assert_eq!(d.implication, Answer::Yes);
    }
}
