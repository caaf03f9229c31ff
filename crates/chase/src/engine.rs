//! The chase engine: a *fair*, **semi-naive**, *resumable* semidecision
//! procedure for (finite) implication of template and equality-generating
//! dependencies.
//!
//! To test `Σ ⊨ (w, I)` the engine freezes `I` as the initial instance and
//! repeatedly fires unsatisfied dependencies of `Σ`:
//!
//! * an egd trigger merges two values (union-find, then index-driven
//!   rewriting of exactly the rows containing the losing representative);
//! * a td trigger adds the conclusion row, inventing fresh labeled nulls for
//!   its existential values.
//!
//! # Delta-driven rounds
//!
//! Rounds are breadth-first — every trigger existing at the start of a round
//! fires (or is re-verified as satisfied) before triggers discovered later —
//! which makes the chase fair, hence complete for implication. Naively, each
//! round re-enumerates every hypothesis embedding against the *entire*
//! instance, so chase cost grows quadratically with the instance. This
//! engine is instead *semi-naive*, in the Datalog sense:
//!
//! * [`ChaseInstance`] stamps every row with the mutation version at which
//!   it was inserted or last rewritten, and mirrors the stamps into an
//!   append-only dirty-row log;
//! * the runner remembers, per dependency, the version up to which the
//!   instance has been fully checked (`seen`);
//! * trigger discovery for a dependency only enumerates embeddings that
//!   touch at least one row of the *delta* — the rows stamped after `seen`,
//!   drained from the log in time proportional to the delta — via one
//!   [`Embedder::scan`] per hypothesis row ([`ScanScope::Pinned`]), which
//!   pins that row to the delta and hash-joins the rest against the whole
//!   instance. Deltas are cached per distinct frontier for the pass.
//!
//! Scans run on the calling thread. Parallelism lives one level up: the
//! service steps independent jobs on separate workers.
//!
//! This is sound and complete because triggers are monotone in the chase:
//! an embedding whose rows are all old and unchanged was already enumerated
//! when those rows were last in a delta, and was then either fired (its
//! conclusion row persists, modulo canonicalization) or verified satisfied
//! (satisfaction persists: rows are never deleted, only rewritten by
//! merges, and homomorphisms compose with the canonicalization map). The
//! instance changes only by traced `AddRow` and `Merge` steps, so per-row
//! tracking never needs a full rescan.
//!
//! The naive full-rescan behaviour is preserved behind
//! [`ChaseConfig::semi_naive`]` = false` as a differential-testing
//! reference: both modes produce identical [`ChaseOutcome`]s, round counts,
//! and (up to isomorphism of labeled nulls) final instances.
//!
//! # Resumable stepping
//!
//! The engine's unit of preemption is the breadth-first round. A
//! [`ChaseTask`] owns the full mid-chase state — instance, per-dependency
//! frontiers, trace, value pool — and [`ChaseTask::step`] runs at most
//! `fuel` rounds before yielding [`StepStatus::Pending`]. This is what lets
//! a scheduler dovetail many implication queries fairly (the paper's
//! problems are undecidable, so any single query may diverge; preemption
//! bounds the damage to one fuel slice). The blocking entry points
//! [`chase_implication`] and [`saturate`] are thin drivers that create a
//! task and run it to completion.

use crate::cancel::CancelToken;
use crate::instance::ChaseInstance;
use crate::trace::{ChaseStep, ChaseTrace, StepKind};
use std::ops::ControlFlow;
use std::sync::Arc;
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{
    satisfies_row, Embedder, FxHashMap, Relation, RowDelta, ScanScope, ScanStats, Tuple, Universe,
    Valuation, Value, ValuePool,
};

/// Budgets for the restricted chase, plus the naive-reference switch.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum breadth-first rounds before giving up.
    pub max_rounds: usize,
    /// Maximum instance rows before giving up.
    pub max_rows: usize,
    /// Maximum applied steps (row adds + merges) before giving up.
    pub max_steps: usize,
    /// Delta-driven (semi-naive) trigger discovery. `false` restores the
    /// naive full-rescan reference; outcomes are identical either way.
    pub semi_naive: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        Self {
            max_rounds: 256,
            max_rows: 4_096,
            max_steps: 32_768,
            semi_naive: true,
        }
    }
}

impl ChaseConfig {
    /// A configuration with a tight budget, for search loops.
    pub fn quick() -> Self {
        Self {
            max_rounds: 24,
            max_rows: 512,
            max_steps: 2_048,
            ..Self::default()
        }
    }

    /// Toggles semi-naive (delta-driven) trigger discovery.
    pub fn with_semi_naive(mut self, on: bool) -> Self {
        self.semi_naive = on;
        self
    }
}

/// Result status of a chase run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaseOutcome {
    /// The goal became derivable: `Σ ⊨ σ` (hence also `Σ ⊨_f σ`).
    Implied,
    /// A terminal instance was reached and the goal fails in it: the
    /// instance is a finite counterexample, so `Σ ⊭ σ` and `Σ ⊭_f σ`.
    NotImplied,
    /// The budget ran out before either certificate appeared.
    Exhausted,
    /// The task's [`CancelToken`] was tripped mid-run: the chase stopped
    /// at a round boundary without a certificate. Distinct from
    /// `Exhausted` so schedulers can tell "budget spent" from "owner
    /// asked us to stop".
    Cancelled,
}

/// Whether a resumable task needs more fuel or has finished.
///
/// Shared by [`ChaseTask`], [`crate::search::SearchTask`], and
/// [`crate::implication::DecideTask`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepStatus {
    /// The fuel slice ran out before the task finished; step again.
    Pending,
    /// The task finished with this outcome. Further `step` calls are no-ops
    /// returning the same status.
    Done(ChaseOutcome),
}

/// A finished chase run.
#[derive(Clone, Debug)]
pub struct ChaseRun {
    /// What the run established.
    pub outcome: ChaseOutcome,
    /// The derivation (row adds and merges, in order).
    pub trace: ChaseTrace,
    /// The final instance (a universal model when `outcome` is
    /// `NotImplied`).
    pub final_relation: Relation,
    /// Breadth-first rounds executed.
    pub rounds: usize,
}

/// The implication goal: a td or an egd.
pub type Goal = TdOrEgd;

/// Tests `Σ ⊨ goal` by chasing the goal's hypothesis with `Σ`.
///
/// Fresh labeled nulls are minted from `pool` (which must be the pool the
/// dependencies' values came from). This is a thin driver over
/// [`ChaseTask`]: it snapshots the pool into a task, runs the task to
/// completion, and writes the evolved pool back.
///
/// ```
/// use typedtd_chase::{chase_implication, ChaseConfig, ChaseOutcome};
/// use typedtd_dependencies::{Mvd, TdOrEgd};
/// use typedtd_relational::{Universe, ValuePool};
///
/// // A ↠ B implies A ↠ C over ABC (complementation).
/// let u = Universe::typed(vec!["A", "B", "C"]);
/// let mut pool = ValuePool::new(u.clone());
/// let sigma = vec![TdOrEgd::Td(Mvd::parse(&u, "A ->> B").unwrap().to_pjd().to_td(&u, &mut pool))];
/// let goal = TdOrEgd::Td(Mvd::parse(&u, "A ->> C").unwrap().to_pjd().to_td(&u, &mut pool));
/// let run = chase_implication(&sigma, &goal, &mut pool, &ChaseConfig::default());
/// assert_eq!(run.outcome, ChaseOutcome::Implied);
/// ```
pub fn chase_implication(
    sigma: &[TdOrEgd],
    goal: &Goal,
    pool: &mut ValuePool,
    cfg: &ChaseConfig,
) -> ChaseRun {
    // Move the pool into the task (leaving an empty stand-in) instead of
    // deep-cloning it; the evolved pool moves back out at the end.
    let empty = ValuePool::new(pool.universe().clone());
    let taken = std::mem::replace(pool, empty);
    let mut task = ChaseTask::implication(sigma.to_vec(), goal.clone(), taken, cfg.clone());
    task.run_to_completion();
    let (run, evolved) = task.finish();
    *pool = evolved;
    run
}

/// Chases an initial relation to a fixpoint ("saturation"): the result is a
/// universal model of `Σ` over the initial rows if `terminal` is reached.
/// Thin driver over [`ChaseTask::saturation`].
pub fn saturate(
    init: &Relation,
    sigma: &[TdOrEgd],
    pool: &mut ValuePool,
    cfg: &ChaseConfig,
) -> ChaseRun {
    let empty = ValuePool::new(pool.universe().clone());
    let taken = std::mem::replace(pool, empty);
    let mut task = ChaseTask::saturation(init, sigma.to_vec(), taken, cfg.clone());
    task.run_to_completion();
    let (run, evolved) = task.finish();
    *pool = evolved;
    run
}

/// Per-pass cache of [`ChaseInstance::delta_since`] results keyed by
/// frontier version, shared by the egd and td scans. Frontiers are usually
/// identical across dependencies in the steady state, so each distinct
/// frontier drains the dirty log exactly once per pass.
#[derive(Default)]
struct FrontierDeltas {
    cache: FxHashMap<u64, RowDelta>,
}

impl FrontierDeltas {
    /// Computes (or reuses) the delta for frontier `since`.
    fn fill(&mut self, inst: &ChaseInstance, since: u64) -> &RowDelta {
        self.cache.entry(since).or_insert_with(|| {
            if since == inst.version() {
                // Frontier current: empty delta without touching the log.
                RowDelta::default()
            } else {
                inst.delta_since(since)
            }
        })
    }

    /// Drops cached deltas (a merge moved row positions), keeping the
    /// allocation for the next pass.
    fn reset(&mut self) {
        self.cache.clear();
    }
}

/// The hypothesis rows of either dependency kind.
fn dep_hypothesis(dep: &TdOrEgd) -> &[Tuple] {
    match dep {
        TdOrEgd::Td(td) => td.hypothesis(),
        TdOrEgd::Egd(e) => e.hypothesis(),
    }
}

/// Checks whether the goal is derivable in the instance.
fn goal_holds(inst: &mut ChaseInstance, goal: &Goal) -> bool {
    match goal {
        TdOrEgd::Egd(e) => inst.identified(e.left(), e.right()),
        TdOrEgd::Td(td) => {
            let seed = Valuation::from_pairs(
                td.hypothesis_values()
                    .into_iter()
                    .map(|v| (v, inst.resolve(v))),
            );
            let emb = Embedder::new(inst.relation());
            emb.embeds(std::slice::from_ref(td.conclusion()), &seed)
        }
    }
}

/// A resumable chase: the full mid-run state of one saturation or
/// implication chase, preemptible at round granularity.
///
/// The task owns everything the chase mutates — the [`ChaseInstance`], the
/// per-dependency semi-naive frontiers, the trace, and the [`ValuePool`]
/// fresh nulls are minted from — so tasks can be held, swapped, and stepped
/// in any interleaving. [`ChaseTask::step`] runs at most `fuel`
/// breadth-first rounds; once it reports [`StepStatus::Done`], call
/// [`ChaseTask::finish`] to extract the [`ChaseRun`] and the evolved pool.
///
/// ```
/// use typedtd_chase::{ChaseConfig, ChaseOutcome, ChaseTask, StepStatus};
/// use typedtd_dependencies::{Mvd, TdOrEgd};
/// use typedtd_relational::{Universe, ValuePool};
///
/// let u = Universe::typed(vec!["A", "B", "C"]);
/// let mut pool = ValuePool::new(u.clone());
/// let sigma = vec![TdOrEgd::Td(Mvd::parse(&u, "A ->> B").unwrap().to_pjd().to_td(&u, &mut pool))];
/// let goal = TdOrEgd::Td(Mvd::parse(&u, "A ->> C").unwrap().to_pjd().to_td(&u, &mut pool));
/// let mut task = ChaseTask::implication(sigma, goal, pool, ChaseConfig::default());
/// // Single-round fuel slices; the task is preemptible between them.
/// let outcome = loop {
///     match task.step(1) {
///         StepStatus::Pending => continue,
///         StepStatus::Done(o) => break o,
///     }
/// };
/// assert_eq!(outcome, ChaseOutcome::Implied);
/// ```
pub struct ChaseTask {
    universe: Arc<Universe>,
    inst: ChaseInstance,
    sigma: Arc<[TdOrEgd]>,
    pool: ValuePool,
    cfg: ChaseConfig,
    goal: Option<Goal>,
    trace: ChaseTrace,
    steps: usize,
    /// Per-dependency flag: `true` for a td whose conclusion values all
    /// occur in its hypothesis (a *total* td — no existentials). A trigger
    /// valuation then binds the whole conclusion, so satisfaction collapses
    /// to literal row membership — one hash probe instead of an embedding
    /// search. `false` for egds (unused).
    total_concl: Vec<bool>,
    /// Per-dependency instance version up to which the dependency has been
    /// fully verified (the semi-naive frontier).
    seen: Vec<u64>,
    /// Scratch buffer for total-conclusion membership probes.
    key_buf: Vec<Value>,
    rounds: usize,
    /// Equality merges applied so far (the egd half of `steps`); kept as
    /// its own counter so profilers read it without scanning the trace.
    merges: usize,
    /// Per-dependency hypothesis placement plans for delta-pinned scans
    /// (`touch_plans[di][pin]`), computed once from the hypothesis shape.
    touch_plans: Vec<Vec<Vec<usize>>>,
    /// Per-dependency hypothesis placement plans for full scans.
    scan_plans: Vec<Vec<usize>>,
    /// Hash-join build-side rows taken (delta-pinned candidates) across all
    /// trigger scans so far.
    join_build_rows: u64,
    /// Hash-join probe-side hits (non-pinned candidates surviving the
    /// consistency check) across all trigger scans so far.
    join_probe_hits: u64,
    done: Option<ChaseOutcome>,
    /// Checked at round granularity; tripping it finishes the task with
    /// [`ChaseOutcome::Cancelled`].
    cancel: CancelToken,
}

impl ChaseTask {
    /// A resumable implication chase of `goal`'s hypothesis under `sigma`.
    ///
    /// `pool` must be (a snapshot of) the pool the dependencies' values came
    /// from; it is returned, evolved, by [`ChaseTask::finish`]. `sigma` is
    /// shared (`Arc<[TdOrEgd]>`), so a driver holding several tasks over
    /// one Σ pays for it once.
    pub fn implication(
        sigma: impl Into<Arc<[TdOrEgd]>>,
        goal: Goal,
        pool: ValuePool,
        cfg: ChaseConfig,
    ) -> Self {
        let (universe, init): (Arc<Universe>, Vec<Tuple>) = match &goal {
            TdOrEgd::Td(td) => (td.universe().clone(), td.hypothesis().to_vec()),
            TdOrEgd::Egd(e) => (e.universe().clone(), e.hypothesis().to_vec()),
        };
        Self::new(universe, init, sigma, Some(goal), pool, cfg)
    }

    /// A resumable saturation chase of `init` under `sigma` (no goal; the
    /// task finishes `NotImplied` at the fixpoint, i.e. "terminal").
    pub fn saturation(
        init: &Relation,
        sigma: impl Into<Arc<[TdOrEgd]>>,
        pool: ValuePool,
        cfg: ChaseConfig,
    ) -> Self {
        Self::new(
            init.universe().clone(),
            init.tuples(),
            sigma,
            None,
            pool,
            cfg,
        )
    }

    fn new(
        universe: Arc<Universe>,
        init: Vec<Tuple>,
        sigma: impl Into<Arc<[TdOrEgd]>>,
        goal: Option<Goal>,
        pool: ValuePool,
        cfg: ChaseConfig,
    ) -> Self {
        let sigma = sigma.into();
        let total_concl: Vec<bool> = sigma
            .iter()
            .map(|d| matches!(d, TdOrEgd::Td(t) if t.is_total()))
            .collect();
        let seen = vec![0; sigma.len()];
        // Placement plans depend only on the hypothesis shape (which values
        // repeat across rows), not on the instance: compute them once here
        // instead of on every scan of every round.
        let empty_seed = Valuation::new();
        let touch_plans: Vec<Vec<Vec<usize>>> = sigma
            .iter()
            .map(|d| Embedder::touch_plans(dep_hypothesis(d), &empty_seed))
            .collect();
        let scan_plans: Vec<Vec<usize>> = sigma
            .iter()
            .map(|d| Embedder::scan_plan(dep_hypothesis(d), &empty_seed))
            .collect();
        Self {
            inst: ChaseInstance::new(universe.clone(), init),
            universe,
            sigma,
            pool,
            cfg,
            goal,
            trace: ChaseTrace::default(),
            steps: 0,
            total_concl,
            seen,
            key_buf: Vec::new(),
            rounds: 0,
            merges: 0,
            touch_plans,
            scan_plans,
            join_build_rows: 0,
            join_probe_hits: 0,
            done: None,
            cancel: CancelToken::new(),
        }
    }

    /// Installs a shared cancellation token (builder style). The task
    /// checks it before every round; see [`ChaseTask::cancel_token`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The task's cancellation token. Cloning and tripping it from any
    /// thread makes the task finish [`ChaseOutcome::Cancelled`] at its
    /// next round boundary instead of burning its remaining fuel.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Runs at most `fuel` breadth-first rounds. A finished task ignores
    /// further fuel and keeps reporting its outcome.
    pub fn step(&mut self, fuel: usize) -> StepStatus {
        for _ in 0..fuel {
            if self.done.is_some() {
                break;
            }
            if self.cancel.is_cancelled() {
                self.done = Some(ChaseOutcome::Cancelled);
                break;
            }
            self.round();
        }
        match self.done {
            Some(o) => StepStatus::Done(o),
            None => StepStatus::Pending,
        }
    }

    /// Drives the task to completion (the blocking mode). Always terminates:
    /// every round either finishes the task or advances the round counter,
    /// which [`ChaseConfig::max_rounds`] bounds.
    pub fn run_to_completion(&mut self) -> ChaseOutcome {
        loop {
            if let StepStatus::Done(o) = self.step(64) {
                return o;
            }
        }
    }

    /// `Some` once the task has finished.
    pub fn outcome(&self) -> Option<ChaseOutcome> {
        self.done
    }

    /// Breadth-first rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Applied steps (row adds + merges) so far.
    pub fn steps_applied(&self) -> usize {
        self.steps
    }

    /// Rows in the instance right now.
    pub fn instance_rows(&self) -> usize {
        self.inst.len()
    }

    /// Equality merges applied so far.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// Hash-join build-side rows taken by trigger scans so far.
    pub fn join_build_rows(&self) -> u64 {
        self.join_build_rows
    }

    /// Hash-join probe-side hits scored by trigger scans so far.
    pub fn join_probe_hits(&self) -> u64 {
        self.join_probe_hits
    }

    /// The task's value pool (evolves as fresh nulls are minted).
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Mutable access to the task's value pool, for callers that must mint
    /// goal-local values *into the chase's value space* — e.g. a shared
    /// saturation answering several member goals from one instance, where
    /// each member's conclusion existentials need fresh values that can
    /// never collide with the nulls the chase itself mints.
    pub fn pool_mut(&mut self) -> &mut ValuePool {
        &mut self.pool
    }

    /// The instance as chased so far. At a terminal fixpoint this is the
    /// finite universal model of `Σ` over the seed — the counterexample
    /// relation for any goal that [`ChaseTask::goal_derivable`] rejects.
    pub fn current_relation(&self) -> &Relation {
        self.inst.relation()
    }

    /// Whether `goal` is derivable in the instance as chased so far — the
    /// same certificate check an implication-mode task runs every round.
    /// `true` at *any* point soundly witnesses `Σ ⊨ goal` provided the
    /// seed contains `goal`'s hypothesis; `false` is definitive only once
    /// the task has finished [`ChaseOutcome::NotImplied`] (terminal).
    /// Takes `&mut self` because the check resolves values through the
    /// instance's union-find (path compression).
    pub fn goal_derivable(&mut self, goal: &Goal) -> bool {
        goal_holds(&mut self.inst, goal)
    }

    /// Extracts the finished run and the evolved pool.
    ///
    /// # Panics
    /// Panics if the task has not finished; drive [`ChaseTask::step`] to
    /// [`StepStatus::Done`] first.
    pub fn finish(self) -> (ChaseRun, ValuePool) {
        let outcome = self
            .done
            .expect("ChaseTask::finish on an unfinished task; step it to Done first");
        let run = ChaseRun {
            outcome,
            trace: self.trace,
            final_relation: self.inst.relation().clone(),
            rounds: self.rounds,
        };
        (run, self.pool)
    }

    /// Extracts the run so far from a task that need not have finished —
    /// the dual procedure found a certificate first, so the chase is
    /// abandoned. An unfinished task's run carries
    /// [`ChaseOutcome::Cancelled`]; a finished one keeps its real outcome.
    pub fn abandon(mut self) -> (ChaseRun, ValuePool) {
        self.done.get_or_insert(ChaseOutcome::Cancelled);
        self.finish()
    }

    /// One breadth-first round: egd saturation, goal check, trigger
    /// collection, application.
    fn round(&mut self) {
        if let ControlFlow::Break(o) = self.egd_saturate() {
            self.done = Some(o);
            return;
        }
        if let Some(g) = &self.goal {
            if goal_holds(&mut self.inst, g) {
                self.done = Some(ChaseOutcome::Implied);
                return;
            }
        }
        let triggers = self.collect_td_triggers();
        if triggers.is_empty() {
            // Terminal. With a goal, the universal model refutes it; in
            // saturation mode the fixpoint was reached (reported as
            // NotImplied = "terminal").
            self.done = Some(ChaseOutcome::NotImplied);
            return;
        }
        if self.rounds >= self.cfg.max_rounds {
            self.done = Some(ChaseOutcome::Exhausted);
            return;
        }
        if let ControlFlow::Break(o) = self.apply_td_triggers(triggers) {
            self.done = Some(o);
            return;
        }
        self.rounds += 1;
    }

    /// Applies egd merges until none is violated.
    ///
    /// Semi-naive: an egd whose delta is empty is already satisfied (its
    /// hypothesis embeddings into unchanged rows were verified when those
    /// rows were last dirty, and merges only repair violations on the rows
    /// they rewrite — which the rewrite stamps dirty again).
    fn egd_saturate(&mut self) -> ControlFlow<ChaseOutcome> {
        // Deltas cached per distinct frontier; a merge restarts the pass —
        // and resets the cache, keeping its allocation — via
        // `continue 'outer`.
        let mut deltas = FrontierDeltas::default();
        'outer: loop {
            deltas.reset();
            for (di, dep) in self.sigma.iter().enumerate() {
                let TdOrEgd::Egd(e) = dep else { continue };
                let scanned_at = self.inst.version();
                let mut stats = ScanStats::default();
                let violation = if self.cfg.semi_naive {
                    if scanned_at == self.seen[di] {
                        continue; // frontier current: skip the drain
                    }
                    let delta = deltas.fill(&self.inst, self.seen[di]);
                    if delta.is_empty() {
                        self.seen[di] = scanned_at;
                        continue;
                    }
                    let relation = self.inst.relation();
                    let emb = Embedder::new(relation);
                    if delta.len() * 2 >= relation.len() {
                        // Merge-heavy pass: most rows are dirty, so the
                        // pin-partitioned enumeration would revisit nearly
                        // every embedding once per pin. The plain full scan
                        // checks a superset of the touching embeddings —
                        // sound, and advancing the frontier afterwards
                        // stays correct for the same reason it does after
                        // a touching scan.
                        e.violation_planned(&emb, ScanScope::Full, &self.scan_plans[di], &mut stats)
                    } else {
                        let mut pins = self.touch_plans[di].iter().enumerate();
                        pins.find_map(|(pin, plan)| {
                            let scope = ScanScope::Pinned { delta, pin };
                            e.violation_planned(&emb, scope, plan, &mut stats)
                        })
                    }
                } else {
                    e.violation(self.inst.relation())
                };
                self.join_build_rows += stats.build_rows;
                self.join_probe_hits += stats.probe_hits;
                let Some(alpha) = violation else {
                    // Fully verified at this version; nothing before it can
                    // become violating without being stamped dirty.
                    self.seen[di] = scanned_at;
                    continue;
                };
                let a = alpha.get(e.left()).expect("left bound by hypothesis");
                let b = alpha.get(e.right()).expect("right bound by hypothesis");
                let matched = alpha.apply_rows(e.hypothesis());
                if let Some((kept, gone)) = self.inst.merge(a, b) {
                    self.trace.steps.push(ChaseStep {
                        dep: di,
                        matched,
                        kind: StepKind::Merge { kept, gone },
                    });
                    self.steps += 1;
                    self.merges += 1;
                    if self.steps >= self.cfg.max_steps {
                        return ControlFlow::Break(ChaseOutcome::Exhausted);
                    }
                }
                continue 'outer;
            }
            return ControlFlow::Continue(());
        }
    }

    /// Enumerates the *unsatisfied* td triggers of the current (immutable
    /// this round) instance.
    ///
    /// Semi-naive: each td only enumerates embeddings touching its delta,
    /// one pinned scan per hypothesis row; its `seen` frontier then
    /// advances to the scanned version. Triggers come out in td, pin, and
    /// delta order, so the applied trace is deterministic.
    fn collect_td_triggers(&mut self) -> Vec<(usize, Valuation)> {
        let scanned_at = self.inst.version();
        let mut deltas = FrontierDeltas::default();
        let emb = Embedder::new(self.inst.relation());
        let seed = Valuation::new();
        let mut stats = ScanStats::default();
        let mut triggers: Vec<(usize, Valuation)> = Vec::new();
        for (di, dep) in self.sigma.iter().enumerate() {
            let TdOrEgd::Td(td) = dep else { continue };
            let hyp = td.hypothesis();
            let key_buf = &mut self.key_buf;
            let mut visit = |alpha: &Valuation| {
                let is_trigger = if self.total_concl[di] {
                    // Total conclusion: satisfaction is literal membership
                    // of the (fully bound) conclusion row — one hash probe.
                    key_buf.clear();
                    key_buf.extend(
                        td.conclusion()
                            .val()
                            .map(|v| alpha.get(v).expect("total conclusion bound")),
                    );
                    !emb.target().contains_values(key_buf)
                } else {
                    !emb.embeds(std::slice::from_ref(td.conclusion()), alpha)
                };
                if is_trigger {
                    triggers.push((di, alpha.clone()));
                }
                ControlFlow::Continue(())
            };
            if self.cfg.semi_naive {
                let delta = deltas.fill(&self.inst, self.seen[di]);
                for (pin, plan) in self.touch_plans[di].iter().enumerate() {
                    let scope = ScanScope::Pinned { delta, pin };
                    emb.scan(hyp, &seed, scope, plan, &mut stats, &mut visit);
                }
                self.seen[di] = scanned_at;
            } else {
                let plan = &self.scan_plans[di];
                emb.scan(hyp, &seed, ScanScope::Full, plan, &mut stats, &mut visit);
            }
        }
        self.join_build_rows += stats.build_rows;
        self.join_probe_hits += stats.probe_hits;
        triggers
    }

    /// Fires the collected triggers (re-verifying each under the merges and
    /// additions that happened earlier in the round).
    fn apply_td_triggers(
        &mut self,
        triggers: Vec<(usize, Valuation)>,
    ) -> ControlFlow<ChaseOutcome> {
        // Trail buffer for the per-trigger satisfaction probes; lent to
        // `satisfies_row` so the hot loop allocates nothing per trigger.
        let mut scratch = Vec::new();
        for (di, alpha) in triggers {
            let TdOrEgd::Td(td) = &self.sigma[di] else {
                unreachable!("td trigger indexes a td")
            };
            // Resolve the trigger under any merges since collection. In
            // the current round shape no merge can land between the two,
            // so the common case is a cheap identity check that skips the
            // map rebuild entirely.
            let resolved = if alpha
                .iter()
                .any(|(_, img)| self.inst.resolve_readonly(img) != img)
            {
                Valuation::from_pairs(alpha.iter().map(|(v, img)| (v, self.inst.resolve(img))))
            } else {
                alpha
            };
            if self.total_concl[di] {
                self.key_buf.clear();
                self.key_buf.extend(
                    td.conclusion()
                        .val()
                        .map(|v| resolved.get(v).expect("total conclusion bound")),
                );
                if self.inst.relation().contains_values(&self.key_buf) {
                    continue; // satisfied meanwhile
                }
            } else if satisfies_row(self.inst.relation(), td.conclusion(), &resolved, &mut scratch)
            {
                continue; // satisfied meanwhile
            }
            // The trace wants the matched hypothesis rows under the
            // pre-extension valuation; computing it first lets `resolved`
            // move into the extension instead of being cloned.
            let matched = resolved.apply_rows(td.hypothesis());
            // Extend with fresh nulls on existential conclusion values.
            let mut ext = resolved;
            for a in self.universe.attrs() {
                let v = td.conclusion().get(a);
                if ext.get(v).is_none() {
                    let sort = Some(a).filter(|_| self.universe.is_typed());
                    ext.bind(v, self.pool.fresh(sort, "n"));
                }
            }
            let row = ext.apply_tuple(td.conclusion());
            if self.inst.insert(row.clone()) {
                self.trace.steps.push(ChaseStep {
                    dep: di,
                    matched,
                    kind: StepKind::AddRow { row },
                });
                self.steps += 1;
                // Budgets can only newly trip on an insert.
                if self.steps >= self.cfg.max_steps || self.inst.len() >= self.cfg.max_rows {
                    return ControlFlow::Break(ChaseOutcome::Exhausted);
                }
            }
        }
        ControlFlow::Continue(())
    }
}
