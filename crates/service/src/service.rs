//! The concurrent implication service v2: cheap-to-clone client handles
//! over shared sharded state, with a preemptible execution core.
//!
//! # Why a shared-state client
//!
//! The paper proves no total algorithm decides typed-td implication, so
//! the system's value at scale is serving *many* fuel-bounded queries
//! concurrently. The v1 `ImplicationService` fought that goal: `submit`
//! and `tick` took `&mut self`, so one exclusive owner serialized every
//! submission and every sweep, and finished jobs plus cached answers
//! accumulated forever. v2 separates the immutable specification of a
//! query ([`QuerySpec`]) from its evaluation, PDQ-style:
//!
//! * [`ImplicationClient`] is a cheap [`Clone`] handle (an `Arc` over the
//!   shared core); every method takes `&self`, so any number of threads
//!   submit and step concurrently;
//! * [`JobHandle`] owns one job's lifecycle — [`JobHandle::poll`],
//!   blocking [`JobHandle::wait`] (which *helps*: it steps the shard that
//!   owns its job, and **parks on the shard's condvar** instead of
//!   spinning when another thread holds the claim), a real
//!   [`JobHandle::cancel`] that stops the computation mid-slice, and
//!   retire-on-drop so polled outcomes stop leaking;
//! * internally, jobs hash by canonical query key onto N **shards**, each
//!   with its own run queue, job slab, coalescing map, and answer-cache
//!   slice behind its own lock — submission and stepping on different
//!   shards never contend, and a `wait` only pays for the divergent
//!   neighbours that share its shard, not the whole service.
//!
//! # Dovetailing as scheduling
//!
//! Within a shard the scheduler is a fair dovetailer: every runnable job
//! gets one fuel slice per sweep (priority orders the claim, FIFO breaks
//! ties), so a terminating query is answered after boundedly many sweeps
//! no matter how many divergent neighbours it has — starvation-freedom is
//! exactly the fairness clause of the classical dovetailing argument.
//! Per-job and global fuel budgets convert "never returns" into the
//! honest third answer `Unknown`; a `DecideMode::AdaptiveDovetail` decide
//! config additionally dovetails *within* each job, racing the chase
//! against the finite-model search so refutable-but-divergent queries
//! answer `No` without waiting out a chase that never terminates.
//!
//! # Cancellation
//!
//! [`JobHandle::cancel`] trips the job's `CancelToken` (shared with its
//! `DecideTask`, checked at round/attempt granularity), so an in-flight
//! job stops within one fuel slice instead of burning its remaining
//! budget, and resolves to the defined [`JobStatus::Cancelled`].
//! Coalesced waiters are woken with `Cancelled` too — unless they opted
//! into keeping the answer via [`JobHandle::detach`], in which case the
//! computation survives for them and only the canceller's view resolves
//! `Cancelled` (when the job next lands).
//!
//! # Work stealing
//!
//! [`ImplicationClient::run_to_completion`] with several workers pins
//! each worker to a stripe of home shards. An idle worker whose home
//! queues are empty **steals** the next claimable job from the deepest
//! foreign queue: the stolen job's slot, key, and waiters stay in its
//! home shard — only the slice's CPU work migrates — so `JobId`s and
//! coalescing are unaffected. Stealing is always on. Steal counts are
//! surfaced in [`ServiceStats::steals`]. Workers with nothing to do (and
//! waiters whose claim is held elsewhere) park on condvars instead of
//! yield-spinning; parks are counted in [`ServiceStats::parked`].
//!
//! # The bounded answer cache
//!
//! Jobs are keyed by the canonical form of `(Σ, σ)` ([`crate::canon`]);
//! finished answers are recorded under their key with service-wide
//! LRU/cost-aware eviction ([`crate::cache`]), identical in-flight queries
//! coalesce onto the running leader (coalesced entries are pinned, never
//! evicted), and a goal that is canonically an *element* of Σ is answered
//! `Yes` at submit time without scheduling at all. A fresh insert is never
//! its own eviction victim (the shard holding it evicts other entries
//! first), so tiny capacities — even `cache_capacity = 1` — still cache
//! the latest answer instead of thrashing. Every submission takes this
//! one canonical path. Hits, evictions, and the fast path are all
//! surfaced in [`ServiceStats`].

use crate::cache::{goal_hypothesis, CachedAnswer, Probe, ShardCache};
use crate::canon::{group_query, permute_relation, query_parts, GoalDecoder, GroupKey, QueryKey};
use crate::persist::{PersistConfig, PersistLog, ReplayedRecord};
use crate::instruments::{Counters, Hist, ServiceStats, Surface, GAUGE, GAUGES};
use crate::telemetry::{Exposition, Telemetry, TelemetrySnapshot};
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};
use typedtd_chase::{
    classify, routed_decide_config, Answer, CancelToken, ChaseOutcome, ChaseRun, ChaseTask,
    ChaseTrace, DecideConfig, DecideStatus, DecideTask, Decision, ProgressSnapshot, StepStatus,
    TaskPhase,
};
use typedtd_dependencies::{DependencyClass, TdOrEgd};
use typedtd_relational::{isomorphic, FxHashMap, FxHashSet, Relation, ValuePool};

/// How long a parked waiter or idle worker sleeps before re-checking.
/// Wakeups are condvar-driven (completions and queue transitions notify);
/// the timeout only bounds the stall when a notify races a park.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Service-wide knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Default per-query decision budgets (chase + search) and
    /// [`typedtd_chase::DecideMode`]; a [`QuerySpec::decide_config`]
    /// override takes precedence per job.
    pub decide: DecideConfig,
    /// Fuel units (chase rounds / search attempts) granted to a job per
    /// shard sweep. Smaller slices preempt faster; larger slices amortize
    /// bookkeeping.
    pub slice_fuel: usize,
    /// Global fuel budget across all jobs; once spent, stepping reports
    /// fuel exhaustion and pending jobs are answered `Unknown` by
    /// [`ImplicationClient::run_to_completion`] / [`JobHandle::wait`].
    pub global_fuel: Option<u64>,
    /// Scheduler shards. Jobs hash by canonical key onto a shard;
    /// different shards submit and step without contending.
    pub shards: usize,
    /// Worker threads [`ImplicationClient::run_to_completion`] drives the
    /// shards with. `1` = the calling thread only. With more, each worker
    /// is pinned to a stripe of home shards; an idle worker with empty
    /// home queues claims one slice of the next job from the deepest
    /// foreign queue, so a skewed shard assignment does not degrade to
    /// single-worker throughput on the hot shard. (Any number of
    /// *external* threads may also step concurrently through clones of
    /// the client.)
    pub workers: usize,
    /// Upper bound on cached answers across all shards; beyond it the
    /// least-recently-used cold entry is evicted (in-flight coalesced
    /// entries are pinned and never evicted). A fresh insert is never its
    /// own eviction victim, so when `cache_capacity < shards` the cache
    /// may transiently hold up to one entry per shard.
    pub cache_capacity: usize,
    /// Re-verify every cache hit through the isomorphism machinery.
    pub verify_cache_hits: bool,
    /// Persist definite answers to an append-only log and replay them on
    /// startup (see [`crate::persist`]). `None` keeps the cache purely
    /// in-memory. Replayed entries count toward
    /// [`ServiceStats::warm_hits`] when hit; persistent write failure
    /// degrades the log to read-only in-memory mode (counted in
    /// [`ServiceStats::persist_errors`]) without affecting served
    /// traffic.
    pub persist: Option<PersistConfig>,
    /// Record latency/queue-wait/run-time/fuel histograms (see
    /// [`crate::telemetry`]). On by default — the record path is a few
    /// relaxed atomic adds plus two `Instant` reads per job landing —
    /// but switchable off for an exact zero-overhead baseline (the
    /// `telemetry_overhead` bench scenario measures the difference).
    pub metrics: bool,
    /// Route each scheduled query through the Σ fragment classifier
    /// ([`typedtd_chase::classify()`]): a weakly acyclic Σ has a
    /// *terminating* chase, so the job runs sequentially with unbounded
    /// chase budgets and skips the finite-model search entirely — the
    /// chase alone decides both implication problems. Linear/guarded
    /// detections are surfaced in [`ServiceStats::class_routed`] without
    /// changing execution. A per-query [`QuerySpec::decide_config`]
    /// override disables routing for that job (the submitter's explicit
    /// config wins).
    pub classify: bool,
    /// Share one saturation chase across every in-flight query with the
    /// same canonical Σ *and* the same canonical goal hypothesis (see
    /// [`crate::canon::group_query`]): the group's tableau is chased
    /// once, and each member's goal is checked against the shared pool —
    /// N chases become 1 for the batch shape where many goals interrogate
    /// one Σ. A member whose group budget expires falls back to its own
    /// individual chase, so grouping never manufactures a definite
    /// answer. Off by default (grouping bypasses the per-job dovetail
    /// against finite-model search, so `No` answers for *divergent*
    /// queries may degrade to fallback work).
    pub group: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            decide: DecideConfig::default(),
            slice_fuel: 8,
            global_fuel: None,
            shards: 8,
            workers: 1,
            cache_capacity: 4096,
            verify_cache_hits: false,
            persist: None,
            metrics: true,
            classify: true,
            group: false,
        }
    }
}

/// Identity of a submitted job: shard, slot, and an ABA-guarding
/// generation. Retiring a job frees its slot for reuse; a stale id then
/// reports [`JobStatus::Retired`] instead of another job's answer.
///
/// A `JobId` is only meaningful against the service that issued it:
/// distinct services allocate slots and generations independently, so an
/// id carried across services can collide with an unrelated job there
/// (an out-of-range shard or slot still answers `Retired`, never a
/// panic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JobId {
    shard: u32,
    slot: u32,
    generation: u32,
}

impl JobId {
    /// The shard the job lives on (an argument for
    /// [`ImplicationClient::step_shard`]).
    pub(crate) fn shard(self) -> usize {
        self.shard as usize
    }
}

/// A finished job's result.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Answer for unrestricted implication `Σ ⊨ σ`.
    pub implication: Answer,
    /// Answer for finite implication `Σ ⊨_f σ`.
    pub finite_implication: Answer,
    /// A finite counterexample when either answer is `No` and this job did
    /// the work itself (cache/coalesced answers carry no certificate: the
    /// certificate's values live in the original submitter's pool).
    pub counterexample: Option<Relation>,
    /// `true` if the answers came without fresh fuel: a cache hit, a
    /// coalesced leader's result, or the goal-in-Σ fast path.
    pub from_cache: bool,
    /// Fuel this job consumed (0 for cache hits).
    pub fuel_spent: u64,
    /// `true` if the job was cancelled before it produced an answer (the
    /// answers are then `Unknown`). [`JobHandle::wait`] returns such an
    /// outcome for a cancelled job; `poll` reports it as
    /// [`JobStatus::Cancelled`].
    pub cancelled: bool,
}

/// Poll result for a job.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Still in flight; keep stepping the service.
    Pending,
    /// Finished.
    Done(JobOutcome),
    /// The job was cancelled ([`JobHandle::cancel`], or its coalescing
    /// leader was cancelled while this job had not
    /// [`JobHandle::detach`]ed): no answer was produced. A defined,
    /// stable status — never a panic, never another job's result.
    Cancelled,
    /// The job was retired (its [`JobHandle`] dropped or
    /// [`JobHandle::retire`]d): its storage is freed and its outcome is
    /// gone. Polling a retired id is a defined, stable answer — never a
    /// panic, never another job's result.
    Retired,
}

/// One query, fully specified: the immutable `(Σ, σ)` instance plus its
/// pool and per-query evaluation overrides. Build with [`QuerySpec::new`]
/// and the chained setters, then hand to [`ImplicationClient::submit`].
#[derive(Clone, Debug)]
pub struct QuerySpec {
    sigma: Vec<TdOrEgd>,
    goal: TdOrEgd,
    pool: ValuePool,
    priority: i32,
    fuel_cap: Option<u64>,
    decide: Option<DecideConfig>,
    pin: Option<usize>,
    class: Option<DependencyClass>,
    waker: Option<Thread>,
}

impl QuerySpec {
    /// A query `Σ ⊨(f) σ`. `pool` must be (a snapshot of) the pool the
    /// dependencies' values were interned in; each job owns its pool, so
    /// many jobs over unrelated pools can be in flight at once.
    pub fn new(sigma: Vec<TdOrEgd>, goal: TdOrEgd, pool: ValuePool) -> Self {
        Self {
            sigma,
            goal,
            pool,
            priority: 0,
            fuel_cap: None,
            decide: None,
            pin: None,
            class: None,
            waker: None,
        }
    }

    /// Scheduling priority (default 0; higher is claimed earlier within a
    /// sweep; FIFO among equals — fairness still guarantees every job one
    /// slice per sweep).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Per-job fuel cap: once this job has spent `cap` fuel units it is
    /// answered `Unknown` (counted in [`ServiceStats::expired`]),
    /// regardless of the global budget.
    pub fn fuel_cap(mut self, cap: u64) -> Self {
        self.fuel_cap = Some(cap);
        self
    }

    /// Per-job decision budgets (and mode), overriding
    /// [`ServiceConfig::decide`].
    pub fn decide_config(mut self, cfg: DecideConfig) -> Self {
        self.decide = Some(cfg);
        self
    }

    /// Pins this job to a specific shard (wrapped modulo the shard
    /// count), overriding hash routing. A scheduling knob for tests and
    /// benchmarks — e.g. to construct deliberately skewed assignments
    /// when measuring work stealing. Cache entries follow the pinned
    /// shard, so pinning identical queries to different shards forfeits
    /// sharing between them (each shard's cache stays locally
    /// consistent).
    pub fn pin_shard(mut self, shard: usize) -> Self {
        self.pin = Some(shard);
        self
    }

    /// Tags the goal's surface dependency class for the per-class
    /// counters in [`ServiceStats`]. Purely observational — scheduling,
    /// canonicalization, and caching ignore the tag (two syntaxes
    /// normalizing to the same td still share one cache entry). Untagged
    /// queries are counted under the goal's normal-form shape
    /// ([`DependencyClass::Td`] or [`DependencyClass::Egd`]).
    pub fn goal_class(mut self, class: DependencyClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Unparks `thread` when this job resolves: completion, expiry,
    /// cancellation, or (for a coalesced job) its leader's landing. A
    /// thread that polls its jobs can then park between polls instead
    /// of spinning. Answers known at submit time (cache hits, the
    /// goal-in-Σ fast path) wake nobody: the handle is already `Done`.
    pub(crate) fn waker(mut self, thread: Thread) -> Self {
        self.waker = Some(thread);
        self
    }
}

/// What one shard-stepping call accomplished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardStep {
    /// At least one job was stepped or completed.
    Progressed,
    /// Nothing claimable right now, but another thread holds claimed jobs
    /// from this shard — work is still in flight; park or retry.
    Idle,
    /// The shard has no runnable or in-flight-stepping jobs.
    Empty,
    /// Runnable jobs exist but the global fuel budget is spent.
    FuelExhausted,
}

enum JobState {
    /// Free slot (on the shard's free list).
    Vacant,
    /// In flight, queued for its next slice.
    Running(ServiceTask),
    /// Transiently claimed by a stepping thread.
    Stepping,
    /// Coalesced: waiting for the identical in-flight leader to finish.
    Waiting { leader: u32 },
    /// Finished; outcome retained until the handle retires it. A
    /// cancelled job stores an outcome with `cancelled = true` and polls
    /// as [`JobStatus::Cancelled`].
    Finished(JobOutcome),
}

struct JobSlot {
    generation: u32,
    state: JobState,
    /// Canonical key (when caching): where this job's answers get
    /// recorded, and whose in-flight marker it holds while running.
    key: Option<QueryKey>,
    /// Goal-hypothesis snapshot for cache insertion, columns already in
    /// the query's canonical order (keyed leaders only).
    goal_hyp: Option<Relation>,
    fuel_spent: u64,
    fuel_cap: Option<u64>,
    priority: i32,
    /// The running task's cancellation token (leaders only).
    cancel: Option<CancelToken>,
    /// The owner called [`JobHandle::cancel`] while the job was in
    /// flight. If the token is also tripped the job dies at its next
    /// landing; if not (detached waiters keep it alive), the computation
    /// continues and only the owner's view resolves `Cancelled`.
    cancel_requested: bool,
    /// This job (as a coalesced waiter) wants the leader's answer even if
    /// the leader's owner cancels. Set via [`JobHandle::detach`] before
    /// the cancel.
    detached: bool,
    /// Handle dropped while the job was still in flight: on completion,
    /// feed cache and waiters but free the slot instead of storing the
    /// outcome.
    retired: bool,
    /// Submit time, for the latency histograms. `None` when metrics are
    /// off (or for fast-path slots allocated already Finished, which
    /// record their latency at submit instead).
    started: Option<Instant>,
    /// Wall-clock nanoseconds this job has actually been stepped
    /// (metrics on; leaders only). Queue wait = total latency − this.
    run_nanos: u64,
    /// Last per-slice [`ProgressSnapshot`] of the job's task (leaders
    /// only; sampled after every step, kept after landing).
    progress: ProgressSnapshot,
    /// Unparked when the job resolves ([`QuerySpec::waker`]).
    waker: Option<Thread>,
}

impl JobSlot {
    /// Stores the job's outcome and wakes its [`QuerySpec::waker`].
    fn finish(&mut self, outcome: JobOutcome) {
        self.state = JobState::Finished(outcome);
        if let Some(t) = self.waker.take() {
            t.unpark();
        }
    }

    /// The job's owner cancelled it *and* the token is tripped (no
    /// detached waiters kept it alive): the job must die at its next
    /// touch instead of being granted fuel or coalesced onto.
    fn dying(&self) -> bool {
        self.cancel_requested && self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }
}

/// The schedulable unit behind a `Running` slot: either a private
/// [`DecideTask`] (the default) or membership in a shared Σ-group
/// saturation ([`ServiceConfig::group`]). Both expose the same
/// step/fuel/progress/cancel surface, so the shard scheduler treats them
/// identically.
enum ServiceTask {
    /// A private decide computation (chase + optional search dovetail).
    Decide(Box<DecideTask>),
    /// One member of a shared Σ-group saturation.
    Group(Box<GroupMember>),
}

impl ServiceTask {
    fn step(&mut self, fuel: usize) -> DecideStatus {
        match self {
            ServiceTask::Decide(t) => t.step(fuel),
            ServiceTask::Group(m) => m.step(fuel),
        }
    }

    fn fuel_spent(&self) -> u64 {
        match self {
            ServiceTask::Decide(t) => t.fuel_spent(),
            ServiceTask::Group(m) => m.fuel_spent(),
        }
    }

    fn progress_snapshot(&self) -> ProgressSnapshot {
        match self {
            ServiceTask::Decide(t) => t.progress_snapshot(),
            ServiceTask::Group(m) => m.progress_snapshot(),
        }
    }

    fn cancel_token(&self) -> CancelToken {
        match self {
            ServiceTask::Decide(t) => t.cancel_token(),
            ServiceTask::Group(m) => m.cancel.clone(),
        }
    }

    fn finish(self) -> Decision {
        match self {
            ServiceTask::Decide(t) => t.finish().0,
            ServiceTask::Group(m) => m.finish(),
        }
    }
}

/// Registry of shared Σ-group saturations, keyed by canonical
/// [`GroupKey`]. Entries persist after their members land (a saturated
/// group answers later same-group submissions from the warm pool) up to
/// a capacity bound; entries with in-flight members are pinned and never
/// evicted — mirroring the answer cache's in-flight pinning.
struct GroupRegistry {
    groups: FxHashMap<GroupKey, Arc<GroupEntry>>,
    /// Monotone use-clock for LRU eviction.
    tick: u64,
    capacity: usize,
}

/// One Σ-group: the shared chase behind a mutex, plus the pin count and
/// LRU stamp read by the registry without the state lock.
struct GroupEntry {
    state: Mutex<GroupState>,
    /// In-flight members. Nonzero pins the entry against eviction; the
    /// member's `Drop` decrements, so every landing path (answer,
    /// cancel, expiry, fallback completion) unpins exactly once.
    members: AtomicUsize,
    last_used: AtomicU64,
}

struct GroupState {
    /// The shared saturation chase. Kept after it finishes: terminal
    /// pools answer later members' goal checks without re-chasing.
    chase: ChaseTask,
    /// The chase's terminal outcome, once it has one.
    outcome: Option<ChaseOutcome>,
    /// Decodes member goal encodings into the shared value space.
    decoder: GoalDecoder,
}

/// One query's participation in a shared Σ-group saturation.
///
/// Soundness: every member of a group shares the *identical* canonical
/// seed tableau (the group key includes the canonical goal hypothesis),
/// so the shared chase **is** each member's own implication chase. A
/// derivable goal at any point means `Yes`/`Yes`; a terminal
/// (`NotImplied`) instance where the goal fails is a finite universal
/// model, hence `No`/`No` with the instance as certificate. A budget
/// (`Exhausted`) or cancelled shared chase proves nothing — the member
/// falls back to a private [`DecideTask`] rather than ever manufacturing
/// a definite answer.
struct GroupMember {
    entry: Arc<GroupEntry>,
    /// The member's goal, decoded into the group's shared value space.
    goal: TdOrEgd,
    /// The original query, held for the fallback path (taken at most
    /// once).
    spec: Option<(Vec<TdOrEgd>, TdOrEgd, ValuePool, DecideConfig)>,
    /// The private fallback computation, installed when the shared chase
    /// dies without settling this member's goal.
    fallback: Option<Box<DecideTask>>,
    /// This member's own cancellation token. Deliberately *not* wired
    /// into the shared chase: cancelling one member must not kill its
    /// group-mates' computation.
    cancel: CancelToken,
    /// Fuel attributed to this member (shared rounds it drove, plus any
    /// fallback fuel).
    fuel: u64,
    /// The settled decision, once reached via the shared chase.
    done: Option<Decision>,
    /// The service's counters: `group_fallbacks` is counted at the
    /// moment the fallback is installed, whatever the member's later
    /// fate.
    counters: Arc<Counters>,
}

impl Drop for GroupMember {
    fn drop(&mut self) {
        self.entry.members.fetch_sub(1, Ordering::Relaxed);
    }
}

impl GroupMember {
    fn step(&mut self, fuel: usize) -> DecideStatus {
        if let Some(d) = &self.done {
            return DecideStatus::Done(d.implication);
        }
        if self.cancel.is_cancelled() {
            // The scheduler resolves a dying slot without finishing the
            // task, but answer honestly if finish() is reached anyway.
            self.done = Some(self.undecided(ChaseOutcome::Cancelled, true));
            return DecideStatus::Done(Answer::Unknown);
        }
        if let Some(fb) = &mut self.fallback {
            let before = fb.fuel_spent();
            let status = fb.step(fuel);
            self.fuel += fb.fuel_spent() - before;
            return status;
        }
        // Contended state lock: another member is driving the shared
        // chase this instant — report Pending without blocking the whole
        // shard sweep behind the group mutex.
        let Ok(mut guard) = self.entry.state.try_lock() else {
            return DecideStatus::Pending;
        };
        let state = &mut *guard;
        if state.outcome.is_none() {
            let before = state.chase.rounds();
            if let StepStatus::Done(o) = state.chase.step(fuel) {
                state.outcome = Some(o);
            }
            self.fuel += (state.chase.rounds() - before) as u64;
        }
        // A derivable goal is a Yes certificate at *any* point of the
        // shared run — the chase only ever adds consequences of the
        // member's own hypothesis.
        if state.chase.goal_derivable(&self.goal) {
            let rounds = state.chase.rounds();
            self.done = Some(Decision {
                implication: Answer::Yes,
                finite_implication: Answer::Yes,
                chase: ChaseRun {
                    outcome: ChaseOutcome::Implied,
                    trace: ChaseTrace::default(),
                    final_relation: Relation::new(self.goal_universe()),
                    rounds,
                },
                counterexample: None,
                cancelled: false,
            });
            return DecideStatus::Done(Answer::Yes);
        }
        match state.outcome {
            None => DecideStatus::Pending,
            Some(ChaseOutcome::NotImplied) => {
                // Terminal instance, goal fails in it: a finite
                // counterexample for this member (the group seed is the
                // member's own hypothesis).
                let model = state.chase.current_relation().clone();
                let rounds = state.chase.rounds();
                self.done = Some(Decision {
                    implication: Answer::No,
                    finite_implication: Answer::No,
                    chase: ChaseRun {
                        outcome: ChaseOutcome::NotImplied,
                        trace: ChaseTrace::default(),
                        final_relation: model.clone(),
                        rounds,
                    },
                    counterexample: Some(model),
                    cancelled: false,
                });
                DecideStatus::Done(Answer::No)
            }
            Some(_) => {
                // Exhausted (group budget spent) or a stray terminal we
                // cannot certify from: fall back to a private chase.
                // Never a definite answer from a dead shared run.
                drop(guard);
                let (sigma, goal, pool, dcfg) =
                    self.spec.take().expect("fallback installed at most once");
                self.counters.group_fallbacks.fetch_add(1, Ordering::Relaxed);
                self.fallback = Some(Box::new(DecideTask::new(sigma, goal, pool, dcfg)));
                DecideStatus::Pending
            }
        }
    }

    fn fuel_spent(&self) -> u64 {
        self.fuel
    }

    fn progress_snapshot(&self) -> ProgressSnapshot {
        if let Some(fb) = &self.fallback {
            return fb.progress_snapshot();
        }
        let mut snap = ProgressSnapshot {
            phase: TaskPhase::Chase,
            fuel_spent: self.fuel,
            ..ProgressSnapshot::default()
        };
        // Shared-chase counters when the state lock is free; a contended
        // snapshot just reports the member-local view.
        if let Ok(state) = self.entry.state.try_lock() {
            snap.chase_rounds = state.chase.rounds() as u64;
            snap.chase_steps = state.chase.steps_applied() as u64;
            snap.chase_merges = state.chase.merges() as u64;
            snap.instance_rows = state.chase.instance_rows() as u64;
            snap.join_build_rows = state.chase.join_build_rows();
            snap.join_probe_hits = state.chase.join_probe_hits();
        }
        snap
    }

    fn finish(mut self) -> Decision {
        if let Some(d) = self.done.take() {
            return d;
        }
        if let Some(fb) = self.fallback.take() {
            return fb.finish().0;
        }
        // Finished without ever being stepped to Done (cancel/expiry
        // paths drop the task instead, but stay defensive).
        self.undecided(ChaseOutcome::Exhausted, false)
    }

    fn goal_universe(&self) -> std::sync::Arc<typedtd_relational::Universe> {
        match &self.goal {
            TdOrEgd::Td(t) => t.universe().clone(),
            TdOrEgd::Egd(e) => e.universe().clone(),
        }
    }

    /// An honest non-answer (`Unknown`/`Unknown`) for a member whose
    /// computation stopped without a certificate.
    fn undecided(&self, outcome: ChaseOutcome, cancelled: bool) -> Decision {
        Decision {
            implication: Answer::Unknown,
            finite_implication: Answer::Unknown,
            chase: ChaseRun {
                outcome,
                trace: ChaseTrace::default(),
                final_relation: Relation::new(self.goal_universe()),
                rounds: 0,
            },
            counterexample: None,
            cancelled,
        }
    }
}

/// Run-queue entry; max-heap order = higher priority first, then FIFO by
/// submission sequence. Stale entries (slot reused or no longer Running)
/// are skipped at claim time, which lets retire/expire/cancel leave them
/// behind.
#[derive(PartialEq, Eq)]
struct RunEntry {
    priority: i32,
    seq: std::cmp::Reverse<u64>,
    slot: u32,
    generation: u32,
}

impl Ord for RunEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

impl PartialOrd for RunEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Shard {
    slots: Vec<JobSlot>,
    free: Vec<u32>,
    queue: BinaryHeap<RunEntry>,
    /// Jobs currently claimed by stepping threads.
    stepping: usize,
    cache: ShardCache,
    /// Leader slot → coalesced waiter slots, resolved at completion.
    waiters: FxHashMap<u32, Vec<u32>>,
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            queue: BinaryHeap::new(),
            stepping: 0,
            cache: ShardCache::default(),
            waiters: FxHashMap::default(),
        }
    }

    fn alloc(&mut self, state: JobState) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize].state = state;
            i
        } else {
            self.slots.push(JobSlot {
                generation: 0,
                state,
                key: None,
                goal_hyp: None,
                fuel_spent: 0,
                fuel_cap: None,
                priority: 0,
                cancel: None,
                cancel_requested: false,
                detached: false,
                retired: false,
                started: None,
                run_nanos: 0,
                progress: ProgressSnapshot::default(),
                waker: None,
            });
            (self.slots.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.state = JobState::Vacant;
        s.generation = s.generation.wrapping_add(1);
        s.key = None;
        s.goal_hyp = None;
        s.fuel_spent = 0;
        s.fuel_cap = None;
        s.priority = 0;
        s.cancel = None;
        s.cancel_requested = false;
        s.detached = false;
        s.retired = false;
        s.started = None;
        s.run_nanos = 0;
        s.progress = ProgressSnapshot::default();
        s.waker = None;
        self.free.push(idx);
    }
}

/// One shard's state plus the condvar parked waiters sleep on. The
/// condvar pairs with the shard mutex: sweepers notify it on any job
/// completion or queue transition.
struct ShardCell {
    shard: Mutex<Shard>,
    cv: Condvar,
}

struct Core {
    cfg: ServiceConfig,
    shards: Vec<ShardCell>,
    /// Per-shard mirror of `queue.len()`, maintained under the shard
    /// lock at every push/pop, so the steal victim scan reads depths
    /// without touching the hot shard's mutex.
    queue_depth: Vec<AtomicUsize>,
    /// Remaining global fuel; `u64::MAX` means unmetered.
    fuel: AtomicU64,
    metered: bool,
    /// FIFO tiebreak for the priority queues.
    seq: AtomicU64,
    /// Finished cache entries across all shards (enforces the bound).
    cached_total: AtomicUsize,
    /// Unresolved scheduled jobs (Running / Stepping / Waiting) across
    /// all shards — the idle workers' termination condition.
    inflight: AtomicUsize,
    /// Parking spot for idle `run_to_completion` workers (no specific
    /// shard to wait on); completions anywhere notify it.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// The work epoch threads in [`ImplicationClient::park_for_work`]
    /// wait on (the socket front end's drivers), with its condvar.
    work: Mutex<WorkEpoch>,
    work_cv: Condvar,
    /// Shared Σ-group saturations ([`ServiceConfig::group`]). Lock order:
    /// registry before any entry's state; members stepping a group take
    /// only the state lock, never the registry's.
    groups: Mutex<GroupRegistry>,
    /// The counter table's atomics, shared with every [`GroupMember`].
    stats: Arc<Counters>,
    /// The open answer log (when [`ServiceConfig::persist`] is set and
    /// the file opened); fresh definite answers append through it.
    persist: Option<PersistLog>,
    /// Histogram families (latency by outcome, queue wait, run time,
    /// fuel per job); recording is a no-op when
    /// [`ServiceConfig::metrics`] is off.
    telemetry: Telemetry,
}

/// Counts the times new work became claimable for threads parked in
/// [`ImplicationClient::park_for_work`], and how many are parked, so a
/// bump with nobody parked skips the notify.
#[derive(Default)]
struct WorkEpoch {
    epoch: u64,
    parked: usize,
}

/// A cheap-to-clone handle onto the shared implication service. All
/// methods take `&self`; clones share every shard, the cache, and the
/// stats. See the module docs for the design.
#[derive(Clone)]
pub struct ImplicationClient {
    core: Arc<Core>,
}

impl ImplicationClient {
    /// A fresh service with `cfg` knobs; the returned client is the first
    /// of any number of clones.
    pub fn new(cfg: ServiceConfig) -> Self {
        let nshards = cfg.shards.max(1);
        let fuel = cfg.global_fuel.unwrap_or(u64::MAX);
        let metered = cfg.global_fuel.is_some();
        // Open the answer log (and recover its valid prefix) before the
        // shards exist; an unopenable log counts one persist error and
        // the service runs purely in-memory — startup never fails on a
        // bad disk.
        let (persist, replayed, open_failed) = match cfg.persist.as_ref() {
            None => (None, Vec::new(), false),
            Some(pc) => match PersistLog::open(pc) {
                Ok((log, records)) => (Some(log), records, false),
                Err(_) => (None, Vec::new(), true),
            },
        };
        let client = Self {
            core: Arc::new(Core {
                shards: (0..nshards)
                    .map(|_| ShardCell {
                        shard: Mutex::new(Shard::new()),
                        cv: Condvar::new(),
                    })
                    .collect(),
                queue_depth: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
                fuel: AtomicU64::new(fuel),
                metered,
                seq: AtomicU64::new(0),
                cached_total: AtomicUsize::new(0),
                inflight: AtomicUsize::new(0),
                idle: Mutex::new(()),
                idle_cv: Condvar::new(),
                work: Mutex::default(),
                work_cv: Condvar::new(),
                groups: Mutex::new(GroupRegistry {
                    groups: FxHashMap::default(),
                    tick: 0,
                    capacity: cfg.cache_capacity.max(1),
                }),
                stats: Arc::default(),
                persist,
                telemetry: Telemetry::new(cfg.metrics),
                cfg,
            }),
        };
        if open_failed {
            client.core.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
        client.replay_records(replayed);
        client
    }

    /// Seeds the shard caches with records recovered from the answer log,
    /// marking each entry warm. Records route through the same
    /// key-hash-to-shard function live submissions use, so a later probe
    /// finds them where it looks; the witness relation is rebuilt from
    /// the canonical encoding (see [`QueryKey::witness_relation`]) so
    /// replayed entries pass verified-hit checks. A record whose witness
    /// can't be rebuilt is dropped (a checksum collision, in practice
    /// unreachable); duplicates (the log is append-only across runs)
    /// insert once. The cache bound is enforced as replay goes, exactly
    /// like live inserts.
    fn replay_records(&self, records: Vec<ReplayedRecord>) {
        let nshards = self.core.shards.len();
        for rec in records {
            let Some(witness) = rec.key.witness_relation() else {
                continue;
            };
            let idx = shard_of(&rec.key, nshards);
            let mut shard = self.lock_shard(idx);
            if let Some(interned) = shard
                .cache
                .insert_warm(rec.key, rec.answer, witness, rec.cost)
            {
                self.core.cached_total.fetch_add(1, Ordering::Relaxed);
                self.core.enforce_cache_bound(&mut shard, Some(&interned));
            }
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.core.cfg
    }

    /// Number of scheduler shards (valid arguments to
    /// [`ImplicationClient::step_shard`]).
    pub fn num_shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Aggregate counters (a consistent-enough snapshot: each counter is
    /// individually exact, cross-counter invariants may lag under
    /// concurrent stepping).
    pub fn stats(&self) -> ServiceStats {
        self.core.stats.snapshot()
    }

    /// Counts one submission a front end bounced at its overload bound
    /// (e.g. `typedtd-sockd --max-inflight`) instead of scheduling; the
    /// query never entered the service, so nothing else is touched.
    pub fn note_shed(&self) {
        self.core.stats.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the histogram families (latency by outcome,
    /// queue-wait/run-time split, fuel per job). Empty when
    /// [`ServiceConfig::metrics`] is off.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.core.telemetry.snapshot()
    }

    /// Renders every instrument onto `s`: the counters, the gauges, then
    /// the histogram families (see [`crate::instruments`]).
    pub fn render(&self, s: &mut impl Surface) {
        self.stats().render(s);
        let [inflight, cached, depth] = &GAUGES;
        s.sample(inflight, GAUGE, None, self.pending_jobs() as u64);
        s.sample(cached, GAUGE, None, self.cache_len() as u64);
        for (i, d) in self.core.queue_depth.iter().enumerate() {
            let depth_i = d.load(Ordering::Relaxed) as u64;
            s.sample(depth, GAUGE, Some(("shard", &i.to_string())), depth_i);
        }
        self.telemetry_snapshot().render(s);
    }

    /// The Prometheus text exposition. Durations are nanoseconds;
    /// histogram buckets are powers of two. `typedtd-sockd --metrics
    /// PATH` rewrites this atomically as the service runs.
    pub fn metrics_text(&self) -> String {
        let mut x = Exposition::new();
        self.render(&mut x);
        x.finish()
    }

    /// The current [`ProgressSnapshot`] of an in-flight job: its task's
    /// phase and cumulative counters as of the job's last fuel slice
    /// (all zeros before the first). `None` once the job has never been
    /// scheduled under this id (retired/stale ids). Finished jobs keep
    /// reporting their final snapshot until retired; coalesced waiters
    /// report their own (zero-fuel) snapshot, not their leader's.
    pub fn job_progress(&self, id: JobId) -> Option<ProgressSnapshot> {
        let cell = self.core.shards.get(id.shard as usize)?;
        let shard = cell.shard.lock().expect("shard lock");
        let slot = shard.slots.get(id.slot as usize)?;
        if slot.generation != id.generation || matches!(slot.state, JobState::Vacant) {
            return None;
        }
        Some(slot.progress)
    }

    /// Distinct canonical queries currently cached (always ≤
    /// [`ServiceConfig::cache_capacity`] once an insert's eviction pass
    /// has run, up to the per-shard fresh-insert reserve documented on
    /// `cache_capacity`).
    pub fn cache_len(&self) -> usize {
        self.core.cached_total.load(Ordering::Relaxed)
    }

    /// Jobs still in flight (running, claimed, or coalesced-waiting).
    pub fn pending_jobs(&self) -> usize {
        self.core.inflight.load(Ordering::Relaxed)
    }

    /// The current work epoch. Read it *before* looking for work, and
    /// hand it to [`ImplicationClient::park_for_work`] when none was
    /// found, so work that appears in between is never slept through.
    pub(crate) fn work_epoch(&self) -> u64 {
        self.core.work.lock().expect("work lock").epoch
    }

    /// Blocks until the work epoch moves past `seen` or `stop` reads
    /// true. The epoch moves when a sweep requeues a job for its next
    /// slice and on [`ImplicationClient::bump_work`]; each move wakes one
    /// parked thread. Resolutions and fresh submissions do not move it: a
    /// thread that submits a job steps its shard itself. Whoever makes
    /// `stop` true must call [`ImplicationClient::wake_all_for_work`].
    pub(crate) fn park_for_work(&self, seen: u64, stop: impl Fn() -> bool) {
        let core = &*self.core;
        let mut w = core.work.lock().expect("work lock");
        w.parked += 1;
        while w.epoch == seen && !stop() {
            w = core.work_cv.wait(w).expect("work lock");
        }
        w.parked -= 1;
    }

    /// Moves the work epoch for work that arrived outside the scheduler
    /// (a query waiting to be prepared), waking one parked thread.
    pub(crate) fn bump_work(&self) {
        self.core.bump_work();
    }

    /// Wakes every thread in [`ImplicationClient::park_for_work`] to
    /// re-check its stop condition.
    pub(crate) fn wake_all_for_work(&self) {
        let _w = self.core.work.lock().expect("work lock");
        self.core.work_cv.notify_all();
    }

    /// Job slots currently allocated (pending or finished-but-unretired).
    /// Retiring handles drives this back to 0 — the leak the v1 service
    /// could never recover.
    pub fn live_jobs(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|cell| {
                let shard = cell.shard.lock().expect("shard lock");
                shard
                    .slots
                    .iter()
                    .filter(|s| !matches!(s.state, JobState::Vacant))
                    .count()
            })
            .sum()
    }

    /// Submits one query. Returns immediately: the goal-in-Σ fast path
    /// and cache hits are `Done` on the first poll, an identical in-flight
    /// query coalesces, anything else enters its shard's run queue.
    pub fn submit(&self, spec: QuerySpec) -> JobHandle {
        let core = &*self.core;
        core.stats.submitted.fetch_add(1, Ordering::Relaxed);
        // One clock read per submission when metrics are on; `None`
        // keeps the whole latency machinery off the hot path otherwise.
        let t0 = core.telemetry.enabled().then(Instant::now);
        let QuerySpec {
            mut sigma,
            goal,
            pool,
            priority,
            fuel_cap,
            decide,
            pin,
            class,
            waker,
        } = spec;
        let class = class.unwrap_or(match &goal {
            TdOrEgd::Td(_) => DependencyClass::Td,
            TdOrEgd::Egd(_) => DependencyClass::Egd,
        });
        core.stats.class_submitted[class.index()].fetch_add(1, Ordering::Relaxed);
        let nshards = core.shards.len();
        let pin = pin.map(|p| p % nshards);
        let parts = query_parts(&sigma, &goal);
        let shard_idx = pin.unwrap_or_else(|| shard_of(&parts.key, nshards));
        let mut key = Some(parts.key);
        // Goal-in-Σ fast path: σ ∈ Σ up to isomorphism means Σ ⊨ σ and
        // Σ ⊨_f σ by reflexivity — answer before scheduling anything.
        // Under `verify_cache_hits` the key match is cross-checked
        // through the isomorphism machinery exactly like a cache hit
        // would be — a collision quarantines the key and runs the job
        // in isolation instead of serving an unverified Yes.
        if let Some(i) = parts.sigma_keys.iter().position(|k| *k == parts.goal_key) {
            if core.cfg.verify_cache_hits
                && !isomorphic(&goal_hypothesis(&goal), &goal_hypothesis(&sigma[i]))
            {
                core.stats.verify_rejects.fetch_add(1, Ordering::Relaxed);
                key = None;
            } else {
                core.stats.goal_in_sigma.fetch_add(1, Ordering::Relaxed);
                let outcome = JobOutcome {
                    implication: Answer::Yes,
                    finite_implication: Answer::Yes,
                    counterexample: None,
                    from_cache: true,
                    fuel_spent: 0,
                    cancelled: false,
                };
                core.record_answer(&outcome);
                core.observe_fast(t0);
                let mut shard = self.lock_shard(shard_idx);
                let slot = shard.alloc(JobState::Finished(outcome));
                return self.handle(shard_idx, slot, &shard);
            }
        }
        // Run the same Σ the key describes: canonically duplicate
        // dependencies are logically redundant (isomorphic constraints
        // are equivalent) but would inflate this job's per-round scan
        // relative to a dedup-submitted twin.
        let mut seen_deps = FxHashSet::default();
        let mut di = 0;
        sigma.retain(|_| {
            let keep = seen_deps.insert(parts.sigma_keys[di].clone());
            di += 1;
            keep
        });
        // The verification witness: the goal hypothesis with columns in
        // the canonical order the key was computed under (equal keys
        // certify isomorphism *after* each side's own permutation). Built
        // eagerly only when hits are verified — the plain hit path never
        // clones a relation; a keyed job that actually runs builds it at
        // slot installation below.
        let mut witness = (key.is_some() && core.cfg.verify_cache_hits)
            .then(|| permute_relation(&goal_hypothesis(&goal), &parts.perm));
        let mut shard = self.lock_shard(shard_idx);
        if let Some(k) = &key {
            match shard.cache.probe(k, witness.as_ref()) {
                Probe::Hit { answer, warm } => {
                    core.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    core.stats.class_cache_hits[class.index()].fetch_add(1, Ordering::Relaxed);
                    if warm {
                        core.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let outcome = JobOutcome {
                        implication: answer.implication,
                        finite_implication: answer.finite_implication,
                        counterexample: None,
                        from_cache: true,
                        fuel_spent: 0,
                        cancelled: false,
                    };
                    core.record_answer(&outcome);
                    core.observe_fast(t0);
                    let slot = shard.alloc(JobState::Finished(outcome));
                    return self.handle(shard_idx, slot, &shard);
                }
                Probe::InFlight(leader) => {
                    if shard.slots[leader as usize].dying() {
                        // The leader is being cancelled: don't coalesce a
                        // fresh submission onto a computation that will
                        // never answer. Run in isolation (the dying
                        // leader still owns the in-flight marker).
                        key = None;
                    } else {
                        core.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        debug_assert!(
                            matches!(
                                shard.slots[leader as usize].state,
                                JobState::Running(_) | JobState::Stepping
                            ),
                            "in-flight entry must point at a live leader"
                        );
                        core.inflight.fetch_add(1, Ordering::Relaxed);
                        let slot = shard.alloc(JobState::Waiting { leader });
                        shard.slots[slot as usize].started = t0;
                        shard.slots[slot as usize].waker = waker;
                        shard.waiters.entry(leader).or_default().push(slot);
                        return self.handle(shard_idx, slot, &shard);
                    }
                }
                Probe::Rejected => {
                    // Verification just proved this key collides with a
                    // non-isomorphic query (a canonicalization bug). The
                    // key cannot be trusted for *any* sharing: no
                    // coalescing onto an in-flight holder of it, no cache
                    // write under it. Run the job in isolation.
                    core.stats.verify_rejects.fetch_add(1, Ordering::Relaxed);
                    key = None;
                }
                Probe::Miss => {}
            }
        }
        core.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        core.stats.class_cache_misses[class.index()].fetch_add(1, Ordering::Relaxed);
        core.inflight.fetch_add(1, Ordering::Relaxed);
        // Install the slot claimed (`Stepping`) and the in-flight marker
        // under the lock, but build the task — chase-instance seeding,
        // index construction, O(Σ) work — *outside* it: concurrent
        // submitters and steppers on this shard must not serialize behind
        // setup. The marker already coalesces any identical twin onto
        // this slot, and `stepping` keeps drive loops reporting Idle (not
        // Empty) until the task is armed.
        let slot = shard.alloc(JobState::Stepping);
        let generation = {
            let s = &mut shard.slots[slot as usize];
            s.key = key.clone();
            s.goal_hyp = key.is_some().then(|| {
                witness
                    .take()
                    .unwrap_or_else(|| permute_relation(&goal_hypothesis(&goal), &parts.perm))
            });
            s.fuel_cap = fuel_cap;
            s.priority = priority;
            s.started = t0;
            s.waker = waker;
            s.generation
        };
        if let Some(k) = key {
            shard.cache.insert_inflight(k, slot);
        }
        shard.stepping += 1;
        drop(shard);
        // Fragment routing: a per-query decide override is the
        // submitter's explicit word and wins; otherwise classify Σ and
        // run weakly acyclic queries on the terminating route (chase
        // only, unbounded budgets). Linear/guarded routes only count.
        let dcfg = match decide {
            Some(d) => d,
            None => {
                let base = core.cfg.decide.clone();
                if core.cfg.classify {
                    let route = classify(&sigma).route();
                    core.stats.class_routed[route.index()].fetch_add(1, Ordering::Relaxed);
                    routed_decide_config(&base, route)
                } else {
                    base
                }
            }
        };
        let task = if core.cfg.group {
            match core.try_join_group(sigma, goal, pool, dcfg) {
                Ok(member) => ServiceTask::Group(Box::new(member)),
                Err(back) => {
                    let (sigma, goal, pool, d) = *back;
                    ServiceTask::Decide(Box::new(DecideTask::new(sigma, goal, pool, d)))
                }
            }
        } else {
            ServiceTask::Decide(Box::new(DecideTask::new(sigma, goal, pool, dcfg)))
        };
        let token = task.cancel_token();
        let mut shard = self.lock_shard(shard_idx);
        shard.stepping -= 1;
        shard.slots[slot as usize].cancel = Some(token.clone());
        // `cancel()` may have arrived while the task was being built (the
        // slot was `Stepping`, and the token wasn't installed yet, so it
        // could neither be tripped nor sweep the waiters). Honor it now:
        // non-detached waiters that coalesced in the window are woken
        // `Cancelled`, and only a detached survivor keeps the job alive.
        if shard.slots[slot as usize].cancel_requested
            && !self.cancel_waiter_sweep(&mut shard, slot)
        {
            token.cancel();
            let handle = self.handle(shard_idx, slot, &shard);
            core.cancel_slot(&mut shard, slot);
            drop(shard);
            self.notify_shard(shard_idx);
            return handle;
        }
        shard.slots[slot as usize].state = JobState::Running(task);
        shard.queue.push(RunEntry {
            priority,
            seq: std::cmp::Reverse(core.seq.fetch_add(1, Ordering::Relaxed)),
            slot,
            generation,
        });
        core.queue_depth[shard_idx].fetch_add(1, Ordering::Relaxed);
        let handle = self.handle(shard_idx, slot, &shard);
        drop(shard);
        // Queue transition: wake anything parked on this shard or idling.
        // Under the idle mutex, so an idle `run_to_completion` worker
        // cannot miss the job between its check and its wait. The work
        // epoch stays: the submitter steps the job's shard itself.
        let _idle = core.idle.lock().expect("idle lock");
        self.notify_shard(shard_idx);
        handle
    }

    fn handle(&self, shard_idx: usize, slot: u32, shard: &Shard) -> JobHandle {
        JobHandle {
            client: self.clone(),
            id: JobId {
                shard: shard_idx as u32,
                slot,
                generation: shard.slots[slot as usize].generation,
            },
        }
    }

    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.core.shards[idx].shard.lock().expect("shard lock")
    }

    /// Wakes waiters parked on shard `idx` and idle workers (called after
    /// any completion, cancellation, expiry, or queue transition there).
    fn notify_shard(&self, idx: usize) {
        self.core.shards[idx].cv.notify_all();
        self.core.idle_cv.notify_all();
    }

    /// Parks the calling thread on shard `idx`'s condvar until a sweep
    /// there lands (or the timeout backstop fires). Returns immediately
    /// if no thread holds a claim on the shard.
    fn park_on_shard(&self, idx: usize) {
        let cell = &self.core.shards[idx];
        let guard = cell.shard.lock().expect("shard lock");
        if guard.stepping == 0 {
            // The claim landed between our sweep and this park; re-check.
            return;
        }
        self.core.stats.parked.fetch_add(1, Ordering::Relaxed);
        let _ = cell.cv.wait_timeout(guard, PARK_TIMEOUT);
    }

    /// Parks an idle `run_to_completion` worker until any completion or
    /// queue transition anywhere (or the timeout backstop). Completions
    /// notify `idle_cv` without taking the `idle` mutex, so a wakeup can
    /// race this wait; the timeout bounds the resulting stall.
    fn park_idle(&self) {
        let core = &*self.core;
        let guard = core.idle.lock().expect("idle lock");
        if core.inflight.load(Ordering::Relaxed) == 0 {
            return;
        }
        core.stats.parked.fetch_add(1, Ordering::Relaxed);
        let _ = core.idle_cv.wait_timeout(guard, PARK_TIMEOUT);
    }

    /// The job's current status. Cheap; never advances work. A retired id
    /// answers [`JobStatus::Retired`]; so does an id whose shard or slot
    /// doesn't exist here. Ids are only meaningful against the service
    /// that issued them (see [`JobId`]) — a foreign id that happens to be
    /// in range reads whatever job lives in that slot.
    pub fn status(&self, id: JobId) -> JobStatus {
        let Some(cell) = self.core.shards.get(id.shard as usize) else {
            return JobStatus::Retired;
        };
        let shard = cell.shard.lock().expect("shard lock");
        let Some(slot) = shard.slots.get(id.slot as usize) else {
            return JobStatus::Retired;
        };
        if slot.generation != id.generation {
            return JobStatus::Retired;
        }
        match &slot.state {
            JobState::Finished(outcome) if outcome.cancelled => JobStatus::Cancelled,
            JobState::Finished(outcome) => JobStatus::Done(outcome.clone()),
            JobState::Vacant => JobStatus::Retired,
            _ => JobStatus::Pending,
        }
    }

    /// The stored outcome of a finished job (cancelled or not), if any.
    fn outcome_snapshot(&self, id: JobId) -> Option<JobOutcome> {
        let cell = self.core.shards.get(id.shard as usize)?;
        let shard = cell.shard.lock().expect("shard lock");
        let slot = shard.slots.get(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        match &slot.state {
            JobState::Finished(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// One fair sweep of shard `idx`: claims every runnable job, steps
    /// each for (at most) one fuel slice outside the lock, then records
    /// completions and notifies parked waiters. Safe to call from any
    /// number of threads — concurrent callers on the same shard see
    /// [`ShardStep::Idle`] and should park or retry.
    ///
    /// # Panics
    /// If `idx >= self.num_shards()`.
    pub fn step_shard(&self, idx: usize) -> ShardStep {
        self.step_shard_limited(idx, usize::MAX)
    }

    /// As [`ImplicationClient::step_shard`] but claiming at most
    /// `max_claims` jobs — bounded batches keep a queue populated for
    /// work stealing and let pinned workers interleave with thieves.
    fn step_shard_limited(&self, idx: usize, max_claims: usize) -> ShardStep {
        let core = &*self.core;
        let slice = core.cfg.slice_fuel.max(1);
        let mut claimed: Vec<(u32, ServiceTask, usize)> = Vec::new();
        let mut fuel_out = false;
        let mut resolved_any = false;
        {
            let mut shard = self.lock_shard(idx);
            while claimed.len() < max_claims {
                let Some(entry) = shard.queue.pop() else { break };
                core.queue_depth[idx].fetch_sub(1, Ordering::Relaxed);
                let si = entry.slot as usize;
                let valid = shard.slots[si].generation == entry.generation
                    && matches!(shard.slots[si].state, JobState::Running(_));
                if !valid {
                    continue; // stale: retired, expired, cancelled, or finished
                }
                // A cancelled job (token tripped) dies right here without
                // burning a slice.
                if shard.slots[si].dying() {
                    let JobState::Running(_task) =
                        std::mem::replace(&mut shard.slots[si].state, JobState::Stepping)
                    else {
                        unreachable!("validated Running above")
                    };
                    core.cancel_slot(&mut shard, entry.slot);
                    resolved_any = true;
                    continue;
                }
                // Per-job fuel cap: a capped-out job expires right here.
                let cap_rem = shard.slots[si]
                    .fuel_cap
                    .map(|c| c.saturating_sub(shard.slots[si].fuel_spent));
                if cap_rem == Some(0) {
                    let JobState::Running(_task) =
                        std::mem::replace(&mut shard.slots[si].state, JobState::Stepping)
                    else {
                        unreachable!("validated Running above")
                    };
                    core.expire_slot(&mut shard, entry.slot);
                    resolved_any = true;
                    continue;
                }
                let want = cap_rem.map_or(slice, |c| slice.min(c.try_into().unwrap_or(usize::MAX)));
                let granted = core.reserve_fuel(want);
                if granted == 0 {
                    shard.queue.push(entry);
                    core.queue_depth[idx].fetch_add(1, Ordering::Relaxed);
                    fuel_out = true;
                    break;
                }
                let JobState::Running(task) =
                    std::mem::replace(&mut shard.slots[si].state, JobState::Stepping)
                else {
                    unreachable!("validated Running above")
                };
                claimed.push((entry.slot, task, granted));
            }
            shard.stepping += claimed.len();
            if claimed.is_empty() {
                let result = if fuel_out {
                    ShardStep::FuelExhausted
                } else if resolved_any {
                    ShardStep::Progressed
                } else if shard.stepping > 0 {
                    ShardStep::Idle
                } else {
                    ShardStep::Empty
                };
                drop(shard);
                if resolved_any {
                    self.notify_shard(idx);
                }
                return result;
            }
        }
        core.stats.sweeps.fetch_add(1, Ordering::Relaxed);
        let timing = core.telemetry.enabled();
        let stepped: Vec<(u32, ServiceTask, DecideStatus, u64, u64)> = claimed
            .into_iter()
            .map(|(slot, mut task, granted)| {
                let before = task.fuel_spent();
                let t0 = timing.then(Instant::now);
                let status = task.step(granted);
                let step_nanos = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                let used = task.fuel_spent() - before;
                core.refund_fuel(granted as u64 - used.min(granted as u64));
                core.stats.fuel_spent.fetch_add(used, Ordering::Relaxed);
                (slot, task, status, used, step_nanos)
            })
            .collect();
        let mut shard = self.lock_shard(idx);
        shard.stepping -= stepped.len();
        let mut requeued = false;
        for (slot, task, status, used, step_nanos) in stepped {
            let si = slot as usize;
            shard.slots[si].fuel_spent += used;
            shard.slots[si].run_nanos += step_nanos;
            // Per-slice profile: cheap counter reads, kept even with
            // metrics off so PROGRESS streaming works unconditionally.
            shard.slots[si].progress = task.progress_snapshot();
            match status {
                DecideStatus::Pending if shard.slots[si].dying() => {
                    core.cancel_slot(&mut shard, slot)
                }
                DecideStatus::Pending => {
                    let priority = shard.slots[si].priority;
                    let generation = shard.slots[si].generation;
                    shard.slots[si].state = JobState::Running(task);
                    shard.queue.push(RunEntry {
                        priority,
                        seq: std::cmp::Reverse(core.seq.fetch_add(1, Ordering::Relaxed)),
                        slot,
                        generation,
                    });
                    core.queue_depth[idx].fetch_add(1, Ordering::Relaxed);
                    requeued = true;
                }
                DecideStatus::Done(_) => {
                    let decision = task.finish();
                    if decision.cancelled {
                        core.cancel_slot(&mut shard, slot);
                    } else {
                        core.complete_slot(&mut shard, slot, decision);
                    }
                }
            }
        }
        drop(shard);
        // Completions landed and/or jobs requeued: wake parked waiters.
        // A requeue also wakes one thread parked for work, unless the
        // requeued job is the only one queued: the stepping thread claims
        // it again on its next sweep, and a woken thread would find the
        // claim held and park again.
        self.notify_shard(idx);
        let queued = core.queue_depth.iter().map(|d| d.load(Ordering::Relaxed));
        if requeued && queued.sum::<usize>() > 1 {
            core.bump_work();
        }
        ShardStep::Progressed
    }

    /// One fair sweep over every shard (`typedtd-serve`'s driver, and the
    /// socket server's shutdown drain). Returns `false` once nothing more can
    /// run: every shard is drained, or the global fuel budget is spent —
    /// in the latter case call [`ImplicationClient::run_to_completion`] to
    /// expire the leftovers.
    pub fn tick(&self) -> bool {
        let mut any = false;
        let mut fuel_out = false;
        for idx in 0..self.core.shards.len() {
            match self.step_shard(idx) {
                ShardStep::Progressed | ShardStep::Idle => any = true,
                ShardStep::FuelExhausted => fuel_out = true,
                ShardStep::Empty => {}
            }
        }
        any && !fuel_out
    }

    /// Drives every in-flight job to an answer: sweeps all shards until
    /// they drain, then — if a fuel budget cut the run short — answers the
    /// leftovers `Unknown` (an honest answer for an undecidable problem
    /// under a finite budget).
    ///
    /// With [`ServiceConfig::workers`]` > 1`, each worker is pinned to a
    /// stripe of home shards; an idle worker steals slices from the
    /// deepest foreign queue, and parks on a condvar (instead of
    /// yield-spinning) when there is nothing to claim anywhere.
    pub fn run_to_completion(&self) {
        let workers = self.core.cfg.workers.max(1);
        if workers == 1 {
            self.drive_serial();
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || self.worker_loop(w, workers));
                }
            });
        }
        if self.pending_jobs() > 0 {
            self.expire_all();
        }
    }

    /// The single-threaded driver: full sweeps until drained, parking on
    /// a shard's condvar when an external clone holds its only claim.
    fn drive_serial(&self) {
        loop {
            let mut progressed = false;
            let mut fuel_out = false;
            let mut claimed_elsewhere = None;
            for idx in 0..self.core.shards.len() {
                match self.step_shard(idx) {
                    ShardStep::Progressed => progressed = true,
                    ShardStep::Idle => claimed_elsewhere = Some(idx),
                    ShardStep::Empty => {}
                    ShardStep::FuelExhausted => fuel_out = true,
                }
            }
            if fuel_out || (!progressed && claimed_elsewhere.is_none()) {
                break;
            }
            // Park only when the *whole* sweep was starved by a claim an
            // external clone holds — a pass that progressed runnable
            // work elsewhere must not throttle itself on the condvar.
            if !progressed {
                if let Some(idx) = claimed_elsewhere {
                    self.park_on_shard(idx);
                }
            }
        }
    }

    /// One pinned worker of a multi-worker `run_to_completion`: sweeps
    /// its home stripe (one claim per shard per pass, so queues stay
    /// populated for thieves), steals when idle, parks when starved,
    /// exits when no job is in flight anywhere or fuel ran out.
    fn worker_loop(&self, w: usize, total: usize) {
        let core = &*self.core;
        let n = core.shards.len();
        let home: Vec<usize> = (0..n).filter(|i| i % total == w).collect();
        loop {
            let mut progressed = false;
            let mut fuel_out = false;
            for &idx in &home {
                match self.step_shard_limited(idx, 1) {
                    ShardStep::Progressed => progressed = true,
                    ShardStep::Idle | ShardStep::Empty => {}
                    ShardStep::FuelExhausted => fuel_out = true,
                }
            }
            // A worker whose home stripe is empty sees a spent budget
            // through `fuel_drained`; a parked one re-checks it within
            // `PARK_TIMEOUT`, and a live peer steals whatever an exited
            // worker's stripe still holds.
            if fuel_out || core.fuel_drained() {
                break;
            }
            if !progressed {
                progressed = self.try_steal(&home);
            }
            if !progressed {
                if core.inflight.load(Ordering::Relaxed) == 0 {
                    break;
                }
                self.park_idle();
            }
        }
    }

    /// Steals one fuel slice from the deepest foreign queue. Only the CPU
    /// work migrates: the job's slot, key, and waiters stay in the victim
    /// shard, so `JobId`s, coalescing, and the cache are unaffected.
    fn try_steal(&self, home: &[usize]) -> bool {
        let n = self.core.shards.len();
        let mut victim: Option<(usize, usize)> = None;
        for idx in 0..n {
            if home.contains(&idx) {
                continue;
            }
            // Lock-free depth read (the atomic mirror), so idle thieves
            // scanning every millisecond never contend on the hot
            // victim's mutex; the claim below re-validates everything
            // under the victim's lock.
            let depth = self.core.queue_depth[idx].load(Ordering::Relaxed);
            if depth > 0 && victim.is_none_or(|(_, d)| depth > d) {
                victim = Some((idx, depth));
            }
        }
        let Some((idx, _)) = victim else { return false };
        if matches!(self.step_shard_limited(idx, 1), ShardStep::Progressed) {
            self.core.stats.steals.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Answers every still-pending job `Unknown` (budget spent).
    /// `run_to_completion` joins its own workers before calling this, but
    /// *external* client clones may still hold claimed (`Stepping`) tasks
    /// mid-slice — wait those out per shard first (no new claims can
    /// start once the fuel budget is spent, so the wait is bounded by one
    /// in-flight slice per claimant).
    fn expire_all(&self) {
        for idx in 0..self.core.shards.len() {
            let mut shard = loop {
                let shard = self.lock_shard(idx);
                if shard.stepping == 0 {
                    break shard;
                }
                drop(shard);
                std::thread::yield_now();
            };
            let running: Vec<u32> = shard
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s.state, JobState::Running(_)))
                .map(|(i, _)| i as u32)
                .collect();
            for slot in running {
                let JobState::Running(_task) =
                    std::mem::replace(&mut shard.slots[slot as usize].state, JobState::Stepping)
                else {
                    unreachable!("collected Running above")
                };
                self.core.expire_slot(&mut shard, slot);
            }
            // Leaders expired above resolved their waiters; any survivor
            // would mean a waiter without a live leader — a bug.
            debug_assert!(
                !shard
                    .slots
                    .iter()
                    .any(|s| matches!(s.state, JobState::Waiting { .. })),
                "expire_all left an orphaned coalesced waiter"
            );
            drop(shard);
            self.notify_shard(idx);
        }
    }

    /// Expires one pending job to `Unknown` (used by [`JobHandle::wait`]
    /// when the global budget runs dry). Returns `false` if the job is
    /// currently claimed by a stepping thread — retry after it lands.
    fn expire_job(&self, id: JobId) -> bool {
        let mut shard = self.lock_shard(id.shard as usize);
        let si = id.slot as usize;
        if shard.slots[si].generation != id.generation {
            return true; // already gone
        }
        let done = match shard.slots[si].state {
            JobState::Running(_) => {
                let JobState::Running(_task) =
                    std::mem::replace(&mut shard.slots[si].state, JobState::Stepping)
                else {
                    unreachable!("matched Running above")
                };
                self.core.expire_slot(&mut shard, id.slot);
                true
            }
            JobState::Waiting { leader } => {
                if let Some(ws) = shard.waiters.get_mut(&leader) {
                    ws.retain(|&w| w != id.slot);
                }
                let outcome = unknown_outcome(shard.slots[si].fuel_spent);
                self.core.stats.expired.fetch_add(1, Ordering::Relaxed);
                self.core.record_answer(&outcome);
                self.core.observe_waiter(&shard.slots[si], &outcome);
                self.core.job_resolved();
                shard.slots[si].finish(outcome);
                self.drop_keepalive(&mut shard, leader);
                true
            }
            JobState::Stepping => false,
            JobState::Finished(_) | JobState::Vacant => true,
        };
        drop(shard);
        if done {
            self.notify_shard(id.shard as usize);
        }
        done
    }

    /// Cancels one job: trips its task's `CancelToken` so the computation
    /// stops within one fuel slice, and resolves it (and its non-detached
    /// coalesced waiters) to the defined [`JobStatus::Cancelled`].
    /// Waiters that [`JobHandle::detach`]ed beforehand keep the
    /// computation alive and receive the real answer; the canceller's own
    /// view still resolves `Cancelled` when the job lands. Cancelling a
    /// finished (or retired) job is a no-op.
    fn cancel(&self, id: JobId) {
        let Some(cell) = self.core.shards.get(id.shard as usize) else {
            return;
        };
        let mut shard = cell.shard.lock().expect("shard lock");
        let si = id.slot as usize;
        if si >= shard.slots.len() || shard.slots[si].generation != id.generation {
            return;
        }
        match shard.slots[si].state {
            JobState::Vacant | JobState::Finished(_) => return,
            JobState::Waiting { leader } => {
                if let Some(ws) = shard.waiters.get_mut(&leader) {
                    ws.retain(|&w| w != id.slot);
                }
                let outcome = cancelled_outcome(shard.slots[si].fuel_spent);
                self.core.record_answer(&outcome);
                self.core.observe_waiter(&shard.slots[si], &outcome);
                self.core.job_resolved();
                shard.slots[si].finish(outcome);
                self.drop_keepalive(&mut shard, leader);
            }
            JobState::Running(_) | JobState::Stepping => {
                if shard.slots[si].cancel_requested {
                    return; // idempotent
                }
                shard.slots[si].cancel_requested = true;
                // Wake non-detached waiters now with the defined status;
                // detached waiters keep the computation alive. If none
                // remain, the leader dies too (immediately when
                // unclaimed; within its in-flight slice when claimed).
                if !self.cancel_waiter_sweep(&mut shard, id.slot) {
                    self.kill_cancelled_leader(&mut shard, id.slot);
                }
            }
        }
        drop(shard);
        self.notify_shard(id.shard as usize);
    }

    /// Cancels every job still in flight (running, claimed, or
    /// coalesced-waiting) and returns how many were asked to stop. Each
    /// cancellation goes through the same path [`JobHandle::cancel`]
    /// uses, so waiter sweeps, detached keep-alives, and idempotence all
    /// hold; a subsequent [`run_to_completion`](Self::run_to_completion)
    /// then lands the stragglers within one fuel slice each. This is the
    /// drain-deadline backstop for shutdown paths: answer what finished,
    /// cancel the rest, never hang.
    pub fn cancel_pending(&self) -> usize {
        let mut ids = Vec::new();
        for (sidx, cell) in self.core.shards.iter().enumerate() {
            let shard = cell.shard.lock().expect("shard lock");
            for (slot, s) in shard.slots.iter().enumerate() {
                if matches!(
                    s.state,
                    JobState::Running(_) | JobState::Stepping | JobState::Waiting { .. }
                ) {
                    ids.push(JobId {
                        shard: sidx as u32,
                        slot: slot as u32,
                        generation: s.generation,
                    });
                }
            }
        }
        let n = ids.len();
        for id in ids {
            self.cancel(id);
        }
        n
    }

    /// Resolves a cancelled leader's non-detached waiters `Cancelled`,
    /// keeping the detached ones on the list. Returns `true` if any
    /// detached waiter remains to keep the computation alive.
    fn cancel_waiter_sweep(&self, shard: &mut Shard, leader: u32) -> bool {
        let mut keep = Vec::new();
        for w in shard.waiters.remove(&leader).unwrap_or_default() {
            if shard.slots[w as usize].detached {
                keep.push(w);
            } else {
                let outcome = cancelled_outcome(0);
                self.core.record_answer(&outcome);
                self.core.observe_waiter(&shard.slots[w as usize], &outcome);
                self.core.job_resolved();
                shard.slots[w as usize].finish(outcome);
            }
        }
        let keepalive = !keep.is_empty();
        if keepalive {
            shard.waiters.insert(leader, keep);
        }
        keepalive
    }

    /// Trips a cancel-requested leader's token, and resolves it on the
    /// spot when it is unclaimed (a claimed leader's in-flight slice
    /// observes the token, or the landing code sees the request, within
    /// one slice).
    fn kill_cancelled_leader(&self, shard: &mut Shard, leader: u32) {
        let li = leader as usize;
        if let Some(token) = &shard.slots[li].cancel {
            token.cancel();
        }
        if matches!(shard.slots[li].state, JobState::Running(_)) {
            let JobState::Running(_task) =
                std::mem::replace(&mut shard.slots[li].state, JobState::Stepping)
            else {
                unreachable!("matched Running above")
            };
            self.core.cancel_slot(shard, leader);
        }
    }

    /// Called after a waiter leaves `leader`'s coalescing list for any
    /// reason (retired, cancelled, expired): if the leader's owner had
    /// already cancelled and the departing waiter was the last one
    /// keeping the computation alive, the cancel finally takes effect —
    /// otherwise a cancelled-but-kept-alive job would burn its whole
    /// budget with no interested party left (and the owner's repeat
    /// `cancel()` would no-op on the idempotency guard).
    fn drop_keepalive(&self, shard: &mut Shard, leader: u32) {
        if shard.waiters.get(&leader).is_some_and(|ws| !ws.is_empty()) {
            return;
        }
        shard.waiters.remove(&leader);
        let li = leader as usize;
        if shard.slots[li].cancel_requested
            && matches!(
                shard.slots[li].state,
                JobState::Running(_) | JobState::Stepping
            )
        {
            self.kill_cancelled_leader(shard, leader);
        }
    }

    /// Marks a job as detached: if it is a coalesced waiter and its
    /// leader's owner cancels, this job keeps the computation alive and
    /// still receives the answer. Must be set before the cancel arrives.
    fn detach(&self, id: JobId) {
        let Some(cell) = self.core.shards.get(id.shard as usize) else {
            return;
        };
        let mut shard = cell.shard.lock().expect("shard lock");
        let si = id.slot as usize;
        if si >= shard.slots.len() || shard.slots[si].generation != id.generation {
            return;
        }
        shard.slots[si].detached = true;
    }

    /// Frees a job's storage. Pending jobs keep running to completion
    /// (their answer still feeds the cache and any coalesced waiters) but
    /// their outcome is dropped on arrival; cancel first to stop the
    /// computation itself.
    fn retire(&self, id: JobId) {
        let mut shard = self.lock_shard(id.shard as usize);
        let si = id.slot as usize;
        if shard.slots[si].generation != id.generation {
            return;
        }
        self.core.stats.retired.fetch_add(1, Ordering::Relaxed);
        match shard.slots[si].state {
            JobState::Finished(_) => shard.free_slot(id.slot),
            JobState::Waiting { leader } => {
                if let Some(ws) = shard.waiters.get_mut(&leader) {
                    ws.retain(|&w| w != id.slot);
                }
                // An abandoned waiter lands no answer; record its
                // latency as cancelled so every submission shows up in
                // exactly one latency family.
                self.core
                    .observe_waiter(&shard.slots[si], &cancelled_outcome(0));
                self.core.job_resolved();
                shard.free_slot(id.slot);
                self.drop_keepalive(&mut shard, leader);
            }
            JobState::Running(_) | JobState::Stepping => {
                shard.slots[si].retired = true;
            }
            JobState::Vacant => {}
        }
    }
}

impl Core {
    /// New work became claimable: moves the work epoch and wakes one
    /// thread in [`ImplicationClient::park_for_work`], if any is parked.
    fn bump_work(&self) {
        let mut w = self.work.lock().expect("work lock");
        w.epoch += 1;
        if w.parked > 0 {
            self.work_cv.notify_one();
        }
    }

    /// Tries to enrol a query in a shared Σ-group saturation. `Ok` is a
    /// registered member (the group entry is pinned until the member
    /// drops); `Err` returns the query ingredients untouched for the
    /// private-task path — ungroupable queries (width 0, a decode
    /// mismatch) degrade gracefully rather than fail.
    #[allow(clippy::type_complexity)]
    fn try_join_group(
        &self,
        sigma: Vec<TdOrEgd>,
        goal: TdOrEgd,
        pool: ValuePool,
        dcfg: DecideConfig,
    ) -> Result<GroupMember, Box<(Vec<TdOrEgd>, TdOrEgd, ValuePool, DecideConfig)>> {
        let Some(gq) = group_query(&sigma, &goal) else {
            return Err(Box::new((sigma, goal, pool, dcfg)));
        };
        let mut reg = self.groups.lock().expect("group registry lock");
        reg.tick += 1;
        let tick = reg.tick;
        let entry = match reg.groups.get(&gq.key) {
            Some(e) => e.clone(),
            None => {
                let Some(decoded) = gq.key.decode() else {
                    return Err(Box::new((sigma, goal, pool, dcfg)));
                };
                let chase = ChaseTask::saturation(
                    &decoded.seed,
                    decoded.sigma,
                    decoded.pool,
                    dcfg.chase.clone(),
                );
                self.stats.group_chases.fetch_add(1, Ordering::Relaxed);
                let entry = Arc::new(GroupEntry {
                    state: Mutex::new(GroupState {
                        chase,
                        outcome: None,
                        decoder: decoded.decoder,
                    }),
                    members: AtomicUsize::new(0),
                    last_used: AtomicU64::new(tick),
                });
                // Capacity bound with in-flight pinning: only entries
                // with zero members are eviction candidates (LRU among
                // them), so the registry may transiently exceed capacity
                // while every entry is pinned — exactly the answer
                // cache's fresh-insert reserve.
                if reg.groups.len() >= reg.capacity {
                    let victim = reg
                        .groups
                        .iter()
                        .filter(|(_, e)| e.members.load(Ordering::Relaxed) == 0)
                        .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                        .map(|(k, _)| k.clone());
                    if let Some(k) = victim {
                        reg.groups.remove(&k);
                    }
                }
                reg.groups.insert(gq.key.clone(), entry.clone());
                entry
            }
        };
        entry.last_used.store(tick, Ordering::Relaxed);
        // Decode the member's goal into the group's value space. Still
        // under the registry lock (registry → state is the lock order);
        // goal decoding is a few map lookups, not chase work.
        let member_goal = {
            let mut guard = entry.state.lock().expect("group state lock");
            let state = &mut *guard;
            let words = gq.goal.clone();
            state.decoder.decode_goal(&words, state.chase.pool_mut())
        };
        let Some(member_goal) = member_goal else {
            return Err(Box::new((sigma, goal, pool, dcfg)));
        };
        entry.members.fetch_add(1, Ordering::Relaxed);
        self.stats.grouped.fetch_add(1, Ordering::Relaxed);
        Ok(GroupMember {
            entry,
            goal: member_goal,
            spec: Some((sigma, goal, pool, dcfg)),
            fallback: None,
            cancel: CancelToken::new(),
            fuel: 0,
            done: None,
            counters: Arc::clone(&self.stats),
        })
    }

    /// Reserves up to `want` fuel units from the global budget; the
    /// granted amount may be smaller. Unused grant is refunded by the
    /// stepper.
    fn reserve_fuel(&self, want: usize) -> usize {
        if !self.metered {
            return want;
        }
        let mut granted = 0;
        let _ = self
            .fuel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |rem| {
                granted = rem.min(want as u64) as usize;
                Some(rem - granted as u64)
            });
        granted
    }

    fn refund_fuel(&self, unused: u64) {
        if self.metered && unused > 0 {
            self.fuel.fetch_add(unused, Ordering::Relaxed);
        }
    }

    /// `true` when a metered global budget currently reads empty. A
    /// racing refund can restore a few units right after — callers using
    /// this to stop driving merely hand those crumbs to `expire_all`,
    /// the same outcome as a sweep observing `FuelExhausted` directly.
    fn fuel_drained(&self) -> bool {
        self.metered && self.fuel.load(Ordering::Relaxed) == 0
    }

    /// One scheduled job left the in-flight set (completed, expired,
    /// cancelled, or a waiter was retired); wakes idle workers.
    fn job_resolved(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.idle_cv.notify_all();
    }

    /// Records the histogram families for a *leader* landing (completed,
    /// expired, or cancelled): submit→resolve latency keyed by how it
    /// landed, the queue-wait vs run-time split, and fuel consumed.
    /// No-op when metrics are off (`started` is only stamped when they
    /// are on). Called under the shard lock, before the slot is freed.
    fn observe_landing(&self, slot: &JobSlot, latency: Hist) {
        let Some(t0) = slot.started else { return };
        let total = t0.elapsed().as_nanos() as u64;
        let t = &self.telemetry;
        t.record(latency, total);
        t.record(Hist::RunTime, slot.run_nanos);
        t.record(Hist::QueueWait, total.saturating_sub(slot.run_nanos));
        t.record(Hist::FuelPerJob, slot.fuel_spent);
        t.record(Hist::JoinBuildRows, slot.progress.join_build_rows);
        t.record(Hist::JoinProbeHits, slot.progress.join_probe_hits);
    }

    /// Records the landing of a coalesced waiter: it spends no fuel and
    /// is never stepped itself, so only latency (keyed by how it
    /// resolved: leader answered → hit, leader cancelled → cancelled,
    /// leader expired → expired) and a zero fuel sample are recorded.
    fn observe_waiter(&self, slot: &JobSlot, outcome: &JobOutcome) {
        let Some(t0) = slot.started else { return };
        let latency = if outcome.cancelled {
            Hist::LatencyCancelled
        } else if outcome.from_cache {
            Hist::LatencyHit
        } else {
            Hist::LatencyExpired
        };
        self.telemetry.record(latency, t0.elapsed().as_nanos() as u64);
        self.telemetry.record(Hist::FuelPerJob, 0);
    }

    /// Records a submit-time fast-path answer (goal-in-Σ, cache hit):
    /// hit latency, zero fuel.
    fn observe_fast(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.telemetry
                .record(Hist::LatencyHit, t0.elapsed().as_nanos() as u64);
            self.telemetry.record(Hist::FuelPerJob, 0);
        }
    }

    /// Updates the answer histogram and completion count. Cancelled
    /// outcomes count toward `completed` and `cancelled`, not the
    /// yes/no/unknown histogram (they carry no answer).
    fn record_answer(&self, outcome: &JobOutcome) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        if outcome.cancelled {
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let counter = match outcome.implication {
            Answer::Yes => &self.stats.yes,
            Answer::No => &self.stats.no,
            Answer::Unknown => &self.stats.unknown,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Finishes a job from its decided task: records stats, fills the
    /// cache (bounded), wakes coalesced waiters. Called under the shard
    /// lock with the slot in `Stepping` state (task moved out and
    /// finished by the caller).
    fn complete_slot(&self, shard: &mut Shard, slot: u32, decision: Decision) {
        let si = slot as usize;
        let outcome = JobOutcome {
            implication: decision.implication,
            finite_implication: decision.finite_implication,
            counterexample: decision.counterexample,
            from_cache: false,
            fuel_spent: shard.slots[si].fuel_spent,
            cancelled: false,
        };
        self.record_answer(&outcome);
        self.observe_landing(&shard.slots[si], Hist::LatencyMiss);
        let key = shard.slots[si].key.take();
        let goal_hyp = shard.slots[si].goal_hyp.take();
        if let Some(k) = key {
            // Only definite answers are cached: Yes/No are certificates,
            // true of every isomorphic presentation of the query, while
            // Unknown is a budget artifact that could differ between
            // canonically equal submissions.
            if outcome.implication != Answer::Unknown {
                let g = goal_hyp.expect("keyed leader stores its witness");
                let answer = CachedAnswer {
                    implication: outcome.implication,
                    finite_implication: outcome.finite_implication,
                };
                if let Some(interned) = shard.cache.insert(k, answer, g, outcome.fuel_spent) {
                    self.cached_total.fetch_add(1, Ordering::Relaxed);
                    self.enforce_cache_bound(shard, Some(&interned));
                    // Persist the definite answer as it enters the cache
                    // (the log mirrors the insert path exactly, so
                    // Unknown/Cancelled/Expired can never reach disk). A
                    // failed append counts an error; the log itself
                    // degrades after repeated failures and traffic is
                    // never affected.
                    if let Some(log) = &self.persist {
                        if !log.append(&interned, answer, outcome.fuel_spent) {
                            self.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            } else {
                shard.cache.clear_inflight(&k);
            }
        }
        self.resolve_waiters(shard, slot, &outcome, true);
        self.job_resolved();
        if shard.slots[si].retired {
            shard.free_slot(slot);
        } else if shard.slots[si].cancel_requested {
            // Detached waiters kept the computation alive (and just got
            // the real answer above); the owner cancelled, so its own
            // view resolves Cancelled.
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            let cancelled = cancelled_outcome(shard.slots[si].fuel_spent);
            shard.slots[si].finish(cancelled);
        } else {
            shard.slots[si].finish(outcome);
        }
    }

    /// Force-answers a claimed slot `Unknown` (fuel exhaustion). Called
    /// under the shard lock with the slot in `Stepping` state.
    fn expire_slot(&self, shard: &mut Shard, slot: u32) {
        let outcome = unknown_outcome(shard.slots[slot as usize].fuel_spent);
        self.stats.expired.fetch_add(1, Ordering::Relaxed);
        self.abort_slot(shard, slot, outcome);
    }

    /// Resolves a claimed slot [`JobStatus::Cancelled`]. Called under the
    /// shard lock with the slot in `Stepping` state.
    fn cancel_slot(&self, shard: &mut Shard, slot: u32) {
        let outcome = cancelled_outcome(shard.slots[slot as usize].fuel_spent);
        self.abort_slot(shard, slot, outcome);
    }

    /// Shared tail of expiry and cancellation: records the outcome, drops
    /// the in-flight cache marker (answers from aborted runs are never
    /// cached: expiry reflects scheduling pressure, cancellation produced
    /// no answer), resolves waiters, and stores or frees the slot. An
    /// owner who had requested cancellation still sees `Cancelled`, even
    /// when what actually landed first was a fuel expiry.
    fn abort_slot(&self, shard: &mut Shard, slot: u32, outcome: JobOutcome) {
        let si = slot as usize;
        self.record_answer(&outcome);
        let latency = if outcome.cancelled {
            Hist::LatencyCancelled
        } else {
            Hist::LatencyExpired
        };
        self.observe_landing(&shard.slots[si], latency);
        if let Some(k) = shard.slots[si].key.take() {
            shard.cache.clear_inflight(&k);
        }
        shard.slots[si].goal_hyp = None;
        self.resolve_waiters(shard, slot, &outcome, false);
        self.job_resolved();
        if shard.slots[si].retired {
            shard.free_slot(slot);
        } else if shard.slots[si].cancel_requested && !outcome.cancelled {
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            let cancelled = cancelled_outcome(shard.slots[si].fuel_spent);
            shard.slots[si].finish(cancelled);
        } else {
            shard.slots[si].finish(outcome);
        }
    }

    /// Wakes every job coalesced onto `leader` with its answers (or its
    /// cancelled/expired status). `from_leader_answer` is `true` only
    /// when the leader genuinely completed — waiters of an expired or
    /// cancelled leader are not labeled cache-served.
    fn resolve_waiters(
        &self,
        shard: &mut Shard,
        leader: u32,
        outcome: &JobOutcome,
        from_leader_answer: bool,
    ) {
        for w in shard.waiters.remove(&leader).unwrap_or_default() {
            debug_assert!(
                matches!(shard.slots[w as usize].state, JobState::Waiting { leader: l } if l == leader),
                "waiter list out of sync with job slots"
            );
            let waiter_outcome = JobOutcome {
                implication: outcome.implication,
                finite_implication: outcome.finite_implication,
                counterexample: None,
                from_cache: from_leader_answer,
                fuel_spent: 0,
                cancelled: outcome.cancelled,
            };
            self.record_answer(&waiter_outcome);
            self.observe_waiter(&shard.slots[w as usize], &waiter_outcome);
            self.job_resolved();
            shard.slots[w as usize].finish(waiter_outcome);
        }
    }

    /// Evicts from `shard`'s cache slice until the global count is back
    /// under the configured capacity, never evicting `protect` (the entry
    /// just inserted — otherwise a capacity smaller than the shard count
    /// would make every fresh insert its own eviction victim while hot
    /// shards keep stale entries). Approximate global LRU: a shard only
    /// evicts entries it owns, so concurrent inserts elsewhere converge
    /// without cross-shard locking.
    fn enforce_cache_bound(&self, shard: &mut Shard, protect: Option<&Arc<QueryKey>>) {
        while self.cached_total.load(Ordering::Relaxed) > self.cfg.cache_capacity {
            if shard.cache.evict_one_protecting(protect) {
                self.cached_total.fetch_sub(1, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break; // nothing local left to evict
            }
        }
    }
}

fn unknown_outcome(fuel_spent: u64) -> JobOutcome {
    JobOutcome {
        implication: Answer::Unknown,
        finite_implication: Answer::Unknown,
        counterexample: None,
        from_cache: false,
        fuel_spent,
        cancelled: false,
    }
}

fn cancelled_outcome(fuel_spent: u64) -> JobOutcome {
    JobOutcome {
        implication: Answer::Unknown,
        finite_implication: Answer::Unknown,
        counterexample: None,
        from_cache: false,
        fuel_spent,
        cancelled: true,
    }
}

fn shard_of(key: &QueryKey, nshards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % nshards
}

/// Owner of one submitted job's lifecycle. Poll it, block on it, cancel
/// it, or let it go — dropping the handle **retires** the job, freeing
/// its slot (and its stored outcome) in the service; the computation
/// itself still runs to completion so its answer can feed the cache and
/// coalesced waiters (use [`JobHandle::cancel`] to stop it).
///
/// Handles are deliberately not `Clone`: exactly one owner decides when
/// the outcome may be dropped.
pub struct JobHandle {
    client: ImplicationClient,
    id: JobId,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The job's identity (remains valid for
    /// [`ImplicationClient::status`] until the handle is dropped; after
    /// that it reports [`JobStatus::Retired`]).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's current status. Cheap; never advances work.
    pub fn poll(&self) -> JobStatus {
        self.client.status(self.id)
    }

    /// The job's current [`ProgressSnapshot`] (see
    /// [`ImplicationClient::job_progress`]). Cheap; never advances work.
    pub fn progress(&self) -> Option<ProgressSnapshot> {
        self.client.job_progress(self.id)
    }

    /// Cancels the job. When this handle is the last party interested in
    /// the computation, it stops within one fuel slice (cooperative
    /// token, checked at chase-round / search-attempt granularity; an
    /// unclaimed job stops immediately with zero extra fuel), its
    /// run-queue slot frees up, and the job resolves to the defined
    /// [`JobStatus::Cancelled`]. Non-detached coalesced waiters are
    /// woken `Cancelled` with it. The computation survives a cancel in
    /// two cases — only this handle's view resolves `Cancelled` then:
    /// this job is itself a *waiter* on a shared in-flight leader (the
    /// leader's owner still wants the answer), or detached waiters
    /// ([`JobHandle::detach`]) opted into keeping this leader's answer
    /// alive (it stops later, when the last of them departs).
    /// Cancelling a finished job is a no-op: it keeps its answer.
    pub fn cancel(&self) {
        self.client.cancel(self.id);
    }

    /// Opts this job into surviving its coalescing leader's
    /// cancellation: a detached waiter keeps the shared computation alive
    /// and still receives the real answer. Call before the leader's
    /// [`JobHandle::cancel`]; no effect on jobs that aren't coalesced.
    pub fn detach(&self) {
        self.client.detach(self.id);
    }

    /// Blocks until the job has an answer, **helping** while it waits:
    /// the calling thread steps the shard that owns this job (and only
    /// that shard — divergent jobs elsewhere cost it nothing), and when
    /// another thread holds the claim it parks on the shard's condvar
    /// until the slice lands instead of yield-spinning. Under a spent
    /// global fuel budget the job is expired to an honest `Unknown`; a
    /// cancelled job returns its stored outcome (`cancelled` set,
    /// answers `Unknown`).
    pub fn wait(&self) -> JobOutcome {
        loop {
            match self.poll() {
                JobStatus::Done(outcome) => return outcome,
                JobStatus::Cancelled => {
                    return self
                        .client
                        .outcome_snapshot(self.id)
                        .unwrap_or_else(|| cancelled_outcome(0));
                }
                JobStatus::Retired => {
                    unreachable!("a live handle's job cannot be retired")
                }
                JobStatus::Pending => {}
            }
            match self.client.step_shard(self.id.shard as usize) {
                ShardStep::Progressed => {}
                ShardStep::Idle => self.client.park_on_shard(self.id.shard as usize),
                ShardStep::Empty => std::thread::yield_now(),
                ShardStep::FuelExhausted => {
                    // May fail while another thread holds the task; park
                    // until its slice lands, then retry.
                    if !self.client.expire_job(self.id) {
                        self.client.park_on_shard(self.id.shard as usize);
                    }
                }
            }
        }
    }

    /// Retires the job now, freeing its slot in the service. Equivalent
    /// to dropping the handle; spelled out for call sites where the
    /// intent deserves a name.
    pub fn retire(self) {}
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.client.retire(self.id);
    }
}
