//! The chase: a fair semidecision procedure for (finite) implication of
//! template and equality-generating dependencies, plus its dual — finite
//! counterexample search — and the combined three-valued decision API.
//!
//! This crate is the computational engine behind the reproduction of
//! Vardi's PODS 1982 / JCSS 1984 paper. The paper's main theorems say that
//! no total algorithm exists for typed td (or pjd) implication; what *does*
//! exist, and what this crate provides, is:
//!
//! * [`chase_implication`] / [`saturate`] — the restricted chase, run in
//!   fair breadth-first rounds, with machine-checkable
//!   [`trace::ChaseTrace`]s (the paper's own Lemma 10 is a chase
//!   derivation). Trigger discovery is *semi-naive*: per-row version
//!   stamps restrict each round's embedding search to the delta (see
//!   [`engine`] for the architecture and the naive reference mode);
//! * [`search::random_counterexample`] — enumeration of finite models,
//!   the r.e. procedure for `Σ ⊭_f σ`;
//! * [`decide`] / [`decide_dependencies`] — both procedures dovetailed into
//!   a three-valued [`Answer`] (`Yes` / `No` / `Unknown`);
//! * [`ChaseTask`] / [`SearchTask`] / [`DecideTask`] — the same three
//!   procedures as *resumable* tasks (`step(fuel) → Pending | Done`),
//!   preemptible at round/attempt granularity so a scheduler can dovetail
//!   many queries fairly (the `typedtd-service` crate builds on these).
//!   A [`DecideTask`] can also dovetail *within* itself
//!   ([`DecideMode::AdaptiveDovetail`]: chase rounds alternate with
//!   search attempts at a ratio that follows whichever procedure
//!   progressed), and every task carries a [`CancelToken`] that stops it
//!   mid-slice instead of letting it burn its remaining budget.

#![warn(missing_docs)]

pub mod cancel;
pub mod classify;
pub mod engine;
pub mod implication;
pub mod instance;
pub mod search;
pub mod termination;
pub mod trace;
pub mod unionfind;

pub use cancel::CancelToken;
pub use classify::{
    classify, routed_decide_config, terminating_chase_config, FragmentReport, RouteClass,
};
pub use engine::{
    chase_implication, saturate, ChaseConfig, ChaseOutcome, ChaseRun, ChaseTask, Goal, StepStatus,
};
pub use implication::{
    decide, decide_dependencies, Answer, DecideConfig, DecideMode, DecideStatus, DecideTask,
    Decision, MultiDecision, ProgressSnapshot, TaskPhase,
};
pub use instance::ChaseInstance;
pub use termination::{dependency_graph, is_guarded, is_linear, weakly_acyclic, Edge};
pub use search::{
    is_counterexample, random_counterexample, SearchConfig, SearchStatus, SearchTask,
};
pub use trace::{ChaseStep, ChaseTrace, StepKind};
pub use unionfind::UnionFind;
