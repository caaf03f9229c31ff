//! # typedtd-service — implication as a query engine
//!
//! The paper this repository reproduces proves that implication and finite
//! implication of typed template dependencies are **undecidable**: the set
//! `{(Σ, σ) : Σ ⊨ σ}` is r.e. (the chase enumerates it), the set
//! `{(Σ, σ) : Σ ⊭_f σ}` is r.e. (finite-model enumeration), and no total
//! algorithm closes the gap. A service built on such a theory cannot offer
//! "call and wait" semantics — any one call may never return. What it can
//! offer is the **dovetailing guarantee**, turned from a proof device into
//! a scheduler, behind a client API shaped like a production query engine:
//!
//! * [`ImplicationClient`] is a cheap [`Clone`] handle over shared state —
//!   every method takes `&self`, so any number of threads submit queries
//!   and step the scheduler concurrently;
//! * a query is an immutable [`QuerySpec`] (Σ, goal, pool, plus per-query
//!   priority and fuel overrides), separated from its evaluation;
//! * [`ImplicationClient::submit`] returns a [`JobHandle`] that owns the
//!   job's lifecycle: [`JobHandle::poll`], blocking [`JobHandle::wait`]
//!   (which helps drive the job's own shard while it waits, parking on
//!   the shard's condvar when another thread holds the claim), a real
//!   [`JobHandle::cancel`] (cooperative token — the computation stops
//!   within one fuel slice and resolves to the defined
//!   `JobStatus::Cancelled`; coalesced waiters can keep the answer alive
//!   via [`JobHandle::detach`]), and retire-on-drop, so polled outcomes
//!   never accumulate;
//! * internally, jobs hash by canonical key onto **sharded run queues**
//!   with per-shard fair dovetailing — a terminating query is answered
//!   after boundedly many sweeps of its shard regardless of how many
//!   divergent neighbours the service carries, and per-job plus global
//!   fuel budgets convert "never returns" into the honest third answer
//!   `Unknown`. Multi-worker drives pin workers to home-shard stripes
//!   and **steal** slices from the deepest foreign queue when idle, so a
//!   skewed shard assignment does not degrade to single-worker
//!   throughput;
//! * with `typedtd_chase::DecideMode::AdaptiveDovetail` in the decide
//!   config, each job also dovetails *internally* — chase rounds
//!   alternate with finite-model search attempts at a ratio that follows
//!   whichever procedure progressed — so refutable-but-divergent queries
//!   answer `No` under a fuel cap where the sequential mode can only
//!   report `Unknown`.
//!
//! On top of the scheduler sits a **bounded, isomorphism-keyed answer
//! cache** ([`canon`], [`cache`]): queries are keyed by a canonical form
//! invariant under variable renaming, hypothesis-row reordering, and Σ
//! reordering/duplication, so the structurally identical queries a real
//! workload issues by the million are answered from memory; identical
//! queries *in flight* coalesce onto a single computation; a goal that is
//! canonically an element of Σ is answered `Yes` at submit time without
//! scheduling at all; and the cache stays within a configured capacity via
//! LRU/cost-aware eviction (in-flight entries are pinned). The [`batch`]
//! module and the `typedtd-serve` binary expose the whole stack over
//! newline-delimited query files in the parser syntax.
//!
//! # Migrating from the v1 `ImplicationService`
//!
//! | v1 (single owner, `&mut self`) | v2 (shared-state client) |
//! |---|---|
//! | `ImplicationService::new(cfg)` | [`ImplicationClient::new`]`(cfg)` |
//! | `service.submit(sigma, goal, pool) -> JobId` | `client.submit(`[`QuerySpec::new`]`(sigma, goal, pool)) -> JobHandle` |
//! | `service.poll(id)` | `handle.poll()` (or [`ImplicationClient::status`]`(id)`) |
//! | `service.tick()` | [`ImplicationClient::tick`] (or per-shard [`ImplicationClient::step_shard`]) |
//! | `service.run_to_completion()` | [`ImplicationClient::run_to_completion`], or `handle.wait()` per job |
//! | finished jobs retained forever | handles retire on drop; slots are reused |
//! | unbounded `AnswerCache` | bounded via [`ServiceConfig::cache_capacity`] |

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod canon;
pub mod cli;
pub mod instruments;
pub mod persist;
pub mod proto;
pub mod service;
pub mod telemetry;

pub use batch::{
    parse_query_line, parse_universe_spec, submit_batch, Batch, BatchError, BatchQuery,
    BatchVerdict,
};
pub use cache::{CachedAnswer, Probe, ShardCache};
pub use cli::{done_line, parse_decide_mode, parse_service_args, stats_line, SERVICE_USAGE};
pub use instruments::{Hist, Instrument, ServiceStats, Surface, COUNTERS, GAUGES, HISTOGRAMS};
pub use persist::{
    replay_bytes, replay_log, FaultPlan, PersistConfig, PersistLog, Replay, ReplayedRecord,
};
pub use proto::{
    decode_frame, parse_running_text, parse_stats_text, ClientConfig, Frame, FrameError, Opcode,
    ProgressKind, ProtoClient, ProtoServer, ProtoStream, RunningUpdate, SockdConfig,
    SubmitPayload, WireAnswer, MAX_FRAME_LEN, PROTO_VERSION,
};
pub use canon::{
    dep_key, group_query, permute_relation, query_key, query_parts, DecodedGroup, GoalDecoder,
    GroupKey, GroupQuery, QueryKey, QueryParts,
};
pub use telemetry::{
    bucket_index, bucket_upper_bound, write_atomic, Exposition, Histogram, HistogramSnapshot,
    Telemetry, TelemetrySnapshot, HIST_BUCKETS,
};
pub use service::{
    ImplicationClient, JobHandle, JobId, JobOutcome, JobStatus, JobSummary, QuerySpec,
    ServiceConfig, ShardStep,
};
