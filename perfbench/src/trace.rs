//! The traced run: per-layer time and counts.
//!
//! Three parts, all outside the timed runs:
//! 1. socket passes, alternating untraced and traced (client spans for
//!    each query's SUBMIT, ACCEPTED and ANSWER), with the `STATS`
//!    histograms, the `--stats` exit ledger and the daemon's CPU;
//! 2. an in-process replay of the same stream through the repository's
//!    public functions in the daemon's order, one span per call under the
//!    query's span, one span per fuel unit of `DecideTask::step(1)`;
//! 3. the persistence layer: `replay_log`, `QueryKey::witness_relation`,
//!    `ImplicationClient::new` on a copy of the history log, and
//!    `PersistLog::append` on a scratch log.
//!
//! Spans stay in memory and are written out when the run ends. A layer's
//! self time is its spans' time minus their children's.

use crate::gen::{self, Query, Rng};
use crate::reference::{self, base_config, dedup_sigma, Expected};
use crate::report::{median, percentile_sorted, Metric};
use crate::run::{check, one_pass, to_wire, Ctx, History, Outcome, Pass, WARMUP_QUERIES};
use crate::Workload;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;
use typedtd_chase::{Answer, DecideStatus, DecideTask, RouteClass};
use typedtd_relational::ValuePool;
use typedtd_service::cache::goal_hypothesis;
use typedtd_service::{
    decode_frame, parse_query_line, parse_universe_spec, permute_relation, query_parts, replay_log,
    CachedAnswer, Frame, ImplicationClient, Opcode, PersistConfig, PersistLog, Probe,
    ServiceConfig, ShardCache, SubmitPayload, WireAnswer,
};

/// Untraced and traced socket passes each.
const SOCKET_PASSES: usize = 3;
/// Timed repetitions of each persistence measurement.
const PERSIST_REPS: usize = 3;
/// Records appended to the scratch log to time `PersistLog::append`.
const APPENDS: usize = 2_000;
/// Presentations per structure when counting canonical keys.
const PRESENTATIONS: usize = 5;
/// The binary-ind query whose chase doubles its rows every round.
const BINARY_IND: (&str, &str) = (
    "untyped A B C D E",
    "[BC] <= [BE] & [AB] <= [CE] & E -> B |= [D] <= [E]",
);
/// Fuel the binary-ind reproducer is stepped to, one unit at a time.
const BINARY_IND_CAP: u64 = 192;

/// One recorded span.
struct Span {
    name: &'static str,
    query: u32,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, query: u32, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            query,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        self.spans[id].end = end;
        end - self.spans[id].start
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(
        &mut self,
        name: &'static str,
        query: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, query, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in ns.
    fn self_times(&self) -> HashMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = HashMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    fn write_tsv(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.query, s.name, s.start, s.end
            );
        }
    }
}

/// Counters of the in-process replay.
#[derive(Default)]
struct Counts {
    queries: u64,
    parts: u64,
    misses: u64,
    terminating: u64,
    chase_rounds: u64,
    rows: u64,
    merges: u64,
    join_probe_hits: u64,
    search_attempts: u64,
    refutations: u64,
    fuel: u64,
    worst_unit_ns: u64,
}

/// Replays `stream` in-process through the public functions, in the
/// daemon's order, recording spans. The cache is one `ShardCache`
/// seeded warm with the newest records the daemon would keep.
fn replay_in_process(
    workload: Workload,
    history: &History,
    stream: &[Query],
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let mut cache = ShardCache::default();
    let records = replay_log(&history.path)
        .map_err(|e| format!("replay {}: {e}", history.path.display()))?
        .records;
    let keep = (history.kept as usize).min(records.len());
    for rec in &records[records.len() - keep..] {
        if let Some(w) = rec.key.witness_relation() {
            cache.insert_warm(rec.key.clone(), rec.answer, w, rec.cost);
        }
    }
    let base = base_config(workload);
    let cap = workload.fuel_cap();
    let mut c = Counts::default();
    for (qi, q) in stream.iter().enumerate() {
        let qi = qi as u32;
        let root_id = tracer.open("query", qi, None);
        let root = Some(root_id);
        c.queries += 1;
        let (universe_text, query_text) = (q.universe(), q.text());
        let payload = tracer.span("proto.codec", qi, root, || {
            let bytes = Frame::new(
                Opcode::Submit,
                u64::from(qi),
                SubmitPayload {
                    fuel_cap: cap,
                    universe: universe_text,
                    query: query_text,
                    progress: false,
                }
                .encode(),
            )
            .encode();
            let (frame, _) = decode_frame(&bytes)
                .map_err(|e| e.to_string())?
                .ok_or("short frame")?;
            SubmitPayload::decode(&frame.payload)
        })?;
        let (universe, mut pool, sigma_deps, goal_dep) =
            tracer.span("batch.parse", qi, root, || {
                let universe = parse_universe_spec(&payload.universe)?;
                let mut pool = ValuePool::new(universe.clone());
                let (s, g) = parse_query_line(&universe, &mut pool, &payload.query)?;
                Ok::<_, String>((universe, pool, s, g))
            })?;
        let (sigma, parts) = tracer.span("normalize", qi, root, || {
            let mut sigma = Vec::new();
            for d in &sigma_deps {
                sigma.extend(d.try_normalize(&universe, &mut pool)?);
            }
            let parts = goal_dep.try_normalize(&universe, &mut pool)?;
            Ok::<_, String>((sigma, parts))
        })?;
        let mut answer = WireAnswer {
            implication: Answer::Yes,
            finite_implication: Answer::Yes,
            from_cache: !parts.is_empty(),
            cancelled: false,
            expired: false,
            fuel_spent: 0,
        };
        for part in &parts {
            c.parts += 1;
            let (qp, deduped) = tracer.span("canon", qi, root, || {
                let qp = query_parts(&sigma, part);
                let deduped = dedup_sigma(&sigma, &qp);
                (qp, deduped)
            });
            let Some(deduped) = deduped else { continue };
            let probe = tracer.span("cache", qi, root, || cache.probe(&qp.key, None));
            if let Probe::Hit { answer: a, .. } = probe {
                answer.implication = answer.implication.and(a.implication);
                answer.finite_implication = answer.finite_implication.and(a.finite_implication);
                continue;
            }
            c.misses += 1;
            answer.from_cache = false;
            let (route, cfg) =
                tracer.span("classify", qi, root, || reference::route(&base, &deduped));
            if route == RouteClass::Terminating {
                c.terminating += 1;
            }
            let mut task = tracer.span("engine.build", qi, root, || {
                DecideTask::new(deduped, part.clone(), pool.clone(), cfg)
            });
            let mut done = false;
            while !done && cap.is_none_or(|cap| task.fuel_spent() < cap) {
                let before = task.progress_snapshot();
                let id = tracer.open("engine.chase", qi, root);
                done = matches!(task.step(1), DecideStatus::Done(_));
                let after = task.progress_snapshot();
                if after.search_attempts > before.search_attempts {
                    tracer.spans[id].name = "search";
                }
                let ns = tracer.close(id);
                if tracer.spans[id].name == "engine.chase" {
                    c.worst_unit_ns = c.worst_unit_ns.max(ns);
                }
            }
            let snap = task.progress_snapshot();
            c.chase_rounds += snap.chase_rounds;
            c.rows += snap.instance_rows;
            c.merges += snap.chase_merges;
            c.join_probe_hits += snap.join_probe_hits;
            c.search_attempts += snap.search_attempts;
            c.fuel += task.fuel_spent();
            answer.fuel_spent += task.fuel_spent();
            let (imp, fin) = if done {
                let fuel = task.fuel_spent();
                let (d, _) = task.finish();
                if d.finite_implication == Answer::No
                    && snap.search_attempts > 0
                    && d.counterexample.is_some()
                {
                    c.refutations += 1;
                }
                tracer.span("cache", qi, root, || {
                    if d.implication != Answer::Unknown {
                        let hyp = permute_relation(&goal_hypothesis(part), &qp.perm);
                        let cached = CachedAnswer {
                            implication: d.implication,
                            finite_implication: d.finite_implication,
                        };
                        cache.insert(qp.key.clone(), cached, hyp, fuel);
                    }
                });
                (d.implication, d.finite_implication)
            } else {
                answer.expired = true;
                (Answer::Unknown, Answer::Unknown)
            };
            answer.implication = answer.implication.and(imp);
            answer.finite_implication = answer.finite_implication.and(fin);
        }
        tracer.span("proto.codec", qi, root, || {
            std::hint::black_box(
                Frame::new(Opcode::Answer, u64::from(qi), answer.encode()).encode(),
            )
        });
        tracer.close(root_id);
    }
    Ok(c)
}

/// Canonical keys per structure over [`PRESENTATIONS`] presentations of
/// each of the first (up to 2,000) queries: 1.0 when every renaming,
/// rotation and repetition of Σ keys alike.
fn keys_per_structure(stream: &[Query]) -> f64 {
    let mut rng = Rng::new(0, 0x4b45_5953);
    let structures = &stream[..stream.len().min(gen::HOT_LEN)];
    let mut total = 0usize;
    for q in structures {
        let mut keys = HashSet::new();
        keys.extend(gen::part_keys(q).unwrap_or_default());
        for _ in 1..PRESENTATIONS {
            keys.extend(gen::part_keys(&q.represented(&mut rng)).unwrap_or_default());
        }
        total += keys.len();
    }
    total as f64 / structures.len().max(1) as f64
}

/// Times the persistence layer on copies of the history log. Also returns
/// the evictions replay alone causes, which every exit ledger includes.
fn persist_metrics(ctx: &Ctx, history: &History) -> Result<(Vec<Metric>, u64), String> {
    let scratch = ctx.work.join(format!("persist-{}", std::process::id()));
    let (mut decode, mut witness, mut restart, mut kept) = (vec![], vec![], vec![], vec![]);
    let (mut records, mut replay_evictions) = (Vec::new(), 0);
    for _ in 0..PERSIST_REPS {
        std::fs::copy(&history.path, &scratch).map_err(|e| format!("copy log: {e}"))?;
        let t = Instant::now();
        let replay = replay_log(&scratch).map_err(|e| format!("replay: {e}"))?;
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let rebuilt = replay
            .records
            .iter()
            .filter(|r| r.key.witness_relation().is_some())
            .count();
        witness.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(rebuilt);
        let t = Instant::now();
        let client = ImplicationClient::new(ServiceConfig {
            persist: Some(PersistConfig::at(&scratch)),
            ..ServiceConfig::default()
        });
        restart.push(t.elapsed().as_secs_f64() * 1e3);
        kept.push(client.cache_len() as f64 / replay.records.len().max(1) as f64);
        replay_evictions = client.stats().evictions;
        records = replay.records;
    }
    let _ = std::fs::remove_file(&scratch);
    let (log, _) = PersistLog::open(&PersistConfig::at(&scratch))
        .map_err(|e| format!("open scratch log: {e}"))?;
    let n = APPENDS.min(records.len()).max(1);
    let t = Instant::now();
    for r in records.iter().take(n) {
        if !log.append(&r.key, r.answer, r.cost) {
            return Err("scratch log append failed".into());
        }
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    drop(log);
    let _ = std::fs::remove_file(&scratch);
    let metrics = vec![
        Metric::new("persist.decode_ms", "ms", decode),
        Metric::new("persist.witness_ms", "ms", witness),
        Metric::new("persist.restart_ms", "ms", restart),
        Metric::new("persist.kept_frac", "frac", kept),
        Metric::one("persist.append_us", "us", append_us),
    ];
    Ok((metrics, replay_evictions))
}

/// Steps the binary-ind reproducer one fuel unit at a time: the worst
/// unit and the total, in ms.
fn binary_ind_probe() -> Result<(f64, f64), String> {
    let p = reference::parse_text(BINARY_IND.0, BINARY_IND.1)?;
    let cfg = base_config(Workload::FrontierCap);
    let (mut worst, start) = (0f64, Instant::now());
    for part in &p.parts {
        let Some(sigma) = dedup_sigma(&p.sigma, &query_parts(&p.sigma, part)) else {
            continue;
        };
        let mut task = DecideTask::new(sigma, part.clone(), p.pool.clone(), cfg.clone());
        while task.fuel_spent() < BINARY_IND_CAP {
            let t = Instant::now();
            let done = matches!(task.step(1), DecideStatus::Done(_));
            worst = worst.max(t.elapsed().as_secs_f64() * 1e3);
            if done {
                break;
            }
        }
    }
    Ok((worst, start.elapsed().as_secs_f64() * 1e3))
}

fn stat(p: &Pass, key: &str) -> f64 {
    p.stats
        .get(key)
        .or_else(|| p.ledger.get(key))
        .copied()
        .unwrap_or(0) as f64
}

/// The traced run of `workload`.
///
/// # Errors
/// Daemon, connection or parse failures.
pub fn traced(
    ctx: &Ctx,
    workload: Workload,
    history: &History,
    stream: &[Query],
    refs: &[Expected],
) -> Result<Outcome, String> {
    let wire = to_wire(stream);
    let n = stream.len() as f64;
    let parts: u64 = refs.iter().map(|r| u64::from(r.parts)).sum();
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        notes: Vec::new(),
    };

    // 1. Socket passes, untraced and traced alternating.
    one_pass(
        ctx,
        workload,
        history,
        &wire[..wire.len().min(WARMUP_QUERIES)],
        false,
    )?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..SOCKET_PASSES {
        plain.push(one_pass(ctx, workload, history, &wire, false)?);
        traced.push(one_pass(ctx, workload, history, &wire, true)?);
    }
    for p in plain.iter().chain(&traced) {
        let c = check(workload, stream, &p.run, refs);
        out.attempted += stream.len() as u64;
        out.failed += c.failed;
        out.notes.extend(c.examples);
    }
    let med = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    let p50 = |p: &Pass| percentile_sorted(&p.latencies(), 0.5) as f64;
    let daemon_cpu_us = med(&traced, &|p| p.daemon_cpu_ns as f64 / n / 1e3);

    // 2. In-process replay through the public functions.
    let mut tracer = Tracer::new();
    let counts = replay_in_process(workload, history, stream, &mut tracer)?;
    let self_ns = tracer.self_times();
    let layer_us = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3;
    let named: f64 = self_ns
        .iter()
        .filter(|(k, _)| **k != "query")
        .map(|(_, v)| *v as f64 / 1e3)
        .sum();
    let q = counts.queries.max(1) as f64;
    let m = counts.misses.max(1) as f64;

    // Spans are written once the run is over.
    let mut tsv = String::from("# span\tparent\tquery\tname\tstart_ns\tend_ns\n");
    tracer.write_tsv(&mut tsv);
    tsv.push_str("# socket\tquery\tsubmit_ns\twritten_ns\taccepted_ns\tanswered_ns\n");
    if let Some(p) = traced.first() {
        for (i, s) in p.run.spans.iter().enumerate() {
            let _ = writeln!(
                tsv,
                "socket\t{i}\t{}\t{}\t{}\t{}",
                s.submit, s.written, s.accepted, s.answered
            );
        }
    }
    let span_file = ctx.work.join(format!(
        "spans-{}-{}.tsv",
        workload.name(),
        std::process::id()
    ));
    std::fs::write(&span_file, tsv).map_err(|e| format!("write {}: {e}", span_file.display()))?;
    out.notes
        .push(format!("spans written to {}", span_file.display()));

    // 3. Persistence.
    let (persist, replay_evictions) = persist_metrics(ctx, history)?;

    // The binary-ind defect probe, frontier only.
    let (ind_worst, ind_total) = if workload == Workload::FrontierCap {
        binary_ind_probe()?
    } else {
        (0.0, 0.0)
    };

    out.metrics = vec![
        Metric::one(
            "proto.codec_us_per_query",
            "us",
            layer_us("proto.codec") / q,
        ),
        Metric::one("proto.daemon_cpu_us_per_query", "us", daemon_cpu_us),
        Metric::one(
            "proto.unattributed_cpu_frac",
            "frac",
            1.0 - (named / q) / daemon_cpu_us.max(f64::MIN_POSITIVE),
        ),
        Metric::one(
            "batch.parse_us_per_query",
            "us",
            layer_us("batch.parse") / q,
        ),
        Metric::one("normalize.us_per_query", "us", layer_us("normalize") / q),
        Metric::one("canon.us_per_query", "us", layer_us("canon") / q),
        Metric::one(
            "canon.keys_per_structure",
            "count",
            keys_per_structure(stream),
        ),
        Metric::one("cache.us_per_query", "us", layer_us("cache") / q),
        Metric::one(
            "cache.hit_frac",
            "frac",
            med(&traced, &|p| p.hits() as f64) / parts.max(1) as f64,
        ),
        Metric::one(
            "cache.evictions",
            "count",
            med(&traced, &|p| stat(p, "evictions")) - replay_evictions as f64,
        ),
        Metric::one("classify.us_per_miss", "us", layer_us("classify") / m),
        Metric::one(
            "classify.terminating_frac",
            "frac",
            counts.terminating as f64 / m,
        ),
        Metric::one(
            "service.queue_wait_us_mean",
            "us",
            med(&traced, &|p| {
                stat(p, "h_queue_wait_sum") / stat(p, "h_queue_wait_count").max(1.0) / 1e3
            }),
        ),
        Metric::one(
            "service.run_time_us_mean",
            "us",
            med(&traced, &|p| {
                stat(p, "h_run_time_sum") / stat(p, "h_run_time_count").max(1.0) / 1e3
            }),
        ),
        Metric::one(
            "service.sweeps_per_query",
            "count",
            med(&traced, &|p| stat(p, "sweeps") / n),
        ),
        Metric::one(
            "service.parked",
            "count",
            med(&traced, &|p| stat(p, "parked")),
        ),
        Metric::one(
            "engine.task_build_us_per_miss",
            "us",
            layer_us("engine.build") / m,
        ),
        Metric::one(
            "engine.chase_us_per_miss",
            "us",
            layer_us("engine.chase") / m,
        ),
        Metric::one(
            "engine.us_per_round",
            "us",
            layer_us("engine.chase") / counts.chase_rounds.max(1) as f64,
        ),
        Metric::one(
            "engine.rounds_per_miss",
            "count",
            counts.chase_rounds as f64 / m,
        ),
        Metric::one("engine.rows_per_miss", "count", counts.rows as f64 / m),
        Metric::one("engine.merges_per_miss", "count", counts.merges as f64 / m),
        Metric::one(
            "engine.join_probe_hits_per_miss",
            "count",
            counts.join_probe_hits as f64 / m,
        ),
        Metric::one(
            "engine.worst_unit_ms",
            "ms",
            counts.worst_unit_ns as f64 / 1e6,
        ),
        Metric::one("engine.binary_ind_worst_unit_ms", "ms", ind_worst),
        Metric::one("engine.binary_ind_total_ms", "ms", ind_total),
        Metric::one("search.us_per_query", "us", layer_us("search") / q),
        Metric::one(
            "search.attempts_per_query",
            "count",
            counts.search_attempts as f64 / q,
        ),
        Metric::one("search.refutations", "count", counts.refutations as f64),
        Metric::one("fuel.per_query", "count", counts.fuel as f64 / q),
    ];
    out.metrics.extend(persist);
    // Tracing overhead: traced socket passes against untraced ones.
    out.metrics.push(Metric::one(
        "trace.qps_ratio",
        "ratio",
        med(&traced, &|p| p.qps()) / med(&plain, &|p| p.qps()),
    ));
    out.metrics.push(Metric::one(
        "trace.p50_ratio",
        "ratio",
        med(&traced, &p50) / med(&plain, &p50).max(1.0),
    ));
    out.notes.push(format!(
        "in-process replay: queries={} parts={} misses={} named_layers_us_per_query={:.2}",
        counts.queries,
        counts.parts,
        counts.misses,
        named / q
    ));
    out.correct = out.failed == 0;
    Ok(out)
}
