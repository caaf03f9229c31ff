//! Chase throughput measurement: semi-naive vs naive across saturation
//! and implication workloads, plus the service scenarios. Every row names
//! the variants it timed and the counters it reports. In `service_batch`
//! the variants are *sequential `decide`* vs *client (cached)* vs
//! *client (cached + workers)* over a cache-friendly query batch. In
//! `service_multi_submit` they are *sequential `decide` of the answerable
//! queries alone* vs *single-owner-style global sweeps* vs *sharded
//! multi-threaded submitters*, with a standing load of divergent
//! background jobs: the single-owner mode (the only shape the v1
//! `&mut self` API allowed) pays every background job a fuel slice on
//! every sweep, while sharded `wait` only steps the shard owning its job.
//! In `service_divergent_mix` they are *sequential decide mode* vs the
//! *adaptive dovetail* starting at 1:1 and at 3:1 over
//! refutable-but-divergent queries behind a decidable batch, all
//! fuel-capped: sequential expires to Unknown, dovetail refutes within
//! the cap. In `service_skewed_shards` distinct queries are either all
//! pinned to shard 0, which idle workers steal from, or routed by hash
//! (*skewed* vs *balanced*). In `service_socket_stream` a
//! cache-friendly text batch is decided three ways — *direct in-process
//! client submits* vs *one pipelined `typedtd-proto` socket client* vs
//! *N concurrent socket clients* over a live Unix-socket `ProtoServer` —
//! measuring the wire round-trip overhead; answer parity with sequential
//! `decide` is asserted for every variant, and in full mode the paired
//! single-client wire overhead is asserted ≤ 2× direct submits. In
//! `search_refutation` the finite-model search runs alone over
//! frontier-shaped queries and counts what it refutes and the attempts it
//! spent.
//!
//! Prints a table by default; with `--json` additionally writes
//! `BENCH_chase.json`: the host's CPU count, the git revision and the
//! command line, then one record per workload with each variant's
//! median, min and max nanoseconds over its samples and the workload's
//! named counters.
//!
//! Workload construction runs *outside* the timed region — only the chase
//! itself is measured. Each mode's runs are also parity-checked against
//! the naive reference (outcome, rounds, row count — answers, for the
//! service scenarios) before reporting.
//!
//! `--smoke` shrinks every workload to seconds-scale CI sizes: the
//! parity assertions all still run (so the bench path cannot silently
//! rot), the numbers are written to `BENCH_chase_smoke.json` instead, and
//! the real perf history in `BENCH_chase.json` is left untouched.
//!
//! `--compare OLD.json` then prints, against an earlier run's file, only
//! the changes larger than the recorded spread: a variant whose median
//! left the other run's min–max range (both ways round), and a paired
//! ratio that moved by more than the larger recorded half-width. The old
//! file is read before a `--json` run overwrites it.
//!
//! Usage: `cargo run --release -p typedtd-bench --bin chase_bench [--json] [--smoke]
//! [--compare OLD.json]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typedtd_bench::{
    divergent_saturation_workload, divergent_service_query, egd_cascade_workload,
    egd_saturation_workload, mvd_chain_instance, saturation_workload, service_batch_workload,
    shared_sigma_workload, universe, Query,
};
use typedtd_chase::{
    chase_implication, decide, is_counterexample, saturate, Answer, ChaseConfig, ChaseRun,
    DecideConfig, DecideMode, SearchConfig, SearchTask,
};
use typedtd_dependencies::{DependencyClass, Mvd, TdOrEgd};
use typedtd_relational::{AttrId, AttrSet, Relation, Universe, ValuePool};
use typedtd_service::{
    parse_query_line, parse_universe_spec, query_parts, ImplicationClient, JobHandle, JobStatus,
    PersistConfig, QuerySpec, ServiceConfig,
};

/// One timed variant of a workload: what ran, and the median, min and
/// max wall-clock time over its samples.
struct Variant {
    name: &'static str,
    samples: usize,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

impl Variant {
    fn new(name: &'static str, mut times: Vec<Duration>) -> Self {
        times.sort_unstable();
        Self {
            name,
            samples: times.len(),
            median_ns: times[times.len() / 2].as_nanos(),
            min_ns: times[0].as_nanos(),
            max_ns: times[times.len() - 1].as_nanos(),
        }
    }
}

/// One workload's row: the variants it timed and its named counters.
struct Record {
    workload: String,
    variants: Vec<Variant>,
    counters: Vec<(&'static str, usize)>,
}

/// Times `samples` runs of `routine` as variant `name`, with `setup`
/// excluded from the timed region (iter_batched-style). Returns the
/// variant and the last run's result.
fn time<I, R>(
    name: &'static str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> (Variant, R) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let input = setup();
        let t0 = Instant::now();
        last = Some(routine(input));
        times.push(t0.elapsed());
    }
    (Variant::new(name, times), last.expect("samples >= 1"))
}

/// Times `samples` rounds of `modes` modes, interleaved: every round runs
/// each mode once, and the in-round order rotates by one per round. Slow
/// drift (thermal, frequency, scheduler) then lands on every mode
/// equally, and no mode is systematically measured right after an
/// expensive one heats the core. `run(mode, round)` does its own untimed
/// setup and returns the timed duration and a result. Returns each mode's
/// times in round order (round `s` of two modes is a pair) and each
/// mode's last result.
fn time_interleaved<R>(
    modes: usize,
    samples: usize,
    mut run: impl FnMut(usize, usize) -> (Duration, R),
) -> (Vec<Vec<Duration>>, Vec<R>) {
    let mut times = vec![Vec::with_capacity(samples); modes];
    let mut last: Vec<Option<R>> = (0..modes).map(|_| None).collect();
    for s in 0..samples {
        for k in 0..modes {
            let m = (s + k) % modes;
            let (t, r) = run(m, s);
            times[m].push(t);
            last[m] = Some(r);
        }
    }
    let last = last.into_iter().map(|r| r.expect("samples >= 1"));
    (times, last.collect())
}

/// The statistic a paired floor tests: the median of the per-round
/// ratios `slow[s] / base[s]` over every `(slow, base)` series pair, and
/// its recorded spread, the half-width of the median's distribution-free
/// 95% confidence interval (the order statistics `n/2 ± 0.98·√n`). A
/// floor `ratio <= limit` fails only when the median exceeds `limit` by
/// more than the spread: noise widens the interval instead of tripping
/// the floor, and more pairs narrow it, so a regression of the floor's
/// own size still fails.
fn paired_ratio(pairs: &[(&[Duration], &[Duration])]) -> (f64, f64) {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .flat_map(|(slow, base)| {
            slow.iter()
                .zip(base.iter())
                .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64())
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (n, mid) = (ratios.len(), ratios.len() / 2);
    let h = (0.98 * (n as f64).sqrt()).ceil() as usize;
    let (lo, hi) = (ratios[mid.saturating_sub(h)], ratios[(mid + h).min(n - 1)]);
    (ratios[mid], (hi - lo) / 2.0)
}

type Workload = (Relation, Vec<TdOrEgd>, ValuePool);

/// Measures one saturation workload under the naive and semi-naive
/// configs, asserting outcome + rounds + row-count parity between them.
///
/// The applied-trigger prefix in a budget-truncating round may differ
/// between modes, so parity here is deliberately not up-to-isomorphism
/// (that stronger check lives in `tests/seminaive_parity.rs`).
fn measure_saturation(
    workload: String,
    samples: usize,
    mut make: impl FnMut() -> Workload,
) -> Record {
    let modes = [
        ("naive", ChaseConfig::default().with_semi_naive(false)),
        ("semi", ChaseConfig::default()),
    ];
    let (times, runs) = time_interleaved(modes.len(), samples, |m, _| {
        let (init, sigma, mut pool) = make();
        let t0 = Instant::now();
        let run = saturate(&init, &sigma, &mut pool, &modes[m].1);
        (t0.elapsed(), run)
    });
    let [run_n, run_s]: [ChaseRun; 2] = runs.try_into().expect("two modes");
    assert_eq!(run_n.outcome, run_s.outcome, "semi parity violated");
    assert_eq!(run_n.rounds, run_s.rounds, "semi parity violated");
    assert_eq!(
        run_n.final_relation.len(),
        run_s.final_relation.len(),
        "semi parity violated"
    );
    let [tn, ts]: [Vec<Duration>; 2] = times.try_into().expect("two modes");
    Record {
        workload,
        variants: vec![Variant::new(modes[0].0, tn), Variant::new(modes[1].0, ts)],
        counters: vec![
            ("rows", run_s.final_relation.len()),
            ("rounds", run_s.rounds),
        ],
    }
}

/// As [`measure_saturation`] but chasing a goal (`chase_implication`).
fn measure_implication(len: usize, samples: usize) -> Record {
    let make = || {
        let u = universe(len + 1);
        let mut pool = ValuePool::new(u.clone());
        let (sigma, goal) = mvd_chain_instance(&u, &mut pool, len);
        (sigma, goal, pool)
    };
    let run = |cfg: ChaseConfig, (sigma, goal, mut pool): (Vec<TdOrEgd>, TdOrEgd, ValuePool)| {
        chase_implication(&sigma, &goal, &mut pool, &cfg)
    };
    let (naive, run_n) = time("naive", samples, make, |w| {
        run(ChaseConfig::default().with_semi_naive(false), w)
    });
    let (semi, run_s) = time("semi", samples, make, |w| run(ChaseConfig::default(), w));
    assert_eq!(run_n.outcome, run_s.outcome, "semi parity violated");
    assert_eq!(run_n.rounds, run_s.rounds, "semi parity violated");
    Record {
        workload: format!("implication/mvd_chain{len}"),
        variants: vec![naive, semi],
        counters: vec![
            ("rows", run_s.final_relation.len()),
            ("rounds", run_s.rounds),
        ],
    }
}

/// Runs the batch through the service, returning answers in submission
/// order plus how many were served without fresh work.
fn run_service(queries: Vec<Query>, workers: usize) -> (Vec<Answer>, u64) {
    let client = ImplicationClient::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let jobs: Vec<JobHandle> = queries
        .into_iter()
        .map(|(sigma, goal, pool)| client.submit(QuerySpec::new(sigma, goal, pool)))
        .collect();
    client.run_to_completion();
    assert_ledger(&client);
    let answers = jobs.iter().map(answer_of).collect();
    let s = client.stats();
    (answers, s.cache_hits + s.coalesced + s.goal_in_sigma)
}

/// Every service scenario ends here once its client is quiescent: the
/// ledger identities of [`typedtd_service::ServiceStats::check`] hold.
fn assert_ledger(client: &ImplicationClient) {
    if let Err(e) = client.stats().check() {
        panic!("ledger identities violated: {e}");
    }
}

fn answer_of(job: &JobHandle) -> Answer {
    match job.poll() {
        JobStatus::Done(outcome) => outcome.implication,
        JobStatus::Pending => unreachable!("driver resolves every job"),
        JobStatus::Cancelled => unreachable!("nothing here cancels"),
        JobStatus::Retired => unreachable!("handle is alive"),
    }
}

/// Budgets for the standing divergent background jobs: huge chase budget
/// (they must stay in flight for the whole measurement), no search.
fn background_decide_cfg() -> DecideConfig {
    DecideConfig {
        chase: ChaseConfig {
            max_rounds: 1 << 20,
            max_rows: 1 << 22,
            max_steps: 1 << 26,
            ..ChaseConfig::default()
        },
        skip_search: true,
        ..DecideConfig::default()
    }
}

/// v1-style single owner: one thread submits everything, then drives
/// *global* sweeps until every answerable job is done. Every sweep hands
/// every divergent background job a fuel slice — the tax the exclusive
/// `&mut self` API design forced on every caller.
fn run_single_owner(answerable: Vec<Query>, background: Vec<Query>) -> Vec<Answer> {
    let client = ImplicationClient::new(ServiceConfig::default());
    let bg: Vec<JobHandle> = background
        .into_iter()
        .map(|(s, g, p)| {
            client.submit(QuerySpec::new(s, g, p).decide_config(background_decide_cfg()))
        })
        .collect();
    let fg: Vec<JobHandle> = answerable
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p)))
        .collect();
    while fg.iter().any(|h| matches!(h.poll(), JobStatus::Pending)) {
        client.tick();
    }
    let answers = fg.iter().map(answer_of).collect();
    drop(bg); // retire the still-running background jobs
    assert_ledger(&client);
    answers
}

/// Sharded multi-threaded submitters: `threads` clones of the client each
/// submit a round-robin slice of the workload, then block on their own
/// answerable handles with `wait` — which steps *only the shard owning
/// each job*, so background jobs elsewhere cost nothing, and a shard
/// stops being driven the moment its last answerable job lands.
fn run_multi_submit(answerable: Vec<Query>, background: Vec<Query>, threads: usize) -> Vec<Answer> {
    let client = ImplicationClient::new(ServiceConfig::default());
    let mut fg_chunks: Vec<Vec<(usize, Query)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, q) in answerable.into_iter().enumerate() {
        fg_chunks[i % threads].push((i, q));
    }
    let mut bg_chunks: Vec<Vec<Query>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, q) in background.into_iter().enumerate() {
        bg_chunks[i % threads].push(q);
    }
    let mut indexed: Vec<(usize, Answer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = fg_chunks
            .into_iter()
            .zip(bg_chunks)
            .map(|(fg, bg)| {
                let client = client.clone();
                scope.spawn(move || {
                    let _bg: Vec<JobHandle> = bg
                        .into_iter()
                        .map(|(s, g, p)| {
                            client.submit(
                                QuerySpec::new(s, g, p).decide_config(background_decide_cfg()),
                            )
                        })
                        .collect();
                    let jobs: Vec<(usize, JobHandle)> = fg
                        .into_iter()
                        .map(|(i, (s, g, p))| (i, client.submit(QuerySpec::new(s, g, p))))
                        .collect();
                    jobs.into_iter()
                        .map(|(i, job)| (i, job.wait().implication))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_ledger(&client);
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, a)| a).collect()
}

/// The acceptance scenario: a cache-friendly batch decided three ways —
/// naive sequential `decide`, the service, the service with worker
/// threads. Answers must agree position-for-position.
fn measure_service_batch(distinct: usize, renamings: usize, samples: usize) -> Record {
    let make = || service_batch_workload(distinct, renamings, 1982);
    let decide_all = |queries: Vec<Query>| -> Vec<Answer> {
        queries
            .into_iter()
            .map(|(sigma, goal, mut pool)| {
                decide(&sigma, &goal, &mut pool, &DecideConfig::default()).implication
            })
            .collect()
    };
    let (seq, seq_answers) = time("sequential_decide", samples, make, decide_all);
    let (svc, (svc_answers, served_free)) =
        time("client_1_worker", samples, make, |q| run_service(q, 1));
    let (par, (par_answers, _)) = time("client_4_workers", samples, make, |q| run_service(q, 4));
    assert_eq!(seq_answers, svc_answers, "service parity violated");
    assert_eq!(seq_answers, par_answers, "worker-service parity violated");
    assert!(
        seq_answers.iter().all(|a| *a != Answer::Unknown),
        "batch must be fully decidable so the comparison is apples-to-apples"
    );
    Record {
        workload: format!("service_batch/d{distinct}xr{renamings}"),
        variants: vec![seq, svc, par],
        counters: vec![
            ("jobs", seq_answers.len()),
            ("served_free", served_free as usize),
        ],
    }
}

/// The shared-state acceptance scenario: a cache-friendly answerable
/// batch decided under a standing load of `background` divergent jobs —
/// naive sequential `decide` of the answerable queries alone (the
/// reference), v1-style single-owner global sweeps, and sharded
/// multi-threaded submitters. Answers must agree position-for-position.
fn measure_multi_submit(
    distinct: usize,
    renamings: usize,
    background: usize,
    threads: usize,
    samples: usize,
) -> Record {
    let make = || {
        let fg = service_batch_workload(distinct, renamings, 77);
        let bg: Vec<Query> = (0..background).map(divergent_service_query).collect();
        (fg, bg)
    };
    let decide_all = |queries: Vec<Query>| -> Vec<Answer> {
        queries
            .into_iter()
            .map(|(sigma, goal, mut pool)| {
                decide(&sigma, &goal, &mut pool, &DecideConfig::default()).implication
            })
            .collect()
    };
    let (seq, seq_answers) = time("sequential_decide", samples, &make, |(fg, _)| {
        decide_all(fg)
    });
    let (single, single_answers) = time("single_owner", samples, &make, |(fg, bg)| {
        run_single_owner(fg, bg)
    });
    let (multi, multi_answers) = time("multi_submit", samples, &make, |(fg, bg)| {
        run_multi_submit(fg, bg, threads)
    });
    assert_eq!(seq_answers, single_answers, "single-owner parity violated");
    assert_eq!(seq_answers, multi_answers, "multi-submitter parity violated");
    assert!(
        seq_answers.iter().all(|a| *a != Answer::Unknown),
        "answerable batch must be fully decidable so the comparison is apples-to-apples"
    );
    Record {
        workload: format!("service_multi_submit/d{distinct}xr{renamings}+bg{background}x{threads}t"),
        variants: vec![seq, single, multi],
        counters: vec![
            ("answerable_jobs", seq_answers.len()),
            ("background_jobs", background),
        ],
    }
}

/// Per-job fuel cap for the divergent-mix scenario: far below the chase
/// budget (so sequential mode expires to Unknown) yet roomy enough for
/// the dovetailed search to find each 2-row refutation.
const MIX_FUEL_CAP: u64 = 512;

/// Decide budgets for refutable-but-divergent queries: an effectively
/// unbounded chase (the per-job cap is the real limit), search enabled,
/// phase scheduling per `mode`.
fn divergent_mix_cfg(mode: DecideMode) -> DecideConfig {
    DecideConfig {
        chase: ChaseConfig {
            max_rounds: 1 << 20,
            max_rows: 1 << 22,
            max_steps: 1 << 26,
            ..ChaseConfig::default()
        },
        mode,
        ..DecideConfig::default()
    }
}

/// Runs a decidable foreground batch plus capped refutable-but-divergent
/// queries under one decide mode; returns both answer vectors in
/// submission order.
fn run_divergent_mix(
    fg: Vec<Query>,
    divergent: Vec<Query>,
    mode: DecideMode,
) -> (Vec<Answer>, Vec<Answer>) {
    let client = ImplicationClient::new(ServiceConfig {
        decide: divergent_mix_cfg(mode),
        ..ServiceConfig::default()
    });
    let fg_jobs: Vec<JobHandle> = fg
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p)))
        .collect();
    let div_jobs: Vec<JobHandle> = divergent
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p).fuel_cap(MIX_FUEL_CAP)))
        .collect();
    client.run_to_completion();
    assert_ledger(&client);
    (
        fg_jobs.iter().map(answer_of).collect(),
        div_jobs.iter().map(answer_of).collect(),
    )
}

/// The dovetail acceptance scenario: refutable goals behind divergent
/// chases, all fuel-capped. Sequential mode spends every capped unit on
/// the chase and expires to Unknown; the adaptive dovetail answers each
/// query `No` from the search phase within the same cap. Columns:
/// sequential / adaptive starting at 1:1 / adaptive starting at 3:1.
/// Decidable foreground answers must agree across all modes (parity
/// ignoring Unknowns).
fn measure_divergent_mix(
    distinct: usize,
    renamings: usize,
    divergent: usize,
    samples: usize,
) -> Record {
    let make = || {
        let fg = service_batch_workload(distinct, renamings, 4242);
        let dv: Vec<Query> = (0..divergent).map(divergent_service_query).collect();
        (fg, dv)
    };
    let (seq, (seq_fg, seq_div)) = time("sequential", samples, &make, |(fg, dv)| {
        run_divergent_mix(fg, dv, DecideMode::Sequential)
    });
    let (dov, (dov_fg, dov_div)) = time("adaptive_1to1", samples, &make, |(fg, dv)| {
        run_divergent_mix(fg, dv, DecideMode::adaptive_dovetail(1))
    });
    let (dov3, (dov3_fg, dov3_div)) = time("adaptive_3to1", samples, &make, |(fg, dv)| {
        run_divergent_mix(fg, dv, DecideMode::adaptive_dovetail(3))
    });
    assert_eq!(seq_fg, dov_fg, "dovetail parity violated on decidable batch");
    assert_eq!(seq_fg, dov3_fg, "dovetail 3:1 parity violated on decidable batch");
    assert!(
        seq_fg.iter().all(|a| *a != Answer::Unknown),
        "foreground batch must be fully decidable"
    );
    assert!(
        seq_div.iter().all(|a| *a == Answer::Unknown),
        "sequential must burn its cap on the divergent chase"
    );
    for (mode, answers) in [("1:1", &dov_div), ("3:1", &dov3_div)] {
        assert!(
            answers.iter().all(|a| *a == Answer::No),
            "adaptive dovetail {mode} must refute every divergent query within the cap"
        );
    }
    Record {
        workload: format!("service_divergent_mix/d{distinct}xr{renamings}+dv{divergent}"),
        variants: vec![seq, dov, dov3],
        counters: vec![
            ("jobs", seq_fg.len() + seq_div.len()),
            ("refuted", dov_div.len()),
        ],
    }
}

/// The heterogeneous acceptance corpus: fd/mvd/pjd goals next to
/// independence atoms and inclusion dependencies, written in the batch
/// surface syntax. The `true`-flagged lines are refutable goals behind a
/// divergent fd+ind chase (the undecidable regime): fuel-capped, they
/// expire to Unknown sequentially while the adaptive dovetail refutes
/// them from the finite-model search.
const MIXED_CLASS_CORPUS: &[(&str, &str, bool)] = &[
    ("A B C", "A -> B & B -> C |= A -> C", false),
    ("A B C", "A -> B |= B -> A", false),
    ("A B C", "A -> C |= A ->> C", false),
    // Not `A -> B |= *[AB, AC]`: that whole query is isomorphic (swap
    // B and C) to the mvd line above, and the canonical cache would
    // legitimately coalesce them — the pjd class would never miss.
    ("A B C", "A -> B & B -> C |= *[AB, BC]", false),
    ("A B C", "A _|_ BC |= A _|_ B", false),
    ("A B C", "AB _|_ BC |= A -> B", false),
    ("untyped A B C", "[AB] <= [BC] & [BC] <= [CA] |= [AB] <= [CA]", false),
    ("untyped A B C", "[AB] <= [BC] & B -> C |= A -> B", false),
    ("untyped A B C", "[A] <= [B] |= [B] <= [A]", true),
    ("untyped A B C", "[A] <= [B] |= B -> C", true),
];

/// One parsed-and-normalized corpus line, ready to submit: the goal's
/// surface class, its divergence flag, and one `(Σ, part, pool)` query
/// per normalized goal part.
struct MixedLine {
    class: DependencyClass,
    divergent: bool,
    parts: Vec<Query>,
}

fn mixed_class_lines() -> Vec<MixedLine> {
    MIXED_CLASS_CORPUS
        .iter()
        .map(|(uspec, line, divergent)| {
            let u = parse_universe_spec(uspec).expect("corpus universe");
            let mut pool = ValuePool::new(u.clone());
            let (sigma, goal) =
                parse_query_line(&u, &mut pool, line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let mut sigma_normal = Vec::new();
            for d in &sigma {
                sigma_normal.extend(d.try_normalize(&u, &mut pool).expect("corpus sigma"));
            }
            let class = goal.class();
            let parts = goal
                .try_normalize(&u, &mut pool)
                .expect("corpus goal")
                .into_iter()
                .map(|part| (sigma_normal.clone(), part, pool.clone()))
                .collect();
            MixedLine {
                class,
                divergent: *divergent,
                parts,
            }
        })
        .collect()
}

/// Submits the mixed-class corpus twice (draining in between, so the
/// second round probes a warm cache) under one decide mode; returns the
/// per-line folded first-round answers split decidable/divergent, plus
/// the final stats.
fn run_mixed_class(
    mode: DecideMode,
) -> (Vec<Answer>, Vec<Answer>, typedtd_service::ServiceStats) {
    let client = ImplicationClient::new(ServiceConfig {
        decide: divergent_mix_cfg(mode),
        ..ServiceConfig::default()
    });
    let submit_round = |lines: Vec<MixedLine>| -> Vec<(DependencyClass, bool, Vec<JobHandle>)> {
        lines
            .into_iter()
            .map(|l| {
                let jobs = l
                    .parts
                    .into_iter()
                    .map(|(s, g, p)| {
                        let mut spec = QuerySpec::new(s, g, p).goal_class(l.class);
                        if l.divergent {
                            spec = spec.fuel_cap(MIX_FUEL_CAP);
                        }
                        client.submit(spec)
                    })
                    .collect();
                (l.class, l.divergent, jobs)
            })
            .collect()
    };
    let round1 = submit_round(mixed_class_lines());
    client.run_to_completion();
    let _round2 = submit_round(mixed_class_lines());
    client.run_to_completion();
    assert_ledger(&client);
    let fold = |jobs: &[JobHandle]| {
        jobs.iter()
            .map(answer_of)
            .fold(Answer::Yes, |acc, a| acc.and(a))
    };
    let mut decidable = Vec::new();
    let mut divergent = Vec::new();
    for (_, dv, jobs) in &round1 {
        if *dv {
            divergent.push(fold(jobs));
        } else {
            decidable.push(fold(jobs));
        }
    }
    (decidable, divergent, client.stats())
}

/// The heterogeneous-workload acceptance scenario. Asserts, per decide
/// mode (sequential / adaptive dovetail):
///
/// * decidable answers agree across both modes, with no Unknowns;
/// * the fuel-capped divergent fd+ind queries expire to `Unknown`
///   sequentially but are refuted (`No`) by the adaptive dovetail;
/// * per-class cache accounting balances exactly on the dovetail run:
///   every class sees `submitted = 2 × parts`, `misses = parts` (round
///   one), `hits = parts` (round two), i.e. a 0.50 per-class hit rate.
fn measure_service_mixed_class(samples: usize) -> Record {
    let expected: [u64; DependencyClass::COUNT] = {
        let mut counts = [0u64; DependencyClass::COUNT];
        for l in mixed_class_lines() {
            counts[l.class.index()] += l.parts.len() as u64;
        }
        counts
    };
    let mixed = |name, mode| time(name, samples, || (), |()| run_mixed_class(mode));
    let (seq, (seq_dec, seq_div, _)) = mixed("sequential", DecideMode::Sequential);
    let adaptive = DecideMode::adaptive_dovetail(1);
    let (ad, (ad_dec, ad_div, ad_stats)) = mixed("adaptive_dovetail", adaptive);
    assert_eq!(seq_dec, ad_dec, "mixed-class adaptive parity violated");
    assert!(
        seq_dec.iter().all(|a| *a != Answer::Unknown),
        "decidable mixed-class lines must all resolve"
    );
    assert!(
        !seq_div.is_empty() && seq_div.iter().all(|a| *a == Answer::Unknown),
        "sequential must expire every fuel-capped divergent fd+ind query"
    );
    assert!(
        ad_div.iter().all(|a| *a == Answer::No),
        "adaptive must refute every divergent fd+ind query within the cap"
    );
    let mut classes_seen = 0usize;
    for c in DependencyClass::ALL {
        let i = c.index();
        if expected[i] == 0 {
            continue;
        }
        classes_seen += 1;
        assert_eq!(
            ad_stats.class_submitted[i],
            2 * expected[i],
            "class {} submissions",
            c.as_str()
        );
        assert_eq!(
            ad_stats.class_cache_misses[i],
            expected[i],
            "class {} round-one misses",
            c.as_str()
        );
        assert_eq!(
            ad_stats.class_cache_hits[i],
            expected[i],
            "class {} round-two hits",
            c.as_str()
        );
        assert!(
            (ad_stats.class_hit_rate(c) - 0.5).abs() < 1e-9,
            "class {} hit rate",
            c.as_str()
        );
    }
    assert!(
        classes_seen >= 4,
        "corpus must exercise at least fd, mvd/pjd, ind, and atom goals"
    );
    Record {
        workload: format!("service_mixed_class/lines{}", MIXED_CLASS_CORPUS.len()),
        variants: vec![seq, ad],
        counters: vec![
            ("submissions", expected.iter().sum::<u64>() as usize * 2),
            ("classes", classes_seen),
        ],
    }
}

/// Frontier-shaped queries for the `search_refutation` row: fds plus one
/// unary ind asked for an unimplied fd or ind, and successor tds (every
/// row demands another, so the chase never stops) asked for an egd. Each
/// has a counterexample of two or three rows. The last line is the
/// control: Casanova–Fagin–Papadimitriou's query is finitely implied, so
/// no finite counterexample exists.
const SEARCH_CORPUS: &[(&str, &str)] = &[
    ("untyped A B C", "A -> B & [A] <= [C] |= B -> A"),
    ("untyped A B C D", "A -> B & C -> D & [B] <= [C] |= A -> D"),
    ("untyped A B C", "A -> B & [A] <= [B] |= [C] <= [A]"),
    ("untyped A B C D", "B -> C & [D] <= [A] |= [A] <= [D]"),
    ("untyped A B C D", "AB -> C & [C] <= [D] |= C -> A"),
    (
        "untyped A B C",
        "td [x y z] => y q1 q2 |= egd [x y1 z1 ; x y2 z2] => y1 = y2",
    ),
    (
        "untyped A B C D",
        "td [x y z w] => x z q w |= egd [x1 y1 z w ; x2 y2 z w] => y1 = y2",
    ),
    (
        "untyped A B C",
        "td [x y z] => z q y |= egd [x y z1 ; x2 y z2] => z1 = z2",
    ),
    ("untyped A B C", "A -> B & [A] <= [B] |= [B] <= [A]"),
];

/// Times the finite-model search alone (`SearchTask`, default config)
/// over [`SEARCH_CORPUS`], every goal part of every line. Asserts that
/// every witness is a counterexample, that every line but the last is
/// refuted, and that the control ends with no witness. Counters: lines
/// refuted and the attempts all searches spent.
fn measure_search_refutation(samples: usize) -> Record {
    let lines = || -> Vec<(Arc<Universe>, Vec<Query>)> {
        SEARCH_CORPUS
            .iter()
            .map(|(uspec, line)| {
                let u = parse_universe_spec(uspec).expect("corpus universe");
                let mut pool = ValuePool::new(u.clone());
                let (sigma, goal) =
                    parse_query_line(&u, &mut pool, line).unwrap_or_else(|e| panic!("{line}: {e}"));
                let mut sigma_normal = Vec::new();
                for d in &sigma {
                    sigma_normal.extend(d.try_normalize(&u, &mut pool).expect("corpus sigma"));
                }
                let parts = goal
                    .try_normalize(&u, &mut pool)
                    .expect("corpus goal")
                    .into_iter()
                    .map(|part| (sigma_normal.clone(), part, pool.clone()))
                    .collect();
                (u, parts)
            })
            .collect()
    };
    let (search, (witnesses, attempts)) = time("search", samples, &lines, |lines| {
        let mut attempts = 0u64;
        let witnesses: Vec<Vec<Option<Relation>>> = lines
            .into_iter()
            .map(|(u, parts)| {
                parts
                    .into_iter()
                    .map(|(sigma, goal, pool)| {
                        let mut task =
                            SearchTask::new(sigma, goal, u.clone(), pool, SearchConfig::default());
                        task.run_to_completion();
                        attempts += task.attempts_done();
                        task.finish().0
                    })
                    .collect()
            })
            .collect();
        (witnesses, attempts)
    });
    for (((_, line), (_, parts)), found) in SEARCH_CORPUS.iter().zip(lines()).zip(&witnesses) {
        for ((sigma, goal, _), witness) in parts.iter().zip(found) {
            if let Some(rel) = witness {
                assert!(
                    is_counterexample(rel, sigma, goal),
                    "{line}: witness is no counterexample"
                );
            }
        }
    }
    let refuted: Vec<bool> = witnesses
        .iter()
        .map(|found| found.iter().any(Option::is_some))
        .collect();
    let (control, refutable) = refuted.split_last().expect("nonempty corpus");
    assert!(
        !control,
        "the finitely implied control must end with no witness"
    );
    for ((_, line), r) in SEARCH_CORPUS.iter().zip(refutable) {
        assert!(*r, "the search must refute {line}");
    }
    Record {
        workload: format!("search_refutation/q{}", SEARCH_CORPUS.len()),
        variants: vec![search],
        counters: vec![
            ("refuted", refutable.iter().filter(|r| **r).count()),
            ("attempts", attempts as usize),
        ],
    }
}

/// Runs the divergent-mix workload (adaptive dovetail from 1:1) with
/// telemetry on or off; returns both answer vectors in submission order.
fn run_telemetry_mix(
    fg: Vec<Query>,
    divergent: Vec<Query>,
    metrics: bool,
) -> (Vec<Answer>, Vec<Answer>) {
    let client = ImplicationClient::new(ServiceConfig {
        decide: divergent_mix_cfg(DecideMode::adaptive_dovetail(1)),
        metrics,
        ..ServiceConfig::default()
    });
    let fg_jobs: Vec<JobHandle> = fg
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p)))
        .collect();
    let div_jobs: Vec<JobHandle> = divergent
        .into_iter()
        .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p).fuel_cap(MIX_FUEL_CAP)))
        .collect();
    client.run_to_completion();
    assert_ledger(&client);
    if metrics {
        // The record path must actually have recorded: one latency
        // sample per submission, or the "overhead" being measured is a
        // disabled no-op.
        let t = client.telemetry_snapshot();
        assert_eq!(
            t.latency_count(),
            client.stats().submitted,
            "telemetry must record one latency sample per submission"
        );
    }
    (
        fg_jobs.iter().map(answer_of).collect(),
        div_jobs.iter().map(answer_of).collect(),
    )
}

/// Telemetry overhead: the identical divergent-mix workload with
/// `ServiceConfig::metrics` on / off / on again (columns in that
/// order), interleaved round by round. Answers must agree exactly across
/// all three modes, and when `assert_overhead` is set (the full suite;
/// smoke samples are too few) the paired metrics-on / metrics-off ratio
/// must stay within 5% plus its spread ([`paired_ratio`]) — the
/// histogram record path is three relaxed `fetch_add`s plus two
/// `Instant` reads per landing, and this is the regression net that
/// keeps it that way.
fn measure_telemetry_overhead(
    distinct: usize,
    renamings: usize,
    divergent: usize,
    samples: usize,
    assert_overhead: bool,
) -> Record {
    let modes = [
        ("metrics_on", true),
        ("metrics_off", false),
        ("metrics_on_again", true),
    ];
    let (times, answers) = time_interleaved(modes.len(), samples, |m, _| {
        let fg = service_batch_workload(distinct, renamings, 4242);
        let dv: Vec<Query> = (0..divergent).map(divergent_service_query).collect();
        let t0 = Instant::now();
        let answers = run_telemetry_mix(fg, dv, modes[m].1);
        (t0.elapsed(), answers)
    });
    let [(on_fg, on_div), (off_fg, off_div), (on2_fg, on2_div)]: [(Vec<Answer>, Vec<Answer>); 3] =
        answers.try_into().expect("three modes");
    assert_eq!(on_fg, off_fg, "telemetry must not change foreground answers");
    assert_eq!(on_div, off_div, "telemetry must not change divergent answers");
    assert_eq!(on_fg, on2_fg, "metrics-on reruns must agree");
    assert_eq!(on_div, on2_div, "metrics-on reruns must agree");
    let [on, off, on2]: [Vec<Duration>; 3] = times.try_into().expect("three modes");
    let (ratio, spread) = paired_ratio(&[(&on, &off), (&on2, &off)]);
    if assert_overhead {
        assert!(
            ratio <= 1.05 + spread,
            "telemetry overhead above 5%: paired on/off ratio {ratio:.3} \
             (spread {spread:.3}) over {} pairs",
            2 * samples
        );
    }
    Record {
        workload: format!("service_telemetry_overhead/d{distinct}xr{renamings}+dv{divergent}"),
        variants: modes
            .iter()
            .zip([on, off, on2])
            .map(|((name, _), t)| Variant::new(name, t))
            .collect(),
        counters: vec![
            ("jobs", on_fg.len() + on_div.len()),
            ("divergent_jobs", divergent),
            ("paired_ratio_x1000", (ratio * 1000.0).round() as usize),
            ("paired_spread_x1000", (spread * 1000.0).round() as usize),
        ],
    }
}

/// Fuel cap for the skew scenario's divergent ballast jobs: enough
/// slices that the hot shard's queue stays deep for the whole run (so
/// idle workers reliably wake and steal), small enough to finish fast.
const SKEW_BALLAST_CAP: u64 = 2048;

/// `n` decidable queries the service really runs: two or three mvds over
/// a typed five-column universe, asked for a third. Each mvd splits the
/// columns into three nonempty blocks drawn from `seed`. A draw whose
/// canonical key repeats an earlier one, or whose goal is an element of
/// Σ, is redrawn, so no job is answered from the cache or the goal-in-Σ
/// fast path.
fn distinct_mvd_queries(n: usize, seed: u64) -> Vec<Query> {
    use rand::{RngExt, SeedableRng};
    let u = universe(5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut pool = ValuePool::new(u.clone());
        let members = rng.random_range(2..4usize);
        let mut deps: Vec<TdOrEgd> = Vec::with_capacity(members + 1);
        while deps.len() <= members {
            let block: Vec<usize> = (0..5).map(|_| rng.random_range(0..3usize)).collect();
            let side = |b| -> AttrSet {
                (0..5u16).filter(|&c| block[c as usize] == b).map(AttrId).collect()
            };
            if (0..3).all(|b| !side(b).is_empty()) {
                let mvd = Mvd::new(u.clone(), side(0), side(1));
                deps.push(TdOrEgd::Td(mvd.to_pjd().to_td(&u, &mut pool)));
            }
        }
        let goal = deps.pop().expect("Σ plus a goal were drawn");
        let parts = query_parts(&deps, &goal);
        if !parts.sigma_keys.contains(&parts.goal_key) && seen.insert(parts.key) {
            out.push((deps, goal, pool));
        }
    }
    out
}

/// Runs a decidable batch plus capped divergent ballast through a
/// 4-shard, 4-worker client; `pin` forces every job onto shard 0 (the
/// deliberately skewed assignment). Returns the decidable answers (in
/// submission order) and the steal count.
fn run_skewed(queries: Vec<Query>, ballast: Vec<Query>, pin: bool) -> (Vec<Answer>, u64) {
    let client = ImplicationClient::new(ServiceConfig {
        shards: 4,
        workers: 4,
        ..ServiceConfig::default()
    });
    let place = |spec: QuerySpec| if pin { spec.pin_shard(0) } else { spec };
    let jobs: Vec<JobHandle> = queries
        .into_iter()
        .map(|(s, g, p)| client.submit(place(QuerySpec::new(s, g, p))))
        .collect();
    let ballast_jobs: Vec<JobHandle> = ballast
        .into_iter()
        .map(|(s, g, p)| {
            client.submit(place(
                QuerySpec::new(s, g, p)
                    .decide_config(divergent_mix_cfg(DecideMode::Sequential))
                    .fuel_cap(SKEW_BALLAST_CAP),
            ))
        })
        .collect();
    client.run_to_completion();
    assert_ledger(&client);
    let stats = client.stats();
    let submitted = (jobs.len() + ballast_jobs.len()) as u64;
    assert_eq!(stats.cache_misses, submitted, "every skew job must really run");
    let answers = jobs.iter().map(answer_of).collect();
    for b in &ballast_jobs {
        assert_eq!(answer_of(b), Answer::Unknown, "ballast must expire on its cap");
    }
    (answers, stats.steals)
}

/// The work-stealing acceptance scenario: every job pinned to shard 0.
/// Columns: skewed (idle workers steal slices from the deep queue) / the
/// balanced hash-routed assignment as the reference. Answer parity
/// against sequential `decide` is asserted for both; the skewed
/// wall-clock must stay within 1.5× of balanced (asserted outside smoke
/// mode, where sizes are too small for stable ratios).
fn measure_skewed_steal(jobs: usize, ballast: usize, samples: usize, assert_ratio: bool) -> Record {
    let make = || {
        let fg = distinct_mvd_queries(jobs, 2024);
        let bal: Vec<Query> = (0..ballast).map(divergent_service_query).collect();
        (fg, bal)
    };
    let reference: Vec<Answer> = make()
        .0
        .into_iter()
        .map(|(sigma, goal, mut pool)| {
            decide(&sigma, &goal, &mut pool, &DecideConfig::default()).implication
        })
        .collect();
    assert!(!reference.contains(&Answer::Unknown), "the skew batch must be decidable");
    let (skewed, (skewed_answers, steals)) = time("skewed", samples, &make, |(q, b)| {
        run_skewed(q, b, true)
    });
    let (bal, (bal_answers, _)) = time("balanced", samples, &make, |(q, b)| {
        run_skewed(q, b, false)
    });
    let (skewed_ns, balanced_ns) = (skewed.median_ns, bal.median_ns);
    assert_eq!(reference, skewed_answers, "skewed parity violated");
    assert_eq!(reference, bal_answers, "balanced parity violated");
    assert!(steals > 0, "skewed assignment must trigger stealing");
    if assert_ratio {
        assert!(
            skewed_ns as f64 <= 1.5 * balanced_ns as f64,
            "stealing must keep the skewed assignment within 1.5x of balanced \
             (skewed {skewed_ns}ns vs balanced {balanced_ns}ns)"
        );
    }
    Record {
        workload: format!("service_skewed_shards/j{jobs}+b{ballast}x4w"),
        variants: vec![skewed, bal],
        counters: vec![("jobs", jobs + ballast), ("steals", steals as usize)],
    }
}

/// The textual cache-friendly batch for the socket scenario: `distinct`
/// fd/mvd-chain structures over `A B C D`, each submitted `repeats`
/// times with Σ rotated (same canonical key, so resubmissions hit the
/// cache/coalesce server-side). Returns `(universe, query)` pairs.
fn socket_corpus(distinct: usize, repeats: usize) -> Vec<(String, String)> {
    let structures: [(&[&str], &str); 6] = [
        (&["A -> B", "B -> C"], "A -> C"),
        (&["A ->> B", "B ->> C"], "A ->> C"),
        (&["A -> B", "B -> C", "C -> D"], "A -> D"),
        (&["A ->> B", "B ->> C", "C ->> D"], "A ->> D"),
        (&["A -> B", "B -> C"], "C -> A"),
        (&["A ->> B", "B ->> C"], "A -> C"),
    ];
    let mut corpus = Vec::with_capacity(distinct * repeats);
    for d in 0..distinct {
        let (deps, goal) = structures[d % structures.len()];
        for r in 0..repeats {
            let mut sigma: Vec<&str> = deps.to_vec();
            let rot = r % sigma.len();
            sigma.rotate_left(rot);
            corpus.push(("A B C D".to_string(), format!("{} |= {goal}", sigma.join(" & "))));
        }
    }
    corpus
}

/// Decides the socket corpus in-process through `submit_batch` (the
/// direct client path the wire columns are measured against). Returns
/// the per-query implication answers in corpus order.
fn run_direct_batch(corpus: &[(String, String)]) -> Vec<Answer> {
    let mut text = String::from("@universe A B C D\n");
    for (_, query) in corpus {
        text.push_str(query);
        text.push('\n');
    }
    let client = ImplicationClient::new(ServiceConfig::default());
    let batch = typedtd_service::submit_batch(&client, &text);
    assert!(batch.errors.is_empty(), "socket corpus must parse");
    client.run_to_completion();
    assert_ledger(&client);
    batch
        .queries
        .iter()
        .map(|q| q.conjoined().expect("driver resolves every query").implication)
        .collect()
}

fn wire_answer(a: typedtd_service::WireAnswer) -> Answer {
    a.implication
}

/// Streams the corpus through pre-connected socket clients (fully
/// pipelined: every client submits its slice, then collects
/// out-of-order answers) — connection setup stays outside the timed
/// region. Returns the answers in corpus order plus how many came
/// flagged `from_cache`.
fn run_socket_stream(
    connections: Vec<typedtd_service::ProtoClient>,
    corpus: &[(String, String)],
) -> (Vec<Answer>, usize) {
    let clients = connections.len();
    let results: Vec<(usize, typedtd_service::WireAnswer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let submitted: Vec<(u64, usize)> = corpus
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, (u, q))| {
                            (client.submit(u, q, None).expect("submit"), i)
                        })
                        .collect();
                    submitted
                        .into_iter()
                        .map(|(corr, i)| (i, client.wait_answer(corr).expect("answer")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut answers = vec![Answer::Unknown; corpus.len()];
    let mut cached = 0usize;
    for (i, a) in results {
        if a.from_cache {
            cached += 1;
        }
        answers[i] = wire_answer(a);
    }
    (answers, cached)
}

/// The streaming-front-end scenario: the same cache-friendly batch
/// decided via direct in-process submits, one socket client, and
/// `clients` concurrent socket clients, interleaved round by round.
/// Server spawn/connect setup runs outside the timed region; with
/// `assert_overhead` the paired single-client / direct ratio must stay
/// within 2× plus its spread ([`paired_ratio`]).
fn measure_socket_stream(
    distinct: usize,
    repeats: usize,
    clients: usize,
    samples: usize,
    assert_overhead: bool,
) -> Record {
    let corpus = socket_corpus(distinct, repeats);
    // The sequential reference (and the decidability guard).
    let reference: Vec<Answer> = {
        let u = typedtd_relational::Universe::typed(vec!["A", "B", "C", "D"]);
        corpus
            .iter()
            .map(|(_, query)| {
                let mut pool = ValuePool::new(u.clone());
                let (sigma, goal) =
                    typedtd_service::parse_query_line(&u, &mut pool, query).expect("parses");
                let sigma_normal: Vec<TdOrEgd> = sigma
                    .iter()
                    .flat_map(|d| d.normalize(&u, &mut pool))
                    .collect();
                let mut imp = Answer::Yes;
                for part in goal.normalize(&u, &mut pool) {
                    let d = decide(&sigma_normal, &part, &mut pool.clone(), &DecideConfig::default());
                    imp = imp.and(d.implication);
                }
                assert_ne!(imp, Answer::Unknown, "socket corpus must be decidable");
                imp
            })
            .collect()
    };

    let sock_cfg = || typedtd_service::SockdConfig {
        service: ServiceConfig::default(),
        drivers: 1,
        ..Default::default()
    };
    // Columns: direct in-process submits, one socket client, `clients`
    // socket clients; server spawn and connect stay outside the timer.
    let names = ["direct_submit", "socket_1_client", "socket_n_clients"];
    let (times, results) = time_interleaved(names.len(), samples, |m, round| {
        if m == 0 {
            let t0 = Instant::now();
            let answers = run_direct_batch(&corpus);
            let elapsed = t0.elapsed();
            assert_eq!(answers, reference, "direct-batch parity violated");
            return (elapsed, 0);
        }
        let path = std::env::temp_dir().join(format!(
            "typedtd-bench-{}-{}-{round}.sock",
            names[m],
            std::process::id()
        ));
        let server = typedtd_service::ProtoServer::bind(sock_cfg(), None, Some(&path))
            .expect("bind unix server");
        let unix = server.unix_path().expect("unix listener");
        let n = if m == 1 { 1 } else { clients };
        let conns = (0..n)
            .map(|_| typedtd_service::ProtoClient::connect_unix(unix).expect("connect unix"))
            .collect::<Vec<_>>();
        let t0 = Instant::now();
        let (answers, cached) = run_socket_stream(conns, &corpus);
        let elapsed = t0.elapsed();
        assert_eq!(answers, reference, "{} wire parity violated", names[m]);
        assert_ledger(server.client());
        (elapsed, cached)
    });
    let (ratio, spread) = paired_ratio(&[(&times[1], &times[0])]);
    if assert_overhead {
        assert!(
            ratio <= 2.0 + spread,
            "wire overhead must stay within 2x of direct submits: paired \
             socket/direct ratio {ratio:.3} (spread {spread:.3}) over {samples} pairs"
        );
    }
    Record {
        workload: format!("service_socket_stream/d{distinct}xr{repeats}+{clients}c"),
        variants: names
            .iter()
            .zip(times)
            .map(|(n, t)| Variant::new(n, t))
            .collect(),
        counters: vec![
            ("queries", corpus.len()),
            ("wire_cached", results[1]),
            ("paired_ratio_x1000", (ratio * 1000.0).round() as usize),
            ("paired_spread_x1000", (spread * 1000.0).round() as usize),
        ],
    }
}

/// The Σ-group acceptance scenario: `members` queries sharing one Σ and
/// one goal hypothesis (the `service_batch` shape after canonicalization),
/// decided three ways — naive sequential `decide` (the answer reference),
/// the service chasing once per job (group off), and the service
/// saturating once per Σ-group (group on). Answers must agree
/// position-for-position, every member must land in the one group, and in
/// full mode group mode must beat per-job chasing by ≥ 2×.
fn measure_service_shared_sigma(
    width: usize,
    rows: usize,
    members: usize,
    samples: usize,
    assert_speedup: bool,
) -> Record {
    let make = || shared_sigma_workload(width, rows, members, 1982);
    let run = |group: bool| {
        move |queries: Vec<Query>| -> (Vec<Answer>, typedtd_service::ServiceStats) {
            let client = ImplicationClient::new(ServiceConfig {
                group,
                ..ServiceConfig::default()
            });
            let jobs: Vec<JobHandle> = queries
                .into_iter()
                .map(|(s, g, p)| client.submit(QuerySpec::new(s, g, p)))
                .collect();
            client.run_to_completion();
            assert_ledger(&client);
            (jobs.iter().map(answer_of).collect(), client.stats())
        }
    };
    let decide_all = |queries: Vec<Query>| -> Vec<Answer> {
        queries
            .into_iter()
            .map(|(sigma, goal, mut pool)| {
                decide(&sigma, &goal, &mut pool, &DecideConfig::default()).implication
            })
            .collect()
    };
    let (seq_v, seq) = time("sequential_decide", samples, make, decide_all);
    let (solo_v, (solo, solo_stats)) = time("per_job", samples, make, run(false));
    let (group_v, (grouped, group_stats)) = time("grouped", samples, make, run(true));
    let (solo_ns, grouped_ns) = (solo_v.median_ns, group_v.median_ns);
    assert_eq!(seq, solo, "per-job service parity violated");
    assert_eq!(seq, grouped, "Σ-group service parity violated");
    assert!(
        seq.iter().all(|a| *a != Answer::Unknown),
        "the shared-Σ batch must be fully decidable"
    );
    assert_eq!(solo_stats.grouped, 0, "group=off must not group");
    assert_eq!(
        group_stats.grouped, members as u64,
        "every member must join the Σ-group"
    );
    assert_eq!(
        group_stats.group_chases, 1,
        "one Σ-group must saturate exactly once"
    );
    assert_eq!(group_stats.group_fallbacks, 0, "terminating group cannot expire");
    if assert_speedup {
        let ratio = solo_ns as f64 / grouped_ns as f64;
        assert!(
            ratio >= 2.0,
            "service_shared_sigma: group mode must be >= 2x per-job chasing, got {ratio:.2}x \
             (per-job {:.3} ms, grouped {:.3} ms)",
            solo_ns as f64 / 1e6,
            grouped_ns as f64 / 1e6,
        );
    }
    Record {
        workload: format!("service_shared_sigma/w{width}r{rows}x{members}"),
        variants: vec![seq_v, solo_v, group_v],
        counters: vec![
            ("jobs", seq.len()),
            ("group_chases", group_stats.group_chases as usize),
        ],
    }
}

/// Cold-vs-warm restart over the persistent answer log. The cold column
/// decides the corpus from scratch (and appends every definite answer
/// to a fresh log); the warm column is a brand-new client replaying
/// that log, which must serve the whole corpus from warm cache entries
/// with ZERO fresh fuel — asserted, so the JSON numbers can be trusted
/// to measure replay, not recomputation. The third column repeats the
/// warm pass with witness verification on every hit.
fn measure_service_warm_restart(distinct: usize, repeats: usize, samples: usize) -> Record {
    let corpus = socket_corpus(distinct, repeats);
    let mut text = String::from("@universe A B C D\n");
    for (_, query) in &corpus {
        text.push_str(query);
        text.push('\n');
    }
    let run = |cfg: ServiceConfig| {
        let client = ImplicationClient::new(cfg);
        let t0 = Instant::now();
        let batch = typedtd_service::submit_batch(&client, &text);
        assert!(batch.errors.is_empty(), "warm-restart corpus must parse");
        client.run_to_completion();
        assert_ledger(&client);
        let answers: Vec<Answer> = batch
            .queries
            .iter()
            .map(|q| q.conjoined().expect("driver resolves every query").implication)
            .collect();
        (answers, client.stats(), t0.elapsed())
    };
    let mut cold_times = Vec::with_capacity(samples);
    let mut warm_times = Vec::with_capacity(samples);
    let mut verify_times = Vec::with_capacity(samples);
    let mut warm_hits = 0u64;
    for i in 0..samples {
        let path = std::env::temp_dir().join(format!(
            "typedtd-bench-warm-{}-{i}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let persisted = ServiceConfig {
            persist: Some(PersistConfig::at(&path)),
            ..ServiceConfig::default()
        };
        let (cold_answers, cold_stats, t) = run(persisted.clone());
        cold_times.push(t);
        assert!(cold_stats.fuel_spent > 0, "cold run must actually chase");
        let (warm_answers, warm_stats, t) = run(persisted.clone());
        warm_times.push(t);
        assert_eq!(warm_answers, cold_answers, "warm restart changed an answer");
        assert_eq!(
            warm_stats.fuel_spent, 0,
            "warm restart must serve the whole corpus without fresh fuel"
        );
        assert_eq!(
            warm_stats.warm_hits, warm_stats.submitted,
            "every warm-restart submission must hit a replayed entry"
        );
        warm_hits = warm_stats.warm_hits;
        let (verify_answers, verify_stats, t) = run(ServiceConfig {
            verify_cache_hits: true,
            ..persisted
        });
        verify_times.push(t);
        assert_eq!(verify_answers, cold_answers, "verified warm restart changed an answer");
        assert_eq!(verify_stats.fuel_spent, 0, "verified warm hits must stay fuel-free");
        assert_eq!(verify_stats.verify_rejects, 0, "replayed witnesses must verify");
        let _ = std::fs::remove_file(&path);
    }
    Record {
        workload: format!("service_warm_restart/d{distinct}xr{repeats}"),
        variants: vec![
            Variant::new("cold", cold_times),
            Variant::new("warm", warm_times),
            Variant::new("warm_verified", verify_times),
        ],
        counters: vec![("queries", corpus.len()), ("warm_hits", warm_hits as usize)],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let old_rows = args.iter().position(|a| a == "--compare").map(|i| {
        let path = args
            .get(i + 1)
            .expect("--compare needs the path of an earlier JSON file");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let rows: Vec<Row> = text.lines().filter_map(Row::parse).collect();
        (path.clone(), rows)
    });
    let records = if smoke {
        // CI quick mode: tiny sizes, one sample each — every parity
        // assertion still runs, so the bench-path code cannot rot.
        vec![
            measure_implication(3, 1),
            measure_saturation("saturation/w4/chain3/rows3".into(), 1, || {
                saturation_workload(4, 3, 3, 1982)
            }),
            measure_saturation("egd_saturation/w5/rows12/k2".into(), 1, || {
                egd_saturation_workload(5, 12, 2, 1982)
            }),
            measure_saturation("divergent_saturation/inert8".into(), 1, || {
                divergent_saturation_workload(8, 1982)
            }),
            measure_saturation("egd_cascade/chains2".into(), 1, || {
                egd_cascade_workload(2, 1982)
            }),
            measure_service_batch(2, 3, 1),
            measure_multi_submit(2, 3, 4, 2, 1),
            measure_divergent_mix(2, 2, 3, 1),
            measure_service_mixed_class(1),
            measure_search_refutation(1),
            // Parity assertions only in smoke: a single tiny sample
            // cannot carry the ≥2× group-speedup floor.
            measure_service_shared_sigma(4, 3, 6, 1, false),
            measure_telemetry_overhead(2, 2, 3, 1, false),
            measure_skewed_steal(6, 2, 1, false),
            measure_socket_stream(3, 4, 2, 1, false),
            measure_service_warm_restart(3, 2, 1),
        ]
    } else {
        vec![
            measure_implication(4, 7),
            measure_implication(5, 5),
            measure_saturation("saturation/w5/chain4/rows4".into(), 5, || {
                saturation_workload(5, 4, 4, 1982)
            }),
            measure_saturation("saturation/w6/chain5/rows6".into(), 5, || {
                saturation_workload(6, 5, 6, 1982)
            }),
            measure_saturation("saturation/w7/chain6/rows8".into(), 3, || {
                saturation_workload(7, 6, 8, 1982)
            }),
            measure_saturation("egd_saturation/w6/rows32/k2".into(), 3, || {
                egd_saturation_workload(6, 32, 2, 1982)
            }),
            measure_saturation("egd_saturation/w8/rows48/k2".into(), 3, || {
                egd_saturation_workload(8, 48, 2, 1982)
            }),
            measure_saturation("divergent_saturation/inert16".into(), 9, || {
                divergent_saturation_workload(16, 1982)
            }),
            measure_saturation("divergent_saturation/inert32".into(), 9, || {
                divergent_saturation_workload(32, 1982)
            }),
            measure_saturation("egd_cascade/chains4".into(), 3, || {
                egd_cascade_workload(4, 1982)
            }),
            measure_saturation("egd_cascade/chains8".into(), 3, || {
                egd_cascade_workload(8, 1982)
            }),
            measure_service_batch(4, 12, 3),
            measure_service_batch(6, 25, 3),
            measure_multi_submit(4, 6, 24, 2, 3),
            measure_multi_submit(6, 10, 32, 4, 3),
            measure_divergent_mix(3, 4, 6, 3),
            measure_service_mixed_class(3),
            measure_search_refutation(9),
            measure_service_shared_sigma(6, 6, 32, 3, true),
            // The two paired floors take many short rounds: more pairs
            // narrow the confidence interval the floors forgive.
            measure_telemetry_overhead(3, 4, 6, 31, true),
            measure_skewed_steal(24, 4, 3, true),
            measure_socket_stream(5, 10, 4, 15, true),
            measure_service_warm_restart(6, 4, 3),
        ]
    };

    println!(
        "{:<44} {:<20} {:>12} {:>12} {:>12}",
        "workload", "variant", "median", "min", "max"
    );
    let ms = |ns: u128| format!("{:.3} ms", ns as f64 / 1e6);
    for r in &records {
        let counters: Vec<String> = r.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{}  {}", r.workload, counters.join(" "));
        for v in &r.variants {
            println!(
                "{:<44} {:<20} {:>12} {:>12} {:>12}",
                "",
                v.name,
                ms(v.median_ns),
                ms(v.min_ns),
                ms(v.max_ns),
            );
        }
    }

    if json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        // `-dirty` marks a run over uncommitted changes.
        let git_revision = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=40"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let command = std::env::args().collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "{{\n  \"nproc\": {nproc},\n  \"git_revision\": \"{git_revision}\",\n  \
             \"command\": \"{}\",\n  \"records\": [\n",
            command.replace('\\', "\\\\").replace('"', "\\\""),
        );
        for (i, r) in records.iter().enumerate() {
            let sep = if i + 1 < records.len() { ",\n" } else { "\n" };
            let _ = write!(out, "    {}{sep}", record_json(r));
        }
        out.push_str("  ]\n}\n");
        let path = if smoke {
            "BENCH_chase_smoke.json"
        } else {
            "BENCH_chase.json"
        };
        std::fs::write(path, &out).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }

    if let Some((path, old)) = old_rows {
        let new: Vec<Row> = records.iter().map(Row::of).collect();
        let moved = compare(&old, &new);
        println!(
            "\ncompared with {path}: {} change(s) beyond the recorded spread",
            moved.len()
        );
        for line in moved {
            println!("  {line}");
        }
    }
}

/// One record as a line of `BENCH_chase.json`.
fn record_json(r: &Record) -> String {
    let variants: Vec<String> = r
        .variants
        .iter()
        .map(|v| {
            format!(
                "{{\"name\":\"{}\",\"samples\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                v.name, v.samples, v.median_ns, v.min_ns, v.max_ns
            )
        })
        .collect();
    let counters: Vec<String> = r
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"variants\":[{}],\"counters\":{{{}}}}}",
        r.workload,
        variants.join(","),
        counters.join(","),
    )
}

/// One record as `--compare` sees it: each variant's median, min and max
/// nanoseconds, and the paired ratio with its half-width where the row
/// records one.
struct Row {
    workload: String,
    variants: Vec<(String, [f64; 3])>,
    paired: Option<(f64, f64)>,
}

impl Row {
    fn of(r: &Record) -> Self {
        let counter = |k: &str| {
            r.counters
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| *v as f64 / 1000.0)
        };
        Self {
            workload: r.workload.clone(),
            variants: r
                .variants
                .iter()
                .map(|v| {
                    let ns = [v.median_ns, v.min_ns, v.max_ns].map(|t| t as f64);
                    (v.name.to_string(), ns)
                })
                .collect(),
            paired: counter("paired_ratio_x1000").zip(counter("paired_spread_x1000")),
        }
    }

    /// Reads one record line as [`record_json`] writes it; `None` for
    /// the file's other lines.
    fn parse(line: &str) -> Option<Self> {
        let text = |s: &str, key: &str| Some(field(s, key)?.trim_matches('"').to_string());
        let num = |s: &str, key: &str| field(s, key)?.parse::<f64>().ok();
        let workload = text(line, "workload")?;
        let variants = line
            .split("\"variants\":[")
            .nth(1)?
            .split(']')
            .next()?
            .split("},{")
            .map(|v| {
                let ns = [num(v, "median_ns")?, num(v, "min_ns")?, num(v, "max_ns")?];
                Some((text(v, "name")?, ns))
            })
            .collect::<Option<Vec<_>>>()?;
        let counters = line.split("\"counters\":{").nth(1)?;
        let counter = |k: &str| num(counters, k).map(|v| v / 1000.0);
        Some(Self {
            workload,
            variants,
            paired: counter("paired_ratio_x1000").zip(counter("paired_spread_x1000")),
        })
    }
}

/// The raw value after `"key":` in `s`, up to the next `,` or `}`.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let rest = s.split(&format!("\"{key}\":")).nth(1)?;
    Some(rest.split([',', '}']).next()?.trim())
}

/// What `--compare` prints: each variant whose median moved by more than
/// the recorded spread — out of the other run's min–max range, both ways
/// round — and each paired ratio that moved by more than the larger of
/// its two half-widths. Rows only one run has are named too.
fn compare(old: &[Row], new: &[Row]) -> Vec<String> {
    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    let outside = |m: f64, lo: f64, hi: f64| m < lo || m > hi;
    let mut lines = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.workload == n.workload) else {
            lines.push(format!("{}: only in this run", n.workload));
            continue;
        };
        for (name, [nm, nlo, nhi]) in &n.variants {
            let Some((_, [om, olo, ohi])) = o.variants.iter().find(|(v, _)| v == name) else {
                continue;
            };
            if outside(*nm, *olo, *ohi) && outside(*om, *nlo, *nhi) {
                lines.push(format!(
                    "{:<44} {:<20} {} -> {} ({:+.1}%)",
                    n.workload,
                    name,
                    ms(*om),
                    ms(*nm),
                    (nm / om - 1.0) * 100.0
                ));
            }
        }
        if let (Some((or, ohw)), Some((nr, nhw))) = (o.paired, n.paired) {
            if (nr - or).abs() > ohw.max(nhw) {
                lines.push(format!(
                    "{:<44} {:<20} {or:.3} ± {ohw:.3} -> {nr:.3} ± {nhw:.3}",
                    n.workload, "paired ratio"
                ));
            }
        }
    }
    for o in old
        .iter()
        .filter(|o| !new.iter().any(|n| n.workload == o.workload))
    {
        lines.push(format!("{}: only in the old run", o.workload));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        workload: &str,
        times_ms: &[(&'static str, [u64; 3])],
        paired: Option<(usize, usize)>,
    ) -> Record {
        let ms = |t: u64| u128::from(t) * 1_000_000;
        Record {
            workload: workload.to_string(),
            variants: times_ms
                .iter()
                .map(|&(name, [median, min, max])| Variant {
                    name,
                    samples: 3,
                    median_ns: ms(median),
                    min_ns: ms(min),
                    max_ns: ms(max),
                })
                .collect(),
            counters: paired.map_or_else(Vec::new, |(r, s)| {
                vec![
                    ("queries", 50),
                    ("paired_ratio_x1000", r),
                    ("paired_spread_x1000", s),
                ]
            }),
        }
    }

    #[test]
    fn compare_reports_only_moves_beyond_the_recorded_spread() {
        let old = [
            record("a", &[("x", [10, 9, 11]), ("y", [10, 9, 11])], None),
            record("s", &[("direct", [2, 2, 3])], Some((1300, 80))),
            record("gone", &[("x", [1, 1, 1])], None),
        ];
        let new = [
            // `x` left the old range and the old median is outside the
            // new one; `y` moved inside the spread.
            record("a", &[("x", [5, 4, 6]), ("y", [11, 10, 12])], None),
            record("s", &[("direct", [2, 2, 3])], Some((1000, 50))),
        ];
        // Round trip through the JSON lines `--json` writes.
        let rows = |rs: &[Record]| -> Vec<Row> {
            rs.iter()
                .map(|r| Row::parse(&record_json(r)).expect("parses"))
                .collect()
        };
        let lines = compare(&rows(&old), &rows(&new));
        assert_eq!(lines.len(), 3, "{lines:#?}");
        assert!(
            lines[0].starts_with('a') && lines[0].contains(" x ") && lines[0].contains("-50.0%")
        );
        assert!(
            lines[1].contains("paired ratio")
                && lines[1].contains("1.300 ± 0.080 -> 1.000 ± 0.050")
        );
        assert_eq!(lines[2], "gone: only in the old run");
        assert!(Row::parse("  \"nproc\": 2,").is_none());
        assert!(compare(&rows(&new), &rows(&new)).is_empty());
    }
}
