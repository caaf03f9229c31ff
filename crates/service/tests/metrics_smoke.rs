//! Metrics-exposition smoke: run a real `typedtd-sockd --metrics PATH`,
//! drive a small mixed workload over the wire (cold misses, cache hits,
//! an expired divergent query, and a long-running query streamed with
//! live `PROGRESS` frames), shut the server down, and assert the final
//! exposition is complete and sane:
//!
//! * every counter, gauge, and histogram family the service exports is
//!   present in the file;
//! * the latency histograms account for every submission exactly once
//!   (`Σ latency_*_count == submitted`), the core invariant the whole
//!   telemetry layer is built on;
//! * the in-flight gauge is 0 after the shutdown drain;
//! * the three surfaces agree: every instrument-table key (each label,
//!   for families) appears in a `STATS` reply taken once the workload is
//!   quiescent and in the `--stats` exit ledger, and every row's
//!   Prometheus sample in the final exposition equals its ledger value.
//!
//! CI runs exactly this test as its "metrics smoke" step.

use std::collections::HashMap;
use std::io::{BufRead, Read};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use typedtd_service::{
    parse_stats_text, HistogramSnapshot, ImplicationClient, Instrument, ProtoClient,
    ServiceConfig, Surface,
};

/// Decidable corpus (same shape as `tests/proto.rs`): submitted twice so
/// the second pass lands as cache hits.
fn corpus() -> Vec<(String, String)> {
    let u = "A B C D".to_string();
    [
        "A -> B & B -> C & C -> D |= A -> D",
        "A ->> B & B ->> C |= A ->> C",
        "A -> B |= B -> A",
        "*[AB, BC, CD] |= A ->> B",
        "A -> BC |= A -> B",
    ]
    .into_iter()
    .map(|q| (u.clone(), q.to_string()))
    .collect()
}

/// Casanova–Fagin–Papadimitriou's query: finitely implied but not
/// implied. The chase grows until its budget runs out and no finite
/// counterexample exists for the search to find, so it settles to an
/// honest `Unknown` only after hundreds of fuel units. The 32 columns it
/// does not mention make each unit dearer: a release build takes tens of
/// milliseconds, many times the few milliseconds a connection loop
/// iteration can wait in its read, so progress is sampled mid-run.
const STREAMING_QUERY: &str = "A -> B & [A] <= [B] |= [B] <= [A]";

fn streaming_universe() -> String {
    let extra: Vec<String> = (0..32).map(|i| format!("C{i}")).collect();
    format!("untyped A B {}", extra.join(" "))
}
/// Divergent successor-td query under a tiny fuel cap: the cap bites in
/// the chase, before any search starts, to force the *expired* path.
const EXPIRE_UNIVERSE: &str = "untyped A' B' C' D'";
const EXPIRE_QUERY: &str =
    "td [x y z p3] => y q1 q2 q3 |= egd [x y1 z1 v3 ; x y2 z2 w3] => y1 = y2";

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "typedtd-metrics-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
    ))
}

/// Kills the daemon when a failed assertion ends the test before its
/// shutdown: the watchdog thread dies with the test process, so without
/// this a failure leaves `typedtd-sockd` running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `typedtd-sockd` with `args`, waits for the `listening tcp=…`
/// line, and arms a 120s kill watchdog so a hang fails the test instead
/// of wedging the suite.
fn spawn_sockd(args: &[&str]) -> (KillOnDrop, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_typedtd-sockd"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn typedtd-sockd");
    let pid = child.id();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(120));
        #[cfg(unix)]
        {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        #[cfg(not(unix))]
        let _ = pid;
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("typedtd-sockd: listening tcp=")
        .expect("listening line")
        .parse()
        .expect("socket addr");
    (KillOnDrop(child), addr)
}

/// Reads a plain (label-free) sample value from Prometheus text.
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        if n == name && !n.starts_with('#') {
            v.parse().ok()
        } else {
            None
        }
    })
}

/// Collects `(ledger key, Prometheus sample, value)` for every rendered
/// counter, gauge, and histogram `_count`/`_sum`.
#[derive(Default)]
struct Rows(Vec<(String, String, u64)>);

impl Surface for Rows {
    fn sample(&mut self, row: &Instrument, _kind: &str, label: Option<(&str, &str)>, value: u64) {
        self.0.push(match label {
            None => (row.key.to_string(), row.prom.to_string(), value),
            Some((dim, l)) => (
                format!("{}_{l}", row.key),
                format!("{}{{{dim}=\"{l}\"}}", row.prom),
                value,
            ),
        });
    }

    fn histogram(&mut self, row: &Instrument, h: &HistogramSnapshot) {
        for (part, v) in [("count", h.count), ("sum", h.sum)] {
            self.0.push((format!("h_{}_{part}", row.key), format!("{}_{part}", row.prom), v));
        }
    }
}

#[test]
fn metrics_exposition_end_to_end() {
    let metrics = temp_path("exposition.prom");
    let metrics_str = metrics.to_str().expect("utf-8 temp path").to_string();
    let (mut sockd, addr) =
        spawn_sockd(&["--metrics", &metrics_str, "--drivers", "2", "--stats"]);
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");

    // Two passes over the corpus: pass one is all cache misses, pass two
    // all hits — both latency families must end up populated.
    let corpus = corpus();
    for _pass in 0..2 {
        let corrs: Vec<u64> = corpus
            .iter()
            .map(|(u, q)| client.submit(u, q, None).expect("submit"))
            .collect();
        for corr in corrs {
            let a = client.wait_answer(corr).expect("answer");
            assert!(!a.cancelled, "corpus queries must not cancel");
        }
    }

    // A divergent shape under a tiny fuel cap: the cap bites long before
    // the chase/search budgets do, so this one lands as an *expired*
    // Unknown and populates the expired latency family.
    let expire_corr = client
        .submit(EXPIRE_UNIVERSE, EXPIRE_QUERY, Some(64))
        .expect("submit expire ballast");

    // One fuel-capped query with progress streaming: ≥1 live `Running`
    // frame, strictly fuel-monotone. The daemon runs sequential mode: the
    // chase spends its budget, then the search exhausts its attempts,
    // all well inside the 4096 cap. That long natural run is what
    // crosses enough progress ticks to stream reliably.
    let corr = client
        .submit_with_progress(&streaming_universe(), STREAMING_QUERY, Some(4096))
        .expect("submit streaming");
    let mut fuels: Vec<u64> = Vec::new();
    let answer = client
        .wait_answer_with_progress(corr, |up| fuels.push(up.fuel))
        .expect("streamed answer");
    assert_eq!(answer.implication, typedtd_chase::Answer::Unknown);
    assert_eq!(answer.finite_implication, typedtd_chase::Answer::Unknown);
    assert!(!answer.cancelled, "nothing cancelled the streamed query");
    // The wire flags every uncancelled `Unknown` as expired; the decide
    // budgets ran out here, not the cap.
    assert!(answer.expired, "an uncancelled Unknown reads expired");
    assert!(
        answer.fuel_spent < 4096,
        "budgets, not the cap, settle the streamed query"
    );
    assert!(
        !fuels.is_empty(),
        "a 4096-fuel run must stream at least one Running frame"
    );
    assert!(
        fuels.windows(2).all(|w| w[0] < w[1]),
        "Running frames must be strictly fuel-monotone: {fuels:?}"
    );

    let expired_answer = client.wait_answer(expire_corr).expect("expire answer");
    assert!(expired_answer.expired, "a 64-fuel cap must expire the divergent chase");

    let wire_submissions = (2 * corpus.len() + 2) as u64;
    // Every answer is in: the workload is quiescent.
    let stats_reply = client.stats().expect("STATS reply");
    client.shutdown_server().expect("shutdown frame");
    let status = sockd.0.wait().expect("sockd exit");
    assert!(status.success(), "typedtd-sockd must exit cleanly");
    let mut stderr = String::new();
    sockd
        .0
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let ledger: HashMap<String, u64> = stderr
        .lines()
        .find(|l| l.starts_with("jobs="))
        .map(parse_stats_text)
        .unwrap_or_else(|| panic!("missing --stats ledger in stderr: {stderr}"));

    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    let _ = std::fs::remove_file(&metrics);

    // Every family the service exports must be present.
    for family in [
        "typedtd_submitted_total",
        "typedtd_completed_total",
        "typedtd_cache_hits_total",
        "typedtd_goal_in_sigma_total",
        "typedtd_coalesced_total",
        "typedtd_cache_misses_total",
        "typedtd_verify_rejects_total",
        "typedtd_expired_total",
        "typedtd_cancelled_total",
        "typedtd_retired_total",
        "typedtd_evictions_total",
        "typedtd_shed_total",
        "typedtd_fuel_spent_total",
        "typedtd_sweeps_total",
        "typedtd_steals_total",
        "typedtd_parked_total",
        "typedtd_answer_yes_total",
        "typedtd_answer_no_total",
        "typedtd_answer_unknown_total",
        "typedtd_warm_hits_total",
        "typedtd_persist_errors_total",
        "typedtd_jobs_inflight",
        "typedtd_cache_entries",
        "typedtd_queue_depth",
        "typedtd_latency_hit_nanos",
        "typedtd_latency_miss_nanos",
        "typedtd_latency_expired_nanos",
        "typedtd_latency_cancelled_nanos",
        "typedtd_queue_wait_nanos",
        "typedtd_run_time_nanos",
        "typedtd_fuel_per_job",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "metrics file must contain family {family}:\n{text}"
        );
    }
    assert!(
        text.contains("typedtd_queue_depth{shard=\"0\"}"),
        "queue depth must be labelled per shard"
    );

    // Sanity invariants on the final snapshot.
    let val = |name: &str| {
        metric_value(&text, name).unwrap_or_else(|| panic!("missing sample {name}:\n{text}"))
    };
    // Each wire SUBMIT fans out into ≥1 normalized goal parts; the
    // service counts parts, so `submitted` is a lower bound, and the
    // latency histograms must account for every part exactly once.
    let submitted = val("typedtd_submitted_total");
    assert!(
        submitted >= wire_submissions,
        "service submissions ({submitted}) must cover every wire SUBMIT ({wire_submissions})"
    );
    let latency_total = val("typedtd_latency_hit_nanos_count")
        + val("typedtd_latency_miss_nanos_count")
        + val("typedtd_latency_expired_nanos_count")
        + val("typedtd_latency_cancelled_nanos_count");
    assert_eq!(
        latency_total, submitted,
        "every submission must land in exactly one latency family:\n{text}"
    );
    assert_eq!(val("typedtd_fuel_per_job_count"), submitted);
    assert_eq!(val("typedtd_jobs_inflight"), 0, "drain must leave nothing in flight");
    // The second corpus pass must avoid recomputation: every query lands
    // as either an answer-cache hit or (for goals syntactically inside Σ,
    // which short-circuit before the cache on both passes) a goal-in-Σ
    // fast path.
    assert!(
        val("typedtd_cache_hits_total") + val("typedtd_goal_in_sigma_total")
            >= corpus.len() as u64,
        "second corpus pass must land on a fast path:\n{text}"
    );
    assert!(val("typedtd_cache_hits_total") >= 1, "the cache must serve hits:\n{text}");
    assert!(val("typedtd_expired_total") >= 1);
    assert!(val("typedtd_fuel_spent_total") > 0);
    assert_eq!(val("typedtd_shed_total"), 0);

    // The three surfaces agree on the instrument table.
    // A fresh in-process client with sockd's default config renders
    // every row: each counter label and each shard's queue depth.
    let mut rows = Rows::default();
    ImplicationClient::new(ServiceConfig::default()).render(&mut rows);
    for (key, prom, _) in &rows.0 {
        assert!(stats_reply.contains_key(key), "STATS reply misses {key}: {stats_reply:?}");
        let logged = *ledger
            .get(key)
            .unwrap_or_else(|| panic!("exit ledger misses {key}: {stderr}"));
        assert_eq!(val(prom), logged, "{prom} disagrees with the ledger's {key}");
    }
}
