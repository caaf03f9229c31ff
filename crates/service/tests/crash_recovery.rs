//! Crash-safety soak for the persistent answer cache: SIGKILL a live
//! `typedtd-sockd` mid-stream, restart it on the same answer log, and
//! prove three things across the crash boundary:
//!
//! * the wire ledger still balances — every phase-2 connection drains to
//!   `answered + cancelled + expired == submitted` with `pending == 0`;
//! * every replayed answer agrees with the sequential in-process
//!   `decide` oracle (differential check, same shape as `tests/proto.rs`);
//! * the warm-start actually happened — the restarted server serves at
//!   least half the resubmitted corpus from replayed (warm) entries.
//!
//! Alongside the flagship soak: the shutdown-drain fix (detached jobs
//! are driven to an answer or an explicit cancel, never dropped), the
//! `--max-inflight` overload path (`ERR_BUSY`, `shed` in stats), client
//! reconnect-with-resubmit, degraded mode under injected write faults,
//! and a property fuzz over corrupted log bytes (replay never panics
//! and always recovers a valid prefix).

use proptest::prelude::*;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;
use typedtd_chase::{decide, Answer, DecideConfig};
use typedtd_service::proto::err_code;
use typedtd_service::{
    parse_query_line, parse_universe_spec, query_key, replay_bytes, replay_log, CachedAnswer,
    ClientConfig, ImplicationClient, PersistConfig, PersistLog, ProtoClient, ProtoServer, QueryKey,
    QuerySpec, ServiceConfig, SockdConfig,
};
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::ValuePool;

/// Decidable textual corpus over `A B C D` — fds, mvds, pjds; none of
/// them goal-in-Σ (that fast path bypasses the cache probe, so it would
/// dilute the warm-hit measurement).
fn corpus() -> Vec<(String, String)> {
    let u = "A B C D".to_string();
    [
        "A -> B & B -> C & C -> D |= A -> D",
        "B -> C & A -> B & C -> D |= A -> D",
        "A ->> B & B ->> C |= A ->> C",
        "A -> B |= B -> A",
        "*[AB, BC, CD] |= A ->> B",
        "*[ABC, CD] |= C ->> D",
        "A ->> B |= *[AB, BCD]",
        "*[AB, BC] on AC |= A ->> C",
        "A -> B & B -> C |= A -> C",
        "A -> BC |= A -> B",
    ]
    .into_iter()
    .map(|q| (u.clone(), q.to_string()))
    .collect()
}

/// Ballast no procedure ever answers: Casanova–Fagin–Papadimitriou's
/// `A -> B & [A] <= [B] |= [B] <= [A]`, finitely implied but not implied,
/// so no search can refute it and no chase can prove it. The 64
/// unmentioned columns make each fuel unit dearer; it ends only when
/// cancelled or `Unknown` once both budgets are spent
/// ([`ballast_is_never_answered`]).
fn ballast() -> (String, &'static str) {
    let extra: Vec<String> = (0..64).map(|i| format!("C{i}")).collect();
    (
        format!("untyped A B {}", extra.join(" ")),
        "A -> B & [A] <= [B] |= [B] <= [A]",
    )
}

/// The ballast stays unanswered long enough to cancel or drain: in
/// process, under the server's decide budgets, it is still pending after
/// 258 fuel units (by which the search refutes a successor-td ballast) and
/// ends `Unknown`, never definite.
#[test]
fn ballast_is_never_answered() {
    use typedtd_chase::{DecideStatus, DecideTask};
    let (uspec, text) = ballast();
    let universe = parse_universe_spec(&uspec).expect("universe parses");
    let mut pool = ValuePool::new(universe.clone());
    let (sigma, goal) = parse_query_line(&universe, &mut pool, text).expect("query parses");
    let sigma: Vec<_> = sigma
        .iter()
        .flat_map(|d| d.normalize(&universe, &mut pool))
        .collect();
    for part in goal.normalize(&universe, &mut pool) {
        let cfg = ServiceConfig::default().decide;
        let mut task = DecideTask::new(sigma.clone(), part, pool.clone(), cfg);
        assert_eq!(task.step(258), DecideStatus::Pending, "answered by 258 fuel");
        task.run_to_completion();
        let fuel = task.fuel_spent();
        let (d, _) = task.finish();
        assert_eq!(
            (d.implication, d.finite_implication),
            (Answer::Unknown, Answer::Unknown),
            "the ballast got a definite answer after {fuel} fuel"
        );
    }
}

/// Sequential in-process reference: parse exactly like the server,
/// decide each normalized goal part, conjoin.
fn reference_answers(corpus: &[(String, String)]) -> Vec<(Answer, Answer)> {
    let cfg = DecideConfig::default();
    corpus
        .iter()
        .map(|(uspec, query)| {
            let universe = parse_universe_spec(uspec).expect("corpus universe parses");
            let mut pool = ValuePool::new(universe.clone());
            let (sigma, goal) =
                parse_query_line(&universe, &mut pool, query).expect("corpus query parses");
            let sigma_normal: Vec<_> = sigma
                .iter()
                .flat_map(|d| d.normalize(&universe, &mut pool))
                .collect();
            let mut imp = Answer::Yes;
            let mut fin = Answer::Yes;
            for part in goal.normalize(&universe, &mut pool) {
                let d = decide(&sigma_normal, &part, &mut pool.clone(), &cfg);
                imp = imp.and(d.implication);
                fin = fin.and(d.finite_implication);
            }
            assert_ne!(imp, Answer::Unknown, "corpus must be decidable: {query}");
            assert_ne!(fin, Answer::Unknown, "corpus must be decidable: {query}");
            (imp, fin)
        })
        .collect()
}

/// A unique temp path (pid + tag keeps parallel test binaries apart).
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "typedtd-crash-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
    ))
}

/// Spawns `typedtd-sockd` with `args`, waits for the `listening tcp=…`
/// line, and arms a 120s kill watchdog so a hang fails the test instead
/// of wedging the suite.
fn spawn_sockd(args: &[&str]) -> (Child, std::net::SocketAddr) {
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
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

/// Parses a `key=value`-separated counters line (the `--stats` ledger
/// and the `done` ledger share the shape).
fn parse_counters(line: &str) -> std::collections::HashMap<String, u64> {
    line.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// The flagship soak: cold server answers (and persists) the corpus,
/// gets SIGKILLed while concurrent clients are still streaming filler,
/// and a restart on the same log must warm-serve the corpus with oracle
/// parity and balanced ledgers.
#[test]
fn sigkill_mid_stream_then_warm_restart() {
    let corpus = corpus();
    let reference = reference_answers(&corpus);
    let log = temp_path("soak.log");
    let _ = std::fs::remove_file(&log);
    let log_str = log.to_str().expect("utf8 temp path").to_string();

    // Phase 1: cold server. Answer the whole corpus (each definite
    // answer is appended to the log as it enters the cache), then keep
    // streaming width-varying filler and SIGKILL mid-stream — the log's
    // tail is torn at whatever byte the crash left it.
    let (mut child, addr) = spawn_sockd(&["--tcp", "127.0.0.1:0", "--log", &log_str]);
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect phase 1");
        let corrs: Vec<u64> = corpus
            .iter()
            .map(|(u, q)| client.submit(u, q, None).expect("submit corpus"))
            .collect();
        for (i, corr) in corrs.iter().enumerate() {
            let ans = client.wait_answer(*corr).expect("cold answer");
            assert_eq!(
                (ans.implication, ans.finite_implication),
                reference[i],
                "cold parity violated on {:?}",
                corpus[i].1
            );
        }
    }
    let filler = std::thread::spawn(move || {
        // Distinct widths ⇒ distinct canonical keys: every filler
        // submission is a fresh chase whose append races the SIGKILL.
        let Ok(mut client) = ProtoClient::connect_tcp(addr) else {
            return;
        };
        for i in 0..10_000u32 {
            let width = 3 + (i as usize % 61);
            let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
            let uspec = names.join(" ");
            let query = "C0 -> C1 & C1 -> C2 |= C0 -> C2".to_string();
            if client.submit(&uspec, &query, None).is_err() {
                return; // server died mid-stream: exactly the point
            }
        }
    });
    std::thread::sleep(Duration::from_millis(150));
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();
    filler.join().expect("filler thread");

    // Phase 2: restart on the same (possibly torn) log. Concurrent
    // clients resubmit the corpus; answers must match the oracle and
    // come from warm (replayed) cache entries.
    let (mut child2, addr2) = spawn_sockd(&[
        "--tcp",
        "127.0.0.1:0",
        "--log",
        &log_str,
        "--verify-hits",
        "--stats",
    ]);
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let corpus = corpus.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = ProtoClient::connect_tcp(addr2).expect("connect phase 2");
                let corrs: Vec<u64> = corpus
                    .iter()
                    .map(|(u, q)| client.submit(u, q, None).expect("resubmit corpus"))
                    .collect();
                for (i, corr) in corrs.iter().enumerate() {
                    let ans = client.wait_answer(*corr).expect("warm answer");
                    assert_eq!(
                        (ans.implication, ans.finite_implication),
                        reference[i],
                        "replayed answer disagrees with the oracle on {:?}",
                        corpus[i].1
                    );
                }
                // Ledger balances on every connection after the drain.
                let stats = client.stats().expect("per-connection stats");
                assert_eq!(stats["pending"], 0);
                assert_eq!(
                    stats["answered"] + stats["cancelled"] + stats["expired"],
                    stats["submitted"],
                    "wire ledger out of balance: {stats:?}"
                );
            })
        })
        .collect();
    for w in workers {
        w.join().expect("phase-2 worker");
    }
    let mut control = ProtoClient::connect_tcp(addr2).expect("control connection");
    control.shutdown_server().expect("send SHUTDOWN");
    drop(control);
    let status = child2.wait().expect("server exit");
    assert!(status.success(), "clean shutdown after SHUTDOWN frame");
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        &mut child2.stderr.take().expect("piped stderr"),
        &mut stderr,
    )
    .expect("read stderr");
    let done = stderr
        .lines()
        .find(|l| l.starts_with("typedtd-sockd: done"))
        .unwrap_or_else(|| panic!("missing done ledger in stderr: {stderr}"));
    let done = parse_counters(done);
    assert_eq!(
        done["answered"] + done["unknown"] + done["cancelled"],
        done["submitted"],
        "service ledger out of balance across restart: {stderr}"
    );
    let stats = stderr
        .lines()
        .find(|l| l.contains("warm_hits=") && l.contains("jobs="))
        .unwrap_or_else(|| panic!("missing --stats line in stderr: {stderr}"));
    let stats = parse_counters(stats);
    let (jobs, warm) = (stats["jobs"], stats["warm_hits"]);
    assert!(
        warm * 2 >= jobs,
        "warm-start hit rate below 0.5: warm_hits={warm} jobs={jobs}\n{stderr}"
    );
    assert!(warm > 0, "restart must actually replay the log: {stderr}");
    let _ = std::fs::remove_file(&log);
}

/// SHUTDOWN must drain in-flight work, not drop it: a detached
/// decidable job is driven to its answer during the drain sweeps, a
/// detached divergent one is explicitly cancelled, and the final ledger
/// accounts for both.
#[test]
fn shutdown_drains_detached_jobs_and_prints_ledger() {
    let (mut child, addr) =
        spawn_sockd(&["--tcp", "127.0.0.1:0", "--drain-sweeps", "16"]);
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");
    let decidable = client
        .submit("A B C", "A -> B & B -> C |= A -> C", None)
        .expect("submit decidable");
    let (du, dq) = ballast();
    let divergent = client.submit(&du, dq, None).expect("submit divergent");
    client.detach(decidable).expect("detach decidable");
    client.detach(divergent).expect("detach divergent");
    client.shutdown_server().expect("send SHUTDOWN");
    drop(client);
    let status = child.wait().expect("server exit");
    assert!(status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        &mut child.stderr.take().expect("piped stderr"),
        &mut stderr,
    )
    .expect("read stderr");
    let done = stderr
        .lines()
        .find(|l| l.starts_with("typedtd-sockd: done"))
        .unwrap_or_else(|| panic!("missing done ledger: {stderr}"));
    let done = parse_counters(done);
    assert_eq!(done["submitted"], 2, "two jobs in: {stderr}");
    assert_eq!(
        done["answered"], 1,
        "the decidable detached job must be answered by the drain, not dropped: {stderr}"
    );
    assert_eq!(
        done["cancelled"], 1,
        "the divergent straggler must be explicitly cancelled: {stderr}"
    );
}

/// Overload shedding: with `max_inflight = 2`, the third concurrently
/// pending submission is answered `ERR_BUSY` (and counted as `shed`)
/// instead of growing the queue.
#[test]
fn max_inflight_sheds_with_err_busy() {
    let server = ProtoServer::bind(
        SockdConfig {
            service: ServiceConfig::default(),
            drivers: 1,
            max_inflight: Some(2),
            ..Default::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");
    // Three copies of the same divergent query: the first leads, the
    // second coalesces (both count as pending jobs), the third must
    // bounce off the bound.
    let (du, dq) = ballast();
    let c1 = client.submit(&du, dq, None).expect("submit 1");
    let c2 = client.submit(&du, dq, None).expect("submit 2");
    let c3 = client.submit(&du, dq, None).expect("submit 3");
    let err = client
        .wait_answer(c3)
        .expect_err("third submission must be shed");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("server err {}", err_code::BUSY)),
        "expected ERR_BUSY, got: {msg}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats["shed"], 1, "shed counter must appear in stats: {stats:?}");
    assert_eq!(stats["pending"], 2);
    // Clean up: cancel the divergent pair and confirm the ledger.
    client.cancel(c1).expect("cancel 1");
    client.cancel(c2).expect("cancel 2");
    let a1 = client.wait_answer(c1).expect("cancelled answer 1");
    let a2 = client.wait_answer(c2).expect("cancelled answer 2");
    assert!(a1.cancelled && a2.cancelled);
    assert_eq!(
        server.client().stats().shed,
        1,
        "shed must land in ServiceStats"
    );
    assert_eq!(server.client().stats().check(), Ok(()), "ledger identities");
    server.shutdown_now();
    server.join();
}

/// Client resilience: a resilient [`ProtoClient`] survives its server
/// being torn down and replaced — both between requests (write fails,
/// reconnect, retry) and with an answer outstanding (read fails,
/// reconnect, re-submit under the original correlation id).
#[cfg(unix)]
#[test]
fn client_reconnects_and_resubmits_after_server_restart() {
    let sock = temp_path("reconnect.sock");
    let cfg = || SockdConfig {
        service: ServiceConfig::default(),
        drivers: 1,
        ..Default::default()
    };
    let server1 = ProtoServer::bind(cfg(), None, Some(&sock)).expect("bind 1");
    let mut client = ProtoClient::connect_unix_with(
        &sock,
        ClientConfig::resilient(Duration::from_millis(200), 40),
    )
    .expect("connect resilient");
    let c1 = client
        .submit("A B C", "A -> B & B -> C |= A -> C", None)
        .expect("submit 1");
    let a1 = client.wait_answer(c1).expect("answer 1");
    assert_eq!(a1.implication, Answer::Yes);
    // Tear the server down between requests: the next submit hits a
    // dead socket, reconnects to the replacement, and goes through.
    server1.shutdown_now();
    server1.join();
    let server2 = ProtoServer::bind(cfg(), None, Some(&sock)).expect("bind 2");
    let c2 = client
        .submit("A B C D", "A -> B & B -> C & C -> D |= A -> D", None)
        .expect("submit 2 rides the reconnect");
    let a2 = client.wait_answer(c2).expect("answer 2");
    assert_eq!(a2.implication, Answer::Yes);
    // Tear it down with an answer outstanding: wait_answer observes the
    // dead connection, reconnects, re-submits the correlation, and the
    // replacement answers it (idempotently — the query is pure).
    let c3 = client
        .submit("A B C", "A -> B |= B -> A", None)
        .expect("submit 3");
    server2.shutdown_now();
    server2.join();
    let _server3 = ProtoServer::bind(cfg(), None, Some(&sock)).expect("bind 3");
    let a3 = client.wait_answer(c3).expect("answer 3 after resubmit");
    assert_eq!(a3.implication, Answer::No, "A -> B does not imply B -> A");
    let _ = std::fs::remove_file(&sock);
}

/// Degraded mode end to end: a service whose log write path keeps
/// failing counts `persist_errors`, flips the log read-only, and keeps
/// answering traffic normally.
#[test]
fn persistent_write_failure_degrades_without_affecting_answers() {
    let corpus = corpus();
    let reference = reference_answers(&corpus);
    let mut pc = PersistConfig::at(temp_path("degraded.log"));
    pc.fault.error_at = Some(8); // every write past the header fails
    let client = ImplicationClient::new(ServiceConfig {
        persist: Some(pc.clone()),
        ..ServiceConfig::default()
    });
    for (i, (uspec, query)) in corpus.iter().enumerate() {
        let universe = parse_universe_spec(uspec).expect("universe");
        let mut pool = ValuePool::new(universe.clone());
        let (sigma, goal) = parse_query_line(&universe, &mut pool, query).expect("query");
        let sigma_normal: Vec<_> = sigma
            .iter()
            .flat_map(|d| d.normalize(&universe, &mut pool))
            .collect();
        let mut imp = Answer::Yes;
        for part in goal.normalize(&universe, &mut pool) {
            let h = client.submit(QuerySpec::new(sigma_normal.clone(), part, pool.clone()));
            imp = imp.and(h.wait().implication);
        }
        assert_eq!(imp, reference[i].0, "degraded service must still answer {query:?}");
    }
    let stats = client.stats();
    assert!(
        stats.persist_errors > 0,
        "failed appends must be counted: {stats:?}"
    );
    assert_eq!(stats.check(), Ok(()), "ledger identities");
    // The log on disk is still a valid (empty) prefix — failed appends
    // healed back to the header instead of leaving torn bytes behind.
    let replay = typedtd_service::replay_log(&pc.path).expect("log readable");
    assert!(replay.records.is_empty());
    let _ = std::fs::remove_file(&pc.path);
}

type SeedLog = (Vec<u8>, Vec<(typedtd_service::QueryKey, CachedAnswer)>);

/// A valid multi-record log built once for the corruption fuzz.
fn valid_log_bytes() -> &'static SeedLog {
    static LOG: OnceLock<SeedLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let path = temp_path("fuzzseed.log");
        let (log, replayed) =
            PersistLog::open(&PersistConfig::at(&path)).expect("open fresh log");
        assert!(replayed.is_empty());
        let mut expected = Vec::new();
        for (i, (uspec, query)) in corpus().iter().enumerate() {
            let universe = parse_universe_spec(uspec).expect("universe");
            let mut pool = ValuePool::new(universe.clone());
            let (sigma, goal) = parse_query_line(&universe, &mut pool, query).expect("query");
            let sigma_normal: Vec<_> = sigma
                .iter()
                .flat_map(|d| d.normalize(&universe, &mut pool))
                .collect();
            for part in goal.normalize(&universe, &mut pool) {
                let key = query_key(&sigma_normal, &part);
                let answer = CachedAnswer {
                    implication: if i % 2 == 0 { Answer::Yes } else { Answer::No },
                    finite_implication: if i % 3 == 0 { Answer::Yes } else { Answer::No },
                };
                assert!(log.append(&key, answer, 1 + i as u64));
                expected.push((key, answer));
            }
        }
        drop(log);
        let bytes = std::fs::read(&path).expect("read log bytes");
        let _ = std::fs::remove_file(&path);
        (bytes, expected)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corruption fuzz: flip any byte or truncate at any point — replay
    /// never panics, and what it recovers is exactly a prefix of the
    /// records that were written, each with a rebuildable witness.
    #[test]
    fn corrupted_logs_replay_to_a_valid_prefix(
        at in 0usize..4096,
        flip in 0u32..=255,
        truncate in 0u32..2,
    ) {
        let (bytes, expected) = valid_log_bytes();
        let mut mutated = bytes.clone();
        let at = at % mutated.len();
        if truncate == 1 {
            mutated.truncate(at);
        } else {
            mutated[at] ^= (flip as u8) | 1; // always actually changes the byte
        }
        let replay = replay_bytes(&mutated);
        prop_assert!(replay.records.len() <= expected.len());
        prop_assert!(replay.valid_len as usize <= mutated.len());
        for (rec, (key, answer)) in replay.records.iter().zip(expected) {
            prop_assert_eq!(&rec.key, key);
            prop_assert_eq!(&rec.answer, answer);
            // Every survivor must still verify as a cache witness.
            prop_assert!(rec.key.witness_relation().is_some());
        }
    }
}

/// And the full stack over a corrupted log: a verify-hits service warm-
/// started from a flipped-and-truncated log still answers the whole
/// corpus correctly — surviving records serve as verified warm hits,
/// lost ones are simply recomputed.
#[test]
fn corrupted_log_still_feeds_a_verified_cache() {
    let corpus = corpus();
    let reference = reference_answers(&corpus);
    let path = temp_path("corrupt-cache.log");
    // Build a real log by running the corpus through a persisting client.
    {
        let client = ImplicationClient::new(ServiceConfig {
            persist: Some(PersistConfig::at(&path)),
            ..ServiceConfig::default()
        });
        for (uspec, query) in &corpus {
            let universe = parse_universe_spec(uspec).expect("universe");
            let mut pool = ValuePool::new(universe.clone());
            let (sigma, goal) = parse_query_line(&universe, &mut pool, query).expect("query");
            let sigma_normal: Vec<_> = sigma
                .iter()
                .flat_map(|d| d.normalize(&universe, &mut pool))
                .collect();
            for part in goal.normalize(&universe, &mut pool) {
                client
                    .submit(QuerySpec::new(sigma_normal.clone(), part, pool.clone()))
                    .wait();
            }
        }
    }
    // Corrupt it: flip a byte two-thirds in, truncate the last quarter.
    let mut bytes = std::fs::read(&path).expect("read log");
    let n = bytes.len();
    assert!(n > 16, "log must have content");
    bytes[n * 2 / 3] ^= 0x40;
    bytes.truncate(n - n / 4);
    std::fs::write(&path, &bytes).expect("write corrupted log");
    // Warm-start a verifying client from the damaged log.
    let client = ImplicationClient::new(ServiceConfig {
        persist: Some(PersistConfig::at(&path)),
        verify_cache_hits: true,
        ..ServiceConfig::default()
    });
    for (i, (uspec, query)) in corpus.iter().enumerate() {
        let universe = parse_universe_spec(uspec).expect("universe");
        let mut pool = ValuePool::new(universe.clone());
        let (sigma, goal) = parse_query_line(&universe, &mut pool, query).expect("query");
        let sigma_normal: Vec<_> = sigma
            .iter()
            .flat_map(|d| d.normalize(&universe, &mut pool))
            .collect();
        let mut imp = Answer::Yes;
        let mut fin = Answer::Yes;
        for part in goal.normalize(&universe, &mut pool) {
            let out = client
                .submit(QuerySpec::new(sigma_normal.clone(), part, pool.clone()))
                .wait();
            imp = imp.and(out.implication);
            fin = fin.and(out.finite_implication);
        }
        assert_eq!(
            (imp, fin),
            reference[i],
            "corrupted-log warm start must not change the answer to {query:?}"
        );
    }
    let stats = client.stats();
    assert_eq!(stats.verify_rejects, 0, "replayed witnesses must verify: {stats:?}");
    assert_eq!(stats.check(), Ok(()), "ledger identities");
    let _ = std::fs::remove_file(&path);
}

/// Replay keeps and drops the same records whether or not hits are
/// verified, though only verification rebuilds their witnesses. The log
/// holds every corpus answer twice, past the cache's capacity, and one
/// checksum-valid record whose goal encoding is malformed. Both modes
/// must keep the same number of entries under the same keys and serve the
/// same warm hits, and every verified hit must pass.
#[test]
fn replay_keeps_the_same_records_with_and_without_verification() {
    let mut parts = Vec::new();
    for (uspec, query) in &corpus() {
        let universe = parse_universe_spec(uspec).expect("universe");
        let mut pool = ValuePool::new(universe.clone());
        let (sigma, goal) = parse_query_line(&universe, &mut pool, query).expect("query");
        let sigma_normal: Vec<_> = sigma
            .iter()
            .flat_map(|d| d.normalize(&universe, &mut pool))
            .collect();
        for part in goal.normalize(&universe, &mut pool) {
            parts.push((sigma_normal.clone(), part, pool.clone()));
        }
    }
    type Part = (Vec<TdOrEgd>, TdOrEgd, ValuePool);
    let submit = |client: &ImplicationClient, (sigma, goal, pool): &Part| {
        client
            .submit(QuerySpec::new(sigma.clone(), goal.clone(), pool.clone()))
            .wait()
    };
    let path = temp_path("replay-modes.log");
    {
        let client = ImplicationClient::new(ServiceConfig {
            persist: Some(PersistConfig::at(&path)),
            ..ServiceConfig::default()
        });
        for part in &parts {
            submit(&client, part);
        }
    }
    let records = replay_log(&path).expect("log readable").records;
    let (log, _) = PersistLog::open(&PersistConfig::at(&path)).expect("reopen log");
    for rec in &records {
        assert!(log.append(&rec.key, rec.answer, rec.cost));
    }
    // Width 3, untyped, empty Σ, and a one-word goal: the key decodes,
    // but no witness can be rebuilt from it.
    let mut bytes = vec![3, 0, 0];
    for w in [0u32, 1, 7] {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let (malformed, _) = QueryKey::decode(&bytes).expect("structurally valid key");
    assert!(malformed.witness_ids().is_none() && malformed.witness_relation().is_none());
    let yes = CachedAnswer {
        implication: Answer::Yes,
        finite_implication: Answer::Yes,
    };
    assert!(log.append(&malformed, yes, 1));
    drop(log);
    let capacity = 4;
    assert!(records.len() > capacity, "the log must overflow the cache");
    // Each client replays its own copy: misses append to the log.
    let copies = std::cell::Cell::new(0);
    let replayed = |verify: bool| {
        copies.set(copies.get() + 1);
        let copy = temp_path(&format!("replay-modes-{}.log", copies.get()));
        std::fs::copy(&path, &copy).expect("copy log");
        let client = ImplicationClient::new(ServiceConfig {
            persist: Some(PersistConfig::at(&copy)),
            cache_capacity: capacity,
            verify_cache_hits: verify,
            shards: 2,
            ..ServiceConfig::default()
        });
        (client, copy)
    };
    let run = |verify: bool| {
        let (client, copy) = replayed(verify);
        let len = client.cache_len();
        drop(client);
        let _ = std::fs::remove_file(copy);
        // Which parts a freshly replayed cache serves, each probed alone.
        let kept: Vec<bool> = parts
            .iter()
            .map(|part| {
                let (client, copy) = replayed(verify);
                let hit = submit(&client, part).from_cache;
                let _ = std::fs::remove_file(copy);
                hit
            })
            .collect();
        let (client, copy) = replayed(verify);
        for part in &parts {
            submit(&client, part);
        }
        let _ = std::fs::remove_file(copy);
        (len, kept, client.stats())
    };
    let (len, kept, plain) = run(false);
    let (verified_len, verified_kept, verified) = run(true);
    assert_eq!(len, capacity, "replay fills the cache to its bound");
    assert_eq!(verified_len, len, "both modes keep as many entries");
    assert_eq!(verified_kept, kept, "both modes keep the same keys");
    assert!(kept.contains(&true) && kept.contains(&false), "replay keeps some, evicts some");
    assert!(plain.warm_hits > 0, "resubmission must hit replayed entries");
    assert_eq!(verified.warm_hits, plain.warm_hits, "both modes serve the same warm hits");
    assert_eq!(verified.verify_rejects, 0, "replayed witnesses must verify: {verified:?}");
    assert_eq!(plain.check(), Ok(()), "ledger identities");
    assert_eq!(verified.check(), Ok(()), "ledger identities");
    let _ = std::fs::remove_file(&path);
}
