//! The streaming socket front end (`typedtd-proto`) against the
//! in-process decision path: a concurrent **differential soak harness**.
//!
//! N client threads replay randomized slices of the fd/mvd/pjd oracle
//! corpus (plus fuel-capped divergent ballast) through a live
//! `typedtd-sockd` server and assert *frame-level* parity with
//! sequential in-process `decide`:
//!
//! * every `ANSWER` frame's implication/finite pair equals the blocking
//!   reference for that query text;
//! * cancellation statuses are exact — a cancelled divergent submission
//!   resolves with the `cancelled` flag, a fuel-capped one with
//!   `expired`;
//! * the per-connection stats invariant holds once the connection has
//!   drained: `answered + cancelled + expired == submitted` with
//!   `pending == 0`.
//!
//! The codec itself is property-tested (round trips, truncations) and
//! the server is fuzzed with garbage streams: a malformed frame yields
//! `ERR` or a clean disconnect — never a panic, never a desynced
//! answer for a later, well-formed connection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use typedtd::chase::{decide, Answer, DecideConfig};
use typedtd::service::proto::err_code;
use typedtd::service::{
    decode_frame, parse_query_line, parse_stats_text, parse_universe_spec, Frame, Opcode,
    ProgressKind, ProtoClient, ProtoServer, ProtoStream, RunningUpdate, ServiceConfig, SockdConfig,
    SubmitPayload, WireAnswer, PROTO_VERSION,
};
use typedtd_relational::ValuePool;

/// Spawns a TCP server on an ephemeral loopback port.
fn tcp_server(cfg: SockdConfig) -> (ProtoServer, std::net::SocketAddr) {
    let server = ProtoServer::bind(cfg, Some("127.0.0.1:0"), None).expect("bind tcp");
    let addr = server.tcp_addr().expect("tcp listener");
    (server, addr)
}

/// A unique Unix-socket path under the system temp dir.
fn unix_sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "typedtd-proto-{tag}-{}-{:x}.sock",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
    ))
}

/// The textual oracle corpus: `(universe_spec, query)` pairs over
/// `A B C D` covering fds, mvds, and pjds — every one decidable under
/// the default budgets (the reference asserts it).
fn oracle_corpus() -> Vec<(String, String)> {
    let names = ["A", "B", "C", "D"];
    let set = |mask: u32| -> String {
        names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let u = "A B C D".to_string();
    let mut corpus = Vec::new();
    for i in 0u32..12 {
        let l1 = 1 + (i * 3) % 14;
        let r1 = 1 + (i * 7) % 14;
        let l2 = 1 + (i * 5) % 14;
        let r2 = 1 + (i * 11) % 14;
        let gl = 1 + (i * 9) % 14;
        let gr = 1 + (i * 13) % 14;
        let dep = |l: u32, r: u32, fd: bool| {
            if fd {
                format!("{} -> {}", set(l), set(r))
            } else {
                format!("{} ->> {}", set(l), set(r))
            }
        };
        let query = format!(
            "{} & {} |= {}",
            dep(l1, r1, i % 2 == 0),
            dep(l2, r2, i % 3 == 0),
            dep(gl, gr, i % 2 == 1),
        );
        corpus.push((u.clone(), query));
    }
    // The pjd slice: join dependencies as Σ and as goals.
    corpus.push((u.clone(), "*[AB, BC, CD] |= A ->> B".into()));
    corpus.push((u.clone(), "*[ABC, CD] |= C ->> D".into()));
    corpus.push((u.clone(), "A ->> B |= *[AB, BCD]".into()));
    corpus.push((u.clone(), "*[AB, BC] on AC |= A ->> C".into()));
    // Chain classics with cache-friendly repeats baked into the corpus.
    corpus.push((u.clone(), "A -> B & B -> C & C -> D |= A -> D".into()));
    corpus.push((u.clone(), "B -> C & A -> B & C -> D |= A -> D".into()));
    corpus.push((u.clone(), "A ->> B & B ->> C |= A ->> C".into()));
    corpus.push((u, "A -> B |= B -> A".into()));
    corpus
}

/// The sequential in-process reference: parse exactly like the server,
/// decide each normalized goal part, conjoin. Returns the
/// (implication, finite) pair per corpus entry.
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
            (imp, fin)
        })
        .collect()
}

/// Ballast no procedure ever answers: [`cfp_text`]'s query, widened by
/// `64 + salt` columns, so each salt has its own canonical key (concurrent
/// connections never coalesce their ballast, and cancellations stay
/// connection-local) and none collides with `cfp_text`'s own. Finitely
/// implied but not implied, so no search can refute it and no chase can
/// prove it: it ends only when cancelled, expired by its fuel cap, or
/// `Unknown` once both budgets are spent ([`ballast_is_never_answered`]).
fn divergent_text(salt: usize) -> (String, String) {
    cfp_text(32 + salt)
}

/// The socket tests' ballast stays unanswered long enough to cancel: in
/// process, under the server's decide budgets in both modes, it is still
/// pending after 258 fuel units (by which the search refutes a successor-td
/// ballast) and ends `Unknown`, never definite.
#[test]
fn ballast_is_never_answered() {
    use typedtd::chase::{DecideMode, DecideStatus, DecideTask};
    let (uspec, text) = divergent_text(0);
    let universe = parse_universe_spec(&uspec).expect("universe parses");
    let mut pool = ValuePool::new(universe.clone());
    let (sigma, goal) = parse_query_line(&universe, &mut pool, &text).expect("query parses");
    let sigma: Vec<_> = sigma
        .iter()
        .flat_map(|d| d.normalize(&universe, &mut pool))
        .collect();
    for mode in [DecideMode::Sequential, DecideMode::adaptive_dovetail(1)] {
        for part in goal.normalize(&universe, &mut pool) {
            let cfg = DecideConfig {
                mode,
                ..ServiceConfig::default().decide
            };
            let mut task = DecideTask::new(sigma.clone(), part, pool.clone(), cfg);
            assert_eq!(task.step(258), DecideStatus::Pending, "{mode:?}: answered by 258 fuel");
            task.run_to_completion();
            let fuel = task.fuel_spent();
            let (d, _) = task.finish();
            assert_eq!(
                (d.implication, d.finite_implication),
                (Answer::Unknown, Answer::Unknown),
                "{mode:?}: the ballast got a definite answer after {fuel} fuel"
            );
        }
    }
}

/// Casanova–Fagin–Papadimitriou's `A -> B & [A] <= [B] |= [B] <= [A]`
/// over an untyped universe widened by `32 + salt` columns, so each salt
/// has its own canonical key. Finitely implied but not implied: the chase
/// grows until its budget runs out and no finite counterexample exists
/// for the search to find, so it ends `Unknown` after hundreds of fuel
/// units. The unmentioned columns make each unit dearer, so a release
/// build runs tens of milliseconds, many times the few milliseconds a
/// connection loop iteration can wait in its read.
fn cfp_text(salt: usize) -> (String, String) {
    let extra: Vec<String> = (0..32 + salt).map(|i| format!("C{i}")).collect();
    (
        format!("untyped A B {}", extra.join(" ")),
        "A -> B & [A] <= [B] |= [B] <= [A]".to_string(),
    )
}

/// Fisher–Yates over the shim rng.
fn shuffled(n: usize, repeats: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n * repeats).map(|i| i % n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// The soak body: `threads` concurrent clients replay shuffled corpus
/// slices plus divergent ballast (one cancelled, one fuel-capped per
/// thread) and assert frame-level parity, cancellation statuses, and
/// the stats invariant. `connect` builds one client per thread.
fn run_soak(
    threads: usize,
    repeats: usize,
    connect: impl Fn() -> ProtoClient + Sync,
) {
    let corpus = oracle_corpus();
    let reference = reference_answers(&corpus);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let corpus = &corpus;
            let reference = &reference;
            let connect = &connect;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x1982 + t as u64);
                let mut client = connect();
                let order = shuffled(corpus.len(), repeats, &mut rng);

                // Divergent ballast first: one to cancel mid-flight
                // (huge cap — only the cancel resolves it), one to
                // expire on a small fuel cap. Distinct widths per
                // (thread, slot) keep ballast from coalescing across
                // connections.
                let (cu, cq) = divergent_text(2 * t);
                let cancel_corr = client
                    .submit(&cu, &cq, Some(100_000))
                    .expect("submit cancel ballast");
                let (eu, eq) = divergent_text(2 * t + 1);
                let expire_corr = client
                    .submit(&eu, &eq, Some(64))
                    .expect("submit expire ballast");
                client.cancel(cancel_corr).expect("send cancel");

                // Replay the corpus slice fully pipelined.
                let mut expected: Vec<(u64, usize)> = Vec::with_capacity(order.len());
                for idx in order {
                    let (uspec, query) = &corpus[idx];
                    let corr = client.submit(uspec, query, None).expect("submit corpus");
                    expected.push((corr, idx));
                }

                // Collect out-of-order answers, frame-level parity per id.
                for (corr, idx) in &expected {
                    let answer = client.wait_answer(*corr).expect("corpus answer");
                    let (imp, fin) = reference[*idx];
                    assert_eq!(
                        (answer.implication, answer.finite_implication),
                        (imp, fin),
                        "thread {t}: wire answer diverged on {:?}",
                        corpus[*idx].1
                    );
                    assert!(!answer.cancelled, "corpus answers are never cancelled");
                    assert!(!answer.expired, "corpus answers never expire");
                }
                let cancelled = client.wait_answer(cancel_corr).expect("cancel answer");
                assert!(
                    cancelled.cancelled,
                    "thread {t}: cancelled ballast must resolve with the cancelled flag"
                );
                assert_eq!(cancelled.implication, Answer::Unknown);
                let expired = client.wait_answer(expire_corr).expect("expire answer");
                assert!(
                    expired.expired,
                    "thread {t}: fuel-capped ballast must resolve with the expired flag"
                );
                assert!(!expired.cancelled);
                assert_eq!(expired.implication, Answer::Unknown);

                // The drained connection's ledger must balance.
                let stats = client.stats().expect("stats");
                assert_eq!(stats["pending"], 0, "thread {t}: connection drained");
                assert_eq!(
                    stats["answered"] + stats["cancelled"] + stats["expired"],
                    stats["submitted"],
                    "thread {t}: stats invariant violated: {stats:?}"
                );
                assert_eq!(stats["submitted"], expected.len() as u64 + 2);
                assert_eq!(stats["cancelled"], 1, "thread {t}");
                assert_eq!(stats["expired"], 1, "thread {t}");
            });
        }
    });
}

/// The acceptance soak: ≥4 concurrent TCP clients over the oracle
/// corpus.
#[test]
fn soak_differential_tcp_four_clients() {
    let (server, addr) = tcp_server(SockdConfig::default());
    run_soak(4, 2, || ProtoClient::connect_tcp(addr).expect("connect"));
    let served = server.client().stats();
    assert_eq!(served.check(), Ok(()), "ledger identities after the soak");
    assert!(
        served.cache_hits + served.coalesced > 0,
        "identical cross-connection queries must share work: {served:?}"
    );
}

/// The CI smoke configuration: 2 clients, small corpus slice, Unix
/// socket.
#[test]
fn soak_differential_unix_smoke() {
    let path = unix_sock_path("soak");
    let server = ProtoServer::bind(SockdConfig::default(), None, Some(&path)).expect("bind unix");
    run_soak(2, 1, || {
        ProtoClient::connect_unix(server.unix_path().expect("unix listener")).expect("connect")
    });
    assert_eq!(server.client().stats().check(), Ok(()), "ledger identities after the soak");
}

/// PROGRESS streaming differential: one client submits the full corpus
/// with the progress flag plus a long-running fuel-capped query, a second
/// plain client replays the same corpus flagless. Asserts
///
/// * exact answer parity — streaming changes observability, never
///   verdicts (both sides also match the sequential reference);
/// * the long-running query streams at least one `Running` frame and
///   every consecutive pair is strictly fuel-monotone (per correlation);
/// * the profiling payload is live: chase rounds moved, the phase is
///   reported, and `parts`/`pending` describe the fan-out.
#[test]
fn progress_streaming_parity_and_monotone_fuel() {
    let corpus = oracle_corpus();
    let reference = reference_answers(&corpus);
    let (server, addr) = tcp_server(SockdConfig::default());
    let mut streaming = ProtoClient::connect_tcp(addr).expect("connect streaming");
    let mut plain = ProtoClient::connect_tcp(addr).expect("connect plain");

    // The long-running ballast goes first so it computes (and streams)
    // while the corpus answers interleave on the same connection —
    // its Running frames must stash and replay in order.
    let (du, dq) = cfp_text(0);
    let div_corr = streaming
        .submit_with_progress(&du, &dq, Some(4096))
        .expect("submit long-running streaming");

    let s_corrs: Vec<u64> = corpus
        .iter()
        .map(|(u, q)| streaming.submit_with_progress(u, q, None).expect("submit streaming"))
        .collect();
    let p_corrs: Vec<u64> = corpus
        .iter()
        .map(|(u, q)| plain.submit(u, q, None).expect("submit plain"))
        .collect();

    for (idx, (s, p)) in s_corrs.iter().zip(&p_corrs).enumerate() {
        let mut updates: Vec<RunningUpdate> = Vec::new();
        let sa = streaming
            .wait_answer_with_progress(*s, |up| updates.push(up))
            .expect("streamed corpus answer");
        let pa = plain.wait_answer(*p).expect("plain corpus answer");
        assert_eq!(
            (sa.implication, sa.finite_implication),
            (pa.implication, pa.finite_implication),
            "streaming changed the answer on {:?}",
            corpus[idx].1
        );
        assert_eq!(
            (sa.implication, sa.finite_implication),
            reference[idx],
            "wire answer diverged from the sequential reference on {:?}",
            corpus[idx].1
        );
        // Fast corpus queries may or may not cross a progress tick;
        // whatever did arrive must be monotone.
        assert!(
            updates.windows(2).all(|w| w[0].fuel < w[1].fuel),
            "corpus Running frames must be fuel-monotone: {updates:?}"
        );
    }

    let mut updates: Vec<RunningUpdate> = Vec::new();
    let div = streaming
        .wait_answer_with_progress(div_corr, |up| updates.push(up))
        .expect("long-running streamed answer");
    // The server runs sequential mode: the chase spends its budget, then
    // the search exhausts its attempts without a witness, all well inside
    // the 4096 cap. That long natural run is what crosses enough progress
    // ticks to stream reliably. (The expired path is covered by the
    // soak's `Some(64)` ballast, where the cap bites in the chase.)
    assert_eq!(
        div.implication,
        Answer::Unknown,
        "finitely implied, not implied"
    );
    assert_eq!(div.finite_implication, Answer::Unknown);
    assert!(!div.cancelled, "nothing cancelled the long-running query");
    // The wire flags every uncancelled `Unknown` as expired; the decide
    // budgets ran out here, not the cap.
    assert!(div.expired, "an uncancelled Unknown reads expired");
    assert!(
        div.fuel_spent < 4096,
        "budgets, not the cap, settle the query: {div:?}"
    );
    assert!(
        !updates.is_empty(),
        "a 4096-fuel run must stream at least one Running frame"
    );
    assert!(
        updates.windows(2).all(|w| w[0].fuel < w[1].fuel),
        "long-running Running frames must be strictly fuel-monotone: {updates:?}"
    );
    let last = updates.last().expect("nonempty");
    assert!(last.fuel > 0, "fuel must be live: {last:?}");
    assert!(last.rounds > 0, "chase profiling must move: {last:?}");
    assert!(!last.phase.is_empty(), "phase must be reported: {last:?}");
    assert_eq!(last.parts, 1, "single goal part: {last:?}");
    assert_eq!(last.pending, 1, "still computing when cut: {last:?}");
    drop(server);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Codec round trip: arbitrary opcode bytes, correlation ids, and
    /// payloads survive encode → decode exactly, including when several
    /// frames are concatenated and split at arbitrary points.
    #[test]
    fn frame_codec_roundtrip(
        opcodes in prop::collection::vec(0u32..=255, 1..5),
        corr in 0u64..u64::MAX,
        payload_lens in prop::collection::vec(0usize..200, 1..5),
        split in 1usize..64,
    ) {
        let frames: Vec<Frame> = opcodes
            .iter()
            .zip(&payload_lens)
            .enumerate()
            .map(|(i, (&op, &plen))| Frame {
                version: PROTO_VERSION,
                opcode: op as u8,
                corr: corr.wrapping_add(i as u64),
                payload: (0..plen).map(|b| (b % 251) as u8).collect(),
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        // Feed the stream in `split`-byte chunks through an accumulating
        // buffer, exactly like the server's reader loop.
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded: Vec<Frame> = Vec::new();
        for chunk in wire.chunks(split) {
            buf.extend_from_slice(chunk);
            loop {
                match decode_frame(&buf) {
                    Ok(Some((frame, used))) => {
                        buf.drain(..used);
                        decoded.push(frame);
                    }
                    Ok(None) => break,
                    Err(e) => prop_assert!(false, "well-formed stream errored: {e}"),
                }
            }
        }
        prop_assert!(buf.is_empty(), "no residue after all frames");
        prop_assert_eq!(decoded, frames);
    }

    /// Garbage in, never a panic or desync out: random byte blobs thrown
    /// at a live server yield `ERR` frames or a clean disconnect, and a
    /// well-formed connection opened afterwards still gets exact
    /// answers.
    #[test]
    fn garbage_streams_never_poison_the_server(
        blob in prop::collection::vec(0u32..=255, 1..200),
    ) {
        use std::io::Write;
        let (server, addr) = tcp_server(SockdConfig::default());
        {
            let mut garbage = std::net::TcpStream::connect(addr).expect("connect");
            let bytes: Vec<u8> = blob.iter().map(|&b| b as u8).collect();
            // The write may fail midway if the server already hung up on
            // a desynced prefix — that is the "clean disconnect" arm.
            let _ = garbage.write_all(&bytes);
            let _ = garbage.flush();
            // Drain whatever the server sent (ERR frames or EOF); any
            // panic on the server side would surface as a test failure
            // through the follow-up connection below.
        }
        let mut good = ProtoClient::connect_tcp(addr).expect("connect after garbage");
        let corr = good
            .submit("A B C", "A -> B & B -> C |= A -> C", None)
            .expect("submit");
        let answer = good.wait_answer(corr).expect("answer after garbage");
        prop_assert_eq!(answer.implication, Answer::Yes);
        prop_assert_eq!(answer.finite_implication, Answer::Yes);
        drop(good);
        drop(server);
    }
}

/// Deliberately malformed frames each get the documented reaction:
/// oversized/undersized lengths close the stream after an `ERR`, a bad
/// version closes after an `ERR`, a bad opcode and a bad payload answer
/// `ERR` and keep the connection serving.
#[test]
fn malformed_frames_get_err_or_clean_disconnect() {
    use std::io::{Read, Write};
    let (server, addr) = tcp_server(SockdConfig::default());

    // Oversized length prefix: ERR BAD_FRAME then disconnect.
    {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[1, 1, 0, 0]);
        s.write_all(&bytes).expect("write");
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).expect("server must close cleanly");
        let (frame, _) = decode_frame(&reply).expect("reply decodes").expect("one ERR");
        assert_eq!(Opcode::from_u8(frame.opcode), Some(Opcode::Err));
        let (code, _) = typedtd::service::proto::decode_err(&frame.payload).unwrap();
        assert_eq!(code, err_code::BAD_FRAME);
    }

    // Undersized length prefix: same contract.
    {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        // One write: were the length prefix and body split across two
        // syscalls, the server could read the prefix alone, reply ERR,
        // and close with the body unread — an RST instead of clean EOF.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        s.write_all(&bytes).expect("write");
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).expect("server must close cleanly");
        let (frame, _) = decode_frame(&reply).expect("reply decodes").expect("one ERR");
        let (code, _) = typedtd::service::proto::decode_err(&frame.payload).unwrap();
        assert_eq!(code, err_code::BAD_FRAME);
    }

    // Truncated frame then EOF: the server just cleans up (no reply
    // owed); the listener must stay healthy.
    {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(&100u32.to_le_bytes()).expect("write");
        s.write_all(&[1, 1, 7]).expect("write");
        drop(s);
    }

    // Wrong version: ERR BAD_VERSION, then close.
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        client
            .send_raw(&Frame {
                version: PROTO_VERSION + 1,
                opcode: Opcode::Stats as u8,
                corr: 9,
                payload: Vec::new(),
            })
            .expect("send");
        let frame = client.recv().expect("err frame");
        assert_eq!(Opcode::from_u8(frame.opcode), Some(Opcode::Err));
        assert_eq!(frame.corr, 9);
        let (code, _) = typedtd::service::proto::decode_err(&frame.payload).unwrap();
        assert_eq!(code, err_code::BAD_VERSION);
        assert!(
            client.recv().is_err(),
            "bad version must close the connection after the ERR"
        );
    }

    // Unknown opcode: ERR BAD_OPCODE and the connection keeps serving.
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        client
            .send_raw(&Frame {
                version: PROTO_VERSION,
                opcode: 0x7f,
                corr: 11,
                payload: Vec::new(),
            })
            .expect("send");
        let frame = client.recv().expect("err frame");
        let (code, _) = typedtd::service::proto::decode_err(&frame.payload).unwrap();
        assert_eq!(code, err_code::BAD_OPCODE);
        let corr = client.submit("A B C", "A -> B |= A -> B", None).expect("submit");
        let answer = client.wait_answer(corr).expect("answer");
        assert_eq!(answer.implication, Answer::Yes);
    }

    // Malformed SUBMIT payload: ERR BAD_PAYLOAD, connection continues.
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        client
            .send_raw(&Frame::new(Opcode::Submit, 5, vec![1, 2, 3]))
            .expect("send");
        let frame = client.recv().expect("err frame");
        let (code, _) = typedtd::service::proto::decode_err(&frame.payload).unwrap();
        assert_eq!(code, err_code::BAD_PAYLOAD);
        let corr = client.submit("A B", "A -> B |= A -> B", None).expect("submit");
        assert_eq!(client.wait_answer(corr).unwrap().implication, Answer::Yes);
    }

    // Unparseable query text (including the panicky pjd parser): ERR
    // PARSE, connection continues — the parser layer can never kill the
    // connection thread.
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        for bad in ["A -> B", "A -> B |= |= B", "*[A |= A -> B", "*[ZZ, QQ] |= A -> B"] {
            let corr = client.submit("A B C", bad, None).expect("submit");
            let err = client.wait_answer(corr).expect_err("must be rejected");
            assert!(
                err.to_string().contains("err 5"),
                "{bad:?} must fail with PARSE, got {err}"
            );
        }
        let corr = client.submit("A B C", "A -> B |= A -> B", None).expect("submit");
        assert_eq!(client.wait_answer(corr).unwrap().implication, Answer::Yes);
    }
    drop(server);
}

/// Disconnect semantics: dropping a connection cancels its pending
/// (non-detached) jobs; a detached job survives, keeps computing, and
/// its answer lands in the shared cache for later connections.
#[test]
fn dropped_connection_maps_to_cancel_and_detach() {
    let (server, addr) = tcp_server(SockdConfig::default());

    // Not detached: the divergent job dies with its connection.
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        let (u, q) = divergent_text(20);
        let corr = client.submit(&u, &q, Some(1_000_000)).expect("submit");
        // Wait for the ACCEPTED ack so the submission is live before we
        // hang up.
        let ack = client.recv().expect("ack");
        assert_eq!(Opcode::from_u8(ack.opcode), Some(Opcode::Progress));
        assert_eq!(ack.corr, corr);
    }
    wait_until("dropped job is cancelled", || {
        server.client().stats().cancelled >= 1 && server.client().pending_jobs() == 0
    });

    // Detached: the job survives the disconnect and feeds the cache.
    let (du, dq) = {
        // A decidable-but-multi-round query (mvd chain) so the answer
        // lands after the disconnect and must come from the kept-alive
        // computation.
        ("A B C D".to_string(), "A ->> B & B ->> C & C ->> D |= A ->> D".to_string())
    };
    {
        let mut client = ProtoClient::connect_tcp(addr).expect("connect");
        let corr = client.submit(&du, &dq, None).expect("submit");
        client.detach(corr).expect("detach");
        let ack = client.recv().expect("ack");
        assert_eq!(Opcode::from_u8(ack.opcode), Some(Opcode::Progress));
    }
    wait_until("detached job completes for the cache", || {
        server.client().pending_jobs() == 0
    });
    // The answer (Yes — mvd chain transitivity) must now be a cache hit
    // for a brand-new connection.
    let hits_before = server.client().stats().cache_hits;
    let mut fresh = ProtoClient::connect_tcp(addr).expect("connect");
    let corr = fresh.submit(&du, &dq, None).expect("submit");
    let answer = fresh.wait_answer(corr).expect("answer");
    assert_eq!(answer.implication, Answer::Yes);
    assert!(answer.from_cache, "detached computation must have fed the cache");
    assert_eq!(server.client().stats().cache_hits, hits_before + 1);
    drop(server);
}

/// The wire encoding of a `SUBMIT` frame for `(universe, query)`.
fn submit_frame(corr: u64, (universe, query): (String, String), fuel_cap: Option<u64>) -> Frame {
    let payload = SubmitPayload {
        fuel_cap,
        universe,
        query,
        progress: false,
    };
    Frame::new(Opcode::Submit, corr, payload.encode())
}

/// A `CANCEL` that arrives while a driver is still preparing its
/// `SUBMIT` is remembered, never answered `UNKNOWN_CORR`, and resolves
/// the job cancelled once its handles arrive; a `STATS` taken meanwhile
/// counts the submission as submitted and pending.
#[test]
fn cancel_before_accepted_resolves_cancelled() {
    use std::io::Write;
    let (server, addr) = tcp_server(SockdConfig::default());
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let (corr, stats_corr) = (41, 42);
    let mut wire = Vec::new();
    submit_frame(corr, divergent_text(30), Some(1_000_000)).encode_into(&mut wire);
    Frame::new(Opcode::Cancel, corr, Vec::new()).encode_into(&mut wire);
    Frame::new(Opcode::Stats, stats_corr, Vec::new()).encode_into(&mut wire);
    // One write, so the connection cuts all three frames in one round,
    // before it wakes a driver for the SUBMIT.
    raw.write_all(&wire).expect("write SUBMIT + CANCEL + STATS");
    let mut client = ProtoClient::over(ProtoStream::Tcp(raw));
    let (mut accepted, mut early_stats) = (false, None);
    let answer = loop {
        let frame = client.recv().expect("frame");
        let kind = frame.payload.first().copied();
        match (Opcode::from_u8(frame.opcode), frame.corr) {
            (Some(Opcode::Progress), c) if c == stats_corr => {
                assert_eq!(kind, Some(ProgressKind::Stats as u8));
                let text = String::from_utf8_lossy(&frame.payload[1..]).into_owned();
                early_stats = Some(parse_stats_text(&text));
            }
            (Some(Opcode::Progress), c) if c == corr => {
                assert_eq!(kind, Some(ProgressKind::Accepted as u8));
                accepted = true;
            }
            (Some(Opcode::Answer), c) if c == corr => {
                break WireAnswer::decode(&frame.payload).expect("answer");
            }
            _ => panic!("an early CANCEL must not be answered so: {frame:?}"),
        }
    };
    let early = early_stats.expect("the STATS reply leaves before the ANSWER");
    assert_eq!(
        (early["submitted"], early["pending"], early["cancelled"]),
        (1, 1, 0),
        "a SUBMIT being prepared is submitted and pending: {early:?}"
    );
    assert!(accepted, "ACCEPTED comes before the ANSWER");
    assert!(
        answer.cancelled,
        "the early CANCEL must cancel the job: {answer:?}"
    );
    assert_eq!(answer.implication, Answer::Unknown);
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats["submitted"], stats["cancelled"], stats["pending"]),
        (1, 1, 0),
        "{stats:?}"
    );
    drop(client);
    wait_until("the connection retires its jobs", || {
        server.client().pending_jobs() == 0 && server.client().live_jobs() == 0
    });
    assert_eq!(server.client().stats().check(), Ok(()), "ledger identities");
}

/// A client that hangs up with `SUBMIT`s still waiting for a driver
/// leaves nothing behind: each is prepared, submitted and cancelled like
/// any other submission of a dropped connection.
#[test]
fn hangup_with_queued_submits_leaves_no_live_job() {
    use std::io::Write;
    let (server, addr) = tcp_server(SockdConfig {
        drivers: 1,
        ..SockdConfig::default()
    });
    let queued = 16u64;
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        let mut wire = Vec::new();
        for i in 0..queued {
            submit_frame(i + 1, divergent_text(40 + i as usize), Some(1_000_000))
                .encode_into(&mut wire);
        }
        raw.write_all(&wire).expect("write the SUBMITs");
    }
    // `submitted` counts a SUBMIT as `submit` begins, before its job is
    // pending or live, so settled also means every job completed.
    wait_until("every queued SUBMIT is submitted and settled", || {
        let c = server.client();
        let stats = c.stats();
        stats.submitted == queued
            && stats.completed == queued
            && c.pending_jobs() == 0
            && c.live_jobs() == 0
    });
    let stats = server.client().stats();
    assert_eq!(
        stats.cancelled, queued,
        "a dropped connection cancels them all: {stats:?}"
    );
    assert_eq!(stats.check(), Ok(()), "ledger identities");
}

/// A progress-flagged job that computes for tens of milliseconds streams
/// `Running` frames at about the progress interval, not once per kernel
/// tick: at least 5 before its `ANSWER`. The query is
/// Casanova–Fagin–Papadimitriou's, widened so a release build computes
/// for about 30 ms under a fuel cap: its chase diverges until the decide
/// budget runs out, and no finite counterexample exists for the search
/// to find.
#[test]
fn long_streamed_job_gets_running_frames_at_the_progress_interval() {
    let (server, addr) = tcp_server(SockdConfig::default());
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");
    let (u, q) = cfp_text(1);
    let t0 = std::time::Instant::now();
    let corr = client
        .submit_with_progress(&u, &q, Some(4096))
        .expect("submit");
    let mut updates: Vec<RunningUpdate> = Vec::new();
    let answer = client
        .wait_answer_with_progress(corr, |up| updates.push(up))
        .expect("streamed answer");
    let took = t0.elapsed();
    eprintln!("{} Running frames over {took:?}", updates.len());
    assert_eq!(
        answer.implication,
        Answer::Unknown,
        "finitely implied, not implied"
    );
    assert!(
        updates.len() >= 5,
        "a job computing for {took:?} must stream at least 5 Running frames, got {}",
        updates.len()
    );
    assert!(
        updates.windows(2).all(|w| w[0].fuel < w[1].fuel),
        "Running frames must be strictly fuel-monotone: {updates:?}"
    );
    drop(server);
}

/// A `SHUTDOWN` frame stops the whole server: the sender gets a `BYE`,
/// every thread joins, and the port stops accepting.
#[test]
fn shutdown_frame_stops_the_server() {
    let (server, addr) = tcp_server(SockdConfig::default());
    // Regression: an idle connection (accepted, never sends a byte) must
    // not wedge the shutdown — its thread has to observe the flag
    // through its read timeout, not wait for client bytes.
    let idle = std::net::TcpStream::connect(addr).expect("idle connect");
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");
    let corr = client.submit("A B C", "A -> B & B -> C |= A -> C", None).expect("submit");
    let answer = client.wait_answer(corr).expect("answer before shutdown");
    assert_eq!(answer.implication, Answer::Yes);
    client.shutdown_server().expect("send shutdown");
    // BYE (possibly preceded by stashed progress frames).
    loop {
        let frame = client.recv().expect("bye");
        if Opcode::from_u8(frame.opcode) == Some(Opcode::Progress)
            && frame.payload.first() == Some(&2)
        {
            break;
        }
    }
    // join() must return even while `idle` is still connected and
    // silent (the watchdog is the test harness timeout).
    server.join();
    drop(idle);
    assert!(
        std::net::TcpStream::connect(addr).is_err()
            || ProtoClient::connect_tcp(addr)
                .map(|mut c| c.submit("A B", "A -> B |= A -> B", None).is_err())
                .unwrap_or(true),
        "a joined server must not serve new connections"
    );
}

/// Classifier-routing and Σ-group counters round-trip through the
/// `STATS` frame and the Prometheus exposition, and the token-tolerant
/// parser still accepts an old-format reply without them.
#[test]
fn stats_frame_roundtrips_classifier_and_group_tokens() {
    let (server, addr) = tcp_server(SockdConfig {
        service: ServiceConfig {
            group: true,
            ..ServiceConfig::default()
        },
        ..SockdConfig::default()
    });
    let mut client = ProtoClient::connect_tcp(addr).expect("connect");
    // Two queries sharing Σ and goal-hypothesis shape: the weakly acyclic
    // fd chain routes off dovetail, and both members land in one Σ-group.
    let c1 = client
        .submit("A B C", "A -> B & B -> C |= A -> C", None)
        .expect("submit");
    let c2 = client
        .submit("A B C", "A -> B & B -> C |= A ->> C", None)
        .expect("submit");
    assert_eq!(client.wait_answer(c1).expect("answer").implication, Answer::Yes);
    assert_eq!(client.wait_answer(c2).expect("answer").implication, Answer::Yes);
    let stats = client.stats().expect("stats");
    for key in [
        "class_routed_terminating",
        "class_routed_linear",
        "class_routed_guarded",
        "class_routed_dovetail",
        "grouped",
        "group_chases",
        "group_fallbacks",
        "verify_rejects",
    ] {
        assert!(stats.contains_key(key), "STATS reply missing {key}: {stats:?}");
    }
    assert!(
        stats["class_routed_terminating"] >= 2,
        "the fd chain must route terminating: {stats:?}"
    );
    assert_eq!(stats["grouped"], 2, "both members must join one group");
    assert_eq!(stats["group_chases"], 1, "shared saturation must run once");
    assert_eq!(stats["group_fallbacks"], 0);
    // The same counters appear in the `--metrics` exposition.
    let metrics = server.client().metrics_text();
    for needle in [
        "typedtd_class_routed_total",
        "typedtd_grouped_total",
        "typedtd_group_chases_total",
        "typedtd_group_fallbacks_total",
    ] {
        assert!(metrics.contains(needle), "metrics exposition missing {needle}");
    }
    // Backward tolerance: an old-format reply without the new tokens (and
    // with junk) still parses, and simply lacks the new keys.
    let old = parse_stats_text(
        "submitted=4 answered=2 cancelled=1 expired=1 pending=0 garbage not=numeric",
    );
    assert_eq!(old["submitted"], 4);
    assert_eq!(old["pending"], 0);
    assert!(!old.contains_key("grouped"));
    assert!(!old.contains_key("not"));
    drop(server);
}

/// Polls `cond` (the soak's only wall-clock dependence) with a generous
/// deadline; panics with `what` on timeout.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..2_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// `SubmitPayload` fuzz: decode of arbitrary bytes never panics, and
/// round trips are exact (mirrors the unit tests at property scale).
#[test]
fn submit_payload_decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(1982);
    for _ in 0..2_000 {
        let len = rng.random_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u32..=255) as u8).collect();
        let _ = SubmitPayload::decode(&bytes); // must not panic
        let _ = WireAnswer::decode(&bytes); // must not panic
    }
}
