//! The daemon under test: spawn `typedtd-sockd`, connect one
//! `ProtoClient`, drive a stream in a closed loop, shut down, and read the
//! exit ledger.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use typedtd_service::proto::decode_err;
use typedtd_service::{ClientConfig, Opcode, ProgressKind, ProtoClient, WireAnswer};

/// How long the client waits for any frame before it declares the daemon
/// wedged.
const STALL: Duration = Duration::from_secs(60);

/// How to start one daemon.
pub struct DaemonSpec<'a> {
    /// The `typedtd-sockd` binary.
    pub sockd: &'a Path,
    /// Unix socket path (relative, to stay within `sun_path` limits).
    pub socket: &'a Path,
    /// Answer log (`--log`).
    pub log: &'a Path,
    /// `--mode`, when not the default.
    pub mode: Option<&'a str>,
}

/// A running daemon with its client connection.
pub struct Daemon {
    child: Child,
    stderr: Option<JoinHandle<String>>,
    /// The one connection every workload runs on.
    pub client: ProtoClient,
    /// From spawn until `listening` was read and the client connected.
    pub setup: Duration,
}

/// One query on the wire: its payload parts, prepared before timing.
pub struct WireQuery {
    /// Universe spec.
    pub universe: String,
    /// Query text.
    pub text: String,
}

/// Client-side timestamps of one query, in nanoseconds since the drive
/// started: SUBMIT write begun, SUBMIT written, ACCEPTED read, ANSWER (or
/// ERR) read.
#[derive(Clone, Copy, Default, Debug)]
pub struct QuerySpans {
    /// SUBMIT write begun.
    pub submit: u64,
    /// SUBMIT write returned.
    pub written: u64,
    /// ACCEPTED progress frame read (0 if none).
    pub accepted: u64,
    /// ANSWER or ERR frame read.
    pub answered: u64,
}

/// The outcome of driving one stream.
pub struct Drive {
    /// Per query: the decoded answer, or the error text.
    pub answers: Vec<Result<WireAnswer, String>>,
    /// Per query: client-side timestamps.
    pub spans: Vec<QuerySpans>,
    /// First SUBMIT to last ANSWER.
    pub wall: Duration,
}

/// On-CPU nanoseconds of every live thread of `pid`, from
/// `/proc/PID/task/*/schedstat` (finer than the 10 ms ticks of
/// `/proc/PID/stat`).
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

impl Daemon {
    /// Spawns the daemon and connects.
    ///
    /// # Errors
    /// Spawn, listen or connect failures.
    pub fn start(spec: &DaemonSpec) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(spec.sockd);
        cmd.arg("--unix")
            .arg(spec.socket)
            .arg("--log")
            .arg(spec.log)
            .arg("--stats");
        if let Some(mode) = spec.mode {
            cmd.arg("--mode").arg(mode);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.sockd.display()))?;
        let mut err = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            let mut s = String::new();
            let _ = err.read_to_string(&mut s);
            s
        });
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let msg = stderr.join().unwrap_or_default();
                    return Err(format!("typedtd-sockd exited before listening: {msg}"));
                }
                Ok(_) if line.contains("listening unix=") => break,
                Ok(_) => {}
            }
        }
        // A read timeout turns a wedged daemon into an error, not a hang.
        let cfg = ClientConfig {
            read_timeout: Some(STALL),
            ..ClientConfig::default()
        };
        let client = match ProtoClient::connect_unix_with(spec.socket, cfg) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = stderr.join();
                return Err(format!("connect {}: {e}", spec.socket.display()));
            }
        };
        let setup = t0.elapsed();
        Ok(Self {
            child,
            stderr: Some(stderr),
            client,
            setup,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drives `stream` in a closed loop with `in_flight` SUBMITs
    /// outstanding, each capped at `fuel_cap`. With `trace` off only the
    /// SUBMIT and ANSWER times latency needs are taken.
    ///
    /// # Errors
    /// A connection failure (I/O error); a per-query `ERR` frame is
    /// recorded in [`Drive::answers`] instead.
    pub fn drive(
        &mut self,
        stream: &[WireQuery],
        in_flight: usize,
        fuel_cap: Option<u64>,
        trace: bool,
    ) -> Result<Drive, String> {
        let n = stream.len();
        let mut answers: Vec<Result<WireAnswer, String>> = vec![Err("no ANSWER".into()); n];
        let mut spans = vec![QuerySpans::default(); n];
        let mut pending: HashMap<u64, usize> = HashMap::with_capacity(in_flight * 2);
        let t0 = Instant::now();
        let ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
        let mut next = 0usize;
        let submit = |client: &mut ProtoClient,
                      next: &mut usize,
                      pending: &mut HashMap<u64, usize>,
                      spans: &mut [QuerySpans]|
         -> Result<(), String> {
            let i = *next;
            *next += 1;
            spans[i].submit = ns(t0);
            let corr = client
                .submit(&stream[i].universe, &stream[i].text, fuel_cap)
                .map_err(|e| format!("submit: {e}"))?;
            if trace {
                spans[i].written = ns(t0);
            }
            pending.insert(corr, i);
            Ok(())
        };
        while next < n && pending.len() < in_flight {
            submit(&mut self.client, &mut next, &mut pending, &mut spans)?;
        }
        while !pending.is_empty() {
            let frame = self.client.recv().map_err(|e| format!("recv: {e}"))?;
            let at = ns(t0);
            let Some(&i) = pending.get(&frame.corr) else {
                continue;
            };
            match Opcode::from_u8(frame.opcode) {
                Some(Opcode::Answer) => {
                    answers[i] = WireAnswer::decode(&frame.payload);
                }
                Some(Opcode::Err) => {
                    answers[i] = Err(match decode_err(&frame.payload) {
                        Ok((code, msg)) => format!("ERR {code}: {msg}"),
                        Err(e) => format!("ERR (undecodable): {e}"),
                    });
                }
                Some(Opcode::Progress) => {
                    if trace && frame.payload.first() == Some(&(ProgressKind::Accepted as u8)) {
                        spans[i].accepted = at;
                    }
                    continue;
                }
                _ => continue,
            }
            spans[i].answered = at;
            pending.remove(&frame.corr);
            if next < n {
                submit(&mut self.client, &mut next, &mut pending, &mut spans)?;
            }
        }
        let first = spans.iter().map(|s| s.submit).min().unwrap_or(0);
        let last = spans.iter().map(|s| s.answered).max().unwrap_or(0);
        Ok(Drive {
            answers,
            spans,
            wall: Duration::from_nanos(last.saturating_sub(first)),
        })
    }

    /// Sends `SHUTDOWN`, waits for the drain and the exit (killing it after
    /// `grace`), and returns the `key=value` tokens of the exit ledger (the
    /// `done` line and the `--stats` line on stderr).
    ///
    /// # Errors
    /// A daemon that had to be killed or exited nonzero.
    pub fn stop(mut self, grace: Duration) -> Result<HashMap<String, u64>, String> {
        let _ = self.client.shutdown_server();
        // Read until the server hangs up (the BYE frame comes first).
        while self.client.recv().is_ok() {}
        let deadline = Instant::now() + grace;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let text = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        match status {
            Some(s) if s.success() => {}
            Some(s) => return Err(format!("typedtd-sockd exited with {s}: {text}")),
            None => return Err("typedtd-sockd did not exit after SHUTDOWN; killed".into()),
        }
        let mut ledger = HashMap::new();
        for line in text.lines() {
            let line = line.strip_prefix("typedtd-sockd: done").unwrap_or(line);
            for tok in line.split_whitespace() {
                if let Some((k, v)) = tok.split_once('=') {
                    if let Ok(v) = v.parse::<u64>() {
                        ledger.insert(k.to_string(), v);
                    }
                }
            }
        }
        Ok(ledger)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when `stop` was not: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A fresh byte copy of `src` at `dst` (the daemon heals and appends to
/// its log, so every start needs its own copy).
///
/// # Errors
/// Copy failures.
pub fn fresh_copy(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::copy(src, dst)
        .map(drop)
        .map_err(|e| format!("copy {} -> {}: {e}", src.display(), dst.display()))
}
