//! `typedtd-proto` — the length-prefixed streaming socket protocol.
//!
//! The paper proves implication/finite-implication of typed tds
//! undecidable, so a networked front end cannot be request/response with
//! call-and-wait semantics: any one query may hold its connection hostage
//! forever. The protocol is therefore **fully pipelined and out of
//! order** — a client tags every request with a correlation id of its own
//! choosing, the server pushes `ANSWER` frames back *as jobs resolve*
//! (which, under the dovetailing scheduler, need not be submission
//! order), and a divergent query simply never blocks the answers behind
//! it. Cancellation and detachment ride the same ids, and a dropped
//! connection maps onto the service's `JobHandle::cancel`/`detach`
//! semantics: non-detached jobs are cancelled (their fuel stops within
//! one slice), detached jobs keep computing so their answers can feed the
//! shared cache.
//!
//! # Frame layout
//!
//! Every frame, both directions, is length-prefixed:
//!
//! ```text
//! u32 LE  length of the rest (≥ 10, ≤ MAX_FRAME_LEN)
//! u8      protocol version (PROTO_VERSION)
//! u8      opcode
//! u64 LE  correlation id (client-chosen; echoed on every response)
//! bytes   payload (opcode-specific)
//! ```
//!
//! Requests: [`Opcode::Submit`], [`Opcode::Cancel`], [`Opcode::Detach`],
//! [`Opcode::Stats`], [`Opcode::Shutdown`]. Responses:
//! [`Opcode::Answer`], [`Opcode::Progress`], [`Opcode::Err`]. A `SUBMIT`
//! may set a progress flag ([`SubmitPayload::progress`]) to opt its
//! correlation into live [`ProgressKind::Running`] frames while the job
//! computes (fuel-monotone; see [`RunningUpdate`]). See
//! `crates/service/README.md` for the full specification (payload
//! layouts, version negotiation, error codes).
//!
//! # Robustness contract
//!
//! A malformed *payload* in a well-delimited frame is answered with an
//! [`Opcode::Err`] frame and the connection continues (the stream is
//! still in sync). A malformed *frame* — a length below the fixed header
//! size or beyond [`MAX_FRAME_LEN`] — means the stream can no longer be
//! trusted: the server sends a final `ERR` and disconnects cleanly. A
//! version byte the server does not speak is answered `ERR`
//! ([`err_code::BAD_VERSION`]) and the connection is closed (version
//! negotiation is "v1 or nothing" today; the byte exists so later
//! versions can do better). Nothing a client sends may panic the server
//! or desync another connection — `tests/proto.rs` fuzzes exactly this.
//!
//! # Server threads
//!
//! [`ProtoServer`] runs a pool of **drivers** ([`SockdConfig::drivers`])
//! and, per connection, a **reader** and a **connection thread**. Every
//! query's work happens on a driver: it takes a queued `SUBMIT`, parses,
//! normalizes and submits it, and steps the new job's shard right away,
//! so a query that ends in one fuel slice is built, chased and freed on
//! one thread. Each driver pass prepares at most one `SUBMIT` and then
//! sweeps every shard, so fresh queries and jobs that need more slices
//! take turns. The reader blocks in `read`; the connection thread cuts
//! frames, queues `SUBMIT`s, writes `ACCEPTED` or `ERR` as preparations
//! come back and `ANSWER` as jobs resolve, and parks in between. Each
//! job unparks its connection thread when it resolves, and drivers park
//! on the service's work epoch, so no thread polls while work is in
//! flight.
//!
//! A `SUBMIT` still waiting for a driver counts as pending: a `CANCEL` or
//! `DETACH` for it is applied once its jobs exist, `STATS` counts it, the
//! `--max-inflight` bound counts it, and a dropped connection cancels
//! (or, if detached, keeps) what it produces.

use crate::batch::{parse_query_line, parse_universe_spec};
use crate::service::{
    ImplicationClient, JobHandle, JobStatus, QuerySpec, ServiceConfig, ShardStep,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};
use typedtd_chase::{Answer, TaskPhase};
use typedtd_dependencies::{DependencyClass, TdOrEgd};
use typedtd_relational::ValuePool;

/// The protocol version this build speaks (and stamps on every frame).
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on the length prefix: version + opcode + correlation id +
/// payload. Anything larger is a protocol violation (the stream is
/// considered desynced and the connection is dropped).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of every frame body that are not payload (version, opcode,
/// correlation id).
pub const FRAME_FIXED: usize = 1 + 1 + 8;

/// Frame opcodes. `0x0#` are client→server requests, `0x8#` are
/// server→client responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// Submit one implication query (payload: [`SubmitPayload`]).
    Submit = 0x01,
    /// Cancel the submission with this correlation id (empty payload).
    Cancel = 0x02,
    /// Detach the submission with this correlation id: it survives a
    /// dropped connection (and a coalescing leader's cancellation) so its
    /// answer can feed the cache (empty payload).
    Detach = 0x03,
    /// Request this connection's counters (empty payload; answered with a
    /// [`ProgressKind::Stats`] progress frame).
    Stats = 0x04,
    /// Ask the whole server to shut down (empty payload; acknowledged
    /// with [`ProgressKind::Bye`], then the connection closes).
    Shutdown = 0x05,
    /// A resolved submission's verdict (payload: [`WireAnswer`]).
    Answer = 0x81,
    /// Progress/acknowledgement (payload: kind byte + UTF-8 text).
    Progress = 0x82,
    /// An error scoped to the echoed correlation id (payload: u16 LE
    /// error code + UTF-8 message). See [`err_code`].
    Err = 0x83,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => Self::Submit,
            0x02 => Self::Cancel,
            0x03 => Self::Detach,
            0x04 => Self::Stats,
            0x05 => Self::Shutdown,
            0x81 => Self::Answer,
            0x82 => Self::Progress,
            0x83 => Self::Err,
            _ => return None,
        })
    }
}

/// `ERR` frame codes (first two payload bytes, LE).
pub mod err_code {
    /// The frame's version byte is not [`super::PROTO_VERSION`]; the
    /// connection closes after this error.
    pub const BAD_VERSION: u16 = 1;
    /// Unknown opcode byte (frame was well-delimited; connection
    /// continues).
    pub const BAD_OPCODE: u16 = 2;
    /// Length prefix beyond [`super::MAX_FRAME_LEN`] (or below the fixed
    /// header); the stream is desynced and the connection closes.
    pub const BAD_FRAME: u16 = 3;
    /// Opcode-specific payload did not parse (connection continues).
    pub const BAD_PAYLOAD: u16 = 4;
    /// The submitted universe or query text did not parse (connection
    /// continues; nothing was submitted).
    pub const PARSE: u16 = 5;
    /// `CANCEL`/`DETACH` for a correlation id with no pending submission
    /// (already answered, or never submitted).
    pub const UNKNOWN_CORR: u16 = 6;
    /// `SUBMIT` reusing a correlation id that is still pending.
    pub const DUPLICATE_CORR: u16 = 7;
    /// The server is at its `--max-inflight` bound and shed this
    /// `SUBMIT` instead of queueing it (connection continues; nothing
    /// was submitted — retry after draining some answers).
    pub const BUSY: u16 = 8;
}

/// One decoded frame (version byte preserved verbatim so servers can
/// negotiate; opcode kept raw so unknown opcodes stay representable).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Protocol version stamped by the sender.
    pub version: u8,
    /// Raw opcode byte (decode with [`Opcode::from_u8`]).
    pub opcode: u8,
    /// Correlation id (client-chosen on requests, echoed on responses).
    pub corr: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request/response frame at the current protocol version.
    pub fn new(opcode: Opcode, corr: u64, payload: Vec<u8>) -> Self {
        Self {
            version: PROTO_VERSION,
            opcode: opcode as u8,
            corr,
            payload,
        }
    }

    /// Appends the wire encoding of this frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = (FRAME_FIXED + self.payload.len()) as u32;
        out.extend_from_slice(&len.to_le_bytes());
        out.push(self.version);
        out.push(self.opcode);
        out.extend_from_slice(&self.corr.to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// The wire encoding of this frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + FRAME_FIXED + self.payload.len());
        self.encode_into(&mut out);
        out
    }
}

/// Why a byte stream could not be cut into a frame. Both variants mean
/// the stream is desynced: there is no way to know where the next frame
/// starts, so the only safe reaction is a clean disconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Length prefix larger than [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// Length prefix smaller than the fixed header.
    TooShort(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            Self::TooShort(n) => write!(f, "frame length {n} below fixed header {FRAME_FIXED}"),
        }
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a complete frame is
/// available, `Ok(None)` when more bytes are needed, and a
/// [`FrameError`] when the length prefix is implausible (the stream is
/// desynced — disconnect).
///
/// # Errors
/// See [`FrameError`].
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if (len as usize) < FRAME_FIXED {
        return Err(FrameError::TooShort(len));
    }
    if len as usize > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let version = buf[4];
    let opcode = buf[5];
    let corr = u64::from_le_bytes(buf[6..14].try_into().expect("fixed header"));
    let payload = buf[14..total].to_vec();
    Ok(Some((
        Frame {
            version,
            opcode,
            corr,
            payload,
        },
        total,
    )))
}

/// `SUBMIT` payload: an optional per-job fuel cap plus the universe and
/// query in the `typedtd_dependencies::parser` text syntax (the same
/// line format `typedtd-serve` reads, minus the `@universe` prefix).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubmitPayload {
    /// Per-job fuel cap (`None` = the service default / global budget).
    pub fuel_cap: Option<u64>,
    /// Universe spec: `[untyped] NAME NAME …`.
    pub universe: String,
    /// Query: `SIGMA |= GOAL` (Σ entries separated by `&`).
    pub query: String,
    /// Opt this correlation into periodic `PROGRESS`/`Running` frames
    /// while the job computes (wire: trailing flags byte, bit 0).
    pub progress: bool,
}

/// `SUBMIT` flags byte, bit 0: stream `PROGRESS`/`Running` frames.
const SUBMIT_FLAG_PROGRESS: u8 = 1;

impl SubmitPayload {
    /// Encodes the payload: `u64 fuel_cap (0 = none) · u32 ulen ·
    /// universe · u32 qlen · query [· u8 flags]`. The flags byte is only
    /// emitted when a flag is set, so a v1 submission is byte-identical
    /// to what a v1 client sends.
    pub fn encode(&self) -> Vec<u8> {
        let u = self.universe.as_bytes();
        let q = self.query.as_bytes();
        let mut out = Vec::with_capacity(17 + u.len() + q.len());
        out.extend_from_slice(&self.fuel_cap.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&(u.len() as u32).to_le_bytes());
        out.extend_from_slice(u);
        out.extend_from_slice(&(q.len() as u32).to_le_bytes());
        out.extend_from_slice(q);
        if self.progress {
            out.push(SUBMIT_FLAG_PROGRESS);
        }
        out
    }

    /// Decodes a `SUBMIT` payload.
    ///
    /// # Errors
    /// A description of the structural problem (for an `ERR
    /// BAD_PAYLOAD` reply).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| format!("submit payload truncated at byte {at}"))?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        };
        let fuel = u64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
        let ulen = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
        let universe = String::from_utf8(take(&mut at, ulen)?.to_vec())
            .map_err(|_| "universe spec is not UTF-8".to_string())?;
        let qlen = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
        let query = String::from_utf8(take(&mut at, qlen)?.to_vec())
            .map_err(|_| "query is not UTF-8".to_string())?;
        // An optional single flags byte may follow. It must be nonzero
        // (a flagless submission omits the byte entirely) and must not
        // set unknown bits, so garbage tails keep failing decode.
        let mut progress = false;
        if at != bytes.len() {
            if bytes.len() - at > 1 {
                return Err(format!("submit payload has {} trailing bytes", bytes.len() - at));
            }
            let flags = bytes[at];
            if flags == 0 || flags & !SUBMIT_FLAG_PROGRESS != 0 {
                return Err(format!("bad submit flags byte {flags:#04x}"));
            }
            progress = flags & SUBMIT_FLAG_PROGRESS != 0;
        }
        Ok(Self {
            fuel_cap: (fuel != 0).then_some(fuel),
            universe,
            query,
            progress,
        })
    }
}

/// `ANSWER` payload: the conjoined verdict of one submission's goal
/// parts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireAnswer {
    /// Conjunction over parts of `Σ ⊨ σ`.
    pub implication: Answer,
    /// Conjunction over parts of `Σ ⊨_f σ`.
    pub finite_implication: Answer,
    /// Every non-vacuous part was served without fresh fuel.
    pub from_cache: bool,
    /// At least one part was cancelled (the answers are then `Unknown`).
    pub cancelled: bool,
    /// Not cancelled, but at least one part expired to `Unknown` on a
    /// fuel budget.
    pub expired: bool,
    /// Total fuel the parts spent.
    pub fuel_spent: u64,
}

const FLAG_CACHE: u8 = 1;
const FLAG_CANCELLED: u8 = 2;
const FLAG_EXPIRED: u8 = 4;

fn answer_to_u8(a: Answer) -> u8 {
    match a {
        Answer::Yes => 0,
        Answer::No => 1,
        Answer::Unknown => 2,
    }
}

fn answer_from_u8(b: u8) -> Result<Answer, String> {
    Ok(match b {
        0 => Answer::Yes,
        1 => Answer::No,
        2 => Answer::Unknown,
        _ => return Err(format!("bad answer byte {b}")),
    })
}

impl WireAnswer {
    /// Encodes the payload: `u8 implication · u8 finite · u8 flags ·
    /// u64 fuel_spent`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(11);
        out.push(answer_to_u8(self.implication));
        out.push(answer_to_u8(self.finite_implication));
        let mut flags = 0u8;
        if self.from_cache {
            flags |= FLAG_CACHE;
        }
        if self.cancelled {
            flags |= FLAG_CANCELLED;
        }
        if self.expired {
            flags |= FLAG_EXPIRED;
        }
        out.push(flags);
        out.extend_from_slice(&self.fuel_spent.to_le_bytes());
        out
    }

    /// Decodes an `ANSWER` payload.
    ///
    /// # Errors
    /// A description of the structural problem.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != 11 {
            return Err(format!("answer payload must be 11 bytes, got {}", bytes.len()));
        }
        Ok(Self {
            implication: answer_from_u8(bytes[0])?,
            finite_implication: answer_from_u8(bytes[1])?,
            from_cache: bytes[2] & FLAG_CACHE != 0,
            cancelled: bytes[2] & FLAG_CANCELLED != 0,
            expired: bytes[2] & FLAG_EXPIRED != 0,
            fuel_spent: u64::from_le_bytes(bytes[3..11].try_into().expect("8 bytes")),
        })
    }
}

/// First payload byte of a `PROGRESS` frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ProgressKind {
    /// A `SUBMIT` was accepted and scheduled (`text` reports
    /// `parts=N`). The `ANSWER` follows when the parts resolve.
    Accepted = 0,
    /// Reply to `STATS`: `text` is space-separated `key=value` counters
    /// (parse with [`parse_stats_text`]).
    Stats = 1,
    /// Reply to `SHUTDOWN`: the server is going down and this connection
    /// closes after the frame.
    Bye = 2,
    /// Mid-computation progress for a `SUBMIT` that set the progress
    /// flag: `text` is `key=value` pairs (parse with
    /// [`parse_running_text`]). Sent only while the job still computes;
    /// the `ANSWER` follows as usual.
    Running = 3,
}

impl ProgressKind {
    /// Decodes a progress-kind byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Accepted,
            1 => Self::Stats,
            2 => Self::Bye,
            3 => Self::Running,
            _ => return None,
        })
    }
}

/// A decoded `PROGRESS`/`Running` frame: the aggregate
/// [`ProgressSnapshot`](typedtd_chase::ProgressSnapshot) of a streaming
/// submission's parts, as of the latest fuel slice.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RunningUpdate {
    /// Phase of the part that most recently ran (`chase` / `search` /
    /// `dovetail` / `done`).
    pub phase: String,
    /// Total fuel spent across the submission's parts so far. Strictly
    /// increases between consecutive `Running` frames of one
    /// correlation.
    pub fuel: u64,
    /// Chase rounds completed, summed over parts.
    pub rounds: u64,
    /// Chase steps (td applications + merges), summed over parts.
    pub steps: u64,
    /// Equality merges applied, summed over parts.
    pub merges: u64,
    /// Chase-instance rows, summed over parts.
    pub rows: u64,
    /// Finite-model search attempts, summed over parts.
    pub attempts: u64,
    /// Hash-join build-side rows taken by chase trigger scans, summed
    /// over parts.
    pub join_build: u64,
    /// Hash-join probe-side hits scored by chase trigger scans, summed
    /// over parts.
    pub join_probe: u64,
    /// Goal parts this submission fans out to.
    pub parts: u64,
    /// Parts still unresolved when the frame was cut.
    pub pending: u64,
}

/// Parses a `PROGRESS`/`Running` text body into a [`RunningUpdate`].
/// Unknown keys are ignored and missing keys default to zero/empty, so
/// the format can grow fields compatibly.
pub fn parse_running_text(text: &str) -> RunningUpdate {
    let mut up = RunningUpdate::default();
    for kv in text.split_whitespace() {
        let Some((k, v)) = kv.split_once('=') else {
            continue;
        };
        if k == "phase" {
            up.phase = v.to_string();
            continue;
        }
        let Ok(n) = v.parse::<u64>() else { continue };
        match k {
            "fuel" => up.fuel = n,
            "rounds" => up.rounds = n,
            "steps" => up.steps = n,
            "merges" => up.merges = n,
            "rows" => up.rows = n,
            "attempts" => up.attempts = n,
            "jbuild" => up.join_build = n,
            "jprobe" => up.join_probe = n,
            "parts" => up.parts = n,
            "pending" => up.pending = n,
            _ => {}
        }
    }
    up
}

fn progress_frame(corr: u64, kind: ProgressKind, text: &str) -> Frame {
    let mut payload = Vec::with_capacity(1 + text.len());
    payload.push(kind as u8);
    payload.extend_from_slice(text.as_bytes());
    Frame::new(Opcode::Progress, corr, payload)
}

fn err_frame(corr: u64, code: u16, text: &str) -> Frame {
    let mut payload = Vec::with_capacity(2 + text.len());
    payload.extend_from_slice(&code.to_le_bytes());
    payload.extend_from_slice(text.as_bytes());
    Frame::new(Opcode::Err, corr, payload)
}

/// Splits an `ERR` payload into its code and message.
///
/// # Errors
/// When the payload is shorter than the two code bytes.
pub fn decode_err(payload: &[u8]) -> Result<(u16, String), String> {
    if payload.len() < 2 {
        return Err("err payload below 2 bytes".into());
    }
    Ok((
        u16::from_le_bytes([payload[0], payload[1]]),
        String::from_utf8_lossy(&payload[2..]).into_owned(),
    ))
}

/// Parses a `PROGRESS`/`STATS` text body (`key=value` pairs separated by
/// whitespace) into a counter map; non-numeric values are skipped.
pub fn parse_stats_text(text: &str) -> HashMap<String, u64> {
    text.split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// A connected socket, TCP or Unix-domain, behind one type so the codec,
/// server, and client are transport-agnostic.
#[derive(Debug)]
pub enum ProtoStream {
    /// TCP (`std::net`).
    Tcp(TcpStream),
    /// Unix-domain (`std::os::unix::net`).
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ProtoStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Self::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(d),
            #[cfg(unix)]
            Self::Unix(s) => s.set_write_timeout(d),
        }
    }

    fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }

    /// Shuts both directions down: a blocked `read` on any clone returns,
    /// and the peer reads EOF after the bytes already written.
    fn shutdown(&self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Self::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for ProtoStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ProtoStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Self::Unix(s) => s.flush(),
        }
    }
}

/// How long a driver backs off while the global fuel budget reads spent
/// (refunds from slices still in flight wake nobody), and the first sleep
/// of an idle accept loop.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// The longest an idle accept loop sleeps between polls; its sleep starts
/// at [`POLL_INTERVAL`] and doubles while nothing connects, and shutdown
/// unparks it. It bounds the delay of a connection to an idle server.
/// Blocking in `accept` instead would need a wakeup that reaches the
/// listener, and a connection to a Unix socket whose file was removed
/// never arrives.
const ACCEPT_IDLE_MAX: Duration = Duration::from_millis(50);

/// How long a connection thread parks when none of its submissions
/// streams progress. Bytes from the peer, finished preparations and
/// resolved jobs unpark it at once; the timeout only lets an idle
/// connection see the shutdown flag.
const CONN_PARK_BACKSTOP: Duration = Duration::from_millis(50);

/// Bytes a connection's reader thread holds before it waits for the
/// connection thread to take them, so a client that writes without
/// reading its answers meets TCP backpressure instead of growing the
/// server's memory.
const READ_BUFFER_CAP: usize = 256 * 1024;

/// Server configuration: the shared service plus how many driver threads
/// the server runs. Drivers do every query's work: a driver takes a
/// `SUBMIT` a connection queued, parses, normalizes and submits it, runs
/// the job's first fuel slice on the same thread, and sweeps the shards
/// for jobs that need more slices. A connection thread only cuts frames
/// and forwards answers, so one connection can keep every driver busy.
#[derive(Clone, Debug)]
pub struct SockdConfig {
    /// The shared implication service's knobs.
    pub service: ServiceConfig,
    /// Driver threads (min 1). The default is the host's available
    /// parallelism, never below 2.
    pub drivers: usize,
    /// Overload bound: a `SUBMIT` arriving while this many jobs are
    /// already in flight or waiting to be prepared is shed with
    /// [`err_code::BUSY`] instead of queued — the queue stays bounded
    /// under a misbehaving client and the shed count appears in the
    /// `STATS` line. `None` (the default) never sheds.
    pub max_inflight: Option<usize>,
    /// How many whole-scheduler sweeps shutdown spends draining
    /// in-flight jobs before explicitly cancelling the stragglers
    /// (mirrors `typedtd-serve --drain-sweeps`). Jobs that finish
    /// within the budget are answered and cached; the rest resolve
    /// `Cancelled`, so [`ProtoServer::join`] is always bounded.
    pub drain_sweeps: usize,
}

impl Default for SockdConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            drivers: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
            max_inflight: None,
            drain_sweeps: 64,
        }
    }
}

struct ServerCore {
    client: ImplicationClient,
    shutdown: AtomicBool,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Overload bound (see [`SockdConfig::max_inflight`]).
    max_inflight: Option<usize>,
    /// Shutdown drain budget (see [`SockdConfig::drain_sweeps`]).
    drain_sweeps: usize,
    /// The accept-loop threads, which shutdown unparks.
    acceptors: Mutex<Vec<std::thread::Thread>>,
    /// `SUBMIT`s waiting for a driver, oldest first.
    preps: Mutex<VecDeque<Prep>>,
    /// Admitted `SUBMIT`s not yet handed to the service (queued, or being
    /// parsed by a driver); the max-inflight bound counts them.
    preparing: AtomicUsize,
    /// Held across the max-inflight check and across a driver's hand-over
    /// of a preparation from `preparing` to the service's in-flight jobs,
    /// so the check counts every admitted `SUBMIT` exactly once.
    admission: Mutex<()>,
}

impl ServerCore {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Trips the shutdown flag and wakes the parked drivers and the
    /// accept loops sleeping between polls.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.client.wake_all_for_work();
        for t in self.acceptors.lock().expect("acceptor list").iter() {
            t.unpark();
        }
    }

    /// Admits one `SUBMIT` for preparation, or refuses it at the
    /// max-inflight bound.
    fn admit(&self) -> bool {
        let Some(max) = self.max_inflight else {
            self.preparing.fetch_add(1, Ordering::Relaxed);
            return true;
        };
        let _gate = self.admission.lock().expect("admission lock");
        if self.client.pending_jobs() + self.preparing.load(Ordering::Relaxed) >= max {
            return false;
        }
        self.preparing.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Queues an admitted `SUBMIT`; the caller wakes a driver for it
    /// with [`ImplicationClient::bump_work`].
    fn push_prep(&self, prep: Prep) {
        self.preps.lock().expect("prep queue").push_back(prep);
    }

    fn take_prep(&self) -> Option<Prep> {
        self.preps.lock().expect("prep queue").pop_front()
    }
}

/// A running `typedtd-sockd` server: one shared [`ImplicationClient`],
/// an accept loop per listener (TCP and/or Unix), a connection thread
/// and a reader thread per connection, and a pool of driver threads.
/// Shut down via a [`Opcode::Shutdown`] frame from any client or
/// [`ProtoServer::shutdown_now`]; [`ProtoServer::join`] waits for all
/// threads. Dropping the server shuts it down.
pub struct ProtoServer {
    core: Arc<ServerCore>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ProtoServer {
    /// Binds and starts a server. `tcp` is a `host:port` spec (`:0`
    /// picks an ephemeral port — read it back from
    /// [`ProtoServer::tcp_addr`]); `unix` is a socket path (an existing
    /// file there is removed first). At least one listener must be
    /// given.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        cfg: SockdConfig,
        tcp: Option<&str>,
        #[cfg_attr(not(unix), allow(unused_variables))] unix: Option<&Path>,
    ) -> io::Result<Self> {
        let core = Arc::new(ServerCore {
            client: ImplicationClient::new(cfg.service),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            max_inflight: cfg.max_inflight,
            drain_sweeps: cfg.drain_sweeps,
            acceptors: Mutex::new(Vec::new()),
            preps: Mutex::new(VecDeque::new()),
            preparing: AtomicUsize::new(0),
            admission: Mutex::new(()),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(spec) = tcp {
            let addrs: Vec<SocketAddr> = spec.to_socket_addrs()?.collect();
            let listener = TcpListener::bind(&addrs[..])?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let core = Arc::clone(&core);
            let conns = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || {
                accept_loop(&core, &conns, || accept_tcp(&listener));
            }));
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            let core = Arc::clone(&core);
            let conns = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || {
                accept_loop(&core, &conns, || match listener.accept() {
                    Ok((s, _)) => Ok(ProtoStream::Unix(s)),
                    Err(e) => Err(e),
                });
            }));
        }
        if threads.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "typedtd-sockd needs at least one listener (tcp or unix)",
            ));
        }
        for _ in 0..cfg.drivers.max(1) {
            let core = Arc::clone(&core);
            threads.push(std::thread::spawn(move || driver_loop(&core)));
        }
        Ok(Self {
            core,
            threads,
            conn_threads,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address, if a TCP listener was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path, if a Unix listener was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The shared service client (for in-process inspection: stats,
    /// cache length, pending jobs).
    pub fn client(&self) -> &ImplicationClient {
        &self.core.client
    }

    /// Trips the shutdown flag (as a client `SHUTDOWN` frame would).
    /// Accept loops stop, drivers exit, and idle connections disconnect
    /// within 50 ms.
    pub fn shutdown_now(&self) {
        self.core.shut_down();
    }

    /// Waits until the server has shut down (flag tripped by a client's
    /// `SHUTDOWN` frame or [`ProtoServer::shutdown_now`]) and every
    /// thread has exited.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let conns: Vec<_> = self.conn_threads.lock().expect("conn list").drain(..).collect();
        for t in conns {
            let _ = t.join();
        }
        // The drivers may have stopped with `SUBMIT`s still queued:
        // prepare them here, so every `SUBMIT` read before the shutdown
        // is submitted (and, its connection gone, cancelled or kept as
        // detached) before the drain.
        while let Some(prep) = self.core.take_prep() {
            prepare(&self.core, prep);
        }
        // Drain: with every connection gone nothing new can arrive, so
        // give in-flight (detached or orphaned) jobs a bounded number of
        // whole-scheduler sweeps to land — their answers still feed the
        // cache and the answer log — then cancel the stragglers and run
        // the cancellations to rest. Mirrors `typedtd-serve
        // --drain-sweeps`; previously shutdown dropped this work on the
        // floor.
        if self.core.client.pending_jobs() > 0 {
            let mut sweeps = 0usize;
            while self.core.client.tick() {
                sweeps += 1;
                if sweeps >= self.core.drain_sweeps {
                    break;
                }
            }
            self.core.client.cancel_pending();
            self.core.client.run_to_completion();
        }
        #[cfg(unix)]
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for ProtoServer {
    fn drop(&mut self) {
        self.shutdown_now();
        self.join_inner();
    }
}

/// Accepts one TCP connection with Nagle's algorithm off, as
/// [`ProtoClient`] sets it on its side: the server's frames are small,
/// and with Nagle on, a frame written while an earlier one is still
/// unacknowledged waits for the peer's delayed ACK (40 ms on Linux).
fn accept_tcp(listener: &TcpListener) -> io::Result<ProtoStream> {
    let (s, _) = listener.accept()?;
    s.set_nodelay(true).ok();
    Ok(ProtoStream::Tcp(s))
}

fn accept_loop(
    core: &Arc<ServerCore>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    mut accept: impl FnMut() -> io::Result<ProtoStream>,
) {
    // Registered before the first flag check, so a shutdown either sees
    // this thread to unpark or is seen by that check.
    core.acceptors
        .lock()
        .expect("acceptor list")
        .push(std::thread::current());
    let mut idle_sleep = POLL_INTERVAL;
    loop {
        if core.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accept() {
            Ok(stream) => {
                idle_sleep = POLL_INTERVAL;
                core.accepted.fetch_add(1, Ordering::Relaxed);
                let core = Arc::clone(core);
                let handle = std::thread::spawn(move || serve_conn(&core, stream));
                let mut list = conns.lock().expect("conn list");
                // Reap handles of connections that already exited —
                // without this a long-lived server leaks one handle per
                // connection ever accepted (dropping a finished handle
                // detaches nothing; the thread is gone).
                list.retain(|h| !h.is_finished());
                list.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::park_timeout(idle_sleep);
                idle_sleep = (idle_sleep * 2).min(ACCEPT_IDLE_MAX);
            }
            // A connection that reset before we accepted it (routine
            // under load) must not kill the listener — only genuinely
            // fatal accept errors end the loop.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// One driver. Each pass prepares at most one queued `SUBMIT` (see
/// [`prepare`]), then sweeps every shard once, so fresh queries and jobs
/// that need more slices take turns. A pass whose sweep ran slices ends
/// with a yield: on a core shared with connection threads, or with a
/// local client, a long computation then hands the CPU over between
/// slices instead of holding it for a whole scheduler slice (passes that
/// only prepared do not yield). A pass that found nothing to do parks
/// until the work epoch moves (a queued `SUBMIT`, a requeued job) or
/// shutdown; resolutions wake no driver. A pass that found the global
/// fuel budget spent backs off for [`POLL_INTERVAL`] instead, because
/// refunds wake nobody.
fn driver_loop(core: &ServerCore) {
    let client = &core.client;
    while !core.stopping() {
        let seen = client.work_epoch();
        let prep = core.take_prep();
        let prepared = prep.is_some();
        if let Some(prep) = prep {
            prepare(core, prep);
        }
        let mut progressed = false;
        let mut fuel_out = false;
        for idx in 0..client.num_shards() {
            match client.step_shard(idx) {
                ShardStep::Progressed => progressed = true,
                ShardStep::FuelExhausted => fuel_out = true,
                ShardStep::Idle | ShardStep::Empty => {}
            }
        }
        if fuel_out && !prepared {
            std::thread::sleep(POLL_INTERVAL);
        } else if progressed {
            std::thread::yield_now();
        } else if !prepared {
            client.park_for_work(seen, || core.stopping());
        }
    }
}

/// One `SUBMIT` on its way from a connection to a driver.
struct Prep {
    corr: u64,
    payload: Vec<u8>,
    conn: Arc<ConnShared>,
}

/// What a driver hands back for a [`Prep`]: the jobs of the query's goal
/// parts and its progress flag, or the `ERR` code and message that
/// rejected it.
type PrepResult = Result<(Vec<JobHandle>, bool), (u16, String)>;

/// A decoded, parsed and normalized `SUBMIT`.
struct ParsedSubmit {
    pool: ValuePool,
    sigma: Vec<TdOrEgd>,
    goal_parts: Vec<TdOrEgd>,
    class: DependencyClass,
    fuel_cap: Option<u64>,
    progress: bool,
}

/// Decodes a `SUBMIT` payload and runs the text layer. The whole layer is
/// a plain `Result` pipeline: every parser and `try_normalize` reports
/// malformed input as `Err`, so every rejection is an `ERR` frame on a
/// still-synced stream and no thread dies.
fn parse_submit(payload: &[u8]) -> Result<ParsedSubmit, (u16, String)> {
    let payload = SubmitPayload::decode(payload).map_err(|m| (err_code::BAD_PAYLOAD, m))?;
    let parsed = (|| {
        let universe = parse_universe_spec(&payload.universe)?;
        let mut pool = ValuePool::new(universe.clone());
        let (sigma, goal) = parse_query_line(&universe, &mut pool, &payload.query)?;
        let mut sigma_normal = Vec::new();
        for d in &sigma {
            sigma_normal.extend(d.try_normalize(&universe, &mut pool)?);
        }
        let class = goal.class();
        let goal_parts = goal.try_normalize(&universe, &mut pool)?;
        Ok::<_, String>(ParsedSubmit {
            pool,
            sigma: sigma_normal,
            goal_parts,
            class,
            fuel_cap: payload.fuel_cap,
            progress: payload.progress,
        })
    })();
    parsed.map_err(|m| (err_code::PARSE, m))
}

/// Prepares one `SUBMIT` on the calling driver: parses it, submits one
/// job per goal part (each unparks the connection thread when it
/// resolves), hands the jobs to the connection, then steps their shards,
/// so a query that ends in one slice is built, chased and freed on this
/// thread. The connection is unparked once the slice is in, so
/// `ACCEPTED` and a one-slice `ANSWER` leave in one write.
fn prepare(core: &ServerCore, prep: Prep) {
    let Prep {
        corr,
        payload,
        conn,
    } = prep;
    let result = match parse_submit(&payload) {
        Err(e) => {
            core.preparing.fetch_sub(1, Ordering::Relaxed);
            Err(e)
        }
        Ok(q) => {
            let _gate = core
                .max_inflight
                .map(|_| core.admission.lock().expect("admission lock"));
            let jobs: Vec<JobHandle> = q
                .goal_parts
                .into_iter()
                .map(|part| {
                    let mut spec = QuerySpec::new(q.sigma.clone(), part, q.pool.clone())
                        .goal_class(q.class)
                        .waker(conn.thread.clone());
                    if let Some(cap) = q.fuel_cap {
                        spec = spec.fuel_cap(cap);
                    }
                    core.client.submit(spec)
                })
                .collect();
            core.preparing.fetch_sub(1, Ordering::Relaxed);
            Ok((jobs, q.progress))
        }
    };
    let mut shards: Vec<usize> = match &result {
        Ok((jobs, _)) => jobs.iter().map(|j| j.id().shard()).collect(),
        Err(_) => Vec::new(),
    };
    shards.sort_unstable();
    shards.dedup();
    conn.deliver(corr, result);
    for idx in shards {
        core.client.step_shard(idx);
    }
    conn.thread.unpark();
}

/// A connection's mailbox and the threads that use it: the reader
/// thread and the drivers deliver into it, the connection thread takes
/// from it.
struct ConnShared {
    mailbox: Mutex<Mailbox>,
    /// The reader waits here while the mailbox holds
    /// [`READ_BUFFER_CAP`] bytes.
    room: Condvar,
    /// The connection thread, unparked on every delivery.
    thread: Thread,
}

#[derive(Default)]
struct Mailbox {
    /// Bytes read from the socket, not yet taken.
    bytes: Vec<u8>,
    /// The peer hung up, or the read failed.
    eof: bool,
    /// Finished preparations, oldest first.
    prepared: Vec<(u64, PrepResult)>,
    /// The connection thread has exited: drivers settle what they
    /// prepare themselves ([`settle_orphan`]).
    closed: bool,
    /// Once closed, the correlations still being prepared that were
    /// detached and not cancelled.
    detached: Vec<u64>,
}

impl ConnShared {
    /// Hands a finished preparation to the connection thread, or settles
    /// it when the connection is gone. The caller unparks the thread.
    fn deliver(&self, corr: u64, result: PrepResult) {
        let mut mb = self.mailbox.lock().expect("mailbox lock");
        if !mb.closed {
            mb.prepared.push((corr, result));
            return;
        }
        let detached = mb.detached.contains(&corr);
        drop(mb);
        if let Ok((jobs, _)) = result {
            settle_orphan(&jobs, detached);
        }
    }
}

/// Settles the jobs of a submission whose connection is gone, as a
/// dropped client's would be: detached jobs keep computing so their
/// answers can feed the cache, the rest are cancelled. The caller drops
/// (retires) the handles.
fn settle_orphan(jobs: &[JobHandle], detached: bool) {
    for job in jobs {
        if detached {
            job.detach();
        } else {
            job.cancel();
        }
    }
}

/// A connection's reader thread: blocks in `read` and moves the bytes
/// into the mailbox, unparking the connection thread. It stops at EOF or
/// a read error (both read as EOF), or once the mailbox closes; the
/// connection thread shuts the socket down to end a blocked read.
fn read_loop(mut stream: ProtoStream, shared: &ConnShared) {
    let mut tmp = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut tmp) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => 0,
        };
        let full = {
            let mut mb = shared.mailbox.lock().expect("mailbox lock");
            if n == 0 {
                mb.eof = true;
            } else {
                mb.bytes.extend_from_slice(&tmp[..n]);
            }
            mb.bytes.len() >= READ_BUFFER_CAP
        };
        shared.thread.unpark();
        if n == 0 {
            return;
        }
        if full {
            let mut mb = shared.mailbox.lock().expect("mailbox lock");
            while mb.bytes.len() >= READ_BUFFER_CAP && !mb.closed {
                mb = shared.room.wait(mb).expect("mailbox lock");
            }
            if mb.closed {
                return;
            }
        }
    }
}

/// One submission in flight on a connection: the jobs of its normalized
/// goal parts plus the detach mark and progress-streaming state.
struct PendingEntry {
    jobs: Vec<JobHandle>,
    detached: bool,
    /// The `SUBMIT` set the progress flag: stream `Running` frames.
    progress: bool,
    /// Aggregate fuel reported in the last `Running` frame. Frames are
    /// emitted only on a strict increase, so the stream is fuel-monotone
    /// and an idle (queued, coalesced, or cache-racing) job stays quiet.
    last_fuel: u64,
}

#[derive(Default)]
struct ConnCounters {
    submitted: u64,
    answered: u64,
    cancelled: u64,
    expired: u64,
}

/// `CANCEL` and `DETACH` frames that arrived for a submission still being
/// prepared, applied when its jobs arrive.
#[derive(Clone, Copy, Default)]
struct Marks {
    cancel: bool,
    detach: bool,
}

/// How long one socket write attempt may block before the loop re-checks
/// the shutdown flag. Bounds how long a stalled reader (a client that
/// pipelines submits but never drains its answers) can delay server
/// shutdown.
const WRITE_SLICE: Duration = Duration::from_millis(50);

/// Writes `buf` fully in shutdown-observing slices. A client that stops
/// reading fills the kernel send buffer; without the timeout the
/// connection thread would block in `write_all` forever and wedge
/// [`ProtoServer::join`]. Returns `false` when the connection should be
/// dropped (peer gone, or the server is shutting down mid-write).
fn write_all_checked(core: &ServerCore, stream: &mut ProtoStream, buf: &[u8]) -> bool {
    let mut written = 0usize;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => return false,
            Ok(n) => written += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // The flag is checked only on *stalled* attempts: a
                // responsive peer always gets its frames (including the
                // final BYE of the shutdown handshake, which is written
                // after the flag is already set), while a stalled one
                // stops delaying shutdown within one write slice.
                if core.stopping() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// One connection: a reader thread moves bytes from the socket into the
/// mailbox, and this thread cuts frames, queues each `SUBMIT` for the
/// drivers, answers the other requests, and pushes `ACCEPTED`/`ERR` for
/// finished preparations and `ANSWER` frames out of order as jobs
/// resolve. Between rounds it parks until the reader, a driver or a
/// resolving job unparks it. On exit (EOF, error, or server shutdown),
/// non-detached submissions are cancelled and all handles retire —
/// exactly the `JobHandle::cancel`/`detach` semantics of a dropped
/// client.
fn serve_conn(core: &ServerCore, stream: ProtoStream) {
    // A stalled reader must not block a write forever: shutdown would
    // wait on this thread.
    let _ = stream.set_write_timeout(Some(WRITE_SLICE));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let shared = Arc::new(ConnShared {
        mailbox: Mutex::default(),
        room: Condvar::new(),
        thread: std::thread::current(),
    });
    let reader = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || read_loop(read_half, &shared))
    };
    let mut conn = Conn {
        core,
        shared,
        stream,
        pending: HashMap::new(),
        order: VecDeque::new(),
        preparing: HashMap::new(),
        unwoken: 0,
        counters: ConnCounters::default(),
        out: Vec::new(),
    };
    conn.run();
    conn.close(reader);
}

/// A connection thread's state.
struct Conn<'a> {
    core: &'a ServerCore,
    shared: Arc<ConnShared>,
    stream: ProtoStream,
    /// Submissions with jobs, by correlation id.
    pending: HashMap<u64, PendingEntry>,
    /// `pending`'s ids in submission order.
    order: VecDeque<u64>,
    /// Submissions a driver is still preparing.
    preparing: HashMap<u64, Marks>,
    /// Submissions queued this round that no driver was woken for yet.
    unwoken: usize,
    counters: ConnCounters,
    /// Frames to write at the end of the round.
    out: Vec<u8>,
}

enum ConnControl {
    Continue,
    Close,
}

impl Conn<'_> {
    fn run(&mut self) {
        let mut rbuf: Vec<u8> = Vec::new();
        let mut last_progress = Instant::now();
        while !self.core.stopping() {
            let (prepared, eof) = {
                let mut mb = self.shared.mailbox.lock().expect("mailbox lock");
                if mb.bytes.len() >= READ_BUFFER_CAP {
                    self.shared.room.notify_one();
                }
                rbuf.extend_from_slice(&mb.bytes);
                mb.bytes.clear();
                (std::mem::take(&mut mb.prepared), mb.eof)
            };
            for (corr, result) in prepared {
                self.accept(corr, result);
            }
            let mut consumed = 0usize;
            loop {
                match decode_frame(&rbuf[consumed..]) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        if let ConnControl::Close = self.handle_frame(frame) {
                            self.flush();
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Desynced stream: one final ERR, then a clean
                        // disconnect — never a panic, never a guess at
                        // where the next frame starts.
                        err_frame(0, err_code::BAD_FRAME, &e.to_string())
                            .encode_into(&mut self.out);
                        self.flush();
                        return;
                    }
                }
            }
            rbuf.drain(..consumed);
            if eof {
                // The client hung up.
                self.flush();
                return;
            }
            let streaming = self.pending.values().any(|e| e.progress);
            if streaming && last_progress.elapsed() >= PROGRESS_INTERVAL {
                last_progress = Instant::now();
                pump_progress(&mut self.pending, &mut self.out);
            }
            pump_answers(
                &mut self.pending,
                &mut self.order,
                &mut self.counters,
                &mut self.out,
            );
            if !self.flush() {
                return;
            }
            self.wake_drivers();
            std::thread::park_timeout(if streaming {
                PROGRESS_INTERVAL.saturating_sub(last_progress.elapsed())
            } else {
                CONN_PARK_BACKSTOP
            });
        }
    }

    /// Wakes one driver per `SUBMIT` queued this round. Done last, just
    /// before the thread parks: a woken driver may take this thread's CPU,
    /// and the round's frames and writes must not wait behind it.
    fn wake_drivers(&mut self) {
        for _ in 0..std::mem::take(&mut self.unwoken) {
            self.core.client.bump_work();
        }
    }

    /// Writes the buffered frames; `false` when the connection should
    /// close.
    fn flush(&mut self) -> bool {
        if self.out.is_empty() {
            return true;
        }
        let ok = write_all_checked(self.core, &mut self.stream, &self.out);
        self.out.clear();
        ok
    }

    /// Takes a finished preparation: `ERR` for a rejected `SUBMIT`;
    /// otherwise `ACCEPTED`, then any `DETACH`/`CANCEL` that arrived
    /// while it was prepared, and the submission joins `pending`.
    fn accept(&mut self, corr: u64, result: PrepResult) {
        let marks = self.preparing.remove(&corr).unwrap_or_default();
        let (jobs, progress) = match result {
            Ok(v) => v,
            Err((code, msg)) => {
                err_frame(corr, code, &msg).encode_into(&mut self.out);
                return;
            }
        };
        self.counters.submitted += 1;
        progress_frame(
            corr,
            ProgressKind::Accepted,
            &format!("parts={}", jobs.len()),
        )
        .encode_into(&mut self.out);
        for job in &jobs {
            if marks.detach {
                job.detach();
            }
            if marks.cancel {
                job.cancel();
            }
        }
        self.pending.insert(
            corr,
            PendingEntry {
                jobs,
                detached: marks.detach,
                progress,
                last_fuel: 0,
            },
        );
        self.order.push_back(corr);
    }

    /// Ends the connection like a dropped client: non-detached
    /// submissions are cancelled, including those still being prepared
    /// (their drivers settle them through the closed mailbox), and every
    /// handle retires.
    fn close(mut self, reader: std::thread::JoinHandle<()>) {
        self.wake_drivers();
        let detached: Vec<u64> = self
            .preparing
            .iter()
            .filter(|(_, m)| m.detach && !m.cancel)
            .map(|(&corr, _)| corr)
            .collect();
        let orphans = {
            let mut mb = self.shared.mailbox.lock().expect("mailbox lock");
            mb.closed = true;
            mb.detached.clone_from(&detached);
            std::mem::take(&mut mb.prepared)
        };
        self.shared.room.notify_one();
        let _ = self.stream.shutdown();
        let _ = reader.join();
        for entry in self.pending.values() {
            if !entry.detached {
                for job in &entry.jobs {
                    job.cancel();
                }
            }
        }
        for (corr, result) in orphans {
            if let Ok((jobs, _)) = result {
                settle_orphan(&jobs, detached.contains(&corr));
            }
        }
    }

    fn handle_frame(&mut self, frame: Frame) -> ConnControl {
        let out = &mut self.out;
        if frame.version != PROTO_VERSION {
            err_frame(
                frame.corr,
                err_code::BAD_VERSION,
                &format!(
                    "server speaks version {PROTO_VERSION}, frame has {}",
                    frame.version
                ),
            )
            .encode_into(out);
            return ConnControl::Close;
        }
        let Some(opcode) = Opcode::from_u8(frame.opcode) else {
            err_frame(
                frame.corr,
                err_code::BAD_OPCODE,
                &format!("unknown opcode 0x{:02x}", frame.opcode),
            )
            .encode_into(out);
            return ConnControl::Continue;
        };
        match opcode {
            Opcode::Submit => {
                if self.pending.contains_key(&frame.corr)
                    || self.preparing.contains_key(&frame.corr)
                {
                    err_frame(
                        frame.corr,
                        err_code::DUPLICATE_CORR,
                        "correlation id already pending",
                    )
                    .encode_into(out);
                    return ConnControl::Continue;
                }
                // Overload shedding: a clean ERR the client can retry
                // beats unbounded queue growth. Checked before any
                // parsing, so a flood of oversized submissions can't buy
                // CPU with frames that would be shed anyway.
                if !self.core.admit() {
                    self.core.client.note_shed();
                    let max = self.core.max_inflight.unwrap_or(0);
                    err_frame(
                        frame.corr,
                        err_code::BUSY,
                        &format!("server at max-inflight={max}; retry after draining answers"),
                    )
                    .encode_into(out);
                    return ConnControl::Continue;
                }
                self.preparing.insert(frame.corr, Marks::default());
                self.unwoken += 1;
                self.core.push_prep(Prep {
                    corr: frame.corr,
                    payload: frame.payload,
                    conn: Arc::clone(&self.shared),
                });
            }
            Opcode::Cancel => {
                if let Some(entry) = self.pending.get(&frame.corr) {
                    for job in &entry.jobs {
                        job.cancel();
                    }
                } else if let Some(marks) = self.preparing.get_mut(&frame.corr) {
                    marks.cancel = true;
                } else {
                    err_frame(
                        frame.corr,
                        err_code::UNKNOWN_CORR,
                        "nothing pending under id",
                    )
                    .encode_into(out);
                }
            }
            Opcode::Detach => {
                if let Some(entry) = self.pending.get_mut(&frame.corr) {
                    entry.detached = true;
                    for job in &entry.jobs {
                        job.detach();
                    }
                } else if let Some(marks) = self.preparing.get_mut(&frame.corr) {
                    marks.detach = true;
                } else {
                    err_frame(
                        frame.corr,
                        err_code::UNKNOWN_CORR,
                        "nothing pending under id",
                    )
                    .encode_into(out);
                }
            }
            Opcode::Stats => {
                // The connection's ledger, then the server-wide
                // instruments in the `--stats` ledger's own vocabulary. A
                // `SUBMIT` still being prepared counts as submitted and
                // pending (one that then fails to parse leaves both), so
                // `answered + cancelled + expired + pending == submitted`
                // holds in every reply.
                let c = &self.counters;
                let preparing = self.preparing.len() as u64;
                let text = format!(
                    "submitted={} answered={} cancelled={} expired={} pending={} {}",
                    c.submitted + preparing,
                    c.answered,
                    c.cancelled,
                    c.expired,
                    self.pending.len() as u64 + preparing,
                    crate::cli::stats_line(&self.core.client),
                );
                progress_frame(frame.corr, ProgressKind::Stats, &text).encode_into(out);
            }
            Opcode::Shutdown => {
                self.core.shut_down();
                progress_frame(frame.corr, ProgressKind::Bye, "shutting down").encode_into(out);
                return ConnControl::Close;
            }
            // A client sending response opcodes is out of protocol, but the
            // frame was well-delimited: report and continue.
            Opcode::Answer | Opcode::Progress | Opcode::Err => {
                err_frame(
                    frame.corr,
                    err_code::BAD_OPCODE,
                    "response opcode on the request direction",
                )
                .encode_into(out);
            }
        }
        ConnControl::Continue
    }
}

/// How often a connection scans its progress-streaming submissions for
/// a `Running` frame: while one is pending, the connection thread parks
/// for at most this long.
const PROGRESS_INTERVAL: Duration = Duration::from_micros(500);

/// Emits a `PROGRESS`/`Running` frame for every streaming submission
/// whose parts spent fuel since its last frame. The per-entry
/// `last_fuel` gate makes the stream strictly fuel-monotone; entries
/// with every part already resolved stay quiet (their `ANSWER` carries
/// the final totals).
fn pump_progress(pending: &mut HashMap<u64, PendingEntry>, out: &mut Vec<u8>) {
    for (&corr, entry) in pending.iter_mut() {
        if !entry.progress {
            continue;
        }
        let mut up = RunningUpdate {
            phase: String::new(),
            parts: entry.jobs.len() as u64,
            ..RunningUpdate::default()
        };
        let mut phase = TaskPhase::Done;
        for job in &entry.jobs {
            if matches!(job.poll(), JobStatus::Pending) {
                up.pending += 1;
            }
            let Some(p) = job.progress() else { continue };
            up.fuel += p.fuel_spent;
            up.rounds += p.chase_rounds;
            up.steps += p.chase_steps;
            up.merges += p.chase_merges;
            up.rows += p.instance_rows;
            up.attempts += p.search_attempts;
            up.join_build += p.join_build_rows;
            up.join_probe += p.join_probe_hits;
            // Report the phase of a part still computing; parts that
            // finished (or never ran) don't override it.
            if p.phase != TaskPhase::Done {
                phase = p.phase;
            }
        }
        if up.pending == 0 || up.fuel <= entry.last_fuel {
            continue;
        }
        entry.last_fuel = up.fuel;
        let text = format!(
            "phase={} fuel={} rounds={} steps={} merges={} rows={} attempts={} jbuild={} jprobe={} parts={} pending={}",
            phase.as_str(),
            up.fuel,
            up.rounds,
            up.steps,
            up.merges,
            up.rows,
            up.attempts,
            up.join_build,
            up.join_probe,
            up.parts,
            up.pending,
        );
        progress_frame(corr, ProgressKind::Running, &text).encode_into(out);
    }
}

/// Emits `ANSWER` frames for every pending submission whose parts have
/// all resolved (in resolution order, not submission order).
fn pump_answers(
    pending: &mut HashMap<u64, PendingEntry>,
    order: &mut VecDeque<u64>,
    counters: &mut ConnCounters,
    out: &mut Vec<u8>,
) {
    order.retain(|&corr| {
        let entry = pending.get(&corr).expect("order tracks pending");
        let Some(answer) = conjoin_entry(entry) else {
            return true; // still pending
        };
        if answer.cancelled {
            counters.cancelled += 1;
        } else if answer.expired {
            counters.expired += 1;
        } else {
            counters.answered += 1;
        }
        Frame::new(Opcode::Answer, corr, answer.encode()).encode_into(out);
        pending.remove(&corr);
        false
    });
}

/// Folds one submission's parts into a wire answer, or `None` while any
/// part is pending. Mirrors `BatchQuery::conjoined`, adding the
/// cancelled/expired classification the wire stats invariant
/// (`answered + cancelled + expired == submitted`) is built on.
fn conjoin_entry(entry: &PendingEntry) -> Option<WireAnswer> {
    let mut answer = WireAnswer {
        implication: Answer::Yes,
        finite_implication: Answer::Yes,
        from_cache: !entry.jobs.is_empty(),
        cancelled: false,
        expired: false,
        fuel_spent: 0,
    };
    for job in &entry.jobs {
        match job.poll() {
            JobStatus::Done(outcome) => {
                answer.implication = answer.implication.and(outcome.implication);
                answer.finite_implication =
                    answer.finite_implication.and(outcome.finite_implication);
                answer.from_cache &= outcome.from_cache;
                answer.fuel_spent += outcome.fuel_spent;
            }
            JobStatus::Cancelled => {
                answer.implication = Answer::Unknown;
                answer.finite_implication = Answer::Unknown;
                answer.from_cache = false;
                answer.cancelled = true;
            }
            JobStatus::Pending => return None,
            JobStatus::Retired => unreachable!("the connection owns its job handles"),
        }
    }
    answer.expired = !answer.cancelled
        && (answer.implication == Answer::Unknown
            || answer.finite_implication == Answer::Unknown);
    Some(answer)
}

/// Client-side resilience knobs: connect/read timeouts plus a bounded
/// reconnect-with-jittered-backoff policy. The [`Default`] keeps the
/// legacy behavior — OS-default connect, block forever on reads, never
/// reconnect — so existing callers are unchanged; a resilient client
/// opts in via [`ProtoClient::connect_tcp_with`] /
/// [`ProtoClient::connect_unix_with`]. Re-submission after a reconnect
/// is idempotent end to end: the server's answer cache (and coalescing)
/// makes a repeated `SUBMIT` of an already-answered query a cache hit,
/// so a backend restart costs latency, not correctness.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on each TCP connect attempt (`None` = OS default). Unix
    /// connects are local and effectively immediate; the bound is not
    /// applied there.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read. On expiry the client treats the
    /// connection as stalled: with reconnection enabled it re-dials and
    /// re-submits, otherwise the `TimedOut` error surfaces. `None`
    /// blocks forever.
    pub read_timeout: Option<Duration>,
    /// Reconnect attempts per failure before the original error
    /// surfaces (0 disables reconnection entirely).
    pub reconnect_attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter (each sleep is a
    /// uniform draw from the upper half of the exponential step, so a
    /// thundering herd of restarted clients decorrelates).
    pub backoff_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            reconnect_attempts: 0,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
            backoff_seed: 0x1d,
        }
    }
}

impl ClientConfig {
    /// A resilient profile: 5s connect timeout, `read_timeout` reads,
    /// `attempts` reconnects with 20ms..1s jittered backoff.
    pub fn resilient(read_timeout: Duration, attempts: u32) -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(read_timeout),
            reconnect_attempts: attempts,
            ..Self::default()
        }
    }
}

/// Where a [`ProtoClient`] can re-dial its server. Wrapped streams
/// ([`ProtoClient::over`]) have no address, so they never reconnect.
enum Target {
    Tcp(Vec<SocketAddr>),
    #[cfg(unix)]
    Unix(PathBuf),
    Wrapped,
}

/// A synchronous (blocking, `std::net`) protocol client: submit queries,
/// cancel/detach them, read out-of-order answers, fetch stats. One
/// client owns one connection; use one client per thread (the protocol
/// itself is fully pipelined, so a single client may have any number of
/// submissions outstanding). With a [`ClientConfig`] that enables
/// reconnection, a dropped or stalled connection is re-dialed with
/// jittered backoff and every still-unanswered `SUBMIT` is re-sent
/// under its original correlation id.
pub struct ProtoClient {
    stream: ProtoStream,
    rbuf: Vec<u8>,
    inbox: VecDeque<Frame>,
    next_corr: u64,
    cfg: ClientConfig,
    target: Target,
    /// Unanswered submissions: correlation id → encoded
    /// [`SubmitPayload`], kept until the matching `ANSWER`/`ERR` frame
    /// arrives so a reconnect can replay them.
    outstanding: HashMap<u64, Vec<u8>>,
    rng: StdRng,
}

/// Dials `target` fresh (used for both the initial connect and
/// reconnects) and applies the read timeout.
fn dial(target: &Target, cfg: &ClientConfig) -> io::Result<ProtoStream> {
    let stream = match target {
        Target::Tcp(addrs) => {
            let mut last = None;
            let mut connected = None;
            for addr in addrs {
                let res = match cfg.connect_timeout {
                    Some(t) => TcpStream::connect_timeout(addr, t),
                    None => TcpStream::connect(addr),
                };
                match res {
                    Ok(s) => {
                        s.set_nodelay(true).ok();
                        connected = Some(ProtoStream::Tcp(s));
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            match connected {
                Some(s) => s,
                None => {
                    return Err(last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "no addresses to dial")
                    }))
                }
            }
        }
        #[cfg(unix)]
        Target::Unix(path) => ProtoStream::Unix(UnixStream::connect(path)?),
        Target::Wrapped => {
            return Err(io::Error::other("a wrapped stream has no address to re-dial"))
        }
    };
    if cfg.read_timeout.is_some() {
        stream.set_read_timeout(cfg.read_timeout)?;
    }
    Ok(stream)
}

impl ProtoClient {
    /// Connects over TCP with default (legacy: blocking, non-resilient)
    /// client behavior.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_tcp_with(addr, ClientConfig::default())
    }

    /// Connects over TCP with explicit timeout/reconnect behavior.
    ///
    /// # Errors
    /// Propagates address-resolution and connect failures.
    pub fn connect_tcp_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let target = Target::Tcp(addrs);
        let stream = dial(&target, &cfg)?;
        Ok(Self::assemble(stream, target, cfg))
    }

    /// Connects over a Unix-domain socket with default behavior.
    ///
    /// # Errors
    /// Propagates connect failures.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::connect_unix_with(path, ClientConfig::default())
    }

    /// Connects over a Unix-domain socket with explicit
    /// timeout/reconnect behavior.
    ///
    /// # Errors
    /// Propagates connect failures.
    #[cfg(unix)]
    pub fn connect_unix_with(path: impl AsRef<Path>, cfg: ClientConfig) -> io::Result<Self> {
        let target = Target::Unix(path.as_ref().to_path_buf());
        let stream = dial(&target, &cfg)?;
        Ok(Self::assemble(stream, target, cfg))
    }

    /// Wraps an already-connected stream (no address, so the client
    /// never reconnects).
    pub fn over(stream: ProtoStream) -> Self {
        Self::assemble(stream, Target::Wrapped, ClientConfig::default())
    }

    fn assemble(stream: ProtoStream, target: Target, cfg: ClientConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.backoff_seed);
        Self {
            stream,
            rbuf: Vec::new(),
            inbox: VecDeque::new(),
            next_corr: 1,
            cfg,
            target,
            outstanding: HashMap::new(),
            rng,
        }
    }

    /// Re-dials the server with jittered exponential backoff and
    /// replays every outstanding submission under its original
    /// correlation id. Returns `cause` when reconnection is disabled,
    /// impossible (wrapped stream), or exhausted.
    fn reconnect(&mut self, cause: io::Error) -> io::Result<()> {
        if self.cfg.reconnect_attempts == 0 || matches!(self.target, Target::Wrapped) {
            return Err(cause);
        }
        'attempts: for attempt in 0..self.cfg.reconnect_attempts {
            let step = self
                .cfg
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(self.cfg.backoff_max);
            let full = step.as_nanos().min(u128::from(u64::MAX)) as u64;
            let jittered = if full == 0 {
                0
            } else {
                // Uniform over the upper half of the exponential step:
                // bounded below (still backs off) and decorrelated.
                full / 2 + self.rng.next_u64() % (full - full / 2 + 1)
            };
            std::thread::sleep(Duration::from_nanos(jittered));
            let Ok(stream) = dial(&self.target, &self.cfg) else {
                continue;
            };
            self.stream = stream;
            // A partial frame from the dead connection is garbage on the
            // new one; already-decoded inbox frames stay valid.
            self.rbuf.clear();
            let mut corrs: Vec<u64> = self.outstanding.keys().copied().collect();
            corrs.sort_unstable();
            for corr in corrs {
                let payload = self.outstanding[&corr].clone();
                if self
                    .send_frame(&Frame::new(Opcode::Submit, corr, payload))
                    .is_err()
                {
                    continue 'attempts;
                }
            }
            return Ok(());
        }
        Err(cause)
    }

    /// Sends a raw frame (the typed helpers below cover the protocol;
    /// this is the escape hatch tests use to speak garbage). With
    /// reconnection enabled, a write failure triggers one
    /// reconnect-and-replay cycle before the frame is retried.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_raw(&mut self, frame: &Frame) -> io::Result<()> {
        match self.send_frame(frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.reconnect(e)?;
                self.send_frame(frame)
            }
        }
    }

    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream.write_all(&frame.encode())?;
        self.stream.flush()
    }

    /// Submits one query; returns the correlation id to match the
    /// eventual `ANSWER` (an `ACCEPTED` progress frame arrives first).
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn submit(
        &mut self,
        universe: &str,
        query: &str,
        fuel_cap: Option<u64>,
    ) -> io::Result<u64> {
        self.submit_inner(universe, query, fuel_cap, false)
    }

    /// Like [`ProtoClient::submit`], but sets the `SUBMIT` progress
    /// flag: the server streams `PROGRESS`/`Running` frames under the
    /// returned correlation while the job computes. Collect them with
    /// [`ProtoClient::wait_answer_with_progress`] (a plain
    /// [`ProtoClient::wait_answer`] stashes them in the inbox instead).
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn submit_with_progress(
        &mut self,
        universe: &str,
        query: &str,
        fuel_cap: Option<u64>,
    ) -> io::Result<u64> {
        self.submit_inner(universe, query, fuel_cap, true)
    }

    fn submit_inner(
        &mut self,
        universe: &str,
        query: &str,
        fuel_cap: Option<u64>,
        progress: bool,
    ) -> io::Result<u64> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let payload = SubmitPayload {
            fuel_cap,
            universe: universe.to_string(),
            query: query.to_string(),
            progress,
        };
        let encoded = payload.encode();
        self.send_raw(&Frame::new(Opcode::Submit, corr, encoded.clone()))?;
        // Recorded only after the send succeeded: a reconnect inside
        // `send_raw` must not replay this very frame and then have the
        // retry send it a second time.
        self.outstanding.insert(corr, encoded);
        Ok(corr)
    }

    /// Requests cancellation of a pending submission.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn cancel(&mut self, corr: u64) -> io::Result<()> {
        self.send_raw(&Frame::new(Opcode::Cancel, corr, Vec::new()))
    }

    /// Detaches a pending submission (it survives this connection
    /// dropping, and a coalescing leader's cancellation).
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn detach(&mut self, corr: u64) -> io::Result<()> {
        self.send_raw(&Frame::new(Opcode::Detach, corr, Vec::new()))
    }

    /// Asks the whole server to shut down.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send_raw(&Frame::new(Opcode::Shutdown, self.next_corr, Vec::new()))
    }

    /// Receives the next frame (blocking). Frames stashed by the
    /// filtered helpers are drained first.
    ///
    /// # Errors
    /// Read failures; `UnexpectedEof` when the server hung up, or
    /// `InvalidData` on an undecodable stream.
    pub fn recv(&mut self) -> io::Result<Frame> {
        if let Some(f) = self.inbox.pop_front() {
            return Ok(f);
        }
        self.recv_wire()
    }

    /// Receives the next frame from the wire, bypassing the inbox. The
    /// filtered helpers use this after scanning the inbox once — going
    /// through [`ProtoClient::recv`] instead would pop the very frames
    /// they just stashed and spin forever.
    fn recv_wire(&mut self) -> io::Result<Frame> {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match decode_frame(&self.rbuf) {
                Ok(Some((frame, used))) => {
                    self.rbuf.drain(..used);
                    // A settled correlation must never be replayed on
                    // reconnect — drop it from the outstanding set the
                    // moment its ANSWER/ERR is decoded, regardless of
                    // which helper the caller went through.
                    if matches!(
                        Opcode::from_u8(frame.opcode),
                        Some(Opcode::Answer | Opcode::Err)
                    ) {
                        self.outstanding.remove(&frame.corr);
                    }
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    let eof = io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    );
                    self.reconnect(eof)?;
                }
                Ok(n) => self.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock/TimedOut is the configured read timeout
                // expiring: the connection is stalled. Every other error
                // is a dead connection. Both funnel through the same
                // bounded reconnect; when reconnection is off the error
                // surfaces unchanged.
                Err(e) => self.reconnect(e)?,
            }
        }
    }

    /// Whether `frame` settles `wait_answer(corr)`.
    fn settles(frame: &Frame, corr: u64) -> bool {
        frame.corr == corr
            && matches!(
                Opcode::from_u8(frame.opcode),
                Some(Opcode::Answer | Opcode::Err)
            )
    }

    fn into_answer(frame: Frame) -> io::Result<WireAnswer> {
        match Opcode::from_u8(frame.opcode) {
            Some(Opcode::Answer) => WireAnswer::decode(&frame.payload)
                .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m)),
            _ => {
                let (code, msg) = decode_err(&frame.payload)
                    .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
                Err(io::Error::other(format!("server err {code}: {msg}")))
            }
        }
    }

    /// Receives until the `ANSWER` for `corr` arrives; other frames are
    /// stashed for later [`ProtoClient::recv`] calls (`ERR` frames for
    /// this id become errors).
    ///
    /// # Errors
    /// Read failures, or `Other` carrying the server's `ERR` message.
    pub fn wait_answer(&mut self, corr: u64) -> io::Result<WireAnswer> {
        if let Some(at) = self.inbox.iter().position(|f| Self::settles(f, corr)) {
            let frame = self.inbox.remove(at).expect("position is in range");
            return Self::into_answer(frame);
        }
        loop {
            let frame = self.recv_wire()?;
            if Self::settles(&frame, corr) {
                return Self::into_answer(frame);
            }
            self.inbox.push_back(frame);
        }
    }

    /// Whether `frame` is a `PROGRESS`/`Running` frame for `corr`.
    fn is_running(frame: &Frame, corr: u64) -> bool {
        frame.corr == corr
            && Opcode::from_u8(frame.opcode) == Some(Opcode::Progress)
            && frame.payload.first().copied() == Some(ProgressKind::Running as u8)
    }

    /// Like [`ProtoClient::wait_answer`], but feeds every
    /// `PROGRESS`/`Running` frame for `corr` through `on_progress` as it
    /// arrives (stashed ones first, in arrival order). Use with
    /// [`ProtoClient::submit_with_progress`] — a flagless submission
    /// simply never invokes the callback.
    ///
    /// # Errors
    /// Read failures, or `Other` carrying the server's `ERR` message.
    pub fn wait_answer_with_progress(
        &mut self,
        corr: u64,
        mut on_progress: impl FnMut(RunningUpdate),
    ) -> io::Result<WireAnswer> {
        // Drain stashed Running frames for this correlation first so the
        // callback sees them in order even when another wait interleaved.
        let stashed: Vec<Frame> = {
            let mut kept = VecDeque::with_capacity(self.inbox.len());
            let mut mine = Vec::new();
            for f in self.inbox.drain(..) {
                if Self::is_running(&f, corr) {
                    mine.push(f);
                } else {
                    kept.push_back(f);
                }
            }
            self.inbox = kept;
            mine
        };
        for f in stashed {
            on_progress(parse_running_text(&String::from_utf8_lossy(&f.payload[1..])));
        }
        if let Some(at) = self.inbox.iter().position(|f| Self::settles(f, corr)) {
            let frame = self.inbox.remove(at).expect("position is in range");
            return Self::into_answer(frame);
        }
        loop {
            let frame = self.recv_wire()?;
            if Self::settles(&frame, corr) {
                return Self::into_answer(frame);
            }
            if Self::is_running(&frame, corr) {
                on_progress(parse_running_text(&String::from_utf8_lossy(&frame.payload[1..])));
            } else {
                self.inbox.push_back(frame);
            }
        }
    }

    /// Round-trips a `STATS` request into a counter map; unrelated
    /// frames arriving in between are stashed.
    ///
    /// # Errors
    /// Read/write failures.
    pub fn stats(&mut self) -> io::Result<HashMap<String, u64>> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.send_raw(&Frame::new(Opcode::Stats, corr, Vec::new()))?;
        loop {
            let frame = self.recv_wire()?;
            if Opcode::from_u8(frame.opcode) == Some(Opcode::Progress)
                && frame.corr == corr
                && frame.payload.first().copied() == Some(ProgressKind::Stats as u8)
            {
                let text = String::from_utf8_lossy(&frame.payload[1..]).into_owned();
                return Ok(parse_stats_text(&text));
            }
            self.inbox.push_back(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_streams_send_without_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let _peer = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect to localhost");
        let Ok(ProtoStream::Tcp(accepted)) = accept_tcp(&listener) else {
            panic!("the pending connection must be accepted as TCP");
        };
        assert!(accepted.nodelay().expect("read TCP_NODELAY"));
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let frames = [
            Frame::new(Opcode::Submit, 7, b"payload".to_vec()),
            Frame::new(Opcode::Cancel, u64::MAX, Vec::new()),
            Frame::new(Opcode::Answer, 0, vec![0u8; 64]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut at = 0usize;
        for f in &frames {
            let (decoded, used) = decode_frame(&wire[at..])
                .expect("well-formed")
                .expect("complete");
            assert_eq!(&decoded, f);
            at += used;
        }
        assert_eq!(at, wire.len());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let wire = Frame::new(Opcode::Stats, 3, b"xyz".to_vec()).encode();
        for cut in 0..wire.len() {
            assert!(
                matches!(decode_frame(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must ask for more, not error"
            );
        }
    }

    #[test]
    fn implausible_lengths_are_desync_errors() {
        let mut too_large = Vec::new();
        too_large.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        too_large.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_frame(&too_large),
            Err(FrameError::TooLarge(_))
        ));
        let mut too_short = Vec::new();
        too_short.extend_from_slice(&3u32.to_le_bytes());
        too_short.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_frame(&too_short),
            Err(FrameError::TooShort(3))
        ));
    }

    #[test]
    fn submit_payload_roundtrip_and_guards() {
        let p = SubmitPayload {
            fuel_cap: Some(512),
            universe: "untyped A' B' C'".into(),
            query: "td [x y z] => x y z |= td [x y z] => x y z".into(),
            progress: false,
        };
        assert_eq!(SubmitPayload::decode(&p.encode()).unwrap(), p);
        let none = SubmitPayload {
            fuel_cap: None,
            ..p.clone()
        };
        assert_eq!(SubmitPayload::decode(&none.encode()).unwrap(), none);
        // The progress flag rides a trailing byte; a flagless encoding
        // stays byte-identical to v1 (no flags byte at all).
        let streaming = SubmitPayload {
            progress: true,
            ..p.clone()
        };
        assert_eq!(streaming.encode().len(), p.encode().len() + 1);
        assert_eq!(SubmitPayload::decode(&streaming.encode()).unwrap(), streaming);
        // Truncations and trailing garbage are errors, never panics.
        let enc = p.encode();
        for cut in 0..enc.len() {
            assert!(SubmitPayload::decode(&enc[..cut]).is_err());
        }
        let mut trailing = enc.clone();
        trailing.push(0); // a zero flags byte is garbage, not "no flags"
        assert!(SubmitPayload::decode(&trailing).is_err());
        let mut unknown = enc.clone();
        unknown.push(0x02); // unknown flag bits are rejected
        assert!(SubmitPayload::decode(&unknown).is_err());
        let mut two = streaming.encode();
        two.push(1); // at most one flags byte
        assert!(SubmitPayload::decode(&two).is_err());
    }

    #[test]
    fn running_text_roundtrip() {
        let up = RunningUpdate {
            phase: "dovetail".into(),
            fuel: 96,
            rounds: 7,
            steps: 40,
            merges: 3,
            rows: 55,
            attempts: 12,
            join_build: 81,
            join_probe: 64,
            parts: 2,
            pending: 1,
        };
        let text = format!(
            "phase={} fuel={} rounds={} steps={} merges={} rows={} attempts={} jbuild={} jprobe={} parts={} pending={}",
            up.phase, up.fuel, up.rounds, up.steps, up.merges, up.rows, up.attempts,
            up.join_build, up.join_probe, up.parts, up.pending,
        );
        assert_eq!(parse_running_text(&text), up);
        // Unknown keys and junk tokens are skipped, missing keys default.
        let sparse = parse_running_text("fuel=5 future_key=9 garbage notanum=x");
        assert_eq!(sparse.fuel, 5);
        assert_eq!(sparse.phase, "");
        assert_eq!(sparse.parts, 0);
    }

    #[test]
    fn wire_answer_roundtrip() {
        for (imp, fin) in [
            (Answer::Yes, Answer::Yes),
            (Answer::No, Answer::No),
            (Answer::Unknown, Answer::Unknown),
        ] {
            for flags in 0..8u8 {
                let a = WireAnswer {
                    implication: imp,
                    finite_implication: fin,
                    from_cache: flags & 1 != 0,
                    cancelled: flags & 2 != 0,
                    expired: flags & 4 != 0,
                    fuel_spent: 123456789,
                };
                assert_eq!(WireAnswer::decode(&a.encode()).unwrap(), a);
            }
        }
        assert!(WireAnswer::decode(&[0, 0]).is_err());
        assert!(WireAnswer::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn stats_text_parses_counters() {
        let m = parse_stats_text("submitted=4 answered=2 cancelled=1 expired=1 pending=0");
        assert_eq!(m["submitted"], 4);
        assert_eq!(m["answered"] + m["cancelled"] + m["expired"], 4);
        assert_eq!(m["pending"], 0);
    }
}
