//! The timed run: history log, references, and daemon passes.

use crate::daemon::{cpu_ns, fresh_copy, Daemon, DaemonSpec, Drive, WireQuery};
use crate::gen::Query;
use crate::reference::{self, Expected};
use crate::report::{file_digest, percentile_sorted, Metric};
use crate::{Fnv, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use typedtd_chase::Answer;
use typedtd_service::{replay_log, ImplicationClient, PersistConfig, ServiceConfig};

/// Timed passes per run, at least, however long they take.
pub const MIN_PASSES: usize = 3;
/// A pass counts as undisturbed by the host when the hypervisor stole at
/// most this share of the host's CPU time while it ran.
pub const MAX_STEAL_FRAC: f64 = 0.02;
/// Queries in the untimed warm-up pass that precedes the timed ones.
pub const WARMUP_QUERIES: usize = 200;
/// `SUBMIT`s in flight while the history corpus is driven.
const HISTORY_IN_FLIGHT: usize = 32;
/// How long a daemon may take to drain and exit after `SHUTDOWN`.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// Where a run reads and writes, and what it runs.
pub struct Ctx {
    /// Root of the repository checkout.
    pub root: PathBuf,
    /// Scratch directory for logs, sockets, caches and reports.
    pub work: PathBuf,
    /// The `typedtd-sockd` binary under test.
    pub sockd: PathBuf,
    /// Content digest of `sockd` (keys the cached history log).
    pub sockd_digest: u64,
    /// Content digest of this benchmark's binary (keys cached references).
    pub exe_digest: u64,
}

impl Ctx {
    /// Resolves digests and creates the work directory.
    ///
    /// # Errors
    /// A missing daemon binary or an uncreatable work directory.
    pub fn new(root: PathBuf, work: PathBuf, sockd: PathBuf) -> Result<Self, String> {
        if !sockd.is_file() {
            return Err(format!("no typedtd-sockd binary at {}", sockd.display()));
        }
        std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(Self {
            sockd_digest: file_digest(&sockd),
            exe_digest: file_digest(&exe),
            root,
            work,
            sockd,
        })
    }

    fn scratch(&self, what: &str) -> PathBuf {
        self.work.join(format!("{what}-{}", std::process::id()))
    }
}

/// The answer log every timed daemon starts from.
pub struct History {
    /// The built log (copied fresh before every start).
    pub path: PathBuf,
    /// Records the log replays.
    pub records: u64,
    /// Entries a restarted daemon keeps in its cache after replay.
    pub kept: u64,
    /// FNV digest of the log bytes.
    pub checksum: u64,
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Builds (or reuses) the history log for `seed`: the corpus is driven
/// through the daemon under test with `--log`, so the log holds that
/// build's key encoding. Built once per (binary, seed).
///
/// # Errors
/// Daemon failures, or a history query that errored or came back
/// without a definite answer.
pub fn ensure_history(ctx: &Ctx, seed: u64, corpus: &[Query]) -> Result<History, String> {
    let stem = format!("history-s{seed}-{:016x}", ctx.sockd_digest);
    let path = ctx.work.join(format!("{stem}.log"));
    let meta = ctx.work.join(format!("{stem}.meta"));
    if let Ok(text) = std::fs::read_to_string(&meta) {
        let v: Vec<u64> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        if let [records, kept, checksum] = v[..] {
            if path.is_file() && file_digest(&path) == checksum {
                return Ok(History {
                    path,
                    records,
                    kept,
                    checksum,
                });
            }
        }
    }
    let building = ctx.scratch("history-building");
    let _ = std::fs::remove_file(&building);
    let socket = ctx.scratch("sock");
    let mut d = Daemon::start(&DaemonSpec {
        sockd: &ctx.sockd,
        socket: &socket,
        log: &building,
        mode: None,
    })?;
    let wire = to_wire(corpus);
    let run = d.drive(&wire, HISTORY_IN_FLIGHT, None, false)?;
    d.stop(EXIT_GRACE)?;
    for (q, a) in corpus.iter().zip(&run.answers) {
        match a {
            Ok(a) if a.implication != Answer::Unknown && !a.expired => {}
            other => return Err(format!("history query {} answered {other:?}", q.text())),
        }
    }
    let records = replay_log(&building)
        .map_err(|e| format!("replay {}: {e}", building.display()))?
        .records
        .len() as u64;
    // How much of the log a restart keeps: open a throwaway copy.
    let probe = ctx.scratch("history-probe");
    fresh_copy(&building, &probe)?;
    let kept = ImplicationClient::new(ServiceConfig {
        persist: Some(PersistConfig::at(&probe)),
        ..ServiceConfig::default()
    })
    .cache_len() as u64;
    let _ = std::fs::remove_file(&probe);
    let checksum = file_digest(&building);
    std::fs::rename(&building, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    write_atomic(&meta, format!("{records} {kept} {checksum}\n").as_bytes())?;
    Ok(History {
        path,
        records,
        kept,
        checksum,
    })
}

/// Computes (or reuses) the reference answers of `stream`. Computed once
/// per (benchmark binary, workload, seed), outside any timed region.
///
/// # Errors
/// A query that fails to parse.
pub fn ensure_refs(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    stream: &[Query],
) -> Result<Vec<Expected>, String> {
    let path = ctx.work.join(format!(
        "ref-{}-s{seed}-{:016x}.txt",
        workload.name(),
        ctx.exe_digest
    ));
    if let Some(refs) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| reference::from_text(&t))
    {
        if refs.len() == stream.len() {
            return Ok(refs);
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let refs = reference::expected_all(stream, workload, threads)?;
    write_atomic(&path, reference::to_text(&refs).as_bytes())?;
    Ok(refs)
}

/// The wire form of a stream, prepared before any timing.
pub fn to_wire(stream: &[Query]) -> Vec<WireQuery> {
    stream
        .iter()
        .map(|q| WireQuery {
            universe: q.universe(),
            text: q.text(),
        })
        .collect()
}

/// What one stream's answers add up to against the references.
pub struct Checked {
    /// Queries that failed: `ERR`, no `ANSWER`, a wrong answer, fuel off
    /// the reference where every part runs fresh, or `Yes` without a
    /// finite `Yes`.
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
    /// Answers with no `Unknown`.
    pub definite: u64,
    /// Total wire fuel.
    pub fuel: u64,
    /// Digest of the per-query answers (and fuel, where it is exact).
    pub digest: u64,
}

fn code(a: Answer) -> u8 {
    match a {
        Answer::Yes => 0,
        Answer::No => 1,
        Answer::Unknown => 2,
    }
}

/// Checks every answer of a drive against its reference.
pub fn check(workload: Workload, stream: &[Query], run: &Drive, refs: &[Expected]) -> Checked {
    let mut c = Checked {
        failed: 0,
        examples: Vec::new(),
        definite: 0,
        fuel: 0,
        digest: 0,
    };
    let mut h = Fnv::default();
    for (i, (ans, r)) in run.answers.iter().zip(refs).enumerate() {
        let problem = match ans {
            Err(msg) => Some(msg.clone()),
            Ok(a) => {
                c.fuel += a.fuel_spent;
                if !a.expired && !a.cancelled {
                    c.definite += 1;
                }
                h.write_u64(i as u64);
                h.write(&[
                    code(a.implication),
                    code(a.finite_implication),
                    u8::from(a.expired),
                ]);
                if workload.all_miss() {
                    h.write_u64(a.fuel_spent);
                }
                if a.cancelled {
                    Some("cancelled".to_string())
                } else if (a.implication, a.finite_implication) != (r.implication, r.finite) {
                    Some(format!(
                        "answered {:?}/{:?}, reference {:?}/{:?}",
                        a.implication, a.finite_implication, r.implication, r.finite
                    ))
                } else if a.implication == Answer::Yes && a.finite_implication != Answer::Yes {
                    Some("implication Yes without finite Yes".to_string())
                } else if workload.all_miss() && a.fuel_spent != r.fuel {
                    Some(format!(
                        "fuel {} against reference {}",
                        a.fuel_spent, r.fuel
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            c.failed += 1;
            if c.examples.len() < 5 {
                c.examples
                    .push(format!("query {i} ({}): {p}", stream[i].text()));
            }
        }
    }
    c.digest = h.0;
    c
}

/// The host's CPU time from the aggregate line of `/proc/stat`, in clock
/// ticks summed over every CPU.
#[derive(Clone, Copy, Default, Debug)]
pub struct HostTicks {
    /// Time the hypervisor ran something else while a CPU wanted to run.
    pub steal: u64,
    /// All time: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl HostTicks {
    /// The counters now; zero where `/proc/stat` cannot be read.
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .unwrap_or("")
            .split_whitespace()
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        Self {
            steal: v.get(7).copied().unwrap_or(0),
            total: v.iter().sum(),
        }
    }

    /// The ticks from `earlier` until `self`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// One daemon start plus one drive of the stream.
pub struct Pass {
    /// Spawn to connected.
    pub setup: Duration,
    /// The drive itself.
    pub run: Drive,
    /// Daemon CPU over the drive (all threads).
    pub daemon_cpu_ns: u64,
    /// The `STATS` reply after the drive.
    pub stats: HashMap<String, u64>,
    /// The exit ledger.
    pub ledger: HashMap<String, u64>,
    /// Host CPU time from before the spawn until after the exit.
    pub host: HostTicks,
}

impl Pass {
    /// Share of the host's CPU time the hypervisor stole during the pass.
    pub fn steal_frac(&self) -> f64 {
        if self.host.total == 0 {
            0.0
        } else {
            self.host.steal as f64 / self.host.total as f64
        }
    }

    /// Answered queries per second.
    pub fn qps(&self) -> f64 {
        self.run.answers.len() as f64 / self.run.wall.as_secs_f64()
    }

    /// Sorted SUBMIT-to-ANSWER latencies in ns; a query without an
    /// ANSWER counts as infinitely late.
    pub fn latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self
            .run
            .spans
            .iter()
            .zip(&self.run.answers)
            .map(|(s, a)| match a {
                Ok(_) => s.answered - s.submit,
                Err(_) => u64::MAX,
            })
            .collect();
        l.sort_unstable();
        l
    }

    /// Hit-family jobs in the `STATS` histograms.
    pub fn hits(&self) -> u64 {
        self.stats.get("h_latency_hit_count").copied().unwrap_or(0)
    }
}

/// Restarts the daemon from a fresh copy of the history log and drives
/// `wire` once.
///
/// # Errors
/// Daemon or connection failures.
pub fn one_pass(
    ctx: &Ctx,
    workload: Workload,
    history: &History,
    wire: &[WireQuery],
    trace: bool,
) -> Result<Pass, String> {
    let log = ctx.scratch("run-log");
    let socket = ctx.scratch("sock");
    fresh_copy(&history.path, &log)?;
    let host0 = HostTicks::now();
    let mut d = Daemon::start(&DaemonSpec {
        sockd: &ctx.sockd,
        socket: &socket,
        log: &log,
        mode: workload.mode(),
    })?;
    let cpu0 = cpu_ns(d.pid());
    let run = d.drive(wire, workload.in_flight(), workload.fuel_cap(), trace)?;
    let daemon_cpu_ns = cpu_ns(d.pid()).saturating_sub(cpu0);
    let stats = d.client.stats().map_err(|e| format!("STATS: {e}"))?;
    let setup = d.setup;
    let ledger = d.stop(EXIT_GRACE)?;
    let host = HostTicks::now().since(host0);
    let _ = std::fs::remove_file(&log);
    Ok(Pass {
        setup,
        run,
        daemon_cpu_ns,
        stats,
        ledger,
        host,
    })
}

/// The passes the timed metrics are the medians of, given each pass's
/// [`Pass::steal_frac`]: those during which the hypervisor stole at most
/// [`MAX_STEAL_FRAC`] of the host's CPU time, or, when fewer than a
/// quarter of the passes (and at least [`MIN_PASSES`]) are that clean,
/// that many of the least stolen ones. Indices come back in pass order.
///
/// Other tenants of a shared host take its CPUs away for seconds at a
/// time: on a 2-vCPU virtual machine, `hot_repeats` passes that lost
/// 15–25% of the CPU time to steal ran about 30% slower than passes that
/// lost none, and how many passes of a run that hits moves with the host,
/// not the program. What the program does itself shows in every pass,
/// undisturbed or not.
pub fn undisturbed(steal: &[f64]) -> Vec<usize> {
    let want = (steal.len() / 4).max(MIN_PASSES).min(steal.len());
    let clean: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= MAX_STEAL_FRAC)
        .collect();
    if clean.len() >= want {
        return clean;
    }
    let mut least: Vec<usize> = (0..steal.len()).collect();
    least.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    least.truncate(want);
    least.sort_unstable();
    least
}

/// Everything a run reports.
pub struct Outcome {
    /// The metrics, with their per-pass samples.
    pub metrics: Vec<Metric>,
    /// Queries submitted over the measured passes.
    pub attempted: u64,
    /// Failed queries over the measured passes.
    pub failed: u64,
    /// No query failed and every pass agreed on its exact counts.
    pub correct: bool,
    /// Report lines (per-pass exact counts, failure examples).
    pub notes: Vec<String>,
}

/// Runs timed passes until `seconds` have gone by (at least
/// [`MIN_PASSES`]), after one untimed warm-up pass, and reports each
/// timed metric as its median over the [`undisturbed`] passes.
///
/// # Errors
/// Daemon or connection failures.
pub fn timed(
    ctx: &Ctx,
    workload: Workload,
    history: &History,
    stream: &[Query],
    refs: &[Expected],
    seconds: f64,
) -> Result<Outcome, String> {
    let wire = to_wire(stream);
    one_pass(
        ctx,
        workload,
        history,
        &wire[..WARMUP_QUERIES.min(wire.len())],
        false,
    )?;
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(one_pass(ctx, workload, history, &wire, false)?);
    }
    let n = stream.len() as f64;
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        notes: Vec::new(),
    };
    let mut first: Option<(u64, u64, u64, u64)> = None;
    let (mut qps, mut p50, mut p99, mut definite, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (k, p) in passes.iter().enumerate() {
        let c = check(workload, stream, &p.run, refs);
        let lat = p.latencies();
        qps.push(p.qps());
        p50.push(percentile_sorted(&lat, 0.50) as f64 / 1e6);
        p99.push(percentile_sorted(&lat, 0.99) as f64 / 1e6);
        definite.push(c.definite as f64 / n);
        setup.push(p.setup.as_secs_f64());
        out.attempted += stream.len() as u64;
        out.failed += c.failed;
        out.notes.extend(c.examples.iter().cloned());
        let exact = (c.digest, c.definite, c.fuel, p.hits());
        out.notes.push(format!(
            "pass {k}: digest={:016x} definite={} fuel={} hits={} failed={} steal={:.2}%",
            exact.0,
            exact.1,
            exact.2,
            exact.3,
            c.failed,
            100.0 * p.steal_frac()
        ));
        match first {
            None => first = Some(exact),
            Some(f) if f != exact => {
                out.correct = false;
                out.notes.push(format!(
                    "pass {k} disagrees with pass 0 on its exact counts"
                ));
            }
            Some(_) => {}
        }
    }
    let steal: Vec<f64> = passes.iter().map(Pass::steal_frac).collect();
    let kept = undisturbed(&steal);
    let clean = steal.iter().filter(|&&f| f <= MAX_STEAL_FRAC).count();
    out.notes.push(format!(
        "timed metrics: medians over passes {kept:?} ({} of {}; {clean} had at most {}% of host CPU time stolen)",
        kept.len(),
        passes.len(),
        100.0 * MAX_STEAL_FRAC
    ));
    out.metrics = vec![
        Metric::over("throughput_qps", "1/s", qps, &kept),
        Metric::over("latency_p50_ms", "ms", p50, &kept),
        Metric::over("latency_p99_ms", "ms", p99, &kept),
        Metric::over("definite_frac", "frac", definite, &kept),
        Metric::over("setup_s", "s", setup, &kept),
    ];
    out.correct &= out.failed == 0;
    Ok(out)
}
