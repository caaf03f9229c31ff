//! `typedtd-sockd` — the streaming socket front end.
//!
//! Serves the length-prefixed `typedtd-proto` protocol (see
//! `crates/service/README.md` for the frame spec) over TCP and/or a
//! Unix-domain socket: any number of concurrent connections share one
//! [`ImplicationClient`], each connection pipelines `SUBMIT` frames and
//! receives `ANSWER` frames out of order as jobs resolve; `CANCEL`,
//! `DETACH`, and `STATS` ride client-chosen correlation ids, and a
//! dropped connection cancels its non-detached jobs.
//!
//! ```text
//! typedtd-sockd [--tcp HOST:PORT] [--unix PATH] [--drivers N]
//!               [--slice N] [--global-fuel N] [--shards N]
//!               [--cache-cap N] [--no-cache] [--verify-hits]
//!               [--mode sequential|dovetail[:RATIO]|dovetail:adaptive[:RATIO]] [--steal on|off] [--classify on|off] [--group on|off]
//!               [--quick] [--stats] [--log PATH] [--max-inflight N]
//!               [--drain-sweeps N] [--metrics PATH]
//! ```
//!
//! With neither `--tcp` nor `--unix`, listens on `127.0.0.1:0` (an
//! ephemeral port) and prints the bound address — scripts can parse the
//! `listening tcp=…` line. The process runs until a client sends a
//! `SHUTDOWN` frame; shutdown drains in-flight jobs for `--drain-sweeps`
//! whole-scheduler sweeps, cancels the stragglers, and prints a final
//! `typedtd-sockd: done …` ledger to stderr; `--stats` additionally
//! prints the full service counters.
//!
//! `--log PATH` opens (or warm-starts from) the append-only answer log:
//! definite answers persist across restarts, and a restarted server
//! serves them as warm cache hits with zero fresh chase fuel.
//! `--max-inflight N` sheds submissions beyond N in-flight jobs with
//! `ERR_BUSY` instead of queueing without bound.
//!
//! `--metrics PATH` keeps a Prometheus-style text exposition at `PATH`
//! while the server runs: counters, gauges (in-flight, cache entries,
//! per-shard queue depth), and the latency/queue-wait/run-time/fuel
//! histograms (see `crates/service/README.md` for the format). The file
//! is rewritten atomically (temp + rename) whenever the exposition has
//! changed since the last write, and one final time after shutdown
//! drain, so a scrape never sees a torn snapshot.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use typedtd_chase::{ChaseConfig, DecideConfig, DecideMode};
use typedtd_service::proto::SockdConfig;
use typedtd_service::{
    done_line, parse_decide_mode, stats_line, write_atomic, ImplicationClient, PersistConfig,
    ProtoServer, ServiceConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: typedtd-sockd [--tcp HOST:PORT] [--unix PATH] [--drivers N] [--slice N] \
         [--global-fuel N] [--shards N] [--cache-cap N] [--no-cache] [--verify-hits] \
         [--mode sequential|dovetail[:RATIO]|dovetail:adaptive[:RATIO]] [--steal on|off] [--classify on|off] [--group on|off] [--quick] [--stats] \
         [--log PATH] [--max-inflight N] [--drain-sweeps N] [--metrics PATH]"
    );
    std::process::exit(2);
}

/// Periodically rewrites the metrics exposition until `stop` is set.
/// Writes only when the exposition changed (an idle server costs no
/// disk churn beyond the poll); write errors are reported once per
/// change, never fatal — metrics must not take the service down.
fn metrics_writer(client: &ImplicationClient, path: &std::path::Path, stop: &AtomicBool) {
    let mut last = String::new();
    while !stop.load(Ordering::Relaxed) {
        let text = client.metrics_text();
        if text != last {
            if let Err(e) = write_atomic(path, &text) {
                eprintln!("typedtd-sockd: metrics write failed: {e}");
            }
            last = text;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut drivers = 2usize;
    let mut tcp: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut mode: Option<DecideMode> = None;
    let mut show_stats = false;
    let mut max_inflight: Option<usize> = None;
    let mut drain_sweeps = 64usize;
    let mut metrics_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--unix" => unix = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--drivers" => {
                drivers = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--mode" => {
                mode = Some(
                    args.next()
                        .and_then(|v| parse_decide_mode(&v))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--steal" => {
                cfg.steal = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                }
            }
            "--classify" => {
                cfg.classify = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                }
            }
            "--group" => {
                cfg.group = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                }
            }
            "--slice" => {
                cfg.slice_fuel = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--global-fuel" => {
                cfg.global_fuel =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--shards" => {
                cfg.shards = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--cache-cap" => {
                cfg.cache_capacity =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--no-cache" => cfg.cache = false,
            "--verify-hits" => cfg.verify_cache_hits = true,
            "--log" => {
                cfg.persist =
                    Some(PersistConfig::at(args.next().map(PathBuf::from).unwrap_or_else(
                        || usage(),
                    )))
            }
            "--max-inflight" => {
                max_inflight =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--drain-sweeps" => {
                drain_sweeps =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--metrics" => {
                metrics_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--quick" => {
                cfg.decide = DecideConfig {
                    chase: ChaseConfig::quick(),
                    ..DecideConfig::default()
                }
            }
            "--stats" => show_stats = true,
            _ => usage(),
        }
    }
    if let Some(mode) = mode {
        cfg.decide.mode = mode;
    }
    let tcp_spec = if tcp.is_none() && unix.is_none() {
        Some("127.0.0.1:0".to_string())
    } else {
        tcp
    };
    let server = ProtoServer::bind(
        SockdConfig {
            service: cfg,
            drivers,
            max_inflight,
            drain_sweeps,
        },
        tcp_spec.as_deref(),
        unix.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("typedtd-sockd: bind failed: {e}");
        std::process::exit(1);
    });
    if let Some(addr) = server.tcp_addr() {
        println!("typedtd-sockd: listening tcp={addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("typedtd-sockd: listening unix={}", path.display());
    }
    let client = server.client().clone();
    let stop_metrics = Arc::new(AtomicBool::new(false));
    let writer = metrics_path.clone().map(|path| {
        let client = client.clone();
        let stop = Arc::clone(&stop_metrics);
        std::thread::spawn(move || metrics_writer(&client, &path, &stop))
    });
    server.join();
    stop_metrics.store(true, Ordering::Relaxed);
    if let Some(t) = writer {
        let _ = t.join();
    }
    if let Some(path) = &metrics_path {
        // Final snapshot after the drain, so the file agrees with the
        // ledger even for jobs that only landed during shutdown.
        if let Err(e) = write_atomic(path, &client.metrics_text()) {
            eprintln!("typedtd-sockd: metrics write failed: {e}");
        }
    }
    eprintln!("{}", done_line("typedtd-sockd", &client));
    if show_stats {
        eprintln!("{}", stats_line(&client));
    }
}
