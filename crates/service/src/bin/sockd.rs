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
//!               [--max-inflight N] [--drain-sweeps N] [--stats]
//!               [--metrics PATH] SERVICE-FLAGS
//! ```
//!
//! `SERVICE-FLAGS` ([`typedtd_service::SERVICE_USAGE`]) are shared with
//! `typedtd-serve` and parsed by [`typedtd_service::parse_service_args`].
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
use typedtd_service::proto::SockdConfig;
use typedtd_service::{
    done_line, parse_service_args, stats_line, write_atomic, ImplicationClient, ProtoServer,
    SERVICE_USAGE,
};

fn usage() -> ! {
    eprintln!(
        "usage: typedtd-sockd [--tcp HOST:PORT] [--unix PATH] [--drivers N] [--max-inflight N] \
         [--drain-sweeps N] [--stats] [--metrics PATH] {SERVICE_USAGE}"
    );
    std::process::exit(2);
}

/// The value after a flag, or the usage text when it is missing or malformed.
fn value<T: std::str::FromStr>(rest: &mut dyn Iterator<Item = String>) -> T {
    rest.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
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
    let mut drivers = 2usize;
    let mut tcp: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut show_stats = false;
    let mut max_inflight: Option<usize> = None;
    let mut drain_sweeps = 64usize;
    let mut metrics_path: Option<PathBuf> = None;
    let cfg = parse_service_args(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--tcp" => tcp = Some(value(rest)),
            "--unix" => unix = Some(value(rest)),
            "--drivers" => drivers = value(rest),
            "--max-inflight" => max_inflight = Some(value(rest)),
            "--drain-sweeps" => drain_sweeps = value(rest),
            "--metrics" => metrics_path = Some(value(rest)),
            "--stats" => show_stats = true,
            _ => return false,
        }
        true
    })
    .unwrap_or_else(|| usage());
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
