//! `typedtd-serve` — stream implication answers for a query file.
//!
//! Reads newline-delimited queries (see `typedtd_service::batch` for the
//! syntax) from a file or stdin, multiplexes them through a shared
//! [`ImplicationClient`], and streams one answer line per query as soon as
//! its verdict is in (which, under the dovetailing scheduler, need not be
//! file order — lines are tagged `#<line>`).
//!
//! Malformed lines are reported to stderr with their line number and the
//! rest of the file is still answered; the exit status is nonzero only
//! when *every* query line failed to parse (so a typo in line 7 of a
//! thousand-line corpus degrades one answer, not the whole run).
//!
//! ```text
//! typedtd-serve QUERIES.tdq [--workers N] [--drain-sweeps N] [--stats]
//!               [--metrics PATH] SERVICE-FLAGS
//! ```
//!
//! `SERVICE-FLAGS` ([`typedtd_service::SERVICE_USAGE`]) are shared with
//! `typedtd-sockd` and parsed by [`typedtd_service::parse_service_args`].
//!
//! `--metrics PATH` keeps a Prometheus-style text exposition at `PATH`
//! while the batch drains (rewritten atomically as answers land, plus a
//! final snapshot with the ledger); see `crates/service/README.md` for
//! the format.
//!
//! `--log PATH` opens (or warm-starts from) the append-only answer log:
//! definite answers from this run persist, and a later run over the
//! same log answers repeated queries from the warm cache without
//! chasing (`--stats` reports them as `warm_hits`).
//!
//! `--mode dovetail:adaptive[:RATIO]` selects the per-query dovetailed
//! decide mode: refutable queries whose chase diverges are answered `no`
//! from the finite-model search instead of `unknown`. It starts at
//! `RATIO` chase rounds per search attempt (default 1) and rebalances
//! fuel each slice toward whichever procedure progressed, favoring the
//! search when the chase only grows rows. An idle one of the `--workers`
//! threads steals slices from the other threads' shards; the final
//! `--stats` line reports `steals`, `jobs_cancelled`, and `parked`
//! alongside the cache counters.
//!
//! # Clean shutdown at end of input
//!
//! Once the input (a file, or stdin up to EOF) is submitted, the
//! scheduler still has to drain — and divergent queries under large
//! budgets can keep a pipe-fed `typedtd-serve -` grinding long after the
//! writer hung up, with orphaned jobs burning fuel nobody will read.
//! `--drain-sweeps N` bounds the drain *deterministically*: after `N`
//! full scheduler sweeps, every still-pending job is explicitly
//! [`cancelled`](typedtd_service::JobHandle::cancel) (its verdict line
//! prints `unknown`), the scheduler settles, and the process exits 0.
//! With or without the flag, stderr ends with the deterministic ledger
//! `typedtd-serve: done submitted=… answered=… unknown=… cancelled=…
//! expired=… warm_hits=… shed=…` (where
//! `submitted == answered + unknown + cancelled`; `--stats` prints its
//! line after it), so drivers piping queries in always see how the batch
//! was accounted.

use std::io::Read;
use typedtd_chase::Answer;
use typedtd_service::{
    done_line, parse_service_args, stats_line, submit_batch, write_atomic, ImplicationClient,
    SERVICE_USAGE,
};

fn answer_str(a: Answer) -> &'static str {
    match a {
        Answer::Yes => "yes",
        Answer::No => "no",
        Answer::Unknown => "unknown",
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: typedtd-serve <QUERIES.tdq | -> [--workers N] [--drain-sweeps N] [--stats] \
         [--metrics PATH] {SERVICE_USAGE}"
    );
    std::process::exit(2);
}

/// The value after a flag, or the usage text when it is missing or malformed.
fn value<T: std::str::FromStr>(rest: &mut dyn Iterator<Item = String>) -> T {
    rest.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut input: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut show_stats = false;
    let mut drain_sweeps: Option<usize> = None;
    let mut metrics_path: Option<std::path::PathBuf> = None;
    let mut cfg = parse_service_args(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--workers" => workers = Some(value(rest)),
            "--drain-sweeps" => drain_sweeps = Some(value(rest)),
            "--metrics" => metrics_path = Some(value(rest)),
            "--stats" => show_stats = true,
            _ if input.is_none() && !arg.starts_with("--") => input = Some(arg.to_string()),
            _ => return false,
        }
        true
    })
    .unwrap_or_else(|| usage());
    cfg.workers = workers.unwrap_or(cfg.workers);
    let Some(path) = input else { usage() };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
        buf
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("typedtd-serve: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };

    let client = ImplicationClient::new(cfg);
    let batch = submit_batch(&client, &text);
    for err in &batch.errors {
        eprintln!("typedtd-serve: line {}: {}", err.line, err.message);
    }
    if batch.queries.is_empty() && !batch.errors.is_empty() {
        eprintln!("typedtd-serve: every query line failed to parse");
        std::process::exit(1);
    }

    // Stream answers while a driver thread runs the scheduler (with
    // `--workers N` threads stepping the shards; leftovers under a global
    // fuel budget are expired to Unknown): the main thread prints each
    // query the moment its verdict is in.
    let mut reported = vec![false; batch.queries.len()];
    let report_ready = |reported: &mut Vec<bool>| {
        for (i, q) in batch.queries.iter().enumerate() {
            if reported[i] {
                continue;
            }
            if let Some(v) = q.conjoined() {
                reported[i] = true;
                println!(
                    "#{:<4} implication={:<7} finite={:<7}{}  {}",
                    q.line,
                    answer_str(v.implication),
                    answer_str(v.finite_implication),
                    if v.from_cache { "  [cached]" } else { "" },
                    q.text,
                );
            }
        }
    };
    std::thread::scope(|scope| {
        let driver = client.clone();
        let batch_ref = &batch;
        let handle = scope.spawn(move || match drain_sweeps {
            None => driver.run_to_completion(),
            Some(limit) => {
                // Bounded drain: up to `limit` full sweeps, then every
                // still-pending job is cancelled explicitly (its verdict
                // reports `unknown`), so end-of-input with divergent
                // jobs pending shuts down deterministically instead of
                // grinding out the rest of their budgets.
                let mut sweeps = 0usize;
                while driver.tick() {
                    sweeps += 1;
                    if sweeps >= limit {
                        for query in &batch_ref.queries {
                            for job in &query.jobs {
                                job.cancel();
                            }
                        }
                        break;
                    }
                }
                // Settle the cancellations (and expire any global-fuel
                // leftovers) so every verdict is in before reporting.
                driver.run_to_completion();
            }
        });
        // Rescan (which polls every unreported job, taking shard locks)
        // only when the in-flight count has moved — an atomic read —
        // so a large query file doesn't contend with the driver threads.
        // Every job is submitted by now, so the count only moves when a
        // job resolves.
        let mut last_inflight = usize::MAX;
        while !handle.is_finished() {
            let inflight = client.pending_jobs();
            if inflight != last_inflight {
                last_inflight = inflight;
                report_ready(&mut reported);
                // Metrics writes piggyback on the same completion edge:
                // no extra polling, and an idle drain writes nothing.
                if let Some(path) = &metrics_path {
                    if let Err(e) = write_atomic(path, &client.metrics_text()) {
                        eprintln!("typedtd-serve: metrics write failed: {e}");
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        report_ready(&mut reported);
    });
    if let Some(path) = &metrics_path {
        // Final snapshot alongside the ledger, so the exposition counts
        // the whole batch even when the loop above missed the last edge.
        if let Err(e) = write_atomic(path, &client.metrics_text()) {
            eprintln!("typedtd-serve: metrics write failed: {e}");
        }
    }

    // The deterministic shutdown ledger: always printed, always last —
    // `submitted == answered + unknown + cancelled` once the batch has
    // drained (cancelled jobs carry no yes/no/unknown verdict).
    eprintln!("{}", done_line("typedtd-serve", &client));

    if show_stats {
        eprintln!(
            "{} parse_errors={}",
            stats_line(&client),
            batch.errors.len(),
        );
    }
}
