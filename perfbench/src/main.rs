//! `typedtd-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!  --sockd PATH [--work DIR] [--root DIR]`
//!
//! Runs one workload against a freshly started `typedtd-sockd` and prints
//! a report, then one JSON result line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `perfbench/run.sh`
//! builds the daemon and this binary from the checkout and runs it.

use perfbench::report::{provenance, result_line, summary_lines};
use perfbench::run::{ensure_history, ensure_refs, timed, Ctx};
use perfbench::{gen, trace, Workload};
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sockd: PathBuf,
    work: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut sockd = None;
    let mut work = PathBuf::from("target/perfbench");
    let mut root = PathBuf::from(".");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--sockd" => sockd = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            "--root" => root = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sockd: sockd.ok_or("--sockd is required")?,
        work,
        root,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("typedtd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("typedtd-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let ctx = Ctx::new(args.root.clone(), args.work.clone(), args.sockd.clone())?;
    let w = args.workload;
    let corpus = gen::history(args.seed);
    let history = ensure_history(&ctx, args.seed, &corpus)?;
    let stream = w.stream(args.seed, &corpus);
    let refs = ensure_refs(&ctx, w, args.seed, &stream)?;
    for (k, v) in provenance(&ctx.root) {
        println!("# {k}: {v}");
    }
    println!(
        "# workload: {} seed={} queries_per_pass={} in_flight={} fuel_cap={}",
        w.name(),
        args.seed,
        stream.len(),
        w.in_flight(),
        w.fuel_cap().map_or("none".into(), |c| c.to_string())
    );
    println!(
        "# history_log: queries={} records_replayed={} records_kept={} checksum={:016x}",
        corpus.len(),
        history.records,
        history.kept,
        history.checksum
    );
    let out = if args.trace {
        trace::traced(&ctx, w, &history, &stream, &refs)?
    } else {
        timed(&ctx, w, &history, &stream, &refs, args.seconds)?
    };
    for line in out.notes.iter().chain(&summary_lines(&out.metrics)) {
        println!("# {line}");
    }
    Ok(result_line(
        out.correct,
        out.attempted,
        out.failed,
        &out.metrics,
    ))
}
