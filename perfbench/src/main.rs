//! `perfbench`: the vlpp benchmark. Four workloads cover the offline
//! path (`vlpp profile`/`vlpp run --trace`), the predictor-zoo league,
//! and `vlpp serve` over a Unix socket and over TCP. A run prints its
//! end-to-end metrics, or with `--trace 1` a per-layer breakdown, and
//! ends with one JSON line. See README.md in this directory.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench serve ...              (the serve workloads' server child)
//! perfbench write-expected FILE    (re-pin expected.json)
//! ```

mod expected;
mod offline;
mod probes;
mod serve;
mod tourney;
mod util;

use std::process::ExitCode;

use util::{Fallible, Metric, Report};

/// Parsed command line of a benchmark run.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload offline-gcc|tourney-zoo|serve-uds-bulk|\
serve-tcp-small --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Fallible<Args> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|&s: &f64| s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Fallible<Report> {
    match args.workload.as_str() {
        "offline-gcc" => offline::run(args),
        "tourney-zoo" => tourney::run(args),
        "serve-uds-bulk" => serve::run(args, serve::UDS_BULK),
        "serve-tcp-small" => serve::run(args, serve::TCP_SMALL),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn json_metrics(metrics: &[Metric]) -> Fallible<String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        fields
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The human-readable lines, then the one JSON result line.
fn print(args: &Args, report: &Report) -> Fallible<()> {
    if report.attempted == 0 {
        return Err("the run checked no outputs".to_string());
    }
    for failure in &report.failures {
        println!("check failed: {failure}");
    }
    println!(
        "{}: failed_frac = {} ({} of {} checked operations failed)",
        args.workload,
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    let shown = if args.trace { &report.layers } else { &report.end_to_end };
    for m in report.end_to_end.iter().chain(if args.trace { &report.layers[..] } else { &[] }) {
        println!("{}: {} = {} {} (samples {})", args.workload, m.name, m.value, m.unit, m.samples);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(shown)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        // The serve workloads re-execute this binary as their server:
        // the same entry point `vlpp serve` dispatches to.
        Some("serve") => vlpp_sim::serve::serve_main(&argv[1..]).map_err(|e| e.to_string()),
        Some("write-expected") => match argv.get(1) {
            Some(path) => expected::write(path),
            None => Err("write-expected needs a file".to_string()),
        },
        _ => parse_args(&argv).and_then(|args| {
            let report = run(&args)?;
            print(&args, &report)?;
            if report.failed > 0 {
                return Err(format!("{} output checks failed", report.failed));
            }
            Ok(())
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
