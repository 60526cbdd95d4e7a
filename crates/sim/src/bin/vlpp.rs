//! `vlpp` — run any of the paper's experiments from the command line.
//!
//! ```text
//! vlpp <experiment> [--scale N] [--json] [--metrics]
//!
//! experiments:
//!   table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 headline hfnt
//!   ablate-hashes ablate-select ablate-returns ablate-candidates
//!   ablate-interference ablate-stack
//!   all        (every table and figure, in order)
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use vlpp_pool::TaskError;
use vlpp_sim::paper;
use vlpp_sim::report::TextTable;
use vlpp_sim::{Checkpoint, SavedOutput, Scale, Workloads};
use vlpp_trace::fault::{self, Fault};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::VlppError;

const USAGE: &str = "\
usage: vlpp <experiment> [--scale N] [--json] [--metrics] [--checkpoint DIR]

experiments:
  table1     Table 1: benchmark summary
  table2     Table 2: best fixed path length per table size
  table3     Table 3: indirect misprediction, 8 benchmarks, 2KB
  fig5       Figure 5: conditional @16KB, SPEC
  fig6       Figure 6: conditional @16KB, non-SPEC
  fig7       Figure 7: indirect @2KB, SPEC
  fig8       Figure 8: indirect @2KB, non-SPEC
  fig9       Figure 9: gcc conditional sweep (1KB-256KB)
  fig10      Figure 10: gcc indirect sweep (0.5KB-32KB)
  headline   the abstract's gcc numbers (4KB cond, 512B ind)
  hfnt       section 4.3 HFNT re-prediction cost
  analyze    section 5.3 analysis: miss rates by behavior class (gcc)
  lengths    profiled path-length histogram (gcc)
  ras        return address stack accuracy (all benchmarks)
  frontend   fetch cycles/branch for four front-end configurations
  related-cond | related-ind   every related-work predictor on gcc
  ablate-hashes | ablate-select | ablate-returns | ablate-candidates |
  ablate-interference | ablate-stack
  all        every table and figure, in order

subcommands (own flags; see SERVING.md and TRACES.md):
  serve      prediction daemon over the framed JSON protocol
  cluster    N serve processes behind a shard routing table (failover)
  loadgen    drive a running `vlpp serve` or cluster and verify its
             predictions (byte-exact oracle, optional kill drill)
  microbench records/sec of the conditional and indirect kernels and
             of the serve JSON codec (BENCH lines; see DESIGN.md
             \"hot-loop kernel\")
  ingest     convert a ChampSim/CSV/JSONL trace to the chunked compact
             format for bounded-memory replay (see TRACES.md)
  run        replay an ingested or foreign trace (or a benchmark)
             through the SoA kernels and report prediction totals
  profile    run the paper's two-step profiling heuristic over a trace
  tournament race every registered predictor (the vlpp-predict zoo plus
             the paper's path predictors) over every benchmark and the
             hard-branch family; league table + `TOURNEY {json}` line
             (own flags; `vlpp tournament --help`, EXPERIMENTS.md)

options:
  --scale N  divide the paper's dynamic branch counts by N (default 16;
             also via VLPP_SCALE)
  --only LIST
             (with `all`) run only these comma-separated experiment ids;
             unknown ids are an error listing the valid ones
  --json     emit JSON instead of text tables; `all --json` emits one
             object keyed by experiment id
  --metrics  after the experiment, print a metrics table on stderr and a
             single `METRICS {json}` line on stdout (see OBSERVABILITY.md;
             excluded from the determinism guarantee)
  --checkpoint DIR
             (with `all`) persist each finished experiment to DIR and, on
             rerun, resume from what is already there; output is
             byte-identical to an uninterrupted run (see ROBUSTNESS.md)

`all` isolates experiments: one failing experiment is reported on stderr
(and under an \"errors\" key with --json), the rest still run, and the
exit code is 2 instead of aborting the whole run.

environment:
  VLPP_SCALE    default for --scale (invalid values warn and fall back)
  VLPP_THREADS  worker-pool size (default: available parallelism; output
                is byte-identical at any thread count)
  VLPP_TASK_TIMEOUT_MS  per-experiment watchdog deadline for `all`
                        (default: none); a failed experiment is not
                        re-run, resume it with --checkpoint
  VLPP_FAULT    test-only fault injection, comma-separated:
                panic@N, stall@N:MS (inside `all` experiment N, from 0)
                and netdrop@N, netstall@N:MS, nettrunc@N:BYTES (at frame
                operation N, from 1), e.g. panic@2 or netdrop@1,netstall@3:50;
                one malformed item disables the plan (see ROBUSTNESS.md)
";

fn main() -> ExitCode {
    // Read the fault plan once, up front, so a malformed `VLPP_FAULT`
    // warns under every verb, not only where a hook first fires.
    fault::armed();

    // The daemon-shaped subcommands branch before experiment
    // parsing: they have their own flag grammars (see SERVING.md).
    if let Some(first) = std::env::args().nth(1) {
        let rest: Vec<String> = std::env::args().skip(2).collect();
        let outcome = match first.as_str() {
            "serve" => Some(vlpp_sim::serve::serve_main(&rest)),
            "cluster" => Some(vlpp_sim::serve::cluster::cluster_main(&rest)),
            "loadgen" => Some(vlpp_sim::serve::loadgen::loadgen_main(&rest)),
            "microbench" => Some(vlpp_sim::microbench::microbench_main(&rest)),
            "ingest" => Some(vlpp_sim::ingest::ingest_main(&rest)),
            "run" => Some(vlpp_sim::ingest::run_main(&rest)),
            "profile" => Some(vlpp_sim::ingest::profile_main(&rest)),
            "tournament" => Some(vlpp_sim::tournament::tournament_main(&rest)),
            _ => None,
        };
        if let Some(outcome) = outcome {
            return match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("error ({}): {error}", error.phase());
                    ExitCode::FAILURE
                }
            };
        }
    }

    let mut args = std::env::args().skip(1);
    let mut experiment: Option<String> = None;
    let mut scale = Scale::from_env();
    let mut json = false;
    let mut metrics = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut only: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let Some(list) = args.next() else {
                    eprintln!("--only needs a comma-separated experiment list");
                    return ExitCode::FAILURE;
                };
                only = Some(list);
            }
            "--checkpoint" => {
                let Some(dir) = args.next() else {
                    eprintln!("--checkpoint needs a directory");
                    return ExitCode::FAILURE;
                };
                checkpoint_dir = Some(dir);
            }
            "--scale" => {
                let value = match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(v) if v >= 1 => v,
                    _ => {
                        eprintln!("--scale needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                };
                scale = Scale::new(value);
            }
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(experiment) = experiment else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let workloads = Arc::new(Workloads::new(scale));
    eprintln!("# scale: 1/{} of paper dynamic counts", scale.divisor());

    let all = experiment == "all";
    let all_ids = [
        "table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "headline",
        "hfnt",
    ];
    let ids: Vec<&str> = if all { all_ids.to_vec() } else { vec![experiment.as_str()] };

    // `--only` narrows `all` to a subset; an unknown id must be a typed
    // error listing the valid ones, never a silently empty run.
    let ids: Vec<&str> = match &only {
        Some(list) if all => {
            let requested: Vec<&str> =
                list.split(',').map(str::trim).filter(|t| !t.is_empty()).collect();
            let unknown: Vec<&str> =
                requested.iter().copied().filter(|id| !all_ids.contains(id)).collect();
            if requested.is_empty() || !unknown.is_empty() {
                let message = if requested.is_empty() {
                    format!(
                        "--only needs at least one experiment id; valid ids: {}",
                        all_ids.join(", ")
                    )
                } else {
                    format!(
                        "unknown experiment id{} `{}` in --only; valid ids: {}",
                        if unknown.len() == 1 { "" } else { "s" },
                        unknown.join("`, `"),
                        all_ids.join(", ")
                    )
                };
                let error = VlppError::Cli { message };
                eprintln!("error ({}): {error}", error.phase());
                return ExitCode::FAILURE;
            }
            // Keep canonical order regardless of how --only was spelled.
            ids.into_iter().filter(|id| requested.contains(id)).collect()
        }
        Some(_) => {
            eprintln!("warning: --only only applies to `all`; ignoring");
            ids
        }
        None => ids,
    };

    let checkpoint = match &checkpoint_dir {
        Some(dir) if all => match Checkpoint::open(dir, scale.divisor()) {
            Ok(checkpoint) => Some(Arc::new(checkpoint)),
            Err(error) => {
                eprintln!("error: {error}");
                return ExitCode::FAILURE;
            }
        },
        Some(_) => {
            eprintln!("warning: --checkpoint only applies to `all`; ignoring");
            None
        }
        None => None,
    };

    if !all {
        // A single experiment keeps the strict contract: any failure is
        // fatal, unknown names print usage.
        let outputs = {
            let _span = vlpp_metrics::span("sim.experiment_ns");
            vlpp_pool::Pool::global().map(ids.clone(), |id| run_one(id, &workloads))
        };
        for (id, output) in ids.iter().zip(outputs) {
            match output {
                Ok(Output { json: tree, text }) => {
                    if json {
                        println!("{}", tree.pretty());
                    } else {
                        println!("== {id} ==");
                        println!("{text}");
                    }
                }
                Err(message) => {
                    eprintln!("{message}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print_metrics(metrics);
        return ExitCode::SUCCESS;
    }

    // `all`: experiments are independent, so one failure must not take
    // down the others. Completed results are loaded from the checkpoint
    // (if any); the rest run isolated on the shared pool — a panicking
    // or overdue experiment becomes a typed error in its slot. Results
    // fill slots by input index, so output stays deterministic at any
    // thread count.
    let mut slots: Vec<Option<Result<Output, VlppError>>> = ids.iter().map(|_| None).collect();
    if let Some(checkpoint) = &checkpoint {
        for (i, id) in ids.iter().enumerate() {
            match checkpoint.load(id) {
                Ok(Some(saved)) => {
                    eprintln!("# checkpoint: `{id}` already done, skipping");
                    slots[i] = Some(Ok(Output { json: saved.json, text: saved.text }));
                }
                Ok(None) => {}
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let pending: Vec<(usize, String)> = slots
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .map(|(i, _)| (i, ids[i].to_string()))
        .collect();
    let results = {
        let _span = vlpp_metrics::span("sim.experiment_ns");
        let workloads = Arc::clone(&workloads);
        let checkpoint = checkpoint.clone();
        let timeout_ms = task_timeout_from_env();
        vlpp_pool::Pool::global().try_map(pending.clone(), timeout_ms, move |(i, id)| {
            inject_experiment_faults(i);
            let output = run_one(&id, &workloads);
            // Persist as soon as the experiment finishes, not at the end
            // of the run — that is what makes a mid-run kill resumable.
            if let (Ok(output), Some(checkpoint)) = (&output, &checkpoint) {
                let saved = SavedOutput { json: output.json.clone(), text: output.text.clone() };
                if let Err(error) = checkpoint.store(&id, &saved) {
                    eprintln!("warning: could not checkpoint `{id}`: {error}");
                }
            }
            output
        })
    };
    for ((i, id), result) in pending.into_iter().zip(results) {
        slots[i] = Some(match result {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(message)) => Err(VlppError::Cli { message }),
            Err(TaskError::Panicked { payload, worker }) => {
                Err(VlppError::WorkerPanic { what: id, payload, worker })
            }
            Err(TaskError::TimedOut { elapsed_ms, limit_ms }) => {
                Err(VlppError::Timeout { what: id, elapsed_ms, limit_ms })
            }
        });
    }

    let mut object = Vec::new();
    let mut errors: Vec<(String, JsonValue)> = Vec::new();
    for (id, slot) in ids.iter().zip(slots) {
        match slot.expect("every experiment resolved") {
            Ok(Output { json: tree, text }) => {
                if json {
                    object.push((id.to_string(), tree));
                } else {
                    println!("== {id} ==");
                    println!("{text}");
                }
            }
            Err(error) => {
                vlpp_metrics::counter("sim.experiments_skipped").incr();
                eprintln!("error: experiment `{id}` failed ({}): {error}; skipping", error.phase());
                errors.push((id.to_string(), error.to_json()));
            }
        }
    }
    if json {
        // One JSON object keyed by experiment id — parseable as a whole,
        // unlike the old headers-interleaved-with-objects stream. The
        // "errors" key appears only when something failed, so a clean
        // run's output is unchanged.
        if !errors.is_empty() {
            object.push(("errors".to_string(), JsonValue::Object(errors.clone())));
        }
        println!("{}", JsonValue::Object(object).pretty());
    }
    print_metrics(metrics);
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        // Partial failure: results above are valid, but not all of them
        // arrived. Distinct from 1 (bad invocation / fatal error).
        ExitCode::from(2)
    }
}

/// `VLPP_TASK_TIMEOUT_MS`, the per-experiment watchdog deadline of
/// `all`. An invalid value warns and leaves the watchdog off.
fn task_timeout_from_env() -> Option<u64> {
    let raw = std::env::var("VLPP_TASK_TIMEOUT_MS").ok()?;
    match raw.trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Some(ms),
        _ => {
            eprintln!(
                "warning: ignoring invalid VLPP_TASK_TIMEOUT_MS=`{raw}` \
                 (expected an integer >= 1); watchdog disabled"
            );
            None
        }
    }
}

/// Fires the armed `panic@N` / `stall@N:MS` faults aimed at experiment
/// `n` (its position in this run's experiment list), in plan order.
fn inject_experiment_faults(n: usize) {
    for &fault in fault::armed() {
        match fault {
            Fault::Stall { at, ms } if at == n as u64 => {
                vlpp_metrics::counter("sim.faults_injected").incr();
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Fault::Panic { at } if at == n as u64 => {
                vlpp_metrics::counter("sim.faults_injected").incr();
                panic!("injected fault: panic in experiment {n}");
            }
            _ => {}
        }
    }
}

fn print_metrics(enabled: bool) {
    if !enabled {
        return;
    }
    // Metrics are observational, not part of the experiment output:
    // the table goes to stderr, and the machine-readable snapshot is
    // one self-delimiting stdout line consumers strip before diffing.
    let registry = vlpp_metrics::Registry::global();
    eprint!("{}", registry.render_table());
    println!("METRICS {}", registry.snapshot());
}

/// One experiment's result, rendered both ways; the caller picks.
struct Output {
    json: vlpp_trace::json::JsonValue,
    text: String,
}

fn run_one(id: &str, workloads: &Workloads) -> Result<Output, String> {
    fn emit<T: vlpp_trace::json::ToJson>(data: &T, table: TextTable) -> Output {
        Output { json: data.to_json(), text: table.render() }
    }

    Ok(match id {
        "table1" => {
            let rows = paper::table1(workloads);
            emit(&rows, paper::Table1Row::render(&rows))
        }
        "table2" => {
            let data = paper::table2(workloads);
            emit(&data, data.render())
        }
        "table3" => {
            let rows = paper::table3(workloads);
            emit(&rows, paper::render_table3(&rows))
        }
        "fig5" => {
            let rows = paper::figure5(workloads);
            let mut output = emit(&rows, paper::CondRow::render(&rows));
            output.text.push_str(&format!(
                "mean VLP reduction vs gshare: {:.1}%\n",
                100.0 * paper::CondRow::mean_reduction_vs_gshare(&rows)
            ));
            output
        }
        "fig6" => {
            let rows = paper::figure6(workloads);
            let mut output = emit(&rows, paper::CondRow::render(&rows));
            output.text.push_str(&format!(
                "mean VLP reduction vs gshare: {:.1}%\n",
                100.0 * paper::CondRow::mean_reduction_vs_gshare(&rows)
            ));
            output
        }
        "fig7" => {
            let rows = paper::figure7(workloads);
            emit(&rows, paper::IndRow::render(&rows))
        }
        "fig8" => {
            let rows = paper::figure8(workloads);
            emit(&rows, paper::IndRow::render(&rows))
        }
        "fig9" => {
            let points = paper::figure9(workloads);
            let mut output = emit(&points, paper::GccCondPoint::render(&points));
            let mut chart = vlpp_sim::report::AsciiChart::new(
                points
                    .iter()
                    .map(|p| vlpp_predict::Budget::from_bytes(p.bytes).to_string())
                    .collect(),
            );
            chart.series('g', "gshare", points.iter().map(|p| p.gshare).collect());
            chart.series('f', "fixed length path", points.iter().map(|p| p.fixed).collect());
            chart.series('t', "fixed (tuned)", points.iter().map(|p| p.fixed_tuned).collect());
            chart.series('v', "variable length path", points.iter().map(|p| p.variable).collect());
            output.text.push('\n');
            output.text.push_str(&chart.render(14));
            output
        }
        "fig10" => {
            let points = paper::figure10(workloads);
            let mut output = emit(&points, paper::GccIndPoint::render(&points));
            let mut chart = vlpp_sim::report::AsciiChart::new(
                points
                    .iter()
                    .map(|p| vlpp_predict::Budget::from_bytes(p.bytes).to_string())
                    .collect(),
            );
            chart.series('p', "path (CHP)", points.iter().map(|p| p.path).collect());
            chart.series('n', "pattern (CHP)", points.iter().map(|p| p.pattern).collect());
            chart.series('f', "fixed length path", points.iter().map(|p| p.fixed).collect());
            chart.series('v', "variable length path", points.iter().map(|p| p.variable).collect());
            output.text.push('\n');
            output.text.push_str(&chart.render(14));
            output
        }
        "headline" => {
            let data = paper::headline(workloads);
            emit(&data, data.render())
        }
        "hfnt" => {
            let rows = paper::hfnt_experiment(workloads);
            emit(&rows, paper::HfntRow::render(&rows))
        }
        "analyze" => {
            let rows = paper::analyze_gcc(workloads);
            emit(&rows, paper::AnalysisRow::render(&rows))
        }
        "lengths" => {
            let data = paper::length_histogram(workloads, "gcc");
            emit(&data, data.render())
        }
        "ras" => {
            let rows = paper::ras_experiment(workloads);
            emit(&rows, paper::RasRow::render(&rows))
        }
        "frontend" => {
            let rows = paper::frontend_experiment(workloads);
            emit(&rows, paper::FrontendRow::render(&rows))
        }
        "related-cond" => {
            let rows = paper::related_conditional(workloads);
            emit(&rows, paper::RelatedRow::render(&rows))
        }
        "related-ind" => {
            let rows = paper::related_indirect(workloads);
            emit(&rows, paper::RelatedRow::render(&rows))
        }
        "ablate-hashes" => {
            let rows = paper::ablate_subset_hashes(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        "ablate-select" => {
            let rows = paper::ablate_dynamic_select(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        "ablate-returns" => {
            let rows = paper::ablate_returns(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        "ablate-candidates" => {
            let rows = paper::ablate_candidates(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        "ablate-interference" => {
            let rows = paper::ablate_interference(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        "ablate-stack" => {
            let rows = paper::ablate_history_stack(workloads);
            emit(&rows, paper::AblationRow::render(&rows))
        }
        other => return Err(format!("unknown experiment `{other}`")),
    })
}
