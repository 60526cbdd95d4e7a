//! `vlpp <experiment>`: run one of the paper's tables and figures, or
//! `all` of them with per-experiment isolation and `--checkpoint`
//! resume.

use std::process::ExitCode;
use std::sync::Arc;

use vlpp_pool::TaskError;
use vlpp_trace::fault::{self, Fault};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::VlppError;

use crate::cli::{cli_error, env_knob, print_metrics, Flags};
use crate::paper::*;
use crate::report::{AsciiChart, TextTable};
use crate::{Checkpoint, SavedOutput, Scale, Workloads};

/// `vlpp --help`: the experiments, the other verbs, the shared flags.
pub const USAGE: &str = "\
usage: vlpp <experiment> [--scale ci|N] [--json] [--metrics]
                        [--only LIST] [--checkpoint DIR]

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
  --scale ci|N
             divide the paper's dynamic branch counts by N (default 16;
             also via VLPP_SCALE); `ci` is 1000000, the 50k-branch floor
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

/// Parsed `vlpp <experiment>` options.
pub(crate) struct ExperimentOptions {
    experiment: String,
    scale: Scale,
    json: bool,
    metrics: bool,
    checkpoint: Option<String>,
    only: Option<String>,
}

/// Parses `vlpp <experiment>` arguments.
pub(crate) fn parse_experiment_args(args: &[String]) -> Result<ExperimentOptions, VlppError> {
    let mut flags = Flags::with_scale(args);
    let (mut experiment, mut json, mut metrics, mut checkpoint, mut only) =
        (None, false, false, None, None);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--only" => only = Some(flags.value()?.to_string()),
            "--checkpoint" => checkpoint = Some(flags.value()?.to_string()),
            "--json" => json = true,
            "--metrics" => metrics = true,
            id if experiment.is_none() && !id.starts_with('-') => experiment = Some(id.to_string()),
            _ => return Err(flags.unknown()),
        }
    }
    let experiment = experiment.ok_or_else(|| cli_error(format!("missing experiment\n{USAGE}")))?;
    for (flag, given) in [("--only", only.is_some()), ("--checkpoint", checkpoint.is_some())] {
        if given && experiment != "all" {
            return Err(cli_error(format!("{flag} needs `vlpp all`, not `{experiment}`")));
        }
    }
    Ok(ExperimentOptions { experiment, scale: flags.scale(), json, metrics, checkpoint, only })
}

/// Entry point for `vlpp <experiment>`. Exits 2 when `all` reports some
/// experiments failed and the rest done.
///
/// # Errors
///
/// [`VlppError::Cli`] or [`VlppError::Config`] for bad arguments or an
/// unknown experiment, [`VlppError::Checkpoint`] for an unusable
/// checkpoint directory.
pub fn experiment_main(args: &[String]) -> Result<ExitCode, VlppError> {
    let ExperimentOptions { experiment, scale, json, metrics, checkpoint, only } =
        parse_experiment_args(args)?;
    let workloads = Arc::new(Workloads::new(scale));
    eprintln!("# scale: 1/{} of paper dynamic counts", scale.divisor());

    let all = experiment == "all";
    let all_ids = [
        "table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "headline",
        "hfnt",
    ];
    let ids: Vec<&str> = if all { all_ids.to_vec() } else { vec![experiment.as_str()] };

    // `--only` (parsed only with `all`) narrows it to a subset; an
    // unknown id must be a typed error listing the valid ones, never a
    // silently empty run.
    let ids: Vec<&str> = match &only {
        Some(list) => {
            let requested: Vec<&str> =
                list.split(',').map(str::trim).filter(|t| !t.is_empty()).collect();
            let unknown: Vec<&str> =
                requested.iter().copied().filter(|id| !all_ids.contains(id)).collect();
            if requested.is_empty() || !unknown.is_empty() {
                let problem = match unknown.as_slice() {
                    [] => "--only needs at least one experiment id".to_string(),
                    [id] => format!("unknown experiment id `{id}` in --only"),
                    ids => format!("unknown experiment ids `{}` in --only", ids.join("`, `")),
                };
                return Err(cli_error(format!("{problem}; valid ids: {}", all_ids.join(", "))));
            }
            // Keep canonical order regardless of how --only was spelled.
            ids.into_iter().filter(|id| requested.contains(id)).collect()
        }
        None => ids,
    };

    let checkpoint =
        checkpoint.map(|dir| Checkpoint::open(&dir, scale.divisor())).transpose()?.map(Arc::new);

    if !all {
        // A single experiment keeps the strict contract: any failure is
        // fatal, unknown names print usage.
        let outputs = {
            let _span = vlpp_metrics::span("sim.experiment_ns");
            vlpp_pool::Pool::global().map(ids.clone(), |id| run_one(id, &workloads))
        };
        for (id, output) in ids.iter().zip(outputs) {
            let SavedOutput { json: tree, text } =
                output.map_err(|message| cli_error(format!("{message}\n{USAGE}")))?;
            if json {
                println!("{}", tree.pretty());
            } else {
                println!("== {id} ==");
                println!("{text}");
            }
        }
        print_metrics(metrics);
        return Ok(ExitCode::SUCCESS);
    }

    // `all`: experiments are independent, so one failure must not take
    // down the others. Completed results are loaded from the checkpoint
    // (if any); the rest run isolated on the shared pool — a panicking
    // or overdue experiment becomes a typed error in its slot. Results
    // fill slots by input index, so output stays deterministic at any
    // thread count.
    let mut slots: Vec<Option<Result<SavedOutput, VlppError>>> = ids.iter().map(|_| None).collect();
    if let Some(checkpoint) = &checkpoint {
        for (i, id) in ids.iter().enumerate() {
            if let Some(saved) = checkpoint.load(id)? {
                eprintln!("# checkpoint: `{id}` already done, skipping");
                slots[i] = Some(Ok(saved));
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
        // The per-experiment watchdog deadline; none when unset or invalid.
        let timeout_ms = env_knob(
            "VLPP_TASK_TIMEOUT_MS",
            |raw| raw.parse().ok().filter(|&ms| ms >= 1),
            "an integer >= 1",
            "watchdog disabled",
        );
        vlpp_pool::Pool::global().try_map(pending.clone(), timeout_ms, move |(i, id)| {
            inject_experiment_faults(i);
            let output = run_one(&id, &workloads);
            // Persist as soon as the experiment finishes, not at the end
            // of the run — that is what makes a mid-run kill resumable.
            if let (Ok(output), Some(checkpoint)) = (&output, &checkpoint) {
                if let Err(error) = checkpoint.store(&id, output) {
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
            Ok(SavedOutput { json: tree, text }) => {
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
    // Partial failure: results above are valid, but not all of them
    // arrived. Distinct from 1 (bad invocation / fatal error).
    Ok(if errors.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) })
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

fn run_one(id: &str, w: &Workloads) -> Result<SavedOutput, String> {
    /// `data` as JSON, and `render(&data)` as text.
    fn emit<T: ToJson>(data: T, render: impl FnOnce(&T) -> TextTable) -> SavedOutput {
        SavedOutput { text: render(&data).render(), json: data.to_json() }
    }
    /// Figures 5-6: the table plus the mean VLP gain over gshare.
    fn cond(rows: Vec<CondRow>) -> SavedOutput {
        let mean = 100.0 * CondRow::mean_reduction_vs_gshare(&rows);
        let mut output = emit(rows, |rows| CondRow::render(rows));
        output.text.push_str(&format!("mean VLP reduction vs gshare: {mean:.1}%\n"));
        output
    }
    /// Figures 9-10: the table plus `chart`, its series over `bytes`.
    fn sweep(
        mut output: SavedOutput,
        bytes: Vec<u64>,
        series: [(char, &str, Vec<f64>); 4],
    ) -> SavedOutput {
        let labels = bytes.into_iter().map(|b| vlpp_predict::Budget::from_bytes(b).to_string());
        let mut chart = AsciiChart::new(labels.collect());
        for (symbol, label, values) in series {
            chart.series(symbol, label, values);
        }
        output.text.push('\n');
        output.text.push_str(&chart.render(14));
        output
    }
    Ok(match id {
        "table1" => emit(table1(w), |rows| Table1Row::render(rows)),
        "table2" => emit(table2(w), Table2Data::render),
        "table3" => emit(table3(w), |rows| render_table3(rows)),
        "fig5" => cond(figure5(w)),
        "fig6" => cond(figure6(w)),
        "fig7" => emit(figure7(w), |rows| IndRow::render(rows)),
        "fig8" => emit(figure8(w), |rows| IndRow::render(rows)),
        "fig9" => {
            let points = figure9(w);
            let column = |f: fn(&GccCondPoint) -> f64| points.iter().map(f).collect();
            let series = [
                ('g', "gshare", column(|p| p.gshare)),
                ('f', "fixed length path", column(|p| p.fixed)),
                ('t', "fixed (tuned)", column(|p| p.fixed_tuned)),
                ('v', "variable length path", column(|p| p.variable)),
            ];
            let bytes = points.iter().map(|p| p.bytes).collect();
            sweep(emit(points, |points| GccCondPoint::render(points)), bytes, series)
        }
        "fig10" => {
            let points = figure10(w);
            let column = |f: fn(&GccIndPoint) -> f64| points.iter().map(f).collect();
            let series = [
                ('p', "path (CHP)", column(|p| p.path)),
                ('n', "pattern (CHP)", column(|p| p.pattern)),
                ('f', "fixed length path", column(|p| p.fixed)),
                ('v', "variable length path", column(|p| p.variable)),
            ];
            let bytes = points.iter().map(|p| p.bytes).collect();
            sweep(emit(points, |points| GccIndPoint::render(points)), bytes, series)
        }
        "headline" => emit(headline(w), Headline::render),
        "hfnt" => emit(hfnt_experiment(w), |rows| HfntRow::render(rows)),
        "analyze" => emit(analyze_gcc(w), |rows| AnalysisRow::render(rows)),
        "lengths" => emit(length_histogram(w, "gcc"), LengthHistogram::render),
        "ras" => emit(ras_experiment(w), |rows| RasRow::render(rows)),
        "frontend" => emit(frontend_experiment(w), |rows| FrontendRow::render(rows)),
        "related-cond" => emit(related_conditional(w), |rows| RelatedRow::render(rows)),
        "related-ind" => emit(related_indirect(w), |rows| RelatedRow::render(rows)),
        "ablate-hashes" => emit(ablate_subset_hashes(w), |rows| AblationRow::render(rows)),
        "ablate-select" => emit(ablate_dynamic_select(w), |rows| AblationRow::render(rows)),
        "ablate-returns" => emit(ablate_returns(w), |rows| AblationRow::render(rows)),
        "ablate-candidates" => emit(ablate_candidates(w), |rows| AblationRow::render(rows)),
        "ablate-interference" => emit(ablate_interference(w), |rows| AblationRow::render(rows)),
        "ablate-stack" => emit(ablate_history_stack(w), |rows| AblationRow::render(rows)),
        other => return Err(format!("unknown experiment `{other}`")),
    })
}
