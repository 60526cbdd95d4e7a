//! `tourney-zoo`: `tournament::run_tournament` restricted to the 12 zoo
//! entrants over all 22 workloads. The `vlp-*` entrants are left out,
//! so nothing is profiled: zoo predictors and pool fan-out do the work.

use std::time::Instant;

use vlpp_core::{PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_predict::zoo;
use vlpp_sim::serve::Model;
use vlpp_sim::tournament::{run_tournament, TournamentResult, CI_SCALE_DIVISOR};
use vlpp_sim::{Scale, Workloads};
use vlpp_synth::{suite, InputSet};
use vlpp_trace::json::JsonValue;

use crate::probes::{self, Corpus};
use crate::util::{self, ctx, median, quantile, secs, Fallible, Report, Tracer};
use crate::{expected, Args};

/// The league's scale divisor (also the zoo probes' trace scale).
pub const SCALE: u64 = 256;
/// Set-up is a warm-up league at the CI scale (every workload at the
/// 50 000-conditional floor).
const WARMUP_SCALE: u64 = CI_SCALE_DIVISOR;
/// Set-ups per run, each followed by its share of the leagues.
const ROUNDS: usize = 4;

fn entrants() -> Vec<String> {
    zoo::conditional_names().into_iter().chain(zoo::indirect_names()).map(String::from).collect()
}

fn league(scale: u64) -> TournamentResult {
    run_tournament(Scale::new(scale), Some(&entrants()))
}

/// `{cell key: [predictions, mispredictions]}` for every cell.
fn cells_json(result: &TournamentResult) -> JsonValue {
    JsonValue::Object(
        result
            .cells
            .iter()
            .map(|cell| {
                let stats = &cell.stats;
                let pair =
                    vec![JsonValue::UInt(stats.predictions), JsonValue::UInt(stats.mispredictions)];
                (cell.key(), JsonValue::Array(pair))
            })
            .collect(),
    )
}

/// The cells `expected.json` pins, at the league and warm-up scales.
pub fn expected_json() -> (JsonValue, JsonValue) {
    (cells_json(&league(SCALE)), cells_json(&league(WARMUP_SCALE)))
}

/// One check per cell, plus one for the cell count.
fn check(report: &mut Report, result: &TournamentResult, want: &JsonValue) {
    let want_cells = want.as_object().unwrap_or(&[]);
    report.check(util::differs("cell count", result.cells.len(), want_cells.len()));
    let got = cells_json(result);
    for (key, value) in got.as_object().expect("cells are an object") {
        report.check(util::differs(key, Some(value), want.get(key)));
    }
}

/// Per-league timings and, for traced leagues, registry deltas.
struct League {
    wall_s: f64,
    peak_mb: f64,
    records: u64,
    cpu_s: f64,
    build_s: f64,
    simulate_s: f64,
    stolen: f64,
    helped: f64,
}

/// Leagues back to back until `seconds` have passed (at least one),
/// each between two of the tracer's readings.
fn leagues(
    seconds: f64,
    tracer: &mut Tracer,
    want: &JsonValue,
    report: &mut Report,
) -> Fallible<Vec<League>> {
    let started = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || secs(started) < seconds {
        util::reset_peak_rss(None)?;
        let ((result, wall_s), reading) = tracer.around(|| {
            let begun = Instant::now();
            let result = league(SCALE);
            (result, secs(begun))
        })?;
        let peak_mb = util::peak_rss_mb(None)?;
        check(report, &result, want);
        done.push(League {
            wall_s,
            peak_mb,
            records: result.cells.iter().map(|c| c.trace_len).sum(),
            cpu_s: reading.cpu_s,
            build_s: reading.span_s("sim.trace_build_ns"),
            simulate_s: reading.span_s("sim.simulate_ns"),
            stolen: reading.counter("pool.tasks.stolen"),
            helped: reading.counter("pool.tasks.helped"),
        });
    }
    Ok(done)
}

fn med(leagues: &[League], f: impl Fn(&League) -> f64) -> f64 {
    median(&leagues.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Fallible<Report> {
    let want = expected::get("tourney-zoo")?;
    let want_warmup = expected::get("tourney-zoo-warmup")?;
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, None);

    let mut setup_s = Vec::new();
    let mut timed = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let result = league(WARMUP_SCALE);
        setup_s.push(secs(started));
        check(&mut report, &result, &want_warmup);
        timed.extend(leagues(args.seconds / ROUNDS as f64, &mut tracer, &want, &mut report)?);
    }
    let walls_ms: Vec<f64> = timed.iter().map(|l| l.wall_s * 1e3).collect();
    let rates: Vec<f64> = timed.iter().map(|l| l.records as f64 / l.wall_s).collect();
    report.e2e("setup_s", "s", median(&setup_s), setup_s.len());
    report.e2e("sustained_records_per_s", "1/s", quantile(&rates, 0.1), rates.len());
    report.e2e("latency_p90_ms", "ms", quantile(&walls_ms, 0.9), walls_ms.len());
    report.e2e("latency_p99_ms", "ms", quantile(&walls_ms, 0.99), walls_ms.len());
    report.e2e("peak_rss_mb", "MiB", med(&timed, |l| l.peak_mb), timed.len());

    if !args.trace {
        return Ok(report);
    }
    let threads = vlpp_pool::Pool::global().threads() as f64;
    let n = timed.len();
    // The zoo probes' fixed trace doubles as this workload's corpus.
    let spec = suite::benchmark("gcc").expect("gcc is a suite benchmark");
    let trace = spec
        .build_program()
        .execute_conditionals(InputSet::Test, Scale::new(SCALE).dynamic_conditionals(&spec));
    let assignment = ProfileBuilder::new(ProfileConfig::new(PathConfig::new(probes::INDEX_BITS)))
        .profile_conditional(&trace)
        .assignment;
    let workloads = Workloads::new(Scale::new(crate::serve::SCALE));
    let model = Model::train(probes::model_spec("probe"), &workloads).map_err(ctx("train"))?;
    let frames = probes::frames_from(&model, trace.records(), 1024, probes::FRAMES);
    let corpus = Corpus {
        trace: &trace,
        profile_input: &trace,
        assignment: &assignment,
        frames: &frames,
        model: &model,
    };
    let layers = probes::measure(&corpus, SCALE)?;
    layers.report(&mut report);

    report.layer("synth.trace_build_s", "s", med(&timed, |l| l.build_s), n);
    report.layer("pool.busy_frac", "ratio", med(&timed, |l| l.cpu_s / (l.wall_s * threads)), n);
    report.layer("pool.tasks.stolen", "count", med(&timed, |l| l.stolen), n);
    report.layer("pool.tasks.helped", "count", med(&timed, |l| l.helped), n);
    report.layer("sim.serve.server_us_per_request", "us", layers.server_us_per_request(), 1);
    report.layer("sim.serve.transport_wait_ms", "ms", layers.uds_roundtrip_us / 1e3, 1);
    // Thread-seconds the league had, less idle (cpu) and the two layers
    // the registry times: trace build and per-cell simulation.
    report.layer(
        "unexplained_frac",
        "ratio",
        med(&timed, |l| (l.cpu_s - l.build_s - l.simulate_s) / (l.wall_s * threads)),
        n,
    );
    let league_s: f64 = timed.iter().map(|l| l.wall_s).sum();
    report.layer("tracing_overhead_frac", "ratio", tracer.spent_s / league_s, 2 * n);
    Ok(report)
}
