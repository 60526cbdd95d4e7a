//! `offline-gcc`: what `vlpp profile --trace` and `vlpp run --trace` do
//! to the gcc test trace stored as a chunked VLPC file.
//!
//! Set-up generates the trace with `vlpp-synth` and writes the file.
//! Each timed job then reads the file into memory, runs the §3.5
//! conditional profile on it, and streams the file through both SoA
//! kernels [`REPLAY_PASSES`] times with the profiled assignment. One
//! client runs jobs back to back, as a user runs the two commands: a
//! second client thread made each replay run either alone or beside the
//! other's, and the mix of the two speeds moved the median from run to
//! run. A run is [`ROUNDS`] rounds of set-up then jobs, so the set-up
//! samples the same stretch of time as the jobs.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use vlpp_core::{HashAssignment, PathConfig, ProfileBuilder, ProfileConfig, ProfileReport};
use vlpp_sim::ingest::{replay_streaming, ReplayReport};
use vlpp_sim::serve::Model;
use vlpp_sim::{Scale, Workloads};
use vlpp_synth::{suite, InputSet};
use vlpp_trace::compact::{ChunkedWriter, DEFAULT_CHUNK_RECORDS};
use vlpp_trace::ingest::{open_source, TraceFormat};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Trace, TraceSource};

use crate::probes::{self, Corpus, INDEX_BITS};
use crate::util::{self, ctx, median, quantile, secs, Fallible, Report, Tracer, WorkDir};
use crate::{expected, Args};

/// The paper's dynamic counts divided by 256: ~124 000 gcc records, so
/// a job takes about a tenth of a second and its latency quantiles rest
/// on 100+ jobs per run.
pub const SCALE: u64 = 256;
/// Set-ups per run, each followed by its share of the jobs.
const ROUNDS: usize = 20;
const REPLAY_PASSES: usize = 3;

/// The gcc test trace at [`SCALE`].
pub fn build_trace() -> Trace {
    let spec = suite::benchmark("gcc").expect("gcc is a suite benchmark");
    spec.build_program()
        .execute_conditionals(InputSet::Test, Scale::new(SCALE).dynamic_conditionals(&spec))
}

/// The profile facts the output check pins.
pub fn profile_json(report: &ProfileReport) -> JsonValue {
    let histogram = report.assignment.length_histogram();
    JsonValue::Object(vec![
        ("profiled_branches".to_string(), JsonValue::UInt(report.profiled_branches as u64)),
        ("default_hash".to_string(), JsonValue::UInt(report.default_hash as u64)),
        (
            "length_histogram".to_string(),
            JsonValue::Array(histogram.iter().map(|&n| JsonValue::UInt(n as u64)).collect()),
        ),
    ])
}

fn profile(trace: &Trace) -> ProfileReport {
    ProfileBuilder::new(ProfileConfig::new(PathConfig::new(INDEX_BITS))).profile_conditional(trace)
}

/// One streaming replay of the file, as `vlpp run --trace` opens it.
fn replay(file: &Path, assignment: &HashAssignment) -> Fallible<ReplayReport> {
    let reader = BufReader::new(File::open(file).map_err(ctx("open trace"))?);
    let mut source = open_source(TraceFormat::Compact, reader).map_err(ctx("open trace"))?;
    replay_streaming(&mut source, INDEX_BITS, assignment).map_err(ctx("replay"))
}

fn read(file: &Path) -> Fallible<Trace> {
    let reader = BufReader::new(File::open(file).map_err(ctx("open trace"))?);
    let mut source = open_source(TraceFormat::Compact, reader).map_err(ctx("open trace"))?;
    source.read_to_trace().map_err(ctx("read trace"))
}

/// The values `expected.json` pins for this workload.
pub fn expected_json() -> JsonValue {
    let trace = build_trace();
    let report = profile(&trace);
    let mut source = vlpp_trace::source::MemorySource::new(trace);
    let replay =
        replay_streaming(&mut source, INDEX_BITS, &report.assignment).expect("memory replay");
    JsonValue::Object(vec![
        ("profile".to_string(), profile_json(&report)),
        ("replay".to_string(), replay.to_json()),
    ])
}

/// Builds the trace and writes the file; `(trace build s, total s)`.
fn setup(file: &Path) -> Fallible<(f64, f64)> {
    let started = Instant::now();
    let trace = build_trace();
    let built = secs(started);
    let out = BufWriter::new(File::create(file).map_err(ctx("create trace file"))?);
    let mut writer = ChunkedWriter::new(out, DEFAULT_CHUNK_RECORDS).map_err(ctx("write trace"))?;
    for record in trace.iter() {
        writer.push(record).map_err(ctx("write trace"))?;
    }
    writer.finish().map_err(ctx("write trace"))?;
    Ok((built, secs(started)))
}

/// Timings of one profile-then-replay job, whole and by phase.
struct Job {
    total_s: f64,
    read_s: f64,
    profile_s: f64,
    replay_s: Vec<f64>,
    records: u64,
    assignment: HashAssignment,
}

fn job(file: &Path, want: &JsonValue, report: &mut Report) -> Fallible<Job> {
    let started = Instant::now();
    let trace = read(file)?;
    let read_s = secs(started);
    let profiling = Instant::now();
    let profiled = profile(&trace);
    let profile_s = secs(profiling);
    drop(trace);
    let profile_want = expected::field(want, "profile");
    report.check(util::differs("profile", profile_json(&profiled), profile_want));
    let mut replay_s = Vec::with_capacity(REPLAY_PASSES);
    let mut records = 0;
    for _ in 0..REPLAY_PASSES {
        let pass = Instant::now();
        let totals = replay(file, &profiled.assignment)?;
        replay_s.push(secs(pass));
        records = totals.records;
        report.check(util::differs("replay", totals.to_json(), expected::field(want, "replay")));
    }
    let assignment = profiled.assignment;
    Ok(Job { total_s: secs(started), read_s, profile_s, replay_s, records, assignment })
}

/// Jobs back to back until `seconds` have passed (at least one); also
/// returns the process's peak RSS over them.
fn jobs(
    file: &Path,
    seconds: f64,
    want: &JsonValue,
    report: &mut Report,
) -> Fallible<(Vec<Job>, f64)> {
    util::reset_peak_rss(None)?;
    let started = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || secs(started) < seconds {
        done.push(job(file, want, report)?);
    }
    Ok((done, util::peak_rss_mb(None)?))
}

fn med(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Fallible<Report> {
    let want = expected::get("offline-gcc")?;
    let work = WorkDir::create()?;
    let file = work.path("gcc.vlpc");
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, None);

    let mut build_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut timed = Vec::new();
    let (mut wall_s, mut cpu_s, mut stolen, mut helped) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..ROUNDS {
        let (built, total) = setup(&file)?;
        build_s.push(built);
        setup_s.push(total);
        let started = Instant::now();
        let (done, reading) =
            tracer.around(|| jobs(&file, args.seconds / ROUNDS as f64, &want, &mut report))?;
        wall_s += secs(started);
        let (done, peak_mb) = done?;
        timed.extend(done);
        peaks_mb.push(peak_mb);
        cpu_s += reading.cpu_s;
        stolen += reading.counter("pool.tasks.stolen");
        helped += reading.counter("pool.tasks.helped");
    }

    let latencies: Vec<f64> = timed.iter().map(|j| j.total_s * 1e3).collect();
    let rates: Vec<f64> =
        timed.iter().flat_map(|j| j.replay_s.iter().map(move |s| j.records as f64 / s)).collect();
    report.e2e("setup_s", "s", median(&setup_s), setup_s.len());
    report.e2e("sustained_records_per_s", "1/s", quantile(&rates, 0.1), rates.len());
    report.e2e("latency_p90_ms", "ms", quantile(&latencies, 0.9), latencies.len());
    report.e2e("latency_p99_ms", "ms", quantile(&latencies, 0.99), latencies.len());
    report.e2e("peak_rss_mb", "MiB", median(&peaks_mb), peaks_mb.len());

    if !args.trace {
        return Ok(report);
    }
    let trace = read(&file)?;
    let last = timed.last().expect("at least one job");
    let workloads = Workloads::new(Scale::new(crate::serve::SCALE));
    let model = Model::train(probes::model_spec("probe"), &workloads).map_err(ctx("train"))?;
    let frames = probes::frames_from(&model, trace.records(), 1024, probes::FRAMES);
    let corpus = Corpus {
        trace: &trace,
        profile_input: &trace,
        assignment: &last.assignment,
        frames: &frames,
        model: &model,
    };
    let mut layers = probes::measure(&corpus, crate::tourney::SCALE)?;
    // The jobs time their own profile calls: a median over every job
    // beats the probe's single call.
    layers.profile_s = med(&timed, |j| j.profile_s);
    layers.profile_samples = timed.len();
    layers.report(&mut report);

    let threads = vlpp_pool::Pool::global().threads() as f64;
    let jobs = timed.len();
    report.layer("synth.trace_build_s", "s", median(&build_s), build_s.len());
    report.layer("pool.busy_frac", "ratio", cpu_s / (wall_s * threads), ROUNDS);
    report.layer("pool.tasks.stolen", "count", stolen / jobs as f64, jobs);
    report.layer("pool.tasks.helped", "count", helped / jobs as f64, jobs);
    report.layer("sim.serve.server_us_per_request", "us", layers.server_us_per_request(), 1);
    report.layer("sim.serve.transport_wait_ms", "ms", layers.uds_roundtrip_us / 1e3, 1);
    // A job is the read (decode into memory), the profile and the replay
    // passes, each timed around its call; the rest is the output checks.
    let unexplained =
        |j: &Job| (j.total_s - j.read_s - j.profile_s - j.replay_s.iter().sum::<f64>()) / j.total_s;
    report.layer("unexplained_frac", "ratio", med(&timed, unexplained), jobs);
    report.layer("tracing_overhead_frac", "ratio", tracer.spent_s / wall_s, 2 * ROUNDS);
    Ok(report)
}
