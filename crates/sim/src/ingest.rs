//! External-trace verbs: `vlpp ingest`, `vlpp run`, `vlpp profile`.
//!
//! These open the simulator to foreign workloads (ROADMAP item 2): a
//! trace captured from a real machine — ChampSim binary, CSV, or JSONL
//! (`TRACES.md` has the grammars) — is converted once into the chunked
//! compact format by `vlpp ingest`, then replayed any number of times
//! through the structure-of-arrays kernels by `vlpp run`, or profiled
//! with the paper's §3.5 two-step heuristic by `vlpp profile`. Both
//! `run` and `profile` also accept the ingestion formats directly and
//! the synthetic benchmarks (`--benchmark`), so synthetic and real
//! workloads flow through one code path.
//!
//! Replay streams: records are pulled through
//! [`TraceSource`] one chunk at a time, so a multi-GB trace runs in
//! memory bounded by the chunk capacity. Profiling is the exception —
//! the §3.5 heuristic needs the whole trace and says so below.
//!
//! Every malformed input surfaces as a typed, offset-carrying
//! [`VlppError`] (phase `trace-read`), never a panic; the ingestion
//! metrics (`ingest.records`, `ingest.bytes`, `ingest.chunks`,
//! `ingest.parse_ns`) are catalogued in `OBSERVABILITY.md`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vlpp_core::{
    CondKernel, HashAssignment, IndKernel, PathConfig, ProfileBuilder, ProfileConfig,
    ProfileReport, MAX_PATH_LENGTH,
};
use vlpp_synth::{suite, InputSet};
use vlpp_trace::compact::{ChunkedWriter, DEFAULT_CHUNK_RECORDS, MAX_CHUNK_RECORDS};
use vlpp_trace::ingest::{open_source, TraceFormat};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::source::MemorySource;
use vlpp_trace::{Trace, TraceIoError, TraceSource, VlppError};

use crate::cli::{cli_error, print_metrics, Flags, INDEX_BITS};
use crate::experiment::Scale;
use crate::serve::ModelKind;

/// `vlpp ingest --help`.
pub const INGEST_USAGE: &str = "\
usage: vlpp ingest <file> [--format champsim|csv|jsonl|compact]
                   [--out FILE] [--chunk-records N] [--json] [--metrics]

Converts a foreign branch trace into the chunked compact format
(`.vlpc`) so it replays in bounded memory. --format defaults to the
file extension (.champsim/.bin, .csv, .jsonl, .vlpc); --out defaults to
the input path with a .vlpc extension; --chunk-records (default 65536)
bounds how many records a replaying reader ever buffers. The output is
written atomically (tmp + rename). See TRACES.md.
";

/// `vlpp run --help`.
pub const RUN_USAGE: &str = "\
usage: vlpp run (--trace FILE [--format F] | --benchmark NAME [--scale ci|N])
                [--index-bits N] [--fixed H | --profile] [--json] [--metrics]

Replays a trace through the conditional + indirect SoA kernels and
reports prediction totals. --trace streams the file (compact traces
replay one chunk at a time; see TRACES.md for the bounded-memory
guarantee), --benchmark builds a synthetic workload. --fixed H (default
8) uses a fixed hash number; --profile instead runs the paper's two-step
profiling pass on the same trace first (this materializes the trace in
memory). Output is stable byte-for-byte at any VLPP_THREADS and does
not embed the input path, so runs are diffable across machines.
";

/// `vlpp profile --help`.
pub const PROFILE_USAGE: &str = "\
usage: vlpp profile (--trace FILE [--format F] | --benchmark NAME [--scale ci|N])
                    [--kind cond|ind] [--index-bits N] [--json]

Runs the paper's two-step profiling heuristic (§3.5) over a trace and
reports the chosen per-branch hash assignment: profiled branch count,
default hash, and the path-length histogram. Profiling needs the whole
trace in memory (two passes over all records), unlike `vlpp run`.
";

/// A reader wrapper that counts bytes as they are consumed, so the
/// `ingest.bytes` counter can be fed even when the concrete source type
/// is erased behind `Box<dyn TraceSource>`.
#[derive(Debug)]
struct MeteredReader<R> {
    inner: R,
    bytes: Arc<AtomicU64>,
}

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// What `--format` accepts.
const FORMATS: &str = "champsim, csv, jsonl, or compact";

/// Resolves the trace format: explicit `--format` wins, else the file
/// extension.
fn resolve_format(path: &Path, explicit: Option<TraceFormat>) -> Result<TraceFormat, VlppError> {
    explicit.or_else(|| TraceFormat::from_path(path)).ok_or_else(|| {
        cli_error(format!(
            "cannot guess the format of `{}`; pass --format champsim|csv|jsonl|compact",
            path.display()
        ))
    })
}

/// Opens `path` as a streaming source in `format`, with byte metering.
fn open_trace_file(
    path: &Path,
    format: TraceFormat,
    bytes: Arc<AtomicU64>,
) -> Result<Box<dyn TraceSource + Send>, VlppError> {
    let file = File::open(path).map_err(|e| VlppError::io(path, "open", e))?;
    let reader = MeteredReader { inner: BufReader::new(file), bytes };
    open_source(format, reader).map_err(|e| VlppError::trace_file(path, e))
}

/// Parsed `vlpp ingest` options.
pub(crate) struct IngestOptions {
    input: PathBuf,
    format: TraceFormat,
    out: PathBuf,
    chunk_records: u32,
    json: bool,
    metrics: bool,
}

/// Parses `vlpp ingest` arguments.
pub(crate) fn parse_ingest_args(args: &[String]) -> Result<IngestOptions, VlppError> {
    let mut flags = Flags::new(args);
    let (mut input, mut format, mut out) = (None, None, None);
    let (mut chunk_records, mut json, mut metrics) = (DEFAULT_CHUNK_RECORDS, false, false);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--format" => format = Some(flags.parse(TraceFormat::from_name, FORMATS)?),
            "--out" => out = Some(PathBuf::from(flags.value()?)),
            "--chunk-records" => chunk_records = flags.num(1..=MAX_CHUNK_RECORDS)?,
            "--json" => json = true,
            "--metrics" => metrics = true,
            path if input.is_none() && !path.starts_with('-') => input = Some(PathBuf::from(path)),
            _ => return Err(flags.unknown()),
        }
    }
    let input = input.ok_or_else(|| cli_error(format!("missing input file\n{INGEST_USAGE}")))?;
    let format = resolve_format(&input, format)?;
    let out = out.unwrap_or_else(|| input.with_extension("vlpc"));
    Ok(IngestOptions { input, format, out, chunk_records, json, metrics })
}

/// `vlpp ingest` entry point.
///
/// # Errors
///
/// [`VlppError::Cli`] or [`VlppError::Config`] for flag misuse,
/// [`VlppError::Trace`] (with the faulting byte offset) for malformed
/// input, [`VlppError::Io`] for filesystem failures.
pub fn ingest_main(args: &[String]) -> Result<(), VlppError> {
    let IngestOptions { input, format, out, chunk_records, json, metrics } =
        parse_ingest_args(args)?;
    let bytes_in = Arc::new(AtomicU64::new(0));
    let mut source = open_trace_file(&input, format, Arc::clone(&bytes_in))?;

    // Atomic output: stream into a tmp file, rename on success, so a
    // failed ingest never leaves a half-written `.vlpc` behind.
    let tmp = out.with_extension("vlpc.tmp");
    let wrap_out = |e: TraceIoError, tmp: &Path| match e {
        TraceIoError::Io(e) => VlppError::io(tmp, "write", e),
        other => VlppError::trace_file(tmp, other),
    };
    let file = File::create(&tmp).map_err(|e| VlppError::io(&tmp, "create", e))?;
    let mut writer =
        ChunkedWriter::new(BufWriter::new(file), chunk_records).map_err(|e| wrap_out(e, &tmp))?;
    let summary = {
        let _span = vlpp_metrics::span("ingest.parse_ns");
        loop {
            match source.next_record().map_err(|e| VlppError::trace_file(&input, e))? {
                Some(record) => writer.push(&record).map_err(|e| wrap_out(e, &tmp))?,
                None => break writer.finish().map_err(|e| wrap_out(e, &tmp))?,
            }
        }
    };
    std::fs::rename(&tmp, &out).map_err(|e| VlppError::io(&out, "rename", e))?;

    vlpp_metrics::counter("ingest.records").add(summary.records);
    vlpp_metrics::counter("ingest.bytes").add(bytes_in.load(Ordering::Relaxed));
    vlpp_metrics::counter("ingest.chunks").add(summary.chunks);

    if json {
        let mut object = match summary.to_json() {
            JsonValue::Object(fields) => fields,
            other => vec![("summary".to_string(), other)],
        };
        object.insert(0, ("format".to_string(), JsonValue::Str(format.name().to_string())));
        object.push(("out".to_string(), JsonValue::Str(out.display().to_string())));
        println!("{}", JsonValue::Object(object).pretty());
    } else {
        println!(
            "ingested {} {} records into {} chunks ({} bytes) -> {}",
            summary.records,
            format,
            summary.chunks,
            summary.bytes,
            out.display()
        );
    }
    print_metrics(metrics);
    Ok(())
}

/// Where `vlpp run` / `vlpp profile` take their records from.
enum WorkloadArg {
    TraceFile { path: PathBuf, format: TraceFormat },
    Benchmark { name: String, scale: Scale },
}

impl WorkloadArg {
    /// Opens the workload as a streaming source. Benchmarks build their
    /// synthetic trace first (they are generated in memory anyway).
    fn open(&self, bytes: Arc<AtomicU64>) -> Result<Box<dyn TraceSource + Send>, VlppError> {
        match self {
            WorkloadArg::TraceFile { path, format } => open_trace_file(path, *format, bytes),
            WorkloadArg::Benchmark { name, scale } => {
                let spec = suite::benchmark(name)
                    .ok_or_else(|| cli_error(format!("unknown benchmark `{name}`")))?;
                let trace = spec
                    .build_program()
                    .execute_conditionals(InputSet::Test, scale.dynamic_conditionals(&spec));
                Ok(Box::new(MemorySource::new(trace)))
            }
        }
    }

    /// Materializes the whole workload (for profiling).
    fn materialize(&self, bytes: Arc<AtomicU64>) -> Result<Trace, VlppError> {
        self.open(bytes)?.read_to_trace().map_err(|e| self.read_error(e))
    }

    /// A read error, with the trace file's path when there is one.
    fn read_error(&self, error: TraceIoError) -> VlppError {
        match self {
            WorkloadArg::TraceFile { path, .. } => VlppError::trace_file(path, error),
            WorkloadArg::Benchmark { .. } => error.into(),
        }
    }
}

/// Totals from one streaming replay through both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed (all kinds).
    pub records: u64,
    /// Conditional predictions made.
    pub cond_predictions: u64,
    /// Conditional mispredictions.
    pub cond_mispredictions: u64,
    /// Indirect predictions made (returns excluded, as in the paper).
    pub ind_predictions: u64,
    /// Indirect mispredictions.
    pub ind_mispredictions: u64,
}

impl ToJson for ReplayReport {
    /// Integer-only totals: no paths, no floats — the JSON form is what
    /// the golden-replay CI diff and the thread-determinism checks
    /// compare byte-for-byte.
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("records".to_string(), JsonValue::UInt(self.records)),
            (
                "conditional".to_string(),
                JsonValue::Object(vec![
                    ("predictions".to_string(), JsonValue::UInt(self.cond_predictions)),
                    ("mispredictions".to_string(), JsonValue::UInt(self.cond_mispredictions)),
                ]),
            ),
            (
                "indirect".to_string(),
                JsonValue::Object(vec![
                    ("predictions".to_string(), JsonValue::UInt(self.ind_predictions)),
                    ("mispredictions".to_string(), JsonValue::UInt(self.ind_mispredictions)),
                ]),
            ),
        ])
    }
}

impl ReplayReport {
    fn percent(misses: u64, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            100.0 * misses as f64 / total as f64
        }
    }

    /// Renders the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "records: {}\n\
             conditional: {} predictions, {} mispredictions ({:.2}%)\n\
             indirect: {} predictions, {} mispredictions ({:.2}%)\n",
            self.records,
            self.cond_predictions,
            self.cond_mispredictions,
            Self::percent(self.cond_mispredictions, self.cond_predictions),
            self.ind_predictions,
            self.ind_mispredictions,
            Self::percent(self.ind_mispredictions, self.ind_predictions),
        )
    }
}

/// Streams every record of `source` through a conditional and an
/// indirect SoA kernel sharing one hash assignment, never holding more
/// than the source's own buffer (one chunk, for compact traces).
///
/// # Errors
///
/// The first error the source reports.
pub fn replay_streaming<S: TraceSource + ?Sized>(
    source: &mut S,
    index_bits: u32,
    assignment: &HashAssignment,
) -> Result<ReplayReport, TraceIoError> {
    let _span = vlpp_metrics::span("sim.predict_ns");
    let config = PathConfig::new(index_bits);
    let mut cond = CondKernel::new(&config, assignment);
    let mut ind = IndKernel::new(&config, assignment);
    let mut records = 0u64;
    while let Some(record) = source.next_record()? {
        cond.apply(&record);
        ind.apply(&record);
        records += 1;
    }
    Ok(ReplayReport {
        records,
        cond_predictions: cond.predictions(),
        cond_mispredictions: cond.mispredictions(),
        ind_predictions: ind.predictions(),
        ind_mispredictions: ind.mispredictions(),
    })
}

/// Parsed `vlpp run` and `vlpp profile` options: one workload, plus
/// each verb's own flags (`run`: `fixed_hash`, `profile`, `metrics`;
/// `profile`: `indirect`).
pub(crate) struct ReplayOptions {
    workload: WorkloadArg,
    index_bits: u32,
    fixed_hash: u8,
    profile: bool,
    indirect: bool,
    json: bool,
    metrics: bool,
}

/// Parses `vlpp run` arguments.
pub(crate) fn parse_run_args(args: &[String]) -> Result<ReplayOptions, VlppError> {
    parse_replay_args(args, true)
}

/// Parses `vlpp profile` arguments.
pub(crate) fn parse_profile_args(args: &[String]) -> Result<ReplayOptions, VlppError> {
    parse_replay_args(args, false)
}

fn parse_replay_args(args: &[String], run: bool) -> Result<ReplayOptions, VlppError> {
    let mut flags = Flags::with_scale(args);
    let (mut trace, mut format, mut benchmark) = (None, None, None);
    let (mut index_bits, mut fixed_hash, mut profile, mut indirect) = (12, 8, false, false);
    let (mut json, mut metrics) = (false, false);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--trace" => trace = Some(PathBuf::from(flags.value()?)),
            "--format" => format = Some(flags.parse(TraceFormat::from_name, FORMATS)?),
            "--benchmark" => benchmark = Some(flags.value()?.to_string()),
            "--index-bits" => index_bits = flags.num(INDEX_BITS)?,
            "--json" => json = true,
            "--fixed" if run => fixed_hash = flags.num(1..=MAX_PATH_LENGTH as u8)?,
            "--profile" if run => profile = true,
            "--metrics" if run => metrics = true,
            "--kind" if !run => {
                indirect = flags.parse(ModelKind::from_name, "cond or ind")? == ModelKind::Indirect
            }
            _ => return Err(flags.unknown()),
        }
    }
    let usage = if run { RUN_USAGE } else { PROFILE_USAGE };
    let workload = match (trace, benchmark) {
        (Some(_), None) if flags.scale_given() => {
            return Err(cli_error(
                "--scale needs a benchmark (--benchmark NAME), not a trace file",
            ));
        }
        (Some(path), None) => {
            WorkloadArg::TraceFile { format: resolve_format(&path, format)?, path }
        }
        (None, Some(_)) if format.is_some() => {
            return Err(cli_error("--format needs a trace file (--trace FILE), not a benchmark"));
        }
        (None, Some(name)) => WorkloadArg::Benchmark { name, scale: flags.scale() },
        (Some(_), Some(_)) => {
            return Err(cli_error(format!(
                "--trace and --benchmark are mutually exclusive\n{usage}"
            )))
        }
        (None, None) => return Err(cli_error(format!("need --trace or --benchmark\n{usage}"))),
    };
    Ok(ReplayOptions { workload, index_bits, fixed_hash, profile, indirect, json, metrics })
}

/// `vlpp run` entry point.
///
/// # Errors
///
/// `Cli`/`Config` for flag misuse, `Trace` for a malformed trace, `Io`
/// for filesystem failures.
pub fn run_main(args: &[String]) -> Result<(), VlppError> {
    let ReplayOptions { workload, index_bits, fixed_hash, profile, json, metrics, .. } =
        parse_run_args(args)?;
    let bytes_in = Arc::new(AtomicU64::new(0));
    let report = if profile {
        // The §3.5 heuristic reads the whole trace twice, so this path
        // materializes (documented in RUN_USAGE); plain replay streams.
        let trace = workload.materialize(Arc::clone(&bytes_in))?;
        let builder = ProfileBuilder::new(ProfileConfig::new(PathConfig::new(index_bits)));
        let assignment = {
            let _span = vlpp_metrics::span("sim.profile_ns");
            let cond_report = builder.profile_conditional(&trace);
            cond_report.assignment
        };
        let mut source = MemorySource::new(trace);
        replay_streaming(&mut source, index_bits, &assignment)?
    } else {
        let assignment = HashAssignment::fixed(fixed_hash);
        let mut source = workload.open(Arc::clone(&bytes_in))?;
        replay_streaming(&mut source, index_bits, &assignment)
            .map_err(|e| workload.read_error(e))?
    };

    vlpp_metrics::counter("ingest.records").add(report.records);
    vlpp_metrics::counter("ingest.bytes").add(bytes_in.load(Ordering::Relaxed));

    if json {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.render());
    }
    print_metrics(metrics);
    Ok(())
}

/// `vlpp profile` entry point.
///
/// # Errors
///
/// `Cli`/`Config` for flag misuse, `Trace` for a malformed trace, `Io`
/// for filesystem failures.
pub fn profile_main(args: &[String]) -> Result<(), VlppError> {
    let ReplayOptions { workload, index_bits, indirect, json, .. } = parse_profile_args(args)?;
    let bytes_in = Arc::new(AtomicU64::new(0));
    let trace = workload.materialize(Arc::clone(&bytes_in))?;
    vlpp_metrics::counter("ingest.records").add(trace.len() as u64);
    vlpp_metrics::counter("ingest.bytes").add(bytes_in.load(Ordering::Relaxed));
    let builder = ProfileBuilder::new(ProfileConfig::new(PathConfig::new(index_bits)));
    let report = {
        let _span = vlpp_metrics::span("sim.profile_ns");
        if indirect {
            builder.profile_indirect(&trace)
        } else {
            builder.profile_conditional(&trace)
        }
    };
    print_profile(&report, json);
    Ok(())
}

fn print_profile(report: &ProfileReport, json: bool) {
    let histogram = report.assignment.length_histogram();
    if json {
        let value = JsonValue::Object(vec![
            ("profiled_branches".to_string(), JsonValue::UInt(report.profiled_branches as u64)),
            ("default_hash".to_string(), JsonValue::UInt(report.default_hash as u64)),
            ("best_fixed_hash".to_string(), JsonValue::UInt(report.best_fixed_hash() as u64)),
            (
                "length_histogram".to_string(),
                JsonValue::Array(histogram.iter().map(|&n| JsonValue::UInt(n as u64)).collect()),
            ),
        ]);
        println!("{}", value.pretty());
    } else {
        println!("profiled branches: {}", report.profiled_branches);
        println!("default hash: {}", report.default_hash);
        println!("best fixed hash: {}", report.best_fixed_hash());
        // Histogram slot `i` counts branches assigned path length `i + 1`.
        let assigned: Vec<String> = histogram
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(slot, &n)| format!("{}:{n}", slot + 1))
            .collect();
        println!("assigned lengths (length:branches): {}", assigned.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_trace::ingest::write_csv;
    use vlpp_trace::{Addr, BranchRecord};

    fn sample_trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let pc = Addr::new(0x1000 + (i % 13) * 4);
            let target = Addr::new(0x2000 + (i % 7) * 16);
            match i % 5 {
                0 => t.push(BranchRecord::indirect(pc, target)),
                1 => t.push(BranchRecord::call(pc, target)),
                _ => t.push(BranchRecord::conditional(pc, target, i % 3 != 0)),
            }
        }
        t
    }

    #[test]
    fn streaming_replay_matches_in_memory_runner() {
        let trace = sample_trace(5000);
        let assignment = HashAssignment::fixed(8);
        let config = PathConfig::new(10);
        let expected_cond =
            crate::runner::run_conditional(&mut CondKernel::new(&config, &assignment), &trace);
        let expected_ind =
            crate::runner::run_indirect(&mut IndKernel::new(&config, &assignment), &trace);
        let mut source = MemorySource::new(trace.clone());
        let report = replay_streaming(&mut source, 10, &assignment).unwrap();
        assert_eq!(report.records, trace.len() as u64);
        assert_eq!(report.cond_predictions, expected_cond.predictions);
        assert_eq!(report.cond_mispredictions, expected_cond.mispredictions);
        assert_eq!(report.ind_predictions, expected_ind.predictions);
        assert_eq!(report.ind_mispredictions, expected_ind.mispredictions);
    }

    #[test]
    fn streaming_replay_over_chunked_file_matches_memory_replay() {
        use vlpp_trace::compact;
        let trace = sample_trace(10_000);
        let mut buf = Vec::new();
        compact::copy_to_chunked(&mut MemorySource::new(trace.clone()), &mut buf, 256).unwrap();
        let assignment = HashAssignment::fixed(6);
        let mut chunked = compact::ChunkedReader::new(&buf[..]).unwrap();
        let streamed = replay_streaming(&mut chunked, 11, &assignment).unwrap();
        assert!(chunked.peak_buffered_records() <= 256);
        let mut memory = MemorySource::new(trace);
        let in_memory = replay_streaming(&mut memory, 11, &assignment).unwrap();
        assert_eq!(streamed, in_memory, "chunked and one-shot replay must agree exactly");
    }

    #[test]
    fn replay_report_json_shape_is_stable() {
        let report = ReplayReport {
            records: 10,
            cond_predictions: 6,
            cond_mispredictions: 2,
            ind_predictions: 1,
            ind_mispredictions: 1,
        };
        assert_eq!(
            report.to_json().to_string(),
            "{\"records\":10,\
             \"conditional\":{\"predictions\":6,\"mispredictions\":2},\
             \"indirect\":{\"predictions\":1,\"mispredictions\":1}}"
        );
        assert!(report.render().contains("33.33%"));
    }

    #[test]
    fn metered_reader_counts_consumed_bytes() {
        let trace = sample_trace(20);
        let mut csv = Vec::new();
        write_csv(trace.iter(), &mut csv).unwrap();
        let bytes = Arc::new(AtomicU64::new(0));
        let len = csv.len() as u64;
        let reader = MeteredReader { inner: std::io::Cursor::new(csv), bytes: Arc::clone(&bytes) };
        let mut source = open_source(TraceFormat::Csv, reader).unwrap();
        assert_eq!(source.read_to_trace().unwrap(), trace);
        assert_eq!(bytes.load(Ordering::Relaxed), len);
    }

    #[test]
    fn resolve_format_prefers_explicit_and_rejects_unknown() {
        let p = Path::new("trace.csv");
        assert!(matches!(resolve_format(p, None), Ok(TraceFormat::Csv)));
        assert!(matches!(resolve_format(p, Some(TraceFormat::Jsonl)), Ok(TraceFormat::Jsonl)));
        assert!(resolve_format(Path::new("trace.dat"), None).is_err());
        let args = ["x.csv", "--format", "xml"].map(String::from);
        let error = parse_ingest_args(&args).err().expect("xml is no format");
        assert_eq!(error.to_string(), format!("invalid --format=`xml`: expected {FORMATS}"));
    }
}
