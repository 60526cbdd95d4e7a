//! Shared plumbing: statistics, `/proc` readings, the scratch directory,
//! registry snapshots, and the report every workload returns.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vlpp_trace::json::JsonValue;

/// A benchmark failure that aborts the run (bad input, I/O, a dead
/// server). Output-check mismatches are counted in [`Report`] instead.
pub type Fallible<T> = Result<T, String>;

/// Wraps any displayable error with what was being done.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |error| format!("{what}: {error}")
}

/// One measured metric: its value, unit, and how many samples it
/// summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name: name.into(), unit, value, samples }
    }
}

/// What a workload hands back to `main`: the output-check tally plus
/// the end-to-end metrics and, in a traced run, the per-layer ones.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few check failures, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation, failed when `mismatch` is `Some`.
    pub fn check(&mut self, mismatch: Option<String>) {
        self.attempted += 1;
        if let Some(message) = mismatch {
            self.fail(message);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Folds another tally (a connection thread's) into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Metric::new(name, unit, value, samples));
    }

    pub fn layer(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.layers.push(Metric::new(name, unit, value, samples));
    }
}

/// A socket of either transport.
pub trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

/// `Some(message)` when `got != want`.
pub fn differs<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Option<String> {
    (got != want).then(|| format!("{what}: got {got:?}, expected {want:?}"))
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NumPy's default
/// method). Empty input reads as 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `started`.
pub fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and returns the median of the seconds each
/// call reported.
pub fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

fn proc_path(pid: Option<u32>, file: &str) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}/{file}")),
        None => PathBuf::from(format!("/proc/self/{file}")),
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Fallible<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).map_err(ctx("read status"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Resets a process's `VmHWM` to its current resident set, so the next
/// [`peak_rss_mb`] reads the peak of what ran in between. For this
/// process, freed heap is first returned to the system, so each unit of
/// work starts from the same floor whatever the allocator kept from the
/// one before.
pub fn reset_peak_rss(pid: Option<u32>) -> Fallible<()> {
    #[cfg(target_env = "gnu")]
    if pid.is_none() {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free glibc heap pages; it
        // takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write(proc_path(pid, "clear_refs"), "5").map_err(ctx("reset peak RSS"))
}

/// User plus system CPU seconds a process has used so far (all its
/// threads), from `/proc/<pid>/stat` in clock ticks of 1/100 s (the
/// fixed `USER_HZ` of Linux).
pub fn cpu_secs(pid: Option<u32>) -> Fallible<f64> {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).map_err(ctx("read stat"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of the rest.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Fallible<f64> {
        fields.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| "malformed stat".into())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// A scratch directory under the current directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Fallible<WorkDir> {
        let path = Path::new(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(ctx("create .bench_work"))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The program's own metrics registry, as `vlpp --metrics` prints it.
pub fn registry() -> JsonValue {
    vlpp_metrics::Registry::global().snapshot()
}

/// What a traced run read around one unit of work: the measured
/// process's CPU time, and for this process the registry counters.
#[derive(Debug)]
pub struct Reading {
    pub cpu_s: f64,
    before: JsonValue,
    after: JsonValue,
}

impl Reading {
    /// How much a registry counter grew.
    pub fn counter(&self, name: &str) -> f64 {
        counter(&self.after, name) - counter(&self.before, name)
    }

    /// How many seconds a registry span histogram gained.
    pub fn span_s(&self, name: &str) -> f64 {
        span(&self.after, name).1 - span(&self.before, name).1
    }
}

/// Takes the traced run's readings: the registry snapshot and CPU time
/// before and after each unit of work, and nothing when tracing is off.
/// The loop itself is the untraced one, so the time these readings take
/// is all the tracing adds to it.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    /// The measured process: `None` for this one, whose registry is
    /// read too; a server's registry comes from its exit line instead.
    pid: Option<u32>,
    /// Seconds spent taking readings.
    pub spent_s: f64,
}

impl Tracer {
    pub fn new(on: bool, pid: Option<u32>) -> Tracer {
        Tracer { on, pid, spent_s: 0.0 }
    }

    /// Runs `work` between two readings.
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> Fallible<(T, Reading)> {
        let (before, cpu_before) = self.read()?;
        let out = work();
        let (after, cpu_after) = self.read()?;
        Ok((out, Reading { cpu_s: cpu_after - cpu_before, before, after }))
    }

    fn read(&mut self) -> Fallible<(JsonValue, f64)> {
        if !self.on {
            return Ok((JsonValue::Null, 0.0));
        }
        let started = Instant::now();
        let snapshot = if self.pid.is_none() { registry() } else { JsonValue::Null };
        let cpu = cpu_secs(self.pid)?;
        self.spent_s += secs(started);
        Ok((snapshot, cpu))
    }
}

/// A counter's value in a registry snapshot (0 if never registered).
pub fn counter(snapshot: &JsonValue, name: &str) -> f64 {
    snapshot.get(name).and_then(JsonValue::as_u64).unwrap_or(0) as f64
}

/// A span histogram's `(count, total seconds)` in a snapshot.
pub fn span(snapshot: &JsonValue, name: &str) -> (f64, f64) {
    let field = |key: &str| {
        snapshot.get(name).and_then(|h| h.get(key)).and_then(JsonValue::as_u64).unwrap_or(0) as f64
    };
    (field("count"), field("sum_ns") / 1e9)
}
