//! Fault-injection integration tests: drive the seeded fault matrix —
//! corrupt trace, truncated trace, malformed JSON, worker panic, stall
//! past the watchdog — through the real stack and assert every single
//! one surfaces as a typed error or a skipped-experiment report, never
//! as a process abort. Also proves `vlpp all --checkpoint` resumes a
//! killed run byte-identically.
//!
//! See `ROBUSTNESS.md` for the fault grammar and semantics under test.

use std::path::{Path, PathBuf};
use std::process::Command;

use vlpp_check::fault::{DataFault, FaultPlan};
use vlpp_trace::compact::copy_to_chunked;
use vlpp_trace::fault::Fault;
use vlpp_trace::json::JsonValue;
use vlpp_trace::source::MemorySource;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

const SCALE: &str = "1000000";

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    // Isolate from the ambient environment so every knob under test has
    // a known value.
    for knob in ["VLPP_SCALE", "VLPP_THREADS", "VLPP_FAULT", "VLPP_TASK_TIMEOUT_MS"] {
        command.env_remove(knob);
    }
    command
}

/// Stdout of a fault-free `vlpp all --json` run, computed once per
/// thread count and shared across tests (several of them diff against
/// the same baseline).
fn clean_all_json(threads: &str) -> &'static [u8] {
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<std::collections::HashMap<String, &'static [u8]>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut cache = cache.lock().unwrap();
    if let Some(bytes) = cache.get(threads) {
        return bytes;
    }
    let output = vlpp()
        .env("VLPP_THREADS", threads)
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "clean baseline run failed");
    let bytes: &'static [u8] = Box::leak(output.stdout.into_boxed_slice());
    cache.insert(threads.to_string(), bytes);
    bytes
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vlpp-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_trace() -> Trace {
    Trace::from(
        (0..200u64)
            .map(|i| {
                BranchRecord::new(
                    Addr::new(0x1000 + i * 4),
                    Addr::new(0x2000 + i * 8),
                    BranchKind::Conditional,
                    i % 3 == 0,
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// `vlpp run --trace <file>` on a damaged file: a non-zero exit whose
/// stderr names the `trace-read` phase and the file. Returns stderr.
fn assert_run_rejects(path: &Path, what: &str) -> String {
    let output = vlpp().args(["run", "--trace"]).arg(path).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{what} must not replay; stderr:\n{stderr}");
    assert!(stderr.contains("error (trace-read)"), "{what}: typed phase expected: {stderr}");
    assert!(stderr.contains("damaged.vlpc"), "{what}: error must carry the path: {stderr}");
    stderr.into_owned()
}

/// The data half of the fault matrix, against real files on the path
/// users hit: header corruption and truncation of an on-disk VLPC trace
/// must both fail `vlpp run --trace` with a typed `trace-read` error
/// naming the file — and malformed JSON must come back as a parse
/// error — with zero panics across the whole seeded plan.
#[test]
fn seeded_data_faults_yield_typed_errors_with_context() {
    let dir = temp_dir("data");
    // 200 records in 8-record chunks: a 16-byte header, 25 chunks
    // (each an 8-byte chunk header plus payload), a 16-byte trailer.
    let mut bytes = Vec::new();
    copy_to_chunked(&mut MemorySource::new(sample_trace()), &mut bytes, 8).expect("encode");
    let mut plan = FaultPlan::new(0xA5ED);
    let damaged = dir.join("damaged.vlpc");

    // Corrupt trace: any flip in the 6 magic/version bytes must error.
    for fault in plan.header_faults(6, 8) {
        std::fs::write(&damaged, fault.apply(&bytes)).expect("write damaged");
        assert_run_rejects(&damaged, &format!("header fault {fault:?}"));
    }

    // Truncated trace: inside the header, at its end, inside the first
    // chunk header, mid-payload, exactly at a chunk boundary, and
    // inside the trailer. The error must say how far the data reached.
    let first_chunk_end = 16 + 8 + u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    for keep in [0, 10, 16, 17, first_chunk_end - 3, first_chunk_end, bytes.len() - 5] {
        std::fs::write(&damaged, DataFault::Truncate { keep }.apply(&bytes)).unwrap();
        let stderr = assert_run_rejects(&damaged, &format!("a cut at byte {keep}"));
        assert!(stderr.contains("at byte"), "cut at {keep}: offset expected: {stderr}");
    }

    // Malformed JSON: typed parse error with an offset, never a panic.
    let report = r#"{"experiment": "fig5", "rows": [1, 2, 3]}"#;
    for fault in plan.data_faults(report.len(), 12) {
        if let Ok(text) = String::from_utf8(fault.apply(report.as_bytes())) {
            let _ = JsonValue::parse(&text);
        }
    }
    assert!(JsonValue::parse("{\"unterminated").expect_err("malformed JSON errors").offset() > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `errors` entry of a partial `vlpp all --json` run for
/// experiment `id`, after checking the run exited 2.
fn skipped_entry(output: &std::process::Output, id: &str) -> JsonValue {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "partial failure exits 2; stderr: {stderr}");
    assert!(stderr.contains("failed"), "stderr reports the skip: {stderr}");
    let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8");
    let tree = JsonValue::parse(stdout.trim()).expect("valid JSON");
    let errors = tree.get("errors").expect("errors section present");
    errors.get(id).unwrap_or_else(|| panic!("`{id}` is the skipped experiment")).clone()
}

/// An injected panic skips exactly that experiment: exit code 2, an
/// `errors` entry naming the worker panic, all other experiments
/// present and intact.
#[test]
fn persistent_worker_panic_skips_one_experiment() {
    // Experiment numbers are positions in `vlpp all`'s list, from 0;
    // 2 is fig5.
    let output = vlpp()
        .env("VLPP_FAULT", Fault::Panic { at: 2 }.to_string())
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    let entry = skipped_entry(&output, "fig5");
    assert_eq!(entry.get("phase").and_then(|v| v.as_str()), Some("worker-panic"));
    let tree = JsonValue::parse(String::from_utf8(output.stdout).unwrap().trim()).unwrap();
    // The ten other experiments all made it.
    for id in
        ["table1", "table2", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "headline", "hfnt"]
    {
        assert!(tree.get(id).is_some(), "experiment `{id}` should have survived");
    }
}

/// A failed experiment is not re-run; `--checkpoint` resume is how it is
/// recovered. A faulted checkpointed run exits 2 with the typed error of
/// `phase`, and a fault-free rerun on the same directory recomputes the
/// skipped experiment and prints exactly what an uninterrupted run
/// prints.
fn assert_fault_then_resume(threads: &str, fault: Fault, timeout_ms: Option<&str>, phase: &str) {
    let dir = temp_dir(&format!("resume-{threads}-{phase}"));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let mut faulted = vlpp();
    faulted.env("VLPP_THREADS", threads).env("VLPP_FAULT", fault.to_string());
    if let Some(ms) = timeout_ms {
        faulted.env("VLPP_TASK_TIMEOUT_MS", ms);
    }
    let output = faulted
        .args(["all", "--json", "--scale", SCALE, "--checkpoint", dir_str])
        .output()
        .expect("binary runs");
    let entry = skipped_entry(&output, "fig5");
    assert_eq!(entry.get("phase").and_then(|v| v.as_str()), Some(phase), "{fault}");

    let resumed = vlpp()
        .env("VLPP_THREADS", threads)
        .args(["all", "--json", "--scale", SCALE, "--checkpoint", dir_str])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{fault} at {threads} threads: {stderr}");
    assert!(stderr.contains("already done"), "the rerun must resume: {stderr}");
    assert_eq!(
        resumed.stdout,
        clean_all_json(threads),
        "{fault} at {threads} threads: resumed stdout must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicked experiment is recovered by resume, at 1 and 4 threads.
#[test]
fn injected_panic_then_resume_is_byte_identical() {
    for threads in ["1", "4"] {
        assert_fault_then_resume(threads, Fault::Panic { at: 2 }, None, "worker-panic");
    }
}

/// A stall cut off by the watchdog is recovered by resume too.
#[test]
fn injected_stall_then_resume_is_byte_identical() {
    assert_fault_then_resume("4", Fault::Stall { at: 2, ms: 30_000 }, Some("2500"), "timeout");
}

/// A stall past the watchdog deadline must be cancelled and reported as
/// a timeout — the run finishes without the stalled experiment instead
/// of hanging on it.
#[test]
fn stall_past_watchdog_is_cancelled_and_reported() {
    let output = vlpp()
        .env("VLPP_FAULT", Fault::Stall { at: 2, ms: 30_000 }.to_string())
        .env("VLPP_TASK_TIMEOUT_MS", "2500")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    let entry = skipped_entry(&output, "fig5");
    assert_eq!(entry.get("phase").and_then(|v| v.as_str()), Some("timeout"));
    assert_eq!(entry.get("limit_ms").and_then(|v| v.as_u64()), Some(2500));
}

/// Injected faults show up in the metrics the run reports, counted by
/// the layer that fires them.
#[test]
fn injected_fault_metrics_are_reported() {
    let output = vlpp()
        .env("VLPP_FAULT", "panic@2,stall@3:1")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--metrics", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "the panic skips fig5");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let metrics_line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("METRICS "))
        .expect("METRICS line present");
    let snapshot = JsonValue::parse(metrics_line).expect("snapshot parses");
    let counter = |name: &str| snapshot.get(name).and_then(|v| v.as_u64());
    assert_eq!(counter("sim.faults_injected"), Some(2), "both items fired, once each");
    assert_eq!(counter("sim.experiments_skipped"), Some(1));
}

/// An unparseable VLPP_FAULT must warn exactly once and run normally —
/// the fault harness itself must never be a crash vector. One malformed
/// item disables the whole plan, so the valid `panic@0` next to
/// `netdrop@0` (frame numbers count from 1) does not fire.
#[test]
fn invalid_fault_spec_warns_and_is_inert() {
    for (plan, args) in [
        ("explode@everywhere", &["headline", "--scale", SCALE][..]),
        ("panic@0,netdrop@0", &["all", "--only", "table1", "--scale", SCALE][..]),
    ] {
        let output = vlpp().env("VLPP_FAULT", plan).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "`{plan}` must not break the run: {stderr}");
        let warnings = stderr.lines().filter(|line| line.contains("invalid VLPP_FAULT")).count();
        assert_eq!(warnings, 1, "`{plan}` must warn exactly once: {stderr}");
    }
}

/// Kill `vlpp all --checkpoint` mid-run, resume it, and require stdout
/// byte-identical to an uninterrupted run — at 1 thread and at 8.
#[test]
fn checkpoint_kill_and_resume_is_byte_identical() {
    for threads in ["1", "8"] {
        let dir = temp_dir(&format!("ckpt-{threads}"));
        let dir_str = dir.to_str().expect("utf-8 temp path");

        let uninterrupted = clean_all_json(threads);

        // Start a checkpointed run and kill it partway through.
        let mut child = vlpp()
            .env("VLPP_THREADS", threads)
            .args(["all", "--json", "--scale", SCALE, "--checkpoint", dir_str])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("binary spawns");
        std::thread::sleep(std::time::Duration::from_millis(1200));
        let _ = child.kill();
        let _ = child.wait();

        // Resume. Whatever was checkpointed is loaded, the rest is
        // recomputed, and the output must not betray the interruption.
        let resumed = vlpp()
            .env("VLPP_THREADS", threads)
            .args(["all", "--json", "--scale", SCALE, "--checkpoint", dir_str])
            .output()
            .expect("binary runs");
        assert!(
            resumed.status.success(),
            "threads={threads}; stderr: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            resumed.stdout, uninterrupted,
            "threads={threads}: resumed stdout must be byte-identical"
        );

        // No torn temp files may survive the kill-and-resume cycle.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "torn checkpoint files: {leftovers:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Text-mode runs resume from the same checkpoints as JSON runs: the
/// envelope stores both renderings.
#[test]
fn checkpoint_resume_serves_text_mode_too() {
    let dir = temp_dir("ckpt-text");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let first = vlpp()
        .env("VLPP_THREADS", "4")
        .args(["all", "--scale", SCALE, "--checkpoint", dir_str])
        .output()
        .expect("binary runs");
    assert!(first.status.success());
    // Second run loads every experiment from the checkpoint.
    let second = vlpp()
        .env("VLPP_THREADS", "4")
        .args(["all", "--scale", SCALE, "--checkpoint", dir_str])
        .output()
        .expect("binary runs");
    assert!(second.status.success());
    assert_eq!(second.stdout, first.stdout, "checkpointed text output must round-trip");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("already done"), "second run must actually resume: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
