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

use vlpp_check::fault::{DataFault, ExecFault, FaultPlan};
use vlpp_trace::compact::copy_to_chunked;
use vlpp_trace::source::MemorySource;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

const SCALE: &str = "1000000";

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    // Isolate from the ambient environment so every knob under test has
    // a known value.
    for knob in [
        "VLPP_SCALE",
        "VLPP_THREADS",
        "VLPP_FAULT",
        "VLPP_TASK_TIMEOUT_MS",
        "VLPP_RETRY",
        "VLPP_RETRY_BACKOFF_MS",
    ] {
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
            let _ = vlpp_trace::json::JsonValue::parse(&text);
        }
    }
    assert!(
        vlpp_trace::json::JsonValue::parse("{\"unterminated")
            .expect_err("malformed JSON errors")
            .offset()
            > 0
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent injected panic (survives the retry) must skip exactly
/// that experiment: exit code 2, an `errors` entry naming the worker
/// panic, all other experiments present and intact.
#[test]
fn persistent_worker_panic_skips_one_experiment() {
    // Task sequence numbers 0..=10 are the eleven `all` experiments in
    // input order; 2 is fig5.
    let fault = ExecFault::Panic { at: 2, persist: true };
    let output = vlpp()
        .env("VLPP_FAULT", fault.env_value())
        .env("VLPP_RETRY_BACKOFF_MS", "0")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "partial failure exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed"), "stderr reports the skip: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let tree = vlpp_trace::json::JsonValue::parse(stdout.trim()).expect("valid JSON");
    let errors = tree.get("errors").expect("errors section present");
    let entry = errors.get("fig5").expect("fig5 is the skipped experiment");
    assert_eq!(entry.get("phase").and_then(|v| v.as_str()), Some("worker-panic"));
    // The ten other experiments all made it.
    for id in
        ["table1", "table2", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "headline", "hfnt"]
    {
        assert!(tree.get(id).is_some(), "experiment `{id}` should have survived");
    }
}

/// A transient injected panic is healed by the retry: exit 0 and stdout
/// byte-identical to a fault-free run.
#[test]
fn transient_worker_panic_is_retried_to_success() {
    let clean = clean_all_json("4");
    let faulted = vlpp()
        .env("VLPP_FAULT", ExecFault::Panic { at: 2, persist: false }.env_value())
        .env("VLPP_RETRY_BACKOFF_MS", "0")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert!(
        faulted.status.success(),
        "retry must absorb a transient fault; stderr: {}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    assert_eq!(faulted.stdout, clean, "recovered output must be byte-identical");
}

/// A stall past the watchdog deadline with retries disabled must be
/// cancelled and reported as a timeout — the run finishes without the
/// stalled experiment instead of hanging on it.
#[test]
fn stall_past_watchdog_is_cancelled_and_reported() {
    let output = vlpp()
        .env("VLPP_FAULT", ExecFault::Stall { at: 2, ms: 30_000, persist: true }.env_value())
        .env("VLPP_TASK_TIMEOUT_MS", "2500")
        .env("VLPP_RETRY", "0")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "timeout is a partial failure");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let tree = vlpp_trace::json::JsonValue::parse(stdout.trim()).expect("valid JSON");
    let entry = tree.get("errors").and_then(|e| e.get("fig5")).expect("fig5 timed out");
    assert_eq!(entry.get("phase").and_then(|v| v.as_str()), Some("timeout"));
    assert_eq!(entry.get("limit_ms").and_then(|v| v.as_u64()), Some(2500));
}

/// A stall that clears on retry (transient, stalls only the first
/// attempt) recovers to a byte-identical run.
#[test]
fn transient_stall_recovers_after_watchdog_retry() {
    let clean = clean_all_json("4");
    let faulted = vlpp()
        .env("VLPP_FAULT", ExecFault::Stall { at: 5, ms: 30_000, persist: false }.env_value())
        .env("VLPP_TASK_TIMEOUT_MS", "2500")
        .env("VLPP_RETRY_BACKOFF_MS", "0")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert!(faulted.status.success(), "stderr: {}", String::from_utf8_lossy(&faulted.stderr));
    assert_eq!(faulted.stdout, clean);
}

/// Injected faults show up in the metrics the run reports.
#[test]
fn fault_and_retry_metrics_are_reported() {
    let output = vlpp()
        .env("VLPP_FAULT", ExecFault::Panic { at: 2, persist: false }.env_value())
        .env("VLPP_RETRY_BACKOFF_MS", "0")
        .env("VLPP_THREADS", "4")
        .args(["all", "--json", "--metrics", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let metrics_line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("METRICS "))
        .expect("METRICS line present");
    let snapshot = vlpp_trace::json::JsonValue::parse(metrics_line).expect("snapshot parses");
    let counter = |name: &str| snapshot.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    assert!(counter("pool.faults_injected") >= 1, "fault was injected");
    assert!(counter("pool.tasks.retried") >= 1, "task was retried");
}

/// An unparseable VLPP_FAULT must warn and run normally — the fault
/// harness itself must never be a crash vector.
#[test]
fn invalid_fault_spec_warns_and_is_inert() {
    let output = vlpp()
        .env("VLPP_FAULT", "explode@everywhere")
        .args(["headline", "--scale", SCALE])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "invalid fault plan must not break the run");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("invalid VLPP_FAULT"),
        "must warn about the bad plan"
    );
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
