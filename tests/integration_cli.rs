//! End-to-end tests of the `vlpp` CLI binary: argument handling, text
//! and JSON output, and error paths.

use std::path::Path;
use std::process::Command;

use vlpp_sim::cli::VERBS;

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    // Isolate from the ambient environment so the knobs under test have
    // known values.
    command.env_remove("VLPP_SCALE").env_remove("VLPP_THREADS");
    command
}

#[test]
fn help_lists_every_experiment() {
    let output = vlpp().arg("--help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    for id in [
        "table1",
        "table2",
        "table3",
        "fig5",
        "fig9",
        "fig10",
        "headline",
        "hfnt",
        "analyze",
        "lengths",
        "ras",
        "frontend",
        "related-cond",
        "ablate-hashes",
        "all",
    ] {
        assert!(text.contains(id), "--help must mention `{id}`");
    }
}

#[test]
fn headline_text_output_contains_paper_reference() {
    let output = vlpp().args(["headline", "--scale", "1000000"]).output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).expect("utf-8");
    assert!(text.contains("== headline =="));
    assert!(text.contains("4.3%"), "the paper column must be present:\n{text}");
    assert!(text.contains("gshare"));
}

#[test]
fn headline_json_output_parses_and_is_consistent() {
    let output =
        vlpp().args(["headline", "--scale", "1000000", "--json"]).output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    let json_start = text.find('{').expect("JSON object in output");
    let value = vlpp_trace::json::JsonValue::parse(text[json_start..].trim()).expect("valid JSON");
    let vlp = value.get("vlp_cond_4kb").and_then(|v| v.as_f64()).expect("vlp rate");
    let gshare = value.get("gshare_cond_4kb").and_then(|v| v.as_f64()).expect("gshare rate");
    assert!(vlp > 0.0 && vlp < 1.0);
    assert!(vlp < gshare, "VLP must beat gshare in the emitted JSON");
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let output = vlpp().arg("nonesuch").output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("unknown experiment"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_experiment_prints_usage() {
    let output = vlpp().output().expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn invalid_vlpp_scale_env_warns_and_falls_back() {
    // Regression test: `VLPP_SCALE=0` used to panic inside
    // `Scale::from_env` before a single experiment ran. It must warn on
    // stderr and keep going.
    let output = vlpp()
        .env("VLPP_SCALE", "0")
        .args(["headline", "--scale", "1000000"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "VLPP_SCALE=0 must not abort the run; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("VLPP_SCALE"), "must warn about the bad value:\n{stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("== headline =="));
}

#[test]
fn valid_vlpp_scale_env_is_used_without_warning() {
    let output = vlpp().env("VLPP_SCALE", "1000000").arg("headline").output().expect("binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("# scale: 1/1000000"), "env scale must apply:\n{stderr}");
    assert!(!stderr.contains("warning"), "a valid value must not warn:\n{stderr}");
}

#[test]
fn json_output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let output = vlpp()
            .env("VLPP_THREADS", threads)
            .args(["fig5", "--json", "--scale", "1000000"])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "VLPP_THREADS={threads} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };
    assert_eq!(run("1"), run("8"), "stdout must not depend on the worker-pool size");
}

#[test]
fn all_json_emits_one_object_keyed_by_experiment() {
    let output = vlpp().args(["all", "--json", "--scale", "ci"]).output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).expect("utf-8");
    assert!(!text.contains("== "), "JSON mode must not interleave text headers:\n{text}");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_all_ci.json");
    let golden = std::fs::read_to_string(golden).expect("golden file is checked in");
    assert!(
        text == golden,
        "`vlpp all --json --scale ci` diverged from tests/data/golden_all_ci.json; if the \
         change is intended, regenerate it with `vlpp all --json --scale ci > \
         tests/data/golden_all_ci.json` and list every changed value in CHANGES.md"
    );
    // The whole stdout is one parseable object, keyed by experiment id
    // in run order.
    let value = vlpp_trace::json::JsonValue::parse(text.trim()).expect("valid JSON");
    let keys: Vec<&str> =
        value.as_object().expect("one object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "fig10",
            "headline", "hfnt"
        ]
    );
    let vlp = value
        .get("headline")
        .and_then(|h| h.get("vlp_cond_4kb"))
        .and_then(|v| v.as_f64())
        .expect("headline payload nests under its id");
    assert!(vlp > 0.0 && vlp < 1.0);
}

/// The twelve experiments `vlpp all` does not run, each id's `--json`
/// output at `--scale ci` nested under its id by
/// `scripts/golden_experiments.sh`.
#[test]
fn other_experiments_json_matches_the_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new("bash")
        .arg(root.join("scripts/golden_experiments.sh"))
        .arg(env!("CARGO_BIN_EXE_vlpp"))
        .env_remove("VLPP_SCALE")
        .env_remove("VLPP_THREADS")
        .output()
        .expect("bash runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).expect("utf-8");
    let golden = std::fs::read_to_string(root.join("tests/data/golden_experiments_ci.json"))
        .expect("golden file is checked in");
    assert!(
        text == golden,
        "the CI-scale experiments outside `vlpp all` diverged from \
         tests/data/golden_experiments_ci.json; if the change is intended, regenerate it with \
         `scripts/golden_experiments.sh > tests/data/golden_experiments_ci.json` and list every \
         changed value in CHANGES.md"
    );
    let value = vlpp_trace::json::JsonValue::parse(text.trim()).expect("valid JSON");
    assert_eq!(value.as_object().expect("one object").len(), 12);
}

#[test]
fn bad_scale_is_rejected() {
    for bad in [&["headline", "--scale", "0"][..], &["headline", "--scale", "x"][..]] {
        let output = vlpp().args(bad).output().expect("binary runs");
        assert!(!output.status.success(), "args {bad:?} must fail");
    }
}

#[test]
fn help_is_a_success_for_every_verb() {
    for (i, verb) in VERBS.iter().enumerate() {
        for help in ["--help", "-h"] {
            let output =
                vlpp().args((i > 0).then_some(verb.name)).arg(help).output().expect("binary runs");
            let stdout = String::from_utf8(output.stdout).expect("utf-8");
            assert!(output.status.success(), "{} {help} must exit 0", verb.name);
            assert!(stdout.starts_with("usage: vlpp"), "{} {help}:\n{stdout}", verb.name);
            assert_eq!(stdout, verb.usage, "{} {help} prints its own usage", verb.name);
        }
    }
}

/// Usage and parser cannot drift apart: every `--flag` a usage text
/// shows is one its verb's parser knows.
#[test]
fn every_flag_in_a_usage_text_is_known_to_its_verb() {
    for verb in &VERBS {
        let words = verb.usage.split(|c: char| c.is_whitespace() || c == '/');
        for flag in words.map(|w| w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-'))
        {
            if flag.starts_with("--") && flag != "--help" {
                let result = (verb.parse)(&[flag.to_string(), "1".to_string()]);
                let message = result.err().map(|error| error.to_string()).unwrap_or_default();
                let unknown = format!("unknown flag `{flag}`");
                assert!(!message.contains(&unknown), "{}: {message}", verb.name);
            }
        }
    }
}

/// Runs `vlpp args` expecting a `cli` error that mentions `needle`.
fn assert_cli_error(args: &[&str], needle: &str) {
    let output = vlpp().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{args:?} must fail");
    assert!(stderr.starts_with("error (cli): "), "{args:?}:\n{stderr}");
    assert!(stderr.contains(needle), "{args:?}: expected `{needle}` in:\n{stderr}");
}

fn sample_csv() -> String {
    format!("{}/../../tests/data/sample.csv", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn format_with_a_benchmark_is_a_cli_error() {
    for verb in ["run", "profile"] {
        assert_cli_error(&[verb, "--benchmark", "gcc", "--format", "csv"], "--format needs");
    }
}

#[test]
fn explicit_scale_with_a_trace_file_is_a_cli_error() {
    let trace = sample_csv();
    for verb in ["run", "profile"] {
        assert_cli_error(&[verb, "--trace", &trace, "--scale", "4"], "--scale needs");
    }
    // The environment's default scale is not a flag: a trace run ignores it.
    let output =
        vlpp().env("VLPP_SCALE", "4").args(["run", "--trace", &trace]).output().expect("runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
}

#[test]
fn only_and_checkpoint_without_all_are_cli_errors() {
    assert_cli_error(&["fig5", "--only", "table1"], "--only needs `vlpp all`");
    let dir = std::env::temp_dir().join(format!("vlpp-cli-checkpoint-{}", std::process::id()));
    assert_cli_error(&["headline", "--checkpoint", dir.to_str().unwrap()], "--checkpoint needs");
    assert!(!dir.exists(), "a rejected --checkpoint must not create its directory");
}
