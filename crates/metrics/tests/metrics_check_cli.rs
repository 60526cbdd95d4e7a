//! `vlpp-metrics-check` reads argv through the workspace's one flag
//! cursor: bad flags are typed errors with exit code 1, `--help` is a
//! success.

use std::process::{Command, Output, Stdio};

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vlpp-metrics-check"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs")
}

fn assert_fails_with(args: &[&str], expected: &str) {
    let output = check(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), format!("vlpp-metrics-check: {expected}"), "{args:?}");
}

#[test]
fn unknown_flag_is_a_cli_error() {
    assert_fails_with(&["--bench", "--nope"], "error (cli): unknown flag `--nope`");
    assert_fails_with(&["stray"], "error (cli): unexpected argument `stray`");
}

#[test]
fn missing_value_is_a_cli_error() {
    assert_fails_with(&["--bench", "--baseline"], "error (cli): --baseline needs a value");
    assert_fails_with(&["--require"], "error (cli): --require needs a value");
}

#[test]
fn bad_values_are_config_errors() {
    for bad in ["x", "nan"] {
        assert_fails_with(
            &["--bench", "--max-regress", bad],
            &format!("error (config): invalid --max-regress=`{bad}`: expected a percentage"),
        );
    }
    assert_fails_with(
        &["--require", "serve.requests:-1"],
        "error (config): invalid --require=`serve.requests:-1`: expected NAME[:MIN] with a \
         non-empty NAME and an integer MIN >= 0",
    );
}

#[test]
fn help_prints_usage_and_succeeds() {
    let output = check(&["--help"]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: vlpp-metrics-check"));
}
