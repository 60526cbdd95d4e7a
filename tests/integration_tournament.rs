//! End-to-end tests of `vlpp tournament`: matrix completeness, the
//! `TOURNEY {json}` contract, `--only` validation (for the tournament
//! *and* for `vlpp all`), thread determinism, and a sanity check that
//! the load-correlated entrant actually wins the workload built for it.

use std::path::Path;
use std::process::Command;

use vlpp_trace::json::JsonValue;

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    command.env_remove("VLPP_SCALE").env_remove("VLPP_THREADS");
    command
}

/// Runs `vlpp tournament --json --scale ci` (plus `extra`) and parses
/// the TOURNEY line. The full league (no `extra`) must also match
/// `tests/data/golden_tourney_ci.json` byte for byte.
fn tourney_json(extra: &[&str]) -> JsonValue {
    let output = vlpp()
        .args(["tournament", "--json", "--scale", "ci"])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "tournament failed: {:?}", output);
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let line =
        stdout.lines().find_map(|l| l.strip_prefix("TOURNEY ")).expect("stdout has a TOURNEY line");
    if extra.is_empty() {
        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_tourney_ci.json");
        let golden = std::fs::read_to_string(golden).expect("golden file is checked in");
        assert!(
            format!("{line}\n") == golden,
            "the CI-scale league diverged from tests/data/golden_tourney_ci.json; if the change \
             is intended, regenerate it with `vlpp tournament --json --scale ci | sed -n \
             's/^TOURNEY //p' > tests/data/golden_tourney_ci.json` and list every changed cell \
             in CHANGES.md"
        );
    }
    JsonValue::parse(line).expect("TOURNEY payload parses")
}

#[test]
fn matrix_covers_every_predictor_and_workload() {
    let tourney = tourney_json(&[]);
    let workloads = tourney.get("workloads").and_then(|w| w.as_array()).expect("workloads");
    assert!(workloads.len() >= 8, "{} workloads", workloads.len());
    let cond = tourney
        .get("predictors")
        .and_then(|p| p.get("conditional"))
        .and_then(|p| p.as_array())
        .expect("conditional predictors");
    let ind = tourney
        .get("predictors")
        .and_then(|p| p.get("indirect"))
        .and_then(|p| p.as_array())
        .expect("indirect predictors");
    assert!(cond.len() >= 6, "{} conditional predictors", cond.len());
    assert!(ind.len() >= 6, "{} indirect predictors", ind.len());

    let cells = tourney.get("cells").and_then(|c| c.as_object()).expect("cells");
    assert_eq!(cells.len(), workloads.len() * (cond.len() + ind.len()), "matrix has holes");
    for (tag, predictors) in [("cond", cond), ("ind", ind)] {
        for predictor in predictors {
            let name = predictor.as_str().expect("name");
            for workload in workloads {
                let key = format!("{tag}:{name}:{}", workload.as_str().expect("workload"));
                let cell = cells
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("missing cell {key}"));
                let rate = cell.get("miss_rate").and_then(|v| v.as_f64()).expect("miss_rate");
                assert!((0.0..=1.0).contains(&rate), "{key}: rate {rate}");
                let mpki = cell.get("mpki").and_then(|v| v.as_f64()).expect("mpki");
                assert!(mpki >= 0.0 && mpki.is_finite(), "{key}: mpki {mpki}");
                assert!(cell.get("predictions").and_then(|v| v.as_u64()).expect("predictions") > 0);
            }
        }
    }
    // Every raced predictor has a storage charge.
    let storage = tourney.get("storage").and_then(|s| s.as_object()).expect("storage");
    assert_eq!(storage.len(), cond.len() + ind.len());
    for (key, bytes) in storage {
        assert!(bytes.as_u64().expect("bytes") > 0, "{key} charges zero storage");
    }
}

#[test]
fn output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let output = vlpp()
            .args(["tournament", "--json", "--scale", "ci"])
            .env("VLPP_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(output.status.success());
        output.stdout
    };
    assert_eq!(run("1"), run("8"), "TOURNEY output depends on VLPP_THREADS");
}

#[test]
fn only_filter_restricts_the_matrix() {
    let tourney = tourney_json(&["--only", "gshare,btb"]);
    let cells = tourney.get("cells").and_then(|c| c.as_object()).expect("cells");
    assert!(!cells.is_empty());
    for (key, _) in cells {
        assert!(
            key.starts_with("cond:gshare:") || key.starts_with("ind:btb:"),
            "unexpected cell {key}"
        );
    }
}

#[test]
fn unknown_only_name_is_a_typed_cli_error() {
    let output = vlpp()
        .args(["tournament", "--scale", "ci", "--only", "gshare,perceptron"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "unknown predictor must not exit 0");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("error (cli)"), "typed cli error expected, got: {stderr}");
    assert!(stderr.contains("perceptron"), "names the offender: {stderr}");
    assert!(stderr.contains("valid names"), "lists valid names: {stderr}");
    assert!(stderr.contains("tage"), "valid list mentions zoo members: {stderr}");
}

#[test]
fn all_rejects_unknown_experiment_in_only() {
    let output = vlpp()
        .args(["all", "--scale", "1000000", "--only", "fig5,fig99"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "unknown experiment id must not exit 0");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("error (cli)"), "typed cli error expected, got: {stderr}");
    assert!(stderr.contains("fig99"), "names the offender: {stderr}");
    assert!(stderr.contains("valid ids"), "lists valid ids: {stderr}");
}

#[test]
fn all_honors_a_valid_only_subset() {
    let output = vlpp()
        .args(["all", "--scale", "1000000", "--json", "--only", "headline"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let parsed = JsonValue::parse(stdout.trim()).expect("json output");
    let object = parsed.as_object().expect("object");
    assert_eq!(object.len(), 1, "exactly the requested experiment runs");
    assert_eq!(object[0].0, "headline");
}

#[test]
fn emit_baseline_matches_the_run() {
    let output = vlpp()
        .args(["tournament", "--scale", "ci", "--only", "bimodal", "--emit-baseline"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let baseline = JsonValue::parse(&stdout).expect("baseline parses");
    let cells = baseline.get("cells").and_then(|c| c.as_object()).expect("cells");
    assert_eq!(
        baseline.get("min_cells").and_then(|v| v.as_u64()),
        Some(cells.len() as u64),
        "min_cells pins the matrix size"
    );
    for (key, cell) in cells {
        let ceiling = cell.get("max_miss_rate").and_then(|v| v.as_f64()).expect("ceiling");
        assert!((0.0..=1.0).contains(&ceiling), "{key}: ceiling {ceiling}");
    }
}

#[test]
fn ldbp_wins_the_load_dependent_workload() {
    // hard-data is built from load-keyed branches: the load-correlated
    // entrant must beat the history-based baseline there by a wide
    // margin, or the load channel is not actually wired through.
    let tourney = tourney_json(&["--only", "ldbp,gshare"]);
    let rate = |key: &str| {
        tourney
            .get("cells")
            .and_then(|c| c.get(key))
            .and_then(|c| c.get("miss_rate"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing {key}"))
    };
    let ldbp = rate("cond:ldbp:hard-data");
    let gshare = rate("cond:gshare:hard-data");
    assert!(
        ldbp < gshare - 0.15,
        "ldbp ({ldbp:.3}) must clearly beat gshare ({gshare:.3}) on hard-data"
    );
}
