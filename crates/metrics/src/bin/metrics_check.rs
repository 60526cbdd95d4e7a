//! `vlpp-metrics-check` — validates machine-readable observability
//! lines on stdin.
//!
//! Default mode: reads stdin, finds the first line starting with
//! `METRICS ` (a bare JSON object is also accepted), parses the payload
//! with the in-tree JSON parser, and checks the snapshot shape: a
//! non-empty object whose `*_ns` histogram fields carry
//! `count`/`sum_ns`/`buckets`. Repeatable `--require NAME[:MIN]` flags
//! additionally demand that counter `NAME` is present (and, with
//! `:MIN`, at least `MIN`) — the structural gate the chaos drill uses
//! to prove `cluster.respawns`/`serve.io_timeouts` really moved. Exits
//! 0 and prints a one-line summary on success; exits 1 with a
//! diagnostic otherwise. Used by `scripts/verify.sh` as the
//! `--metrics` smoke gate.
//!
//! `--bench` mode: reads `BENCH {json}` lines instead (the shape the
//! `vlpp-check` bench timer and `scripts/verify.sh`/`bench_record.sh`
//! emit: `{"bench":name,"iters":n,"median_ns":...,...}`), validates
//! them, and — with `--baseline FILE` — compares each bench's
//! `median_ns` against the committed baseline, failing if any regresses
//! by more than `--max-regress PCT` (default 30). Baseline entries may
//! also set an absolute floor, `min_records_per_sec`, gating the BENCH
//! line's `records_per_sec`; a floor whose bench or field is missing
//! fails.
//! Benches absent from the baseline pass with a note, so adding a bench
//! does not require a lockstep baseline update. Used by the CI
//! bench-smoke job.
//!
//! `--tourney` mode: reads the `TOURNEY {json}` line `vlpp tournament`
//! emits, validates the league shape (every predictor × workload cell
//! present, rates in [0, 1]), and — with `--baseline FILE` (the
//! committed `TOURNEY_baseline.json`) — enforces the accuracy gate: a
//! cell named by the baseline that is *missing* from the run is a hard
//! fail (a predictor or benchmark silently dropped from the matrix),
//! as is a cell whose miss rate exceeds its `max_miss_rate` ceiling or
//! a matrix smaller than `min_cells`. Used by the CI tournament-smoke
//! job.

use std::io::Read;
use std::process::ExitCode;

use vlpp_trace::json::JsonValue;

fn fail(message: &str) -> ExitCode {
    eprintln!("vlpp-metrics-check: {message}");
    ExitCode::FAILURE
}

const USAGE: &str = "\
usage: vlpp-metrics-check [--require NAME[:MIN]]...
                          [--bench [--baseline FILE] [--max-regress PCT]]
                          [--tourney [--baseline FILE]]

Reads stdin. Default: validate the first `METRICS {json}` line.
--require NAME[:MIN] (repeatable): fail unless the snapshot carries
counter NAME with a value >= MIN (default 0, i.e. present at all).
--bench: validate every `BENCH {json}` line, and with --baseline also
compare each bench's median_ns against the baseline file (a JSON object
mapping bench name -> {\"median_ns\": N}), failing on > PCT regression.
Baseline entries may set an absolute floor instead of (or besides) a
median: {\"min_records_per_sec\": N} gates the BENCH line's
records_per_sec field; a floor fails when its bench or field is missing
or below the floor.
--tourney: validate the `TOURNEY {json}` league line, and with
--baseline (TOURNEY_baseline.json: {\"min_cells\": N, \"cells\":
{key: {\"max_miss_rate\": X}}}) fail if any baseline cell is missing
from the run, any cell's miss_rate exceeds its ceiling, or the matrix
shrank below min_cells.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_mode = false;
    let mut tourney_mode = false;
    let mut baseline_path: Option<String> = None;
    let mut max_regress_pct = 30.0f64;
    let mut required: Vec<(String, u64)> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--bench" => bench_mode = true,
            "--tourney" => tourney_mode = true,
            "--require" => {
                let Some(spec) = iter.next() else {
                    return fail("--require needs NAME[:MIN]");
                };
                let (name, min) = match spec.rsplit_once(':') {
                    None => (spec.as_str(), 0u64),
                    Some((name, min)) => match min.parse::<u64>() {
                        Ok(min) => (name, min),
                        Err(_) => {
                            return fail(&format!(
                                "--require {spec}: MIN must be a non-negative integer"
                            ));
                        }
                    },
                };
                if name.is_empty() {
                    return fail(&format!("--require {spec}: counter name is empty"));
                }
                required.push((name.to_string(), min));
            }
            "--baseline" => {
                let Some(path) = iter.next() else {
                    return fail("--baseline needs a file path");
                };
                baseline_path = Some(path.clone());
            }
            "--max-regress" => {
                let Some(pct) = iter.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return fail("--max-regress needs a percentage");
                };
                max_regress_pct = pct;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    if bench_mode && tourney_mode {
        return fail("--bench and --tourney are mutually exclusive");
    }
    if baseline_path.is_some() && !bench_mode && !tourney_mode {
        return fail("--baseline only applies with --bench or --tourney");
    }
    if (bench_mode || tourney_mode) && !required.is_empty() {
        return fail("--require only applies to METRICS mode (drop --bench/--tourney)");
    }

    let mut input = String::new();
    if let Err(error) = std::io::stdin().read_to_string(&mut input) {
        return fail(&format!("cannot read stdin: {error}"));
    }

    if bench_mode {
        check_bench_lines(&input, baseline_path.as_deref(), max_regress_pct)
    } else if tourney_mode {
        check_tourney_line(&input, baseline_path.as_deref())
    } else {
        check_metrics_line(&input, &required)
    }
}

fn check_metrics_line(input: &str, required: &[(String, u64)]) -> ExitCode {
    let Some(payload) = input
        .lines()
        .find_map(|line| line.strip_prefix("METRICS "))
        .or_else(|| input.lines().find(|line| line.trim_start().starts_with('{')))
    else {
        return fail("no `METRICS {json}` line (and no JSON object) found on stdin");
    };

    let snapshot = match JsonValue::parse(payload.trim()) {
        Ok(value) => value,
        Err(error) => return fail(&format!("METRICS payload is not valid JSON: {error}")),
    };
    let Some(fields) = snapshot.as_object() else {
        return fail("METRICS payload must be a JSON object");
    };
    if fields.is_empty() {
        return fail("METRICS payload is an empty object — nothing was registered");
    }

    let mut histograms = 0usize;
    for (name, value) in fields {
        if !name.ends_with("_ns") {
            continue;
        }
        histograms += 1;
        for key in ["count", "sum_ns", "mean_ns", "buckets"] {
            if value.get(key).is_none() {
                return fail(&format!("histogram `{name}` is missing field `{key}`"));
            }
        }
        let count = value.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
        let bucket_total: u64 = value
            .get("buckets")
            .and_then(JsonValue::as_array)
            .map(|buckets| buckets.iter().filter_map(|b| b.at(1).and_then(JsonValue::as_u64)).sum())
            .unwrap_or(0);
        if bucket_total != count {
            return fail(&format!(
                "histogram `{name}`: bucket counts sum to {bucket_total}, count says {count}"
            ));
        }
    }

    for (name, min) in required {
        let Some(value) = snapshot.get(name).and_then(JsonValue::as_u64) else {
            return fail(&format!("required counter `{name}` is absent from the METRICS snapshot"));
        };
        if value < *min {
            return fail(&format!("required counter `{name}` is {value}, below the floor {min}"));
        }
        println!("ok: counter `{name}` = {value} (>= {min})");
    }

    println!(
        "ok: METRICS line parses ({} metrics, {histograms} histograms, {} required counter(s))",
        fields.len(),
        required.len()
    );
    ExitCode::SUCCESS
}

fn check_bench_lines(input: &str, baseline_path: Option<&str>, max_regress_pct: f64) -> ExitCode {
    let baseline = match baseline_path {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Err(error) => return fail(&format!("cannot read baseline {path}: {error}")),
            Ok(text) => match JsonValue::parse(text.trim()) {
                Err(error) => return fail(&format!("baseline {path} is not valid JSON: {error}")),
                Ok(value) if value.as_object().is_none() => {
                    return fail(&format!("baseline {path} must be a JSON object"));
                }
                Ok(value) => Some(value),
            },
        },
    };

    let mut checked = 0usize;
    let mut compared = 0usize;
    let mut gated = 0usize;
    let mut seen: Vec<String> = Vec::new();
    for payload in input.lines().filter_map(|line| line.strip_prefix("BENCH ")) {
        let report = match JsonValue::parse(payload.trim()) {
            Ok(value) => value,
            Err(error) => return fail(&format!("BENCH payload is not valid JSON: {error}")),
        };
        let Some(name) = report.get("bench").and_then(|v| v.as_str()) else {
            return fail("BENCH payload is missing its `bench` name");
        };
        for key in ["iters", "median_ns", "min_ns", "max_ns"] {
            if report.get(key).and_then(JsonValue::as_u64).is_none() {
                return fail(&format!("bench `{name}`: missing or non-integer field `{key}`"));
            }
        }
        let median = report.get("median_ns").and_then(JsonValue::as_u64).unwrap_or(0);
        let min = report.get("min_ns").and_then(JsonValue::as_u64).unwrap_or(0);
        let max = report.get("max_ns").and_then(JsonValue::as_u64).unwrap_or(0);
        if !(min <= median && median <= max) {
            return fail(&format!(
                "bench `{name}`: min/median/max are not ordered ({min}/{median}/{max})"
            ));
        }
        checked += 1;
        seen.push(name.to_string());

        let Some(baseline) = &baseline else { continue };
        let Some(entry) = baseline.get(name) else {
            println!("note: bench `{name}` has no baseline entry; skipping comparison");
            continue;
        };

        // Relative gate: median against the recorded median, where the
        // baseline entry records one.
        if let Some(reference) = entry.get("median_ns").and_then(JsonValue::as_u64) {
            if reference == 0 {
                return fail(&format!("bench `{name}`: baseline median_ns is 0"));
            }
            compared += 1;
            let regress_pct = 100.0 * (median as f64 - reference as f64) / reference as f64;
            if regress_pct > max_regress_pct {
                return fail(&format!(
                    "bench `{name}` regressed {regress_pct:.1}% (median {median} ns vs baseline \
                     {reference} ns, limit {max_regress_pct:.0}%)"
                ));
            }
            println!(
                "ok: bench `{name}` median {median} ns vs baseline {reference} ns \
                 ({regress_pct:+.1}%)"
            );
        }

        // Absolute floor: throughput, where the baseline entry sets one.
        // A floor with no matching field on the BENCH line is a failure
        // — a bench that stopped reporting must not pass its gate by
        // omission.
        if let Some(floor) = entry.get("min_records_per_sec").and_then(JsonValue::as_u64) {
            gated += 1;
            match report.get("records_per_sec").and_then(JsonValue::as_u64) {
                None => {
                    return fail(&format!(
                        "bench `{name}`: baseline sets min_records_per_sec but the BENCH line \
                         carries no records_per_sec field"
                    ));
                }
                Some(value) if value < floor => {
                    return fail(&format!(
                        "bench `{name}`: records_per_sec {value} is below the baseline floor \
                         {floor}"
                    ));
                }
                Some(value) => {
                    println!("ok: bench `{name}` records_per_sec {value} >= floor {floor}");
                }
            }
        }
    }
    if checked == 0 {
        return fail("no `BENCH {json}` line found on stdin");
    }

    // A baseline entry that sets a floor *requires* its bench to run:
    // a gate that silently stops running is indistinguishable from one
    // that passes.
    if let Some(entries) = baseline.as_ref().and_then(JsonValue::as_object) {
        for (name, entry) in entries {
            if entry.get("min_records_per_sec").is_some() && !seen.iter().any(|s| s == name) {
                return fail(&format!(
                    "baseline sets a floor for bench `{name}` but no such BENCH line was on stdin"
                ));
            }
        }
    }

    println!(
        "ok: {checked} BENCH line(s) parse, {compared} compared against the baseline, \
         {gated} floor(s) enforced"
    );
    ExitCode::SUCCESS
}

fn check_tourney_line(input: &str, baseline_path: Option<&str>) -> ExitCode {
    let Some(payload) = input.lines().find_map(|line| line.strip_prefix("TOURNEY ")) else {
        return fail("no `TOURNEY {json}` line found on stdin");
    };
    let league = match JsonValue::parse(payload.trim()) {
        Ok(value) => value,
        Err(error) => return fail(&format!("TOURNEY payload is not valid JSON: {error}")),
    };
    let Some(cells) = league.get("cells").and_then(JsonValue::as_object) else {
        return fail("TOURNEY payload has no `cells` object");
    };
    if cells.is_empty() {
        return fail("TOURNEY `cells` is empty — the tournament raced nothing");
    }

    // Structural gate: every cell is well-formed, and the matrix is the
    // full cross product of the advertised axes — a predictor that ran
    // on some workloads but silently skipped others must not pass.
    for (key, cell) in cells {
        for field in ["predictions", "mispredictions"] {
            if cell.get(field).and_then(JsonValue::as_u64).is_none() {
                return fail(&format!("cell `{key}`: missing or non-integer field `{field}`"));
            }
        }
        let Some(rate) = cell.get("miss_rate").and_then(JsonValue::as_f64) else {
            return fail(&format!("cell `{key}`: missing field `miss_rate`"));
        };
        if !(0.0..=1.0).contains(&rate) {
            return fail(&format!("cell `{key}`: miss_rate {rate} is outside [0, 1]"));
        }
        match cell.get("mpki").and_then(JsonValue::as_f64) {
            Some(mpki) if mpki >= 0.0 => {}
            _ => return fail(&format!("cell `{key}`: missing or negative field `mpki`")),
        }
    }
    let workloads: Vec<&str> = league
        .get("workloads")
        .and_then(JsonValue::as_array)
        .map(|list| list.iter().filter_map(JsonValue::as_str).collect())
        .unwrap_or_default();
    let mut expected = 0usize;
    for (tag, kind) in [("cond", "conditional"), ("ind", "indirect")] {
        let predictors: Vec<&str> = league
            .get("predictors")
            .and_then(|p| p.get(kind))
            .and_then(JsonValue::as_array)
            .map(|list| list.iter().filter_map(JsonValue::as_str).collect())
            .unwrap_or_default();
        for predictor in predictors {
            for workload in &workloads {
                expected += 1;
                let key = format!("{tag}:{predictor}:{workload}");
                if !cells.iter().any(|(k, _)| *k == key) {
                    return fail(&format!("matrix hole: cell `{key}` was not raced"));
                }
            }
        }
    }
    if expected != cells.len() {
        return fail(&format!(
            "matrix mismatch: axes promise {expected} cells, {} were raced",
            cells.len()
        ));
    }

    let mut gated = 0usize;
    if let Some(path) = baseline_path {
        let baseline = match std::fs::read_to_string(path) {
            Err(error) => return fail(&format!("cannot read baseline {path}: {error}")),
            Ok(text) => match JsonValue::parse(text.trim()) {
                Err(error) => return fail(&format!("baseline {path} is not valid JSON: {error}")),
                Ok(value) => value,
            },
        };
        if let Some(min_cells) = baseline.get("min_cells").and_then(JsonValue::as_u64) {
            if (cells.len() as u64) < min_cells {
                return fail(&format!(
                    "matrix shrank: {} cells raced, baseline requires at least {min_cells}",
                    cells.len()
                ));
            }
        }
        let Some(floors) = baseline.get("cells").and_then(JsonValue::as_object) else {
            return fail(&format!("baseline {path} has no `cells` object"));
        };
        for (key, floor) in floors {
            // A baseline cell with no counterpart in the run is a hard
            // fail: a dropped predictor or benchmark must not pass by
            // omission.
            let Some(cell) = cells.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
                return fail(&format!(
                    "baseline gates cell `{key}` but the tournament did not race it"
                ));
            };
            let Some(ceiling) = floor.get("max_miss_rate").and_then(JsonValue::as_f64) else {
                return fail(&format!("baseline cell `{key}` has no `max_miss_rate`"));
            };
            let rate = cell.get("miss_rate").and_then(JsonValue::as_f64).unwrap_or(1.0);
            if rate > ceiling {
                return fail(&format!(
                    "cell `{key}` regressed: miss_rate {rate:.4} exceeds the baseline ceiling \
                     {ceiling:.4}"
                ));
            }
            gated += 1;
        }
    }

    println!(
        "ok: TOURNEY line parses ({} cells, full matrix, {gated} baseline ceiling(s) enforced)",
        cells.len()
    );
    ExitCode::SUCCESS
}
