//! Golden tests for the in-tree JSON emitter: every experiment report
//! type serializes to JSON that parses back, with a stable field order
//! (struct declaration order) across emissions.
//!
//! These construct report structs directly — no simulations — so the
//! whole suite runs in milliseconds.

use vlpp_sim::paper::{
    AblationRow, AnalysisRow, CondRow, FrontendRow, GccCondPoint, GccIndPoint, Headline, HfntRow,
    IndRow, LengthHistogram, RasRow, RelatedRow, Table1Row, Table2Data,
};
use vlpp_sim::report::TextTable;
use vlpp_sim::{FrontendCost, Penalties, RunStats, Scale};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::stats::TraceStats;
use vlpp_trace::{Addr, BranchRecord, Trace};

/// The keys of a JSON object, in emission order.
fn keys(value: &JsonValue) -> Vec<&str> {
    value.as_object().expect("value is an object").iter().map(|(k, _)| k.as_str()).collect()
}

/// Emits `value` twice (compact and pretty), asserts both parse back to
/// the same tree, and that emission is deterministic.
fn assert_round_trips<T: ToJson>(value: &T) -> JsonValue {
    let tree = value.to_json();
    let compact = value.to_json_string();
    let pretty = value.to_json_pretty();
    assert_eq!(compact, value.to_json_string(), "compact emission must be deterministic");
    assert_eq!(pretty, value.to_json_pretty(), "pretty emission must be deterministic");
    let reparsed_compact = JsonValue::parse(&compact).expect("compact output parses");
    let reparsed_pretty = JsonValue::parse(&pretty).expect("pretty output parses");
    assert_eq!(reparsed_compact, tree, "compact output round-trips");
    assert_eq!(reparsed_pretty, tree, "pretty output round-trips");
    tree
}

#[test]
fn headline_pretty_output_is_golden() {
    let headline = Headline {
        vlp_cond_4kb: 0.043,
        gshare_cond_4kb: 0.088,
        vlp_ind_512b: 0.277,
        best_competing_ind_512b: 0.442,
    };
    assert_eq!(
        headline.to_json_pretty(),
        "{\n  \"vlp_cond_4kb\": 0.043,\n  \"gshare_cond_4kb\": 0.088,\n  \
         \"vlp_ind_512b\": 0.277,\n  \"best_competing_ind_512b\": 0.442\n}"
    );
    assert_round_trips(&headline);
}

#[test]
fn table_reports_round_trip_with_declared_field_order() {
    let row = Table1Row {
        benchmark: "gcc".into(),
        conditional_dynamic: 143_000_000,
        conditional_static: 18_000,
        indirect_dynamic: 1_900_000,
        indirect_static: 460,
    };
    let tree = assert_round_trips(&row);
    assert_eq!(
        keys(&tree),
        [
            "benchmark",
            "conditional_dynamic",
            "conditional_static",
            "indirect_dynamic",
            "indirect_static"
        ]
    );
    // u64 values survive exactly (no float detour).
    assert_eq!(tree.get("conditional_dynamic").unwrap().as_u64(), Some(143_000_000));

    let data = Table2Data { conditional: vec![(1024, 6), (4096, 9)], indirect: vec![(512, 4)] };
    let tree = assert_round_trips(&data);
    assert_eq!(keys(&tree), ["conditional", "indirect"]);
    // (u64, u8) pairs emit as two-element arrays.
    let first = tree.get("conditional").unwrap().at(0).unwrap();
    assert_eq!(first.at(0).unwrap().as_u64(), Some(1024));
    assert_eq!(first.at(1).unwrap().as_u64(), Some(6));
}

#[test]
fn comparison_reports_round_trip_with_declared_field_order() {
    let cond = CondRow { benchmark: "go".into(), gshare: 0.17, fixed: 0.15, variable: 0.12 };
    assert_eq!(keys(&assert_round_trips(&cond)), ["benchmark", "gshare", "fixed", "variable"]);

    let ind =
        IndRow { benchmark: "perl".into(), path: 0.30, pattern: 0.33, fixed: 0.28, variable: 0.25 };
    assert_eq!(
        keys(&assert_round_trips(&ind)),
        ["benchmark", "path", "pattern", "fixed", "variable"]
    );

    let cond_point = GccCondPoint {
        bytes: 4096,
        gshare: 0.088,
        fixed: 0.06,
        fixed_tuned: 0.055,
        variable: 0.043,
    };
    assert_eq!(
        keys(&assert_round_trips(&cond_point)),
        ["bytes", "gshare", "fixed", "fixed_tuned", "variable"]
    );

    let ind_point = GccIndPoint {
        bytes: 512,
        path: 0.442,
        pattern: 0.47,
        fixed: 0.31,
        fixed_tuned: 0.30,
        variable: 0.277,
    };
    assert_eq!(
        keys(&assert_round_trips(&ind_point)),
        ["bytes", "path", "pattern", "fixed", "fixed_tuned", "variable"]
    );
}

#[test]
fn analysis_reports_round_trip_with_declared_field_order() {
    let row = AnalysisRow {
        class: "loop".into(),
        dynamic: 1_000_000,
        gshare: 0.05,
        fixed: 0.04,
        variable: 0.03,
    };
    assert_eq!(
        keys(&assert_round_trips(&row)),
        ["class", "dynamic", "gshare", "fixed", "variable"]
    );

    let ras = RasRow { benchmark: "gcc".into(), returns: 5_000_000, hit_rate: 0.999 };
    assert_eq!(keys(&assert_round_trips(&ras)), ["benchmark", "returns", "hit_rate"]);

    let lengths =
        LengthHistogram { benchmark: "gcc".into(), histogram: vec![10, 0, 25, 3], default_hash: 9 };
    let tree = assert_round_trips(&lengths);
    assert_eq!(keys(&tree), ["benchmark", "histogram", "default_hash"]);
    assert_eq!(tree.get("histogram").unwrap().as_array().unwrap().len(), 4);

    let hfnt = HfntRow { benchmark: "xlisp".into(), lookups: 42, mismatches: 3, rate: 3.0 / 42.0 };
    assert_eq!(keys(&assert_round_trips(&hfnt)), ["benchmark", "lookups", "mismatches", "rate"]);
}

#[test]
fn frontend_reports_round_trip_with_declared_field_order() {
    let row = FrontendRow {
        benchmark: "gcc".into(),
        configuration: "vlp + hfnt".into(),
        cost: FrontendCost {
            branches: 100,
            conditional_misses: 4,
            indirect_misses: 2,
            return_misses: 0,
            repredictions: 7,
            cycles: 179,
        },
    };
    let tree = assert_round_trips(&row);
    assert_eq!(keys(&tree), ["benchmark", "configuration", "cost"]);
    // Nested struct fields keep their own declaration order.
    assert_eq!(
        keys(tree.get("cost").unwrap()),
        [
            "branches",
            "conditional_misses",
            "indirect_misses",
            "return_misses",
            "repredictions",
            "cycles"
        ]
    );

    let penalties = Penalties::default();
    assert_eq!(keys(&assert_round_trips(&penalties)), ["mispredict", "repredict"]);
}

#[test]
fn remaining_report_types_round_trip() {
    assert_eq!(
        keys(&assert_round_trips(&AblationRow { variant: "full".into(), rate: 0.043 })),
        ["variant", "rate"]
    );
    assert_eq!(
        keys(&assert_round_trips(&RelatedRow { predictor: "gshare".into(), rate: 0.088 })),
        ["predictor", "rate"]
    );
    let tree = assert_round_trips(&Scale::new(512));
    assert_eq!(tree.get("divisor").unwrap().as_u64(), Some(512));
}

#[test]
fn run_stats_json_keeps_totals_only() {
    let mut stats = RunStats::default();
    stats.record(true);
    stats.record(false);
    stats.record(false);
    let tree = assert_round_trips(&stats);
    assert_eq!(keys(&tree), ["predictions", "mispredictions"]);
    assert_eq!(tree.get("predictions").unwrap().as_u64(), Some(3));
    assert_eq!(tree.get("mispredictions").unwrap().as_u64(), Some(2));
}

#[test]
fn trace_types_round_trip() {
    let mut trace = Trace::new();
    trace.push(BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x2000), true));
    trace.push(BranchRecord::indirect(Addr::new(0x1040), Addr::new(0x3000)));
    let tree = assert_round_trips(&trace);
    let records = tree.as_array().expect("a trace is a JSON array");
    assert_eq!(records.len(), 2);
    assert_eq!(keys(&records[0]), ["pc", "target", "kind", "taken"]);
    assert_eq!(records[0].get("kind").unwrap().as_str(), Some("cond"));
    assert_eq!(records[1].get("kind").unwrap().as_str(), Some("ind"));

    let stats = TraceStats::from_trace(&trace);
    let tree = assert_round_trips(&stats);
    assert_eq!(
        keys(&tree),
        ["conditional", "indirect", "unconditional", "call", "ret", "total_dynamic", "taken_rate"]
    );
    // KindCounts renames the raw `static_` field to plain "static".
    assert_eq!(keys(tree.get("conditional").unwrap()), ["dynamic", "static"]);
}

#[test]
fn text_tables_serialize_structurally() {
    let mut table = TextTable::new(vec!["bench".into(), "rate".into()]);
    table.row(vec!["gcc".into(), "4.3%".into()]);
    let tree = assert_round_trips(&table);
    assert_eq!(keys(&tree), ["header", "rows"]);
    assert_eq!(tree.get("rows").unwrap().at(0).unwrap().at(1).unwrap().as_str(), Some("4.3%"));
}

#[test]
fn string_escaping_survives_a_round_trip() {
    let gnarly = "quote \" backslash \\ newline \n tab \t nul \u{0} unicode é✓";
    let row = AblationRow { variant: gnarly.into(), rate: 0.5 };
    let tree = assert_round_trips(&row);
    assert_eq!(tree.get("variant").unwrap().as_str(), Some(gnarly));
    // The emitted bytes themselves never contain a raw control byte.
    let emitted = row.to_json_string();
    assert!(emitted.chars().all(|c| c == ' ' || !c.is_control()), "{emitted:?}");
}
