//! The simulated statistics each run must reproduce exactly, pinned in
//! `expected.json` (regenerate with `perfbench write-expected FILE`
//! only when a change is meant to alter results).

use vlpp_trace::json::JsonValue;

use crate::util::{ctx, Fallible};

const EXPECTED: &str = include_str!("../expected.json");

/// The pinned values for one key of `expected.json`.
pub fn get(key: &str) -> Fallible<JsonValue> {
    let all = JsonValue::parse(EXPECTED).map_err(ctx("expected.json"))?;
    all.get(key).cloned().ok_or_else(|| format!("expected.json has no `{key}` entry"))
}

/// A field of a pinned object (`null` when absent, which then fails
/// the comparison).
pub fn field(value: &JsonValue, key: &str) -> JsonValue {
    value.get(key).cloned().unwrap_or(JsonValue::Null)
}

/// Computes every pinned value from the current code and writes them.
pub fn write(path: &str) -> Fallible<()> {
    let (tourney, warmup) = crate::tourney::expected_json();
    let all = JsonValue::Object(vec![
        ("offline-gcc".to_string(), crate::offline::expected_json()),
        ("tourney-zoo".to_string(), tourney),
        ("tourney-zoo-warmup".to_string(), warmup),
    ]);
    std::fs::write(path, all.pretty() + "\n").map_err(ctx("write expected.json"))
}
