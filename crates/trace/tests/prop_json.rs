//! Render round-trip property of the JSON writer: both renderings of any
//! tree — compact `to_string()` and indented `pretty()` — parse back to
//! the same tree, and differ only in whitespace outside strings.

use vlpp_check::{check, prop_assert_eq, CheckConfig, Gen};
use vlpp_trace::json::JsonValue;

/// Characters a string or key is built from: plain ASCII, every escape
/// the writer knows, other control characters, DEL and non-ASCII.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{1f}',
    '\u{7f}', '\u{e9}',
];

fn arb_string(g: &mut Gen) -> String {
    g.vec(0, 6, |g| match g.below(4) {
        0 => *g.choose(&['\u{2603}', '\u{1f600}', '\u{ffff}']),
        _ => *g.choose(&CHARS),
    })
    .into_iter()
    .collect()
}

/// A finite float: arbitrary bits (subnormals, huge exponents, negative
/// zero), or an integral value, which must keep its decimal point to
/// parse back as a float.
fn arb_float(g: &mut Gen) -> f64 {
    let x = match g.below(3) {
        0 => f64::from_bits(g.u64()),
        1 => g.range_u64(0, 1 << 20) as f64 - (1u64 << 19) as f64,
        _ => g.range_f64(-1e6, 1e6),
    };
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

fn arb_json(g: &mut Gen, depth: usize) -> JsonValue {
    match g.below(if depth == 0 { 6 } else { 8 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(g.bool()),
        2 => {
            let n = g.u64();
            JsonValue::UInt(*g.choose(&[0, 1, u64::MAX, n]))
        }
        // Negative only: a non-negative integer parses back as `UInt`.
        3 => {
            let n = (g.u64() | 1 << 63) as i64;
            JsonValue::Int(*g.choose(&[-1, i64::MIN, n]))
        }
        4 => JsonValue::Float(arb_float(g)),
        5 => JsonValue::Str(arb_string(g)),
        6 => JsonValue::Array(g.vec(0, 3, |g| arb_json(g, depth - 1))),
        _ => JsonValue::Object(g.vec(0, 3, |g| (arb_string(g), arb_json(g, depth - 1)))),
    }
}

/// `text` without the whitespace outside string literals.
fn strip_layout(text: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c.is_ascii_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

#[test]
fn compact_and_pretty_renderings_round_trip_through_one_grammar() {
    check(
        "compact_and_pretty_renderings_round_trip_through_one_grammar",
        CheckConfig::default(),
        |g| {
            let value = arb_json(g, 4);
            let (compact, pretty) = (value.to_string(), value.pretty());
            prop_assert_eq!(JsonValue::parse(&compact), Ok(value.clone()));
            prop_assert_eq!(JsonValue::parse(&pretty), Ok(value));
            prop_assert_eq!(strip_layout(&pretty), compact);
            Ok(())
        },
    );
}
