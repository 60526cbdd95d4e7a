//! Differential and byte-identity tests for the serve protocol codec.
//!
//! * `parse_request` decodes a borrowed `JsonRef` tree. [`reference`]
//!   is the owned-tree decoder it replaced, kept here as the oracle:
//!   on generated requests for every verb, and on every truncation and
//!   single-byte mutation of a real 8-record `predict` frame, both must
//!   return the same `Request`, or errors with the same phase and
//!   message.
//! * `predict_response` and `update_response` write bytes directly; they
//!   must equal `ok_response(..).to_string()` byte for byte. Loadgen and
//!   perfbench compare responses by value, so only this test pins the
//!   bytes.

use vlpp_check::{check, prop_assert_eq, CheckConfig, Gen};
use vlpp_sim::serve::protocol::{
    ok_response, parse_request, predict_response, predictions_to_json, record_to_json,
    update_response, Request,
};
use vlpp_sim::serve::Prediction;
use vlpp_sim::{Scale, Workloads};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, VlppError};

/// The owned-tree request decoder `parse_request` replaced, verbatim
/// apart from paths: the oracle for the borrowed-tree decoder.
mod reference {
    use vlpp_sim::serve::protocol::{Request, Verb};
    use vlpp_sim::serve::ModelSpec;
    use vlpp_sim::Kind;
    use vlpp_trace::json::JsonValue;
    use vlpp_trace::{Addr, BranchKind, BranchRecord, VlppError};

    fn field<'a>(
        object: &'a JsonValue,
        verb: Option<&str>,
        key: &str,
    ) -> Result<&'a JsonValue, VlppError> {
        object.get(key).ok_or_else(|| {
            VlppError::protocol(verb.map(str::to_string), format!("missing field `{key}`"))
        })
    }

    fn str_field(object: &JsonValue, verb: Option<&str>, key: &str) -> Result<String, VlppError> {
        field(object, verb, key)?.as_str().map(str::to_string).ok_or_else(|| {
            VlppError::protocol(verb.map(str::to_string), format!("field `{key}` must be a string"))
        })
    }

    fn u64_field(object: &JsonValue, verb: Option<&str>, key: &str) -> Result<u64, VlppError> {
        field(object, verb, key)?.as_u64().ok_or_else(|| {
            VlppError::protocol(
                verb.map(str::to_string),
                format!("field `{key}` must be an unsigned integer"),
            )
        })
    }

    fn record_from_json(value: &JsonValue, verb: &str) -> Result<BranchRecord, VlppError> {
        let pc = u64_field(value, Some(verb), "pc")?;
        let target = u64_field(value, Some(verb), "target")?;
        let kind_name = str_field(value, Some(verb), "kind")?;
        let kind = BranchKind::from_name(&kind_name).ok_or_else(|| {
            VlppError::protocol(
                Some(verb.to_string()),
                format!("unknown branch kind `{kind_name}`"),
            )
        })?;
        let taken = match value.get("taken") {
            Some(flag) => flag.as_bool().ok_or_else(|| {
                VlppError::protocol(Some(verb.to_string()), "field `taken` must be a boolean")
            })?,
            None if kind == BranchKind::Conditional => {
                return Err(VlppError::protocol(
                    Some(verb.to_string()),
                    "conditional records need a `taken` field",
                ));
            }
            None => true,
        };
        Ok(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken))
    }

    fn records_field(object: &JsonValue, verb: &str) -> Result<Vec<BranchRecord>, VlppError> {
        let items = field(object, Some(verb), "records")?.as_array().ok_or_else(|| {
            VlppError::protocol(Some(verb.to_string()), "field `records` must be an array")
        })?;
        items.iter().map(|item| record_from_json(item, verb)).collect()
    }

    pub fn parse_request(payload: &[u8]) -> Result<Request, VlppError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| VlppError::protocol(None, "request payload is not UTF-8"))?;
        let value = JsonValue::parse(text)
            .map_err(|source| VlppError::Json { what: "request frame".to_string(), source })?;
        if value.as_object().is_none() {
            return Err(VlppError::protocol(None, "request must be a JSON object"));
        }
        let id = match value.get("id") {
            None => None,
            Some(id) => Some(id.as_u64().ok_or_else(|| {
                VlppError::protocol(None, "field `id` must be an unsigned integer")
            })?),
        };
        let verb_name = str_field(&value, None, "verb")?;
        let verb = match verb_name.as_str() {
            "train" => {
                let kind_name = str_field(&value, Some("train"), "kind")?;
                let kind = Kind::from_name(&kind_name).ok_or_else(|| {
                    VlppError::protocol(
                        Some("train".to_string()),
                        format!("unknown model kind `{kind_name}` (expected `cond` or `ind`)"),
                    )
                })?;
                let index_bits = u64_field(&value, Some("train"), "index_bits")?;
                if !(4..=24).contains(&index_bits) {
                    return Err(VlppError::protocol(
                        Some("train".to_string()),
                        format!("index_bits {index_bits} outside the supported 4..=24"),
                    ));
                }
                let shards = match value.get("shards") {
                    None => 1,
                    Some(n) => {
                        n.as_u64().filter(|&n| (1..=1024).contains(&n)).ok_or_else(|| {
                            VlppError::protocol(
                                Some("train".to_string()),
                                "field `shards` must be an integer in 1..=1024",
                            )
                        })?
                    }
                };
                let optional_str = |key: &str| -> Result<Option<String>, VlppError> {
                    match value.get(key) {
                        None => Ok(None),
                        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
                            VlppError::protocol(
                                Some("train".to_string()),
                                format!("field `{key}` must be a string"),
                            )
                        }),
                    }
                };
                let benchmark = optional_str("benchmark")?;
                let trace = optional_str("trace")?;
                if benchmark.is_some() == trace.is_some() {
                    return Err(VlppError::protocol(
                        Some("train".to_string()),
                        "exactly one of `benchmark` and `trace` is required",
                    ));
                }
                Verb::Train(ModelSpec {
                    name: str_field(&value, Some("train"), "model")?,
                    benchmark: benchmark.unwrap_or_default(),
                    trace,
                    kind,
                    index_bits: index_bits as u32,
                    shards: shards as usize,
                })
            }
            "predict" => Verb::Predict {
                model: str_field(&value, Some("predict"), "model")?,
                records: records_field(&value, "predict")?,
            },
            "update" => Verb::Update {
                model: str_field(&value, Some("update"), "model")?,
                records: records_field(&value, "update")?,
            },
            "stats" => Verb::Stats {
                model: match value.get("model") {
                    None => None,
                    Some(model) => Some(model.as_str().map(str::to_string).ok_or_else(|| {
                        VlppError::protocol(
                            Some("stats".to_string()),
                            "field `model` must be a string",
                        )
                    })?),
                },
            },
            "save" => Verb::Save {
                path: str_field(&value, Some("save"), "path")?,
                model: match value.get("model") {
                    None => None,
                    Some(model) => Some(model.as_str().map(str::to_string).ok_or_else(|| {
                        VlppError::protocol(
                            Some("save".to_string()),
                            "field `model` must be a string",
                        )
                    })?),
                },
            },
            "load" => Verb::Load { path: str_field(&value, Some("load"), "path")? },
            "ping" => Verb::Ping,
            "sync" => Verb::Sync {
                model: match value.get("model") {
                    None => None,
                    Some(model) => Some(model.as_str().map(str::to_string).ok_or_else(|| {
                        VlppError::protocol(
                            Some("sync".to_string()),
                            "field `model` must be a string",
                        )
                    })?),
                },
            },
            "shutdown" => Verb::Shutdown,
            other => {
                return Err(VlppError::protocol(
                    Some(other.to_string()),
                    format!("unknown verb `{other}`"),
                ));
            }
        };
        Ok(Request { id, verb })
    }
}

/// Both decoders on `payload`: the same `Request`, or errors with the
/// same phase and message.
fn same_decode(payload: &[u8]) -> Result<(), String> {
    let got = parse_request(payload);
    let want = reference::parse_request(payload);
    let shown = |r: &Result<Request, VlppError>| match r {
        Ok(request) => format!("Ok({request:?})"),
        Err(error) => format!("Err({}: {error})", error.phase()),
    };
    let equal = match (&got, &want) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.phase() == b.phase() && a.to_string() == b.to_string(),
        _ => false,
    };
    if equal {
        Ok(())
    } else {
        Err(format!(
            "decoders disagree on {:?}:\n  borrowed: {}\n  owned:    {}",
            String::from_utf8_lossy(payload),
            shown(&got),
            shown(&want)
        ))
    }
}

/// A JSON string literal for `text`, with some characters written as
/// `\uXXXX` escapes (so the borrowed tree has to decode a copy).
fn string_literal(g: &mut Gen, text: &str) -> String {
    let mut out = String::from("\"");
    let escape_rate = *g.choose(&[0u64, 0, 3, 1]);
    for c in text.chars() {
        if escape_rate > 0 && g.below(escape_rate) == 0 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// A value of the wrong type (or an edge of the right one).
fn ill_typed(g: &mut Gen) -> String {
    g.choose(&[
        "null",
        "true",
        "false",
        "-1",
        "1.5",
        "1e3",
        "18446744073709551615",
        "18446744073709551616",
        "[]",
        "{}",
        "\"7\"",
        "\"\"",
        "[{\"pc\":1}]",
    ])
    .to_string()
}

/// A well-typed value most of the time, otherwise an ill-typed one.
fn maybe_ill(g: &mut Gen, good: impl FnOnce(&mut Gen) -> String) -> String {
    if g.below(10) == 0 {
        ill_typed(g)
    } else {
        good(g)
    }
}

fn arb_u64_text(g: &mut Gen) -> String {
    match g.below(4) {
        0 => "0".to_string(),
        1 => u64::MAX.to_string(),
        _ => g.below(1 << 20).to_string(),
    }
}

/// One wire record, sometimes missing a field or carrying a bad one.
fn arb_record(g: &mut Gen) -> String {
    let kind = *g.choose(&["cond", "ind", "jmp", "call", "ret", "cond", "loop"]);
    let mut fields = vec![
        ("pc".to_string(), maybe_ill(g, arb_u64_text)),
        ("target".to_string(), maybe_ill(g, arb_u64_text)),
        ("kind".to_string(), maybe_ill(g, |g| string_literal(g, kind))),
    ];
    if kind == "cond" || g.below(3) == 0 {
        let taken = if g.bool() { "true" } else { "false" };
        fields.push(("taken".to_string(), maybe_ill(g, |_| taken.to_string())));
    }
    object(g, fields)
}

/// The fields of one request for `verb`, before shuffling.
fn verb_fields(g: &mut Gen, verb: &str) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let name = *g.choose(&["m", "gcc-cond", "a\"b", "snow\u{2603}"]);
    let model = string_literal(g, name);
    match verb {
        "train" => {
            fields.push(("model".to_string(), maybe_ill(g, |_| model)));
            let kind = *g.choose(&["cond", "ind", "both"]);
            fields.push(("kind".to_string(), maybe_ill(g, |g| string_literal(g, kind))));
            fields.push(("index_bits".to_string(), maybe_ill(g, |g| g.below(30).to_string())));
            if g.bool() {
                fields.push(("shards".to_string(), maybe_ill(g, |g| g.below(1100).to_string())));
            }
            match g.below(4) {
                0 => fields.push(("benchmark".to_string(), string_literal(g, "gcc"))),
                1 => fields.push(("trace".to_string(), string_literal(g, "/t/x.vlpc"))),
                2 => {
                    fields.push((
                        "benchmark".to_string(),
                        maybe_ill(g, |g| string_literal(g, "gcc")),
                    ));
                    fields.push(("trace".to_string(), maybe_ill(g, |g| string_literal(g, "t"))));
                }
                _ => {}
            }
        }
        "predict" | "update" => {
            fields.push(("model".to_string(), maybe_ill(g, |_| model)));
            let records: Vec<String> = (0..g.below(10)).map(|_| arb_record(g)).collect();
            fields.push((
                "records".to_string(),
                maybe_ill(g, |_| format!("[{}]", records.join(","))),
            ));
        }
        "stats" | "sync" if g.bool() => {
            fields.push(("model".to_string(), maybe_ill(g, |_| model)));
        }
        "save" | "load" => {
            fields.push(("path".to_string(), maybe_ill(g, |g| string_literal(g, "/tmp/m.vlps"))));
            if verb == "save" && g.bool() {
                fields.push(("model".to_string(), maybe_ill(g, |_| model)));
            }
        }
        _ => {}
    }
    // Any field may go missing.
    if !fields.is_empty() && g.below(8) == 0 {
        let drop = g.below(fields.len() as u64) as usize;
        fields.remove(drop);
    }
    fields
}

/// Renders `fields` as a JSON object: keys shuffled, sometimes
/// escaped, random whitespace between tokens.
fn object(g: &mut Gen, mut fields: Vec<(String, String)>) -> String {
    for i in (1..fields.len()).rev() {
        let j = g.below(i as u64 + 1) as usize;
        fields.swap(i, j);
    }
    let ws = |g: &mut Gen| g.choose(&["", "", "", " ", "\n", "\t ", "\r\n"]).to_string();
    let mut out = format!("{{{}", ws(g));
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(&format!("{},{}", ws(g), ws(g)));
        }
        let key = string_literal(g, key);
        out.push_str(&format!("{key}{}:{}{value}", ws(g), ws(g)));
    }
    out.push_str(&format!("{}}}", ws(g)));
    out
}

/// A request document for any verb (or none), with every kind of
/// damage the decoders must agree on.
fn arb_request(g: &mut Gen) -> String {
    let verb = *g.choose(&[
        "train", "predict", "update", "stats", "save", "load", "ping", "sync", "shutdown",
        "predict", "update", "fly",
    ]);
    let mut fields = verb_fields(g, verb);
    match g.below(12) {
        0 => {}
        1 => fields.push(("verb".to_string(), ill_typed(g))),
        _ => fields.push(("verb".to_string(), string_literal(g, verb))),
    }
    match g.below(4) {
        0 => {}
        1 => fields.push(("id".to_string(), maybe_ill(g, arb_u64_text))),
        _ => fields.push(("id".to_string(), arb_u64_text(g))),
    }
    if g.below(4) == 0 {
        fields.push(("extra".to_string(), maybe_ill(g, |_| "[1,{\"k\":null}]".to_string())));
    }
    let mut text = object(g, fields);
    // Duplicate keys: a later copy of a field must not override the
    // first. Splice one in just before the closing brace.
    if g.below(4) == 0 {
        let key = *g.choose(&["verb", "id", "model", "records", "path", "kind"]);
        let close = text.rfind('}').expect("an object");
        let separator = if text[..close].trim_end().ends_with('{') { "" } else { "," };
        text.insert_str(close, &format!("{separator}\"{key}\":{}", ill_typed(g)));
    }
    if g.below(30) == 0 {
        text = format!("[{text}]");
    }
    text
}

#[test]
fn generated_requests_decode_like_the_owned_tree() {
    check("generated_requests_decode_like_the_owned_tree", CheckConfig::default(), |g| {
        for _ in 0..16 {
            let text = arb_request(g);
            same_decode(text.as_bytes()).map_err(vlpp_check::Failed::new)?;
        }
        Ok(())
    });
}

#[test]
fn hand_written_edge_requests_decode_like_the_owned_tree() {
    let cases = [
        r#"{"verb":"predict","model":"m","records":[{"pc":1,"target":2,"kind":"cond","taken":true}]}"#,
        r#"{"verb":"predict","model":"m","records":[]}"#,
        r#"{"verb":"predict","verb":"update","model":"m","records":[]}"#,
        r#"{"id":1,"id":"x","verb":"ping"}"#,
        r#"{"id":-1,"verb":"ping"}"#,
        r#"{"id":1.0,"verb":"ping"}"#,
        r#"{"verb":"predict","model":"m","records":[{"pc":1,"target":2,"kind":"cond"}]}"#,
        r#"{"verb":"predict","model":"m","records":[{"pc":1,"target":2,"kind":"ret","taken":7}]}"#,
        r#"{"verb":"predict","model":"m","records":[{"pc":"1","target":2,"kind":"ind"}]}"#,
        r#"{"verb":"predict","model":"m","records":{}}"#,
        r#"{"verb":"train","model":"m","kind":"cond","index_bits":12,"benchmark":"gcc","shards":0}"#,
        r#"{"verb":"stats","model":null}"#,
        r#"{"verb":"\u0000"}"#,
        "\u{feff}{\"verb\":\"ping\"}",
        "",
        "{}",
        "[]",
    ];
    for case in cases {
        if let Err(message) = same_decode(case.as_bytes()) {
            panic!("{message}");
        }
    }
    assert!(same_decode(&[b'{', 0xff, b'}']).is_ok(), "invalid UTF-8 errors agree");
}

/// A real 8-record `predict` frame: consecutive gcc test-trace records
/// in the wire form `vlpp loadgen` sends.
fn gcc_frame() -> Vec<u8> {
    let workloads = Workloads::new(Scale::new(1_000_000));
    let trace = workloads.test_trace(&vlpp_synth::suite::benchmark("gcc").unwrap());
    let records: Vec<JsonValue> = trace.iter().skip(100).take(8).map(record_to_json).collect();
    JsonValue::Object(vec![
        ("verb".to_string(), JsonValue::Str("predict".to_string())),
        ("id".to_string(), JsonValue::UInt(41)),
        ("model".to_string(), JsonValue::Str("gcc-cond".to_string())),
        ("records".to_string(), JsonValue::Array(records)),
    ])
    .to_string()
    .into_bytes()
}

#[test]
fn every_truncation_and_byte_mutation_of_a_predict_frame_decodes_alike() {
    let frame = gcc_frame();
    assert!(matches!(parse_request(&frame), Ok(Request { id: Some(41), .. })));
    for end in 0..=frame.len() {
        if let Err(message) = same_decode(&frame[..end]) {
            panic!("truncated at {end}: {message}");
        }
    }
    let bytes = [b'"', b'\\', b'{', b'}', b'[', b']', b':', b',', b'0', b'-', b' ', b'x', 0, 0xff];
    for offset in 0..frame.len() {
        for &byte in &bytes {
            let mut damaged = frame.clone();
            damaged[offset] = byte;
            if let Err(message) = same_decode(&damaged) {
                panic!("byte {offset} set to {byte:#04x}: {message}");
            }
        }
    }
}

#[test]
fn random_byte_mutations_of_a_predict_frame_decode_alike() {
    let frame = gcc_frame();
    check("random_byte_mutations_of_a_predict_frame", CheckConfig::default(), |g| {
        let mut damaged = frame.clone();
        for _ in 0..g.range_usize(1, 4) {
            let offset = g.below(damaged.len() as u64) as usize;
            damaged[offset] = g.u64() as u8;
        }
        same_decode(&damaged).map_err(vlpp_check::Failed::new)
    });
}

fn arb_id(g: &mut Gen) -> Option<u64> {
    match g.below(5) {
        0 => None,
        1 => Some(0),
        2 => Some(u64::MAX),
        _ => Some(g.u64() >> g.below(64)),
    }
}

fn arb_slot(g: &mut Gen) -> Option<Prediction> {
    let target = match g.below(4) {
        0 => 0,
        1 => u64::MAX,
        _ => g.u64() >> g.below(64),
    };
    match g.below(3) {
        0 => None,
        1 => Some(Prediction::Taken { taken: g.bool(), correct: g.bool() }),
        _ => Some(Prediction::Target { target: Addr::new(target), correct: g.bool() }),
    }
}

#[test]
fn direct_encoders_match_ok_response_byte_for_byte() {
    check("direct_encoders_match_ok_response", CheckConfig::default(), |g| {
        let id = arb_id(g);
        let slots = g.vec(0, 24, arb_slot);
        let tree = ok_response(
            "predict",
            id,
            vec![("predictions".to_string(), predictions_to_json(&slots))],
        );
        prop_assert_eq!(String::from_utf8(predict_response(id, &slots)).unwrap(), tree.to_string());

        let records = match g.below(4) {
            0 => 0,
            1 => usize::MAX,
            _ => g.below(1 << 20) as usize,
        };
        let tree = ok_response("update", id, vec![("records".to_string(), records.to_json())]);
        prop_assert_eq!(String::from_utf8(update_response(id, records)).unwrap(), tree.to_string());
        Ok(())
    });
}

/// The canonical compact form SERVING.md documents for `predict` and
/// `update` responses: no whitespace, fields in this order.
#[test]
fn predict_and_update_responses_have_the_documented_canonical_form() {
    let slots = [
        None,
        Some(Prediction::Taken { taken: true, correct: false }),
        Some(Prediction::Target { target: Addr::new(4096), correct: true }),
    ];
    assert_eq!(
        String::from_utf8(predict_response(Some(7), &slots)).unwrap(),
        r#"{"ok":true,"verb":"predict","id":7,"predictions":[null,{"taken":true,"correct":false},{"target":4096,"correct":true}]}"#
    );
    assert_eq!(
        String::from_utf8(predict_response(None, &[])).unwrap(),
        r#"{"ok":true,"verb":"predict","predictions":[]}"#
    );
    assert_eq!(
        String::from_utf8(update_response(None, 8)).unwrap(),
        r#"{"ok":true,"verb":"update","records":8}"#
    );
    assert_eq!(
        String::from_utf8(update_response(Some(0), 0)).unwrap(),
        r#"{"ok":true,"verb":"update","id":0,"records":0}"#
    );
}
