//! Wire protocol of `vlpp serve`: JSON request/response documents
//! carried in `vlpp_trace::frame` length-prefixed frames.
//!
//! Every request is one JSON object with a `"verb"` field and an
//! optional client-chosen `"id"` that the response echoes, so a client
//! pipelining several verbs on one connection can match responses by id
//! as well as by order (responses always come back in request order).
//! `SERVING.md` at the repository root gives the full grammar.
//!
//! The per-record verbs carry the traffic, so their codec builds no
//! owned JSON tree: [`parse_request`] walks a borrowed [`JsonRef`] and
//! copies only the strings a [`Request`] keeps, and [`predict_response`]
//! / [`update_response`] write the canonical compact bytes that
//! [`ok_response`] would render. Control verbs and errors build a
//! [`JsonValue`].

use std::io::Write as _;

use vlpp_trace::json::{JsonRef, JsonValue, ToJson};
use vlpp_trace::{Addr, BranchKind, BranchRecord, VlppError};

use super::model::{ModelKind, ModelSpec, Prediction};

/// A parsed request: the echoed id plus the verb payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// The verb payload.
    pub verb: Verb,
}

/// The verbs of the serving protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Build (or rebuild) a named predictor instance from a profiled
    /// hash assignment.
    Train(ModelSpec),
    /// Run a batch of records through a model, returning one prediction
    /// slot per record.
    Predict {
        /// The model to drive.
        model: String,
        /// The retired-branch batch, in program order.
        records: Vec<BranchRecord>,
    },
    /// As `predict`, but fire-and-forget: the state transition is
    /// identical (predict → train → observe per record), only the
    /// response omits the predictions.
    Update {
        /// The model to drive.
        model: String,
        /// The retired-branch batch, in program order.
        records: Vec<BranchRecord>,
    },
    /// Aggregated accuracy counters for one model (or all models).
    Stats {
        /// The model to report, or `None` for a per-model summary.
        model: Option<String>,
    },
    /// Persist one model (or every model) to a versioned snapshot file
    /// on the *server's* filesystem.
    Save {
        /// Where to write the snapshot.
        path: String,
        /// The model to save, or `None` for all models (sorted by
        /// name).
        model: Option<String>,
    },
    /// Load every model from a snapshot file on the server's
    /// filesystem, replacing same-named models.
    Load {
        /// The snapshot to read.
        path: String,
    },
    /// Liveness probe: answers immediately with the node's pid and
    /// drain state. The cluster supervisor's heartbeat loop drives this.
    Ping,
    /// Stream the node's models as a VLPS snapshot: the response header
    /// declares `bytes` and `chunks`, then exactly `chunks` binary
    /// frames follow carrying the envelope. The cluster supervisor uses
    /// this to warm-start a respawned node from a surviving shard owner.
    Sync {
        /// The model to stream, or `None` for every model (sorted by
        /// name).
        model: Option<String>,
    },
    /// Graceful drain: stop accepting connections, finish queued
    /// requests, then exit.
    Shutdown,
}

/// Every verb's wire name, in [`Verb::index`] order.
pub const VERB_NAMES: [&str; 9] =
    ["train", "predict", "update", "stats", "save", "load", "ping", "sync", "shutdown"];

impl Verb {
    /// The verb's position in [`VERB_NAMES`] (how the server finds its
    /// per-verb instruments without formatting a name).
    pub fn index(&self) -> usize {
        match self {
            Verb::Train(_) => 0,
            Verb::Predict { .. } => 1,
            Verb::Update { .. } => 2,
            Verb::Stats { .. } => 3,
            Verb::Save { .. } => 4,
            Verb::Load { .. } => 5,
            Verb::Ping => 6,
            Verb::Sync { .. } => 7,
            Verb::Shutdown => 8,
        }
    }

    /// The verb's wire name (the metrics label under `serve.requests.*`).
    pub fn name(&self) -> &'static str {
        VERB_NAMES[self.index()]
    }
}

fn field<'v, 'a>(
    object: &'v JsonRef<'a>,
    verb: Option<&str>,
    key: &str,
) -> Result<&'v JsonRef<'a>, VlppError> {
    object.get(key).ok_or_else(|| {
        VlppError::protocol(verb.map(str::to_string), format!("missing field `{key}`"))
    })
}

fn str_field<'v>(
    object: &'v JsonRef<'_>,
    verb: Option<&str>,
    key: &str,
) -> Result<&'v str, VlppError> {
    field(object, verb, key)?.as_str().ok_or_else(|| {
        VlppError::protocol(verb.map(str::to_string), format!("field `{key}` must be a string"))
    })
}

fn u64_field(object: &JsonRef<'_>, verb: Option<&str>, key: &str) -> Result<u64, VlppError> {
    field(object, verb, key)?.as_u64().ok_or_else(|| {
        VlppError::protocol(
            verb.map(str::to_string),
            format!("field `{key}` must be an unsigned integer"),
        )
    })
}

/// An optional string field: absent is `None`, present must be a string.
fn optional_str_field(
    object: &JsonRef<'_>,
    verb: &str,
    key: &str,
) -> Result<Option<String>, VlppError> {
    match object.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            VlppError::protocol(Some(verb.to_string()), format!("field `{key}` must be a string"))
        }),
    }
}

/// Decodes one wire record: `{"pc":u64,"target":u64,"kind":"cond",
/// "taken":bool}`. The `kind` names are `BranchKind::name()`'s; `taken`
/// is only meaningful (and only required) for conditionals.
pub fn record_from_json(value: &JsonRef<'_>, verb: &str) -> Result<BranchRecord, VlppError> {
    let pc = u64_field(value, Some(verb), "pc")?;
    let target = u64_field(value, Some(verb), "target")?;
    let kind_name = str_field(value, Some(verb), "kind")?;
    let kind = BranchKind::from_name(kind_name).ok_or_else(|| {
        VlppError::protocol(Some(verb.to_string()), format!("unknown branch kind `{kind_name}`"))
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
        // Non-conditional transfers are always taken.
        None => true,
    };
    Ok(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken))
}

/// Encodes one record for the wire (the inverse of
/// [`record_from_json`]).
pub fn record_to_json(record: &BranchRecord) -> JsonValue {
    let mut fields = vec![
        ("pc".to_string(), JsonValue::UInt(record.pc().raw())),
        ("target".to_string(), JsonValue::UInt(record.target().raw())),
        ("kind".to_string(), JsonValue::Str(record.kind().name().to_string())),
    ];
    if record.is_conditional() {
        fields.push(("taken".to_string(), JsonValue::Bool(record.taken())));
    }
    JsonValue::Object(fields)
}

fn records_field(object: &JsonRef<'_>, verb: &str) -> Result<Vec<BranchRecord>, VlppError> {
    let items = field(object, Some(verb), "records")?.as_array().ok_or_else(|| {
        VlppError::protocol(Some(verb.to_string()), "field `records` must be an array")
    })?;
    // Sized up front: collecting through `Result` would start small
    // and grow.
    let mut records = Vec::with_capacity(items.len());
    for item in items {
        records.push(record_from_json(item, verb)?);
    }
    Ok(records)
}

/// Parses one request frame payload.
///
/// The payload parses into a borrowed [`JsonRef`] tree, so only the
/// strings a [`Request`] keeps (model names, paths) are copied.
///
/// # Errors
///
/// [`VlppError::Json`] if the payload is not valid JSON at all, and
/// [`VlppError::Protocol`] for structurally valid JSON that violates
/// the protocol (not an object, unknown verb, missing or ill-typed
/// fields). Both leave the connection usable — the server answers with
/// an error response and keeps reading.
pub fn parse_request(payload: &[u8]) -> Result<Request, VlppError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| VlppError::protocol(None, "request payload is not UTF-8"))?;
    let value = JsonRef::parse(text)
        .map_err(|source| VlppError::Json { what: "request frame".to_string(), source })?;
    if value.as_object().is_none() {
        return Err(VlppError::protocol(None, "request must be a JSON object"));
    }
    let id =
        match value.get("id") {
            None => None,
            Some(id) => Some(id.as_u64().ok_or_else(|| {
                VlppError::protocol(None, "field `id` must be an unsigned integer")
            })?),
        };
    let verb = match str_field(&value, None, "verb")? {
        "train" => {
            let kind_name = str_field(&value, Some("train"), "kind")?;
            let kind = ModelKind::from_name(kind_name).ok_or_else(|| {
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
                Some(n) => n.as_u64().filter(|&n| (1..=1024).contains(&n)).ok_or_else(|| {
                    VlppError::protocol(
                        Some("train".to_string()),
                        "field `shards` must be an integer in 1..=1024",
                    )
                })?,
            };
            let benchmark = optional_str_field(&value, "train", "benchmark")?;
            let trace = optional_str_field(&value, "train", "trace")?;
            if benchmark.is_some() == trace.is_some() {
                return Err(VlppError::protocol(
                    Some("train".to_string()),
                    "exactly one of `benchmark` and `trace` is required",
                ));
            }
            Verb::Train(ModelSpec {
                name: str_field(&value, Some("train"), "model")?.to_string(),
                benchmark: benchmark.unwrap_or_default(),
                trace,
                kind,
                index_bits: index_bits as u32,
                shards: shards as usize,
            })
        }
        "predict" => Verb::Predict {
            model: str_field(&value, Some("predict"), "model")?.to_string(),
            records: records_field(&value, "predict")?,
        },
        "update" => Verb::Update {
            model: str_field(&value, Some("update"), "model")?.to_string(),
            records: records_field(&value, "update")?,
        },
        "stats" => Verb::Stats { model: optional_str_field(&value, "stats", "model")? },
        "save" => Verb::Save {
            path: str_field(&value, Some("save"), "path")?.to_string(),
            model: optional_str_field(&value, "save", "model")?,
        },
        "load" => Verb::Load { path: str_field(&value, Some("load"), "path")?.to_string() },
        "ping" => Verb::Ping,
        "sync" => Verb::Sync { model: optional_str_field(&value, "sync", "model")? },
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

/// Builds a success response: `{"ok":true,"verb":...,"id":...,<body>}`.
pub fn ok_response(verb: &str, id: Option<u64>, body: Vec<(String, JsonValue)>) -> JsonValue {
    let mut fields = vec![
        ("ok".to_string(), JsonValue::Bool(true)),
        ("verb".to_string(), JsonValue::Str(verb.to_string())),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), JsonValue::UInt(id)));
    }
    fields.extend(body);
    JsonValue::Object(fields)
}

/// Builds an error response: `{"ok":false,"id":...,"error":{...}}` with
/// the error's full [`ToJson`] form (phase, message, context).
pub fn error_response(id: Option<u64>, error: &VlppError) -> JsonValue {
    let mut fields = vec![("ok".to_string(), JsonValue::Bool(false))];
    if let Some(id) = id {
        fields.push(("id".to_string(), JsonValue::UInt(id)));
    }
    fields.push(("error".to_string(), error.to_json()));
    JsonValue::Object(fields)
}

/// Encodes a batch's prediction slots: one entry per input record —
/// `null` for records the model does not predict (wrong kind, returns),
/// otherwise the prediction object.
pub fn predictions_to_json(predictions: &[Option<Prediction>]) -> JsonValue {
    JsonValue::Array(predictions.iter().map(|slot| slot.to_json()).collect())
}

/// Encodes a `predict` response straight to bytes, in the canonical
/// compact form: exactly `ok_response("predict", id,
/// [("predictions", predictions_to_json(predictions))]).to_string()`,
/// byte for byte, without building the tree.
pub fn predict_response(id: Option<u64>, predictions: &[Option<Prediction>]) -> Vec<u8> {
    // `{"target":18446744073709551615,"correct":false}` is the longest
    // slot (47 bytes), so one allocation covers any batch.
    let mut out = response_head("predict", id, 64 + 48 * predictions.len());
    out.extend_from_slice(b",\"predictions\":[");
    for (i, slot) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let correct = match *slot {
            None => {
                out.extend_from_slice(b"null");
                continue;
            }
            Some(Prediction::Taken { taken, correct }) => {
                out.extend_from_slice(if taken { b"{\"taken\":true" } else { b"{\"taken\":false" });
                correct
            }
            Some(Prediction::Target { target, correct }) => {
                out.extend_from_slice(b"{\"target\":");
                let _ = write!(out, "{}", target.raw());
                correct
            }
        };
        out.extend_from_slice(if correct { b",\"correct\":true}" } else { b",\"correct\":false}" });
    }
    out.extend_from_slice(b"]}");
    out
}

/// Encodes an `update` response straight to bytes: exactly
/// `ok_response("update", id, [("records", records)]).to_string()`.
pub fn update_response(id: Option<u64>, records: usize) -> Vec<u8> {
    let mut out = response_head("update", id, 64);
    out.extend_from_slice(b",\"records\":");
    let _ = write!(out, "{records}");
    out.push(b'}');
    out
}

/// `{"ok":true,"verb":"<verb>"[,"id":N]` — the fields every success
/// response opens with, in [`ok_response`]'s order. Verb names are
/// plain ASCII words, so they need no escaping. Numbers are written
/// with `write!`, which renders a `u64` as `JsonValue::UInt` does and
/// cannot fail on a `Vec`.
fn response_head(verb: &str, id: Option<u64>, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(b"{\"ok\":true,\"verb\":\"");
    out.extend_from_slice(verb.as_bytes());
    out.push(b'"');
    if let Some(id) = id {
        out.extend_from_slice(b",\"id\":");
        let _ = write!(out, "{id}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, VlppError> {
        parse_request(text.as_bytes())
    }

    #[test]
    fn parses_every_verb() {
        let request = parse(
            r#"{"verb":"train","id":7,"model":"m","benchmark":"gcc","kind":"cond","index_bits":12,"shards":4}"#,
        )
        .unwrap();
        assert_eq!(request.id, Some(7));
        match request.verb {
            Verb::Train(spec) => {
                assert_eq!(spec.name, "m");
                assert_eq!(spec.kind, ModelKind::Conditional);
                assert_eq!(spec.index_bits, 12);
                assert_eq!(spec.shards, 4);
            }
            other => panic!("expected train, got {other:?}"),
        }

        let request = parse(
            r#"{"verb":"predict","model":"m","records":[{"pc":64,"target":128,"kind":"cond","taken":true}]}"#,
        )
        .unwrap();
        match request.verb {
            Verb::Predict { records, .. } => {
                assert_eq!(records.len(), 1);
                assert!(records[0].is_conditional());
                assert!(records[0].taken());
            }
            other => panic!("expected predict, got {other:?}"),
        }

        assert!(matches!(
            parse(r#"{"verb":"update","model":"m","records":[]}"#).unwrap().verb,
            Verb::Update { .. }
        ));
        assert!(matches!(parse(r#"{"verb":"stats"}"#).unwrap().verb, Verb::Stats { model: None }));
        assert!(matches!(parse(r#"{"verb":"shutdown"}"#).unwrap().verb, Verb::Shutdown));
        assert!(matches!(parse(r#"{"verb":"ping"}"#).unwrap().verb, Verb::Ping));
        assert!(matches!(parse(r#"{"verb":"sync"}"#).unwrap().verb, Verb::Sync { model: None }));
        match parse(r#"{"verb":"sync","model":"m"}"#).unwrap().verb {
            Verb::Sync { model } => assert_eq!(model.as_deref(), Some("m")),
            other => panic!("expected sync, got {other:?}"),
        }
        assert_eq!(parse(r#"{"verb":"sync","model":7}"#).unwrap_err().phase(), "protocol");

        match parse(r#"{"verb":"save","path":"/tmp/m.vlps","model":"m"}"#).unwrap().verb {
            Verb::Save { path, model } => {
                assert_eq!(path, "/tmp/m.vlps");
                assert_eq!(model.as_deref(), Some("m"));
            }
            other => panic!("expected save, got {other:?}"),
        }
        assert!(matches!(
            parse(r#"{"verb":"save","path":"/tmp/m.vlps"}"#).unwrap().verb,
            Verb::Save { model: None, .. }
        ));
        assert!(matches!(
            parse(r#"{"verb":"load","path":"/tmp/m.vlps"}"#).unwrap().verb,
            Verb::Load { .. }
        ));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert_eq!(parse("not json").unwrap_err().phase(), "json-parse");
        assert_eq!(parse(r#"[1,2]"#).unwrap_err().phase(), "protocol");
        assert_eq!(parse(r#"{"no":"verb"}"#).unwrap_err().phase(), "protocol");
        assert_eq!(parse(r#"{"verb":"fly"}"#).unwrap_err().phase(), "protocol");
        assert_eq!(parse(r#"{"verb":"predict"}"#).unwrap_err().phase(), "protocol");
        assert_eq!(parse(r#"{"verb":"save"}"#).unwrap_err().phase(), "protocol");
        assert_eq!(parse(r#"{"verb":"load"}"#).unwrap_err().phase(), "protocol");
        assert_eq!(
            parse(r#"{"verb":"save","path":"p","model":7}"#).unwrap_err().phase(),
            "protocol"
        );
        let error = parse(r#"{"verb":"predict","model":"m","records":[{"pc":1}]}"#).unwrap_err();
        assert!(error.to_string().contains("target"), "{error}");
        let error = parse(
            r#"{"verb":"predict","model":"m","records":[{"pc":1,"target":2,"kind":"cond"}]}"#,
        )
        .unwrap_err();
        assert!(error.to_string().contains("taken"), "{error}");
        let error = parse(
            r#"{"verb":"train","model":"m","benchmark":"gcc","kind":"cond","index_bits":99}"#,
        )
        .unwrap_err();
        assert!(error.to_string().contains("index_bits"), "{error}");
    }

    #[test]
    fn train_takes_exactly_one_of_benchmark_and_trace() {
        let trained = parse(
            r#"{"verb":"train","model":"m","trace":"/tmp/t.vlpc","kind":"cond","index_bits":12}"#,
        )
        .unwrap();
        match trained.verb {
            Verb::Train(spec) => {
                assert_eq!(spec.trace.as_deref(), Some("/tmp/t.vlpc"));
                assert!(spec.benchmark.is_empty());
            }
            other => panic!("expected train, got {other:?}"),
        }
        for bad in [
            r#"{"verb":"train","model":"m","kind":"cond","index_bits":12}"#,
            r#"{"verb":"train","model":"m","benchmark":"gcc","trace":"/tmp/t.vlpc",
                "kind":"cond","index_bits":12}"#,
            r#"{"verb":"train","model":"m","trace":7,"kind":"cond","index_bits":12}"#,
        ] {
            let error = parse(bad).unwrap_err();
            assert_eq!(error.phase(), "protocol", "{bad}");
        }
    }

    #[test]
    fn records_round_trip_through_the_wire_form() {
        let records = [
            BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1040), false),
            BranchRecord::indirect(Addr::new(0x2000), Addr::new(0x3000)),
            BranchRecord::call(Addr::new(0x4000), Addr::new(0x5000)),
            BranchRecord::ret(Addr::new(0x5004), Addr::new(0x4004)),
            BranchRecord::unconditional(Addr::new(0x6000), Addr::new(0x7000)),
        ];
        for record in &records {
            let text = record_to_json(record).to_string();
            let back = record_from_json(&JsonRef::parse(&text).unwrap(), "predict").unwrap();
            assert_eq!(&back, record);
        }
    }

    #[test]
    fn responses_echo_ids_and_carry_error_phases() {
        let ok = ok_response("stats", Some(3), vec![]);
        assert_eq!(ok.get("ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(ok.get("id").and_then(|v| v.as_u64()), Some(3));

        let error = VlppError::protocol(Some("predict".to_string()), "unknown model");
        let response = error_response(None, &error);
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
        let phase = response.get("error").and_then(|e| e.get("phase")).and_then(|v| v.as_str());
        assert_eq!(phase, Some("protocol"));
    }
}
