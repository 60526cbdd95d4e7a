//! `vlpp loadgen` — a deterministic load generator and correctness
//! oracle for `vlpp serve` and `vlpp cluster`.
//!
//! The client trains a model on the server, replays a synthetic test
//! trace through it over N concurrent connections, and asserts that
//! every served prediction is byte-identical to the offline reference
//! ([`Model::apply_sequential`] over the same records, in trace order).
//!
//! # Why the comparison is exact
//!
//! Records are partitioned by *shard*: connection `c` carries exactly
//! the records of shards `s` with `s % connections == c`, each in trace
//! order. Every shard is therefore driven by one connection, so the
//! server sees each shard's sub-stream in trace order no matter how the
//! connections' batches interleave — which is precisely the determinism
//! contract of [`super::model`]. Batch sizes are randomized (seeded,
//! reproducible) to exercise batching boundaries, and every
//! `--update-every`-th batch goes through the `update` verb to check
//! that its state transition matches `predict`'s.
//!
//! # Cluster mode
//!
//! With `--routing FILE` (the table `vlpp cluster` emits) the same
//! oracle drives a cluster: per shard, `predict` goes to the primary
//! node and the identical batch goes to the replica via `update`, so
//! both kernels see the shard's sub-stream exactly once and stay
//! byte-identical. When a node dies mid-run (`--kill NODE` SIGKILLs
//! one after `--kill-after` batches), the survivor takes over —
//! because it holds the same state the primary had at the last batch
//! boundary, the oracle must still hold bit-for-bit, and the final
//! per-shard counters must match the offline reference shard by shard.
//!
//! # Resilience
//!
//! Every socket carries `--io-timeout-ms` read/write deadlines, so a
//! wedged server surfaces as a typed timeout instead of a hang.
//! Connect failures retry with backoff under a `--retries` budget
//! (single-server mode). In cluster mode, `--wait-respawn MS` switches
//! the failure policy from fail-over to self-heal: a worker that hits
//! a dead node pauses its shard, polls the routing file until the
//! supervisor publishes a strictly newer version with the node's pid
//! replaced, and resumes against the warm-started replacement — which
//! is what lets the oracle stay byte-exact across a kill + respawn +
//! snapshot-resync cycle. Tables whose version does not advance are
//! rejected as stale, never adopted.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use vlpp_check::rng::mix;
use vlpp_check::XorShift64;
use vlpp_trace::frame::{read_frame, write_frame};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{BranchRecord, VlppError};

use super::model::{Model, ModelKind, ModelSpec};
use super::protocol::record_to_json;
use super::routing::RoutingTable;
use super::ListenSpec;
use crate::experiment::{Scale, Workloads};

/// Parsed `vlpp loadgen` options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// The server to drive (from `--addr` or `--uds`; ignored in
    /// cluster mode, where `--routing` carries the addresses).
    pub target: Option<ListenSpec>,
    /// Concurrent connections (worker threads in cluster mode).
    pub connections: usize,
    /// Benchmark whose test trace is replayed.
    pub benchmark: String,
    /// Population to predict.
    pub kind: ModelKind,
    /// Prediction-table index width.
    pub index_bits: u32,
    /// Model shard count. `None` means: adopt the server's (with
    /// `--no-train`) or the routing table's (cluster mode) or default
    /// to `connections` (fresh train) — never silently guess against a
    /// model that already exists.
    pub shards: Option<usize>,
    /// Records taken from the head of the test trace (including the
    /// skipped prefix).
    pub records: usize,
    /// Records at the head *not* sent to the server (the offline
    /// reference still replays them — the warm-restart oracle).
    pub skip: usize,
    /// Maximum records per batch (actual sizes are seeded-random in
    /// `1..=batch`).
    pub batch: usize,
    /// Seed for the batch-size stream.
    pub seed: u64,
    /// Send every Nth batch via `update` instead of `predict`
    /// (0 = always predict; ignored in cluster mode).
    pub update_every: usize,
    /// Workload scale (must match the server's).
    pub scale: Scale,
    /// Drive a pre-trained model instead of training one.
    pub no_train: bool,
    /// After the replay, ask the server to snapshot to this path.
    pub save: Option<String>,
    /// Cluster mode: the routing-table file `vlpp cluster` wrote.
    pub routing: Option<PathBuf>,
    /// Cluster mode: SIGKILL this node id mid-run.
    pub kill: Option<String>,
    /// Cluster mode: batches to complete before the kill fires.
    pub kill_after: u64,
    /// Send `shutdown` after the run.
    pub shutdown: bool,
    /// Socket read/write deadline on every connection, in milliseconds
    /// (0 = unbounded). A call that outlives the deadline surfaces as a
    /// typed timeout error instead of hanging the run.
    pub io_timeout_ms: u64,
    /// Connect retry budget: refused or timed-out connect attempts are
    /// retried with backoff this many times (single-server mode only —
    /// in cluster mode a refused connect *is* the death signal the
    /// failover logic feeds on, so it is never retried in place).
    pub retries: u32,
    /// Base backoff between connect retries, in milliseconds; doubles
    /// per attempt.
    pub retry_backoff_ms: u64,
    /// Cluster mode: when a node dies, wait up to this long for the
    /// supervisor to respawn it (observed as a routing-table version
    /// bump with a new pid) and retry on the replacement, instead of
    /// failing over to the partner (0 = fail over immediately).
    pub wait_respawn_ms: u64,
}

const LOADGEN_USAGE: &str = "\
usage: vlpp loadgen (--addr HOST:PORT | --uds PATH | --routing FILE)
                    [--connections N] [--benchmark NAME] [--kind cond|ind]
                    [--index-bits N] [--shards N] [--records N] [--skip N]
                    [--batch N] [--seed N] [--update-every K] [--scale N]
                    [--no-train] [--save FILE]
                    [--kill NODE --kill-after BATCHES] [--shutdown]
                    [--io-timeout-ms MS] [--retries N] [--retry-backoff-ms MS]
                    [--wait-respawn MS]

Trains a model on the server (or adopts a pre-trained one with
--no-train), replays a synthetic trace over N connections, and fails
unless every served prediction is byte-identical to the offline
reference. With --routing the same oracle drives a `vlpp cluster`:
predict goes to each shard's primary, the identical batch to its
replica, and --kill proves the oracle holds across a failover. Prints
one `LOADGEN {json}` summary line.
";

fn cli_error(message: impl Into<String>) -> VlppError {
    VlppError::Cli { message: message.into() }
}

/// Parses `vlpp loadgen` arguments. Counts that must be positive are
/// *rejected* at zero with a typed error — never silently clamped to 1,
/// which would run something other than what was asked for.
///
/// # Errors
///
/// [`VlppError::Cli`] on unknown flags, malformed or out-of-range
/// values, or a missing target address.
pub fn parse_loadgen_args(args: &[String]) -> Result<LoadgenOptions, VlppError> {
    let mut options = LoadgenOptions {
        target: None,
        connections: 4,
        benchmark: "compress".to_string(),
        kind: ModelKind::Conditional,
        index_bits: 10,
        shards: None,
        records: 20_000,
        skip: 0,
        batch: 256,
        seed: 0x5eed_1e77,
        update_every: 0,
        scale: Scale::from_env(),
        no_train: false,
        save: None,
        routing: None,
        kill: None,
        kill_after: 4,
        shutdown: false,
        io_timeout_ms: 10_000,
        retries: 3,
        retry_backoff_ms: 100,
        wait_respawn_ms: 0,
    };

    fn parse_num<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, VlppError> {
        value
            .and_then(|v| v.parse::<T>().ok())
            .ok_or_else(|| cli_error(format!("{flag} needs a number")))
    }

    fn parse_positive(value: Option<&String>, flag: &str) -> Result<usize, VlppError> {
        let n = parse_num::<usize>(value, flag)?;
        if n == 0 {
            return Err(cli_error(format!(
                "{flag} must be at least 1 (got 0; refusing to guess what zero means)"
            )));
        }
        Ok(n)
    }

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let addr = iter.next().ok_or_else(|| cli_error("--addr needs HOST:PORT"))?;
                options.target = Some(ListenSpec::Tcp(addr.clone()));
            }
            "--uds" => {
                let path = iter.next().ok_or_else(|| cli_error("--uds needs a socket path"))?;
                options.target = Some(ListenSpec::Unix(PathBuf::from(path)));
            }
            "--routing" => {
                let path = iter.next().ok_or_else(|| cli_error("--routing needs a file path"))?;
                options.routing = Some(PathBuf::from(path));
            }
            "--connections" => {
                options.connections = parse_positive(iter.next(), "--connections")?;
            }
            "--benchmark" => {
                options.benchmark =
                    iter.next().ok_or_else(|| cli_error("--benchmark needs a name"))?.clone();
            }
            "--kind" => {
                let name = iter.next().ok_or_else(|| cli_error("--kind needs cond|ind"))?;
                options.kind = ModelKind::from_name(name)
                    .ok_or_else(|| cli_error(format!("unknown kind `{name}` (cond|ind)")))?;
            }
            "--index-bits" => options.index_bits = parse_num::<u32>(iter.next(), "--index-bits")?,
            "--shards" => options.shards = Some(parse_positive(iter.next(), "--shards")?),
            "--records" => options.records = parse_num::<usize>(iter.next(), "--records")?,
            "--skip" => options.skip = parse_num::<usize>(iter.next(), "--skip")?,
            "--batch" => options.batch = parse_positive(iter.next(), "--batch")?,
            "--seed" => options.seed = parse_num::<u64>(iter.next(), "--seed")?,
            "--update-every" => {
                options.update_every = parse_num::<usize>(iter.next(), "--update-every")?
            }
            "--scale" => {
                let divisor = parse_num::<u64>(iter.next(), "--scale")?;
                if divisor == 0 {
                    return Err(cli_error(
                        "--scale must be at least 1 (got 0; refusing to guess what zero means)",
                    ));
                }
                options.scale = Scale::new(divisor);
            }
            "--no-train" => options.no_train = true,
            "--save" => {
                let path = iter.next().ok_or_else(|| cli_error("--save needs a file path"))?;
                options.save = Some(path.clone());
            }
            "--kill" => {
                let node = iter.next().ok_or_else(|| cli_error("--kill needs a node id"))?;
                options.kill = Some(node.clone());
            }
            "--kill-after" => options.kill_after = parse_num::<u64>(iter.next(), "--kill-after")?,
            "--shutdown" => options.shutdown = true,
            "--io-timeout-ms" => {
                options.io_timeout_ms = parse_num::<u64>(iter.next(), "--io-timeout-ms")?
            }
            "--retries" => options.retries = parse_num::<u32>(iter.next(), "--retries")?,
            "--retry-backoff-ms" => {
                options.retry_backoff_ms = parse_num::<u64>(iter.next(), "--retry-backoff-ms")?
            }
            "--wait-respawn" => {
                options.wait_respawn_ms = parse_num::<u64>(iter.next(), "--wait-respawn")?
            }
            "--help" | "-h" => return Err(cli_error(LOADGEN_USAGE)),
            other => {
                return Err(cli_error(format!("unexpected argument `{other}`\n{LOADGEN_USAGE}")))
            }
        }
    }
    if options.routing.is_none() {
        if options.target.is_none() {
            return Err(cli_error(format!("missing --addr/--uds/--routing\n{LOADGEN_USAGE}")));
        }
        if options.kill.is_some() {
            return Err(cli_error("--kill needs cluster mode (--routing FILE)"));
        }
        if options.wait_respawn_ms > 0 {
            return Err(cli_error("--wait-respawn needs cluster mode (--routing FILE)"));
        }
    }
    if options.skip >= options.records && options.records > 0 {
        return Err(cli_error(format!(
            "--skip {} leaves nothing of the {} records to send",
            options.skip, options.records
        )));
    }
    Ok(options)
}

/// One framed-protocol client connection. Shared with `vlpp cluster`,
/// whose supervisor speaks the same wire protocol for `ping` probes and
/// `sync` snapshot pulls.
pub(crate) struct Client {
    conn: super::Conn,
    next_id: u64,
}

impl Client {
    /// Connects once, arming `io_timeout_ms` read/write deadlines on
    /// the socket (0 = unbounded). TCP streams get `TCP_NODELAY`, so
    /// frames written back to back never wait on the peer's delayed ACK.
    pub(crate) fn connect(target: &ListenSpec, io_timeout_ms: u64) -> Result<Client, VlppError> {
        let conn = match target {
            ListenSpec::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|source| VlppError::io(addr, "connect", source))?;
                let _ = stream.set_nodelay(true);
                super::Conn::Tcp(stream)
            }
            #[cfg(unix)]
            ListenSpec::Unix(path) => UnixStream::connect(path)
                .map(super::Conn::Unix)
                .map_err(|source| VlppError::io(path.clone(), "connect", source))?,
            #[cfg(not(unix))]
            ListenSpec::Unix(path) => {
                return Err(cli_error(format!(
                    "unix socket {} unsupported on this target",
                    path.display()
                )));
            }
        };
        conn.set_timeouts(io_timeout_ms);
        Ok(Client { conn, next_id: 1 })
    }

    /// Connects with a retry budget: a transport-level connect failure
    /// (refused, reset, timed out) backs off and retries up to
    /// `retries` times, doubling `backoff_ms` per attempt and counting
    /// each retry in `loadgen.retries`. Only *connects* retry — a verb
    /// call is never replayed, because `predict`/`update` mutate model
    /// state and a blind replay would double-apply a batch.
    pub(crate) fn connect_retry(
        target: &ListenSpec,
        io_timeout_ms: u64,
        retries: u32,
        backoff_ms: u64,
    ) -> Result<Client, VlppError> {
        let mut attempt = 0u32;
        loop {
            match Client::connect(target, io_timeout_ms) {
                Ok(client) => return Ok(client),
                Err(error @ VlppError::Io { .. }) if attempt < retries => {
                    attempt += 1;
                    vlpp_metrics::counter("loadgen.retries").incr();
                    let wait = backoff_ms.saturating_mul(1u64 << (attempt - 1).min(6));
                    eprintln!(
                        "loadgen: connect failed ({error}); retry {attempt}/{retries} in {wait}ms"
                    );
                    thread::sleep(std::time::Duration::from_millis(wait));
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Calls the `sync` verb and reassembles the streamed snapshot:
    /// reads the response header, then the `chunks` binary frames that
    /// follow it, and checks the reassembled length against the
    /// header's declared `bytes`. Returns the raw VLPS envelope bytes
    /// and the header.
    pub(crate) fn fetch_sync(
        &mut self,
        model: Option<&str>,
    ) -> Result<(Vec<u8>, JsonValue), VlppError> {
        let mut fields = Vec::new();
        if let Some(model) = model {
            fields.push(("model".to_string(), JsonValue::Str(model.to_string())));
        }
        let sync_error = |message: String| VlppError::protocol(Some("sync".to_string()), message);
        let response = self.call("sync", fields)?;
        let declared = response
            .get("bytes")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| sync_error("sync response has no byte count".to_string()))?;
        let chunks = response
            .get("chunks")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| sync_error("sync response has no chunk count".to_string()))?;
        // A chunk is never empty, so more chunks than bytes (or a
        // multi-gigabyte claim) is a damaged or hostile header — bound
        // the read before allocating anything.
        if declared > 1 << 31 || chunks > declared || (declared > 0 && chunks == 0) {
            return Err(sync_error(format!(
                "implausible sync header: {declared} bytes in {chunks} chunks"
            )));
        }
        let mut bytes = Vec::with_capacity(declared as usize);
        for index in 0..chunks {
            let frame = read_frame(&mut self.conn)?.ok_or_else(|| {
                sync_error(format!("sync stream ended at chunk {index} of {chunks}"))
            })?;
            bytes.extend_from_slice(&frame);
        }
        if bytes.len() as u64 != declared {
            return Err(sync_error(format!(
                "sync stream reassembled {} bytes, header declared {declared}",
                bytes.len()
            )));
        }
        Ok((bytes, response))
    }

    /// Sends one request object and reads its response, checking the
    /// echoed id and the `ok` flag.
    pub(crate) fn call(
        &mut self,
        verb: &str,
        mut fields: Vec<(String, JsonValue)>,
    ) -> Result<JsonValue, VlppError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut request = vec![
            ("verb".to_string(), JsonValue::Str(verb.to_string())),
            ("id".to_string(), JsonValue::UInt(id)),
        ];
        request.append(&mut fields);
        write_frame(&mut self.conn, JsonValue::Object(request).to_string().as_bytes())?;
        let payload = read_frame(&mut self.conn)?.ok_or_else(|| {
            VlppError::protocol(
                Some(verb.to_string()),
                "server closed the connection before responding",
            )
        })?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| VlppError::protocol(Some(verb.to_string()), "response is not UTF-8"))?;
        let response = JsonValue::parse(text)
            .map_err(|source| VlppError::Json { what: "response frame".to_string(), source })?;
        if response.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            let detail = response
                .get("error")
                .map(|error| error.to_json_string())
                .unwrap_or_else(|| response.to_json_string());
            return Err(VlppError::protocol(
                Some(verb.to_string()),
                format!("server error: {detail}"),
            ));
        }
        if response.get("id").and_then(|v| v.as_u64()) != Some(id) {
            return Err(VlppError::protocol(
                Some(verb.to_string()),
                "response id does not match the request (reordered responses?)",
            ));
        }
        Ok(response)
    }
}

/// What one connection thread did.
struct ConnReport {
    /// `(trace_index, served prediction rendered compactly)` for every
    /// record that went through `predict`.
    served: Vec<(usize, String)>,
    batches: u64,
    predicted: u64,
    updated: u64,
    failovers: u64,
}

fn records_json(batch: &[(usize, BranchRecord)]) -> JsonValue {
    JsonValue::Array(batch.iter().map(|(_, record)| record_to_json(record)).collect())
}

fn batch_body(model: &str, batch: &[(usize, BranchRecord)]) -> Vec<(String, JsonValue)> {
    vec![
        ("model".to_string(), JsonValue::Str(model.to_string())),
        ("records".to_string(), records_json(batch)),
    ]
}

/// Extracts and oracle-checks the predictions array of one `predict`
/// response.
fn collect_predictions(
    response: &JsonValue,
    batch: &[(usize, BranchRecord)],
    report: &mut ConnReport,
) -> Result<(), VlppError> {
    let predictions = response.get("predictions").and_then(|p| p.as_array()).ok_or_else(|| {
        VlppError::protocol(
            Some("predict".to_string()),
            "response is missing its predictions array",
        )
    })?;
    if predictions.len() != batch.len() {
        return Err(VlppError::protocol(
            Some("predict".to_string()),
            format!("sent {} records, got {} predictions", batch.len(), predictions.len()),
        ));
    }
    for ((index, _), prediction) in batch.iter().zip(predictions) {
        report.served.push((*index, prediction.to_json_string()));
    }
    report.predicted += batch.len() as u64;
    Ok(())
}

fn drive_connection(
    target: &ListenSpec,
    model: &str,
    work: &[(usize, BranchRecord)],
    options: &LoadgenOptions,
    mut rng: XorShift64,
) -> Result<ConnReport, VlppError> {
    let batch_max = options.batch;
    let update_every = options.update_every;
    let mut client = Client::connect_retry(
        target,
        options.io_timeout_ms,
        options.retries,
        options.retry_backoff_ms,
    )?;
    let mut report = ConnReport {
        served: Vec::with_capacity(work.len()),
        batches: 0,
        predicted: 0,
        updated: 0,
        failovers: 0,
    };
    let mut cursor = 0usize;
    while cursor < work.len() {
        let size = (1 + rng.next_u64() % batch_max as u64) as usize;
        let batch = &work[cursor..(cursor + size).min(work.len())];
        cursor += batch.len();
        report.batches += 1;
        let is_update = update_every > 0 && report.batches.is_multiple_of(update_every as u64);
        if is_update {
            client.call("update", batch_body(model, batch))?;
            report.updated += batch.len() as u64;
            continue;
        }
        let response = client.call("predict", batch_body(model, batch))?;
        collect_predictions(&response, batch, &mut report)?;
    }
    Ok(report)
}

/// `vlpp loadgen` entry point.
///
/// # Errors
///
/// [`VlppError::Cli`] for bad arguments or a failed run (prediction
/// mismatches, stats divergence); transport and protocol errors pass
/// through typed.
pub fn loadgen_main(args: &[String]) -> Result<(), VlppError> {
    let options = parse_loadgen_args(args)?;
    let summary = run_loadgen(&options)?;
    println!("LOADGEN {summary}");
    Ok(())
}

/// The offline reference and the record stream the run replays.
struct Reference {
    spec: ModelSpec,
    model: Model,
    records: Vec<BranchRecord>,
    expected: Vec<String>,
}

impl Reference {
    fn build(options: &LoadgenOptions, spec: ModelSpec) -> Result<Reference, VlppError> {
        // The offline reference: the same model code, driven
        // sequentially in trace order. Profiling is deterministic, so
        // this instance is state-identical to the one the server
        // trained (or snapshotted).
        let workloads = Workloads::new(options.scale);
        let model = Model::train(spec.clone(), &workloads)?;
        let benchmark = vlpp_synth::suite::benchmark(&spec.benchmark)
            .ok_or_else(|| cli_error(format!("unknown benchmark `{}`", spec.benchmark)))?;
        let records: Vec<BranchRecord> =
            workloads.test_trace(&benchmark).iter().take(options.records).copied().collect();
        if records.len() <= options.skip {
            return Err(cli_error(format!(
                "no records to replay ({} records, {} skipped)",
                records.len(),
                options.skip
            )));
        }
        let expected: Vec<String> = model
            .apply_sequential(&records)
            .iter()
            .map(|slot| slot.to_json())
            .map(|json| json.to_string())
            .collect();
        Ok(Reference { spec, model, records, expected })
    }

    /// Partitions the *unskipped* tail by shard, then folds the shard
    /// streams onto `buckets` workers: bucket `c` owns shards
    /// `s % buckets == c`, each shard's records in trace order.
    fn partitions(&self, skip: usize, buckets: usize) -> Vec<Vec<(usize, BranchRecord)>> {
        let mut partitions: Vec<Vec<(usize, BranchRecord)>> = vec![Vec::new(); buckets];
        for (index, record) in self.records.iter().enumerate().skip(skip) {
            let shard = self.model.owner(record.pc());
            partitions[shard % buckets].push((index, *record));
        }
        partitions
    }
}

/// Resolves the model spec the run drives, satisfying the shard
/// contract *before* any record is sent:
///
/// - Fresh train: `--shards` (default `connections`) is authoritative;
///   the server's train response must echo it back.
/// - `--no-train`: the server's existing model is authoritative; its
///   spec is fetched over the `stats` verb at connect time, and a
///   conflicting explicit flag is a fail-fast error — silently driving
///   a model whose shard count differs from the router's would send
///   records to the wrong shard and (rightly) fail the oracle later,
///   but with a far worse diagnostic.
fn resolve_spec(
    options: &LoadgenOptions,
    control: &mut Client,
    name: &str,
) -> Result<ModelSpec, VlppError> {
    if !options.no_train {
        let shards = options.shards.unwrap_or(options.connections);
        let spec = ModelSpec {
            name: name.to_string(),
            benchmark: options.benchmark.clone(),
            trace: None,
            kind: options.kind,
            index_bits: options.index_bits,
            shards,
        };
        let response = train_on(control, &spec)?;
        let echoed = response.get("shards").and_then(|v| v.as_u64());
        if echoed != Some(shards as u64) {
            return Err(cli_error(format!(
                "shard mismatch: asked the server to train {shards} shards, it trained {echoed:?}"
            )));
        }
        return Ok(spec);
    }
    let response =
        control.call("stats", vec![("model".to_string(), JsonValue::Str(name.to_string()))])?;
    let stats = response.get("stats").cloned().ok_or_else(|| {
        VlppError::protocol(Some("stats".to_string()), "stats response has no stats object")
    })?;
    let server_shards = stats.get("shards").and_then(|v| v.as_u64()).ok_or_else(|| {
        VlppError::protocol(Some("stats".to_string()), "stats response has no shard count")
    })? as usize;
    if let Some(asked) = options.shards {
        if asked != server_shards {
            return Err(cli_error(format!(
                "shard mismatch: server model `{name}` has {server_shards} shards, \
                 --shards says {asked}; records would be routed to the wrong shard \
                 (drop --shards to adopt the server's count)"
            )));
        }
    }
    let server_benchmark =
        stats.get("benchmark").and_then(|v| v.as_str()).unwrap_or_default().to_string();
    let server_kind = stats.get("kind").and_then(|v| v.as_str()).unwrap_or_default().to_string();
    let server_bits = stats.get("index_bits").and_then(|v| v.as_u64()).unwrap_or_default() as u32;
    if server_benchmark != options.benchmark {
        return Err(cli_error(format!(
            "benchmark mismatch: server model `{name}` was trained on `{server_benchmark}`, \
             loadgen is replaying `{}`",
            options.benchmark
        )));
    }
    let kind = ModelKind::from_name(&server_kind)
        .ok_or_else(|| cli_error(format!("server reports unknown kind `{server_kind}`")))?;
    if kind != options.kind {
        return Err(cli_error(format!(
            "kind mismatch: server model `{name}` is `{server_kind}`, --kind says `{}`",
            options.kind.name()
        )));
    }
    if server_bits != options.index_bits {
        return Err(cli_error(format!(
            "index-bits mismatch: server model `{name}` has {server_bits}, \
             --index-bits says {}",
            options.index_bits
        )));
    }
    Ok(ModelSpec {
        name: name.to_string(),
        benchmark: options.benchmark.clone(),
        trace: None,
        kind,
        index_bits: server_bits,
        shards: server_shards,
    })
}

fn train_on(client: &mut Client, spec: &ModelSpec) -> Result<JsonValue, VlppError> {
    client.call(
        "train",
        vec![
            ("model".to_string(), JsonValue::Str(spec.name.clone())),
            ("benchmark".to_string(), JsonValue::Str(spec.benchmark.clone())),
            ("kind".to_string(), JsonValue::Str(spec.kind.name().to_string())),
            ("index_bits".to_string(), JsonValue::UInt(spec.index_bits as u64)),
            ("shards".to_string(), JsonValue::UInt(spec.shards as u64)),
        ],
    )
}

/// Runs the full loadgen cycle, returning the summary document.
///
/// # Errors
///
/// See [`loadgen_main`].
pub fn run_loadgen(options: &LoadgenOptions) -> Result<JsonValue, VlppError> {
    if options.routing.is_some() {
        return run_cluster_loadgen(options);
    }
    let target = options
        .target
        .clone()
        .ok_or_else(|| cli_error("missing --addr/--uds (single-server mode)"))?;
    vlpp_metrics::counter("loadgen.retries");
    let mut control = Client::connect_retry(
        &target,
        options.io_timeout_ms,
        options.retries,
        options.retry_backoff_ms,
    )?;
    let spec = resolve_spec(options, &mut control, "loadgen")?;
    let reference = Reference::build(options, spec)?;
    let partitions = reference.partitions(options.skip, options.connections);

    let reports: Vec<Result<ConnReport, VlppError>> = thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(c, work)| {
                let rng = XorShift64::new(options.seed ^ mix(c as u64 + 1));
                let target = &target;
                let spec = &reference.spec;
                scope.spawn(move || drive_connection(target, &spec.name, work, options, rng))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    Err(VlppError::protocol(None, "a loadgen connection thread panicked"))
                })
            })
            .collect()
    });

    let mut tally = Tally::default();
    for report in reports {
        tally.absorb(report?, &reference.expected);
    }

    // Cross-check the aggregate counters: the server saw every record
    // exactly once (the skipped prefix through the snapshot it warmed
    // from), so its stats must equal the offline reference's.
    let stats = control
        .call("stats", vec![("model".to_string(), JsonValue::Str(reference.spec.name.clone()))])?;
    let served_stats = stats.get("stats").cloned().unwrap_or(JsonValue::Null);
    let stats_match = served_stats.to_string() == reference.model.stats_json().to_string();

    let mut extra = Vec::new();
    if let Some(path) = &options.save {
        let response = control.call(
            "save",
            vec![
                ("path".to_string(), JsonValue::Str(path.clone())),
                ("model".to_string(), JsonValue::Str(reference.spec.name.clone())),
            ],
        )?;
        extra.push(("saved".to_string(), JsonValue::Str(path.clone())));
        extra.push((
            "snapshot_bytes".to_string(),
            response.get("bytes").cloned().unwrap_or(JsonValue::Null),
        ));
    }
    if options.shutdown {
        control.call("shutdown", vec![])?;
    }
    finish_summary(options, &reference, tally, stats_match, extra)
}

/// Mismatch accounting shared by both modes.
#[derive(Default)]
struct Tally {
    batches: u64,
    predicted: u64,
    updated: u64,
    failovers: u64,
    mismatches: u64,
    first_mismatch: Option<(usize, String)>,
}

impl Tally {
    fn absorb(&mut self, report: ConnReport, expected: &[String]) {
        self.batches += report.batches;
        self.predicted += report.predicted;
        self.updated += report.updated;
        self.failovers += report.failovers;
        for (index, served) in report.served {
            if served != expected[index] {
                self.mismatches += 1;
                if self.first_mismatch.is_none() {
                    self.first_mismatch = Some((index, served.clone()));
                }
            }
        }
    }
}

fn finish_summary(
    options: &LoadgenOptions,
    reference: &Reference,
    tally: Tally,
    stats_match: bool,
    extra: Vec<(String, JsonValue)>,
) -> Result<JsonValue, VlppError> {
    let mut summary = vec![
        ("connections".to_string(), JsonValue::UInt(options.connections as u64)),
        ("shards".to_string(), JsonValue::UInt(reference.spec.shards as u64)),
        ("records".to_string(), JsonValue::UInt(reference.records.len() as u64)),
        ("skipped".to_string(), JsonValue::UInt(options.skip as u64)),
        ("batches".to_string(), JsonValue::UInt(tally.batches)),
        ("predicted".to_string(), JsonValue::UInt(tally.predicted)),
        ("updated".to_string(), JsonValue::UInt(tally.updated)),
        ("failovers".to_string(), JsonValue::UInt(tally.failovers)),
        ("mismatches".to_string(), JsonValue::UInt(tally.mismatches)),
        ("stats_match".to_string(), JsonValue::Bool(stats_match)),
    ];
    summary.extend(extra);
    if let Some((index, served)) = tally.first_mismatch {
        let record = &reference.records[index];
        summary.push((
            "first_mismatch".to_string(),
            JsonValue::Object(vec![
                ("index".to_string(), JsonValue::UInt(index as u64)),
                ("shard".to_string(), JsonValue::UInt(reference.model.owner(record.pc()) as u64)),
                ("served".to_string(), JsonValue::Str(served)),
                ("expected".to_string(), JsonValue::Str(reference.expected[index].clone())),
            ]),
        ));
    }
    let summary = JsonValue::Object(summary);
    if tally.mismatches > 0 || !stats_match {
        return Err(cli_error(format!(
            "served predictions diverged from the offline reference: LOADGEN {summary}"
        )));
    }
    Ok(summary)
}

// ---------------------------------------------------------------------
// Cluster mode
// ---------------------------------------------------------------------

/// Whether an error means "the node died" (failover) rather than "the
/// run is wrong" (fail). Transport errors and mid-frame closes are
/// deaths; a clean protocol-level error from a live server is not.
fn is_connection_death(error: &VlppError) -> bool {
    match error {
        VlppError::Io { .. } | VlppError::Frame { .. } => true,
        VlppError::Protocol { message, .. } => message.contains("closed the connection"),
        _ => false,
    }
}

/// Typed degraded-mode error: both owners of a shard are down and no
/// replacement has been promoted, so the shard's sub-stream cannot make
/// progress. The `shard_unavailable:` prefix is the stable grammar
/// tests and operators match on.
fn shard_unavailable(verb: &str, shard: usize, primary: &str, replica: &str) -> VlppError {
    VlppError::protocol(
        Some(verb.to_string()),
        format!(
            "shard_unavailable: shard {shard} has no live owner \
             (primary `{primary}` and replica `{replica}` are both down)"
        ),
    )
}

/// Cluster-wide shared state: the current routing table (re-read from
/// disk as the supervisor rewrites it), who is known dead, and the
/// global batch counter the killer thread watches.
struct ClusterCtx {
    /// The routing file `vlpp cluster` owns — the supervisor rewrites
    /// it (with a bumped version) on every membership change.
    routing_path: PathBuf,
    table: Mutex<RoutingTable>,
    dead: Mutex<HashSet<String>>,
    batches_done: AtomicU64,
    io_timeout_ms: u64,
    wait_respawn_ms: u64,
}

impl ClusterCtx {
    /// Reads and validates a routing-table file.
    fn load_table(path: &std::path::Path) -> Result<RoutingTable, VlppError> {
        let text = std::fs::read_to_string(path)
            .map_err(|source| VlppError::io(path.to_path_buf(), "read", source))?;
        let value = JsonValue::parse(text.trim())
            .map_err(|source| VlppError::Json { what: "routing table".to_string(), source })?;
        RoutingTable::from_json(&value).map_err(|message| {
            cli_error(format!("bad routing table {}: {message}", path.display()))
        })
    }

    fn version(&self) -> u64 {
        lock(&self.table).version()
    }

    /// The shard's owner ids, `(primary, replica)`. These are stable
    /// across respawns — the supervisor replaces a node's addr/pid
    /// under the same id precisely so assignments never move.
    fn owners(&self, shard: usize) -> (String, String) {
        let table = lock(&self.table);
        (table.primary(shard).id.clone(), table.replica(shard).id.clone())
    }

    fn addr_of(&self, id: &str) -> Option<String> {
        lock(&self.table).nodes().iter().find(|n| n.id == id).map(|n| n.addr.clone())
    }

    fn is_dead(&self, id: &str) -> bool {
        lock(&self.dead).contains(id)
    }

    fn mark_dead(&self, id: &str) {
        vlpp_metrics::counter("cluster.failovers").incr();
        if lock(&self.dead).insert(id.to_string()) {
            eprintln!("loadgen: node `{id}` stopped answering; failing over");
        }
    }

    /// Re-reads the routing file and adopts it only if its version is
    /// *strictly newer* — a stale or unreadable file never regresses
    /// the in-memory view. A node whose pid changed in the new table is
    /// a promoted replacement, so its dead mark is cleared and traffic
    /// may route to it again. Returns whether a newer table was
    /// adopted.
    fn try_reload(&self) -> bool {
        let Ok(incoming) = Self::load_table(&self.routing_path) else { return false };
        let mut table = lock(&self.table);
        if incoming.version() <= table.version() {
            return false;
        }
        let mut dead = lock(&self.dead);
        for node in incoming.nodes() {
            let respawned =
                table.nodes().iter().any(|old| old.id == node.id && old.pid != node.pid);
            if respawned && dead.remove(&node.id) {
                eprintln!(
                    "loadgen: adopted routing v{}; `{}` respawned at {}",
                    incoming.version(),
                    node.id,
                    node.addr
                );
            }
        }
        *table = incoming;
        true
    }

    /// Blocks until the supervisor promotes a replacement for `id`
    /// (its dead mark clears via [`try_reload`](Self::try_reload)) or
    /// the `--wait-respawn` budget runs out, which is a typed error —
    /// a worker must never wait forever on a cluster that has stopped
    /// healing.
    fn await_respawn(&self, id: &str, shard: usize) -> Result<(), VlppError> {
        let deadline =
            std::time::Instant::now() + std::time::Duration::from_millis(self.wait_respawn_ms);
        loop {
            self.try_reload();
            if !self.is_dead(id) {
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(VlppError::protocol(
                    None,
                    format!(
                        "waited {}ms for node `{id}` (shard {shard}) to respawn; \
                         the routing table never advanced past version {}",
                        self.wait_respawn_ms,
                        self.version()
                    ),
                ));
            }
            thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// A worker's lazily-connected clients, one per node.
struct NodePool<'a> {
    ctx: &'a ClusterCtx,
    clients: HashMap<String, Client>,
}

impl<'a> NodePool<'a> {
    fn new(ctx: &'a ClusterCtx) -> Self {
        NodePool { ctx, clients: HashMap::new() }
    }

    /// Calls `verb` on the node named `id`, translating node death into
    /// `Err(None)` (so the caller fails over) and real errors into
    /// `Err(Some(error))`.
    fn call(
        &mut self,
        id: &str,
        verb: &str,
        fields: Vec<(String, JsonValue)>,
    ) -> Result<JsonValue, Option<VlppError>> {
        if self.ctx.is_dead(id) {
            return Err(None);
        }
        let client = match self.clients.entry(id.to_string()) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                // Resolve the address at connect time: after a respawn
                // the id survives but the addr does not. No retry
                // budget here — in cluster mode a refused connect *is*
                // the death signal failover feeds on.
                let addr = self
                    .ctx
                    .addr_of(id)
                    .ok_or_else(|| Some(cli_error(format!("unknown node `{id}`"))))?;
                match Client::connect(&ListenSpec::Tcp(addr), self.ctx.io_timeout_ms) {
                    Ok(client) => slot.insert(client),
                    Err(error) if is_connection_death(&error) => {
                        self.ctx.mark_dead(id);
                        return Err(None);
                    }
                    Err(error) => return Err(Some(error)),
                }
            }
        };
        match client.call(verb, fields) {
            Ok(response) => Ok(response),
            Err(error) if is_connection_death(&error) => {
                self.clients.remove(id);
                self.ctx.mark_dead(id);
                Err(None)
            }
            Err(error) => Err(Some(error)),
        }
    }
}

/// Reads the node's applied-record count for `shard`: the per-shard
/// `predictions` counter, which every applied record bumps exactly once
/// (`predict` and `update` drive the same state transition).
fn shard_records(
    pool: &mut NodePool,
    model: &str,
    id: &str,
    shard: usize,
) -> Result<u64, Option<VlppError>> {
    let body = vec![("model".to_string(), JsonValue::Str(model.to_string()))];
    let response = pool.call(id, "stats", body)?;
    response
        .get("stats")
        .and_then(|s| s.get("per_shard"))
        .and_then(|v| v.as_array())
        .and_then(|a| a.get(shard))
        .and_then(|e| e.get("predictions"))
        .and_then(|v| v.as_u64())
        .ok_or_else(|| {
            Some(VlppError::protocol(
                Some("stats".to_string()),
                format!("node `{id}` stats lack per_shard[{shard}].predictions"),
            ))
        })
}

/// Drives one worker's shards through the cluster: per batch, predict
/// on the shard's primary and the identical records on its replica via
/// `update`. A dying node fails over to its partner — or, with
/// `--wait-respawn`, the worker pauses the shard until the supervisor
/// promotes a replacement and then retries on it. Both owners being
/// down is the typed `shard_unavailable` error.
fn drive_cluster_worker(
    ctx: &ClusterCtx,
    model: &str,
    shards: &[usize],
    work: &HashMap<usize, Vec<(usize, BranchRecord)>>,
    batch_max: usize,
    mut rng: XorShift64,
) -> Result<ConnReport, VlppError> {
    let mut pool = NodePool::new(ctx);
    let mut report =
        ConnReport { served: Vec::new(), batches: 0, predicted: 0, updated: 0, failovers: 0 };
    for &shard in shards {
        let Some(stream) = work.get(&shard) else { continue };
        let (primary, replica) = ctx.owners(shard);
        let mut cursor = 0usize;
        while cursor < stream.len() {
            let size = (1 + rng.next_u64() % batch_max as u64) as usize;
            let batch = &stream[cursor..(cursor + size).min(stream.len())];
            cursor += batch.len();
            report.batches += 1;
            // Predict on the primary; on death, the replica holds the
            // identical state as of the last batch boundary (it has
            // applied every prior batch via `update`), so the same
            // predict must yield byte-identical output there. A failed
            // predict was applied nowhere — the replica only sees a
            // batch *after* its predict succeeds — so retrying it on a
            // replacement warm-started from the replica is exact.
            let mut write_targets = [Some(&primary), Some(&replica)];
            let response = loop {
                match pool.call(&primary, "predict", batch_body(model, batch)) {
                    Ok(response) => {
                        write_targets[0] = None; // primary already trained
                        break response;
                    }
                    Err(Some(error)) => return Err(error),
                    Err(None) if ctx.wait_respawn_ms > 0 => {
                        report.failovers += 1;
                        eprintln!(
                            "loadgen: shard {shard} predict at record {} pausing for \
                             respawn of `{primary}`",
                            batch[0].0
                        );
                        ctx.await_respawn(&primary, shard)?;
                    }
                    Err(None) => {
                        report.failovers += 1;
                        write_targets = [None, None];
                        match pool.call(&replica, "predict", batch_body(model, batch)) {
                            Ok(response) => break response,
                            Err(Some(error)) => return Err(error),
                            Err(None) => {
                                return Err(shard_unavailable(
                                    "predict", shard, &primary, &replica,
                                ));
                            }
                        }
                    }
                }
            };
            collect_predictions(&response, batch, &mut report)?;
            // Fan the identical batch to the replica (unless it just
            // served the predict itself). `update` applies the same
            // state transition as `predict`, so the two kernels stay
            // byte-identical. A replica dying here ends the fan-out —
            // the primary remains the shard's single owner — unless
            // `--wait-respawn` is set, in which case the worker waits
            // for the replacement and then reconciles: the supervisor's
            // resync pull races this batch's predict, so the
            // replacement warm-started from the primary holds either
            // the pre-batch or the post-batch boundary (the stability
            // double-pull pins it to a boundary, never mid-batch).
            // Comparing applied-record counters tells which side; the
            // batch is resent iff the pull missed it. A blind resend
            // would double-apply, a blind skip drops the batch from the
            // replica lineage — a divergence invisible until ANOTHER
            // failover promotes that lineage.
            if let Some(target) = write_targets[1] {
                loop {
                    match pool.call(target, "update", batch_body(model, batch)) {
                        Ok(_) => {
                            report.updated += batch.len() as u64;
                            break;
                        }
                        Err(Some(error)) => return Err(error),
                        Err(None) if ctx.wait_respawn_ms > 0 => {
                            report.failovers += 1;
                            eprintln!(
                                "loadgen: shard {shard} update at record {} pausing for \
                                 respawn of `{target}`",
                                batch[0].0
                            );
                            ctx.await_respawn(target, shard)?;
                            let counts =
                                shard_records(&mut pool, model, target, shard).and_then(|have| {
                                    shard_records(&mut pool, model, &primary, shard)
                                        .map(|want| (have, want))
                                });
                            match counts {
                                Ok((have, want)) if have == want => break,
                                // The gap is the in-flight batch. It can
                                // be SMALLER than batch.len(): static
                                // branches bypass the predictor table and
                                // do not move the counter.
                                Ok((have, want))
                                    if have < want && want - have <= batch.len() as u64 =>
                                {
                                    eprintln!(
                                        "loadgen: shard {shard} resending {} records at \
                                         record {} to respawned `{target}` (resync \
                                         captured {have} of {want})",
                                        batch.len(),
                                        batch[0].0
                                    );
                                }
                                Ok((have, want)) => {
                                    return Err(cli_error(format!(
                                        "shard {shard}: respawned `{target}` holds {have} \
                                         records but primary `{primary}` holds {want} — \
                                         further apart than this worker's in-flight batch \
                                         of {}; replica lineage is unrecoverable",
                                        batch.len()
                                    )));
                                }
                                Err(Some(error)) => return Err(error),
                                Err(None) => {
                                    return Err(shard_unavailable(
                                        "stats", shard, &primary, &replica,
                                    ));
                                }
                            }
                        }
                        Err(None) => {
                            report.failovers += 1;
                            break;
                        }
                    }
                }
            }
            ctx.batches_done.fetch_add(1, Ordering::SeqCst);
        }
    }
    Ok(report)
}

/// SIGKILLs `pid` (unix only — cluster kill drills need kill(1)).
fn kill_process(pid: u64) -> Result<(), VlppError> {
    if cfg!(not(unix)) {
        return Err(cli_error("--kill is only available on unix targets"));
    }
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .map_err(|source| VlppError::io("kill", "spawn", source))?;
    if !status.success() {
        return Err(cli_error(format!("kill -9 {pid} failed with {status}")));
    }
    Ok(())
}

/// The cluster slammer: trains every node, drives per-shard streams
/// through primary + replica, optionally SIGKILLs a node mid-run, and
/// holds the oracle — byte-identical predictions and shard-exact
/// counters on the survivors.
fn run_cluster_loadgen(options: &LoadgenOptions) -> Result<JsonValue, VlppError> {
    vlpp_metrics::counter("loadgen.retries");
    let path = options.routing.as_ref().ok_or_else(|| cli_error("cluster mode needs --routing"))?;
    let table = ClusterCtx::load_table(path)?;

    // The routing table's shard count is authoritative: the table IS
    // the shard→process map, so a conflicting --shards would route
    // records to processes that do not own them. Fail fast, by name.
    if let Some(asked) = options.shards {
        if asked != table.shards() {
            return Err(cli_error(format!(
                "shard mismatch: routing table {} routes {} shards, --shards says {asked} \
                 (drop --shards to adopt the table's count)",
                path.display(),
                table.shards()
            )));
        }
    }
    if let Some(kill) = &options.kill {
        if !table.nodes().iter().any(|n| n.id == *kill) {
            return Err(cli_error(format!(
                "--kill {kill}: no such node in the routing table (nodes: {})",
                table.nodes().iter().map(|n| n.id.as_str()).collect::<Vec<_>>().join(", ")
            )));
        }
    }
    let spec = ModelSpec {
        name: "loadgen".to_string(),
        benchmark: options.benchmark.clone(),
        trace: None,
        kind: options.kind,
        index_bits: options.index_bits,
        shards: table.shards(),
    };
    // Every node trains the same deterministic model, so the primary
    // and replica kernels for a shard start byte-identical.
    if !options.no_train {
        for node in table.nodes() {
            let mut client =
                Client::connect(&ListenSpec::Tcp(node.addr.clone()), options.io_timeout_ms)?;
            train_on(&mut client, &spec)?;
        }
    }
    let reference = Reference::build(options, spec)?;

    // Partition the stream per shard (trace order within a shard), and
    // deal shards round-robin onto the worker threads.
    let mut work: HashMap<usize, Vec<(usize, BranchRecord)>> = HashMap::new();
    for (index, record) in reference.records.iter().enumerate().skip(options.skip) {
        let shard = reference.model.owner(record.pc());
        work.entry(shard).or_default().push((index, *record));
    }
    let workers = options.connections.min(table.shards());
    let shard_sets: Vec<Vec<usize>> =
        (0..workers).map(|c| (0..table.shards()).filter(|s| s % workers == c).collect()).collect();

    let kill_pid = options
        .kill
        .as_ref()
        .map(|kill| table.nodes().iter().find(|n| n.id == *kill).map(|n| n.pid))
        .map(|pid| pid.expect("kill target validated above"));
    let ctx = ClusterCtx {
        routing_path: path.clone(),
        table: Mutex::new(table),
        dead: Mutex::new(HashSet::new()),
        batches_done: AtomicU64::new(0),
        io_timeout_ms: options.io_timeout_ms,
        wait_respawn_ms: options.wait_respawn_ms,
    };
    let done = AtomicBool::new(false);
    let killed = AtomicBool::new(false);

    let reports: Vec<Result<ConnReport, VlppError>> = thread::scope(|scope| {
        let killer = options.kill.as_ref().map(|kill| {
            let pid = kill_pid.expect("kill target resolved above");
            let ctx = &ctx;
            let done = &done;
            let killed = &killed;
            let kill_after = options.kill_after;
            let kill = kill.clone();
            scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    if ctx.batches_done.load(Ordering::SeqCst) >= kill_after {
                        if kill_process(pid).is_ok() {
                            killed.store(true, Ordering::SeqCst);
                            vlpp_metrics::counter("cluster.kills").incr();
                            eprintln!("loadgen: killed node `{kill}` (pid {pid})");
                        }
                        return;
                    }
                    thread::sleep(std::time::Duration::from_millis(2));
                }
            })
        });
        let handles: Vec<_> = shard_sets
            .iter()
            .enumerate()
            .map(|(c, shards)| {
                let rng = XorShift64::new(options.seed ^ mix(c as u64 + 1));
                let ctx = &ctx;
                let work = &work;
                let model = &reference.spec.name;
                scope.spawn(move || {
                    drive_cluster_worker(ctx, model, shards, work, options.batch, rng)
                })
            })
            .collect();
        let reports = handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    Err(VlppError::protocol(None, "a loadgen worker thread panicked"))
                })
            })
            .collect();
        done.store(true, Ordering::SeqCst);
        if let Some(killer) = killer {
            let _ = killer.join();
        }
        reports
    });

    let mut tally = Tally::default();
    for report in reports {
        tally.absorb(report?, &reference.expected);
    }

    // Per-shard stats oracle: each shard's surviving owner has seen
    // the shard's full sub-stream exactly once, so its per-shard
    // counters must equal the offline reference's, shard by shard.
    // Adopt the latest routing table first: a node respawned since the
    // run started lives at a new address, and its resynced state must
    // satisfy the same oracle.
    ctx.try_reload();
    let ref_stats = reference.model.stats_json();
    let ref_shards =
        ref_stats.get("per_shard").and_then(|v| v.as_array()).map(|a| a.to_vec()).ok_or_else(
            || VlppError::protocol(Some("stats".to_string()), "reference stats lack per_shard"),
        )?;
    let mut pool = NodePool::new(&ctx);
    let mut stats_match = true;
    for (shard, reference_entry) in ref_shards.iter().enumerate() {
        let (primary, replica) = ctx.owners(shard);
        let body = vec![("model".to_string(), JsonValue::Str(reference.spec.name.clone()))];
        let response = match pool.call(&primary, "stats", body.clone()) {
            Ok(response) => response,
            Err(Some(error)) => return Err(error),
            Err(None) => match pool.call(&replica, "stats", body) {
                Ok(response) => response,
                Err(Some(error)) => return Err(error),
                Err(None) => {
                    return Err(shard_unavailable("stats", shard, &primary, &replica));
                }
            },
        };
        let served = response
            .get("stats")
            .and_then(|s| s.get("per_shard"))
            .and_then(|v| v.as_array())
            .and_then(|a| a.get(shard))
            .cloned()
            .unwrap_or(JsonValue::Null);
        if served.to_string() != reference_entry.to_string() {
            stats_match = false;
        }
    }

    // Taken before the shutdown pass: a node that goes down there is
    // draining at this client's request (or at the supervisor's
    // propagation of it), not dead.
    let dead: Vec<JsonValue> = {
        let mut names: Vec<String> = lock(&ctx.dead).iter().cloned().collect();
        names.sort();
        names.into_iter().map(JsonValue::Str).collect()
    };
    if options.shutdown {
        // Re-read the table once more so a node respawned during the
        // stats pass drains too instead of lingering as an orphan.
        ctx.try_reload();
        let ids: Vec<String> = lock(&ctx.table).nodes().iter().map(|n| n.id.clone()).collect();
        for id in ids {
            // Dead nodes cannot drain; survivors must. The fan-out is
            // best-effort beyond that: the supervisor propagates drain
            // cluster-wide the moment the first node exits cleanly, so
            // a later call here can catch a node mid-drain (its read
            // half already closed, answered with a typed frame error).
            // Every failure mode means the node is going down, which
            // is exactly what this pass is for.
            match pool.call(&id, "shutdown", vec![]) {
                Ok(_) | Err(None) => {}
                Err(Some(error)) => {
                    eprintln!("loadgen: shutdown of `{id}` raced its drain: {error}");
                }
            }
        }
    }

    let node_count = lock(&ctx.table).nodes().len();
    let extra = vec![
        ("nodes".to_string(), JsonValue::UInt(node_count as u64)),
        ("routing_version".to_string(), JsonValue::UInt(ctx.version())),
        ("killed".to_string(), JsonValue::Bool(killed.load(Ordering::SeqCst))),
        ("dead_nodes".to_string(), JsonValue::Array(dead)),
    ];
    finish_summary(options, &reference, tally, stats_match, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LoadgenOptions, VlppError> {
        parse_loadgen_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_new_flags() {
        let options = parse(&[
            "--addr",
            "127.0.0.1:9",
            "--no-train",
            "--skip",
            "100",
            "--records",
            "200",
            "--save",
            "/tmp/m.vlps",
        ])
        .unwrap();
        assert!(options.no_train);
        assert_eq!(options.skip, 100);
        assert_eq!(options.save.as_deref(), Some("/tmp/m.vlps"));
        assert_eq!(options.shards, None, "--shards must stay unresolved until the server answers");

        let options =
            parse(&["--routing", "/tmp/r.json", "--kill", "node1", "--kill-after", "7"]).unwrap();
        assert_eq!(options.routing.as_deref(), Some(std::path::Path::new("/tmp/r.json")));
        assert_eq!(options.kill.as_deref(), Some("node1"));
        assert_eq!(options.kill_after, 7);
    }

    #[test]
    fn parses_the_resilience_flags() {
        let options = parse(&["--addr", "a:1"]).unwrap();
        assert_eq!(options.io_timeout_ms, 10_000, "deadlines must be on by default");
        assert_eq!(options.retries, 3);
        assert_eq!(options.wait_respawn_ms, 0, "self-heal waiting is opt-in");

        let options = parse(&[
            "--routing",
            "/tmp/r.json",
            "--io-timeout-ms",
            "0",
            "--retries",
            "9",
            "--retry-backoff-ms",
            "5",
            "--wait-respawn",
            "2500",
        ])
        .unwrap();
        assert_eq!(options.io_timeout_ms, 0, "0 must mean unbounded, not an error");
        assert_eq!(options.retries, 9);
        assert_eq!(options.retry_backoff_ms, 5);
        assert_eq!(options.wait_respawn_ms, 2500);

        // Waiting for a respawn only makes sense against a supervisor
        // that rewrites the routing file.
        let error = parse(&["--addr", "a:1", "--wait-respawn", "100"]).unwrap_err();
        assert!(error.to_string().contains("--wait-respawn"), "{error}");
    }

    #[test]
    fn shard_unavailable_grammar_is_stable() {
        let error = shard_unavailable("predict", 3, "node0", "node2");
        let text = error.to_string();
        assert!(text.contains("shard_unavailable: shard 3 has no live owner"), "{text}");
        assert!(text.contains("`node0`") && text.contains("`node2`"), "{text}");
    }

    /// The regression tests for the silent `.max(1)` clamps: zero is a
    /// typed CLI error naming the flag, not a silent run at 1.
    #[test]
    fn zero_counts_are_typed_errors_not_clamps() {
        for (args, flag) in [
            (&["--addr", "a:1", "--connections", "0"][..], "--connections"),
            (&["--addr", "a:1", "--shards", "0"], "--shards"),
            (&["--addr", "a:1", "--batch", "0"], "--batch"),
            (&["--addr", "a:1", "--scale", "0"], "--scale"),
        ] {
            let error = parse(args).unwrap_err();
            assert_eq!(error.phase(), "cli", "{flag}");
            assert!(error.to_string().contains(flag), "{flag}: {error}");
        }
    }

    #[test]
    fn kill_requires_cluster_mode_and_skip_must_leave_records() {
        assert_eq!(parse(&["--addr", "a:1", "--kill", "node0"]).unwrap_err().phase(), "cli");
        let error = parse(&["--addr", "a:1", "--skip", "10", "--records", "10"]).unwrap_err();
        assert!(error.to_string().contains("--skip"), "{error}");
        assert!(parse(&["--addr", "a:1", "--skip", "9", "--records", "10"]).is_ok());
    }

    #[test]
    fn missing_target_still_fails_fast() {
        assert_eq!(parse(&[]).unwrap_err().phase(), "cli");
    }

    #[test]
    fn connection_death_classification() {
        assert!(is_connection_death(&VlppError::io(
            "x",
            "connect",
            std::io::Error::from(std::io::ErrorKind::ConnectionRefused)
        )));
        assert!(is_connection_death(&VlppError::Frame {
            message: "cut off mid-frame".into(),
            declared_len: Some(10)
        }));
        assert!(is_connection_death(&VlppError::protocol(
            Some("predict".to_string()),
            "server closed the connection before responding"
        )));
        assert!(!is_connection_death(&VlppError::protocol(
            Some("predict".to_string()),
            "unknown model `m`"
        )));
        assert!(!is_connection_death(&cli_error("nope")));
    }
}
