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
//! Records are partitioned by *shard*, and each shard's sub-stream is
//! driven by exactly one worker: with `workers = min(connections,
//! shards)`, worker `c` drives shards `s % workers == c`, one after
//! another, each in trace order. The server therefore sees each shard's
//! sub-stream in trace order no matter how the workers' batches
//! interleave — which is precisely the determinism contract of
//! [`super::model`]. Batch sizes are randomized (seeded, reproducible)
//! to exercise batching boundaries, and every `--update-every`-th batch
//! goes through the `update` verb to check that its state transition
//! matches `predict`'s. After the replay, each shard's `per_shard`
//! stats entry on a live owner must equal the offline reference's.
//!
//! # One driver, two views
//!
//! A run drives a view of the routing contract ([`super::routing`]):
//! each shard's primary node and, if it has one, its replica.
//! `--routing FILE` reads the table `vlpp cluster` publishes;
//! `--addr`/`--uds` is the one-node view, in which that server is every
//! shard's primary and no shard has a replica. One batch loop serves
//! both: a batch goes to the shard's primary and the identical batch to
//! its replica via `update`, so both kernels see the shard's sub-stream
//! exactly once and stay byte-identical. When a node dies mid-run
//! (`--kill NODE` SIGKILLs one after `--kill-after` batches), the
//! replica takes over — it holds the state the primary had at the last
//! batch boundary, so the oracle must still hold bit-for-bit.
//!
//! # Node death
//!
//! Every socket carries `--io-timeout-ms` read/write deadlines, so a
//! wedged server surfaces as a typed timeout instead of a hang. A
//! refused connect, a reset, or a stream cut off mid-frame means the
//! node is dead; nothing is retried in place. A shard with no live
//! owner left fails the run with the typed `shard_unavailable` error.
//! With `--wait-respawn MS` (cluster view), a worker that hits a dead
//! node instead pauses its shard, polls the routing file until the
//! supervisor publishes a strictly newer version with the node's pid
//! replaced, and resumes against the warm-started replacement — which
//! is what lets the oracle stay byte-exact across a kill + respawn +
//! snapshot-resync cycle. Tables whose version does not advance are
//! rejected as stale, never adopted.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use vlpp_check::rng::mix;
use vlpp_check::XorShift64;
use vlpp_trace::frame::{read_frame, write_frame};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{BranchRecord, VlppError};

use super::model::{Model, ModelSpec};
use super::protocol::record_to_json;
use super::routing::RoutingTable;
use super::{LazyCounter, ListenSpec};
use crate::cli::{cli_error, Flags, INDEX_BITS};
use crate::experiment::{Kind, Scale, Workloads};

// The routing client's counters (see OBSERVABILITY.md), each resolved
// from the registry once.
static FAILOVERS: LazyCounter = LazyCounter::new("cluster.failovers");
static KILLS: LazyCounter = LazyCounter::new("cluster.kills");

/// Parsed `vlpp loadgen` options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// The one server to drive (from `--addr` or `--uds`). Exactly one
    /// of `target` and `routing` is set.
    pub target: Option<ListenSpec>,
    /// Concurrent connections: at most this many workers, each driving
    /// its own shards.
    pub connections: usize,
    /// Benchmark whose test trace is replayed.
    pub benchmark: String,
    /// Population to predict.
    pub kind: Kind,
    /// Prediction-table index width.
    pub index_bits: u32,
    /// Model shard count. `None` means: adopt the routing table's, or
    /// the server's (with `--no-train`), or default to `connections`
    /// (fresh train) — never silently guess against a model that
    /// already exists.
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
    /// Send every Nth batch to the primary via `update` instead of
    /// `predict` (0 = always predict).
    pub update_every: usize,
    /// Workload scale (must match the server's).
    pub scale: Scale,
    /// Drive a pre-trained model instead of training one.
    pub no_train: bool,
    /// After the replay, ask the server to snapshot to this path
    /// (single server only).
    pub save: Option<String>,
    /// The routing-table file `vlpp cluster` wrote: drive the cluster.
    pub routing: Option<PathBuf>,
    /// Cluster only: SIGKILL this node id mid-run.
    pub kill: Option<String>,
    /// Cluster only: batches to complete before the kill fires.
    pub kill_after: u64,
    /// Send `shutdown` to every node after the run.
    pub shutdown: bool,
    /// Socket read/write deadline on every connection, in milliseconds
    /// (0 = unbounded). A call that outlives the deadline surfaces as a
    /// typed timeout error instead of hanging the run.
    pub io_timeout_ms: u64,
    /// Cluster only: when a node dies, wait up to this long for the
    /// supervisor to respawn it (observed as a routing-table version
    /// bump with a new pid) and retry on the replacement, instead of
    /// failing over to the partner (0 = fail over immediately).
    pub wait_respawn_ms: u64,
}

/// `vlpp loadgen --help`.
pub const LOADGEN_USAGE: &str = "\
usage: vlpp loadgen (--addr HOST:PORT | --uds PATH | --routing FILE)
                    [--connections N] [--benchmark NAME] [--kind cond|ind]
                    [--index-bits N] [--shards N] [--records N] [--skip N]
                    [--batch N] [--seed N] [--update-every K] [--scale ci|N]
                    [--no-train] [--save FILE]
                    [--kill NODE --kill-after BATCHES] [--shutdown]
                    [--io-timeout-ms MS] [--wait-respawn MS]

Trains a model on every node (or adopts a pre-trained one with
--no-train), replays a synthetic trace over N connections, and fails
unless every served prediction is byte-identical to the offline
reference. --addr/--uds drives one server, which owns every shard.
--routing drives a `vlpp cluster`: each batch goes to its shard's
primary and the identical batch to the shard's replica, and --kill
proves the oracle holds across a failover. Prints one `LOADGEN {json}`
summary line.
";

/// Parses `vlpp loadgen` arguments. Counts that must be positive are
/// *rejected* at zero with a typed error — never silently clamped to 1,
/// which would run something other than what was asked for. So are
/// options that would be silently ignored for the chosen target.
///
/// # Errors
///
/// [`VlppError::Config`] on a malformed or out-of-range value;
/// [`VlppError::Cli`] on an unknown flag, a missing value, a missing or
/// doubled target, or an option the target does not support.
pub fn parse_loadgen_args(args: &[String]) -> Result<LoadgenOptions, VlppError> {
    let mut options = LoadgenOptions {
        target: None,
        connections: 4,
        benchmark: "compress".to_string(),
        kind: Kind::Conditional,
        index_bits: 10,
        shards: None,
        records: 20_000,
        skip: 0,
        batch: 256,
        seed: 0x5eed_1e77,
        update_every: 0,
        scale: Scale::DEFAULT,
        no_train: false,
        save: None,
        routing: None,
        kill: None,
        kill_after: 4,
        shutdown: false,
        io_timeout_ms: 10_000,
        wait_respawn_ms: 0,
    };

    let mut flags = Flags::with_scale(args);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--addr" => options.target = Some(ListenSpec::Tcp(flags.value()?.to_string())),
            "--uds" => options.target = Some(ListenSpec::Unix(PathBuf::from(flags.value()?))),
            "--routing" => options.routing = Some(PathBuf::from(flags.value()?)),
            "--connections" => options.connections = flags.num(1..)?,
            "--benchmark" => options.benchmark = flags.value()?.to_string(),
            "--kind" => options.kind = flags.parse(Kind::from_name, "cond or ind")?,
            "--index-bits" => options.index_bits = flags.num(INDEX_BITS)?,
            "--shards" => options.shards = Some(flags.num(1..)?),
            "--records" => options.records = flags.num(0..)?,
            "--skip" => options.skip = flags.num(0..)?,
            "--batch" => options.batch = flags.num(1..)?,
            "--seed" => options.seed = flags.num(0..)?,
            "--update-every" => options.update_every = flags.num(0..)?,
            "--no-train" => options.no_train = true,
            "--save" => options.save = Some(flags.value()?.to_string()),
            "--kill" => options.kill = Some(flags.value()?.to_string()),
            "--kill-after" => options.kill_after = flags.num(0..)?,
            "--shutdown" => options.shutdown = true,
            "--io-timeout-ms" => options.io_timeout_ms = flags.num(0..)?,
            "--wait-respawn" => options.wait_respawn_ms = flags.num(0..)?,
            _ => return Err(flags.unknown()),
        }
    }
    options.scale = flags.scale();
    match (&options.target, &options.routing) {
        (None, None) => {
            return Err(cli_error(format!("missing --addr/--uds/--routing\n{LOADGEN_USAGE}")));
        }
        (Some(_), Some(_)) => {
            return Err(cli_error("--routing names every node; drop --addr/--uds"));
        }
        (Some(_), None) if options.kill.is_some() => {
            return Err(cli_error("--kill needs cluster mode (--routing FILE)"));
        }
        (Some(_), None) if options.wait_respawn_ms > 0 => {
            return Err(cli_error("--wait-respawn needs cluster mode (--routing FILE)"));
        }
        (None, Some(_)) if options.save.is_some() => {
            return Err(cli_error(
                "--save needs a single server (--addr/--uds): a cluster node holds only \
                 the traffic of the shards routed to it",
            ));
        }
        _ => {}
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

/// What one worker did, or all of them summed.
#[derive(Default)]
struct Tally {
    batches: u64,
    predicted: u64,
    updated: u64,
    failovers: u64,
    /// Served predictions that differ from the offline reference.
    mismatches: u64,
    /// The first of them: `(trace index, served prediction)`.
    first_mismatch: Option<(usize, String)>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.batches += other.batches;
        self.predicted += other.predicted;
        self.updated += other.updated;
        self.failovers += other.failovers;
        self.mismatches += other.mismatches;
        self.first_mismatch = self.first_mismatch.take().or(other.first_mismatch);
    }
}

fn batch_body(model: &str, batch: &[(usize, BranchRecord)]) -> Vec<(String, JsonValue)> {
    let records = batch.iter().map(|(_, record)| record_to_json(record)).collect();
    vec![
        ("model".to_string(), JsonValue::Str(model.to_string())),
        ("records".to_string(), JsonValue::Array(records)),
    ]
}

/// Extracts the predictions array of one `predict` response and checks
/// each against the offline reference.
fn collect_predictions(
    response: &JsonValue,
    batch: &[(usize, BranchRecord)],
    expected: &[String],
    report: &mut Tally,
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
        let served = prediction.to_json_string();
        if served != expected[*index] {
            report.mismatches += 1;
            report.first_mismatch.get_or_insert((*index, served));
        }
    }
    report.predicted += batch.len() as u64;
    Ok(())
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
}

/// The routing contract a run drives: each shard's primary node and,
/// if it has one, its replica. Node ids are stable across respawns —
/// the supervisor replaces a node's address and pid under the same id —
/// so shard assignments never move mid-run.
enum View {
    /// `--addr`/`--uds`: one server, named by its address, is every
    /// shard's primary, and no shard has a replica.
    OneNode { id: String, target: ListenSpec },
    /// `--routing FILE`: the table `vlpp cluster` publishes.
    Cluster(RoutingTable),
}

impl View {
    fn one_node(target: ListenSpec) -> View {
        let id = match &target {
            ListenSpec::Tcp(addr) => addr.clone(),
            ListenSpec::Unix(path) => path.display().to_string(),
        };
        View::OneNode { id, target }
    }

    /// The shard count the view fixes: a routing table routes a fixed
    /// count, while one server takes whatever its model has.
    fn shards(&self) -> Option<usize> {
        match self {
            View::OneNode { .. } => None,
            View::Cluster(table) => Some(table.shards()),
        }
    }

    /// The membership version (1 for a freshly built table, and always
    /// 1 for the one-node view).
    fn version(&self) -> u64 {
        match self {
            View::OneNode { .. } => 1,
            View::Cluster(table) => table.version(),
        }
    }

    /// Every node's id and where it listens now, in table order.
    fn nodes(&self) -> Vec<(String, ListenSpec)> {
        match self {
            View::OneNode { id, target } => vec![(id.clone(), target.clone())],
            View::Cluster(table) => table
                .nodes()
                .iter()
                .map(|n| (n.id.clone(), ListenSpec::Tcp(n.addr.clone())))
                .collect(),
        }
    }

    /// The shard's owner ids, `(primary, replica)`.
    fn owners(&self, shard: usize) -> (String, Option<String>) {
        match self {
            View::OneNode { id, .. } => (id.clone(), None),
            View::Cluster(table) => {
                (table.primary(shard).id.clone(), Some(table.replica(shard).id.clone()))
            }
        }
    }
}

/// Reads and validates a routing-table file.
fn load_table(path: &Path) -> Result<RoutingTable, VlppError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| VlppError::io(path.to_path_buf(), "read", source))?;
    let value = JsonValue::parse(text.trim())
        .map_err(|source| VlppError::Json { what: "routing table".to_string(), source })?;
    RoutingTable::from_json(&value)
        .map_err(|message| cli_error(format!("bad routing table {}: {message}", path.display())))
}

/// Whether an error means "the node died" rather than "the run is
/// wrong" (fail). Transport errors and mid-frame closes are deaths; a
/// clean protocol-level error from a live server is not.
fn is_connection_death(error: &VlppError) -> bool {
    match error {
        VlppError::Io { .. } | VlppError::Frame { .. } => true,
        VlppError::Protocol { message, .. } => message.contains("closed the connection"),
        _ => false,
    }
}

/// Typed degraded-mode error: every owner of a shard is down and no
/// replacement has been promoted, so the shard's sub-stream cannot make
/// progress. The `shard_unavailable:` prefix is the stable grammar
/// tests and operators match on.
fn shard_unavailable(verb: &str, shard: usize, primary: &str, replica: Option<&str>) -> VlppError {
    let owners = match replica {
        Some(replica) => format!("primary `{primary}` and replica `{replica}` are both down"),
        None => format!("primary `{primary}` is down and the shard has no replica"),
    };
    VlppError::protocol(
        Some(verb.to_string()),
        format!("shard_unavailable: shard {shard} has no live owner ({owners})"),
    )
}

/// Run-wide shared state: the current view (re-read from the routing
/// file as the supervisor rewrites it), who is known dead, and the
/// global batch counter the killer thread watches.
struct Shared {
    /// The routing file `vlpp cluster` owns (cluster view only) — the
    /// supervisor rewrites it, with a bumped version, on every
    /// membership change.
    routing_path: Option<PathBuf>,
    view: Mutex<View>,
    dead: Mutex<HashSet<String>>,
    batches_done: AtomicU64,
    io_timeout_ms: u64,
    wait_respawn_ms: u64,
}

impl Shared {
    /// A copy of the view's node list, so that no lock is held while a
    /// caller talks to the nodes.
    fn nodes(&self) -> Vec<(String, ListenSpec)> {
        lock(&self.view).nodes()
    }

    fn is_dead(&self, id: &str) -> bool {
        lock(&self.dead).contains(id)
    }

    fn mark_dead(&self, id: &str, error: &VlppError) {
        FAILOVERS.get().incr();
        if lock(&self.dead).insert(id.to_string()) {
            eprintln!("loadgen: node `{id}` is down ({error})");
        }
    }

    /// Re-reads the routing file and adopts it only if its version is
    /// *strictly newer* — a stale or unreadable file never regresses
    /// the in-memory view. A node whose pid changed in the new table is
    /// a promoted replacement, so its dead mark is cleared and traffic
    /// may route to it again. Returns whether a newer table was
    /// adopted; the one-node view never changes.
    fn try_reload(&self) -> bool {
        let Some(path) = &self.routing_path else { return false };
        let Ok(incoming) = load_table(path) else { return false };
        let mut view = lock(&self.view);
        let View::Cluster(table) = &mut *view else { return false };
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
                        lock(&self.view).version()
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

/// A thread's lazily-connected clients, one per node.
struct NodePool<'a> {
    shared: &'a Shared,
    clients: HashMap<String, Client>,
}

impl<'a> NodePool<'a> {
    fn new(shared: &'a Shared) -> Self {
        NodePool { shared, clients: HashMap::new() }
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
        if self.shared.is_dead(id) {
            return Err(None);
        }
        let client = match self.clients.entry(id.to_string()) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                // Resolve the address at connect time: after a respawn
                // the id survives but the addr does not. A refused
                // connect *is* the death signal failover feeds on, so
                // it is never retried in place.
                let (_, target) = self
                    .shared
                    .nodes()
                    .into_iter()
                    .find(|(node, _)| node == id)
                    .ok_or_else(|| Some(cli_error(format!("unknown node `{id}`"))))?;
                match Client::connect(&target, self.shared.io_timeout_ms) {
                    Ok(client) => slot.insert(client),
                    Err(error) if is_connection_death(&error) => {
                        self.shared.mark_dead(id, &error);
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
                self.shared.mark_dead(id, &error);
                Err(None)
            }
            Err(error) => Err(Some(error)),
        }
    }
}

/// Reads node `id`'s `per_shard[shard]` stats entry.
fn shard_entry(
    pool: &mut NodePool,
    model: &str,
    id: &str,
    shard: usize,
) -> Result<JsonValue, Option<VlppError>> {
    let body = vec![("model".to_string(), JsonValue::Str(model.to_string()))];
    let response = pool.call(id, "stats", body)?;
    response
        .get("stats")
        .and_then(|s| s.get("per_shard"))
        .and_then(|v| v.as_array())
        .and_then(|a| a.get(shard))
        .cloned()
        .ok_or_else(|| {
            Some(VlppError::protocol(
                Some("stats".to_string()),
                format!("node `{id}` stats lack per_shard[{shard}]"),
            ))
        })
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
    shard_entry(pool, model, id, shard)?.get("predictions").and_then(|v| v.as_u64()).ok_or_else(
        || {
            Some(VlppError::protocol(
                Some("stats".to_string()),
                format!("node `{id}` stats lack per_shard[{shard}].predictions"),
            ))
        },
    )
}

/// Drives one worker's shards, one after another: per batch, send it
/// to the shard's primary (`predict`, or `update` on every
/// `--update-every`-th batch) and the identical records to its replica
/// via `update`. A dying node fails over to its partner — or, with
/// `--wait-respawn`, the worker pauses the shard until the supervisor
/// promotes a replacement and then retries on it. A shard with no live
/// owner is the typed `shard_unavailable` error.
fn drive_worker(
    shared: &Shared,
    reference: &Reference,
    shards: &[usize],
    work: &[Vec<(usize, BranchRecord)>],
    options: &LoadgenOptions,
    mut rng: XorShift64,
) -> Result<Tally, VlppError> {
    let model = &reference.spec.name;
    let mut pool = NodePool::new(shared);
    let mut report = Tally::default();
    for &shard in shards {
        let stream = &work[shard];
        let (primary, replica) = lock(&shared.view).owners(shard);
        let mut cursor = 0usize;
        while cursor < stream.len() {
            let size = (1 + rng.next_u64() % options.batch as u64) as usize;
            let batch = &stream[cursor..(cursor + size).min(stream.len())];
            cursor += batch.len();
            report.batches += 1;
            let every = options.update_every as u64;
            let verb = if every > 0 && report.batches.is_multiple_of(every) {
                "update"
            } else {
                "predict"
            };
            // Send to the primary; on death, the replica holds the
            // identical state as of the last batch boundary (it has
            // applied every prior batch via `update`), so the same
            // batch must yield byte-identical output there. A failed
            // call was applied nowhere — the replica only sees a batch
            // *after* the primary answers — so retrying it on a
            // replacement warm-started from the replica is exact.
            let mut owner = primary.as_str();
            let mut fan_out = replica.as_deref();
            let response = loop {
                match pool.call(owner, verb, batch_body(model, batch)) {
                    Ok(response) => break response,
                    Err(Some(error)) => return Err(error),
                    Err(None) if shared.wait_respawn_ms > 0 => {
                        report.failovers += 1;
                        eprintln!(
                            "loadgen: shard {shard} {verb} at record {} pausing for \
                             respawn of `{owner}`",
                            batch[0].0
                        );
                        shared.await_respawn(owner, shard)?;
                    }
                    Err(None) => match fan_out.take() {
                        Some(survivor) => {
                            report.failovers += 1;
                            owner = survivor;
                        }
                        None => {
                            return Err(shard_unavailable(
                                verb,
                                shard,
                                &primary,
                                replica.as_deref(),
                            ))
                        }
                    },
                }
            };
            if verb == "predict" {
                collect_predictions(&response, batch, &reference.expected, &mut report)?;
            } else {
                report.updated += batch.len() as u64;
            }
            // Fan the identical batch to the replica (unless it just
            // served the batch itself). `update` applies the same
            // state transition as `predict`, so the two kernels stay
            // byte-identical. A replica dying here ends the fan-out —
            // the primary remains the shard's single owner — unless
            // `--wait-respawn` is set, in which case the worker waits
            // for the replacement and then reconciles: the supervisor's
            // resync pull races this batch on the primary, so the
            // replacement warm-started from the primary holds either
            // the pre-batch or the post-batch boundary (the stability
            // double-pull pins it to a boundary, never mid-batch).
            // Comparing applied-record counters tells which side; the
            // batch is resent iff the pull missed it. A blind resend
            // would double-apply, a blind skip drops the batch from the
            // replica lineage — a divergence invisible until ANOTHER
            // failover promotes that lineage.
            if let Some(target) = fan_out {
                loop {
                    match pool.call(target, "update", batch_body(model, batch)) {
                        Ok(_) => {
                            report.updated += batch.len() as u64;
                            break;
                        }
                        Err(Some(error)) => return Err(error),
                        Err(None) if shared.wait_respawn_ms > 0 => {
                            report.failovers += 1;
                            eprintln!(
                                "loadgen: shard {shard} update at record {} pausing for \
                                 respawn of `{target}`",
                                batch[0].0
                            );
                            shared.await_respawn(target, shard)?;
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
                                        "stats", shard, &primary, fan_out,
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
            shared.batches_done.fetch_add(1, Ordering::SeqCst);
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

/// Resolves the model spec the run drives, satisfying the shard
/// contract *before* any record is sent:
///
/// - Fresh train: the shard count is the routing table's, else
///   `--shards`, else `connections`. Every node trains the same
///   deterministic model — so a shard's primary and replica kernels
///   start byte-identical — and must echo the count back. A node that
///   cannot be reached fails the run.
/// - `--no-train`: the nodes' existing model is authoritative. Its spec
///   is fetched over the `stats` verb from every node that answers (one
///   that does not is marked dead), and any conflict — with the routing
///   table, an explicit flag or another node — is a fail-fast error:
///   silently driving a model whose shard count differs from the
///   router's would send records to the wrong shard and (rightly) fail
///   the oracle later, but with a far worse diagnostic. `None` means no
///   node answered.
fn resolve_spec(
    options: &LoadgenOptions,
    shared: &Shared,
    pool: &mut NodePool,
) -> Result<Option<ModelSpec>, VlppError> {
    let name = "loadgen";
    let routed = lock(&shared.view).shards();
    let mut spec = ModelSpec {
        name: name.to_string(),
        benchmark: options.benchmark.clone(),
        trace: None,
        kind: options.kind,
        index_bits: options.index_bits,
        shards: routed.or(options.shards).unwrap_or(options.connections),
    };
    if !options.no_train {
        for (id, target) in shared.nodes() {
            let response = train_on(&mut Client::connect(&target, options.io_timeout_ms)?, &spec)?;
            let echoed = response.get("shards").and_then(|v| v.as_u64());
            if echoed != Some(spec.shards as u64) {
                return Err(cli_error(format!(
                    "shard mismatch: asked node `{id}` to train {} shards, it trained {echoed:?}",
                    spec.shards
                )));
            }
        }
        return Ok(Some(spec));
    }
    // Who fixes the shard count, in words for the mismatch error.
    let mut authority = match (routed, options.shards) {
        (Some(n), _) => Some((n, format!("the routing table routes {n}"))),
        (None, Some(n)) => {
            Some((n, format!("--shards says {n} (drop --shards to adopt the server's count)")))
        }
        (None, None) => None,
    };
    let mut answered = false;
    for (id, _) in shared.nodes() {
        let body = vec![("model".to_string(), JsonValue::Str(name.to_string()))];
        let stats = match pool.call(&id, "stats", body) {
            Ok(response) => response.get("stats").cloned().unwrap_or(JsonValue::Null),
            Err(None) => continue,
            Err(Some(error)) => return Err(error),
        };
        answered = true;
        let served = |field: &str| stats.get(field).cloned().unwrap_or(JsonValue::Null);
        for (field, flag, wanted) in [
            ("benchmark", "--benchmark", JsonValue::Str(options.benchmark.clone())),
            ("kind", "--kind", JsonValue::Str(options.kind.name().to_string())),
            ("index_bits", "--index-bits", JsonValue::UInt(options.index_bits as u64)),
        ] {
            if served(field) != wanted {
                return Err(cli_error(format!(
                    "{field} mismatch: node `{id}` model `{name}` has {}, {flag} says {wanted}",
                    served(field)
                )));
            }
        }
        let shards = served("shards").as_u64().ok_or_else(|| {
            VlppError::protocol(Some("stats".to_string()), format!("node `{id}` reports no shards"))
        })? as usize;
        match &authority {
            Some((n, source)) if *n != shards => {
                return Err(cli_error(format!(
                    "shard mismatch: node `{id}` model `{name}` has {shards} shards, but \
                     {source}; records would be routed to the wrong shard"
                )));
            }
            Some(_) => {}
            None => authority = Some((shards, format!("node `{id}` has {shards}"))),
        }
    }
    Ok(answered.then(|| {
        spec.shards = authority.expect("a node answered").0;
        spec
    }))
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

/// The per-shard stats oracle: each shard's live owner has applied the
/// shard's whole sub-stream exactly once (the skipped prefix through
/// the snapshot it warmed from), so its `per_shard` entry must equal
/// the offline reference's, shard by shard.
fn shard_stats_match(pool: &mut NodePool, reference: &Reference) -> Result<bool, VlppError> {
    let expected = reference.model.stats_json();
    let expected = expected.get("per_shard").and_then(|v| v.as_array()).ok_or_else(|| {
        VlppError::protocol(Some("stats".to_string()), "reference stats lack per_shard")
    })?;
    let model = &reference.spec.name;
    let mut matched = true;
    for (shard, expected) in expected.iter().enumerate() {
        let (primary, replica) = lock(&pool.shared.view).owners(shard);
        let served = match (shard_entry(pool, model, &primary, shard), replica.as_deref()) {
            (Err(None), Some(replica)) => shard_entry(pool, model, replica, shard),
            (served, _) => served,
        };
        let served = served.map_err(|error| {
            error.unwrap_or_else(|| shard_unavailable("stats", shard, &primary, replica.as_deref()))
        })?;
        matched &= served.to_string() == expected.to_string();
    }
    Ok(matched)
}

/// Runs the full loadgen cycle, returning the summary document: trains
/// every node (or checks the spec), replays the trace through the
/// workers (optionally SIGKILLing a node mid-run), holds the oracle —
/// byte-identical predictions and shard-exact counters on the live
/// owners — then saves and shuts down as asked.
///
/// # Errors
///
/// See [`loadgen_main`].
pub fn run_loadgen(options: &LoadgenOptions) -> Result<JsonValue, VlppError> {
    let view = match (&options.routing, &options.target) {
        (Some(path), _) => View::Cluster(load_table(path)?),
        (None, Some(target)) => View::one_node(target.clone()),
        (None, None) => return Err(cli_error("missing --addr/--uds/--routing")),
    };
    let mut kill_pid = None;
    if let (Some(path), View::Cluster(table)) = (&options.routing, &view) {
        // The routing table's shard count is authoritative: the table
        // IS the shard→process map, so a conflicting --shards would
        // route records to processes that do not own them. Fail fast,
        // by name.
        if let Some(asked) = options.shards.filter(|&asked| asked != table.shards()) {
            return Err(cli_error(format!(
                "shard mismatch: routing table {} routes {} shards, --shards says {asked} \
                 (drop --shards to adopt the table's count)",
                path.display(),
                table.shards()
            )));
        }
        if let Some(kill) = &options.kill {
            let node = table.nodes().iter().find(|n| n.id == *kill).ok_or_else(|| {
                cli_error(format!(
                    "--kill {kill}: no such node in the routing table (nodes: {})",
                    table.nodes().iter().map(|n| n.id.as_str()).collect::<Vec<_>>().join(", ")
                ))
            })?;
            kill_pid = Some(node.pid);
        }
    }
    let shared = Shared {
        routing_path: options.routing.clone(),
        view: Mutex::new(view),
        dead: Mutex::new(HashSet::new()),
        batches_done: AtomicU64::new(0),
        io_timeout_ms: options.io_timeout_ms,
        wait_respawn_ms: options.wait_respawn_ms,
    };
    let mut control = NodePool::new(&shared);
    let Some(spec) = resolve_spec(options, &shared, &mut control)? else {
        let (primary, replica) = lock(&shared.view).owners(0);
        return Err(shard_unavailable("stats", 0, &primary, replica.as_deref()));
    };
    let reference = Reference::build(options, spec)?;

    // Partition the unskipped stream per shard (trace order within a
    // shard), and deal shards round-robin onto the workers.
    let shards = reference.spec.shards;
    let mut work: Vec<Vec<(usize, BranchRecord)>> = vec![Vec::new(); shards];
    for (index, record) in reference.records.iter().enumerate().skip(options.skip) {
        work[reference.model.owner(record.pc())].push((index, *record));
    }
    let workers = options.connections.min(shards);
    let shard_sets: Vec<Vec<usize>> =
        (0..workers).map(|c| (c..shards).step_by(workers).collect()).collect();

    let done = AtomicBool::new(false);
    let killed = AtomicBool::new(false);
    let reports: Vec<Result<Tally, VlppError>> = thread::scope(|scope| {
        let killer = options.kill.as_ref().zip(kill_pid).map(|(kill, pid)| {
            let (shared, done, killed) = (&shared, &done, &killed);
            scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    if shared.batches_done.load(Ordering::SeqCst) >= options.kill_after {
                        if kill_process(pid).is_ok() {
                            killed.store(true, Ordering::SeqCst);
                            KILLS.get().incr();
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
                let (shared, reference, work) = (&shared, &reference, &work);
                scope.spawn(move || drive_worker(shared, reference, shards, work, options, rng))
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
        tally.absorb(report?);
    }

    // Adopt the latest routing table first: a node respawned since the
    // run started lives at a new address, and its resynced state must
    // satisfy the same oracle.
    shared.try_reload();
    let stats_match = shard_stats_match(&mut control, &reference)?;

    let mut summary = vec![
        ("connections".to_string(), JsonValue::UInt(options.connections as u64)),
        ("shards".to_string(), JsonValue::UInt(shards as u64)),
        ("records".to_string(), JsonValue::UInt(reference.records.len() as u64)),
        ("skipped".to_string(), JsonValue::UInt(options.skip as u64)),
        ("batches".to_string(), JsonValue::UInt(tally.batches)),
        ("predicted".to_string(), JsonValue::UInt(tally.predicted)),
        ("updated".to_string(), JsonValue::UInt(tally.updated)),
        ("failovers".to_string(), JsonValue::UInt(tally.failovers)),
        ("mismatches".to_string(), JsonValue::UInt(tally.mismatches)),
        ("stats_match".to_string(), JsonValue::Bool(stats_match)),
    ];
    if let Some(path) = &options.save {
        // Only the one-node view may save (the parser enforces it).
        let (id, _) = shared.nodes().remove(0);
        let fields = vec![
            ("path".to_string(), JsonValue::Str(path.clone())),
            ("model".to_string(), JsonValue::Str(reference.spec.name.clone())),
        ];
        let response = control.call(&id, "save", fields).map_err(|error| {
            error.unwrap_or_else(|| {
                VlppError::protocol(Some("save".to_string()), format!("node `{id}` is down"))
            })
        })?;
        summary.push(("saved".to_string(), JsonValue::Str(path.clone())));
        summary.push((
            "snapshot_bytes".to_string(),
            response.get("bytes").cloned().unwrap_or(JsonValue::Null),
        ));
    }

    // Taken before the shutdown pass: a node that goes down there is
    // draining at this client's request (or at the supervisor's
    // propagation of it), not dead.
    let mut dead: Vec<String> = lock(&shared.dead).iter().cloned().collect();
    dead.sort();
    if options.shutdown {
        // Re-read the table once more so a node respawned during the
        // stats pass drains too instead of lingering as an orphan.
        shared.try_reload();
        for (id, _) in shared.nodes() {
            // Dead nodes cannot drain; survivors must. The fan-out is
            // best-effort beyond that: the supervisor propagates drain
            // cluster-wide the moment the first node exits cleanly, so
            // a later call here can catch a node mid-drain (its read
            // half already closed, answered with a typed frame error).
            // Every failure mode means the node is going down, which
            // is exactly what this pass is for.
            if let Err(Some(error)) = control.call(&id, "shutdown", vec![]) {
                eprintln!("loadgen: shutdown of `{id}` raced its drain: {error}");
            }
        }
    }

    summary.extend([
        ("nodes".to_string(), JsonValue::UInt(shared.nodes().len() as u64)),
        ("routing_version".to_string(), JsonValue::UInt(lock(&shared.view).version())),
        ("killed".to_string(), JsonValue::Bool(killed.load(Ordering::SeqCst))),
        (
            "dead_nodes".to_string(),
            JsonValue::Array(dead.into_iter().map(JsonValue::Str).collect()),
        ),
    ]);
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
        assert_eq!(options.wait_respawn_ms, 0, "self-heal waiting is opt-in");

        let options =
            parse(&["--routing", "/tmp/r.json", "--io-timeout-ms", "0", "--wait-respawn", "2500"])
                .unwrap();
        assert_eq!(options.io_timeout_ms, 0, "0 must mean unbounded, not an error");
        assert_eq!(options.wait_respawn_ms, 2500);

        // A refused connect means the node is dead; there is no retry
        // budget to tune.
        for flag in ["--retries", "--retry-backoff-ms"] {
            let error = parse(&["--addr", "a:1", flag, "3"]).unwrap_err();
            assert!(error.to_string().contains(flag), "{flag}: {error}");
        }

        // Waiting for a respawn only makes sense against a supervisor
        // that rewrites the routing file.
        let error = parse(&["--addr", "a:1", "--wait-respawn", "100"]).unwrap_err();
        assert!(error.to_string().contains("--wait-respawn"), "{error}");
    }

    #[test]
    fn shard_unavailable_grammar_is_stable() {
        let error = shard_unavailable("predict", 3, "node0", Some("node2"));
        let text = error.to_string();
        assert!(text.contains("shard_unavailable: shard 3 has no live owner"), "{text}");
        assert!(text.contains("`node0`") && text.contains("`node2`"), "{text}");

        let text = shard_unavailable("predict", 0, "127.0.0.1:9", None).to_string();
        assert!(text.contains("shard_unavailable: shard 0 has no live owner"), "{text}");
        assert!(text.contains("`127.0.0.1:9`") && text.contains("no replica"), "{text}");
    }

    #[test]
    fn one_node_view_makes_the_server_every_shard_primary_with_no_replica() {
        let view = View::one_node(ListenSpec::Tcp("127.0.0.1:9".to_string()));
        assert_eq!(view.shards(), None, "one server takes its model's shard count");
        assert_eq!(view.version(), 1);
        let tcp = ListenSpec::Tcp("127.0.0.1:9".to_string());
        assert_eq!(view.nodes(), vec![("127.0.0.1:9".to_string(), tcp)]);
        for shard in [0, 1, 7] {
            assert_eq!(view.owners(shard), ("127.0.0.1:9".to_string(), None));
        }

        let view = View::one_node(ListenSpec::Unix(PathBuf::from("/tmp/s.sock")));
        assert_eq!(view.owners(3), ("/tmp/s.sock".to_string(), None));
        assert_eq!(view.nodes()[0].1, ListenSpec::Unix("/tmp/s.sock".into()));
    }

    /// The regression tests for the silent `.max(1)` clamps: zero is a
    /// typed config error naming the flag, not a silent run at 1.
    #[test]
    fn zero_counts_are_typed_errors_not_clamps() {
        for (args, flag) in [
            (&["--addr", "a:1", "--connections", "0"][..], "--connections"),
            (&["--addr", "a:1", "--shards", "0"], "--shards"),
            (&["--addr", "a:1", "--batch", "0"], "--batch"),
            (&["--addr", "a:1", "--scale", "0"], "--scale"),
        ] {
            let error = parse(args).unwrap_err();
            assert_eq!(error.phase(), "config", "{flag}");
            assert!(error.to_string().contains(flag), "{flag}: {error}");
        }
    }

    #[test]
    fn kill_requires_cluster_mode_and_skip_must_leave_records() {
        assert_eq!(parse(&["--addr", "a:1", "--kill", "node0"]).unwrap_err().phase(), "cli");
        // A cluster node holds only its own shards' traffic: --save is
        // a typed error there, not a silent no-op.
        let error = parse(&["--routing", "/tmp/r.json", "--save", "/tmp/m.vlps"]).unwrap_err();
        assert_eq!(error.phase(), "cli");
        assert!(error.to_string().contains("--save"), "{error}");
        let error = parse(&["--addr", "a:1", "--skip", "10", "--records", "10"]).unwrap_err();
        assert!(error.to_string().contains("--skip"), "{error}");
        assert!(parse(&["--addr", "a:1", "--skip", "9", "--records", "10"]).is_ok());
    }

    #[test]
    fn missing_target_still_fails_fast() {
        assert_eq!(parse(&[]).unwrap_err().phase(), "cli");
        // A server and a routing table are two targets, not one.
        let error = parse(&["--addr", "a:1", "--routing", "/tmp/r.json"]).unwrap_err();
        assert_eq!(error.phase(), "cli");
        assert!(error.to_string().contains("--routing"), "{error}");
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
