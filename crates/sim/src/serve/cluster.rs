//! `vlpp cluster` — N `vlpp serve` processes behind one explicit
//! routing table, with a self-healing supervisor.
//!
//! The supervisor spawns `--nodes` child servers (each `vlpp serve
//! --listen 127.0.0.1:0`, so the OS picks ports), parses each child's
//! `SERVE` announce line, builds the rendezvous
//! [`RoutingTable`] mapping every shard
//! to a primary and a replica node, and prints one `CLUSTER {json}`
//! line carrying the table. Clients (`vlpp loadgen --routing`) route
//! records per shard: writes fan to primary + replica, reads fail over
//! to the replica when the primary dies.
//!
//! # Liveness and recovery
//!
//! The supervisor then runs a heartbeat loop. Every
//! `--probe-interval-ms` it opens a fresh connection to each child and
//! calls the `ping` verb; a node that misses a probe is *suspect*, and
//! after `--miss-budget` consecutive misses it is declared dead and
//! SIGKILLed so its fate is unambiguous. A dead child (killed,
//! crashed, or probe-condemned — all reach the same `try_wait` path)
//! is replaced while its shards keep serving from the surviving
//! owners:
//!
//! 1. For every shard the dead node owned, its surviving owner is
//!    identified; a shard with no live owner aborts the respawn
//!    (`CLUSTER_RESYNC_ERROR`) — the supervisor never fabricates
//!    state.
//! 2. The survivors' models are pulled twice over the `sync` verb and
//!    the dead node's owned-shard sections are compared byte-for-byte
//!    between the passes; a mismatch means a writer is still moving
//!    that shard, so the pull retries with backoff until the state is
//!    provably at rest.
//! 3. A replacement snapshot is composed (lowest-id live node as the
//!    base, the dead node's owned shards overlaid from their surviving
//!    owners), validated by a full decode — a replacement never serves
//!    partial state — and a new child is spawned from it under the
//!    same node id, so every rendezvous assignment is preserved.
//! 4. Only after the replacement answers `ping` is it promoted: the
//!    routing table gets its new addr/pid, the version bumps, the
//!    `--routing-out` file is rewritten atomically, and a
//!    `CLUSTER_UPDATE` + `CLUSTER_RESPAWN` line is printed. Clients
//!    reject any table whose version does not advance.
//!
//! # Shutdown
//!
//! SIGTERM/SIGINT (or any child draining cleanly after a client's
//! `shutdown` verb) puts the supervisor itself into drain mode: it
//! fans `shutdown` to every remaining child, stops respawning, and
//! exits 0 once all children are reaped, printing a `CLUSTER_EXIT`
//! summary with the respawn/resync totals.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use super::snapshot::{read_snapshot, write_snapshot, SnapshotSection};
use vlpp_trace::json::JsonValue;
use vlpp_trace::VlppError;

use super::loadgen::Client;
use super::routing::{Node, RoutingTable};
use super::{sig, LazyCounter, ListenSpec};
use crate::cli::{cli_error, print_metrics, Flags};
use crate::experiment::Scale;

// The supervisor's counters (see OBSERVABILITY.md), each resolved from
// the registry once.
static NODES: LazyCounter = LazyCounter::new("cluster.nodes");
static NODES_DIED: LazyCounter = LazyCounter::new("cluster.nodes_died");
static HEARTBEATS: LazyCounter = LazyCounter::new("cluster.heartbeats");
static SUSPECT: LazyCounter = LazyCounter::new("cluster.suspect");
static RESPAWNS: LazyCounter = LazyCounter::new("cluster.respawns");
static RESYNCS: LazyCounter = LazyCounter::new("cluster.resyncs");
static RESYNC_BYTES: LazyCounter = LazyCounter::new("cluster.resync_bytes");

/// Deadline for a supervisor-initiated probe, drain, or announce read:
/// long enough for a loaded child to answer, short enough that a dead
/// one cannot stall the heartbeat loop.
const PROBE_TIMEOUT_MS: u64 = 1_000;

/// Stability-pull attempts before a resync is abandoned. Writers pause
/// within one batch of the death, so the window this must cover is
/// small; each retry backs off a further `RESYNC_BACKOFF_MS`.
const RESYNC_ATTEMPTS: u32 = 5;
const RESYNC_BACKOFF_MS: u64 = 200;

/// Parsed `vlpp cluster` options.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of serve processes (≥ 2: every shard needs a replica on
    /// a different process).
    pub nodes: usize,
    /// Shards routed by the table (must match the model's shard count;
    /// `vlpp loadgen --routing` takes it from here).
    pub shards: usize,
    /// Workload scale passed to each child.
    pub scale: Scale,
    /// Also write the routing table JSON to this file (atomically,
    /// rewritten with a bumped version on every membership change).
    pub routing_out: Option<PathBuf>,
    /// Heartbeat probe interval, in milliseconds.
    pub probe_interval_ms: u64,
    /// Consecutive missed probes before a node is declared dead.
    pub miss_budget: u32,
    /// Total respawns the supervisor may perform (0 disables
    /// self-healing: a dead node stays dead, exactly the pre-respawn
    /// failover behavior).
    pub max_respawns: u32,
    /// Socket deadline passed to every child (`serve --io-timeout-ms`)
    /// and used for the supervisor's own `sync` pulls.
    pub io_timeout_ms: u64,
    /// Print the metrics table on exit and pass `--metrics` to every
    /// child.
    pub metrics: bool,
}

/// `vlpp cluster --help`.
pub const CLUSTER_USAGE: &str = "\
usage: vlpp cluster [--nodes N] [--shards N] [--scale ci|N]
                    [--routing-out FILE] [--metrics]
                    [--probe-interval-ms MS] [--miss-budget N]
                    [--max-respawns N] [--io-timeout-ms MS]

Spawns N `vlpp serve` children, builds the shard->process routing
table (primary + replica per shard, rendezvous-hashed), prints one
`CLUSTER {json}` line carrying it, then supervises the children:
heartbeat pings every --probe-interval-ms declare a node dead after
--miss-budget misses, and a dead node is respawned from a snapshot
resynced off the surviving shard owners, the routing file rewritten
with a bumped version. Drive it with `vlpp loadgen` pointed at the
routing file. See SERVING.md and ROBUSTNESS.md.
";

/// Parses `vlpp cluster` arguments. Zero counts are rejected, not
/// clamped (except where zero is a documented "off" switch).
///
/// # Errors
///
/// `Cli` for an unknown flag or a missing value, `Config` for a bad one.
pub fn parse_cluster_args(args: &[String]) -> Result<ClusterOptions, VlppError> {
    let mut options = ClusterOptions {
        nodes: 2,
        shards: 4,
        scale: Scale::DEFAULT,
        routing_out: None,
        probe_interval_ms: 500,
        miss_budget: 3,
        max_respawns: 16,
        io_timeout_ms: super::DEFAULT_IO_TIMEOUT_MS,
        metrics: false,
    };
    let mut flags = Flags::with_scale(args);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--nodes" => options.nodes = flags.num(2..=64)?,
            "--shards" => options.shards = flags.num(1..=1024)?,
            "--routing-out" => options.routing_out = Some(PathBuf::from(flags.value()?)),
            "--probe-interval-ms" => options.probe_interval_ms = flags.num(1..)?,
            "--miss-budget" => options.miss_budget = flags.num(1..)?,
            "--max-respawns" => options.max_respawns = flags.num(0..)?,
            "--io-timeout-ms" => options.io_timeout_ms = flags.num(0..)?,
            "--metrics" => options.metrics = true,
            _ => return Err(flags.unknown()),
        }
    }
    options.scale = flags.scale();
    Ok(options)
}

/// Probe-loop liveness of one child, as last observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Liveness {
    /// Answered its most recent probe (or was just spawned).
    Alive,
    /// Missed this many consecutive probes; condemned at the miss
    /// budget.
    Suspect(u32),
}

/// One spawned child and the line reader still attached to its stdout.
struct ChildNode {
    id: String,
    child: Child,
    stdout: Option<BufReader<std::process::ChildStdout>>,
}

/// A supervised slot: the child process currently carrying a node id,
/// its announced identity, and its probe state.
struct Slot {
    node: Node,
    child: ChildNode,
    liveness: Liveness,
    /// Reaped: the slot no longer holds a process (clean exit, or dead
    /// with self-healing off/abandoned).
    gone: bool,
}

fn spawn_node(
    id: &str,
    options: &ClusterOptions,
    snapshot: Option<&Path>,
) -> Result<ChildNode, VlppError> {
    let exe = std::env::current_exe()
        .map_err(|source| VlppError::io("current-exe", "resolve", source))?;
    let mut command = Command::new(&exe);
    command
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--scale", &options.scale.divisor().to_string()])
        .args(["--io-timeout-ms", &options.io_timeout_ms.to_string()]);
    if options.metrics {
        command.arg("--metrics");
    }
    if let Some(path) = snapshot {
        command.arg("--snapshot").arg(path);
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|source| VlppError::io(exe, "spawn", source))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| VlppError::protocol(None, format!("node `{id}` has no stdout pipe")))?;
    Ok(ChildNode { id: id.to_string(), child, stdout: Some(BufReader::new(stdout)) })
}

/// Reads the child's `SERVE {json}` announce line and extracts its
/// address and pid.
fn read_announce(node: &mut ChildNode) -> Result<Node, VlppError> {
    let stdout = node.stdout.as_mut().expect("announce is read before the drain takes stdout");
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdout
            .read_line(&mut line)
            .map_err(|source| VlppError::io(format!("node-{}", node.id), "read", source))?;
        if n == 0 {
            return Err(VlppError::protocol(
                None,
                format!("node `{}` exited before announcing", node.id),
            ));
        }
        let Some(json) = line.strip_prefix("SERVE ") else { continue };
        let value = JsonValue::parse(json.trim())
            .map_err(|source| VlppError::Json { what: "SERVE announce".to_string(), source })?;
        let addr = value.get("addr").and_then(|v| v.as_str()).ok_or_else(|| {
            VlppError::protocol(None, format!("node `{}` announce has no addr", node.id))
        })?;
        let pid = value.get("pid").and_then(|v| v.as_u64()).ok_or_else(|| {
            VlppError::protocol(None, format!("node `{}` announce has no pid", node.id))
        })?;
        return Ok(Node { id: node.id.clone(), addr: addr.to_string(), pid });
    }
}

/// Forwards a child's remaining stdout to stderr, `id| `-prefixed, so
/// its diagnostics are neither lost nor able to block the pipe.
fn spawn_drain(node: &mut ChildNode) -> Option<thread::JoinHandle<()>> {
    let mut stdout = node.stdout.take()?;
    let id = node.id.clone();
    Some(thread::spawn(move || {
        let mut line = String::new();
        while matches!(stdout.read_line(&mut line), Ok(n) if n > 0) {
            eprint!("{id}| {line}");
            line.clear();
        }
    }))
}

/// Calls one verb on `addr` over a fresh short-deadline connection.
fn call_node(addr: &str, timeout_ms: u64, verb: &str) -> Result<JsonValue, VlppError> {
    let mut client = Client::connect(&ListenSpec::Tcp(addr.to_string()), timeout_ms)?;
    client.call(verb, Vec::new())
}

/// Atomically (tmp + rename) writes the routing table file.
fn write_routing(path: &Path, wire: &JsonValue) -> Result<(), VlppError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{wire}\n"))
        .map_err(|source| VlppError::io(tmp.clone(), "write", source))?;
    std::fs::rename(&tmp, path).map_err(|source| VlppError::io(path, "rename", source))
}

/// Pulls one full `sync` snapshot from `addr` and indexes its sections
/// by name, counting the transferred bytes into `cluster.resync_bytes`.
fn pull_sections(addr: &str, timeout_ms: u64) -> Result<Vec<SnapshotSection>, VlppError> {
    let mut client = Client::connect(&ListenSpec::Tcp(addr.to_string()), timeout_ms)?;
    let (bytes, _header) = client.fetch_sync(None)?;
    RESYNC_BYTES.get().add(bytes.len() as u64);
    read_snapshot(&bytes[..]).map_err(|source| {
        VlppError::protocol(
            None,
            format!("sync stream from {addr} is not a valid snapshot: {source}"),
        )
    })
}

fn section_bytes<'a>(sections: &'a [SnapshotSection], name: &str) -> Option<&'a [u8]> {
    sections.iter().find(|s| s.name == name).map(|s| s.payload.as_slice())
}

/// Composes the replacement snapshot for `dead_id`: `base` (from the
/// lowest-id live node) with the dead node's owned shards overlaid
/// from their surviving owners. Only models sharded like the routing
/// table participate in the overlay — a model with a different shard
/// count is not routed by this table, so the base copy stands.
fn compose_replacement(
    base: Vec<SnapshotSection>,
    owners: &[(usize, String)],
    pulls: &std::collections::HashMap<String, Vec<SnapshotSection>>,
    table_shards: usize,
    scale: Scale,
) -> Result<Vec<SnapshotSection>, VlppError> {
    let routed: Vec<String> = super::snapshot::decode_sections(&base, scale)
        .map_err(|message| VlppError::protocol(None, format!("base snapshot rejected: {message}")))?
        .iter()
        .filter(|model| model.spec.shards == table_shards)
        .map(|model| model.spec.name.clone())
        .collect();
    let mut composed = base;
    for (shard, owner) in owners {
        let sections = pulls.get(owner).expect("every owner was pulled");
        for model in &routed {
            let name = format!("m:{model}:shard:{shard}");
            let payload = section_bytes(sections, &name).ok_or_else(|| {
                VlppError::protocol(
                    None,
                    format!("owner `{owner}` sync stream lacks section `{name}`"),
                )
            })?;
            match composed.iter_mut().find(|s| s.name == name) {
                Some(slot) => slot.payload = payload.to_vec(),
                None => {
                    composed.push(SnapshotSection { name: name.clone(), payload: payload.to_vec() })
                }
            }
        }
    }
    // The replacement must be able to serve this byte stream whole, or
    // not at all.
    super::snapshot::decode_sections(&composed, scale).map_err(|message| {
        VlppError::protocol(None, format!("composed replacement snapshot rejected: {message}"))
    })?;
    Ok(composed)
}

/// The resync payload for one respawn: validated replacement sections
/// plus the shard/owner map that produced them.
struct Resync {
    sections: Vec<SnapshotSection>,
    owned_shards: Vec<usize>,
}

/// Pulls a writer-at-rest snapshot for the shards `dead_id` owned.
///
/// Exactness argument: each shard is driven by exactly one loadgen
/// worker, and a worker that loses a node pauses that shard (either
/// permanently failing over, or in `--wait-respawn` mode blocking
/// until promotion). So the surviving owner's state for an owned shard
/// is *at rest* shortly after the death — which this function proves,
/// rather than assumes, by pulling every needed snapshot twice and
/// requiring the owned-shard sections to be byte-identical between
/// passes before composing them into the replacement.
fn resync_snapshot(
    table: &RoutingTable,
    dead_id: &str,
    live: &[String],
    timeout_ms: u64,
    scale: Scale,
) -> Result<Resync, VlppError> {
    let owned: Vec<(usize, String)> = (0..table.shards())
        .filter_map(|shard| {
            let primary = table.primary(shard);
            let replica = table.replica(shard);
            if primary.id == dead_id {
                Some((shard, replica.id.clone()))
            } else if replica.id == dead_id {
                Some((shard, primary.id.clone()))
            } else {
                None
            }
        })
        .collect();
    for (shard, owner) in &owned {
        if !live.iter().any(|id| id == owner) {
            return Err(VlppError::protocol(
                None,
                format!(
                    "shard {shard} has no live owner: `{dead_id}` is dead and `{owner}` is gone"
                ),
            ));
        }
    }
    let base_id = live
        .iter()
        .min()
        .ok_or_else(|| VlppError::protocol(None, "no live node to base a resync on".to_string()))?
        .clone();
    let mut pull_ids: Vec<String> = owned.iter().map(|(_, owner)| owner.clone()).collect();
    pull_ids.push(base_id.clone());
    pull_ids.sort();
    pull_ids.dedup();
    let addr_of = |id: &String| -> String {
        table
            .nodes()
            .iter()
            .find(|n| n.id == *id)
            .expect("pull ids come from the table")
            .addr
            .clone()
    };

    let mut last_error = String::new();
    for attempt in 1..=RESYNC_ATTEMPTS {
        let pull = |_pass: &str| -> Result<
            std::collections::HashMap<String, Vec<SnapshotSection>>,
            VlppError,
        > {
            pull_ids
                .iter()
                .map(|id| Ok((id.clone(), pull_sections(&addr_of(id), timeout_ms)?)))
                .collect()
        };
        let result = pull("a").and_then(|pass_a| Ok((pass_a, pull("b")?)));
        match result {
            Ok((pass_a, pass_b)) => {
                // Every owned-shard section must be identical between
                // the passes, on every pulled node that carries it —
                // the at-rest proof.
                let unstable = owned.iter().find(|(shard, owner)| {
                    let names: Vec<String> = pass_b
                        .get(owner)
                        .map(|sections| {
                            sections
                                .iter()
                                .filter(|s| s.name.ends_with(&format!(":shard:{shard}")))
                                .map(|s| s.name.clone())
                                .collect()
                        })
                        .unwrap_or_default();
                    names.iter().any(|name| {
                        pass_a.get(owner).and_then(|s| section_bytes(s, name))
                            != pass_b.get(owner).and_then(|s| section_bytes(s, name))
                    })
                });
                if let Some((shard, owner)) = unstable {
                    last_error = format!(
                        "shard {shard} on `{owner}` is still being written (attempt {attempt})"
                    );
                } else {
                    let base = pass_b.get(&base_id).expect("base was pulled").clone();
                    let sections =
                        compose_replacement(base, &owned, &pass_b, table.shards(), scale)?;
                    return Ok(Resync {
                        sections,
                        owned_shards: owned.iter().map(|(shard, _)| *shard).collect(),
                    });
                }
            }
            Err(error) => last_error = error.to_string(),
        }
        thread::sleep(Duration::from_millis(RESYNC_BACKOFF_MS * attempt as u64));
    }
    Err(VlppError::protocol(
        None,
        format!("resync for `{dead_id}` never stabilized after {RESYNC_ATTEMPTS} attempts: {last_error}"),
    ))
}

/// `vlpp cluster` entry point: spawn, route, announce, supervise.
///
/// # Errors
///
/// [`VlppError::Cli`] for bad arguments, [`VlppError::Io`] /
/// [`VlppError::Protocol`] if a child cannot be spawned or never
/// announces.
pub fn cluster_main(args: &[String]) -> Result<(), VlppError> {
    let options = parse_cluster_args(args)?;
    run_cluster(&options)
}

/// Publishes `table` — the `--routing-out` file first (atomically),
/// then the `CLUSTER_UPDATE` stdout line — so a client that sees the
/// announcement can immediately read a file at least that new.
fn publish_update(table: &RoutingTable, routing_out: Option<&Path>) -> Result<(), VlppError> {
    let wire = table.to_json();
    if let Some(path) = routing_out {
        write_routing(path, &wire)?;
    }
    println!("CLUSTER_UPDATE {wire}");
    let _ = std::io::stdout().flush();
    Ok(())
}

/// Runs the cluster supervisor (see [`cluster_main`]).
///
/// # Errors
///
/// See [`cluster_main`].
pub fn run_cluster(options: &ClusterOptions) -> Result<(), VlppError> {
    for counter in [&RESPAWNS, &RESYNCS, &RESYNC_BYTES, &HEARTBEATS, &SUSPECT] {
        counter.get();
    }
    sig::install();
    let mut children = Vec::with_capacity(options.nodes);
    for i in 0..options.nodes {
        children.push(spawn_node(&format!("node{i}"), options, None)?);
    }
    let nodes = children.iter_mut().map(read_announce).collect::<Result<Vec<Node>, _>>()?;
    let mut table = RoutingTable::build(options.shards, nodes.clone())
        .map_err(|message| cli_error(format!("cannot build routing table: {message}")))?;
    NODES.get().add(options.nodes as u64);

    let wire = table.to_json();
    if let Some(path) = &options.routing_out {
        write_routing(path, &wire)?;
    }
    println!("CLUSTER {wire}");
    let _ = std::io::stdout().flush();

    let mut drains: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut slots: Vec<Slot> = children
        .into_iter()
        .zip(nodes)
        .map(|(mut child, node)| {
            if let Some(handle) = spawn_drain(&mut child) {
                drains.push(handle);
            }
            Slot { node, child, liveness: Liveness::Alive, gone: false }
        })
        .collect();

    let mut exited_clean = 0usize;
    let mut died = 0usize;
    let mut respawns = 0u64;
    let mut resyncs = 0u64;
    let mut respawns_left = options.max_respawns;
    let mut draining = false;
    let mut next_probe = Instant::now() + Duration::from_millis(options.probe_interval_ms);

    // One pass of "ask everyone still running to drain". Idempotent;
    // errors are ignored because a dead child has already drained the
    // hard way.
    let drain_all = |slots: &[Slot]| {
        for slot in slots.iter().filter(|s| !s.gone) {
            let _ = call_node(&slot.node.addr, PROBE_TIMEOUT_MS, "shutdown");
        }
    };

    while slots.iter().any(|slot| !slot.gone) {
        if sig::terminated() && !draining {
            draining = true;
            eprintln!(
                "cluster: termination signal, draining {} children",
                slots.iter().filter(|s| !s.gone).count()
            );
            drain_all(&slots);
        }

        for index in 0..slots.len() {
            if slots[index].gone {
                continue;
            }
            let status = match slots[index].child.child.try_wait() {
                Ok(None) => continue,
                Ok(Some(status)) => status,
                Err(error) => {
                    eprintln!("cluster: cannot wait for node `{}`: {error}", slots[index].node.id);
                    slots[index].gone = true;
                    died += 1;
                    continue;
                }
            };
            slots[index].gone = true;
            if status.success() {
                exited_clean += 1;
                if !draining {
                    // One clean exit means a client asked the cluster
                    // to shut down; propagate so respawned nodes (which
                    // that client may predate) drain too.
                    draining = true;
                    drain_all(&slots);
                }
                continue;
            }
            died += 1;
            NODES_DIED.get().incr();
            let dead_id = slots[index].node.id.clone();
            eprintln!("cluster: node `{dead_id}` terminated abnormally");
            if draining || respawns_left == 0 {
                continue;
            }
            let live: Vec<String> =
                slots.iter().filter(|s| !s.gone).map(|s| s.node.id.clone()).collect();
            match respawn_node(&dead_id, &live, &mut table, options, respawns) {
                Ok((slot, synced_shards)) => {
                    respawns += 1;
                    resyncs += 1;
                    respawns_left -= 1;
                    RESPAWNS.get().incr();
                    RESYNCS.get().incr();
                    publish_update(&table, options.routing_out.as_deref())?;
                    let announce = JsonValue::Object(vec![
                        ("id".to_string(), JsonValue::Str(slot.node.id.clone())),
                        ("addr".to_string(), JsonValue::Str(slot.node.addr.clone())),
                        ("pid".to_string(), JsonValue::UInt(slot.node.pid)),
                        ("synced_shards".to_string(), JsonValue::UInt(synced_shards)),
                        ("version".to_string(), JsonValue::UInt(table.version())),
                    ]);
                    println!("CLUSTER_RESPAWN {announce}");
                    let _ = std::io::stdout().flush();
                    let mut slot = slot;
                    if let Some(handle) = spawn_drain(&mut slot.child) {
                        drains.push(handle);
                    }
                    slots[index] = slot;
                }
                Err(error) => {
                    let detail = JsonValue::Object(vec![
                        ("id".to_string(), JsonValue::Str(dead_id.clone())),
                        ("error".to_string(), JsonValue::Str(error.to_string())),
                    ]);
                    println!("CLUSTER_RESYNC_ERROR {detail}");
                    let _ = std::io::stdout().flush();
                    eprintln!("cluster: giving up on `{dead_id}`: {error}");
                }
            }
        }

        if !draining && Instant::now() >= next_probe {
            next_probe = Instant::now() + Duration::from_millis(options.probe_interval_ms);
            for slot in slots.iter_mut().filter(|s| !s.gone) {
                HEARTBEATS.get().incr();
                match call_node(&slot.node.addr, PROBE_TIMEOUT_MS, "ping") {
                    Ok(_) => slot.liveness = Liveness::Alive,
                    Err(_) => {
                        let misses = match slot.liveness {
                            Liveness::Alive => 1,
                            Liveness::Suspect(misses) => misses + 1,
                        };
                        slot.liveness = Liveness::Suspect(misses);
                        SUSPECT.get().incr();
                        eprintln!(
                            "cluster: node `{}` missed probe {misses}/{}",
                            slot.node.id, options.miss_budget
                        );
                        if misses >= options.miss_budget {
                            // Condemn it: SIGKILL makes the failure
                            // unambiguous, and the reap path above
                            // handles the respawn.
                            eprintln!(
                                "cluster: node `{}` declared dead after {misses} missed probes",
                                slot.node.id
                            );
                            let _ = slot.child.child.kill();
                        }
                    }
                }
            }
        }

        thread::sleep(Duration::from_millis(25));
    }

    for drain in drains {
        let _ = drain.join();
    }
    let summary = JsonValue::Object(vec![
        ("nodes".to_string(), JsonValue::UInt(options.nodes as u64)),
        ("exited_clean".to_string(), JsonValue::UInt(exited_clean as u64)),
        ("died".to_string(), JsonValue::UInt(died as u64)),
        ("respawns".to_string(), JsonValue::UInt(respawns)),
        ("resyncs".to_string(), JsonValue::UInt(resyncs)),
        ("routing_version".to_string(), JsonValue::UInt(table.version())),
    ]);
    println!("CLUSTER_EXIT {summary}");
    print_metrics(options.metrics);
    Ok(())
}

/// Replaces the dead node: resync a snapshot from the survivors, spawn
/// the replacement under the same id, verify it answers `ping`, and
/// update (but do not yet publish) the routing table. Returns the new
/// slot and how many shards were overlaid.
fn respawn_node(
    dead_id: &str,
    live: &[String],
    table: &mut RoutingTable,
    options: &ClusterOptions,
    sequence: u64,
) -> Result<(Slot, u64), VlppError> {
    let resync = resync_snapshot(table, dead_id, live, options.io_timeout_ms, options.scale)?;
    let path = std::env::temp_dir()
        .join(format!("vlpp-resync-{}-{dead_id}-{sequence}.vlps", std::process::id()));
    let mut file = std::fs::File::create(&path)
        .map_err(|source| VlppError::io(path.clone(), "create", source))?;
    write_snapshot(&resync.sections, &mut file).map_err(|source| {
        VlppError::protocol(None, format!("cannot write {}: {source}", path.display()))
    })?;
    drop(file);

    let result = (|| {
        let mut child = spawn_node(dead_id, options, Some(&path))?;
        let node = read_announce(&mut child)?;
        // Promotion gate: it must answer the same probe the heartbeat
        // loop uses before any client is pointed at it.
        call_node(&node.addr, PROBE_TIMEOUT_MS, "ping")?;
        table
            .set_node(dead_id, node.addr.clone(), node.pid)
            .map_err(|message| VlppError::protocol(None, message))?;
        eprintln!(
            "cluster: respawned `{dead_id}` as pid {} at {} ({} shards resynced)",
            node.pid,
            node.addr,
            resync.owned_shards.len()
        );
        Ok((
            Slot { node, child, liveness: Liveness::Alive, gone: false },
            resync.owned_shards.len() as u64,
        ))
    })();
    // The child has loaded (or failed to load) the snapshot by the time
    // it announces; either way the temp file is done.
    let _ = std::fs::remove_file(&path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ClusterOptions, VlppError> {
        parse_cluster_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_defaults_and_flags() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.nodes, 2);
        assert_eq!(options.shards, 4);
        assert_eq!(options.probe_interval_ms, 500);
        assert_eq!(options.miss_budget, 3);
        assert_eq!(options.max_respawns, 16, "self-healing must be on by default");
        assert_eq!(options.io_timeout_ms, super::super::DEFAULT_IO_TIMEOUT_MS);
        assert!(!options.metrics);
        let options = parse(&[
            "--nodes",
            "3",
            "--shards",
            "8",
            "--scale",
            "1000000",
            "--routing-out",
            "/tmp/r.json",
            "--probe-interval-ms",
            "50",
            "--miss-budget",
            "2",
            "--max-respawns",
            "0",
            "--io-timeout-ms",
            "750",
            "--metrics",
        ])
        .unwrap();
        assert_eq!(options.nodes, 3);
        assert_eq!(options.shards, 8);
        assert_eq!(options.scale.divisor(), 1_000_000);
        assert_eq!(options.routing_out.as_deref(), Some(std::path::Path::new("/tmp/r.json")));
        assert_eq!(options.probe_interval_ms, 50);
        assert_eq!(options.miss_budget, 2);
        assert_eq!(options.max_respawns, 0, "0 must disable self-healing, not error");
        assert_eq!(options.io_timeout_ms, 750);
        assert!(options.metrics);
    }

    /// Zero (and one-node) counts are typed config errors, never clamps:
    /// a single node cannot host a replica, and zero shards routes
    /// nothing. `--max-respawns 0` and `--io-timeout-ms 0` are the
    /// documented "off" switches and stay legal.
    #[test]
    fn zero_and_single_counts_are_rejected_not_clamped() {
        for bad in [
            &["--nodes", "0"][..],
            &["--nodes", "1"],
            &["--shards", "0"],
            &["--scale", "0"],
            &["--probe-interval-ms", "0"],
            &["--miss-budget", "0"],
        ] {
            let error = parse(bad).unwrap_err();
            assert_eq!(error.phase(), "config", "{bad:?}");
        }
        assert!(parse(&["--max-respawns", "0"]).is_ok());
        assert!(parse(&["--io-timeout-ms", "0"]).is_ok());
    }

    /// The resync composer refuses to fabricate state: a missing
    /// owner section is a typed error, and the composed stream must
    /// decode whole.
    #[test]
    fn compose_replacement_rejects_missing_owner_sections() {
        // A manifest-only base decodes to zero models, so an empty
        // owner map composes trivially...
        let manifest = SnapshotSection {
            name: "manifest".to_string(),
            payload: br#"{"format":1,"scale":1000,"models":[]}"#.to_vec(),
        };
        let scale = Scale::new(1000);
        let composed = compose_replacement(
            vec![manifest.clone()],
            &[],
            &std::collections::HashMap::new(),
            4,
            scale,
        )
        .unwrap();
        assert_eq!(composed.len(), 1);
        // ...and a base that does not even decode is rejected.
        let error =
            compose_replacement(Vec::new(), &[], &std::collections::HashMap::new(), 4, scale)
                .unwrap_err();
        assert!(error.to_string().contains("base snapshot rejected"), "{error}");
    }
}
