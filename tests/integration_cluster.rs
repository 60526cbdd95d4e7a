//! End-to-end `vlpp cluster` failover drill: spawn a cluster, slam it
//! with `vlpp loadgen --routing`, SIGKILL the primary of shard 0
//! mid-run, and assert the byte-for-byte oracle holds across the
//! failover — served predictions identical to the offline reference,
//! and every shard's counters exact on its surviving owner.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use vlpp_trace::json::JsonValue;

/// A running `vlpp cluster` supervisor, its parsed `CLUSTER` routing
/// table, and the stdout reader still attached for `CLUSTER_EXIT`.
struct Cluster {
    child: Child,
    reader: BufReader<ChildStdout>,
    table: JsonValue,
}

impl Cluster {
    fn start(threads: &str, nodes: &str, shards: &str, routing_out: &Path) -> Cluster {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vlpp"))
            .args(["cluster", "--nodes", nodes, "--shards", shards, "--scale", "1000000"])
            .args(["--routing-out", routing_out.to_str().expect("utf-8 path")])
            // Self-healing off: this file drills the *failover* path,
            // where a dead node stays dead and the survivor carries its
            // shards (the respawn path has its own drill in
            // tests/integration_selfheal.rs).
            .args(["--max-respawns", "0"])
            .env("VLPP_THREADS", threads)
            .env_remove("VLPP_SCALE")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("cluster spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let table = loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("stdout reads");
            assert!(n > 0, "cluster exited before its CLUSTER line");
            if let Some(json) = line.trim_end().strip_prefix("CLUSTER ") {
                break JsonValue::parse(json).expect("CLUSTER payload parses");
            }
        };
        Cluster { child, reader, table }
    }

    /// The node id of shard 0's primary — killing it guarantees the
    /// drill actually exercises a failover.
    fn primary_of_shard0(&self) -> String {
        let assignments =
            self.table.get("assignments").and_then(|v| v.as_array()).expect("assignments");
        let pair = assignments[0].as_array().expect("assignment pair");
        let index = pair[0].as_u64().expect("primary index") as usize;
        let nodes = self.table.get("nodes").and_then(|v| v.as_array()).expect("nodes");
        nodes[index].get("id").and_then(|v| v.as_str()).expect("node id").to_string()
    }

    /// Waits for the supervisor to exit cleanly and returns its
    /// `CLUSTER_EXIT` accounting line.
    fn wait_exit(mut self) -> JsonValue {
        let mut exit = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).expect("stdout reads") == 0 {
                break;
            }
            if let Some(json) = line.trim_end().strip_prefix("CLUSTER_EXIT ") {
                exit = Some(JsonValue::parse(json).expect("CLUSTER_EXIT parses"));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert!(status.success(), "supervisor must exit 0, got {status}");
                    break;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
                None => {
                    let _ = self.child.kill();
                    panic!("supervisor did not exit within 30s");
                }
            }
        }
        exit.expect("supervisor prints CLUSTER_EXIT")
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vlpp-cluster-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The full drill at a given server thread count: 3 nodes, 4 shards,
/// kill shard 0's primary after 10 batches, expect a clean oracle.
/// Small batches (`--batch 32`) keep plenty of stream after the kill so
/// the failover path does real work; every 4th batch goes to both
/// owners as `update`.
fn failover_drill(threads: &str) {
    let dir = temp_dir(threads);
    let routing = dir.join("routing.json");
    let cluster = Cluster::start(threads, "3", "4", &routing);
    assert!(routing.exists(), "--routing-out file written before the CLUSTER line");
    let victim = cluster.primary_of_shard0();

    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--routing", routing.to_str().expect("utf-8 path")])
        .args(["--records", "6000", "--connections", "4", "--batch", "32"])
        .args(["--update-every", "4"])
        .args(["--kill", &victim, "--kill-after", "10"])
        .args(["--scale", "1000000", "--shutdown"])
        .env("VLPP_THREADS", "2")
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "loadgen failed:\nstdout: {stdout}\nstderr: {stderr}");
    let line = stdout.lines().find(|l| l.starts_with("LOADGEN ")).expect("LOADGEN line");
    let summary =
        JsonValue::parse(line.strip_prefix("LOADGEN ").expect("prefix")).expect("summary parses");

    assert_eq!(summary.get("mismatches").and_then(|v| v.as_u64()), Some(0), "{summary}");
    assert_eq!(summary.get("stats_match").and_then(|v| v.as_bool()), Some(true), "{summary}");
    assert_eq!(summary.get("killed").and_then(|v| v.as_bool()), Some(true), "{summary}");
    assert_eq!(summary.get("nodes").and_then(|v| v.as_u64()), Some(3), "{summary}");
    assert!(
        summary.get("failovers").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "killing shard 0's primary mid-run must force at least one failover: {summary}"
    );
    let dead = summary.get("dead_nodes").and_then(|v| v.as_array()).expect("dead_nodes");
    assert_eq!(dead.len(), 1, "exactly the victim died: {summary}");
    assert_eq!(dead[0].as_str(), Some(victim.as_str()), "{summary}");

    // The supervisor accounts for the casualty and still exits 0.
    let exit = cluster.wait_exit();
    assert_eq!(exit.get("nodes").and_then(|v| v.as_u64()), Some(3), "{exit}");
    assert_eq!(exit.get("died").and_then(|v| v.as_u64()), Some(1), "{exit}");
    assert_eq!(exit.get("exited_clean").and_then(|v| v.as_u64()), Some(2), "{exit}");
    assert_eq!(
        exit.get("respawns").and_then(|v| v.as_u64()),
        Some(0),
        "--max-respawns 0 must disable self-healing: {exit}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_failover_holds_the_oracle_at_one_server_thread() {
    failover_drill("1");
}

#[test]
fn cluster_failover_holds_the_oracle_at_eight_server_threads() {
    failover_drill("8");
}

/// The shard that carries the most of the first `records` records of
/// the drills' trace (`compress` at scale 1 000 000). Its branch PCs
/// share one residue mod 4 in word units, so at 4 shards one shard
/// carries them all, and it is not shard 0.
fn busiest_shard(shards: usize, records: usize) -> usize {
    let workloads = vlpp_sim::Workloads::new(vlpp_sim::Scale::new(1_000_000));
    let benchmark = vlpp_synth::suite::benchmark("compress").expect("known benchmark");
    let mut counts = vec![0usize; shards];
    for record in workloads.test_trace(&benchmark).iter().take(records) {
        counts[vlpp_sim::serve::routing::shard_of(record.pc(), shards)] += 1;
    }
    (0..shards).max_by_key(|&shard| counts[shard]).expect("at least one shard")
}

/// Kills the primary of the shard that carries the traffic, after
/// update batches have gone to both of its owners. The replica must
/// then serve the shard's predictions from state that those update
/// batches helped build, so a lost or doubled update fan-out breaks
/// the oracle. (`failover_drill` kills shard 0's primary, which at 4
/// shards owns no traffic, so its kill only ends a replica fan-out.)
#[test]
fn primary_failover_after_update_batches_holds_the_oracle() {
    let dir = temp_dir("update");
    let routing = dir.join("routing.json");
    let cluster = Cluster::start("2", "3", "4", &routing);
    let shard = busiest_shard(4, 6000);
    let assignments =
        cluster.table.get("assignments").and_then(|v| v.as_array()).expect("assignments");
    let primary = assignments[shard].as_array().expect("pair")[0].as_u64().expect("index");
    let nodes = cluster.table.get("nodes").and_then(|v| v.as_array()).expect("nodes");
    let victim = nodes[primary as usize].get("id").and_then(|v| v.as_str()).expect("id");

    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--routing", routing.to_str().expect("utf-8 path")])
        .args(["--records", "6000", "--connections", "4", "--batch", "32"])
        .args(["--update-every", "4", "--kill", victim, "--kill-after", "10"])
        .args(["--scale", "1000000", "--shutdown"])
        .env("VLPP_THREADS", "2")
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "loadgen failed:\nstdout: {stdout}\nstderr: {stderr}");
    let line = stdout.lines().find(|l| l.starts_with("LOADGEN ")).expect("LOADGEN line");
    let summary =
        JsonValue::parse(line.strip_prefix("LOADGEN ").expect("prefix")).expect("summary parses");
    assert_eq!(summary.get("mismatches").and_then(|v| v.as_u64()), Some(0), "{summary}");
    assert_eq!(summary.get("stats_match").and_then(|v| v.as_bool()), Some(true), "{summary}");
    assert_eq!(summary.get("killed").and_then(|v| v.as_bool()), Some(true), "{summary}");
    assert!(summary.get("failovers").and_then(|v| v.as_u64()).unwrap_or(0) >= 1, "{summary}");
    let dead = summary.get("dead_nodes").and_then(|v| v.as_array()).expect("dead_nodes");
    assert_eq!(dead, &[JsonValue::Str(victim.to_string())], "{summary}");

    let exit = cluster.wait_exit();
    assert_eq!(exit.get("died").and_then(|v| v.as_u64()), Some(1), "{exit}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--shards` flag conflicting with the routing table is a fail-fast
/// CLI error naming both counts — the cluster-mode half of the
/// shard-mismatch regression.
#[test]
fn routing_table_shard_mismatch_fails_fast() {
    let dir = temp_dir("mismatch");
    let routing = dir.join("routing.json");
    let cluster = Cluster::start("2", "2", "4", &routing);

    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--routing", routing.to_str().expect("utf-8 path")])
        .args(["--shards", "8", "--scale", "1000000"])
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    assert!(!output.status.success(), "conflicting --shards must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("shard mismatch"), "{stderr}");
    assert!(stderr.contains('4') && stderr.contains('8'), "names both counts: {stderr}");

    // Shut the nodes down cleanly so no serve process outlives the test.
    let nodes = cluster.table.get("nodes").and_then(|v| v.as_array()).expect("nodes").to_vec();
    for node in &nodes {
        let addr = node.get("addr").and_then(|v| v.as_str()).expect("addr");
        let mut conn = std::net::TcpStream::connect(addr).expect("connects");
        vlpp_trace::frame::write_frame(&mut conn, br#"{"verb":"shutdown"}"#).expect("writes");
        let _ = vlpp_trace::frame::read_frame(&mut conn);
    }
    let exit = cluster.wait_exit();
    assert_eq!(exit.get("died").and_then(|v| v.as_u64()), Some(0), "{exit}");
    let _ = std::fs::remove_dir_all(&dir);
}
