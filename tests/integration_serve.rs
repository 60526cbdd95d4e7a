//! End-to-end tests of `vlpp serve` / `vlpp loadgen`: the framed wire
//! protocol's edge cases against a live server, the loadgen oracle at
//! 1 and 8 worker threads, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use vlpp_trace::frame::{read_frame, write_frame};
use vlpp_trace::json::JsonValue;

/// A running `vlpp serve` at the given worker-thread count, bound to a
/// kernel-assigned port parsed from its `SERVE` announce line.
struct Server {
    child: Child,
    addr: String,
    /// The daemon's stdout past the announce line — where the
    /// `--metrics` snapshot appears after shutdown.
    reader: BufReader<ChildStdout>,
}

impl Server {
    fn start(threads: &str) -> Server {
        Server::start_with(threads, &[])
    }

    fn start_with(threads: &str, extra_args: &[&str]) -> Server {
        Server::start_with_env(threads, extra_args, &[])
    }

    fn start_with_env(threads: &str, extra_args: &[&str], env: &[(&str, &str)]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vlpp"))
            .args(["serve", "--listen", "127.0.0.1:0", "--scale", "1000000"])
            .args(extra_args)
            .env("VLPP_THREADS", threads)
            .env_remove("VLPP_SCALE")
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut announce = String::new();
        reader.read_line(&mut announce).expect("announce line reads");
        let json = announce.trim_end().strip_prefix("SERVE ").expect("line starts with SERVE ");
        let value = JsonValue::parse(json).expect("announce is valid JSON");
        let addr = value.get("addr").and_then(|v| v.as_str()).expect("addr field").to_string();
        Server { child, addr, reader }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout set");
        stream
    }

    /// Sends `shutdown` and asserts the daemon exits 0 promptly.
    fn shutdown_and_wait(mut self) {
        self.shutdown_and_wait_by_ref();
    }

    /// SIGKILLs the daemon — the crash half of the snapshot
    /// warm-restart drill. No drain, no goodbye.
    fn kill_hard(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("wait");
    }

    /// Sends `shutdown`, waits for a clean exit, then scans the rest of
    /// the daemon's stdout for the `METRICS {json}` snapshot a
    /// `--metrics` server prints on the way out.
    fn shutdown_and_read_metrics(mut self) -> JsonValue {
        self.shutdown_and_wait_by_ref();
        let mut snapshot = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).expect("stdout reads") == 0 {
                break;
            }
            if let Some(json) = line.trim_end().strip_prefix("METRICS ") {
                snapshot = Some(JsonValue::parse(json).expect("METRICS payload parses"));
            }
        }
        snapshot.expect("a --metrics server prints a METRICS line at shutdown")
    }

    fn shutdown_and_wait_by_ref(&mut self) {
        let mut conn = self.connect();
        let response = call(&mut conn, r#"{"verb":"shutdown"}"#);
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert!(status.success(), "server must exit 0 after drain, got {status}");
                    return;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
                None => {
                    let _ = self.child.kill();
                    panic!("server did not exit within 30s of shutdown");
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One framed request/response round trip.
fn call(conn: &mut TcpStream, request: &str) -> JsonValue {
    write_frame(&mut *conn, request.as_bytes()).expect("request frame writes");
    let payload = read_frame(&mut *conn).expect("response frame reads").expect("not EOF");
    JsonValue::parse(std::str::from_utf8(&payload).expect("utf-8")).expect("response parses")
}

fn train_request(model: &str) -> String {
    format!(
        r#"{{"verb":"train","model":"{model}","benchmark":"compress","kind":"cond","index_bits":10,"shards":2}}"#
    )
}

#[test]
fn framing_edge_cases_are_errors_and_the_server_survives_them() {
    let server = Server::start("2");

    // Zero-length frame: a typed frame error response, then the
    // connection closes (framing cannot resync).
    {
        let mut conn = server.connect();
        conn.write_all(&0u32.to_le_bytes()).expect("prefix writes");
        let payload = read_frame(&mut conn).expect("error response reads").expect("not EOF");
        let response = JsonValue::parse(std::str::from_utf8(&payload).expect("utf-8"))
            .expect("response parses");
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
        let phase = response.get("error").and_then(|e| e.get("phase")).and_then(|v| v.as_str());
        assert_eq!(phase, Some("frame"));
        // After the error response the server closes: EOF.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("reads to EOF");
        assert!(rest.is_empty(), "nothing after the error response");
    }

    // Oversized length prefix: rejected before allocation, same error
    // path.
    {
        let mut conn = server.connect();
        conn.write_all(&u32::MAX.to_le_bytes()).expect("prefix writes");
        let payload = read_frame(&mut conn).expect("error response reads").expect("not EOF");
        let text = String::from_utf8(payload).expect("utf-8");
        assert!(text.contains(r#""phase":"frame""#), "frame-phase error, got: {text}");
        assert!(text.contains("cap"), "mentions the byte cap: {text}");
    }

    // Mid-frame disconnect: no response possible; the server must just
    // survive it.
    {
        let mut conn = server.connect();
        conn.write_all(&100u32.to_le_bytes()).expect("prefix writes");
        conn.write_all(b"only a few bytes").expect("partial payload writes");
        drop(conn);
    }

    // Malformed JSON and protocol errors keep the connection usable.
    {
        let mut conn = server.connect();
        let response = call(&mut conn, "not json at all");
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
        let response = call(&mut conn, r#"{"verb":"levitate"}"#);
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
        let phase = response.get("error").and_then(|e| e.get("phase")).and_then(|v| v.as_str());
        assert_eq!(phase, Some("protocol"));
        // ... and a well-formed request on the same connection works.
        let response = call(&mut conn, &train_request("edge"));
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
    }

    server.shutdown_and_wait();
}

#[test]
fn interleaved_verbs_on_one_connection_answer_in_order_with_ids() {
    let server = Server::start("2");
    let mut conn = server.connect();

    let response = call(&mut conn, &train_request("mixed"));
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));

    // Pipeline several verbs before reading anything back; responses
    // must come back in order, ids echoed.
    let requests = [
        r#"{"verb":"predict","id":10,"model":"mixed","records":[{"pc":4096,"target":4160,"kind":"cond","taken":true}]}"#.to_string(),
        r#"{"verb":"update","id":11,"model":"mixed","records":[{"pc":4096,"target":4160,"kind":"cond","taken":true}]}"#.to_string(),
        r#"{"verb":"stats","id":12,"model":"mixed"}"#.to_string(),
        r#"{"verb":"predict","id":13,"model":"nonesuch","records":[]}"#.to_string(),
        r#"{"verb":"stats","id":14}"#.to_string(),
    ];
    for request in &requests {
        write_frame(&mut conn, request.as_bytes()).expect("request writes");
    }
    let mut responses = Vec::new();
    for _ in 0..requests.len() {
        let payload = read_frame(&mut conn).expect("response reads").expect("not EOF");
        responses.push(
            JsonValue::parse(std::str::from_utf8(&payload).expect("utf-8"))
                .expect("response parses"),
        );
    }
    let ids: Vec<Option<u64>> =
        responses.iter().map(|r| r.get("id").and_then(|v| v.as_u64())).collect();
    assert_eq!(ids, vec![Some(10), Some(11), Some(12), Some(13), Some(14)]);
    // The batch of one conditional yields one prediction slot.
    let predictions =
        responses[0].get("predictions").and_then(|p| p.as_array()).expect("predictions");
    assert_eq!(predictions.len(), 1);
    assert!(predictions[0].get("taken").is_some());
    // update responds with a count, no predictions.
    assert_eq!(responses[1].get("records").and_then(|v| v.as_u64()), Some(1));
    assert!(responses[1].get("predictions").is_none());
    // stats sees 2 predictions (predict + update both advance state).
    let stats = responses[2].get("stats").expect("stats body");
    assert_eq!(stats.get("predictions").and_then(|v| v.as_u64()), Some(2));
    // The unknown model is an in-band protocol error; the connection
    // kept working for request 14.
    assert_eq!(responses[3].get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(responses[4].get("ok").and_then(|v| v.as_bool()), Some(true));

    server.shutdown_and_wait();
}

fn loadgen_against(server: &Server, client_threads: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args([
            "loadgen",
            "--addr",
            &server.addr,
            "--connections",
            "8",
            "--records",
            "6000",
            "--update-every",
            "4",
            "--scale",
            "1000000",
        ])
        .env("VLPP_THREADS", client_threads)
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "loadgen failed:\nstdout: {stdout}\nstderr: {stderr}");
    let line = stdout.lines().find(|l| l.starts_with("LOADGEN ")).expect("LOADGEN line");
    let summary =
        JsonValue::parse(line.strip_prefix("LOADGEN ").expect("prefix")).expect("summary parses");
    assert_eq!(summary.get("mismatches").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(summary.get("stats_match").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(summary.get("records").and_then(|v| v.as_u64()), Some(6000));
}

/// Runs `vlpp loadgen` with the common flags plus `extra`, asserts the
/// run held the oracle, and returns the parsed `LOADGEN` summary.
fn run_loadgen_ok(addr: &str, extra: &[&str]) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--addr", addr, "--connections", "4", "--scale", "1000000"])
        .args(extra)
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
    assert_eq!(summary.get("mismatches").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(summary.get("stats_match").and_then(|v| v.as_bool()), Some(true));
    summary
}

/// The snapshot warm-restart drill: replay a prefix and snapshot it,
/// SIGKILL the server, start a fresh one from the snapshot, replay the
/// rest with `--skip`. The final counters must equal the offline
/// reference over the *whole* stream — nothing lost to the crash,
/// nothing double-counted by the restart.
#[test]
fn snapshot_warm_restart_resumes_the_oracle_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("vlpp-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("model.vlps");
    let snap_str = snap.to_str().expect("utf-8 path").to_string();

    let server = Server::start("2");
    let summary = run_loadgen_ok(&server.addr, &["--records", "3000", "--save", &snap_str]);
    assert!(
        summary.get("snapshot_bytes").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "save reports a non-empty snapshot: {summary}"
    );
    server.kill_hard();
    assert!(snap.exists(), "snapshot file survives the crash");

    let server = Server::start_with("2", &["--snapshot", &snap_str]);
    let summary =
        run_loadgen_ok(&server.addr, &["--no-train", "--skip", "3000", "--records", "6000"]);
    assert_eq!(summary.get("skipped").and_then(|v| v.as_u64()), Some(3000));
    assert_eq!(summary.get("records").and_then(|v| v.as_u64()), Some(6000));
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard-mismatch regression: driving a pre-trained model with a
/// conflicting `--shards` must fail fast at connect time (records would
/// be routed to the wrong shard), naming both counts; dropping the flag
/// adopts the server's count and the oracle holds.
#[test]
fn pretrained_shard_count_mismatch_fails_fast_before_any_record() {
    let server = Server::start("2");
    let mut conn = server.connect();
    let response = call(&mut conn, &train_request("loadgen"));
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));

    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--addr", &server.addr, "--no-train", "--shards", "4"])
        .args(["--scale", "1000000"])
        .env("VLPP_THREADS", "2")
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    assert!(!output.status.success(), "a conflicting --shards must fail the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("shard mismatch"), "names the failure: {stderr}");
    assert!(stderr.contains('2') && stderr.contains('4'), "names both counts: {stderr}");

    // Dropping --shards adopts the server's count — 2, not the
    // connection count the old code would have silently guessed.
    let summary = run_loadgen_ok(&server.addr, &["--no-train", "--records", "3000"]);
    assert_eq!(summary.get("shards").and_then(|v| v.as_u64()), Some(2));
    server.shutdown_and_wait();
}

/// More shards than connections: worker `c` of 3 drives shards
/// `s % 3 == c` one after another over one connection (worker 0 gets
/// 0, 3 and 6), and the oracle and all 8 per-shard stats entries still
/// hold. Today every `compress` record lands in shard 7, so worker 1
/// sends every batch and the other shards stay empty.
#[test]
fn one_worker_drives_several_shards_on_one_server() {
    let server = Server::start("2");
    let summary = run_loadgen_ok(
        &server.addr,
        &["--shards", "8", "--connections", "3", "--records", "6000", "--update-every", "4"],
    );
    assert_eq!(summary.get("shards").and_then(|v| v.as_u64()), Some(8), "{summary}");
    assert_eq!(summary.get("connections").and_then(|v| v.as_u64()), Some(3), "{summary}");
    assert_eq!(summary.get("nodes").and_then(|v| v.as_u64()), Some(1), "{summary}");
    server.shutdown_and_wait();
}

/// The one death policy on one node: a refused connect means the
/// server is dead, and nothing retries it. Loadgen aimed at a loopback
/// port that was bound and then closed exits non-zero at once, with a
/// typed error naming the connect failure.
#[test]
fn a_refused_connect_fails_the_run_at_once() {
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        listener.local_addr().expect("local addr").to_string()
    };
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["loadgen", "--addr", &addr, "--records", "500", "--scale", "1000000"])
        .env("VLPP_THREADS", "2")
        .env_remove("VLPP_SCALE")
        .output()
        .expect("loadgen runs");
    let elapsed = started.elapsed();
    assert!(!output.status.success(), "a closed port cannot pass the oracle");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("connect") && stderr.contains(&addr), "names the failure: {stderr}");
    assert!(elapsed < Duration::from_secs(5), "a dead server fails fast, took {elapsed:?}");
}

#[test]
fn loadgen_predictions_match_offline_at_one_server_thread() {
    let server = Server::start("1");
    loadgen_against(&server, "1");
    server.shutdown_and_wait();
}

#[test]
fn loadgen_predictions_match_offline_at_eight_server_threads() {
    let server = Server::start("8");
    loadgen_against(&server, "2");
    server.shutdown_and_wait();
}

/// Drives the loadgen oracle against a `--metrics` server, then asserts
/// the shutdown snapshot carries the SoA kernel's throughput metrics:
/// the `sim.predict_ns` span histogram (one entry per served batch) and
/// the `sim.records_per_sec` gauge, both fed by the shard executor's
/// kernel path. The oracle's byte-for-byte check runs first, so the
/// metrics are known to describe correct predictions.
fn metrics_snapshot_after_load(server_threads: &str) {
    let server = Server::start_with(server_threads, &["--metrics"]);
    loadgen_against(&server, "2");
    let snapshot = server.shutdown_and_read_metrics();

    let predict = snapshot.get("sim.predict_ns").expect("snapshot has sim.predict_ns");
    let batches = predict.get("count").and_then(|v| v.as_u64()).expect("histogram count");
    assert!(batches > 0, "sim.predict_ns must have recorded served batches, got {batches}");
    let sum_ns = predict.get("sum_ns").and_then(|v| v.as_u64()).expect("histogram sum_ns");
    assert!(sum_ns > 0, "served batches cannot take zero total time");

    let throughput = snapshot.get("sim.records_per_sec").expect("snapshot has sim.records_per_sec");
    let value = throughput.get("value").and_then(|v| v.as_u64()).expect("gauge value");
    let high_water = throughput.get("high_water").and_then(|v| v.as_u64()).expect("high water");
    assert!(value > 0, "records/sec gauge must hold the last batch's throughput");
    assert!(high_water >= value, "gauge high-water below its value: {high_water} < {value}");
}

#[test]
fn serve_metrics_carry_kernel_throughput_at_one_server_thread() {
    metrics_snapshot_after_load("1");
}

#[test]
fn serve_metrics_carry_kernel_throughput_at_eight_server_threads() {
    metrics_snapshot_after_load("8");
}

/// The delayed-ACK regression: a client *without* `TCP_NODELAY` (the
/// plain `TcpStream` default) finishes 50 `ping` round trips in well
/// under a second. When a frame's prefix and payload went out as two
/// writes, Nagle's algorithm held each response payload until the
/// client's delayed ACK (~40 ms), so 50 pings took over 2 s.
#[test]
fn fifty_pings_over_loopback_tcp_take_under_a_second() {
    let server = Server::start("2");
    let mut conn = server.connect();
    assert!(!conn.nodelay().expect("reads TCP_NODELAY"), "the client keeps Nagle on");
    let started = Instant::now();
    for _ in 0..50 {
        let response = call(&mut conn, r#"{"verb":"ping"}"#);
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 ping round trips took {elapsed:?}");
    server.shutdown_and_wait();
}

/// A `sync` header and its chunk frames go out back to back; with
/// `TCP_NODELAY` on the server's socket none of them waits on the
/// client's delayed ACK. The model is sized so its snapshot stream
/// spans at least two chunk frames. Twenty syncs must finish in under a
/// second: one took ~90 ms when the stream stalled behind delayed ACKs,
/// and ~5 ms without.
#[test]
fn multi_chunk_syncs_take_under_a_second() {
    let server = Server::start("2");
    let mut conn = server.connect();
    let train = r#"{"verb":"train","model":"big","benchmark":"compress","kind":"ind","index_bits":15,"shards":2}"#;
    assert_eq!(call(&mut conn, train).get("ok").and_then(|v| v.as_bool()), Some(true));

    let started = Instant::now();
    for _ in 0..20 {
        let header = call(&mut conn, r#"{"verb":"sync","model":"big"}"#);
        assert_eq!(header.get("ok").and_then(|v| v.as_bool()), Some(true), "{header}");
        let chunks = header.get("chunks").and_then(|v| v.as_u64()).expect("chunk count");
        assert!(chunks >= 2, "the snapshot must span at least two chunk frames: {header}");
        let mut received = 0u64;
        for _ in 0..chunks {
            let chunk = read_frame(&mut conn).expect("chunk reads").expect("not EOF");
            received += chunk.len() as u64;
        }
        assert_eq!(Some(received), header.get("bytes").and_then(|v| v.as_u64()));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "20 multi-chunk syncs took {elapsed:?}");
    server.shutdown_and_wait();
}

/// A predict request for `records` seeded records, with an echoed id.
/// The records cycle through 13 branch sites with a periodic outcome,
/// so the predictor's answers depend on every record before them.
fn seeded_predict(model: &str, id: u64, records: u64) -> String {
    let records: Vec<String> = (0..records)
        .map(|i| {
            let n = id * records + i;
            let pc = 4096 + 64 * (n % 13);
            let taken = (n * 7) % 5 < 3;
            format!(r#"{{"pc":{pc},"target":{},"kind":"cond","taken":{taken}}}"#, pc + 128)
        })
        .collect();
    format!(r#"{{"verb":"predict","id":{id},"model":"{model}","records":[{}]}}"#, records.join(","))
}

/// With one thread per connection, a client that pipelines is held back
/// by the socket buffers alone. 256 predicts (8x the per-connection
/// queue depth the server once had) go out before any response is
/// read; the answers come back in id order and byte-identical to the
/// same requests sent one at a time to a freshly trained model.
#[test]
fn pipelined_predicts_beyond_the_old_queue_depth_answer_in_order() {
    const FRAMES: u64 = 256;
    let server = Server::start("2");
    let mut conn = server.connect();
    let train = train_request("pipe");
    assert_eq!(call(&mut conn, &train).get("ok").and_then(|v| v.as_bool()), Some(true));

    for id in 0..FRAMES {
        write_frame(&mut conn, seeded_predict("pipe", id, 8).as_bytes()).expect("request writes");
    }
    let pipelined: Vec<Vec<u8>> = (0..FRAMES)
        .map(|_| read_frame(&mut conn).expect("response reads").expect("not EOF"))
        .collect();

    // Retraining replaces the model with a fresh one.
    assert_eq!(call(&mut conn, &train).get("ok").and_then(|v| v.as_bool()), Some(true));
    for (id, response) in (0..FRAMES).zip(&pipelined) {
        write_frame(&mut conn, seeded_predict("pipe", id, 8).as_bytes()).expect("request writes");
        let closed_loop = read_frame(&mut conn).expect("response reads").expect("not EOF");
        assert_eq!(
            String::from_utf8_lossy(response),
            String::from_utf8_lossy(&closed_loop),
            "response {id}"
        );
        let parsed = JsonValue::parse(std::str::from_utf8(response).expect("utf-8"))
            .expect("response parses");
        assert_eq!(parsed.get("id").and_then(|v| v.as_u64()), Some(id), "{parsed}");
        let predictions = parsed.get("predictions").and_then(|p| p.as_array()).expect("slots");
        assert_eq!(predictions.len(), 8, "{parsed}");
    }
    server.shutdown_and_wait();
}

/// The server numbers its frame operations deterministically: on one
/// closed-loop connection, request k is frame op 2k-1 and its response
/// op 2k. So `netdrop@4` drops exactly the second response: the first
/// ping is answered, the second sees EOF with no response, and a fresh
/// connection is served as usual.
#[test]
fn server_netdrop_at_frame_four_drops_exactly_the_second_response() {
    let server = Server::start_with_env("2", &[], &[("VLPP_FAULT", "netdrop@4")]);
    let mut conn = server.connect();
    let pong = call(&mut conn, r#"{"verb":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true), "{pong}");
    write_frame(&mut conn, br#"{"verb":"ping"}"#).expect("second ping writes");
    match read_frame(&mut conn) {
        Ok(None) => {}
        other => panic!("the dropped response must leave a bare EOF, got {other:?}"),
    }

    let mut fresh = server.connect();
    let pong = call(&mut fresh, r#"{"verb":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true), "{pong}");
    server.shutdown_and_wait();
}

/// The thread count of a running process, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn thread_count(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status reads");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

/// Each open connection costs the server exactly one thread, and
/// closing it gives the thread back.
#[cfg(target_os = "linux")]
#[test]
fn one_connection_costs_one_thread() {
    const CONNECTIONS: usize = 4;
    let server = Server::start("2");
    let pid = server.child.id();
    // One served round trip first: the acceptor and the signal watcher
    // are running by then, so the baseline is settled.
    let mut warm = server.connect();
    assert_eq!(
        call(&mut warm, r#"{"verb":"ping"}"#).get("ok").and_then(|v| v.as_bool()),
        Some(true)
    );
    let baseline = thread_count(pid);

    let mut conns: Vec<TcpStream> = (0..CONNECTIONS).map(|_| server.connect()).collect();
    // A round trip on each guarantees every handler is up.
    for conn in &mut conns {
        let pong = call(conn, r#"{"verb":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true), "{pong}");
    }
    assert_eq!(thread_count(pid), baseline + CONNECTIONS, "one thread per connection");

    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(10);
    while thread_count(pid) != baseline {
        assert!(Instant::now() < deadline, "closed connections must give their threads back");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown_and_wait();
}
