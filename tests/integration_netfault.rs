//! Deterministic network fault injection against a live `vlpp serve`:
//! arms a `VLPP_FAULT` net plan in *this* process (the client side of
//! the wire), drives ping and sync through the faulted frame layer, and
//! asserts each fault fires at exactly its frame sequence number —
//! drop leaves the connection reusable, stall delays but succeeds, a
//! read-boundary trunc is a typed error with the header still intact on
//! the socket. The sync stream reassembled after the faulted attempt
//! must decode, and a corrupted copy must be rejected by the snapshot
//! checksum — damage never turns into silently-adopted state.
//!
//! The frame sequence counter and the armed plan are process-wide, so
//! this file holds exactly one `#[test]`.

use std::io::BufReader;
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vlpp_sim::serve::snapshot::read_snapshot;
use vlpp_trace::frame::{net_faults_injected, read_frame, write_frame};
use vlpp_trace::json::JsonValue;

fn read_json(conn: &mut TcpStream) -> JsonValue {
    let payload = read_frame(&mut *conn).expect("response frame").expect("not EOF");
    JsonValue::parse(std::str::from_utf8(&payload).expect("utf-8")).expect("response parses")
}

#[test]
fn net_faults_fire_at_exact_frame_sequence_numbers() {
    // Arm the plan before the first frame operation of this process:
    // frame 1 drops, frame 3 stalls 50 ms, frame 5 truncates (which at
    // a read boundary fails without consuming socket bytes).
    std::env::set_var("VLPP_FAULT", "netdrop@1,netstall@3:50,nettrunc@5:4");

    let mut child = Command::new(env!("CARGO_BIN_EXE_vlpp"))
        .args(["serve", "--listen", "127.0.0.1:0", "--scale", "1000000"])
        .env("VLPP_THREADS", "2")
        .env_remove("VLPP_SCALE")
        // The faults under test are client-side; a faulted server would
        // shift this process's carefully numbered frame plan.
        .env_remove("VLPP_FAULT")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut announce = String::new();
    std::io::BufRead::read_line(&mut reader, &mut announce).expect("announce line");
    let announce = announce.trim_end().strip_prefix("SERVE ").expect("SERVE line");
    let addr = JsonValue::parse(announce)
        .expect("announce parses")
        .get("addr")
        .and_then(|v| v.as_str())
        .expect("addr")
        .to_string();

    let mut conn = TcpStream::connect(&addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout set");

    // Frame 1: the write is dropped before touching the socket — a
    // typed error naming the fault, and the connection stays usable.
    let error = write_frame(&mut conn, br#"{"verb":"ping"}"#).expect_err("netdrop fires");
    assert!(error.to_string().contains("netdrop at frame 1"), "{error}");

    // Frame 2 (write) goes through; frame 3 (read) stalls 50 ms first
    // but still delivers the ping response.
    write_frame(&mut conn, br#"{"verb":"ping"}"#).expect("frame 2 writes");
    let start = Instant::now();
    let pong = read_json(&mut conn);
    assert!(start.elapsed() >= Duration::from_millis(45), "netstall must delay frame 3");
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true), "{pong}");
    assert_eq!(pong.get("verb").and_then(|v| v.as_str()), Some("ping"), "{pong}");
    assert_eq!(pong.get("draining").and_then(|v| v.as_bool()), Some(false), "{pong}");

    // Frame 4: the sync request writes cleanly. Frame 5: the response
    // read hits the trunc fault at the frame boundary — a typed error,
    // nothing consumed, so frame 6 still reads the intact header.
    write_frame(&mut conn, br#"{"verb":"sync"}"#).expect("frame 4 writes");
    let error = read_frame(&mut conn).expect_err("trunc-at-read fires");
    assert!(error.to_string().contains("netdrop at frame 5"), "{error}");
    let header = read_json(&mut conn);
    assert_eq!(header.get("ok").and_then(|v| v.as_bool()), Some(true), "{header}");
    assert_eq!(header.get("verb").and_then(|v| v.as_str()), Some("sync"), "{header}");
    let bytes = header.get("bytes").and_then(|v| v.as_u64()).expect("bytes") as usize;
    let chunks = header.get("chunks").and_then(|v| v.as_u64()).expect("chunks");
    assert!(bytes > 0 && chunks >= 1, "even an untrained node has a manifest: {header}");

    // The retried transfer reassembles to a decodable snapshot stream.
    let mut stream = Vec::with_capacity(bytes);
    for index in 0..chunks {
        let chunk = read_frame(&mut conn)
            .unwrap_or_else(|e| panic!("chunk {index} reads: {e}"))
            .expect("chunk frame");
        stream.extend_from_slice(&chunk);
    }
    assert_eq!(stream.len(), bytes, "reassembled stream must match the declared length");
    let sections = read_snapshot(&stream[..]).expect("clean stream decodes");
    assert!(sections.iter().any(|s| s.name == "manifest"), "manifest section present");

    // One flipped bit anywhere must fail the section checksum — a
    // damaged resync stream is a typed error, never adopted state.
    let mut damaged = stream.clone();
    let middle = damaged.len() / 2;
    damaged[middle] ^= 0x40;
    read_snapshot(&damaged[..]).expect_err("corrupted stream must be rejected");

    assert_eq!(net_faults_injected(), 3, "exactly the three armed faults fired");

    write_frame(&mut conn, br#"{"verb":"shutdown"}"#).expect("shutdown writes");
    let goodbye = read_json(&mut conn);
    assert_eq!(goodbye.get("ok").and_then(|v| v.as_bool()), Some(true), "{goodbye}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "drained server exits 0, got {status}");
}
