//! `serve-uds-bulk` and `serve-tcp-small`: a `vlpp serve` child trained
//! on gcc conditional with two shards, driven closed-loop by two
//! connections that each send `predict` batches to a model of their own.
//!
//! A run is [`ROUNDS`] rounds, so set-up samples the same stretch of
//! time as the requests. Each round's set-up spawns a server, trains
//! one model per connection, trains a reference copy of each in-process,
//! and encodes every request frame and its expected response before
//! timing; then the round drives its share of the run and shuts the
//! server down. A connection that reaches the end of its records
//! re-trains its model (a reset, not timed as a request) and replays
//! them, so every response is known in advance and checked
//! byte-for-byte, or by meaning if the bytes differ.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use vlpp_sim::serve::{Model, Prediction};
use vlpp_sim::{Scale, Workloads};
use vlpp_synth::{suite, SplitMix64};
use vlpp_trace::frame::{read_frame, MAX_FRAME_BYTES};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{BranchRecord, Trace};

use crate::probes::{self, Corpus, ProbeFrame};
use crate::util::{
    self, ctx, median, quantile, secs, Fallible, ReadWrite, Report, Tracer, WorkDir,
};
use crate::Args;

/// Scale of the server's (and the reference's) gcc traces.
pub const SCALE: u64 = 64;
/// Trace records a run replays, cut from the test trace at a seeded
/// offset and split into one contiguous half per connection.
const WINDOW: usize = 1 << 18;
const CONNECTIONS: usize = 2;
/// Set-ups (servers) per run, each followed by its share of the load.
const ROUNDS: usize = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Uds,
    Tcp,
}

/// A serve workload: the transport and the mean batch size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub transport: Transport,
    pub batch: usize,
}

pub const UDS_BULK: Shape = Shape { transport: Transport::Uds, batch: 1024 };
pub const TCP_SMALL: Shape = Shape { transport: Transport::Tcp, batch: 8 };

#[derive(Debug, Clone)]
enum Endpoint {
    Uds(PathBuf),
    Tcp(SocketAddr),
}

/// A client connection of either transport.
type Conn = Box<dyn ReadWrite>;

impl Endpoint {
    /// A client connection with deadlines; TCP gets `TCP_NODELAY`, so
    /// the client's own side never holds a request back.
    fn connect(&self) -> Fallible<Conn> {
        let timeout = Some(IO_TIMEOUT);
        Ok(match self {
            Endpoint::Uds(path) => {
                let s = UnixStream::connect(path).map_err(ctx("connect"))?;
                s.set_read_timeout(timeout)
                    .and(s.set_write_timeout(timeout))
                    .map_err(ctx("arm"))?;
                Box::new(s)
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr).map_err(ctx("connect"))?;
                s.set_nodelay(true).map_err(ctx("TCP_NODELAY"))?;
                s.set_read_timeout(timeout)
                    .and(s.set_write_timeout(timeout))
                    .map_err(ctx("arm"))?;
                Box::new(s)
            }
        })
    }
}

/// One control round trip; an `"ok": false` response is an error.
fn call(conn: &mut Conn, request: &JsonValue) -> Fallible<JsonValue> {
    conn.write_all(&probes::framed(request.to_string().as_bytes())).map_err(ctx("send"))?;
    let payload = read_frame(&mut *conn).map_err(ctx("receive"))?.ok_or("server closed")?;
    let text = std::str::from_utf8(&payload).map_err(ctx("response"))?;
    let value = JsonValue::parse(text).map_err(ctx("response"))?;
    if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("server error: {value}"));
    }
    Ok(value)
}

fn verb(name: &str, fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut object = vec![("verb".to_string(), JsonValue::Str(name.to_string()))];
    object.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(object)
}

fn train_request(model: &str) -> JsonValue {
    let spec = probes::model_spec(model);
    verb(
        "train",
        vec![
            ("model", JsonValue::Str(model.to_string())),
            ("benchmark", JsonValue::Str(spec.benchmark)),
            ("kind", JsonValue::Str(spec.kind.name().to_string())),
            ("index_bits", JsonValue::UInt(spec.index_bits as u64)),
            ("shards", JsonValue::UInt(spec.shards as u64)),
        ],
    )
}

/// The server child: this binary's `serve` subcommand, which is the
/// entry point `vlpp serve` runs.
#[derive(Debug)]
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    endpoint: Endpoint,
}

impl Server {
    fn spawn(transport: Transport, work: &WorkDir, tag: usize) -> Fallible<Server> {
        let exe = std::env::current_exe().map_err(ctx("locate perfbench"))?;
        let mut command = Command::new(exe);
        command.args(["serve", "--scale", &SCALE.to_string(), "--metrics"]);
        match transport {
            Transport::Uds => {
                let path = work.path(&format!("serve-{tag}.sock"));
                command.arg("--uds").arg(path);
            }
            Transport::Tcp => {
                command.args(["--listen", "127.0.0.1:0"]);
            }
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(ctx("spawn server"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let announce = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.strip_prefix("SERVE "))
            .and_then(|json| JsonValue::parse(json.trim()).ok());
        let Some(announce) = announce else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce itself: {line:?}"));
        };
        let addr = announce.get("addr").and_then(JsonValue::as_str).unwrap_or_default();
        let endpoint = match transport {
            Transport::Uds => Endpoint::Uds(PathBuf::from(addr)),
            Transport::Tcp => Endpoint::Tcp(addr.parse().map_err(ctx("server address"))?),
        };
        Ok(Server { child, stdout, endpoint })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server with the `shutdown` verb and returns the
    /// registry snapshot it prints on exit (`--metrics`).
    fn shutdown(mut self) -> Fallible<JsonValue> {
        let mut control = self.endpoint.connect()?;
        call(&mut control, &verb("shutdown", vec![]))?;
        drop(control);
        let mut metrics = None;
        let mut line = String::new();
        while self.stdout.read_line(&mut line).map_err(ctx("server stdout"))? > 0 {
            if let Some(json) = line.strip_prefix("METRICS ") {
                metrics = JsonValue::parse(json.trim()).ok();
            }
            line.clear();
        }
        let status = self.child.wait().map_err(ctx("wait for server"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        metrics.ok_or_else(|| "server printed no METRICS line".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request frame with the response the server must send back.
#[derive(Debug)]
struct Batch {
    range: Range<usize>,
    frame: Vec<u8>,
    response: Vec<u8>,
}

/// What one connection sends to its own model: a contiguous run of
/// trace records, in order.
#[derive(Debug)]
struct Lane {
    model: String,
    records: Vec<BranchRecord>,
    slots: Vec<Option<Prediction>>,
    batches: Vec<Batch>,
}

#[derive(Debug)]
struct Fixture {
    server: Server,
    lanes: Vec<Lane>,
    workloads: Workloads,
    trace_build_s: f64,
}

fn lane_model(c: usize) -> String {
    format!("bench-{c}")
}

/// Spawn, train, build the reference, encode; checks the train answers.
fn setup(
    shape: Shape,
    seed: u64,
    work: &WorkDir,
    tag: usize,
    report: &mut Report,
) -> Fallible<Fixture> {
    let server = Server::spawn(shape.transport, work, tag)?;
    let mut control = server.endpoint.connect()?;
    let mut trained = Vec::new();
    for c in 0..CONNECTIONS {
        trained.push(call(&mut control, &train_request(&lane_model(c)))?);
    }

    let workloads = Workloads::new(Scale::new(SCALE));
    let gcc = suite::benchmark("gcc").expect("gcc is a suite benchmark");
    let started = Instant::now();
    let test = workloads.test_trace(&gcc);
    let trace_build_s = secs(started);

    // The seed picks the window, which half of it each connection sends,
    // and every batch size (uniform within ±25% of the workload's mean).
    let mut rng = SplitMix64::new(seed);
    let window = WINDOW.min(test.len());
    let offset = rng.below((test.len() - window + 1) as u64) as usize;
    let part = window / CONNECTIONS;
    let flip = rng.below(CONNECTIONS as u64) as usize;
    let low = (shape.batch * 3 / 4).max(1) as u64;
    let high = (shape.batch * 5 / 4) as u64;
    let mut lanes = Vec::new();
    for (c, answer) in trained.iter().enumerate() {
        let start = offset + (c + flip) % CONNECTIONS * part;
        let records = test.records()[start..start + part].to_vec();
        // Each connection drives its own model, so its reference is a
        // fresh in-process model fed the same records in the same order.
        let reference =
            Model::train(probes::model_spec("reference"), &workloads).map_err(ctx("train"))?;
        let field = |key: &str| answer.get(key).and_then(JsonValue::as_u64);
        report.check(util::differs(
            "train answer",
            (field("profiled_branches"), field("default_hash")),
            (Some(reference.profiled_branches as u64), Some(reference.default_hash as u64)),
        ));
        let slots = reference.apply_sequential(&records);
        let model = lane_model(c);
        let mut batches = Vec::new();
        let mut cursor = 0;
        while cursor < records.len() {
            let end = (cursor + rng.range(low, high) as usize).min(records.len());
            batches.push(Batch {
                range: cursor..end,
                frame: probes::framed(&probes::predict_request(&model, &records[cursor..end])),
                response: probes::predict_response(&slots[cursor..end]),
            });
            cursor = end;
        }
        lanes.push(Lane { model, records, slots, batches });
    }
    Ok(Fixture { server, lanes, workloads, trace_build_s })
}

/// What one connection did in a timed loop.
#[derive(Debug)]
struct LaneRun {
    samples_ms: Vec<f64>,
    /// Each sampled request: when it was sent (after the end of
    /// warm-up) and how many records it carried.
    served: Vec<(Duration, usize)>,
    /// Batches sent since the model's last reset.
    sent: usize,
    tally: Report,
}

fn read_response(conn: &mut Conn, buf: &mut Vec<u8>) -> Fallible<()> {
    let mut prefix = [0u8; 4];
    conn.read_exact(&mut prefix).map_err(ctx("receive"))?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(format!("bad response length {len}"));
    }
    buf.resize(len, 0);
    conn.read_exact(buf).map_err(ctx("receive"))
}

/// `None` when the response carries the expected predictions: the same
/// bytes, or the same prediction values re-encoded.
fn mismatch(got: &[u8], batch: &Batch, lane: &Lane) -> Option<String> {
    if got == batch.response.as_slice() {
        return None;
    }
    let want = &lane.slots[batch.range.clone()];
    let value = std::str::from_utf8(got).ok().and_then(|text| JsonValue::parse(text).ok());
    let items = value.as_ref().and_then(|v| v.get("predictions")).and_then(JsonValue::as_array);
    match items {
        Some(items)
            if items.len() == want.len()
                && items.iter().zip(want).all(|(item, slot)| *item == slot.to_json()) =>
        {
            None
        }
        _ => Some(format!(
            "{}: response to records {:?} differs from the reference: {}",
            lane.model,
            batch.range,
            String::from_utf8_lossy(&got[..got.len().min(160)])
        )),
    }
}

/// Closed loop: send a batch, wait for its answer, check it, repeat
/// until `deadline`. Requests sent before `warm_end` are not sampled.
fn drive(endpoint: &Endpoint, lane: &Lane, warm_end: Instant, deadline: Instant) -> LaneRun {
    let mut run =
        LaneRun { samples_ms: Vec::new(), served: Vec::new(), sent: 0, tally: Report::default() };
    let mut conn = match endpoint.connect() {
        Ok(conn) => conn,
        Err(error) => {
            run.tally.check(Some(error));
            return run;
        }
    };
    // Start every loop from a freshly trained model, as the first
    // batch's expected response assumes.
    if let Err(error) = call(&mut conn, &train_request(&lane.model)) {
        run.tally.check(Some(error));
        return run;
    }
    let mut buf = Vec::new();
    while Instant::now() < deadline {
        if run.sent == lane.batches.len() {
            // Re-training resets the model, so the replay that follows
            // must get the same answers again.
            if let Err(error) = call(&mut conn, &train_request(&lane.model)) {
                run.tally.check(Some(error));
                break;
            }
            run.sent = 0;
            continue;
        }
        let batch = &lane.batches[run.sent];
        let sent = Instant::now();
        let outcome = conn
            .write_all(&batch.frame)
            .map_err(ctx("send"))
            .and_then(|()| read_response(&mut conn, &mut buf));
        let rtt = sent.elapsed();
        if let Err(error) = outcome {
            run.tally.check(Some(error));
            break;
        }
        run.tally.check(mismatch(&buf, batch, lane));
        if sent >= warm_end {
            run.samples_ms.push(rtt.as_secs_f64() * 1e3);
            run.served.push((sent - warm_end, batch.range.len()));
        }
        run.sent += 1;
    }
    run
}

/// One timed loop over every connection at once.
#[derive(Debug)]
struct Loop {
    samples_ms: Vec<f64>,
    /// Records per second sent in each window of the loop after warm-up
    /// (a closed loop sends the next batch once the last is served).
    window_rates: Vec<f64>,
    sent: Vec<usize>,
}

/// The length a throughput window aims at; the measured stretch is cut
/// into whole windows of about this length.
const RATE_WINDOW_S: f64 = 0.5;

fn timed_loop(fixture: &Fixture, seconds: f64, report: &mut Report) -> Loop {
    let started = Instant::now();
    let warm_end = started + Duration::from_secs_f64((seconds * 0.1).min(0.5));
    let deadline = started + Duration::from_secs_f64(seconds);
    let endpoint = &fixture.server.endpoint;
    let runs: Vec<LaneRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = fixture
            .lanes
            .iter()
            .map(|lane| scope.spawn(move || drive(endpoint, lane, warm_end, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let measured_s = (deadline - warm_end).as_secs_f64();
    let windows = ((measured_s / RATE_WINDOW_S) as usize).max(1);
    let width_s = measured_s / windows as f64;
    let mut window_records = vec![0usize; windows];
    let mut samples_ms = Vec::new();
    let mut sent = Vec::new();
    for run in runs {
        for (done, records) in run.served {
            let window = (done.as_secs_f64() / width_s) as usize;
            window_records[window.min(windows - 1)] += records;
        }
        samples_ms.extend(run.samples_ms);
        sent.push(run.sent);
        report.absorb(run.tally);
    }
    let window_rates = window_records.iter().map(|&n| n as f64 / width_s).collect();
    Loop { samples_ms, window_rates, sent }
}

/// Checks each model's `stats` against a fresh reference that saw the
/// records sent since the model's last reset.
fn check_stats(fixture: &Fixture, sent: &[usize], report: &mut Report) -> Fallible<()> {
    let mut control = fixture.server.endpoint.connect()?;
    for (lane, &sent) in fixture.lanes.iter().zip(sent) {
        let reference = Model::train(probes::model_spec("reference"), &fixture.workloads)
            .map_err(ctx("train"))?;
        let end = sent.checked_sub(1).map_or(0, |last| lane.batches[last].range.end);
        reference.apply_sequential(&lane.records[..end]);
        let model = vec![("model", JsonValue::Str(lane.model.clone()))];
        let served = call(&mut control, &verb("stats", model))?;
        let served = served.get("stats").map(JsonValue::to_string);
        report.check(util::differs("stats", served, Some(reference.stats_json().to_string())));
    }
    Ok(())
}

pub fn run(args: &Args, shape: Shape) -> Fallible<Report> {
    let work = WorkDir::create()?;
    let mut report = Report::default();

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut samples_ms = Vec::new();
    let mut window_rates = Vec::new();
    // Traced runs only: the servers' CPU and exit metrics, summed.
    let (mut busy_s, mut loop_s, mut spent_s) = (0.0, 0.0, 0.0);
    let mut metrics = Vec::new();
    let mut last = None;
    for tag in 0..ROUNDS {
        let started = Instant::now();
        let fixture = setup(shape, args.seed, &work, tag, &mut report)?;
        setup_s.push(secs(started));
        build_s.push(fixture.trace_build_s);

        let pid = fixture.server.pid();
        let mut tracer = Tracer::new(args.trace, Some(pid));
        let started = Instant::now();
        let (timed, reading) =
            tracer.around(|| timed_loop(&fixture, args.seconds / ROUNDS as f64, &mut report))?;
        loop_s += secs(started);
        busy_s += reading.cpu_s;
        spent_s += tracer.spent_s;
        check_stats(&fixture, &timed.sent, &mut report)?;
        peaks_mb.push(util::peak_rss_mb(Some(pid))?);
        samples_ms.extend(timed.samples_ms);
        window_rates.extend(timed.window_rates);

        let Fixture { server, lanes, workloads, .. } = fixture;
        metrics.push(server.shutdown()?);
        last = Some((lanes, workloads));
    }
    if samples_ms.is_empty() {
        return Err("no request was timed after warm-up".to_string());
    }
    let p50 = median(&samples_ms);
    let n = samples_ms.len();
    report.e2e("setup_s", "s", median(&setup_s), setup_s.len());
    let windows = window_rates.len();
    report.e2e("sustained_records_per_s", "1/s", quantile(&window_rates, 0.1), windows);
    report.e2e("latency_p90_ms", "ms", quantile(&samples_ms, 0.9), n);
    report.e2e("latency_p99_ms", "ms", quantile(&samples_ms, 0.99), n);
    report.e2e("peak_rss_mb", "MiB", median(&peaks_mb), peaks_mb.len());

    if !args.trace {
        return Ok(report);
    }
    let total = |name: &str| metrics.iter().map(|m| util::counter(m, name)).sum::<f64>();
    let predicts = metrics.iter().map(|m| util::span(m, "serve.predict_ns").0).sum::<f64>();
    let predict_s = metrics.iter().map(|m| util::span(m, "serve.predict_ns").1).sum::<f64>();
    let server_us = predict_s * 1e6 / predicts.max(1.0);

    let (lanes, workloads) = last.expect("at least one round");
    let gcc = suite::benchmark("gcc").expect("gcc is a suite benchmark");
    let profile_input = workloads.profile_trace(&gcc);
    let model = Model::train(probes::model_spec("probe"), &workloads).map_err(ctx("train"))?;
    let mut trace = Trace::new();
    let mut frames: Vec<ProbeFrame> = Vec::new();
    for lane in &lanes {
        lane.records.iter().for_each(|r| trace.push(*r));
        frames.extend(lane.batches.iter().take(probes::FRAMES / CONNECTIONS).map(|b| ProbeFrame {
            request: b.frame[4..].to_vec(),
            response: b.response.clone(),
            records: lane.records[b.range.clone()].to_vec(),
        }));
    }
    let corpus = Corpus {
        trace: &trace,
        profile_input: &profile_input,
        assignment: model.assignment(),
        frames: &frames,
        model: &model,
    };
    let layers = probes::measure(&corpus, crate::tourney::SCALE)?;
    layers.report(&mut report);

    let threads = vlpp_pool::Pool::global().threads() as f64;
    let per_request = |name: &str| total(name) / predicts.max(1.0);
    let roundtrip_us = match shape.transport {
        Transport::Uds => layers.uds_roundtrip_us,
        Transport::Tcp => layers.tcp_roundtrip_us,
    };
    // The server's span covers apply and prediction encoding, timed in
    // the same loop; the request parse and the registry lookups around
    // it come from the in-process probes. What is left of the round
    // trip is the transport's.
    let parse_us = layers.batch_records * layers.parse_ns / 1e3 + 4.0 * layers.lookup_ns / 1e3;
    let server_work_ms = (server_us + parse_us) / 1e3;
    let explained_ms = roundtrip_us / 1e3 + server_work_ms;
    report.layer("synth.trace_build_s", "s", median(&build_s), build_s.len());
    report.layer("pool.busy_frac", "ratio", busy_s / (loop_s * threads), ROUNDS);
    report.layer("pool.tasks.stolen", "count", per_request("pool.tasks.stolen"), 1);
    report.layer("pool.tasks.helped", "count", per_request("pool.tasks.helped"), 1);
    report.layer("sim.serve.server_us_per_request", "us", server_us, predicts as usize);
    report.layer("sim.serve.transport_wait_ms", "ms", p50 - server_work_ms, n);
    report.layer("unexplained_frac", "ratio", (p50 - explained_ms) / p50, n);
    report.layer("tracing_overhead_frac", "ratio", spent_s / loop_s, 2 * ROUNDS);
    Ok(report)
}
