//! Per-layer probes for the traced run: each times calls into one
//! crate's public functions, from this benchmark's code, on the
//! workload's own data (its trace, its request frames, its model).

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_predict::{zoo, Budget, ZooContext};
use vlpp_sim::ingest::replay_streaming;
use vlpp_sim::paper::{FIG5_COND_BYTES, FIG7_IND_BYTES};
use vlpp_sim::serve::{protocol, Model};
use vlpp_sim::{run_conditional, run_indirect};
use vlpp_synth::{suite, InputSet};
use vlpp_trace::compact::{ChunkedReader, ChunkedWriter, DEFAULT_CHUNK_RECORDS};
use vlpp_trace::frame::{read_frame, write_frame};
use vlpp_trace::json::JsonValue;
use vlpp_trace::source::MemorySource;
use vlpp_trace::{BranchRecord, Trace, TraceSource};

use crate::util::{self, ctx, median, secs, Fallible, ReadWrite, Report};

/// Repetitions of each in-memory probe; the median is reported.
const REPS: usize = 3;

/// Request frames the serve-codec probes run over: few enough that,
/// as in the server, each one is still in cache when it is parsed.
pub const FRAMES: usize = 16;

/// The predictor-table index width every path-predictor probe uses
/// (the `vlpp run`/`profile`/serve default).
pub const INDEX_BITS: u32 = 12;

/// One `predict` request as the workload sends it, with the response
/// the server must return for it.
#[derive(Debug, Clone)]
pub struct ProbeFrame {
    /// The request payload (JSON, no length prefix).
    pub request: Vec<u8>,
    /// The expected response payload.
    pub response: Vec<u8>,
    pub records: Vec<BranchRecord>,
}

/// A whole frame (length prefix and payload) in one buffer, so a client
/// can send it in one write.
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut frame, payload).expect("requests fit in a frame");
    frame
}

/// The serve-model spec every workload's serve probes and the serve
/// workloads train: gcc conditional, two shards.
pub fn model_spec(name: &str) -> vlpp_sim::serve::ModelSpec {
    vlpp_sim::serve::ModelSpec {
        name: name.to_string(),
        benchmark: "gcc".to_string(),
        trace: None,
        kind: vlpp_sim::serve::ModelKind::Conditional,
        index_bits: INDEX_BITS,
        shards: 2,
    }
}

/// A `predict` request payload for `records`.
pub fn predict_request(model: &str, records: &[BranchRecord]) -> Vec<u8> {
    JsonValue::Object(vec![
        ("verb".to_string(), JsonValue::Str("predict".to_string())),
        ("model".to_string(), JsonValue::Str(model.to_string())),
        (
            "records".to_string(),
            JsonValue::Array(records.iter().map(protocol::record_to_json).collect()),
        ),
    ])
    .to_string()
    .into_bytes()
}

/// The response payload the server writes for a `predict` batch, built
/// with the server's own encoder.
pub fn predict_response(predictions: &[Option<vlpp_sim::serve::Prediction>]) -> Vec<u8> {
    protocol::ok_response(
        "predict",
        None,
        vec![("predictions".to_string(), protocol::predictions_to_json(predictions))],
    )
    .to_string()
    .into_bytes()
}

/// Frames of `batch` records cut from the head of `records`, with the
/// responses a fresh `model` gives (for workloads that send none of
/// their own).
pub fn frames_from(
    model: &Model,
    records: &[BranchRecord],
    batch: usize,
    count: usize,
) -> Vec<ProbeFrame> {
    records
        .chunks(batch)
        .take(count)
        .map(|chunk| ProbeFrame {
            request: predict_request(&model.spec.name, chunk),
            response: predict_response(&model.apply_sequential(chunk)),
            records: chunk.to_vec(),
        })
        .collect()
}

/// What a workload's traced run probes.
#[derive(Debug)]
pub struct Corpus<'a> {
    /// The records the workload's decoder and kernels see.
    pub trace: &'a Trace,
    /// The input the workload profiles.
    pub profile_input: &'a Trace,
    /// The hash assignment the workload's kernels run with.
    pub assignment: &'a HashAssignment,
    /// Requests as the workload sends them.
    pub frames: &'a [ProbeFrame],
    /// A served model to drive with `frames`.
    pub model: &'a Model,
}

/// Self times and counts per layer, per record unless named otherwise.
#[derive(Debug, Default)]
pub struct Layers {
    pub encode_ns: f64,
    pub bytes_per_record: f64,
    pub decode_ns: f64,
    pub profile_s: f64,
    pub profile_samples: usize,
    pub step1_records: f64,
    pub step2_iterations: f64,
    pub cond_ns: f64,
    pub ind_ns: f64,
    pub replay_ns: f64,
    pub json_parse_ns: f64,
    pub parse_ns: f64,
    pub encode_response_ns: f64,
    pub apply_ns: f64,
    pub dispatch_ns: f64,
    pub sharded_per_record: f64,
    pub tcp_roundtrip_us: f64,
    pub uds_roundtrip_us: f64,
    pub lookup_ns: f64,
    pub predict_ns: Vec<(&'static str, f64)>,
    /// Mean records per frame.
    pub batch_records: f64,
}

impl Layers {
    /// Server-side work per request: parse, apply, encode, and the four
    /// registry lookups the serve path makes per request.
    pub fn server_us_per_request(&self) -> f64 {
        (self.batch_records * (self.parse_ns + self.apply_ns + self.encode_response_ns)
            + 4.0 * self.lookup_ns)
            / 1e3
    }

    /// Pushes every layer metric that is measured here.
    pub fn report(&self, report: &mut Report) {
        report.layer("trace.compact.encode_ns_per_record", "ns", self.encode_ns, REPS);
        report.layer("trace.compact.bytes_per_record", "B", self.bytes_per_record, 1);
        report.layer("trace.compact.decode_ns_per_record", "ns", self.decode_ns, REPS);
        report.layer("core.profile.s", "s", self.profile_s, self.profile_samples);
        report.layer("core.profile.step1_records", "count", self.step1_records, 1);
        report.layer("core.profile.step2_iterations", "count", self.step2_iterations, 1);
        report.layer("core.kernel.cond_ns_per_record", "ns", self.cond_ns, REPS);
        report.layer("core.kernel.ind_ns_per_record", "ns", self.ind_ns, REPS);
        report.layer("sim.replay.ns_per_record", "ns", self.replay_ns, REPS);
        report.layer("trace.json.parse_ns_per_record", "ns", self.json_parse_ns, REPS);
        report.layer("sim.serve.parse_ns_per_record", "ns", self.parse_ns, REPS);
        report.layer("sim.serve.encode_ns_per_record", "ns", self.encode_response_ns, REPS);
        report.layer("sim.serve.apply_ns_per_record", "ns", self.apply_ns, REPS);
        report.layer("sim.serve.dispatch_ns_per_record", "ns", self.dispatch_ns, REPS);
        report.layer("pool.tasks.sharded_per_record", "count", self.sharded_per_record, REPS);
        report.layer("trace.frame.tcp_roundtrip_us", "us", self.tcp_roundtrip_us, 1);
        report.layer("trace.frame.uds_roundtrip_us", "us", self.uds_roundtrip_us, 1);
        report.layer("metrics.lookup_ns", "ns", self.lookup_ns, REPS);
        for (name, ns) in &self.predict_ns {
            report.layer(format!("predict.{name}.ns_per_record"), "ns", *ns, REPS);
        }
    }
}

/// Median seconds per call over [`REPS`] calls.
fn timed_median(mut f: impl FnMut()) -> f64 {
    util::median_secs(REPS, || {
        let started = Instant::now();
        f();
        secs(started)
    })
}

/// Runs every probe on `corpus`. `zoo_scale` sets the one fixed trace
/// the predictor-zoo probes share.
pub fn measure(corpus: &Corpus<'_>, zoo_scale: u64) -> Fallible<Layers> {
    let mut layers = Layers::default();
    let records = corpus.trace.len().max(1) as f64;

    // trace.compact: the chunked VLPC codec, encode then decode alone.
    let mut encoded = Vec::new();
    layers.encode_ns = timed_median(|| {
        encoded.clear();
        let mut writer =
            ChunkedWriter::new(&mut encoded, DEFAULT_CHUNK_RECORDS).expect("in-memory write");
        for record in corpus.trace.iter() {
            writer.push(record).expect("in-memory write");
        }
        writer.finish().expect("in-memory write");
    }) * 1e9
        / records;
    layers.bytes_per_record = encoded.len() as f64 / records;
    let mut decode_error = None;
    layers.decode_ns = timed_median(|| {
        let mut reader = ChunkedReader::new(&encoded[..]).expect("valid header");
        let mut n = 0u64;
        loop {
            match reader.next_record() {
                Ok(Some(record)) => {
                    std::hint::black_box(record);
                    n += 1;
                }
                Ok(None) => break,
                Err(error) => {
                    decode_error = Some(error.to_string());
                    break;
                }
            }
        }
        std::hint::black_box(n);
    }) * 1e9
        / records;
    if let Some(error) = decode_error {
        return Err(format!("decode probe: {error}"));
    }

    // core.profile: the §3.5 two-step profile, with the counts it
    // publishes to the registry.
    let before = util::registry();
    let started = Instant::now();
    let builder = ProfileBuilder::new(ProfileConfig::new(PathConfig::new(INDEX_BITS)));
    std::hint::black_box(builder.profile_conditional(corpus.profile_input));
    layers.profile_s = secs(started);
    layers.profile_samples = 1;
    let after = util::registry();
    layers.step1_records = util::counter(&after, "core.profile.step1_records")
        - util::counter(&before, "core.profile.step1_records");
    layers.step2_iterations = util::counter(&after, "core.profile.step2_iterations")
        - util::counter(&before, "core.profile.step2_iterations");

    // core.kernel: each SoA kernel alone over the in-memory slice.
    let config = PathConfig::new(INDEX_BITS);
    layers.cond_ns = timed_median(|| {
        let mut kernel = CondKernel::new(&config, corpus.assignment);
        for record in corpus.trace.iter() {
            std::hint::black_box(kernel.apply(record));
        }
    }) * 1e9
        / records;
    layers.ind_ns = timed_median(|| {
        let mut kernel = IndKernel::new(&config, corpus.assignment);
        for record in corpus.trace.iter() {
            std::hint::black_box(kernel.apply(record));
        }
    }) * 1e9
        / records;

    // sim.replay: the streaming replay loop over memory (no decode).
    let replay = util::median_secs(REPS, || {
        let mut source = MemorySource::new(corpus.trace.clone());
        let started = Instant::now();
        let report = replay_streaming(&mut source, INDEX_BITS, corpus.assignment);
        let elapsed = secs(started);
        std::hint::black_box(report.ok());
        elapsed
    });
    layers.replay_ns = replay * 1e9 / records;

    serve_probes(corpus, &mut layers)?;
    layers.uds_roundtrip_us = roundtrip_us(false, &corpus.frames[0])?;
    layers.tcp_roundtrip_us = roundtrip_us(true, &corpus.frames[0])?;
    layers.lookup_ns = lookup_ns();
    layers.predict_ns = zoo_probes(zoo_scale);
    Ok(layers)
}

/// The serve codec and dispatch, on the workload's own frames.
fn serve_probes(corpus: &Corpus<'_>, layers: &mut Layers) -> Fallible<()> {
    let frames = corpus.frames;
    let records: usize = frames.iter().map(|f| f.records.len()).sum();
    let per_record = |s: f64| s * 1e9 / records.max(1) as f64;
    layers.batch_records = records as f64 / frames.len().max(1) as f64;

    let mut bad = None;
    layers.json_parse_ns = per_record(timed_median(|| {
        for frame in frames {
            let text = std::str::from_utf8(&frame.request).expect("JSON requests are UTF-8");
            if JsonValue::parse(text).is_err() {
                bad = Some("JSON parse");
            }
        }
    }));
    layers.parse_ns = per_record(timed_median(|| {
        for frame in frames {
            if protocol::parse_request(&frame.request).is_err() {
                bad = Some("parse_request");
            }
        }
    }));
    if let Some(what) = bad {
        return Err(format!("{what} rejected a request the workload sends"));
    }

    let sharded_before = util::counter(&util::registry(), "pool.tasks.sharded");
    let mut predictions = Vec::with_capacity(frames.len());
    layers.apply_ns = per_record(timed_median(|| {
        predictions.clear();
        for frame in frames {
            predictions.push(corpus.model.apply_batch(&frame.records));
        }
    }));
    let sharded = util::counter(&util::registry(), "pool.tasks.sharded") - sharded_before;
    layers.sharded_per_record = sharded / (REPS * records.max(1)) as f64;
    let sequential_ns = per_record(timed_median(|| {
        for frame in frames {
            std::hint::black_box(corpus.model.apply_sequential(&frame.records));
        }
    }));
    layers.dispatch_ns = layers.apply_ns - sequential_ns;
    layers.encode_response_ns = per_record(timed_median(|| {
        for slots in &predictions {
            std::hint::black_box(predict_response(slots));
        }
    }));
    Ok(())
}

/// `write_frame` + `read_frame` round trips over an in-process socket
/// pair, shaped like the serve path: the client sends each request in
/// one write (`TCP_NODELAY` on its side), the echo side answers with
/// `write_frame` on a default socket, as the server does. Median
/// microseconds; stops early once 1.5 s are spent (a stalled transport
/// is slow enough that a few samples tell).
fn roundtrip_us(tcp: bool, frame: &ProbeFrame) -> Fallible<f64> {
    let (mut client, server): (Box<dyn ReadWrite>, Box<dyn ReadWrite + Send>) = if tcp {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ctx("bind probe socket"))?;
        let addr = listener.local_addr().map_err(ctx("probe address"))?;
        let client = TcpStream::connect(addr).map_err(ctx("connect probe socket"))?;
        client.set_nodelay(true).map_err(ctx("TCP_NODELAY"))?;
        let (server, _) = listener.accept().map_err(ctx("accept probe socket"))?;
        (Box::new(client), Box::new(server))
    } else {
        let (client, server) = UnixStream::pair().map_err(ctx("socketpair"))?;
        (Box::new(client), Box::new(server))
    };
    let response = Arc::new(frame.response.clone());
    let echo = std::thread::spawn(move || {
        let mut server = server;
        while let Ok(Some(_)) = read_frame(&mut server) {
            if write_frame(&mut server, &response).is_err() {
                break;
            }
        }
    });
    let request = framed(&frame.request);
    let mut samples = Vec::new();
    let started = Instant::now();
    for i in 0..210 {
        let sent = Instant::now();
        client.write_all(&request).map_err(ctx("probe write"))?;
        read_frame(&mut client).map_err(ctx("probe read"))?.ok_or("probe peer closed")?;
        if i >= 10 {
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        if samples.len() >= 5 && started.elapsed() > Duration::from_millis(1500) {
            break;
        }
    }
    drop(client);
    echo.join().map_err(|_| "probe echo thread panicked".to_string())?;
    Ok(median(&samples))
}

/// One registry lookup by a formatted name, as the serve path and the
/// tournament make per request or per cell.
fn lookup_ns() -> f64 {
    const N: usize = 200_000;
    let verbs = ["predict", "update", "stats", "train"];
    timed_median(|| {
        for i in 0..N {
            vlpp_metrics::counter(&format!("perfbench.lookup.{}", verbs[i % verbs.len()])).incr();
        }
    }) * 1e9
        / N as f64
}

/// Every zoo predictor at the tournament's budgets, run alone over one
/// fixed trace: gcc's test input at `scale`, with its load channel.
fn zoo_probes(scale: u64) -> Vec<(&'static str, f64)> {
    let spec = suite::benchmark("gcc").expect("gcc is a suite benchmark");
    let (trace, loads) = spec.build_program().execute_conditionals_with_loads(
        InputSet::Test,
        vlpp_sim::Scale::new(scale).dynamic_conditionals(&spec),
    );
    let ctx = ZooContext::with_loads(Arc::new(loads));
    let records = trace.len() as f64;
    let mut out = Vec::new();
    for entry in zoo::conditional_zoo() {
        let s = timed_median(|| {
            let mut predictor = (entry.build)(Budget::from_bytes(FIG5_COND_BYTES), &ctx);
            std::hint::black_box(run_conditional(&mut predictor, &trace));
        });
        out.push((entry.name, s * 1e9 / records));
    }
    for entry in zoo::indirect_zoo() {
        let s = timed_median(|| {
            let mut predictor = (entry.build)(Budget::from_bytes(FIG7_IND_BYTES), &ctx);
            std::hint::black_box(run_indirect(&mut predictor, &trace));
        });
        out.push((entry.name, s * 1e9 / records));
    }
    out
}
