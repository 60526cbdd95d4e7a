//! `vlpp serve` — a zero-dependency prediction daemon, plus the
//! `vlpp loadgen` client that stress-tests it.
//!
//! The server listens on a TCP address (or a Unix socket), speaks the
//! length-prefixed JSON protocol of [`protocol`] over
//! `vlpp_trace::frame` framing, and serves trained variable length path
//! predictor instances ([`model::Model`]). `SERVING.md` at the
//! repository root documents the wire grammar, the shard/determinism
//! model, and how backpressure reaches the client.
//!
//! # Threading model
//!
//! One acceptor (the calling thread) and one thread per connection. The
//! connection thread reads a frame, executes its verb, writes the
//! response, and only then reads the next frame, so responses go out in
//! request order and a closed-loop request crosses no thread boundary
//! inside the server. There is no per-connection queue: a client that
//! pipelines faster than the server answers fills the socket buffers,
//! and TCP (or the Unix socket) pushes back on it. A batch one shard
//! owns runs on the connection thread; a batch that spans shards fans
//! out over the global `vlpp-pool`, one task per busy shard (see
//! [`model`]), so same-shard records stay ordered while distinct shards
//! run in parallel.
//!
//! # Transport
//!
//! Every TCP socket, accepted here or opened by the loadgen client (and
//! so by the cluster supervisor), sets `TCP_NODELAY`, and
//! `vlpp_trace::frame` writes each frame in one write: together they
//! keep a round trip at the server's work plus loopback time instead of
//! a ~40 ms delayed-ACK timer. The connection thread reads through a
//! `BufReader`, so a frame that arrives in one segment costs one `read`
//! call. The per-request instruments are resolved once (`ServeMetrics`).
//!
//! # Graceful drain
//!
//! The `shutdown` verb answers `ok`, then stops the acceptor (a dummy
//! self-connection wakes it out of `accept`) and half-closes the read
//! side of every open connection. Each connection thread finishes the
//! request it is on, answers any frames already in its `BufReader`,
//! then sees EOF and exits; the process exits 0 once the last one
//! returns. `SIGTERM`/`SIGINT` take the same path (a signal-watcher
//! thread polls a flag the handler sets), so operators and CI teardown
//! get a clean exit, not an abort.
//!
//! # Deadlines
//!
//! Every accepted socket carries `--io-timeout-ms` read/write deadlines
//! so a hung peer cannot pin a connection thread forever. An expiry
//! while a frame is in flight closes the connection and counts
//! `serve.io_timeouts`; an expiry on an *idle* connection is benign and
//! the thread simply waits again.

pub mod cluster;
pub mod loadgen;
pub mod model;
pub mod protocol;
pub mod routing;
pub mod snapshot;

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use vlpp_metrics::{Counter, Gauge, Histogram, Span};
use vlpp_trace::frame::{self, write_frame, FrameRead};
use vlpp_trace::json::JsonValue;
use vlpp_trace::VlppError;

use crate::cli::{cli_error, print_metrics, Flags};
use crate::experiment::{Scale, Workloads};
pub use model::{Model, ModelKind, ModelSpec, Prediction};
use protocol::VERB_NAMES;
pub use protocol::{Request, Verb};

/// Default socket read/write deadline, in milliseconds. Generous next
/// to any healthy round trip, small enough that a hung peer releases
/// its thread the same minute. `0` disables deadlines.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 30_000;

/// Frame payload size the `sync` verb chunks its snapshot stream into —
/// comfortably under `MAX_FRAME_BYTES`.
const SYNC_CHUNK_BYTES: usize = 256 * 1024;

/// A counter handle resolved from the registry on its first use and
/// kept: later uses take no registry lock, and a counter only some runs
/// touch (a failover, a kill) still appears exactly when it first
/// counts. For the cluster supervisor's and the routing client's
/// counters, declared as `static`s.
pub(crate) struct LazyCounter {
    name: &'static str,
    handle: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// The handle for counter `name`, not yet registered.
    pub(crate) const fn new(name: &'static str) -> Self {
        LazyCounter { name, handle: OnceLock::new() }
    }

    /// The counter, registered on the first call.
    pub(crate) fn get(&self) -> &Counter {
        self.handle.get_or_init(|| vlpp_metrics::counter(self.name))
    }
}

/// The serve path's instruments (see `OBSERVABILITY.md`), resolved from
/// the registry once per process, so a request formats no instrument
/// name and takes no registry lock.
pub(crate) struct ServeMetrics {
    /// `serve.requests.<verb>`, in [`VERB_NAMES`] order.
    requests: [Arc<Counter>; VERB_NAMES.len()],
    /// `serve.<verb>_ns` spans, in [`VERB_NAMES`] order.
    verb_ns: [Arc<Histogram>; VERB_NAMES.len()],
    /// `serve.records`: records carried by `predict`/`update`.
    records: Arc<Counter>,
    /// `serve.batch_records`: records per `predict`/`update` batch.
    batch_records: Arc<Histogram>,
    /// `sim.predict_ns`: one span per [`Model::apply_batch`].
    pub(crate) predict_ns: Arc<Histogram>,
    /// `sim.records_per_sec`: each batch's throughput.
    pub(crate) records_per_sec: Arc<Gauge>,
    connections: Arc<Counter>,
    errors_frame: Arc<Counter>,
    errors_protocol: Arc<Counter>,
    io_timeouts: Arc<Counter>,
    sync_bytes: Arc<Counter>,
}

impl ServeMetrics {
    /// The process-wide handles, registered on first use.
    pub(crate) fn get() -> &'static ServeMetrics {
        static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
        METRICS.get_or_init(|| ServeMetrics {
            requests: VERB_NAMES
                .map(|verb| vlpp_metrics::counter(&format!("serve.requests.{verb}"))),
            verb_ns: VERB_NAMES.map(|verb| vlpp_metrics::histogram(&format!("serve.{verb}_ns"))),
            records: vlpp_metrics::counter("serve.records"),
            batch_records: vlpp_metrics::histogram("serve.batch_records"),
            predict_ns: vlpp_metrics::histogram("sim.predict_ns"),
            records_per_sec: vlpp_metrics::gauge("sim.records_per_sec"),
            connections: vlpp_metrics::counter("serve.connections"),
            errors_frame: vlpp_metrics::counter("serve.errors.frame"),
            errors_protocol: vlpp_metrics::counter("serve.errors.protocol"),
            io_timeouts: vlpp_metrics::counter("serve.io_timeouts"),
            sync_bytes: vlpp_metrics::counter("serve.sync_bytes"),
        })
    }

    /// Counts one batch of `n` records.
    fn batch(&self, n: usize) {
        self.records.add(n as u64);
        self.batch_records.record(n as u64);
    }
}

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenSpec {
    /// A TCP address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path (Unix targets only).
    Unix(PathBuf),
}

/// Parsed `vlpp serve` options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (default `127.0.0.1:0`).
    pub listen: ListenSpec,
    /// Workload scale for profile traces (must match the client's).
    pub scale: Scale,
    /// Print the metrics table + `METRICS` line on exit.
    pub metrics: bool,
    /// Warm restart: load this model snapshot before announcing.
    pub snapshot: Option<PathBuf>,
    /// Socket read/write deadline in milliseconds (`0` disables).
    pub io_timeout_ms: u64,
}

/// `vlpp serve --help`.
pub const SERVE_USAGE: &str = "\
usage: vlpp serve [--listen HOST:PORT | --uds PATH] [--scale ci|N]
                  [--metrics] [--snapshot FILE] [--io-timeout-ms MS]

Binds, prints one `SERVE {json}` line on stdout announcing the bound
address, then serves the framed JSON protocol until a `shutdown` verb
arrives. With --snapshot, models saved by the `save` verb are loaded
before the announce line, so clients never see a half-warm server.
See SERVING.md.
";

/// Parses `vlpp serve` arguments.
///
/// # Errors
///
/// `Cli` for an unknown flag or a missing value, `Config` for a bad one.
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, VlppError> {
    let mut flags = Flags::with_scale(args);
    let mut listen = ListenSpec::Tcp("127.0.0.1:0".to_string());
    let (mut metrics, mut snapshot, mut io_timeout_ms) = (false, None, DEFAULT_IO_TIMEOUT_MS);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--listen" => listen = ListenSpec::Tcp(flags.value()?.to_string()),
            "--uds" if cfg!(not(unix)) => {
                return Err(cli_error("--uds is only available on Unix targets"))
            }
            "--uds" => listen = ListenSpec::Unix(PathBuf::from(flags.value()?)),
            "--metrics" => metrics = true,
            "--snapshot" => snapshot = Some(PathBuf::from(flags.value()?)),
            "--io-timeout-ms" => io_timeout_ms = flags.num(0..)?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(ServeOptions { listen, scale: flags.scale(), metrics, snapshot, io_timeout_ms })
}

/// `vlpp serve` entry point: parse, bind, serve until shutdown.
///
/// # Errors
///
/// [`VlppError::Cli`] for bad arguments, [`VlppError::Io`] if the
/// listener cannot bind.
pub fn serve_main(args: &[String]) -> Result<(), VlppError> {
    let options = parse_serve_args(args)?;
    serve(options)
}

/// One bidirectional client connection (TCP or Unix).
#[derive(Debug)]
enum Conn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain transport.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(stream) => stream.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.try_clone().map(Conn::Unix),
        }
    }

    /// Arms read/write deadlines on the socket (`0` leaves it
    /// unbounded). Errors are ignored: a socket that refuses a timeout
    /// still serves, it just keeps the old blocking behavior.
    fn set_timeouts(&self, ms: u64) {
        if ms == 0 {
            return;
        }
        let timeout = Some(std::time::Duration::from_millis(ms));
        let _ = match self {
            Conn::Tcp(stream) => {
                stream.set_read_timeout(timeout).and(stream.set_write_timeout(timeout))
            }
            #[cfg(unix)]
            Conn::Unix(stream) => {
                stream.set_read_timeout(timeout).and(stream.set_write_timeout(timeout))
            }
        };
    }

    /// Half-closes the read side: blocked `read_frame`s on any clone of
    /// this socket return EOF. Errors are ignored (the peer may already
    /// be gone, which achieves the same thing).
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Tcp(stream) => stream.shutdown(Shutdown::Read),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.shutdown(Shutdown::Read),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.flush(),
        }
    }
}

/// The bound listener.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// Enough address to open a dummy connection to the listener — how the
/// `shutdown` verb wakes the acceptor out of a blocking `accept`.
#[derive(Debug, Clone)]
enum WakeHandle {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl WakeHandle {
    fn wake(&self) {
        let _ = match self {
            WakeHandle::Tcp(addr) => TcpStream::connect(addr).map(drop),
            #[cfg(unix)]
            WakeHandle::Unix(path) => UnixStream::connect(path).map(drop),
        };
    }
}

impl Listener {
    fn bind(spec: &ListenSpec) -> Result<Listener, VlppError> {
        match spec {
            ListenSpec::Tcp(addr) => TcpListener::bind(addr)
                .map(Listener::Tcp)
                .map_err(|source| VlppError::io(addr, "bind", source)),
            #[cfg(unix)]
            ListenSpec::Unix(path) => {
                // A stale socket file from a killed server would make
                // bind fail; remove it first.
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path)
                    .map(|listener| Listener::Unix(listener, path.clone()))
                    .map_err(|source| VlppError::io(path.clone(), "bind", source))
            }
            #[cfg(not(unix))]
            ListenSpec::Unix(path) => {
                Err(cli_error(format!("unix socket {} unsupported on this target", path.display())))
            }
        }
    }

    /// Accepts one connection. TCP streams get `TCP_NODELAY`, so a
    /// response and any frames right behind it leave at once (an error
    /// setting it is ignored: the socket still serves, only slower).
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(listener, _) => listener.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }

    /// `(transport, address)` for the `SERVE` announce line.
    fn describe(&self) -> Result<(&'static str, String), VlppError> {
        match self {
            Listener::Tcp(listener) => {
                let addr = listener
                    .local_addr()
                    .map_err(|source| VlppError::io("tcp-listener", "local_addr", source))?;
                Ok(("tcp", addr.to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(("unix", path.display().to_string())),
        }
    }

    fn wake_handle(&self) -> Result<WakeHandle, VlppError> {
        match self {
            Listener::Tcp(listener) => {
                let addr = listener
                    .local_addr()
                    .map_err(|source| VlppError::io("tcp-listener", "local_addr", source))?;
                Ok(WakeHandle::Tcp(addr))
            }
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(WakeHandle::Unix(path.clone())),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// State shared by every connection handler.
struct Shared {
    workloads: Workloads,
    models: Mutex<HashMap<String, Arc<Model>>>,
    draining: AtomicBool,
    /// Read-half handles of open connections, for the drain half-close.
    conns: Mutex<HashMap<u64, Conn>>,
    wake: WakeHandle,
}

impl Shared {
    fn lookup(&self, name: &str, verb: &str) -> Result<Arc<Model>, VlppError> {
        let models = lock(&self.models);
        models.get(name).cloned().ok_or_else(|| {
            VlppError::protocol(
                Some(verb.to_string()),
                format!("unknown model `{name}` (train it first)"),
            )
        })
    }
}

/// Mutex recovery, same policy as the model shards: a poisoned lock
/// means some handler panicked, and the maps it guards are still
/// structurally valid, so serving continues.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// SIGTERM/SIGINT handling without a signals crate: the platform libc
/// is already linked, so `signal(2)` is declared directly. The handler
/// only stores to an atomic (the async-signal-safe subset); a watcher
/// thread polls the flag and runs the ordinary drain path.
#[cfg(unix)]
pub(crate) mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler when SIGTERM or SIGINT arrives.
    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes SIGTERM (15) and SIGINT (2) to the flag.
    pub(crate) fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(15, handler);
            signal(2, handler);
        }
    }

    /// True once a termination signal has arrived.
    pub(crate) fn terminated() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

/// Stub for non-Unix targets: no signals to catch, never terminated.
#[cfg(not(unix))]
pub(crate) mod sig {
    pub(crate) fn install() {}

    pub(crate) fn terminated() -> bool {
        false
    }
}

/// The drain sequence the `shutdown` verb and the signal watcher share:
/// flag first so the acceptor cannot miss it, then force every blocked
/// connection read to EOF and wake the acceptor out of `accept`.
fn initiate_drain(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    for conn in lock(&shared.conns).values() {
        conn.shutdown_read();
    }
    shared.wake.wake();
}

/// Runs the server until a `shutdown` verb drains it.
///
/// Prints one `SERVE {json}` stdout line once bound — clients (and the
/// integration tests) parse it to find the actual address, which
/// matters with `--listen 127.0.0.1:0`.
///
/// # Errors
///
/// [`VlppError::Io`] if the listener cannot bind or describe itself.
pub fn serve(options: ServeOptions) -> Result<(), VlppError> {
    let listener = Listener::bind(&options.listen)?;
    let (transport, addr) = listener.describe()?;

    // Warm restart happens between bind and announce: the port is held
    // (no restart race), but no client connects until the models are
    // fully restored.
    let mut models = HashMap::new();
    if let Some(path) = &options.snapshot {
        for model in snapshot::load_models(path, options.scale)? {
            models.insert(model.spec.name.clone(), model);
        }
    }

    let announce = JsonValue::Object(vec![
        ("transport".to_string(), JsonValue::Str(transport.to_string())),
        ("addr".to_string(), JsonValue::Str(addr)),
        ("scale".to_string(), JsonValue::UInt(options.scale.divisor())),
        ("pid".to_string(), JsonValue::UInt(std::process::id() as u64)),
        ("snapshot_models".to_string(), JsonValue::UInt(models.len() as u64)),
    ]);
    println!("SERVE {announce}");
    let _ = io::stdout().flush();

    let shared = Arc::new(Shared {
        workloads: Workloads::new(options.scale),
        models: Mutex::new(models),
        draining: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        wake: listener.wake_handle()?,
    });

    // Register every serve instrument up front so `--metrics`
    // snapshots always carry the recovery counters — the metrics-check
    // presence gate must distinguish "never fired" from "counting
    // removed".
    let metrics = ServeMetrics::get();

    // SIGTERM/SIGINT drain exactly like the `shutdown` verb. The
    // watcher exits once either path sets `draining`.
    sig::install();
    {
        let shared = Arc::clone(&shared);
        thread::spawn(move || loop {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            if sig::terminated() {
                initiate_drain(&shared);
                return;
            }
            thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let mut handlers = Vec::new();
    let mut next_id = 0u64;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let conn = match listener.accept() {
            Ok(conn) => conn,
            // Transient accept failures (e.g. the peer reset before we
            // got to it) must not kill the daemon.
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The drain wake-up connection (or a client racing it).
            break;
        }
        metrics.connections.incr();
        conn.set_timeouts(options.io_timeout_ms);
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = conn.try_clone() {
            lock(&shared.conns).insert(id, clone);
        }
        let shared = Arc::clone(&shared);
        handlers.push(thread::spawn(move || handle_connection(id, conn, shared)));
    }
    for handler in handlers {
        let _ = handler.join();
    }
    drop(listener);
    print_metrics(options.metrics);
    let _ = io::stdout().flush();
    Ok(())
}

/// The connection's one thread: read a frame, execute it, write the
/// response (then any `sync` continuation frames), repeat. Responses
/// leave in request order by construction, and a client that pipelines
/// is held back by the socket buffers, which push back through TCP.
///
/// A read-deadline expiry on an *idle* connection just loops (a client
/// holding a connection open is fine); an expiry mid-frame counts
/// `serve.io_timeouts` and closes, because a half-written frame means
/// the peer hung and the stream can never resynchronize. Any framing
/// error is answered with its typed error (best-effort: the peer may be
/// gone) before the close.
///
/// Reads go through a [`BufReader`], so a frame that arrives in one
/// segment costs one `read` call, and frames already buffered are
/// answered before the socket is read again.
fn handle_connection(id: u64, conn: Conn, shared: Arc<Shared>) {
    let metrics = ServeMetrics::get();
    let mut reader = BufReader::new(conn);
    'frames: loop {
        let payload = match frame::read_frame_or_timeout(&mut reader) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::IdleTimeout) => continue,
            // Clean EOF between frames: the client is done, or a drain
            // half-closed the read side.
            Ok(FrameRead::Eof) => break,
            Err(error) => {
                if frame::is_timeout(&error) {
                    metrics.io_timeouts.incr();
                }
                metrics.errors_frame.incr();
                let response = protocol::error_response(None, &error);
                let _ = write_frame(reader.get_mut(), response.to_string().as_bytes());
                break;
            }
        };
        let (response, trailing) = process_frame(&payload, &shared);
        // Binary continuation frames (the `sync` stream) follow their
        // response header on the same socket.
        for bytes in std::iter::once(response).chain(trailing) {
            if let Err(error) = write_frame(reader.get_mut(), &bytes) {
                // The client is gone; nothing left to respond to.
                if frame::is_timeout(&error) {
                    metrics.io_timeouts.incr();
                }
                break 'frames;
            }
        }
    }
    lock(&shared.conns).remove(&id);
}

/// Parses and executes one request frame, returning the response
/// payload plus any binary continuation frames to write after it (the
/// `sync` verb's snapshot chunks; empty for every other verb).
/// Protocol-level failures become error responses; the connection
/// stays usable.
fn process_frame(payload: &[u8], shared: &Shared) -> Reply {
    let metrics = ServeMetrics::get();
    let request = match protocol::parse_request(payload) {
        Ok(request) => request,
        Err(error) => {
            metrics.errors_protocol.incr();
            return (protocol::error_response(None, &error).to_string().into_bytes(), Vec::new());
        }
    };
    let index = request.verb.index();
    metrics.requests[index].incr();
    let _span = Span::enter(Arc::clone(&metrics.verb_ns[index]));
    execute(request.id, request.verb, shared).unwrap_or_else(|error| {
        metrics.errors_protocol.incr();
        (protocol::error_response(request.id, &error).to_string().into_bytes(), Vec::new())
    })
}

/// A verb's reply: the response payload, plus binary frames to stream
/// after it (only `sync` uses the latter).
type Reply = (Vec<u8>, Vec<Vec<u8>>);

/// Executes one verb. `predict` and `update`, the per-record verbs,
/// write their responses through the JSON writer with no tree in
/// between; the control verbs build an [`protocol::ok_response`] tree.
fn execute(id: Option<u64>, verb: Verb, shared: &Shared) -> Result<Reply, VlppError> {
    let name = verb.name();
    let ok = |body: Vec<(String, JsonValue)>| {
        protocol::ok_response(name, id, body).to_string().into_bytes()
    };
    match verb {
        Verb::Train(spec) => {
            let model = Model::train(spec, &shared.workloads)?;
            let body = vec![
                ("model".to_string(), JsonValue::Str(model.spec.name.clone())),
                ("kind".to_string(), JsonValue::Str(model.spec.kind.name().to_string())),
                ("shards".to_string(), JsonValue::UInt(model.spec.shards as u64)),
                ("default_hash".to_string(), JsonValue::UInt(model.default_hash as u64)),
                ("profiled_branches".to_string(), JsonValue::UInt(model.profiled_branches as u64)),
            ];
            lock(&shared.models).insert(model.spec.name.clone(), Arc::new(model));
            Ok((ok(body), Vec::new()))
        }
        Verb::Predict { model, records } => {
            let model = shared.lookup(&model, "predict")?;
            ServeMetrics::get().batch(records.len());
            let predictions = model.apply_batch(&records);
            Ok((protocol::predict_response(id, &predictions), Vec::new()))
        }
        Verb::Update { model, records } => {
            let model = shared.lookup(&model, "update")?;
            ServeMetrics::get().batch(records.len());
            model.apply_batch(&records);
            Ok((protocol::update_response(id, records.len()), Vec::new()))
        }
        Verb::Stats { model: Some(name) } => {
            let model = shared.lookup(&name, "stats")?;
            Ok((ok(vec![("stats".to_string(), model.stats_json())]), Vec::new()))
        }
        Verb::Stats { model: None } => {
            let models = lock(&shared.models);
            let mut entries: Vec<(String, JsonValue)> =
                models.iter().map(|(name, model)| (name.clone(), model.stats_json())).collect();
            // HashMap order is not deterministic; the wire form is.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Ok((ok(vec![("stats".to_string(), JsonValue::Object(entries))]), Vec::new()))
        }
        Verb::Save { path, model } => {
            let models: Vec<Arc<Model>> = match model {
                Some(name) => vec![shared.lookup(&name, "save")?],
                None => {
                    let map = lock(&shared.models);
                    let mut all: Vec<Arc<Model>> = map.values().cloned().collect();
                    // HashMap order is not deterministic; the file is.
                    all.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
                    all
                }
            };
            if models.is_empty() {
                return Err(VlppError::protocol(
                    Some("save".to_string()),
                    "no models to save (train one first)",
                ));
            }
            let report =
                snapshot::save_models(Path::new(&path), &models, shared.workloads.scale())?;
            let body = vec![
                ("path".to_string(), JsonValue::Str(path)),
                ("bytes".to_string(), JsonValue::UInt(report.bytes)),
                ("sections".to_string(), JsonValue::UInt(report.sections as u64)),
                (
                    "models".to_string(),
                    JsonValue::Array(report.models.into_iter().map(JsonValue::Str).collect()),
                ),
            ];
            Ok((ok(body), Vec::new()))
        }
        Verb::Load { path } => {
            let loaded = snapshot::load_models(Path::new(&path), shared.workloads.scale())?;
            let names: Vec<JsonValue> =
                loaded.iter().map(|m| JsonValue::Str(m.spec.name.clone())).collect();
            let mut map = lock(&shared.models);
            for model in loaded {
                map.insert(model.spec.name.clone(), model);
            }
            let body = vec![
                ("path".to_string(), JsonValue::Str(path)),
                ("models".to_string(), JsonValue::Array(names)),
            ];
            Ok((ok(body), Vec::new()))
        }
        Verb::Ping => {
            let body = vec![
                ("pid".to_string(), JsonValue::UInt(std::process::id() as u64)),
                ("draining".to_string(), JsonValue::Bool(shared.draining.load(Ordering::SeqCst))),
                ("models".to_string(), JsonValue::UInt(lock(&shared.models).len() as u64)),
            ];
            Ok((ok(body), Vec::new()))
        }
        Verb::Sync { model } => {
            let models: Vec<Arc<Model>> = match model {
                Some(name) => vec![shared.lookup(&name, "sync")?],
                None => {
                    let map = lock(&shared.models);
                    let mut all: Vec<Arc<Model>> = map.values().cloned().collect();
                    // HashMap order is not deterministic; the stream is.
                    all.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
                    all
                }
            };
            let names: Vec<JsonValue> =
                models.iter().map(|m| JsonValue::Str(m.spec.name.clone())).collect();
            // An empty model set is a valid (manifest-only) snapshot:
            // a freshly spawned node syncing from an untrained peer
            // warm-starts to the same empty state.
            let sections = snapshot::encode_models(&models, shared.workloads.scale());
            let mut bytes = Vec::new();
            snapshot::write_snapshot(&sections, &mut bytes).map_err(|source| {
                VlppError::protocol(
                    Some("sync".to_string()),
                    format!("cannot encode the snapshot stream: {source}"),
                )
            })?;
            let chunks: Vec<Vec<u8>> = bytes.chunks(SYNC_CHUNK_BYTES).map(<[u8]>::to_vec).collect();
            ServeMetrics::get().sync_bytes.add(bytes.len() as u64);
            let body = vec![
                ("bytes".to_string(), JsonValue::UInt(bytes.len() as u64)),
                ("chunks".to_string(), JsonValue::UInt(chunks.len() as u64)),
                ("scale".to_string(), JsonValue::UInt(shared.workloads.scale().divisor())),
                ("models".to_string(), JsonValue::Array(names)),
            ];
            Ok((ok(body), chunks))
        }
        Verb::Shutdown => {
            // This handler's own response is written by the caller
            // after we return — initiate_drain only closes read halves.
            initiate_drain(shared);
            Ok((ok(vec![("draining".to_string(), JsonValue::Bool(true))]), Vec::new()))
        }
    }
}
