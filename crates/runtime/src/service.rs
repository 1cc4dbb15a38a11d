//! The service substrate both daemons run on: wire protocol,
//! admission control, and the metrics surface.
//!
//! PaSh's compilation pass is pure overhead on every invocation; a
//! long-running service amortizes it across *requests*. This module
//! holds everything a daemon needs that is not policy:
//!
//! * a small length-prefixed protocol over a Unix-domain socket
//!   ([`Request`] / [`Response`], [`Client`]): `Run` carries script
//!   source, configuration, backend name, and stdin bytes one way and
//!   stdout/status (plus written files) the other; `Execute` carries
//!   one region attempt to a `pash-worker` and [`Response::Region`]
//!   its outcome back ([`crate::remote`]). Every message goes through
//!   the streaming codec of [`crate::wire`]: payloads are written from
//!   the caller's buffers and read into their final ones, and a frame
//!   over [`MAX_FRAME`] is refused before a byte is sent — [`serve`]
//!   answers an over-cap reply with [`Response::Error`] and counts it
//!   in `errors`;
//! * [`Semaphore`] — the `max_concurrent_runs` admission gate: how
//!   many runs, each one region at a time, execute at once;
//! * [`ServiceMetrics`] — compile hit/miss counters, queue depth, a
//!   request-latency histogram, requests served, and the supervisor's
//!   recovery counters, queryable over the socket;
//! * [`serve`] — the accept loop, one thread per connection, wiring
//!   admission, metrics and the drain around a caller-supplied request
//!   handler. `pashd`'s handler is `pash::daemon` (only the facade can
//!   reach every backend, and keeping it there avoids a dependency
//!   cycle); `pash-worker`'s is [`crate::remote::serve_worker`]'s.
//!   Each refuses the other's verbs with [`Response::Error`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pash_core::dfg::transform::SplitPolicy;

use crate::remote::{ExecuteParts, ExecuteRequest, RegionReply};
use crate::supervise::SupervisorCounters;
pub use crate::wire::MAX_FRAME;
use crate::wire::{bad_data, decode_frame, encode_frame, is_oversized, Encoder};

/// A compile-and-run request's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// The shell script source.
    pub script: String,
    /// Backend selection name (`shell`, `threads`, `processes`,
    /// `remote`).
    pub backend: String,
    /// Parallelism width, set by the caller for the whole run; `0` is
    /// refused with [`Response::Error`].
    pub width: u32,
    /// Split-node policy for every region of the run.
    pub split: SplitPolicy,
    /// Bytes fed to the program's stdin.
    pub stdin: Vec<u8>,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile (through the plan caches) and run a script.
    Run(RunRequest),
    /// Seed a file into the daemon's template filesystem. Every run
    /// executes against a fresh snapshot of the template, so seeded
    /// corpora are shared while runs stay isolated.
    PutFile {
        /// Path within the template filesystem.
        path: String,
        /// File contents.
        bytes: Vec<u8>,
    },
    /// Fetch the metrics surface as JSON.
    Metrics,
    /// Stop the daemon (acknowledged before the listener closes).
    Shutdown,
    /// Run one shipped region attempt (`pash-worker`'s verb).
    Execute(ExecuteRequest),
}

/// Whether the plan cache satisfied a run's compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Nothing cached: the full front-end ran.
    Cold,
    /// The in-memory `compile_cached` LRU.
    Memory,
}

impl CacheTier {
    fn to_u8(self) -> u8 {
        match self {
            CacheTier::Cold => 0,
            CacheTier::Memory => 1,
        }
    }

    fn from_u8(v: u8) -> io::Result<CacheTier> {
        match v {
            0 => Ok(CacheTier::Cold),
            1 => Ok(CacheTier::Memory),
            other => Err(bad_data(format!("bad cache tier {other}"))),
        }
    }
}

/// A successful run's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResponse {
    /// The program's exit status.
    pub status: i32,
    /// Which cache tier served the compilation.
    pub tier: CacheTier,
    /// Time spent obtaining the plan (compile or cache read), µs.
    pub compile_micros: u64,
    /// End-to-end request latency as observed by the server, µs.
    pub total_micros: u64,
    /// The program's stdout bytes (for the `shell` backend, the
    /// emitted script).
    pub stdout: Vec<u8>,
    /// Files the run created or modified relative to the template
    /// filesystem, so `> out.txt`-style results reach the client.
    pub files: Vec<(String, Vec<u8>)>,
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request failed; human-readable reason.
    Error(String),
    /// A [`Request::Run`] completed (the *program's* status may still
    /// be nonzero — that is a result, not an error).
    Run(RunResponse),
    /// Text payload (metrics JSON).
    Text(String),
    /// Acknowledgement with no payload.
    Ack,
    /// A [`Request::Execute`]'s outcome.
    Region(RegionReply),
}

// --- codec ----------------------------------------------------------

// Split value 1 is retired: it decodes as an error, and the other
// values keep their bytes.
fn split_to_u8(s: SplitPolicy) -> u8 {
    match s {
        SplitPolicy::Off => 0,
        SplitPolicy::Sized => 2,
        SplitPolicy::RoundRobin => 3,
    }
}

fn split_from_u8(v: u8) -> io::Result<SplitPolicy> {
    match v {
        0 => Ok(SplitPolicy::Off),
        2 => Ok(SplitPolicy::Sized),
        3 => Ok(SplitPolicy::RoundRobin),
        other => Err(bad_data(format!("bad split policy {other}"))),
    }
}

/// Encodes and writes one request, each byte-string field straight
/// from the request.
pub fn write_request(w: &mut dyn Write, req: &Request) -> io::Result<()> {
    encode_frame(w, |e| match req {
        Request::Run(r) => {
            e.u8(1);
            e.str(&r.script);
            e.str(&r.backend);
            e.u32(r.width);
            e.u8(split_to_u8(r.split));
            e.bytes(&r.stdin);
        }
        Request::PutFile { path, bytes } => {
            e.u8(2);
            e.str(path);
            e.bytes(bytes);
        }
        Request::Metrics => e.u8(3),
        Request::Shutdown => e.u8(4),
        Request::Execute(x) => put_execute(e, &x.parts()),
    })
}

/// Encodes and writes one `Execute` request from borrowed fields: the
/// same frame [`write_request`] writes for a [`Request::Execute`],
/// without the owned request.
pub(crate) fn write_execute(w: &mut dyn Write, x: ExecuteParts<'_>) -> io::Result<()> {
    encode_frame(w, |e| put_execute(e, &x))
}

fn put_execute(e: &mut Encoder<'_>, x: &ExecuteParts<'_>) {
    e.u8(5);
    x.encode(e);
}

/// Reads and decodes one request; `None` at clean end-of-stream.
pub fn read_request(r: &mut dyn Read) -> io::Result<Option<Request>> {
    decode_frame(r, |d| {
        Ok(match d.u8()? {
            1 => Request::Run(RunRequest {
                script: d.string()?,
                backend: d.string()?,
                width: d.u32()?,
                split: split_from_u8(d.u8()?)?,
                stdin: d.bytes()?,
            }),
            2 => Request::PutFile {
                path: d.string()?,
                bytes: d.bytes()?,
            },
            3 => Request::Metrics,
            4 => Request::Shutdown,
            5 => Request::Execute(ExecuteRequest::decode(d)?),
            other => return Err(bad_data(format!("bad request op {other}"))),
        })
    })
}

/// Encodes and writes one response. A frame over [`MAX_FRAME`] is
/// refused before a byte is written.
pub fn write_response(w: &mut dyn Write, resp: &Response) -> io::Result<()> {
    encode_frame(w, |e| match resp {
        Response::Error(msg) => {
            e.u8(0);
            e.str(msg);
        }
        Response::Run(r) => {
            e.u8(1);
            e.u32(r.status as u32);
            e.u8(r.tier.to_u8());
            e.u64(r.compile_micros);
            e.u64(r.total_micros);
            e.bytes(&r.stdout);
            e.files(&r.files);
        }
        Response::Text(s) => {
            e.u8(2);
            e.str(s);
        }
        Response::Ack => e.u8(3),
        Response::Region(r) => {
            e.u8(4);
            r.encode(e);
        }
    })
}

/// Reads and decodes one response.
pub fn read_response(r: &mut dyn Read) -> io::Result<Response> {
    decode_frame(r, |d| {
        Ok(match d.u8()? {
            0 => Response::Error(d.string()?),
            1 => {
                let status = d.u32()? as i32;
                let tier = CacheTier::from_u8(d.u8()?)?;
                let compile_micros = d.u64()?;
                let total_micros = d.u64()?;
                Response::Run(RunResponse {
                    status,
                    tier,
                    compile_micros,
                    total_micros,
                    stdout: d.bytes()?,
                    files: d.files()?,
                })
            }
            2 => Response::Text(d.string()?),
            3 => Response::Ack,
            4 => Response::Region(RegionReply::decode(d)?),
            other => return Err(bad_data(format!("bad response tag {other}"))),
        })
    })?
    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
}

// --- client ---------------------------------------------------------

/// A blocking protocol client over a Unix-domain socket.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon's socket.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        write_request(&mut self.stream, req)?;
        read_response(&mut self.stream)
    }

    /// Compiles and runs a script on the daemon.
    pub fn run(&mut self, req: RunRequest) -> io::Result<RunResponse> {
        match self.round_trip(&Request::Run(req))? {
            Response::Run(r) => Ok(r),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Seeds a file into the daemon's template filesystem.
    pub fn put_file(&mut self, path: &str, bytes: Vec<u8>) -> io::Result<()> {
        match self.round_trip(&Request::PutFile {
            path: path.to_string(),
            bytes,
        })? {
            Response::Ack => Ok(()),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches the metrics surface as JSON.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.round_trip(&Request::Metrics)? {
            Response::Text(s) => Ok(s),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Asks the daemon to stop (returns once acknowledged).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ack => Ok(()),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }
}

// --- admission ------------------------------------------------------

/// A counting semaphore: the `max_concurrent_runs` admission gate.
///
/// Within a run, one region executes at a time (steps run in plan
/// order); this bounds how many runs are admitted at once, so a burst
/// of requests queues at the door instead of oversubscribing the
/// machine.
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// A semaphore with `n` permits (clamped to ≥ 1).
    pub fn new(n: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is available; the guard releases on drop.
    pub fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut permits = self.permits.lock().expect("semaphore lock");
        while *permits == 0 {
            permits = self.cv.wait(permits).expect("semaphore wait");
        }
        *permits -= 1;
        SemaphoreGuard { sem: self }
    }
}

/// A held semaphore permit.
pub struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        *self.sem.permits.lock().expect("semaphore lock") += 1;
        self.sem.cv.notify_one();
    }
}

// --- metrics --------------------------------------------------------

/// Log₂-bucketed latency histogram over microseconds.
struct LatencyHistogram {
    /// `buckets[i]` counts samples with `us < 2^(i+1)` (and `≥ 2^i`
    /// for `i > 0`).
    buckets: [AtomicU64; 40],
    max_us: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).saturating_sub(1).min(39);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The upper bound (µs) of the bucket holding quantile `q`.
    fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return 1u64 << (i + 1);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// The daemon's metrics surface: compile hits and misses,
/// admission-queue depth, request-latency histogram, requests served,
/// and what the execution supervisor did. Queryable over the socket as
/// JSON ([`Request::Metrics`]).
pub struct ServiceMetrics {
    /// Requests of any kind served.
    pub requests: AtomicU64,
    /// Run requests served.
    pub runs: AtomicU64,
    /// Compilations served by the in-memory `compile_cached` LRU.
    pub tier1_hits: AtomicU64,
    /// Compilations that ran the full front-end.
    pub compile_misses: AtomicU64,
    /// Fold stages (`uniq`, `uniq -c`) those compilations moved below
    /// a `sort`'s merge (`DfgStats::commuted`, summed).
    pub plan_commuted: AtomicU64,
    /// Raw round-robin splits in the plans they produced
    /// (`DfgStats::splits_raw_rr`, summed).
    pub plan_splits_raw_rr: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Runs currently waiting for an admission permit (gauge).
    pub queue_depth: AtomicU64,
    /// Runs currently holding an admission permit (gauge).
    pub inflight: AtomicU64,
    /// Region shapes the profile store holds (gauge; bounded by
    /// [`crate::profile::MAX_REGIONS`]).
    pub profile_regions: AtomicU64,
    /// The recovery counters the daemon's
    /// [`crate::supervise::SupervisorSettings`] report into.
    pub supervisor: Arc<SupervisorCounters>,
    latency: LatencyHistogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new(Arc::default())
    }
}

impl ServiceMetrics {
    /// A zeroed surface printing the given supervisor counters.
    pub fn new(supervisor: Arc<SupervisorCounters>) -> ServiceMetrics {
        ServiceMetrics {
            requests: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            tier1_hits: AtomicU64::new(0),
            compile_misses: AtomicU64::new(0),
            plan_commuted: AtomicU64::new(0),
            plan_splits_raw_rr: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            profile_regions: AtomicU64::new(0),
            supervisor,
            latency: LatencyHistogram::new(),
        }
    }

    /// Records one run's end-to-end latency.
    pub fn record_latency(&self, us: u64) {
        self.latency.record(us);
    }

    /// Renders the surface as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let sup = &self.supervisor;
        format!(
            "{{\"requests_served\":{},\"run_requests\":{},\"tier1_hits\":{},\
             \"compile_misses\":{},\"plan_commuted\":{},\"plan_splits_raw_rr\":{},\
             \"errors\":{},\
             \"queue_depth\":{},\"inflight\":{},\"profile_regions\":{},\
             \"retries\":{},\"deadline_kills\":{},\"fallbacks\":{},\
             \"reroutes\":{},\"local_fallbacks\":{},\"injected\":{},\
             \"inline_regions\":{},\"threaded_regions\":{},\
             \"latency\":{{\"count\":{},\
             \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}}}",
            g(&self.requests),
            g(&self.runs),
            g(&self.tier1_hits),
            g(&self.compile_misses),
            g(&self.plan_commuted),
            g(&self.plan_splits_raw_rr),
            g(&self.errors),
            g(&self.queue_depth),
            g(&self.inflight),
            g(&self.profile_regions),
            sup.retries(),
            sup.deadline_kills(),
            sup.fallbacks(),
            sup.reroutes(),
            sup.local_fallbacks(),
            sup.injected(),
            sup.inline_regions(),
            sup.threaded_regions(),
            self.latency.count(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.90),
            self.latency.quantile(0.99),
            self.latency.max_us.load(Ordering::Relaxed),
        )
    }
}

// --- server ---------------------------------------------------------

/// Server-side knobs.
pub struct ServiceSettings {
    /// Admission-control width: how many runs may execute at once.
    pub max_concurrent_runs: usize,
}

/// How long shutdown waits for in-flight requests to finish writing
/// their responses before force-closing connections. The drain
/// guarantees no client whose request was already being served sees a
/// torn (half-written) response.
const DRAIN_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

impl Default for ServiceSettings {
    fn default() -> Self {
        ServiceSettings {
            max_concurrent_runs: 2,
        }
    }
}

/// The request handler the embedding crate supplies: it sees `Run`,
/// `PutFile` and `Execute` requests (`Metrics` and `Shutdown` are
/// handled by the server; only `Run` passes the admission gate). For
/// `Run`, `tier`/`compile_micros` in the returned [`RunResponse`]
/// report cache behaviour; the server fills `total_micros` and the
/// latency histogram.
pub type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// Binds a Unix-domain socket at `path`, replacing a stale socket file
/// if one is present and creating its parent directory if there is
/// none.
pub fn bind(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    UnixListener::bind(path)
}

/// Routes SIGTERM and SIGINT through the path a [`Request::Shutdown`]
/// takes: a poller sends one to `socket`, so [`serve`] stops
/// accepting, drains in-flight connections, removes the socket and
/// returns. `pashd` and `pash-worker` call this before serving.
pub fn shutdown_on_signal(socket: &Path) {
    static STOP: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(sig: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal(2)` with a handler that only stores to an atomic,
    // which is async-signal-safe. The connect below cannot run in
    // signal context, hence the poller.
    let handler = on_term as extern "C" fn(i32) as usize;
    unsafe {
        signal(15, handler); // SIGTERM
        signal(2, handler); // SIGINT
    }
    let socket = socket.to_path_buf();
    std::thread::spawn(move || loop {
        if STOP.load(Ordering::SeqCst) {
            if let Ok(mut c) = Client::connect(&socket) {
                let _ = c.shutdown();
            }
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

/// The live-connection registry shutdown drains: each entry is a
/// handle to the connection's socket plus its busy flag (set while a
/// request is being served and its response written). A connection's
/// thread removes its own entry when it ends, so the registry is also
/// the only record of who is alive.
type ConnRegistry = Arc<Mutex<HashMap<u64, (UnixStream, Arc<AtomicBool>)>>>;

/// Removes a connection from the registry when its thread ends,
/// however it ends: shutdown waits for the registry to empty, so an
/// entry must not outlive its thread.
struct Registered {
    conns: ConnRegistry,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        if let Ok(mut conns) = self.conns.lock() {
            conns.remove(&self.id);
        }
    }
}

/// The accept loop: one thread per connection, requests served in
/// order per connection, `Run` requests gated by the admission
/// semaphore and timed into the latency histogram.
///
/// Returns after a [`Request::Shutdown`] is acknowledged and every
/// connection has drained: in-flight requests get up to
/// [`DRAIN_DEADLINE`] to finish writing their
/// responses, then remaining connections are force-closed (waking
/// readers blocked on idle clients) and the loop waits for every
/// connection thread to leave the registry — so a client whose request
/// was already being served never sees a torn response. The socket
/// file is removed on the way out.
pub fn serve(
    listener: UnixListener,
    socket_path: &Path,
    metrics: Arc<ServiceMetrics>,
    settings: ServiceSettings,
    handler: Arc<Handler>,
) -> io::Result<()> {
    let conns = ConnRegistry::default();
    serve_registered(listener, socket_path, metrics, settings, handler, &conns)
}

/// [`serve`] over a caller-held registry (tests watch it empty).
fn serve_registered(
    listener: UnixListener,
    socket_path: &Path,
    metrics: Arc<ServiceMetrics>,
    settings: ServiceSettings,
    handler: Arc<Handler>,
    conns: &ConnRegistry,
) -> io::Result<()> {
    let running = Arc::new(AtomicBool::new(true));
    let admission = Arc::new(Semaphore::new(settings.max_concurrent_runs));
    let mut next_id: u64 = 0;
    while running.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(e) => {
                if running.load(Ordering::SeqCst) {
                    return Err(e);
                }
                break;
            }
        };
        if !running.load(Ordering::SeqCst) {
            break;
        }
        // A connection that cannot be registered cannot be drained at
        // shutdown: refuse it (the client sees EOF) instead of serving
        // it untracked.
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        let busy = Arc::new(AtomicBool::new(false));
        conns
            .lock()
            .expect("conn registry lock")
            .insert(id, (handle, busy.clone()));
        let registered = Registered {
            conns: conns.clone(),
            id,
        };
        let metrics = metrics.clone();
        let handler = handler.clone();
        let admission = admission.clone();
        let running = running.clone();
        let wake_path = socket_path.to_path_buf();
        // Detached: the thread's registry entry, removed when it ends,
        // is what shutdown waits on — no handle accumulates per
        // connection served.
        std::thread::spawn(move || {
            let _registered = registered;
            serve_connection(
                stream, &metrics, &handler, &admission, &running, &wake_path, &busy,
            );
        });
    }
    // Drain: wait (bounded) for busy connections to finish their
    // response writes, then force-close whatever is left so readers
    // blocked on idle clients wake up, and wait for the registry to
    // empty as their threads end.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
    loop {
        let any_busy = conns
            .lock()
            .expect("conn registry lock")
            .values()
            .any(|(_, busy)| busy.load(Ordering::SeqCst));
        if !any_busy || Instant::now() >= deadline {
            break;
        }
        pause();
    }
    for (stream, _) in conns.lock().expect("conn registry lock").values() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    while !conns.lock().expect("conn registry lock").is_empty() {
        pause();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: UnixStream,
    metrics: &ServiceMetrics,
    handler: &Arc<Handler>,
    admission: &Semaphore,
    running: &AtomicBool,
    wake_path: &Path,
    busy: &AtomicBool,
) {
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return,
        };
        busy.store(true, Ordering::SeqCst);
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let resp = match req {
            Request::Metrics => Response::Text(metrics.to_json()),
            Request::Shutdown => {
                let _ = write_response(&mut stream, &Response::Ack);
                busy.store(false, Ordering::SeqCst);
                running.store(false, Ordering::SeqCst);
                // Unblock the accept loop (a failed connect means the
                // listener is already past accept).
                let _ = UnixStream::connect(wake_path);
                return;
            }
            Request::Run(_) => {
                metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                let permit = admission.acquire();
                metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                metrics.inflight.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let resp = handler(req);
                let us = start.elapsed().as_micros() as u64;
                metrics.inflight.fetch_sub(1, Ordering::Relaxed);
                drop(permit);
                metrics.runs.fetch_add(1, Ordering::Relaxed);
                metrics.record_latency(us);
                match resp {
                    Response::Run(mut r) => {
                        r.total_micros = us;
                        match r.tier {
                            CacheTier::Cold => &metrics.compile_misses,
                            CacheTier::Memory => &metrics.tier1_hits,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        Response::Run(r)
                    }
                    other => other,
                }
            }
            other => handler(other),
        };
        if matches!(resp, Response::Error(_)) {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let wrote = match write_response(&mut stream, &resp) {
            // Refused before a byte went out: the connection is still
            // at a frame boundary, so the client gets the reason.
            Err(e) if is_oversized(&e) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                write_response(
                    &mut stream,
                    &Response::Error(format!("reply not sent: {e}")),
                )
            }
            wrote => wrote,
        };
        busy.store(false, Ordering::SeqCst);
        // A drain in progress: this response is complete, and the
        // connection closes cleanly instead of reading another
        // request the dying daemon could not honour.
        if wrote.is_err() || !running.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RegionOutput;
    use crate::wire::raw::{put_bytes, put_u32, put_u64, write_frame, Recorder};
    use pash_core::plan::{Arg, EndpointKind, PlanEdge, PlanNode, PlanOp, RegionPlan, SplitMode};

    #[test]
    fn request_codec_round_trips() {
        let reqs = [
            Request::Run(RunRequest {
                script: "cat in.txt | sort".to_string(),
                backend: "threads".to_string(),
                width: 8,
                split: SplitPolicy::RoundRobin,
                stdin: b"line\n".to_vec(),
            }),
            Request::PutFile {
                path: "in.txt".to_string(),
                bytes: vec![0, 1, 2, 255],
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).expect("encode");
            let got = read_request(&mut io::Cursor::new(buf))
                .expect("decode")
                .expect("some");
            assert_eq!(got, req);
        }
        assert_eq!(
            read_request(&mut io::Cursor::new(Vec::new())).expect("eof"),
            None
        );
    }

    #[test]
    fn response_codec_round_trips() {
        let resps = [
            Response::Error("nope".to_string()),
            Response::Run(RunResponse {
                status: -13,
                tier: CacheTier::Memory,
                compile_micros: 42,
                total_micros: 99,
                stdout: b"out".to_vec(),
                files: vec![("out.txt".to_string(), b"data".to_vec())],
            }),
            Response::Text("{}".to_string()),
            Response::Ack,
        ];
        for resp in resps {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("encode");
            let got = read_response(&mut io::Cursor::new(buf)).expect("decode");
            assert_eq!(got, resp);
        }
    }

    /// A region with every edge kind, node op and split mode the
    /// codec knows (the codec does not validate, so it need not run).
    fn every_shape_region() -> RegionPlan {
        let node = |op, inputs: Vec<usize>, outputs: Vec<usize>| PlanNode {
            op,
            stdin_inputs: inputs.first().copied().into_iter().collect(),
            inputs,
            outputs,
            output_producer: false,
        };
        let split = |mode| PlanOp::Split { mode };
        let edge = |kind, from, to| PlanEdge { kind, from, to };
        RegionPlan {
            nodes: vec![
                node(split(SplitMode::General), vec![0], vec![1, 2]),
                node(split(SplitMode::Sized), vec![1], vec![3]),
                node(
                    split(SplitMode::RoundRobin { framed: false }),
                    vec![2],
                    vec![4],
                ),
                node(
                    split(SplitMode::RoundRobin { framed: true }),
                    vec![3],
                    vec![5],
                ),
                node(
                    PlanOp::Exec {
                        argv: vec![
                            Arg::Lit("grep".into()),
                            Arg::Lit("x".into()),
                            Arg::Stream(4),
                        ],
                        framed: true,
                    },
                    vec![4],
                    vec![6],
                ),
                node(PlanOp::Cat, vec![5, 6], vec![7]),
                node(PlanOp::Relay { blocking: true }, vec![7], vec![8]),
                PlanNode {
                    output_producer: true,
                    ..node(
                        PlanOp::Aggregate {
                            argv: vec!["pash-agg-reorder".into()],
                        },
                        vec![8],
                        vec![9],
                    )
                },
            ],
            edges: vec![
                edge(EndpointKind::InputFile("in.txt".into()), None, Some(0)),
                edge(EndpointKind::Pipe, Some(0), Some(1)),
                edge(EndpointKind::StdinPipe { primary: true }, None, Some(2)),
                edge(EndpointKind::StdinPipe { primary: false }, None, Some(3)),
                edge(
                    EndpointKind::InputSegment {
                        path: "seg.txt".into(),
                        part: 1,
                        of: 2,
                    },
                    None,
                    Some(4),
                ),
                edge(EndpointKind::Pipe, Some(3), Some(5)),
                edge(EndpointKind::Pipe, Some(4), Some(5)),
                edge(EndpointKind::OutputFile("o.txt".into()), Some(5), None),
                edge(EndpointKind::Detached, None, None),
                edge(EndpointKind::StdoutPipe, Some(7), None),
            ],
            replayable: true,
        }
    }

    /// One request of every kind, with every field set.
    fn every_request() -> Vec<Request> {
        vec![
            Request::Run(RunRequest {
                script: "tr A-Z a-z | sort".to_string(),
                backend: "threads".to_string(),
                width: 2,
                split: SplitPolicy::RoundRobin,
                stdin: b"b\nA\n".to_vec(),
            }),
            Request::PutFile {
                path: "in.txt".to_string(),
                bytes: vec![0, 1, 2, 255],
            },
            Request::Metrics,
            Request::Shutdown,
            Request::Execute(ExecuteRequest {
                region: every_shape_region(),
                files: vec![
                    ("in.txt".to_string(), b"x\ny\n".to_vec()),
                    ("seg.txt".to_string(), Vec::new()),
                ],
                stdin: b"feed".to_vec(),
                fault: Some("kill-worker:1:-:7:20:50".to_string()),
            }),
            Request::Execute(ExecuteRequest {
                region: every_shape_region(),
                files: Vec::new(),
                stdin: Vec::new(),
                fault: None,
            }),
        ]
    }

    /// One response of every kind, with every field set.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Error("nope".to_string()),
            Response::Run(RunResponse {
                status: -13,
                tier: CacheTier::Memory,
                compile_micros: 42,
                total_micros: 99,
                stdout: b"out\n".to_vec(),
                files: vec![
                    ("out.txt".to_string(), b"data".to_vec()),
                    ("empty".to_string(), Vec::new()),
                ],
            }),
            Response::Text("{}".to_string()),
            Response::Ack,
            Response::Region(RegionReply::Done {
                output: RegionOutput {
                    stdout: b"a\nb\n".to_vec(),
                    statuses: vec![(0, 0), (3, 1)],
                    status: 1,
                },
                files: vec![("o.txt".to_string(), b"z".to_vec())],
            }),
            Response::Region(RegionReply::Failed {
                transient: true,
                message: "torn".to_string(),
            }),
        ]
    }

    /// [`every_request`] and [`every_response`] as the encoder wrote
    /// them when frames were built whole in memory (hex, header
    /// included): streaming changed how the bytes are written, not
    /// which bytes they are.
    const GOLDEN_REQUESTS: [&str; 6] = [
        "2e0000000111000000747220412d5a20612d7a207c20736f727407000000746872656164\
         73020000000304000000620a410a",
        "130000000206000000696e2e74787404000000000102ff",
        "0100000003",
        "0100000004",
        "e301000005010a0000000306000000696e2e747874000000000100000000010000000200\
         0000010100000000030000000100000000000400000005070000007365672e7478740100\
         000002000000000000000500000000040000000600000000050000000600000004050000\
         006f2e747874060000000000000006000000000000000002080000000000000008000000\
         020001000000000000000200000001000000020000000100000000000000000201010000\
         000100000001000000030000000100000001000000000202010000000200000001000000\
         040000000100000002000000000203010000000300000001000000050000000100000003\
         000000000001030000000004000000677265700001000000780104000000010000000400\
         000001000000060000000100000004000000000102000000050000000600000001000000\
         070000000100000005000000000301010000000700000001000000080000000100000007\
         00000000040100000010000000706173682d6167672d72656f7264657201000000080000\
         000100000009000000010000000800000001040000006665656401170000006b696c6c2d\
         776f726b65723a313a2d3a373a32303a35300200000006000000696e2e74787404000000\
         780a790a070000007365672e74787400000000",
        "a301000005010a0000000306000000696e2e747874000000000100000000010000000200\
         0000010100000000030000000100000000000400000005070000007365672e7478740100\
         000002000000000000000500000000040000000600000000050000000600000004050000\
         006f2e747874060000000000000006000000000000000002080000000000000008000000\
         020001000000000000000200000001000000020000000100000000000000000201010000\
         000100000001000000030000000100000001000000000202010000000200000001000000\
         040000000100000002000000000203010000000300000001000000050000000100000003\
         000000000001030000000004000000677265700001000000780104000000010000000400\
         000001000000060000000100000004000000000102000000050000000600000001000000\
         070000000100000005000000000301010000000700000001000000080000000100000007\
         00000000040100000010000000706173682d6167672d72656f7264657201000000080000\
         000100000009000000010000000800000001000000000000000000",
    ];
    const GOLDEN_RESPONSES: [&str; 6] = [
        "0900000000040000006e6f7065",
        "4200000001f3ffffff012a000000000000006300000000000000040000006f75740a0200\
         0000070000006f75742e747874040000006461746105000000656d70747900000000",
        "0700000002020000007b7d",
        "0100000003",
        "34000000040001000000020000000000000000000000030000000100000004000000610a\
         620a01000000050000006f2e747874010000007a",
        "0b00000004010104000000746f726e",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn every_frame_kind_matches_its_golden_bytes() {
        for (req, want) in every_request().iter().zip(GOLDEN_REQUESTS) {
            let mut wire = Vec::new();
            write_request(&mut wire, req).expect("encode");
            assert_eq!(hex(&wire), want, "{req:?}");
            let back = read_request(&mut io::Cursor::new(wire)).expect("decode");
            assert_eq!(back.as_ref(), Some(req));
        }
        for (resp, want) in every_response().iter().zip(GOLDEN_RESPONSES) {
            let mut wire = Vec::new();
            write_response(&mut wire, resp).expect("encode");
            assert_eq!(hex(&wire), want, "{resp:?}");
            assert_eq!(
                &read_response(&mut io::Cursor::new(wire)).expect("decode"),
                resp
            );
        }
    }

    #[test]
    fn split_value_one_is_refused() {
        // The Run frame of `every_request`, its split byte (between the
        // width and the 4-byte stdin with its length) set to 1.
        let mut wire = Vec::new();
        write_request(&mut wire, &every_request()[0]).expect("encode");
        let at = wire.len() - 9;
        assert_eq!(wire[at], 3, "the round-robin byte");
        wire[at] = 1;
        let err = read_request(&mut io::Cursor::new(wire)).expect_err("value 1");
        assert!(err.to_string().contains("bad split policy 1"), "{err}");
    }

    /// Hands out one byte per `read`.
    struct Trickle(io::Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_reader_that_trickles_decodes_the_same_values() {
        // Every kind back to back on one stream: each frame ends where
        // the next begins.
        let mut wire = Vec::new();
        for req in every_request() {
            write_request(&mut wire, &req).expect("encode");
        }
        let mut r = Trickle(io::Cursor::new(wire));
        for req in every_request() {
            assert_eq!(read_request(&mut r).expect("decode"), Some(req));
        }
        assert_eq!(read_request(&mut r).expect("eof"), None);
        let mut wire = Vec::new();
        for resp in every_response() {
            write_response(&mut wire, &resp).expect("encode");
        }
        let mut r = Trickle(io::Cursor::new(wire));
        for resp in every_response() {
            assert_eq!(read_response(&mut r).expect("decode"), resp);
        }
    }

    #[test]
    fn payloads_are_written_from_the_callers_buffers() {
        let big = || vec![b'x'; 1 << 20];
        let requests = [
            Request::Run(RunRequest {
                script: "tr A-Z a-z".to_string(),
                backend: "threads".to_string(),
                width: 2,
                split: SplitPolicy::RoundRobin,
                stdin: big(),
            }),
            Request::PutFile {
                path: "in.txt".to_string(),
                bytes: big(),
            },
            Request::Execute(ExecuteRequest {
                region: every_shape_region(),
                files: vec![("in.txt".to_string(), big())],
                stdin: big(),
                fault: None,
            }),
        ];
        for req in &requests {
            let fields: Vec<&[u8]> = match req {
                Request::Run(r) => vec![&r.stdin],
                Request::PutFile { bytes, .. } => vec![bytes],
                Request::Execute(x) => vec![&x.stdin, &x.files[0].1],
                _ => unreachable!("only requests with payloads"),
            };
            let mut sink = Recorder::default();
            write_request(&mut sink, req).expect("encode");
            for field in fields {
                assert!(sink.wrote_in_place(field), "{:?}", sink.writes);
            }
        }
        let responses = [
            Response::Run(RunResponse {
                status: 0,
                tier: CacheTier::Cold,
                compile_micros: 0,
                total_micros: 0,
                stdout: big(),
                files: vec![("out.txt".to_string(), big())],
            }),
            Response::Region(RegionReply::Done {
                output: RegionOutput {
                    stdout: big(),
                    statuses: Vec::new(),
                    status: 0,
                },
                files: vec![("o.txt".to_string(), big())],
            }),
        ];
        for resp in &responses {
            let fields: Vec<&[u8]> = match resp {
                Response::Run(r) => vec![&r.stdout, &r.files[0].1],
                Response::Region(RegionReply::Done { output, files }) => {
                    vec![&output.stdout, &files[0].1]
                }
                _ => unreachable!("only replies with payloads"),
            };
            let mut sink = Recorder::default();
            write_response(&mut sink, resp).expect("encode");
            for field in fields {
                assert!(sink.wrote_in_place(field), "{:?}", sink.writes);
            }
        }
    }

    #[test]
    fn corrupt_frames_are_invalid_data() {
        // Oversized frame length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_request(&mut io::Cursor::new(buf)).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::PutFile {
                path: "p".to_string(),
                bytes: vec![1; 64],
            },
        )
        .expect("encode");
        buf.truncate(buf.len() - 10);
        assert!(read_request(&mut io::Cursor::new(buf)).is_err());
        // Bad op byte.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[99]).expect("frame");
        let err = read_request(&mut io::Cursor::new(buf)).expect_err("bad op");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Arbitrary garbage fed to the decoders: a structured
        // io::Error or a clean EOF, never a panic — and transparently
        // never a hang, since decoding is a pure function of the
        // bytes. Random payloads can legitimately decode (op byte 3 =
        // Metrics), so only the error *kind* is constrained.
        #[test]
        fn prop_decoders_survive_garbage(
            data in proptest::collection::vec(0u8..255, 0..2048),
        ) {
            for result in [
                read_request(&mut io::Cursor::new(data.clone())).map(|_| ()),
                read_response(&mut io::Cursor::new(data.clone())).map(|_| ()),
            ] {
                if let Err(e) = result {
                    prop_assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "unstructured error: {e:?}"
                    );
                }
            }
        }

        // A valid request truncated at every possible point: byte-
        // identical round-trip when whole, clean EOF when cut at zero,
        // a structured error anywhere in between — never a panic and
        // never a partial decode passed off as success.
        #[test]
        fn prop_truncated_requests_error_cleanly(
            script in "[a-z |.><&;-]{0,64}",
            stdin in proptest::collection::vec(0u8..255, 0..256),
            cut_frac in 0.0f64..1.0,
        ) {
            let req = Request::Run(RunRequest {
                script,
                backend: "threads".to_string(),
                width: 4,
                split: SplitPolicy::RoundRobin,
                stdin,
            });
            let mut buf = Vec::new();
            write_request(&mut buf, &req).expect("encode");
            let whole = read_request(&mut io::Cursor::new(buf.clone()))
                .expect("decode")
                .expect("some");
            prop_assert_eq!(&whole, &req);
            let cut = ((buf.len() as f64) * cut_frac) as usize;
            if cut < buf.len() {
                match read_request(&mut io::Cursor::new(buf[..cut].to_vec())) {
                    Ok(None) => prop_assert_eq!(cut, 0, "partial frame decoded as EOF"),
                    Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
                    Err(e) => prop_assert!(matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    )),
                }
            }
        }

        // Oversized length prefixes are rejected before allocation,
        // whatever follows them.
        #[test]
        fn prop_oversized_frames_are_rejected(
            extra in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
            tail in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let len = (MAX_FRAME as u64 + extra) as u32;
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&tail);
            let err = read_request(&mut io::Cursor::new(buf)).expect_err("oversized");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        // A run-response frame whose claimed file count exceeds what
        // the frame could physically hold is rejected up front (no
        // attacker-sized allocation).
        #[test]
        fn prop_inflated_file_counts_are_rejected(nfiles in 1u32..u32::MAX) {
            let mut p = Vec::new();
            p.push(1u8); // Response::Run
            put_u32(&mut p, 0); // status
            p.push(0); // tier
            put_u64(&mut p, 0);
            put_u64(&mut p, 0);
            put_bytes(&mut p, b""); // stdout
            put_u32(&mut p, nfiles);
            let mut buf = Vec::new();
            write_frame(&mut buf, &p).expect("frame");
            let err = read_response(&mut io::Cursor::new(buf)).expect_err("inflated");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn semaphore_bounds_concurrency() {
        use std::sync::atomic::AtomicUsize;
        let sem = Arc::new(Semaphore::new(2));
        let inflight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sem, inflight, peak) = (sem.clone(), inflight.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let _g = sem.acquire();
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                inflight.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission exceeded");
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let h = LatencyHistogram::new();
        for us in [3u64, 10, 100, 1000, 10_000, 10_000, 10_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 >= 10_000);
        assert_eq!(h.max_us.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn bind_creates_the_socket_directory() {
        let dir = std::env::temp_dir().join(format!("pash-svc-bind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let socket = dir.join("nested").join("s.sock");
        let listener = bind(&socket).expect("bind under a missing directory");
        assert!(socket.exists());
        // A stale socket file is replaced.
        drop(listener);
        bind(&socket).expect("rebind over a stale socket");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let socket = std::env::temp_dir().join(format!("pash-svc-conns-{}", std::process::id()));
        let listener = bind(&socket).expect("bind");
        let conns = ConnRegistry::default();
        let server = {
            let (socket, conns) = (socket.clone(), conns.clone());
            std::thread::spawn(move || {
                serve_registered(
                    listener,
                    &socket,
                    Arc::new(ServiceMetrics::default()),
                    ServiceSettings::default(),
                    Arc::new(|_| Response::Ack),
                    &conns,
                )
            })
        };
        for _ in 0..2000 {
            let mut c = Client::connect(&socket).expect("connect");
            c.metrics().expect("metrics");
        }
        // A connection's thread ends after it reads the client's EOF,
        // so the last entries leave a moment after the last drop.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !conns.lock().expect("registry").is_empty() && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conns.lock().expect("registry").len(), 0);
        let mut c = Client::connect(&socket).expect("connect");
        let json = c.metrics().expect("daemon still answers");
        assert!(json.contains("\"requests_served\":2001"), "{json}");
        c.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("serve");
    }
}
