//! The long-running query server: accept loop, worker pool, admission
//! control, drain.
//!
//! ## Architecture
//!
//! One **accept thread** owns the `TcpListener` and is the admission
//! controller: every accepted connection first claims an in-flight
//! permit (a [`Gauge`] guard, so `/metrics` always shows the live
//! count) and is then pushed onto a **bounded queue**
//! (`mpsc::sync_channel`, as deep as the permit cap, so a job holding a
//! permit always fits). If the server is over
//! [`ServeConfig::max_inflight`], the connection
//! is **shed** immediately with `429 Too Many Requests` +
//! `Retry-After` — the accept thread never blocks on a slow worker, so
//! overload degrades into fast rejections instead of unbounded queue
//! growth. A fixed pool of **worker threads** drains the queue; each
//! connection carries one HTTP/1.1 request (`Connection: close`).
//!
//! ## Isolation and degradation
//!
//! Workers execute queries through
//! [`Executor::run_isolated`], so a panicking solve turns
//! into a `500` for that request only — the worker thread survives and
//! keeps serving. Budget exhaustion (per-request `deadline_ms` /
//! `max_pivots`) is not an error: it returns `200` with
//! `"degraded": true` and the bound-ordered candidate ranking, exactly
//! like the CLI.
//!
//! ## Drain
//!
//! Pure std under `forbid(unsafe_code)` cannot install OS signal
//! handlers, so graceful shutdown is exposed two ways instead:
//! `POST /admin/drain` over the wire, and [`ShutdownHandle::drain`]
//! in-process (the CLI wires the latter to stdin EOF so
//! `flexemd serve` drains when its parent closes the pipe). Draining
//! stops the accept loop, lets queued and in-flight requests finish,
//! then joins the pool.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::http::{read_request, HttpError, Method, Request, Response};
use crate::spec::QuerySpec;
use emd_core::Histogram;
use emd_json::{self as json, Value};
use emd_obs::{Gauge, GaugeGuard, MetricsRegistry, Recording};
use emd_query::{
    BudgetReason, Database, Executor, Neighbor, Query, QueryError, QueryOutcome, QueryStats,
};

/// Schema tag carried by every JSON response body.
pub const RESPONSE_SCHEMA: &str = "flexemd-serve/v1";

/// Per-socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admitted-connection cap (queued + executing). Anything beyond is
    /// shed with 429. Also the depth of the queue between the accept
    /// thread and the workers, which a permit-holding job can then
    /// always enter.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            max_inflight: 64,
        }
    }
}

/// The immutable corpus a server answers from: a prepared [`Executor`]
/// over an index snapshot plus the raw [`Database`] for `query_id`
/// lookups.
#[derive(Debug)]
pub struct Snapshot {
    /// The prepared execution plan (filters, candidate source, refiner).
    pub executor: Executor,
    /// The histogram corpus the executor indexes.
    pub database: Database,
    /// Index name reported by `/healthz`.
    pub name: String,
    /// Deterministic fault injector attached to every request budget
    /// (resilience testing only; `None` in production): its solve
    /// failpoints fire inside the solver, its worker failpoints in the
    /// executor's panic isolation — on the static and the writable
    /// corpus alike.
    pub faults: Option<Arc<dyn emd_faultkit::FaultInjector>>,
    /// A WAL-backed dynamic corpus. When present the server answers
    /// queries from the ingest layer's current [`DurableSnapshot`]
    /// (swapped after every durable write) instead of the static
    /// `executor`/`database` pair, and enables `POST /v1/insert`,
    /// `POST /v1/remove` and `POST /admin/compact`. `None` keeps the
    /// classic read-only server.
    ///
    /// [`DurableSnapshot`]: emd_query::DurableSnapshot
    pub ingest: Option<Arc<crate::ingest::IngestState>>,
}

/// Remotely triggerable drain switch; clones share the flag.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    draining: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Begin draining: stop admitting connections, let in-flight work
    /// finish. Idempotent. Wakes the accept thread with a loopback
    /// connection so the drain takes effect immediately.
    pub fn drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept(); the accept loop sees the flag
            // and exits before serving this connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Shared server state: the snapshot plus admission/metrics machinery.
struct Shared {
    snapshot: Snapshot,
    config: ServeConfig,
    handle: ShutdownHandle,
    /// Live admitted-connection count; the guard returned by
    /// [`Gauge::guard`] is the admission permit itself.
    inflight: Gauge,
    /// Connections shed with 429 (accept thread has no metrics scope, so
    /// this is an atomic injected into `/metrics` at render time).
    shed: AtomicU64,
    /// Per-request sequence; doubles as the panic-isolation worker
    /// ordinal so a `Site::Worker(n)` failpoint targets one request.
    sequence: AtomicU64,
    /// Per-worker metric accumulators, merged (in index order) by
    /// `/metrics`.
    worker_metrics: Vec<Mutex<MetricsRegistry>>,
}

/// Lock `lock`, ignoring poison: the serve layer's locks guard data a
/// panic leaves structurally valid (registries, the job receiver, the
/// ingest writer and snapshot), so keep serving rather than propagating it.
pub(crate) fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    match lock.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A query server bound to a socket; use [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// A started server: its address, drain handle, and joinable threads.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle that triggers a graceful drain.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Block until the server has fully drained (accept loop exited,
    /// every worker finished). Returns when someone — this process via
    /// [`ShutdownHandle::drain`], or a client via `POST /admin/drain` —
    /// has initiated a drain.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] when a server thread ended
    /// abnormally instead of draining cleanly.
    pub fn join(self) -> Result<(), ServeError> {
        let mut lost = self.accept.join().is_err();
        for worker in self.workers {
            lost |= worker.join().is_err();
        }
        if lost {
            return Err(ServeError::WorkerLost);
        }
        Ok(())
    }

    /// [`ShutdownHandle::drain`] followed by [`RunningServer::join`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunningServer::join`].
    pub fn drain_and_join(self) -> Result<(), ServeError> {
        self.handle.drain();
        self.join()
    }
}

impl Server {
    /// Bind, spawn the worker pool and accept thread, and return the
    /// running server. The call does not block; use
    /// [`RunningServer::join`] to wait for a drain.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadAddr`] when the listen address does not
    /// resolve and [`ServeError::Io`] when binding or thread spawning
    /// fails.
    pub fn start(snapshot: Snapshot, config: ServeConfig) -> Result<RunningServer, ServeError> {
        let mut addrs = config
            .addr
            .to_socket_addrs()
            .map_err(|_| ServeError::BadAddr(config.addr.clone()))?;
        let Some(addr) = addrs.next() else {
            return Err(ServeError::BadAddr(config.addr));
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let handle = ShutdownHandle {
            draining: Arc::new(AtomicBool::new(false)),
            addr,
        };
        let shared = Arc::new(Shared {
            snapshot,
            config,
            handle: handle.clone(),
            inflight: Gauge::new("serve.inflight"),
            shed: AtomicU64::new(0),
            sequence: AtomicU64::new(0),
            worker_metrics: (0..workers)
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
        });

        type Job = (TcpStream, GaugeGuard);
        let (sender, receiver) = mpsc::sync_channel::<Job>(shared.config.max_inflight.max(1));
        let receiver = Arc::new(Mutex::new(receiver));

        let mut worker_handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            let receiver = Arc::clone(&receiver);
            let thread = std::thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || worker_loop(&shared, &receiver, index))?;
            worker_handles.push(thread);
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&shared, &listener, &sender))?
        };

        Ok(RunningServer {
            addr,
            handle,
            accept,
            workers: worker_handles,
        })
    }
}

/// The admission controller: accept, claim a permit, enqueue or shed.
fn accept_loop(
    shared: &Shared,
    listener: &TcpListener,
    sender: &SyncSender<(TcpStream, GaugeGuard)>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.handle.is_draining() {
                break;
            }
            continue;
        };
        if shared.handle.is_draining() {
            // The drain wake-up connection (or a client racing the
            // drain): stop accepting; queued work still completes.
            break;
        }
        let permit = shared.inflight.guard(1);
        let cap = i64::try_from(shared.config.max_inflight).unwrap_or(i64::MAX);
        if permit.gauge().value() > cap {
            shed(shared, &stream);
            continue;
        }
        match sender.try_send((stream, permit)) {
            Ok(()) => {}
            Err(TrySendError::Full((stream, _permit))) => shed(shared, &stream),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping the sender (by returning) disconnects the channel; the
    // workers finish the queued jobs and exit.
}

/// Reject one connection with `429` + `Retry-After`.
fn shed(shared: &Shared, stream: &TcpStream) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = error_response(
        429,
        "Too Many Requests",
        "server is at its in-flight capacity",
    )
    .with_header("Retry-After", "1".to_owned());
    let _ = response.write_to(&mut &*stream);
    // Closing with the client's request still unread would turn the
    // close into a TCP reset, discarding the 429 before the client can
    // read it. Stop sending, then briefly drain whatever the client
    // already wrote so the response survives the close.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match (&*stream).read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// One worker: drain the queue until the channel disconnects.
fn worker_loop(shared: &Shared, receiver: &Mutex<Receiver<(TcpStream, GaugeGuard)>>, index: usize) {
    loop {
        let job = unpoisoned(receiver).recv();
        let Ok((stream, permit)) = job else {
            break;
        };
        let sequence = shared.sequence.fetch_add(1, Ordering::Relaxed);
        let request_id = usize::try_from(sequence).unwrap_or(usize::MAX);
        handle_connection(shared, index, request_id, &stream);
        drop(permit);
    }
}

/// Serve one connection: read one request, answer it, close.
fn handle_connection(shared: &Shared, worker: usize, request_id: usize, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    let recording = Recording::start();
    let (route, response) = match read_request(&mut reader) {
        Ok(None) => {
            drop(recording);
            return; // peer connected and went away; nothing to answer
        }
        Ok(Some(request)) => {
            let route = route_label(&request);
            (route, handle_request(shared, request_id, &request))
        }
        Err(error) => ("invalid", protocol_error_response(&error)),
    };
    let mut registry = recording.finish();
    registry.counter_add("serve.requests", 1);
    registry.counter_add(&format!("serve.status.{}", response.status), 1);
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    registry.observe_nanos(&format!("serve.route.{route}"), nanos);
    if let Some(slot) = shared.worker_metrics.get(worker) {
        unpoisoned(slot).merge(&registry);
    }
    let _ = response.write_to(&mut &*stream);
}

/// Stable per-route label for the latency histograms.
fn route_label(request: &Request) -> &'static str {
    match request.target.as_str() {
        "/v1/knn" => "knn",
        "/v1/range" => "range",
        "/v1/insert" => "insert",
        "/v1/remove" => "remove",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/admin/drain" => "drain",
        "/admin/compact" => "compact",
        _ => "other",
    }
}

/// Route one well-formed request to its handler.
fn handle_request(shared: &Shared, request_id: usize, request: &Request) -> Response {
    match (request.method, request.target.as_str()) {
        (Method::Get, "/healthz") => health_response(shared),
        (Method::Get, "/metrics") => metrics_response(shared),
        (Method::Post, "/admin/drain") => {
            shared.handle.drain();
            let mut body = envelope();
            body.push_str(",\"draining\":true}");
            Response::json(202, "Accepted", body)
        }
        (Method::Post, "/v1/knn") => query_response(shared, request_id, request, RouteKind::Knn),
        (Method::Post, "/v1/range") => {
            query_response(shared, request_id, request, RouteKind::Range)
        }
        (Method::Post, "/v1/insert") => insert_response(shared, request),
        (Method::Post, "/v1/remove") => remove_response(shared, request),
        (Method::Post, "/admin/compact") => compact_response(shared),
        (
            _,
            "/healthz" | "/metrics" | "/admin/drain" | "/admin/compact" | "/v1/knn" | "/v1/range"
            | "/v1/insert" | "/v1/remove",
        ) => error_response(405, "Method Not Allowed", "wrong method for route"),
        _ => error_response(404, "Not Found", "no such route"),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RouteKind {
    Knn,
    Range,
}

fn health_response(shared: &Shared) -> Response {
    let (objects, writable) = match &shared.snapshot.ingest {
        Some(ingest) => (ingest.len(), true),
        None => (shared.snapshot.database.len(), false),
    };
    let mut body = envelope();
    body.push_str(",\"status\":\"ok\",\"index\":");
    json::write_escaped(&mut body, &shared.snapshot.name);
    body.push_str(&format!(
        ",\"objects\":{objects},\"writable\":{writable},\"workers\":{},\"draining\":{}}}",
        shared.worker_metrics.len(),
        shared.handle.is_draining()
    ));
    Response::json(200, "OK", body)
}

fn metrics_response(shared: &Shared) -> Response {
    let mut merged = MetricsRegistry::new();
    for slot in &shared.worker_metrics {
        let registry = unpoisoned(slot);
        merged.merge(&registry);
    }
    merged.counter_add("serve.shed", shared.shed.load(Ordering::Relaxed));
    shared.inflight.publish(&mut merged);
    Response::json(200, "OK", merged.to_json_string())
}

fn query_response(
    shared: &Shared,
    request_id: usize,
    request: &Request,
    kind: RouteKind,
) -> Response {
    match run_query(shared, request_id, request, kind) {
        Ok(response) => response,
        Err(error) => serve_error_response(&error),
    }
}

/// Parse, validate, execute, render one `/v1/knn` or `/v1/range` call.
fn run_query(
    shared: &Shared,
    request_id: usize,
    request: &Request,
    kind: RouteKind,
) -> Result<Response, ServeError> {
    let object = &parse_body_object(request)?;
    let spec = QuerySpec::from_json(object)?;
    match kind {
        RouteKind::Knn if spec.epsilon.is_some() => {
            return Err(ServeError::BadRequest(
                "`epsilon` belongs on /v1/range".to_owned(),
            ));
        }
        RouteKind::Range if spec.epsilon.is_none() => {
            return Err(ServeError::BadRequest(
                "/v1/range requires `epsilon`".to_owned(),
            ));
        }
        _ => {}
    }
    // The dynamic corpus answers from the ingest layer's current reader
    // snapshot (cloned out, never blocking the writer) and resolves
    // `query_id` in that same snapshot; both corpora answer in the ids
    // their clients hold.
    let (outcome, stats) = if let Some(ingest) = &shared.snapshot.ingest {
        let snapshot = ingest.snapshot();
        let histogram = query_histogram(object, |id| {
            let found = snapshot.as_ref().and_then(|snapshot| snapshot.get(id));
            found
                .cloned()
                .ok_or_else(|| format!("`query_id` {id} names no live object"))
        })?;
        let Some(snapshot) = snapshot else {
            let message = "corpus is empty; insert objects before querying";
            return Ok(error_response(409, "Conflict", message));
        };
        snapshot.run_isolated(&lower(shared, &spec, histogram), request_id)?
    } else {
        let database = &shared.snapshot.database;
        let histogram = query_histogram(object, |id| {
            let found = usize::try_from(id).ok().and_then(|id| database.get(id));
            let objects = database.len();
            found.cloned().ok_or_else(|| {
                format!("`query_id` {id} out of range (corpus holds {objects} objects)")
            })
        })?;
        let query = lower(shared, &spec, histogram);
        shared.snapshot.executor.run_isolated(&query, request_id)?
    };
    Ok(Response::json(200, "OK", outcome_body(&outcome, &stats)))
}

/// Lower a request into the engine [`Query`], attaching the snapshot's
/// fault injector (if any) to its budget.
fn lower(shared: &Shared, spec: &QuerySpec, histogram: Histogram) -> Query {
    let mut query = spec.query_for(histogram);
    if let Some(faults) = &shared.snapshot.faults {
        query.budget = query.budget.with_faults(Arc::clone(faults));
    }
    query
}

/// Resolve the query histogram: `"query_id"` (a corpus object, fetched
/// by `lookup`, whose error is the 400's message) or `"weights"` (an
/// explicit histogram), exactly one of the two.
fn query_histogram(
    object: &std::collections::BTreeMap<String, Value>,
    lookup: impl FnOnce(u64) -> Result<Histogram, String>,
) -> Result<Histogram, ServeError> {
    match (object.get("query_id"), object.get("weights")) {
        (Some(_), Some(_)) => Err(ServeError::BadRequest(
            "specify `query_id` or `weights`, not both".to_owned(),
        )),
        (Some(id), None) => {
            let id = id.as_u64().ok_or_else(|| {
                ServeError::BadRequest("`query_id` must be a non-negative integer".to_owned())
            })?;
            lookup(id).map_err(ServeError::BadRequest)
        }
        (None, Some(weights)) => parse_weights(weights),
        (None, None) => Err(ServeError::BadRequest(
            "specify `query_id` or `weights`".to_owned(),
        )),
    }
}

/// Decode a `weights` JSON array into a validated [`Histogram`].
fn parse_weights(value: &Value) -> Result<Histogram, ServeError> {
    Histogram::from_json(value).map_err(|e| ServeError::BadRequest(format!("bad `weights`: {e}")))
}

/// The 409 returned by write routes on a read-only (static) server.
fn read_only_response() -> Response {
    let message = "server runs a read-only corpus; restart with --writable to enable writes";
    error_response(409, "Conflict", message)
}

/// `POST /v1/insert` — durably ingest one histogram. The `200` is sent
/// only after the WAL record is fsynced and the reader snapshot swapped.
/// A malformed body is the client's 400; a WAL append/fsync failure is
/// the server's 500 (and leaves the write's durability indeterminate —
/// see [`ServeError::Durable`]).
fn insert_response(shared: &Shared, request: &Request) -> Response {
    let Some(ingest) = &shared.snapshot.ingest else {
        return read_only_response();
    };
    let result = (|| -> Result<Response, ServeError> {
        let object = parse_body_object(request)?;
        let Some(weights) = object.get("weights") else {
            return Err(ServeError::BadRequest(
                "insert requires `weights`".to_owned(),
            ));
        };
        let histogram = parse_weights(weights)?;
        let id = ingest.insert(histogram)?;
        let mut body = envelope();
        body.push_str(&format!(
            ",\"id\":{id},\"objects\":{},\"durable\":true}}",
            ingest.len()
        ));
        Ok(Response::json(200, "OK", body))
    })();
    result.unwrap_or_else(|error| serve_error_response(&error))
}

/// `POST /v1/remove` — durably remove one object by external id. Store
/// failures map to 500 exactly like [`insert_response`].
fn remove_response(shared: &Shared, request: &Request) -> Response {
    let Some(ingest) = &shared.snapshot.ingest else {
        return read_only_response();
    };
    let result = (|| -> Result<Response, ServeError> {
        let object = parse_body_object(request)?;
        let id = object.get("id").and_then(Value::as_u64).ok_or_else(|| {
            ServeError::BadRequest("remove requires a non-negative integer `id`".to_owned())
        })?;
        let removed = ingest.remove(id)?;
        let mut body = envelope();
        body.push_str(&format!(
            ",\"removed\":{removed},\"objects\":{}}}",
            ingest.len()
        ));
        Ok(Response::json(200, "OK", body))
    })();
    result.unwrap_or_else(|error| serve_error_response(&error))
}

/// `POST /admin/compact` — fold the WAL into a sealed segment while
/// readers keep answering from their frozen snapshots.
fn compact_response(shared: &Shared) -> Response {
    let Some(ingest) = &shared.snapshot.ingest else {
        return read_only_response();
    };
    match ingest.compact() {
        Ok(report) => {
            let mut body = envelope();
            body.push_str(&format!(
                ",\"epoch\":{},\"objects\":{},\"folded_wal_bytes\":{}}}",
                report.epoch, report.sealed_objects, report.folded_wal_bytes
            ));
            Response::json(200, "OK", body)
        }
        Err(error) => serve_error_response(&error.into()),
    }
}

/// Parse a request body as a JSON object.
fn parse_body_object(
    request: &Request,
) -> Result<std::collections::BTreeMap<String, Value>, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".to_owned()))?;
    match json::parse(text).map_err(ServeError::BadRequest)? {
        Value::Object(object) => Ok(object),
        _ => Err(ServeError::BadRequest(
            "body must be a JSON object".to_owned(),
        )),
    }
}

/// Every JSON body opens `{"schema":"flexemd-serve/v1"`; the caller
/// appends its fields and the closing brace.
fn envelope() -> String {
    let mut body = String::from("{\"schema\":");
    json::write_escaped(&mut body, RESPONSE_SCHEMA);
    body
}

/// Stable machine token for a degraded outcome's reason.
fn reason_token(reason: BudgetReason) -> &'static str {
    match reason {
        BudgetReason::Deadline => "deadline",
        BudgetReason::PivotCap => "pivot_cap",
        BudgetReason::Cancelled => "cancelled",
        BudgetReason::Injected => "injected",
    }
}

fn neighbors_json(out: &mut String, neighbors: &[Neighbor]) {
    out.push('[');
    for (index, neighbor) in neighbors.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":{},\"distance\":", neighbor.id));
        // `write_number` round-trips an f64 exactly, which keeps served
        // distances bit-identical to the direct executor.
        json::write_number(out, neighbor.distance);
        out.push('}');
    }
    out.push(']');
}

/// The success body for both query routes.
fn outcome_body(outcome: &QueryOutcome, stats: &QueryStats) -> String {
    let mut body = envelope();
    match outcome {
        QueryOutcome::Exact(neighbors) => {
            body.push_str(",\"degraded\":false,\"neighbors\":");
            neighbors_json(&mut body, neighbors);
        }
        QueryOutcome::Degraded(result) => {
            body.push_str(&format!(
                ",\"degraded\":true,\"reason\":\"{}\",\"candidates\":[",
                reason_token(result.reason)
            ));
            for (index, candidate) in result.candidates.iter().enumerate() {
                if index > 0 {
                    body.push(',');
                }
                body.push_str(&format!("{{\"id\":{},\"bound\":", candidate.id));
                json::write_number(&mut body, candidate.bound);
                body.push_str(&format!(",\"exact\":{}}}", candidate.exact));
            }
            body.push(']');
        }
    }
    body.push_str(&format!(
        ",\"refinements\":{},\"refinements_cut\":{}}}",
        stats.refinements, stats.refinements_cut
    ));
    body
}

/// A JSON error body: `{"schema":…,"error":"…"}`.
fn error_body(message: &str) -> String {
    let mut body = envelope();
    body.push_str(",\"error\":");
    json::write_escaped(&mut body, message);
    body.push('}');
    body
}

/// A JSON error response.
fn error_response(status: u16, reason: &'static str, message: &str) -> Response {
    Response::json(status, reason, error_body(message))
}

/// Map an HTTP-protocol violation to its response.
fn protocol_error_response(error: &HttpError) -> Response {
    let (status, reason) = error.status();
    error_response(status, reason, &error.to_string())
}

/// Map a handler failure to its response: client mistakes are 4xx,
/// engine failures (including isolated worker panics) are 500.
fn serve_error_response(error: &ServeError) -> Response {
    let (bad, failed) = ((400, "Bad Request"), (500, "Internal Server Error"));
    let ((status, reason), message) = match error {
        ServeError::Http(http) => return protocol_error_response(http),
        ServeError::BadRequest(_) => (bad, error.to_string()),
        ServeError::Query(
            query @ (QueryError::ZeroK | QueryError::InvalidEpsilon(_) | QueryError::Core(_)),
        ) => (bad, query.to_string()),
        ServeError::Query(query) => (failed, query.to_string()),
        ServeError::Durable(disk) => (
            failed,
            format!(
                "durable write failed: {disk}; the write's durability is indeterminate \
                 until the index directory is reopened"
            ),
        ),
        _ => (failed, error.to_string()),
    };
    error_response(status, reason, &message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_tokens_are_stable() {
        assert_eq!(reason_token(BudgetReason::Deadline), "deadline");
        assert_eq!(reason_token(BudgetReason::PivotCap), "pivot_cap");
    }

    #[test]
    fn outcome_body_round_trips_distances() {
        let outcome = QueryOutcome::Exact(vec![Neighbor {
            id: 3,
            distance: 0.1 + 0.2, // a value with a non-trivial decimal tail
        }]);
        let stats = QueryStats::default();
        let body = outcome_body(&outcome, &stats);
        let value = json::parse(&body).expect("valid JSON");
        let object = value.as_object().expect("object");
        let neighbors = object
            .get("neighbors")
            .and_then(Value::as_array)
            .expect("neighbors array");
        let first = neighbors
            .first()
            .and_then(Value::as_object)
            .expect("first neighbor");
        let Some(Value::Number(distance)) = first.get("distance") else {
            panic!("distance must be a number");
        };
        assert_eq!(distance.to_bits(), (0.1_f64 + 0.2).to_bits());
    }

    #[test]
    fn degraded_body_carries_reason_and_bounds() {
        let outcome = QueryOutcome::Degraded(emd_query::DegradedResult {
            candidates: vec![emd_query::Candidate {
                id: 7,
                bound: 1.5,
                exact: false,
            }],
            reason: BudgetReason::PivotCap,
        });
        let body = outcome_body(&outcome, &QueryStats::default());
        assert!(body.contains("\"degraded\":true"));
        assert!(body.contains("\"reason\":\"pivot_cap\""));
        assert!(body.contains("\"id\":7"));
        assert!(body.contains("\"exact\":false"));
    }

    #[test]
    fn error_body_escapes_payload() {
        let body = error_body("a \"quoted\" message");
        assert!(json::parse(&body).is_ok());
    }

    #[test]
    fn serve_errors_map_to_statuses() {
        let bad = serve_error_response(&ServeError::BadRequest("x".into()));
        assert_eq!(bad.status, 400);
        let panic = serve_error_response(&ServeError::Query(QueryError::WorkerPanicked {
            worker: 3,
            detail: "boom".into(),
        }));
        assert_eq!(panic.status, 500);
    }
}
