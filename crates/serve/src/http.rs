//! Event-driven HTTP/1.1 JSON server over `std::net::TcpListener` and
//! the vendored epoll shim — no async runtime: the API surface (a handful
//! of endpoints, JSON bodies) does not need one.
//!
//! | Endpoint            | Method | Body                                     |
//! |---------------------|--------|------------------------------------------|
//! | `/healthz`          | GET    | — → status, uptime, model/workload counts|
//! | `/models`           | GET    | — → registry catalog                     |
//! | `/workloads`        | GET    | — → servable scenarios (workload catalog)|
//! | `/workloads/{name}` | GET    | — → one scenario, `404` when unknown     |
//! | `/predict`          | POST   | [`PredictRequest`] → [`PredictResponse`] |
//! | `/tune`             | POST   | [`TuneHttpRequest`] → [`TuneHttpResponse`] |
//! | `/models/{w}/{k}/artifact` | GET | — → binary `.lamb` artifact bytes (peer replication; never trains) |
//! | `/metrics`          | GET    | — → Prometheus text exposition (`?prefix=` filters families) |
//! | `/metrics.json`     | GET    | — → same snapshot as compact JSON (`?prefix=` too) |
//! | `/metrics/history`  | GET    | — → ring of timestamped metric delta frames |
//! | `/traces`           | GET    | — → recent flight-recorder trace summaries |
//! | `/traces/{id}`      | GET    | — → one trace's retained span tree       |
//!
//! Every served request — including one whose bytes never parse into a
//! request — lands in `lam_requests_total{endpoint,status}`; endpoint
//! labels come from a fixed classification (never the raw path, which a
//! client controls and would be unbounded label cardinality).
//!
//! Concurrency model (see [`crate::reactor`] for the full diagram): one
//! epoll reactor thread owns every socket and the per-connection
//! HTTP/1.1 state machines (incremental parsing, keep-alive, pipelining,
//! idle/slowloris timeouts); `workers` handler threads route requests
//! pulled from a bounded dispatch queue. `/predict` is cache-first: a
//! request whose rows are all cached, or that is already batch-sized, is
//! answered on its handler thread; a small request with a cache miss
//! submits its rows to a shared [`BatchScheduler`] that coalesces
//! micro-batches *across connections*, completing responses back through
//! the reactor. Both queues shed with `503` + `retry-after` instead of
//! growing without bound, and shutdown drains in-flight requests.

use crate::persist::ModelKind;
use crate::proto::ParsedRequest;
use crate::reactor::{Job, JobQueue, Reactor, ReactorConfig, ReactorShared, Responder};
use crate::registry::{LoadedModel, ModelKey, ModelRegistry};
use crate::workload::WorkloadId;
use crate::ServeError;
use lam_core::batch::{BatchScheduler, BatchTarget, SchedulerOptions};
use lam_obs::expose::PROMETHEUS_CONTENT_TYPE;
use lam_obs::recorder::SpanStatus;
use lam_obs::trace::TraceContext;
use lam_obs::{Counter, Gauge, Histogram, PhaseSet, SpanRecord, SpanTimer};
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `/predict` request body. `version` defaults to 1 when absent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Workload name (e.g. `fmm-small`).
    pub workload: String,
    /// Model kind (e.g. `hybrid`).
    pub kind: String,
    /// Artifact version; `None` means 1.
    pub version: Option<u32>,
    /// Feature rows to predict, answered in order.
    pub rows: Vec<Vec<f64>>,
}

/// `/predict` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// The model that answered, as `workload/kind/vN`.
    pub model: String,
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// Rows answered from the prediction cache.
    pub cache_hits: u64,
    /// Server-side handling time, microseconds.
    pub micros: u64,
}

/// `/healthz` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can respond at all.
    pub status: String,
    /// Crate version serving this process (`lam_build_info`'s `version`
    /// label, surfaced here so probes need not parse the exposition).
    pub version: String,
    /// Build profile: `debug` or `release`.
    pub profile: String,
    /// Wall-clock server start time, RFC 3339 (UTC).
    pub started_at: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Seconds since the server started (same clock as `uptime_ms`, for
    /// smoke tests that think in seconds).
    pub uptime_s: f64,
    /// Models memoized in the registry.
    pub models_loaded: usize,
    /// Entries in the workload catalog — lets smoke tests assert the
    /// catalog was populated without a second request.
    pub workloads: usize,
    /// Requests served process-wide (every endpoint and status class) —
    /// the `lam_requests_total` total, surfaced here so a health probe
    /// sees traffic without parsing the exposition format.
    pub requests_total: u64,
    /// Prediction-cache hits / (hits + misses), process-wide; `0.0`
    /// before the first lookup.
    pub cache_hit_ratio: f64,
}

/// One `/models` catalog row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Workload name.
    pub workload: String,
    /// Model kind.
    pub kind: String,
    /// Artifact version.
    pub version: u32,
    /// Loaded into memory in this process.
    pub loaded: bool,
    /// Artifact path.
    pub path: String,
}

/// `/models` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Catalog rows, sorted by key.
    pub models: Vec<ModelEntry>,
}

/// One `/workloads` row: a servable scenario's schema, straight from the
/// workload catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadInfo {
    /// Stable scenario name (`/predict`'s `workload` field).
    pub name: String,
    /// Feature-column names, in request-row order.
    pub feature_names: Vec<String>,
    /// Feature count request rows must match.
    pub n_features: usize,
    /// Number of configurations in the scenario's space.
    pub space_size: usize,
}

/// `/workloads` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadsResponse {
    /// Servable scenarios, in catalog registration order.
    pub workloads: Vec<WorkloadInfo>,
}

/// `/tune` request body: ask the autotuner what configuration to run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneHttpRequest {
    /// Workload to tune (a catalog name, e.g. `stencil-grid`).
    pub workload: String,
    /// Search strategy: `exhaustive`, `random`, `local`, `halving`, or
    /// `active` (the in-loop-refitting active learner).
    pub strategy: String,
    /// Oracle-evaluation budget the strategy may spend.
    pub budget: usize,
    /// Model kind guiding the search (e.g. `hybrid`); `None` means
    /// hybrid. Ignored by `active`, which refits its own hybrid in-loop.
    pub kind: Option<String>,
    /// Ranked configurations to return; `None` means 5.
    pub top_k: Option<usize>,
    /// Search seed; `None` means 0 (responses are deterministic per seed).
    pub seed: Option<u64>,
    /// Artifact version of the guiding model; `None` means 1.
    pub version: Option<u32>,
}

/// `/tune` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneHttpResponse {
    /// The guiding model, as `workload/kind/vN` — `None` for `active`,
    /// which refits in-loop instead of consulting the registry.
    pub model: Option<String>,
    /// The tuning result: recommendation, ranked configurations with
    /// predicted (and, where measured, oracle) times, budget accounting,
    /// trajectory, and regret when the full dataset was already memoized.
    pub report: lam_tune::TuneReport,
    /// Server-side handling time, microseconds.
    pub micros: u64,
}

/// Error response body (any non-2xx status).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable diagnostic.
    pub error: String,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Handler threads draining the reactor's dispatch queue.
    pub workers: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body: 8 << 20,
        }
    }
}

/// Full event-driven server configuration: the [`ServerOptions`] core
/// plus the reactor, queueing, and batching knobs. [`start`] uses the
/// defaults; [`start_with`] takes this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, handler-thread count, and body cap.
    pub opts: ServerOptions,
    /// Open-connection cap; accepts beyond it are answered 503 + close.
    pub max_connections: usize,
    /// Close a connection with no request in progress after this long.
    pub idle_timeout: Duration,
    /// Close a connection stalled mid-request (slowloris) with a 408
    /// after this long without a byte.
    pub header_timeout: Duration,
    /// In-flight pipelined requests per connection before the reactor
    /// stops reading from it (backpressure, not an error).
    pub pipeline_depth: usize,
    /// Dispatch-queue depth between the reactor and the handler pool;
    /// beyond it requests shed with 503 + `retry-after`.
    pub dispatch_queue: usize,
    /// How long graceful shutdown waits for in-flight requests before
    /// force-closing.
    pub drain_deadline: Duration,
    /// `retry-after` seconds on shed responses.
    pub retry_after_secs: u32,
    /// Cross-connection micro-batching knobs (flush size/deadline, row
    /// budget, executor threads).
    pub batch: SchedulerOptions,
    /// Requests with at least this many rows skip the coalescing
    /// scheduler and predict directly on the handler thread — they are
    /// already a full micro-batch, so queueing them buys nothing.
    /// Smaller requests are answered on the handler thread too when every
    /// row is cached; only those with a miss are coalesced.
    pub direct_batch_rows: usize,
}

impl ServeConfig {
    /// Event-driven defaults around the given compatible core options.
    pub fn new(opts: ServerOptions) -> Self {
        Self {
            opts,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            header_timeout: Duration::from_secs(10),
            pipeline_depth: 32,
            dispatch_queue: 256,
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            batch: SchedulerOptions::default(),
            direct_batch_rows: lam_core::batch::DEFAULT_MICRO_BATCH,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new(ServerOptions::default())
    }
}

/// A running server; dropping the handle leaves it running, call
/// [`ServerHandle::stop`] for a clean shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
    queue: Arc<JobQueue>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    /// `None` for engines whose handler does not micro-batch (the
    /// cluster gateway schedules nothing, it forwards).
    scheduler: Option<Arc<BatchScheduler>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// (up to the configured drain deadline), then join every thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        let _ = self.reactor.join();
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        // Last-reference drop drains and joins the batch executors (the
        // queue and workers holding hints/clones are gone by now).
        drop(self.scheduler);
    }
}

/// The server's birth time on both clocks: monotonic (`started`, drives
/// uptime) and wall (`started_at`, pre-formatted RFC 3339 so `/healthz`
/// never formats a timestamp per request).
struct ServerClock {
    started: Instant,
    started_at: Arc<str>,
}

/// Start serving `registry` per `opts` with default event-driven
/// settings. Returns once the listener is bound; serving happens on the
/// reactor + handler threads.
pub fn start(
    registry: Arc<ModelRegistry>,
    opts: ServerOptions,
) -> Result<ServerHandle, ServeError> {
    start_with(registry, ServeConfig::new(opts))
}

/// Start serving `registry` with full control over the event-driven
/// knobs. Returns once the listener is bound.
pub fn start_with(
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
) -> Result<ServerHandle, ServeError> {
    let clock = ServerClock {
        started: Instant::now(),
        started_at: lam_obs::time::rfc3339(std::time::SystemTime::now()).into(),
    };
    let scheduler = Arc::new(BatchScheduler::new(cfg.batch.clone()));
    let ctx = Arc::new(HandlerCtx {
        registry,
        clock,
        scheduler: Arc::clone(&scheduler),
        retry_after_secs: cfg.retry_after_secs,
        direct_batch_rows: cfg.direct_batch_rows.max(1),
    });
    start_engine(
        &cfg,
        Some(scheduler),
        Arc::new(move |job| handle_job(job, &ctx)),
    )
}

/// The reusable event-driven server core: bind, spin up the reactor and
/// a handler pool draining the dispatch queue into `handler`. The
/// model-serving server ([`start_with`]) and the cluster gateway
/// ([`crate::cluster`]) differ only in the handler (and in whether a
/// [`BatchScheduler`] hints the queue).
pub(crate) fn start_engine(
    cfg: &ServeConfig,
    scheduler: Option<Arc<BatchScheduler>>,
    handler: Arc<dyn Fn(Job) + Send + Sync>,
) -> Result<ServerHandle, ServeError> {
    register_build_info();
    lam_obs::history::start_snapshotter(lam_obs::history::DEFAULT_INTERVAL);
    let listener = TcpListener::bind(&cfg.opts.addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let queue = JobQueue::new(cfg.dispatch_queue);
    if let Some(scheduler) = &scheduler {
        queue.set_hint_source(Arc::clone(scheduler));
    }
    let shared = ReactorShared::new()?;
    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            max_body: cfg.opts.max_body,
            max_connections: cfg.max_connections,
            idle_timeout: cfg.idle_timeout,
            header_timeout: cfg.header_timeout,
            pipeline_depth: cfg.pipeline_depth.max(1),
            drain_deadline: cfg.drain_deadline,
            retry_after_secs: cfg.retry_after_secs,
        },
        Arc::clone(&queue),
        Arc::clone(&shared),
        Arc::clone(&stop),
    )?;
    let reactor = std::thread::spawn(move || reactor.run());
    let workers = (0..cfg.opts.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    handler(job);
                }
            })
        })
        .collect();
    Ok(ServerHandle {
        local_addr,
        stop,
        shared,
        queue,
        reactor,
        workers,
        scheduler,
    })
}

/// Crate version baked into `/healthz` and `lam_build_info`.
pub(crate) const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Build profile baked into `/healthz` and `lam_build_info`.
pub(crate) const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Register `lam_build_info{version,profile} 1` — a constant-1 gauge
/// whose labels carry the build facts, so any scrape can join "which
/// build produced these numbers" onto every other series.
pub(crate) fn register_build_info() {
    lam_obs::global()
        .gauge(
            "lam_build_info",
            "Build metadata; the value is always 1, the facts are the labels.",
            &[("version", BUILD_VERSION), ("profile", BUILD_PROFILE)],
        )
        .set(1);
}

/// Everything a handler thread needs to serve one request.
struct HandlerCtx {
    registry: Arc<ModelRegistry>,
    clock: ServerClock,
    scheduler: Arc<BatchScheduler>,
    retry_after_secs: u32,
    direct_batch_rows: usize,
}

/// Serve one dispatched request on a handler thread, by the endpoint it
/// classifies as (so `POST /predict?x=1` is `/predict` like any other).
/// Most endpoints compute synchronously and answer through the
/// responder; small `/predict` requests with a cache miss go
/// asynchronous through the batch scheduler, and their accounting +
/// response happen in the completion.
fn handle_job(job: Job, ctx: &HandlerCtx) {
    let Job {
        req,
        responder,
        hint,
    } = job;
    let in_flight = http_metrics().in_flight.track();
    let started = lam_obs::enabled().then(Instant::now);
    let endpoint = endpoint_index(&req.method, &req.path);
    match (req.method.as_str(), ENDPOINTS[endpoint]) {
        ("POST", "predict") => handle_predict(req, responder, ctx, hint, started, endpoint),
        // The artifact body is binary, so it bypasses the String-bodied
        // route() and answers through the byte responder.
        (_, "model-artifact") => {
            drop(hint);
            let (status, content_type, body) = artifact(&req.path, &ctx.registry);
            account_request(endpoint, status, started);
            responder.send_bytes(status, content_type, body, None);
        }
        _ => {
            // No rows will be submitted from this request: release the
            // scheduler's producer hint before potentially slow work
            // (/tune) so co-batchable traffic is not held waiting on it.
            drop(hint);
            let (status, content_type, body) = route(&req, &ctx.registry, &ctx.clock);
            account_request(endpoint, status, started);
            responder.send(status, content_type, body, None);
        }
    }
    drop(in_flight);
}

/// Close out one request's accounting: status-class counter + duration.
pub(crate) fn account_request(endpoint: usize, status: u16, started: Option<Instant>) {
    let metrics = http_metrics();
    metrics.requests[endpoint][status_class_index(status)].inc();
    if let Some(started) = started {
        metrics.duration[endpoint].record(started.elapsed().as_nanos() as u64);
    }
}

/// Child-derivation sequence numbers under a `serve.request` span. Kept
/// distinct across modules so sibling spans never collide:
/// [`crate::registry`] uses `CHILD_RESOLVE` for its `registry.resolve`
/// span via the thread-local context.
const CHILD_QUEUE: u64 = 1;
const CHILD_PREDICT: u64 = 2;
pub(crate) const CHILD_RESOLVE: u64 = 3;

/// One `/predict` request's tracing state: the `serve.request` span in
/// progress. `None` when observability is disabled — the hot-path cost
/// is then exactly the one relaxed load in [`lam_obs::enabled`].
#[derive(Clone, Copy)]
struct RequestTrace {
    ctx: TraceContext,
    parent_id: u64,
    started: Instant,
}

impl RequestTrace {
    /// Begin the `serve.request` span: continue the caller's
    /// `x-lam-trace` context as a child span (the gateway's scatter leg
    /// becomes the parent), or mint a fresh root when the request
    /// arrived untraced.
    fn begin(req: &ParsedRequest, started: Instant) -> Option<Self> {
        if !lam_obs::enabled() {
            return None;
        }
        let (ctx, parent_id) = match req.trace.as_deref().and_then(TraceContext::parse) {
            Some(parent) => (parent.child(0), parent.span_id),
            None => (TraceContext::root(), 0),
        };
        Some(Self {
            ctx,
            parent_id,
            started,
        })
    }

    /// Close the `serve.request` span with its HTTP outcome.
    fn finish(self, status_code: u16, rows: usize) {
        let status = match status_code {
            503 => SpanStatus::Shed,
            s if s >= 400 => SpanStatus::Error,
            _ => SpanStatus::Ok,
        };
        lam_obs::recorder::global().record(
            SpanRecord::finish(
                &self.ctx,
                self.parent_id,
                "serve.request",
                self.started,
                status,
            )
            .annotate("rows", rows.to_string())
            .annotate("http_status", status_code.to_string()),
        );
    }

    /// Record one completed child span under `serve.request`.
    fn record_child(&self, seq: u64, name: &'static str, started: Instant, rows: usize) {
        lam_obs::recorder::global().record(
            SpanRecord::finish(
                &self.ctx.child(seq),
                self.ctx.span_id,
                name,
                started,
                SpanStatus::Ok,
            )
            .annotate("rows", rows.to_string()),
        );
    }
}

/// The `/predict` path of the event-driven server. Parse, validate, and
/// resolve run here on the handler thread (errors answer immediately).
/// Dispatch is cache-first: a small request whose rows are all cached is
/// answered right here, and so is an already-batch-sized one (coalescing
/// either buys nothing). Only small requests with a cache miss submit to
/// the cross-connection [`BatchScheduler`] and finish in its completion.
fn handle_predict(
    req: ParsedRequest,
    responder: Responder,
    ctx: &HandlerCtx,
    hint: Option<lam_core::batch::ProducerGuard>,
    started: Option<Instant>,
    endpoint: usize,
) {
    let start = Instant::now();
    let mut reply = PredictReply {
        trace: RequestTrace::begin(&req, start),
        span: predict_phases().start(),
        start,
        started,
        endpoint,
        rows: 0,
        responder,
    };
    // Deep call sites (registry resolution) pick the context up from the
    // thread-local instead of threading it through every signature.
    let trace_scope = reply.trace.map(|t| lam_obs::trace::set_scoped(t.ctx));
    let plan = match plan_predict(&req.body, &ctx.registry, &mut reply.span) {
        Ok(plan) => plan,
        Err((status, error)) => {
            drop(hint);
            reply.finish(status, error_body(&error), None);
            return;
        }
    };
    drop(trace_scope);
    reply.rows = plan.rows.len();
    let predict_started = Instant::now();
    let on_handler = if reply.rows >= ctx.direct_batch_rows {
        Some(plan.model.predict_checked(&plan.rows))
    } else {
        plan.model.engine().predict_if_cached(&plan.rows).map(Ok)
    };
    if let Some(result) = on_handler {
        drop(hint);
        match result {
            Ok(outcome) => reply.send(
                plan.key,
                outcome.predictions,
                outcome.cache_hits,
                (CHILD_PREDICT, "serve.predict", predict_started),
            ),
            Err(e) => reply.finish(400, error_body(&e.to_string()), None),
        }
        return;
    }
    let permit = match ctx.scheduler.try_reserve(reply.rows) {
        Ok(permit) => permit,
        Err(e) => {
            drop(hint);
            reply.finish(
                503,
                error_body(&format!("server overloaded: {e}")),
                Some(ctx.retry_after_secs),
            );
            return;
        }
    };
    let target: Arc<dyn BatchTarget> = plan.model;
    let queued_at = Instant::now();
    permit.submit(
        target,
        plan.rows,
        Box::new(move |outcome| {
            // Submit → completion: queue wait plus the shared batch
            // execution, the cost of coalescing this request.
            reply.send(
                plan.key,
                outcome.predictions,
                outcome.cache_hits,
                (CHILD_QUEUE, "serve.queue", queued_at),
            );
        }),
    );
    // The submission is queued: only now may the producer hint drop
    // (releasing it earlier could flush a batch this request would have
    // joined).
    drop(hint);
}

/// One `/predict` request past its arrival: everything its response
/// needs, whichever path (handler thread or scheduler completion) ends up
/// answering it.
struct PredictReply {
    trace: Option<RequestTrace>,
    span: SpanTimer<'static>,
    /// Handler entry, for the response's `micros`.
    start: Instant,
    /// Dispatch entry when recording is on, for the request histogram.
    started: Option<Instant>,
    endpoint: usize,
    rows: usize,
    responder: Responder,
}

impl PredictReply {
    /// Answer with predictions: record the trace child `(seq, name,
    /// started)` that produced them, serialize, then [`Self::finish`].
    fn send(
        mut self,
        key: ModelKey,
        predictions: Vec<f64>,
        cache_hits: u64,
        child: (u64, &'static str, Instant),
    ) {
        if let Some(t) = &self.trace {
            t.record_child(child.0, child.1, child.2, self.rows);
        }
        self.span.mark("predict");
        let body = serde_json::to_string(&PredictResponse {
            model: key.to_string(),
            predictions,
            cache_hits,
            micros: self.start.elapsed().as_micros() as u64,
        });
        self.span.mark("serialize");
        match body {
            Ok(body) => self.finish(200, body, None),
            Err(e) => self.finish(500, error_body(&e.to_string()), None),
        }
    }

    /// Close the `serve.request` span, account the request, and send.
    fn finish(self, status: u16, body: String, retry_after: Option<u32>) {
        if let Some(t) = self.trace {
            t.finish(status, self.rows);
        }
        account_request(self.endpoint, status, self.started);
        self.responder
            .send(status, JSON_CONTENT_TYPE, body, retry_after);
    }
}

/// Endpoint labels for request metrics — a fixed classification, because
/// the raw path is client-controlled and would be unbounded cardinality.
/// `malformed` is the endpoint of a request whose bytes never parsed into
/// a request at all; `other` is any routed-but-unknown method/path.
const ENDPOINTS: [&str; 14] = [
    "healthz",
    "models",
    "model-artifact",
    "workloads",
    "workload-detail",
    "predict",
    "tune",
    "metrics",
    "metrics-json",
    "metrics-history",
    "traces",
    "traces-detail",
    "malformed",
    "other",
];

/// Status-class labels, indexed by [`status_class_index`].
const STATUS_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Pre-resolved handles for per-request accounting: one counter per
/// `(endpoint, status class)`, one latency histogram per endpoint, one
/// in-flight gauge. Interned once; the per-request cost is a relaxed
/// `fetch_add` or three, never a registry lock.
pub(crate) struct HttpMetrics {
    pub(crate) requests: Vec<[Arc<Counter>; 3]>,
    pub(crate) duration: Vec<Arc<Histogram>>,
    pub(crate) in_flight: Arc<Gauge>,
}

pub(crate) fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lam_obs::global();
        HttpMetrics {
            requests: ENDPOINTS
                .iter()
                .map(|&endpoint| {
                    std::array::from_fn(|class| {
                        reg.counter(
                            "lam_requests_total",
                            "HTTP requests served, by endpoint and status class.",
                            &[("endpoint", endpoint), ("status", STATUS_CLASSES[class])],
                        )
                    })
                })
                .collect(),
            duration: ENDPOINTS
                .iter()
                .map(|&endpoint| {
                    reg.histogram(
                        "lam_request_duration_ns",
                        "Server-side request handling time, nanoseconds.",
                        &[("endpoint", endpoint)],
                    )
                })
                .collect(),
            in_flight: reg.gauge(
                "lam_requests_in_flight",
                "Requests currently being handled.",
                &[],
            ),
        }
    })
}

/// Index into [`ENDPOINTS`] for a parsed request. The query string never
/// selects the endpoint (`/metrics?prefix=x` is still `metrics`), so
/// classification strips it up front.
pub(crate) fn endpoint_index(method: &str, path: &str) -> usize {
    let bare = path.split_once('?').map_or(path, |(p, _)| p);
    let name = match (method, bare) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/models") => "models",
        ("GET", p) if parse_artifact_path(p).is_some() => "model-artifact",
        ("GET", "/workloads") => "workloads",
        ("GET", p) if p.starts_with("/workloads/") => "workload-detail",
        (_, "/predict") => "predict",
        (_, "/tune") => "tune",
        ("GET", "/metrics") => "metrics",
        ("GET", "/metrics.json") => "metrics-json",
        ("GET", "/metrics/history") => "metrics-history",
        ("GET", "/traces") => "traces",
        ("GET", p) if p.starts_with("/traces/") => "traces-detail",
        _ => "other",
    };
    ENDPOINTS
        .iter()
        .position(|&e| e == name)
        .expect("every classification name is in ENDPOINTS")
}

/// Index into [`STATUS_CLASSES`]. The server never emits 1xx/3xx, so
/// everything below 400 is success and everything from 500 up is 5xx.
pub(crate) fn status_class_index(status: u16) -> usize {
    match status {
        0..=399 => 0,
        400..=499 => 1,
        _ => 2,
    }
}

/// `content-type` of every JSON response.
pub(crate) const JSON_CONTENT_TYPE: &str = "application/json";

/// Serialize an [`ErrorResponse`] body for `msg`.
pub(crate) fn error_body(msg: &str) -> String {
    serde_json::to_string(&ErrorResponse {
        error: msg.to_string(),
    })
    .unwrap_or_else(|_| "{}".to_string())
}

/// Account a request whose bytes never parsed into a request (or that
/// timed out mid-headers): a response is still served, so it must land
/// in the same status-class accounting as routed requests — otherwise a
/// garbage request is indistinguishable from no request.
pub(crate) fn account_malformed(status: u16) {
    let malformed = ENDPOINTS
        .iter()
        .position(|&e| e == "malformed")
        .expect("malformed is in ENDPOINTS");
    http_metrics().requests[malformed][status_class_index(status)].inc();
}

/// Account a parsed-but-shed request (dispatch queue full or connection
/// limit hit before a handler ever saw it). The 503 lands under the
/// request's real endpoint so shed load is attributable per route; no
/// duration is recorded because no handling happened.
pub(crate) fn account_shed(req: &ParsedRequest) {
    let endpoint = endpoint_index(&req.method, &req.path);
    http_metrics().requests[endpoint][status_class_index(503)].inc();
    // A shed is exactly what the flight recorder's tail sampling always
    // keeps, so the refusal leaves a span even though no handler ran.
    if let Some(t) = RequestTrace::begin(req, Instant::now()) {
        t.finish(503, 0);
    }
}

/// Answer every endpoint but `POST /predict` and the artifact download
/// (see [`handle_job`]); returns `(status, content-type, body)`.
fn route(
    req: &ParsedRequest,
    registry: &Arc<ModelRegistry>,
    clock: &ServerClock,
) -> (u16, &'static str, String) {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    // The observability endpoints render their formats directly (the
    // Prometheus one is not JSON), so they bypass the JSON route plumbing.
    match (req.method.as_str(), path) {
        ("GET", "/metrics") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            return (
                200,
                PROMETHEUS_CONTENT_TYPE,
                lam_obs::expose::render_prometheus(&snap),
            );
        }
        ("GET", "/metrics.json") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            return (200, JSON_CONTENT_TYPE, lam_obs::expose::render_json(&snap));
        }
        ("GET", "/metrics/history") => {
            return (
                200,
                JSON_CONTENT_TYPE,
                lam_obs::history::global().render_json(),
            );
        }
        ("GET", "/traces") => {
            let records = lam_obs::recorder::global().iter_records();
            return (
                200,
                JSON_CONTENT_TYPE,
                lam_obs::recorder::render_recent_json(&records, RECENT_TRACES_LIMIT),
            );
        }
        ("GET", p) if p.starts_with("/traces/") => {
            return trace_detail(&p["/traces/".len()..]);
        }
        _ => {}
    }
    let result = match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(registry, clock),
        ("GET", "/models") => models(registry),
        ("GET", "/workloads") => workloads(),
        ("GET", path) if path.starts_with("/workloads/") => {
            workload_detail(&path["/workloads/".len()..])
        }
        ("POST", "/tune") => tune(req, registry),
        ("GET", "/predict") => Err((405, "use POST for /predict".to_string())),
        ("GET", "/tune") => Err((405, "use POST for /tune".to_string())),
        _ => Err((404, format!("no route for {} {}", req.method, req.path))),
    };
    match result {
        Ok(body) => (200, JSON_CONTENT_TYPE, body),
        Err((status, error)) => (
            status,
            JSON_CONTENT_TYPE,
            serde_json::to_string(&ErrorResponse { error }).unwrap_or_else(|_| "{}".to_string()),
        ),
    }
}

/// Most traces a `/traces` summary listing returns.
pub(crate) const RECENT_TRACES_LIMIT: usize = 50;

/// The raw value of `name` in an HTTP query string (`a=1&b=2`); empty
/// when absent. No percent-decoding — the consumers are the metric-name
/// prefix filter and similar identifier-shaped values.
pub(crate) fn query_param<'a>(query: &'a str, name: &str) -> &'a str {
    query
        .split('&')
        .find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
        .unwrap_or("")
}

/// Serve `GET /traces/{id}`: every span of one trace this process
/// retained, ordered by start time. (The cluster gateway wraps this with
/// a cross-process merge; see [`crate::cluster`].)
fn trace_detail(segment: &str) -> (u16, &'static str, String) {
    let Some(trace_id) = lam_obs::trace::parse_trace_id(segment) else {
        return (
            400,
            JSON_CONTENT_TYPE,
            error_body("trace id must be 32 hex digits"),
        );
    };
    let spans = lam_obs::recorder::global().find_trace(trace_id);
    if spans.is_empty() {
        return (
            404,
            JSON_CONTENT_TYPE,
            error_body(&format!("no retained spans for trace {segment}")),
        );
    }
    let json: Vec<String> = spans.iter().map(|s| s.to_json()).collect();
    (
        200,
        JSON_CONTENT_TYPE,
        lam_obs::recorder::render_trace_json(trace_id, &json),
    )
}

type RouteResult = Result<String, (u16, String)>;

fn json_ok<T: serde::Serialize>(value: &T) -> RouteResult {
    serde_json::to_string(value).map_err(|e| (500, e.to_string()))
}

fn healthz(registry: &Arc<ModelRegistry>, clock: &ServerClock) -> RouteResult {
    crate::workload::ensure_builtin_workloads();
    let uptime = clock.started.elapsed();
    let obs = lam_obs::global();
    let hits = obs.counter_total("lam_cache_hits_total");
    let lookups = hits + obs.counter_total("lam_cache_misses_total");
    json_ok(&HealthResponse {
        status: "ok".to_string(),
        version: BUILD_VERSION.to_string(),
        profile: BUILD_PROFILE.to_string(),
        started_at: clock.started_at.to_string(),
        uptime_ms: uptime.as_millis() as u64,
        uptime_s: uptime.as_secs_f64(),
        models_loaded: registry.loaded_count(),
        workloads: lam_core::catalog::WorkloadCatalog::global().len(),
        requests_total: obs.counter_total("lam_requests_total"),
        cache_hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    })
}

fn models(registry: &Arc<ModelRegistry>) -> RouteResult {
    let catalog = registry.catalog().map_err(|e| (500, e.to_string()))?;
    json_ok(&ModelsResponse {
        models: catalog
            .into_iter()
            .map(|e| ModelEntry {
                workload: e.key.workload.to_string(),
                kind: e.key.kind.to_string(),
                version: e.key.version,
                loaded: e.loaded,
                path: e.path.display().to_string(),
            })
            .collect(),
    })
}

fn workload_info(entry: &lam_core::catalog::WorkloadEntry) -> WorkloadInfo {
    WorkloadInfo {
        name: entry.name().to_string(),
        feature_names: entry.workload().feature_names(),
        n_features: entry.n_features(),
        space_size: entry.workload().space_size(),
    }
}

fn workloads() -> RouteResult {
    // One locked read of the catalog for the whole listing.
    crate::workload::ensure_builtin_workloads();
    json_ok(&WorkloadsResponse {
        workloads: lam_core::catalog::WorkloadCatalog::global()
            .entries()
            .iter()
            .map(|entry| workload_info(entry))
            .collect(),
    })
}

fn workload_detail(name: &str) -> RouteResult {
    let id = WorkloadId::get(name).map_err(|e| (404, e.to_string()))?;
    json_ok(&workload_info(&id.entry()))
}

/// `content-type` of binary model artifacts.
pub(crate) const LAMB_CONTENT_TYPE: &str = "application/octet-stream";

/// Split `/models/{workload}/{kind}/artifact[?version=N]` into its raw
/// parts; `None` when the path is not artifact-shaped (it then falls
/// through to normal routing and 404s there).
pub(crate) fn parse_artifact_path(path: &str) -> Option<(&str, &str, Option<&str>)> {
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path, None),
    };
    let rest = path.strip_prefix("/models/")?;
    let rest = rest.strip_suffix("/artifact")?;
    let (workload, kind) = rest.split_once('/')?;
    if workload.is_empty() || kind.is_empty() || kind.contains('/') {
        return None;
    }
    let version = match query {
        Some(q) => Some(q.strip_prefix("version=")?),
        None => None,
    };
    Some((workload, kind, version))
}

/// Serve `GET /models/{workload}/{kind}/artifact`: the binary `.lamb`
/// bytes of an artifact this backend already has — and *only* already
/// has. The endpoint never trains; peers replicating a missing model
/// must not be able to stampede this process into training on their
/// behalf (the requester trains exactly once if every peer 404s).
fn artifact(path: &str, registry: &Arc<ModelRegistry>) -> (u16, &'static str, Vec<u8>) {
    match artifact_inner(path, registry) {
        Ok(bytes) => (200, LAMB_CONTENT_TYPE, bytes),
        Err((status, msg)) => (status, JSON_CONTENT_TYPE, error_body(&msg).into_bytes()),
    }
}

fn artifact_inner(path: &str, registry: &Arc<ModelRegistry>) -> Result<Vec<u8>, (u16, String)> {
    let (workload, kind, version) =
        parse_artifact_path(path).ok_or_else(|| (404, format!("no route for GET {path}")))?;
    let workload: WorkloadId = workload
        .parse()
        .map_err(|e: ServeError| (404, e.to_string()))?;
    let kind: ModelKind = kind.parse().map_err(|e: ServeError| (404, e.to_string()))?;
    let version: u32 = match version {
        Some(v) => v
            .parse()
            .map_err(|_| (400, format!("unparseable version `{v}`")))?,
        None => 1,
    };
    if !(1..=MAX_SERVED_VERSION).contains(&version) {
        return Err((
            400,
            format!("version {version} outside 1..={MAX_SERVED_VERSION}"),
        ));
    }
    let key = ModelKey::new(workload, kind, version);
    match registry.artifact_bytes(key) {
        Ok(Some(bytes)) => Ok(bytes),
        Ok(None) => Err((404, format!("no artifact for {key} on this backend"))),
        Err(e) => Err((500, e.to_string())),
    }
}

/// Highest artifact version `/predict` resolves. Resolution can train on
/// miss (that is the registry's contract), so the remotely reachable key
/// space must be finite: workloads × kinds × versions, not an arbitrary
/// `u32` a client can sweep to force unbounded training, disk artifacts,
/// and memo growth.
pub const MAX_SERVED_VERSION: u32 = 32;

/// Phase histograms decomposing `/predict` handling; a [`SpanTimer`]
/// from this set walks each request through parse → validate → resolve →
/// predict → serialize, so `/metrics` answers *where* predict latency
/// goes, not just how much there is.
fn predict_phases() -> &'static PhaseSet {
    static PHASES: OnceLock<PhaseSet> = OnceLock::new();
    PHASES.get_or_init(|| {
        PhaseSet::register(
            lam_obs::global(),
            "lam_phase_duration_ns",
            "Time spent in each handling phase, nanoseconds.",
            &[("endpoint", "predict")],
            &["parse", "validate", "resolve", "predict", "serialize"],
        )
    })
}

/// A validated, resolved `/predict` request, ready to execute: either
/// inline (large batches, all-cached rows) or via the cross-connection
/// batch scheduler.
struct PredictPlan {
    key: ModelKey,
    model: Arc<LoadedModel>,
    rows: Vec<Vec<f64>>,
}

/// The parse → validate → resolve front half of [`handle_predict`].
/// Marks the phases it completes on `span`.
fn plan_predict(
    body: &[u8],
    registry: &Arc<ModelRegistry>,
    span: &mut SpanTimer<'static>,
) -> Result<PredictPlan, (u16, String)> {
    let body = std::str::from_utf8(body).map_err(|_| (400, "body is not utf-8".to_string()))?;
    let parsed: PredictRequest = serde_json::from_str(body).map_err(|e| (400, e.to_string()))?;
    span.mark("parse");
    let workload: WorkloadId = parsed.workload.parse().map_err(bad_request)?;
    let kind = parsed.kind.parse().map_err(bad_request)?;
    let version = parsed.version.unwrap_or(1);
    if !(1..=MAX_SERVED_VERSION).contains(&version) {
        return Err((
            400,
            format!("version {version} outside 1..={MAX_SERVED_VERSION}"),
        ));
    }
    // Reject wrong-arity and non-finite rows before any model dispatch:
    // a bad request must not trigger train-on-miss, and a NaN/infinity
    // must never reach the cache or a k-NN distance sort (which would
    // panic the handler thread).
    crate::batch::validate_rows(workload.n_features(), &parsed.rows).map_err(bad_request)?;
    span.mark("validate");
    let key = ModelKey::new(workload, kind, version);
    let model = registry.get(key).map_err(|e| (500, e.to_string()))?;
    span.mark("resolve");
    Ok(PredictPlan {
        key,
        model,
        rows: parsed.rows,
    })
}

fn bad_request(e: ServeError) -> (u16, String) {
    (400, e.to_string())
}

/// Largest `/tune` budget a client may request. Oracle evaluations run
/// server-side, so the remotely reachable work per request must be
/// finite — the built-in spaces top out near 2k configurations anyway.
pub const MAX_TUNE_BUDGET: usize = 4096;

/// Largest `/tune` `top_k` (bounds the response body).
pub const MAX_TUNE_TOP_K: usize = 100;

fn tune(req: &ParsedRequest, registry: &Arc<ModelRegistry>) -> RouteResult {
    let start = Instant::now();
    let body =
        std::str::from_utf8(&req.body).map_err(|_| (400, "body is not utf-8".to_string()))?;
    let parsed: TuneHttpRequest = serde_json::from_str(body).map_err(|e| (400, e.to_string()))?;
    let workload: WorkloadId = parsed.workload.parse().map_err(bad_request)?;
    if !(1..=MAX_TUNE_BUDGET).contains(&parsed.budget) {
        return Err((
            400,
            format!("budget {} outside 1..={MAX_TUNE_BUDGET}", parsed.budget),
        ));
    }
    let top_k = parsed.top_k.unwrap_or(5);
    if !(1..=MAX_TUNE_TOP_K).contains(&top_k) {
        return Err((400, format!("top_k {top_k} outside 1..={MAX_TUNE_TOP_K}")));
    }
    let kind = parsed
        .kind
        .as_deref()
        .unwrap_or("hybrid")
        .parse()
        .map_err(bad_request)?;
    let version = parsed.version.unwrap_or(1);
    if !(1..=MAX_SERVED_VERSION).contains(&version) {
        return Err((
            400,
            format!("version {version} outside 1..={MAX_SERVED_VERSION}"),
        ));
    }

    // Dispatch + regret attachment are shared with the `tune` CLI.
    let spec = crate::tuning::TuneSpec {
        workload,
        strategy: parsed.strategy,
        kind,
        version,
        budget: parsed.budget,
        top_k,
        seed: parsed.seed.unwrap_or(0),
    };
    let (model_name, report) = crate::tuning::run_tune(registry, &spec).map_err(|e| match e {
        ServeError::UnknownStrategy(_)
        | ServeError::UnknownWorkload(_)
        | ServeError::UnknownKind(_) => (400, e.to_string()),
        ServeError::Tune(
            te @ (lam_tune::TuneError::EmptySpace(_) | lam_tune::TuneError::InvalidRequest(_)),
        ) => (400, te.to_string()),
        other => (500, other.to_string()),
    })?;
    json_ok(&TuneHttpResponse {
        model: model_name,
        report,
        micros: start.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification_is_fixed_cardinality() {
        assert_eq!(ENDPOINTS[endpoint_index("GET", "/healthz")], "healthz");
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/workloads/fmm-small")],
            "workload-detail"
        );
        assert_eq!(ENDPOINTS[endpoint_index("POST", "/predict")], "predict");
        // GET /predict is a 405, still accounted under the endpoint.
        assert_eq!(ENDPOINTS[endpoint_index("GET", "/predict")], "predict");
        assert_eq!(ENDPOINTS[endpoint_index("GET", "/metrics")], "metrics");
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/metrics.json")],
            "metrics-json"
        );
        // Arbitrary client paths collapse to one label value.
        assert_eq!(ENDPOINTS[endpoint_index("GET", "/../../etc")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("DELETE", "/models")], "other");
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/models/fmm-small/cart/artifact")],
            "model-artifact"
        );
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/models/fmm-small/cart/artifact?version=2")],
            "model-artifact"
        );
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/models/fmm-small")],
            "other"
        );
        // Query strings never mint new label values.
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/metrics?prefix=lam_gateway")],
            "metrics"
        );
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/metrics.json?prefix=lam_")],
            "metrics-json"
        );
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/metrics/history")],
            "metrics-history"
        );
        assert_eq!(ENDPOINTS[endpoint_index("GET", "/traces")], "traces");
        assert_eq!(
            ENDPOINTS[endpoint_index("GET", "/traces/00ab")],
            "traces-detail"
        );
    }

    #[test]
    fn query_params_parse_positionally_and_default_empty() {
        assert_eq!(query_param("prefix=lam_", "prefix"), "lam_");
        assert_eq!(query_param("a=1&prefix=lam_x&b=2", "prefix"), "lam_x");
        assert_eq!(query_param("", "prefix"), "");
        assert_eq!(query_param("prefix", "prefix"), "");
        assert_eq!(query_param("other=1", "prefix"), "");
    }

    #[test]
    fn artifact_paths_parse_and_reject() {
        assert_eq!(
            parse_artifact_path("/models/fmm-small/cart/artifact"),
            Some(("fmm-small", "cart", None))
        );
        assert_eq!(
            parse_artifact_path("/models/fmm-small/hybrid/artifact?version=3"),
            Some(("fmm-small", "hybrid", Some("3")))
        );
        assert_eq!(parse_artifact_path("/models/fmm-small/artifact"), None);
        assert_eq!(parse_artifact_path("/models//cart/artifact"), None);
        assert_eq!(parse_artifact_path("/models/a/b/c/artifact"), None);
        assert_eq!(parse_artifact_path("/models/a/b/artifact?v=1"), None);
        assert_eq!(parse_artifact_path("/models"), None);
    }

    #[test]
    fn status_classes_cover_every_emitted_status() {
        assert_eq!(STATUS_CLASSES[status_class_index(200)], "2xx");
        assert_eq!(STATUS_CLASSES[status_class_index(400)], "4xx");
        assert_eq!(STATUS_CLASSES[status_class_index(404)], "4xx");
        assert_eq!(STATUS_CLASSES[status_class_index(405)], "4xx");
        assert_eq!(STATUS_CLASSES[status_class_index(500)], "5xx");
    }

    #[test]
    fn predict_request_tolerates_missing_version() {
        let req: PredictRequest = serde_json::from_str(
            r#"{"workload":"fmm-small","kind":"cart","rows":[[1.0,2.0,3.0,4.0]]}"#,
        )
        .unwrap();
        assert_eq!(req.version, None);
        assert_eq!(req.rows.len(), 1);
    }

    #[test]
    fn predict_request_rejects_missing_rows() {
        let err = serde_json::from_str::<PredictRequest>(r#"{"workload":"fmm","kind":"cart"}"#);
        assert!(err.is_err());
    }

    #[test]
    fn response_bodies_round_trip() {
        let resp = PredictResponse {
            model: "fmm/cart/v1".to_string(),
            predictions: vec![1.5, 2.5],
            cache_hits: 1,
            micros: 42,
        };
        let back: PredictResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.predictions, resp.predictions);
        assert_eq!(back.cache_hits, 1);
    }
}
