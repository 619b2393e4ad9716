//! The cluster gateway: one event-driven front process that
//! consistent-hash-routes `(workload, kind)` traffic across N lam-serve
//! backends, splits multi-row `/predict` bodies across the key's
//! replica set, re-merges responses preserving row order, health-checks
//! backends with failure-count ejection, and sheds `503` + `retry-after`
//! when no replica is live.
//!
//! ```text
//!                ┌─────────────────────────────┐
//!   clients ────▶│ gateway (epoll reactor +    │     /healthz probes
//!                │ handler pool, this module)  │──────────┐
//!                └──────┬──────────────────────┘          │
//!                       │ consistent hash on             ▼
//!                       │ (workload, kind)      ┌────────────────┐
//!            ┌──────────┼──────────┐            │ health ejector │
//!            ▼          ▼          ▼            └────────────────┘
//!        lam-serve  lam-serve  lam-serve
//!          :9001      :9002      :9003   ←— peers replicate .lamb
//!                                            artifacts on cold miss
//! ```
//!
//! The gateway reuses the serve stack end to end: the same epoll
//! reactor and bounded dispatch queue face the clients
//! ([`crate::http::start_engine`]). Every upstream exchange — passthrough
//! forward, scatter leg, failover attempt, proxied GET, health probe,
//! trace fetch, a backend's peer artifact fetch — is a *flight* on one
//! driver: non-blocking sockets (pooled keep-alive ones for gateway
//! traffic) on a per-thread epoll instance. A flight writes its request
//! eagerly and then waits for readability only, so the handler thread
//! sleeps while the backends compute, and a scatter across R replicas
//! overlaps its upstream I/O instead of paying R round trips in sequence.
//!
//! **Routing.** A [`HashRing`] with virtual nodes maps every
//! `(workload, kind)` to a preference permutation of all backends (see
//! [`crate::route`]). The serving set of a key is the first `replicas`
//! *healthy* entries of that permutation — ejecting a dead backend is
//! just skipping it, which leaves every other key's routing untouched.
//!
//! **Failover without client errors.** An upstream failure on a
//! *reused* keep-alive connection is retried once against the same
//! backend on a fresh connection (a stale pooled connection is not
//! evidence the backend is down); a fresh-connection failure bumps the
//! backend's consecutive-failure count (ejecting it at the threshold)
//! and fails over to the next healthy candidate. `/predict` and `/tune`
//! are idempotent, so retries are safe by construction.
//!
//! **Replication.** Backends started `--peers`-aware extend registry
//! resolution with a peer-fetch step (memo → disk → peer → train): a
//! cold backend pulls the binary `.lamb` artifact from a sibling via
//! `GET /models/{workload}/{kind}/artifact` instead of re-training it.
//! The endpoint never trains, so exactly one process ever pays the
//! training cost for a key.

use crate::http::{
    account_request, error_body, query_param, start_engine, PredictRequest, PredictResponse,
    ServeConfig, JSON_CONTENT_TYPE, LAMB_CONTENT_TYPE, RECENT_TRACES_LIMIT,
};
use crate::proto::{
    encode_request, encode_request_traced, ParsedRequest, ParsedResponse, ResponseParser,
    ResponseStep,
};
use crate::reactor::Job;
use crate::registry::ModelKey;
use crate::route::HashRing;
use crate::ServeError;
use epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use lam_obs::expose::PROMETHEUS_CONTENT_TYPE;
use lam_obs::recorder::SpanStatus;
use lam_obs::trace::TraceContext;
use lam_obs::{Counter, Gauge, Histogram, SpanRecord};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway configuration: the serve-engine knobs plus routing,
/// replication, and health-checking.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Reactor/queue knobs for the client-facing side (bind address,
    /// handler threads, body cap, shedding).
    pub serve: ServeConfig,
    /// Backend addresses (`host:port`), the ring's identity set.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Replicas serving each key: multi-row `/predict` bodies scatter
    /// across this many healthy backends (1 = pure sharding).
    pub replicas: usize,
    /// How often the health thread probes each backend's `/healthz`.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or traffic) that eject a backend.
    pub fail_threshold: u32,
    /// Consecutive probe successes that restore an ejected backend.
    pub recover_threshold: u32,
    /// Per-exchange upstream deadline for `/predict` and proxied GETs.
    pub upstream_timeout: Duration,
    /// Upstream deadline for `/tune` (oracle evaluations run upstream,
    /// so this is minutes, not milliseconds).
    pub tune_timeout: Duration,
}

impl GatewayConfig {
    /// Defaults for a local cluster over `backends`.
    pub fn new(backends: Vec<String>) -> Self {
        Self {
            serve: ServeConfig::default(),
            backends,
            vnodes: 64,
            replicas: 1,
            probe_interval: Duration::from_millis(500),
            fail_threshold: 3,
            recover_threshold: 2,
            upstream_timeout: Duration::from_secs(10),
            tune_timeout: Duration::from_secs(120),
        }
    }
}

/// One backend's live state: health flag, consecutive-outcome counters,
/// and pre-interned per-backend metrics.
pub struct BackendState {
    /// The backend's `host:port` (the ring identity and metric label).
    pub addr: String,
    healthy: AtomicBool,
    consecutive_fails: AtomicU32,
    consecutive_oks: AtomicU32,
    /// `lam_gateway_upstream_requests_total{backend,status}` by status
    /// class, indexed 2xx/4xx/5xx/err.
    requests: [Arc<Counter>; 4],
    healthy_gauge: Arc<Gauge>,
}

/// Index into [`BackendState::requests`] for an upstream HTTP status.
fn upstream_class(status: u16) -> usize {
    match status {
        0..=399 => 0,
        400..=499 => 1,
        _ => 2,
    }
}

/// Index into [`BackendState::requests`] for a connection-level failure
/// (no HTTP status ever arrived).
const UPSTREAM_ERR: usize = 3;

impl BackendState {
    fn new(addr: String) -> Self {
        let reg = lam_obs::global();
        let counter = |class: &str| {
            reg.counter(
                "lam_gateway_upstream_requests_total",
                "Upstream requests sent by the gateway, by backend and status class.",
                &[("backend", &addr), ("status", class)],
            )
        };
        let healthy_gauge = reg.gauge(
            "lam_gateway_backend_healthy",
            "1 while the gateway considers the backend live, else 0.",
            &[("backend", &addr)],
        );
        healthy_gauge.set(1);
        let requests = [
            counter("2xx"),
            counter("4xx"),
            counter("5xx"),
            counter("err"),
        ];
        Self {
            addr,
            healthy: AtomicBool::new(true),
            consecutive_fails: AtomicU32::new(0),
            consecutive_oks: AtomicU32::new(0),
            requests,
            healthy_gauge,
        }
    }

    /// Is the backend currently in the serving rotation?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    fn record_response(&self, status: u16) {
        self.requests[upstream_class(status)].inc();
        self.consecutive_fails.store(0, Ordering::SeqCst);
    }

    /// A connection-level failure on a *fresh* connection: count it, and
    /// eject at the threshold. (Reused-connection failures retry
    /// silently — a stale keep-alive socket says nothing about health.)
    fn record_failure(&self, fail_threshold: u32) {
        self.requests[UPSTREAM_ERR].inc();
        self.consecutive_oks.store(0, Ordering::SeqCst);
        let fails = self.consecutive_fails.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= fail_threshold && self.healthy.swap(false, Ordering::SeqCst) {
            self.healthy_gauge.set(0);
        }
    }

    /// A probe success: restore an ejected backend after enough in a row.
    fn record_probe_success(&self, recover_threshold: u32) {
        self.consecutive_fails.store(0, Ordering::SeqCst);
        let oks = self.consecutive_oks.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.is_healthy()
            && oks >= recover_threshold
            && !self.healthy.swap(true, Ordering::SeqCst)
        {
            self.healthy_gauge.set(1);
        }
    }
}

/// Shared routing + health state of the gateway: the ring, every
/// backend's state, and the fan-out histogram.
pub struct ClusterState {
    /// Per-backend state, indexed as the ring indexes them.
    pub backends: Vec<BackendState>,
    /// The consistent-hash ring over `backends`.
    pub ring: HashRing,
    replicas: usize,
    fail_threshold: u32,
    recover_threshold: u32,
    fanout: Arc<Histogram>,
}

impl ClusterState {
    fn new(cfg: &GatewayConfig) -> Self {
        Self {
            backends: cfg
                .backends
                .iter()
                .cloned()
                .map(BackendState::new)
                .collect(),
            ring: HashRing::new(&cfg.backends, cfg.vnodes),
            replicas: cfg.replicas.max(1),
            fail_threshold: cfg.fail_threshold.max(1),
            recover_threshold: cfg.recover_threshold.max(1),
            fanout: lam_obs::global().histogram(
                "lam_gateway_fanout_size",
                "Upstream subrequests one client /predict fanned out into.",
                &[],
            ),
        }
    }

    /// Backends currently in the serving rotation.
    pub fn healthy_count(&self) -> usize {
        self.backends.iter().filter(|b| b.is_healthy()).count()
    }

    /// The key's healthy candidates, in ring preference order (failover
    /// walks this list).
    fn healthy_candidates(&self, workload: &str, kind: &str) -> Vec<usize> {
        self.ring
            .candidates(workload, kind)
            .into_iter()
            .filter(|&i| self.backends[i].is_healthy())
            .collect()
    }
}

/// Handle of a running gateway: the client-facing server plus the
/// health-probe thread.
pub struct GatewayHandle {
    server: crate::http::ServerHandle,
    probe_stop: Arc<AtomicBool>,
    probe: JoinHandle<()>,
    /// The routing/health state, shared for inspection (tests, CLIs).
    pub cluster: Arc<ClusterState>,
}

impl GatewayHandle {
    /// The gateway's bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful shutdown of the server and the probe thread.
    pub fn stop(self) {
        self.probe_stop.store(true, Ordering::SeqCst);
        let _ = self.probe.join();
        self.server.stop();
    }
}

/// Start the gateway. Returns once the client-facing listener is bound;
/// routing, health probing, and upstream I/O happen on the engine's
/// threads.
pub fn start_gateway(cfg: GatewayConfig) -> Result<GatewayHandle, ServeError> {
    if cfg.backends.is_empty() {
        return Err(ServeError::Http(
            "gateway needs at least one --backend".to_string(),
        ));
    }
    // Span records from this process must be attributable to the gateway
    // when a trace is assembled across the cluster.
    lam_obs::recorder::set_service("gateway");
    let cluster = Arc::new(ClusterState::new(&cfg));
    let ctx = Arc::new(GatewayCtx {
        cluster: Arc::clone(&cluster),
        retry_after_secs: cfg.serve.retry_after_secs,
        upstream_timeout: cfg.upstream_timeout,
        tune_timeout: cfg.tune_timeout,
        max_upstream_body: cfg.serve.opts.max_body.max(1 << 20),
    });
    let server = start_engine(
        &cfg.serve,
        None,
        Arc::new(move |job| handle_gateway_job(job, &ctx)),
    )?;
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&probe_stop);
        let interval = cfg.probe_interval.max(Duration::from_millis(10));
        std::thread::Builder::new()
            .name("lam-gw-probe".to_string())
            .spawn(move || probe_loop(&cluster, &stop, interval))?
    };
    Ok(GatewayHandle {
        server,
        probe_stop,
        probe,
        cluster,
    })
}

/// The health thread: probe every backend's `/healthz` each interval,
/// sleeping in small slices so shutdown is prompt.
fn probe_loop(cluster: &ClusterState, stop: &AtomicBool, interval: Duration) {
    const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
    while !stop.load(Ordering::SeqCst) {
        for backend in &cluster.backends {
            match blocking_get(&backend.addr, "/healthz", PROBE_TIMEOUT, 1 << 20) {
                Ok(resp) if resp.status == 200 => {
                    backend.record_probe_success(cluster.recover_threshold)
                }
                _ => backend.record_failure(cluster.fail_threshold),
            }
        }
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Everything a gateway handler thread needs for one request.
struct GatewayCtx {
    cluster: Arc<ClusterState>,
    retry_after_secs: u32,
    upstream_timeout: Duration,
    tune_timeout: Duration,
    max_upstream_body: usize,
}

/// A fully-formed gateway response (status, content type, body bytes,
/// optional `retry-after`).
type GatewayResponse = (u16, &'static str, Vec<u8>, Option<u32>);

/// Map an upstream's content type onto our static label set (responder
/// completions carry `&'static str`).
fn static_content_type(ct: &str) -> &'static str {
    if ct.starts_with(PROMETHEUS_CONTENT_TYPE) {
        PROMETHEUS_CONTENT_TYPE
    } else if ct.starts_with(LAMB_CONTENT_TYPE) {
        LAMB_CONTENT_TYPE
    } else {
        JSON_CONTENT_TYPE
    }
}

/// Serve one dispatched client request on a gateway handler thread.
fn handle_gateway_job(job: Job, ctx: &GatewayCtx) {
    let Job {
        req,
        responder,
        hint,
    } = job;
    drop(hint); // the gateway schedules no rows
    let started = lam_obs::enabled().then(Instant::now);
    let endpoint = responder.endpoint();
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let mut trace = GatewayTrace::begin(&req, path);
    let (status, content_type, body, retry_after) = match (req.method.as_str(), path) {
        ("POST", "/predict") => gateway_predict(&req.body, ctx, trace.as_mut()),
        ("POST", "/tune") => gateway_tune(&req.body, ctx, trace.as_ref().map(|t| t.ctx)),
        ("GET", "/healthz") => gateway_healthz(ctx),
        ("GET", "/metrics") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            let text = lam_obs::expose::render_prometheus(&snap);
            (200, PROMETHEUS_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/metrics.json") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            let text = lam_obs::expose::render_json(&snap);
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/metrics/history") => {
            let text = lam_obs::history::global().render_json();
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/traces") => {
            let records = lam_obs::recorder::global().iter_records();
            let text = lam_obs::recorder::render_recent_json(&records, RECENT_TRACES_LIMIT);
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", p) if p.starts_with("/traces/") => {
            gateway_trace_detail(&p["/traces/".len()..], ctx)
        }
        ("GET", p)
            if p == "/models"
                || p == "/workloads"
                || p.starts_with("/workloads/")
                || crate::http::parse_artifact_path(p).is_some() =>
        {
            // Forward the original path: artifact GETs carry `?version=`.
            gateway_proxy_get(&req.path, ctx)
        }
        ("GET", "/predict") => bad(405, "use POST for /predict"),
        ("GET", "/tune") => bad(405, "use POST for /tune"),
        _ => bad(404, &format!("no route for {} {}", req.method, req.path)),
    };
    if let Some(t) = trace {
        t.finish(status);
    }
    account_request(endpoint, status, started);
    responder.send_bytes(status, content_type, body, retry_after);
}

/// Map an HTTP status onto the span outcome recorded for it.
fn span_status(status_code: u16) -> SpanStatus {
    match status_code {
        503 => SpanStatus::Shed,
        s if s >= 400 => SpanStatus::Error,
        _ => SpanStatus::Ok,
    }
}

/// The `gateway.request` root span of one traced client request.
/// Only `/predict` and `/tune` are traced: probe and scrape endpoints
/// would drown the flight recorder in uninteresting spans.
struct GatewayTrace {
    ctx: TraceContext,
    parent_id: u64,
    started: Instant,
    annotations: Vec<(&'static str, String)>,
}

impl GatewayTrace {
    fn begin(req: &ParsedRequest, path: &str) -> Option<Self> {
        if !lam_obs::enabled() || req.method != "POST" || !matches!(path, "/predict" | "/tune") {
            return None;
        }
        let (ctx, parent_id) = match req.trace.as_deref().and_then(TraceContext::parse) {
            Some(parent) => (parent.child(0), parent.span_id),
            None => (TraceContext::root(), 0),
        };
        Some(Self {
            ctx,
            parent_id,
            started: Instant::now(),
            annotations: Vec::new(),
        })
    }

    fn annotate(&mut self, key: &'static str, value: impl Into<String>) {
        self.annotations.push((key, value.into()));
    }

    fn finish(self, status_code: u16) {
        let mut record = SpanRecord::finish(
            &self.ctx,
            self.parent_id,
            "gateway.request",
            self.started,
            span_status(status_code),
        )
        .annotate("http_status", status_code.to_string());
        for (key, value) in self.annotations {
            record = record.annotate(key, value);
        }
        lam_obs::recorder::global().record(record);
    }
}

/// `GET /traces/{id}` on the gateway: merge this process's retained
/// spans for the trace with every backend's (fetched over HTTP), dedup
/// by span id (an in-process test cluster shares one recorder), order
/// by start time, and render the combined tree.
fn gateway_trace_detail(segment: &str, ctx: &GatewayCtx) -> GatewayResponse {
    let Some(trace_id) = lam_obs::trace::parse_trace_id(segment) else {
        return bad(400, "trace id must be 32 hex digits");
    };
    // (span_id, start_unix_ns, rendered span object)
    let mut spans: Vec<(u64, u64, String)> = lam_obs::recorder::global()
        .find_trace(trace_id)
        .into_iter()
        .map(|r| (r.span_id, r.start_unix_ns, r.to_json()))
        .collect();
    let path = format!("/traces/{segment}");
    for backend in &ctx.cluster.backends {
        let Ok(resp) = blocking_get(&backend.addr, &path, TRACE_FETCH_TIMEOUT, 1 << 20) else {
            continue; // a dead backend simply contributes no spans
        };
        if resp.status != 200 {
            continue; // 404 means the backend retained nothing for this id
        }
        let Ok(text) = std::str::from_utf8(&resp.body) else {
            continue;
        };
        let Ok(doc) = serde_json::from_str::<serde::Value>(text) else {
            continue;
        };
        let Some(items) = doc.get("spans").and_then(|s| s.as_array()) else {
            continue;
        };
        for item in items {
            let Some(span_id) = item
                .get("span_id")
                .and_then(|v| v.as_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            let start = match item.get("start_unix_ns") {
                Some(serde::Value::Number(n)) => n.as_u64().unwrap_or(0),
                _ => 0,
            };
            let Ok(json) = serde_json::to_string(item) else {
                continue;
            };
            spans.push((span_id, start, json));
        }
    }
    if spans.is_empty() {
        return bad(404, &format!("no retained spans for trace {segment}"));
    }
    spans.sort_by_key(|s| (s.1, s.0));
    spans.dedup_by_key(|s| s.0);
    let jsons: Vec<String> = spans.into_iter().map(|s| s.2).collect();
    let body = lam_obs::recorder::render_trace_json(trace_id, &jsons);
    (200, JSON_CONTENT_TYPE, body.into_bytes(), None)
}

/// How long the gateway waits on each backend while assembling a
/// cross-process trace. Trace inspection is a debugging path; it should
/// fail towards partial trees, not hang the handler thread.
const TRACE_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

fn bad(status: u16, msg: &str) -> GatewayResponse {
    (
        status,
        JSON_CONTENT_TYPE,
        error_body(msg).into_bytes(),
        None,
    )
}

/// `/healthz` response of the gateway itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewayHealthResponse {
    /// `ok` while at least one backend is live, else `degraded`.
    pub status: String,
    /// Crate version of the gateway binary.
    pub version: String,
    /// Build profile (`debug` or `release`).
    pub profile: String,
    /// Configured backend count.
    pub backends: usize,
    /// Backends currently in the serving rotation.
    pub backends_healthy: usize,
    /// Per-backend liveness, in ring order.
    pub backend_status: Vec<GatewayBackendStatus>,
}

/// One backend's row in [`GatewayHealthResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewayBackendStatus {
    /// The backend's address.
    pub addr: String,
    /// Its current liveness.
    pub healthy: bool,
}

fn gateway_healthz(ctx: &GatewayCtx) -> GatewayResponse {
    let healthy = ctx.cluster.healthy_count();
    let resp = GatewayHealthResponse {
        status: if healthy > 0 { "ok" } else { "degraded" }.to_string(),
        version: crate::http::BUILD_VERSION.to_string(),
        profile: crate::http::BUILD_PROFILE.to_string(),
        backends: ctx.cluster.backends.len(),
        backends_healthy: healthy,
        backend_status: ctx
            .cluster
            .backends
            .iter()
            .map(|b| GatewayBackendStatus {
                addr: b.addr.clone(),
                healthy: b.is_healthy(),
            })
            .collect(),
    };
    match serde_json::to_string(&resp) {
        Ok(body) => (200, JSON_CONTENT_TYPE, body.into_bytes(), None),
        Err(e) => bad(500, &e.to_string()),
    }
}

/// Shed response when a key has no live replica.
fn all_replicas_down(ctx: &GatewayCtx) -> GatewayResponse {
    (
        503,
        JSON_CONTENT_TYPE,
        error_body("no live backend replica for this key").into_bytes(),
        Some(ctx.retry_after_secs),
    )
}

/// `/predict` through the gateway.
///
/// The routing fields are extracted with a cheap byte scan — no full
/// JSON parse on the passthrough path, which is what keeps single-shard
/// gateway overhead inside the ≤ 25% budget on one core. When the
/// serving set is one backend the raw body forwards verbatim; with
/// replication the body is parsed once and its rows scatter as
/// contiguous chunks across the replica set, gathered back in chunk
/// order so the client sees row-order-preserving predictions.
fn gateway_predict(
    body: &[u8],
    ctx: &GatewayCtx,
    mut trace: Option<&mut GatewayTrace>,
) -> GatewayResponse {
    let tctx = trace.as_ref().map(|t| t.ctx);
    let Some((workload, kind)) = scan_routing_fields(body) else {
        // The scan only fails on bodies that are not simple JSON
        // objects with string `workload`/`kind` fields — let a backend
        // produce the canonical 400 unless none is alive.
        return match first_healthy(ctx) {
            Some(order) => forward_with_failover(
                ctx,
                &order,
                "POST",
                "/predict",
                body,
                ctx.upstream_timeout,
                tctx,
            ),
            None => all_replicas_down(ctx),
        };
    };
    let candidates = ctx.cluster.healthy_candidates(&workload, &kind);
    if candidates.is_empty() {
        return all_replicas_down(ctx);
    }
    let serving = &candidates[..candidates.len().min(ctx.cluster.replicas)];
    if serving.len() == 1 {
        ctx.cluster.fanout.record(1);
        if let Some(t) = trace.as_deref_mut() {
            t.annotate("shards", "1");
        }
        return forward_with_failover(
            ctx,
            &candidates,
            "POST",
            "/predict",
            body,
            ctx.upstream_timeout,
            tctx,
        );
    }
    scatter_predict(body, serving, &candidates, ctx, trace)
}

/// `/tune` through the gateway: routed whole (budgets are not
/// splittable), with the kind defaulting to `hybrid` exactly as the
/// backend would default it.
fn gateway_tune(body: &[u8], ctx: &GatewayCtx, trace: Option<TraceContext>) -> GatewayResponse {
    let key = scan_routing_fields(body);
    let candidates = match &key {
        Some((workload, kind)) => ctx.cluster.healthy_candidates(workload, kind),
        None => first_healthy(ctx).unwrap_or_default(),
    };
    if candidates.is_empty() {
        return all_replicas_down(ctx);
    }
    forward_with_failover(
        ctx,
        &candidates,
        "POST",
        "/tune",
        body,
        ctx.tune_timeout,
        trace,
    )
}

/// Proxy a GET (catalog, workloads, artifact) to a healthy backend.
/// Artifact paths route by their embedded key so the request lands on
/// the shard most likely to have the artifact; the rest go to the first
/// healthy backend (every backend can answer them).
fn gateway_proxy_get(path: &str, ctx: &GatewayCtx) -> GatewayResponse {
    let candidates = match crate::http::parse_artifact_path(path) {
        Some((workload, kind, _)) => {
            let (workload, kind) = (workload.to_string(), kind.to_string());
            ctx.cluster.healthy_candidates(&workload, &kind)
        }
        None => first_healthy(ctx).unwrap_or_default(),
    };
    if candidates.is_empty() {
        return all_replicas_down(ctx);
    }
    forward_with_failover(
        ctx,
        &candidates,
        "GET",
        path,
        &[],
        ctx.upstream_timeout,
        None,
    )
}

/// All healthy backends in index order (for keyless requests), `None`
/// when the whole cluster is dark.
fn first_healthy(ctx: &GatewayCtx) -> Option<Vec<usize>> {
    let order: Vec<usize> = (0..ctx.cluster.backends.len())
        .filter(|&i| ctx.cluster.backends[i].is_healthy())
        .collect();
    if order.is_empty() {
        None
    } else {
        Some(order)
    }
}

/// Scan a JSON object's raw bytes for its string-valued `workload` and
/// `kind` fields without parsing the whole body (the rows array
/// dominates the bytes and the passthrough path never needs it).
/// Returns `None` on anything irregular — escaped strings, missing
/// fields — and the caller falls back to a full parse or passthrough.
fn scan_routing_fields(body: &[u8]) -> Option<(String, String)> {
    Some((
        scan_string_field(body, b"\"workload\"")?,
        scan_string_field(body, b"\"kind\"")?,
    ))
}

fn scan_string_field(body: &[u8], quoted_name: &[u8]) -> Option<String> {
    let at = body
        .windows(quoted_name.len())
        .position(|w| w == quoted_name)?;
    let mut i = at + quoted_name.len();
    while i < body.len() && (body[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    if body.get(i) != Some(&b':') {
        return None;
    }
    i += 1;
    while i < body.len() && (body[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    if body.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let start = i;
    while i < body.len() {
        match body[i] {
            b'"' => {
                return String::from_utf8(body[start..i].to_vec()).ok();
            }
            // Workload and kind names never contain escapes; punt to the
            // full parser rather than implement JSON unescaping here.
            b'\\' => return None,
            _ => i += 1,
        }
    }
    None
}

/// Send one request to the first candidate that answers, walking the
/// preference list on connection-level failures. An HTTP response —
/// any status — ends the walk: statuses are deterministic answers
/// (400) or explicit backpressure (503 + retry-after) that failover
/// must not amplify into duplicated work.
///
/// With a trace context, each attempt gets its own `gateway.shard`
/// child span (sequence = attempt index) whose header rides to the
/// backend, so failover attempts are distinguishable in the tree.
fn forward_with_failover(
    ctx: &GatewayCtx,
    candidates: &[usize],
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    trace: Option<TraceContext>,
) -> GatewayResponse {
    for (attempt, &idx) in candidates.iter().enumerate() {
        let addr = &ctx.cluster.backends[idx].addr;
        let leg = trace.map(|t| t.child(attempt as u64));
        let header = leg.map(|l| l.header_value());
        let request = encode_request_traced(method, path, addr, body, header.as_deref());
        let leg_started = Instant::now();
        let outcome = request_one(ctx, idx, request, timeout);
        if let (Some(root), Some(leg)) = (&trace, &leg) {
            let status = match &outcome {
                Ok(resp) => span_status(resp.status),
                Err(_) => SpanStatus::Error,
            };
            lam_obs::recorder::global().record(
                SpanRecord::finish(leg, root.span_id, "gateway.shard", leg_started, status)
                    .annotate("backend", addr.clone()),
            );
        }
        match outcome {
            Ok(resp) => {
                return (
                    resp.status,
                    static_content_type(&resp.content_type),
                    resp.body,
                    None,
                )
            }
            Err(_) => continue,
        }
    }
    all_replicas_down(ctx)
}

/// Scatter a parsed multi-row `/predict` across the serving set and
/// gather the merged response. Chunks are contiguous row ranges, so the
/// concatenation of per-chunk predictions in chunk order *is* the
/// client's row order. A failed chunk fails over to the key's remaining
/// healthy candidates before the request is given up on.
fn scatter_predict(
    body: &[u8],
    serving: &[usize],
    candidates: &[usize],
    ctx: &GatewayCtx,
    trace: Option<&mut GatewayTrace>,
) -> GatewayResponse {
    let start = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return bad(400, "body is not utf-8"),
    };
    let parsed: PredictRequest = match serde_json::from_str(text) {
        Ok(p) => p,
        Err(e) => return bad(400, &e.to_string()),
    };
    let total_rows = parsed.rows.len();
    let shards = serving.len().min(total_rows).max(1);
    ctx.cluster.fanout.record(shards as u64);
    let tctx = match trace {
        Some(t) => {
            t.annotate("rows", total_rows.to_string());
            t.annotate("shards", shards.to_string());
            Some(t.ctx)
        }
        None => None,
    };
    if shards == 1 {
        return forward_with_failover(
            ctx,
            candidates,
            "POST",
            "/predict",
            body,
            ctx.upstream_timeout,
            tctx,
        );
    }
    // Contiguous chunks, sizes differing by at most one row, each
    // serialized once: the failover pass re-sends the same body.
    // `ranges` remembers each chunk's rows for the shard spans below.
    let base = total_rows / shards;
    let extra = total_rows % shards;
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(shards);
    for s in 0..shards {
        let start = ranges.last().map_or(0, |r| r.end);
        ranges.push(start..start + base + usize::from(s < extra));
    }
    let bodies: Vec<Vec<u8>> = ranges
        .iter()
        .map(|r| chunk_body(&parsed, &parsed.rows[r.clone()]))
        .collect();
    let leg_request = |s: usize, idx: usize| {
        let addr = &ctx.cluster.backends[idx].addr;
        let header = tctx.map(|t| t.child(s as u64).header_value());
        encode_request_traced("POST", "/predict", addr, &bodies[s], header.as_deref())
    };
    let subrequests = (0..shards)
        .map(|s| (serving[s], leg_request(s, serving[s])))
        .collect();
    let mut results = exchange_parallel(ctx, subrequests, ctx.upstream_timeout);
    // Failover pass: re-send each failed chunk to the key's other
    // healthy candidates, sequentially (this is the rare path). The
    // retried leg keeps its chunk's span id so the trace stays whole.
    let mut final_backends: Vec<usize> = serving.to_vec();
    for (s, result) in results.iter_mut().enumerate() {
        if result.is_ok() {
            continue;
        }
        let failed_backend = serving[s];
        for &idx in candidates.iter().filter(|&&i| i != failed_backend) {
            if !ctx.cluster.backends[idx].is_healthy() {
                continue;
            }
            let request = leg_request(s, idx);
            if let Ok(resp) = request_one(ctx, idx, request, ctx.upstream_timeout) {
                *result = Ok(resp);
                final_backends[s] = idx;
                break;
            }
        }
    }
    // One `gateway.shard` span per chunk, recorded before the merge so
    // failed chunks still show up (status error) in the trace.
    if let Some(root) = tctx {
        for (s, result) in results.iter().enumerate() {
            let status = match result {
                Ok(resp) => span_status(resp.status),
                Err(_) => SpanStatus::Error,
            };
            lam_obs::recorder::global().record(
                SpanRecord::finish(
                    &root.child(s as u64),
                    root.span_id,
                    "gateway.shard",
                    start,
                    status,
                )
                .annotate(
                    "backend",
                    ctx.cluster.backends[final_backends[s]].addr.clone(),
                )
                .annotate("offset", ranges[s].start.to_string())
                .annotate("rows", ranges[s].len().to_string()),
            );
        }
    }
    // Merge. Any chunk still failed → 503; any upstream non-200 →
    // forward it (every chunk shares the request's validity, so the
    // first error is the request's error).
    let mut predictions = Vec::new();
    let mut cache_hits = 0u64;
    let mut model = String::new();
    for result in &results {
        let resp = match result {
            Ok(resp) => resp,
            Err(_) => return all_replicas_down(ctx),
        };
        if resp.status != 200 {
            return (
                resp.status,
                static_content_type(&resp.content_type),
                resp.body.clone(),
                None,
            );
        }
        let text = match std::str::from_utf8(&resp.body) {
            Ok(t) => t,
            Err(_) => return bad(502, "backend returned non-utf-8 predict body"),
        };
        let part: PredictResponse = match serde_json::from_str(text) {
            Ok(p) => p,
            Err(e) => return bad(502, &format!("backend predict body unparseable: {e}")),
        };
        if model.is_empty() {
            model = part.model;
        }
        predictions.extend(part.predictions);
        cache_hits += part.cache_hits;
    }
    let merged = PredictResponse {
        model,
        predictions,
        cache_hits,
        micros: start.elapsed().as_micros() as u64,
    };
    match serde_json::to_string(&merged) {
        Ok(body) => (200, JSON_CONTENT_TYPE, body.into_bytes(), None),
        Err(e) => bad(500, &e.to_string()),
    }
}

/// The `/predict` body of one scatter chunk: `parsed` with its rows
/// replaced by `rows`, serialized from the borrowed slice. Byte-identical
/// to serializing the equivalent [`PredictRequest`].
fn chunk_body(parsed: &PredictRequest, rows: &[Vec<f64>]) -> Vec<u8> {
    let sub = serde::Value::Object(vec![
        ("workload".to_string(), parsed.workload.to_value()),
        ("kind".to_string(), parsed.kind.to_value()),
        ("version".to_string(), parsed.version.to_value()),
        ("rows".to_string(), rows.to_value()),
    ]);
    serde_json::to_string(&sub)
        .expect("predict request serializes")
        .into_bytes()
}

// ---------------------------------------------------------------------
// Upstream I/O: one flight driver on a per-thread epoll instance
// ---------------------------------------------------------------------

thread_local! {
    /// Keep-alive upstream connections (non-blocking), pooled per
    /// backend address and per handler thread (no cross-thread locking
    /// on the hot path).
    static UPSTREAM_POOL: RefCell<HashMap<String, VecDeque<TcpStream>>> =
        RefCell::new(HashMap::new());

    /// This thread's upstream epoll instance. Every flight deletes its fd
    /// from the set before its stream is pooled or dropped, so the set is
    /// empty between exchanges.
    static UPSTREAM_EPOLL: Result<Epoll, String> =
        Epoll::new().map_err(|e| format!("epoll: {e}"));
}

/// Pooled keep-alive connections retained per backend per thread.
const POOL_PER_BACKEND: usize = 4;

fn pool_take(addr: &str) -> Option<TcpStream> {
    UPSTREAM_POOL.with(|p| p.borrow_mut().get_mut(addr)?.pop_front())
}

fn pool_put(addr: &str, stream: TcpStream) {
    UPSTREAM_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let slot = pool.entry(addr.to_string()).or_default();
        if slot.len() < POOL_PER_BACKEND {
            slot.push_back(stream);
        }
    });
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Open a non-blocking upstream connection (the connect itself blocks,
/// for at most [`CONNECT_TIMEOUT`]).
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::NotFound, "address resolves to nothing"))?;
    let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One upstream request/response exchange. A flight accounted to a
/// gateway backend (`health`) rides pooled keep-alive connections and
/// follows the retry contract: a failure on a *reused* pooled connection
/// retries once on a fresh one without counting against the backend (a
/// stale keep-alive socket says nothing about health); a fresh-connection
/// failure records one failure. An unaccounted flight (probes, trace
/// fetches, peer artifact fetches) uses one fresh connection.
struct Flight<'a> {
    addr: &'a str,
    /// The backend and its ejection threshold, for accounted flights.
    health: Option<(&'a BackendState, u32)>,
    request: Vec<u8>,
    max_body: usize,
    stream: Option<TcpStream>,
    reused: bool,
    written: usize,
    inbuf: Vec<u8>,
    parser: ResponseParser,
    result: Option<Result<ParsedResponse, String>>,
}

impl<'a> Flight<'a> {
    fn new(
        addr: &'a str,
        health: Option<(&'a BackendState, u32)>,
        request: Vec<u8>,
        max_body: usize,
    ) -> Self {
        Self {
            addr,
            health,
            request,
            max_body,
            stream: None,
            reused: false,
            written: 0,
            inbuf: Vec::new(),
            parser: ResponseParser::new(max_body),
            result: None,
        }
    }

    /// Readiness the flight waits for: readability, plus writability only
    /// while request bytes remain unsent.
    fn interest(&self) -> u32 {
        let out = if self.written < self.request.len() {
            EPOLLOUT
        } else {
            0
        };
        EPOLLIN | EPOLLRDHUP | out
    }

    /// Start on a pooled connection (accounted flights) or a fresh one.
    fn launch(&mut self, epoll: &Epoll, token: u64) {
        match self.health.and_then(|_| pool_take(self.addr)) {
            Some(stream) => {
                self.reused = true;
                if let Err(e) = self.send(stream, epoll, token) {
                    self.fail(e, epoll, token);
                }
            }
            None => self.launch_fresh(epoll, token),
        }
    }

    fn launch_fresh(&mut self, epoll: &Epoll, token: u64) {
        self.reused = false;
        let sent = connect(self.addr)
            .map_err(|e| format!("connect {}: {e}", self.addr))
            .and_then(|stream| self.send(stream, epoll, token));
        if let Err(e) = sent {
            self.settle(Err(e), epoll);
        }
    }

    /// Write the request eagerly, then register the flight's interest.
    fn send(&mut self, stream: TcpStream, epoll: &Epoll, token: u64) -> Result<(), String> {
        let fd = stream.as_raw_fd();
        self.stream = Some(stream);
        self.written = 0;
        self.inbuf.clear();
        self.parser = ResponseParser::new(self.max_body);
        self.flush()?;
        epoll
            .add(fd, self.interest(), token)
            .map_err(|e| format!("epoll add: {e}"))
    }

    /// Advance on readiness `bits`, switching the registration to read
    /// interest once the last request byte is written.
    fn on_ready(&mut self, bits: u32, epoll: &Epoll, token: u64) {
        let was_writing = self.written < self.request.len();
        match self.step(bits) {
            Ok(Some(resp)) => self.settle(Ok(resp), epoll),
            Ok(None) if was_writing && self.written == self.request.len() => {
                let fd = self.stream.as_ref().expect("an open flight has a stream");
                if let Err(e) = epoll.modify(fd.as_raw_fd(), self.interest(), token) {
                    self.fail(format!("epoll modify: {e}"), epoll, token);
                }
            }
            Ok(None) => {}
            Err(e) => self.fail(e, epoll, token),
        }
    }

    /// A connection-level failure: retry a reused connection once on a
    /// fresh one, settle otherwise.
    fn fail(&mut self, err: String, epoll: &Epoll, token: u64) {
        if self.reused {
            self.close(epoll);
            self.launch_fresh(epoll, token);
        } else {
            self.settle(Err(err), epoll);
        }
    }

    /// Resolve the flight: account the outcome to its backend and pool a
    /// keep-alive connection back, dropping any other.
    fn settle(&mut self, result: Result<ParsedResponse, String>, epoll: &Epoll) {
        let stream = self.close(epoll);
        if let Some((backend, fail_threshold)) = self.health {
            match &result {
                Ok(resp) => {
                    backend.record_response(resp.status);
                    if let (true, Some(stream)) = (resp.keep_alive, stream) {
                        pool_put(self.addr, stream);
                    }
                }
                Err(_) => backend.record_failure(fail_threshold),
            }
        }
        self.result = Some(result);
    }

    fn close(&mut self, epoll: &Epoll) -> Option<TcpStream> {
        let stream = self.stream.take()?;
        let _ = epoll.delete(stream.as_raw_fd());
        Some(stream)
    }

    fn flush(&mut self) -> Result<(), String> {
        let Some(mut stream) = self.stream.as_ref() else {
            return Ok(());
        };
        while self.written < self.request.len() {
            match stream.write(&self.request[self.written..]) {
                Ok(0) => return Err("upstream write returned 0".to_string()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("upstream write: {e}")),
            }
        }
        Ok(())
    }

    /// The I/O step: flush unsent request bytes, drain readable bytes,
    /// poll the parser. `Ok(Some)` on a complete response. A response
    /// that arrived before an error or hang-up is still taken.
    fn step(&mut self, bits: u32) -> Result<Option<ParsedResponse>, String> {
        self.flush()?;
        let Some(mut stream) = self.stream.as_ref() else {
            return Ok(None);
        };
        let mut chunk = [0u8; 16 << 10];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err("upstream closed before a full response".to_string()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    match self.parser.poll(&mut self.inbuf) {
                        ResponseStep::Incomplete => {}
                        ResponseStep::Invalid(msg) => return Err(msg),
                        ResponseStep::Response(resp) => return Ok(Some(resp)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return match bits & (EPOLLERR | EPOLLHUP) {
                        0 => Ok(None),
                        _ => Err("upstream connection error".to_string()),
                    };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("upstream read: {e}")),
            }
        }
    }
}

/// The flight driver behind every upstream exchange: start every flight,
/// then sleep in `epoll_wait` on this thread's epoll instance until a
/// socket is ready or `timeout` has passed, so concurrent flights overlap
/// and a scatter across R replicas costs one round trip, not R. A socket
/// with send-buffer space is always writable, which is why a flight
/// registers `EPOLLOUT` only while request bytes remain unsent: left
/// armed, it would turn the wait for the response into a busy poll on
/// the cores the backends need to compute it. Flights still open at the
/// deadline fail (and count against their backend).
fn fly(flights: &mut [Flight], timeout: Duration) -> Vec<Result<ParsedResponse, String>> {
    UPSTREAM_EPOLL.with(|epoll| {
        let epoll = match epoll {
            Ok(epoll) => epoll,
            Err(e) => return flights.iter().map(|_| Err(e.clone())).collect(),
        };
        for (i, flight) in flights.iter_mut().enumerate() {
            flight.launch(epoll, i as u64);
        }
        let deadline = Instant::now() + timeout;
        let mut events = [EpollEvent::zeroed(); 16];
        while flights.iter().any(|f| f.result.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let n = epoll.wait(&mut events, Some(left));
            for ev in &events[..n] {
                let i = ev.token() as usize;
                if let Some(flight) = flights.get_mut(i).filter(|f| f.result.is_none()) {
                    flight.on_ready(ev.events(), epoll, i as u64);
                }
            }
        }
        flights
            .iter_mut()
            .map(|flight| {
                if flight.result.is_none() {
                    flight.settle(Err("upstream response timed out".to_string()), epoll);
                }
                flight.result.take().expect("every flight resolved")
            })
            .collect()
    })
}

/// Send `(backend, request bytes)` subrequests to gateway backends
/// concurrently, each under the retry contract. Results come back
/// indexed like `subrequests`.
fn exchange_parallel(
    ctx: &GatewayCtx,
    subrequests: Vec<(usize, Vec<u8>)>,
    timeout: Duration,
) -> Vec<Result<ParsedResponse, String>> {
    let cluster = &ctx.cluster;
    let mut flights: Vec<Flight> = subrequests
        .into_iter()
        .map(|(idx, request)| {
            let backend = &cluster.backends[idx];
            let health = Some((backend, cluster.fail_threshold));
            Flight::new(&backend.addr, health, request, ctx.max_upstream_body)
        })
        .collect();
    fly(&mut flights, timeout)
}

/// One request to gateway backend `idx`: a one-flight
/// [`exchange_parallel`] (the passthrough predict, `/tune`, proxied GETs,
/// failover attempts).
fn request_one(
    ctx: &GatewayCtx,
    idx: usize,
    request: Vec<u8>,
    timeout: Duration,
) -> Result<ParsedResponse, String> {
    let mut results = exchange_parallel(ctx, vec![(idx, request)], timeout);
    results.pop().expect("one result per flight")
}

/// One-shot GET over a fresh connection, with no backend accounting (it
/// has no gateway context): health probes, `/traces` assembly and peer
/// artifact fetches. Blocks the calling thread in the flight driver.
pub(crate) fn blocking_get(
    addr: &str,
    path: &str,
    timeout: Duration,
    max_body: usize,
) -> Result<ParsedResponse, String> {
    let request = encode_request("GET", path, addr, &[]);
    let mut results = fly(&mut [Flight::new(addr, None, request, max_body)], timeout);
    results.pop().expect("one result per flight")
}

/// Deadline and size cap for peer artifact fetches. Artifacts are a few
/// MB at most (50-tree forests); 64 MiB is generous headroom.
const ARTIFACT_FETCH_TIMEOUT: Duration = Duration::from_secs(10);
const ARTIFACT_MAX_BYTES: usize = 64 << 20;

/// Fetch a model artifact's binary bytes from a peer backend. Any
/// non-200 answer is an error (the caller moves on to the next peer or
/// trains).
pub(crate) fn fetch_artifact(addr: &str, key: ModelKey) -> Result<Vec<u8>, ServeError> {
    let path = format!(
        "/models/{}/{}/artifact?version={}",
        key.workload, key.kind, key.version
    );
    let resp = blocking_get(addr, &path, ARTIFACT_FETCH_TIMEOUT, ARTIFACT_MAX_BYTES)
        .map_err(ServeError::Http)?;
    if resp.status != 200 {
        return Err(ServeError::Http(format!(
            "peer {addr} answered {} for {key}",
            resp.status
        )));
    }
    Ok(resp.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Receiver};

    fn test_ctx(backends: Vec<String>) -> GatewayCtx {
        let cfg = GatewayConfig::new(backends);
        GatewayCtx {
            cluster: Arc::new(ClusterState::new(&cfg)),
            retry_after_secs: cfg.serve.retry_after_secs,
            upstream_timeout: cfg.upstream_timeout,
            tune_timeout: cfg.tune_timeout,
            max_upstream_body: 1 << 20,
        }
    }

    /// A raw backend on a random port. It hangs up on its first `stale`
    /// connections at once (reporting each on the receiver), then answers
    /// one body-less request on each of the next `answered` connections
    /// with `200`, `hold` after reading it, and closes.
    fn raw_backend(
        stale: usize,
        answered: usize,
        hold: Duration,
    ) -> (String, Receiver<()>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (hung_up, hang_ups) = channel();
        let handle = std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(stale + answered).enumerate() {
                let mut conn = conn.unwrap();
                if i < stale {
                    drop(conn);
                    hung_up.send(()).unwrap();
                    continue;
                }
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                std::thread::sleep(hold);
                conn.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                )
                .unwrap();
            }
        });
        (addr, hang_ups, handle)
    }

    /// CPU time this thread has used, in ns (first field of its schedstat).
    fn thread_cpu_ns() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        stat.split_whitespace().next().unwrap().parse().unwrap()
    }

    #[test]
    fn a_flight_sleeps_while_its_backend_computes() {
        // A flight that left EPOLLOUT armed after writing its request
        // would wake on every epoll_wait and spin through the whole hold.
        let hold = Duration::from_millis(100);
        let (addr, _, backend) = raw_backend(0, 1, hold);
        let ctx = test_ctx(vec![addr.clone()]);
        let request = encode_request("GET", "/healthz", &addr, &[]);
        let (started, cpu_before) = (Instant::now(), thread_cpu_ns());
        let results = exchange_parallel(&ctx, vec![(0, request)], Duration::from_secs(5));
        let cpu = Duration::from_nanos(thread_cpu_ns() - cpu_before);
        assert_eq!(results[0].as_ref().unwrap().body, b"ok");
        assert!(started.elapsed() >= hold);
        assert!(
            cpu < Duration::from_millis(10),
            "{cpu:?} of CPU waiting {hold:?}"
        );
        backend.join().unwrap();
    }

    #[test]
    fn stale_pooled_connections_retry_fresh_without_a_failure() {
        // Three pooled connections the backend accepted and then closed:
        // one for a single request, two for a two-flight scatter.
        let (addr, hang_ups, backend) = raw_backend(3, 3, Duration::ZERO);
        let ctx = test_ctx(vec![addr.clone()]);
        for _ in 0..3 {
            pool_put(&addr, connect(&addr).unwrap());
            hang_ups.recv().unwrap();
        }
        let get = || encode_request("GET", "/healthz", &addr, &[]);
        let timeout = Duration::from_secs(5);
        assert_eq!(request_one(&ctx, 0, get(), timeout).unwrap().status, 200);
        for result in exchange_parallel(&ctx, vec![(0, get()), (0, get())], timeout) {
            assert_eq!(result.unwrap().status, 200);
        }
        let state = &ctx.cluster.backends[0];
        assert!(state.is_healthy());
        assert_eq!(state.consecutive_fails.load(Ordering::SeqCst), 0);
        assert_eq!(
            state.requests[UPSTREAM_ERR].get(),
            0,
            "a failure was recorded"
        );
        assert_eq!(state.requests[0].get(), 3);
        backend.join().unwrap();
    }

    #[test]
    fn chunk_bodies_match_the_serialized_predict_request() {
        for version in [None, Some(3)] {
            let parsed = PredictRequest {
                workload: "fmm-small".to_string(),
                kind: "hybrid".to_string(),
                version,
                rows: vec![vec![1.0, 2.5], vec![-3.0, 1e-9], vec![4.0, 0.1]],
            };
            let chunk = &parsed.rows[1..];
            let whole = PredictRequest {
                rows: chunk.to_vec(),
                ..parsed.clone()
            };
            let expected = serde_json::to_string(&whole).unwrap();
            assert_eq!(chunk_body(&parsed, chunk), expected.into_bytes());
        }
    }

    #[test]
    fn routing_fields_scan_without_full_parse() {
        let body = br#"{"workload":"fmm-small","kind":"hybrid","rows":[[1,2,3,4]]}"#;
        assert_eq!(
            scan_routing_fields(body),
            Some(("fmm-small".to_string(), "hybrid".to_string()))
        );
        // Whitespace tolerated.
        let spaced = br#"{ "workload" : "spmv-suite" , "kind" : "cart" }"#;
        assert_eq!(
            scan_routing_fields(spaced),
            Some(("spmv-suite".to_string(), "cart".to_string()))
        );
        // Escapes punt to the full parser.
        assert_eq!(
            scan_routing_fields(br#"{"workload":"a\"b","kind":"c"}"#),
            None
        );
        // Missing fields punt.
        assert_eq!(scan_routing_fields(br#"{"kind":"cart"}"#), None);
        assert_eq!(
            scan_routing_fields(br#"{"workload":1,"kind":"cart"}"#),
            None
        );
    }

    #[test]
    fn upstream_status_classes_partition() {
        assert_eq!(upstream_class(200), 0);
        assert_eq!(upstream_class(404), 1);
        assert_eq!(upstream_class(500), 2);
        assert_eq!(upstream_class(503), 2);
        assert_eq!(UPSTREAM_ERR, 3);
    }

    #[test]
    fn backend_health_ejects_and_recovers() {
        let b = BackendState::new("127.0.0.1:1".to_string());
        assert!(b.is_healthy());
        b.record_failure(3);
        b.record_failure(3);
        assert!(b.is_healthy(), "below threshold");
        b.record_failure(3);
        assert!(!b.is_healthy(), "ejected at threshold");
        b.record_probe_success(2);
        assert!(!b.is_healthy(), "one probe is not recovery");
        b.record_probe_success(2);
        assert!(b.is_healthy(), "recovered after threshold probes");
        // A success resets the failure streak.
        b.record_failure(3);
        b.record_response(200);
        b.record_failure(3);
        b.record_failure(3);
        assert!(b.is_healthy(), "streak was broken by the success");
    }
}
