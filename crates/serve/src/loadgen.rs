//! Load generation against a running `lam-serve` HTTP server: hammer
//! `/predict` from concurrent keep-alive connections and report
//! throughput plus p50/p90/p95/p99 latency.
//!
//! Three drive modes ([`LoadMode`]):
//!
//! * **closed** — each connection waits for a response before sending the
//!   next request; measures the server at the concurrency the client
//!   imposes.
//! * **pipeline(N)** — each connection keeps N requests in flight
//!   (HTTP/1.1 pipelining); exercises the reactor's per-connection
//!   in-order response queue and amortizes syscalls on both sides.
//! * **open-loop(R)** — requests are paced at R per second across all
//!   connections regardless of completions (bounded by a per-connection
//!   in-flight window so a stalled server cannot wedge the client);
//!   offered load beyond capacity shows up as rising latency and shed
//!   `503`s rather than a silently slowing client.
//!
//! `503` responses are tallied separately as `shed` — they are the
//! server's load-shedding contract working, not an error.
//!
//! Request bodies are prebuilt from a rotating pool of real feature rows
//! (drawn from the target workload's configuration space), so the server
//! answers them from the model's space table — the steady-state regime
//! the acceptance criterion measures.

use crate::http::{PredictRequest, PredictResponse};
use crate::persist::ModelKind;
use crate::workload::WorkloadId;
use crate::ServeError;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How requests are driven onto the connections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// One request in flight per connection (request–response lockstep).
    Closed,
    /// Keep this many requests in flight per connection (HTTP/1.1
    /// pipelining; responses are matched to sends in order).
    Pipeline(usize),
    /// Pace sends at this many requests per second across all
    /// connections, independent of completions.
    OpenLoop {
        /// Offered request rate, requests/second, across all connections.
        rps: f64,
    },
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadMode::Closed => write!(f, "closed"),
            LoadMode::Pipeline(n) => write!(f, "pipeline({n})"),
            LoadMode::OpenLoop { rps } => write!(f, "open-loop({rps:.0}/s)"),
        }
    }
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server addresses, `host:port` each. One entry is the classic
    /// single-server run; several entries spread connections across them
    /// round-robin (worker `i` pins to `addrs[i % addrs.len()]`) — used
    /// to drive a set of cluster backends directly, or compare against
    /// the gateway fronting them.
    pub addrs: Vec<String>,
    /// Workload whose model is queried.
    pub workload: WorkloadId,
    /// Model kind queried.
    pub kind: ModelKind,
    /// Artifact version queried.
    pub version: u32,
    /// Wall-clock run duration, seconds.
    pub seconds: f64,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Rows per `/predict` request.
    pub batch: usize,
    /// Distinct feature rows in the rotating pool.
    pub pool: usize,
    /// How requests are driven (closed loop, pipelined, or open loop).
    pub mode: LoadMode,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addrs: vec!["127.0.0.1:0".to_string()],
            workload: WorkloadId::get("fmm-small").expect("builtin fmm-small registered"),
            kind: ModelKind::Hybrid,
            version: 1,
            seconds: 3.0,
            connections: 4,
            batch: 64,
            pool: 256,
            mode: LoadMode::Closed,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Drive mode the run used (rendered [`LoadMode`]).
    pub mode: String,
    /// Requests completed successfully.
    pub requests: u64,
    /// Predictions returned (rows across all successful requests).
    pub predictions: u64,
    /// Requests answered `503` — the server shedding load as designed.
    pub shed: u64,
    /// Failed requests (transport or unexpected status).
    pub errors: u64,
    /// Measured wall-clock duration, seconds.
    pub elapsed_s: f64,
    /// Predictions per second.
    pub throughput: f64,
    /// Completed (2xx) requests per second.
    pub rps: f64,
    /// Sent requests per second — in open-loop mode the offered rate the
    /// pacer actually achieved; elsewhere equals completions + sheds +
    /// errors over elapsed.
    pub offered_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile request latency, microseconds.
    pub p90_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Fraction of predictions answered from the server's space table.
    pub cache_hit_fraction: f64,
    /// Per-target tallies, one row per distinct address driven (a single
    /// row for the classic one-server run).
    pub targets: Vec<TargetReport>,
}

/// Tallies for one driven address within a [`LoadReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetReport {
    /// The driven `host:port`.
    pub addr: String,
    /// Requests completed 2xx against this address.
    pub requests: u64,
    /// Requests answered `503` by this address.
    pub shed: u64,
    /// Failed requests against this address.
    pub errors: u64,
}

/// A keep-alive HTTP/1.1 client for one connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
}

impl HttpClient {
    /// Connect to `host:port`.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            host: addr.to_string(),
        })
    }

    /// Send a request and read the response; returns `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), ServeError> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Write a request without waiting for its response (pipelining);
    /// match sends to [`HttpClient::recv`] calls in order.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), ServeError> {
        self.send_traced(method, path, body, None)
    }

    /// [`HttpClient::send`] with an optional `x-lam-trace` header, for
    /// driving the distributed-tracing path from tests and benches.
    pub fn send_traced(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<&str>,
    ) -> Result<(), ServeError> {
        let trace_header = match trace {
            Some(value) => format!("x-lam-trace: {value}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n{trace_header}content-length: {}\r\n\r\n",
            self.host,
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next response off the connection; returns `(status, body)`.
    pub fn recv(&mut self) -> Result<(u16, String), ServeError> {
        self.read_response()
    }

    /// POST a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), ServeError> {
        self.request("POST", path, body)
    }

    /// GET a path.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), ServeError> {
        self.request("GET", path, "")
    }

    fn read_response(&mut self) -> Result<(u16, String), ServeError> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(ServeError::Http("server closed the connection".to_string()));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ServeError::Http(format!("bad status line `{}`", status_line.trim())))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(ServeError::Http("truncated response headers".to_string()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ServeError::Http("bad content-length".to_string()))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| ServeError::Http("response body is not utf-8".to_string()))
    }
}

/// A scraped label set (label name → value). Manual serde impls because
/// the vendored shim derives structs only — a JSON *object* with dynamic
/// keys needs `Value::Object` handled by hand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labels(pub BTreeMap<String, String>);

impl Labels {
    /// Value of label `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }
}

impl Serialize for Labels {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::String(v.clone())))
                .collect(),
        )
    }
}

impl Deserialize for Labels {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value {
            serde::Value::Null => Ok(Self::default()),
            serde::Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| match v {
                    serde::Value::String(s) => Ok((k.clone(), s.clone())),
                    other => Err(serde::DeError::expected("string", "Labels", other)),
                })
                .collect::<Result<_, _>>()
                .map(Self),
            other => Err(serde::DeError::expected("object", "Labels", other)),
        }
    }
}

/// One series from a `/metrics.json` scrape (counter or gauge value).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrapedValue {
    /// Metric family name.
    pub name: String,
    /// Label name → value.
    pub labels: Labels,
    /// Current value (gauges are scraped as their signed value).
    pub value: i64,
}

/// One histogram series from a `/metrics.json` scrape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrapedHistogram {
    /// Metric family name.
    pub name: String,
    /// Label name → value.
    pub labels: Labels,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample (server-computed).
    pub mean: f64,
    /// Estimated quantiles (server-computed; not delta-able — use
    /// `count`/`sum` deltas across two scrapes instead).
    pub p50: f64,
    /// 90th percentile estimate.
    pub p90: f64,
    /// 99th percentile estimate.
    pub p99: f64,
}

/// One parsed scrape of a server's `GET /metrics.json`. Two scrapes
/// bracket a load run; their counter/histogram-sum deltas attribute the
/// run's server-side time without any client-side guessing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsScrape {
    /// Counter series.
    pub counters: Vec<ScrapedValue>,
    /// Gauge series.
    pub gauges: Vec<ScrapedValue>,
    /// Histogram series.
    pub histograms: Vec<ScrapedHistogram>,
}

impl MetricsScrape {
    /// Scrape `GET /metrics.json` over `client`. Only `lam_`-prefixed
    /// families feed the breakdowns, so the scrape asks the server to
    /// filter server-side rather than shipping the whole registry.
    pub fn fetch(client: &mut HttpClient) -> Result<Self, ServeError> {
        let (status, body) = client.get("/metrics.json?prefix=lam_")?;
        if status != 200 {
            return Err(ServeError::Http(format!("/metrics.json returned {status}")));
        }
        serde_json::from_str(&body)
            .map_err(|e| ServeError::Http(format!("bad /metrics.json body: {e}")))
    }

    /// Sum of a counter family across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value.max(0) as u64)
            .sum()
    }

    /// Sum of a gauge family across all label sets (instantaneous, not
    /// delta-able).
    pub fn gauge_total(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|g| g.name == name)
            .map(|g| g.value)
            .sum()
    }

    /// Sum of a gauge family restricted to series carrying
    /// `label == value`.
    pub fn gauge_with_label(&self, name: &str, label: (&str, &str)) -> i64 {
        self.gauges
            .iter()
            .filter(|g| g.name == name)
            .filter(|g| g.labels.get(label.0).is_some_and(|v| v == label.1))
            .map(|g| g.value)
            .sum()
    }

    /// Value of a counter series with `label == value`, summed across any
    /// remaining labels.
    pub fn counter_with_label(&self, name: &str, label: (&str, &str)) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .filter(|c| c.labels.get(label.0).is_some_and(|v| v == label.1))
            .map(|c| c.value.max(0) as u64)
            .sum()
    }

    /// `(count, sum)` of a histogram family across all label sets,
    /// optionally restricted to series carrying `label == value`.
    pub fn histogram_totals(&self, name: &str, label: Option<(&str, &str)>) -> (u64, u64) {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .filter(|h| label.is_none_or(|(k, v)| h.labels.get(k).is_some_and(|lv| lv == v)))
            .fold((0, 0), |(c, s), h| (c + h.count, s + h.sum))
    }
}

/// The `/predict` phase names, in request order (must match the
/// server's `PhaseSet`).
const PREDICT_PHASES: [&str; 5] = ["parse", "validate", "resolve", "predict", "serialize"];

/// Render the server-side delta between two scrapes bracketing a load
/// run: request/cache totals, the mean time per `/predict` phase with
/// its share of phase time, and micro-batch shape.
pub fn format_server_breakdown(before: &MetricsScrape, after: &MetricsScrape) -> String {
    let delta = |name: &str| {
        after
            .counter_total(name)
            .saturating_sub(before.counter_total(name))
    };
    let hist_delta = |name: &str, label: Option<(&str, &str)>| {
        let (c0, s0) = before.histogram_totals(name, label);
        let (c1, s1) = after.histogram_totals(name, label);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    };
    let mean_us = |(count, sum_ns): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            sum_ns as f64 / count as f64 / 1_000.0
        }
    };

    let requests = delta("lam_requests_total");
    let hits = delta("lam_cache_hits_total");
    let misses = delta("lam_cache_misses_total");
    let lookups = hits + misses;
    let mut out = String::new();
    let _ = writeln!(out, "server-side breakdown (deltas over the run)");
    let _ = writeln!(out, "  requests served  {requests:>12}");
    let _ = writeln!(
        out,
        "  cache hits       {:>11.1}% ({hits}/{lookups})",
        if lookups == 0 {
            0.0
        } else {
            100.0 * hits as f64 / lookups as f64
        }
    );

    let phase_deltas: Vec<(&str, (u64, u64))> = PREDICT_PHASES
        .iter()
        .map(|&p| (p, hist_delta("lam_phase_duration_ns", Some(("phase", p)))))
        .collect();
    let phase_total_ns: u64 = phase_deltas.iter().map(|(_, (_, s))| s).sum();
    let _ = writeln!(out, "  /predict phases (mean per request)");
    for (phase, d) in &phase_deltas {
        let share = if phase_total_ns == 0 {
            0.0
        } else {
            100.0 * d.1 as f64 / phase_total_ns as f64
        };
        let _ = writeln!(
            out,
            "    {phase:<10} {:>10.1}us  {share:>5.1}%",
            mean_us(*d)
        );
    }

    let rows = hist_delta("lam_batch_rows", None);
    let wait = hist_delta("lam_batch_queue_wait_ns", None);
    let _ = writeln!(
        out,
        "  micro-batch rows {:>12.1} mean",
        if rows.0 == 0 {
            0.0
        } else {
            rows.1 as f64 / rows.0 as f64
        }
    );
    let _ = writeln!(out, "  queue wait       {:>10.1}us mean", mean_us(wait));

    // Event-driven serve core: how well cross-connection coalescing and
    // shedding worked over the run.
    let occupancy = hist_delta("lam_batch_occupancy", None);
    let _ = writeln!(
        out,
        "  batch occupancy  {:>12.2} mean requests/flush",
        if occupancy.0 == 0 {
            0.0
        } else {
            occupancy.1 as f64 / occupancy.0 as f64
        }
    );
    let shed = delta("lam_requests_shed_total");
    let _ = writeln!(out, "  requests shed    {shed:>12}");
    let _ = write!(
        out,
        "  connections open {:>12} (at scrape)",
        after.gauge_total("lam_connections_open")
    );
    out
}

/// Render the gateway-side delta between two scrapes of a *gateway's*
/// `/metrics.json` bracketing a load run: upstream requests per backend
/// (the shard-balance summary), backend liveness, and the `/predict`
/// fan-out shape. Complements [`format_server_breakdown`], which reads
/// the same scrape's serve-core families.
pub fn format_cluster_summary(before: &MetricsScrape, after: &MetricsScrape) -> String {
    const UPSTREAM: &str = "lam_gateway_upstream_requests_total";
    let mut backends: Vec<String> = after
        .counters
        .iter()
        .filter(|c| c.name == UPSTREAM)
        .filter_map(|c| c.labels.get("backend").map(str::to_string))
        .collect();
    backends.sort();
    backends.dedup();
    let mut out = String::new();
    let _ = writeln!(out, "gateway breakdown (deltas over the run)");
    if backends.is_empty() {
        let _ = write!(out, "  no gateway upstream series found in the scrape");
        return out;
    }
    let mut totals: Vec<(String, u64, u64)> = Vec::with_capacity(backends.len());
    for backend in backends {
        let per_class = |class: &str| {
            let sel = |s: &MetricsScrape| {
                s.counters
                    .iter()
                    .filter(|c| c.name == UPSTREAM)
                    .filter(|c| c.labels.get("backend").is_some_and(|v| v == backend))
                    .filter(|c| c.labels.get("status").is_some_and(|v| v == class))
                    .map(|c| c.value.max(0) as u64)
                    .sum::<u64>()
            };
            sel(after).saturating_sub(sel(before))
        };
        let ok = per_class("2xx");
        let bad = per_class("4xx") + per_class("5xx") + per_class("err");
        totals.push((backend, ok, bad));
    }
    let grand: u64 = totals.iter().map(|(_, ok, _)| ok).sum();
    for (backend, ok, bad) in &totals {
        let share = if grand == 0 {
            0.0
        } else {
            100.0 * *ok as f64 / grand as f64
        };
        let healthy = after.gauge_with_label("lam_gateway_backend_healthy", ("backend", backend));
        let _ = writeln!(
            out,
            "  {backend:<21} {ok:>10} upstream 2xx ({share:>5.1}%), {bad} non-2xx/err, healthy={healthy}"
        );
    }
    let fan = |s: &MetricsScrape| s.histogram_totals("lam_gateway_fanout_size", None);
    let (fc0, fs0) = fan(before);
    let (fc1, fs1) = fan(after);
    let (fc, fs) = (fc1.saturating_sub(fc0), fs1.saturating_sub(fs0));
    let _ = write!(
        out,
        "  /predict fan-out   {:>10.2} mean subrequests ({fc} fanned requests)",
        if fc == 0 { 0.0 } else { fs as f64 / fc as f64 }
    );
    out
}

/// Latency percentile over raw sorted samples: linear interpolation
/// between the two bracketing ranks, delegating to the `u64`-native
/// [`lam_data::stats::percentile_sorted_u64`] — no `f64` copy of the
/// sample is ever allocated, no matter how many percentiles a report
/// queries. Returns 0 for an empty sample.
pub fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    lam_data::stats::percentile_sorted_u64(sorted, q)
}

/// Prebuilt request bodies rotating through the feature-row pool.
fn build_bodies(opts: &LoadgenOptions) -> Vec<String> {
    let pool = opts.workload.sample_rows(opts.pool.max(opts.batch));
    let n_bodies = (pool.len() / opts.batch).max(1);
    (0..n_bodies)
        .map(|i| {
            let start = i * opts.batch;
            let rows: Vec<Vec<f64>> = (0..opts.batch)
                .map(|j| pool[(start + j) % pool.len()].clone())
                .collect();
            serde_json::to_string(&PredictRequest {
                workload: opts.workload.to_string(),
                kind: opts.kind.to_string(),
                version: Some(opts.version),
                rows,
            })
            .expect("request serializes")
        })
        .collect()
}

/// Per-connection tallies.
#[derive(Default)]
struct WorkerStats {
    latencies_us: Vec<u64>,
    predictions: u64,
    cache_hits: u64,
    shed: u64,
    errors: u64,
    offered: u64,
}

impl WorkerStats {
    /// Classify one response: 2xx with a parseable body counts with its
    /// latency, 503 is the server shedding (by design, not an error),
    /// anything else is an error.
    fn tally(&mut self, status: u16, body: &str, sent: Instant) {
        match status {
            200 => match serde_json::from_str::<PredictResponse>(body) {
                Ok(r) => {
                    self.latencies_us.push(sent.elapsed().as_micros() as u64);
                    self.predictions += r.predictions.len() as u64;
                    self.cache_hits += r.cache_hits;
                }
                Err(_) => self.errors += 1,
            },
            503 => self.shed += 1,
            _ => self.errors += 1,
        }
    }
}

/// Closed loop: request–response lockstep per connection.
fn drive_closed(
    client: &mut HttpClient,
    bodies: &[String],
    mut i: usize,
    deadline: Duration,
    stats: &mut WorkerStats,
) -> Result<(), ServeError> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let body = &bodies[i % bodies.len()];
        i += 1;
        let sent = Instant::now();
        stats.offered += 1;
        let (status, response) = client.request("POST", "/predict", body)?;
        stats.tally(status, &response, sent);
    }
    Ok(())
}

/// Pipelined: keep `depth` requests in flight, matching responses to
/// sends in order (the reactor guarantees in-order responses per
/// connection).
fn drive_pipelined(
    client: &mut HttpClient,
    bodies: &[String],
    mut i: usize,
    deadline: Duration,
    depth: usize,
    stats: &mut WorkerStats,
) -> Result<(), ServeError> {
    let start = Instant::now();
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
    while in_flight.len() < depth {
        let sent = Instant::now();
        client.send("POST", "/predict", &bodies[i % bodies.len()])?;
        i += 1;
        stats.offered += 1;
        in_flight.push_back(sent);
    }
    while start.elapsed() < deadline {
        let (status, response) = client.recv()?;
        let sent = in_flight.pop_front().expect("a response implies a send");
        stats.tally(status, &response, sent);
        let sent = Instant::now();
        client.send("POST", "/predict", &bodies[i % bodies.len()])?;
        i += 1;
        stats.offered += 1;
        in_flight.push_back(sent);
    }
    // Drain the tail so the connection closes clean and every send is
    // accounted.
    while let Some(sent) = in_flight.pop_front() {
        let (status, response) = client.recv()?;
        stats.tally(status, &response, sent);
    }
    Ok(())
}

/// Largest per-connection in-flight window the open-loop pacer allows.
/// Bounds client memory and keeps request bytes small enough that a
/// send can never block against an unread response backlog (which would
/// deadlock a single-threaded paced sender against a pipelining server).
const OPEN_LOOP_WINDOW: usize = 64;

/// Open loop: send on a fixed schedule (`interval` between sends)
/// regardless of completions, up to [`OPEN_LOOP_WINDOW`] outstanding.
/// When the window is full the pacer must block on a response first —
/// offered load beyond that shows up in `offered_rps` falling short of
/// the requested rate.
fn drive_open_loop(
    client: &mut HttpClient,
    bodies: &[String],
    mut i: usize,
    deadline: Duration,
    interval: Duration,
    stats: &mut WorkerStats,
) -> Result<(), ServeError> {
    let start = Instant::now();
    let mut next_send = start;
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    while start.elapsed() < deadline {
        let now = Instant::now();
        if now >= next_send && in_flight.len() < OPEN_LOOP_WINDOW {
            let sent = Instant::now();
            client.send("POST", "/predict", &bodies[i % bodies.len()])?;
            i += 1;
            stats.offered += 1;
            in_flight.push_back(sent);
            next_send += interval;
            continue;
        }
        if in_flight.is_empty() {
            // Ahead of schedule with nothing outstanding: sleep to the
            // next slot (capped so the deadline check stays responsive).
            let wait = next_send
                .saturating_duration_since(now)
                .min(Duration::from_millis(50));
            std::thread::sleep(wait);
            continue;
        }
        let (status, response) = client.recv()?;
        let sent = in_flight.pop_front().expect("in_flight is non-empty");
        stats.tally(status, &response, sent);
    }
    while let Some(sent) = in_flight.pop_front() {
        let (status, response) = client.recv()?;
        stats.tally(status, &response, sent);
    }
    Ok(())
}

/// Run the load and aggregate a [`LoadReport`].
///
/// The first request per connection is an untimed warm-up (it may train
/// or load the model server-side, which can take seconds on a cold
/// registry); a barrier then opens the timed window simultaneously for
/// every connection, so warm-up cost never lands in the throughput
/// denominator.
pub fn run(opts: &LoadgenOptions) -> Result<LoadReport, ServeError> {
    if opts.addrs.is_empty() {
        return Err(ServeError::Http(
            "loadgen needs at least one address".to_string(),
        ));
    }
    let bodies = build_bodies(opts);
    let deadline = Duration::from_secs_f64(opts.seconds);
    let connections = opts.connections.max(1);
    let mode = opts.mode;
    let barrier = std::sync::Barrier::new(connections);
    let results: Vec<(String, WorkerStats, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let bodies = &bodies;
                let addr = opts.addrs[worker % opts.addrs.len()].clone();
                let barrier = &barrier;
                scope.spawn(move || -> Result<(String, WorkerStats, f64), ServeError> {
                    // Connect + warm-up, then *always* reach the barrier
                    // (an early return here would deadlock the others).
                    let setup = (|| -> Result<HttpClient, ServeError> {
                        let mut client = HttpClient::connect(&addr)?;
                        let _ = client.post("/predict", &bodies[worker % bodies.len()])?;
                        Ok(client)
                    })();
                    barrier.wait();
                    let mut client = setup?;
                    let mut stats = WorkerStats::default();
                    let start = Instant::now();
                    match mode {
                        LoadMode::Closed => {
                            drive_closed(&mut client, bodies, worker, deadline, &mut stats)?
                        }
                        LoadMode::Pipeline(depth) => drive_pipelined(
                            &mut client,
                            bodies,
                            worker,
                            deadline,
                            depth.max(1),
                            &mut stats,
                        )?,
                        LoadMode::OpenLoop { rps } => {
                            // Split the offered rate across connections.
                            let per_conn = (rps / connections as f64).max(1e-3);
                            drive_open_loop(
                                &mut client,
                                bodies,
                                worker,
                                deadline,
                                Duration::from_secs_f64(1.0 / per_conn),
                                &mut stats,
                            )?
                        }
                    }
                    Ok((addr, stats, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    // The timed windows start together at the barrier; the run's elapsed
    // time is the longest window.
    let elapsed_s = results
        .iter()
        .map(|(_, _, e)| *e)
        .fold(f64::MIN_POSITIVE, f64::max);

    let mut latencies: Vec<u64> = Vec::new();
    let mut predictions = 0u64;
    let mut cache_hits = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut offered = 0u64;
    let mut per_target: BTreeMap<String, TargetReport> = BTreeMap::new();
    for (addr, s, _) in results {
        let t = per_target.entry(addr.clone()).or_insert(TargetReport {
            addr,
            requests: 0,
            shed: 0,
            errors: 0,
        });
        t.requests += s.latencies_us.len() as u64;
        t.shed += s.shed;
        t.errors += s.errors;
        latencies.extend(s.latencies_us);
        predictions += s.predictions;
        cache_hits += s.cache_hits;
        shed += s.shed;
        errors += s.errors;
        offered += s.offered;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    Ok(LoadReport {
        mode: mode.to_string(),
        requests,
        predictions,
        shed,
        errors,
        elapsed_s,
        throughput: predictions as f64 / elapsed_s,
        rps: requests as f64 / elapsed_s,
        offered_rps: offered as f64 / elapsed_s,
        p50_us: percentile_us(&latencies, 0.50),
        p90_us: percentile_us(&latencies, 0.90),
        p95_us: percentile_us(&latencies, 0.95),
        p99_us: percentile_us(&latencies, 0.99),
        cache_hit_fraction: if predictions == 0 {
            0.0
        } else {
            cache_hits as f64 / predictions as f64
        },
        targets: per_target.into_values().collect(),
    })
}

/// Render a report as an aligned human-readable block. Runs spanning
/// several addresses get a per-target breakdown appended.
pub fn format_report(r: &LoadReport) -> String {
    let mut out = format!(
        "mode          {:>12}\n\
         requests      {:>12}\n\
         predictions   {:>12}\n\
         shed (503)    {:>12}\n\
         errors        {:>12}\n\
         elapsed       {:>11.2}s\n\
         throughput    {:>12.0} predictions/s\n\
         request rate  {:>12.0} req/s\n\
         offered rate  {:>12.0} req/s\n\
         latency p50   {:>11.0}us\n\
         latency p90   {:>11.0}us\n\
         latency p95   {:>11.0}us\n\
         latency p99   {:>11.0}us\n\
         cache hits    {:>11.1}%",
        r.mode,
        r.requests,
        r.predictions,
        r.shed,
        r.errors,
        r.elapsed_s,
        r.throughput,
        r.rps,
        r.offered_rps,
        r.p50_us,
        r.p90_us,
        r.p95_us,
        r.p99_us,
        100.0 * r.cache_hit_fraction
    );
    if r.targets.len() > 1 {
        let _ = write!(out, "\nper-target requests");
        for t in &r.targets {
            let _ = write!(
                out,
                "\n  {:<21} {:>12} (shed {}, errors {})",
                t.addr, t.requests, t.shed, t.errors
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_like_lam_data() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50.5);
        assert_eq!(percentile_us(&sorted, 0.0), 1.0);
        assert_eq!(percentile_us(&sorted, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
        // Bit-identical to the lam-data implementation it delegates to.
        let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
        for q in [0.25, 0.5, 0.95, 0.99] {
            assert_eq!(
                percentile_us(&sorted, q),
                lam_data::stats::percentile_sorted(&as_f64, q)
            );
        }
    }

    #[test]
    fn bodies_rotate_the_pool() {
        let opts = LoadgenOptions {
            batch: 8,
            pool: 32,
            ..LoadgenOptions::default()
        };
        let bodies = build_bodies(&opts);
        assert_eq!(bodies.len(), 4);
        // All bodies parse back and carry `batch` rows each.
        for b in &bodies {
            let req: PredictRequest = serde_json::from_str(b).unwrap();
            assert_eq!(req.rows.len(), 8);
            assert_eq!(req.workload, "fmm-small");
        }
        assert_ne!(bodies[0], bodies[1]);
    }

    #[test]
    fn scrape_parses_and_breakdown_uses_deltas() {
        let before: MetricsScrape = serde_json::from_str(
            r#"{"counters":[
                 {"name":"lam_requests_total","labels":{"endpoint":"predict","status":"2xx"},"value":10},
                 {"name":"lam_cache_hits_total","labels":{"scope":"a"},"value":100},
                 {"name":"lam_cache_misses_total","labels":{"scope":"a"},"value":100}],
                "gauges":[],
                "histograms":[
                 {"name":"lam_phase_duration_ns","labels":{"endpoint":"predict","phase":"predict"},
                  "count":10,"sum":10000,"max":2000,"mean":1000.0,"p50":900.0,"p90":1800.0,"p99":2000.0}]}"#,
        )
        .unwrap();
        let after: MetricsScrape = serde_json::from_str(
            r#"{"counters":[
                 {"name":"lam_requests_total","labels":{"endpoint":"predict","status":"2xx"},"value":30},
                 {"name":"lam_requests_total","labels":{"endpoint":"healthz","status":"2xx"},"value":2},
                 {"name":"lam_cache_hits_total","labels":{"scope":"a"},"value":400},
                 {"name":"lam_cache_misses_total","labels":{"scope":"a"},"value":200}],
                "gauges":[],
                "histograms":[
                 {"name":"lam_phase_duration_ns","labels":{"endpoint":"predict","phase":"predict"},
                  "count":30,"sum":50000,"max":4000,"mean":1666.0,"p50":900.0,"p90":1800.0,"p99":2000.0}]}"#,
        )
        .unwrap();
        assert_eq!(before.counter_total("lam_requests_total"), 10);
        assert_eq!(after.counter_total("lam_requests_total"), 32);
        assert_eq!(
            after.histogram_totals("lam_phase_duration_ns", Some(("phase", "predict"))),
            (30, 50000)
        );
        let text = format_server_breakdown(&before, &after);
        // 32 - 10 requests; 300 hits of 400 lookups; predict-phase mean
        // (50000-10000)/(30-10) = 2000ns = 2.0us, 100% of phase time.
        assert!(text.contains("requests served"), "{text}");
        assert!(text.contains("22"), "{text}");
        assert!(text.contains("75.0% (300/400)"), "{text}");
        assert!(text.contains("2.0us"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn report_formats() {
        let r = LoadReport {
            mode: LoadMode::Pipeline(8).to_string(),
            requests: 10,
            predictions: 640,
            shed: 3,
            errors: 0,
            elapsed_s: 1.0,
            throughput: 640.0,
            rps: 10.0,
            offered_rps: 13.0,
            p50_us: 100.0,
            p90_us: 180.0,
            p95_us: 200.0,
            p99_us: 300.0,
            cache_hit_fraction: 0.5,
            targets: vec![
                TargetReport {
                    addr: "127.0.0.1:9001".to_string(),
                    requests: 6,
                    shed: 2,
                    errors: 0,
                },
                TargetReport {
                    addr: "127.0.0.1:9002".to_string(),
                    requests: 4,
                    shed: 1,
                    errors: 0,
                },
            ],
        };
        let s = format_report(&r);
        assert!(s.contains("throughput"));
        assert!(s.contains("640 predictions/s"));
        assert!(s.contains("pipeline(8)"));
        assert!(s.contains("shed (503)"));
        assert!(s.contains("p90"));
        assert!(s.contains("per-target requests"), "{s}");
        assert!(s.contains("127.0.0.1:9002"), "{s}");
        let back: LoadReport = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.requests, 10);
        assert_eq!(back.shed, 3);
        assert_eq!(back.mode, "pipeline(8)");
    }

    #[test]
    fn load_modes_render_for_reports() {
        assert_eq!(LoadMode::Closed.to_string(), "closed");
        assert_eq!(LoadMode::Pipeline(32).to_string(), "pipeline(32)");
        assert_eq!(
            LoadMode::OpenLoop { rps: 2500.0 }.to_string(),
            "open-loop(2500/s)"
        );
    }
}
