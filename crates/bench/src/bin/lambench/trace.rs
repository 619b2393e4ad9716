//! `lambench trace`: the per-layer ledger, measured outside-in.
//!
//! A traced run starts the workload's servers like `run` does, drives a
//! shorter load phase (for the server-side counters), probes round trips
//! over real sockets, and then *replays* the workload's seeded request
//! stream in-process through the serving layers' public functions — each
//! request a root span with one child span per layer call, in the order
//! `handle_predict` runs them. Spans are recorded by this file around the
//! calls, never inside the program, so tracing cannot change what `run`
//! measures. All spans stay in memory and are written at the end with a
//! per-layer summary (count, p50, p99, self time) and the ledger: how much
//! of the client's round trip the replayed layers account for.

use crate::child::Child;
use crate::client::Conn;
use crate::gen;
use crate::load::Tally;
use crate::report::{Host, Metric, RunFile, WorkloadReport};
use crate::stats;
use crate::workloads::{Counters, Inputs, Maker, Session, Workload};
use lam_analytical::traits::AnalyticalModel;
use lam_core::batch::{BatchScheduler, BatchTarget, SchedulerOptions};
use lam_core::hybrid::HybridModel;
use lam_core::predict::PredictRow;
use lam_ml::forest::ExtraTreesRegressor;
use lam_ml::model::Regressor;
use lam_ml::rng::Xoshiro256;
use lam_ml::tree::TreeParams;
use lam_serve::http::{PredictRequest, PredictResponse, TuneHttpRequest, TuneHttpResponse};
use lam_serve::persist::{ModelKind, SavedModel};
use lam_serve::proto::{encode_response, ParseStep, RequestParser};
use lam_serve::registry::{LoadedModel, ModelKey, ModelRegistry};
use lam_serve::route::HashRing;
use lam_serve::workload::WorkloadId;
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prediction rows the predict-path replay covers (fewer requests for
/// wider ones), within these request bounds.
const REPLAY_ROWS: usize = 256 << 10;
const REPLAY_MIN: usize = 500;
const REPLAY_MAX: usize = 4000;
/// Alternated direct/gateway round-trip pairs.
const HOP_PAIRS: usize = 400;
/// `GET /healthz` round trips.
const HEALTHZ_RTTS: usize = 400;
/// Scheduler submissions per producer thread (2 threads → 1200 samples,
/// enough for a p99 with 10 beyond it).
const SCHED_PER_THREAD: usize = 600;
/// Single-connection `/tune` round trips and in-process `/tune` replays.
const TUNE_REPLAYS: usize = 20;
/// Repetitions of the set-up layers (each is tens of milliseconds).
const SETUP_REPS: usize = 5;
/// `tune.round` decompositions.
const ROUNDS: usize = 5;
/// Rows at or above this skip the scheduler in the server (they predict
/// directly on the handler thread).
const DIRECT_BATCH_ROWS: usize = lam_core::batch::DEFAULT_MICRO_BATCH;
/// Request-number offsets that keep the replayed and probed off-grid rows
/// disjoint from what the servers and the in-process cache have seen (a
/// run sends well under a million off-grid requests).
const REPLAY_OFFSET: u64 = 1_000_000;
const PROBE_OFFSET: u64 = 2_000_000;
const SCHED_OFFSET: u64 = 3_000_000;

/// One recorded span. `parent` 0 marks a root.
#[derive(Debug, Serialize)]
pub struct Span {
    /// Layer name.
    pub name: String,
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the tracer and the new span's id (for children).
    fn span<T>(&mut self, name: &str, parent: u64, f: impl FnOnce(&mut Self, u64) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        self.record(name, id, parent, start, end);
        out
    }

    fn record(&mut self, name: &str, id: u64, parent: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Record a span measured elsewhere (another thread).
    fn root(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        self.record(name, id, 0, start, end);
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Overlapping children are merged first, so concurrent
/// children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-layer summary of a trace.
#[derive(Debug, Serialize)]
pub struct Layer {
    /// Span name.
    pub name: String,
    /// Spans of this name.
    pub count: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
    /// 99th-percentile duration, ns (`None` with fewer than 10 beyond).
    pub p99_ns: Option<f64>,
    /// Median self time, ns.
    pub self_p50_ns: f64,
    /// The end-to-end metric a change to this layer should move.
    pub moves: String,
    /// The workloads it should move it on (and, in parentheses, where it
    /// should barely matter).
    pub on: String,
}

/// Which end-to-end metric each layer maps to, and on which workload.
const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("proto.parse", "ops_per_s", "hot-b1 (miss-b256)"),
    ("http.decode", "rows_per_s", "miss-b256"),
    ("batch.validate", "rows_per_s", "miss-b256"),
    ("registry.get", "p50_ms", "hot-b1"),
    (
        "engine.predict",
        "rows_per_s",
        "hot-b1, gateway-b64, miss-b256",
    ),
    ("scheduler.wait", "p50_ms, tail_ms", "hot-b1 (miss-b256)"),
    ("http.encode", "rows_per_s", "miss-b256"),
    ("proto.encode", "ops_per_s", "hot-b1 (miss-b256)"),
    ("hybrid.predict", "rows_per_s", "miss-b256 (hot-b1)"),
    ("analytical.predict", "rows_per_s", "miss-b256"),
    ("route.candidates", "p50_ms", "gateway-b64"),
    ("catalog.sweep", "setup_s", "all"),
    ("registry.train", "setup_s", "all"),
    ("persist.save", "setup_s", "all"),
    ("persist.load", "setup_s", "gateway-b64"),
    ("tune.decode", "ops_per_s, p50_ms", "tune-mix"),
    ("tune.active", "ops_per_s, p50_ms", "tune-mix (hot-b1)"),
    ("tune.encode", "ops_per_s, p50_ms", "tune-mix"),
    ("tune.measure", "ops_per_s, p50_ms", "tune-mix (hot-b1)"),
    ("tune.fit", "ops_per_s, p50_ms", "tune-mix (hot-b1)"),
    ("tune.score", "ops_per_s, p50_ms", "tune-mix (hot-b1)"),
];

fn summarize(spans: &[Span]) -> Vec<Layer> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for s in spans {
        let slot = match by_name.iter().position(|(n, _, _)| *n == s.name) {
            Some(i) => i,
            None => {
                by_name.push((s.name.clone(), Vec::new(), Vec::new()));
                by_name.len() - 1
            }
        };
        by_name[slot].1.push((s.end_ns - s.start_ns) as f64);
        by_name[slot].2.push(selfs[&s.id] as f64);
    }
    by_name
        .into_iter()
        .map(|(name, durations, selfs)| {
            let d = stats::sorted(&durations);
            let (moves, on) = LAYER_MAP
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(("-", "-"), |&(_, m, o)| (m, o));
            Layer {
                count: d.len() as u64,
                p50_ns: stats::percentile(&d, 0.5).unwrap_or(f64::NAN),
                p99_ns: stats::tail_percentile(&d, 0.99),
                self_p50_ns: stats::median(&selfs),
                moves: moves.to_string(),
                on: on.to_string(),
                name,
            }
        })
        .collect()
}

/// How much of the client round trip the replayed layers explain.
#[derive(Debug, Serialize)]
pub struct Ledger {
    /// Single-connection client round trip (p50), µs.
    pub rtt_us: f64,
    /// The layers summed (their p50s), in request order.
    pub path: Vec<String>,
    /// Σ of those p50s, µs.
    pub accounted_us: f64,
    /// `(rtt − accounted) / rtt`, percent: transport, queueing between
    /// layers, and whatever the replay does not model.
    pub unaccounted_pct: f64,
    /// The path layer with the largest median self time.
    pub top_layer: String,
    /// Its median self time, µs.
    pub top_self_us: f64,
}

/// The trace part of one workload's traced run.
#[derive(Debug, Serialize)]
pub struct TraceDetail {
    /// Workload name.
    pub workload: String,
    /// Every span, in completion order.
    pub spans: Vec<Span>,
    /// Per-layer summaries.
    pub layers: Vec<Layer>,
    /// The round-trip reconciliation.
    pub ledger: Ledger,
}

#[derive(Serialize)]
struct TraceFile {
    host: Host,
    workloads: Vec<WorkloadReport>,
    traces: Vec<TraceDetail>,
}

/// The trace file: the run file's fields plus every workload's trace,
/// compact (tens of thousands of spans).
pub fn file_json(file: RunFile, traces: Vec<TraceDetail>) -> Result<String, String> {
    serde_json::to_string(&TraceFile {
        host: file.host,
        workloads: file.workloads,
        traces,
    })
    .map_err(|e| e.to_string())
}

/// Round trips measured over real sockets.
struct Probes {
    healthz_us: Vec<f64>,
    direct_us: Vec<f64>,
    gateway_us: Vec<f64>,
    tune_us: Vec<f64>,
    tally: Tally,
}

fn timed_exchange(conn: &mut Conn, request: &[u8], tally: &mut Tally) -> Result<f64, String> {
    let started = Instant::now();
    let status = conn.exchange(request).map_err(|e| e.to_string())?;
    let us = started.elapsed().as_secs_f64() * 1e6;
    tally.record(status);
    if status == 200 {
        Ok(us)
    } else {
        Err(format!("probe answered {status}"))
    }
}

/// The rows of probe request `i`: the workload's own request, off-grid
/// ones from a range no other phase sends.
fn probe_rows(w: Workload, maker: &Maker<'_>, i: u64, grid: &[Vec<f64>]) -> Vec<Vec<f64>> {
    match w {
        Workload::MissB256 => maker.rows(PROBE_OFFSET + i, grid),
        _ => maker.rows(i, grid),
    }
}

fn probes(s: &Session<'_>, w: Workload, predict: &Maker<'_>) -> Result<Probes, String> {
    let mut p = Probes {
        healthz_us: Vec::new(),
        direct_us: Vec::new(),
        gateway_us: Vec::new(),
        tune_us: Vec::new(),
        tally: Tally::default(),
    };
    let direct_addr = &s.cluster.backends[0].addr;
    // Workloads without a gateway get one over backend A for the probe.
    let probe_gateway;
    let gateway = match &s.cluster.gateway {
        Some(g) => g,
        None => {
            probe_gateway = Child::gateway(&[direct_addr], 1)?;
            &probe_gateway
        }
    };
    let mut front = Conn::connect(s.cluster.front()).map_err(|e| e.to_string())?;
    let healthz = gen::get("/healthz");
    for _ in 0..HEALTHZ_RTTS {
        p.healthz_us
            .push(timed_exchange(&mut front, &healthz, &mut p.tally)?);
    }
    let mut direct = Conn::connect(direct_addr).map_err(|e| e.to_string())?;
    let mut via = Conn::connect(&gateway.addr).map_err(|e| e.to_string())?;
    let (mut body, mut framed) = (Vec::new(), Vec::new());
    for k in 0..HOP_PAIRS as u64 {
        let rows = probe_rows(w, predict, k, &s.inp.grid);
        gen::predict_body(&rows, &mut body);
        gen::post("/predict", &body, &mut framed);
        // Alternate which side goes first, so drift hits both equally.
        if k % 2 == 0 {
            p.direct_us
                .push(timed_exchange(&mut direct, &framed, &mut p.tally)?);
            p.gateway_us
                .push(timed_exchange(&mut via, &framed, &mut p.tally)?);
        } else {
            p.gateway_us
                .push(timed_exchange(&mut via, &framed, &mut p.tally)?);
            p.direct_us
                .push(timed_exchange(&mut direct, &framed, &mut p.tally)?);
        }
    }
    if w == Workload::TuneMix {
        for i in 0..TUNE_REPLAYS as u64 {
            gen::tune_body(gen::tune_seed(s.inp.seed, PROBE_OFFSET + i), &mut body);
            gen::post("/tune", &body, &mut framed);
            p.tune_us
                .push(timed_exchange(&mut front, &framed, &mut p.tally)?);
        }
    }
    Ok(p)
}

/// The in-process model the replay calls, in the cache state the
/// workload keeps the server in.
fn in_process_model(
    w: Workload,
    inp: &Inputs,
    maker: &Maker<'_>,
    key: ModelKey,
) -> Result<(ModelRegistry, Arc<LoadedModel>), String> {
    let registry = ModelRegistry::new(inp.work.join("trace-models"));
    let model = registry.get(key).map_err(|e| e.to_string())?;
    if w == Workload::MissB256 {
        // Overfill the cache exactly as the server's warm-up does.
        for i in 0..crate::workloads::FILL_REQUESTS {
            model
                .predict_checked(&maker.rows(i, &inp.grid))
                .map_err(|e| e.to_string())?;
        }
    } else {
        model
            .predict_checked(&inp.grid)
            .map_err(|e| e.to_string())?;
    }
    Ok((registry, model))
}

/// Replay the workload's predict stream through the serving layers.
fn replay_predict(
    t: &mut Tracer,
    w: Workload,
    inp: &Inputs,
    maker: &Maker<'_>,
    registry: &ModelRegistry,
    key: ModelKey,
    reference: &dyn PredictRow,
) -> Result<usize, String> {
    let am = key.workload.analytical_model();
    let (mut body, mut framed) = (Vec::new(), Vec::new());
    let first = replay_rows(w, maker, 0, &inp.grid).len();
    let requests = (REPLAY_ROWS / first.max(1)).clamp(REPLAY_MIN, REPLAY_MAX);
    for i in 0..requests as u64 {
        let rows = replay_rows(w, maker, i, &inp.grid);
        gen::predict_body(&rows, &mut body);
        gen::post("/predict", &body, &mut framed);
        let mut parser = RequestParser::new(8 << 20);
        let predictions = t.span("request", 0, |t, root| -> Result<Vec<f64>, String> {
            let req = t.span("proto.parse", root, |_, _| match parser.poll(&mut framed) {
                ParseStep::Request(req) => Ok(req),
                _ => Err("replayed request did not parse".to_string()),
            })?;
            let parsed: PredictRequest = t.span("http.decode", root, |_, _| {
                std::str::from_utf8(&req.body)
                    .map_err(|e| e.to_string())
                    .and_then(|b| serde_json::from_str(b).map_err(|e| e.to_string()))
            })?;
            t.span("batch.validate", root, |_, _| {
                lam_serve::batch::validate_rows(key.workload.n_features(), &parsed.rows)
            })
            .map_err(|e| e.to_string())?;
            let model = t
                .span("registry.get", root, |_, _| registry.get(key))
                .map_err(|e| e.to_string())?;
            let outcome = t
                .span("engine.predict", root, |_, _| {
                    model.predict_checked(&parsed.rows)
                })
                .map_err(|e| e.to_string())?;
            let predictions = outcome.predictions.clone();
            let json = t
                .span("http.encode", root, |_, _| {
                    serde_json::to_string(&PredictResponse {
                        model: key.to_string(),
                        predictions: outcome.predictions,
                        cache_hits: outcome.cache_hits,
                        micros: 0,
                    })
                })
                .map_err(|e| e.to_string())?;
            t.span("proto.encode", root, |_, _| {
                black_box(encode_response(
                    200,
                    "application/json",
                    json.as_bytes(),
                    true,
                    None,
                ))
            });
            Ok(predictions)
        })?;
        // The replay must compute what the server serves.
        if i < 8 {
            let want = reference.predict_rows(&rows);
            if predictions
                .iter()
                .zip(&want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("replayed request {i} disagrees with the artifact"));
            }
        }
        t.span("hybrid.predict", 0, |_, _| {
            black_box(reference.predict_rows(&rows))
        });
        t.span("analytical.predict", 0, |_, _| {
            black_box(rows.iter().map(|r| am.predict(r)).sum::<f64>())
        });
    }
    Ok(first)
}

/// The rows a backend predicts for replayed request `i`.
fn replay_rows(w: Workload, maker: &Maker<'_>, i: u64, grid: &[Vec<f64>]) -> Vec<Vec<f64>> {
    match w {
        Workload::MissB256 => maker.rows(REPLAY_OFFSET + i, grid),
        // Each 64-row request reaches a backend as one of two 32-row legs.
        Workload::GatewayB64 => maker.rows(i, grid)[..gen::GATEWAY_ROWS / 2].to_vec(),
        _ => maker.rows(i, grid),
    }
}

/// Two producer threads submit the replay's rows through a
/// `BatchScheduler`, holding producer hints as the server's handlers do.
/// Each wait (submit → completion) becomes a `scheduler.wait` span; returns
/// the mean occupancy (submissions per executed batch).
fn scheduler_waits(
    t: &mut Tracer,
    w: Workload,
    inp: &Inputs,
    maker: &Maker<'_>,
    model: &Arc<LoadedModel>,
) -> Result<f64, String> {
    let occupancy = || {
        lam_obs::global()
            .histogram("lam_batch_occupancy", "", &[("scope", "sched")])
            .snapshot()
    };
    let before = occupancy();
    let sched = BatchScheduler::new(SchedulerOptions::default());
    let target: Arc<dyn BatchTarget> = model.clone();
    let waits: Vec<Result<Vec<(Instant, Instant)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|thread| {
                let (sched, target) = (&sched, &target);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(SCHED_PER_THREAD);
                    for k in 0..SCHED_PER_THREAD as u64 {
                        let i = SCHED_OFFSET + 2 * k + thread;
                        let rows = replay_rows(w, maker, i, &inp.grid);
                        let hint = sched.producer_hint();
                        let permit = sched
                            .try_reserve(rows.len())
                            .map_err(|e| format!("scheduler refused: {e}"))?;
                        let (tx, rx) = std::sync::mpsc::channel();
                        let started = Instant::now();
                        permit.submit(
                            Arc::clone(target),
                            rows,
                            Box::new(move |outcome| {
                                let _ = tx.send((Instant::now(), outcome));
                            }),
                        );
                        drop(hint);
                        let (done, outcome) =
                            rx.recv().map_err(|_| "completion dropped".to_string())?;
                        black_box(outcome);
                        out.push((started, done));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    sched.shutdown();
    for thread in waits {
        for (start, end) in thread? {
            t.root("scheduler.wait", start, end);
        }
    }
    let after = occupancy();
    let flushes = after.count() - before.count();
    let submissions = after.sum - before.sum;
    Ok(if flushes > 0 {
        submissions as f64 / flushes as f64
    } else {
        0.0
    })
}

/// The set-up layers: sweep, train, save, load.
fn setup_layers(t: &mut Tracer, inp: &Inputs, key: ModelKey) -> Result<(), String> {
    let entry = key.workload.entry();
    for _ in 0..SETUP_REPS {
        t.span("catalog.sweep", 0, |_, _| {
            black_box(entry.workload().generate_dataset())
        });
    }
    let dir = inp.work.join("trace-persist");
    let mut saved = None;
    for _ in 0..SETUP_REPS {
        saved = Some(
            t.span("registry.train", 0, |_, _| lam_serve::registry::train(key))
                .map_err(|e| e.to_string())?,
        );
    }
    let saved = saved.expect("SETUP_REPS > 0");
    let mut path = None;
    for _ in 0..SETUP_REPS {
        path = Some(
            t.span("persist.save", 0, |_, _| saved.save(&dir))
                .map_err(|e| e.to_string())?,
        );
    }
    let bytes = std::fs::read(path.expect("SETUP_REPS > 0")).map_err(|e| e.to_string())?;
    for _ in 0..SETUP_REPS {
        t.span("persist.load", 0, |_, _| {
            SavedModel::from_lamb_bytes(&bytes, "trace").and_then(SavedModel::into_predictor)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `/tune` replays (decode → active learning → encode) and a layer-wise
/// decomposition of one active-learning round: measure the 3% sample,
/// fit the 30-tree hybrid, score the whole space.
fn tune_layers(t: &mut Tracer, inp: &Inputs, key: ModelKey) -> Result<(), String> {
    let entry = key.workload.entry();
    let workload = entry.workload();
    let (mut body, mut framed) = (Vec::new(), Vec::new());
    for i in 0..TUNE_REPLAYS as u64 {
        gen::tune_body(gen::tune_seed(inp.seed, REPLAY_OFFSET + i), &mut body);
        gen::post("/tune", &body, &mut framed);
        let mut parser = RequestParser::new(8 << 20);
        t.span("tune.request", 0, |t, root| -> Result<(), String> {
            let req = match parser.poll(&mut framed) {
                ParseStep::Request(req) => req,
                _ => return Err("replayed /tune did not parse".to_string()),
            };
            let parsed: TuneHttpRequest = t.span("tune.decode", root, |_, _| {
                std::str::from_utf8(&req.body)
                    .map_err(|e| e.to_string())
                    .and_then(|b| serde_json::from_str(b).map_err(|e| e.to_string()))
            })?;
            let mut report = t
                .span("tune.active", root, |_, _| {
                    lam_tune::active_learn(
                        workload,
                        &lam_tune::ActiveLearnOptions {
                            budget: parsed.budget,
                            top_k: parsed.top_k.unwrap_or(5),
                            seed: parsed.seed.unwrap_or(0),
                            ..lam_tune::ActiveLearnOptions::default()
                        },
                    )
                })
                .map_err(|e| e.to_string())?;
            report.attach_regret(entry.dataset().response());
            t.span("tune.encode", root, |_, _| {
                serde_json::to_string(&TuneHttpResponse {
                    model: None,
                    report,
                    micros: 0,
                })
            })
            .map_err(|e| e.to_string())?;
            Ok(())
        })?;
    }
    let rows = workload.feature_rows();
    let names = workload.feature_names();
    for r in 0..ROUNDS as u64 {
        let mut rng = Xoshiro256::seeded(gen::tune_seed(inp.seed, r));
        let sample = rng.sample_indices(rows.len(), gen::TUNE_BUDGET);
        t.span("tune.round", 0, |t, root| -> Result<(), String> {
            let ys: Vec<f64> = sample
                .iter()
                .map(|&i| t.span("tune.measure", root, |_, _| workload.measure(i)))
                .collect();
            let measured: Vec<Vec<f64>> = sample.iter().map(|&i| rows[i].clone()).collect();
            let data = lam_data::Dataset::from_rows(names.clone(), &measured, ys)
                .map_err(|e| e.to_string())?;
            let mut hybrid = HybridModel::new(
                workload.analytical_model(),
                Box::new(ExtraTreesRegressor::with_params(
                    30,
                    TreeParams::default(),
                    r,
                )),
                workload.hybrid_config(),
            );
            t.span("tune.fit", root, |_, _| hybrid.fit(&data))
                .map_err(|e| e.to_string())?;
            let view: &dyn PredictRow = &hybrid;
            t.span("tune.score", root, |_, _| {
                black_box(view.predict_rows(&rows))
            });
            Ok(())
        })?;
    }
    Ok(())
}

fn route_layer(t: &mut Tracer, s: &Session<'_>) {
    let backends: Vec<String> = match s.cluster.gateway {
        Some(_) => s.cluster.backends.iter().map(|b| b.addr.clone()).collect(),
        None => vec![s.cluster.backends[0].addr.clone()],
    };
    let ring = HashRing::new(&backends, 64);
    for _ in 0..REPLAY_MAX {
        t.span("route.candidates", 0, |_, _| {
            black_box(ring.candidates(gen::WORKLOAD, gen::KIND))
        });
    }
}

/// `trace`: the per-layer metrics of one workload.
pub fn run(w: Workload, inp: &Inputs) -> Result<(WorkloadReport, TraceDetail), String> {
    let mut s = Session::start(w, inp, 1)?;
    let (timed, counters) = s.timed(Duration::from_secs_f64(inp.seconds / 3.0))?;
    // tune-mix's predict traffic is its background lane.
    let maker = &s.lanes[usize::from(w == Workload::TuneMix)].maker;

    let started = Instant::now();
    let p = probes(&s, w, maker)?;
    s.book.phase("probes", started, p.tally);

    let started = Instant::now();
    let mut t = Tracer::new();
    let id = WorkloadId::get(gen::WORKLOAD).map_err(|e| e.to_string())?;
    let key = ModelKey::new(id, ModelKind::Hybrid, 1);
    let (registry, model) = in_process_model(w, inp, maker, key)?;
    let rows = replay_predict(&mut t, w, inp, maker, &registry, key, &*s.reference)?;
    let occupancy = scheduler_waits(&mut t, w, inp, maker, &model)?;
    route_layer(&mut t, &s);
    setup_layers(&mut t, inp, key)?;
    tune_layers(&mut t, inp, key)?;
    s.book.phase("replay", started, Tally::default());

    let (mape, regret) = s.verify(&timed);
    s.check_properties(&counters);
    s.book.diag("mape_pct", "%", mape, inp.grid.len() as u64);
    s.book.diag(
        "regret_mean",
        "ratio",
        regret,
        crate::workloads::REGRET_SEEDS,
    );
    let layers = summarize(&t.spans);
    let (ledger, metrics) = ledger_and_metrics(w, rows, &layers, &p, occupancy, &counters);
    println!(
        "   ledger {}: rtt {:.1} us, layers {:.1} us, unaccounted {:.1}%, largest self time {} ({:.1} us)",
        w.name(),
        ledger.rtt_us,
        ledger.accounted_us,
        ledger.unaccounted_pct,
        ledger.top_layer,
        ledger.top_self_us
    );
    let detail = TraceDetail {
        workload: w.name().to_string(),
        layers,
        ledger,
        spans: t.spans,
    };
    Ok((s.book.report(w, metrics), detail))
}

/// Reconcile the layers with the client round trip, and name every
/// per-layer metric.
fn ledger_and_metrics(
    w: Workload,
    rows: usize,
    layers: &[Layer],
    p: &Probes,
    occupancy: f64,
    counters: &Counters,
) -> (Ledger, Vec<Metric>) {
    let layer = |name: &str| layers.iter().find(|l| l.name == name);
    let p50 = |name: &str| layer(name).map_or(f64::NAN, |l| l.p50_ns);
    let n = |name: &str| layer(name).map_or(0, |l| l.count);
    let per_row = |name: &str| p50(name) / rows as f64;
    let (healthz, direct, via) = (
        stats::sorted(&p.healthz_us),
        stats::sorted(&p.direct_us),
        stats::sorted(&p.gateway_us),
    );
    let pct = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(f64::NAN);
    let tail = |v: &[f64], q: f64| stats::tail_percentile(v, q).unwrap_or(f64::NAN);
    let hop_p50 = pct(&via, 0.5) - pct(&direct, 0.5);

    // The layers one request of this workload passes through, in the
    // order the server runs them, as (name, p50 µs, self-time p50 µs),
    // against its single-connection round trip on the workload's own
    // path. The gateway hop is a probe difference, not a span: it has no
    // children, so all of it is self time.
    let span_layer = |name: &str| {
        layer(name).map_or((name.to_string(), f64::NAN, f64::NAN), |l| {
            (l.name.clone(), l.p50_ns / 1e3, l.self_p50_ns / 1e3)
        })
    };
    let (rtt_us, path): (f64, Vec<(String, f64, f64)>) = match w {
        Workload::TuneMix => (
            pct(&stats::sorted(&p.tune_us), 0.5),
            ["tune.decode", "tune.active", "tune.encode"]
                .map(span_layer)
                .to_vec(),
        ),
        _ => {
            let mut path = Vec::new();
            if w == Workload::GatewayB64 {
                path.push(("gateway.hop".to_string(), hop_p50, hop_p50));
            }
            path.extend(
                [
                    "proto.parse",
                    "http.decode",
                    "batch.validate",
                    "registry.get",
                    // Small requests wait in the scheduler (which runs
                    // the engine for them); large ones call the engine
                    // directly.
                    if rows >= DIRECT_BATCH_ROWS {
                        "engine.predict"
                    } else {
                        "scheduler.wait"
                    },
                    "http.encode",
                    "proto.encode",
                ]
                .map(span_layer),
            );
            let rtt = if w == Workload::GatewayB64 {
                &via
            } else {
                &direct
            };
            (pct(rtt, 0.5), path)
        }
    };
    let accounted_us: f64 = path.iter().map(|(_, p50, _)| p50).sum();
    let (top_layer, top_self_us) = path
        .iter()
        .filter(|(_, _, self_us)| self_us.is_finite())
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map_or(("-".to_string(), f64::NAN), |(name, _, self_us)| {
            (name.clone(), *self_us)
        });
    let ledger = Ledger {
        rtt_us,
        path: path.into_iter().map(|(name, _, _)| name).collect(),
        accounted_us,
        unaccounted_pct: 100.0 * (rtt_us - accounted_us) / rtt_us,
        top_layer,
        top_self_us,
    };
    let sched = layer("scheduler.wait");
    let probes = direct.len() as u64;
    let rtts = match w {
        Workload::TuneMix => p.tune_us.len() as u64,
        _ => probes,
    };
    let metrics = vec![
        Metric::new(
            "transport.healthz_rtt_us",
            "us",
            pct(&healthz, 0.5),
            healthz.len() as u64,
        ),
        Metric::new("client.rtt_us", "us", rtt_us, rtts),
        Metric::new("gateway.hop_us", "us", hop_p50, probes),
        Metric::new(
            "gateway.hop_p90_us",
            "us",
            tail(&via, 0.9) - tail(&direct, 0.9),
            probes,
        ),
        Metric::new("proto.parse_ns", "ns", p50("proto.parse"), n("proto.parse")),
        Metric::new(
            "http.decode_ns_per_row",
            "ns/row",
            per_row("http.decode"),
            n("http.decode"),
        ),
        Metric::new(
            "batch.validate_ns_per_row",
            "ns/row",
            per_row("batch.validate"),
            n("batch.validate"),
        ),
        Metric::new(
            "registry.get_ns",
            "ns",
            p50("registry.get"),
            n("registry.get"),
        ),
        Metric::new(
            "engine.predict_ns_per_row",
            "ns/row",
            per_row("engine.predict"),
            n("engine.predict"),
        ),
        Metric::new(
            "http.encode_ns_per_row",
            "ns/row",
            per_row("http.encode"),
            n("http.encode"),
        ),
        Metric::new(
            "proto.encode_ns",
            "ns",
            p50("proto.encode"),
            n("proto.encode"),
        ),
        Metric::new(
            "hybrid.predict_ns_per_row",
            "ns/row",
            per_row("hybrid.predict"),
            n("hybrid.predict"),
        ),
        Metric::new(
            "analytical.predict_ns_per_row",
            "ns/row",
            per_row("analytical.predict"),
            n("analytical.predict"),
        ),
        Metric::new(
            "scheduler.wait_us",
            "us",
            p50("scheduler.wait") / 1e3,
            n("scheduler.wait"),
        ),
        Metric::new(
            "scheduler.wait_p99_us",
            "us",
            sched.and_then(|l| l.p99_ns).unwrap_or(f64::NAN) / 1e3,
            n("scheduler.wait"),
        ),
        Metric::new(
            "scheduler.occupancy",
            "count",
            occupancy,
            n("scheduler.wait"),
        ),
        Metric::new(
            "route.candidates_ns",
            "ns",
            p50("route.candidates"),
            n("route.candidates"),
        ),
        Metric::new(
            "catalog.sweep_ms",
            "ms",
            p50("catalog.sweep") / 1e6,
            n("catalog.sweep"),
        ),
        Metric::new(
            "registry.train_ms",
            "ms",
            p50("registry.train") / 1e6,
            n("registry.train"),
        ),
        Metric::new(
            "persist.save_ms",
            "ms",
            p50("persist.save") / 1e6,
            n("persist.save"),
        ),
        Metric::new(
            "persist.load_ms",
            "ms",
            p50("persist.load") / 1e6,
            n("persist.load"),
        ),
        Metric::new(
            "tune.active_ms",
            "ms",
            p50("tune.active") / 1e6,
            n("tune.active"),
        ),
        Metric::new(
            "tune.measure_us",
            "us",
            p50("tune.measure") / 1e3,
            n("tune.measure"),
        ),
        Metric::new("tune.fit_ms", "ms", p50("tune.fit") / 1e6, n("tune.fit")),
        Metric::new(
            "tune.score_ms",
            "ms",
            p50("tune.score") / 1e6,
            n("tune.score"),
        ),
        Metric::new(
            "server.cache_hit_ratio",
            "ratio",
            counters.hit_ratio(),
            (counters.hits + counters.misses) as u64,
        ),
        Metric::new(
            "server.batch_occupancy",
            "count",
            counters.occupancy(),
            counters.flushes as u64,
        ),
        Metric::new("ledger.unaccounted_pct", "%", ledger.unaccounted_pct, rtts),
    ];
    (ledger, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: format!("s{id}"),
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Children [10, 40) and [30, 60) overlap: together they cover
            // [10, 60), 50 ns, not 60.
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // A child sticking out past its parent only counts inside it.
            span(4, 1, 90, 130),
            // A grandchild is its child's business, not the root's.
            span(5, 2, 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn tracer_nests_children_under_their_root() {
        let mut t = Tracer::new();
        t.span("request", 0, |t, root| {
            t.span("a", root, |_, _| ());
            t.span("b", root, |_, _| ());
        });
        let root = t.spans.iter().find(|s| s.name == "request").unwrap();
        let kids: Vec<&Span> = t.spans.iter().filter(|s| s.parent == root.id).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids
            .iter()
            .all(|k| k.start_ns >= root.start_ns && k.end_ns <= root.end_ns));
        let layers = summarize(&t.spans);
        assert_eq!(layers.len(), 3);
        assert!(layers.iter().all(|l| l.count == 1 && l.p99_ns.is_none()));
    }

    #[test]
    fn miss_rows_used_by_the_replay_are_disjoint_from_the_run() {
        let rows = gen::MissRows::new(1);
        let served: std::collections::HashSet<Vec<u64>> = (0..64)
            .flat_map(|i| rows.request(i))
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        for offset in [REPLAY_OFFSET, PROBE_OFFSET, SCHED_OFFSET] {
            for r in rows.request(offset) {
                let key: Vec<u64> = r.iter().map(|v| v.to_bits()).collect();
                assert!(!served.contains(&key));
            }
        }
    }
}
