//! The four traffic mixes, from cold start to verified result.
//!
//! | workload     | traffic                                           | dominated by (bypasses)                     |
//! |--------------|---------------------------------------------------|---------------------------------------------|
//! | `hot-b1`     | 1-row grid predicts, 2 conns × pipeline 8         | reactor, parse, dispatch, scheduler (inference) |
//! | `miss-b256`  | 256-row off-grid predicts, 2 conns, full cache    | inference, JSON row codec (scheduler)       |
//! | `tune-mix`   | back-to-back `/tune` + 1-row predicts on a 2nd conn | tree fitting, oracle, scoring               |
//! | `gateway-b64`| 64-row grid predicts through a 2-replica gateway  | gateway parse/scatter/merge (inference)     |
//!
//! Every run: set-up (cold starts), warm-up, the timed closed-loop phase,
//! then verification outside the timer.

use crate::child::Child;
use crate::client;
use crate::gen::{self, MissRows, Order};
use crate::load::{self, Stream, StreamResult, Tally};
use crate::report::{Check, Metric, Phase, WorkloadReport};
use crate::stats;
use lam_core::predict::PredictRow;
use lam_serve::http::{PredictResponse, TuneHttpResponse};
use lam_serve::persist::{ModelKind, SavedModel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cold starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(2);
/// `miss-b256` warm-up: off-grid requests sent before timing. 6144 × 256
/// ≈ 1.57M distinct rows overfill the 2^20-entry prediction cache (every
/// one of its 64 shards), so the timed phase sees the steady state: a full
/// cache that every lookup misses.
pub const FILL_REQUESTS: u64 = 6144;
/// One response in this many is checked bit for bit.
const KEEP_EVERY: u64 = 16;
/// Rows per request of the whole-grid verification pass.
const GRID_CHUNK: usize = 264;
/// Fixed `/tune` seeds of the regret pass (the same in every run).
pub const REGRET_SEEDS: u64 = 16;
/// `hot-b1` open-loop phase: fixed arrival rate and length.
const OPEN_LOOP_RATE: f64 = 25_000.0;
const OPEN_LOOP: Duration = Duration::from_secs(3);

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1-row predicts of grid rows: every row hits the cache.
    HotB1,
    /// 256-row predicts of never-seen rows: every row misses.
    MissB256,
    /// Back-to-back `/tune` plus background 1-row predicts.
    TuneMix,
    /// 64-row hot predicts scattered by a gateway over two backends.
    GatewayB64,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::HotB1,
        Workload::MissB256,
        Workload::TuneMix,
        Workload::GatewayB64,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotB1 => "hot-b1",
            Workload::MissB256 => "miss-b256",
            Workload::TuneMix => "tune-mix",
            Workload::GatewayB64 => "gateway-b64",
        }
    }

    /// The percentile `tail_ms` reports: the highest one a run supports
    /// with at least ten samples beyond it. `tune-mix` completes only
    /// ~70 tunes a second, too few for a p99 in one run.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::TuneMix => 0.9,
            _ => 0.99,
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))
    }
}

/// Inputs shared by every workload of one invocation.
pub struct Inputs {
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// Scratch directory for the children's model stores.
    pub work: PathBuf,
    /// Feature rows of the 2112 grid configurations.
    pub grid: Vec<Vec<f64>>,
    /// Oracle runtime of every grid configuration.
    pub truth: Vec<f64>,
    /// Framed 1-row `/predict` request of every grid row.
    pub hot: Vec<Vec<u8>>,
}

impl Inputs {
    /// Build the shared inputs (runs the oracle over the grid once).
    pub fn new(seed: u64, seconds: f64, work: PathBuf) -> Result<Self, String> {
        let id = lam_serve::workload::WorkloadId::get(gen::WORKLOAD).map_err(|e| e.to_string())?;
        let grid = id.feature_rows();
        let truth = id.dataset().response().to_vec();
        let mut body = Vec::new();
        let hot = grid
            .iter()
            .map(|row| {
                gen::predict_body([row.as_slice()], &mut body);
                let mut framed = Vec::new();
                gen::post("/predict", &body, &mut framed);
                framed
            })
            .collect();
        Ok(Self {
            seed,
            seconds,
            work,
            grid,
            truth,
            hot,
        })
    }
}

/// What a request stream sends.
pub enum Maker<'a> {
    /// 1-row grid requests in a seeded order.
    Hot(Order, &'a [Vec<u8>]),
    /// 256-row off-grid requests.
    Miss(MissRows),
    /// Cycles through pre-framed 64-row grid requests.
    Pool(Vec<Vec<usize>>, Vec<Vec<u8>>),
    /// Active-learning `/tune` requests, seeded per request.
    Tune(u64),
}

impl Maker<'_> {
    /// Frame request `i` into `out`.
    pub fn make(&self, i: u64, out: &mut Vec<u8>) {
        match self {
            Maker::Hot(order, framed) => {
                out.clear();
                out.extend_from_slice(&framed[order.at(i)]);
            }
            Maker::Miss(rows) => {
                let mut body = Vec::new();
                gen::predict_body(rows.request(i), &mut body);
                gen::post("/predict", &body, out);
            }
            Maker::Pool(_, framed) => {
                out.clear();
                out.extend_from_slice(&framed[(i % framed.len() as u64) as usize]);
            }
            Maker::Tune(seed) => {
                let mut body = Vec::new();
                gen::tune_body(gen::tune_seed(*seed, i), &mut body);
                gen::post("/tune", &body, out);
            }
        }
    }

    /// The feature rows of predict request `i` (empty for `/tune`).
    pub fn rows(&self, i: u64, grid: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self {
            Maker::Hot(order, _) => vec![grid[order.at(i)].clone()],
            Maker::Miss(rows) => rows.request(i).map(|r| r.to_vec()).collect(),
            Maker::Pool(pool, _) => pool[(i % pool.len() as u64) as usize]
                .iter()
                .map(|&g| grid[g].clone())
                .collect(),
            Maker::Tune(_) => Vec::new(),
        }
    }
}

/// One closed-loop stream of a workload, with its own request counter.
pub struct Lane<'a> {
    /// What it sends.
    pub maker: Maker<'a>,
    /// Connections.
    pub conns: usize,
    /// Requests in flight per connection.
    pub depth: usize,
    /// Prediction rows per request (0 for `/tune`).
    pub rows: usize,
    /// Next request number.
    pub next: AtomicU64,
}

impl<'a> Lane<'a> {
    fn new(maker: Maker<'a>, conns: usize, depth: usize, rows: usize) -> Self {
        Self {
            maker,
            conns,
            depth,
            rows,
            next: AtomicU64::new(0),
        }
    }
}

/// A workload's streams. The first is its primary operation.
pub fn lanes<'a>(w: Workload, inp: &'a Inputs) -> Vec<Lane<'a>> {
    let n = inp.grid.len();
    match w {
        Workload::HotB1 => vec![Lane::new(
            Maker::Hot(gen::hot_order(n, inp.seed), &inp.hot),
            2,
            8,
            1,
        )],
        Workload::MissB256 => vec![Lane::new(
            Maker::Miss(MissRows::new(inp.seed)),
            2,
            1,
            gen::MISS_ROWS,
        )],
        Workload::TuneMix => vec![
            Lane::new(Maker::Tune(inp.seed), 1, 1, 0),
            Lane::new(Maker::Hot(gen::bg_order(n, inp.seed), &inp.hot), 1, 1, 1),
        ],
        Workload::GatewayB64 => {
            let pool = gen::gateway_pool(n, inp.seed);
            let mut body = Vec::new();
            let framed = pool
                .iter()
                .map(|req| {
                    gen::predict_body(req.iter().map(|&g| &inp.grid[g]), &mut body);
                    let mut framed = Vec::new();
                    gen::post("/predict", &body, &mut framed);
                    framed
                })
                .collect();
            vec![Lane::new(
                Maker::Pool(pool, framed),
                2,
                1,
                gen::GATEWAY_ROWS,
            )]
        }
    }
}

/// Run `lanes` against `addr` for `duration`, no lane sending request
/// numbers at or past `end`.
pub fn drive(
    addr: &str,
    lanes: &[Lane<'_>],
    duration: Duration,
    end: u64,
    keep: bool,
) -> Vec<StreamResult> {
    let makers: Vec<_> = lanes
        .iter()
        .map(|lane| move |i: u64, out: &mut Vec<u8>| lane.maker.make(i, out))
        .collect();
    let streams: Vec<Stream<'_>> = lanes
        .iter()
        .zip(&makers)
        .map(|(lane, make)| Stream {
            conns: lane.conns,
            depth: lane.depth,
            next: &lane.next,
            end,
            make,
            // Every /tune answer is checked; predicts are sampled.
            keep_every: match (keep, lane.rows) {
                (false, _) => 0,
                (true, 0) => 1,
                (true, _) => KEEP_EVERY,
            },
        })
        .collect();
    load::closed_loop(addr, &streams, duration)
}

/// The servers of one workload, killed when dropped.
pub struct Cluster {
    /// Model servers (backend A first).
    pub backends: Vec<Child>,
    /// The gateway, for `gateway-b64`.
    pub gateway: Option<Child>,
    /// The `.lamb` artifact backend A trained.
    pub artifact: PathBuf,
}

impl Cluster {
    /// Where clients send traffic.
    pub fn front(&self) -> &str {
        match &self.gateway {
            Some(g) => &g.addr,
            None => &self.backends[0].addr,
        }
    }

    /// Addresses of the model servers.
    pub fn backend_addrs(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.addr.as_str()).collect()
    }

    /// Summed peak resident set of every child, MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        self.backends
            .iter()
            .chain(&self.gateway)
            .map(Child::peak_rss_mb)
            .sum()
    }
}

/// A cold start and its first answer.
pub struct Setup {
    /// The running servers.
    pub cluster: Cluster,
    /// Child spawn → first `200` through the front.
    pub seconds: f64,
    /// Rows of the first request through the front.
    pub rows: Vec<Vec<f64>>,
    /// Body of that first answer.
    pub body: Vec<u8>,
    /// Requests sent during set-up.
    pub tally: Tally,
}

/// Send one framed request on a fresh connection; error unless `200`.
fn expect_ok(addr: &str, request: &[u8], tally: &mut Tally) -> Result<Vec<u8>, String> {
    match client::request(addr, request) {
        Ok((status, body)) => {
            tally.record(status);
            if status == 200 {
                Ok(body)
            } else {
                Err(format!(
                    "{addr} answered {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
        }
        Err(e) => {
            tally.lose(1);
            Err(format!("{addr}: {e}"))
        }
    }
}

/// Cold-start the workload's servers with empty model stores under `dir`.
/// Each server trains on its first request (oracle sweep, fit, persist);
/// for `gateway-b64` backend B then replicates the artifact from A and the
/// first request goes through the gateway.
pub fn start(w: Workload, inp: &Inputs, dir: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let id = lam_serve::workload::WorkloadId::get(gen::WORKLOAD).map_err(|e| e.to_string())?;
    let artifact = dir
        .join("a")
        .join(SavedModel::file_name(id, ModelKind::Hybrid, 1));
    let mut tally = Tally::default();
    let started = Instant::now();
    let a = Child::server(&dir.join("a"), &[])?;
    let first_hot = &inp.hot[0];
    let (cluster, rows, body) = if w == Workload::GatewayB64 {
        expect_ok(&a.addr, first_hot, &mut tally)?;
        let b = Child::server(&dir.join("b"), &[&a.addr])?;
        expect_ok(&b.addr, first_hot, &mut tally)?;
        let g = Child::gateway(&[&a.addr, &b.addr], 2)?;
        let pool = gen::gateway_pool(inp.grid.len(), inp.seed);
        let rows: Vec<Vec<f64>> = pool[0].iter().map(|&i| inp.grid[i].clone()).collect();
        let mut payload = Vec::new();
        gen::predict_body(&rows, &mut payload);
        let mut framed = Vec::new();
        gen::post("/predict", &payload, &mut framed);
        let body = expect_ok(&g.addr, &framed, &mut tally)?;
        let cluster = Cluster {
            backends: vec![a, b],
            gateway: Some(g),
            artifact,
        };
        (cluster, rows, body)
    } else {
        let body = expect_ok(&a.addr, first_hot, &mut tally)?;
        let cluster = Cluster {
            backends: vec![a],
            gateway: None,
            artifact,
        };
        (cluster, vec![inp.grid[0].clone()], body)
    };
    Ok(Setup {
        cluster,
        seconds: started.elapsed().as_secs_f64(),
        rows,
        body,
        tally,
    })
}

/// The served model, loaded in-process from its artifact: the reference
/// every served prediction must match bit for bit.
pub fn reference(artifact: &Path) -> Result<Box<dyn PredictRow>, String> {
    SavedModel::load(artifact)
        .and_then(SavedModel::into_predictor)
        .map_err(|e| format!("load {}: {e}", artifact.display()))
}

/// Outcome of checking a batch of answers.
#[derive(Default)]
pub struct Verdict {
    /// Answers checked.
    pub checked: u64,
    /// Answers that were wrong.
    pub wrong: u64,
    /// The first wrong answer, described.
    pub first: Option<String>,
}

impl Verdict {
    fn record(&mut self, outcome: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = outcome {
            self.wrong += 1;
            self.first.get_or_insert(e);
        }
    }

    fn into_check(self, name: &str) -> Check {
        Check {
            name: name.to_string(),
            ok: self.wrong == 0 && self.checked > 0,
            detail: match self.first {
                Some(e) => format!("{}/{} wrong; first: {e}", self.wrong, self.checked),
                None => format!("{} checked", self.checked),
            },
        }
    }
}

/// Parse a `/predict` answer and check it against the reference: one
/// finite prediction per row, in row order, bit-identical.
pub fn check_predict(
    body: &[u8],
    rows: &[Vec<f64>],
    reference: &dyn PredictRow,
) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let resp: PredictResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if resp.predictions.len() != rows.len() {
        return Err(format!(
            "{} predictions for {} rows",
            resp.predictions.len(),
            rows.len()
        ));
    }
    let expected = reference.predict_rows(rows);
    for (i, (got, want)) in resp.predictions.iter().zip(&expected).enumerate() {
        if !got.is_finite() {
            return Err(format!("row {i}: prediction {got} is not finite"));
        }
        if got.to_bits() != want.to_bits() {
            return Err(format!("row {i}: served {got}, artifact predicts {want}"));
        }
    }
    Ok(resp.predictions)
}

/// Parse a `/tune` answer: the budget was respected and regret reported.
pub fn check_tune(body: &[u8]) -> Result<f64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let resp: TuneHttpResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let report = resp.report;
    if report.evaluations > gen::TUNE_BUDGET || report.budget != gen::TUNE_BUDGET {
        return Err(format!(
            "{} evaluations against budget {} (sent {})",
            report.evaluations,
            report.budget,
            gen::TUNE_BUDGET
        ));
    }
    match report.regret {
        Some(r) if r.is_finite() && r >= 1.0 => Ok(r),
        other => Err(format!("regret {other:?}")),
    }
}

/// Predict the whole grid through `addr`; check every answer against the
/// reference and return the served predictions.
pub fn grid_pass(
    addr: &str,
    inp: &Inputs,
    reference: &dyn PredictRow,
    tally: &mut Tally,
    verdict: &mut Verdict,
) -> Vec<f64> {
    let mut served = Vec::with_capacity(inp.grid.len());
    let (mut body, mut framed) = (Vec::new(), Vec::new());
    for chunk in inp.grid.chunks(GRID_CHUNK) {
        gen::predict_body(chunk, &mut body);
        gen::post("/predict", &body, &mut framed);
        let outcome =
            expect_ok(addr, &framed, tally).and_then(|body| check_predict(&body, chunk, reference));
        match outcome {
            Ok(p) => {
                served.extend(p);
                verdict.record(Ok(()));
            }
            Err(e) => verdict.record(Err(e)),
        }
    }
    served
}

/// Mean absolute percentage error of `predicted` against `truth`.
pub fn mape_pct(predicted: &[f64], truth: &[f64]) -> f64 {
    let sum: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(p, y)| ((p - y) / y).abs())
        .sum();
    100.0 * sum / truth.len() as f64
}

/// Server-side counters of the served model, summed over backends.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Prediction-cache hits.
    pub hits: f64,
    /// Prediction-cache misses.
    pub misses: f64,
    /// Scheduler flushes.
    pub flushes: f64,
    /// Submissions answered by those flushes.
    pub flushed: f64,
    /// Requests shed.
    pub shed: f64,
    /// Models resolved by fetching a peer's artifact.
    pub peer_fetches: f64,
}

impl Counters {
    /// `after − before`.
    pub fn delta(after: Counters, before: Counters) -> Counters {
        Counters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            flushes: after.flushes - before.flushes,
            flushed: after.flushed - before.flushed,
            shed: after.shed - before.shed,
            peer_fetches: after.peer_fetches - before.peer_fetches,
        }
    }

    /// Cache hits per lookup (0 with no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups > 0.0 {
            self.hits / lookups
        } else {
            0.0
        }
    }

    /// Mean submissions per scheduler flush (0 with no flushes).
    pub fn occupancy(&self) -> f64 {
        if self.flushes > 0.0 {
            self.flushed / self.flushes
        } else {
            0.0
        }
    }
}

/// Scrape `/metrics.json` of every address (outside any timed window).
pub fn scrape(addrs: &[&str]) -> Result<Counters, String> {
    let scope = format!("{}/{}", gen::WORKLOAD, gen::KIND);
    let mut c = Counters::default();
    for addr in addrs {
        let (status, body) =
            client::request(addr, &gen::get("/metrics.json")).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("{addr}/metrics.json answered {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        let v: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let series = |kind: &str| v.get(kind).and_then(|s| s.as_array()).unwrap_or(&[]);
        let label = |s: &serde::Value, k: &str| {
            s.get("labels")
                .and_then(|l| l.get(k))
                .and_then(|x| x.as_str())
                .map(str::to_string)
        };
        let num = |s: &serde::Value, k: &str| match s.get(k) {
            Some(serde::Value::Number(n)) => n.as_f64(),
            _ => 0.0,
        };
        for s in series("counters") {
            let name = s.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let ours = label(s, "scope").as_deref() == Some(scope.as_str());
            match name {
                "lam_cache_hits_total" if ours => c.hits += num(s, "value"),
                "lam_cache_misses_total" if ours => c.misses += num(s, "value"),
                "lam_requests_shed_total" => c.shed += num(s, "value"),
                "lam_registry_resolutions_total" if label(s, "path").as_deref() == Some("peer") => {
                    c.peer_fetches += num(s, "value")
                }
                _ => {}
            }
        }
        for s in series("histograms") {
            if s.get("name").and_then(|n| n.as_str()) == Some("lam_batch_occupancy") {
                c.flushes += num(s, "count");
                c.flushed += num(s, "sum");
            }
        }
    }
    Ok(c)
}

/// Everything a workload run measured, before it becomes metrics.
struct Measured {
    /// Set-up durations, seconds.
    setup_s: Vec<f64>,
    /// The timed phase, one result per lane.
    timed: Vec<StreamResult>,
    /// Summed peak RSS of the children, MB.
    rss_mb: f64,
    /// MAPE of the served grid against the oracle.
    mape_pct: f64,
    /// Mean regret of the fixed-seed `/tune` pass.
    regret_mean: f64,
}

/// The book of a workload run: phases, checks, and totals.
#[derive(Default)]
pub struct Book {
    /// Phases so far.
    pub phases: Vec<Phase>,
    /// Checks so far.
    pub checks: Vec<Check>,
    /// All operations sent.
    pub tally: Tally,
    /// Wrong answers found.
    pub wrong: u64,
    /// Printed, never gated.
    pub diagnostics: Vec<Metric>,
}

impl Book {
    /// Close a phase begun at `started`.
    pub fn phase(&mut self, name: &str, started: Instant, tally: Tally) {
        self.tally.add(tally);
        self.phases.push(Phase {
            name: name.to_string(),
            seconds: started.elapsed().as_secs_f64(),
            attempted: tally.attempted,
            ok: tally.ok,
            failed: tally.failed,
            shed: tally.shed,
        });
    }

    /// Record a verification verdict.
    pub fn verdict(&mut self, name: &str, verdict: Verdict) {
        self.wrong += verdict.wrong;
        self.checks.push(verdict.into_check(name));
    }

    /// A diagnostic value.
    pub fn diag(&mut self, name: &str, unit: &str, value: f64, samples: u64) {
        self.diagnostics
            .push(Metric::new(name, unit, value, samples));
    }

    /// The finished report.
    pub fn report(self, w: Workload, metrics: Vec<Metric>) -> WorkloadReport {
        let failed = self.tally.failed + self.tally.shed + self.wrong;
        let finite = metrics.iter().all(|m| m.value.is_finite());
        WorkloadReport {
            workload: w.name().to_string(),
            correct: failed == 0 && finite && self.checks.iter().all(|c| c.ok),
            attempted: self.tally.attempted.max(1),
            failed,
            phases: self.phases,
            checks: self.checks,
            metrics,
            diagnostics: self.diagnostics,
        }
    }
}

/// A workload run up to (not including) metric assembly: the running
/// cluster, its reference model, and the book so far.
pub struct Session<'a> {
    /// The workload.
    pub w: Workload,
    /// Shared inputs.
    pub inp: &'a Inputs,
    /// Its streams.
    pub lanes: Vec<Lane<'a>>,
    /// The servers.
    pub cluster: Cluster,
    /// The served model, in-process.
    pub reference: Box<dyn PredictRow>,
    /// Phases and checks.
    pub book: Book,
    /// Set-up durations.
    pub setup_s: Vec<f64>,
}

impl<'a> Session<'a> {
    /// Cold-start `setups` times (keeping the last cluster), check each
    /// first answer, prime and warm up.
    pub fn start(w: Workload, inp: &'a Inputs, setups: usize) -> Result<Self, String> {
        let mut book = Book::default();
        let started = Instant::now();
        let mut tally = Tally::default();
        let mut setup_s = Vec::new();
        let mut firsts = Vec::new();
        let mut cluster = None;
        for k in 0..setups {
            drop(cluster.take());
            let s = start(w, inp, &inp.work.join(format!("{}-{k}", w.name())))?;
            tally.add(s.tally);
            setup_s.push(s.seconds);
            firsts.push((s.rows, s.body));
            cluster = Some(s.cluster);
        }
        let cluster = cluster.ok_or("no set-up ran")?;
        book.phase("setup", started, tally);
        let reference = reference(&cluster.artifact)?;
        let mut verdict = Verdict::default();
        for (rows, body) in &firsts {
            verdict.record(check_predict(body, rows, &*reference).map(drop));
        }
        book.verdict("first answer of every cold start", verdict);
        if let Some(b) = cluster.backends.get(1) {
            let fetched = scrape(&[&b.addr])?.peer_fetches;
            book.checks.push(Check {
                name: "backend B replicated the model from A".to_string(),
                ok: fetched >= 1.0,
                detail: format!("{fetched} peer fetches on B"),
            });
        }

        let mut session = Self {
            w,
            inp,
            lanes: lanes(w, inp),
            cluster,
            reference,
            book,
            setup_s,
        };
        session.warm_up();
        Ok(session)
    }

    fn warm_up(&mut self) {
        let started = Instant::now();
        let mut tally = Tally::default();
        let front = self.cluster.front().to_string();
        if self.w == Workload::MissB256 {
            let fill = drive(
                &front,
                &self.lanes,
                Duration::from_secs(120),
                FILL_REQUESTS,
                false,
            );
            tally.add(fill[0].tally);
            self.book
                .diag("fill_s", "s", started.elapsed().as_secs_f64(), 1);
        } else {
            // Every grid row is cached before the warm-up traffic starts.
            let mut verdict = Verdict::default();
            grid_pass(&front, self.inp, &*self.reference, &mut tally, &mut verdict);
            self.book.verdict("priming grid pass", verdict);
            for r in drive(&front, &self.lanes, WARMUP, u64::MAX, false) {
                tally.add(r.tally);
            }
        }
        self.book.phase("warmup", started, tally);
    }

    /// The timed closed-loop phase, with server counters scraped around
    /// it (outside the window).
    pub fn timed(&mut self, duration: Duration) -> Result<(Vec<StreamResult>, Counters), String> {
        let backends = self.cluster.backend_addrs();
        let before = scrape(&backends)?;
        let started = Instant::now();
        let results = drive(self.cluster.front(), &self.lanes, duration, u64::MAX, true);
        let mut tally = Tally::default();
        for r in &results {
            tally.add(r.tally);
        }
        self.book.phase("timed", started, tally);
        let after = scrape(&backends)?;
        Ok((results, Counters::delta(after, before)))
    }

    /// `hot-b1`'s open-loop phase (diagnostics only: its tail spreads too
    /// much between runs to gate).
    pub fn open_loop(&mut self) {
        let started = Instant::now();
        let lane = &self.lanes[0];
        let offset = lane.next.load(Ordering::Relaxed);
        let make = |k: u64, out: &mut Vec<u8>| lane.maker.make(offset + k, out);
        let count = (OPEN_LOOP_RATE * OPEN_LOOP.as_secs_f64()) as u64;
        let r = load::open_loop(self.cluster.front(), OPEN_LOOP_RATE, count, &make);
        self.book.phase("open-loop", started, r.tally);
        let lat = stats::sorted(&r.latencies_ms);
        let lag = stats::sorted(&r.lag_ms);
        let n = lat.len() as u64;
        self.book.diag(
            "ol_p50_ms",
            "ms",
            stats::percentile(&lat, 0.5).unwrap_or(f64::NAN),
            n,
        );
        self.book.diag(
            "ol_p99_ms",
            "ms",
            stats::tail_percentile(&lat, 0.99).unwrap_or(f64::NAN),
            n,
        );
        self.book.diag(
            "gen_lag_ms",
            "ms",
            stats::percentile(&lag, 0.99).unwrap_or(f64::NAN),
            lag.len() as u64,
        );
    }

    /// Verify the kept answers of the timed phase, then the whole grid
    /// (MAPE) and the fixed-seed `/tune` pass (regret).
    pub fn verify(&mut self, timed: &[StreamResult]) -> (f64, f64) {
        let started = Instant::now();
        let mut tally = Tally::default();
        for (lane, result) in self.lanes.iter().zip(timed) {
            let mut verdict = Verdict::default();
            for (i, body) in &result.kept {
                let outcome = if lane.rows == 0 {
                    check_tune(body).map(drop)
                } else {
                    let rows = lane.maker.rows(*i, &self.inp.grid);
                    check_predict(body, &rows, &*self.reference).map(drop)
                };
                verdict.record(outcome);
            }
            let name = if lane.rows == 0 {
                "every /tune answer of the timed phase"
            } else {
                "1 in 16 /predict answers of the timed phase, bit for bit"
            };
            self.book.verdict(name, verdict);
        }
        let front = self.cluster.front().to_string();
        let mut verdict = Verdict::default();
        let served = grid_pass(&front, self.inp, &*self.reference, &mut tally, &mut verdict);
        self.book.verdict("whole-grid pass, bit for bit", verdict);
        let mape = if served.len() == self.inp.truth.len() {
            mape_pct(&served, &self.inp.truth)
        } else {
            f64::NAN
        };
        let mut verdict = Verdict::default();
        let mut regrets = Vec::new();
        let mut body = Vec::new();
        let mut framed = Vec::new();
        for seed in 0..REGRET_SEEDS {
            gen::tune_body(seed, &mut body);
            gen::post("/tune", &body, &mut framed);
            let outcome = expect_ok(&front, &framed, &mut tally).and_then(|b| check_tune(&b));
            if let Ok(r) = outcome {
                regrets.push(r);
            }
            verdict.record(outcome.map(drop));
        }
        self.book.verdict("fixed-seed /tune pass", verdict);
        let regret_mean = if regrets.len() as u64 == REGRET_SEEDS {
            regrets.iter().sum::<f64>() / regrets.len() as f64
        } else {
            f64::NAN
        };
        self.book.phase("verify", started, tally);
        (mape, regret_mean)
    }

    /// Workload properties the mix is built on, recorded (not gated: a
    /// change may legitimately move them, and the report should show it).
    pub fn check_properties(&mut self, counters: &Counters) {
        let ratio = counters.hit_ratio();
        let outcome = match self.w {
            Workload::HotB1 if ratio < 0.99 => Err(format!("cache hit ratio {ratio:.4} < 0.99")),
            Workload::MissB256 if ratio > 0.05 => Err(format!("cache hit ratio {ratio:.4} > 0.05")),
            _ => Ok(format!("cache hit ratio {ratio:.4}")),
        };
        if let Err(e) = &outcome {
            eprintln!(
                "lambench: {}: workload property not met: {e}",
                self.w.name()
            );
        }
        self.book.checks.push(Check {
            name: "workload property: cache hit ratio".to_string(),
            ok: true,
            detail: match outcome {
                Ok(d) => d,
                Err(e) => format!("NOT MET: {e}"),
            },
        });
    }
}

/// `run`: the untraced measurement of one workload.
pub fn run(w: Workload, inp: &Inputs) -> Result<WorkloadReport, String> {
    let mut s = Session::start(w, inp, SETUPS)?;
    let (timed, counters) = s.timed(Duration::from_secs_f64(inp.seconds))?;
    if w == Workload::HotB1 {
        s.open_loop();
    }
    let (mape_pct, regret_mean) = s.verify(&timed);
    let rss_mb = s.cluster.rss_mb()?;
    s.check_properties(&counters);
    let lookups = (counters.hits + counters.misses) as u64;
    s.book.diag(
        "server.cache_hit_ratio",
        "ratio",
        counters.hit_ratio(),
        lookups,
    );
    s.book.diag(
        "server.batch_occupancy",
        "count",
        counters.occupancy(),
        counters.flushes as u64,
    );
    s.book.diag("server.shed", "count", counters.shed, 1);
    let m = Measured {
        setup_s: std::mem::take(&mut s.setup_s),
        timed,
        rss_mb,
        mape_pct,
        regret_mean,
    };
    if let Some(bg) = m.timed.get(1) {
        let lat = stats::sorted(&bg.latencies_ms);
        let n = lat.len() as u64;
        let p50 = stats::percentile(&lat, 0.5).unwrap_or(f64::NAN);
        let p99 = stats::tail_percentile(&lat, 0.99).unwrap_or(f64::NAN);
        s.book.diag("bg_p50_ms", "ms", p50, n);
        s.book.diag("bg_p99_ms", "ms", p99, n);
    }
    let metrics = end_to_end(&s, &m);
    Ok(s.book.report(w, metrics))
}

/// The end-to-end metrics of a measured run.
fn end_to_end(s: &Session<'_>, m: &Measured) -> Vec<Metric> {
    let primary = &m.timed[0];
    let lat = stats::sorted(&primary.latencies_ms);
    let n = lat.len() as u64;
    let rows: u64 = s
        .lanes
        .iter()
        .zip(&m.timed)
        .map(|(lane, r)| r.tally.ok * lane.rows as u64)
        .sum();
    let row_secs = m
        .timed
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    let children = s.cluster.backends.len() + usize::from(s.cluster.gateway.is_some());
    vec![
        Metric::new(
            "setup_s",
            "s",
            stats::median(&m.setup_s),
            m.setup_s.len() as u64,
        ),
        Metric::new(
            "ops_per_s",
            "1/s",
            primary.tally.ok as f64 / primary.elapsed.as_secs_f64(),
            primary.tally.ok,
        ),
        Metric::new(
            "p50_ms",
            "ms",
            stats::percentile(&lat, 0.5).unwrap_or(f64::NAN),
            n,
        ),
        Metric::new(
            "tail_ms",
            "ms",
            stats::tail_percentile(&lat, s.w.tail_quantile()).unwrap_or(f64::NAN),
            n,
        ),
        Metric::new("rows_per_s", "rows/s", rows as f64 / row_secs, rows),
        Metric::new("rss_mb", "MB", m.rss_mb, children as u64),
        Metric::new("mape_pct", "%", m.mape_pct, s.inp.grid.len() as u64),
        Metric::new("regret_mean", "ratio", m.regret_mean, REGRET_SEEDS),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }

    #[test]
    fn mape_and_counter_ratios() {
        assert!((mape_pct(&[1.1, 1.8], &[1.0, 2.0]) - 10.0).abs() < 1e-9);
        let c = Counters {
            hits: 99.0,
            misses: 1.0,
            flushes: 4.0,
            flushed: 10.0,
            shed: 0.0,
            peer_fetches: 0.0,
        };
        assert_eq!(c.hit_ratio(), 0.99);
        assert_eq!(c.occupancy(), 2.5);
        assert_eq!(Counters::default().hit_ratio(), 0.0);
    }
}
