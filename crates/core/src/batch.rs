//! Batched inference: a sharded prediction cache plus an order-preserving
//! micro-batch executor over any [`PredictRow`] model.
//!
//! Configuration spaces are finite, so both serving traffic and
//! model-guided search revisit the same feature vectors constantly; a
//! cache turns a tree-walk (or a k-NN scan) into one hash lookup. The
//! cache is sharded — each shard is its own `Mutex<HashMap>` picked by
//! key hash — so concurrent threads rarely contend on the same lock.
//!
//! The executor splits a request's rows into fixed-size micro-batches and
//! fans them across cores with the vendored rayon, whose parallel map is
//! order preserving (results are stitched back in input order), so
//! response position `i` always answers request row `i`.
//!
//! Serving reads the cache first: [`BatchEngine::predict_if_cached`]
//! answers a request on the calling thread when every row hits, so only
//! requests with at least one miss pay for cross-request coalescing in the
//! [`BatchScheduler`] (a warm request has no model work to share).
//!
//! This module lives in `lam-core` (not the serving crate) because it has
//! two independent consumers: `lam-serve`'s `/predict` path and
//! `lam-tune`'s model-guided search strategies, which score whole
//! configuration spaces through the same executor.

use crate::predict::PredictRow;
use lam_obs::{Counter, Histogram};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cache-key for one feature row: the exact bit patterns of its floats
/// (no epsilon grouping — only a bit-identical row is "the same query").
/// Public because it *is* the workspace's definition of "the same
/// configuration row" — the tuner's parameter lattice indexes rows with
/// the identical convention.
pub fn row_key(row: &[f64]) -> Box<[u64]> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the key bits, for shard selection.
fn key_hash(key: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in key {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Hit/miss counters of a [`PredictionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the model.
    pub misses: u64,
}

/// Default total entry cap of a [`PredictionCache`]. The configuration
/// spaces this workspace enumerates stay in the thousands; the cap only
/// exists so arbitrary client-supplied rows (fuzzing, jittered floats)
/// cannot grow a long-running server without bound.
pub const DEFAULT_MAX_ENTRIES: usize = 1 << 20;

/// A sharded feature-vector → prediction cache, capped at a fixed entry
/// budget (inserts beyond a full shard are dropped; predictions are then
/// simply recomputed, so the cap degrades throughput, never correctness).
pub struct PredictionCache {
    shards: Vec<Mutex<HashMap<Box<[u64]>, f64>>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionCache {
    /// Cache with `shards` independent lock domains (clamped to ≥ 1) and
    /// the [`DEFAULT_MAX_ENTRIES`] budget.
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, DEFAULT_MAX_ENTRIES)
    }

    /// Cache with an explicit total entry budget, split across shards.
    pub fn with_capacity(shards: usize, max_entries: usize) -> Self {
        let shards = shards.max(1);
        Self {
            per_shard_cap: max_entries.div_ceil(shards).max(1),
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Box<[u64]>, f64>> {
        &self.shards[(key_hash(key) % self.shards.len() as u64) as usize]
    }

    /// Cached prediction for `row`, if present, without counting.
    fn peek(&self, row: &[f64]) -> Option<f64> {
        let key = row_key(row);
        self.shard(&key)
            .lock()
            .expect("cache poisoned")
            .get(&key)
            .copied()
    }

    /// Cached prediction for `row`, if present. Counts a hit or miss.
    pub fn get(&self, row: &[f64]) -> Option<f64> {
        let found = self.peek(row);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Record a computed prediction. A full shard drops the insert
    /// (bounded memory beats caching one more row).
    pub fn insert(&self, row: &[f64], prediction: f64) {
        let key = row_key(row);
        let mut shard = self.shard(&key).lock().expect("cache poisoned");
        if shard.len() < self.per_shard_cap || shard.contains_key(&key) {
            shard.insert(key, prediction);
        }
    }

    /// Number of cached feature vectors.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of one batched prediction call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// How many rows were answered from the cache.
    pub cache_hits: u64,
}

/// Pre-resolved global-metrics handles of one [`BatchEngine`], interned
/// once at engine construction (label lookup never runs on the predict
/// path). The `scope` label tells engines apart: serving engines use
/// `workload/kind`, shared/anonymous engines use `"shared"`.
struct EngineMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    batch_rows: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    lookup_ns: Arc<Histogram>,
    predict_ns: Arc<Histogram>,
}

/// Timings and tallies of one executed micro-batch. Measured inside the
/// (possibly parallel) execution but recorded into the global registry
/// only after the parallel section: concurrent `fetch_add`s from rayon
/// workers onto the same counters bounce their cache lines, and that
/// contention would be charged to the very request being measured.
struct MicroBatchObs {
    queue_wait_ns: u64,
    rows: u64,
    lookup_ns: Option<u64>,
    predict_ns: Option<u64>,
    hits: u64,
    misses: u64,
}

/// One micro-batch's output: predictions (request order), cache hits,
/// the indexes of rows that missed, and the observability sample to
/// record once outside any parallel section.
type MicroBatchParts = (Vec<f64>, u64, Vec<usize>, Option<MicroBatchObs>);

impl EngineMetrics {
    /// Flush one micro-batch's measurements (serial, uncontended).
    fn record(&self, obs: &MicroBatchObs) {
        self.queue_wait_ns.record(obs.queue_wait_ns);
        self.batch_rows.record(obs.rows);
        self.hits.add(obs.hits);
        self.misses.add(obs.misses);
        if let Some(ns) = obs.lookup_ns {
            self.lookup_ns.record(ns);
        }
        if let Some(ns) = obs.predict_ns {
            self.predict_ns.record(ns);
        }
    }

    fn for_scope(scope: &str) -> Self {
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        Self {
            hits: reg.counter(
                "lam_cache_hits_total",
                "Prediction-cache lookups answered from the cache.",
                &labels,
            ),
            misses: reg.counter(
                "lam_cache_misses_total",
                "Prediction-cache lookups that fell through to the model.",
                &labels,
            ),
            batch_rows: reg.histogram("lam_batch_rows", "Rows per executed micro-batch.", &labels),
            queue_wait_ns: reg.histogram(
                "lam_batch_queue_wait_ns",
                "Delay between request arrival at the engine and micro-batch execution start.",
                &labels,
            ),
            lookup_ns: reg.histogram(
                "lam_batch_phase_ns",
                "Micro-batch phase duration, nanoseconds.",
                &[("scope", scope), ("phase", "cache-lookup")],
            ),
            predict_ns: reg.histogram(
                "lam_batch_phase_ns",
                "Micro-batch phase duration, nanoseconds.",
                &[("scope", scope), ("phase", "predict")],
            ),
        }
    }
}

/// Order-preserving micro-batch executor over a [`PredictionCache`].
pub struct BatchEngine {
    cache: PredictionCache,
    micro_batch: usize,
    metrics: EngineMetrics,
}

/// Micro-batch size balancing per-batch overhead against load balance;
/// also the default shard count.
pub const DEFAULT_MICRO_BATCH: usize = 64;

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new(DEFAULT_MICRO_BATCH, DEFAULT_MICRO_BATCH)
    }
}

impl BatchEngine {
    /// Engine with explicit micro-batch size and cache shard count,
    /// reporting metrics under the anonymous `scope="shared"` label.
    pub fn new(micro_batch: usize, shards: usize) -> Self {
        Self::scoped(micro_batch, shards, "shared")
    }

    /// Engine whose metrics carry `scope` as their label (serving engines
    /// pass `workload/kind` so cache and batch telemetry is per-model).
    /// Label interning happens here, once — never on the predict path.
    pub fn scoped(micro_batch: usize, shards: usize, scope: &str) -> Self {
        Self {
            cache: PredictionCache::new(shards),
            micro_batch: micro_batch.max(1),
            metrics: EngineMetrics::for_scope(scope),
        }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Predict one micro-batch through the cache, counting hits locally
    /// (not from the global counters, which concurrent requests advance
    /// too).
    ///
    /// Misses are gathered by reference and handed to the model in **one**
    /// [`PredictRow::predict_rows_by_ref`] call, so models with a batch
    /// fast path (arena-compiled trees evaluate misses block-wise) see the
    /// whole miss set instead of a per-row callback. Duplicate rows within
    /// one micro-batch are computed together in that call; they produce
    /// identical values, so the cache still converges to one entry.
    /// `enqueued` is the engine-entry instant when observability is on
    /// (`None` when recording is disabled — then no clocks are read and
    /// no metrics are touched, the baseline the overhead bench measures).
    /// The returned [`MicroBatchObs`] is the caller's to record, *after*
    /// leaving any parallel section.
    fn predict_micro_batch(
        &self,
        model: &dyn PredictRow,
        batch: &[Vec<f64>],
        enqueued: Option<Instant>,
    ) -> MicroBatchParts {
        let started = enqueued.map(|t| {
            let now = Instant::now();
            ((now - t).as_nanos() as u64, now)
        });
        let mut hits = 0u64;
        let mut predictions = vec![0.0f64; batch.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut miss_rows: Vec<&[f64]> = Vec::new();
        for (i, row) in batch.iter().enumerate() {
            match self.cache.get(row) {
                Some(y) => {
                    hits += 1;
                    predictions[i] = y;
                }
                None => {
                    miss_idx.push(i);
                    miss_rows.push(row);
                }
            }
        }
        let mut obs = started.map(|(queue_wait_ns, _)| MicroBatchObs {
            queue_wait_ns,
            rows: batch.len() as u64,
            lookup_ns: None,
            predict_ns: None,
            hits,
            misses: miss_rows.len() as u64,
        });
        if !miss_rows.is_empty() {
            // Phase timings are only taken on miss-bearing micro-batches,
            // where model compute dwarfs the clock reads. The all-hit fast
            // path pays a single `Instant::now` (the queue-wait read above)
            // — `Instant::now` costs ~44ns here, several times a counter
            // add, and would dominate the <2% overhead budget otherwise.
            // One `now` both closes the lookup phase and opens predict.
            let predict_start = started.map(|(_, start)| {
                let now = Instant::now();
                if let Some(obs) = obs.as_mut() {
                    obs.lookup_ns = Some((now - start).as_nanos() as u64);
                }
                now
            });
            let computed = model.predict_rows_by_ref(&miss_rows);
            for ((&i, row), y) in miss_idx.iter().zip(&miss_rows).zip(computed) {
                self.cache.insert(row, y);
                predictions[i] = y;
            }
            if let (Some(t), Some(obs)) = (predict_start, obs.as_mut()) {
                obs.predict_ns = Some(t.elapsed().as_nanos() as u64);
            }
        }
        (predictions, hits, miss_idx, obs)
    }

    /// Predict every row of the request through the cache, fanning
    /// micro-batches across cores. Response order matches request order.
    ///
    /// Requests that fit in one micro-batch skip the parallel executor
    /// entirely — its fixed entry cost would dominate a single cache
    /// lookup.
    pub fn predict(&self, model: &dyn PredictRow, rows: &[Vec<f64>]) -> BatchOutcome {
        // One flag read and (when on) one clock read per request; every
        // per-micro-batch record site keys off this `Option`.
        let enqueued = lam_obs::enabled().then(Instant::now);
        if rows.len() <= self.micro_batch {
            let (predictions, cache_hits, _, obs) = self.predict_micro_batch(model, rows, enqueued);
            if let Some(obs) = obs {
                self.metrics.record(&obs);
            }
            return BatchOutcome {
                predictions,
                cache_hits,
            };
        }
        let batches: Vec<&[Vec<f64>]> = rows.chunks(self.micro_batch).collect();
        let parts: Vec<MicroBatchParts> = batches
            .par_iter()
            .map(|batch| self.predict_micro_batch(model, batch, enqueued))
            .collect();
        for (_, _, _, obs) in &parts {
            if let Some(obs) = obs {
                self.metrics.record(obs);
            }
        }
        let cache_hits = parts.iter().map(|(_, h, _, _)| h).sum();
        let predictions: Vec<f64> = parts.into_iter().flat_map(|(p, _, _, _)| p).collect();
        BatchOutcome {
            predictions,
            cache_hits,
        }
    }

    /// All-or-nothing cache read: the cached predictions of `rows`, in
    /// request order, when **every** row hits; `None` at the first miss.
    ///
    /// An answer counts its hits once, in [`CacheStats`] and (when
    /// recording is on) in `lam_cache_hits_total{scope}`. `None` counts
    /// and inserts nothing, so whatever the caller falls back to
    /// ([`BatchEngine::predict`], a [`BatchScheduler`] submission)
    /// accounts the request exactly as if this lookup never ran. A cache
    /// entry is the value the model computed for that key, so an answer
    /// here is bit-identical to one from [`BatchEngine::predict`].
    pub fn predict_if_cached(&self, rows: &[Vec<f64>]) -> Option<BatchOutcome> {
        let predictions = rows
            .iter()
            .map(|row| self.cache.peek(row))
            .collect::<Option<Vec<f64>>>()?;
        let cache_hits = rows.len() as u64;
        self.cache.hits.fetch_add(cache_hits, Ordering::Relaxed);
        if lam_obs::enabled() {
            self.metrics.hits.add(cache_hits);
        }
        Some(BatchOutcome {
            predictions,
            cache_hits,
        })
    }

    /// Like [`BatchEngine::predict`], but also returns one cache-hit flag
    /// per row. The [`BatchScheduler`] uses this to split a coalesced
    /// cross-request batch back into exact per-request `cache_hits`
    /// tallies (a proportional split would misattribute hits whenever one
    /// request's rows are warm and another's are cold).
    ///
    /// Runs micro-batches sequentially: coalesced flushes are already the
    /// parallelism unit upstream (scheduler workers), so nesting a rayon
    /// fan-out here would only add entry cost.
    pub fn predict_masked(&self, model: &dyn PredictRow, rows: &[Vec<f64>]) -> MaskedOutcome {
        let enqueued = lam_obs::enabled().then(Instant::now);
        let mut predictions = Vec::with_capacity(rows.len());
        let mut hit_mask = vec![true; rows.len()];
        let mut cache_hits = 0u64;
        for (chunk_start, batch) in rows.chunks(self.micro_batch.max(1)).scan(0usize, |off, c| {
            let start = *off;
            *off += c.len();
            Some((start, c))
        }) {
            let (preds, hits, miss_idx, obs) = self.predict_micro_batch(model, batch, enqueued);
            if let Some(obs) = obs {
                self.metrics.record(&obs);
            }
            cache_hits += hits;
            for i in miss_idx {
                hit_mask[chunk_start + i] = false;
            }
            predictions.extend(preds);
        }
        MaskedOutcome {
            predictions,
            hit_mask,
            cache_hits,
        }
    }
}

/// A batched prediction outcome carrying one cache-hit flag per row; see
/// [`BatchEngine::predict_masked`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// `hit_mask[i]` is `true` when row `i` was answered from the cache.
    pub hit_mask: Vec<bool>,
    /// Total rows answered from the cache (`hit_mask` trues).
    pub cache_hits: u64,
}

/// Something the [`BatchScheduler`] can execute a coalesced batch
/// against. The serving layer implements this for its loaded models
/// (routing through the model's own [`BatchEngine`] and compiled
/// predictor); tests implement it directly.
pub trait BatchTarget: Send + Sync {
    /// Predict every row, returning per-row cache-hit flags so the
    /// scheduler can split the outcome back per submission.
    fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome;
}

/// Why a submission was refused; the serving layer turns this into a
/// `503` + `Retry-After` (load shedding), never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler's queued-row budget is exhausted.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "batch queue full"),
            SubmitError::ShuttingDown => write!(f, "scheduler shutting down"),
        }
    }
}

/// Tuning knobs of a [`BatchScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Flush a lane once it holds at least this many rows.
    pub max_batch_rows: usize,
    /// Flush a lane this long after its first row arrived, even if it is
    /// not full — bounds the latency cost of waiting for co-batchable
    /// traffic.
    pub flush_deadline: Duration,
    /// Total rows allowed across all lanes; submissions beyond it are
    /// refused ([`SubmitError::QueueFull`]) so overload sheds instead of
    /// queueing without bound.
    pub max_queued_rows: usize,
    /// Executor threads draining ready lanes.
    pub workers: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            max_batch_rows: 256,
            flush_deadline: Duration::from_micros(200),
            max_queued_rows: 16 * 1024,
            workers: 2,
        }
    }
}

/// One queued submission: rows plus the completion that receives its
/// slice of the coalesced outcome.
struct LaneEntry {
    rows: Vec<Vec<f64>>,
    enqueued: Instant,
    complete: Box<dyn FnOnce(MaskedOutcome) + Send>,
}

/// All queued submissions against one target, coalesced into the next
/// flush.
struct Lane {
    target: Arc<dyn BatchTarget>,
    entries: Vec<LaneEntry>,
    rows: usize,
    opened: Instant,
}

struct SchedulerState {
    lanes: HashMap<usize, Lane>,
    queued_rows: usize,
    stopping: bool,
}

/// Pre-interned scheduler metrics: how well cross-request coalescing is
/// working. `lam_batch_occupancy` is the headline — its mean is the
/// number of independent submissions answered per executed batch (1.0
/// means no cross-request batching is forming at all).
struct SchedulerMetrics {
    occupancy: Arc<Histogram>,
    flush_rows: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    shed: Arc<Counter>,
}

impl SchedulerMetrics {
    fn new() -> Self {
        let reg = lam_obs::global();
        let labels = [("scope", "sched")];
        Self {
            occupancy: reg.histogram(
                "lam_batch_occupancy",
                "Independent submissions coalesced into one executed batch.",
                &labels,
            ),
            flush_rows: reg.histogram(
                "lam_batch_flush_rows",
                "Rows per coalesced cross-request batch flush.",
                &labels,
            ),
            queue_wait_ns: reg.histogram(
                "lam_batch_queue_wait_ns",
                "Delay between request arrival at the engine and micro-batch execution start.",
                &labels,
            ),
            shed: reg.counter(
                "lam_requests_shed_total",
                "Requests refused to bound queueing, by shedding site.",
                &[("reason", "batch-queue")],
            ),
        }
    }
}

/// A cross-request micro-batching executor: concurrent submissions
/// against the same [`BatchTarget`] coalesce into one batched predict
/// call, so many small independent requests get ensemble-batch
/// throughput.
///
/// Lanes (one per target) flush when any of three conditions holds:
///
/// 1. **size** — the lane reached [`SchedulerOptions::max_batch_rows`];
/// 2. **deadline** — [`SchedulerOptions::flush_deadline`] elapsed since
///    the lane opened;
/// 3. **idle producers** — the producer hint (see
///    [`BatchScheduler::producer_hint`]) reports no request handler is
///    currently working toward a submission, so waiting longer cannot
///    grow the batch. This is what keeps low-concurrency traffic at
///    native latency: a lone closed-loop client never waits out the
///    deadline.
///
/// Backpressure is explicit: a submission that would exceed
/// [`SchedulerOptions::max_queued_rows`] is refused with
/// [`SubmitError::QueueFull`] and counted in `lam_requests_shed_total`,
/// and the caller sheds (HTTP 503). Queue-wait and batch-occupancy
/// histograms record what coalescing actually formed.
pub struct BatchScheduler {
    shared: Arc<SchedulerShared>,
    workers: Vec<JoinHandle<()>>,
}

struct SchedulerShared {
    state: Mutex<SchedulerState>,
    ready: Condvar,
    opts: SchedulerOptions,
    /// Request handlers mid-flight (parsed but not yet submitted); when
    /// zero, waiting on a deadline cannot gain occupancy.
    producers: AtomicUsize,
    metrics: SchedulerMetrics,
}

impl BatchScheduler {
    /// Start `opts.workers` executor threads.
    pub fn new(opts: SchedulerOptions) -> Self {
        let shared = Arc::new(SchedulerShared {
            state: Mutex::new(SchedulerState {
                lanes: HashMap::new(),
                queued_rows: 0,
                stopping: false,
            }),
            ready: Condvar::new(),
            opts: SchedulerOptions {
                max_batch_rows: opts.max_batch_rows.max(1),
                workers: opts.workers.max(1),
                ..opts
            },
            producers: AtomicUsize::new(0),
            metrics: SchedulerMetrics::new(),
        });
        let workers = (0..shared.opts.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// RAII producer-hint guard: hold one while handling a request that
    /// may submit, so the scheduler knows more rows may be coming and a
    /// short deadline wait can pay off. The guard is owned (`Arc`-backed)
    /// and `Send`, so it can ride along with a request across threads.
    pub fn producer_hint(&self) -> ProducerGuard {
        self.shared.producers.fetch_add(1, Ordering::SeqCst);
        ProducerGuard {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Reserve queue budget for an `n_rows` submission. The two-step
    /// reserve-then-[`SubmitPermit::submit`] shape lets a caller learn
    /// the shed decision *before* constructing its completion (an HTTP
    /// handler answers 503 with the response channel it would otherwise
    /// move into the closure). Refusal is the backpressure signal:
    /// beyond [`SchedulerOptions::max_queued_rows`] the caller sheds
    /// instead of queueing without bound.
    pub fn try_reserve(&self, n_rows: usize) -> Result<SubmitPermit, SubmitError> {
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.stopping {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queued_rows + n_rows > self.shared.opts.max_queued_rows {
            self.shared.metrics.shed.inc();
            return Err(SubmitError::QueueFull);
        }
        state.queued_rows += n_rows;
        Ok(SubmitPermit {
            shared: Arc::clone(&self.shared),
            rows: n_rows,
            consumed: false,
        })
    }

    /// Rows currently queued across all lanes.
    pub fn queued_rows(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler poisoned")
            .queued_rows
    }

    /// Flush every remaining lane, then stop and join the executors.
    /// Queued completions still run (graceful drain); new submissions are
    /// refused from the moment this is called.
    pub fn shutdown(mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.stopping = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            {
                let mut state = self.shared.state.lock().expect("scheduler poisoned");
                state.stopping = true;
            }
            self.shared.ready.notify_all();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

/// A reserved slice of the scheduler's queue budget; see
/// [`BatchScheduler::try_reserve`]. Dropping an unsubmitted permit
/// releases the reservation.
pub struct SubmitPermit {
    shared: Arc<SchedulerShared>,
    rows: usize,
    consumed: bool,
}

impl SubmitPermit {
    /// Queue `rows` for a coalesced predict against `target`; `complete`
    /// receives this submission's slice of the batched outcome on an
    /// executor thread. `rows.len()` must match the reserved count.
    ///
    /// The completion is guaranteed to run exactly once: if the
    /// scheduler began stopping after this permit was reserved, the
    /// batch executes inline on the calling thread instead of being
    /// queued behind executors that may already have drained and exited.
    pub fn submit(
        mut self,
        target: Arc<dyn BatchTarget>,
        rows: Vec<Vec<f64>>,
        complete: Box<dyn FnOnce(MaskedOutcome) + Send>,
    ) {
        assert_eq!(
            rows.len(),
            self.rows,
            "permit reserved a different row count"
        );
        self.consumed = true;
        let n = rows.len();
        let key = Arc::as_ptr(&target) as *const () as usize;
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.stopping {
            state.queued_rows -= n;
            drop(state);
            let outcome = target.run_batch(&rows);
            complete(outcome);
            return;
        }
        let now = Instant::now();
        let lane = state.lanes.entry(key).or_insert_with(|| Lane {
            target,
            entries: Vec::new(),
            rows: 0,
            opened: now,
        });
        lane.rows += n;
        lane.entries.push(LaneEntry {
            rows,
            enqueued: now,
            complete,
        });
        drop(state);
        // Executors sleep on a deadline-bounded wait, so one notify is
        // enough whether or not the lane is already flush-ready.
        self.shared.ready.notify_one();
    }
}

impl Drop for SubmitPermit {
    fn drop(&mut self) {
        if !self.consumed {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.queued_rows -= self.rows;
        }
    }
}

/// RAII guard for the scheduler's producer hint; see
/// [`BatchScheduler::producer_hint`].
pub struct ProducerGuard {
    shared: Arc<SchedulerShared>,
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        // The producer is done (its submission, if any, is queued): if it
        // was the last one, wake an executor so an idle-flush can fire
        // without waiting out the deadline.
        if self.shared.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.ready.notify_one();
        }
    }
}

/// Pop one flush-ready lane, or compute how long to wait for the nearest
/// deadline. `stopping` makes every non-empty lane ready (drain).
fn take_ready_lane(
    state: &mut SchedulerState,
    opts: &SchedulerOptions,
    producers_idle: bool,
    now: Instant,
) -> Result<Lane, Option<Duration>> {
    let mut next_deadline: Option<Duration> = None;
    let mut ready_key = None;
    for (&key, lane) in &state.lanes {
        let age = now.saturating_duration_since(lane.opened);
        if lane.rows >= opts.max_batch_rows
            || age >= opts.flush_deadline
            || producers_idle
            || state.stopping
        {
            ready_key = Some(key);
            break;
        }
        let remaining = opts.flush_deadline - age;
        next_deadline = Some(match next_deadline {
            Some(d) => d.min(remaining),
            None => remaining,
        });
    }
    match ready_key {
        Some(key) => {
            let lane = state.lanes.remove(&key).expect("key just seen");
            state.queued_rows -= lane.rows;
            Ok(lane)
        }
        None => Err(next_deadline),
    }
}

fn worker_loop(shared: &SchedulerShared) {
    let mut state = shared.state.lock().expect("scheduler poisoned");
    loop {
        let producers_idle = shared.producers.load(Ordering::SeqCst) == 0;
        match take_ready_lane(&mut state, &shared.opts, producers_idle, Instant::now()) {
            Ok(lane) => {
                drop(state);
                execute_lane(shared, lane);
                state = shared.state.lock().expect("scheduler poisoned");
            }
            Err(next_deadline) => {
                if state.stopping && state.lanes.is_empty() {
                    return;
                }
                // No ready lane: sleep until the nearest deadline (or for
                // a notify). An empty lane set waits purely on notifies,
                // with a coarse cap so a missed wake cannot hang drain.
                let wait = next_deadline.unwrap_or(Duration::from_millis(100));
                state = shared
                    .ready
                    .wait_timeout(state, wait)
                    .expect("scheduler poisoned")
                    .0;
            }
        }
    }
}

/// Execute one coalesced lane outside the scheduler lock and split the
/// outcome back per submission, preserving each submission's row order.
fn execute_lane(shared: &SchedulerShared, lane: Lane) {
    let enabled = lam_obs::enabled();
    let started = enabled.then(Instant::now);
    let all_rows: Vec<Vec<f64>> = lane.entries.iter().flat_map(|e| e.rows.clone()).collect();
    let outcome = lane.target.run_batch(&all_rows);
    debug_assert_eq!(outcome.predictions.len(), all_rows.len());
    if let Some(started) = started {
        shared.metrics.occupancy.record(lane.entries.len() as u64);
        shared.metrics.flush_rows.record(all_rows.len() as u64);
        for e in &lane.entries {
            shared
                .metrics
                .queue_wait_ns
                .record((started - e.enqueued).as_nanos().min(u64::MAX as u128) as u64);
        }
    }
    let mut offset = 0usize;
    for entry in lane.entries {
        let n = entry.rows.len();
        let predictions = outcome.predictions[offset..offset + n].to_vec();
        let hit_mask = outcome.hit_mask[offset..offset + n].to_vec();
        let cache_hits = hit_mask.iter().filter(|&&h| h).count() as u64;
        offset += n;
        (entry.complete)(MaskedOutcome {
            predictions,
            hit_mask,
            cache_hits,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic toy model: y = 2*x0 + x1.
    struct Toy;
    impl PredictRow for Toy {
        fn predict_row(&self, x: &[f64]) -> f64 {
            2.0 * x[0] + x.get(1).copied().unwrap_or(0.0)
        }
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (i % 7) as f64]).collect()
    }

    #[test]
    fn batched_predictions_preserve_request_order() {
        let engine = BatchEngine::new(8, 4);
        let rows = rows(1000);
        let out = engine.predict(&Toy, &rows);
        assert_eq!(out.predictions.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.predictions[i], Toy.predict_row(row), "row {i}");
        }
    }

    #[test]
    fn second_pass_is_all_cache_hits() {
        let engine = BatchEngine::new(16, 8);
        let rows = rows(300);
        let cold = engine.predict(&Toy, &rows);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(engine.cache().len(), rows.len());
        let warm = engine.predict(&Toy, &rows);
        assert_eq!(warm.cache_hits, rows.len() as u64);
        assert_eq!(warm.predictions, cold.predictions);
    }

    #[test]
    fn cache_distinguishes_bitwise_different_rows() {
        let cache = PredictionCache::new(4);
        cache.insert(&[1.0, 2.0], 10.0);
        assert_eq!(cache.get(&[1.0, 2.0]), Some(10.0));
        assert_eq!(cache.get(&[1.0, 2.0000000000000004]), None);
        assert_eq!(cache.get(&[1.0]), None);
        // -0.0 and 0.0 differ bitwise: distinct cache entries.
        cache.insert(&[0.0], 1.0);
        assert_eq!(cache.get(&[-0.0]), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn capacity_bounds_entries_without_breaking_predictions() {
        let cache = PredictionCache::with_capacity(2, 4);
        for i in 0..100 {
            cache.insert(&[i as f64], i as f64);
        }
        assert!(cache.len() <= 4, "len {}", cache.len());
        // Overwriting an existing key still works at capacity.
        let kept: Vec<f64> = (0..100)
            .map(|i| i as f64)
            .filter(|&x| cache.get(&[x]).is_some())
            .collect();
        let k = kept[0];
        cache.insert(&[k], -1.0);
        assert_eq!(cache.get(&[k]), Some(-1.0));
    }

    #[test]
    fn empty_request_is_fine() {
        let engine = BatchEngine::default();
        let out = engine.predict(&Toy, &[]);
        assert!(out.predictions.is_empty());
        assert_eq!(out.cache_hits, 0);
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn scoped_engine_feeds_the_global_metrics_registry() {
        // A unique scope keeps this test independent of every other
        // engine in the process.
        let scope = "batch-metrics-selftest";
        let engine = BatchEngine::scoped(8, 4, scope);
        let rows = rows(20);
        engine.predict(&Toy, &rows);
        engine.predict(&Toy, &rows);
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        let hits = reg.counter("lam_cache_hits_total", "", &labels).get();
        let misses = reg.counter("lam_cache_misses_total", "", &labels).get();
        assert_eq!(misses, 20, "first pass all misses");
        assert_eq!(hits, 20, "second pass all hits");
        let sizes = reg.histogram("lam_batch_rows", "", &labels).snapshot();
        // 20 rows in 8-row micro-batches = 3 batches per pass.
        assert_eq!(sizes.count(), 6);
        assert_eq!(sizes.max, 8);
        let waits = reg
            .histogram("lam_batch_queue_wait_ns", "", &labels)
            .snapshot();
        assert_eq!(waits.count(), 6);
        // Phase timings are only taken on miss-bearing micro-batches
        // (the all-hit fast path skips the extra clock reads), so only
        // the first pass's 3 micro-batches show up here.
        let lookups = reg
            .histogram(
                "lam_batch_phase_ns",
                "",
                &[("scope", scope), ("phase", "cache-lookup")],
            )
            .snapshot();
        assert_eq!(lookups.count(), 3);
    }

    #[test]
    fn cached_lookup_answers_all_hit_requests_and_counts_once() {
        let scope = "batch-if-cached-hit-selftest";
        let engine = BatchEngine::scoped(8, 4, scope);
        let warm = rows(20);
        let cold = engine.predict(&Toy, &warm);
        let stats = engine.cache().stats();
        let hits = lam_obs::global().counter("lam_cache_hits_total", "", &[("scope", scope)]);
        let hits_before = hits.get();
        // Any order, duplicates included: every row is cached.
        let request = vec![warm[7].clone(), warm[0].clone(), warm[7].clone()];
        let out = engine.predict_if_cached(&request).expect("every row hits");
        assert_eq!(
            out.predictions,
            vec![
                cold.predictions[7],
                cold.predictions[0],
                cold.predictions[7]
            ]
        );
        assert_eq!(out.cache_hits, request.len() as u64);
        let after = engine.cache().stats();
        assert_eq!(after.hits - stats.hits, request.len() as u64);
        assert_eq!(after.misses, stats.misses);
        assert_eq!(hits.get() - hits_before, request.len() as u64);
    }

    #[test]
    fn cached_lookup_declines_on_any_miss_without_side_effects() {
        let scope = "batch-if-cached-miss-selftest";
        let engine = BatchEngine::scoped(8, 4, scope);
        engine.predict(&Toy, &rows(5));
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        let global = || {
            (
                reg.counter("lam_cache_hits_total", "", &labels).get(),
                reg.counter("lam_cache_misses_total", "", &labels).get(),
            )
        };
        let (stats, counters, len) = (engine.cache().stats(), global(), engine.cache().len());
        // Warm rows around one cold row: the whole request is declined.
        let request = vec![rows(5)[1].clone(), vec![99.0, 1.0], rows(5)[2].clone()];
        assert_eq!(engine.predict_if_cached(&request), None);
        assert_eq!(engine.cache().stats(), stats);
        assert_eq!(global(), counters);
        assert_eq!(engine.cache().len(), len);
        assert_eq!(
            engine.cache().get(&[99.0, 1.0]),
            None,
            "nothing was inserted"
        );
    }

    #[test]
    fn masked_outcome_flags_hits_per_row() {
        let engine = BatchEngine::new(4, 2);
        // Warm rows 0..3; then predict a mix of warm and cold rows.
        engine.predict(&Toy, &rows(3));
        let mixed = vec![
            vec![0.0, 0.0], // warm
            vec![50.0, 1.0],
            vec![1.0, 1.0], // warm
            vec![60.0, 4.0],
            vec![2.0, 2.0], // warm
        ];
        let out = engine.predict_masked(&Toy, &mixed);
        assert_eq!(out.hit_mask, vec![true, false, true, false, true]);
        assert_eq!(out.cache_hits, 3);
        for (i, row) in mixed.iter().enumerate() {
            assert_eq!(out.predictions[i], Toy.predict_row(row), "row {i}");
        }
    }

    /// Minimal target over a shared engine, counting executed batches.
    struct CountingTarget {
        engine: BatchEngine,
        calls: AtomicU64,
    }
    impl BatchTarget for CountingTarget {
        fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.engine.predict_masked(&Toy, rows)
        }
    }

    fn counting_target() -> Arc<CountingTarget> {
        Arc::new(CountingTarget {
            engine: BatchEngine::new(512, 4),
            calls: AtomicU64::new(0),
        })
    }

    fn submit_and_collect(
        sched: &BatchScheduler,
        target: Arc<CountingTarget>,
        all_rows: Vec<Vec<Vec<f64>>>,
    ) -> Vec<MaskedOutcome> {
        let results: Arc<Mutex<Vec<Option<MaskedOutcome>>>> =
            Arc::new(Mutex::new(vec![None; all_rows.len()]));
        {
            // Hold the producer hint across all submissions so the
            // scheduler waits for the whole group before flushing.
            let _hint = sched.producer_hint();
            for (i, rows) in all_rows.into_iter().enumerate() {
                let results = Arc::clone(&results);
                let target: Arc<dyn BatchTarget> = target.clone();
                let permit = sched.try_reserve(rows.len()).expect("reserve");
                permit.submit(
                    target,
                    rows,
                    Box::new(move |out| {
                        results.lock().unwrap()[i] = Some(out);
                    }),
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let got = results.lock().unwrap();
                if got.iter().all(|r| r.is_some()) {
                    return got.iter().map(|r| r.clone().unwrap()).collect();
                }
            }
            assert!(Instant::now() < deadline, "scheduler never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn scheduler_coalesces_submissions_into_one_batch() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_millis(50),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let outs = submit_and_collect(
            &sched,
            target.clone(),
            (0..8).map(|i| vec![vec![i as f64, 1.0]]).collect(),
        );
        // All eight single-row submissions arrived under one producer
        // hint within one deadline window: exactly one executed batch.
        assert_eq!(target.calls.load(Ordering::SeqCst), 1);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.predictions, vec![2.0 * i as f64 + 1.0]);
            assert_eq!(out.hit_mask.len(), 1);
        }
        sched.shutdown();
    }

    #[test]
    fn scheduler_splits_cache_hits_exactly_per_submission() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_millis(20),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        // Warm only the rows of the second submission.
        target.engine.predict(&Toy, &[vec![7.0, 7.0]]);
        let outs = submit_and_collect(
            &sched,
            target.clone(),
            vec![
                vec![vec![100.0, 0.0], vec![101.0, 0.0]], // cold, cold
                vec![vec![7.0, 7.0]],                     // warm
            ],
        );
        assert_eq!(outs[0].cache_hits, 0);
        assert_eq!(outs[0].hit_mask, vec![false, false]);
        assert_eq!(outs[1].cache_hits, 1);
        assert_eq!(outs[1].hit_mask, vec![true]);
        sched.shutdown();
    }

    #[test]
    fn scheduler_sheds_when_row_budget_is_exhausted() {
        let sched = BatchScheduler::new(SchedulerOptions {
            max_queued_rows: 3,
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        // Keep the hint held so nothing flushes while we overfill.
        let _hint = sched.producer_hint();
        let t: Arc<dyn BatchTarget> = target.clone();
        sched.try_reserve(3).expect("within budget").submit(
            t,
            vec![vec![1.0]; 3],
            Box::new(|_| {}),
        );
        let Err(err) = sched.try_reserve(1) else {
            panic!("over-budget reserve must be refused");
        };
        assert_eq!(err, SubmitError::QueueFull);
        // A dropped (unsubmitted) permit releases its reservation.
        drop(sched.try_reserve(0).expect("zero-row reserve"));
        drop(_hint);
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_submissions() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let done = Arc::new(AtomicU64::new(0));
        {
            let _hint = sched.producer_hint();
            for i in 0..4 {
                let done = Arc::clone(&done);
                let t: Arc<dyn BatchTarget> = target.clone();
                sched.try_reserve(1).expect("reserve").submit(
                    t,
                    vec![vec![i as f64, 0.0]],
                    Box::new(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
            // Hint still held: with a 10s deadline nothing has flushed;
            // shutdown must drain these, not drop them.
            sched.shutdown();
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn idle_producers_flush_without_waiting_out_the_deadline() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let started = Instant::now();
        let outs = submit_and_collect(&sched, target, vec![vec![vec![3.0, 1.0]]]);
        // The hint dropped right after the lone submission, so the flush
        // must fire on the idle hint, far inside the 10s deadline.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(outs[0].predictions, vec![7.0]);
        sched.shutdown();
    }

    #[test]
    fn duplicate_rows_in_one_request_hit_after_first_compute() {
        let engine = BatchEngine::new(1, 2);
        let rows = vec![vec![5.0, 1.0]; 10];
        // One worker thread makes the hit count deterministic: the first
        // occurrence computes, the other nine hit.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let out = pool.install(|| engine.predict(&Toy, &rows));
        assert_eq!(out.cache_hits, 9);
        assert!(out.predictions.iter().all(|&y| y == 11.0));
        assert_eq!(engine.cache().len(), 1);
    }
}
