//! Batched inference: an immutable per-model table of a configuration
//! space's predictions plus an order-preserving micro-batch executor over
//! any [`PredictRow`] model.
//!
//! Configuration spaces are finite and enumerable, so the rows worth
//! remembering are known before the first request arrives. A
//! [`SpaceTable`] predicts every configuration once, when its model
//! loads, and then answers each of those rows with one probe of a flat
//! open-addressing index: no lock, no allocation. Any other row is
//! computed and never stored, so a model's memory stays the table's size
//! whatever clients send.
//!
//! The executor splits a request's rows into fixed-size micro-batches and
//! fans them across cores with the vendored rayon, whose parallel map is
//! order preserving (results are stitched back in input order), so
//! response position `i` always answers request row `i`.
//!
//! Serving reads the table first: [`BatchEngine::predict_if_cached`]
//! answers a request on the calling thread when every row is in the
//! table, so only requests with a row outside it pay for cross-request
//! coalescing in the [`BatchScheduler`] (a table hit has no model work to
//! share).
//!
//! This module lives in `lam-core` (not the serving crate) because it has
//! two independent consumers: `lam-serve`'s `/predict` path and
//! `lam-tune`'s model-guided search strategies, which score whole
//! configuration spaces through the same executor, with no table (a
//! freshly refit guide has nothing to look up).

use crate::predict::PredictRow;
use lam_obs::{Counter, Histogram};
use rayon::prelude::*;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Key for one feature row: the exact bit patterns of its floats (no
/// epsilon grouping — only a bit-identical row is "the same query").
/// Public because it *is* the workspace's definition of "the same
/// configuration row": [`SpaceTable`] keys rows by it, and the tuner's
/// parameter lattice indexes rows with the identical convention.
pub fn row_key(row: &[f64]) -> Box<[u64]> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Most rows a [`SpaceTable`] holds. The built-in spaces have 96–3249
/// configurations; a larger space gets an empty table, and every one of
/// its rows is computed.
pub const MAX_TABLE_ROWS: usize = 1 << 16;

/// An unused slot of a [`SpaceTable`]'s index.
const EMPTY: u32 = u32::MAX;

/// splitmix64's output finalizer (Steele, Lea & Flood, OOPSLA 2014):
/// every input bit flips every output bit with probability about one
/// half. Grid features are small integers and powers of two, whose bit
/// patterns end in long runs of zero mantissa bits; a weaker mix leaves
/// those runs in the low bits that pick a slot, and probes pile up.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a row's [`row_key`] bits, mixed after every feature.
fn key_hash(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0, |h, b| mix64(h ^ b))
}

/// An immutable prediction table over an enumerable configuration space.
///
/// [`SpaceTable::build`] predicts every row once with the model's own
/// [`PredictRow::predict_rows_by_ref`], the call the executor makes for
/// rows outside the table, so an entry is bit-identical to computing its
/// row. Rows are keyed by [`row_key`]'s bit convention. A lookup hashes
/// the row's bits and walks a linear-probing index that is a power of
/// two in size and at most half full: no lock and no allocation. Only
/// the space's own rows are ever inserted, so a row a client crafts can
/// probe no further than the longest run the space itself left.
#[derive(Default)]
pub struct SpaceTable {
    /// Features per row.
    width: usize,
    /// Row `i`'s feature bits, at `keys[i * width..(i + 1) * width]`.
    keys: Vec<u64>,
    /// Row `i`'s prediction.
    values: Vec<f64>,
    /// The index: a row number, or [`EMPTY`].
    slots: Vec<u32>,
}

impl SpaceTable {
    /// Predict every row of `space` with `model` and index the answers.
    /// A row listed twice is stored once. A space with more than
    /// [`MAX_TABLE_ROWS`] rows, or whose rows differ in width, gets an
    /// empty table, and nothing is predicted.
    pub fn build(model: &dyn PredictRow, space: &[Vec<f64>]) -> Self {
        let width = space.first().map_or(0, Vec::len);
        if space.is_empty()
            || space.len() > MAX_TABLE_ROWS
            || space.iter().any(|r| r.len() != width)
        {
            return Self::default();
        }
        let rows: Vec<&[f64]> = space.iter().map(Vec::as_slice).collect();
        let predictions = model.predict_rows_by_ref(&rows);
        let mut table = Self {
            width,
            keys: Vec::with_capacity(space.len() * width),
            values: Vec::with_capacity(space.len()),
            slots: vec![EMPTY; (2 * space.len()).next_power_of_two()],
        };
        for (row, y) in rows.into_iter().zip(predictions) {
            if let Err(slot) = table.probe(row) {
                table.slots[slot] = table.values.len() as u32;
                table.keys.extend(row.iter().map(|v| v.to_bits()));
                table.values.push(y);
            }
        }
        table
    }

    /// Row `i`'s key bits.
    fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// Walk `row`'s probe sequence: `Ok(its row number)` when stored,
    /// else `Err(the empty slot that ends the walk)`. The index must be
    /// non-empty.
    fn probe(&self, row: &[f64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = key_hash(row.iter().map(|v| v.to_bits())) as usize & mask;
        loop {
            let i = self.slots[slot];
            if i == EMPTY {
                return Err(slot);
            }
            if self
                .key(i as usize)
                .iter()
                .zip(row)
                .all(|(&k, v)| k == v.to_bits())
            {
                return Ok(i as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The stored prediction for `row`, if `row` is in the table.
    pub fn get(&self, row: &[f64]) -> Option<f64> {
        if self.values.is_empty() || row.len() != self.width {
            return None;
        }
        self.probe(row).ok().map(|i| self.values[i])
    }

    /// Number of distinct rows stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing is stored (every row is computed).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean number of index slots a lookup of a stored row examines: 1.0
    /// when every row sits in the slot its hash picks. It measures how
    /// evenly the hash spreads this space's keys; 0.0 for an empty table.
    pub fn mean_probe_length(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        // Linear probing: a row's lookup walks from its hash's slot to
        // the slot it sits in.
        let mask = self.slots.len() - 1;
        let total: usize = (self.slots.iter().enumerate())
            .filter(|&(_, &i)| i != EMPTY)
            .map(|(slot, &i)| {
                let home = key_hash(self.key(i as usize).iter().copied()) as usize & mask;
                (slot.wrapping_sub(home) & mask) + 1
            })
            .sum();
        total as f64 / self.len() as f64
    }
}

/// Outcome of one batched prediction call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// How many rows were answered from the engine's [`SpaceTable`].
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

/// One micro-batch's output: predictions (request order), table hits,
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
                "Rows answered from the model's space table.",
                &labels,
            ),
            misses: reg.counter(
                "lam_cache_misses_total",
                "Rows computed because the model's space table does not hold them.",
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

/// Order-preserving micro-batch executor: rows in its [`SpaceTable`] are
/// answered from it, every other row is computed by the model.
pub struct BatchEngine {
    table: SpaceTable,
    micro_batch: usize,
    metrics: EngineMetrics,
}

/// Micro-batch size balancing per-batch overhead against load balance.
pub const DEFAULT_MICRO_BATCH: usize = 64;

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new(DEFAULT_MICRO_BATCH)
    }
}

impl BatchEngine {
    /// A plain executor: no table, so every row is computed. Metrics go
    /// under the anonymous `scope="shared"` label.
    pub fn new(micro_batch: usize) -> Self {
        Self::scoped(micro_batch, SpaceTable::default(), "shared")
    }

    /// Engine that answers `table`'s rows from it, with metrics labelled
    /// `scope` (serving engines pass `workload/kind`, so table and batch
    /// telemetry is per model). Label interning happens here, once —
    /// never on the predict path.
    pub fn scoped(micro_batch: usize, table: SpaceTable, scope: &str) -> Self {
        Self {
            table,
            micro_batch: micro_batch.max(1),
            metrics: EngineMetrics::for_scope(scope),
        }
    }

    /// Predict one micro-batch: table rows from the table, the rest from
    /// the model. Hits are counted locally (not from the global counters,
    /// which concurrent requests advance too).
    ///
    /// Misses are gathered by reference and handed to the model in **one**
    /// [`PredictRow::predict_rows_by_ref`] call, so models with a batch
    /// fast path (arena-compiled trees evaluate misses block-wise) see the
    /// whole miss set instead of a per-row callback. Nothing computed here
    /// is stored.
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
            match self.table.get(row) {
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
            for (&i, y) in miss_idx.iter().zip(computed) {
                predictions[i] = y;
            }
            if let (Some(t), Some(obs)) = (predict_start, obs.as_mut()) {
                obs.predict_ns = Some(t.elapsed().as_nanos() as u64);
            }
        }
        (predictions, hits, miss_idx, obs)
    }

    /// Predict every row of the request, fanning micro-batches across
    /// cores. Response order matches request order.
    ///
    /// Requests that fit in one micro-batch skip the parallel executor
    /// entirely — its fixed entry cost would dominate a table lookup.
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

    /// All-or-nothing table read: the stored predictions of `rows`, in
    /// request order, when **every** row is in the table; `None` at the
    /// first row that is not.
    ///
    /// An answer counts its hits once (when recording is on) in
    /// `lam_cache_hits_total{scope}`. `None` counts nothing, so whatever
    /// the caller falls back to ([`BatchEngine::predict`], a
    /// [`BatchScheduler`] submission) accounts the request exactly as if
    /// this lookup never ran. A table entry is the value the model
    /// computes for its row, so an answer here is bit-identical to one
    /// from [`BatchEngine::predict`]. The output vector is the only
    /// allocation.
    pub fn predict_if_cached(&self, rows: &[Vec<f64>]) -> Option<BatchOutcome> {
        let mut predictions = Vec::with_capacity(rows.len());
        for row in rows {
            predictions.push(self.table.get(row)?);
        }
        let cache_hits = rows.len() as u64;
        if lam_obs::enabled() {
            self.metrics.hits.add(cache_hits);
        }
        Some(BatchOutcome {
            predictions,
            cache_hits,
        })
    }

    /// Like [`BatchEngine::predict`], but also returns one table-hit flag
    /// per row. The [`BatchScheduler`] uses this to split a coalesced
    /// cross-request batch back into exact per-request `cache_hits`
    /// tallies (a proportional split would misattribute hits whenever one
    /// request's rows are in the table and another's are not).
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

/// A batched prediction outcome carrying one table-hit flag per row; see
/// [`BatchEngine::predict_masked`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// `hit_mask[i]` is `true` when row `i` was answered from the table.
    pub hit_mask: Vec<bool>,
    /// Total rows answered from the table (`hit_mask` trues).
    pub cache_hits: u64,
}

/// Something the [`BatchScheduler`] can execute a coalesced batch
/// against. The serving layer implements this for its loaded models
/// (routing through the model's own [`BatchEngine`] and compiled
/// predictor); tests implement it directly.
pub trait BatchTarget: Send + Sync {
    /// Predict every row, returning per-row table-hit flags so the
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
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lam-sched-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn a scheduler worker")
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
                // A target that panics must not take the worker with it:
                // unwinding drops the lane's completions unrun (their
                // owners answer the failure when dropped), and the worker
                // goes on serving the other lanes.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| execute_lane(shared, lane)));
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
    use std::sync::atomic::AtomicU64;

    /// Deterministic toy model: y = 2*x0 + x1.
    struct Toy;
    impl PredictRow for Toy {
        fn predict_row(&self, x: &[f64]) -> f64 {
            2.0 * x[0] + x.get(1).copied().unwrap_or(0.0)
        }
    }

    /// [`Toy`], counting the rows it is asked to predict.
    #[derive(Default)]
    struct CountingToy(AtomicU64);
    impl PredictRow for CountingToy {
        fn predict_row(&self, x: &[f64]) -> f64 {
            self.0.fetch_add(1, Ordering::SeqCst);
            Toy.predict_row(x)
        }
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (i % 7) as f64]).collect()
    }

    /// An engine whose table holds `Toy`'s predictions of `space`.
    fn table_engine(micro_batch: usize, space: &[Vec<f64>], scope: &str) -> BatchEngine {
        BatchEngine::scoped(micro_batch, SpaceTable::build(&Toy, space), scope)
    }

    #[test]
    fn batched_predictions_preserve_request_order() {
        let engine = BatchEngine::new(8);
        let rows = rows(1000);
        let out = engine.predict(&Toy, &rows);
        assert_eq!(out.predictions.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.predictions[i], Toy.predict_row(row), "row {i}");
        }
    }

    #[test]
    fn table_rows_hit_from_the_first_pass() {
        let rows = rows(300);
        let engine = table_engine(16, &rows, "shared");
        assert_eq!(engine.table.len(), rows.len());
        let model = CountingToy::default();
        for _ in 0..2 {
            let out = engine.predict(&model, &rows);
            assert_eq!(out.cache_hits, rows.len() as u64);
            let expected: Vec<f64> = rows.iter().map(|r| Toy.predict_row(r)).collect();
            assert_eq!(out.predictions, expected);
        }
        assert_eq!(model.0.load(Ordering::SeqCst), 0, "no row was computed");
    }

    #[test]
    fn off_table_rows_are_computed_every_time_and_never_stored() {
        let engine = table_engine(4, &rows(5), "shared");
        let model = CountingToy::default();
        // One off-table row, repeated within a request and across two.
        let request = vec![vec![5.5, 1.0]; 10];
        for pass in 1..=2u64 {
            let out = engine.predict(&model, &request);
            assert_eq!(out.cache_hits, 0, "pass {pass}");
            assert!(out.predictions.iter().all(|&y| y == 12.0));
            assert_eq!(model.0.load(Ordering::SeqCst), 10 * pass);
        }
        assert_eq!(engine.table.len(), 5, "nothing was stored");
        assert_eq!(engine.predict_if_cached(&request[..1]), None);
    }

    #[test]
    fn cache_distinguishes_bitwise_different_rows() {
        let table = SpaceTable::build(&Toy, &[vec![1.0, 2.0], vec![0.0, 3.0]]);
        assert_eq!(table.get(&[1.0, 2.0]), Some(4.0));
        assert_eq!(table.get(&[1.0, 2.0000000000000004]), None);
        assert_eq!(table.get(&[1.0]), None, "a row of another width");
        assert_eq!(table.get(&[0.0, 3.0]), Some(3.0));
        // -0.0 and 0.0 differ bitwise: distinct rows.
        assert_eq!(table.get(&[-0.0, 3.0]), None);
        // A row listed twice is stored once.
        let twice = SpaceTable::build(&Toy, &[vec![1.0, 2.0], vec![1.0, 2.0]]);
        assert_eq!(twice.len(), 1);
        assert_eq!(twice.get(&[1.0, 2.0]), Some(4.0));
    }

    #[test]
    fn capacity_bounds_entries_without_breaking_predictions() {
        let model = CountingToy::default();
        let space: Vec<Vec<f64>> = (0..=MAX_TABLE_ROWS).map(|i| vec![i as f64]).collect();
        let table = SpaceTable::build(&model, &space);
        assert!(table.is_empty(), "a space past the cap gets no table");
        assert_eq!(
            model.0.load(Ordering::SeqCst),
            0,
            "and nothing is predicted"
        );
        let at_cap = SpaceTable::build(&model, &space[..MAX_TABLE_ROWS]);
        assert_eq!(at_cap.len(), MAX_TABLE_ROWS);
        // Every row is still answered, from the model.
        let engine = BatchEngine::scoped(64, table, "shared");
        let out = engine.predict(&Toy, &space[..100]);
        assert_eq!(out.cache_hits, 0);
        assert_eq!(
            out.predictions,
            (0..100).map(|i| 2.0 * i as f64).collect::<Vec<_>>()
        );
        // Rows of mixed widths are not a space: no table either.
        assert!(SpaceTable::build(&Toy, &[vec![1.0], vec![1.0, 2.0]]).is_empty());
    }

    #[test]
    fn lookups_find_every_stored_row_in_few_probes() {
        // Grid-like rows: small integers and powers of two.
        let space: Vec<Vec<f64>> = (0..4096)
            .map(|i| {
                vec![
                    (i % 16) as f64,
                    f64::from(1u32 << (i / 16 % 12)),
                    (i / 192) as f64,
                ]
            })
            .collect();
        let table = SpaceTable::build(&Toy, &space);
        assert_eq!(table.len(), space.len());
        for row in &space {
            assert_eq!(table.get(row), Some(Toy.predict_row(row)));
        }
        let mean = table.mean_probe_length();
        assert!((1.0..=2.0).contains(&mean), "mean probe length {mean}");
        assert_eq!(SpaceTable::default().mean_probe_length(), 0.0);
    }

    #[test]
    fn empty_request_is_fine() {
        let engine = BatchEngine::default();
        let out = engine.predict(&Toy, &[]);
        assert!(out.predictions.is_empty());
        assert_eq!(out.cache_hits, 0);
        assert!(engine.table.is_empty());
        assert_eq!(engine.predict_if_cached(&[]).map(|o| o.cache_hits), Some(0));
    }

    #[test]
    fn scoped_engine_feeds_the_global_metrics_registry() {
        // A unique scope keeps this test independent of every other
        // engine in the process.
        let scope = "batch-metrics-selftest";
        let rows = rows(20);
        let engine = table_engine(8, &rows[..10], scope);
        engine.predict(&Toy, &rows);
        engine.predict(&Toy, &rows);
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        let hits = reg.counter("lam_cache_hits_total", "", &labels).get();
        let misses = reg.counter("lam_cache_misses_total", "", &labels).get();
        assert_eq!(hits, 20, "rows 0..10 hit on both passes");
        assert_eq!(misses, 20, "rows 10..20 miss on both passes");
        let sizes = reg.histogram("lam_batch_rows", "", &labels).snapshot();
        // 20 rows in 8-row micro-batches = 3 batches per pass.
        assert_eq!(sizes.count(), 6);
        assert_eq!(sizes.max, 8);
        let waits = reg
            .histogram("lam_batch_queue_wait_ns", "", &labels)
            .snapshot();
        assert_eq!(waits.count(), 6);
        // Phase timings are only taken on miss-bearing micro-batches
        // (the all-hit fast path skips the extra clock reads): rows 0..8
        // all hit, so 2 of each pass's 3 micro-batches show up here.
        let lookups = reg
            .histogram(
                "lam_batch_phase_ns",
                "",
                &[("scope", scope), ("phase", "cache-lookup")],
            )
            .snapshot();
        assert_eq!(lookups.count(), 4);
    }

    #[test]
    fn cached_lookup_answers_all_hit_requests_and_counts_once() {
        let scope = "batch-if-cached-hit-selftest";
        let space = rows(20);
        let engine = table_engine(8, &space, scope);
        let reg = lam_obs::global();
        let hits = reg.counter("lam_cache_hits_total", "", &[("scope", scope)]);
        let misses = reg.counter("lam_cache_misses_total", "", &[("scope", scope)]);
        let (hits_before, misses_before) = (hits.get(), misses.get());
        // Any order, duplicates included: every row is in the table.
        let request = vec![space[7].clone(), space[0].clone(), space[7].clone()];
        let out = engine.predict_if_cached(&request).expect("every row hits");
        let expected: Vec<f64> = request.iter().map(|r| Toy.predict_row(r)).collect();
        assert_eq!(out.predictions, expected);
        assert_eq!(out.cache_hits, request.len() as u64);
        assert_eq!(hits.get() - hits_before, request.len() as u64);
        assert_eq!(misses.get(), misses_before);
    }

    #[test]
    fn cached_lookup_declines_on_any_miss_without_side_effects() {
        let scope = "batch-if-cached-miss-selftest";
        let engine = table_engine(8, &rows(5), scope);
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        let global = || {
            (
                reg.counter("lam_cache_hits_total", "", &labels).get(),
                reg.counter("lam_cache_misses_total", "", &labels).get(),
            )
        };
        let counters = global();
        // Table rows around one off-table row: the whole request is
        // declined.
        let request = vec![rows(5)[1].clone(), vec![99.0, 1.0], rows(5)[2].clone()];
        assert_eq!(engine.predict_if_cached(&request), None);
        assert_eq!(global(), counters);
        assert_eq!(engine.table.len(), 5);
        assert_eq!(engine.table.get(&[99.0, 1.0]), None, "nothing was stored");
    }

    #[test]
    fn masked_outcome_flags_hits_per_row() {
        let engine = table_engine(4, &rows(3), "shared");
        let mixed = vec![
            vec![0.0, 0.0], // in the table
            vec![50.0, 1.0],
            vec![1.0, 1.0], // in the table
            vec![60.0, 4.0],
            vec![2.0, 2.0], // in the table
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
            // Only [7, 7] is in the table.
            engine: BatchEngine::scoped(512, SpaceTable::build(&Toy, &[vec![7.0, 7.0]]), "shared"),
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
        let outs = submit_and_collect(
            &sched,
            target.clone(),
            vec![
                vec![vec![100.0, 0.0], vec![101.0, 0.0]], // computed
                vec![vec![7.0, 7.0]],                     // in the table
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

    /// A target whose every batch panics.
    struct PanickingTarget;
    impl BatchTarget for PanickingTarget {
        fn run_batch(&self, _rows: &[Vec<f64>]) -> MaskedOutcome {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn panicking_target_leaves_the_worker_serving() {
        let sched = BatchScheduler::new(SchedulerOptions {
            workers: 1,
            ..SchedulerOptions::default()
        });
        // Sets a flag when dropped, run or not.
        struct DropFlag(Arc<AtomicU64>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (ran, dropped) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        for _ in 0..3 {
            let (ran, flag) = (Arc::clone(&ran), DropFlag(Arc::clone(&dropped)));
            sched.try_reserve(1).expect("reserve").submit(
                Arc::new(PanickingTarget),
                vec![vec![1.0, 1.0]],
                Box::new(move |_| {
                    let _flag = flag;
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        // Each panicked batch drops its completion unrun.
        let deadline = Instant::now() + Duration::from_secs(5);
        while dropped.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "panicked batches never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "a panicked batch completes nothing"
        );
        // The lone worker survived three panics and still answers.
        let outs = submit_and_collect(&sched, counting_target(), vec![vec![vec![3.0, 1.0]]]);
        assert_eq!(outs[0].predictions, vec![7.0]);
        sched.shutdown();
    }
}
