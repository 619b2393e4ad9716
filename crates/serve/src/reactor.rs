//! The event-driven connection core: one epoll reactor thread owning
//! every socket, a bounded dispatch queue feeding the handler pool, and
//! a completion queue bringing finished responses back.
//!
//! ```text
//!                    ┌──────────────────────────────┐
//!   accept ─────────▶│  reactor (epoll, 1 thread)   │◀── eventfd doorbell
//!   non-blocking I/O │  per-conn HTTP state machine │         ▲
//!                    └───────┬──────────────▲───────┘         │
//!                    dispatch│(bounded, 503)│ write           │
//!                    ┌───────▼──────────────┴───────┐  ┌──────┴──────┐
//!                    │ handler pool (route, parse)  │─▶│ completions │
//!                    └───────┬──────────────────────┘  └──────▲──────┘
//!     submit (off-table row) │ (coalesced micro-batches)      │
//!                    ┌───────▼──────────────────────┐         │
//!                    │ lam_core BatchScheduler      │─────────┘
//!                    └──────────────────────────────┘
//! ```
//!
//! Responsibilities are split so each stays blocking-free where it must
//! be: the reactor never computes (it parses bytes already in memory and
//! moves buffers), handlers never touch sockets (they end by pushing a
//! completion and ringing the doorbell), and the batch scheduler sees
//! rows from *all* connections, which is what lets micro-batches form
//! across requests.
//!
//! Every queue hop is bounded and sheds: a full dispatch queue answers
//! `503` + `retry-after` immediately from the reactor; the scheduler's
//! row budget refuses in the handler (also `503`). Pipelined requests on
//! one connection are answered strictly in order through per-connection
//! response slots; reading is suspended past a pipeline depth so one
//! connection cannot queue unbounded work. Shutdown drains: accepting
//! stops, idle connections close, in-flight requests finish (up to a
//! deadline), then everything force-closes.

use crate::proto::{encode_response, ParseStep, ParsedRequest, RequestParser};
use epoll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use lam_core::batch::{BatchScheduler, ProducerGuard};
use lam_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Reactor tuning knobs, filled from `http::ServeConfig`.
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Open-connection cap; accepts beyond it are answered 503 + close.
    pub max_connections: usize,
    /// Close a connection with no request in progress after this long.
    pub idle_timeout: Duration,
    /// Close a connection stalled *mid-request* (the slowloris case)
    /// with a 408 after this long without a byte.
    pub header_timeout: Duration,
    /// In-flight pipelined requests per connection before reading stops.
    pub pipeline_depth: usize,
    /// How long graceful shutdown waits for in-flight requests.
    pub drain_deadline: Duration,
    /// `retry-after` seconds on shed responses.
    pub retry_after_secs: u32,
}

/// One parsed request traveling to the handler pool with its response
/// channel and (optionally) the batch scheduler's producer hint.
pub(crate) struct Job {
    pub req: ParsedRequest,
    pub responder: Responder,
    /// Held from dispatch until the handler finishes submitting, so the
    /// scheduler knows rows may still be coming and a short coalescing
    /// wait can pay off.
    pub hint: Option<ProducerGuard>,
}

struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded handoff from the reactor to the handler pool. The reactor is
/// the only producer, so capacity checks ([`JobQueue::has_room`]) and
/// pushes need not be atomic with each other.
pub(crate) struct JobQueue {
    state: Mutex<JobQueueState>,
    takers: Condvar,
    cap: usize,
    hint_source: OnceLock<Arc<BatchScheduler>>,
}

impl JobQueue {
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
            cap: cap.max(1),
            hint_source: OnceLock::new(),
        })
    }

    /// Wire the scheduler whose producer hint dispatched jobs should
    /// hold. Set once at server startup, before the reactor runs.
    pub fn set_hint_source(&self, sched: Arc<BatchScheduler>) {
        let _ = self.hint_source.set(sched);
    }

    pub fn has_room(&self) -> bool {
        let state = self.state.lock().expect("job queue poisoned");
        !state.closed && state.jobs.len() < self.cap
    }

    pub fn push(&self, req: ParsedRequest, responder: Responder) {
        let hint = self.hint_source.get().map(|s| s.producer_hint());
        let mut state = self.state.lock().expect("job queue poisoned");
        state.jobs.push_back(Job {
            req,
            responder,
            hint,
        });
        drop(state);
        self.takers.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed and empty (the
    /// handler-thread exit signal).
    pub fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.takers.wait(state).expect("job queue poisoned");
        }
    }

    pub fn close(&self) {
        self.state.lock().expect("job queue poisoned").closed = true;
        self.takers.notify_all();
    }
}

/// A finished response heading back to the reactor.
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<u32>,
}

/// The handler-side half of the reactor: a completion list plus the
/// eventfd doorbell that wakes epoll when one lands.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    /// True while a notify is outstanding that the reactor has not yet
    /// drained; lets a burst of completions ring the doorbell once.
    signaled: AtomicBool,
    wake: EventFd,
}

impl ReactorShared {
    pub fn new() -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(Self {
            completions: Mutex::new(Vec::new()),
            signaled: AtomicBool::new(false),
            wake: EventFd::new()?,
        }))
    }

    /// Ring the doorbell without a completion (shutdown notification).
    pub fn wake(&self) {
        self.wake.notify();
    }

    fn push(&self, c: Completion) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(c);
        if !self.signaled.swap(true, Ordering::SeqCst) {
            self.wake.notify();
        }
    }

    fn drain(&self) -> Vec<Completion> {
        // Clear the flag before taking the list: a completion pushed
        // after the take re-rings the doorbell (at worst one spurious
        // wakeup), never goes silent.
        self.signaled.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }
}

/// The single-use response channel for one request. Exactly one response
/// reaches the reactor per slot: sending consumes the responder, and a
/// responder dropped without sending (a request that panicked, on a
/// handler or a scheduler thread) reports a 500, counted as a 5xx of its
/// endpoint, so its connection slot never wedges.
pub(crate) struct Responder {
    inner: Option<(usize, u64, u64, Arc<ReactorShared>)>,
    /// The request's `lam_requests_total` endpoint label index.
    endpoint: usize,
}

impl Responder {
    fn new(conn: usize, gen: u64, seq: u64, shared: Arc<ReactorShared>, endpoint: usize) -> Self {
        Self {
            inner: Some((conn, gen, seq, shared)),
            endpoint,
        }
    }

    /// The request's endpoint classification (an index into the fixed
    /// endpoint label set), made once when the reactor dispatched it.
    pub fn endpoint(&self) -> usize {
        self.endpoint
    }

    pub fn send(
        self,
        status: u16,
        content_type: &'static str,
        body: String,
        retry_after: Option<u32>,
    ) {
        self.send_bytes(status, content_type, body.into_bytes(), retry_after);
    }

    /// Byte-body variant for non-textual payloads (binary model
    /// artifacts proxied by the gateway).
    pub fn send_bytes(
        mut self,
        status: u16,
        content_type: &'static str,
        body: Vec<u8>,
        retry_after: Option<u32>,
    ) {
        let (conn, gen, seq, shared) = self.inner.take().expect("responder sends once");
        shared.push(Completion {
            conn,
            gen,
            seq,
            status,
            content_type,
            body,
            retry_after,
        });
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some((conn, gen, seq, shared)) = self.inner.take() {
            crate::http::account_request(self.endpoint, 500, None);
            shared.push(Completion {
                conn,
                gen,
                seq,
                status: 500,
                content_type: crate::http::JSON_CONTENT_TYPE,
                body: br#"{"error":"handler dropped the request"}"#.to_vec(),
                retry_after: None,
            });
        }
    }
}

/// Pre-interned reactor metrics.
struct ReactorMetrics {
    connections_open: Arc<Gauge>,
    shed_dispatch: Arc<Counter>,
    shed_connections: Arc<Counter>,
    timeouts_408: Arc<Counter>,
}

fn reactor_metrics() -> &'static ReactorMetrics {
    static METRICS: OnceLock<ReactorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lam_obs::global();
        ReactorMetrics {
            connections_open: reg.gauge(
                "lam_connections_open",
                "Client connections currently registered with the reactor.",
                &[],
            ),
            shed_dispatch: reg.counter(
                "lam_requests_shed_total",
                "Requests refused to bound queueing, by shedding site.",
                &[("reason", "dispatch-queue")],
            ),
            shed_connections: reg.counter(
                "lam_requests_shed_total",
                "Requests refused to bound queueing, by shedding site.",
                &[("reason", "max-connections")],
            ),
            timeouts_408: reg.counter(
                "lam_request_timeouts_total",
                "Connections closed with 408 for stalling mid-request.",
                &[],
            ),
        }
    })
}

/// One response slot: pipelined requests answer strictly in order, so a
/// connection's slots form a queue and only the front slot's bytes are
/// ever written.
struct Slot {
    keep_alive: bool,
    bytes: Option<Vec<u8>>,
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Unconsumed input bytes.
    buf: Vec<u8>,
    parser: RequestParser,
    /// Encoded response bytes mid-write.
    out: Vec<u8>,
    out_pos: usize,
    slots: VecDeque<Slot>,
    /// Sequence number of `slots.front()`.
    base_seq: u64,
    next_seq: u64,
    last_activity: Instant,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// No further requests are read or parsed (EOF, protocol error,
    /// `connection: close`, or drain); pending responses still flush.
    closing: bool,
    /// Close as soon as `out` finishes writing (set when the response
    /// being written was `connection: close`).
    close_when_flushed: bool,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
const EVENT_BATCH: usize = 256;
const READ_CHUNK: usize = 16 << 10;

/// Pack a slab index and generation into an epoll token. The generation
/// makes stale events for a reused slab slot self-identifying.
fn token(idx: usize, gen: u64) -> u64 {
    (gen << 32) | idx as u64
}

fn untoken(token: u64) -> (usize, u64) {
    ((token & 0xFFFF_FFFF) as usize, token >> 32)
}

pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    cfg: ReactorConfig,
    queue: Arc<JobQueue>,
    shared: Arc<ReactorShared>,
    stop: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen_counter: u64,
    open: usize,
    draining: bool,
    drain_by: Option<Instant>,
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        cfg: ReactorConfig,
        queue: Arc<JobQueue>,
        shared: Arc<ReactorShared>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(shared.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(Self {
            epoll,
            listener,
            cfg,
            queue,
            shared,
            stop,
            conns: Vec::new(),
            free: Vec::new(),
            gen_counter: 0,
            open: 0,
            draining: false,
            drain_by: None,
        })
    }

    pub fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); EVENT_BATCH];
        loop {
            let timeout = self.next_timeout();
            let n = self.epoll.wait(&mut events, Some(timeout));
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            let mut conn_events: Vec<(usize, u64, u32)> = Vec::with_capacity(n);
            let mut accept = false;
            for ev in events.iter().take(n) {
                match ev.token() {
                    LISTENER_TOKEN => accept = true,
                    WAKE_TOKEN => {
                        self.shared.wake.drain();
                    }
                    t => {
                        let (idx, gen) = untoken(t);
                        conn_events.push((idx, gen, ev.events()));
                    }
                }
            }
            if accept && !self.draining {
                self.accept_ready();
            }
            // Fill every completed slot first, then flush each touched
            // connection once: a pipelined burst leaves the reactor as
            // one write, not one per response.
            let mut dirty: Vec<usize> = Vec::new();
            for c in self.shared.drain() {
                if let Some(idx) = self.fill_slot(c) {
                    if !dirty.contains(&idx) {
                        dirty.push(idx);
                    }
                }
            }
            for idx in dirty {
                self.pump(idx);
            }
            for (idx, gen, bits) in conn_events {
                self.handle_conn_event(idx, gen, bits);
            }
            self.sweep_timeouts();
            if self.draining {
                if self.open == 0 {
                    return;
                }
                if self.drain_by.is_some_and(|by| Instant::now() >= by) {
                    // Deadline passed: abandon what's still in flight.
                    for idx in 0..self.conns.len() {
                        if self.conns[idx].is_some() {
                            self.close(idx);
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Epoll wait bound: the nearest per-connection timeout (idle or
    /// slowloris) or the drain deadline, capped so the stop flag is
    /// polled a few times a second even on a silent server.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut nearest = Duration::from_millis(250);
        let mut consider = |deadline: Instant| {
            let left = deadline.saturating_duration_since(now);
            if left < nearest {
                nearest = left;
            }
        };
        for conn in self.conns.iter().flatten() {
            if conn.parser.mid_request(&conn.buf) && !conn.closing {
                consider(conn.last_activity + self.cfg.header_timeout);
            } else if conn.slots.is_empty() && conn.out.is_empty() {
                consider(conn.last_activity + self.cfg.idle_timeout);
            }
        }
        if let Some(by) = self.drain_by {
            consider(by);
        }
        nearest.max(Duration::from_millis(1))
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_by = Some(Instant::now() + self.cfg.drain_deadline);
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[idx] else {
                continue;
            };
            // Stop reading everywhere; unparsed pipeline bytes are
            // abandoned, already-dispatched requests finish.
            conn.closing = true;
            conn.buf.clear();
            if conn.slots.is_empty() && conn.out.is_empty() {
                self.close(idx);
            } else {
                self.update_io(idx);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.open >= self.cfg.max_connections {
                        reactor_metrics().shed_connections.inc();
                        // Best-effort refusal; the close is the message.
                        let _ = stream.set_nonblocking(true);
                        let mut s = stream;
                        let _ = s.write_all(&encode_response(
                            503,
                            crate::http::JSON_CONTENT_TYPE,
                            br#"{"error":"connection limit reached"}"#,
                            false,
                            Some(self.cfg.retry_after_secs),
                        ));
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept errors (ECONNABORTED, EMFILE) must not
                // kill the reactor; the level-triggered listener will
                // re-report readiness if connections remain.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.gen_counter += 1;
        let gen = self.gen_counter;
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(stream.as_raw_fd(), interest, token(idx, gen))
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            buf: Vec::new(),
            parser: RequestParser::new(self.cfg.max_body),
            out: Vec::new(),
            out_pos: 0,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            last_activity: Instant::now(),
            interest,
            closing: false,
            close_when_flushed: false,
        });
        self.open += 1;
        reactor_metrics().connections_open.add(1);
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.open -= 1;
            reactor_metrics().connections_open.add(-1);
        }
    }

    fn handle_conn_event(&mut self, idx: usize, gen: u64, bits: u32) {
        let Some(conn) = &self.conns[idx] else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(idx);
        }
        if self.conns[idx].as_ref().is_some_and(|c| c.gen == gen) && bits & EPOLLOUT != 0 {
            self.update_io(idx);
        }
    }

    fn readable(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        {
            let Some(conn) = &mut self.conns[idx] else {
                return;
            };
            if conn.closing {
                // Drain-and-discard so the level-triggered fd quiets; the
                // peer's extra bytes are not requests we will serve.
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            eof = true;
                            break;
                        }
                    }
                }
            } else {
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.buf.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            eof = true;
                            break;
                        }
                    }
                }
            }
        }
        self.pump(idx);
        if eof {
            if let Some(conn) = &mut self.conns[idx] {
                conn.closing = true;
                conn.buf.clear();
                if conn.slots.is_empty() && conn.out.is_empty() {
                    self.close(idx);
                    return;
                }
            }
        }
        self.update_io(idx);
    }

    /// Parse as many pipelined requests as the pipeline depth allows and
    /// dispatch them. Never touches the socket.
    fn parse_ready(&mut self, idx: usize) {
        loop {
            let Some(conn) = &mut self.conns[idx] else {
                return;
            };
            if conn.closing || conn.slots.len() >= self.cfg.pipeline_depth || conn.buf.is_empty() {
                return;
            }
            match conn.parser.poll(&mut conn.buf) {
                ParseStep::Incomplete => return,
                ParseStep::Request(req) => self.dispatch(idx, req),
                ParseStep::Invalid { status, message } => {
                    // Unparseable bytes still get accounted (endpoint
                    // `malformed`) and answered before the close.
                    crate::http::account_malformed(status);
                    let body = crate::http::error_body(&message);
                    let bytes = encode_response(
                        status,
                        crate::http::JSON_CONTENT_TYPE,
                        body.as_bytes(),
                        false,
                        None,
                    );
                    conn.next_seq += 1;
                    conn.slots.push_back(Slot {
                        keep_alive: false,
                        bytes: Some(bytes),
                    });
                    conn.closing = true;
                    conn.buf.clear();
                    return;
                }
            }
        }
    }

    fn dispatch(&mut self, idx: usize, req: ParsedRequest) {
        let room = self.queue.has_room() && !self.draining;
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        let keep_alive = req.keep_alive;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let endpoint = crate::http::endpoint_index(&req.method, &req.path);
        if room {
            conn.slots.push_back(Slot {
                keep_alive,
                bytes: None,
            });
            let responder = Responder::new(idx, conn.gen, seq, Arc::clone(&self.shared), endpoint);
            self.queue.push(req, responder);
        } else {
            // Shed at the door: the queue is the latency budget, and a
            // 503 now beats a timeout later. The connection stays open —
            // the client is told when to come back.
            reactor_metrics().shed_dispatch.inc();
            crate::http::account_shed(&req, endpoint);
            let body = crate::http::error_body("server overloaded, request shed");
            conn.slots.push_back(Slot {
                keep_alive,
                bytes: Some(encode_response(
                    503,
                    crate::http::JSON_CONTENT_TYPE,
                    body.as_bytes(),
                    keep_alive,
                    Some(self.cfg.retry_after_secs),
                )),
            });
        }
    }

    /// Encode a completion into its pipeline slot. Returns the connection
    /// index when the slot was live (the caller flushes it afterwards).
    fn fill_slot(&mut self, c: Completion) -> Option<usize> {
        let conn = self.conns[c.conn].as_mut()?;
        if conn.gen != c.gen || c.seq < conn.base_seq {
            return None; // connection was reused or the slot already errored
        }
        let offset = (c.seq - conn.base_seq) as usize;
        let slot = conn.slots.get_mut(offset)?;
        if slot.bytes.is_none() {
            slot.bytes = Some(encode_response(
                c.status,
                c.content_type,
                &c.body,
                slot.keep_alive,
                c.retry_after,
            ));
        }
        Some(c.conn)
    }

    /// Alternate flushing and parsing until the connection stops making
    /// progress. One round is not enough: a burst of inline-answered
    /// requests (shed 503s) can fill the whole pipeline window and then
    /// flush it with no handler completion ever coming back to resume
    /// parsing, leaving buffered requests stranded until the peer happens
    /// to send more bytes — or forever, if it is waiting on us.
    fn pump(&mut self, idx: usize) {
        loop {
            self.update_io(idx);
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            if conn.closing || conn.buf.is_empty() || conn.slots.len() >= self.cfg.pipeline_depth {
                return;
            }
            let before = (conn.buf.len(), conn.next_seq);
            self.parse_ready(idx);
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            if (conn.buf.len(), conn.next_seq) == before {
                return; // an incomplete request is waiting for more bytes
            }
        }
    }

    /// Move ready response bytes toward the socket and reconcile epoll
    /// interest with what this connection now needs.
    fn update_io(&mut self, idx: usize) {
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        // Gather every consecutive ready response into the flush buffer
        // first: one write syscall then covers the whole burst.
        if !conn.close_when_flushed {
            while let Some(front) = conn.slots.front() {
                if front.bytes.is_none() {
                    break;
                }
                let slot = conn.slots.pop_front().expect("front checked");
                conn.base_seq += 1;
                conn.out
                    .extend_from_slice(slot.bytes.as_deref().expect("bytes checked"));
                conn.last_activity = Instant::now();
                if !slot.keep_alive {
                    conn.close_when_flushed = true;
                    conn.closing = true;
                    break;
                }
            }
        }
        let mut dead = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_when_flushed {
                dead = true;
            }
        }
        if dead || (conn.closing && conn.slots.is_empty() && conn.out.is_empty()) {
            self.close(idx);
            return;
        }
        let mut want = EPOLLRDHUP;
        if !conn.closing && conn.slots.len() < self.cfg.pipeline_depth {
            want |= EPOLLIN;
        }
        if conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let t = token(idx, conn.gen);
            let fd = conn.stream.as_raw_fd();
            if self.epoll.modify(fd, want, t).is_err() {
                self.close(idx);
            }
        }
    }

    /// Enforce idle and slowloris timeouts, and close drained-out
    /// connections whose peer went quiet.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[idx] else {
                continue;
            };
            if conn.closing {
                continue;
            }
            let stalled_mid_request = conn.parser.mid_request(&conn.buf);
            let silent_for = now.saturating_duration_since(conn.last_activity);
            if stalled_mid_request && silent_for >= self.cfg.header_timeout {
                // Slowloris: a peer trickling a request holds state but
                // never completes; answer 408 after its pending
                // responses and close.
                reactor_metrics().timeouts_408.inc();
                crate::http::account_malformed(408);
                let body = crate::http::error_body("timed out waiting for the request");
                conn.slots.push_back(Slot {
                    keep_alive: false,
                    bytes: Some(encode_response(
                        408,
                        crate::http::JSON_CONTENT_TYPE,
                        body.as_bytes(),
                        false,
                        None,
                    )),
                });
                conn.next_seq += 1;
                conn.closing = true;
                conn.buf.clear();
                self.update_io(idx);
            } else if !stalled_mid_request
                && conn.slots.is_empty()
                && conn.out.is_empty()
                && silent_for >= self.cfg.idle_timeout
            {
                self.close(idx);
            }
        }
    }
}
