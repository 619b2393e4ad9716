//! Load generation: closed-loop streams (each connection keeps a fixed
//! number of requests in flight and sends the next one only when one
//! completes) and an open-loop schedule (requests sent when due, whether
//! or not earlier ones have been answered).
//!
//! Nothing in a timed window parses JSON: a response is classified by
//! its status code, its latency is recorded, and — for the responses
//! picked for verification — its body bytes are kept for later.

use crate::client::Conn;
use crate::stats::Schedule;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Operation counts of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Answered `200`.
    pub ok: u64,
    /// Answered with another status, or lost to a connection error.
    pub failed: u64,
    /// Answered `503` (refused under overload).
    pub shed: u64,
}

impl Tally {
    /// Count one answered request.
    pub fn record(&mut self, status: u16) {
        self.attempted += 1;
        match status {
            200 => self.ok += 1,
            503 => self.shed += 1,
            _ => self.failed += 1,
        }
    }

    /// Count `n` requests lost without an answer.
    pub fn lose(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Fold another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// Writes framed request number `i` into the buffer.
pub type MakeRequest<'a> = &'a (dyn Fn(u64, &mut Vec<u8>) + Sync);

/// One closed-loop traffic stream.
pub struct Stream<'a> {
    /// Connections, one client thread each.
    pub conns: usize,
    /// Requests each connection keeps in flight (pipelining depth).
    pub depth: usize,
    /// Request numbers are drawn from this shared counter, so they stay
    /// unique across connections and phases.
    pub next: &'a AtomicU64,
    /// No request number at or past this is sent.
    pub end: u64,
    /// Builds request `i`.
    pub make: MakeRequest<'a>,
    /// Keep the bodies of requests `i` with `i % keep_every == 0`; 0
    /// keeps none.
    pub keep_every: u64,
}

/// What one stream observed.
#[derive(Default)]
pub struct StreamResult {
    /// Operation counts.
    pub tally: Tally,
    /// Latency of every answered request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// `(request number, body)` of the kept `200` responses.
    pub kept: Vec<(u64, Vec<u8>)>,
    /// First send to last answer.
    pub elapsed: Duration,
}

impl StreamResult {
    fn merge(&mut self, other: StreamResult) {
        self.tally.add(other.tally);
        self.latencies_ms.extend(other.latencies_ms);
        self.kept.extend(other.kept);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Run every stream against `addr` until `duration` has passed (or a
/// stream's `end` is reached), then drain what is in flight.
pub fn closed_loop(addr: &str, streams: &[Stream<'_>], duration: Duration) -> Vec<StreamResult> {
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        let handles: Vec<Vec<_>> = streams
            .iter()
            .map(|stream| {
                (0..stream.conns)
                    .map(|_| scope.spawn(move || connection(addr, stream, start, deadline)))
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|conns| {
                let mut merged = StreamResult::default();
                for handle in conns {
                    merged.merge(handle.join().expect("client thread panicked"));
                }
                merged
            })
            .collect()
    })
}

/// One connection's closed loop.
fn connection(addr: &str, stream: &Stream<'_>, start: Instant, deadline: Instant) -> StreamResult {
    let mut out = StreamResult::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        out.tally.lose(1);
        return out;
    };
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(stream.depth);
    let mut request = Vec::new();
    loop {
        while in_flight.len() < stream.depth && Instant::now() < deadline {
            let i = stream.next.fetch_add(1, Ordering::Relaxed);
            if i >= stream.end {
                break;
            }
            (stream.make)(i, &mut request);
            if conn.send(&request).is_err() {
                out.tally.lose(1);
                break;
            }
            in_flight.push_back((i, Instant::now()));
        }
        let Some((i, sent)) = in_flight.pop_front() else {
            break;
        };
        match conn.recv() {
            Ok(status) => {
                let now = Instant::now();
                out.tally.record(status);
                out.latencies_ms.push((now - sent).as_secs_f64() * 1e3);
                out.elapsed = now - start;
                if status == 200 && stream.keep_every != 0 && i % stream.keep_every == 0 {
                    out.kept.push((i, conn.body().to_vec()));
                }
            }
            Err(_) => {
                // The connection is gone with everything queued on it.
                out.tally.lose(1 + in_flight.len() as u64);
                in_flight.clear();
                match Conn::connect(addr) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// What the open-loop phase observed.
pub struct OpenLoopResult {
    /// Operation counts.
    pub tally: Tally,
    /// Latency of every answered request from its due time, ms.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent, ms.
    pub lag_ms: Vec<f64>,
}

/// Send `count` requests on one connection at `rate` per second, timing
/// each from its due time. One thread sends on schedule, one reads.
pub fn open_loop(addr: &str, rate: f64, count: u64, make: MakeRequest<'_>) -> OpenLoopResult {
    let mut result = OpenLoopResult {
        tally: Tally::default(),
        latencies_ms: Vec::with_capacity(count as usize),
        lag_ms: Vec::with_capacity(count as usize),
    };
    let (mut sender, mut receiver) = match Conn::connect(addr).and_then(|c| {
        let r = c.try_clone()?;
        Ok((c, r))
    }) {
        Ok(pair) => pair,
        Err(_) => {
            result.tally.lose(count);
            return result;
        }
    };
    let schedule = Schedule::at_rate(Instant::now() + Duration::from_millis(1), rate);
    std::thread::scope(|scope| {
        let send = scope.spawn(|| {
            let mut lag = Vec::with_capacity(count as usize);
            let mut request = Vec::new();
            for k in 0..count {
                let due = schedule.due(k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                make(k, &mut request);
                if sender.send(&request).is_err() {
                    break;
                }
                lag.push(schedule.lag(k, Instant::now()).as_secs_f64() * 1e3);
            }
            lag
        });
        // Responses arrive in request order; one the sender never got out
        // surfaces here as a read error and counts as lost.
        for k in 0..count {
            match receiver.recv() {
                Ok(status) => {
                    result.tally.record(status);
                    let latency = schedule.latency(k, Instant::now());
                    result.latencies_ms.push(latency.as_secs_f64() * 1e3);
                }
                Err(_) => {
                    result.tally.lose(count - k);
                    break;
                }
            }
        }
        result.lag_ms = send.join().expect("open-loop sender panicked");
    });
    result
}
