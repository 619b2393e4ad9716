//! Trace context: the identifiers that stitch one request's path across
//! processes.
//!
//! A context is a 128-bit trace id (one per end-to-end request), a
//! 64-bit span id (one per operation within the trace), and a flags
//! byte. It rides between processes in the `x-lam-trace` header as
//! `<32 hex trace id>-<16 hex span id>-<2 hex flags>`; the receiving
//! side parses it and derives child spans deterministically, so the
//! whole tree shares one trace id and every parent link is consistent
//! without any coordination.
//!
//! Child ids come from a splitmix64 mix of the parent span id and a
//! per-parent sequence number: sibling spans (scatter legs) get distinct
//! ids, retries of the same derivation get the same id, and no global
//! counter is shared across threads. Root ids are minted from the
//! wall clock, the pid, and a process-local counter — unique enough for
//! a flight recorder without a CSPRNG dependency.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The header that carries a [`TraceContext`] between processes.
pub const HEADER: &str = "x-lam-trace";

/// Flag bit: always retain this trace in the flight recorder,
/// bypassing tail sampling. Set by callers that intend to fetch the
/// trace afterwards (tests, smoke scripts, ad-hoc debugging).
pub const FLAG_FORCE: u8 = 0x01;

/// One request's position in its trace: which trace, which span, and
/// the propagated flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit id shared by every span of one end-to-end request.
    pub trace_id: u128,
    /// 64-bit id of the current span (never 0; 0 means "no parent").
    pub span_id: u64,
    /// Propagated flag bits; see [`FLAG_FORCE`].
    pub flags: u8,
}

/// The splitmix64 finalizer: a cheap, high-quality bijective mixer.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A span id is never 0 (0 marks "root, no parent" in records).
#[inline]
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

impl TraceContext {
    /// Mint a fresh root context: a new trace id and a new root span id,
    /// flags clear. Uniqueness comes from wall clock ⊕ pid ⊕ a
    /// process-local counter, each pushed through splitmix64.
    pub fn root() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed =
            nanos ^ (u64::from(std::process::id()) << 32) ^ SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(seed);
        let lo = splitmix64(seed ^ 0xa076_1d64_78bd_642f);
        Self {
            trace_id: (u128::from(hi) << 64) | u128::from(lo),
            span_id: nonzero(splitmix64(hi ^ lo)),
            flags: 0,
        }
    }

    /// Derive the `seq`-th child span of this span: same trace id and
    /// flags, a new span id that is a pure function of (parent span,
    /// seq) — scatter legs pass their leg index and get stable sibling
    /// ids.
    pub fn child(&self, seq: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: nonzero(splitmix64(self.span_id ^ splitmix64(seq))),
            flags: self.flags,
        }
    }

    /// Is the force-retain flag set?
    pub fn forced(&self) -> bool {
        self.flags & FLAG_FORCE != 0
    }

    /// This context with the force-retain flag set.
    pub fn with_force(mut self) -> Self {
        self.flags |= FLAG_FORCE;
        self
    }

    /// Render the `x-lam-trace` header value:
    /// `{trace_id:032x}-{span_id:016x}-{flags:02x}`.
    pub fn header_value(&self) -> String {
        format!(
            "{:032x}-{:016x}-{:02x}",
            self.trace_id, self.span_id, self.flags
        )
    }

    /// Parse a header value produced by [`TraceContext::header_value`].
    /// Returns `None` on any malformed input (wrong field count, wrong
    /// width, anything but ASCII hex digits in a field, zero trace or span
    /// id) — a bad header is treated as no header.
    pub fn parse(value: &str) -> Option<Self> {
        let mut parts = value.trim().split('-');
        let (t, s, f) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || !is_hex(t, 32) || !is_hex(s, 16) || !is_hex(f, 2) {
            return None;
        }
        let trace_id = u128::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(s, 16).ok()?;
        let flags = u8::from_str_radix(f, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(Self {
            trace_id,
            span_id,
            flags,
        })
    }
}

/// Parse a bare 32-hex-digit trace id (the `/traces/{id}` path segment).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if !is_hex(s, 32) {
        return None;
    }
    u128::from_str_radix(s, 16).ok().filter(|&id| id != 0)
}

/// `field` is exactly `width` ASCII hex digits. Checked before
/// `from_str_radix`, which would also accept a leading `+`.
fn is_hex(field: &str, width: usize) -> bool {
    field.len() == width && field.bytes().all(|b| b.is_ascii_hexdigit())
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The current thread's active trace context, if a request handler set
/// one. Lets deep call sites (registry resolution, batch internals)
/// attach spans to the request that caused them without threading the
/// context through every signature.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Set (or clear) the current thread's trace context, returning the
/// previous value. Prefer [`set_scoped`] in handler code.
pub fn set_current(ctx: Option<TraceContext>) -> Option<TraceContext> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Set the current context for a lexical scope; the previous value is
/// restored when the guard drops (panic-safe).
pub fn set_scoped(ctx: TraceContext) -> CurrentGuard {
    CurrentGuard {
        prev: set_current(Some(ctx)),
    }
}

/// Restores the previous thread-local context on drop; see
/// [`set_scoped`].
pub struct CurrentGuard {
    prev: Option<TraceContext>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        set_current(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            span_id: 0xfedc_ba98_7654_3210,
            flags: FLAG_FORCE,
        };
        let value = ctx.header_value();
        assert_eq!(
            value,
            "0123456789abcdef0123456789abcdef-fedcba9876543210-01"
        );
        assert_eq!(TraceContext::parse(&value), Some(ctx));
    }

    #[test]
    fn malformed_headers_parse_to_none() {
        for bad in [
            "",
            "nonsense",
            "0123456789abcdef0123456789abcdef-fedcba9876543210", // 2 fields
            "0123456789abcdef-fedcba9876543210-01",              // short trace
            "0123456789abcdef0123456789abcdef-fedcba98765432-01", // short span
            "0123456789abcdef0123456789abcdef-fedcba9876543210-1", // short flags
            "0123456789abcdef0123456789abcdef-fedcba9876543210-01-00", // 4 fields
            "zzzz456789abcdef0123456789abcdef-fedcba9876543210-01", // non-hex
            "00000000000000000000000000000000-fedcba9876543210-01", // zero trace
            "0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
            "+0000000000000000000000000000001-+00000000000000f-+1", // signs
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn roots_are_distinct_and_children_deterministic() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_eq!(a.flags, 0);

        let c0 = a.child(0);
        let c1 = a.child(1);
        assert_eq!(c0, a.child(0), "child derivation must be deterministic");
        assert_ne!(c0.span_id, c1.span_id, "siblings need distinct ids");
        assert_ne!(c0.span_id, a.span_id);
        assert_eq!(c0.trace_id, a.trace_id);
        assert_eq!(c0.flags, a.flags);
    }

    #[test]
    fn force_flag_propagates_to_children() {
        let root = TraceContext::root().with_force();
        assert!(root.forced());
        assert!(root.child(3).forced());
        assert!(!TraceContext::root().forced());
    }

    #[test]
    fn trace_id_segment_parses() {
        let ctx = TraceContext::root();
        let hex = format!("{:032x}", ctx.trace_id);
        assert_eq!(parse_trace_id(&hex), Some(ctx.trace_id));
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id(&"0".repeat(32)), None);
        assert_eq!(parse_trace_id(&format!("+{}", "0".repeat(30) + "1")), None);
    }

    #[test]
    fn scoped_context_restores_on_drop() {
        assert_eq!(current(), None);
        let outer = TraceContext::root();
        let _g = set_scoped(outer);
        assert_eq!(current(), Some(outer));
        {
            let inner = outer.child(1);
            let _g2 = set_scoped(inner);
            assert_eq!(current(), Some(inner));
        }
        assert_eq!(current(), Some(outer));
        drop(_g);
        assert_eq!(current(), None);
    }
}
