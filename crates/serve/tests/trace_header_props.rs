//! Property tests for the `x-lam-trace` header parser, which reads bytes
//! any client (or a peer gateway) sends: `TraceContext::parse` and
//! `parse_trace_id` must accept exactly what `header_value` (and the
//! `{:032x}` trace-id form) writes, up to ASCII case, and must never
//! panic on arbitrary input.

use lam_obs::trace::{parse_trace_id, TraceContext};
use proptest::collection::vec;
use proptest::prelude::*;

const HEX: &[u8] = b"0123456789abcdefABCDEF";

/// One field of `width` bytes: hex digits, possibly led by a sign that
/// takes the first byte's place (`0` = none, `1` = `+`, `2` = `-`).
fn field(width: usize) -> impl Strategy<Value = String> {
    (0usize..4, vec(0usize..HEX.len(), width)).prop_map(|(sign, digits)| {
        let mut s: String = digits.iter().map(|&i| HEX[i] as char).collect();
        match sign {
            1 => s.replace_range(..1, "+"),
            2 => s.replace_range(..1, "-"),
            _ => {}
        }
        s
    })
}

/// Characters for arbitrary headers: the header's own alphabet, then
/// whitespace, signs and non-ASCII text.
fn any_char() -> impl Strategy<Value = char> {
    (0usize..4, 0u32..0x3000).prop_map(|(pick, code)| match pick {
        0 | 1 => HEX[code as usize % HEX.len()] as char,
        2 => ['-', '+', ' ', '\t', 'x', '_'][code as usize % 6],
        _ => char::from_u32(code).unwrap_or('?'),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accepted_headers_are_what_header_value_writes(
        t in field(32),
        s in field(16),
        f in field(2),
    ) {
        let value = format!("{t}-{s}-{f}");
        if let Some(ctx) = TraceContext::parse(&value) {
            prop_assert!(
                ctx.header_value().eq_ignore_ascii_case(&value),
                "{value:?} parsed as {:?}",
                ctx.header_value()
            );
        }
        if let Some(id) = parse_trace_id(&t) {
            prop_assert!(format!("{id:032x}").eq_ignore_ascii_case(&t), "{t:?} parsed as {id:032x}");
        }
    }

    #[test]
    fn arbitrary_strings_never_panic(chars in vec(any_char(), 0usize..72)) {
        let value: String = chars.into_iter().collect();
        if let Some(ctx) = TraceContext::parse(&value) {
            prop_assert!(ctx.header_value().eq_ignore_ascii_case(value.trim()), "{value:?}");
        }
        if let Some(id) = parse_trace_id(&value) {
            prop_assert!(format!("{id:032x}").eq_ignore_ascii_case(&value), "{value:?}");
        }
    }
}

#[test]
fn valid_headers_round_trip_in_either_case() {
    let ctx = TraceContext::root().with_force();
    let value = ctx.header_value();
    assert_eq!(TraceContext::parse(&value), Some(ctx));
    assert_eq!(TraceContext::parse(&value.to_ascii_uppercase()), Some(ctx));
}
