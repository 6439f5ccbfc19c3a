//! Property and running-time tests for the wire JSON parser: every
//! value the renderer can produce parses back to itself, `\u` escapes
//! decode to the characters they name, nesting is accepted exactly up
//! to `MAX_DEPTH`, and parse time grows linearly with the input.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::TestRng;
use rand::{Rng, RngCore};
use warptree_server::json::{parse, Json, MAX_DEPTH};

/// Characters worth mixing into strings: ASCII, the characters the
/// renderer escapes (quote, backslash, controls), and 2-, 3- and 4-byte
/// UTF-8.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\r',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '€',
    '中',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn random_string(rng: &mut TestRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn random_number(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen_range(-1.0e6..1.0e6),
        // Any finite bit pattern: subnormals, huge exponents, -0.0.
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A random JSON value whose containers nest at most `depth` levels.
fn random_value(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng, 12)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|_| (random_string(rng, 6), random_value(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Strategy: a random value tree up to `max_depth` levels deep.
struct ValueTree {
    max_depth: usize,
}

impl Strategy for ValueTree {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        let depth = rng.gen_range(0..=self.max_depth);
        random_value(rng, depth)
    }
}

/// Strategy: a random string (escapes and multi-byte UTF-8 included).
struct Text;

impl Strategy for Text {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        random_string(rng, 40)
    }
}

/// `[[…[leaf]…]]` with `levels` arrays around `leaf`.
fn nested(levels: usize, leaf: &str) -> String {
    "[".repeat(levels) + leaf + &"]".repeat(levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(render(v)) == v` for values with escapes, multi-byte keys
    /// and values, every float shape, and nesting.
    #[test]
    fn parse_inverts_render(v in ValueTree { max_depth: 6 }) {
        let text = v.render();
        prop_assert_eq!(parse(&text), Ok(v));
    }

    /// Every character written as a `\u` escape (BMP, non-surrogate)
    /// or raw (the rest) decodes back to the same string.
    #[test]
    fn unicode_escapes_decode(s in Text) {
        let mut text = String::from("\"");
        for c in s.chars() {
            if (c as u32) < 0x10000 {
                text.push_str(&format!("\\u{:04X}", c as u32));
            } else {
                text.push(c);
            }
        }
        text.push('"');
        prop_assert_eq!(parse(&text), Ok(Json::Str(s)));
    }

    /// Strings embedded between plain runs and escapes survive a round
    /// trip as object keys and as values.
    #[test]
    fn multibyte_keys_and_values_round_trip((k, v) in (Text, Text)) {
        let obj = Json::Obj(BTreeMap::from([(k.clone(), Json::Str(v.clone()))]));
        let back = parse(&obj.render()).unwrap();
        prop_assert_eq!(back.get(&k), Some(&Json::Str(v)));
    }
}

/// Nesting is accepted up to and including `MAX_DEPTH` (the leaf value
/// sits at depth `MAX_DEPTH`) and refused one level deeper.
#[test]
fn nesting_is_accepted_up_to_max_depth() {
    let deepest = nested(MAX_DEPTH, "\"é\"");
    let mut v = parse(&deepest).unwrap();
    for _ in 0..MAX_DEPTH {
        v = match v {
            Json::Arr(mut items) if items.len() == 1 => items.pop().unwrap(),
            other => panic!("expected a one-element array, got {other:?}"),
        };
    }
    assert_eq!(v, Json::Str("é".to_string()));
    assert_eq!(parse(&deepest).unwrap().render(), deepest);
    assert!(parse(&nested(MAX_DEPTH + 1, "1")).is_err());

    let mut obj = String::from("1");
    for i in 0..MAX_DEPTH {
        obj = format!("{{\"k{i}€\":{obj}}}");
    }
    assert_eq!(parse(&obj).unwrap().render(), obj);
    assert!(parse(&format!("{{\"k\":{obj}}}")).is_err());
}

/// A string-heavy document of about `bytes` bytes: an array of
/// matches-like objects whose string fields mix ASCII, escapes and
/// multi-byte UTF-8.
fn string_heavy_document(bytes: usize) -> String {
    let mut out = String::from("[");
    let mut i = 0u64;
    while out.len() < bytes {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{i},\"label\":\"series-{i}-é€中 \\\"quoted\\\" \\\\ path/{i}\",\"note\":\"{}\"}}",
            "plain ascii text ".repeat(4)
        ));
        i += 1;
    }
    out.push(']');
    out
}

/// Minimum parse time of `text` over `runs` runs.
fn min_parse_time(text: &str, runs: usize) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            let v = parse(text).unwrap();
            let elapsed = t.elapsed();
            assert!(matches!(v, Json::Arr(_)));
            elapsed
        })
        .min()
        .unwrap()
}

/// Parse time is linear in the input: doubling a string-heavy
/// document (≥ 256 KiB) may not more than triple the best-of-several
/// parse time, and quadrupling it may not more than sextuple it. A
/// parser that re-scans the rest of the input per character is
/// quadratic: it measured about 3.5× and 12× on those steps.
#[test]
fn parse_time_grows_linearly() {
    let base = string_heavy_document(256 * 1024);
    let double = string_heavy_document(2 * base.len());
    let quadruple = string_heavy_document(4 * base.len());
    // Warm the allocator and caches before timing.
    parse(&quadruple).unwrap();
    let t_base = min_parse_time(&base, 7).as_secs_f64();
    for (doc, factor, bound) in [(&double, 2, 3.0), (&quadruple, 4, 6.0)] {
        let ratio = min_parse_time(doc, 7).as_secs_f64() / t_base;
        assert!(
            ratio <= bound,
            "{factor}× the input took {ratio:.2}× the time (bound {bound}×)"
        );
    }
}
