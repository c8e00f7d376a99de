//! Property test: any JSON tree rendered with the crate's own
//! `escape`/`number` helpers parses back (via `diva_obs::json::parse`)
//! to an identical tree — quotes, backslashes, control characters,
//! astral-plane text, deep nesting, and numeric edge cases included.

use diva_obs::json::{self, Value};
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::{boxed, BoxedStrategy};

/// Renders a [`Value`] exactly the way the exporters build their
/// documents: `json::escape` for strings, `json::number` for numbers.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => json::number(*n),
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, val)| format!("\"{}\":{}", json::escape(k), render(val)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Characters that stress the escaper: controls (`\u` escapes), the
/// two always-escaped characters, plain ASCII, BMP text, and
/// astral-plane emoji.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x7f,
        0xa0u32..0xd800,
        0x1_f300u32..0x1_f600,
    ]
    .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
}

fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Finite floats, biased toward the edges: zeros, extremes,
/// subnormals, exact integers, and arbitrary bit patterns.
fn arb_num() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::EPSILON),
        Just(f64::MIN_POSITIVE),
        Just(f64::MIN_POSITIVE / 2.0),
        any::<i64>().prop_map(|i| i as f64),
        any::<u64>().prop_map(f64::from_bits).prop_filter("finite", |f| f.is_finite()),
    ]
}

/// Arbitrary JSON trees up to `depth` levels of nesting.
fn arb_value(depth: usize) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        arb_num().prop_map(Value::Num),
        arb_string().prop_map(Value::Str),
    ];
    if depth == 0 {
        boxed(leaf)
    } else {
        boxed(prop_oneof![
            leaf,
            collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::Arr),
            collection::vec((arb_string(), arb_value(depth - 1)), 0..4).prop_map(Value::Obj),
        ])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rendered_trees_round_trip(v in arb_value(3)) {
        let doc = render(&v);
        let back = json::parse(&doc).map_err(|e| format!("{doc:?}: {e}"));
        prop_assert_eq!(back, Ok(v));
    }

    #[test]
    fn finite_numbers_round_trip_bit_exactly(bits in any::<u64>()) {
        let n = f64::from_bits(bits);
        prop_assume!(n.is_finite());
        let doc = json::number(n);
        let back = json::parse(&doc).ok().and_then(|v| v.as_num());
        prop_assert_eq!(back.map(f64::to_bits), Some(n.to_bits()), "doc: {}", doc);
    }

    #[test]
    fn escaped_strings_survive_embedding(s in arb_string(), k in arb_string()) {
        let doc = format!("{{\"{}\":\"{}\"}}", json::escape(&k), json::escape(&s));
        let v = json::parse(&doc).map_err(|e| format!("{doc:?}: {e}")).unwrap();
        prop_assert_eq!(v.get(&k).and_then(Value::as_str), Some(s.as_str()));
    }
}

/// A document nested exactly [`json::MAX_DEPTH`] levels deep, objects
/// and arrays in turn, parses back to its tree.
#[test]
fn a_document_at_the_nesting_cap_round_trips() {
    let mut v = Value::Num(1.0);
    for level in 0..json::MAX_DEPTH {
        v = if level % 2 == 0 { Value::Arr(vec![v]) } else { Value::Obj(vec![("k".into(), v)]) };
    }
    let doc = render(&v);
    assert_eq!(json::parse(&doc), Ok(v));
}

/// One level past the cap, or 200,000, is an error at the offset of the
/// first bracket past it, not a stack overflow.
#[test]
fn a_document_past_the_nesting_cap_is_rejected_at_its_offset() {
    let err = format!("nesting deeper than {0} at offset {0}", json::MAX_DEPTH);
    for depth in [json::MAX_DEPTH + 1, 200_000] {
        let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(json::parse(&doc), Err(err.clone()), "depth {depth}");
    }
}
