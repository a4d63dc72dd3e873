//! Property test: `read ∘ write` is the identity on data, over every
//! flonum bit pattern, every named character and every string escape.

use oneshot_sexp::{read_str, write_datum, Datum};
use proptest::prelude::*;

fn symbol_strategy() -> impl Strategy<Value = String> {
    // Initial from the symbol alphabet, then subsequents.
    "[a-z!$%&*/:<=>?^_~][a-z0-9!$%&*/:<=>?^_~+.@#-]{0,10}".prop_map(|s| s)
}

/// Every character the writers print by name.
const NAMED: [char; 8] = [' ', '\n', '\t', '\r', '\0', '\x1b', '\x08', '\x7f'];

fn leaf() -> impl Strategy<Value = Datum> {
    prop_oneof![
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Fixnum),
        // Every bit pattern: subnormals, NaNs with payloads, ±0.
        any::<i64>().prop_map(|bits| Datum::Flonum(f64::from_bits(bits as u64))),
        prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(1e15), Just(-1e21)]
            .prop_map(Datum::Flonum),
        any::<char>().prop_map(Datum::Char),
        proptest::sample::select(NAMED.to_vec()).prop_map(Datum::Char),
        any::<String>().prop_map(Datum::Str),
        "[a\"\\\\\n\t\r\u{0}λ ]{0,12}".prop_map(Datum::Str),
        symbol_strategy().prop_map(Datum::Symbol),
        Just(Datum::Nil),
    ]
}

fn datum_strategy() -> impl Strategy<Value = Datum> {
    leaf().prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Datum::cons(a, b)),
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Datum::list),
            proptest::collection::vec(inner, 0..6).prop_map(Datum::Vector),
        ]
    })
}

/// Equality with flonums compared bit for bit, except that any NaN equals
/// any NaN (every NaN writes as `+nan.0`).
fn same(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Flonum(x), Datum::Flonum(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Datum::Pair(p), Datum::Pair(q)) => same(&p.0, &q.0) && same(&p.1, &q.1),
        (Datum::Vector(xs), Datum::Vector(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        _ => a == b,
    }
}

fn assert_round_trips(d: &Datum) {
    let text = write_datum(d);
    let back = read_str(&text).unwrap_or_else(|e| panic!("reread failed on {text:?}: {e}"));
    assert!(same(&back, d), "{text:?} read back as {back:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn write_then_read_is_identity(d in datum_strategy()) {
        assert_round_trips(&d);
    }

    #[test]
    fn display_never_panics(d in datum_strategy()) {
        let _ = oneshot_sexp::display_datum(&d);
    }
}

/// The atoms whose written text read back as something else before the
/// writers and the reader shared one definition.
#[test]
fn atoms_that_once_read_back_wrong() {
    let flonums = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e21,
        -1e21,
        1e15,
        1e300,
        f64::MAX,
        1_000_000_000_000_000.0,
        9_007_199_254_740_993.0,
        -0.0,
        f64::from_bits(1),
    ];
    for x in flonums {
        assert_round_trips(&Datum::Flonum(x));
    }
    for c in NAMED {
        assert_round_trips(&Datum::Char(c));
    }
    assert_round_trips(&Datum::Str("a\rb\0c\"d\\e\nf\tg".into()));
    let d = read_str(r#"(#\return #\nul "a\rb")"#).unwrap();
    assert_eq!(write_datum(&d), r#"(#\return #\nul "a\rb")"#);
}

#[test]
fn sugar_survives_roundtrip() {
    for src in ["'x", "`(a ,b ,@c)", "''x"] {
        let d = read_str(src).unwrap();
        let text = write_datum(&d);
        assert_eq!(read_str(&text).unwrap(), d);
    }
}
