//! Property test: the runtime's `write` prints text the reader reads back
//! to the datum the value came from, for every datum whose atoms the
//! runtime holds exactly (fixnums within the 50-bit payload; NaNs are one
//! NaN).

use oneshot_runtime::{datum_to_value, write_value, Heap, Symbols, FIXNUM_MAX, FIXNUM_MIN};
use oneshot_sexp::{read_str, Datum};
use proptest::prelude::*;

/// Every character the writers print by name.
const NAMED: [char; 8] = [' ', '\n', '\t', '\r', '\0', '\x1b', '\x08', '\x7f'];

fn leaf() -> impl Strategy<Value = Datum> {
    prop_oneof![
        any::<bool>().prop_map(Datum::Bool),
        (FIXNUM_MIN..=FIXNUM_MAX).prop_map(Datum::Fixnum),
        any::<i64>().prop_map(|bits| Datum::Flonum(f64::from_bits(bits as u64))),
        prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN), Just(1e21)]
            .prop_map(Datum::Flonum),
        any::<char>().prop_map(Datum::Char),
        proptest::sample::select(NAMED.to_vec()).prop_map(Datum::Char),
        any::<String>().prop_map(Datum::Str),
        "[a\"\\\\\n\t\r\u{0}λ ]{0,12}".prop_map(Datum::Str),
        "[a-z!$%&*/:<=>?^_~][a-z0-9!$%&*/:<=>?^_~+.@#-]{0,10}".prop_map(Datum::Symbol),
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
/// any NaN.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn written_values_read_back_as_their_data(d in datum_strategy()) {
        let mut heap = Heap::new();
        let mut syms = Symbols::new();
        let v = datum_to_value(&mut heap, &mut syms, &d);
        let text = write_value(&heap, &syms, v);
        let back = read_str(&text).unwrap_or_else(|e| panic!("reread failed on {text:?}: {e}"));
        prop_assert!(same(&back, &d), "{:?} read back as {:?}", text, back);
    }
}
