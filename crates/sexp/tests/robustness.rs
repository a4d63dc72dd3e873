//! Robustness: the reader must never panic, whatever bytes arrive — it
//! returns data or an error.

use oneshot_sexp::{read_all, MAX_NESTING};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn reader_never_panics_on_arbitrary_input(src in any::<String>()) {
        let _ = read_all(&src);
    }

    #[test]
    fn reader_never_panics_on_scheme_ish_input(
        src in "[()#'`,@a-z0-9.\\\\\" \\n;|+-]{0,64}"
    ) {
        let _ = read_all(&src);
    }
}

#[test]
fn pathological_inputs_error_cleanly() {
    for src in [
        "#", "#\\", "#x", "#xzz", "\"\\q\"", "(((((", ")))))", "'", "#;", "#;#;", "#|", "(1 . )",
        "(. )", "...1", "1.2.3", ",",
    ] {
        assert!(read_all(src).is_err(), "{src:?} should be an error");
    }
    // Input nested as deep as the bound reads; one level more, or a
    // hundred thousand, is an error rather than a blown stack. The data
    // read are dropped recursively (once per nesting level), and debug
    // frames are large, so this runs on a thread with room to spare.
    std::thread::Builder::new()
        .stack_size(32 * 1024 * 1024)
        .spawn(|| {
            let nested = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
            assert!(read_all(&nested(MAX_NESTING)).is_ok());
            assert!(read_all(&nested(MAX_NESTING + 1)).is_err());
            assert!(read_all(&nested(100_000)).is_err());
            assert!(read_all(&"'".repeat(100_000)).is_err());
            assert!(read_all(&"#(".repeat(100_000)).is_err());
        })
        .unwrap()
        .join()
        .unwrap();
}
