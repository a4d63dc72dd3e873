//! Never-panic fuzzing of the front end: whatever text arrives, reading
//! and then compiling it on either pipeline returns a program or an
//! error. The sources are arbitrary strings, Scheme-shaped token soup,
//! and forms built from every special-form keyword with malformed
//! arities, dotted tails, vectors and nested quasiquotes.
//!
//! The normal run takes 512 cases of each kind; the `#[ignore]`d sweep
//! takes 20 000 (`cargo test --release -p oneshot-compiler -- --ignored`).

use oneshot_compiler::{compile_program_with, CompilerOptions, Pipeline};
use oneshot_sexp::{read_all, write_datum, Datum};
use proptest::prelude::*;
use proptest::test_runner::run;

/// Every keyword the expander knows, and `=>`.
const KEYWORDS: [&str; 22] = [
    "quote",
    "quasiquote",
    "unquote",
    "unquote-splicing",
    "if",
    "set!",
    "lambda",
    "begin",
    "define",
    "let",
    "let*",
    "letrec",
    "letrec*",
    "cond",
    "case",
    "and",
    "or",
    "when",
    "unless",
    "do",
    "else",
    "=>",
];

const TOKENS: [&str; 24] = [
    "(", "(", ")", ")", "[", "]", "#(", "'", "`", ",", ",@", ".", "#;", "#|", "|#", "#t", "1",
    "-2.5", "+inf.0", "\"s\\n\"", "#\\a", "x", "f", "car",
];

/// Reads `src` and compiles whatever it reads on both pipelines; any
/// panic fails the case.
fn front_end(src: &str) {
    let Ok(forms) = read_all(src) else { return };
    for pipeline in [Pipeline::Direct, Pipeline::Cps] {
        let _ = compile_program_with(&forms, pipeline, CompilerOptions::default());
    }
}

fn token_soup() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        3 => proptest::sample::select(TOKENS.to_vec()),
        1 => proptest::sample::select(KEYWORDS.to_vec()),
    ];
    proptest::collection::vec(token, 0..40).prop_map(|tokens| tokens.join(" "))
}

fn atom() -> impl Strategy<Value = Datum> {
    prop_oneof![
        3 => proptest::sample::select(vec!["x", "y", "f", "car", "+", "list"]).prop_map(Datum::symbol),
        2 => proptest::sample::select(KEYWORDS.to_vec()).prop_map(Datum::symbol),
        1 => (-3i64..3).prop_map(Datum::Fixnum),
        1 => Just(Datum::Flonum(0.5)),
        1 => any::<bool>().prop_map(Datum::Bool),
        1 => Just(Datum::Str("s".into())),
        1 => Just(Datum::Char('c')),
        1 => Just(Datum::Nil),
    ]
}

fn form() -> impl Strategy<Value = Datum> {
    atom().prop_recursive(6, 64, 5, |inner| {
        let keyword = proptest::sample::select(KEYWORDS.to_vec()).prop_map(Datum::symbol);
        prop_oneof![
            // A keyword form of any arity.
            3 => (keyword.clone(), proptest::collection::vec(inner.clone(), 0..5))
                .prop_map(|(k, args)| Datum::cons(k, Datum::list(args))),
            // A keyword form with a dotted tail.
            1 => (keyword, inner.clone(), inner.clone())
                .prop_map(|(k, a, tail)| Datum::cons(k, Datum::cons(a, tail))),
            // Binding lists and applications.
            2 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Datum::list),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Datum::cons(a, b)),
            1 => proptest::collection::vec(inner, 0..4).prop_map(Datum::Vector),
        ]
    })
}

fn program() -> impl Strategy<Value = String> {
    proptest::collection::vec(form(), 1..4)
        .prop_map(|forms| forms.iter().map(write_datum).collect::<Vec<_>>().join("\n"))
}

fn sweep(cases: u32) {
    let config = ProptestConfig { cases, ..ProptestConfig::default() };
    run(config.clone(), (any::<String>(),), |(src,)| front_end(&src));
    run(config.clone(), (token_soup(),), |(src,)| front_end(&src));
    run(config, (program(),), |(src,)| front_end(&src));
}

#[test]
fn the_front_end_never_panics() {
    sweep(512);
}

#[test]
#[ignore = "wide sweep; run in release with --ignored"]
fn the_front_end_never_panics_wide() {
    sweep(20_000);
}
