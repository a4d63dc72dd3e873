//! Never-panic fuzzing of the front end: whatever text arrives, reading
//! and then compiling it on either pipeline returns a program or an
//! error. The sources are arbitrary strings, Scheme-shaped token soup,
//! and forms built from every special-form keyword with malformed
//! arities, dotted tails, vectors and nested quasiquotes.
//!
//! Long flat bodies and argument lists (thousands of forms in one `begin`
//! or one call) compile or are refused with a `CompileError` on both
//! pipelines; they run on a thread with an explicit stack, since a debug
//! build's frames are several times a release build's.
//!
//! The normal run takes 512 cases of each kind (64 long flat ones); the
//! `#[ignore]`d sweep takes 20 000 (256 long flat ones; `cargo test
//! --release -p oneshot-compiler -- --ignored`).

use oneshot_compiler::{compile_program_with, CompilerOptions, Pipeline, MAX_CPS_DEPTH};
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

/// One form repeated up to 3 000 times in a `begin`, a builtin's argument
/// list or a procedure's.
fn long_flat() -> impl Strategy<Value = String> {
    let head = proptest::sample::select(vec!["begin", "list", "f"]);
    (head, form(), 0..3_000usize).prop_map(|(head, item, n)| {
        let items = std::iter::repeat_n(item, n);
        write_datum(&Datum::list(std::iter::once(Datum::symbol(head)).chain(items)))
    })
}

/// Runs `f` on a thread with a 256 MiB stack.
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(256 << 20).spawn(f).unwrap().join().unwrap();
}

fn sweep(cases: u32) {
    let config = ProptestConfig { cases, ..ProptestConfig::default() };
    run(config.clone(), (any::<String>(),), |(src,)| front_end(&src));
    run(config.clone(), (token_soup(),), |(src,)| front_end(&src));
    run(config.clone(), (program(),), |(src,)| front_end(&src));
    let long = ProptestConfig { cases: (cases / 8).min(256), ..config };
    with_big_stack(move || run(long, (long_flat(),), |(src,)| front_end(&src)));
}

/// `(begin (f) (f) ...)`, `(list (f) (f) ...)` and `(list 0 0 ...)`, `n`
/// items each.
fn flat(n: usize) -> [(&'static str, String); 3] {
    let items = |item: &str| vec![item; n].join(" ");
    [
        ("begin of calls", format!("(begin {})", items("(f)"))),
        ("list of calls", format!("(list {})", items("(f)"))),
        ("list of constants", format!("(list {})", items("0"))),
    ]
}

fn compile(src: &str, pipeline: Pipeline) -> Result<(), String> {
    let forms = read_all(src).unwrap();
    compile_program_with(&forms, pipeline, CompilerOptions::default())
        .map(drop)
        .map_err(|e| e.message)
}

#[test]
fn long_flat_programs_compile_or_are_refused_on_both_pipelines() {
    with_big_stack(|| {
        let refused = format!("nest deeper than {MAX_CPS_DEPTH}");
        for (shape, src) in flat(MAX_CPS_DEPTH - 10) {
            assert_eq!(compile(&src, Pipeline::Cps), Ok(()), "{shape} under the bound");
        }
        for (shape, src) in flat(10_000) {
            assert_eq!(compile(&src, Pipeline::Direct), Ok(()), "{shape}");
            match compile(&src, Pipeline::Cps) {
                Ok(()) => assert_eq!(shape, "list of constants"),
                Err(e) => assert!(e.contains(&refused), "{shape}: {e}"),
            }
        }
        // The direct pipeline refuses frames past 65 535 slots.
        for (shape, src) in flat(100_000) {
            for pipeline in [Pipeline::Direct, Pipeline::Cps] {
                if let Err(e) = compile(&src, pipeline) {
                    assert!(e.contains(&refused) || e.contains("65535"), "{shape}: {e}");
                }
            }
        }
    });
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
