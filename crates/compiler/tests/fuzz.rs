//! Never-panic fuzzing of the front end: whatever text arrives, reading
//! and then compiling it on either pipeline returns a program or an
//! error. The sources are arbitrary strings, Scheme-shaped token soup,
//! and forms built from every special-form keyword with malformed
//! arities, dotted tails, vectors and nested quasiquotes.
//!
//! Long flat bodies and argument lists (thousands of forms in one `begin`
//! or one call) and long derived forms (thousands of `let*` bindings,
//! `cond` or `case` clauses, `case` data, `and`/`or` operands, `do`
//! variables, quasiquoted elements) compile or are refused with a
//! `CompileError` on both pipelines. In a release build they run on a
//! 2 MiB thread, a spawned thread's default; a debug build's frames are
//! several times a release build's, so there they get 256 MiB.
//!
//! The normal run takes 512 cases of each kind (64 long flat ones); the
//! `#[ignore]`d sweep takes 20 000 (256 long flat ones; `cargo test
//! --release -p oneshot-compiler -- --ignored`).

use oneshot_compiler::{compile_program_with, CompilerOptions, Pipeline};
use oneshot_sexp::{read_all, write_datum, Datum, MAX_NESTING};
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

/// A stand-in for the VM's direct-call test: the builtins among the
/// sources' names and the expander's lowerings, which CPS conversion
/// leaves as direct calls.
fn direct(name: &str) -> bool {
    matches!(name, "car" | "+" | "not" | "list" | "append" | "memv" | "list->vector")
}

/// Reads `src` and compiles whatever it reads on both pipelines; any
/// panic fails the case.
fn front_end(src: &str) {
    let Ok(forms) = read_all(src) else { return };
    for pipeline in [Pipeline::Direct, Pipeline::Cps] {
        let _ = compile_program_with(&forms, pipeline, CompilerOptions::default(), direct);
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

/// `n` copies of `item` in each derived form whose lowering folds a
/// chain: `let*` bindings, `cond` and `case` clauses, one `case` clause's
/// data, `and`/`or` operands, `do` variables and quasiquoted elements.
/// With `item` = `(+ 0 1)`, each evaluates to 1.
fn derived(n: usize, item: &str) -> [(&'static str, String); 8] {
    let items = |f: &dyn Fn(usize) -> String| (0..n).map(f).collect::<Vec<_>>().join(" ");
    [
        ("let*", format!("(let* ((x 1) {}) x)", items(&|_| format!("(x {item})")))),
        ("cond", format!("(cond {} (else 1))", items(&|_| format!("({item} {item})")))),
        (
            "case clauses",
            format!("(case {item} {} (else 1))", items(&|i| format!("(({i}) {item})"))),
        ),
        ("case data", format!("(case {item} (({}) {item}) (else 1))", items(&|i| i.to_string()))),
        ("and", format!("(and {} 1)", items(&|_| item.to_string()))),
        ("or", format!("(or {} 1)", items(&|_| format!("(not {item})")))),
        ("do", format!("(do ({}) ({item} 1))", items(&|i| format!("(v{i} {item} {item})")))),
        (
            "quasiquote",
            format!("(car `(,{item} {}))", items(&|_| format!("{item} ,{item} ,@(list {item})"))),
        ),
    ]
}

/// One form repeated up to 3 000 times in a `begin`, a builtin's argument
/// list, a procedure's, or one of the derived forms.
fn long_flat() -> impl Strategy<Value = String> {
    let shape = proptest::sample::select((0..11).collect::<Vec<usize>>());
    (shape, form(), 0..3_000usize).prop_map(|(shape, item, n)| match shape {
        0..3 => {
            let head = Datum::symbol(["begin", "list", "f"][shape]);
            let items = std::iter::repeat_n(item, n);
            write_datum(&Datum::list(std::iter::once(head).chain(items)))
        }
        _ => derived(n, &write_datum(&item))[shape - 3].1.clone(),
    })
}

/// Runs `f` on a thread with a 2 MiB stack in a release build, 256 MiB in
/// a debug one.
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    let stack = if cfg!(debug_assertions) { 256 << 20 } else { 2 << 20 };
    std::thread::Builder::new().stack_size(stack).spawn(f).unwrap().join().unwrap();
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

/// Reads `src` once and compiles it on the direct pipeline, then on CPS.
fn compile(src: &str) -> [(Pipeline, Result<(), String>); 2] {
    let forms = read_all(src).unwrap();
    [Pipeline::Direct, Pipeline::Cps].map(|pipeline| {
        let compiled = compile_program_with(&forms, pipeline, CompilerOptions::default(), direct);
        (pipeline, compiled.map(drop).map_err(|e| e.message))
    })
}

#[test]
fn long_flat_programs_compile_or_are_refused_on_both_pipelines() {
    with_big_stack(|| {
        let bound = 2 * MAX_NESTING;
        let refused = format!("nest deeper than {bound}");
        for (shape, src) in flat(bound - 10) {
            assert_eq!(compile(&src)[1].1, Ok(()), "{shape} under the bound");
        }
        for (shape, src) in flat(10_000) {
            let [(_, direct), (_, cps)] = compile(&src);
            assert_eq!(direct, Ok(()), "{shape}");
            match cps {
                Ok(()) => assert_eq!(shape, "list of constants"),
                Err(e) => assert!(e.contains(&refused), "{shape}: {e}"),
            }
        }
        // The direct pipeline refuses frames past 65 535 slots.
        for (shape, src) in flat(100_000) {
            for (_, compiled) in compile(&src) {
                if let Err(e) = compiled {
                    assert!(e.contains(&refused) || e.contains("65535"), "{shape}: {e}");
                }
            }
        }
        // A folded chain past the expander's bound is refused by name; the
        // rest compile, or meet the frame or CPS limits.
        let too_deep = format!("expands deeper than {MAX_NESTING} levels");
        for n in [10_000, 100_000] {
            for (shape, src) in derived(n, "(+ 0 1)") {
                let chain = shape.split(' ').next().unwrap();
                let flat = matches!(chain, "do" | "quasiquote") || shape == "case data";
                for (pipeline, compiled) in compile(&src) {
                    match compiled {
                        Ok(()) => assert!(flat, "{shape} of {n} on {pipeline:?} compiled"),
                        Err(e) if flat => assert!(
                            !(n == 10_000 && pipeline == Pipeline::Direct)
                                && [&refused, "65535", "too many parameters"]
                                    .iter()
                                    .any(|limit| e.contains(*limit)),
                            "{shape} of {n} on {pipeline:?}: {e}"
                        ),
                        Err(e) => assert_eq!(e, format!("{chain}: {too_deep}"), "{shape} of {n}"),
                    }
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
