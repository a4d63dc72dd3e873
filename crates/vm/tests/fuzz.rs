//! Runs what compiles: every builtin, called with zero to four arguments
//! drawn from a fixed set of atoms, on both pipelines, bare and under
//! `call-with-guard`, with a fuel budget (`set-timer!`) and a heap budget.
//! Every outcome is a value or a condition (`VmError::Condition` or
//! `VmError::Uncaught`): no call reaches `VmError::Internal`, and none
//! panics.
//!
//! The normal run takes 512 cases; the `#[ignore]`d sweep takes 20 000
//! (`cargo test --release -p oneshot-vm --test fuzz -- --ignored`).

use oneshot_vm::{Pipeline, Vm, VmError};
use proptest::prelude::*;
use proptest::test_runner::run;

/// The rows left out, with the reason for each: a deliberate panic, a
/// real wait, and real sockets.
fn excluded(name: &str) -> bool {
    name == "debug-panic!" || name == "sleep-ms" || name.starts_with("%tcp-")
}

/// Small, negative and extreme fixnums, flonums with the infinities and
/// NaN, characters, strings, symbols, `()`, an improper pair, vectors,
/// booleans, and two procedures.
const ATOMS: [&str; 25] = [
    "0",
    "1",
    "7",
    "-1",
    "-7",
    "562949953421311",
    "-562949953421312",
    "0.5",
    "-2.5",
    "+inf.0",
    "-inf.0",
    "+nan.0",
    "#\\a",
    "#\\space",
    "\"\"",
    "\"abc\"",
    "'sym",
    "'()",
    "'(1 . 2)",
    "(vector)",
    "(vector 1 'b)",
    "#t",
    "#f",
    "car",
    "(lambda args 1)",
];

/// Procedure entries a case may make before the timer refuses it.
const FUEL: u32 = 100_000;

/// Live objects a case may hold before the heap budget refuses it.
const HEAP_BUDGET: usize = 200_000;

fn call() -> impl Strategy<Value = String> {
    let names: Vec<&str> = Vm::builtin_names().filter(|n| !excluded(n)).collect();
    let args = proptest::collection::vec(proptest::sample::select(ATOMS.to_vec()), 0..5);
    (proptest::sample::select(names), args).prop_map(|(name, args)| {
        format!("({name}{})", args.iter().map(|a| format!(" {a}")).collect::<String>())
    })
}

/// Runs `call` bare and then guarded, on a fresh VM per pipeline.
fn run_both_ways(call: &str) {
    let bare = format!("(begin (set-timer! {FUEL}) {call})");
    let guarded =
        format!("(call-with-guard (lambda (c) c) (lambda () (set-timer! {FUEL}) {call}))");
    for pipeline in [Pipeline::Direct, Pipeline::Cps] {
        let mut vm = Vm::builder().pipeline(pipeline).heap_budget(HEAP_BUDGET).build();
        for src in [&bare, &guarded] {
            match vm.eval_str(src) {
                Ok(_) | Err(VmError::Condition { .. } | VmError::Uncaught { .. }) => {}
                Err(e) => panic!("{pipeline:?} {src}: {e:?}"),
            }
        }
    }
}

fn sweep(cases: u32) {
    run(ProptestConfig { cases, ..ProptestConfig::default() }, (call(),), |(call,)| {
        run_both_ways(&call)
    });
}

#[test]
fn every_builtin_call_is_a_value_or_a_condition() {
    sweep(512);
}

#[test]
#[ignore = "wide sweep; run in release with --ignored"]
fn every_builtin_call_is_a_value_or_a_condition_wide() {
    sweep(20_000);
}
