//! The condition system and resource guards: every fault class the VM can
//! raise — type/arity errors, `(error ...)`, shot-twice one-shot
//! continuations, heap-budget exhaustion, stack-segment ceilings, fuel
//! exhaustion, and deterministically injected faults — must be catchable
//! from Scheme with `with-exception-handler`/`call-with-guard`, and must
//! surface as `VmError::Uncaught` with a backtrace when nothing catches
//! them.

use oneshot_core::Config;
use oneshot_vm::{FaultPlan, Vm, VmError};

fn check(vm: &mut Vm, src: &str, expected: &str) {
    match vm.eval_str(src) {
        Ok(v) => assert_eq!(vm.write_value(&v), expected, "program: {src}"),
        Err(e) => panic!("program {src} failed: {e}"),
    }
}

/// Expects `src` to die with `Uncaught`, returning (kind, condition,
/// backtrace).
fn expect_uncaught(vm: &mut Vm, src: &str) -> (Option<String>, String, Vec<String>) {
    match vm.eval_str(src) {
        Ok(v) => panic!("program {src} should fail, returned {}", vm.write_value(&v)),
        Err(e) => match e {
            VmError::Uncaught { condition, kind, backtrace } => (kind, condition, backtrace),
            other => panic!("program {src}: expected Uncaught, got {other:?}"),
        },
    }
}

// ----------------------------------------------------------------------
// The Scheme-level machinery itself
// ----------------------------------------------------------------------

#[test]
fn raise_reaches_installed_handler() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (list 'caught (condition-kind c) (condition-message c)))
           (lambda () (raise (make-condition 'my-fault \"boom\"))))",
        "(caught my-fault \"boom\")",
    );
}

#[test]
fn raise_continuable_resumes_with_handler_value() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(with-exception-handler
           (lambda (c) 41)
           (lambda () (+ 1 (raise-continuable (make-condition 'warn \"w\")))))",
        "42",
    );
}

#[test]
fn handler_returning_from_raise_is_itself_an_error() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (with-exception-handler
               (lambda (c) 'ignored)
               (lambda () (raise (make-condition 'x \"x\")) 'unreachable))))",
        "non-continuable",
    );
}

#[test]
fn handler_runs_outside_its_own_extent() {
    // A raise from inside a handler must go to the *enclosing* handler,
    // never loop back into the one that is already handling.
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (list 'outer (condition-kind c)))
           (lambda ()
             (call-with-guard
               (lambda (c) (raise (make-condition 'rethrown \"from handler\")))
               (lambda () (raise (make-condition 'inner \"first\"))))))",
        "(outer rethrown)",
    );
}

#[test]
fn uncaught_raise_reports_kind_and_backtrace() {
    let mut vm = Vm::new();
    vm.eval_str("(define (f) (raise (make-condition 'my-fault \"boom\")))").unwrap();
    let (kind, condition, backtrace) = expect_uncaught(&mut vm, "(f)");
    assert_eq!(kind.as_deref(), Some("my-fault"));
    assert_eq!(condition, "boom");
    assert!(!backtrace.is_empty(), "uncaught conditions carry a backtrace");
    // The VM recovered: it keeps evaluating.
    check(&mut vm, "(+ 1 2)", "3");
}

#[test]
fn raising_a_bare_value_works() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (list 'got c)) (lambda () (raise 42)))",
        "(got 42)",
    );
    let (kind, condition, _) = expect_uncaught(&mut vm, "(raise 42)");
    assert_eq!(kind, None);
    assert_eq!(condition, "42");
}

#[test]
fn dynamic_wind_balances_through_raise_escape() {
    let mut vm = Vm::new();
    vm.eval_str("(define log '()) (define (note x) (set! log (cons x log)))").unwrap();
    check(
        &mut vm,
        "(begin
           (call-with-guard
             (lambda (c) 'caught)
             (lambda ()
               (dynamic-wind
                 (lambda () (note 'in))
                 (lambda () (raise (make-condition 'x \"x\")))
                 (lambda () (note 'out)))))
           (reverse log))",
        "(in out)",
    );
}

// ----------------------------------------------------------------------
// Rust-raised fault classes, caught in Scheme
// ----------------------------------------------------------------------

#[test]
fn type_error_is_catchable() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (car 5)))",
        "type-error",
    );
}

#[test]
fn arity_error_is_catchable() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () ((lambda (x) x))))",
        "arity-error",
    );
}

#[test]
fn error_builtin_raises_an_error_condition() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (list (condition-kind c) (condition-message c)))
           (lambda () (error \"bad\" 'thing)))",
        "(error \"bad thing\")",
    );
    // Uncaught, it prints exactly like the historical Runtime error.
    let e = vm.eval_str("(error \"worse\" 'thing)").unwrap_err();
    assert_eq!(e.to_string(), "error: worse thing");
}

#[test]
fn shot_twice_is_catchable() {
    let mut vm = Vm::new();
    vm.eval_str("(define cell #f)").unwrap();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (let ((k (call/1cc (lambda (k) k))))
               (if (procedure? k)
                   (begin (set! cell k) (k 1))
                   (cell 3)))))",
        "shot-twice",
    );
}

#[test]
fn shot_twice_uncaught_has_kind_and_backtrace() {
    let mut vm = Vm::new();
    vm.eval_str("(define cell #f)").unwrap();
    let (kind, condition, backtrace) = expect_uncaught(
        &mut vm,
        "(let ((k (call/1cc (lambda (k) k))))
           (if (procedure? k) (begin (set! cell k) (k 1)) (cell 3)))",
    );
    assert_eq!(kind.as_deref(), Some("shot-twice"));
    assert!(condition.contains("one-shot"), "condition: {condition}");
    assert!(!backtrace.is_empty());
}

#[test]
fn type_error_uncaught_keeps_its_message_shape() {
    let mut vm = Vm::new();
    let e = vm.eval_str("(car 5)").unwrap_err();
    assert_eq!(e.to_string(), "error: car: expected pair, got 5");
    assert!(matches!(e, VmError::Uncaught { .. }));
}

// ----------------------------------------------------------------------
// Resource guards
// ----------------------------------------------------------------------

const DEEP_LOOP: &str = "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))";

#[test]
fn stack_segment_ceiling_is_catchable() {
    let mut vm = Vm::builder().stack(Config { max_segments: 4, ..Config::default() }).build();
    vm.eval_str(DEEP_LOOP).unwrap();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (deep 1000000)))",
        "stack-overflow",
    );
    // The guard escape released the segments: shallow work still runs, and
    // a fresh deep run trips the ceiling again (the grace latch cleared).
    check(&mut vm, "(deep 100)", "100");
    let (kind, _, backtrace) = expect_uncaught(&mut vm, "(deep 1000000)");
    assert_eq!(kind.as_deref(), Some("stack-overflow"));
    assert!(!backtrace.is_empty());
}

#[test]
fn heap_budget_exhaustion_is_catchable() {
    let mut vm = Vm::builder().heap_budget(20_000).build();
    vm.eval_str("(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))").unwrap();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (build 100000 '())))",
        "out-of-memory",
    );
    // After the guard dropped the giant list, allocation works again.
    check(&mut vm, "(length (build 100 '()))", "100");
}

#[test]
fn fuel_exhaustion_is_catchable() {
    let mut vm = Vm::new();
    vm.eval_str(DEEP_LOOP).unwrap();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda () (set-timer! 200) (deep 100000)))",
        "fuel-exhausted",
    );
    let e = vm.eval_str("(set-timer! 200) (deep 100000)").unwrap_err();
    assert_eq!(e.condition_kind(), Some("fuel-exhausted"));
}

// ----------------------------------------------------------------------
// Deterministic fault injection
// ----------------------------------------------------------------------

#[test]
fn injected_alloc_fault_is_catchable_and_counted() {
    let plan = FaultPlan::none().with_alloc_fault(50);
    let mut vm = Vm::builder().fault_plan(plan).build();
    vm.eval_str("(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))").unwrap();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (build 1000 '())))",
        "out-of-memory",
    );
    let stats = vm.stats();
    assert_eq!(stats.faults_injected, 1, "the clock fires exactly once");
    assert!(stats.conditions_raised >= 1);
    // The fault is one-shot: the same program now completes.
    check(&mut vm, "(length (build 1000 '()))", "1000");
}

#[test]
fn injected_segment_fault_is_catchable() {
    let plan = FaultPlan::none().with_segment_fault(10);
    let mut vm = Vm::builder().fault_plan(plan).build();
    vm.eval_str(DEEP_LOOP).unwrap();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (deep 100000)))",
        "stack-overflow",
    );
    assert_eq!(vm.stats().faults_injected, 1);
    check(&mut vm, "(deep 1000)", "1000");
}

#[test]
fn injected_timer_fault_is_catchable() {
    let plan = FaultPlan::none().with_timer_fault(30);
    let mut vm = Vm::builder().fault_plan(plan).build();
    vm.eval_str(DEEP_LOOP).unwrap();
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (deep 100000)))",
        "fuel-exhausted",
    );
    assert_eq!(vm.stats().faults_injected, 1);
    check(&mut vm, "(deep 1000)", "1000");
}

#[test]
fn seeded_plans_reproduce() {
    for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed, 200);
            let mut vm = Vm::builder().fault_plan(plan).build();
            vm.eval_str(DEEP_LOOP).unwrap();
            let r = vm.eval_str(
                "(call-with-guard (lambda (c) (condition-kind c)) (lambda () (deep 5000)))",
            );
            let shown = match r {
                Ok(v) => vm.write_value(&v),
                Err(e) => format!("err: {e}"),
            };
            (shown, vm.stats().faults_injected)
        };
        assert_eq!(run(seed), run(seed), "seed {seed} must reproduce");
    }
}

// ----------------------------------------------------------------------
// Counters and stats plumbing
// ----------------------------------------------------------------------

#[test]
fn conditions_raised_counts_caught_and_uncaught() {
    let mut vm = Vm::new();
    assert_eq!(vm.stats().conditions_raised, 0);
    vm.eval_str("(call-with-guard (lambda (c) 'ok) (lambda () (raise (make-condition 'a \"a\"))))")
        .unwrap();
    assert_eq!(vm.stats().conditions_raised, 1);
    let _ = vm.eval_str("(raise (make-condition 'b \"b\"))").unwrap_err();
    assert_eq!(vm.stats().conditions_raised, 2);
}

#[test]
fn vm_stats_alist_exposes_the_new_counters() {
    let mut vm = Vm::new();
    check(&mut vm, "(assq-ref (vm-stats) 'conditions-raised)", "0");
    check(&mut vm, "(assq-ref (vm-stats) 'faults-injected)", "0");
    vm.eval_str("(call-with-guard (lambda (c) c) (lambda () (car 5)))").unwrap();
    check(&mut vm, "(assq-ref (vm-stats) 'conditions-raised)", "1");
}

// ----------------------------------------------------------------------
// Reader diagnostics
// ----------------------------------------------------------------------

#[test]
fn read_errors_carry_line_and_column() {
    let mut vm = Vm::new();
    let e = vm.eval_str("(+ 1 2)\n(car \"unterminated").unwrap_err();
    let shown = e.to_string();
    assert!(shown.contains("2:"), "read error should name line 2, got: {shown}");
    let e = vm.eval_str("(list 1 2\n   ))\n").unwrap_err();
    assert!(matches!(e, VmError::Read(_)), "got: {e:?}");
}
