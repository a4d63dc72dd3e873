//! The condition system and resource guards: every refusal a guest can
//! reach (one row each in `REFUSALS`, which covers every declared
//! `ConditionKind`), heap-budget exhaustion, stack-segment ceilings, fuel
//! exhaustion and deterministically injected faults must be catchable
//! from Scheme with `with-exception-handler`/`call-with-guard`, and must
//! surface as `VmError::Uncaught` with a backtrace when nothing catches
//! them.

use oneshot_core::Config;
use oneshot_sexp::MAX_NESTING;
use oneshot_vm::{ConditionKind, FaultPlan, Pipeline, Vm, VmError};

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

/// One row per refusal a guest program can reach: the program, the
/// condition kind it raises and the message. Every kind the VM declares
/// has a row, bar the two [`ROWLESS`] names.
const REFUSALS: &[(&str, &str, &str)] = &[
    ("(car 5)", "type-error", "car: expected pair, got 5"),
    ("(odd? 'a)", "type-error", "odd?: expected integer"),
    ("(quotient 7 \"2\")", "type-error", "quotient: expected integer"),
    ("(make-vector -1)", "type-error", "make-vector: expected nonnegative integer"),
    ("(list-tail '(1 2) -1)", "type-error", "list-tail: expected nonnegative integer"),
    ("(char-upcase 5)", "type-error", "char-upcase: expected character"),
    ("(char<? #\\a 1)", "type-error", "char<?: expected character"),
    ("(string-set! (vector 1) 0 #\\a)", "type-error", "string-set!: expected string"),
    ("(string-fill! (vector 1) #\\a)", "type-error", "string-fill!: expected string"),
    ("(vector-fill! \"abc\" 0)", "type-error", "vector-fill!: expected vector"),
    ("(car 1 2)", "arity-error", "car: expected 1 arguments, got 2"),
    ("((lambda (x) x))", "arity-error", "lambda: expected 1 arguments, got 0"),
    ("(vector-ref (vector 1 2) 5)", "range-error", "vector-ref: index 5 out of range"),
    ("(vector-set! (vector) 0 1)", "range-error", "vector-set!: index 0 out of range"),
    ("(string-ref \"ab\" 9)", "range-error", "string-ref: index out of range"),
    ("(string-set! (make-string 2) 5 #\\a)", "range-error", "string-set!: index out of range"),
    ("(substring \"abc\" 2 1)", "range-error", "substring: index out of range"),
    ("(integer->char -1)", "range-error", "integer->char: not a character code"),
    ("(number->string 5 7)", "range-error", "number->string: unsupported radix"),
    ("(string->number \"12\" 1)", "range-error", "string->number: unsupported radix"),
    ("(expt 2 5000000000)", "range-error", "expt: exponent too large"),
    (
        "(inexact->exact 1.5)",
        "range-error",
        "inexact->exact: not representable as an exact integer",
    ),
    ("(sleep-ms -1)", "range-error", "sleep-ms: expected a non-negative duration"),
    ("(%tcp-read 0 0)", "range-error", "%tcp-read: expected a positive byte count"),
    ("(%tcp-write 0 \"ab\" 5)", "range-error", "%tcp-write: start out of range"),
    ("(%tcp-listen 70000)", "range-error", "%tcp-listen: expected a port in 0..=65535"),
    ("(/ 1 0)", "division-by-zero", "/: division by zero"),
    ("(quotient 1 0)", "division-by-zero", "quotient: division by zero"),
    ("(remainder 1 0)", "division-by-zero", "remainder: division by zero"),
    ("(modulo 1 0)", "division-by-zero", "modulo: division by zero"),
    ("(length (cons 1 2))", "improper-list", "length: improper list"),
    ("(apply + (cons 1 2))", "improper-list", "apply: improper list"),
    ("(memq 3 (cons 1 2))", "improper-list", "memq: improper list"),
    ("(assq 3 (list (cons 1 2) 5))", "type-error", "car: expected pair, got 5"),
    ("(assv 3 (cons (cons 1 2) 5))", "improper-list", "assv: improper list"),
    // A circular list is improper too: each walk stops after as many pairs
    // as the heap holds objects.
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (length l))",
        "improper-list",
        "length: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (append l '(4)))",
        "improper-list",
        "append: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (reverse l))",
        "improper-list",
        "reverse: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (list->vector l))",
        "improper-list",
        "list->vector: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (apply + l))",
        "improper-list",
        "apply: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (memq 9 l))",
        "improper-list",
        "memq: improper list",
    ),
    (
        "(let ((l (list 1 2 3))) (set-cdr! (cddr l) l) (memv 9 l))",
        "improper-list",
        "memv: improper list",
    ),
    (
        "(let ((l (list (cons 1 2)))) (set-cdr! l l) (assq 9 l))",
        "improper-list",
        "assq: improper list",
    ),
    (
        "(let ((l (list (cons 1 2)))) (set-cdr! l l) (assv 9 l))",
        "improper-list",
        "assv: improper list",
    ),
    ("undefined-thing", "unbound-variable", "unbound variable: undefined-thing"),
    ("(undefined-thing 1)", "unbound-variable", "unbound variable: undefined-thing"),
    ("(set! nope 1)", "unbound-variable", "assignment to unbound variable: nope"),
    ("(eval '(lambda))", "syntax-error", "compile error: malformed lambda"),
    ("(eval (list 'quote car))", "syntax-error", "eval: value has no external representation"),
    ("(+ 1 (values 1 2))", "values-error", "returned 2 values to single value return context"),
    ("(expt 2 100)", "error", "fixnum overflow in expt"),
    ("(lcm 562949953421311 562949953421310)", "error", "fixnum overflow in lcm"),
    ("(error \"boom\" 1)", "error", "boom 1"),
    (
        "(reset (lambda () (+ 1 (shift (lambda (k) (k 1) (k 2))))))",
        "shot-twice",
        "attempt to invoke shot one-shot continuation",
    ),
    (
        "(%abort-to-prompt (make-prompt-tag 'p) 1)",
        "no-matching-prompt",
        "no prompt tagged (p) is on the continuation",
    ),
    (
        "(with-exception-handler (lambda (c) 0) (lambda () (raise 'x)))",
        "non-continuable",
        "exception handler returned from non-continuable raise",
    ),
    ("(perform 'op)", "unhandled-effect", "perform: no handler for effect op"),
    (
        "(make-vector 100000000000)",
        "out-of-memory",
        "make-vector: cannot allocate 100000000000 elements",
    ),
    (
        "(make-string 100000000000)",
        "out-of-memory",
        "make-string: cannot allocate 100000000000 elements",
    ),
    (
        "(begin (set-timer! 10) (let loop () (loop)))",
        "fuel-exhausted",
        "timer expired with no interrupt handler",
    ),
    ("(%tcp-accept 99)", "io-error", "tcp-accept: bad socket token 99"),
];

/// The kinds with no [`REFUSALS`] row, and the test that raises each:
/// a stack ceiling is a VM setting (`stack_segment_ceiling_is_catchable`
/// here), and `io-timeout` needs a pool's reactor
/// (`oneshot-exec`'s `silent_peer_raises_a_catchable_io_timeout`).
const ROWLESS: [&str; 2] = ["stack-overflow", "io-timeout"];

/// Every refusal in [`REFUSALS`] is caught by `call-with-guard` on the
/// direct pipeline with its kind and message, and is
/// [`VmError::Uncaught`] of the same kind on the CPS pipeline (which
/// raises the VM's own conditions uncaught).
#[test]
fn every_refusal_is_a_catchable_condition_of_its_kind() {
    let mut direct = Vm::new();
    let mut cps = Vm::builder().pipeline(Pipeline::Cps).build();
    for &(program, kind, message) in REFUSALS {
        check(
            &mut direct,
            &format!(
                "(call-with-guard
                   (lambda (c) (list (condition-kind c) (condition-message c)))
                   (lambda () {program}))"
            ),
            &format!("({kind} \"{message}\")"),
        );
        let (got, _, _) = expect_uncaught(&mut cps, program);
        assert_eq!(got.as_deref(), Some(kind), "CPS {program}");
    }
    for kind in ConditionKind::ALL {
        let covered = REFUSALS.iter().any(|&(_, k, _)| k == kind.name());
        assert_ne!(covered, ROWLESS.contains(&kind.name()), "{kind:?}: a row, or a ROWLESS entry");
    }
}

/// The refusals a guard cannot see, because they need the bare top level
/// or the CPS pipeline, are uncaught conditions of kind `error` too.
#[test]
fn refusals_outside_a_guard_are_uncaught_conditions() {
    let mut vm = Vm::new();
    let (kind, condition, _) = expect_uncaught(&mut vm, "(%top-handler)");
    assert_eq!(
        (kind.as_deref(), condition.as_str()),
        (Some("error"), "%top-handler: empty handler stack")
    );
    // A continuation captured in tail position at the top level is the
    // empty one; as a timer handler it ends the chain.
    vm.eval_str("(define k0 #f) (call/cc (lambda (k) (set! k0 k) 1))").unwrap();
    let (kind, condition, _) = expect_uncaught(
        &mut vm,
        "(timer-interrupt-handler! k0) (set-timer! 3) (let loop ((i 0)) (if (< i 100) (loop (+ i 1)) i))",
    );
    assert_eq!(
        (kind.as_deref(), condition.as_str()),
        (Some("error"), "timer handler exhausted the continuation chain")
    );
    let mut cps = Vm::builder().pipeline(Pipeline::Cps).build();
    let (kind, condition, _) = expect_uncaught(&mut cps, "(apply eval (list '(+ 1 2)))");
    assert_eq!(
        (kind.as_deref(), condition.as_str()),
        (Some("error"), "apply: builtin transferred control in CPS mode")
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
    // A builtin's arity is checked by the same rule and raises the same
    // condition, named for the builtin called; uncaught, it prints
    // `error: <message>`.
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (list (condition-kind c) (condition-message c)))
           (lambda () (car 1 2)))",
        "(arity-error \"car: expected 1 arguments, got 2\")",
    );
    let (kind, condition, _) = expect_uncaught(&mut vm, "(memq 1)");
    assert_eq!(kind.as_deref(), Some("arity-error"));
    assert_eq!(condition, "memq: expected 2 arguments, got 1");
    let e = vm.eval_str("(car 1 2)").unwrap_err();
    assert_eq!(e.to_string(), "error: car: expected 1 arguments, got 2");
    check(
        &mut vm,
        "(call-with-guard (lambda (c) (condition-message c)) (lambda () (-)))",
        "\"-: expected 1+ arguments, got 0\"",
    );
    // The CPS pipeline's `apply` checks a builtin's arity by the same
    // rule, and refuses `(apply f)` as the direct row does (the VM's own
    // conditions are uncaught there).
    for pipeline in [Pipeline::Direct, Pipeline::Cps] {
        let mut vm = Vm::builder().pipeline(pipeline).build();
        for (src, message) in [
            ("(apply car '(1 2))", "car: expected 1 arguments, got 2"),
            ("(apply car)", "apply: expected 2+ arguments, got 1"),
        ] {
            let e = vm.eval_str(src).unwrap_err();
            assert_eq!(e.condition_kind(), Some("arity-error"), "{pipeline:?} {src}: {e}");
            assert_eq!(e.to_string(), format!("error: {message}"), "{pipeline:?} {src}");
        }
    }
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
fn returning_into_a_shot_one_shot_is_catchable_too() {
    // `r`'s frames return into `k`'s record, which `(k 'escaped)` shot:
    // that underflow meets the refusal a second invocation meets.
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(define (id x) x) (define r #f) (define n 0)
         (call-with-guard
           (lambda (c) (list 'caught (condition-kind c)))
           (lambda ()
             (id (call/1cc (lambda (k) (id (call/1cc (lambda (c) (set! r c) (k 'escaped)))))))
             (set! n (+ n 1))
             (if (= n 1) (r 'again) 'done)))",
        "(caught shot-twice)",
    );
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

#[test]
fn a_source_nested_past_the_bound_is_a_read_error() {
    let mut vm = Vm::new();
    let deep = format!("(quote {}1{})", "(".repeat(100_000), ")".repeat(100_000));
    let e = vm.eval_str(&deep).unwrap_err();
    assert!(matches!(e, VmError::Read(_)), "got: {e:?}");
    assert!(e.to_string().contains("nested deeper"), "{e}");
    check(&mut vm, "(+ 1 2)", "3");
}

/// `n` levels of nesting in all: `(+ 1 (+ 1 ... 0))`, and a quoted list
/// (the quote form is the outermost level).
fn nested_to(n: usize) -> [(String, String); 2] {
    [
        (format!("{}0{}", "(+ 1 ".repeat(n), ")".repeat(n)), n.to_string()),
        (
            format!("(quote {}1{})", "(".repeat(n - 1), ")".repeat(n - 1)),
            format!("{}1{}", "(".repeat(n - 1), ")".repeat(n - 1)),
        ),
    ]
}

#[test]
fn programs_nested_to_the_bound_run_on_both_pipelines() {
    // Compiling recurses once per nesting level, and debug frames are
    // several times the size of release ones: give it room.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            for pipeline in [Pipeline::Direct, Pipeline::Cps] {
                let mut vm = Vm::builder().pipeline(pipeline).build();
                for (src, answer) in nested_to(MAX_NESTING) {
                    check(&mut vm, &src, &answer);
                }
                for (src, _) in nested_to(MAX_NESTING + 1) {
                    assert!(matches!(vm.eval_str(&src), Err(VmError::Read(_))));
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// A body of `n` calls: `((lambda () (f) (f) ... (f)))`.
fn flat_body(n: usize) -> String {
    format!("((lambda () {}))", vec!["(f)"; n].join(" "))
}

#[test]
fn a_body_past_the_cps_bound_is_a_compile_error() {
    // The CPS pipeline nests one continuation per call; debug frames are
    // several times the size of release ones, so give it room.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let bound = 2 * MAX_NESTING;
            let mut cps = Vm::builder().pipeline(Pipeline::Cps).build();
            cps.eval_str("(define (f) 7)").unwrap();
            check(&mut cps, &flat_body(bound - 10), "7");
            let e = cps.eval_str(&flat_body(bound + 10)).unwrap_err();
            assert!(matches!(e, VmError::Compile(_)), "got: {e:?}");
            assert!(e.to_string().contains(&bound.to_string()), "{e}");
            check(&mut cps, "(f)", "7");
            let mut direct = Vm::new();
            direct.eval_str("(define (f) 7)").unwrap();
            check(&mut direct, &flat_body(10_000), "7");
        })
        .unwrap()
        .join()
        .unwrap();
}

/// `n` copies of `(+ 0 1)` in each derived form whose lowering folds a
/// chain; each evaluates to 1.
fn derived(n: usize) -> [(&'static str, String); 8] {
    let items = |f: &dyn Fn(usize) -> String| (0..n).map(f).collect::<Vec<_>>().join(" ");
    [
        ("let*", format!("(let* ((x 1) {}) x)", items(&|_| "(x (+ 0 1))".into()))),
        ("cond", format!("(cond {} (else 1))", items(&|_| "((+ 0 1) (+ 0 1))".into()))),
        ("case", format!("(case (+ 0 1) {} (else 1))", items(&|i| format!("(({i}) (+ 0 1))")))),
        ("case data", format!("(case (+ 0 1) (({}) (+ 0 1)) (else 1))", items(&|i| i.to_string()))),
        ("and", format!("(and {} 1)", items(&|_| "(+ 0 1)".into()))),
        ("or", format!("(or {} 1)", items(&|_| "(not (+ 0 1))".into()))),
        ("do", format!("(do ({}) ((+ 0 1) 1))", items(&|i| format!("(v{i} (+ 0 1) (+ 0 1))")))),
        ("quasiquote", format!("(car `(,(+ 0 1) {}))", items(&|_| "0 ,0 ,@(list 0)".into()))),
    ]
}

#[test]
fn long_derived_forms_run_or_are_refused_on_both_pipelines() {
    // Release frames fit the default 2 MiB thread; debug ones need room.
    let stack = if cfg!(debug_assertions) { 64 << 20 } else { 2 << 20 };
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(|| {
            for pipeline in [Pipeline::Direct, Pipeline::Cps] {
                let mut vm = Vm::builder().pipeline(pipeline).build();
                for (_, src) in derived(100) {
                    check(&mut vm, &src, "1");
                }
                for n in [10_000, 100_000] {
                    for (shape, src) in derived(n) {
                        match vm.eval_str(&src) {
                            Ok(v) => assert_eq!(vm.write_value(&v), "1", "{shape} of {n}"),
                            Err(e) => {
                                assert!(matches!(e, VmError::Compile(_)), "{shape} of {n}: {e:?}");
                            }
                        }
                    }
                }
                check(&mut vm, "(+ 1 2)", "3");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
