//! Tests for the stack-walking and metaprogramming tools: `backtrace`
//! (the §3.1 walkability claim) and `eval`.

use oneshot_core::Config;
use oneshot_vm::Vm;

#[test]
fn eval_compiles_and_runs_data() {
    let mut vm = Vm::new();
    let v = vm.eval_str("(eval '(+ 1 2))").unwrap();
    assert_eq!(vm.write_value(&v), "3");
    let v = vm.eval_str("(eval (list '+ 1 (eval ''2)))").unwrap();
    assert_eq!(vm.write_value(&v), "3");
    // eval defines into the one global environment.
    vm.eval_str("(eval '(define evald 99))").unwrap();
    let v = vm.eval_str("evald").unwrap();
    assert_eq!(vm.write_value(&v), "99");
    // Procedures built by eval are first class.
    let v = vm.eval_str("((eval '(lambda (x) (* x x))) 9)").unwrap();
    assert_eq!(vm.write_value(&v), "81");
}

#[test]
fn eval_rejects_unrepresentable_values() {
    let mut vm = Vm::new();
    let e = vm.eval_str("(eval car)").unwrap_err();
    assert!(e.to_string().contains("external representation"), "{e}");
}

#[test]
fn eval_propagates_compile_errors() {
    let mut vm = Vm::new();
    let e = vm.eval_str("(eval '(if))").unwrap_err();
    assert!(e.to_string().contains("if"), "{e}");
}

#[test]
fn backtrace_walks_nested_frames() {
    let mut vm = Vm::new();
    let v = vm
        .eval_str(
            "(define (inner) (backtrace))
             (define (middle) (cons 'm (inner)))
             (define (outer) (cons 'o (middle)))
             (define result (outer))  ; non-tail: the toplevel frame stays live
             result",
        )
        .unwrap();
    // (o m <backtrace frames ...>) — the walk sees inner, middle, outer,
    // and the toplevel thunk, in that order.
    assert_eq!(vm.write_value(&v), "(o m inner middle outer toplevel)");

    // A tail call replaces the caller's frame: when the last toplevel form
    // tail-calls outer, the toplevel thunk's frame is legitimately gone.
    let mut vm = Vm::new();
    let v = vm
        .eval_str(
            "(define (inner) (backtrace))
             (define (middle) (cons 'm (inner)))
             (define (outer) (cons 'o (middle)))
             (outer)",
        )
        .unwrap();
    assert_eq!(
        vm.write_value(&v),
        "(o m inner middle outer)",
        "the tail call erased the thunk frame"
    );
}

#[test]
fn backtrace_crosses_segment_boundaries() {
    // With tiny segments the pending frames span many segments and the
    // continuation chain; the walker must traverse them all.
    let cfg = Config { segment_slots: 128, copy_bound: 32, min_headroom: 32, ..Config::default() };
    let mut vm = Vm::builder().stack(cfg).build();
    let v = vm
        .eval_str(
            "(define (deep n)
               (if (zero? n) (length (backtrace)) (+ 0 (deep (- n 1)))))
             (deep 200)",
        )
        .unwrap();
    // Every pending frame, across the segments and the chain, exactly.
    assert_eq!(v.as_fixnum(), Some(202), "backtrace frame count");
    assert!(vm.stats().stack.overflows > 3, "frames really spanned segments");
}

#[test]
fn rust_level_backtrace_matches() {
    let mut vm = Vm::new();
    vm.eval_str("(define (f) (g)) (define (g) 42)").unwrap();
    // At rest the backtrace is just the last toplevel thunk.
    let names = vm.backtrace();
    assert!(!names.is_empty());
}
