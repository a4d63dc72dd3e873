//! A return address is a code position and a closure (§3.1): the frame
//! size, the procedure's name and its constants are all found from the
//! `pc` alone. These tests drive the return points where that lookup can
//! go wrong — a tail call that ends its code object, a timer interrupt's
//! frame resumed past `Entry`, and a continuation invoked after `eval`
//! linked new code and constants — each on a fresh VM.

use oneshot_core::Config;
use oneshot_vm::{Vm, VmError};

/// Tiny segments, so captures split and overflows walk frames.
fn tiny() -> Config {
    Config { segment_slots: 128, copy_bound: 32, min_headroom: 32, ..Config::default() }
}

fn eval(vm: &mut Vm, src: &str) -> String {
    let v = vm.eval_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    vm.write_value(&v)
}

#[test]
fn a_tail_call_that_ends_its_code_is_named_by_its_caller() {
    // `g`'s last instruction tail-calls `car` with no arguments, so the
    // refusal is raised with `pc` already at the first instruction of `h`,
    // the code object linked after it.
    let mut vm = Vm::new();
    let e = vm
        .eval_str(
            "(define (g) (car))
             (define (h) 'h)
             (define (k) (list 1 (g)))
             (k)",
        )
        .unwrap_err();
    let VmError::Uncaught { kind, backtrace, .. } = e else { panic!("{e:?}") };
    assert_eq!(kind.as_deref(), Some("arity-error"));
    assert_eq!(backtrace[..2], ["g", "k"], "{backtrace:?}");

    // A closure's own arity error is named from its `Entry`.
    let mut vm = Vm::new();
    let e = vm.eval_str("(define (f x) x) (define (g) (f)) (define (h) 'h) (g)").unwrap_err();
    assert!(e.to_string().contains("f: expected 1 arguments, got 0"), "{e}");

    // And `backtrace` reached by a tail call names the caller's frame.
    let mut vm = Vm::new();
    let v = eval(
        &mut vm,
        "(define (inner) (backtrace))
         (define (after) 'after)
         (define (outer) (cons 'o (inner)))
         (outer)",
    );
    assert_eq!(v, "(o inner outer)");
}

#[test]
fn a_preempted_non_leaf_procedure_resumes_past_its_entry() {
    // The handler returns normally, through the interrupt frame's return
    // address: its size comes from the `Entry` just before it. A wrong
    // size would corrupt `fib`'s frame and its answer; with tiny segments
    // the overflows and the handler's `call/cc` captures walk those frames
    // too.
    for cfg in [Config::default(), tiny()] {
        let mut vm = Vm::builder().stack(cfg).build();
        let v = eval(
            &mut vm,
            "(define ticks 0)
             (define seen #f)
             (define kept #f)
             (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
             (define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))
             (timer-interrupt-handler!
               (lambda ()
                 (set! ticks (+ ticks 1))
                 (if (not seen) (set! seen (backtrace)))
                 (call/cc (lambda (k) (set! kept k)))
                 (set-timer! 7)))
             (set-timer! 7)
             (define r (list (fib 15) (deep 300)))
             (set-timer! 0)
             (list r (> ticks 100) (and (memq 'fib seen) #t))",
        );
        assert_eq!(v, "((610 300) #t #t)");
    }
}

#[test]
fn continuations_return_through_code_linked_after_their_capture() {
    // Each receiver links new code and new constants through `eval`
    // before invoking its continuation; the frame it returns into must
    // still read its own constants.
    for cfg in [Config::default(), tiny()] {
        let mut vm = Vm::builder().stack(cfg.clone()).build();
        let v = eval(
            &mut vm,
            "(define (probe capture)
               (let ((v (capture
                          (lambda (k)
                            (eval '(define (fresh x) (list 'fresh x \"fresh\")))
                            (k (fresh 7))))))
                 (list 'mine v \"mine\")))
             (list (probe call/cc) (probe call/1cc))",
        );
        assert_eq!(v, r#"((mine (fresh 7 "fresh") "mine") (mine (fresh 7 "fresh") "mine"))"#);

        // A multi-shot continuation re-entered from later toplevel runs,
        // each of which first links more code and constants.
        let mut vm = Vm::builder().stack(cfg).build();
        eval(
            &mut vm,
            "(define kept #f)
             (define seen '())
             (define (deep n) (if (zero? n) (call/cc (lambda (k) (set! kept k) 0))
                                  (+ 0 (deep (- n 1)))))
             (define (probe) (let ((v (deep 100))) (set! seen (cons (list 'mine v \"mine\") seen))))
             (probe)",
        );
        for i in 1..=3 {
            eval(&mut vm, &format!("(define (more{i}) (list 'more{i} \"more{i}\"))"));
            eval(&mut vm, &format!("(kept {i})"));
        }
        assert_eq!(
            eval(&mut vm, "seen"),
            r#"((mine 3 "mine") (mine 2 "mine") (mine 1 "mine") (mine 0 "mine"))"#
        );
    }
}
