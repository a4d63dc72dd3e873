//! Additional semantic edge cases: letrec ordering, internal defines,
//! winder/one-shot interactions, engine-adjacent timer behaviour, and the
//! empty ("halt") continuation.

use oneshot_core::Config;
use oneshot_vm::{Pipeline, Vm};

fn eval(vm: &mut Vm, src: &str) -> String {
    match vm.eval_str(src) {
        Ok(v) => vm.write_value(&v),
        Err(e) => panic!("program failed: {e}\n{src}"),
    }
}

#[test]
fn letrec_mutual_recursion_and_ordering() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(letrec ((e? (lambda (n) (if (zero? n) #t (o? (- n 1)))))
                      (o? (lambda (n) (if (zero? n) #f (e? (- n 1))))))
               (list (e? 10) (o? 7)))"
        ),
        "(#t #t)"
    );
    // letrec* ordering: later inits may use earlier bindings' values.
    assert_eq!(eval(&mut vm, "(letrec* ((a 1) (b (+ a 1))) (list a b))"), "(1 2)");
}

#[test]
fn internal_defines_see_each_other() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(define (f n)
               (define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
               (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
               (even2? n))
             (f 10)"
        ),
        "#t"
    );
}

#[test]
fn one_shot_through_dynamic_wind_runs_afters_once() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(define log '())
             (define (note x) (set! log (cons x log)))
             (call/cc (lambda (escape)
               (dynamic-wind
                 (lambda () (note 'in))
                 (lambda ()
                   ;; escape via a one-shot captured inside the extent
                   (call/1cc (lambda (k) (escape 'out))))
                 (lambda () (note 'out)))))
             (reverse log)"
        ),
        "(in out)"
    );
}

#[test]
fn halt_continuation_aborts_to_toplevel_value() {
    // A continuation captured at an empty tail position is the program's
    // halt continuation; invoking it ends the program with that value.
    let mut vm = Vm::new();
    let v = vm.eval_str("(call/cc (lambda (k) k))").unwrap();
    // The value is the continuation itself; invoking it from a later
    // toplevel form aborts that form.
    vm.set_global("saved-k", v);
    let v = vm.eval_str("(+ 1 (saved-k 99) 1000000)").unwrap();
    assert_eq!(vm.write_value(&v), "99");
}

#[test]
fn set_timer_reports_remaining_fuel() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(timer-interrupt-handler! (lambda () (set-timer! 1000)))
             (set-timer! 1000)
             (define (spin n) (if (zero? n) 0 (spin (- n 1))))
             (spin 100)
             (let ((left (set-timer! 0)))
               (and (> left 0) (< left 1000)))"
        ),
        "#t"
    );
}

#[test]
fn deep_mutual_recursion_across_segments() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(define (a n) (if (zero? n) 0 (+ 1 (b (- n 1)))))   ; non-tail
             (define (b n) (if (zero? n) 0 (a (- n 1))))          ; tail
             (a 100001)"
        ),
        "50001"
    );
}

#[test]
fn variadic_edge_cases() {
    let mut vm = Vm::new();
    assert_eq!(eval(&mut vm, "((lambda args (length args)))"), "0");
    assert_eq!(eval(&mut vm, "(apply (lambda (a b . r) (list a b r)) 1 '(2 3 4))"), "(1 2 (3 4))");
    assert_eq!(eval(&mut vm, "(apply list '())"), "()");
}

#[test]
fn winders_compose_with_values() {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(call-with-values
               (lambda ()
                 (dynamic-wind void (lambda () (values 1 2 3)) void))
               list)"
        ),
        "(1 2 3)"
    );
}

// ---------------------------------------------------------------------
// The per-global call cache can never be stale: a compiled call site
// (`CallGlobal` / `TailCallGlobal`) follows every way its callee's cell
// can change. Debug builds also assert cache == cell at every such call.
// ---------------------------------------------------------------------

/// A VM with `f` defined and two compiled call sites on it, one tail and
/// one not, both already run once (so the cache entry has been used).
fn vm_with_call_sites() -> Vm {
    let mut vm = Vm::new();
    assert_eq!(
        eval(
            &mut vm,
            "(define (f x) (list 'first x))
             (define (tail-site x) (f x))
             (define (call-site x) (cons 'got (f x)))
             (list (tail-site 1) (call-site 2))"
        ),
        "((first 1) (got first 2))"
    );
    vm
}

const BOTH_SITES: &str = "(list (tail-site 1) (call-site 2))";

#[test]
fn call_sites_follow_set_and_define_to_another_closure() {
    let mut vm = vm_with_call_sites();
    eval(&mut vm, "(set! f (lambda (x) (list 'second x)))");
    assert_eq!(eval(&mut vm, BOTH_SITES), "((second 1) (got second 2))");
    eval(&mut vm, "(define (f x) (list 'third x))");
    assert_eq!(eval(&mut vm, BOTH_SITES), "((third 1) (got third 2))");
}

#[test]
fn call_sites_follow_a_callee_that_stops_being_a_closure() {
    let mut vm = vm_with_call_sites();
    // A builtin.
    eval(&mut vm, "(define f car)");
    assert_eq!(eval(&mut vm, "(list (tail-site '(1 2)) (call-site '((3) 4)))"), "(1 (got 3))");
    // A continuation: calling it abandons the call site's context (the
    // `cons 'got` never happens) and re-enters the `let` it was captured
    // in, once.
    assert_eq!(
        eval(
            &mut vm,
            "(define passes 0)
             (let ((v (call/cc (lambda (k) (set! f k) 'captured))))
               (set! passes (+ passes 1))
               (if (eq? v 'captured) (call-site 'through-k) (list v passes)))"
        ),
        "(through-k 2)"
    );
    // A one-shot continuation, shot from inside its extent.
    assert_eq!(
        eval(
            &mut vm,
            "(list (call/1cc (lambda (k) (set! f k) (cons 'unreached (tail-site 'through-k1))))
                   'after)"
        ),
        "(through-k1 after)"
    );
    // A non-procedure: the type error HEAD raised, and the VM recovers.
    eval(&mut vm, "(set! f 5)");
    for site in ["(tail-site 1)", "(call-site 2)"] {
        let e = vm.eval_str(site).unwrap_err();
        assert_eq!(e.condition_kind(), Some("type-error"), "{site}: {e}");
        assert!(e.to_string().contains("apply: expected procedure, got 5"), "{site}: {e}");
    }
    eval(&mut vm, "(set! f (lambda (x) (list 'back x)))");
    assert_eq!(eval(&mut vm, BOTH_SITES), "((back 1) (got back 2))");
}

#[test]
fn a_call_site_on_a_never_defined_global_reports_it_unbound() {
    let mut vm = Vm::new();
    eval(
        &mut vm,
        "(define (tail-site x) (nowhere x)) (define (call-site x) (cons 'got (nowhere x)))",
    );
    for site in ["(tail-site 1)", "(call-site 2)"] {
        let e = vm.eval_str(site).unwrap_err();
        assert!(e.to_string().contains("unbound variable: nowhere"), "{site}: {e}");
    }
    // Defining it later binds the same cell the sites already name.
    eval(&mut vm, "(define (nowhere x) x)");
    assert_eq!(eval(&mut vm, "(list (tail-site 1) (call-site 2))"), "(1 (got . 2))");
}

#[test]
fn call_sites_follow_set_global_from_rust() {
    let mut vm = vm_with_call_sites();
    let other = vm.eval_str("(lambda (x) (list 'from-rust x))").unwrap();
    vm.set_global("f", other);
    assert_eq!(eval(&mut vm, BOTH_SITES), "((from-rust 1) (got from-rust 2))");
    let builtin = vm.global("car").expect("car is a builtin");
    vm.set_global("f", builtin);
    assert_eq!(eval(&mut vm, "(tail-site '(7))"), "7");
    // A global first created from Rust, called from code compiled later.
    let id = vm.eval_str("(lambda (x) x)").unwrap();
    vm.set_global("made-in-rust", id);
    assert_eq!(eval(&mut vm, "(define (site) (made-in-rust 9)) (site)"), "9");
}

#[test]
fn a_running_procedure_sees_a_redefinition_made_by_eval() {
    let mut vm = vm_with_call_sites();
    assert_eq!(
        eval(
            &mut vm,
            "(define (redefine-between)
               (let ((before (f 1)))
                 (eval '(define (f x) (list 'evaled x)))
                 (list before (f 2) (call-site 3))))
             (redefine-between)"
        ),
        "((first 1) (evaled 2) (got evaled 3))"
    );
}

#[test]
fn a_linked_template_sees_its_callee_redefined_between_instantiations() {
    use oneshot_vm::{CompilerOptions, Pipeline};
    let mut vm = vm_with_call_sites();
    let prog =
        Vm::compile_str("(call-site 'job)", Pipeline::Direct, CompilerOptions::default()).unwrap();
    let linked = vm.link_program(&prog);
    let thunk = vm.instantiate(linked);
    let v = vm.call(thunk, &[]).unwrap();
    assert_eq!(vm.write_value(&v), "(got first job)");
    eval(&mut vm, "(define (f x) (list 'relinked x))");
    let thunk = vm.instantiate(linked);
    let v = vm.call(thunk, &[]).unwrap();
    assert_eq!(vm.write_value(&v), "(got relinked job)");
    // The template itself calls a global directly, too.
    let prog =
        Vm::compile_str("(f 'direct)", Pipeline::Direct, CompilerOptions::default()).unwrap();
    let linked = vm.link_program(&prog);
    eval(&mut vm, "(set! f (lambda (x) (list 'last x)))");
    let thunk = vm.instantiate(linked);
    let v = vm.call(thunk, &[]).unwrap();
    assert_eq!(vm.write_value(&v), "(last direct)");
}

/// Each derived form lowers straight to the core language, so no local
/// binding of a name its lowering uses (`if`, `begin`, `let`, `lambda`,
/// `quote`, `cons`, `append`, `list`, `list->vector`), and no global the
/// program defines, changes what it means. Each row's answer is that of
/// the same program with the shadowing name renamed. The last three rows
/// rebind a builtin's own name, which both pipelines must then call as
/// the program's procedure.
const CAPTURES: [(&str, &str); 13] = [
    (
        "(let ((if list)) (do ((i 0 (+ i 1))) ((= i 3) 'done)))",
        "(let ((if* list)) (do ((i 0 (+ i 1))) ((= i 3) 'done)))",
    ),
    (
        "(let ((begin list)) (do ((i 0 (+ i 1))) ((= i 3) 'done) i))",
        "(let ((begin* list)) (do ((i 0 (+ i 1))) ((= i 3) 'done) i))",
    ),
    (
        "(let ((let 5)) (do ((i 0 (+ i 1))) ((= i 3) 'done)))",
        "(let ((let* 5)) (do ((i 0 (+ i 1))) ((= i 3) 'done)))",
    ),
    (
        "(define (%do-loop) 'mine) (do ((i 0 (+ i 1))) ((= i 1) (%do-loop)))",
        "(define (mine) 'mine) (do ((i 0 (+ i 1))) ((= i 1) (mine)))",
    ),
    ("(let ((lambda 1)) (define (g) 2) (g))", "(let ((lambda* 1)) (define (g) 2) (g))"),
    ("(let ((cons list)) `(a ,(+ 1 1)))", "(let ((cons* list)) `(a ,(+ 1 1)))"),
    ("(let ((quote list)) `(a b))", "(let ((quote* list)) `(a b))"),
    ("(let ((append list)) `(a ,@(list 1 2)))", "(let ((append* list)) `(a ,@(list 1 2)))"),
    ("(let ((list->vector list)) `#(a ,(+ 1 1)))", "(let ((list->vector* list)) `#(a ,(+ 1 1)))"),
    ("(let ((list 5)) `(a `(b ,(c ,(+ 1 1)))))", "(let ((list* 5)) `(a `(b ,(c ,(+ 1 1)))))"),
    // A program's own definition or assignment of a builtin's name
    // replaces the builtin at every call, wherever the call stands.
    ("(define (length l) 42) (length '(1 2))", "(define (length* l) 42) (length* '(1 2))"),
    (
        "(define (f) (car '(1 2))) (define (car l) 42) (f)",
        "(define (f) (car* '(1 2))) (define (car* l) 42) (f)",
    ),
    (
        "(set! reverse (lambda (l) 'mine)) (reverse '())",
        "(define reverse* #f) (set! reverse* (lambda (l) 'mine)) (reverse* '())",
    ),
];

#[test]
fn derived_forms_are_not_captured_by_user_bindings() {
    for pipeline in [Pipeline::Direct, Pipeline::Cps] {
        for (captured, renamed) in CAPTURES {
            // Ceilings on stack segments and live objects turn a runaway
            // loop into an error on either pipeline.
            let vm = || {
                let stack = Config { max_segments: 64, ..Config::default() };
                Vm::builder().pipeline(pipeline).stack(stack).heap_budget(1 << 20).build()
            };
            let expected = eval(&mut vm(), renamed);
            let mut vm = vm();
            let got = vm.eval_str(captured).map(|v| vm.write_value(&v));
            assert_eq!(got.as_deref(), Ok(&*expected), "{pipeline:?}: {captured}");
        }
    }
}
