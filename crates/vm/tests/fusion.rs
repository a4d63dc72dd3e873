//! Superinstruction fusion must be semantically invisible: for any
//! program, compiling with `fuse: true` and `fuse: false` must produce
//! the same result AND the same segmented-stack control-event counters
//! (captures, reinstatements, overflows, slots copied, ...) — fusion may
//! only reduce the number of dispatched instructions, never change what
//! the program does to the stack.

use std::collections::HashMap;

use oneshot_compiler::MNEMONICS;
use oneshot_vm::{Vm, VmStats};
use proptest::prelude::*;

/// A generated expression with the variables in scope. Weighted toward
/// the comparison/test forms the peephole pass fuses.
fn expr(depth: u32, vars: Vec<String>) -> BoxedStrategy<String> {
    let atom = {
        let vars = vars.clone();
        prop_oneof![
            (-50i64..50).prop_map(|n| n.to_string()),
            Just("#t".to_string()),
            Just("#f".to_string()),
            Just("'()".to_string()),
            proptest::sample::select(if vars.is_empty() { vec!["0".to_string()] } else { vars }),
        ]
    };
    if depth == 0 {
        return atom.boxed();
    }
    let sub = || expr(depth - 1, vars.clone());
    let fresh = format!("v{depth}");
    let mut extended = vars.clone();
    extended.push(fresh.clone());
    let sub_ext = expr(depth - 1, extended.clone());
    let sub_ext2 = expr(depth - 1, extended);

    prop_oneof![
        2 => atom,
        2 => (sub(), sub()).prop_map(|(a, b)| format!("(+ {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(- {a} {b})")),
        // Every fused comparison, plus the negated form (BrTrue).
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(< {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(<= {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(> {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(= {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(eq? {a} {b})")),
        1 => sub().prop_map(|a| format!("(zero? {a})")),
        1 => sub().prop_map(|a| format!("(null? {a})")),
        1 => sub().prop_map(|a| format!("(not {a})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(cons {a} {b})")),
        2 => (sub(), sub(), sub()).prop_map(|(c, t, f)| format!("(if {c} {t} {f})")),
        2 => (sub(), sub_ext.clone()).prop_map({
            let v = fresh.clone();
            move |(init, body)| format!("(let (({v} {init})) {body})")
        }),
        1 => (sub(), sub_ext2).prop_map({
            let v = fresh.clone();
            move |(arg, body)| format!("((lambda ({v}) {body}) {arg})")
        }),
        // Call arguments computed from a local (`SubImmTo`, `AddImm` and
        // its store) and a compare of two locals (`LtLL`), with and without
        // a branch; a non-number errs in the argument, identically.
        1 => (sub(), sub()).prop_map({
            let v = fresh.clone();
            move |(a, b)| format!(
                "(let (({v} {a}) (w {b}))
                   (list (- {v} 1) (- {v} 7) (+ {v} 1) (< {v} w) (if (< w {v}) {v} w)))"
            )
        }),
        // A captured variable as an operand and as an argument (`MoveFree`).
        1 => (sub(), sub()).prop_map({
            let v = fresh.clone();
            move |(a, b)| format!("((lambda ({v}) ((lambda (f) (f {b})) (lambda (y) (list {v} y {v})))) {a})")
        }),
        // Continuations, so the SegStack counters actually move.
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/cc (lambda (k) (+ {a} (k {b}))))")
        }),
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/1cc (lambda (k) (+ {a} (k {b}))))")
        }),
    ]
    .boxed()
}

fn outcome(vm: &mut Vm, src: &str) -> Result<String, String> {
    match vm.eval_str(src) {
        Ok(v) => Ok(vm.write_value(&v)),
        Err(_) => Err("error".to_string()),
    }
}

/// Runs `src` on a fresh VM with the given fusion setting, returning the
/// outcome and the counter delta over the run.
fn measured(fuse: bool, src: &str) -> (Result<String, String>, VmStats) {
    let mut vm = Vm::builder().fuse(fuse).build();
    let before = vm.stats();
    let r = outcome(&mut vm, src);
    (r, vm.stats().delta_since(&before))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn fusion_is_semantically_invisible(src in expr(4, vec![])) {
        let (fused_r, fused_d) = measured(true, &src);
        let (unfused_r, unfused_d) = measured(false, &src);
        prop_assert_eq!(&fused_r, &unfused_r, "results diverged: {}", src);
        prop_assert_eq!(
            fused_d.stack, unfused_d.stack,
            "SegStack counters diverged: {}", src
        );
        prop_assert_eq!(
            fused_d.heap.closures_allocated, unfused_d.heap.closures_allocated,
            "closure counts diverged: {}", src
        );
        prop_assert!(
            fused_d.instructions <= unfused_d.instructions,
            "fusion added instructions on {}: {} > {}",
            src, fused_d.instructions, unfused_d.instructions
        );
    }
}

/// Deterministic anchors: the benchmark programs must agree bit-for-bit
/// on control events while strictly reducing dispatches.
#[test]
fn corpus_fuses_without_changing_control_events() {
    let corpus = [
        "(define (tak x y z)
           (if (not (< y x)) z
               (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
         (tak 14 7 0)",
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)",
        "(define (ctak x y z)
           (call/1cc (lambda (k) (ctak-aux k x y z))))
         (define (ctak-aux k x y z)
           (if (not (< y x))
               (k z)
               (ctak-aux k
                 (ctak (- x 1) y z)
                 (ctak (- y 1) z x)
                 (ctak (- z 1) x y))))
         (ctak 12 6 0)",
        "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1))))) (deep 30000)",
        // Control in heap closures: every continuation variable is a
        // capture passed as an argument.
        "(define (fib-cps n k)
           (if (< n 2)
               (k n)
               (fib-cps (- n 1) (lambda (a) (fib-cps (- n 2) (lambda (b) (k (+ a b))))))))
         (fib-cps 15 (lambda (v) v))",
    ];
    for src in corpus {
        let (fused_r, fused_d) = measured(true, src);
        let (unfused_r, unfused_d) = measured(false, src);
        assert!(fused_r.is_ok(), "corpus program failed: {src}");
        assert_eq!(fused_r, unfused_r, "{src}");
        assert_eq!(fused_d.stack, unfused_d.stack, "{src}");
        assert!(
            fused_d.instructions < unfused_d.instructions,
            "no dispatch reduction on {src}: {} vs {}",
            fused_d.instructions,
            unfused_d.instructions
        );
    }
}

/// What `src` executes on `vm`, by mnemonic: the histogram's growth over
/// the evaluation (the VM has already run the prelude's definitions).
fn executed(vm: &mut Vm, src: &str) -> Vec<(&'static str, u64)> {
    let before: HashMap<_, _> =
        vm.opcode_histogram().expect("histogram enabled").into_iter().collect();
    vm.eval_str(src).unwrap();
    let after = vm.opcode_histogram().expect("histogram enabled");
    let grown =
        after.into_iter().map(|(name, n)| (name, n - before.get(name).copied().unwrap_or(0)));
    grown.filter(|&(_, n)| n > 0).collect()
}

/// The opcode histogram (the repl's `,ops`) names every instruction in
/// the opcode table: one program, run fused and unfused, executes each
/// kind at least once on one of the two VMs, and each shows up under its
/// mnemonic. A new opcode fails here until the program reaches it.
#[test]
fn histogram_names_fused_opcodes() {
    let src = "
        (define g 1)
        (set! g (+ g 1))
        (define (id x) x)
        (define (swap a b) (list b a))
        (define (less-5 a) (- a 5))
        (define (arith a b)
          (list (+ a b) (- a b) (* a b) (+ a 5) (- a 5) (- a 1) (+ a 1)
                (+ (id a) 1) (- (id a) 1)))
        (define (cmp a b) (list (< a b) (<= a b) (> a b) (>= a b) (= a b) (eq? a b)))
        (define (branch a b l)
          (list (if (< a (id b)) 1 2) (if (<= a b) 1 2) (if (> a b) 1 2) (if (>= a b) 1 2)
                (if (= a b) 1 2) (if (eq? a b) 1 2) (if (< a 2) 1 2) (if (zero? a) 1 2)
                (if (null? l) 1 2) (if (not a) 1 2) (if a 1 2)))
        (define (lists l)
          (list (car l) (cdr l) (null? l) (pair? l) (not l) (zero? (car l)) (cons 1 l)))
        (define (vecs v) (vector-set! v 0 7) (vector-ref v 0))
        (define (boxed x) (set! x (+ x 1)) (lambda () (set! x (+ x 1)) x))
        (define (capture x) (lambda (y) (list x y (+ x y))))
        (define (tail f a) (f a))
        (define (non-tail f a) (+ 1 (f a)))
        (define (loop n) (if (zero? n) 'done (loop (- n 1))))
        (list g (swap 1 2) (less-5 9) (arith 7 3) (cmp 1 2) (branch 1 2 '()) (lists '(0 1))
              (vecs (make-vector 1 0)) ((boxed 1)) ((capture 1) 2) (tail id 1)
              (non-tail id 1) (loop 3))";
    let mut seen: HashMap<&str, u64> = HashMap::new();
    for fuse in [true, false] {
        let mut vm = Vm::builder().fuse(fuse).opcode_histogram(true).build();
        for (name, n) in executed(&mut vm, src) {
            assert!(MNEMONICS.contains(&name), "{name} is not in the opcode table");
            *seen.entry(name).or_default() += n;
        }
    }
    let missed: Vec<&str> = MNEMONICS.iter().copied().filter(|m| !seen.contains_key(m)).collect();
    assert!(missed.is_empty(), "never executed, fused or unfused: {missed:?}");
}
