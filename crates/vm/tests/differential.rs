//! Differential testing: the same program must produce the same answer
//! under (a) the direct pipeline with default segments, (b) the direct
//! pipeline with tiny segments and aggressive copy bounds (exercising
//! overflow/underflow/splitting constantly), and (c) the CPS pipeline
//! (control in heap closures). Programs are generated randomly from a
//! terminating expression grammar that includes escaping continuations.

use oneshot_core::{Config, OverflowPolicy};
use oneshot_vm::{Pipeline, Vm, VmConfig, VmStats};
use proptest::prelude::*;

/// A generated expression with the variables in scope.
fn expr(depth: u32, vars: Vec<String>) -> BoxedStrategy<String> {
    let atom = {
        let vars = vars.clone();
        prop_oneof![
            (-50i64..50).prop_map(|n| n.to_string()),
            Just("#t".to_string()),
            Just("#f".to_string()),
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
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(< {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(cons {a} {b})")),
        1 => sub().prop_map(|a| format!("(car (cons {a} 0))")),
        1 => sub().prop_map(|a| format!("(not {a})")),
        2 => (sub(), sub(), sub()).prop_map(|(c, t, f)| format!("(if {c} {t} {f})")),
        2 => (sub(), sub_ext.clone()).prop_map({
            let v = fresh.clone();
            move |(init, body)| format!("(let (({v} {init})) {body})")
        }),
        1 => (sub(), sub_ext2).prop_map({
            let v = fresh.clone();
            move |(arg, body)| format!("((lambda ({v}) {body}) {arg})")
        }),
        // Escaping continuation: k escapes with a value from inside an
        // arithmetic context.
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/cc (lambda (k) (+ {a} (k {b}))))")
        }),
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/1cc (lambda (k) (+ {a} (k {b}))))")
        }),
        // Non-escaping capture.
        1 => sub().prop_map(|a| format!("(call/cc (lambda (k) {a}))")),
    ]
    .boxed()
}

fn outcome(vm: &mut Vm, src: &str) -> Result<String, String> {
    match vm.eval_str(src) {
        Ok(v) => Ok(vm.write_value(&v)),
        Err(_) => Err("error".to_string()),
    }
}

fn tiny_stack() -> Config {
    Config {
        segment_slots: 128,
        copy_bound: 32,
        hysteresis_slots: 16,
        min_headroom: 32,
        cache_limit: 4,
        ..Config::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn pipelines_and_stack_configs_agree(src in expr(4, vec![])) {
        let mut reference = Vm::new();
        let expected = outcome(&mut reference, &src);

        let mut tiny = Vm::with_config(VmConfig { stack: tiny_stack(), ..VmConfig::default() });
        prop_assert_eq!(outcome(&mut tiny, &src), expected.clone(), "tiny segments diverged: {}", src);

        let mut tiny_multi = Vm::with_config(VmConfig {
            stack: Config { overflow_policy: OverflowPolicy::MultiShot, ..tiny_stack() },
            ..VmConfig::default()
        });
        prop_assert_eq!(
            outcome(&mut tiny_multi, &src),
            expected.clone(),
            "multi-shot overflow diverged: {}",
            src
        );

        let mut cps = Vm::with_config(VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() });
        prop_assert_eq!(outcome(&mut cps, &src), expected, "CPS diverged: {}", src);
    }

    /// The dispatch loop is instantiated twice from one source, with and
    /// without the per-opcode histogram. The two must retire the same
    /// work, and the armed one must count every instruction it retires.
    #[test]
    fn histogram_and_plain_loops_retire_the_same_work(src in expr(4, vec![])) {
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut plain = Vm::builder().pipeline(pipeline).build();
            let mut armed = Vm::builder().pipeline(pipeline).opcode_histogram(true).build();
            prop_assert_eq!(outcome(&mut armed, &src), outcome(&mut plain, &src), "{}", src);
            let (p, a) = (plain.stats(), armed.stats());
            prop_assert_eq!(work_counters(&a), work_counters(&p), "{:?} {}", pipeline, src);
            let counted: u64 = armed.opcode_histogram().unwrap().iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(counted, a.instructions, "{:?} {}", pipeline, src);
            prop_assert!(plain.opcode_histogram().is_none());
        }
    }
}

/// Everything in `VmStats` that counts guest work since construction,
/// boot included: the VM's and the heap's allocation counters, and the
/// whole of the stack's.
fn work_counters(s: &VmStats) -> impl PartialEq + std::fmt::Debug {
    let vm = [s.instructions, s.calls, s.conditions_raised, s.faults_injected];
    (vm, s.heap.objects_allocated, s.heap.words_allocated, s.stack)
}

/// A fixed corpus of benchmark-like programs checked across all
/// configurations, as a deterministic anchor.
#[test]
fn corpus_agrees_across_configurations() {
    let corpus = [
        "(define (tak x y z)
           (if (not (< y x)) z
               (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
         (tak 12 6 0)",
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 13)",
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
         (define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
         (len (build 500))",
        "(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
         (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
         (even2? 5001)",
        "(let loop ((i 0) (acc '()))
           (if (= i 40) (length acc)
               (loop (+ i 1) (cons (call/cc (lambda (k) (k i))) acc))))",
        "(define (find-first pred lst)
           (call/cc (lambda (return)
             (for-each (lambda (x) (if (pred x) (return x))) lst)
             #f)))
         (find-first even? '(1 3 5 6 7))",
    ];
    for src in corpus {
        let mut reference = Vm::new();
        let expected = outcome(&mut reference, src);
        assert!(expected.is_ok(), "corpus program failed: {src}");

        let mut tiny = Vm::with_config(VmConfig { stack: tiny_stack(), ..VmConfig::default() });
        assert_eq!(outcome(&mut tiny, src), expected, "tiny: {src}");

        let mut cps = Vm::with_config(VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() });
        assert_eq!(outcome(&mut cps, src), expected, "cps: {src}");
    }
}

/// GC stress: a low collection threshold with live continuations and all
/// configurations still agrees.
#[test]
fn gc_stress_agrees() {
    let src = "
        (define (build n) (if (zero? n) '() (cons (list n n) (build (- n 1)))))
        (define ks '())
        (define (deep n)
          (if (zero? n)
              (call/cc (lambda (k) (set! ks (cons k ks)) 0))
              (+ 1 (deep (- n 1)))))
        (define a (deep 40))
        (define b (length (build 1500)))
        (if (= a 40) ((car ks) 2))
        (list a b)";
    let mut reference = Vm::new();
    let expected = outcome(&mut reference, src);
    assert_eq!(expected, Ok("(42 1500)".to_string()));

    let mut stressed = Vm::with_config(VmConfig { stack: tiny_stack(), ..VmConfig::default() });
    stressed.heap_mut().set_gc_threshold(128);
    assert_eq!(outcome(&mut stressed, src), expected);
    assert!(stressed.stats().heap.collections > 3);
}
