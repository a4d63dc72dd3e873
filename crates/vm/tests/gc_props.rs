//! GC is semantically invisible: a VM collecting every 16 allocations
//! must produce the same results *and the same printed output* as a VM
//! that never collects, across randomized programs exercising pairs,
//! vectors, strings, closures, and one-shot continuation reinstates.

use oneshot_vm::Vm;
use proptest::prelude::*;

/// Helper procedures every generated program can call — recursive list
/// builders that churn the heap so a 16-object threshold collects many
/// times mid-expression.
const PRELUDE: &str = "
  (define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
  (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
  (define (rev l acc) (if (null? l) acc (rev (cdr l) (cons (car l) acc))))";

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
    let sub_ext = expr(depth - 1, extended);

    prop_oneof![
        2 => atom,
        2 => (sub(), sub()).prop_map(|(a, b)| format!("(+ {a} {b})")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(cons {a} {b})")),
        1 => sub().prop_map(|a| format!("(car (cons {a} (build 5)))")),
        1 => sub().prop_map(|a| format!("(sum (rev (build 20) (cons {a} '())))")),
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(vector-ref (vector {a} {b}) 1)")),
        1 => sub().prop_map(|a| format!("(vector-length (make-vector 7 {a}))")),
        1 => sub().prop_map(|a| format!("(string-length (if (pair? {a}) \"yes\" \"nope\"))")),
        2 => (sub(), sub(), sub()).prop_map(|(c, t, f)| format!("(if {c} {t} {f})")),
        2 => (sub(), sub_ext).prop_map({
            let v = fresh.clone();
            move |(init, body)| format!("(let (({v} {init})) {body})")
        }),
        // Printed output must match too, not just the final value.
        1 => (sub(), sub()).prop_map(|(a, b)| format!("(begin (display {a}) {b})")),
        // Escaping captures, both operators.
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/cc (lambda (k) (+ {a} (k {b}))))")
        }),
        1 => (sub(), sub()).prop_map(|(a, b)| {
            format!("(call/1cc (lambda (k) (+ {a} (k {b}))))")
        }),
        // A one-shot captured, escaped with itself, then reinstated once
        // from outside the capture context. The reinstate argument is
        // forced to a fixnum so the second pass through the `let` body
        // takes the non-procedure branch.
        1 => (sub(), sub()).prop_map(|(a, b)| format!(
            "(+ (if (pair? {b}) 1 0)
                (let ((kv (call/1cc (lambda (k) k))))
                  (if (procedure? kv) (kv (if (pair? {a}) 10 20)) kv)))"
        )),
    ]
    .boxed()
}

/// Result value *and* captured display output, or a collapsed error.
fn outcome(vm: &mut Vm, src: &str) -> Result<(String, String), String> {
    match vm.eval_str(src) {
        Ok(v) => Ok((vm.write_value(&v), vm.take_output())),
        Err(_) => Err("error".to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn gc_threshold_is_semantically_invisible(body in expr(4, vec![])) {
        let src = format!("{PRELUDE}\n{body}");

        let mut lazy = Vm::builder().gc_threshold(usize::MAX >> 1).build();
        let expected = outcome(&mut lazy, &src);

        let mut eager = Vm::builder().gc_threshold(16).build();
        prop_assert_eq!(outcome(&mut eager, &src), expected, "gc diverged on: {}", src);
        // Collecting frees objects; it must not change how much the
        // program allocates.
        prop_assert_eq!(
            eager.stats().heap.words_allocated,
            lazy.stats().heap.words_allocated,
            "allocation volume depends on the threshold: {}", src
        );
    }
}

/// Deterministic anchor: a continuation- and allocation-heavy program run
/// under an eager threshold collects many times yet agrees with the
/// never-collecting VM, and its heap returns to the pre-run live count
/// after a final full collection (no leaks through the kont registry).
#[test]
fn eager_gc_agrees_and_reclaims_everything() {
    // The thread-system shape: a worker suspends itself by stashing a
    // one-shot and escaping to the scheduler; the scheduler churns the
    // heap, then reinstates the one-shot while the worker frame is still
    // pending. (The scheduler's escape is call/cc because the worker's
    // eventual return passes through that capture point a second time.)
    let src = "
      (define saved #f)
      (define out #f)
      (define (chew n acc)
        (if (zero? n) acc (chew (- n 1) (cons (vector n (list n n)) acc))))
      (define (worker)
        (+ 100 (call/1cc (lambda (k) (set! saved k) (out 0)))))
      (define first (call/cc (lambda (o) (set! out o) (worker))))
      (define fuel (length (chew 400 '())))
      (define second (if (= first 0) (saved 7) first))
      (display (list second fuel))
      second";

    let mut lazy = Vm::builder().gc_threshold(usize::MAX >> 1).build();
    let expected = outcome(&mut lazy, src);
    assert_eq!(expected, Ok(("107".to_string(), "(107 400)".to_string())));

    let mut eager = Vm::builder().gc_threshold(16).build();
    assert_eq!(outcome(&mut eager, src), expected);
    assert!(eager.stats().heap.collections > 10, "threshold 16 must collect constantly");
    assert!(eager.stats().heap.objects_freed > 0, "and reclaim something");
    assert_eq!(
        eager.stats().heap.words_allocated,
        lazy.stats().heap.words_allocated,
        "allocation volume must not depend on the threshold"
    );

    // Leak check: after a full collect, an allocation-heavy re-run
    // followed by another full collect must return the live count to the
    // baseline exactly.
    eager.collect_now();
    let baseline = eager.heap().len();
    eager.eval_str("(length (chew 100 '()))").unwrap();
    eager.take_output();
    eager.collect_now();
    assert_eq!(eager.heap().len(), baseline, "heap did not return to baseline");
}
