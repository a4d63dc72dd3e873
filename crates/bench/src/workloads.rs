//! Benchmark workload sources — the programs the paper's evaluation runs.

/// Boyer-style rewriting theorem prover (see `scheme/boyer.scm`).
pub const BOYER: &str = include_str!("../scheme/boyer.scm");

/// Plain doubly-recursive fib, the Figure 5 per-thread workload.
pub const FIB: &str = "
  (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

/// CPS fib with a fuel check per call — the Figure 5 workload for the CPS
/// thread system (`cps-call` is defined by the CPS scheduler).
pub const FIB_CPS: &str = "
  (define (fib-cps n k)
    (cps-call (lambda ()
      (if (< n 2)
          (k n)
          (fib-cps (- n 1) (lambda (a)
            (fib-cps (- n 2) (lambda (b)
              (k (+ a b))))))))))";

/// Takeuchi's function (Gabriel benchmark).
pub const TAK: &str = "
  (define (tak x y z)
    (if (not (< y x))
        z
        (tak (tak (- x 1) y z)
             (tak (- y 1) z x)
             (tak (- z 1) x y))))";

/// The paper's §4 tak variant: every call captures and immediately invokes
/// a continuation. `CAPTURE` is substituted with `call/cc` or `call/1cc`.
pub const CTAK_TEMPLATE: &str = "
  (define (ctak x y z)
    (CAPTURE (lambda (k) (ctak-aux k x y z))))
  (define (ctak-aux k x y z)
    (if (not (< y x))
        (k z)
        (ctak-aux k
          (ctak (- x 1) y z)
          (ctak (- y 1) z x)
          (ctak (- z 1) x y))))";

/// The continuation-intensive tak with the given capture operator.
pub fn ctak(capture: &str) -> String {
    CTAK_TEMPLATE.replace("CAPTURE", capture)
}

/// Deep recursion with trivial per-call work — the §4 overflow benchmark
/// ("a program that repeatedly recurs deeply while doing very little work
/// between calls").
pub const DEEP: &str = "
  (define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))
  (define (deep-rounds rounds n)
    (let loop ((i 0) (acc 0))
      (if (= i rounds) acc (loop (+ i 1) (+ acc (deep n))))))";

/// A recursion that hovers across a segment boundary — the §3.2 bouncing
/// scenario the hysteresis mechanism mitigates.
pub const BOUNCER: &str = "
  (define (hover depth rounds)
    (define (down n) (if (zero? n) 0 (+ 1 (down (- n 1)))))
    (let loop ((i 0) (acc 0))
      (if (= i rounds) acc (loop (+ i 1) (+ acc (down depth))))))";

#[cfg(test)]
mod tests {
    use super::*;
    use oneshot_vm::Vm;

    #[test]
    fn tak_computes() {
        let mut vm = Vm::new();
        vm.eval_str(TAK).unwrap();
        let v = vm.eval_str("(tak 18 12 6)").unwrap();
        assert_eq!(vm.write_value(&v), "7");
    }

    #[test]
    fn ctak_computes_under_both_operators() {
        for op in ["call/cc", "call/1cc"] {
            let mut vm = Vm::new();
            vm.eval_str(&ctak(op)).unwrap();
            let v = vm.eval_str("(ctak 18 12 6)").unwrap();
            assert_eq!(vm.write_value(&v), "7", "{op}");
        }
    }

    #[test]
    fn boyer_proves_its_theorem() {
        let mut vm = Vm::new();
        vm.eval_str(BOYER).unwrap();
        let v = vm.eval_str("(boyer-run 1)").unwrap();
        assert_eq!(vm.write_value(&v), "#t");
    }

    #[test]
    fn boyer_allocates_no_closures_after_load() {
        // The §5 claim: a direct-style compiler with a true stack allocates
        // no closures for boyer (all procedures are top-level).
        let mut vm = Vm::new();
        vm.eval_str(BOYER).unwrap();
        vm.eval_str("(boyer-setup)").unwrap();
        let before = vm.stats();
        vm.eval_str("(boyer-test)").unwrap();
        let d = vm.stats().delta_since(&before);
        assert_eq!(d.heap.closures_allocated, 0, "boyer allocates no closures");
        assert!(d.calls > 20_000, "boyer does real work: {} calls", d.calls);
    }

    #[test]
    fn deep_recursion_computes() {
        let mut vm = Vm::new();
        vm.eval_str(DEEP).unwrap();
        let v = vm.eval_str("(deep-rounds 3 10000)").unwrap();
        assert_eq!(vm.write_value(&v), "30000");
    }

    #[test]
    fn fib_matches_known_values() {
        let mut vm = Vm::new();
        vm.eval_str(FIB).unwrap();
        let v = vm.eval_str("(fib 20)").unwrap();
        assert_eq!(vm.write_value(&v), "6765");
    }
}
