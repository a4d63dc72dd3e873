;; Figure 5's workload for the CPS thread system: fib in explicit
;; continuation-passing style with a fuel check per call (`cps-call` comes
;; from the CPS scheduler), so control lives in heap closures.
(define (fib-cps n k)
  (cps-call (lambda ()
    (if (< n 2)
        (k n)
        (fib-cps (- n 1) (lambda (a)
          (fib-cps (- n 2) (lambda (b)
            (k (+ a b))))))))))
