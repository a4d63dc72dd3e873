;; Doubly recursive fib: the per-thread work of Figure 5, the pool job
;; body, and the plain-compute row. No first-class control.
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
