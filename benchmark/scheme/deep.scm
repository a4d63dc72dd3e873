;; Section 4's overflow program: recur deeply with almost no work per
;; call, so the cost is segment overflow on the way down and underflow on
;; the way back.
(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))
(define (deep-rounds rounds n)
  (let loop ((i 0) (last 0))
    (if (= i rounds) last (loop (+ i 1) (deep n)))))
