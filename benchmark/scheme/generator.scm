;; One prelude generator (native prompts: a yield is a subcontinuation
;; take, a next is a prompt push plus a splice) drained to a sum.
(define (gen-sum n)
  (let ((g (make-generator
             (lambda (yield)
               (let loop ((i 1))
                 (if (<= i n) (begin (yield i) (loop (+ i 1))) 0))))))
    (let drain ((acc 0))
      (let ((v (generator-next g)))
        (if (generator-done? v) acc (drain (+ acc v)))))))
