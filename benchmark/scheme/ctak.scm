;; The paper's section 4 tak variant: every call captures a continuation
;; and immediately invokes it. CAPTURE is replaced with call/1cc or
;; call/cc by the benchmark, and NAME with a name private to that edition
;; so both live in one VM.
(define (NAME x y z)
  (CAPTURE (lambda (k) (NAME-aux k x y z))))
(define (NAME-aux k x y z)
  (if (not (< y x))
      (k z)
      (NAME-aux k
        (NAME (- x 1) y z)
        (NAME (- y 1) z x)
        (NAME (- z 1) x y))))
(define (NAME-rounds n x y z)
  (let loop ((i 0) (last 0))
    (if (= i n) last (loop (+ i 1) (NAME x y z)))))
