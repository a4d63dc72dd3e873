;; Executor driver: a registry of jobs in a growable vector indexed by a
;; host-chosen slot, stepped one fuel slice at a time from Rust (the
;; oneshot-exec worker loop) through %engine-slice (engines.scm must be
;; loaded first).
;;
;; A slot holds a job's start thunk until its first slice and the parked
;; one-shot subcontinuation between later ones. The table is a toplevel
;; global, so the contexts of preempted or I/O-blocked jobs are GC roots
;; between slices. The host allocates slots densely from a free list, so
;; register, lookup, and remove are all O(1): a worker can keep tens of
;; thousands of jobs resident, and an association list scanned per
;; step would make every slice O(residents).

(define %exec-table (make-vector 64 #f))

(define (%exec-grow! slot)
  (if (>= slot (vector-length %exec-table))
      (let ((new (make-vector (* 2 (vector-length %exec-table)) #f)))
        (let loop ((i 0))
          (if (< i (vector-length %exec-table))
              (begin (vector-set! new i (vector-ref %exec-table i))
                     (loop (+ i 1)))))
        (set! %exec-table new)
        (%exec-grow! slot))))

;; Register `thunk` as a new job under `slot` (chosen by the host). The
;; (done . value) frame planted here is what exec-step! finally returns.
(define (exec-spawn! slot thunk)
  (%exec-grow! slot)
  (vector-set! %exec-table slot
               (lambda ()
                 (let ((v (thunk)))
                   (set-timer! 0)
                   (cons 'done v))))
  slot)

;; Forget a job without running it (budget exhausted, worker reset).
(define (exec-drop! slot)
  (if (< slot (vector-length %exec-table))
      (vector-set! %exec-table slot #f))
  #t)

;; Run the job in `slot` for one fuel slice. Returns (done . value) if it
;; finished, the symbol `parked` if it was preempted, or (blocked kind .
;; handle) if it suspended on an I/O or timer wait via %engine-block; the
;; host must not step a blocked job again until its wait is satisfied
;; (the reactor's readiness wakeup). `status` is what a resumed
;; %engine-block returns: 0 for readiness, or a symbol such as
;; 'io-timeout that io.scm's wrappers turn into the matching condition.
(define (exec-step! slot fuel status)
  (let ((job (vector-ref %exec-table slot)))
    (if (not job)
        (error "exec-step!: unknown engine " slot))
    (let ((r (%engine-slice job fuel status)))
      (cond ((eq? (car r) 'done)
             (vector-set! %exec-table slot #f)
             r)
            (else
             (vector-set! %exec-table slot (car r))
             (if (cdr r) (cons 'blocked (cdr r)) 'parked))))))
