;; Engines (Dybvig & Hieb, "Engines from continuations"), built on the
;; VM's prompt primitives and timer.
;;
;; An engine is a procedure (engine fuel complete expire):
;;   - fuel: positive number of procedure calls to run for;
;;   - complete: called as (complete value remaining-fuel) if the
;;     computation finishes within the budget;
;;   - expire: called as (expire new-engine) when fuel runs out; the new
;;     engine resumes the computation.
;;
;; A slice runs under a prompt; suspending it is one subcontinuation take
;; (the delimited context is detached, not copied) and resuming it is one
;; splice. Subcontinuations are one-shot, so suspending ten thousand
;; green threads on sockets costs no stack copying.

(define %engine-tag (make-prompt-tag 'engine))

;; One fuel slice of `job`: a start thunk, or the subcontinuation a
;; previous slice parked, which resumes with `status` as the value of its
;; suspended take. Returns the job's own (done . _) frame — planted once
;; by the start thunk, it travels inside each subcontinuation — or
;; (subcontinuation . wait) from %engine-suspend. The Rust engine host
;; calls this directly, once per step.
(define (%engine-slice job fuel status)
  (timer-interrupt-handler! %engine-interrupt)
  (%push-prompt %engine-tag
    (lambda ()
      (set-timer! fuel)
      (if (procedure? job) (job) (%push-subcont job status)))))

;; Ends the running slice, handing its caller the rest of the job.
;; `wait` is #f for a preemption, (kind . handle) for an I/O or timer wait.
(define (%engine-suspend wait)
  (%take-subcont %engine-tag (lambda (sk) (cons sk wait))))

;; Timer expiry. An expiry that lands outside every slice (a fault
;; injector's, or a nested engine's timer outliving it) preempts nothing.
(define (%engine-interrupt)
  (if (%prompt-set? %engine-tag) (%engine-suspend #f)))

;; Voluntary suspension on an I/O or timer wait: the host registers
;; (kind . handle) with its reactor and resumes the job on readiness.
;; Returns the resumption status: 0, or a symbol such as 'io-timeout.
;; The timer is still running here (unlike at expiry), so stop it first.
;; Outside any slice the take raises the catchable no-matching-prompt.
(define (%engine-block kind handle)
  (set-timer! 0)
  (%engine-suspend (cons kind handle)))

;; The start thunk of an engine-host job: runs `thunk`, then plants the
;; (done . value) frame its last slice returns.
(define (%engine-job thunk)
  (lambda ()
    (let ((v (thunk))) (set-timer! 0) (cons 'done v))))

(define (%engine job)
  (lambda (fuel complete expire)
    (if (<= fuel 0) (error "engine: fuel must be positive"))
    (let ((r (%engine-slice job fuel 0)))
      (if (eq? (car r) 'done)
          (complete (cadr r) (cddr r))
          (expire (%engine (car r)))))))

(define (make-engine thunk)
  (%engine (lambda ()
             (let ((v (thunk)))
               (cons 'done (cons v (set-timer! 0)))))))

;; Round-robin N engines to completion; returns the list of results in
;; completion order.
(define (engines-round-robin engines fuel)
  (let loop ((queue engines) (results '()))
    (if (null? queue)
        (reverse results)
        (let ((e (car queue)) (rest (cdr queue)))
          (e fuel
             (lambda (v left) (loop rest (cons v results)))
             (lambda (e2) (loop (append rest (list e2)) results)))))))
