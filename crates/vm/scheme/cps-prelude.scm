;; Hand-written continuation-passing-style definitions of the control
;; operators, loaded (through the *direct* pipeline — these are already in
;; CPS form) before any CPS-converted code. In the CPS world a procedure of
;; n parameters is an (n+1)-parameter procedure whose first argument is the
;; continuation, itself a one-argument procedure.
;;
;; This is the heap-based representation of control the paper benchmarks
;; against: capturing a continuation is just passing `k` along (O(1)), and
;; there is no one-shot optimization to be had — `call/1cc` is `call/cc`.

(define (call/cc k f)
  (f k (lambda (k2 v) (k v))))

(define call-with-current-continuation call/cc)

;; One-shot capture buys nothing when control already lives in the heap.
(define (call/1cc k f)
  (f k (lambda (k2 v) (k v))))

(define (values k . vs)
  (if (and (pair? vs) (null? (cdr vs)))
      (k (car vs))
      (raise (lambda (v) v)
             (cons 'values-error
                   "values: only single values are supported in CPS mode"))))

(define (call-with-values k p c)
  (p (lambda (v) (c k v))))

;; No winder rewinding on continuation jumps in CPS mode — this baseline
;; models straight-line wind semantics only (documented limitation).
(define (dynamic-wind k before thunk after)
  (before
   (lambda (b)
     (thunk
      (lambda (v)
        (after (lambda (a) (k v))))))))

(define (apply k f . spec)
  (%apply-args k f spec))

;; --- delimited control (heap encoding) ---
;;
;; The CPS baseline for the delimited operators: a prompt is an entry
;; `(tag . cell)` on a dynamic list, where the one-slot cell holds the
;; continuation the delimited extent delivers its value to. Taking a
;; subcontinuation captures the inner continuation plus the cell; pushing
;; it retargets the cell at the pusher. Like the rest of this file it
;; models straight-line control only (no winder rewinding), and the
;; subcontinuation is one-shot — a second push raises the same
;; `shot-twice` condition the segmented stack raises.

(define %dc-prompts '())

(define (%dc-find tag ps)
  (cond ((null? ps) #f)
        ((eq? (car (car ps)) tag) (car ps))
        (else (%dc-find tag (cdr ps)))))

;; Entries above `entry` (pushed inside its extent), innermost first.
(define (%dc-above entry ps)
  (cond ((null? ps) '())
        ((eq? (car ps) entry) '())
        (else (cons (car ps) (%dc-above entry (cdr ps))))))

;; Drops `entry` and everything pushed above it; if the entry is no longer
;; on the list (its prompt was already consumed), the list is unchanged.
(define (%dc-unwind-to entry ps)
  (let loop ((rest ps))
    (cond ((null? rest) ps)
          ((eq? (car rest) entry) (cdr rest))
          (else (loop (cdr rest))))))

(define (%push-prompt k tag thunk)
  (let ((entry (cons tag (vector k))))
    (set! %dc-prompts (cons entry %dc-prompts))
    (thunk (lambda (v)
             (set! %dc-prompts (%dc-unwind-to entry %dc-prompts))
             ((vector-ref (cdr entry) 0) v)))))

(define (%take-subcont k tag f)
  (let ((entry (%dc-find tag %dc-prompts)))
    (if entry
        (let ((cell (cdr entry))
              (above (%dc-above entry %dc-prompts)))
          ;; Prompts pushed inside the captured extent travel with the
          ;; subcontinuation and are re-installed when it is pushed.
          (set! %dc-prompts (%dc-unwind-to entry %dc-prompts))
          ;; f runs outside the prompt: its continuation is the prompt's.
          (f (vector-ref cell 0) (vector k cell #f above)))
        (raise (lambda (v) v)
               (cons 'no-matching-prompt
                     "%take-subcont: no prompt with this tag is active")))))

(define (%push-subcont k sk . vs)
  (if (vector-ref sk 2)
      (raise (lambda (v) v)
             (cons 'shot-twice
                   "%push-subcont: subcontinuation already pushed"))
      (begin
        (vector-set! sk 2 #t)
        (vector-set! (vector-ref sk 1) 0 k)
        (set! %dc-prompts (append (vector-ref sk 3) %dc-prompts))
        ((vector-ref sk 0) (if (null? vs) (void) (car vs))))))

(define (%abort-to-prompt k tag . vs)
  (let ((entry (%dc-find tag %dc-prompts)))
    (if entry
        (begin
          (set! %dc-prompts (%dc-unwind-to entry %dc-prompts))
          ((vector-ref (cdr entry) 0) (if (null? vs) (void) (car vs))))
        (raise (lambda (v) v)
               (cons 'no-matching-prompt
                     "%abort-to-prompt: no prompt with this tag is active")))))

(define (%prompt-set? k tag)
  (k (if (%dc-find tag %dc-prompts) #t #f)))
