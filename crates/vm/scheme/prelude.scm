;; The oneshot Scheme prelude: library procedures defined in Scheme on top
;; of the Rust builtins. Compiled through the same pipeline as user code
;; (so in CPS mode this file is CPS-converted too).

(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caaar p) (car (caar p)))
(define (caadr p) (car (cadr p)))
(define (cadar p) (car (cdar p)))
(define (caddr p) (car (cddr p)))
(define (cdaar p) (cdr (caar p)))
(define (cdadr p) (cdr (cadr p)))
(define (cddar p) (cdr (cdar p)))
(define (cdddr p) (cdr (cddr p)))
(define (cadddr p) (car (cdddr p)))
(define (cddddr p) (cdr (cdddr p)))

(define (member x lst)
  (cond ((null? lst) #f)
        ((equal? x (car lst)) lst)
        (else (member x (cdr lst)))))

(define (assoc x lst)
  (cond ((null? lst) #f)
        ((equal? x (caar lst)) (car lst))
        (else (assoc x (cdr lst)))))

(define (map f lst . more)
  (if (null? more)
      (let map1 ((lst lst))
        (if (null? lst)
            '()
            (cons (f (car lst)) (map1 (cdr lst)))))
      (let mapn ((lists (cons lst more)))
        (if (memq '() lists)
            '()
            (cons (apply f (map car lists))
                  (mapn (map cdr lists)))))))

(define (for-each f lst . more)
  (if (null? more)
      (let fe1 ((lst lst))
        (if (null? lst)
            (void)
            (begin (f (car lst)) (fe1 (cdr lst)))))
      (let fen ((lists (cons lst more)))
        (if (memq '() lists)
            (void)
            (begin (apply f (map car lists)) (fen (map cdr lists)))))))

(define (list-copy lst) (append lst '()))

(define (last-pair lst)
  (if (pair? (cdr lst)) (last-pair (cdr lst)) lst))

(define (boolean=? a b) (eq? a b))

(define (filter keep? lst)
  (cond ((null? lst) '())
        ((keep? (car lst)) (cons (car lst) (filter keep? (cdr lst))))
        (else (filter keep? (cdr lst)))))

(define (fold-left f init lst)
  (if (null? lst)
      init
      (fold-left f (f init (car lst)) (cdr lst))))

(define (fold-right f init lst)
  (if (null? lst)
      init
      (f (car lst) (fold-right f init (cdr lst)))))

(define (reduce f init lst)
  (if (null? lst) init (fold-left f (car lst) (cdr lst))))

(define (iota n)
  (let loop ((i (- n 1)) (acc '()))
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))

(define (assq-ref alist key)
  (let ((hit (assq key alist)))
    (if hit (cdr hit) #f)))

;; ----------------------------------------------------------------------
;; Condition system.
;;
;; A condition is a pair of a kind symbol and a message string; the VM
;; raises its own recoverable faults (type errors, heap budget,
;; stack-segment ceiling, injected faults) through `raise` in exactly this
;; shape, so one handler mechanism covers Scheme-side and Rust-side faults.
;; The handler stack itself lives in the VM (see the %-builtins) so that
;; the garbage collector can trace it.
;; ----------------------------------------------------------------------

(define (make-condition kind message) (cons kind message))
(define (condition? c)
  (and (pair? c) (symbol? (car c)) (string? (cdr c))))
(define (condition-kind c) (car c))
(define (condition-message c) (cdr c))

;; Installs `handler` for the dynamic extent of `thunk`. The dynamic-wind
;; brackets keep the handler stack balanced when control enters or leaves
;; the extent through continuations.
(define (with-exception-handler handler thunk)
  (dynamic-wind
    (lambda () (%push-handler! handler))
    thunk
    (lambda () (%pop-handler!))))

;; Raises a non-continuable condition: the innermost handler runs with the
;; next-outer handler installed (so a raise from inside a handler is not
;; caught by the same handler); if it returns, that is itself an error.
(define (raise c)
  (%note-raise!)
  (if (%have-handler?)
      (let ((h (%top-handler)))
        (dynamic-wind
          (lambda () (%pop-handler!))
          (lambda ()
            (h c)
            (raise (make-condition
                    'non-continuable
                    "exception handler returned from non-continuable raise")))
          (lambda () (%push-handler! h))))
      (%uncaught c)))

;; Like `raise`, but the handler's value becomes the value of the
;; `raise-continuable` call (used by the VM for injected faults that are
;; safe to resume past).
(define (raise-continuable c)
  (%note-raise!)
  (if (%have-handler?)
      (let ((h (%top-handler)))
        (dynamic-wind
          (lambda () (%pop-handler!))
          (lambda () (h c))
          (lambda () (%push-handler! h))))
      (%uncaught c)))

;; ----------------------------------------------------------------------
;; Delimited control, derived from the VM's prompt primitives.
;;
;; A prompt is a tagged stack-record boundary (`%push-prompt`);
;; `%take-subcont` has `control0` semantics — it consumes the prompt and
;; hands the handler the detached context as a one-shot subcontinuation —
;; and `%push-subcont` splices that context back in. Everything below is
;; plain Scheme on top of those three (plus `%abort-to-prompt`, the
;; escape-only fast path that never materializes the context).
;;
;; Subcontinuations are one-shot, like `call/1cc` continuations: pushing
;; one twice raises the standard `shot-twice` condition, catchable with
;; `call-with-guard` like any other condition.
;; ----------------------------------------------------------------------

;; A fresh, identity-unique prompt tag. The optional name is only for
;; human eyes.
(define (make-prompt-tag . name)
  (list (if (pair? name) (car name) 'prompt)))

(define (call-with-prompt tag thunk) (%push-prompt tag thunk))

;; `shift`/`reset` (as procedures: `(reset (lambda () ... (shift f) ...))`).
;; `shift` keeps the prompt: it re-pushes the tag around the handler body
;; and the captured continuation re-pushes it around the splice, so the
;; classic equations hold on top of the consuming primitive.
(define %shift-tag (make-prompt-tag 'reset))

(define (reset thunk) (%push-prompt %shift-tag thunk))

(define (shift f)
  (%take-subcont %shift-tag
    (lambda (sk)
      (%push-prompt %shift-tag
        (lambda ()
          (f (lambda vs
               (%push-prompt %shift-tag
                 (lambda () (apply %push-subcont sk vs))))))))))

;; Generators. `(make-generator (lambda (yield) ...))` returns a thunk-like
;; generator; each `(generator-next g)` runs the producer to its next
;; `(yield v)` and returns `v`, or the unique `generator-done` object once
;; the producer has returned. Suspending is a subcontinuation take (the
;; delimited context is stolen, not copied); resuming is a splice.
(define generator-done (list 'generator-done))
(define (generator-done? v) (eq? v generator-done))

;; Yielded values travel raw through the prompt (no per-yield tagging
;; allocation); exhaustion is the unique `generator-done` sentinel, which
;; the trailing `start` code delivers after the producer returns. (Yielding
;; the sentinel itself therefore ends the protocol early — don't.)
;;
;; All the helper closures (`suspend`, `start`, `step`) are created once
;; per generator, so the steady-state cost of a yield/next cycle is one
;; subcontinuation take, one push, one prompt push, and two cell writes —
;; no allocation at all.
(define (make-generator producer)
  (let ((tag (make-prompt-tag 'generator))
        (resume #f)
        (pending #f)
        (finished #f))
    (define (suspend sk) (set! resume sk) pending)
    (define (yield v)
      (set! pending v)
      (%take-subcont tag suspend))
    ;; `start`'s trailer is captured into the first suspension's
    ;; subcontinuation, so it runs exactly once — after the producer
    ;; returns, whichever resume cycle that happens in. Clearing `resume`
    ;; there (not in `step`) keeps the steady-state cycle write-free on
    ;; the consumer side; a producer torn by an escaping condition leaves
    ;; its shot subcontinuation behind, so a later resume raises the
    ;; standard `shot-twice` condition instead of silently restarting.
    (define (start)
      (producer yield)
      (set! resume #f)
      (set! finished #t)
      generator-done)
    (define (step) (%push-subcont resume #f))
    (lambda ()
      ;; Steady-state first: `resume` is set on every cycle but the first
      ;; and last, and is always #f once `finished` is.
      (cond (resume (%push-prompt tag step))
            (finished generator-done)
            (else (%push-prompt tag start))))))

(define (generator-next g) (g))

;; Coroutines: symmetric value passing. `(make-coroutine f)` returns a
;; resumer procedure; `(coroutine-resume co v)` runs `(f v)` until it calls
;; `(coroutine-yield x)`, which suspends the coroutine and makes `x` the
;; value of the resume; the next resume's argument becomes the value of
;; that yield. When `f` returns, the coroutine is dead and the final value
;; is delivered; resuming a dead coroutine is an error.
(define %coroutine-tag (make-prompt-tag 'coroutine))

(define (coroutine-yield v)
  (%take-subcont %coroutine-tag
    (lambda (sk) (cons sk v))))

(define (make-coroutine f)
  ;; state: ('start . f) | ('suspended . sk) | 'dead. The (cons 'result _)
  ;; frame planted on the first entry travels inside each captured
  ;; subcontinuation, so a normal return is always tagged exactly once.
  (let ((state (cons 'start f)))
    (lambda (v)
      (if (eq? state 'dead)
          (error "coroutine-resume: coroutine is dead")
          (let ((r (%push-prompt %coroutine-tag
                     (lambda ()
                       (let ((st state))
                         (if (eq? (car st) 'start)
                             (cons 'result ((cdr st) v))
                             (%push-subcont (cdr st) v)))))))
            (if (eq? (car r) 'result)
                (begin (set! state 'dead) (cdr r))
                (begin (set! state (cons 'suspended (car r))) (cdr r))))))))

(define (coroutine-resume co v) (co v))

;; Effect handlers. `(with-handler h thunk)` runs `thunk`; inside it,
;; `(perform op arg...)` suspends to the nearest handler, which runs
;; *outside* the handled extent as `(h op args resume)`; `(resume v)`
;; continues the suspended computation — with the same handler
;; re-installed (deep handlers) — and `v` as the value of the `perform`.
;; An unhandled `perform` re-raises through the condition system as an
;; `unhandled-effect` condition, so `call-with-guard` catches it like any
;; other fault.
(define %effect-tag (make-prompt-tag 'effect))
(define %effect-value (list 'effect-value))

;; The completion-tagging frame `(cons %effect-value _)` is planted once,
;; on first entry; it travels inside each captured subcontinuation, so
;; resumes must not re-wrap — they re-install the prompt around the bare
;; splice.
(define (%handle-loop h body)
  (let ((r (%push-prompt %effect-tag body)))
    (if (and (pair? r) (eq? (car r) %effect-value))
        (cdr r)
        (let ((op (vector-ref r 0))
              (args (vector-ref r 1))
              (sk (vector-ref r 2)))
          (h op args
             (lambda (v)
               (%handle-loop h (lambda () (%push-subcont sk v)))))))))

(define (with-handler h thunk)
  (%handle-loop h (lambda () (cons %effect-value (thunk)))))

(define (perform op . args)
  (if (%prompt-set? %effect-tag)
      (%take-subcont %effect-tag
        (lambda (sk) (vector op args sk)))
      (raise (make-condition
              'unhandled-effect
              (string-append "perform: no handler for effect "
                             (if (symbol? op) (symbol->string op) "?"))))))

;; `guard`-style recovery without macros: runs `thunk`; if it raises,
;; escapes the raising context (running any intervening dynamic-wind
;; afters) and applies `handler` to the condition *outside* the handler's
;; own extent, so conditions raised while handling go to the enclosing
;; guard. The escape is an abort to a private prompt — the discarded
;; context is never materialized as a continuation value, which is exactly
;; the one-shot-escape pattern the prompt fast path exists for.
(define (call-with-guard handler thunk)
  (let ((tag (make-prompt-tag 'guard)))
    ((%push-prompt tag
       (lambda ()
         (with-exception-handler
          (lambda (c) (%abort-to-prompt tag (lambda () (handler c))))
          (lambda () (let ((v (thunk))) (lambda () v)))))))))
