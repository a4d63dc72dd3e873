;; A Boyer-style rewriting theorem prover, after the Gabriel benchmark:
;; terms are rewritten to normal form against a lemma database, then a
;; tautology checker decides the result. The rule set here is a curated
;; subset of the classic benchmark's (enough for the theorem below to
;; prove); the program structure — property-list lemma lookup, recursive
;; rewriting, unification, heavy consing, *no escaping closures* — matches
;; the original, which is what the §5 frame-overhead measurement needs.

(define *props* '())

(define (put sym key val)
  (let ((entry (assq sym *props*)))
    (if entry
        (let ((slot (assq key (cdr entry))))
          (if slot
              (set-cdr! slot val)
              (set-cdr! entry (cons (cons key val) (cdr entry)))))
        (set! *props* (cons (list sym (cons key val)) *props*)))))

(define (get sym key)
  (let ((entry (assq sym *props*)))
    (if entry
        (let ((slot (assq key (cdr entry))))
          (if slot (cdr slot) #f))
        #f)))

(define (add-lemma term)
  ;; term = (equal lhs rhs): index by the head symbol of lhs.
  (let ((lhs (cadr term)))
    (put (car lhs) 'lemmas
         (cons term (or (get (car lhs) 'lemmas) '())))))

(define (add-lemmas lst) (for-each add-lemma lst))

;; --- substitution and unification ---

(define (apply-subst alist term)
  (if (pair? term)
      (cons (car term) (apply-subst-lst alist (cdr term)))
      (let ((hit (assq term alist)))
        (if hit (cdr hit) term))))

(define (apply-subst-lst alist lst)
  (if (null? lst)
      '()
      (cons (apply-subst alist (car lst))
            (apply-subst-lst alist (cdr lst)))))

(define (one-way-unify term1 term2)
  ;; unify term1 against pattern term2; returns alist or #f
  (one-way-unify1 term1 term2 '()))

(define (one-way-unify1 term1 term2 subst)
  (cond ((not (pair? term2))
         (let ((hit (assq term2 subst)))
           (cond (hit (if (equal? (cdr hit) term1) subst #f))
                 (else (cons (cons term2 term1) subst)))))
        ((not (pair? term1)) #f)
        ((eq? (car term1) (car term2))
         (one-way-unify1-lst (cdr term1) (cdr term2) subst))
        (else #f)))

(define (one-way-unify1-lst lst1 lst2 subst)
  (cond ((null? lst2) (if (null? lst1) subst #f))
        ((null? lst1) #f)
        (else
         (let ((s (one-way-unify1 (car lst1) (car lst2) subst)))
           (if s (one-way-unify1-lst (cdr lst1) (cdr lst2) s) #f)))))

;; --- the rewriter ---

(define (rewrite term)
  (if (pair? term)
      (rewrite-with-lemmas
       (cons (car term) (rewrite-args (cdr term)))
       (or (get (car term) 'lemmas) '()))
      term))

(define (rewrite-args lst)
  (if (null? lst)
      '()
      (cons (rewrite (car lst)) (rewrite-args (cdr lst)))))

(define (rewrite-with-lemmas term lemmas)
  (if (null? lemmas)
      term
      (let ((subst (one-way-unify term (cadr (car lemmas)))))
        (if subst
            (rewrite (apply-subst subst (caddr (car lemmas))))
            (rewrite-with-lemmas term (cdr lemmas))))))

;; --- the tautology checker ---

(define (truep x lst)
  (or (equal? x '(t)) (member x lst)))

(define (falsep x lst)
  (or (equal? x '(f)) (member x lst)))

(define (tautologyp x true-lst false-lst)
  (cond ((truep x true-lst) #t)
        ((falsep x false-lst) #f)
        ((not (pair? x)) #f)
        ((eq? (car x) 'if)
         (cond ((truep (cadr x) true-lst)
                (tautologyp (caddr x) true-lst false-lst))
               ((falsep (cadr x) false-lst)
                (tautologyp (cadddr x) true-lst false-lst))
               (else
                (and (tautologyp (caddr x) (cons (cadr x) true-lst) false-lst)
                     (tautologyp (cadddr x) true-lst (cons (cadr x) false-lst))))))
        (else #f)))

(define (tautp x) (tautologyp (rewrite x) '() '()))

;; --- the lemma database ---

(define (boyer-setup)
  (set! *props* '())
  (add-lemmas
   '((equal (if (if a b c) d e) (if a (if b d e) (if c d e)))
     (equal (and p q) (if p (if q (t) (f)) (f)))
     (equal (or p q) (if p (t) (if q (t) (f))))
     (equal (not p) (if p (f) (t)))
     (equal (implies p q) (if p (if q (t) (f)) (t)))
     (equal (iff p q) (and (implies p q) (implies q p)))
     (equal (plus (plus x y) z) (plus x (plus y z)))
     (equal (equal (plus a b) (zero)) (and (zerop a) (zerop b)))
     (equal (difference x x) (zero))
     (equal (equal (plus a b) (plus a c)) (equal b c))
     (equal (equal (zero) (difference x y)) (not (lessp y x)))
     (equal (equal x (difference x y)) (and (numberp x) (or (equal x (zero)) (zerop y))))
     (equal (append (append x y) z) (append x (append y z)))
     (equal (reverse (append a b)) (append (reverse b) (reverse a)))
     (equal (times x (plus y z)) (plus (times x y) (times x z)))
     (equal (times (times x y) z) (times x (times y z)))
     (equal (equal (times x y) (zero)) (or (zerop x) (zerop y)))
     (equal (length (append a b)) (plus (length a) (length b)))
     (equal (length (reverse x)) (length x))
     (equal (member a (append b c)) (or (member a b) (member a c)))
     (equal (plus (remainder x y) (times y (quotient x y))) (fix x))
     (equal (remainder y 1) (zero))
     (equal (lessp (remainder x y) y) (not (zerop y)))
     (equal (remainder x x) (zero))
     (equal (lessp (quotient i j) i) (and (not (zerop i)) (or (zerop j) (not (equal j 1)))))
     (equal (lessp (remainder x y) x) (and (not (zerop y)) (not (zerop x)) (not (lessp x y)))))))

;; The classic top-level theorem: a propositional chain that rewrites to
;; an if-tree the tautology checker can discharge.
(define (boyer-test)
  (tautp
   (apply-subst
    '((x . (f (plus (plus a b) (plus c (zero)))))
      (y . (f (times (times a b) (plus c d))))
      (z . (f (reverse (append (append a b) (nil)))))
      (u . (equal (plus a b) (difference x y)))
      (w . (lessp (remainder a b) (member a (length b)))))
    '(implies (and (implies x y)
                   (and (implies y z)
                        (and (implies z u) (implies u w))))
              (implies x w)))))

;; Run the benchmark n times; returns #t when every run proves the theorem.
(define (boyer-run n)
  (boyer-setup)
  (let loop ((i 0) (ok #t))
    (if (= i n)
        ok
        (loop (+ i 1) (and (boyer-test) ok)))))
