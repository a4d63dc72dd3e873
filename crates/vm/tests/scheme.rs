//! Behavioural test suite for the Scheme system: every special form,
//! every builtin, and the prelude, checked against expected printed
//! results.

use oneshot_vm::Vm;

/// Evaluates `src` and compares the written form of the result.
fn check(src: &str, expected: &str) {
    let mut vm = Vm::new();
    match vm.eval_str(src) {
        Ok(v) => assert_eq!(vm.write_value(&v), expected, "program: {src}"),
        Err(e) => panic!("program {src} failed: {e}"),
    }
}

/// Evaluates `src` expecting a runtime error containing `needle`.
fn check_err(src: &str, needle: &str) {
    let mut vm = Vm::new();
    match vm.eval_str(src) {
        Ok(v) => panic!("program {src} should fail, returned {}", vm.write_value(&v)),
        Err(e) => assert!(
            e.to_string().contains(needle),
            "program {src}: error {e} does not mention {needle:?}"
        ),
    }
}

macro_rules! cases {
    ($name:ident: $($src:literal => $expected:literal),+ $(,)?) => {
        #[test]
        fn $name() {
            $(check($src, $expected);)+
        }
    };
}

cases! { self_evaluating:
    "42" => "42",
    "-7" => "-7",
    "#t" => "#t",
    "#f" => "#f",
    "#\\a" => "#\\a",
    "\"hi\\n\"" => "\"hi\\n\"",
    "3.5" => "3.5",
    "'sym" => "sym",
    "'(1 2 . 3)" => "(1 2 . 3)",
    "#(1 2)" => "#(1 2)",
}

cases! { arithmetic:
    "(+ 1 2 3 4)" => "10",
    "(+)" => "0",
    "(*)" => "1",
    "(* 2 3 4)" => "24",
    "(- 10 1 2)" => "7",
    "(- 5)" => "-5",
    "(/ 12 4)" => "3",
    "(/ 1 2)" => "0.5",
    "(/ 2)" => "0.5",
    "(quotient 7 2)" => "3",
    "(quotient -7 2)" => "-3",
    "(remainder 7 2)" => "1",
    "(remainder -7 2)" => "-1",
    "(modulo 7 2)" => "1",
    "(modulo -7 2)" => "1",
    "(modulo 7 -2)" => "-1",
    "(abs -3)" => "3",
    "(min 3 1 2)" => "1",
    "(max 3 1 2)" => "3",
    "(min 1 0.5)" => "0.5",
    "(gcd 12 18)" => "6",
    "(lcm 4 6)" => "12",
    "(expt 2 10)" => "1024",
    "(expt 2.0 0.5)" => "1.4142135623730951",
    "(sqrt 16)" => "4",
    "(sqrt 2)" => "1.4142135623730951",
    "(floor 2.7)" => "2.0",
    "(ceiling 2.1)" => "3.0",
    "(truncate -2.7)" => "-2.0",
    "(round 2.5)" => "2.0",
    "(round 3.5)" => "4.0",
    "(exact->inexact 2)" => "2.0",
    "(inexact->exact 2.0)" => "2",
    "(+ 1 2.5)" => "3.5",
    "(number->string 255 16)" => "\"ff\"",
    "(string->number \"42\")" => "42",
    "(string->number \"2.5\")" => "2.5",
    "(string->number \"nope\")" => "#f",
    "(string->number \"ff\" 16)" => "255",
}

cases! { numeric_predicates:
    "(= 1 1 1)" => "#t",
    "(= 1 2)" => "#f",
    "(< 1 2 3)" => "#t",
    "(< 1 3 2)" => "#f",
    "(<= 1 1 2)" => "#t",
    "(> 3 2 1)" => "#t",
    "(>= 3 3 1)" => "#t",
    "(= 1 1.0)" => "#t",
    "(zero? 0)" => "#t",
    "(zero? 0.0)" => "#t",
    "(positive? 3)" => "#t",
    "(negative? -3)" => "#t",
    "(odd? 3)" => "#t",
    "(even? 4)" => "#t",
    "(number? 1)" => "#t",
    "(number? 'a)" => "#f",
    "(integer? 2.0)" => "#t",
    "(integer? 2.5)" => "#f",
    "(exact? 1)" => "#t",
    "(inexact? 1.5)" => "#t",
}

cases! { booleans_and_equivalence:
    "(not #f)" => "#t",
    "(not 0)" => "#f",
    "(eq? 'a 'a)" => "#t",
    "(eqv? 1.5 1.5)" => "#t",
    "(eq? '() '())" => "#t",
    // Identical literals share a pooled constant, so eq? sees one object;
    // a fresh copy does not.
    "(eq? \"a\" \"a\")" => "#t",
    "(eq? \"a\" (string-copy \"a\"))" => "#f",
    "(equal? \"a\" \"a\")" => "#t",
    "(equal? '(1 (2 3)) '(1 (2 3)))" => "#t",
    "(equal? #(1 2) #(1 2))" => "#t",
    "(equal? '(1 2) '(1 3))" => "#f",
    "(boolean? #t)" => "#t",
    "(boolean? 0)" => "#f",
    "(boolean=? #t #t)" => "#t",
}

cases! { pairs_and_lists:
    "(cons 1 2)" => "(1 . 2)",
    "(car '(1 2))" => "1",
    "(cdr '(1 2))" => "(2)",
    "(cadr '(1 2 3))" => "2",
    "(caddr '(1 2 3))" => "3",
    "(cadddr '(1 2 3 4))" => "4",
    "(list 1 2 3)" => "(1 2 3)",
    "(list)" => "()",
    "(length '(a b c))" => "3",
    "(length '())" => "0",
    "(append '(1) '(2 3) '(4))" => "(1 2 3 4)",
    "(append)" => "()",
    "(append '() '(1))" => "(1)",
    "(append '(1) 2)" => "(1 . 2)",
    "(reverse '(1 2 3))" => "(3 2 1)",
    "(list-tail '(a b c d) 2)" => "(c d)",
    "(list-ref '(a b c) 1)" => "b",
    "(memq 'c '(a b c d))" => "(c d)",
    "(memq 'z '(a b))" => "#f",
    "(memv 2 '(1 2 3))" => "(2 3)",
    "(member '(1) '((0) (1) (2)))" => "((1) (2))",
    "(assq 'b '((a 1) (b 2)))" => "(b 2)",
    "(assv 2 '((1 a) (2 b)))" => "(2 b)",
    "(assoc '(x) '(((x) 1)))" => "((x) 1)",
    "(assq 'z '((a 1)))" => "#f",
    "(list? '(1 2))" => "#t",
    "(list? '(1 . 2))" => "#f",
    "(list? 5)" => "#f",
    "(pair? '(1))" => "#t",
    "(pair? '())" => "#f",
    "(null? '())" => "#t",
    "(let ((p (cons 1 2))) (set-car! p 9) p)" => "(9 . 2)",
    "(let ((p (cons 1 2))) (set-cdr! p 9) p)" => "(1 . 9)",
    "(last-pair '(1 2 3))" => "(3)",
    "(list-copy '(1 2))" => "(1 2)",
}

cases! { cyclic_list_detection:
    "(let ((l (list 1 2))) (set-cdr! (cdr l) l) (list? l))" => "#f",
}

cases! { symbols:
    "(symbol? 'abc)" => "#t",
    "(symbol? \"abc\")" => "#f",
    "(symbol->string 'abc)" => "\"abc\"",
    "(string->symbol \"hi\")" => "hi",
    "(eq? (string->symbol \"x\") 'x)" => "#t",
    "(eq? (gensym) (gensym))" => "#f",
}

cases! { characters:
    "(char? #\\x)" => "#t",
    "(char->integer #\\A)" => "65",
    "(integer->char 97)" => "#\\a",
    "(char=? #\\a #\\a)" => "#t",
    "(char<? #\\a #\\b)" => "#t",
    "(char-upcase #\\a)" => "#\\A",
    "(char-downcase #\\A)" => "#\\a",
    "(char-alphabetic? #\\a)" => "#t",
    "(char-numeric? #\\5)" => "#t",
    "(char-whitespace? #\\space)" => "#t",
    "(char-upper-case? #\\A)" => "#t",
    "(char-lower-case? #\\a)" => "#t",
}

cases! { strings:
    "(string? \"x\")" => "#t",
    "(make-string 3 #\\z)" => "\"zzz\"",
    "(string #\\a #\\b)" => "\"ab\"",
    "(string-length \"hello\")" => "5",
    "(string-ref \"abc\" 1)" => "#\\b",
    "(let ((s (string-copy \"abc\"))) (string-set! s 0 #\\z) s)" => "\"zbc\"",
    "(string=? \"ab\" \"ab\")" => "#t",
    "(string<? \"ab\" \"ac\")" => "#t",
    "(substring \"hello\" 1 3)" => "\"el\"",
    "(string-append \"foo\" \"bar\" \"!\")" => "\"foobar!\"",
    "(string->list \"ab\")" => "(#\\a #\\b)",
    "(list->string '(#\\a #\\b))" => "\"ab\"",
    "(let ((s (make-string 2 #\\a))) (string-fill! s #\\q) s)" => "\"qq\"",
}

cases! { vectors:
    "(vector? #(1))" => "#t",
    "(make-vector 3 0)" => "#(0 0 0)",
    "(vector 1 'a)" => "#(1 a)",
    "(vector-length #(1 2 3))" => "3",
    "(vector-ref #(1 2 3) 1)" => "2",
    "(let ((v (make-vector 2 0))) (vector-set! v 1 9) v)" => "#(0 9)",
    "(vector->list #(1 2))" => "(1 2)",
    "(list->vector '(1 2))" => "#(1 2)",
    "(let ((v (make-vector 2 0))) (vector-fill! v 7) v)" => "#(7 7)",
}

cases! { special_forms:
    "(if #t 1 2)" => "1",
    "(if #f 1 2)" => "2",
    "(if 0 'yes 'no)" => "yes",
    "(begin 1 2 3)" => "3",
    "(let ((x 1) (y 2)) (+ x y))" => "3",
    "(let* ((x 1) (y (+ x 1))) y)" => "2",
    "(letrec ((even? (lambda (n) (if (zero? n) #t (odd? (- n 1)))))
              (odd? (lambda (n) (if (zero? n) #f (even? (- n 1))))))
       (even? 100))" => "#t",
    "(let loop ((i 0) (acc 0)) (if (= i 5) acc (loop (+ i 1) (+ acc i))))" => "10",
    "(and)" => "#t",
    "(and 1 2 3)" => "3",
    "(and 1 #f 3)" => "#f",
    "(or)" => "#f",
    "(or #f 2)" => "2",
    "(or 1 (error \"not evaluated\"))" => "1",
    "(when #t 1 2)" => "2",
    "(unless #f 1 2)" => "2",
    "(cond (#f 1) (#t 2) (else 3))" => "2",
    "(cond (#f 1) (else 3))" => "3",
    "(cond ((assv 2 '((1 . a) (2 . b))) => cdr) (else 'none))" => "b",
    "(cond (42))" => "42",
    "(case 2 ((1) 'one) ((2 3) 'few) (else 'many))" => "few",
    "(case 9 ((1) 'one) (else 'many))" => "many",
    "(do ((i 0 (+ i 1)) (acc 1 (* acc 2))) ((= i 4) acc))" => "16",
    "(quote (a b))" => "(a b)",
    "(let ((x 5)) `(a ,x ,@(list 1 2) b))" => "(a 5 1 2 b)",
    // The innermost comma matches the outermost quasiquote: only the
    // doubly-unquoted expression is evaluated.
    "`(1 `(2 ,(3 ,(+ 1 2))))" => "(1 (quasiquote (2 (unquote (3 3)))))",
    "((lambda args args) 1 2 3)" => "(1 2 3)",
    "((lambda (a . rest) (list a rest)) 1 2 3)" => "(1 (2 3))",
    "((lambda (a . rest) (list a rest)) 1)" => "(1 ())",
}

cases! { closures_and_state:
    "(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)" => "15",
    "(define (counter)
       (let ((n 0))
         (lambda () (set! n (+ n 1)) n)))
     (define c (counter))
     (c) (c) (c)" => "3",
    "(define (comp f g) (lambda (x) (f (g x))))
     ((comp (lambda (x) (* x 2)) (lambda (x) (+ x 1))) 10)" => "22",
    "(let ((x 1))
       (define (get) x)
       (set! x 2)
       (get))" => "2",
}

cases! { shadowing:
    "(let ((if (lambda (a b c) (list a b c)))) (if 1 2 3))" => "(1 2 3)",
    "(let ((else #f)) (cond (else 'x) (#t 'y)))" => "y",
    "(define (f car) (car 5)) (f (lambda (x) (* x x)))" => "25",
}

cases! { tail_recursion:
    "(define (loop n) (if (zero? n) 'done (loop (- n 1)))) (loop 2000000)" => "done",
    "(letrec ((e? (lambda (n) (if (zero? n) #t (o? (- n 1)))))
              (o? (lambda (n) (if (zero? n) #f (e? (- n 1))))))
       (o? 999999))" => "#t",
}

cases! { deep_recursion_overflows:
    "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 100000)" => "5000050000",
    "(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
     (length (build 50000))" => "50000",
}

cases! { higher_order_prelude:
    "(map (lambda (x) (* x x)) '(1 2 3))" => "(1 4 9)",
    "(map + '(1 2) '(10 20))" => "(11 22)",
    "(map list '(1 2) '(a b) '(x y))" => "((1 a x) (2 b y))",
    "(let ((acc '()))
       (for-each (lambda (x) (set! acc (cons x acc))) '(1 2 3))
       acc)" => "(3 2 1)",
    "(filter odd? '(1 2 3 4 5))" => "(1 3 5)",
    "(fold-left + 0 '(1 2 3 4))" => "10",
    "(fold-left cons '() '(1 2))" => "((() . 1) . 2)",
    "(fold-right cons '() '(1 2))" => "(1 2)",
    "(iota 4)" => "(0 1 2 3)",
    "(apply + '(1 2 3))" => "6",
    "(apply + 1 2 '(3))" => "6",
    "(apply max '(3 1 2))" => "3",
    "(apply (lambda (a . b) (list a b)) '(1 2 3))" => "(1 (2 3))",
}

cases! { continuations_basic:
    "(call/cc (lambda (k) 42))" => "42",
    "(call/cc (lambda (k) (k 42) 99))" => "42",
    "(+ 1 (call/cc (lambda (k) (k 10) 99)))" => "11",
    "(call/1cc (lambda (k) 42))" => "42",
    "(+ 1 (call/1cc (lambda (k) (k 10) 99)))" => "11",
    "(call-with-current-continuation (lambda (k) (k 'y)))" => "y",
    // Nonlocal exit through deep recursion.
    "(call/cc (lambda (abort)
       (define (walk l) (cond ((null? l) 0)
                              ((not (number? (car l))) (abort 'bad))
                              (else (+ (car l) (walk (cdr l))))))
       (walk '(1 2 x 4))))" => "bad",
    // Continuation used multiple times (generator-style counting).
    "(define k #f)
     (define n 0)
     (+ 1 (call/cc (lambda (c) (set! k c) 0)))
     (set! n (+ n 1))
     (if (< n 4) (k n) n)" => "4",
}

cases! { multiple_values:
    "(call-with-values (lambda () (values 1 2)) +)" => "3",
    "(call-with-values (lambda () (values)) (lambda () 'none))" => "none",
    "(call-with-values (lambda () 5) list)" => "(5)",
    "(call-with-values (lambda () (values 1 2 3)) (lambda (a b c) (list c b a)))" => "(3 2 1)",
    // values through a continuation
    "(call-with-values
       (lambda () (call/cc (lambda (k) (k 1 2))))
       list)" => "(1 2)",
    "(values 7)" => "7",
}

cases! { dynamic_wind_basic:
    "(define log '())
     (define (note x) (set! log (cons x log)))
     (dynamic-wind (lambda () (note 'before))
                   (lambda () (note 'during) 'result)
                   (lambda () (note 'after)))
     (reverse log)" => "(before during after)",
    // Nonlocal exit runs the after thunk.
    "(define log '())
     (define (note x) (set! log (cons x log)))
     (call/cc (lambda (k)
       (dynamic-wind (lambda () (note 'in))
                     (lambda () (k 'escaped))
                     (lambda () (note 'out)))))
     (reverse log)" => "(in out)",
    // values through dynamic-wind
    "(call-with-values
       (lambda () (dynamic-wind void (lambda () (values 1 2)) void))
       +)" => "3",
}

cases! { io_returns_unspecified_value:
    "(begin (display \"a\") (write \"b\") (newline) (write-char #\\c) 'ok)" => "ok",
}

#[test]
fn output_capture() {
    let mut vm = Vm::new();
    vm.eval_str("(display \"x\") (write \"y\") (newline) (write-char #\\z)").unwrap();
    assert_eq!(vm.take_output(), "x\"y\"\nz");
    assert_eq!(vm.take_output(), "", "take_output drains");
}

cases! { engines_timer:
    // The timer fires every N calls; the handler counts interrupts.
    "(define ticks 0)
     (timer-interrupt-handler! (lambda () (set! ticks (+ ticks 1)) (set-timer! 10)))
     (define (spin n) (if (zero? n) 'done (spin (- n 1))))
     (set-timer! 10)
     (spin 100)
     (set-timer! 0)
     (> ticks 5)" => "#t",
}

#[test]
fn vm_stats_builtin_reports_alist() {
    let mut vm = Vm::new();
    let v = vm.eval_str("(assq-ref (vm-stats) 'calls)").unwrap();
    let text = vm.write_value(&v);
    let n: i64 = text.parse().expect("a number");
    assert!(n > 0);
}

/// The keys other code reads out of `(vm-stats)` — the ledger parses the
/// first sixteen — each present and equal to the field it names, read at
/// the same instant: a renamed or dropped key fails here.
#[test]
fn vm_stats_keys_equal_the_fields_they_name() {
    let mut vm = Vm::new();
    vm.eval_str(
        "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))
         (deep 20000)
         (+ 1 (call/cc (lambda (k) (k 1))))
         (+ 1 (call/1cc (lambda (k) (k 1))))
         (reset (lambda () (+ 1 (shift (lambda (k) (k 10))))))
         (let ((tag (make-prompt-tag 'p)))
           (call-with-prompt tag (lambda () (%abort-to-prompt tag 1))))
         (call-with-guard (lambda (c) 'caught) (lambda () (raise 'oops)))
         (gc)",
    )
    .unwrap();
    let vm_stats = vm.global("vm-stats").expect("a builtin");
    let s = vm.stats();
    let alist = vm.call(vm_stats, &[]).unwrap();
    let written = vm.write_value(&alist);
    let entry = |key: &str| -> u64 {
        let needle = format!("({key} . ");
        let at = written.find(&needle).unwrap_or_else(|| panic!("(vm-stats) lacks {key}"));
        let rest = &written[at + needle.len()..];
        rest[..rest.find(')').unwrap()].parse().unwrap()
    };
    let pinned = [
        ("instructions", s.instructions),
        ("calls", s.calls),
        ("captures-one", s.stack.captures_one),
        ("captures-multi", s.stack.captures_multi),
        ("reinstates-one", s.stack.reinstates_one),
        ("reinstates-multi", s.stack.reinstates_multi),
        ("slots-copied", s.stack.slots_copied),
        ("overflows", s.stack.overflows),
        ("subconts-taken", s.stack.subconts_taken),
        ("segments", s.stack.segments_allocated),
        ("segment-cache-hits", s.stack.cache_hits),
        ("heap-objects", s.heap.objects_allocated),
        ("heap-words", s.heap.words_allocated),
        ("gc-collections", s.gc_collections),
        ("gc-pause-ns", s.gc_pause_ns),
        ("gc-max-pause-ns", s.gc_max_pause_ns),
        ("live-uncached-segments", vm.stack_live_segment_count() as u64),
        ("prompts-pushed", s.stack.prompts_pushed),
        ("aborts-to-prompt", s.stack.aborts_to_prompt),
        ("conditions-raised", s.conditions_raised),
        ("faults-injected", s.faults_injected),
        ("resident-slots", vm.stack_resident_slots() as u64),
    ];
    for (key, field) in pinned {
        assert_eq!(entry(key), field, "(vm-stats) {key}");
    }
    for key in ["captures-one", "overflows", "prompts-pushed", "gc-collections"] {
        assert!(entry(key) > 0, "the program exercised {key}");
    }
}

cases! { gc_builtin:
    "(begin (gc) (define l (list 1 2 3)) (gc) l)" => "(1 2 3)",
}

#[test]
fn runtime_errors() {
    check_err("(car 5)", "pair");
    check_err("(car '())", "pair");
    check_err("(vector-ref #(1) 5)", "range");
    check_err("(undefined-var)", "unbound");
    check_err("(set! undefined-var 1)", "unbound");
    check_err("((lambda (x) x))", "arguments");
    check_err("((lambda (x) x) 1 2)", "arguments");
    check_err("(+ 'a 1)", "number");
    check_err("(quotient 1 0)", "zero");
    check_err("(error \"custom\" 'detail)", "custom");
    check_err("(5 1)", "procedure");
    check_err("(+ 1 (values 1 2))", "single value");
    check_err("(string-ref \"a\" 9)", "range");
    check_err("(length '(1 . 2))", "improper");
}

#[test]
fn vm_recovers_after_error() {
    let mut vm = Vm::new();
    assert!(vm.eval_str("(car 5)").is_err());
    let v = vm.eval_str("(+ 1 2)").unwrap();
    assert_eq!(vm.write_value(&v), "3");
}

#[test]
fn call_from_rust() {
    use oneshot_vm::Value;
    let mut vm = Vm::new();
    vm.eval_str("(define (f a b) (* a (+ b 1)))").unwrap();
    let f = vm.global("f").expect("defined");
    let v = vm.call(f, &[Value::fixnum(3), Value::fixnum(4)]).unwrap();
    assert_eq!(v, Value::fixnum(15));
    // And again — the VM rest state is restored.
    let v = vm.call(f, &[Value::fixnum(2), Value::fixnum(0)]).unwrap();
    assert_eq!(v, Value::fixnum(2));
}

#[test]
fn globals_api() {
    use oneshot_vm::Value;
    let mut vm = Vm::new();
    assert_eq!(vm.global("nope"), None);
    vm.set_global("x", Value::fixnum(9));
    let v = vm.eval_str("(* x 2)").unwrap();
    assert_eq!(v, Value::fixnum(18));
}
