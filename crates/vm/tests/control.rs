//! Continuation torture tests: the paper's mechanisms observed through
//! both behaviour and the VM's counters — one-shot O(1) reinstatement,
//! promotion, overflow handling, the segment cache, splitting, and the
//! interactions with `dynamic-wind` and multiple values.

use oneshot_core::{Config, OverflowPolicy, PromotionStrategy};
use oneshot_vm::{Pipeline, Vm, VmConfig};

fn vm_with(stack: Config) -> Vm {
    Vm::with_config(VmConfig { stack, ..VmConfig::default() })
}

fn eval(vm: &mut Vm, src: &str) -> String {
    match vm.eval_str(src) {
        Ok(v) => vm.write_value(&v),
        Err(e) => panic!("program failed: {e}\n{src}"),
    }
}

const CTAK: &str = "
  (define (ctak x y z)
    (CAPTURE (lambda (k) (ctak-aux k x y z))))
  (define (ctak-aux k x y z)
    (if (not (< y x))
        (k z)
        (ctak-aux k
          (ctak (- x 1) y z)
          (ctak (- y 1) z x)
          (ctak (- z 1) x y))))
  (ctak 12 6 0)";

#[test]
fn ctak_gives_same_answer_under_both_capture_operators() {
    for op in ["call/cc", "call/1cc"] {
        let mut vm = Vm::new();
        let r = eval(&mut vm, &CTAK.replace("CAPTURE", op));
        assert_eq!(r, "1", "{op}");
    }
}

#[test]
fn one_shot_ctak_copies_nothing_multi_shot_copies_plenty() {
    // The paper's §4 tak experiment at the mechanism level.
    let mut multi = Vm::new();
    eval(&mut multi, &CTAK.replace("CAPTURE", "call/cc"));
    let ms = multi.stats();
    assert!(ms.stack.captures_multi > 1000);
    assert!(ms.stack.slots_copied > 10_000, "multi-shot reinstatement copies");

    let mut one = Vm::new();
    eval(&mut one, &CTAK.replace("CAPTURE", "call/1cc"));
    let os = one.stats();
    assert!(os.stack.captures_one > 1000);
    assert_eq!(os.stack.slots_copied, 0, "one-shot control copies nothing");
    assert_eq!(os.stack.reinstates_one, os.stack.captures_one);
    // And it allocates less overall (stack segments dominate here).
    assert!(
        os.stack.segment_slots_allocated < ms.stack.segment_slots_allocated * 2,
        "one-shot allocation stays bounded via the cache"
    );
}

#[test]
fn segment_cache_feeds_one_shot_churn() {
    let mut vm = Vm::new();
    eval(&mut vm, &CTAK.replace("CAPTURE", "call/1cc"));
    let s = vm.stats();
    assert!(
        s.stack.cache_hits as f64 > 0.9 * s.stack.captures_one as f64,
        "nearly every fresh segment comes from the cache: {:?}",
        s.stack
    );
    assert!(
        s.stack.segments_allocated < 20,
        "few real allocations: {}",
        s.stack.segments_allocated
    );
}

#[test]
fn deep_recursion_under_tiny_segments_is_correct_for_both_policies() {
    for policy in [OverflowPolicy::OneShot, OverflowPolicy::MultiShot] {
        let cfg = Config {
            segment_slots: 256,
            copy_bound: 64,
            overflow_policy: policy,
            ..Config::default()
        };
        let mut vm = vm_with(cfg);
        let r = eval(&mut vm, "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 20000)");
        assert_eq!(r, "200010000", "{policy:?}");
        let s = vm.stats();
        assert!(s.stack.overflows > 50, "{policy:?}: {}", s.stack.overflows);
        match policy {
            OverflowPolicy::OneShot => {
                assert!(s.stack.reinstates_one >= s.stack.overflows / 2)
            }
            OverflowPolicy::MultiShot => {
                assert!(s.stack.reinstates_multi >= s.stack.overflows / 2)
            }
        }
    }
}

#[test]
fn one_shot_overflow_avoids_underflow_copying() {
    let prog = "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 50000)";
    let base = Config { segment_slots: 512, copy_bound: 128, ..Config::default() };

    let mut one = vm_with(Config { overflow_policy: OverflowPolicy::OneShot, ..base.clone() });
    eval(&mut one, prog);
    let os = one.stats();

    let mut multi = vm_with(Config { overflow_policy: OverflowPolicy::MultiShot, ..base });
    eval(&mut multi, prog);
    let ms = multi.stats();

    // One-shot pays only the hysteresis copy on the way up; multi-shot
    // additionally copies every frame back on the way down.
    assert!(
        ms.stack.slots_copied > 3 * os.stack.slots_copied,
        "multi {} vs one {}",
        ms.stack.slots_copied,
        os.stack.slots_copied
    );
}

#[test]
fn promotion_allows_reuse_and_counts() {
    for strategy in [PromotionStrategy::EagerWalk, PromotionStrategy::SharedFlag] {
        let cfg = Config { promotion: strategy, ..Config::default() };
        let mut vm = vm_with(cfg);
        let r = eval(
            &mut vm,
            "
            (define km #f)
            (define count 0)
            (define result
              (call/1cc (lambda (k)
                (+ 100 (call/cc (lambda (c) (set! km c) 0))))))
            (set! count (+ count 1))
            (if (< count 3) (km count))
            (list result count)",
        );
        assert_eq!(r, "(102 3)", "{strategy:?}");
        let s = vm.stats();
        assert!(s.stack.promotions >= 1, "{strategy:?}");
        if strategy == PromotionStrategy::SharedFlag {
            assert_eq!(s.stack.promotion_steps, 0, "shared flag never walks");
        }
    }
}

#[test]
fn unpromoted_one_shot_reuse_is_an_error() {
    let mut vm = Vm::new();
    let e = vm
        .eval_str(
            "
            (define km #f)
            (define count 0)
            (define result
              (call/1cc (lambda (k)
                (+ 100 (call/1cc (lambda (c) (set! km c) 0))))))
            (set! count (+ count 1))
            (if (< count 3) (km count))
            count",
        )
        .unwrap_err();
    assert!(e.to_string().contains("one-shot"), "{e}");
}

#[test]
fn large_continuations_split_at_copy_bound() {
    let cfg = Config { segment_slots: 4096, copy_bound: 64, ..Config::default() };
    let mut vm = vm_with(cfg);
    // Build a deep non-tail context, capture it, return out, reinvoke.
    let r = eval(
        &mut vm,
        "
        (define k1 #f)
        (define count 0)
        (define (deep n)
          (if (zero? n)
              (call/cc (lambda (k) (set! k1 k) 0))
              (+ 1 (deep (- n 1)))))
        (define result (deep 300))
        (set! count (+ count 1))
        (if (< count 3) (k1 result))
        (list result count)",
    );
    // Each re-entry adds the 300 pending additions: 300, 600, then 900.
    assert_eq!(r, "(900 3)");
    let s = vm.stats();
    assert!(s.stack.splits >= 1, "expected splitting: {:?}", s.stack);
    assert!(s.stack.reinstates_multi >= 2);
}

#[test]
fn coroutines_via_one_shot_continuations() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define out '())
        (define (emit x) (set! out (cons x out)))
        (define a-k #f)
        (define b-k #f)
        (define (a)
          (emit 'a1)
          (call/1cc (lambda (k) (set! a-k k) (b-k 0)))
          (emit 'a2)
          (call/1cc (lambda (k) (set! a-k k) (b-k 0)))
          (emit 'a3))
        (define (b)
          (emit 'b1)
          (call/1cc (lambda (k) (set! b-k k) (a-k 0)))
          (emit 'b2)
          (call/1cc (lambda (k) (set! b-k k) (a-k 0)))
          (emit 'b3))
        (set! b-k (lambda (ignore) (b)))   ; bootstrap: a's first yield starts b
        (a)
        (reverse out)",
    );
    // a runs to its first yield, then b; they ping-pong until a finishes
    // (b's final segment stays suspended).
    assert_eq!(r, "(a1 b1 a2 b2 a3)");
}

#[test]
fn generators_with_multi_shot_restart() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define (make-gen lst)
          (define return #f)
          (define (yield x)
            (call/cc (lambda (k)
              (set! resume k)
              (return x))))
          (define resume
            (lambda (ignore)
              (for-each yield lst)
              (return 'done)))
          (lambda ()
            (call/cc (lambda (k)
              (set! return k)
              (resume #f)))))
        (define g (make-gen '(1 2 3)))
        (list (g) (g) (g) (g))",
    );
    assert_eq!(r, "(1 2 3 done)");
}

#[test]
fn amb_backtracking_with_multi_shot() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define fail #f)
        (define (amb . choices)
          (call/cc (lambda (k)
            (define old-fail fail)
            (define (try choices)
              (if (null? choices)
                  (begin (set! fail old-fail) (fail #f))
                  (begin
                    (call/cc (lambda (retry)
                      (set! fail (lambda (ignore) (retry 'next)))
                      (k (car choices))))
                    (try (cdr choices)))))
            (try choices))))
        ;; Find a Pythagorean triple.
        (call/cc (lambda (done)
          (set! fail (lambda (ignore) (done 'none)))
          (let ((a (amb 1 2 3 4 5)) (b (amb 1 2 3 4 5)) (c (amb 1 2 3 4 5)))
            (if (and (< a b) (= (+ (* a a) (* b b)) (* c c)))
                (done (list a b c))
                (fail #f)))))",
    );
    assert_eq!(r, "(3 4 5)");
}

#[test]
fn dynamic_wind_reentry_runs_before_thunks() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define trace '())
        (define (note x) (set! trace (cons x trace)))
        (define k1 #f)
        (define count 0)
        (dynamic-wind
          (lambda () (note 'in))
          (lambda ()
            (call/cc (lambda (k) (set! k1 k)))
            (set! count (+ count 1)))
          (lambda () (note 'out)))
        (if (< count 3) (k1 0))
        (reverse trace)",
    );
    assert_eq!(r, "(in out in out in out)");
}

#[test]
fn nested_dynamic_wind_orders_winders() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define trace '())
        (define (note x) (set! trace (cons x trace)))
        (call/cc (lambda (escape)
          (dynamic-wind
            (lambda () (note 'o-in))
            (lambda ()
              (dynamic-wind
                (lambda () (note 'i-in))
                (lambda () (escape 'out))
                (lambda () (note 'i-out))))
            (lambda () (note 'o-out)))))
        (reverse trace)",
    );
    assert_eq!(r, "(o-in i-in i-out o-out)");
}

#[test]
fn dynamic_wind_cross_jump_between_branches() {
    // Jumping from inside one wind extent into another runs the afters of
    // the first and the befores of the second.
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define trace '())
        (define (note x) (set! trace (cons x trace)))
        (define back-in #f)
        (define done #f)
        (dynamic-wind
          (lambda () (note 'a-in))
          (lambda ()
            (call/cc (lambda (k) (set! back-in k)))
            (note 'a-body))
          (lambda () (note 'a-out)))
        ;; now outside; jump back in once
        (if (not done)
            (begin (set! done #t) (back-in 0)))
        (reverse trace)",
    );
    assert_eq!(r, "(a-in a-body a-out a-in a-body a-out)");
}

#[test]
fn call_cc_in_tail_position_reuses_link() {
    let mut vm = Vm::new();
    // Tail captures after an initial capture re-use the link (the paper's
    // proper-tail-recursion rule) — observable through captures_empty.
    eval(
        &mut vm,
        "
        (define (f) (call/cc (lambda (k) (call/cc (lambda (k2) 42)))))
        (f)",
    );
    let s = vm.stats();
    assert!(s.stack.captures_empty >= 1, "{:?}", s.stack);
}

#[test]
fn continuations_accept_multiple_values() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "(call-with-values
           (lambda () (call/cc (lambda (k) (k 1 2 3))))
           list)",
    );
    assert_eq!(r, "(1 2 3)");
    // Zero values too.
    let r = eval(
        &mut vm,
        "(call-with-values
           (lambda () (call/cc (lambda (k) (k))))
           (lambda () 'none))",
    );
    assert_eq!(r, "none");
}

#[test]
fn escaping_upward_twice_through_winders_is_stable() {
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define trace '())
        (define (note x) (set! trace (cons x trace)))
        (define (attempt thunk)
          (call/cc (lambda (escape)
            (dynamic-wind
              (lambda () (note 'enter))
              thunk
              (lambda () (note 'leave))))))
        (attempt (lambda () (note 'one) 1))
        (attempt (lambda () (note 'two) 2))
        (reverse trace)",
    );
    assert_eq!(r, "(enter one leave enter two leave)");
}

#[test]
fn timer_interrupt_based_engine_slices() {
    // A mini engine: run a computation for a fuel budget, suspending via
    // one-shot capture when the timer fires.
    let mut vm = Vm::new();
    let r = eval(
        &mut vm,
        "
        (define suspended #f)
        (define scheduler-k #f)
        (timer-interrupt-handler!
          (lambda ()
            (call/1cc (lambda (k)
              (set! suspended k)
              (scheduler-k 'suspended)))))
        (define (run-slice thunk fuel)
          (call/1cc (lambda (sk)
            (set! scheduler-k sk)
            (set-timer! fuel)
            (let ((v (thunk)))
              (set-timer! 0)
              ;; Deliver through the *current* slice continuation: the
              ;; lexical sk belongs to the first slice and is shot.
              (scheduler-k (list 'done v))))))
        (define (count-to n)
          (let loop ((i 0)) (if (= i n) i (loop (+ i 1)))))
        (define first (run-slice (lambda () (count-to 10000)) 100))
        (define resumptions 0)
        (let pump ()
          (if (eq? first 'suspended)
              (let ((k suspended))
                (set! first (run-slice (lambda () (k 0)) 100))
                (set! resumptions (+ resumptions 1))
                (pump))))
        (list first (> resumptions 10))",
    );
    assert_eq!(r, "((done 10000) #t)");
}

#[test]
fn gc_preserves_captured_continuations() {
    // Small GC threshold forces many collections while continuations and
    // their stack segments are live.
    let mut vm = Vm::new();
    vm.heap_mut().set_gc_threshold(256);
    let r = eval(
        &mut vm,
        "
        (define ks '())
        (define (deep n)
          (if (zero? n)
              (call/cc (lambda (k) (set! ks (cons k ks)) 0))
              (+ 1 (deep (- n 1)))))
        (define r1 (deep 50))
        ;; allocate heavily to force collections (re-run after re-entry too)
        (define junk (let loop ((i 0) (acc '()))
          (if (= i 2000) acc (loop (+ i 1) (cons (list i i i) acc)))))
        ;; Re-enter the saved continuation exactly once: the guard is the
        ;; value delivered through it, not a counter reset by re-entry.
        (if (= r1 50) ((car ks) 7))
        (list r1 (length junk))",
    );
    assert_eq!(r, "(57 2000)");
    assert!(vm.stats().heap.collections > 0, "collections happened");
}

#[test]
fn cps_pipeline_runs_the_same_control_programs() {
    // The heap-control baseline gives the same answers (single-value
    // subset, no winders).
    for src in [
        CTAK.replace("CAPTURE", "call/cc"),
        CTAK.replace("CAPTURE", "call/1cc"),
        "(define (make-counter)
           (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
         (define c (make-counter))
         (c) (c) (+ (c) 10)"
            .to_string(),
        "(call/cc (lambda (abort)
           (define (walk l) (cond ((null? l) 0)
                                  ((not (number? (car l))) (abort 'bad))
                                  (else (+ (car l) (walk (cdr l))))))
           (walk '(1 2 x 4))))"
            .to_string(),
    ] {
        let mut direct = Vm::new();
        let expect = eval(&mut direct, &src);
        let mut cps = Vm::with_config(VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() });
        let got = eval(&mut cps, &src);
        assert_eq!(got, expect, "CPS diverged on: {src}");
    }
}

#[test]
fn cps_pipeline_allocates_closures_where_direct_does_not() {
    let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 14)";
    let mut direct = Vm::new();
    let d0 = direct.stats();
    eval(&mut direct, src);
    let d = direct.stats().delta_since(&d0);

    let mut cps = Vm::with_config(VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() });
    let c0 = cps.stats();
    eval(&mut cps, src);
    let c = cps.stats().delta_since(&c0);

    // §5: the direct compiler allocates essentially no closures per frame;
    // CPS allocates at least one per non-tail call.
    assert!(d.heap.closures_allocated <= 2, "direct: {}", d.heap.closures_allocated);
    assert!(
        c.heap.closures_allocated > 300,
        "cps allocates control closures: {}",
        c.heap.closures_allocated
    );
}

#[test]
fn escape_and_reentry_across_200_extents_run_each_winder_once_in_order() {
    // The common-tail computation behind every wind step used to be
    // quadratic and allocating; crossing a deep stack of extents in both
    // directions pins both its answer and its order. `before n` logs `n`,
    // `after n` logs `-n`; extent 200 is outermost.
    let mut vm = Vm::new();
    let log = eval(
        &mut vm,
        "(define log '())
         (define (note x) (set! log (cons x log)))
         (define (nest n thunk)
           (if (zero? n)
               (thunk)
               (dynamic-wind
                 (lambda () (note n))
                 (lambda () (nest (- n 1) thunk))
                 (lambda () (note (- n))))))
         (define inner #f)
         (define rounds 0)
         (call/cc
           (lambda (esc)
             (nest 200 (lambda ()
                         (call/cc (lambda (k) (set! inner k)))
                         (set! rounds (+ rounds 1))
                         (esc rounds)))))
         (if (< rounds 2) (inner #f))
         (reverse log)",
    );
    // In (outermost first), escape (innermost first), re-entry, escape.
    let one_way: Vec<String> =
        (1..=200).rev().map(|n| n.to_string()).chain((1..=200).map(|n| format!("-{n}"))).collect();
    let expected = format!("({} {})", one_way.join(" "), one_way.join(" "));
    assert_eq!(log, expected);
    assert_eq!(eval(&mut vm, "rounds"), "2");
}
