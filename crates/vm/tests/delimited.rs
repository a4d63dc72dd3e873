//! The delimited-control subsystem: prompts, subcontinuation take/push,
//! and aborts on the segmented stack, plus the prelude derivations
//! (shift/reset, generators, coroutines, effect handlers) built on them.
//!
//! Covers the semantic core (the shift/reset equations, one-shot
//! enforcement, `control0`-style prompt consumption), the interaction with
//! `dynamic-wind` winders crossing a prompt boundary (including under
//! deterministic fault injection), condition-system integration
//! (`shot-twice`, `no-matching-prompt`, `unhandled-effect` all catchable
//! with `call-with-guard`), GC tracing of captured subcontinuations, the
//! new stack counters, the zero-cost guarantee for programs that never
//! push a prompt, and direct-vs-CPS pipeline agreement.

use oneshot_vm::{FaultPlan, Pipeline, Vm, VmError};

fn check(vm: &mut Vm, src: &str, expected: &str) {
    match vm.eval_str(src) {
        Ok(v) => assert_eq!(vm.write_value(&v), expected, "program: {src}"),
        Err(e) => panic!("program {src} failed: {e}"),
    }
}

fn cps_vm() -> Vm {
    Vm::builder().pipeline(Pipeline::Cps).build()
}

// ----------------------------------------------------------------------
// shift/reset semantics
// ----------------------------------------------------------------------

#[test]
fn reset_without_shift_is_transparent() {
    let mut vm = Vm::new();
    check(&mut vm, "(reset (lambda () (+ 1 2)))", "3");
}

#[test]
fn shift_discarding_its_continuation_aborts_the_extent() {
    let mut vm = Vm::new();
    check(&mut vm, "(+ 1 (reset (lambda () (+ 10 (shift (lambda (k) 100))))))", "101");
}

#[test]
fn shift_invoking_its_continuation_splices_the_context() {
    let mut vm = Vm::new();
    check(&mut vm, "(reset (lambda () (+ 1 (shift (lambda (k) (k 10))))))", "11");
    // The handler body runs inside a re-pushed prompt, so computation
    // around the splice stays delimited.
    check(&mut vm, "(reset (lambda () (+ 1 (shift (lambda (k) (+ (k 10) 100))))))", "111");
}

#[test]
fn nested_resets_delimit_independently() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(reset (lambda ()
           (+ 1 (reset (lambda () (+ 10 (shift (lambda (k) (k 0)))))))))",
        "11",
    );
}

#[test]
fn call_with_prompt_and_abort_fast_path() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((tag (make-prompt-tag 'p)))
           (call-with-prompt tag
             (lambda () (+ 1 (%abort-to-prompt tag 42)))))",
        "42",
    );
}

#[test]
fn empty_subcontinuation_is_the_identity() {
    // `(shift f)` in tail position of the reset body captures an empty
    // delimited context; pushing it is a plain value delivery and is not
    // shot-enforced (there is nothing to consume).
    let mut vm = Vm::new();
    check(&mut vm, "(reset (lambda () (shift (lambda (k) (+ (k 1) (k 2))))))", "3");
}

// ----------------------------------------------------------------------
// One-shot enforcement and conditions
// ----------------------------------------------------------------------

#[test]
fn second_push_of_a_subcontinuation_raises_shot_twice() {
    // Satellite: shot-twice on a captured subcontinuation surfaces as the
    // same standard condition `call/1cc` raises, catchable with
    // `call-with-guard`.
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (reset (lambda () (+ 1 (shift (lambda (k) (k 1) (k 2))))))))",
        "shot-twice",
    );
}

#[test]
fn shot_twice_on_subcont_uncaught_has_kind_and_backtrace() {
    let mut vm = Vm::new();
    let e = vm.eval_str("(reset (lambda () (+ 1 (shift (lambda (k) (k 1) (k 2))))))").unwrap_err();
    match e {
        VmError::Uncaught { kind, condition, backtrace } => {
            assert_eq!(kind.as_deref(), Some("shot-twice"));
            assert!(condition.contains("one-shot"), "condition: {condition}");
            assert!(!backtrace.is_empty());
        }
        other => panic!("expected Uncaught, got {other:?}"),
    }
    // The VM recovered.
    check(&mut vm, "(+ 1 2)", "3");
}

#[test]
fn take_without_a_matching_prompt_raises_no_matching_prompt() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda () (shift (lambda (k) (k 1)))))",
        "no-matching-prompt",
    );
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda () (%abort-to-prompt (make-prompt-tag 'nowhere) 1)))",
        "no-matching-prompt",
    );
}

#[test]
fn prompt_set_reflects_the_dynamic_chain() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((tag (make-prompt-tag 'p)))
           (list (%prompt-set? tag)
                 (call-with-prompt tag (lambda () (%prompt-set? tag)))
                 (%prompt-set? tag)))",
        "(#f #t #f)",
    );
}

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

#[test]
fn generator_yields_then_finishes() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((g (make-generator
                    (lambda (yield) (yield 1) (yield 2) (yield 3)))))
           (list (generator-next g) (generator-next g) (generator-next g)
                 (generator-done? (generator-next g))
                 (generator-done? (generator-next g))))",
        "(1 2 3 #t #t)",
    );
}

#[test]
fn generator_suspension_preserves_local_state() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((g (make-generator
                    (lambda (yield)
                      (let loop ((i 0) (acc 0))
                        (if (< i 5)
                            (begin (yield i) (loop (+ i 1) (+ acc i)))
                            (yield (list 'sum acc))))))))
           ;; The producer's loop frame (and its accumulator) must survive
           ;; each take/push round trip.
           (let drain ((v (generator-next g)) (out '()))
             (if (generator-done? v)
                 (reverse out)
                 (drain (generator-next g) (cons v out)))))",
        "(0 1 2 3 4 (sum 10))",
    );
}

#[test]
fn independent_generators_interleave() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((a (make-generator (lambda (y) (y 'a1) (y 'a2))))
               (b (make-generator (lambda (y) (y 'b1) (y 'b2)))))
           (list (generator-next a) (generator-next b)
                 (generator-next a) (generator-next b)))",
        "(a1 b1 a2 b2)",
    );
}

// ----------------------------------------------------------------------
// Coroutines
// ----------------------------------------------------------------------

#[test]
fn coroutine_passes_values_both_ways() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((co (make-coroutine
                     (lambda (v)
                       (let ((x (coroutine-yield (* v 10))))
                         (let ((y (coroutine-yield (* x 10))))
                           (+ x y)))))))
           (list (coroutine-resume co 1)
                 (coroutine-resume co 2)
                 (coroutine-resume co 3)))",
        "(10 20 5)",
    );
}

#[test]
fn resuming_a_dead_coroutine_is_an_error() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (let ((co (make-coroutine (lambda (v) v))))
               (coroutine-resume co 1)
               (coroutine-resume co 2))))",
        "error",
    );
}

// ----------------------------------------------------------------------
// Effect handlers
// ----------------------------------------------------------------------

#[test]
fn handler_intercepts_perform_and_resumes() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(with-handler
           (lambda (op args resume)
             (if (eq? op 'ask) (resume 21) (error \"unknown effect\")))
           (lambda () (* 2 (perform 'ask))))",
        "42",
    );
}

#[test]
fn handlers_are_deep_and_can_discard_the_continuation() {
    let mut vm = Vm::new();
    // Deep: the re-installed handler catches every subsequent perform.
    check(
        &mut vm,
        "(with-handler
           (lambda (op args resume) (resume (car args)))
           (lambda () (+ (perform 'echo 1) (perform 'echo 2) (perform 'echo 3))))",
        "6",
    );
    // Discarding `resume` aborts the handled extent.
    check(
        &mut vm,
        "(with-handler
           (lambda (op args resume) 'aborted)
           (lambda () (perform 'stop) (error \"unreachable\")))",
        "aborted",
    );
}

#[test]
fn unhandled_perform_raises_a_catchable_condition() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda () (perform 'orphan 1)))",
        "unhandled-effect",
    );
}

// ----------------------------------------------------------------------
// dynamic-wind across prompt boundaries
// ----------------------------------------------------------------------

#[test]
fn winders_fire_on_take_and_push_across_a_prompt() {
    // Capturing a subcontinuation whose extent holds a dynamic-wind runs
    // the after on the way out; pushing it re-enters the before. With the
    // handler body invoking k once the order is: before, body-start, after
    // (take), before (push), body-end, after (normal exit).
    let mut vm = Vm::new();
    vm.eval_str("(define log '()) (define (note x) (set! log (cons x log)))").unwrap();
    check(
        &mut vm,
        "(begin
           (reset (lambda ()
             (dynamic-wind
               (lambda () (note 'before))
               (lambda () (note 'start) (shift (lambda (k) (k 0))) (note 'end))
               (lambda () (note 'after)))))
           (reverse log))",
        "(before start after before end after)",
    );
}

#[test]
fn abort_to_prompt_runs_intervening_afters() {
    let mut vm = Vm::new();
    vm.eval_str("(define log '()) (define (note x) (set! log (cons x log)))").unwrap();
    check(
        &mut vm,
        "(begin
           (let ((tag (make-prompt-tag 'p)))
             (call-with-prompt tag
               (lambda ()
                 (dynamic-wind
                   (lambda () (note 'in))
                   (lambda () (%abort-to-prompt tag 'escaped))
                   (lambda () (note 'out))))))
           (reverse log))",
        "(in out)",
    );
}

#[test]
fn winder_counts_balance_across_suspension_cycles() {
    let mut vm = Vm::new();
    check(
        &mut vm,
        "(let ((enters 0) (exits 0))
           (let ((g (make-generator
                      (lambda (yield)
                        (dynamic-wind
                          (lambda () (set! enters (+ enters 1)))
                          (lambda () (yield 'a) (yield 'b))
                          (lambda () (set! exits (+ exits 1))))))))
             (let drain ((v (generator-next g)))
               (if (generator-done? v) 'done (drain (generator-next g))))
             ;; Three entries (initial + two resumes), three exits (two
             ;; suspensions + the final return): balanced.
             (list (- enters exits) (> enters 0))))",
        "(0 #t)",
    );
}

// ----------------------------------------------------------------------
// Fault injection across prompt boundaries (satellite)
// ----------------------------------------------------------------------

/// A workload whose dynamic-wind winders cross a prompt boundary on every
/// iteration (generator suspension takes/pushes through the wind), run
/// under a segment-site fault countdown. Whatever the countdown hits, the
/// guarded run must end in a value or a recognized condition kind, wind
/// entries must balance, and the heap and segment population must return
/// to baseline.
fn run_winder_prompt_fault(countdown: u64) {
    let plan = FaultPlan::none().with_segment_fault(countdown);
    let mut vm = Vm::builder().fault_plan(plan).build();
    vm.collect_now();
    let baseline = vm.heap().len();
    let resting_segments = vm.stack_live_segment_count();

    let src = "(let ((enters 0) (exits 0))
       (let ((r (call-with-guard
                  (lambda (c) (cons 'caught (condition-kind c)))
                  (lambda ()
                    (let loop ((i 0) (acc 0))
                      (if (= i 8)
                          acc
                          (let ((g (make-generator
                                     (lambda (yield)
                                       (dynamic-wind
                                         (lambda () (set! enters (+ enters 1)))
                                         (lambda () (yield i) (yield (* i 10)))
                                         (lambda () (set! exits (+ exits 1))))))))
                            (let drain ((v (generator-next g)) (sum acc))
                              (if (generator-done? v)
                                  (loop (+ i 1) sum)
                                  (drain (generator-next g) (+ sum v)))))))))))
         (list (if (pair? r) (cdr r) r) (- enters exits))))";

    match vm.eval_str(src) {
        Ok(v) => {
            let shown = vm.write_value(&v);
            let ok = shown == "(396 0)" || shown == "(stack-overflow 0)";
            assert!(ok, "countdown {countdown}: malformed outcome {shown}");
        }
        Err(VmError::Uncaught { kind, .. }) => {
            // The fault can fire before the guard is installed.
            assert_eq!(
                kind.as_deref(),
                Some("stack-overflow"),
                "countdown {countdown}: unexpected uncaught kind"
            );
        }
        Err(other) => panic!("countdown {countdown}: non-condition failure {other}"),
    }
    assert!(
        vm.stats().faults_injected <= 1,
        "countdown {countdown}: the one-shot clock fired more than once"
    );

    // Drain any leftover latch, then check for leaks.
    for _ in 0..4 {
        if vm.eval_str("0").is_ok() {
            break;
        }
    }
    vm.take_output();
    vm.collect_now();
    assert_eq!(vm.heap().len(), baseline, "countdown {countdown}: heap did not return to baseline");
    assert!(
        vm.stack_live_segment_count() <= resting_segments,
        "countdown {countdown}: stack segments leaked ({} occupied, resting was {resting_segments})",
        vm.stack_live_segment_count()
    );
}

#[test]
fn segment_faults_across_prompt_winders_preserve_invariants() {
    // Sweep the countdown across the whole workload so the fault lands in
    // prompt pushes, subcontinuation takes/pushes, and winder re-entries.
    for countdown in 1..60 {
        run_winder_prompt_fault(countdown);
    }
}

#[test]
fn injected_fault_during_delimited_workload_is_one_shot() {
    // After a fault is consumed, the identical workload completes — the
    // countdown is preserved (not reset) across the prompt machinery.
    let plan = FaultPlan::none().with_segment_fault(25);
    let mut vm = Vm::builder().fault_plan(plan).build();
    let src = "(call-with-guard
       (lambda (c) (condition-kind c))
       (lambda ()
         (let ((g (make-generator
                    (lambda (y) (y 1) (y 2) (y 3)))))
           (+ (generator-next g) (generator-next g) (generator-next g)))))";
    let first = vm.eval_str(src).map(|v| vm.write_value(&v)).unwrap_or_else(|e| format!("{e}"));
    assert!(
        first == "6" || first == "stack-overflow",
        "first run should complete or trip the injected fault, got {first}"
    );
    assert_eq!(vm.stats().faults_injected, 1, "the clock fires exactly once");
    check(&mut vm, src, "6");
}

// ----------------------------------------------------------------------
// GC integration
// ----------------------------------------------------------------------

#[test]
fn abandoned_generator_does_not_leak() {
    // A generator abandoned mid-suspension holds a captured
    // subcontinuation (stack records + a heap Kont object). Dropping the
    // generator must free all of it.
    let mut vm = Vm::new();
    vm.collect_now();
    let baseline = vm.heap().len();
    let resting_segments = vm.stack_live_segment_count();
    vm.eval_str(
        "(define g (make-generator
                     (lambda (yield)
                       (let loop ((i 0)) (yield i) (loop (+ i 1))))))
         (generator-next g)
         (generator-next g)",
    )
    .unwrap();
    vm.eval_str("(set! g #f)").unwrap();
    vm.eval_str("0").unwrap();
    vm.collect_now();
    assert_eq!(vm.heap().len(), baseline, "abandoned generator leaked heap objects");
    assert!(
        vm.stack_live_segment_count() <= resting_segments,
        "abandoned generator leaked stack segments ({} occupied, resting was {resting_segments})",
        vm.stack_live_segment_count()
    );
}

#[test]
fn live_subcontinuation_survives_collection() {
    let mut vm = Vm::new();
    vm.eval_str(
        "(define g (make-generator (lambda (yield) (yield 'a) (yield 'b) (yield 'c))))
         (generator-next g)",
    )
    .unwrap();
    // Force collections while the suspended subcontinuation is live; its
    // sealed records (and the values they hold) must be traced.
    vm.eval_str("(define (chew n) (if (zero? n) 'ok (begin (cons n n) (chew (- n 1)))))").unwrap();
    vm.eval_str("(chew 50000)").unwrap();
    vm.collect_now();
    check(&mut vm, "(list (generator-next g) (generator-next g))", "(b c)");
}

// ----------------------------------------------------------------------
// Counters and zero-cost parity
// ----------------------------------------------------------------------

#[test]
fn delimited_counters_track_the_operations() {
    let mut vm = Vm::new();
    let before = vm.stats();
    vm.eval_str("(reset (lambda () (+ 1 (shift (lambda (k) (k 10))))))").unwrap();
    let d = vm.stats().delta_since(&before);
    // reset pushes one prompt; shift re-pushes around the handler and the
    // splice; one take, one push.
    assert!(d.stack.prompts_pushed >= 3, "prompts_pushed = {}", d.stack.prompts_pushed);
    assert_eq!(d.stack.subconts_taken, 1);
    assert_eq!(d.stack.subconts_pushed, 1);
    assert!(d.stack.subcont_slots > 0, "a non-empty context was captured");

    let before = vm.stats();
    vm.eval_str(
        "(let ((tag (make-prompt-tag 'p)))
           (call-with-prompt tag (lambda () (%abort-to-prompt tag 1))))",
    )
    .unwrap();
    let d = vm.stats().delta_since(&before);
    assert_eq!(d.stack.aborts_to_prompt, 1);
    // The abort fast path never materializes the discarded context.
    assert_eq!(d.stack.subconts_taken, 0);
}

#[test]
fn vm_stats_alist_exposes_the_delimited_counters() {
    let mut vm = Vm::new();
    check(&mut vm, "(assq-ref (vm-stats) 'prompts-pushed)", "0");
    check(&mut vm, "(assq-ref (vm-stats) 'subconts-taken)", "0");
    check(&mut vm, "(assq-ref (vm-stats) 'aborts-to-prompt)", "0");
    vm.eval_str("(reset (lambda () (shift (lambda (k) (k 1)))))").unwrap();
    let shown = vm.eval_str("(assq-ref (vm-stats) 'prompts-pushed)").unwrap();
    assert_ne!(vm.write_value(&shown), "0");
}

#[test]
fn programs_without_prompts_pay_nothing() {
    // Zero-cost parity: a call/1cc + dynamic-wind workload that never
    // touches a prompt must leave every delimited counter at zero — the
    // subsystem costs nothing unless used.
    let mut vm = Vm::new();
    vm.eval_str(
        "(define (work n)
           (dynamic-wind
             (lambda () 'in)
             (lambda ()
               (call/1cc (lambda (k) (if (> n 100) (k n) n))))
             (lambda () 'out)))
         (let loop ((i 0) (acc 0))
           (if (= i 200) acc (loop (+ i 1) (+ acc (work i)))))",
    )
    .unwrap();
    let s = vm.stats().stack;
    assert_eq!(s.prompts_pushed, 0);
    assert_eq!(s.subconts_taken, 0);
    assert_eq!(s.subconts_pushed, 0);
    assert_eq!(s.aborts_to_prompt, 0);
    assert_eq!(s.subcont_slots, 0);
}

// ----------------------------------------------------------------------
// Direct vs CPS pipeline agreement
// ----------------------------------------------------------------------

/// Programs whose answers must agree between the segmented-stack
/// primitives and the CPS heap encoding. (Winder-crossing programs are
/// excluded: the CPS baseline models straight-line wind semantics only, a
/// documented limitation.)
const AGREEMENT: &[(&str, &str)] = &[
    ("(reset (lambda () (+ 1 2)))", "3"),
    ("(+ 1 (reset (lambda () (+ 10 (shift (lambda (k) 100))))))", "101"),
    ("(reset (lambda () (+ 1 (shift (lambda (k) (k 10))))))", "11"),
    ("(reset (lambda () (+ 1 (shift (lambda (k) (+ (k 10) 100))))))", "111"),
    (
        "(let ((g (make-generator (lambda (y) (y 1) (y 2)))))
           (list (generator-next g) (generator-next g)
                 (generator-done? (generator-next g))))",
        "(1 2 #t)",
    ),
    (
        "(let ((co (make-coroutine
                     (lambda (v) (+ v (coroutine-yield (* v 2)))))))
           (list (coroutine-resume co 5) (coroutine-resume co 1)))",
        "(10 6)",
    ),
    (
        "(with-handler
           (lambda (op args resume) (resume (* 2 (car args))))
           (lambda () (+ (perform 'double 3) (perform 'double 4))))",
        "14",
    ),
    (
        "(let ((tag (make-prompt-tag 'p)))
           (call-with-prompt tag
             (lambda () (+ 1 (%abort-to-prompt tag 42)))))",
        "42",
    ),
    (
        "(let ((tag (make-prompt-tag 'p)))
           (list (%prompt-set? tag)
                 (call-with-prompt tag (lambda () (%prompt-set? tag)))))",
        "(#f #t)",
    ),
];

#[test]
fn direct_and_cps_pipelines_agree_on_delimited_programs() {
    let mut direct = Vm::new();
    let mut cps = cps_vm();
    for (src, expected) in AGREEMENT {
        check(&mut direct, src, expected);
        check(&mut cps, src, expected);
    }
}

#[test]
fn cps_pipeline_enforces_one_shot_subcontinuations() {
    let mut vm = cps_vm();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (reset (lambda () (+ 1 (shift (lambda (k) (k 1) (k 2))))))))",
        "shot-twice",
    );
}

#[test]
fn cps_pipeline_raises_no_matching_prompt() {
    let mut vm = cps_vm();
    check(
        &mut vm,
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda () (shift (lambda (k) (k 1)))))",
        "no-matching-prompt",
    );
}

// ----------------------------------------------------------------------
// Native prompts against the call/1cc encoding of the same generators
// ----------------------------------------------------------------------

/// The generator API on the prelude's prompt-based generators: suspending
/// takes only the delimited context (the producer's frames above the
/// prompt); the consumer's stack is never touched.
const GEN_NATIVE: &str = "
  (define make-gen make-generator)
  (define gen-next generator-next)
  (define gen-done? generator-done?)";

/// The same API as the classic one-shot-continuation coroutine encoding
/// (Kobayashi–Kameyama): every suspension captures the *whole*
/// continuation twice — the consumer's at `gen-next`, the producer's at
/// `yield` — so each cycle encapsulates the full stack where the native
/// edition steals only the delimited slice.
const GEN_1CC: &str = "
  (define gen-end (list 'gen-end))
  (define (make-gen producer)
    (let ((return #f) (resume #f) (finished #f))
      (define (yield v)
        (call/1cc
          (lambda (k)
            (set! resume k)
            (return v))))
      (lambda ()
        (if finished
            gen-end
            (call/1cc
              (lambda (r)
                (set! return r)
                (if resume
                    (let ((k resume)) (set! resume #f) (k #f))
                    (begin
                      (producer yield)
                      (set! finished #t)
                      (return gen-end)))))))))
  (define (gen-next g) (g))
  (define (gen-done? v) (eq? v gen-end))";

/// Drivers written against `make-gen`/`gen-next`/`gen-done?`, so one source
/// runs under both editions: `(pipeline n stages)` sums `1..n` through a
/// chain of incrementing generator stages; `(squares n)` drains one
/// generator of `n` squares; `(sampler n depth)` pulls each value from a
/// consumer recursion `i mod depth` deep, so the full-stack encoding's
/// capture grows with the consumer while the native one's does not.
const GEN_DRIVERS: &str = "
  (define (source n)
    (make-gen (lambda (yield)
      (let loop ((i 1)) (if (<= i n) (begin (yield i) (loop (+ i 1))) 0)))))
  (define (stage g)
    (make-gen (lambda (yield)
      (let loop ()
        (let ((v (gen-next g)))
          (if (gen-done? v) 0 (begin (yield (+ v 1)) (loop))))))))
  (define (drain g)
    (let loop ((acc 0))
      (let ((v (gen-next g))) (if (gen-done? v) acc (loop (+ acc v))))))
  (define (pipeline n stages)
    (let build ((k stages) (g (source n)))
      (if (zero? k) (drain g) (build (- k 1) (stage g)))))
  (define (squares n)
    (drain (make-gen (lambda (yield)
             (let loop ((i 0)) (if (< i n) (begin (yield (* i i)) (loop (+ i 1))) 0))))))
  (define (sampler n depth)
    (let ((g (make-gen (lambda (yield)
               (let loop ((i 0)) (if (< i n) (begin (yield i) (loop (+ i 1))) 0))))))
      (define (probe d)
        (if (zero? d)
            (let ((v (gen-next g))) (if (gen-done? v) 0 v))
            (+ 1 (probe (- d 1)))))
      (let loop ((i 0) (acc 0))
        (if (= i n)
            acc
            (let ((d (modulo i depth))) (loop (+ i 1) (+ acc (- (probe d) d))))))))";

/// Runs `call` under one generator edition on a fresh VM: its answer, the
/// counter delta, and whether a collection afterwards returned the heap
/// and the segment population to where they were before the call.
fn generator_run(edition: &str, call: &str) -> (String, oneshot_vm::VmStats, bool) {
    let mut vm = Vm::new();
    vm.eval_str(edition).unwrap();
    vm.eval_str(GEN_DRIVERS).unwrap();
    vm.collect_now();
    let (heap, segments) = (vm.heap().len(), vm.stack_live_segment_count());
    let before = vm.stats();
    let v = vm.eval_str(call).unwrap_or_else(|e| panic!("{call}: {e}"));
    let delta = vm.stats().delta_since(&before);
    let answer = vm.write_value(&v);
    vm.eval_str("0").unwrap(); // drop the result from the accumulator
    vm.collect_now();
    let clean = vm.heap().len() == heap && vm.stack_live_segment_count() <= segments;
    (answer, delta, clean)
}

#[test]
fn native_generators_agree_with_the_one_shot_encoding_and_seal_less() {
    for (call, expected, suspension_bound) in [
        ("(pipeline 300 3)", "46050", true),
        ("(squares 500)", "41541750", true),
        ("(sampler 300 32)", "44850", false),
    ] {
        let (native_answer, native, native_clean) = generator_run(GEN_NATIVE, call);
        let (encoded_answer, encoded, encoded_clean) = generator_run(GEN_1CC, call);
        assert_eq!(native_answer, expected, "{call}");
        assert_eq!(encoded_answer, expected, "{call}: the encodings disagree");
        assert!(native_clean && encoded_clean, "{call}: a suspended generator leaked");

        // Each edition uses only its own capture mechanism.
        assert!(native.stack.subconts_taken > 0, "{call}");
        assert_eq!(native.stack.slots_encapsulated, 0, "{call}");
        assert!(encoded.stack.slots_encapsulated > 0, "{call}");
        assert_eq!(encoded.stack.subconts_taken, 0, "{call}");

        // Where suspension dominates, the delimited take steals a slice
        // where the full capture seals the whole span, and it retires
        // fewer instructions. (The sampler's cost is its consumer's
        // recursion under both, so it is held to agreement only.)
        if suspension_bound {
            assert!(
                native.stack.subcont_slots < encoded.stack.slots_encapsulated,
                "{call}: native sealed {} slots, call/1cc {}",
                native.stack.subcont_slots,
                encoded.stack.slots_encapsulated
            );
            assert!(
                native.instructions < encoded.instructions,
                "{call}: native retired {} instructions, call/1cc {}",
                native.instructions,
                encoded.instructions
            );
        }
    }
}
