//! GC stress for the thread systems: collections while many threads sit
//! suspended on one-shot continuations — and the Figure 5 loop run under
//! every fusion setting and collection threshold, which must change
//! neither its answer nor what it does to the stack and heap.

use oneshot_threads::{Strategy, ThreadSystem};
use oneshot_vm::{CompilerOptions, VmConfig, VmStats};

#[test]
fn suspended_threads_survive_collections() {
    let mut ts = ThreadSystem::with_config(Strategy::Call1Cc, VmConfig::default());
    ts.vm_mut().heap_mut().set_gc_threshold(256);
    ts.eval("(define acc '())").unwrap();
    ts.eval(
        "(define (job i)
           (lambda ()
             (let loop ((n 0) (l '()))
               (if (< n 200)
                   (begin (thread-yield!) (loop (+ n 1) (cons n l)))
                   (set! acc (cons (cons i (length l)) acc))))))",
    )
    .unwrap();
    for i in 0..8 {
        ts.spawn(&format!("(job {i})")).unwrap();
    }
    ts.run(0).unwrap();
    let done = ts.eval_to_string("(length acc)").unwrap();
    assert_eq!(done, "8");
    assert!(ts.stats().heap.collections > 0, "collections happened mid-run");
}

#[test]
fn preemptive_threads_survive_collections_across_strategies() {
    for strategy in Strategy::ALL {
        let mut ts = ThreadSystem::new(strategy);
        ts.vm_mut().heap_mut().set_gc_threshold(512);
        ts.eval("(define total 0)").unwrap();
        match strategy {
            Strategy::Cps => {
                ts.eval(
                    "(define (job k)
                       (let loop ((n 0) (l '()))
                         (cps-call (lambda ()
                           (if (< n 300)
                               (loop (+ n 1) (cons n l))
                               (begin (set! total (+ total (length l))) (k 0)))))))",
                )
                .unwrap();
            }
            _ => {
                ts.eval(
                    "(define (job)
                       (let loop ((n 0) (l '()))
                         (if (< n 300)
                             (loop (+ n 1) (cons n l))
                             (set! total (+ total (length l))))))",
                )
                .unwrap();
            }
        }
        for _ in 0..4 {
            ts.spawn("job").unwrap();
        }
        ts.run(8).unwrap();
        assert_eq!(ts.eval_to_string("total").unwrap(), "1200", "{strategy:?}");
        assert!(ts.stats().heap.collections > 0, "{strategy:?}");
    }
}

/// One measured round of the Figure 5 loop — eight `call/1cc` threads each
/// computing `(fib 12)`, a context switch every 8 calls — after a warm-up
/// round (the scheduler mutates global state on first use). Returns the
/// round's answer, its counter delta, and whether a full collection
/// afterwards brought the heap back to its pre-round live count (the
/// suspended one-shots are heap roots through the run queue: the
/// kont-registry path of the collector).
fn figure5_round(fuse: bool, gc_threshold: usize) -> (String, VmStats, bool) {
    let mut ts = ThreadSystem::with_config(
        Strategy::Call1Cc,
        VmConfig {
            compiler: CompilerOptions { fuse },
            gc_threshold: Some(gc_threshold),
            ..VmConfig::default()
        },
    );
    ts.eval("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))").unwrap();
    let round = |ts: &mut ThreadSystem| {
        for _ in 0..8 {
            ts.spawn("(lambda () (fib 12))").unwrap();
        }
        ts.run(8).unwrap()
    };
    round(&mut ts);
    ts.vm_mut().collect_now();
    let baseline = ts.vm_mut().heap().len();
    let before = ts.stats();
    let value = round(&mut ts);
    let delta = ts.stats().delta_since(&before);
    let answer = ts.vm_mut().write_value(&value);
    ts.vm_mut().collect_now();
    (answer, delta, ts.vm_mut().heap().len() == baseline)
}

#[test]
fn figure5_loop_is_invariant_under_fusion_and_gc_threshold() {
    const NEVER: usize = usize::MAX >> 1;
    let (answer, fused, clean) = figure5_round(true, NEVER);
    assert!(clean, "the never-collecting round leaked");
    assert!(fused.stack.reinstates_one > 100, "the threads really switched: {:?}", fused.stack);

    // Superinstruction fusion removes dispatches and nothing else: same
    // answer, same control events, strictly fewer instructions.
    let (unfused_answer, unfused, _) = figure5_round(false, NEVER);
    assert_eq!(unfused_answer, answer);
    assert_eq!(unfused.stack, fused.stack, "fusion changed what the loop does to the stack");
    assert!(
        fused.instructions < unfused.instructions,
        "fused {} vs unfused {} instructions",
        fused.instructions,
        unfused.instructions
    );

    // The collection threshold is invisible too: same answer, same
    // instructions and allocation volume, nothing left behind.
    for threshold in [256, 4096] {
        let (got, d, clean) = figure5_round(true, threshold);
        assert_eq!(got, answer, "threshold {threshold}");
        assert_eq!(d.instructions, fused.instructions, "threshold {threshold}");
        assert_eq!(d.heap.words_allocated, fused.heap.words_allocated, "threshold {threshold}");
        assert!(clean, "threshold {threshold} leaked");
        if threshold == 256 {
            assert!(d.heap.collections > 0, "a 256-object threshold must collect mid-round");
        }
    }
}
