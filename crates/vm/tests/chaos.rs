//! Chaos suite: seeded fault schedules against guarded workloads.
//!
//! Every schedule drives the same allocation- and control-heavy workload
//! under a deterministic [`FaultPlan`] plus resource guards. Whatever the
//! schedule does, the VM must uphold three invariants:
//!
//! 1. **No panics, only structure** — the run ends in a value, a caught
//!    condition, or a structured `Uncaught` with a recognized kind.
//! 2. **Balanced winds** — every `dynamic-wind` before-thunk that ran is
//!    matched by its after-thunk, even when a fault unwinds the extent.
//! 3. **No leaks** — after the dust settles, a full collection returns
//!    the heap to the post-prelude baseline and the segment population to
//!    its resting size.

use oneshot_vm::{FaultPlan, Vm, VmError};
use proptest::prelude::*;

/// Fault kinds a guarded workload may legitimately observe.
const KINDS: &[&str] = &["out-of-memory", "stack-overflow", "fuel-exhausted"];

/// One chaos run: build a VM under `plan` and the seed-selected guards,
/// run the guarded workload, and check the three invariants.
fn run_schedule(seed: u64) {
    let plan = FaultPlan::seeded(seed, 20_000);
    let mut b = Vm::builder().fault_plan(plan);
    // Vary the resource guards by seed so schedules also explore budget
    // OOM and real segment ceilings, not just injected faults.
    if seed.is_multiple_of(3) {
        b = b.heap_budget(4_000);
    }
    let deep = if seed.is_multiple_of(2) {
        b = b.max_stack_segments(8);
        4_000 // enough recursion to threaten a small ceiling
    } else {
        60
    };
    let mut vm = b.build();

    vm.collect_now();
    let baseline = vm.heap().len();
    let resting_segments = vm.stack_segment_count();

    // The workload allocates (chew), recurses (deep), escapes (call/1cc),
    // and brackets everything in a counted dynamic-wind. The guard turns
    // any condition into its kind; the result carries the wind imbalance.
    let src = format!(
        "(let ((enters 0) (exits 0))
           (letrec ((chew (lambda (n acc)
                            (if (zero? n) acc (chew (- n 1) (cons n acc)))))
                    (deep (lambda (n)
                            (if (zero? n) 0 (+ 1 (deep (- n 1))))))
                    (work (lambda (i)
                            (dynamic-wind
                              (lambda () (set! enters (+ enters 1)))
                              (lambda ()
                                (+ (length (chew 40 '()))
                                   (call/1cc (lambda (k) (k (deep {deep}))))))
                              (lambda () (set! exits (+ exits 1))))))
                    (loop (lambda (i acc)
                            (if (zero? i) acc (loop (- i 1) (+ acc (work i)))))))
             (let ((r (call-with-guard
                        (lambda (c) (cons 'caught (condition-kind c)))
                        (lambda () (loop 25 0)))))
               (list (if (pair? r) (cdr r) 'ok) (- enters exits)))))"
    );

    match vm.eval_str(&src) {
        Ok(v) => {
            let shown = vm.write_value(&v);
            let ok = shown == "(ok 0)" || KINDS.iter().any(|k| shown == format!("({k} 0)"));
            assert!(ok, "seed {seed}: malformed outcome {shown}");
        }
        // A fault can fire before the guard is installed (the letrec
        // closures allocate); it must still surface as a structured
        // uncaught condition with a recognized kind.
        Err(VmError::Uncaught { kind, .. }) => {
            let kind = kind.as_deref().unwrap_or("<none>");
            assert!(
                KINDS.contains(&kind),
                "seed {seed}: uncaught fault with unexpected kind {kind}"
            );
        }
        Err(other) => panic!("seed {seed}: non-condition failure {other}"),
    }

    let stats = vm.stats();
    assert!(stats.faults_injected <= 3, "seed {seed}: more faults consumed than the plan holds");

    // Clear the accumulator register. The first attempts may themselves
    // consume leftover fault latches (part of the chaos contract); each
    // clock fires once, so a clean eval arrives within a few tries.
    for _ in 0..4 {
        if vm.eval_str("0").is_ok() {
            break;
        }
    }
    vm.take_output();
    vm.collect_now();
    assert_eq!(
        vm.heap().len(),
        baseline,
        "seed {seed}: heap did not return to the post-prelude baseline"
    );
    assert!(
        vm.stack_segment_count() <= resting_segments.max(1 + 8),
        "seed {seed}: stack segments leaked ({} live, resting was {resting_segments})",
        vm.stack_segment_count()
    );
}

/// The bulk of the schedule space: 1024 deterministic seeds, covering all
/// guard combinations (seed mod 6 selects them) and fault countdowns.
#[test]
fn thousand_seeded_schedules_uphold_invariants() {
    for seed in 0..1024 {
        run_schedule(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random seeds beyond the deterministic sweep.
    #[test]
    fn random_schedules_uphold_invariants(seed in 1024u32..u32::MAX) {
        run_schedule(u64::from(seed));
    }
}

/// The same seed must consume the same faults and produce the same
/// outcome — chaos schedules are reproducible from one integer.
#[test]
fn schedules_are_reproducible() {
    for seed in [3, 7, 42, 999] {
        let once = observe(seed);
        let twice = observe(seed);
        assert_eq!(once, twice, "seed {seed} diverged between runs");
    }
}

fn observe(seed: u64) -> (String, u64, u64) {
    let mut vm = Vm::builder().fault_plan(FaultPlan::seeded(seed, 500)).heap_budget(4_000).build();
    let out = match vm.eval_str(
        "(call-with-guard
           (lambda (c) (condition-kind c))
           (lambda ()
             (letrec ((chew (lambda (n acc)
                              (if (zero? n) acc (chew (- n 1) (cons n acc))))))
               (length (chew 200 '())))))",
    ) {
        Ok(v) => vm.write_value(&v),
        Err(e) => format!("err: {e}"),
    };
    let stats = vm.stats();
    (out, stats.faults_injected, stats.conditions_raised)
}

/// Recovery is a rate, not a speed: two guarded workloads — one
/// allocating, one recursing and escaping under a `dynamic-wind` — under
/// 48 seeded schedules at each of three fault densities. Every run ends
/// clean, recovered by its guard, or in a structured uncaught condition
/// (a fault that fired before the guard was installed); the guard must
/// recover at least 85 % of the runs a fault reached, and the densest
/// horizon must really inject faults.
#[test]
fn guards_recover_most_faults_at_every_density() {
    let workloads = [
        (
            "alloc",
            "(call-with-guard
               (lambda (c) (cons 'caught (condition-kind c)))
               (lambda ()
                 (letrec ((chew (lambda (n acc)
                                  (if (zero? n) acc (chew (- n 1) (cons n acc))))))
                   (begin (length (chew 400 '())) '(ok . #f)))))",
        ),
        (
            "control",
            "(call-with-guard
               (lambda (c) (cons 'caught (condition-kind c)))
               (lambda ()
                 (letrec ((deep (lambda (n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))))
                   (begin
                     (dynamic-wind
                       (lambda () #t)
                       (lambda () (+ (deep 400) (call/1cc (lambda (k) (k 1)))))
                       (lambda () #t))
                     '(ok . #f)))))",
        ),
    ];
    const SEEDS: u64 = 48;
    for (name, src) in workloads {
        for horizon in [500u64, 5_000, 50_000] {
            let (mut recovered, mut uncaught, mut faults) = (0u64, 0u64, 0u64);
            for seed in 0..SEEDS {
                let plan =
                    FaultPlan::seeded(seed.wrapping_mul(0x9E37).wrapping_add(horizon), horizon);
                let mut vm = Vm::builder()
                    .fault_plan(plan)
                    .heap_budget(50_000)
                    .max_stack_segments(16)
                    .build();
                match vm.eval_str(src) {
                    Ok(v) => match vm.write_value(&v).as_str() {
                        "(ok . #f)" => {}
                        shown => {
                            assert!(shown.starts_with("(caught . "), "{name}@{horizon}: {shown}");
                            recovered += 1;
                        }
                    },
                    Err(VmError::Uncaught { .. }) => uncaught += 1,
                    Err(other) => panic!("{name}@{horizon} seed {seed}: unstructured {other}"),
                }
                faults += vm.stats().faults_injected;
            }
            let affected = recovered + uncaught;
            assert!(
                affected == 0 || recovered as f64 >= 0.85 * affected as f64,
                "{name}@{horizon}: {recovered} recovered, {uncaught} uncaught of {SEEDS} runs"
            );
            if horizon == 500 {
                assert!(faults > 0, "{name}: the densest horizon injected nothing");
            }
        }
    }
}
