//! Pool-level chaos: deterministic fault plans in every worker VM, with
//! the transient/permanent retry taxonomy under test.
//!
//! Invariants:
//! - transient faults (injected out-of-memory) are retried and recover;
//! - permanent errors (type errors) fail fast, never burning retries;
//! - under arbitrary seeded schedules the pool stays live: every handle
//!   resolves, the counters balance, and shutdown aggregates the
//!   per-worker condition/fault/retry totals.

use std::time::Duration;

use oneshot_exec::{ErrorKind, JobSpec, Pool};
use oneshot_vm::{FaultPlan, VmConfig};

fn chaos_config(plan: FaultPlan) -> VmConfig {
    VmConfig { fault_plan: Some(plan), ..VmConfig::default() }
}

fn alloc_job(i: u64) -> JobSpec {
    JobSpec::new(
        format!("alloc-{i}"),
        "(define (chew n acc) (if (zero? n) acc (chew (- n 1) (cons n acc)))) \
         (length (chew 300 '()))",
    )
}

#[test]
fn transient_oom_is_retried_and_recovers() {
    // Every worker VM fails its 40th allocation; the victim job errors
    // with a catchable out-of-memory, is requeued, and succeeds on a VM
    // whose one-shot clock has already fired.
    let pool = Pool::builder()
        .workers(2)
        .max_retries(2)
        .vm_config(chaos_config(FaultPlan::none().with_alloc_fault(40)))
        .build()
        .unwrap();
    let handles: Vec<_> = (0..8).map(|i| pool.submit(alloc_job(i)).unwrap()).collect();
    for h in &handles {
        assert_eq!(h.wait().result.as_deref(), Ok("300"), "{}", h.name());
    }
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.completed, 8);
    assert_eq!(report.counters.failed, 0);
    assert!(report.counters.retried >= 1, "at least one worker must have tripped its fault");
    let worker_retries: u64 = report.workers.iter().map(|w| w.counters.retried).sum();
    assert_eq!(worker_retries, report.counters.retried);
    let faults: u64 = report.workers.iter().map(|w| w.vm.faults_injected).sum();
    assert_eq!(faults, report.counters.retried, "each retry stems from one injected fault");
}

#[test]
fn permanent_errors_fail_fast_without_retry() {
    let pool = Pool::builder().workers(1).max_retries(3).build().unwrap();
    let bad = pool.submit(JobSpec::new("bad", "(car 5)")).unwrap();
    let good = pool.submit(JobSpec::new("good", "(+ 1 2)")).unwrap();
    let err = bad.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Vm);
    assert_eq!(err.condition_kind(), Some("type-error"), "got: {err}");
    assert_eq!(good.wait().result.as_deref(), Ok("3"));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.retried, 0, "a type error must not burn retries");
    assert_eq!(report.counters.failed, 1);
    assert_eq!(report.counters.completed, 1);
}

#[test]
fn exhausted_retries_surface_the_transient_error() {
    // A heap budget far below the job's live set makes out-of-memory
    // permanent in practice: every attempt fails the same way, and after
    // max_retries the error is delivered rather than retried forever.
    let cfg = VmConfig { heap_budget: Some(3_000), ..VmConfig::default() };
    let pool = Pool::builder().workers(1).max_retries(2).vm_config(cfg).build().unwrap();
    let spec = JobSpec::new(
        "hog",
        "(define (chew n acc) (if (zero? n) acc (chew (- n 1) (cons n acc)))) \
         (length (chew 100000 '()))",
    );
    let h = pool.submit(spec).unwrap();
    let err = h.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Vm);
    assert_eq!(err.condition_kind(), Some("out-of-memory"), "got: {err}");
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.retried, 2, "both retry attempts were spent");
    assert_eq!(report.counters.failed, 1);
}

#[test]
fn seeded_schedules_keep_the_pool_live() {
    for seed in 0..6u64 {
        let mut cfg = chaos_config(FaultPlan::seeded(seed, 5_000));
        cfg.heap_budget = Some(200_000);
        let pool = Pool::builder()
            .workers(3)
            .fuel_slice(512)
            .max_retries(2)
            .vm_config(cfg)
            .build()
            .unwrap();
        let handles: Vec<_> = (0..24)
            .map(|i| {
                let spec = match i % 3 {
                    0 => alloc_job(i),
                    1 => JobSpec::new(
                        format!("deep-{i}"),
                        "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1))))) (deep 500)",
                    ),
                    _ => JobSpec::new(
                        format!("fib-{i}"),
                        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)",
                    ),
                };
                pool.submit(spec).unwrap()
            })
            .collect();
        // Liveness: every handle resolves; a retried transient either
        // recovers (expected — the clocks are one-shot) or reports a
        // structured error.
        for h in &handles {
            let outcome = h.wait();
            if let Err(e) = &outcome.result {
                assert!(
                    matches!(e.kind(), ErrorKind::Vm | ErrorKind::FuelExhausted),
                    "seed {seed}: job {} died unstructured: {e}",
                    h.name()
                );
            }
        }
        let report = pool.shutdown_timeout(Duration::from_secs(60)).unwrap();
        let c = report.counters;
        assert_eq!(c.submitted, 24, "seed {seed}");
        assert_eq!(c.completed + c.failed, 24, "seed {seed}: every job must resolve once");
        let worker_retries: u64 = report.workers.iter().map(|w| w.counters.retried).sum();
        assert_eq!(worker_retries, c.retried, "seed {seed}: shutdown must aggregate retries");
        let conditions: u64 = report.workers.iter().map(|w| w.vm.conditions_raised).sum();
        assert!(
            conditions >= c.failed,
            "seed {seed}: every condition-failed job shows up in the totals"
        );
    }
}
