//! End-to-end pool tests: completion, backpressure, budgets, fault
//! isolation, and clean shutdown with no leaked worker threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oneshot_exec::{Admission, ErrorKind, JobSpec, Pool};
use oneshot_sexp::MAX_NESTING;
use oneshot_vm::{CompilerOptions, Pipeline, Vm, VmConfig};

/// fib has identical toplevel definitions across jobs, so interleaved
/// jobs on a shared worker VM can't disagree about it.
fn fib_job(n: u64) -> JobSpec {
    JobSpec::new(
        format!("fib-{n}"),
        format!("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib {n})"),
    )
}

fn spin_job(name: &str, iters: u64) -> JobSpec {
    JobSpec::new(name, format!("(let loop ((i 0)) (if (< i {iters}) (loop (+ i 1)) 'spun))"))
}

/// A job that holds its worker's thread for about `ms` milliseconds in
/// either build profile: a loop of 1 ms OS sleeps, not reactor waits, so
/// the worker can run nothing else meanwhile.
fn busy_job(name: &str, ms: u64) -> JobSpec {
    JobSpec::new(
        name,
        format!("(let loop ((i 0)) (if (< i {ms}) (begin (sleep-ms 1) (loop (+ i 1))) 'spun))"),
    )
}

#[test]
fn jobs_complete_across_worker_counts() {
    for workers in [1, 2, 4] {
        let pool = Pool::builder().workers(workers).fuel_slice(512).build().unwrap();
        let handles: Vec<_> =
            (0..12).map(|i| pool.submit(fib_job(10 + (i % 5))).unwrap()).collect();
        for h in &handles {
            let outcome = h.wait();
            let expected = match h.name() {
                "fib-10" => "55",
                "fib-11" => "89",
                "fib-12" => "144",
                "fib-13" => "233",
                "fib-14" => "377",
                other => panic!("unexpected job {other}"),
            };
            assert_eq!(outcome.result.as_deref(), Ok(expected), "{}", h.name());
        }
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.completed, 12, "workers={workers}");
        assert_eq!(report.counters.failed, 0);
        assert_eq!(report.workers.len(), workers);
        let ran: u64 = report.workers.iter().map(|w| w.counters.completed).sum();
        assert_eq!(ran, 12);
    }
}

#[test]
fn long_jobs_are_preempted_not_starving() {
    // One long job plus quick jobs on a single worker: with a small fuel
    // slice the quick jobs finish long before the big one.
    let pool = Pool::builder().workers(1).fuel_slice(256).build().unwrap();
    let long = pool.submit(spin_job("long", 2_000_000).fuel(u64::MAX)).unwrap();
    let quick: Vec<_> = (0..4).map(|_| pool.submit(fib_job(10)).unwrap()).collect();
    for h in &quick {
        assert_eq!(h.wait().result.as_deref(), Ok("55"));
    }
    let outcome = long.wait();
    assert_eq!(outcome.result.as_deref(), Ok("spun"));
    assert!(outcome.slices > 1, "the long job must have been preempted");
    let report = pool.shutdown().unwrap();
    assert!(report.counters.requeues > 0, "preemption shows up as requeues");
}

#[test]
fn mixed_load_on_small_segments_copies_next_to_nothing() {
    // CPU-bound fib, capture-per-call ctak, deep recursion and sleeping
    // request handlers through one pool, preempted every 256 calls. A
    // preemption is a one-shot subcontinuation take and copies nothing; the
    // only copying left is overflow hysteresis on the deep jobs — a few
    // frames per segment crossed. The hysteresis has to stay small against
    // the segment: 128 slots against a 512-slot segment copied a quarter of
    // it at every crossing (7 680 → 80 380 slots on this load, caught by
    // this assertion).
    let sources = [
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)",
        "(define (ctak x y z) (call/1cc (lambda (k) (ctak-aux k x y z))))
         (define (ctak-aux k x y z)
           (if (not (< y x))
               (k z)
               (ctak-aux k (ctak (- x 1) y z) (ctak (- y 1) z x) (ctak (- z 1) x y))))
         (ctak 10 5 0)",
        "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1))))) (deep 5000)",
        "(begin (sleep-ms 5) 'served)",
    ];
    for workers in [1, 2] {
        let pool = Pool::builder().workers(workers).fuel_slice(256).build().unwrap();
        let handles: Vec<_> = (0..2 * sources.len())
            .map(|i| pool.submit(JobSpec::new(format!("mixed-{i}"), sources[i % 4])).unwrap())
            .collect();
        for h in &handles {
            let outcome = h.wait();
            assert!(outcome.result.is_ok(), "{}: {:?}", outcome.name, outcome.result);
        }
        let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.counters.completed, handles.len() as u64, "workers={workers}");
        assert_eq!(report.counters.failed + report.counters.panicked, 0, "workers={workers}");
        assert!(report.counters.requeues > 0, "a 256-call slice must preempt the CPU jobs");
        let copied: u64 = report.workers.iter().map(|w| w.vm.stack.slots_copied).sum();
        let instructions: u64 = report.workers.iter().map(|w| w.vm.instructions).sum();
        assert!(
            100 * copied < instructions,
            "workers={workers}: {copied} slots copied against {instructions} instructions"
        );
    }
}

#[test]
fn nonblocking_admission_gives_backpressure() {
    // Capacity-1 queue and a worker wedged on a sleep: the second
    // enqueued job sits in the injector, so a third is refused.
    let pool = Pool::builder().workers(1).queue_capacity(1).resident_cap(1).build().unwrap();
    let blocker = pool.submit(JobSpec::new("blocker", "(sleep-ms 300)")).unwrap();
    // Wait for the worker to pick the blocker up so the queue is empty...
    while pool.queue_depth() > 0 {
        std::thread::yield_now();
    }
    // ...then fill the single queue slot.
    let queued = pool.submit(fib_job(10)).unwrap();
    let err = pool.submit(fib_job(11).admission(Admission::NonBlocking)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::QueueFull);
    let spec = err.into_refused_spec().expect("the refused spec comes back");
    assert_eq!(spec.name(), "fib-11");
    assert_eq!(blocker.wait().result.as_deref(), Ok("#<void>"));
    assert_eq!(queued.wait().result.as_deref(), Ok("55"));
    pool.shutdown().unwrap();
}

#[test]
fn compile_errors_fail_at_submit() {
    let pool = Pool::builder().workers(1).build().unwrap();
    let err = pool.submit(JobSpec::new("bad", "(lambda)")).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Compile);
    assert!(err.vm_error().is_some(), "the compile diagnostic is chained");
    pool.shutdown().unwrap();
}

#[test]
fn a_shared_list_is_a_result_printed_in_full() {
    let pool = Pool::builder().workers(1).build().unwrap();
    let job = pool.submit(JobSpec::new("shared", "(let ((x (list 1 2))) (list x x))")).unwrap();
    assert_eq!(job.wait().result.as_deref(), Ok("((1 2) (1 2))"));
    pool.shutdown().unwrap();
}

#[test]
fn nesting_is_bounded_at_submit() {
    // At the bound a job compiles on the submitting thread, which needs
    // room in a debug build, so the whole test runs on a roomy thread.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let pool = Pool::builder().workers(1).build().unwrap();
            let quoted = |n: usize| format!("(quote {}1{})", "(".repeat(n), ")".repeat(n));
            let err = pool.submit(JobSpec::new("deep", quoted(100_000))).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Compile);
            let n = MAX_NESTING - 1;
            let job = pool.submit(JobSpec::new("at-bound", quoted(n))).unwrap();
            let written = job.wait().result.unwrap();
            assert_eq!(written, format!("{}1{}", "(".repeat(n), ")".repeat(n)));
            pool.shutdown().unwrap();
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn fuel_budget_times_out_runaway_jobs() {
    let pool = Pool::builder().workers(1).fuel_slice(500).build().unwrap();
    let runaway = pool.submit(spin_job("runaway", 10_000_000_000).fuel(5_000)).unwrap();
    let bystander = pool.submit(fib_job(12)).unwrap();
    let err = runaway.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::FuelExhausted);
    assert!(err.message().contains("of 5000"), "budget is reported: {err}");
    assert_eq!(bystander.wait().result.as_deref(), Ok("144"));
    let report = pool.shutdown().unwrap();
    assert_eq!(report.counters.timed_out, 1);
    assert_eq!(report.counters.completed, 1);
}

#[test]
fn deadline_exceeded_fails_even_a_sleeping_job() {
    // The job's wall-clock deadline fires while it is blocked on a timer
    // far longer than anyone wants to wait — the safety valve.
    let pool = Pool::builder().workers(1).build().unwrap();
    let h = pool
        .submit(JobSpec::new("sleeper", "(timer-wait 60000)").deadline(Duration::from_millis(100)))
        .unwrap();
    let err = h.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::DeadlineExceeded);
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.failed, 1);
}

#[test]
fn on_complete_runs_exactly_once_per_job() {
    let pool = Pool::builder().workers(2).build().unwrap();
    let hits = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let hits = Arc::clone(&hits);
            pool.submit(fib_job(10 + i % 3).on_complete(move |outcome| {
                assert!(outcome.result.is_ok());
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap()
        })
        .collect();
    for h in &handles {
        h.wait();
    }
    pool.shutdown().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 6);
}

#[test]
fn scheme_errors_are_vm_errors_with_context() {
    let pool = Pool::builder().workers(1).build().unwrap();
    let bad = pool.submit(JobSpec::new("type-error", "(car 42)")).unwrap();
    let err = bad.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Vm);
    assert_eq!(err.condition_kind(), Some("type-error"));
    let msg = err.to_string();
    assert!(msg.contains("job 0"), "context names the job: {msg}");
    assert!(msg.contains("worker 0"), "context names the worker: {msg}");
    assert!(msg.contains("car"), "root cause survives: {msg}");
    assert!(
        std::error::Error::source(&err).is_some(),
        "the VmError is reachable through the source chain"
    );
    pool.shutdown().unwrap();
}

#[test]
fn shot_continuation_in_pooled_job_is_a_vm_error() {
    // A call/1cc continuation shot twice inside a pooled job surfaces as
    // ErrorKind::Vm — no panic, no wedged worker.
    let pool = Pool::builder().workers(2).build().unwrap();
    let shot = pool.submit(JobSpec::new(
        "shot-twice",
        "(define k1 #f)
         (call/1cc (lambda (k) (set! k1 k)))
         (k1 0)",
    ));
    let shot = shot.unwrap();
    let after = pool.submit(fib_job(10)).unwrap();
    let err = shot.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Vm);
    assert!(err.to_string().contains("one-shot"), "{err}");
    assert_eq!(after.wait().result.as_deref(), Ok("55"), "worker is not wedged");
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.panicked, 0);
}

#[test]
fn panicking_job_is_isolated_and_pool_drains() {
    let pool = Pool::builder().workers(2).fuel_slice(512).build().unwrap();
    let before: Vec<_> = (0..4).map(|_| pool.submit(fib_job(11)).unwrap()).collect();
    let bomb = pool.submit(JobSpec::new("bomb", "(debug-panic! \"kaboom\")")).unwrap();
    let after: Vec<_> = (0..4).map(|_| pool.submit(fib_job(12)).unwrap()).collect();

    let err = bomb.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Panicked);
    assert!(err.message().contains("kaboom"), "{err}");
    // Every other job still finishes: either normally, or failed-fast as
    // WorkerReset collateral if it was parked on the panicking VM.
    for h in before.iter().chain(&after) {
        let outcome = h.wait();
        match outcome.result {
            Ok(v) => assert!(v == "89" || v == "144"),
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::WorkerReset);
                assert_eq!(e.culprit(), Some(bomb.id()));
            }
        }
    }
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.panicked, 1);
    assert_eq!(report.counters.vm_rebuilds, 1);
    assert_eq!(report.counters.completed + report.counters.failed, 9);
}

#[test]
fn a_panicking_completion_callback_still_resolves_its_job() {
    // The callback runs on the worker once the job has its value. Its
    // panic must not leave the handle waiting, and the worker recovers as
    // from any panic, though no job's VM call was running: the job parked
    // beside it fails as collateral with no culprit, and nothing counts
    // as `panicked`.
    let pool = Pool::builder().workers(1).build().unwrap();
    // The parked job's timer is long: it is failed, never woken.
    let parked =
        pool.submit(JobSpec::new("parked", "(begin (timer-wait 60000) 'survived)")).unwrap();
    let parked_by = std::time::Instant::now() + Duration::from_secs(20);
    while pool.stats().timer_waits == 0 {
        assert!(std::time::Instant::now() < parked_by, "the timer job never parked");
        std::thread::sleep(Duration::from_millis(2));
    }
    let cb = pool
        .submit(JobSpec::new("cb", "(+ 1 2)").on_complete(|_| panic!("callback panicked")))
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(cb.wait()).unwrap());
    let outcome = rx.recv_timeout(Duration::from_secs(5)).expect("the handle is still waiting");
    waiter.join().unwrap();
    assert_eq!(outcome.result.as_deref(), Ok("3"));
    let err = parked.wait().result.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::WorkerReset);
    assert_eq!(err.culprit(), None, "{err}");
    let later = pool.submit(JobSpec::new("later", "(* 6 7)")).unwrap();
    assert_eq!(later.wait().result.as_deref(), Ok("42"));
    let report = pool.shutdown_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(report.counters.panicked, 0);
    assert_eq!(report.counters.vm_rebuilds, 1);
}

#[test]
fn pinned_jobs_share_their_workers_vm_globals() {
    // Two pinned jobs on the same worker see each other's toplevel
    // definitions; pinning is the documented way to build listener +
    // handler constellations.
    let pool = Pool::builder().workers(2).build().unwrap();
    let setter =
        pool.submit(JobSpec::new("setter", "(define shared-cell 41) 'set").pin(0)).unwrap();
    assert_eq!(setter.wait().result.as_deref(), Ok("set"));
    let getter = pool.submit(JobSpec::new("getter", "(+ shared-cell 1)").pin(0)).unwrap();
    assert_eq!(getter.wait().result.as_deref(), Ok("42"));
    pool.shutdown().unwrap();
}

#[test]
fn an_idle_worker_takes_queued_work_while_its_peer_is_busy() {
    // A worker at its resident cap admits nothing more, so a job queued
    // behind a long one must run on the idle peer, not wait it out.
    let pool = Pool::builder().workers(2).resident_cap(1).build().unwrap();
    // Both VMs booted first, so either can take a job the moment it frees.
    for w in 0..2 {
        pool.submit(fib_job(1).pin(w)).unwrap().wait();
    }
    // Both workers busy for a moment, so the long job and the quick one
    // are queued together before either worker looks: whichever frees
    // first takes the long job and must leave the quick one to its peer.
    for w in 0..2 {
        pool.submit(busy_job(&format!("warm-{w}"), 30).pin(w)).unwrap();
    }
    let long = pool.submit(busy_job("long", 200)).unwrap();
    let quick = pool.submit(fib_job(10)).unwrap().wait();
    assert_eq!(quick.result.as_deref(), Ok("55"));
    assert!(long.outcome().is_none(), "the quick job waited out the long one");
    let long = long.wait();
    assert_eq!(long.result.as_deref(), Ok("spun"));
    assert_ne!(quick.worker, long.worker, "the quick job ran on the idle peer");
    pool.shutdown().unwrap();
}

#[test]
fn a_busy_worker_leaves_queued_work_to_an_empty_peer() {
    // Room is not enough: a worker that already runs a job leaves the
    // injector to a peer that has none. Without that, the worker running
    // the long job, which passes a slice boundary every few microseconds,
    // would admit the quick job before its sleeping peer woke.
    let pool = Pool::builder().workers(2).fuel_slice(64).build().unwrap();
    for w in 0..2 {
        pool.submit(fib_job(1).pin(w)).unwrap().wait();
    }
    // Let both finish their warm-up iteration and publish that they are
    // empty again; then let the long job start before the quick one comes.
    std::thread::sleep(Duration::from_millis(20));
    let long = pool.submit(spin_job("long", 1_000_000)).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let quick = pool.submit(fib_job(10)).unwrap().wait();
    assert_eq!(quick.result.as_deref(), Ok("55"));
    let long = long.wait();
    assert_eq!(long.result.as_deref(), Ok("spun"));
    assert_ne!(quick.worker, long.worker, "the quick job ran on the empty peer");
    pool.shutdown().unwrap();
}

#[test]
fn a_pinned_job_runs_ahead_of_the_queue() {
    // One worker admitting one job at a time: a job pinned to it is taken
    // before the unpinned jobs already waiting in the injector.
    let pool = Pool::builder().workers(1).resident_cap(1).build().unwrap();
    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    let record = |spec: JobSpec| {
        let order = Arc::clone(&order);
        spec.on_complete(move |outcome| order.lock().unwrap().push(outcome.name.clone()))
    };
    let queued: Vec<_> =
        (0..6).map(|i| pool.submit(record(busy_job(&format!("busy-{i}"), 20))).unwrap()).collect();
    let pinned = pool.submit(record(fib_job(10).pin(0))).unwrap();
    assert_eq!(pinned.wait().result.as_deref(), Ok("55"));
    for h in &queued {
        assert_eq!(h.wait().result.as_deref(), Ok("spun"));
    }
    let order = order.lock().unwrap();
    let pos = |name: &str| order.iter().position(|n| n == name).unwrap();
    assert!(pos("fib-10") < pos("busy-5"), "completion order: {order:?}");
    drop(order);
    pool.shutdown().unwrap();
}

#[test]
fn a_later_job_redefining_a_callee_is_seen_by_an_earlier_jobs_call_sites() {
    // The worker VM's per-global call cache must follow a redefinition
    // made by another job: `call-site` was compiled, linked and run by
    // job one; job two replaces `callee` (with a closure, then a builtin)
    // and job three calls through the old call site.
    let pool = Pool::builder().workers(1).build().unwrap();
    let run = |name: &str, src: &str| {
        let outcome = pool.submit(JobSpec::new(name, src).pin(0)).unwrap().wait();
        outcome.result.unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let defs = "(define (callee x) (list 'one x)) (define (call-site x) (cons 'got (callee x)))";
    assert_eq!(run("one", &format!("{defs} (call-site 1)")), "(got one 1)");
    assert_eq!(run("two", "(define (callee x) (list 'two x)) (call-site 2)"), "(got two 2)");
    assert_eq!(run("three", "(call-site 3)"), "(got two 3)");
    assert_eq!(run("four", "(set! callee car) (call-site '(4))"), "(got . 4)");
    pool.shutdown().unwrap();
}

#[test]
fn shutdown_reports_every_worker_and_leaks_nothing() {
    let pool = Pool::builder().workers(3).build().unwrap();
    for i in 0..6 {
        pool.submit(fib_job(10 + i % 3)).unwrap();
    }
    // A short deadline that still comfortably covers the drain: if a
    // worker thread wedged or leaked, this returns Err and the test fails.
    let report = pool.shutdown_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(report.workers.len(), 3, "every worker joined and reported");
    assert_eq!(report.counters.completed, 6);
    let instructions: u64 = report.workers.iter().map(|w| w.vm.instructions).sum();
    assert!(instructions > 0, "per-worker VmStats were aggregated");
}

#[test]
fn submit_after_shutdown_is_refused() {
    let pool = Pool::builder().workers(1).build().unwrap();
    let stats = pool.stats();
    assert_eq!(stats.submitted, 0);
    // Close via drop path: build a second pool to keep using the API.
    drop(pool);
    let pool = Pool::builder().workers(1).build().unwrap();
    let h = pool.submit(fib_job(10)).unwrap();
    h.wait();
    pool.shutdown().unwrap();
}

#[test]
fn mixed_sleep_and_cpu_jobs_overlap_across_workers() {
    // Four 60 ms sleeps on four workers should take far less than the
    // 240 ms serial total — the scaling mechanism E11 measures.
    let pool = Pool::builder().workers(4).build().unwrap();
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            pool.submit(JobSpec::new(format!("io-{i}"), "(begin (sleep-ms 60) 'served)")).unwrap()
        })
        .collect();
    for h in &handles {
        assert_eq!(h.wait().result.as_deref(), Ok("served"));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "4 sleeps of 60ms must overlap, took {elapsed:?}"
    );
    pool.shutdown().unwrap();
}

#[test]
fn timer_wait_suspends_instead_of_spinning() {
    // 8 concurrent 80 ms timer-waits on ONE worker finish in ~one timer
    // period, and the pool counts the suspensions: blocked time holds no
    // worker and burns no fuel.
    let pool = Pool::builder().workers(1).resident_cap(16).build().unwrap();
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            pool.submit(JobSpec::new(format!("wait-{i}"), "(begin (timer-wait 80) 'woke)")).unwrap()
        })
        .collect();
    for h in &handles {
        assert_eq!(h.wait().result.as_deref(), Ok("woke"));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "8 overlapping 80ms waits on one worker took {elapsed:?}"
    );
    let report = pool.shutdown().unwrap();
    assert_eq!(report.counters.timer_waits, 8);
    assert!(report.counters.io_wakeups >= 8);
    assert!(report.counters.blocked_highwater >= 2, "the waits actually overlapped");
}

#[test]
fn a_pool_refuses_a_non_direct_pipeline() {
    // The engine host the workers run on needs direct-pipeline control: a
    // CPS pool would build, then fail every job in `%engine-job`.
    let cfg = VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() };
    let err = Pool::builder().workers(1).vm_config(cfg).build().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn a_pool_refuses_a_stack_config_its_workers_cannot_build() {
    // 256-slot segments cannot hold the default copy bound plus headroom:
    // every worker would panic building its VM, and a submitted job would
    // wait forever.
    let mut cfg = VmConfig::default();
    cfg.stack.segment_slots = 256;
    let err = Pool::builder().workers(1).vm_config(cfg).build().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("copy_bound plus min_headroom"), "{err}");
}

#[test]
fn jobs_are_compiled_with_the_workers_compiler_options() {
    // The job counts the instructions its own loop retires, so its answer
    // tells fused code from unfused code.
    let src = "(define (count-to n) (let loop ((i 0)) (if (< i n) (loop (+ i 1)) i)))
               (define (retired) (cdr (assq 'instructions (vm-stats))))
               (let ((before (retired))) (count-to 300) (- (retired) before))";
    let on_vm = |fuse: bool| {
        let cfg = VmConfig { compiler: CompilerOptions { fuse }, ..VmConfig::default() };
        let mut vm = Vm::builder().config(cfg).build();
        let v = vm.eval_str(src).unwrap();
        vm.write_value(&v)
    };
    let (fused, unfused) = (on_vm(true), on_vm(false));
    assert_ne!(fused, unfused, "fusion must change the count for the test to mean anything");
    let cfg = VmConfig { compiler: CompilerOptions { fuse: false }, ..VmConfig::default() };
    let pool = Pool::builder().workers(1).fuel_slice(1 << 20).vm_config(cfg).build().unwrap();
    let outcome = pool.submit(JobSpec::new("count", src)).unwrap().wait();
    assert_eq!(outcome.result.as_deref(), Ok(unfused.as_str()));
    pool.shutdown().unwrap();
}
