//! The engine contract: what a slice, a park and a resume must do now
//! that all three are the VM's prompt primitives — winders, nesting,
//! wake statuses, the cost of a park, stale ids, parks across
//! collections, and injected expiries that land outside every slice.

use oneshot_threads::{EngineHost, EngineId, EngineStep, Wait};
use oneshot_vm::{CompiledProgram, FaultPlan, Pipeline, Vm, VmError};

fn compile(src: &str) -> CompiledProgram {
    Vm::compile_str(src, Pipeline::Direct, Default::default()).unwrap()
}

/// Steps `id` to completion in `fuel`-call slices, resuming every block
/// at once. Returns the final value and the (parked, blocked) step counts.
fn run(host: &mut EngineHost, id: EngineId, fuel: u64) -> (String, usize, usize) {
    let (mut parked, mut blocked) = (0, 0);
    loop {
        match host.step(id, fuel).unwrap() {
            EngineStep::Parked => parked += 1,
            EngineStep::Blocked(_) => blocked += 1,
            EngineStep::Done(v) => return (host.vm().write_value(&v), parked, blocked),
        }
    }
}

const SPIN: &str = "(let loop ((i 0)) (if (< i 2000) (loop (+ i 1)) 'spun))";

#[test]
fn winders_run_once_per_park_and_once_per_resume() {
    let mut host = EngineHost::new();
    let winding = |body: &str| {
        compile(&format!(
            "(define log '())
             (dynamic-wind
               (lambda () (set! log (cons 'in log)))
               (lambda () {body})
               (lambda () (set! log (cons 'out log))))
             (reverse log)"
        ))
    };
    let expected = |suspensions: usize| {
        let mut log = vec!["in"];
        for _ in 0..suspensions {
            log.extend(["out", "in"]);
        }
        log.push("out");
        format!("({})", log.join(" "))
    };

    // Timer expiry inside the extent.
    let id = host.spawn_program(&winding(SPIN)).unwrap();
    let (log, parked, blocked) = run(&mut host, id, 300);
    assert!(parked >= 3 && blocked == 0, "{parked} parks, {blocked} blocks");
    assert_eq!(log, expected(parked));

    // %engine-block inside the extent.
    let id = host
        .spawn_program(&winding("(begin (timer-wait 1) (timer-wait 1) (timer-wait 1))"))
        .unwrap();
    let (log, parked, blocked) = run(&mut host, id, 100_000);
    assert_eq!((parked, blocked), (0, 3));
    assert_eq!(log, "(in out in out in out in out)");
}

#[test]
fn an_inner_engines_expiry_suspends_only_the_inner_engine() {
    let mut host = EngineHost::new();
    let id = host
        .spawn_program(&compile(&format!(
            "(let retry ((e (make-engine (lambda () {SPIN}))) (expiries 0))
               (e 100
                  (lambda (v left) (list v (> expiries 5)))
                  (lambda (e2) (retry e2 (+ expiries 1)))))"
        )))
        .unwrap();
    // Every inner expiry goes to the inner engine's `expire`; none of
    // them may end the job's own slice.
    let (value, parked, blocked) = run(&mut host, id, 1_000_000);
    assert_eq!(value, "(spun #t)");
    assert_eq!((parked, blocked), (0, 0));
}

#[test]
fn a_wake_status_is_delivered_at_the_wait() {
    let mut host = EngineHost::new();
    let prog = compile(
        "(define lst (tcp-listen 0))
         (define r
           (call-with-guard
             (lambda (c) (list 'caught (condition-kind c)))
             (lambda () (tcp-accept lst))))
         (tcp-close lst)
         r",
    );
    let id = host.spawn_program(&prog).unwrap();
    let blocked = |step: EngineStep| matches!(step, EngineStep::Blocked(Wait::Readable(_)));
    assert!(blocked(host.step(id, 100_000).unwrap()), "accept with no peer blocks");
    // No status: the wait loop retries the accept and blocks again.
    assert!(blocked(host.step_with_status(id, 100_000, None).unwrap()));
    // io-timeout: raised inside tcp-accept, caught by the job's own guard.
    let EngineStep::Done(v) = host.step_with_status(id, 100_000, Some("io-timeout")).unwrap()
    else {
        panic!("the guard returns")
    };
    assert_eq!(host.vm().write_value(&v), "(caught io-timeout)");
    assert_eq!(host.vm().net_live(), 0);
}

#[test]
fn blocking_outside_a_slice_is_a_catchable_condition() {
    let mut host = EngineHost::new();
    for wait in ["(timer-wait 5)", "(tcp-accept (tcp-listen 0))"] {
        let e = host.vm_mut().eval_str(wait).unwrap_err();
        let VmError::Uncaught { kind, .. } = e else { panic!("{wait}: {e}") };
        assert_eq!(kind.as_deref(), Some("no-matching-prompt"), "{wait}");
    }
    let caught = host
        .vm_mut()
        .eval_str("(call-with-guard (lambda (c) (condition-kind c)) (lambda () (timer-wait 5)))")
        .unwrap();
    assert_eq!(host.vm().write_value(&caught), "no-matching-prompt");
}

/// Guest heap objects one suspend-and-resume cycle may allocate: the
/// slice closure, the prompt's tag pair, the subcontinuation, the take
/// handler and its result pair. The resume is a one-value push with no
/// winders to cross, so it allocates nothing.
const OBJECTS_PER_PARK: u64 = 5;

/// Steps `id` in `fuel`-call slices until it completes, checking that
/// every suspension after the first is one take and one push that copy
/// nothing and allocate at most `objects` guest objects. Returns the
/// number of suspensions checked.
fn check_suspensions(host: &mut EngineHost, id: EngineId, fuel: u64, objects: u64) -> usize {
    assert!(!matches!(host.step(id, fuel).unwrap(), EngineStep::Done(_)));
    let mut suspensions = 0;
    loop {
        let before = host.vm().stats();
        if let EngineStep::Done(_) = host.step(id, fuel).unwrap() {
            return suspensions;
        }
        suspensions += 1;
        let d = host.vm().stats().delta_since(&before);
        assert_eq!(d.stack.subconts_taken, 1);
        assert_eq!(d.stack.subconts_pushed, 1);
        assert_eq!(d.stack.captures_one + d.stack.captures_multi, 0);
        assert_eq!(d.stack.slots_copied, 0);
        assert!(
            d.heap.objects_allocated <= objects,
            "a suspension allocated {} objects",
            d.heap.objects_allocated
        );
    }
}

#[test]
fn a_park_is_one_subcontinuation_take_and_a_handful_of_objects() {
    let mut host = EngineHost::new();
    let id = host.spawn_program(&compile(SPIN)).unwrap();
    assert!(check_suspensions(&mut host, id, 100, OBJECTS_PER_PARK) > 10);
}

#[test]
fn a_timer_wait_block_and_resume_costs_what_a_park_does() {
    // A block is a park that also conses its (kind . handle) wait. Its
    // resume is the same one-value push.
    let mut host = EngineHost::new();
    let waits = "(let loop ((i 0)) (if (< i 20) (begin (timer-wait 1) (loop (+ i 1))) 'waited))";
    let id = host.spawn_program(&compile(waits)).unwrap();
    assert_eq!(check_suspensions(&mut host, id, 100_000, OBJECTS_PER_PARK + 1), 19);
}

#[test]
fn a_dropped_engine_is_forgotten_and_its_stale_id_refused_once_its_slot_is_reused() {
    let mut host = EngineHost::new();
    let old = host.spawn_program(&compile(SPIN)).unwrap();
    assert_eq!(host.step(old, 100).unwrap(), EngineStep::Parked);
    assert!(host.drop_engine(old));
    assert!(!host.drop_engine(old), "double drop is a no-op");
    assert_eq!(host.live(), 0);
    let new = host.spawn_program(&compile("'fresh")).unwrap();
    assert_eq!(host.vm_mut().roots_mut().len(), 1, "the new engine took the freed slot");
    assert_ne!(new, old);
    let e = host.step(old, 100).unwrap_err();
    assert!(e.to_string().contains("unknown engine"), "{e}");
    assert!(!host.drop_engine(old));
    assert_eq!(host.live(), 1, "the stale id touched nothing");
    assert_eq!(run(&mut host, new, 100).0, "fresh");
}

#[test]
fn parked_engines_survive_collections() {
    let mut host = EngineHost::with_vm(Vm::builder().gc_threshold(256).build());
    let job = |i| {
        compile(&format!(
            "(let loop ((n 0) (l '()))
               (if (< n 300)
                   (begin (if (= n 150) (timer-wait 1)) (loop (+ n 1) (cons n l)))
                   (list {i} (apply + l))))"
        ))
    };
    let mut ids: Vec<_> = (0..8).map(|i| (i, host.spawn_program(&job(i)).unwrap())).collect();
    let mut steps = 0;
    // Round-robin in short slices with a collection before every step, so
    // each engine is parked — preempted or blocked — across collections.
    while !ids.is_empty() {
        ids.retain(|&(i, id)| {
            host.vm_mut().collect_now();
            steps += 1;
            match host.step(id, 50).unwrap() {
                EngineStep::Done(v) => {
                    assert_eq!(host.vm().write_value(&v), format!("({i} 44850)"));
                    false
                }
                _ => true,
            }
        });
    }
    assert!(steps > 8 * 3, "every engine parked more than twice: {steps} steps");
}

/// Runs a fresh host whose handler is installed, arming a timer fault
/// `n` guarded entries ahead at `arm_at` (0: before the spawn; k: before
/// the k-th step), and returns what `run` returns for the whole job plus
/// the faults consumed by the time it was spawned.
fn run_with_timer_fault(src: &str, n: u64, arm_at: usize) -> ((String, usize, usize), u64) {
    let mut host = EngineHost::new();
    let warm = host.spawn_program(&compile("'warm")).unwrap();
    assert!(matches!(host.step(warm, 100).unwrap(), EngineStep::Done(_)));
    let plan = FaultPlan::none().with_timer_fault(n);
    if arm_at == 0 {
        host.vm_mut().arm_fault_plan(&plan);
    }
    let id = host.spawn_program(&compile(src)).unwrap();
    let at_spawn = host.vm().stats().faults_injected;
    for _ in 1..arm_at {
        assert_eq!(host.step(id, 300).unwrap(), EngineStep::Parked);
    }
    if arm_at > 0 {
        host.vm_mut().arm_fault_plan(&plan);
    }
    let mut outcome = run(&mut host, id, 300);
    outcome.1 += arm_at.saturating_sub(1);
    assert_eq!(host.vm().stats().faults_injected, 1, "n={n} arm_at={arm_at}");
    assert_eq!(host.live(), 0);
    (outcome, at_spawn)
}

#[test]
fn an_injected_expiry_outside_every_slice_preempts_nothing() {
    let (baseline, parks, _) = {
        let mut host = EngineHost::new();
        let id = host.spawn_program(&compile(SPIN)).unwrap();
        run(&mut host, id, 300)
    };
    assert_eq!(baseline, "spun");

    // On the spawn's one guarded entry, `%engine-job`'s: no prompt is set,
    // the fault is consumed, and the job then runs exactly as unfaulted.
    let (outcome, at_spawn) = run_with_timer_fault(SPIN, 1, 0);
    assert_eq!(at_spawn, 1, "the expiry fired at the spawn");
    assert_eq!(outcome, ("spun".into(), parks, 0));

    // On the entry of %engine-slice itself, before the third slice's
    // prompt is pushed: that slice still runs in full.
    let (outcome, _) = run_with_timer_fault(SPIN, 1, 3);
    assert_eq!(outcome, ("spun".into(), parks, 0));

    // Anywhere else around a park — the slice prologue, the job, the take
    // handler running after the prompt is gone: the job still finishes
    // once, and an expiry costs at most one extra park.
    for n in 2..=40 {
        let ((value, parked, blocked), _) = run_with_timer_fault(SPIN, n, 2);
        assert_eq!(value, "spun", "n={n}");
        assert!(parked == parks || parked == parks + 1, "n={n}: {parked} parks");
        assert_eq!(blocked, 0);
    }
    // The same sweep across a block: the wait is registered exactly once.
    let waiting = format!("(begin (timer-wait 1) {SPIN})");
    for n in 1..=16 {
        let ((value, parked, blocked), _) = run_with_timer_fault(&waiting, n, 1);
        assert_eq!(value, "spun", "n={n}");
        assert!(parked == parks || parked == parks + 1, "n={n}: {parked} parks");
        assert_eq!(blocked, 1, "n={n}");
    }
}
