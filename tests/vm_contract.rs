//! Tier-1 contract for the interpreter (ROADMAP item 4d): the paper's
//! programs run through the facade on both pipelines with their answers
//! checked against literals, the direct and CPS pipelines agreeing, and
//! the guest instruction and call counts pinned. The counts are a
//! determinism contract, not a speed measure: a dispatch-loop change that
//! retires one instruction more or fewer — or counts a call twice — fails
//! `cargo test -q` here, not only in the E9/E14 experiment smokes.

use oneshot::vm::{Pipeline, ProbeSpec, Vm, VmStats};

const FIB: &str = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
const TAK: &str = "
  (define (tak x y z)
    (if (not (< y x))
        z
        (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
const CTAK: &str = "
  (define (ctak x y z)
    (CAPTURE (lambda (k) (ctak-aux k x y z))))
  (define (ctak-aux k x y z)
    (if (not (< y x))
        (k z)
        (ctak-aux k (ctak (- x 1) y z) (ctak (- y 1) z x) (ctak (- z 1) x y))))";
const DEEP: &str = "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))";
const GEN: &str = "
  (define (gen-sum n)
    (let ((g (make-generator
               (lambda (yield)
                 (let loop ((i 1))
                   (if (<= i n) (begin (yield i) (loop (+ i 1))) 0))))))
      (let drain ((acc 0))
        (let ((v (generator-next g)))
          (if (generator-done? v) acc (drain (+ acc v)))))))";

/// One pinned program: definitions, the expression to time, its answer,
/// and the guest `(instructions, calls)` the expression retires on the
/// direct and the CPS pipeline. They change only when the compiler's
/// output or the prelude does: the calls date from the commit before the
/// register-resident dispatch loop, the instructions from operand-direct
/// code generation and the to-slot superinstructions (CHANGES.md has the
/// before/after table).
struct Pinned {
    name: &'static str,
    defs: String,
    expr: &'static str,
    answer: &'static str,
    direct: (u64, u64),
    cps: (u64, u64),
}

fn programs() -> Vec<Pinned> {
    vec![
        Pinned {
            name: "fib",
            defs: FIB.into(),
            expr: "(fib 20)",
            answer: "6765",
            direct: (131_347, 21_891),
            cps: (372_147, 43_782),
        },
        Pinned {
            name: "tak",
            defs: TAK.into(),
            expr: "(tak 18 12 6)",
            answer: "7",
            direct: (492_974, 63_609),
            cps: (1_176_771, 111_316),
        },
        Pinned {
            name: "ctak-1cc",
            defs: CTAK.replace("CAPTURE", "call/1cc"),
            expr: "(ctak 12 6 0)",
            answer: "1",
            direct: (1_081_360, 254_437),
            cps: (2_289_934, 302_144),
        },
        Pinned {
            name: "ctak-cc",
            defs: CTAK.replace("CAPTURE", "call/cc"),
            expr: "(ctak 12 6 0)",
            answer: "1",
            direct: (1_081_360, 254_437),
            cps: (2_289_934, 302_144),
        },
        Pinned {
            name: "deep",
            defs: DEEP.into(),
            expr: "(deep 20000)",
            answer: "20000",
            direct: (180_009, 20_001),
            cps: (380_018, 40_002),
        },
        Pinned {
            name: "generator",
            defs: GEN.into(),
            expr: "(gen-sum 1000)",
            answer: "500500",
            direct: (56_121, 11_012),
            cps: (246_216, 25_023),
        },
    ]
}

/// Evaluates `expr` on `vm` and returns its printed answer with the
/// statistics delta of that evaluation alone.
fn measure(vm: &mut Vm, expr: &str) -> (String, VmStats) {
    let before = vm.stats();
    let v = vm.eval_str(expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
    (vm.write_value(&v), vm.stats().delta_since(&before))
}

fn vm_for(pipeline: Pipeline, defs: &str, probe: ProbeSpec) -> Vm {
    let mut vm = Vm::builder().pipeline(pipeline).probe(probe).build();
    vm.eval_str(defs).unwrap_or_else(|e| panic!("{pipeline:?} definitions: {e}"));
    vm
}

#[test]
fn answers_and_counts_are_pinned_on_both_pipelines() {
    let mut drift = Vec::new();
    for p in programs() {
        let mut answers = Vec::new();
        for (pipeline, pinned) in [(Pipeline::Direct, p.direct), (Pipeline::Cps, p.cps)] {
            let mut vm = vm_for(pipeline, &p.defs, ProbeSpec::Off);
            let (answer, d) = measure(&mut vm, p.expr);
            assert_eq!(answer, p.answer, "{} on {pipeline:?}", p.name);
            if (d.instructions, d.calls) != pinned {
                drift.push(format!(
                    "{} {pipeline:?}: ({}, {}) retired, {pinned:?} pinned",
                    p.name, d.instructions, d.calls
                ));
            }
            answers.push(answer);
        }
        assert_eq!(answers[0], answers[1], "{}: direct and CPS disagree", p.name);
    }
    assert!(drift.is_empty(), "guest instruction/call counts drifted:\n{}", drift.join("\n"));
}

/// Every counter in `VmStats` that counts guest work (timings and
/// high-water gauges excluded).
fn work_counters(d: &VmStats) -> [u64; 16] {
    [
        d.instructions,
        d.calls,
        d.conditions_raised,
        d.faults_injected,
        d.heap.objects_allocated,
        d.heap.words_allocated,
        d.stack.captures_one,
        d.stack.captures_multi,
        d.stack.captures_empty,
        d.stack.reinstates_one,
        d.stack.reinstates_multi,
        d.stack.slots_copied,
        d.stack.overflows,
        d.stack.underflows,
        d.stack.prompts_pushed,
        d.stack.subconts_taken,
    ]
}

#[test]
fn two_runs_on_one_vm_yield_equal_deltas() {
    for p in programs() {
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut vm = vm_for(pipeline, &p.defs, ProbeSpec::Off);
            // The first evaluation may grow the stack's segment cache;
            // the contract is that the next two are indistinguishable.
            measure(&mut vm, p.expr);
            let (a1, d1) = measure(&mut vm, p.expr);
            let (a2, d2) = measure(&mut vm, p.expr);
            assert_eq!(a1, a2, "{} on {pipeline:?}", p.name);
            assert_eq!(
                work_counters(&d1),
                work_counters(&d2),
                "{} on {pipeline:?}: counters differ between two runs of one VM",
                p.name
            );
        }
    }
}

/// An armed trace ring is invisible to the guest and to the counters:
/// every pinned program, on both pipelines, gives the answer and the work
/// counters it gives with the ring off.
#[test]
fn an_armed_trace_ring_changes_no_answer_and_no_counter() {
    for p in programs() {
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut off = vm_for(pipeline, &p.defs, ProbeSpec::Off);
            let mut ring = vm_for(pipeline, &p.defs, ProbeSpec::Ring(4096));
            let (a_off, d_off) = measure(&mut off, p.expr);
            let (a_ring, d_ring) = measure(&mut ring, p.expr);
            assert_eq!(a_off, a_ring, "{} on {pipeline:?}", p.name);
            assert_eq!(
                work_counters(&d_off),
                work_counters(&d_ring),
                "{} on {pipeline:?}: arming the ring moved a counter",
                p.name
            );
            assert!(off.trace_dump().is_empty(), "{}: a disarmed VM traced", p.name);
            if p.name == "ctak-1cc" {
                assert!(!ring.trace_dump().is_empty(), "ctak-1cc on {pipeline:?} traced nothing");
            }
        }
    }
}

#[test]
fn a_one_shot_continuation_shot_twice_still_raises() {
    let mut vm = Vm::new();
    let e = vm
        .eval_str(
            "(define k2 #f)
             (define n 0)
             (call/1cc (lambda (k) (set! k2 k)))
             (set! n (+ n 1))
             (if (< n 3) (k2 0) n)",
        )
        .unwrap_err();
    assert_eq!(e.condition_kind(), Some("shot-twice"), "{e}");
    // The VM recovers and the guest can catch the same condition.
    let v = vm
        .eval_str(
            "(define k3 #f)
             (call-with-guard
               (lambda (c) (car c))
               (lambda ()
                 (call/1cc (lambda (k) (set! k3 k)))
                 (k3 0)))",
        )
        .unwrap();
    assert_eq!(vm.write_value(&v), "shot-twice");
}
