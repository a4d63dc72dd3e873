//! The process-wide table of compiled embedded libraries must be
//! invisible: a VM that links the table's prelude runs exactly the code a
//! fresh compile gives it, whichever VM compiled it first and however
//! many boot at once. This file is its own test binary, so the table
//! starts cold.

use std::sync::{Arc, Barrier};

use oneshot_vm::{CompilerOptions, Pipeline, Vm, VmConfig};

/// Exercises the prelude's list procedures, closures and `apply`.
const PRELUDE_HEAVY: &str = "(let loop ((i 0) (acc '()))
    (if (< i 20)
        (loop (+ i 1) (cons (apply + (map (lambda (x) (* x i)) (list 1 2 3))) acc))
        (list (length acc) (reverse (filter even? acc)) (assq 'b '((a . 1) (b . 2))))))";

/// What must agree between VMs: the answer, the code linked so far, and
/// the work done by boot plus one evaluation.
fn fingerprint(vm: &mut Vm) -> (String, usize, u64, u64, u64) {
    let v = vm.eval_str(PRELUDE_HEAVY).unwrap();
    let s = vm.stats();
    (vm.write_value(&v), vm.code_object_count(), s.instructions, s.calls, s.heap.objects_allocated)
}

#[test]
fn vms_booted_together_and_after_agree() {
    let start = Arc::new(Barrier::new(8));
    let cold: Vec<_> = (0..8)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                fingerprint(&mut Vm::builder().build())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let warm = fingerprint(&mut Vm::builder().build());
    for (i, f) in cold.iter().enumerate() {
        assert_eq!(f, &warm, "VM {i} of the eight booted together");
    }
}

/// Mnemonics of the superinstructions the peephole pass emits.
const FUSED: [&str; 19] = [
    "br-lt",
    "br-le",
    "br-gt",
    "br-ge",
    "br-num-eq",
    "br-eq",
    "br-zero?",
    "br-null?",
    "return-local",
    "add-imm",
    "sub-imm",
    "move",
    "br-true",
    "br-lt-imm",
    "call-global",
    "tail-call-global",
    "move-free",
    "sub-imm-to",
    "lt-ll",
];

/// The fused opcodes executed by one call of the prelude's `map`.
fn fused_ops_in_map(vm: &mut Vm) -> Vec<&'static str> {
    let before = vm.opcode_histogram().unwrap();
    let v = vm.eval_str("(map (lambda (x) (+ x 1)) '(1 2 3 4))").unwrap();
    assert_eq!(vm.write_value(&v), "(2 3 4 5)");
    let count = |rows: &[(&'static str, u64)], m: &str| {
        rows.iter().find(|(n, _)| *n == m).map_or(0, |(_, c)| *c)
    };
    let after = vm.opcode_histogram().unwrap();
    FUSED.into_iter().filter(|m| count(&after, m) > count(&before, m)).collect()
}

fn histogram_vm(fuse: bool) -> Vm {
    let cfg = VmConfig { compiler: CompilerOptions { fuse }, ..VmConfig::default() };
    Vm::builder().config(cfg).opcode_histogram(true).build()
}

#[test]
fn compiler_options_key_the_table() {
    let mut unfused_before = histogram_vm(false);
    let mut fused = histogram_vm(true);
    let mut unfused_after = histogram_vm(false);
    assert_eq!(fused_ops_in_map(&mut unfused_before), Vec::<&str>::new());
    assert_eq!(fused_ops_in_map(&mut unfused_after), Vec::<&str>::new());
    assert!(!fused_ops_in_map(&mut fused).is_empty(), "the fused prelude's map runs fused code");
}

/// `call/cc` escapes, `call/1cc` and a straight-line `dynamic-wind`: the
/// control operators the CPS VM takes from its own (direct-compiled)
/// prelude.
const CONTROL_PROBES: [&str; 4] = [
    "(+ 1 (call/cc (lambda (k) (* 10 (k 41)))))",
    "(call/1cc (lambda (k) (list 1 (k 'escaped))))",
    "(let ((log '()))
       (define v (dynamic-wind (lambda () (set! log (cons 'before log)))
                               (lambda () (set! log (cons 'during log)) 'v)
                               (lambda () (set! log (cons 'after log)))))
       (list v (reverse log)))",
    "(let ((r (call/cc (lambda (k) (dynamic-wind (lambda () #f) (lambda () 'body) (lambda () #f))))))
       (list r (call/cc (lambda (k) (map (lambda (x) (if (= x 2) (k x) x)) '(1 2 3))))))",
];

fn answers(vm: &mut Vm) -> Vec<String> {
    CONTROL_PROBES
        .iter()
        .map(|p| {
            let v = vm.eval_str(p).unwrap_or_else(|e| panic!("{p}: {e}"));
            vm.write_value(&v)
        })
        .collect()
}

#[test]
fn a_cps_vm_after_a_direct_one_answers_alike() {
    let direct = answers(&mut Vm::builder().build());
    let cps = answers(&mut Vm::builder().pipeline(Pipeline::Cps).build());
    let cps_warm = answers(&mut Vm::builder().pipeline(Pipeline::Cps).build());
    assert_eq!(direct, cps);
    assert_eq!(cps, cps_warm);
}
