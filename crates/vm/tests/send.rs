//! Static `Send` assertions for everything the executor moves across
//! threads. These compile-time checks make sure a future field (an `Rc`, a
//! raw pointer, a thread-local handle) can't silently break the worker
//! pool: if any of these types loses `Send`, this test file stops
//! compiling.

use oneshot_vm::{CompiledProgram, Vm, VmBuilder, VmConfig, VmError, VmStats};

fn assert_send<T: Send>() {}

#[test]
fn vm_and_friends_are_send() {
    assert_send::<Vm>();
    assert_send::<VmError>();
    assert_send::<VmStats>();
    assert_send::<VmConfig>();
    assert_send::<VmBuilder>();
}

#[test]
fn compiled_programs_are_send() {
    // A program is compiled once on the submitting thread and then run on
    // whichever worker steals it, so the handle must be Send (and, being
    // all owned data, Sync too).
    assert_send::<CompiledProgram>();
    fn assert_sync<T: Sync>() {}
    assert_sync::<CompiledProgram>();
}

#[test]
fn a_vm_actually_crosses_threads() {
    // The static assertion plus a smoke test: build a VM here, run it on
    // another thread, bring the stats back.
    let mut vm = Vm::new();
    let handle = std::thread::spawn(move || {
        let v = vm.eval_str("(+ 20 22)").unwrap();
        (vm.display_value(&v), vm.stats())
    });
    let (shown, stats) = handle.join().unwrap();
    assert_eq!(shown, "42");
    assert!(stats.instructions > 0);
}

#[test]
fn the_control_stack_is_send_on_its_own() {
    // The segmented stack caches a raw pointer to its current segment's
    // slots and restates `Send` by hand; hold it to that independently of
    // the `Vm` that embeds it.
    assert_send::<oneshot_core::SegStack<oneshot_vm::Slot, oneshot_vm::VmProbe>>();
}
