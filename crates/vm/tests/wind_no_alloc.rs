//! Winding is allocation-free on the Rust side: escaping from, and
//! re-entering, a stack of nested `dynamic-wind` extents runs one wind step
//! per extent crossed, and a counting global allocator observes that the
//! steps themselves allocate nothing — the only Rust allocations in the
//! whole transfer are the per-invocation ones (the stashed argument
//! vector), however many extents are crossed.
//!
//! This lives in an integration test of its own because the library
//! forbids unsafe code and a `GlobalAlloc` impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use oneshot_vm::Vm;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(crossing n)` nests `n` extents whose winders only bump a counter,
/// captures a continuation at the bottom, escapes through all of them and
/// re-enters through all of them once: `4n` winder calls, `4n` wind steps.
const PROGRAM: &str = "
  (define crossings 0)
  (define (tick) (set! crossings (+ crossings 1)))
  (define (nest n thunk)
    (if (zero? n)
        (thunk)
        (dynamic-wind tick (lambda () (nest (- n 1) thunk)) tick)))
  (define (crossing n)
    (set! crossings 0)
    (let ((inner #f) (rounds 0))
      (call/cc
        (lambda (esc)
          (nest n (lambda ()
                    (call/cc (lambda (k) (set! inner k)))
                    (set! rounds (+ rounds 1))
                    (esc rounds)))))
      (if (< rounds 2) (inner #f))
      crossings))";

fn allocations_during(vm: &mut Vm, expr: &str, expect: &str) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let v = vm.eval_str(expr).unwrap();
    let n = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(vm.display_value(&v), expect, "{expr}");
    n
}

#[test]
fn wind_steps_do_not_allocate() {
    let mut vm = Vm::new();
    vm.eval_str(PROGRAM).unwrap();
    // Warm the heap pools, the segment cache and the reader/compiler's
    // own buffers at the larger size, so what is left is what the
    // transfer itself allocates.
    for _ in 0..3 {
        allocations_during(&mut vm, "(crossing 400)", "1600");
        vm.collect_now();
    }
    let small = allocations_during(&mut vm, "(crossing 100)", "400");
    vm.collect_now();
    let large = allocations_during(&mut vm, "(crossing 400)", "1600");
    // What both runs allocate is the reader and compiler working on the
    // expression and the one stashed argument vector per invocation. 300
    // more extents are 1200 more wind steps; were a step to allocate (a
    // scratch `Vec` per common-tail computation, as it once did) the gap
    // would be at least that.
    assert!(
        large < small + 12,
        "{large} allocations crossing 400 extents, {small} crossing 100: wind steps allocate"
    );
}
