//! Winding is allocation-free on the Rust side: escaping from, and
//! re-entering, a stack of nested `dynamic-wind` extents — by continuation
//! invocation, or across a prompt by a take, a push or an abort — runs one
//! walk step per extent crossed, and a counting global allocator observes
//! that the steps themselves allocate nothing — the only Rust allocations
//! in the whole transfer are the per-transfer ones (the stashed argument
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

/// `(delimited n)` crosses `n` nested extents across a prompt: a generator
/// yields twice from inside them (each yield a take through `n` afters,
/// each resume a push through `n` befores) and finishes, then an abort
/// leaves them once more: `8n` winder calls.
const DELIMITED: &str = "
  (define (delimited n)
    (set! crossings 0)
    (let ((g (make-generator
               (lambda (yield) (nest n (lambda () (yield 1) (yield 2))))))
          (tag (make-prompt-tag 'abort)))
      (generator-next g)
      (generator-next g)
      (generator-next g)
      (call-with-prompt tag
        (lambda () (nest n (lambda () (%abort-to-prompt tag 'out)))))
      crossings))";

fn allocations_during(vm: &mut Vm, expr: &str, expect: &str) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let v = vm.eval_str(expr).unwrap();
    let n = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(vm.display_value(&v), expect, "{expr}");
    n
}

/// Runs `(f n)` for n = 100 and n = 400, after warming the heap pools,
/// the segment cache and the reader/compiler's own buffers at the larger
/// size, and returns the Rust allocations of each run; `per` is the
/// winder calls per extent.
fn allocations_at_100_and_400(vm: &mut Vm, f: &str, per: u64) -> (u64, u64) {
    let mut run = |n: u64| {
        let n = allocations_during(vm, &format!("({f} {n})"), &(per * n).to_string());
        vm.collect_now();
        n
    };
    for _ in 0..3 {
        run(400);
    }
    (run(100), run(400))
}

#[test]
fn wind_steps_do_not_allocate() {
    let mut vm = Vm::new();
    vm.eval_str(PROGRAM).unwrap();
    vm.eval_str(DELIMITED).unwrap();
    // What both runs of a program allocate is the reader and compiler
    // working on the expression and the one stashed argument vector per
    // transfer. 300 more extents are at least 1200 more walk steps; were
    // a step to allocate, the gap would be at least that.
    for (f, per) in [("crossing", 4), ("delimited", 8)] {
        let (small, large) = allocations_at_100_and_400(&mut vm, f, per);
        assert!(
            large < small + 12,
            "{f}: {large} allocations crossing 400 extents, {small} crossing 100: walk steps allocate"
        );
    }
}
