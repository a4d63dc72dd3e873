//! A pool worker keeps nothing its jobs `display`: the VM's output buffer
//! is drained where the worker finishes a slice, so a long-lived worker's
//! memory does not grow with what its jobs ever printed. A counting global
//! allocator measures the bytes live across one job that displays 1 MB.
//!
//! Its own test binary, with one test: the allocator counts every thread,
//! so nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use oneshot_exec::{JobSpec, Pool};

struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// 100 000 iterations of `body`: 10 bytes each when it displays.
fn looping(body: &str) -> String {
    format!("(let loop ((i 0)) (if (< i 100000) (begin {body} (loop (+ i 1))) 'done))")
}

#[test]
fn a_worker_keeps_none_of_what_its_jobs_display() {
    let pool = Pool::builder().workers(1).build().unwrap();
    let run = |src: String| {
        let job = pool.submit(JobSpec::new("loop", src).pin(0)).unwrap();
        assert_eq!(job.wait().result.as_deref(), Ok("done"));
    };
    // The same loop without output first, so the worker's heap and stack
    // reach the size the measured job needs before the reading is taken.
    run(looping("(string-length \"0123456789\")"));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    run(looping("(display \"0123456789\")"));
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(grown < 64 * 1024, "the worker kept {grown} bytes after displaying 1 000 000");
    pool.shutdown().unwrap();
}
