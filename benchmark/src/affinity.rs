//! Which CPU each thread runs on.
//!
//! Left to the guest scheduler, the load generator and the pool's worker
//! sometimes share a CPU and sometimes do not, and the two placements
//! differ by a factor of two on a virtualized host (a wake across CPUs is
//! an inter-processor interrupt through the hypervisor). The two CPUs'
//! clocks also change speed independently, so the calibration chain has to
//! run on the CPU that does the work. Both are settled here, once:
//!
//! * the **work CPU** (the last one this process may use) runs everything by
//!   default: the VM workloads, the calibration chain, and — on the serve
//!   workloads, where client and worker only ever wait for each other — both
//!   sides of the closed loop;
//! * the **client CPU** (the first one) takes the submitting thread on
//!   `pool-jobs`, where the submitter compiles while the worker runs jobs,
//!   so the worker has the work CPU to itself.
//!
//! If the affinity calls are refused nothing is pinned and the result's
//! environment says so.

use std::ffi::c_int;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

#[allow(unsafe_code)]
unsafe extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

fn allowed_cpus() -> Option<Vec<usize>> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a live, aligned buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    Some((0..1024).filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0).collect())
}

/// Pins the calling thread, and every thread it creates afterwards.
fn pin(cpu: usize) -> bool {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub work: usize,
    pub client: usize,
    /// CPUs the process was allowed before it pinned itself: the `nproc` to
    /// record (afterwards the standard library sees one).
    pub nproc: usize,
}

static PLAN: OnceLock<Option<Plan>> = OnceLock::new();
/// The main thread is on the client CPU (see [`caller_apart`]).
static CALLER_APART: AtomicBool = AtomicBool::new(false);

/// The CPUs chosen for this process, or `None` if it could not be pinned.
/// The first call pins the calling thread to the work CPU.
pub fn plan() -> Option<Plan> {
    *PLAN.get_or_init(|| {
        let cpus = allowed_cpus()?;
        let plan = Plan { work: *cpus.last()?, client: *cpus.first()?, nproc: cpus.len() };
        pin(plan.work).then_some(plan)
    })
}

/// Moves the calling thread to the client CPU (`true`) or back to the work
/// CPU. Threads it already created stay where they are.
pub fn caller_apart(apart: bool) {
    if let Some(plan) = plan() {
        pin(if apart { plan.client } else { plan.work });
        CALLER_APART.store(apart, Ordering::Relaxed);
    }
}

/// Runs `f` on the work CPU, wherever the caller currently is.
pub fn on_work_cpu<R>(f: impl FnOnce() -> R) -> R {
    match plan() {
        Some(plan) if CALLER_APART.load(Ordering::Relaxed) => {
            pin(plan.work);
            let r = f();
            pin(plan.client);
            r
        }
        _ => f(),
    }
}
