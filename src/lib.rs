//! Facade crate for the *oneshot* workspace: a Rust reproduction of
//! Bruggeman, Waddell, Dybvig — "Representing Control in the Presence of
//! One-Shot Continuations" (PLDI 1996).
//!
//! Re-exports the crates a downstream user needs:
//!
//! * [`core`] — the segmented-stack control substrate (the paper's
//!   contribution), usable independently of Scheme.
//! * [`vm`] — a Scheme system (reader, compiler, bytecode VM) whose
//!   `call/cc` and `call/1cc` are built on the substrate.
//! * [`threads`] — continuation-based thread systems and engines.
//! * [`exec`] — a multi-core worker pool running jobs as engine-preempted
//!   green threads with work stealing and fault isolation.
//!
//! # Quickstart
//!
//! Embedders want one import: [`prelude`].
//!
//! ```
//! use oneshot::prelude::*;
//!
//! // Evaluate Scheme directly...
//! let mut vm = Vm::new();
//! let v = vm.eval_str("(call/1cc (lambda (k) (+ 1 (k 41))))").unwrap();
//! assert_eq!(vm.display_value(&v), "41");
//!
//! // ...or run jobs on a multi-core pool with green-thread I/O.
//! let pool = Pool::builder().workers(2).build().unwrap();
//! let h = pool.submit(JobSpec::new("answer", "(* 6 7)").fuel(10_000)).unwrap();
//! assert_eq!(h.wait().result.unwrap(), "42");
//! pool.shutdown().unwrap();
//! ```

/// The embedder surface in one import: the pool and its job vocabulary
/// from `oneshot-exec`, plus the VM construction types from `oneshot-vm`.
///
/// Guest programs running on a [`Pool`](prelude::Pool) additionally see
/// the blocking I/O library (`tcp-listen`, `tcp-accept`, `tcp-connect`,
/// `tcp-read`, `tcp-write`, `tcp-close`, `timer-wait`): each call that
/// would block captures the job's one-shot continuation and yields the
/// worker until the pool's reactor sees readiness.
pub mod prelude {
    pub use oneshot_exec::{
        Admission, Error, ErrorKind, JobHandle, JobId, JobOutcome, JobSpec, Pool, PoolBuilder,
        PoolCountersSnapshot, PoolReport,
    };
    pub use oneshot_vm::{Vm, VmBuilder, VmConfig, VmError};
}

pub use oneshot_compiler as compiler;
pub use oneshot_core as core;
pub use oneshot_exec as exec;
pub use oneshot_runtime as runtime;
pub use oneshot_sexp as sexp;
pub use oneshot_threads as threads;
pub use oneshot_vm as vm;

// The embedder-facing control-observability surface, flattened for
// convenience: walking frames and probing control events are the two
// extension points an embedder implements.
pub use oneshot_core::{ControlProbe, FrameWalker, NoopProbe, ProbeEvent, RingTraceProbe};
