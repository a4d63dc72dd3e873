//! A multi-core execution subsystem for the oneshot VM.
//!
//! The paper's thesis is that `call/1cc` makes context switches cheap
//! enough to build real thread systems on; `oneshot-threads` demonstrates
//! that inside one VM. This crate adds the outer level: a [`Pool`] of N OS
//! worker threads, each owning its own [`Vm`](oneshot_vm::Vm), fed from a
//! bounded shared injector queue of unstarted jobs and a per-worker inbox
//! of work bound to that worker — plus a *reactor* per worker that
//! multiplexes that worker's blocking guest I/O over edge-triggered
//! `epoll(7)` (so the crate is Linux-only) and is the only place an idle
//! worker sleeps.
//!
//! The two levels divide the work the way Kobayashi–Kameyama's one-shot
//! expressiveness results suggest: OS threads provide parallelism between
//! jobs; *within* a worker, jobs run as engine-fueled green threads
//! (Dybvig–Hieb engines over one-shot subcontinuations, via
//! [`EngineHost`](oneshot_threads::EngineHost)), so a long job is preempted
//! after its fuel slice and requeued rather than starving the worker — a
//! preemption that costs no stack copying.
//!
//! The same mechanism makes I/O non-blocking for free: when a job calls
//! `(tcp-read sock n)` on a socket with no data, the guest library takes
//! the slice's one-shot subcontinuation, the engine returns
//! [`EngineStep::Blocked`](oneshot_threads::EngineStep), and the worker
//! parks the job and registers the fd with *its own* reactor — readiness
//! turns into an ordinary engine resumption on the same thread, no
//! cross-thread handoff. Suspending ten thousand connections costs ten
//! thousand sealed stack segments — no OS threads, no callbacks, no stack
//! copies — and each wakeup costs O(ready), not O(blocked). [`Pool::serve`] adds the front door: one shared `AF_INET`
//! listener whose accepted connections are distributed least-loaded /
//! round-robin across the worker reactors.
//!
//! Jobs are described by a fluent [`JobSpec`] — fuel, deadline, I/O timeout,
//! [`Admission`] policy, worker pinning, completion callback — compiled
//! once on submit ([`Pool::submit`] returns a [`JobHandle`]); the resulting
//! [`CompiledProgram`](oneshot_vm::CompiledProgram) is plain `Send` data,
//! so any worker can link and run it. Once a job has *started* on a worker
//! its continuation lives in that worker's VM heap, so a job waits in the
//! shared injector until a worker with room admits it, and preempted jobs
//! requeue locally. A [pinned](JobSpec::pin) job, a transient retry and an
//! accepted connection wait instead in their worker's inbox, which that
//! worker drains ahead of the injector.
//!
//! Everything that can go wrong surfaces as one [`Error`] with a stable
//! [`ErrorKind`]:
//!
//! * a per-job fuel budget turns runaway jobs into
//!   [`ErrorKind::FuelExhausted`], a wall-clock deadline into
//!   [`ErrorKind::DeadlineExceeded`] — even while blocked on a peer that
//!   never answers;
//! * a panic on a worker unwinds to that worker's supervisor, which fails
//!   the job it was running as [`ErrorKind::Panicked`] and the worker's
//!   other residents as the transient [`ErrorKind::WorkerReset`] (their
//!   continuations lived in the same VM), rebuilds a fresh VM, and keeps
//!   draining;
//! * the bounded injector gives backpressure ([`Admission::Blocking`]
//!   waits, [`Admission::NonBlocking`] refuses with the spec returned);
//! * [`Pool::shutdown`] stops the acceptors, drains all in-flight and
//!   blocked jobs, and joins every worker (with a timeout, so a wedged
//!   worker is reported, not waited on forever).
//!
//! # Example
//!
//! ```
//! use oneshot_exec::{JobSpec, Pool};
//!
//! let pool = Pool::builder().workers(2).fuel_slice(4096).build().unwrap();
//! let jobs: Vec<_> = (0..8)
//!     .map(|i| {
//!         pool.submit(
//!             JobSpec::new(format!("square-{i}"), format!("(* {i} {i})"))
//!                 .fuel(100_000),
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! for (i, h) in jobs.iter().enumerate() {
//!     assert_eq!(h.wait().result.unwrap(), (i * i).to_string());
//! }
//! let report = pool.shutdown().unwrap();
//! assert_eq!(report.counters.completed, 8);
//! ```

#![deny(unsafe_code)] // one audited exception: reactor::sys wraps epoll(7)
#![warn(missing_docs)]

mod error;
mod job;
mod pool;
mod queue;
mod reactor;
mod worker;

pub use error::{Error, ErrorKind};
pub use job::{Admission, JobHandle, JobId, JobOutcome, JobSpec, OnComplete};
pub use pool::{
    Pool, PoolBuilder, PoolCountersSnapshot, PoolReport, ServeHandle, ServeOptions, WorkerReport,
};
pub use reactor::{Backend, WAKE_LATENESS_BUCKETS_MS};
