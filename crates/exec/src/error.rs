//! One error type for the whole embedder surface.
//!
//! Server code used to juggle `SubmitError`, `ShutdownError`, and
//! `JobError`, each with its own shape. This module collapses them into a
//! single [`Error`] with a stable [`ErrorKind`] to match on and a
//! `source()` chain down to the underlying [`VmError`], so the guest's
//! condition kinds (the VM's [`ConditionKind`]s, or any symbol the guest
//! raised uncaught) stay reachable from one place: [`Error::condition_kind`].

use std::sync::Arc;

use oneshot_vm::{ConditionKind, VmError};

use crate::job::{JobId, JobSpec};

/// Stable classification of an [`Error`]; match on this, not on message
/// text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The program failed to compile at submit; nothing was enqueued.
    Compile,
    /// Nonblocking admission found the injector full; the spec is
    /// recoverable via [`Error::into_refused_spec`].
    QueueFull,
    /// The pool is shut down (or shutting down).
    PoolClosed,
    /// Shutdown could not drain every worker before its deadline.
    ShutdownTimeout,
    /// The job failed inside the VM: a condition it raised and did not
    /// catch ([`Error::condition_kind`] names it), or an internal VM error.
    Vm,
    /// The job exceeded its fuel budget and was dropped.
    FuelExhausted,
    /// The job exceeded its wall-clock deadline and was dropped.
    DeadlineExceeded,
    /// The job panicked inside the VM; the worker rebuilt its VM.
    Panicked,
    /// Another job's panic destroyed the shared worker VM while this job
    /// was resident there.
    WorkerReset,
    /// A host-side I/O operation failed (binding the shared listener,
    /// creating a reactor).
    Io,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorKind::Compile => "compile",
            ErrorKind::QueueFull => "queue-full",
            ErrorKind::PoolClosed => "pool-closed",
            ErrorKind::ShutdownTimeout => "shutdown-timeout",
            ErrorKind::Vm => "vm",
            ErrorKind::FuelExhausted => "fuel-exhausted",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Panicked => "panicked",
            ErrorKind::WorkerReset => "worker-reset",
            ErrorKind::Io => "io",
        };
        f.write_str(s)
    }
}

/// Anything the pool can fail with: submission, execution, or shutdown.
///
/// ```
/// use oneshot_exec::{ErrorKind, JobSpec, Pool};
///
/// let pool = Pool::builder().workers(1).build().unwrap();
/// let err = pool.submit(JobSpec::new("bad", "(unclosed")).unwrap_err();
/// assert_eq!(err.kind(), ErrorKind::Compile);
/// assert!(err.vm_error().is_some());
/// pool.shutdown().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    source: Option<Arc<VmError>>,
    refused: Option<Box<JobSpec>>,
    culprit: Option<JobId>,
}

impl Error {
    fn new(kind: ErrorKind, message: String) -> Self {
        Error { kind, message, source: None, refused: None, culprit: None }
    }

    pub(crate) fn compile(e: VmError) -> Self {
        let mut err = Error::new(ErrorKind::Compile, format!("job failed to compile: {e}"));
        err.source = Some(Arc::new(e));
        err
    }

    pub(crate) fn queue_full(spec: JobSpec) -> Self {
        let mut err =
            Error::new(ErrorKind::QueueFull, format!("queue full, job {:?} refused", spec.name()));
        err.refused = Some(Box::new(spec));
        err
    }

    pub(crate) fn pool_closed() -> Self {
        Error::new(ErrorKind::PoolClosed, "pool is shut down".to_string())
    }

    pub(crate) fn shutdown_timeout(reported: usize, total: usize) -> Self {
        Error::new(
            ErrorKind::ShutdownTimeout,
            format!("shutdown timed out: {reported} of {total} workers reported"),
        )
    }

    /// Job `job`'s failure in the VM of worker `worker`.
    pub(crate) fn vm(e: VmError, job: JobId, worker: usize) -> Self {
        let mut err = Error::new(ErrorKind::Vm, format!("job {job} on worker {worker}: {e}"));
        err.source = Some(Arc::new(e));
        err
    }

    pub(crate) fn fuel_exhausted(budget: u64, used: u64) -> Self {
        Error::new(
            ErrorKind::FuelExhausted,
            format!("fuel budget exhausted: used {used} of {budget}"),
        )
    }

    pub(crate) fn deadline_exceeded() -> Self {
        Error::new(ErrorKind::DeadlineExceeded, "wall-clock deadline exceeded".to_string())
    }

    pub(crate) fn panicked(msg: String) -> Self {
        Error::new(ErrorKind::Panicked, format!("job panicked: {msg}"))
    }

    pub(crate) fn io(context: &str, e: std::io::Error) -> Self {
        Error::new(ErrorKind::Io, format!("{context}: {e}"))
    }

    pub(crate) fn worker_reset(culprit: Option<JobId>) -> Self {
        let by =
            culprit.map_or("a panic outside any job".into(), |id| format!("panicking job {id}"));
        let mut err = Error::new(ErrorKind::WorkerReset, format!("worker VM was reset by {by}"));
        err.culprit = culprit;
        err
    }

    /// The stable classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The human-readable description (also what `Display` prints).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The underlying VM error, when the failure came from the VM
    /// ([`ErrorKind::Vm`], [`ErrorKind::Compile`]).
    pub fn vm_error(&self) -> Option<&VmError> {
        self.source.as_deref()
    }

    /// The Scheme condition kind (`"type-error"`, `"out-of-memory"`,
    /// `"io-error"`, ...) behind this error, when the guest raised one —
    /// reached through the [`VmError`] chain, including
    /// `VmError::Uncaught`.
    pub fn condition_kind(&self) -> Option<&str> {
        self.source.as_deref().and_then(VmError::condition_kind)
    }

    /// For [`ErrorKind::QueueFull`]: recovers the refused spec so the
    /// caller can retry or shed load.
    pub fn into_refused_spec(self) -> Option<JobSpec> {
        self.refused.map(|b| *b)
    }

    /// For [`ErrorKind::WorkerReset`]: the job whose panic destroyed the
    /// shared worker VM. `None` when no job's VM call was running at the
    /// panic (a completion callback, or the worker's own machinery).
    pub fn culprit(&self) -> Option<JobId> {
        self.culprit
    }

    /// Whether retrying the job could plausibly succeed.
    ///
    /// Transient: [`ErrorKind::WorkerReset`] (the job was collateral
    /// damage of another job's panic) and an uncaught `out-of-memory`
    /// condition (the retried job starts on a freshly collected heap).
    /// Everything else — type errors, `(error ...)`, fuel or deadline
    /// exhaustion, panics in the job itself — is deterministic and fails
    /// fast.
    pub fn transient(&self) -> bool {
        match self.kind {
            ErrorKind::WorkerReset => true,
            ErrorKind::Vm => self.condition_kind() == Some(ConditionKind::OutOfMemory.name()),
            _ => false,
        }
    }
}

/// Two errors are equal when their [`kind`](Error::kind) and message
/// agree — enough for `assert_eq!` in tests; the chained source and the
/// refused spec are deliberately ignored.
impl PartialEq for Error {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.message == other.message
    }
}

impl Eq for Error {}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e.as_ref() as &(dyn std::error::Error + 'static))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_chains_survive_construction() {
        let e = Error::vm(
            VmError::Condition { kind: ConditionKind::TypeError, message: "car: pair".into() },
            JobId(1),
            0,
        );
        assert_eq!(e.kind(), ErrorKind::Vm);
        assert_eq!(e.condition_kind(), Some("type-error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.transient());

        let oom = Error::vm(
            VmError::Condition { kind: ConditionKind::OutOfMemory, message: "heap".into() },
            JobId(2),
            0,
        );
        assert!(oom.transient());

        let reset = Error::worker_reset(Some(JobId(7)));
        assert_eq!(reset.culprit(), Some(JobId(7)));
        assert!(reset.transient());
        assert_eq!(Error::worker_reset(None).culprit(), None);

        let full = Error::queue_full(JobSpec::new("j", "#t"));
        assert_eq!(full.kind(), ErrorKind::QueueFull);
        assert_eq!(full.into_refused_spec().unwrap().name(), "j");
    }
}
