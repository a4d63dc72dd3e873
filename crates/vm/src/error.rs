//! VM errors.

use std::fmt;

/// Anything that can go wrong running a program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VmError {
    /// Reader failure.
    Read(String),
    /// Compiler failure.
    Compile(String),
    /// An error the guest cannot catch: an unbound variable, an improper
    /// list, a builtin's range or division refusal. Type errors, arity
    /// errors and `(error ...)` are [`VmError::Condition`]s.
    Runtime(String),
    /// A *recoverable* fault, classified by condition kind. The VM's
    /// dispatch loop intercepts this variant and re-raises it as a Scheme
    /// condition through the prelude's `raise`, so a `with-exception-handler`
    /// in the guest program can catch it; it only escapes to the embedder
    /// when interception is impossible (e.g. during prelude loading).
    Condition {
        /// The condition kind: `out-of-memory`, `stack-overflow`,
        /// `fuel-exhausted`, `type-error`, `arity-error`, `shot-twice`, or
        /// `error` for user `(error ...)` / fixnum overflow.
        kind: &'static str,
        /// Human-readable description, shown like a `Runtime` message.
        message: String,
    },
    /// A condition that no handler caught. Carries the condition's message
    /// and a backtrace walked from the live stack records at raise time.
    Uncaught {
        /// The uncaught condition's message.
        condition: String,
        /// The condition's kind symbol (e.g. `out-of-memory`), when the
        /// condition had the standard `(kind . message)` shape. The
        /// executor uses this to tell transient faults from permanent ones.
        kind: Option<String>,
        /// Frame names (innermost first), recovered from return addresses
        /// and continuation records.
        backtrace: Vec<String>,
    },
    /// An error annotated with the job and worker it occurred on.
    ///
    /// Produced by [`VmError::with_context`]; the executor layer uses this to
    /// report *which* job on *which* worker failed without formatting any
    /// strings on the hot path (the ids are plain integers until displayed).
    InContext {
        /// Executor job id the error belongs to.
        job: u64,
        /// Index of the worker thread that ran the job.
        worker: u32,
        /// The underlying error.
        source: Box<VmError>,
    },
}

/// The crate-internal result type. The error travels boxed so that
/// `R<Value>` and `R<Option<Value>>` are two words and come back from the
/// interpreter's inner calls in registers; public signatures keep the bare
/// [`VmError`] and unbox at the boundary.
pub(crate) type R<T> = Result<T, Box<VmError>>;

// The boxed-error win must not silently regress (an unboxed `VmError` made
// `R<Value>` nine words, returned through memory on every `<`).
const _: () = assert!(std::mem::size_of::<R<oneshot_runtime::Value>>() <= 16);
const _: () = assert!(std::mem::size_of::<R<Option<oneshot_runtime::Value>>>() <= 16);

impl VmError {
    /// A boxed [`VmError::Runtime`], ready for [`R`].
    pub(crate) fn runtime(msg: impl Into<String>) -> Box<Self> {
        Box::new(VmError::Runtime(msg.into()))
    }

    /// A boxed [`VmError::Condition`], ready for [`R`].
    pub(crate) fn condition(kind: &'static str, msg: impl Into<String>) -> Box<Self> {
        Box::new(VmError::Condition { kind, message: msg.into() })
    }

    /// The condition kind, when this error is (or wraps) a classified
    /// condition: `Condition` directly, an `Uncaught` condition that had a
    /// kind, or `InContext` around either.
    pub fn condition_kind(&self) -> Option<&str> {
        match self.root_cause() {
            VmError::Condition { kind, .. } => Some(kind),
            VmError::Uncaught { kind, .. } => kind.as_deref(),
            _ => None,
        }
    }

    /// Wrap this error with the job and worker it occurred on.
    ///
    /// Cheap: stores two integers and boxes the original error, no
    /// formatting happens until someone calls `Display`. Re-wrapping an
    /// already-contextualised error replaces the old context rather than
    /// nesting.
    #[must_use]
    pub fn with_context(self, job: u64, worker: u32) -> Self {
        match self {
            VmError::InContext { source, .. } => VmError::InContext { job, worker, source },
            other => VmError::InContext { job, worker, source: Box::new(other) },
        }
    }

    /// The innermost error, stripped of any job/worker context.
    pub fn root_cause(&self) -> &VmError {
        match self {
            VmError::InContext { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Read(m) => write!(f, "read error: {m}"),
            VmError::Compile(m) => write!(f, "{m}"),
            VmError::Runtime(m) => write!(f, "error: {m}"),
            VmError::Condition { message, .. } => write!(f, "error: {message}"),
            VmError::Uncaught { condition, .. } => write!(f, "error: {condition}"),
            VmError::InContext { job, worker, source } => {
                write!(f, "job {job} on worker {worker}: {source}")
            }
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::InContext { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_prefixes() {
        assert!(VmError::runtime("x").to_string().starts_with("error:"));
        assert!(VmError::Read("y".into()).to_string().contains("read"));
    }

    #[test]
    fn condition_display_matches_runtime_shape() {
        let e = VmError::condition("type-error", "car: expected pair, got 1");
        assert_eq!(e.to_string(), "error: car: expected pair, got 1");
        assert_eq!(e.condition_kind(), Some("type-error"));
        assert_eq!(e.with_context(3, 1).condition_kind(), Some("type-error"));
    }

    #[test]
    fn uncaught_display_and_root_cause() {
        let e = VmError::Uncaught {
            condition: "boom".into(),
            kind: None,
            backtrace: vec!["f".into(), "g".into()],
        };
        assert_eq!(e.to_string(), "error: boom");
        let wrapped = e.clone().with_context(9, 4);
        assert_eq!(wrapped.to_string(), "job 9 on worker 4: error: boom");
        assert_eq!(wrapped.root_cause(), &e);
        assert_eq!(wrapped.condition_kind(), None);
    }

    #[test]
    fn uncaught_preserves_condition_kind() {
        let e = VmError::Uncaught {
            condition: "injected allocation failure".into(),
            kind: Some("out-of-memory".into()),
            backtrace: vec![],
        };
        assert_eq!(e.condition_kind(), Some("out-of-memory"));
        assert_eq!(e.with_context(1, 0).condition_kind(), Some("out-of-memory"));
    }

    #[test]
    fn context_chain() {
        let e = VmError::runtime("boom").with_context(7, 2);
        assert_eq!(e.to_string(), "job 7 on worker 2: error: boom");
        assert_eq!(e.source().unwrap().to_string(), "error: boom");
        assert_eq!(e.root_cause(), &VmError::Runtime("boom".into()));
        // Re-wrapping replaces the context instead of nesting.
        let e2 = e.with_context(8, 0);
        assert_eq!(e2.to_string(), "job 8 on worker 0: error: boom");
    }
}
