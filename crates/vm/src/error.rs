//! VM errors, and the one list of condition kinds the VM raises.

use std::fmt;

/// Declares [`ConditionKind`]: one variant per kind, with its symbol.
macro_rules! condition_kinds {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal,)*) => {
        /// Every condition kind the VM, its preludes and the threads
        /// library raise, one row each. A guest program sees the kind as
        /// the symbol `condition-kind` returns ([`ConditionKind::name`]);
        /// it may also raise conditions of any other kind itself.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum ConditionKind {
            $($(#[doc = $doc])* $variant,)*
        }

        impl ConditionKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [ConditionKind] = &[$(ConditionKind::$variant),*];

            /// The kind's symbol.
            pub const fn name(self) -> &'static str {
                match self {
                    $(ConditionKind::$variant => $name,)*
                }
            }
        }
    };
}

condition_kinds! {
    /// An argument of the wrong type, or a non-procedure applied.
    TypeError = "type-error",
    /// A procedure or builtin called with the wrong number of arguments.
    ArityError = "arity-error",
    /// An index, count, code point, radix, port, duration or exponent
    /// outside what the builtin accepts.
    RangeError = "range-error",
    /// `/`, `quotient`, `remainder` or `modulo` by exact zero.
    DivisionByZero = "division-by-zero",
    /// A list argument whose spine does not end in `()`.
    ImproperList = "improper-list",
    /// A reference to, or an assignment of, a global nothing defined.
    UnboundVariable = "unbound-variable",
    /// `eval` given a datum it cannot convert or compile.
    SyntaxError = "syntax-error",
    /// Several values returned where one is expected.
    ValuesError = "values-error",
    /// `(error ...)`, fixnum overflow, and refusals with no kind of their
    /// own.
    Error = "error",
    /// A one-shot continuation or subcontinuation used a second time.
    ShotTwice = "shot-twice",
    /// A delimited-control operator whose tag has no prompt on the
    /// continuation.
    NoMatchingPrompt = "no-matching-prompt",
    /// A handler returned from a non-continuable `raise` (the prelude).
    NonContinuable = "non-continuable",
    /// `perform` with no effect handler installed (the prelude).
    UnhandledEffect = "unhandled-effect",
    /// The heap budget exceeded, an injected allocation fault, or an
    /// allocation the host cannot satisfy.
    OutOfMemory = "out-of-memory",
    /// The stack-segment ceiling reached, or an injected segment fault.
    StackOverflow = "stack-overflow",
    /// The engine timer expired with no interrupt handler installed.
    FuelExhausted = "fuel-exhausted",
    /// A socket operation failed.
    IoError = "io-error",
    /// A blocked wait's I/O deadline passed before readiness (the
    /// threads library's I/O wrappers).
    IoTimeout = "io-timeout",
}

/// Anything that can go wrong running a program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VmError {
    /// Reader failure.
    Read(String),
    /// Compiler failure.
    Compile(String),
    /// A state no source text can produce: a broken VM invariant. Every
    /// refusal a guest program can reach is a [`VmError::Condition`], so
    /// this is a bug report.
    Internal(String),
    /// A refusal the guest can catch, classified by kind. The VM's
    /// dispatch loop intercepts this variant and re-raises it as a Scheme
    /// condition through the prelude's `raise`, so `call-with-guard` or
    /// `with-exception-handler` in the guest program catches it. It
    /// escapes to the embedder only where no dispatch loop runs (a host
    /// call such as [`crate::Vm::adopt_stream`]); with no handler
    /// installed, or on the CPS pipeline, the guest sees it as
    /// [`VmError::Uncaught`] with the same kind.
    Condition {
        /// The condition kind.
        kind: ConditionKind,
        /// Human-readable description.
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
    /// A boxed [`VmError::Internal`], ready for [`R`].
    pub(crate) fn internal(msg: impl Into<String>) -> Box<Self> {
        Box::new(VmError::Internal(msg.into()))
    }

    /// A boxed [`VmError::Condition`], ready for [`R`]: the one
    /// constructor of every refusal a guest program can reach.
    pub(crate) fn condition(kind: ConditionKind, msg: impl Into<String>) -> Box<Self> {
        Box::new(VmError::Condition { kind, message: msg.into() })
    }

    /// The condition kind, when this error is a classified condition:
    /// `Condition` directly, or an `Uncaught` condition that had a kind.
    pub fn condition_kind(&self) -> Option<&str> {
        match self {
            VmError::Condition { kind, .. } => Some(kind.name()),
            VmError::Uncaught { kind, .. } => kind.as_deref(),
            _ => None,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Read(m) => write!(f, "read error: {m}"),
            VmError::Compile(m) => write!(f, "{m}"),
            VmError::Internal(m) => write!(f, "error: {m}"),
            VmError::Condition { message, .. } => write!(f, "error: {message}"),
            VmError::Uncaught { condition, .. } => write!(f, "error: {condition}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert!(VmError::internal("x").to_string().starts_with("error:"));
        assert!(VmError::Read("y".into()).to_string().contains("read"));
    }

    #[test]
    fn condition_display_and_kind() {
        let e = VmError::condition(ConditionKind::TypeError, "car: expected pair, got 1");
        assert_eq!(e.to_string(), "error: car: expected pair, got 1");
        assert_eq!(e.condition_kind(), Some("type-error"));
    }

    #[test]
    fn uncaught_display_and_kind() {
        let e = VmError::Uncaught {
            condition: "boom".into(),
            kind: None,
            backtrace: vec!["f".into(), "g".into()],
        };
        assert_eq!(e.to_string(), "error: boom");
        assert_eq!(e.condition_kind(), None);
    }

    #[test]
    fn uncaught_preserves_condition_kind() {
        let e = VmError::Uncaught {
            condition: "injected allocation failure".into(),
            kind: Some("out-of-memory".into()),
            backtrace: vec![],
        };
        assert_eq!(e.condition_kind(), Some("out-of-memory"));
    }
}
