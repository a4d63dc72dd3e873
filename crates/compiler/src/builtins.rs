//! The canonical builtin-procedure name list.
//!
//! This is the single source of truth shared by the VM (whose builtin table
//! has one row for every name here, in this order; a VM unit test holds
//! the two equal) and the CPS converter (which must know which globals are
//! direct Rust builtins and which are control operators that get
//! continuation-passing definitions in the CPS prelude).

/// Every builtin name, in registration order. `Value::builtin(i)` refers to
/// `BUILTIN_NAMES[i]`.
pub const BUILTIN_NAMES: &[&str] = &[
    // numbers
    "+",
    "-",
    "*",
    "/",
    "quotient",
    "remainder",
    "modulo",
    "abs",
    "min",
    "max",
    "gcd",
    "lcm",
    "expt",
    "sqrt",
    "floor",
    "ceiling",
    "truncate",
    "round",
    "exact->inexact",
    "inexact->exact",
    "number?",
    "integer?",
    "exact?",
    "inexact?",
    "zero?",
    "positive?",
    "negative?",
    "odd?",
    "even?",
    "=",
    "<",
    ">",
    "<=",
    ">=",
    "number->string",
    "string->number",
    // predicates
    "eq?",
    "eqv?",
    "equal?",
    "not",
    "boolean?",
    "procedure?",
    "symbol?",
    "string?",
    "char?",
    "vector?",
    "pair?",
    "null?",
    // pairs and lists
    "cons",
    "car",
    "cdr",
    "set-car!",
    "set-cdr!",
    "list",
    "length",
    "append",
    "reverse",
    "list-tail",
    "list-ref",
    "memq",
    "memv",
    "assq",
    "assv",
    "list?",
    // symbols
    "symbol->string",
    "string->symbol",
    "gensym",
    // characters
    "char->integer",
    "integer->char",
    "char=?",
    "char<?",
    "char>?",
    "char<=?",
    "char>=?",
    "char-upcase",
    "char-downcase",
    "char-alphabetic?",
    "char-numeric?",
    "char-whitespace?",
    "char-upper-case?",
    "char-lower-case?",
    // strings
    "make-string",
    "string",
    "string-length",
    "string-ref",
    "string-set!",
    "string=?",
    "string<?",
    "string>?",
    "string<=?",
    "string>=?",
    "substring",
    "string-append",
    "string->list",
    "list->string",
    "string-copy",
    "string-fill!",
    // vectors
    "make-vector",
    "vector",
    "vector-length",
    "vector-ref",
    "vector-set!",
    "vector->list",
    "list->vector",
    "vector-fill!",
    // control
    "apply",
    "call/cc",
    "call-with-current-continuation",
    "call/1cc",
    "dynamic-wind",
    "values",
    "call-with-values",
    // i/o
    "display",
    "write",
    "newline",
    "write-char",
    // system
    "error",
    "void",
    "gc",
    "set-timer!",
    "timer-interrupt-handler!",
    "vm-stats",
    "eval",
    "backtrace",
    "sleep-ms",
    "debug-panic!",
    "now-us",
    // nonblocking loopback TCP; the would-block retry loops live in the
    // threads crate's io.scm, where they suspend the running green thread
    "%tcp-listen",
    "%tcp-local-port",
    "%tcp-accept",
    "%tcp-connect",
    "%tcp-read",
    "%tcp-write",
    "%tcp-close",
    "%net-live",
    "%conn-take",
    // internal helpers (used by the CPS prelude)
    "%apply-args",
    // internal helpers (used by the condition-system prelude)
    "%push-handler!",
    "%pop-handler!",
    "%top-handler",
    "%have-handler?",
    "%note-raise!",
    "%uncaught",
    // delimited control (the prelude derives shift/reset, generators,
    // coroutines, and effect handlers from these)
    "%push-prompt",
    "%take-subcont",
    "%push-subcont",
    "%abort-to-prompt",
    "%prompt-set?",
];

/// Control operators that cannot be called direct-style from CPS code;
/// the CPS prelude redefines them in continuation-passing style.
pub const CPS_CONTROL: &[&str] = &[
    "apply",
    "call/cc",
    "call-with-current-continuation",
    "call/1cc",
    "dynamic-wind",
    "values",
    "call-with-values",
    "%push-prompt",
    "%take-subcont",
    "%push-subcont",
    "%abort-to-prompt",
    // not a control transfer, but it must consult the CPS prompt list
    // rather than the (empty) segmented-stack prompt chain
    "%prompt-set?",
];

/// Whether a global named `name` may be called direct-style (no
/// continuation argument) from CPS-converted code.
pub fn cps_direct(name: &str) -> bool {
    BUILTIN_NAMES.contains(&name) && !CPS_CONTROL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_duplicate_names() {
        let mut seen = std::collections::HashSet::new();
        for n in BUILTIN_NAMES {
            assert!(seen.insert(n), "duplicate builtin {n}");
        }
    }

    #[test]
    fn control_ops_are_builtins_but_not_direct() {
        for n in CPS_CONTROL {
            assert!(BUILTIN_NAMES.contains(n), "{n} missing from BUILTIN_NAMES");
            assert!(!cps_direct(n));
        }
        assert!(cps_direct("cons"));
        assert!(!cps_direct("map"), "prelude procedures are not direct");
    }
}
