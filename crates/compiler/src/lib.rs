//! Scheme compilers targeting the oneshot bytecode VM.
//!
//! Two pipelines share one front end (reader data → expanded core AST) and
//! one back end (AST → bytecode):
//!
//! * the **direct-style** compiler, which uses the stack discipline of
//!   §3.1 of the paper — every call allocates a frame at a compile-time
//!   displacement from the caller's frame pointer, and return addresses
//!   carry that displacement so the runtime can walk and split stacks; and
//! * the **CPS** compiler ([`cps_convert`]), which converts programs to
//!   continuation-passing style first, so every continuation becomes a
//!   heap-allocated closure and all calls are tail calls. This reproduces
//!   the heap-based representation of control used as the baseline in §4
//!   (the CPS thread system) and §5 (the Appel–Shao comparison).
//!
//! # Example
//!
//! ```
//! use oneshot_compiler::{compile_program_with, CompilerOptions, Pipeline};
//! use oneshot_sexp::read_all;
//!
//! let forms = read_all("(define (id x) x) (id 42)").unwrap();
//! // The last argument is the CPS converter's direct-call test; the
//! // direct-style pipeline never asks it.
//! let prog =
//!     compile_program_with(&forms, Pipeline::Direct, CompilerOptions::default(), |_| false)
//!         .unwrap();
//! assert!(prog.codes.len() >= 2); // the toplevel thunk and `id`
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod ast;
mod codegen;
mod cps;
mod expand;
mod ops;
pub mod peephole;

pub use ast::{Expr, Lambda, Program, VarId};
pub use codegen::compile_program_with;
pub use cps::cps_convert;
pub use expand::{expand_program, CompileError};
pub use ops::{CodeObject, CompiledProgram, FreeSrc, Op, MNEMONICS};

/// Back-end options, independent of the [`Pipeline`] choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerOptions {
    /// Run the peephole superinstruction pass ([`peephole::fuse`]) on every
    /// generated code body. On by default; turning it off yields the
    /// unfused instruction stream. Its users are the fused-vs-unfused
    /// differential tests (`vm/tests/fusion.rs`, `vm/tests/arith.rs`,
    /// `threads/tests/gc.rs`, `exec/tests/pool.rs`), which check that
    /// results and control-event counters are identical either way, and
    /// `vm/tests/library_cache.rs`, which checks that it keys the cache of
    /// compiled libraries.
    pub fuse: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions { fuse: true }
    }
}

/// Which compilation pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pipeline {
    /// Direct style: stack frames, the paper's representation of control.
    #[default]
    Direct,
    /// Continuation-passing style: control in heap closures (the baseline).
    Cps,
}
