//! The oneshot bytecode VM: a Scheme system whose control representation
//! is the segmented stack of Bruggeman, Waddell, and Dybvig (PLDI 1996).
//!
//! `call/cc` captures multi-shot continuations by sealing stack segments
//! (no copying at capture; bounded copying with splitting at
//! reinstatement); `call/1cc` captures one-shot continuations whose
//! reinstatement is O(1); stack overflow is an implicit `call/1cc` with
//! hysteresis; one-shot continuations are promoted when captured by
//! `call/cc`. The VM additionally supports `dynamic-wind`, multiple return
//! values, and Dybvig–Hieb-style engine timer interrupts (the
//! context-switch mechanism behind the paper's Figure 5).
//!
//! # Example
//!
//! ```
//! use oneshot_vm::Vm;
//!
//! let mut vm = Vm::new();
//! let v = vm.eval_str("(+ 1 (call/cc (lambda (k) (k 41))))").unwrap();
//! assert_eq!(vm.display_value(&v), "42");
//!
//! // One-shot continuations may be invoked only once.
//! let e = vm
//!     .eval_str(
//!         "(let ((k (call/1cc (lambda (k) k))))
//!            (if (procedure? k) (k 1) 'done))",
//!     )
//!     .unwrap_err();
//! assert!(e.to_string().contains("one-shot"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod net;
mod slot;
mod vm;

pub use error::{ConditionKind, VmError};
pub use slot::{Resume, Slot};
pub use vm::{GlobalSlot, LinkedProgram, ProbeSpec, Vm, VmBuilder, VmConfig, VmStats};

pub use oneshot_compiler::{CompiledProgram, CompilerOptions, Pipeline};
/// The counter-table macro, for the pool's counters in `oneshot-exec`.
#[doc(hidden)]
pub use oneshot_core::counters;
pub use oneshot_core::{FaultClock, FaultPlan};
pub use oneshot_runtime::{Obj, ObjRef, SymbolId, Value};
