//! Segmented-stack representation of control with one-shot and multi-shot
//! continuations.
//!
//! This crate implements the control representation described in
//! *Bruggeman, Waddell, Dybvig — "Representing Control in the Presence of
//! One-Shot Continuations"* (PLDI 1996). The logical control stack is a
//! linked list of fixed-size *stack segments*; each segment is a true stack
//! of frames, and a *stack record* describes the portion of a segment owned
//! by the running computation. First-class continuations are captured by
//! converting stack records into [`Kont`] objects:
//!
//! * **Multi-shot** continuations ([`SegStack::capture_multi`], the
//!   traditional `call/cc`) *seal* the occupied portion of the current
//!   segment — no copying at capture time — and shorten the current segment.
//!   Reinstatement copies the saved frames back, bounded by a *copy bound*
//!   with lazy splitting at frame boundaries.
//! * **One-shot** continuations ([`SegStack::capture_one`], `call/1cc`)
//!   encapsulate the entire segment and take a fresh segment from a
//!   *segment cache*. Reinstatement is O(1): the current segment is
//!   discarded into the cache and control simply returns to the saved
//!   segment. Invoking a one-shot continuation twice is an error.
//! * One-shot continuations captured as part of a multi-shot continuation
//!   are *promoted* to multi-shot status ([`PromotionStrategy`]), either by
//!   an eager walk of the continuation chain (the paper's implementation)
//!   or by a shared boxed flag (the paper's proposed bounded-time variant).
//! * **Stack overflow** is treated as an implicit one-shot capture with
//!   *hysteresis*: a few frames are copied up into the fresh segment so an
//!   immediate return does not bounce between segments
//!   ([`OverflowPolicy`]).
//!
//! The crate is generic over the slot type `S` stored in stack frames, so it
//! can be tested in isolation and reused by any embedder; the `oneshot-vm`
//! crate instantiates it with Scheme values.
//!
//! # Example
//!
//! ```
//! use oneshot_core::{Config, SegStack, Reinstated};
//!
//! // Slots are plain integers; 0 is the underflow marker, and a return
//! // address `r` encodes a frame displacement `r`, which `walker` reads back.
//! let mut st: SegStack<i64> = SegStack::new(Config::default(), 0);
//! let walker = |s: &i64| if *s > 0 { Some(*s as usize) } else { None };
//!
//! // Push a frame: return address with displacement 4, then a local.
//! let fp = st.fp();
//! st.push_frame(4, 100);
//! st.set(st.fp() + 1, 42);
//!
//! // Capture the continuation of this point, one-shot.
//! let k = st.capture_one(2).expect("non-empty stack");
//!
//! // ... control goes elsewhere; later the continuation is invoked:
//! match st.reinstate(k, &walker).unwrap() {
//!     Reinstated { ret, .. } => assert_eq!(ret, 100),
//! }
//! // A second invocation is detected and rejected.
//! assert!(st.reinstate(k, &walker).is_err());
//! ```

// Unsafe is denied by default and allowed in exactly two leaf modules
// (`arena`, `stack`): the debug-asserted unchecked slot accessors on the
// segmented stack's hot paths. Every `unsafe` block there restates the
// invariant it relies on and is covered by a `debug_assert!`, so the
// debug-profile CI step runs the whole suite with the checks on.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod config;
mod error;
mod fault;
mod kont;
pub mod probe;
mod stack;
mod stats;

pub use config::{Config, OneShotPolicy, OverflowPolicy, PromotionStrategy};
pub use error::{ConfigError, ControlError};
pub use fault::{FaultClock, FaultPlan};
pub use kont::{Kont, KontId, KontKind};
pub use probe::{ProbeEvent, RingTraceProbe};
pub use stack::{Overflow, Reinstated, SegStack, SegmentId, Underflow};
pub use stats::Stats;
#[doc(hidden)]
pub use stats::{CounterField, MaxCell, SumCell};
