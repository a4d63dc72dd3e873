//! The paper-figure regenerator: E1–E8 of DESIGN.md's per-experiment index
//! (Figure 5, the §4 `tak` and deep-recursion rows, the §3/§5 ablations)
//! from one command, and nothing else. Speed is measured on the ledger
//! (`benchmark/`); contracts are tests in the crates that own them.
//!
//! * [`workloads`] — the benchmark programs (tak/ctak, fib, boyer, deep
//!   recursion);
//! * [`measure`] — wall clock plus counter deltas for one evaluation;
//! * [`table`] — cells, the aligned text table and the JSON document;
//! * [`experiments`] — the eight experiments, each declared once with the
//!   check of its shape.
//!
//! ```text
//! cargo run --release -p oneshot-bench --bin experiments -- all
//! cargo run --release -p oneshot-bench --bin experiments -- figure5 --paper
//! ```
//!
//! The exit status is the check: non-zero when any experiment's counters
//! do not have the paper's shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod table;
pub mod workloads;
