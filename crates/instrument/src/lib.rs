//! `acctee-instrument` — AccTEE's instrumentation enclave logic.
//!
//! This crate implements the paper's core contribution (§3.5–§3.7):
//! rewriting a WebAssembly module so that it maintains a *weighted
//! instruction counter* in a fresh module global that the workload
//! cannot name, with three instrumentation levels:
//!
//! * [`Level::Naive`] — one counter increment per basic block (§3.5);
//! * [`Level::FlowBased`] — the two control-flow-graph transformations
//!   of §3.6 (dominator push-down and min-over-predecessors hoisting)
//!   that elide or shrink increments;
//! * [`Level::LoopBased`] — additionally hoists increments out of
//!   counted loops with a single induction-variable write (§3.6).
//!
//! The defining invariant, enforced by unit and property tests across
//! all levels: *for any terminating execution, the injected counter
//! equals the oracle weighted instruction count of the original
//! module*.

pub mod cfg;
pub mod loopopt;
pub mod segment;
pub mod wat;
pub mod weights;

pub use segment::{
    instrument, InstrumentError, InstrumentStats, Instrumented, Level, COUNTER_EXPORT,
};
pub use wat::instrument_wat;
pub use weights::WeightTable;
