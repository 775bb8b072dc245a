//! `acctee-interp` — a WebAssembly interpreter with metering hooks.
//!
//! This crate executes modules built by `acctee-wasm`. It is the
//! *execution sandbox* half of AccTEE's two-way sandbox: linear memory
//! is bounds-checked, the call stack is protected, and workload code
//! can only reach state it explicitly imports.
//!
//! Two features exist specifically for the reproduction:
//!
//! * an [`Observer`] hook that sees every executed instruction and
//!   every memory access — used for the oracle instruction count
//!   (the ground truth the instrumented counter is validated against)
//!   and to drive the cycle-cost model of `acctee-cachesim`;
//! * deterministic resource limits (fuel, memory, call depth) so that
//!   adversarial workloads terminate.
//!
//! # Example
//!
//! ```
//! use acctee_wasm::builder::ModuleBuilder;
//! use acctee_wasm::types::ValType;
//! use acctee_interp::{Instance, Value};
//!
//! let mut b = ModuleBuilder::new();
//! let f = b.func("add1", &[ValType::I32], &[ValType::I32], |f| {
//!     f.local_get(0);
//!     f.i32_const(1);
//!     f.i32_add();
//! });
//! b.export_func("add1", f);
//! let module = b.build();
//! let mut inst = Instance::new(&module, acctee_interp::Imports::new()).unwrap();
//! let out = inst.invoke("add1", &[Value::I32(41)]).unwrap();
//! assert_eq!(out, vec![Value::I32(42)]);
//! ```

mod compile;
mod exec;
mod host;
mod memory;
mod numslot;
mod observer;
mod profile;
mod regalloc;
mod regs;
mod stats;
mod trap;
mod value;

pub use exec::{Config, Engine, Instance, DEADLINE_CHECK_INTERVAL};
pub use host::{HostCtx, HostFunc, Imports};
pub use memory::Memory;
pub use observer::{
    Accounting, CountingObserver, InstrWeights, NullObserver, Observer, WeightsKey,
};
pub use profile::{FuncProfile, OpClass, ProfileReport, ProfilingObserver};
pub use regs::CompiledModule;
pub use stats::ExecStats;
pub use trap::Trap;
pub use value::Value;
