//! `acctee` — a WebAssembly-based two-way sandbox for trusted resource
//! accounting.
//!
//! This crate is the reproduction of the AccTEE system (Goltzsche et
//! al., Middleware '19). It combines:
//!
//! * the **execution sandbox** (`acctee-interp`): WebAssembly's
//!   language-based isolation keeps the workload away from the host and
//!   from the accounting state;
//! * the **accounting enclave** (`acctee-sgx` simulation): hardware
//!   isolation plus remote attestation keep the host away from the
//!   workload and make the accounting verifiable.
//!
//! The flow (paper Fig. 3):
//!
//! 1. The workload provider compiles code to WebAssembly and sends it
//!    to the [`InstrumentationEnclave`], which injects the weighted
//!    instruction counter and emits signed
//!    [`evidence::InstrumentationEvidence`].
//! 2. The infrastructure provider runs the instrumented module inside
//!    an [`AccountingEnclave`], which verifies the evidence, executes
//!    the workload, meters CPU (weighted instructions), memory (peak
//!    and instruction-integral) and I/O (bytes through host imports),
//!    and emits a signed [`log::ResourceUsageLog`].
//! 3. Both parties verify the enclave quotes against the attestation
//!    authority and then trust the log ([`session`]).
//!
//! # Example
//!
//! ```
//! use acctee::{Deployment, Level};
//! use acctee_wasm::builder::ModuleBuilder;
//! use acctee_wasm::types::ValType;
//! use acctee_interp::Value;
//!
//! // A trivial workload.
//! let mut b = ModuleBuilder::new();
//! let f = b.func("main", &[ValType::I32], &[ValType::I32], |f| {
//!     f.local_get(0);
//!     f.i32_const(1);
//!     f.i32_add();
//! });
//! b.export_func("main", f);
//! let wasm = acctee_wasm::encode::encode_module(&b.build());
//!
//! // One-call setup of authority, platforms and both enclaves.
//! let mut dep = Deployment::new(42);
//! let (module, evidence) = dep.instrument(&wasm, Level::LoopBased).unwrap();
//! let outcome = dep.execute(&module, &evidence, "main", &[Value::I32(41)], b"").unwrap();
//! assert_eq!(outcome.results, vec![Value::I32(42)]);
//! assert!(outcome.log.log.weighted_instructions > 0);
//! // The workload provider independently verifies the signed log.
//! dep.workload_provider().verify_log(&outcome.log).unwrap();
//! ```

pub mod cache;
pub mod codec;
pub mod enclave;
pub mod error;
pub mod evidence;
pub mod io;
pub mod log;
pub mod pricing;
pub mod session;

pub use cache::InstrumentationCache;
pub use enclave::{
    ae_code, channel_binding, ie_code, AccountingEnclave, ExecutionOutcome, InstrumentationEnclave,
};
pub use error::AccTeeError;
pub use evidence::InstrumentationEvidence;
pub use io::IoMeter;
pub use log::{ResourceUsageLog, SignedLog};
pub use pricing::{Invoice, PricingModel};
pub use session::{Deployment, InfrastructureProvider, WorkloadProvider};

pub use acctee_instrument::{Level, WeightTable};
