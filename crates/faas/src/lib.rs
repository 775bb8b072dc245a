//! `acctee-faas` — a Function-as-a-Service platform simulation
//! (§5.3 / Fig 9).
//!
//! The paper deploys `echo` and `resize` behind a Node.js HTTP server
//! (or OpenFaaS for the JS baseline) and drives them with `h2load`
//! using 10 concurrent clients. We reproduce the *comparison*, not the
//! testbed: a [`FaasPlatform`] instantiates a fresh module per
//! request (as the paper does for isolation), and a closed-loop
//! discrete-event simulator ([`sim`]) computes the steady-state
//! throughput for each configuration from per-request service times.
//!
//! Service times combine a *measured* component (actual execution of
//! the wasm/MiniJS function on this machine) with a *modelled*
//! component (the SGX-LKL syscall path and SGX hardware-mode factors
//! from `acctee-cachesim`), as documented in DESIGN.md §2.

pub mod platform;
pub mod setup;
pub mod sim;

pub use platform::{FaasPlatform, FunctionKind, RequestStats};
pub use setup::Setup;
pub use sim::{ClosedLoopSim, SimReport};
