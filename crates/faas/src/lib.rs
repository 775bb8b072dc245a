//! `acctee-faas` — the Function-as-a-Service comparison of §5.3 /
//! Fig 9.
//!
//! The paper deploys `echo` and `resize` behind a Node.js HTTP server
//! (or OpenFaaS for the JS baseline) and drives them with `h2load`
//! using 10 concurrent clients. We reproduce the *comparison*, not the
//! testbed: the [`rig`] serves each function on the paths this
//! repository has — the plain interpreter, the accounted `acctee-net`
//! server, MiniJS — and a closed-loop discrete-event simulator
//! ([`sim`]) computes the steady-state throughput of each
//! configuration from per-request service times.
//!
//! Service times combine a *measured* component (one request on the
//! row's path on this machine) with a *modelled* component (the HTTP
//! front end, the SGX-LKL syscall path and SGX hardware-mode factors),
//! as documented in DESIGN.md §2.

pub mod rig;
pub mod setup;
pub mod sim;

pub use rig::{median_service_ns, FunctionKind, Rig, Round, Sample};
pub use setup::Setup;
pub use sim::{ClosedLoopSim, SimReport};
