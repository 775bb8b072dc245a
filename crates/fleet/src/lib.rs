//! `acctee-fleet` — a coordinator that farms campaign work units out
//! to many `acctee-net` worker nodes (DESIGN.md §16).
//!
//! The serving plane (§11–§14) answers requests one connection at a
//! time; this crate is the opposite shape: one [`coordinator`] owns a
//! campaign of work units and many volunteer nodes *pull* units from
//! it, execute them inside their own accounting enclaves, and submit
//! signed resource-usage logs back. Five pieces make that trustworthy
//! on untrusted nodes:
//!
//! * **attested membership** ([`coordinator`]) — a node joins by
//!   answering a fresh-nonce challenge with a quote from its
//!   accounting enclave, verified exactly like the serving plane's
//!   channel attestation; only recognised enclave identities get work;
//! * **a durable job queue** ([`journal`]) — every campaign-changing
//!   event (unit added, check scheduled, verified submission, unit
//!   completed, node quarantined, session lease) is a CRC-framed
//!   journal record, and each request's records are committed with one
//!   fsync *before* its acknowledgement leaves, so a `kill -9`'d
//!   coordinator resumes without losing or double-crediting a unit;
//! * **redundant spot checks** — a sampled fraction of units (plus
//!   every new node's probation units) is executed by two distinct
//!   nodes and the signed counters compared bit-for-bit; a mismatch is
//!   referred to the coordinator's own enclave and the dissenting node
//!   is quarantined. This is what catches the one attack attestation
//!   cannot: a node that executes genuinely (valid log) but lies about
//!   the *result*, which is not bound into the log;
//! * **straggler re-dispatch** — each assignment carries a wall-clock
//!   deadline; the worker enforces it in-enclave via the interpreter's
//!   `DeadlineExceeded` trap (no second timer path), and the
//!   coordinator re-queues assignments that never come back at all;
//! * **reimbursement reconciliation** ([`reconcile`]) — verified logs
//!   fold through the [`reimburse`] escrow into per-node statements
//!   signed by the coordinator's enclave, with an optional bounty pool
//!   split by largest-remainder apportionment.
//!
//! The `acctee` CLI (this crate's binary) exposes it as `acctee fleet
//! coordinate|work|status`, riding the versioned `acctee-net` framing
//! (`FleetHello` .. `FleetStatusOk`).

pub mod coordinator;
pub mod journal;
pub mod reconcile;
pub mod reimburse;
pub mod unit;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorHandle, FleetConfig};
pub use journal::{Journal, JournalReplay, JournalUnit};
pub use reconcile::{reconcile, NodeStatement, ReconcileConfig, SignedNodeStatement};
pub use unit::{result_key, UnitSpec, WorkloadKind};
pub use worker::{run_worker, Behavior, WorkerConfig, WorkerExit, WorkerSummary};

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// Transport or file-system failure.
    Io(std::io::Error),
    /// The journal holds acknowledged data that no longer checks out.
    Corrupt(String),
    /// A protocol-level failure talking to the peer.
    Protocol(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "i/o: {e}"),
            FleetError::Corrupt(m) => write!(f, "journal corrupt: {m}"),
            FleetError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

impl From<acctee_durable::framed::Damaged> for FleetError {
    fn from(e: acctee_durable::framed::Damaged) -> FleetError {
        FleetError::Corrupt(e.0)
    }
}

impl From<acctee::codec::CodecError> for FleetError {
    fn from(e: acctee::codec::CodecError) -> FleetError {
        FleetError::Corrupt(format!("event body: {e}"))
    }
}
