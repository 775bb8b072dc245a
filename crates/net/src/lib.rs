//! `acctee-net` — the networked serving layer in front of the AccTEE
//! pipeline (DESIGN.md §11).
//!
//! Three pieces:
//!
//! * [`wire`] — a versioned, length-prefixed binary protocol with
//!   canonical encodings of quotes, evidence and signed usage logs, so
//!   everything the enclaves sign verifies byte-identically on the
//!   client side;
//! * [`server`] — an attested TCP front end over a [`acctee::Deployment`]:
//!   epoll event loops, admission control with explicit load shed,
//!   per-tenant in-flight limits, per-request wall-clock deadlines and
//!   graceful drain;
//! * [`client`] — the verifying counterpart: reconstructs the
//!   attestation authority from the shared root seed, attests the
//!   channel with a fresh nonce, and hard-fails on any quote, evidence
//!   or log that does not verify.
//!
//! A fourth piece, [`stats`], is the live telemetry plane behind the
//! `Stats`, `Health` and `Recent` wire frames (DESIGN.md §12):
//! per-server counters and latency histograms, per-tenant metered
//! usage, and a bounded flight recorder of recent requests — all
//! queryable over the attested channel (`acctee stats`, `acctee top`,
//! `acctee recent`).
//!
//! The `acctee` CLI (this crate's binary) exposes the whole thing as
//! `acctee serve`, `acctee deploy`, `acctee invoke`, `acctee stats`,
//! `acctee top` and `acctee recent`.

// The server multiplexes connections over epoll (`poll`), the one I/O
// path it has; other hosts have no implementation to fall back to.
#[cfg(not(target_os = "linux"))]
compile_error!("acctee-net serves over epoll and builds only for Linux");

pub mod client;
pub mod poll;
pub mod server;
pub mod stats;
pub mod wire;

pub use acctee_durable::{Durable, DurableOptions, FsyncPolicy, SignedSettlement};
pub use client::{
    Client, Connection, DeployHandle, InvokeOutcome, InvokeSpec, NetError, TrustAnchor,
};
pub use server::{lock_or_recover, IoMode, Server, ServerConfig};
pub use stats::{
    CacheStats, FlightRecorder, HealthReport, LatencySummary, RequestOutcome, RequestRecord,
    ServerStats, StatsSnapshot, TenantStats,
};
pub use wire::{
    FleetAck, FleetReport, FleetSubmission, FleetUnit, FleetWorkerRow, Request, Response, WireError,
};
