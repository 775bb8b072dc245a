//! The AccTEE wire protocol: length-prefixed binary frames with a
//! versioned header and canonical encodings for every attested
//! artifact.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic    [4]   b"ACNT"
//! version  u16   WIRE_VERSION
//! kind     u8    frame discriminant (requests 0x01.., responses 0x81..)
//! length   u32   payload length, capped at MAX_PAYLOAD
//! payload  [length]
//! ```
//!
//! Payloads are written with the shared [`acctee::codec`], so the
//! encodings of [`Quote`], [`SignedLog`] and its
//! [`ResourceUsageLog`](acctee::ResourceUsageLog) are the ones the WAL
//! stores, and with [`InstrumentationEvidence`] they are
//! **canonical**: decoding and re-encoding is the identity, and the
//! decoded structs are field-for-field identical to the server's
//! originals. That is what makes remote verification work — the client
//! recomputes the log and evidence bindings over the
//! *received* bytes and checks them against the quote's report data,
//! so any in-flight tampering breaks the MAC check exactly as it would
//! in-process. Floats travel as IEEE-754 bit patterns (`to_bits`), so
//! NaN payloads and signed zeros survive the trip bit-exactly.
//!
//! Decoding is total: truncated, oversized or garbage frames produce a
//! [`WireError`], never a panic, and a frame must consume its payload
//! exactly (trailing bytes are an error).

use std::io::{Read, Write};

use acctee::codec::{CodecError, Dec, Enc};
use acctee::{InstrumentationEvidence, Level, SignedLog};
use acctee_interp::Value;
use acctee_sgx::Quote;

use crate::stats::{
    CacheStats, HealthReport, LatencySummary, RequestOutcome, RequestRecord, StatsSnapshot,
    TenantStats,
};

/// Protocol magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"ACNT";
/// Current protocol version. Version 2 added client trace ids on
/// `Deploy`/`Invoke` and the `Stats`/`Health`/`Recent` telemetry
/// frames. Version 3 added the fleet coordination frames
/// (`FleetHello` .. `FleetStatus`) for distributed volunteer
/// campaigns.
pub const WIRE_VERSION: u16 = 3;
/// Upper bound on a frame payload (modules included).
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

const REQ_ATTEST: u8 = 0x01;
const REQ_DEPLOY: u8 = 0x02;
const REQ_INVOKE: u8 = 0x03;
const REQ_FETCH_LOG: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_STATS: u8 = 0x06;
const REQ_HEALTH: u8 = 0x07;
const REQ_RECENT: u8 = 0x08;
const REQ_FLEET_HELLO: u8 = 0x09;
const REQ_FLEET_JOIN: u8 = 0x0a;
const REQ_FLEET_PULL: u8 = 0x0b;
const REQ_FLEET_SUBMIT: u8 = 0x0c;
const REQ_FLEET_STATUS: u8 = 0x0d;

const RESP_ATTEST_OK: u8 = 0x81;
const RESP_DEPLOY_OK: u8 = 0x82;
const RESP_INVOKE_OK: u8 = 0x83;
const RESP_LOG_OK: u8 = 0x84;
const RESP_SHUTDOWN_OK: u8 = 0x85;
const RESP_BUSY: u8 = 0x86;
const RESP_ERROR: u8 = 0x87;
const RESP_STATS_OK: u8 = 0x88;
const RESP_STATS_TEXT_OK: u8 = 0x89;
const RESP_HEALTH_OK: u8 = 0x8a;
const RESP_RECENT_OK: u8 = 0x8b;
const RESP_FLEET_CHALLENGE: u8 = 0x8c;
const RESP_FLEET_WELCOME: u8 = 0x8d;
const RESP_FLEET_ASSIGN: u8 = 0x8e;
const RESP_FLEET_ACK: u8 = 0x8f;
const RESP_FLEET_STATUS_OK: u8 = 0x90;

/// One dispatched work unit: the coordinator's instrumented module
/// plus the evidence the worker's accounting enclave verifies before
/// executing (the two-way sandbox, now over the network). The session
/// id is coordinator-assigned and unique per dispatch attempt, so the
/// signed log that comes back is bound to exactly this assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetUnit {
    /// Campaign-unique unit id.
    pub unit_id: u64,
    /// Session id the worker must execute under (anti-replay key for
    /// both the coordinator's journal and the escrow).
    pub session_id: u64,
    /// Exported function to invoke.
    pub func: String,
    /// Instrumented module binary.
    pub module: Vec<u8>,
    /// Instrumentation-enclave evidence over `module`.
    pub evidence: InstrumentationEvidence,
    /// Worker-side execution budget in milliseconds: the worker's AE
    /// runs the unit under `Config::time_budget`, so an over-budget
    /// unit traps with `DeadlineExceeded` instead of hanging the node.
    pub deadline_ms: u64,
}

/// What a worker reports back for a dispatched unit.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetSubmission {
    /// The unit executed inside the worker's accounting enclave.
    Completed {
        /// Returned values.
        results: Vec<Value>,
        /// The worker AE's signed resource-usage log (boxed: a signed
        /// log dwarfs the other variants).
        log: Box<SignedLog>,
    },
    /// Execution trapped (deadline exceeded, fuel, …); the coordinator
    /// re-dispatches.
    Trapped {
        /// Trap description.
        reason: String,
    },
}

/// The coordinator's verdict on a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetAck {
    /// Verified and recorded.
    Accepted,
    /// The assignment is no longer live (unit already completed
    /// elsewhere after a steal or re-dispatch); nothing was credited.
    Stale,
    /// The submission failed verification or referenced no live
    /// assignment.
    Rejected {
        /// Why.
        reason: String,
    },
    /// The submitting node is quarantined; it should stop pulling.
    Quarantined {
        /// Why.
        reason: String,
    },
}

/// Per-node row in a fleet status report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkerRow {
    /// Node name (from its join).
    pub name: String,
    /// Verified completions credited to this node.
    pub completed: u64,
    /// Assignments currently outstanding on this node.
    pub inflight: u32,
    /// Whether the node is quarantined.
    pub quarantined: bool,
}

/// A point-in-time campaign snapshot (the `acctee fleet status` view).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Work units in the campaign.
    pub units_total: u64,
    /// Units whose required executions are all verified.
    pub completed: u64,
    /// Dispatch tickets waiting for a worker.
    pub pending: u64,
    /// Assignments currently outstanding.
    pub inflight: u64,
    /// Units selected for redundant spot-check execution.
    pub checks_scheduled: u64,
    /// Spot-check pairs whose signed counters or results disagreed.
    pub checks_mismatched: u64,
    /// Assignments re-dispatched after a deadline trap or straggler
    /// timeout.
    pub redispatched: u64,
    /// Submissions rejected by log verification.
    pub rejected: u64,
    /// Whether every unit is complete.
    pub done: bool,
    /// Per-node rows.
    pub workers: Vec<FleetWorkerRow>,
}

/// Why a frame failed to decode (or the transport failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Transport-level I/O failure (includes mid-frame EOF).
    Io(std::io::ErrorKind, String),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Unknown frame kind for the expected direction.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before the structure was complete.
    Truncated,
    /// The payload had bytes left over after the structure.
    TrailingBytes(usize),
    /// An enum tag (value type, level) was out of range.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadTag(t) => write!(f, "bad enum tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind(), e.to_string())
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Attestation handshake: quote the accounting enclave over a
    /// fresh channel nonce.
    Attest {
        /// Client-chosen freshness nonce, bound into the quote.
        nonce: [u8; 32],
    },
    /// Instrument and load a module for later invocation.
    Deploy {
        /// Instrumentation level.
        level: Level,
        /// The original (un-instrumented) module binary.
        module: Vec<u8>,
        /// Client-generated trace id, stamped on the server's spans
        /// and flight-recorder record for this request (0 = untraced).
        trace_id: u64,
    },
    /// Execute a deployed function under accounting.
    Invoke {
        /// Handle returned by a prior deploy.
        deploy_id: u64,
        /// Exported function to call.
        func: String,
        /// Typed arguments.
        args: Vec<Value>,
        /// Bytes available to the workload's input import.
        input: Vec<u8>,
        /// Tenant name, for per-tenant admission control.
        tenant: String,
        /// Client-generated trace id, stamped on the server's spans
        /// and flight-recorder record for this request (0 = untraced).
        trace_id: u64,
    },
    /// Re-fetch the signed log of an earlier session.
    FetchLog {
        /// Session whose log to return.
        session_id: u64,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// A point-in-time operational snapshot of the server.
    Stats {
        /// `false` → structured [`StatsSnapshot`] (`StatsOk`);
        /// `true` → Prometheus text exposition (`StatsTextOk`).
        prometheus: bool,
    },
    /// A cheap liveness/readiness probe.
    Health,
    /// Up to `limit` recent request records from the flight recorder,
    /// newest first.
    Recent {
        /// Maximum records to return.
        limit: u32,
    },
    /// A worker announces itself to a fleet coordinator and asks for
    /// an attestation challenge.
    FleetHello {
        /// Node name (also its platform name for attestation).
        worker: String,
    },
    /// The worker answers the challenge: a quote from its accounting
    /// enclave binding the coordinator's nonce.
    FleetJoin {
        /// Node name (must match the hello on this connection).
        worker: String,
        /// AE quote over `channel_binding(nonce)`.
        quote: Quote,
    },
    /// An attested worker asks for up to `capacity` work units.
    FleetPull {
        /// Membership id from the welcome.
        worker_id: u64,
        /// How many units the node is willing to queue locally.
        capacity: u32,
    },
    /// A worker reports the outcome of one assignment.
    FleetSubmit {
        /// Membership id from the welcome.
        worker_id: u64,
        /// The assignment's unit id.
        unit_id: u64,
        /// The assignment's session id (binds the submission to one
        /// dispatch attempt).
        session_id: u64,
        /// The outcome.
        submission: FleetSubmission,
    },
    /// Campaign progress snapshot (unauthenticated read-only view).
    FleetStatus,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Quote over the channel nonce.
    AttestOk {
        /// Accounting-enclave quote binding the nonce.
        quote: Quote,
    },
    /// Module instrumented, verified and loaded.
    DeployOk {
        /// Handle for invokes.
        deploy_id: u64,
        /// The instrumented module binary (the client verifies the
        /// evidence against these exact bytes).
        module: Vec<u8>,
        /// Instrumentation-enclave evidence.
        evidence: InstrumentationEvidence,
    },
    /// Execution finished; the signed log travels with the result.
    InvokeOk {
        /// Server-assigned, monotonically unique session id.
        session_id: u64,
        /// Returned values.
        results: Vec<Value>,
        /// Workload output bytes.
        output: Vec<u8>,
        /// The accounting enclave's signed resource usage log.
        log: SignedLog,
        /// Invoice total under the server's pricing, in nano-credits.
        invoice_total: u128,
    },
    /// The requested session's signed log.
    LogOk {
        /// Stored signed log.
        log: SignedLog,
    },
    /// The server is draining and will exit.
    ShutdownOk,
    /// Load shed: admission queue or tenant in-flight limit is full.
    /// Retry later; nothing was executed or billed.
    Busy,
    /// The request failed; human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The structured stats snapshot.
    StatsOk {
        /// Point-in-time operational state.
        snapshot: StatsSnapshot,
    },
    /// The stats snapshot rendered as Prometheus text exposition.
    StatsTextOk {
        /// Strictly parseable exposition text.
        text: String,
    },
    /// The liveness report.
    HealthOk {
        /// Current health.
        report: HealthReport,
    },
    /// Recent request records, newest first.
    RecentOk {
        /// Flight-recorder records.
        records: Vec<RequestRecord>,
    },
    /// The coordinator's attestation challenge for a joining worker.
    FleetChallenge {
        /// Fresh nonce the worker's AE must bind.
        nonce: [u8; 32],
    },
    /// The worker's quote verified; it is now a fleet member.
    FleetWelcome {
        /// Membership id for pulls and submits on any connection.
        worker_id: u64,
    },
    /// Work units granted to a pull (possibly none).
    FleetAssign {
        /// Granted assignments, to execute in order.
        units: Vec<FleetUnit>,
        /// `true` once the campaign is complete — the worker should
        /// exit instead of polling again.
        done: bool,
    },
    /// Verdict on a submission.
    FleetAckOk {
        /// The coordinator's decision.
        ack: FleetAck,
    },
    /// The campaign snapshot.
    FleetStatusOk {
        /// Point-in-time campaign state.
        fleet: FleetReport,
    },
}

// ---------------------------------------------------------------- encode

fn put_value(e: &mut Enc, v: &Value) {
    match v {
        Value::I32(x) => {
            e.u8(0);
            e.u32(*x as u32);
        }
        Value::I64(x) => {
            e.u8(1);
            e.u64(*x as u64);
        }
        Value::F32(x) => {
            e.u8(2);
            e.u32(x.to_bits());
        }
        Value::F64(x) => {
            e.u8(3);
            e.u64(x.to_bits());
        }
    }
}

fn put_evidence(e: &mut Enc, ev: &InstrumentationEvidence) {
    e.raw(&ev.original_hash);
    e.raw(&ev.instrumented_hash);
    e.u8(ev.level.tag());
    e.raw(&ev.weight_hash);
    e.u32(ev.counter_global);
    e.quote(&ev.quote);
}

fn outcome_byte(o: RequestOutcome) -> u8 {
    match o {
        RequestOutcome::Ok => 0,
        RequestOutcome::Shed => 1,
        RequestOutcome::Error => 2,
        RequestOutcome::Timeout => 3,
    }
}

fn put_record(e: &mut Enc, r: &RequestRecord) {
    e.u64(r.trace_id);
    e.bytes(r.kind.as_bytes());
    e.bytes(r.tenant.as_bytes());
    e.bytes(r.func.as_bytes());
    e.u64(r.session_id);
    e.u8(outcome_byte(r.outcome));
    e.bytes(r.error.as_bytes());
    e.u64(r.start_ns);
    e.u64(r.total_ns);
    e.list(&r.stages, |e, (stage, ns)| {
        e.bytes(stage.as_bytes());
        e.u64(*ns);
    });
}

fn put_latency(e: &mut Enc, l: &LatencySummary) {
    e.u64(l.count);
    e.u64(l.sum_ns);
    e.u64(l.p50_ns);
    e.u64(l.p90_ns);
    e.u64(l.p99_ns);
}

fn put_snapshot(e: &mut Enc, s: &StatsSnapshot) {
    e.u64(s.uptime_ns);
    e.u32(s.workers);
    e.u32(s.workers_busy);
    e.u32(s.queue_capacity);
    e.u32(s.queue_depth);
    e.u64(s.connections_total);
    e.u32(s.connections_active);
    e.list(&s.requests_by_kind, |e, (kind, n)| {
        e.bytes(kind.as_bytes());
        e.u64(*n);
    });
    e.u64(s.shed_queue_total);
    e.u64(s.shed_tenant_total);
    e.u64(s.errors_total);
    e.u64(s.timeouts_total);
    e.u64(s.wal_commits_total);
    e.u64(s.wal_committed_records_total);
    e.u64(s.instr_cache.hits);
    e.u64(s.instr_cache.misses);
    e.u64(s.instr_cache.evictions);
    e.u64(s.instr_cache.singleflight_waits);
    e.list(&s.tenants, |e, t| {
        e.bytes(t.tenant.as_bytes());
        e.u32(t.inflight);
        e.u64(t.requests_total);
        e.u64(t.shed_total);
        e.u64(t.weighted_instructions_total);
        e.u128(t.invoice_nanocredits_total);
    });
    put_latency(e, &s.latency);
    e.list(&s.stages, |e, (stage, l)| {
        e.bytes(stage.as_bytes());
        put_latency(e, l);
    });
}

fn put_fleet_unit(e: &mut Enc, u: &FleetUnit) {
    e.u64(u.unit_id);
    e.u64(u.session_id);
    e.bytes(u.func.as_bytes());
    e.bytes(&u.module);
    put_evidence(e, &u.evidence);
    e.u64(u.deadline_ms);
}

fn put_fleet_submission(e: &mut Enc, s: &FleetSubmission) {
    match s {
        FleetSubmission::Completed { results, log } => {
            e.u8(0);
            e.list(results, put_value);
            e.signed_log(log);
        }
        FleetSubmission::Trapped { reason } => {
            e.u8(1);
            e.bytes(reason.as_bytes());
        }
    }
}

fn put_fleet_ack(e: &mut Enc, a: &FleetAck) {
    match a {
        FleetAck::Accepted => e.u8(0),
        FleetAck::Stale => e.u8(1),
        FleetAck::Rejected { reason } => {
            e.u8(2);
            e.bytes(reason.as_bytes());
        }
        FleetAck::Quarantined { reason } => {
            e.u8(3);
            e.bytes(reason.as_bytes());
        }
    }
}

fn put_fleet_report(e: &mut Enc, r: &FleetReport) {
    e.u64(r.units_total);
    e.u64(r.completed);
    e.u64(r.pending);
    e.u64(r.inflight);
    e.u64(r.checks_scheduled);
    e.u64(r.checks_mismatched);
    e.u64(r.redispatched);
    e.u64(r.rejected);
    e.bool(r.done);
    e.list(&r.workers, |e, w| {
        e.bytes(w.name.as_bytes());
        e.u64(w.completed);
        e.u32(w.inflight);
        e.bool(w.quarantined);
    });
}

fn put_health(e: &mut Enc, h: &HealthReport) {
    e.bool(h.healthy);
    e.bool(h.draining);
    e.u64(h.uptime_ns);
    e.u16(h.wire_version);
    e.u32(h.workers);
    e.u32(h.queue_capacity);
    e.u32(h.deployments);
    e.u64(h.sessions_served);
}

/// Frame header size: magic + version + kind + length.
pub const HEADER_LEN: usize = 11;

/// Appends a frame to `out`: the header, then the payload `write`
/// encodes in place, then the header's kind (`write`'s return value)
/// and payload length are patched in.
fn put_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Enc) -> u8) {
    let mut e = Enc(std::mem::take(out));
    let start = e.0.len();
    e.raw(&MAGIC);
    e.u16(WIRE_VERSION);
    e.raw(&[0; 5]); // kind + length, patched below
    let kind = write(&mut e);
    let len = (e.0.len() - start - HEADER_LEN) as u32;
    e.0[start + 6] = kind;
    e.0[start + 7..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    *out = e.0;
}

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, req);
    out
}

/// Appends a request frame to `out` without intermediate allocations —
/// the write-coalescing path: a pipelining client encodes a whole batch
/// into one buffer and issues a single write.
pub fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    put_frame(out, |e| match req {
        Request::Attest { nonce } => {
            e.raw(nonce);
            REQ_ATTEST
        }
        Request::Deploy {
            level,
            module,
            trace_id,
        } => {
            e.u8(level.tag());
            e.bytes(module);
            e.u64(*trace_id);
            REQ_DEPLOY
        }
        Request::Invoke {
            deploy_id,
            func,
            args,
            input,
            tenant,
            trace_id,
        } => {
            e.u64(*deploy_id);
            e.bytes(func.as_bytes());
            e.list(args, put_value);
            e.bytes(input);
            e.bytes(tenant.as_bytes());
            e.u64(*trace_id);
            REQ_INVOKE
        }
        Request::FetchLog { session_id } => {
            e.u64(*session_id);
            REQ_FETCH_LOG
        }
        Request::Shutdown => REQ_SHUTDOWN,
        Request::Stats { prometheus } => {
            e.bool(*prometheus);
            REQ_STATS
        }
        Request::Health => REQ_HEALTH,
        Request::Recent { limit } => {
            e.u32(*limit);
            REQ_RECENT
        }
        Request::FleetHello { worker } => {
            e.bytes(worker.as_bytes());
            REQ_FLEET_HELLO
        }
        Request::FleetJoin { worker, quote } => {
            e.bytes(worker.as_bytes());
            e.quote(quote);
            REQ_FLEET_JOIN
        }
        Request::FleetPull {
            worker_id,
            capacity,
        } => {
            e.u64(*worker_id);
            e.u32(*capacity);
            REQ_FLEET_PULL
        }
        Request::FleetSubmit {
            worker_id,
            unit_id,
            session_id,
            submission,
        } => {
            e.u64(*worker_id);
            e.u64(*unit_id);
            e.u64(*session_id);
            put_fleet_submission(e, submission);
            REQ_FLEET_SUBMIT
        }
        Request::FleetStatus => REQ_FLEET_STATUS,
    });
}

/// Encodes a response as a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, resp);
    out
}

/// Appends a response frame to `out` without intermediate allocations —
/// the server's write-coalescing path: all responses to a pipelined
/// batch are encoded into one buffer and flushed together.
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    put_frame(out, |e| match resp {
        Response::AttestOk { quote } => {
            e.quote(quote);
            RESP_ATTEST_OK
        }
        Response::DeployOk {
            deploy_id,
            module,
            evidence,
        } => {
            e.u64(*deploy_id);
            e.bytes(module);
            put_evidence(e, evidence);
            RESP_DEPLOY_OK
        }
        Response::InvokeOk {
            session_id,
            results,
            output,
            log,
            invoice_total,
        } => {
            e.u64(*session_id);
            e.list(results, put_value);
            e.bytes(output);
            e.signed_log(log);
            e.u128(*invoice_total);
            RESP_INVOKE_OK
        }
        Response::LogOk { log } => {
            e.signed_log(log);
            RESP_LOG_OK
        }
        Response::ShutdownOk => RESP_SHUTDOWN_OK,
        Response::Busy => RESP_BUSY,
        Response::Error { message } => {
            e.bytes(message.as_bytes());
            RESP_ERROR
        }
        Response::StatsOk { snapshot } => {
            put_snapshot(e, snapshot);
            RESP_STATS_OK
        }
        Response::StatsTextOk { text } => {
            e.bytes(text.as_bytes());
            RESP_STATS_TEXT_OK
        }
        Response::HealthOk { report } => {
            put_health(e, report);
            RESP_HEALTH_OK
        }
        Response::RecentOk { records } => {
            e.list(records, put_record);
            RESP_RECENT_OK
        }
        Response::FleetChallenge { nonce } => {
            e.raw(nonce);
            RESP_FLEET_CHALLENGE
        }
        Response::FleetWelcome { worker_id } => {
            e.u64(*worker_id);
            RESP_FLEET_WELCOME
        }
        Response::FleetAssign { units, done } => {
            e.list(units, put_fleet_unit);
            e.bool(*done);
            RESP_FLEET_ASSIGN
        }
        Response::FleetAckOk { ack } => {
            put_fleet_ack(e, ack);
            RESP_FLEET_ACK
        }
        Response::FleetStatusOk { fleet } => {
            put_fleet_report(e, fleet);
            RESP_FLEET_STATUS_OK
        }
    });
}

/// Writes a request frame to `w`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    w.write_all(&encode_request(req))?;
    w.flush()
}

/// Writes a response frame to `w`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    w.write_all(&encode_response(resp))?;
    w.flush()
}

// ---------------------------------------------------------------- decode

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            // Wire strings are bounded by the payload alone, so a
            // too-long field is one the payload cannot hold.
            CodecError::Truncated | CodecError::FieldTooLong(_) => WireError::Truncated,
            CodecError::BadUtf8 => WireError::BadUtf8,
            CodecError::BadTag(t) => WireError::BadTag(t),
            CodecError::TrailingBytes(n) => WireError::TrailingBytes(n),
        }
    }
}

/// One value: a tag byte and at least four more, so value lists
/// decode with a 5-byte item floor.
fn get_value(c: &mut Dec) -> Result<Value, CodecError> {
    match c.u8()? {
        0 => Ok(Value::I32(c.u32()? as i32)),
        1 => Ok(Value::I64(c.u64()? as i64)),
        2 => Ok(Value::F32(f32::from_bits(c.u32()?))),
        3 => Ok(Value::F64(f64::from_bits(c.u64()?))),
        t => Err(CodecError::BadTag(t)),
    }
}

fn get_evidence(c: &mut Dec) -> Result<InstrumentationEvidence, CodecError> {
    Ok(InstrumentationEvidence {
        original_hash: c.array()?,
        instrumented_hash: c.array()?,
        level: c.level()?,
        weight_hash: c.array()?,
        counter_global: c.u32()?,
        quote: c.quote()?,
    })
}

fn get_outcome(c: &mut Dec) -> Result<RequestOutcome, CodecError> {
    match c.u8()? {
        0 => Ok(RequestOutcome::Ok),
        1 => Ok(RequestOutcome::Shed),
        2 => Ok(RequestOutcome::Error),
        3 => Ok(RequestOutcome::Timeout),
        t => Err(CodecError::BadTag(t)),
    }
}

fn get_latency(c: &mut Dec) -> Result<LatencySummary, CodecError> {
    Ok(LatencySummary {
        count: c.u64()?,
        sum_ns: c.u64()?,
        p50_ns: c.u64()?,
        p90_ns: c.u64()?,
        p99_ns: c.u64()?,
    })
}

fn get_record(c: &mut Dec) -> Result<RequestRecord, CodecError> {
    let trace_id = c.u64()?;
    let kind = c.string()?;
    let tenant = c.string()?;
    let func = c.string()?;
    let session_id = c.u64()?;
    let outcome = get_outcome(c)?;
    let error = c.string()?;
    let start_ns = c.u64()?;
    let total_ns = c.u64()?;
    let stages = c.list(12, |c| Ok((c.string()?, c.u64()?)))?; // name length + ns
    Ok(RequestRecord {
        trace_id,
        kind,
        tenant,
        func,
        session_id,
        outcome,
        error,
        start_ns,
        total_ns,
        stages,
    })
}

fn get_snapshot(c: &mut Dec) -> Result<StatsSnapshot, CodecError> {
    let uptime_ns = c.u64()?;
    let workers = c.u32()?;
    let workers_busy = c.u32()?;
    let queue_capacity = c.u32()?;
    let queue_depth = c.u32()?;
    let connections_total = c.u64()?;
    let connections_active = c.u32()?;
    let requests_by_kind = c.list(12, |c| Ok((c.string()?, c.u64()?)))?; // name length + count
    let shed_queue_total = c.u64()?;
    let shed_tenant_total = c.u64()?;
    let errors_total = c.u64()?;
    let timeouts_total = c.u64()?;
    let wal_commits_total = c.u64()?;
    let wal_committed_records_total = c.u64()?;
    let instr_cache = CacheStats {
        hits: c.u64()?,
        misses: c.u64()?,
        evictions: c.u64()?,
        singleflight_waits: c.u64()?,
    };
    // tenant: name length + 4 + 3×8 + 16
    let tenants = c.list(48, |c| {
        Ok(TenantStats {
            tenant: c.string()?,
            inflight: c.u32()?,
            requests_total: c.u64()?,
            shed_total: c.u64()?,
            weighted_instructions_total: c.u64()?,
            invoice_nanocredits_total: c.u128()?,
        })
    })?;
    let latency = get_latency(c)?;
    let stages = c.list(44, |c| Ok((c.string()?, get_latency(c)?)))?; // name length + 5×8
    Ok(StatsSnapshot {
        uptime_ns,
        workers,
        workers_busy,
        queue_capacity,
        queue_depth,
        connections_total,
        connections_active,
        requests_by_kind,
        shed_queue_total,
        shed_tenant_total,
        errors_total,
        timeouts_total,
        wal_commits_total,
        wal_committed_records_total,
        instr_cache,
        tenants,
        latency,
        stages,
    })
}

fn get_health(c: &mut Dec) -> Result<HealthReport, CodecError> {
    Ok(HealthReport {
        healthy: c.bool()?,
        draining: c.bool()?,
        uptime_ns: c.u64()?,
        wire_version: c.u16()?,
        workers: c.u32()?,
        queue_capacity: c.u32()?,
        deployments: c.u32()?,
        sessions_served: c.u64()?,
    })
}

fn get_fleet_unit(c: &mut Dec) -> Result<FleetUnit, CodecError> {
    Ok(FleetUnit {
        unit_id: c.u64()?,
        session_id: c.u64()?,
        func: c.string()?,
        module: c.bytes()?.to_vec(),
        evidence: get_evidence(c)?,
        deadline_ms: c.u64()?,
    })
}

fn get_fleet_submission(c: &mut Dec) -> Result<FleetSubmission, CodecError> {
    match c.u8()? {
        0 => Ok(FleetSubmission::Completed {
            results: c.list(5, get_value)?,
            log: Box::new(c.signed_log()?),
        }),
        1 => Ok(FleetSubmission::Trapped {
            reason: c.string()?,
        }),
        t => Err(CodecError::BadTag(t)),
    }
}

fn get_fleet_ack(c: &mut Dec) -> Result<FleetAck, CodecError> {
    match c.u8()? {
        0 => Ok(FleetAck::Accepted),
        1 => Ok(FleetAck::Stale),
        2 => Ok(FleetAck::Rejected {
            reason: c.string()?,
        }),
        3 => Ok(FleetAck::Quarantined {
            reason: c.string()?,
        }),
        t => Err(CodecError::BadTag(t)),
    }
}

fn get_fleet_report(c: &mut Dec) -> Result<FleetReport, CodecError> {
    let units_total = c.u64()?;
    let completed = c.u64()?;
    let pending = c.u64()?;
    let inflight = c.u64()?;
    let checks_scheduled = c.u64()?;
    let checks_mismatched = c.u64()?;
    let redispatched = c.u64()?;
    let rejected = c.u64()?;
    let done = c.bool()?;
    // row: name length + 8 + 4 + 1
    let workers = c.list(17, |c| {
        Ok(FleetWorkerRow {
            name: c.string()?,
            completed: c.u64()?,
            inflight: c.u32()?,
            quarantined: c.bool()?,
        })
    })?;
    Ok(FleetReport {
        units_total,
        completed,
        pending,
        inflight,
        checks_scheduled,
        checks_mismatched,
        redispatched,
        rejected,
        done,
        workers,
    })
}

/// Reads one frame header + payload. `Ok(None)` means the peer closed
/// the connection cleanly before the first byte of a frame.
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut head = [0u8; HEADER_LEN];
    // Distinguish clean close (no bytes at all) from mid-frame EOF.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut head[got..4]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    parse_header(&head[..4])?;
    r.read_exact(&mut head[4..])?;
    let (kind, len) = parse_header(&head)?.expect("a full header");
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, payload)))
}

/// Checks the frame header at the front of `buf`, each field as soon
/// as its bytes are present, so garbage fails fast: `Ok(None)` while
/// the header is incomplete, then the frame's kind and payload length.
fn parse_header(buf: &[u8]) -> Result<Option<(u8, usize)>, WireError> {
    let have = buf.len().min(4);
    if buf[..have] != MAGIC[..have] {
        let mut m = [0u8; 4];
        m[..have].copy_from_slice(&buf[..have]);
        return Err(WireError::BadMagic(m));
    }
    if buf.len() >= 6 {
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok(Some((buf[6], len as usize)))
}

/// Reads one request frame. `Ok(None)` on clean connection close.
///
/// # Errors
///
/// Any [`WireError`]; response kinds are [`WireError::UnknownKind`].
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    let Some((kind, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    decode_request_payload(kind, &payload).map(Some)
}

/// Decodes a request structure from an already-extracted payload.
fn decode_request_payload(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Dec::new(payload);
    let req = match kind {
        REQ_ATTEST => Request::Attest { nonce: c.array()? },
        REQ_DEPLOY => Request::Deploy {
            level: c.level()?,
            module: c.bytes()?.to_vec(),
            trace_id: c.u64()?,
        },
        REQ_INVOKE => Request::Invoke {
            deploy_id: c.u64()?,
            func: c.string()?,
            args: c.list(5, get_value)?,
            input: c.bytes()?.to_vec(),
            tenant: c.string()?,
            trace_id: c.u64()?,
        },
        REQ_FETCH_LOG => Request::FetchLog {
            session_id: c.u64()?,
        },
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_STATS => Request::Stats {
            prometheus: c.bool()?,
        },
        REQ_HEALTH => Request::Health,
        REQ_RECENT => Request::Recent { limit: c.u32()? },
        REQ_FLEET_HELLO => Request::FleetHello {
            worker: c.string()?,
        },
        REQ_FLEET_JOIN => Request::FleetJoin {
            worker: c.string()?,
            quote: c.quote()?,
        },
        REQ_FLEET_PULL => Request::FleetPull {
            worker_id: c.u64()?,
            capacity: c.u32()?,
        },
        REQ_FLEET_SUBMIT => Request::FleetSubmit {
            worker_id: c.u64()?,
            unit_id: c.u64()?,
            session_id: c.u64()?,
            submission: get_fleet_submission(&mut c)?,
        },
        REQ_FLEET_STATUS => Request::FleetStatus,
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Incrementally decodes one request frame from the front of `buf`
/// (the event-driven server's multi-frame read buffer).
///
/// `Ok(None)` means the buffer holds only a frame prefix — read more
/// bytes and try again. `Ok(Some((req, consumed)))` means a complete
/// frame occupied `buf[..consumed]`. Header fields are validated as
/// soon as the bytes that carry them are present, so garbage fails
/// fast even before a full header arrives.
///
/// # Errors
///
/// Any [`WireError`]; response kinds are [`WireError::UnknownKind`].
pub fn decode_request_frame(buf: &[u8]) -> Result<Option<(Request, usize)>, WireError> {
    // Validate the prefix we do have: a desynchronised or hostile peer
    // should be rejected without waiting for more bytes that will
    // never make the frame valid.
    let Some((kind, len)) = parse_header(buf)? else {
        return Ok(None);
    };
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let req = decode_request_payload(kind, &buf[HEADER_LEN..total])?;
    Ok(Some((req, total)))
}

/// Reads one response frame (a missing frame is an error: the client
/// always expects an answer).
///
/// # Errors
///
/// Any [`WireError`]; request kinds are [`WireError::UnknownKind`].
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    let Some((kind, payload)) = read_frame(r)? else {
        return Err(WireError::Io(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed awaiting response".into(),
        ));
    };
    let mut c = Dec::new(&payload);
    let resp = match kind {
        RESP_ATTEST_OK => Response::AttestOk { quote: c.quote()? },
        RESP_DEPLOY_OK => Response::DeployOk {
            deploy_id: c.u64()?,
            module: c.bytes()?.to_vec(),
            evidence: get_evidence(&mut c)?,
        },
        RESP_INVOKE_OK => Response::InvokeOk {
            session_id: c.u64()?,
            results: c.list(5, get_value)?,
            output: c.bytes()?.to_vec(),
            log: c.signed_log()?,
            invoice_total: c.u128()?,
        },
        RESP_LOG_OK => Response::LogOk {
            log: c.signed_log()?,
        },
        RESP_SHUTDOWN_OK => Response::ShutdownOk,
        RESP_BUSY => Response::Busy,
        RESP_ERROR => Response::Error {
            message: c.string()?,
        },
        RESP_STATS_OK => Response::StatsOk {
            snapshot: get_snapshot(&mut c)?,
        },
        RESP_STATS_TEXT_OK => Response::StatsTextOk { text: c.string()? },
        RESP_HEALTH_OK => Response::HealthOk {
            report: get_health(&mut c)?,
        },
        RESP_RECENT_OK => Response::RecentOk {
            // record: 8 + 3×4 + 8 + 1 + 4 + 2×8 + 4 floor
            records: c.list(47, get_record)?,
        },
        RESP_FLEET_CHALLENGE => Response::FleetChallenge { nonce: c.array()? },
        RESP_FLEET_WELCOME => Response::FleetWelcome {
            worker_id: c.u64()?,
        },
        RESP_FLEET_ASSIGN => Response::FleetAssign {
            // unit: 3×u64 + 2×length + evidence floor
            units: c.list(89, get_fleet_unit)?,
            done: c.bool()?,
        },
        RESP_FLEET_ACK => Response::FleetAckOk {
            ack: get_fleet_ack(&mut c)?,
        },
        RESP_FLEET_STATUS_OK => Response::FleetStatusOk {
            fleet: get_fleet_report(&mut c)?,
        },
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::ResourceUsageLog;
    use acctee_sgx::Measurement;

    fn quote() -> Quote {
        Quote {
            mrenclave: Measurement::of(b"enclave"),
            report_data: [7u8; 64],
            platform: "ae-host".into(),
            signature: [9u8; 32],
        }
    }

    fn signed_log() -> SignedLog {
        SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: u64::MAX - 3,
                peak_memory_bytes: 65536,
                memory_integral: u128::MAX / 7,
                io_bytes_in: 12,
                io_bytes_out: 34,
                module_hash: [0xab; 32],
                session_id: 99,
            },
            quote: quote(),
        }
    }

    fn evidence() -> InstrumentationEvidence {
        InstrumentationEvidence {
            original_hash: [1; 32],
            instrumented_hash: [2; 32],
            level: Level::FlowBased,
            weight_hash: [3; 32],
            counter_global: 17,
            quote: quote(),
        }
    }

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot {
            uptime_ns: 1_000_000_007,
            workers: 4,
            workers_busy: 2,
            queue_capacity: 16,
            queue_depth: 3,
            connections_total: 321,
            connections_active: 5,
            requests_by_kind: vec![("invoke".into(), 100), ("deploy".into(), 2)],
            shed_queue_total: 7,
            shed_tenant_total: 11,
            errors_total: 1,
            timeouts_total: 2,
            wal_commits_total: 12,
            wal_committed_records_total: 96,
            instr_cache: CacheStats {
                hits: 90,
                misses: 10,
                evictions: 3,
                singleflight_waits: 4,
            },
            tenants: vec![TenantStats {
                tenant: "alice".into(),
                inflight: 1,
                requests_total: 60,
                shed_total: 5,
                weighted_instructions_total: 1_234_567,
                invoice_nanocredits_total: u128::MAX / 5,
            }],
            latency: LatencySummary {
                count: 100,
                sum_ns: 5_000_000,
                p50_ns: 40_000,
                p90_ns: 90_000,
                p99_ns: 250_000,
            },
            stages: vec![(
                "execute".into(),
                LatencySummary {
                    count: 100,
                    sum_ns: 4_000_000,
                    p50_ns: 30_000,
                    p90_ns: 80_000,
                    p99_ns: 200_000,
                },
            )],
        }
    }

    fn record() -> RequestRecord {
        RequestRecord {
            trace_id: 0xfeed_f00d,
            kind: "invoke".into(),
            tenant: "alice".into(),
            func: "main".into(),
            session_id: 9,
            outcome: RequestOutcome::Timeout,
            error: "deadline exceeded".into(),
            start_ns: 123,
            total_ns: 456_789,
            stages: vec![("parse".into(), 100), ("execute".into(), 456_000)],
        }
    }

    fn rt_request(req: &Request) {
        let bytes = encode_request(req);
        let got = read_request(&mut bytes.as_slice())
            .expect("decodes")
            .expect("not eof");
        assert_eq!(&got, req);
    }

    fn rt_response(resp: &Response) {
        let bytes = encode_response(resp);
        let got = read_response(&mut bytes.as_slice()).expect("decodes");
        assert_eq!(&got, resp);
    }

    #[test]
    fn every_request_round_trips() {
        rt_request(&Request::Attest { nonce: [5; 32] });
        rt_request(&Request::Deploy {
            level: Level::LoopBased,
            module: vec![0, 1, 2, 255],
            trace_id: 0xdead_beef_cafe_f00d,
        });
        rt_request(&Request::Invoke {
            deploy_id: 3,
            func: "mäin".into(),
            args: vec![
                Value::I32(-1),
                Value::I64(i64::MIN),
                Value::F32(1.5),
                Value::F64(-2.25),
            ],
            input: b"payload".to_vec(),
            tenant: "tenant-a".into(),
            trace_id: u64::MAX,
        });
        rt_request(&Request::FetchLog { session_id: 77 });
        rt_request(&Request::Shutdown);
        rt_request(&Request::Stats { prometheus: false });
        rt_request(&Request::Stats { prometheus: true });
        rt_request(&Request::Health);
        rt_request(&Request::Recent { limit: 128 });
    }

    #[test]
    fn float_values_survive_bit_exactly() {
        // PartialEq on Value treats NaN != NaN, so check bits directly.
        let req = Request::Invoke {
            deploy_id: 0,
            func: "f".into(),
            args: vec![
                Value::F32(f32::NAN),
                Value::F64(f64::from_bits(0x7ff8_dead_beef_0001)),
            ],
            input: Vec::new(),
            tenant: String::new(),
            trace_id: 0,
        };
        let bytes = encode_request(&req);
        let Some(Request::Invoke { args, .. }) = read_request(&mut bytes.as_slice()).unwrap()
        else {
            panic!("wrong variant");
        };
        let (Value::F32(a), Value::F64(b)) = (args[0], args[1]) else {
            panic!("wrong types");
        };
        assert_eq!(a.to_bits(), f32::NAN.to_bits());
        assert_eq!(b.to_bits(), 0x7ff8_dead_beef_0001);
    }

    #[test]
    fn every_response_round_trips() {
        rt_response(&Response::AttestOk { quote: quote() });
        rt_response(&Response::DeployOk {
            deploy_id: 8,
            module: vec![1; 300],
            evidence: evidence(),
        });
        rt_response(&Response::InvokeOk {
            session_id: 4,
            results: vec![Value::I32(42)],
            output: b"out".to_vec(),
            log: signed_log(),
            invoice_total: u128::MAX / 3,
        });
        rt_response(&Response::LogOk { log: signed_log() });
        rt_response(&Response::ShutdownOk);
        rt_response(&Response::Busy);
        rt_response(&Response::Error {
            message: "nø".into(),
        });
        rt_response(&Response::StatsOk {
            snapshot: snapshot(),
        });
        rt_response(&Response::StatsTextOk {
            text: "# TYPE x counter\nx 1\n".into(),
        });
        rt_response(&Response::HealthOk {
            report: HealthReport {
                healthy: true,
                draining: false,
                uptime_ns: 42,
                wire_version: WIRE_VERSION,
                workers: 4,
                queue_capacity: 16,
                deployments: 2,
                sessions_served: 99,
            },
        });
        rt_response(&Response::RecentOk {
            records: vec![record(), record()],
        });
        rt_response(&Response::RecentOk { records: vec![] });
    }

    fn fleet_unit() -> FleetUnit {
        FleetUnit {
            unit_id: 42,
            session_id: 1077,
            func: "run".into(),
            module: vec![0, 97, 115, 109, 7],
            evidence: evidence(),
            deadline_ms: 2500,
        }
    }

    #[test]
    fn every_fleet_request_round_trips() {
        rt_request(&Request::FleetHello {
            worker: "node-07".into(),
        });
        rt_request(&Request::FleetJoin {
            worker: "node-07".into(),
            quote: quote(),
        });
        rt_request(&Request::FleetPull {
            worker_id: 9,
            capacity: 4,
        });
        rt_request(&Request::FleetSubmit {
            worker_id: 9,
            unit_id: 42,
            session_id: 1077,
            submission: FleetSubmission::Completed {
                results: vec![Value::I64(-7)],
                log: Box::new(signed_log()),
            },
        });
        rt_request(&Request::FleetSubmit {
            worker_id: 9,
            unit_id: 43,
            session_id: 1078,
            submission: FleetSubmission::Trapped {
                reason: "deadline exceeded".into(),
            },
        });
        rt_request(&Request::FleetStatus);
    }

    #[test]
    fn every_fleet_response_round_trips() {
        rt_response(&Response::FleetChallenge { nonce: [3; 32] });
        rt_response(&Response::FleetWelcome { worker_id: 12 });
        rt_response(&Response::FleetAssign {
            units: vec![fleet_unit(), fleet_unit()],
            done: false,
        });
        rt_response(&Response::FleetAssign {
            units: vec![],
            done: true,
        });
        for ack in [
            FleetAck::Accepted,
            FleetAck::Stale,
            FleetAck::Rejected {
                reason: "log failed verification".into(),
            },
            FleetAck::Quarantined {
                reason: "spot-check mismatch".into(),
            },
        ] {
            rt_response(&Response::FleetAckOk { ack });
        }
        rt_response(&Response::FleetStatusOk {
            fleet: FleetReport {
                units_total: 200,
                completed: 150,
                pending: 30,
                inflight: 20,
                checks_scheduled: 11,
                checks_mismatched: 1,
                redispatched: 2,
                rejected: 3,
                done: false,
                workers: vec![FleetWorkerRow {
                    name: "node-01".into(),
                    completed: 75,
                    inflight: 2,
                    quarantined: true,
                }],
            },
        });
    }

    #[test]
    fn fleet_truncations_error_never_panic() {
        let frames = [
            encode_request(&Request::FleetSubmit {
                worker_id: 1,
                unit_id: 2,
                session_id: 3,
                submission: FleetSubmission::Completed {
                    results: vec![Value::I64(5)],
                    log: Box::new(signed_log()),
                },
            }),
            encode_response(&Response::FleetAssign {
                units: vec![fleet_unit()],
                done: false,
            }),
        ];
        for cut in 1..frames[0].len() {
            assert!(read_request(&mut &frames[0][..cut]).is_err());
        }
        for cut in 1..frames[1].len() {
            assert!(read_response(&mut &frames[1][..cut]).is_err());
        }
        // Hostile unit count in an assign payload: truncation, not OOM.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x8e); // RESP_FLEET_ASSIGN
        f.extend_from_slice(&4u32.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));
    }

    #[test]
    fn canonical_log_encoding_preserves_binding() {
        // The property remote verification rests on: the decoded log
        // recomputes to the exact binding the enclave signed.
        let s = signed_log();
        let bytes = encode_response(&Response::LogOk { log: s.clone() });
        let Response::LogOk { log } = read_response(&mut bytes.as_slice()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(log.log.binding(), s.log.binding());
        assert_eq!(log.quote, s.quote);
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let request_frames = [encode_request(&Request::Invoke {
            deploy_id: 1,
            func: "f".into(),
            args: vec![Value::I64(7)],
            input: vec![1, 2, 3],
            tenant: "t".into(),
            trace_id: 5,
        })];
        let response_frames = [
            encode_response(&Response::InvokeOk {
                session_id: 1,
                results: vec![Value::F64(1.5)],
                output: vec![9],
                log: signed_log(),
                invoice_total: 10,
            }),
            encode_response(&Response::StatsOk {
                snapshot: snapshot(),
            }),
            encode_response(&Response::RecentOk {
                records: vec![record()],
            }),
        ];
        for frame in &request_frames {
            for cut in 1..frame.len() {
                assert!(
                    read_request(&mut &frame[..cut]).is_err(),
                    "request cut at {cut} must error"
                );
            }
        }
        for frame in &response_frames {
            for cut in 1..frame.len() {
                assert!(
                    read_response(&mut &frame[..cut]).is_err(),
                    "response cut at {cut} must error"
                );
            }
        }
    }

    #[test]
    fn empty_stream_is_clean_eof_for_requests() {
        assert_eq!(read_request(&mut &[][..]), Ok(None));
        // A response, by contrast, was promised: EOF is an error.
        assert!(read_response(&mut &[][..]).is_err());
    }

    #[test]
    fn garbage_frames_error_never_panic() {
        // Wrong magic.
        let r = read_request(&mut &b"NOPExxxxxxxxxxx"[..]);
        assert_eq!(r, Err(WireError::BadMagic(*b"NOPE")));
        // Wrong version.
        let mut f = encode_request(&Request::Shutdown);
        f[4] = 0xff;
        assert!(matches!(
            read_request(&mut f.as_slice()),
            Err(WireError::BadVersion(_))
        ));
        // Unknown kind.
        let mut f = encode_request(&Request::Shutdown);
        f[6] = 0x7f;
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::UnknownKind(0x7f))
        );
        // A response kind is not a request.
        let f = encode_response(&Response::Busy);
        assert!(matches!(
            read_request(&mut f.as_slice()),
            Err(WireError::UnknownKind(_))
        ));
        // Oversized declared payload.
        let mut f = encode_request(&Request::Shutdown);
        f[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
        // Trailing bytes inside a well-formed frame.
        let mut f = encode_request(&Request::FetchLog { session_id: 1 });
        f.push(0);
        let len = u32::from_le_bytes(f[7..11].try_into().unwrap());
        f[7..11].copy_from_slice(&(len + 1).to_le_bytes());
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::TrailingBytes(1))
        );
        // Bad enum tags.
        let mut f = encode_request(&Request::Deploy {
            level: Level::Naive,
            module: vec![],
            trace_id: 0,
        });
        f[11] = 9; // level byte
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadTag(9)));
        // A stats format byte outside {0, 1} is a bad tag too.
        let mut f = encode_request(&Request::Stats { prometheus: false });
        f[11] = 2;
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadTag(2)));
        // Bad UTF-8 in a string field.
        let mut f = encode_request(&Request::FetchLog { session_id: 0 });
        // Rebuild as an invoke with a 1-byte invalid-UTF-8 func name.
        f.clear();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x03); // REQ_INVOKE
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.push(0xff); // invalid UTF-8 func
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadUtf8));
    }

    #[test]
    fn incremental_decode_handles_split_and_batched_frames() {
        let reqs = [
            Request::Invoke {
                deploy_id: 3,
                func: "f".into(),
                args: vec![Value::I32(7)],
                input: b"in".to_vec(),
                tenant: "t".into(),
                trace_id: 9,
            },
            Request::Health,
            Request::FetchLog { session_id: 4 },
        ];
        // One buffer holding all three frames back-to-back: each
        // decode consumes exactly one frame, in order.
        let mut batch = Vec::new();
        for r in &reqs {
            encode_request_into(&mut batch, r);
        }
        let mut off = 0;
        for want in &reqs {
            let (got, used) = decode_request_frame(&batch[off..])
                .expect("decodes")
                .expect("complete");
            assert_eq!(&got, want);
            off += used;
        }
        assert_eq!(off, batch.len());

        // Feeding the same bytes one at a time: every proper prefix is
        // "incomplete", never an error, and the full frame decodes.
        let frame = encode_request(&reqs[0]);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_request_frame(&frame[..cut]),
                Ok(None),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (got, used) = decode_request_frame(&frame).unwrap().unwrap();
        assert_eq!(got, reqs[0]);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn incremental_decode_rejects_garbage_prefixes_early() {
        // Wrong magic is detected from the very first byte.
        assert!(matches!(
            decode_request_frame(b"N"),
            Err(WireError::BadMagic(_))
        ));
        // Wrong version is detected as soon as both bytes are in.
        let mut f = encode_request(&Request::Shutdown);
        f[4] = 0xff;
        assert!(matches!(
            decode_request_frame(&f[..6]),
            Err(WireError::BadVersion(_))
        ));
        // Oversized declared length fails without waiting for payload.
        let mut f = encode_request(&Request::Shutdown);
        f[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_request_frame(&f),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn append_encoders_match_the_allocating_encoders() {
        let req = Request::Deploy {
            level: Level::FlowBased,
            module: vec![1, 2, 3],
            trace_id: 5,
        };
        let resp = Response::InvokeOk {
            session_id: 1,
            results: vec![Value::I64(-2)],
            output: b"x".to_vec(),
            log: signed_log(),
            invoice_total: 12,
        };
        let mut buf = b"prefix".to_vec();
        encode_request_into(&mut buf, &req);
        encode_response_into(&mut buf, &resp);
        let mut expect = b"prefix".to_vec();
        expect.extend_from_slice(&encode_request(&req));
        expect.extend_from_slice(&encode_response(&resp));
        assert_eq!(buf, expect);
    }

    #[test]
    fn huge_value_count_is_truncation_not_oom() {
        // An Invoke whose declared arg count far exceeds the payload
        // must fail fast without attempting the allocation.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // deploy_id
        p.extend_from_slice(&1u32.to_le_bytes()); // func len
        p.push(b'f');
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // arg count
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x03);
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::Truncated));
    }

    #[test]
    fn huge_record_and_tenant_counts_are_truncation_not_oom() {
        // A RecentOk declaring u32::MAX records in an empty payload.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x8b); // RESP_RECENT_OK
        f.extend_from_slice(&4u32.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));

        // A StatsOk whose kind-count is hostile fails the same way:
        // fixed header (2×u64 + 5×u32 = 36 bytes) then the count.
        let mut p = vec![0u8; 36];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x88); // RESP_STATS_OK
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));
    }
}
