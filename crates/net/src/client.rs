//! The verifying client: connects, attests the channel, and refuses to
//! accept any artifact whose quote does not check out.
//!
//! Trust bootstrapping mirrors the paper's IAS topology: both parties
//! share the attestation authority's root seed (the stand-in for
//! trusting Intel's attestation service), so the client reconstructs
//! the [`AttestationAuthority`] locally, marks the two audited
//! platform names as genuine, and computes the expected enclave
//! measurements from the *public* enclave code and weight table. From
//! then on nothing the server sends is taken on faith:
//!
//! * the handshake quote must bind a fresh client nonce (no replay)
//!   and carry the accounting enclave's expected measurement;
//! * deploy responses must carry evidence whose `original_hash` is the
//!   module the client actually sent, verified like any workload
//!   provider would;
//! * every returned usage log must verify against the reconstructed
//!   authority, bind the deployed module's hash, and echo the expected
//!   session id.
//!
//! All verification failures are hard errors ([`NetError::Verification`]).

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use acctee::{
    ae_code, channel_binding, ie_code, InstrumentationEvidence, Level, SignedLog, WorkloadProvider,
};
use acctee_instrument::WeightTable;
use acctee_interp::Value;
use acctee_sgx::crypto::sha256;
use acctee_sgx::{AttestationAuthority, Measurement};

use crate::stats::{HealthReport, RequestRecord, StatsSnapshot};
use crate::wire::{
    encode_request_into, read_response, write_request, Request, Response, WireError,
};

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Transport failure.
    Io(String),
    /// Malformed frame.
    Wire(WireError),
    /// The server shed the request; retry later.
    Busy,
    /// The server reported an error.
    Server(String),
    /// The server answered with an unexpected frame.
    Protocol(String),
    /// A quote, evidence or log failed verification — the security
    /// property the client exists to enforce.
    Verification(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Busy => write!(f, "server busy (load shed)"),
            NetError::Server(e) => write!(f, "server error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::Verification(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        match e {
            WireError::Io(kind, msg) => NetError::Io(format!("{kind:?}: {msg}")),
            other => NetError::Wire(other),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e.to_string())
    }
}

/// The client's reconstruction of the shared root of trust.
#[derive(Debug, Clone)]
pub struct TrustAnchor {
    verifier: WorkloadProvider,
    authority: AttestationAuthority,
    expected_ae: Measurement,
}

impl TrustAnchor {
    /// Rebuilds the authority from the shared `seed` and derives the
    /// expected enclave measurements from the public enclave code.
    pub fn new(seed: u64) -> TrustAnchor {
        let weights = WeightTable::calibrated();
        let authority = AttestationAuthority::new(seed);
        // The audited platform names of the reference deployment.
        authority.recognize("ie-host");
        authority.recognize("ae-host");
        let expected_ie = Measurement::of(&ie_code(&weights));
        let expected_ae = Measurement::of(&ae_code(&weights));
        let verifier = WorkloadProvider::new(authority.clone(), expected_ie, expected_ae, &weights);
        TrustAnchor {
            verifier,
            authority,
            expected_ae,
        }
    }
}

/// A verified deploy: what the client needs to later check logs
/// against.
#[derive(Debug, Clone)]
pub struct DeployHandle {
    /// Server-side handle for invokes.
    pub deploy_id: u64,
    /// The instrumented module (evidence-verified).
    pub module: Vec<u8>,
    /// The verified instrumentation evidence.
    pub evidence: InstrumentationEvidence,
}

/// One verified invocation result.
#[derive(Debug, Clone)]
pub struct InvokeOutcome {
    /// Server-assigned session id (unique, monotonic).
    pub session_id: u64,
    /// The client-generated trace id this request travelled under;
    /// `Client::recent` finds the server-side record by it.
    pub trace_id: u64,
    /// Returned values.
    pub results: Vec<Value>,
    /// Workload output bytes.
    pub output: Vec<u8>,
    /// The signed usage log, verified against the trust anchor.
    pub log: SignedLog,
    /// Invoice total in nano-credits.
    pub invoice_total: u128,
}

/// Derives a fresh, unpredictable-enough channel nonce without an OS
/// RNG (std-only): time, pid and a process-wide counter through
/// SHA-256. Uniqueness is what the protocol needs; the counter alone
/// guarantees it within a process, the time/pid mix across processes.
fn fresh_nonce() -> [u8; 32] {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(b"acctee-net-nonce");
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    seed.extend_from_slice(&now.as_nanos().to_le_bytes());
    seed.extend_from_slice(&std::process::id().to_le_bytes());
    seed.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    sha256(&seed)
}

/// A fresh non-zero trace id (0 means "untraced" on the wire): the
/// first eight bytes of the same entropy mix as [`fresh_nonce`].
fn fresh_trace_id() -> u64 {
    loop {
        let id = u64::from_le_bytes(fresh_nonce()[..8].try_into().expect("8"));
        if id != 0 {
            return id;
        }
    }
}

/// What one pipelined invocation asks for; see
/// [`Client::invoke_many`].
#[derive(Debug, Clone)]
pub struct InvokeSpec {
    /// Exported function to call.
    pub func: String,
    /// Arguments.
    pub args: Vec<Value>,
    /// Workload input bytes.
    pub input: Vec<u8>,
    /// Tenant the invocation is billed to.
    pub tenant: String,
}

/// The reusable attested session: alias of [`Client`], named for call
/// sites that hold one connection across many invokes (keep-alive)
/// rather than dialing per request.
pub type Connection = Client;

/// A connection to an AccTEE server, attested at construction. The
/// session is keep-alive: every method reuses the one attested stream,
/// and [`Client::invoke_many`] pipelines whole batches over it.
pub struct Client {
    stream: BufReader<TcpStream>,
    anchor: TrustAnchor,
}

impl Client {
    /// Connects, applies `timeout` to reads and writes, and runs the
    /// attestation handshake: the returned client is already talking
    /// to a verified accounting enclave.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`NetError::Verification`] if the server's
    /// quote does not verify, carries the wrong measurement, or does
    /// not bind the fresh nonce.
    pub fn connect(
        addr: impl ToSocketAddrs,
        anchor: TrustAnchor,
        timeout: Duration,
    ) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut client = Client {
            stream: BufReader::new(stream),
            anchor,
        };
        client.attest()?;
        Ok(client)
    }

    fn attest(&mut self) -> Result<(), NetError> {
        let nonce = fresh_nonce();
        let quote = match self.call(&Request::Attest { nonce })? {
            Response::AttestOk { quote } => quote,
            other => return Err(unexpected("AttestOk", &other)),
        };
        let measurement = self
            .anchor
            .authority
            .verify(&quote)
            .map_err(|e| NetError::Verification(format!("channel quote: {e}")))?;
        if measurement != self.anchor.expected_ae {
            return Err(NetError::Verification(format!(
                "channel quote from {measurement}, expected accounting enclave {}",
                self.anchor.expected_ae
            )));
        }
        if quote.report_data[..32] != channel_binding(&nonce) {
            return Err(NetError::Verification(
                "channel quote does not bind our nonce (replay?)".into(),
            ));
        }
        Ok(())
    }

    /// One request/response exchange. `Busy` and server errors are
    /// mapped to their [`NetError`] variants here.
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        write_request(self.stream.get_mut(), req)?;
        match read_response(&mut self.stream)? {
            Response::Busy => Err(NetError::Busy),
            Response::Error { message } => Err(NetError::Server(message)),
            other => Ok(other),
        }
    }

    /// Deploys a module, verifying the returned evidence exactly as an
    /// in-process workload provider would — plus the networked check
    /// that the evidence derives from the module *we sent*.
    ///
    /// # Errors
    ///
    /// Transport, server or [`NetError::Verification`] errors.
    pub fn deploy(&mut self, module: &[u8], level: Level) -> Result<DeployHandle, NetError> {
        let sent_hash = sha256(module);
        let resp = self.call(&Request::Deploy {
            level,
            module: module.to_vec(),
            trace_id: fresh_trace_id(),
        })?;
        let (deploy_id, instrumented, evidence) = match resp {
            Response::DeployOk {
                deploy_id,
                module,
                evidence,
            } => (deploy_id, module, evidence),
            other => return Err(unexpected("DeployOk", &other)),
        };
        if evidence.original_hash != sent_hash {
            return Err(NetError::Verification(
                "evidence is for a different original module".into(),
            ));
        }
        self.anchor
            .verifier
            .verify_evidence(&instrumented, &evidence)
            .map_err(|e| NetError::Verification(e.to_string()))?;
        Ok(DeployHandle {
            deploy_id,
            module: instrumented,
            evidence,
        })
    }

    /// Invokes a deployed function and verifies the signed log binds
    /// this module and this session before returning it.
    ///
    /// # Errors
    ///
    /// [`NetError::Busy`] when shed; transport, server or
    /// [`NetError::Verification`] errors otherwise.
    pub fn invoke(
        &mut self,
        handle: &DeployHandle,
        func: &str,
        args: &[Value],
        input: &[u8],
        tenant: &str,
    ) -> Result<InvokeOutcome, NetError> {
        let trace_id = fresh_trace_id();
        let resp = self.call(&Request::Invoke {
            deploy_id: handle.deploy_id,
            func: func.to_string(),
            args: args.to_vec(),
            input: input.to_vec(),
            tenant: tenant.to_string(),
            trace_id,
        })?;
        let Response::InvokeOk {
            session_id,
            results,
            output,
            log,
            invoice_total,
        } = resp
        else {
            return Err(unexpected("InvokeOk", &resp));
        };
        self.verify_log(&log, Some(handle), session_id)?;
        Ok(InvokeOutcome {
            session_id,
            trace_id,
            results,
            output,
            log,
            invoice_total,
        })
    }

    /// Pipelines a batch of invocations over the attested session: all
    /// request frames go out in one coalesced write, then the
    /// responses are read back in order. Every signed log is fully
    /// verified.
    ///
    /// The whole batch must succeed; the first per-request failure is
    /// returned (after all responses were drained, so the session
    /// stays usable for `Busy`/server errors).
    ///
    /// # Errors
    ///
    /// Transport errors, or the first [`NetError::Busy`], server or
    /// [`NetError::Verification`] error in the batch.
    pub fn invoke_many(
        &mut self,
        handle: &DeployHandle,
        specs: &[InvokeSpec],
    ) -> Result<Vec<InvokeOutcome>, NetError> {
        self.invoke_pipelined(handle, specs, 1)?
            .into_iter()
            .collect()
    }

    /// [`Client::invoke_many`] with per-request results and sampled
    /// verification: logs at indices divisible by `verify_every` (and
    /// the last) are fully verified against the trust anchor; the rest
    /// only have their session-id echo checked. `verify_every <= 1`
    /// verifies everything. Load generators use sampling so client-
    /// side crypto does not become the bottleneck being measured.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures poison the whole batch (the
    /// connection is no longer in a known state); per-request `Busy`,
    /// server and verification errors come back in the item slots.
    pub fn invoke_pipelined(
        &mut self,
        handle: &DeployHandle,
        specs: &[InvokeSpec],
        verify_every: usize,
    ) -> Result<Vec<Result<InvokeOutcome, NetError>>, NetError> {
        let mut batch = Vec::new();
        let mut trace_ids = Vec::with_capacity(specs.len());
        for spec in specs {
            let trace_id = fresh_trace_id();
            encode_request_into(
                &mut batch,
                &Request::Invoke {
                    deploy_id: handle.deploy_id,
                    func: spec.func.clone(),
                    args: spec.args.clone(),
                    input: spec.input.clone(),
                    tenant: spec.tenant.clone(),
                    trace_id,
                },
            );
            trace_ids.push(trace_id);
        }
        let stream = self.stream.get_mut();
        stream.write_all(&batch)?;
        stream.flush()?;
        let mut out = Vec::with_capacity(specs.len());
        for (i, trace_id) in trace_ids.into_iter().enumerate() {
            let item = match read_response(&mut self.stream)? {
                Response::Busy => Err(NetError::Busy),
                Response::Error { message } => Err(NetError::Server(message)),
                Response::InvokeOk {
                    session_id,
                    results,
                    output,
                    log,
                    invoice_total,
                } => {
                    let verify = verify_every <= 1 || i % verify_every == 0 || i + 1 == specs.len();
                    let checked = if verify {
                        self.verify_log(&log, Some(handle), session_id)
                    } else if log.log.session_id == session_id {
                        Ok(())
                    } else {
                        Err(NetError::Verification(format!(
                            "log is for session {}, expected {session_id}",
                            log.log.session_id
                        )))
                    };
                    checked.map(|()| InvokeOutcome {
                        session_id,
                        trace_id,
                        results,
                        output,
                        log,
                        invoice_total,
                    })
                }
                other => Err(unexpected("InvokeOk", &other)),
            };
            out.push(item);
        }
        Ok(out)
    }

    /// Re-fetches and verifies the signed log of an earlier session.
    ///
    /// # Errors
    ///
    /// Transport, server or [`NetError::Verification`] errors.
    pub fn fetch_log(&mut self, session_id: u64) -> Result<SignedLog, NetError> {
        let resp = self.call(&Request::FetchLog { session_id })?;
        let Response::LogOk { log } = resp else {
            return Err(unexpected("LogOk", &resp));
        };
        self.verify_log(&log, None, session_id)?;
        Ok(log)
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected("ShutdownOk", &other)),
        }
    }

    /// A point-in-time operational snapshot of the server, over the
    /// attested channel.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn stats(&mut self) -> Result<StatsSnapshot, NetError> {
        match self.call(&Request::Stats { prometheus: false })? {
            Response::StatsOk { snapshot } => Ok(snapshot),
            other => Err(unexpected("StatsOk", &other)),
        }
    }

    /// The server's stats rendered as Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn stats_prometheus(&mut self) -> Result<String, NetError> {
        match self.call(&Request::Stats { prometheus: true })? {
            Response::StatsTextOk { text } => Ok(text),
            other => Err(unexpected("StatsTextOk", &other)),
        }
    }

    /// The server's liveness report.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        match self.call(&Request::Health)? {
            Response::HealthOk { report } => Ok(report),
            other => Err(unexpected("HealthOk", &other)),
        }
    }

    /// Up to `limit` recent request records from the server's flight
    /// recorder, newest first.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn recent(&mut self, limit: u32) -> Result<Vec<RequestRecord>, NetError> {
        match self.call(&Request::Recent { limit })? {
            Response::RecentOk { records } => Ok(records),
            other => Err(unexpected("RecentOk", &other)),
        }
    }

    /// The client's verifier handle (for checking logs obtained out of
    /// band).
    pub fn verifier(&self) -> &WorkloadProvider {
        &self.anchor.verifier
    }

    fn verify_log(
        &self,
        log: &SignedLog,
        handle: Option<&DeployHandle>,
        session_id: u64,
    ) -> Result<(), NetError> {
        self.anchor
            .verifier
            .verify_log(log)
            .map_err(|e| NetError::Verification(e.to_string()))?;
        if log.log.session_id != session_id {
            return Err(NetError::Verification(format!(
                "log is for session {}, expected {session_id}",
                log.log.session_id
            )));
        }
        // `deploy` verified the module against the evidence's hash, so
        // compare digests instead of re-hashing the module.
        if let Some(handle) = handle {
            if log.log.module_hash != handle.evidence.instrumented_hash {
                return Err(NetError::Verification(
                    "log accounts a different module than the one deployed".into(),
                ));
            }
        }
        Ok(())
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    let got = match got {
        Response::AttestOk { .. } => "AttestOk",
        Response::DeployOk { .. } => "DeployOk",
        Response::InvokeOk { .. } => "InvokeOk",
        Response::LogOk { .. } => "LogOk",
        Response::ShutdownOk => "ShutdownOk",
        Response::Busy => "Busy",
        Response::Error { .. } => "Error",
        Response::StatsOk { .. } => "StatsOk",
        Response::StatsTextOk { .. } => "StatsTextOk",
        Response::HealthOk { .. } => "HealthOk",
        Response::RecentOk { .. } => "RecentOk",
        Response::FleetChallenge { .. } => "FleetChallenge",
        Response::FleetWelcome { .. } => "FleetWelcome",
        Response::FleetAssign { .. } => "FleetAssign",
        Response::FleetAckOk { .. } => "FleetAckOk",
        Response::FleetStatusOk { .. } => "FleetStatusOk",
    };
    NetError::Protocol(format!("expected {wanted}, got {got}"))
}
