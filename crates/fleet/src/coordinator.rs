//! The fleet coordinator: owns a campaign of work units and farms them
//! out to attested worker nodes over the `acctee-net` wire protocol.
//!
//! Trust layout: the coordinator holds its own [`Deployment`] for the
//! campaign seed. Instrumentation happens once, locally, inside the
//! coordinator's instrumentation enclave; workers receive the
//! instrumented module *plus* the evidence and verify it in their own
//! accounting enclaves before executing (the two-way sandbox, now
//! spanning machines). A worker joins by quoting its accounting
//! enclave over a fresh channel nonce, and the coordinator accepts the
//! quote only if it verifies under the shared attestation authority
//! *and* names the exact accounting-enclave measurement the
//! coordinator itself runs — any node running modified enclave code
//! measures differently and never receives work.
//!
//! Everything that changes what the campaign owes or trusts is
//! appended to the [`Journal`], and each request's events are committed
//! with one fsync *before* its acknowledgement leaves the coordinator,
//! so a `kill -9` at any instant resumes to a state where no
//! acknowledged submission is lost and no unit can complete twice.
//! In-flight assignments are deliberately **not** journaled: an
//! assignment the coordinator forgot is merely re-dispatched, and the
//! submission that eventually arrives for the forgotten session id is
//! acknowledged `Stale` and never credited.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use acctee::{channel_binding, Deployment, InstrumentationEvidence, Level, SignedLog};
use acctee_durable::UsageRecord;
use acctee_net::wire::{self, FleetAck, FleetReport, FleetSubmission, FleetUnit, FleetWorkerRow};
use acctee_net::{Request, Response, WireError};
use acctee_sgx::crypto::{sha256, Digest};

use crate::journal::{credited, Journal, JournalSubmission, JournalUnit};
use crate::reconcile::{reconcile, ReconcileConfig, SignedNodeStatement};
use crate::unit::{result_key, UnitSpec};
use crate::FleetError;

/// Coordinator policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Campaign seed: the attestation universe every participant
    /// shares. A worker seeded differently has unrecognisable quotes
    /// and is rejected at join.
    pub seed: u64,
    /// Directory holding the dispatch journal.
    pub state_dir: PathBuf,
    /// Fraction of units sampled for redundant execution on two
    /// distinct nodes (the spot-check rate; the paper's suggestion is
    /// a few percent).
    pub redundancy: f64,
    /// Spot checks forced onto every newly joined node's first pulls,
    /// so a cheater is caught deterministically rather than only with
    /// sampling probability.
    pub probation_checks: u32,
    /// Per-unit wall-clock budget for worker-side execution
    /// (milliseconds); enforced in-enclave via the interpreter's
    /// `DeadlineExceeded` trap.
    pub deadline_ms: u64,
    /// Multiplier applied to a unit's deadline after it traps on one,
    /// so a genuinely heavy unit eventually fits its budget.
    pub deadline_growth: u64,
    /// A live assignment older than `deadline_ms × straggler_factor`
    /// plus the grace is presumed lost and re-dispatched.
    pub straggler_factor: u64,
    /// Fixed straggler grace in milliseconds (covers network and
    /// queueing time that the execution deadline does not).
    pub straggler_grace_ms: u64,
    /// Socket write timeout.
    pub io_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            seed: 0xacc7ee,
            state_dir: PathBuf::from("fleet-state"),
            redundancy: 0.05,
            probation_checks: 1,
            deadline_ms: 10_000,
            deadline_growth: 4,
            straggler_factor: 4,
            straggler_grace_ms: 2_000,
            io_timeout: Duration::from_millis(5_000),
        }
    }
}

/// Deterministic spot-check sampling: a unit is pre-selected for
/// redundant execution iff a keyed hash of its id falls under the
/// redundancy fraction. Sampling at campaign creation (rather than
/// dispatch) keeps the choice stable across coordinator restarts.
fn check_sampled(unit_id: u64, seed: u64, redundancy: f64) -> bool {
    if redundancy <= 0.0 {
        return false;
    }
    if redundancy >= 1.0 {
        return true;
    }
    let mut payload = Vec::with_capacity(27);
    payload.extend_from_slice(b"acctee-fleet-check");
    payload.extend_from_slice(&unit_id.to_le_bytes());
    payload.extend_from_slice(&seed.to_le_bytes());
    let d = sha256(&payload);
    let x = u64::from_le_bytes(d[..8].try_into().unwrap());
    (x as f64) < redundancy * (u64::MAX as f64)
}

/// One outstanding dispatch.
struct Assignment {
    worker: String,
    session_id: u64,
    granted_at: Instant,
}

struct UnitState {
    /// The unit's journaled state: spec, deadline, checks, verified
    /// submissions and completion.
    unit: JournalUnit,
    /// The instrumented module and its evidence, held only while the
    /// unit is open: a done unit is never granted, refereed or verified
    /// again, so it is dropped on completion and not rebuilt on resume.
    artifact: Option<(Vec<u8>, InstrumentationEvidence)>,
    live: Vec<Assignment>,
    /// Tickets for this unit currently sitting in the pending queue.
    queued: u32,
}

impl UnitState {
    /// The open unit's instrumented module and evidence.
    ///
    /// # Errors
    ///
    /// [`FleetError::Protocol`] for a done unit, which holds none.
    fn artifact(&self) -> Result<&(Vec<u8>, InstrumentationEvidence), FleetError> {
        self.artifact.as_ref().ok_or_else(|| {
            FleetError::Protocol(format!(
                "unit {} is done and holds no instrumented module",
                self.unit.spec.id
            ))
        })
    }
}

struct WorkerState {
    id: u64,
    probation: u32,
    quarantine: Option<String>,
    completed: u64,
    live: u32,
}

struct State {
    dep: Deployment,
    journal: Journal,
    config: FleetConfig,
    units: Vec<UnitState>,
    index: HashMap<u64, usize>,
    pending: VecDeque<u64>,
    workers: HashMap<String, WorkerState>,
    ids: HashMap<u64, String>,
    next_worker_id: u64,
    next_session: u64,
    leased_upto: u64,
    nonce_counter: u64,
    checks_scheduled: u64,
    checks_mismatched: u64,
    redispatched: u64,
    rejected: u64,
    /// Work-steal duplications (kept out of `redispatched`, which
    /// counts deadline/straggler re-queues only).
    steals: u64,
    /// Since when at most one node has been active (set on the first
    /// pull that finds the fleet single-node, cleared by one that does
    /// not).
    sole_since: Option<Instant>,
}

impl State {
    fn active_workers(&self) -> usize {
        self.workers
            .values()
            .filter(|w| w.quarantine.is_none())
            .count()
    }

    fn campaign_done(&self) -> bool {
        self.units.iter().all(|u| u.unit.done.is_some())
    }

    fn fresh_nonce(&mut self) -> [u8; 32] {
        self.nonce_counter += 1;
        let mut payload = Vec::with_capacity(34);
        payload.extend_from_slice(b"acctee-fleet-nonce");
        payload.extend_from_slice(&self.config.seed.to_le_bytes());
        payload.extend_from_slice(&self.nonce_counter.to_le_bytes());
        sha256(&payload)
    }

    /// Hands out the next session id, extending the journaled lease
    /// block when exhausted so a restarted coordinator never re-issues
    /// an id (the journal's floor is the previous lease's ceiling).
    fn take_session(&mut self) -> Result<u64, FleetError> {
        if self.next_session >= self.leased_upto {
            let upto = self.next_session + 1024;
            self.journal.session_lease(upto)?;
            self.leased_upto = upto;
        }
        let s = self.next_session;
        self.next_session += 1;
        Ok(s)
    }

    /// Tops the pending queue up so `needed` executions are always
    /// either verified, in flight, or queued.
    fn refill(&mut self, idx: usize) {
        if self.units[idx].unit.done.is_some() {
            return;
        }
        let eligible = self.units[idx]
            .unit
            .submissions
            .iter()
            .filter(|s| {
                self.workers
                    .get(&s.worker)
                    .is_none_or(|w| w.quarantine.is_none())
            })
            .count();
        let u = &self.units[idx];
        let have = eligible + u.live.len() + u.queued as usize;
        let missing = (u.unit.needed() as usize).saturating_sub(have);
        let id = u.unit.spec.id;
        for _ in 0..missing {
            self.units[idx].queued += 1;
            self.pending.push_back(id);
        }
    }

    /// Quarantines `worker`: journals the verdict, kills its live
    /// assignments, discards its submissions on incomplete units and
    /// refills whatever that leaves short.
    fn quarantine_worker(&mut self, worker: &str, reason: &str) -> Result<(), FleetError> {
        let Some(w) = self.workers.get_mut(worker) else {
            return Ok(());
        };
        if w.quarantine.is_some() {
            return Ok(());
        }
        self.journal.quarantine(worker, reason)?;
        w.quarantine = Some(reason.to_string());
        w.live = 0;
        for u in &mut self.units {
            u.live.retain(|a| a.worker != worker);
            if u.unit.done.is_none() {
                u.unit.submissions.retain(|s| s.worker != worker);
            }
        }
        for idx in 0..self.units.len() {
            self.refill(idx);
        }
        Ok(())
    }

    /// Completes the unit if enough eligible submissions exist. On
    /// bit-identical agreement the unit is journaled done and every
    /// agreeing session credited; on disagreement the coordinator's
    /// own enclave referees, dissenting nodes are quarantined, and the
    /// check is re-run (possibly completing on the surviving
    /// submissions, possibly refilling the queue).
    fn try_complete(&mut self, idx: usize) -> Result<(), FleetError> {
        loop {
            if self.units[idx].unit.done.is_some() {
                return Ok(());
            }
            let needed = self.units[idx].unit.needed() as usize;
            let eligible: Vec<usize> = {
                let u = &self.units[idx];
                u.unit
                    .submissions
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        self.workers
                            .get(&s.worker)
                            .is_none_or(|w| w.quarantine.is_none())
                    })
                    .map(|(i, _)| i)
                    .collect()
            };
            if eligible.len() < needed {
                return Ok(());
            }
            let key = |s: &JournalSubmission| {
                (
                    s.result,
                    s.record.signed.log.weighted_instructions,
                    s.record.signed.log.memory_integral,
                )
            };
            let first = key(&self.units[idx].unit.submissions[eligible[0]]);
            let agree = eligible
                .iter()
                .all(|&i| key(&self.units[idx].unit.submissions[i]) == first);
            if agree {
                let sessions: Vec<u64> = eligible
                    .iter()
                    .map(|&i| {
                        self.units[idx].unit.submissions[i]
                            .record
                            .signed
                            .log
                            .session_id
                    })
                    .collect();
                self.journal
                    .unit_done(self.units[idx].unit.spec.id, &sessions)?;
                for &i in &eligible {
                    let worker = self.units[idx].unit.submissions[i].worker.clone();
                    if let Some(w) = self.workers.get_mut(&worker) {
                        w.completed += 1;
                    }
                }
                // Outstanding duplicates (steals, stragglers that
                // resurface) are now stale.
                let live = std::mem::take(&mut self.units[idx].live);
                for a in live {
                    if let Some(w) = self.workers.get_mut(&a.worker) {
                        w.live = w.live.saturating_sub(1);
                    }
                }
                self.units[idx].unit.done = Some(sessions);
                self.units[idx].artifact = None;
                return Ok(());
            }
            // Counters disagree: the coordinator's own enclave is the
            // deterministic referee (accounting is engine- and
            // host-independent, so the honest triple is unique).
            self.checks_mismatched += 1;
            let u = &self.units[idx];
            let (module, evidence) = u.artifact()?;
            let out = self
                .dep
                .execute(module, evidence, u.unit.spec.func(), &[], b"")
                .map_err(|e| FleetError::Protocol(format!("referee execution failed: {e}")))?;
            let truth = (
                result_key(&out.results),
                out.log.log.weighted_instructions,
                out.log.log.memory_integral,
            );
            let losers: Vec<String> = {
                let u = &self.units[idx];
                eligible
                    .iter()
                    .filter(|&&i| key(&u.unit.submissions[i]) != truth)
                    .map(|&i| u.unit.submissions[i].worker.clone())
                    .collect()
            };
            let unit_id = self.units[idx].unit.spec.id;
            for l in &losers {
                self.quarantine_worker(
                    l,
                    &format!("spot-check mismatch on unit {unit_id}: signed counters or result disagree with referee"),
                )?;
            }
            if losers.is_empty() {
                // Submissions disagree with each other yet none with
                // the referee — impossible for a total key comparison;
                // bail rather than loop forever.
                return Err(FleetError::Protocol(
                    "mismatch verdict converged on no dissenter".into(),
                ));
            }
            // Loop: surviving submissions may now satisfy the unit, or
            // the refill inside quarantine_worker queued replacements.
        }
    }

    fn report(&self) -> FleetReport {
        let mut workers: Vec<FleetWorkerRow> = self
            .workers
            .iter()
            .map(|(name, w)| FleetWorkerRow {
                name: name.clone(),
                completed: w.completed,
                inflight: w.live,
                quarantined: w.quarantine.is_some(),
            })
            .collect();
        workers.sort_by(|a, b| a.name.cmp(&b.name));
        FleetReport {
            units_total: self.units.len() as u64,
            completed: self.units.iter().filter(|u| u.unit.done.is_some()).count() as u64,
            pending: self.pending.len() as u64,
            inflight: self.units.iter().map(|u| u.live.len() as u64).sum(),
            checks_scheduled: self.checks_scheduled,
            checks_mismatched: self.checks_mismatched,
            redispatched: self.redispatched,
            rejected: self.rejected,
            done: self.campaign_done(),
            workers,
        }
    }
}

struct Shared {
    state: Mutex<State>,
    stop: AtomicBool,
    io_timeout: Duration,
}

/// A bound-but-not-yet-serving coordinator.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Control handle over a serving coordinator.
pub struct CoordinatorHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `addr` and prepares the campaign. A fresh journal is
    /// seeded from `specs`; a non-empty journal means this is a
    /// resumption, `specs` is ignored, and the campaign continues from
    /// exactly the acknowledged state (verified submissions kept,
    /// incomplete units re-queued, quarantines upheld, session ids
    /// starting above every leased block).
    ///
    /// # Errors
    ///
    /// Bind or journal I/O failures, journal corruption, or an
    /// instrumentation failure rebuilding a journaled open unit.
    pub fn open(
        addr: &str,
        config: FleetConfig,
        specs: &[UnitSpec],
    ) -> Result<Coordinator, FleetError> {
        let listener = TcpListener::bind(addr)?;
        let (mut journal, replay) = Journal::open(&config.state_dir)?;
        let dep = Deployment::new(config.seed);
        let mut units = Vec::new();
        let mut index = HashMap::new();
        let resuming = !replay.units.is_empty();
        let mut workers: HashMap<String, WorkerState> = HashMap::new();
        let journaled = if resuming {
            replay.units
        } else {
            let mut fresh = Vec::with_capacity(specs.len());
            for spec in specs {
                journal.unit_added(spec, config.deadline_ms)?;
                let mut checks = 0;
                if check_sampled(spec.id, config.seed, config.redundancy) {
                    journal.check_scheduled(spec.id)?;
                    checks = 1;
                }
                fresh.push(JournalUnit {
                    spec: *spec,
                    deadline_ms: config.deadline_ms,
                    checks,
                    submissions: Vec::new(),
                    done: None,
                });
            }
            fresh
        };
        let mut checks_scheduled = 0u64;
        for unit in journaled {
            // Only open units are instrumented, so a restart costs
            // O(open units) beyond the replay.
            let artifact = unit
                .done
                .is_none()
                .then(|| dep.instrument(&unit.spec.module_bytes(), Level::LoopBased))
                .transpose()
                .map_err(|e| {
                    FleetError::Protocol(format!("unit {} does not instrument: {e}", unit.spec.id))
                })?;
            checks_scheduled += u64::from(unit.checks);
            index.insert(unit.spec.id, units.len());
            units.push(UnitState {
                unit,
                artifact,
                live: Vec::new(),
                queued: 0,
            });
        }
        for (name, reason) in replay.quarantined {
            workers.insert(
                name,
                WorkerState {
                    id: 0,
                    probation: 0,
                    quarantine: Some(reason),
                    completed: 0,
                    live: 0,
                },
            );
        }
        let next_session = replay.session_floor.max(1);
        let io_timeout = config.io_timeout;
        let mut state = State {
            dep,
            journal,
            config,
            units,
            index,
            pending: VecDeque::new(),
            workers,
            ids: HashMap::new(),
            next_worker_id: 1,
            next_session,
            leased_upto: next_session,
            nonce_counter: 0,
            checks_scheduled,
            checks_mismatched: 0,
            redispatched: 0,
            rejected: 0,
            steals: 0,
            sole_since: None,
        };
        // A crash between the last submission and its unit-done event
        // leaves a completable unit; completing it here (before any
        // ticket is queued) is what makes resumption exactly-once.
        for idx in 0..state.units.len() {
            state.try_complete(idx)?;
            state.refill(idx);
        }
        // One fsync covers the seeded campaign and whatever the resume
        // journaled above, and also the frames a crashed predecessor
        // appended but never committed, which replay already trusted.
        state.journal.commit()?;
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                stop: AtomicBool::new(false),
                io_timeout,
            }),
        })
    }

    /// Starts the accept loop and straggler ticker; returns the bound
    /// address and the control handle.
    ///
    /// # Errors
    ///
    /// Propagates listener inspection failures.
    pub fn spawn(self) -> Result<(SocketAddr, CoordinatorHandle), FleetError> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || handle_connection(&shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            // Listener drops here, freeing the port for a successor.
        });
        let shared = Arc::clone(&self.shared);
        let ticker = std::thread::spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let mut st = match shared.state.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                reap_stragglers(&mut st);
            }
        });
        Ok((
            addr,
            CoordinatorHandle {
                shared: self.shared,
                addr,
                threads: vec![accept, ticker],
            },
        ))
    }
}

/// Removes live assignments that outlived the straggler budget and
/// re-queues their units. The missing node is not quarantined — silence
/// is indistinguishable from a crash, and unlike a counter mismatch it
/// carries no evidence of dishonesty.
fn reap_stragglers(st: &mut State) {
    let factor = st.config.straggler_factor.max(1);
    let grace = Duration::from_millis(st.config.straggler_grace_ms);
    let mut reaped: Vec<(usize, String)> = Vec::new();
    for (idx, u) in st.units.iter_mut().enumerate() {
        if u.unit.done.is_some() {
            continue;
        }
        let budget = Duration::from_millis(u.unit.deadline_ms.saturating_mul(factor)) + grace;
        let mut dropped = Vec::new();
        u.live.retain(|a| {
            if a.granted_at.elapsed() > budget {
                dropped.push(a.worker.clone());
                false
            } else {
                true
            }
        });
        for w in dropped {
            reaped.push((idx, w));
        }
    }
    for (idx, worker) in reaped {
        if let Some(w) = st.workers.get_mut(&worker) {
            w.live = w.live.saturating_sub(1);
        }
        st.redispatched += 1;
        st.refill(idx);
    }
}

impl CoordinatorHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time campaign snapshot.
    pub fn report(&self) -> FleetReport {
        self.lock().report()
    }

    /// Work-steal duplications so far (tracked apart from
    /// re-dispatches, which mean something timed out).
    pub fn steals(&self) -> u64 {
        self.lock().steals
    }

    /// Blocks until every unit completes or `timeout` passes; returns
    /// whether the campaign finished.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.lock().campaign_done() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stops serving: no further journal writes happen after this
    /// returns (the flag-then-lock sequence is the barrier), so a
    /// successor may immediately reopen the same state directory.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(self.lock());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Folds the journal's credited work through the reimbursement escrow
    /// into per-node statements signed by the coordinator's enclave.
    ///
    /// # Errors
    ///
    /// Quoting failures from the coordinator's accounting enclave; a
    /// journal poisoned by a failed commit.
    pub fn reconcile(&self, cfg: &ReconcileConfig) -> Result<Vec<SignedNodeStatement>, FleetError> {
        let mut st = self.lock();
        // Sign committed history only: the commit is free unless a
        // failed one poisoned the journal, which it then refuses.
        st.journal.commit()?;
        let pairs: Vec<(String, SignedLog)> = st
            .units
            .iter()
            .flat_map(|u| credited(&u.unit.submissions, u.unit.done.as_deref()))
            .map(|sub| (sub.worker.clone(), sub.record.signed.clone()))
            .collect();
        let quarantined: Vec<String> = st
            .workers
            .iter()
            .filter(|(_, w)| w.quarantine.is_some())
            .map(|(n, _)| n.clone())
            .collect();
        reconcile(
            &pairs,
            &quarantined,
            st.dep.workload_provider(),
            st.dep.infrastructure().accounting_enclave(),
            cfg,
        )
        .map_err(|e| FleetError::Protocol(format!("reconciliation signing failed: {e}")))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        match self.shared.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// One worker connection: a tiny state machine (hello → join →
/// pull/submit) over the shared wire protocol. The connection is
/// cheap-threaded — fleets are tens of nodes, not the serving plane's
/// thousands of clients.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    // (name, outstanding challenge nonce) for this connection.
    let mut hello: Option<(String, [u8; 32])> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let req = match wire::read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(WireError::Io(kind, _))
                if kind == std::io::ErrorKind::WouldBlock
                    || kind == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let resp = dispatch(shared, &mut hello, req);
        if wire::write_response(&mut writer, &resp).is_err() {
            return;
        }
    }
}

fn dispatch(shared: &Shared, hello: &mut Option<(String, [u8; 32])>, req: Request) -> Response {
    let mut st = match shared.state.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if shared.stop.load(Ordering::SeqCst) {
        return Response::Error {
            message: "coordinator is stopping".into(),
        };
    }
    let resp = match req {
        Request::FleetHello { worker } => {
            let nonce = st.fresh_nonce();
            *hello = Some((worker, nonce));
            Response::FleetChallenge { nonce }
        }
        Request::FleetJoin { worker, quote } => handle_join(&mut st, hello, &worker, &quote),
        Request::FleetPull {
            worker_id,
            capacity,
        } => handle_pull(&mut st, worker_id, capacity),
        Request::FleetSubmit {
            worker_id,
            unit_id,
            session_id,
            submission,
        } => match handle_submit(&mut st, worker_id, unit_id, session_id, submission) {
            Ok(ack) => Response::FleetAckOk { ack },
            Err(e) => Response::Error {
                message: format!("submit failed: {e}"),
            },
        },
        Request::FleetStatus => Response::FleetStatusOk { fleet: st.report() },
        _ => Response::Error {
            message: "this endpoint is a fleet coordinator, not a serving node".into(),
        },
    };
    // One fsync covers every event this request appended, and no
    // response leaves before it. A failed commit poisons the journal,
    // so this and every later request is refused until a restart
    // replays what reached the disk.
    if let Err(e) = st.journal.commit() {
        return Response::Error {
            message: format!("journal commit failed: {e}"),
        };
    }
    resp
}

fn handle_join(
    st: &mut State,
    hello: &mut Option<(String, [u8; 32])>,
    worker: &str,
    quote: &acctee_sgx::Quote,
) -> Response {
    let Some((name, nonce)) = hello.take() else {
        return Response::Error {
            message: "join without a preceding hello".into(),
        };
    };
    if name != worker {
        return Response::Error {
            message: "join name does not match hello".into(),
        };
    }
    // The worker's AE must (a) verify under the shared authority,
    // (b) measure identically to the coordinator's own AE (same
    // enclave code, same weight table) and (c) bind this connection's
    // fresh nonce — a replayed or cross-channel quote fails (c).
    let measured = match st.dep.authority.verify(quote) {
        Ok(m) => m,
        Err(e) => {
            return Response::Error {
                message: format!("join rejected: quote does not verify: {e}"),
            }
        }
    };
    let own = st.dep.infrastructure().accounting_enclave().measurement();
    if measured != own {
        return Response::Error {
            message: format!("join rejected: enclave measures {measured}, expected {own}"),
        };
    }
    if quote.report_data[..32] != channel_binding(&nonce) {
        return Response::Error {
            message: "join rejected: quote does not bind the challenge nonce".into(),
        };
    }
    if let Some(w) = st.workers.get(worker) {
        if let Some(reason) = &w.quarantine {
            return Response::Error {
                message: format!("join rejected: node is quarantined: {reason}"),
            };
        }
        // Reconnection: same membership, counters intact.
        let id = w.id;
        st.ids.insert(id, worker.to_string());
        return Response::FleetWelcome { worker_id: id };
    }
    let id = st.next_worker_id;
    st.next_worker_id += 1;
    let probation = st.config.probation_checks;
    st.workers.insert(
        worker.to_string(),
        WorkerState {
            id,
            probation,
            quarantine: None,
            completed: 0,
            live: 0,
        },
    );
    st.ids.insert(id, worker.to_string());
    Response::FleetWelcome { worker_id: id }
}

fn handle_pull(st: &mut State, worker_id: u64, capacity: u32) -> Response {
    let Some(name) = st.ids.get(&worker_id).cloned() else {
        return Response::Error {
            message: "unknown worker id (join first)".into(),
        };
    };
    if let Some(reason) = st.workers.get(&name).and_then(|w| w.quarantine.clone()) {
        return Response::Error {
            message: format!("quarantined: {reason}"),
        };
    }
    if st.campaign_done() {
        return Response::FleetAssign {
            units: Vec::new(),
            done: true,
        };
    }
    let active = st.active_workers().max(1);
    // Least-loaded fairness: an eager node cannot drain the whole
    // queue — it gets at most its share of what is pending right now.
    let fair = st.pending.len().div_ceil(active).max(1);
    let want = (capacity.max(1) as usize).min(fair);
    let sole = active <= 1;
    if sole {
        st.sole_since.get_or_insert_with(Instant::now);
    } else {
        st.sole_since = None;
    }
    // A lone node may run both copies of a spot-checked unit only once
    // the fleet has stayed single-node for the straggler grace; until
    // then the second copy waits for a second node, so nodes that join
    // together always cross-check each other.
    let grace = Duration::from_millis(st.config.straggler_grace_ms);
    let waive = st.sole_since.is_some_and(|t| t.elapsed() >= grace);
    let mut granted: Vec<FleetUnit> = Vec::new();
    let mut skipped: Vec<u64> = Vec::new();
    while granted.len() < want {
        let Some(unit_id) = st.pending.pop_front() else {
            break;
        };
        let idx = match st.index.get(&unit_id) {
            Some(&i) => i,
            None => continue,
        };
        if st.units[idx].unit.done.is_some() {
            st.units[idx].queued = st.units[idx].queued.saturating_sub(1);
            continue;
        }
        let involved = st.units[idx]
            .unit
            .submissions
            .iter()
            .any(|s| s.worker == name)
            || st.units[idx].live.iter().any(|a| a.worker == name);
        // Redundant executions must come from distinct nodes — unless
        // the fleet has been single-node past the grace, where
        // cross-checking is structurally impossible and blocking would
        // deadlock.
        if involved && !waive {
            skipped.push(unit_id);
            continue;
        }
        let (module, evidence) = match st.units[idx].artifact() {
            Ok(a) => a.clone(),
            Err(e) => return refuse_pull(st, unit_id, skipped, format!("grant refused: {e}")),
        };
        // Probation: a new node's first units are force-promoted to
        // spot checks so its honesty is tested deterministically.
        let promote = st.workers.get(&name).is_some_and(|w| w.probation > 0)
            && st.units[idx].unit.checks == 0
            && !sole;
        if promote {
            if let Err(e) = st.journal.check_scheduled(unit_id) {
                return refuse_pull(st, unit_id, skipped, format!("journal append failed: {e}"));
            }
            st.units[idx].unit.checks += 1;
            st.checks_scheduled += 1;
            if let Some(w) = st.workers.get_mut(&name) {
                w.probation -= 1;
            }
            // The promoted unit now needs a second executor.
            st.units[idx].queued += 1;
            st.pending.push_back(unit_id);
        }
        let session_id = match st.take_session() {
            Ok(s) => s,
            Err(e) => {
                return refuse_pull(st, unit_id, skipped, format!("journal append failed: {e}"))
            }
        };
        st.units[idx].queued = st.units[idx].queued.saturating_sub(1);
        st.units[idx].live.push(Assignment {
            worker: name.clone(),
            session_id,
            granted_at: Instant::now(),
        });
        if let Some(w) = st.workers.get_mut(&name) {
            w.live += 1;
        }
        granted.push(FleetUnit {
            unit_id,
            session_id,
            func: st.units[idx].unit.spec.func().to_string(),
            module,
            evidence,
            deadline_ms: st.units[idx].unit.deadline_ms,
        });
    }
    for s in skipped {
        st.pending.push_back(s);
    }
    // Work stealing: an idle node with nothing pending duplicates an
    // assignment currently held by a backlogged peer. First verified
    // submission wins; the loser's is acknowledged stale.
    if granted.is_empty() && !sole {
        let idle = st.workers.get(&name).is_none_or(|w| w.live == 0);
        if idle && st.pending.is_empty() {
            let victim = st
                .units
                .iter()
                .enumerate()
                .filter(|(_, u)| u.unit.done.is_none())
                .filter(|(_, u)| {
                    !u.unit.submissions.iter().any(|s| s.worker == name)
                        && !u.live.iter().any(|a| a.worker == name)
                })
                .filter(|(_, u)| {
                    u.live.iter().any(|a| {
                        st.workers
                            .get(&a.worker)
                            .is_some_and(|w| w.live >= 2 && w.quarantine.is_none())
                    })
                })
                .map(|(i, _)| i)
                .next();
            if let Some(idx) = victim {
                let (module, evidence) = match st.units[idx].artifact() {
                    Ok(a) => a.clone(),
                    Err(e) => {
                        return Response::Error {
                            message: format!("steal refused: {e}"),
                        }
                    }
                };
                match st.take_session() {
                    Ok(session_id) => {
                        st.steals += 1;
                        st.units[idx].live.push(Assignment {
                            worker: name.clone(),
                            session_id,
                            granted_at: Instant::now(),
                        });
                        if let Some(w) = st.workers.get_mut(&name) {
                            w.live += 1;
                        }
                        granted.push(FleetUnit {
                            unit_id: st.units[idx].unit.spec.id,
                            session_id,
                            func: st.units[idx].unit.spec.func().to_string(),
                            module,
                            evidence,
                            deadline_ms: st.units[idx].unit.deadline_ms,
                        });
                    }
                    Err(e) => {
                        return Response::Error {
                            message: format!("journal append failed: {e}"),
                        }
                    }
                }
            }
        }
    }
    Response::FleetAssign {
        units: granted,
        done: st.campaign_done(),
    }
}

/// Fails a pull whose ticket `unit_id` was not granted: the ticket goes
/// back to the head of the queue and the skipped ones to its tail.
fn refuse_pull(st: &mut State, unit_id: u64, skipped: Vec<u64>, message: String) -> Response {
    st.pending.push_front(unit_id);
    st.pending.extend(skipped);
    Response::Error { message }
}

fn handle_submit(
    st: &mut State,
    worker_id: u64,
    unit_id: u64,
    session_id: u64,
    submission: FleetSubmission,
) -> Result<FleetAck, FleetError> {
    let Some(name) = st.ids.get(&worker_id).cloned() else {
        return Ok(FleetAck::Rejected {
            reason: "unknown worker id".into(),
        });
    };
    if let Some(reason) = st.workers.get(&name).and_then(|w| w.quarantine.clone()) {
        return Ok(FleetAck::Quarantined { reason });
    }
    let Some(&idx) = st.index.get(&unit_id) else {
        return Ok(FleetAck::Rejected {
            reason: format!("unknown unit {unit_id}"),
        });
    };
    let live_at = st.units[idx]
        .live
        .iter()
        .position(|a| a.session_id == session_id && a.worker == name);
    let Some(live_at) = live_at else {
        // Completed elsewhere, reaped as a straggler, or forgotten
        // across a coordinator restart: either way, not credited.
        return Ok(FleetAck::Stale);
    };
    match submission {
        FleetSubmission::Trapped { reason } => {
            st.units[idx].live.remove(live_at);
            if let Some(w) = st.workers.get_mut(&name) {
                w.live = w.live.saturating_sub(1);
            }
            st.redispatched += 1;
            if reason.contains("deadline") {
                // The unit outgrew its budget: widen it so the retry
                // can actually finish (the same `DeadlineExceeded`
                // plumbing every accounted execution uses; there is no
                // separate fleet timer).
                let u = &mut st.units[idx];
                u.unit.deadline_ms = u
                    .unit
                    .deadline_ms
                    .max(1)
                    .saturating_mul(st.config.deadline_growth.max(2));
            }
            st.refill(idx);
            Ok(FleetAck::Accepted)
        }
        FleetSubmission::Completed { results, log } => {
            let module_hash = st.units[idx].artifact()?.1.instrumented_hash;
            let verdict = verify_submission(st, &module_hash, session_id, &log);
            if let Err(reason) = verdict {
                st.units[idx].live.remove(live_at);
                if let Some(w) = st.workers.get_mut(&name) {
                    w.live = w.live.saturating_sub(1);
                }
                st.rejected += 1;
                // An invalid signed log is hard evidence of tampering
                // (an honest enclave cannot produce one), so the node
                // is quarantined, not merely retried.
                st.quarantine_worker(&name, &format!("invalid signed log: {reason}"))?;
                return Ok(FleetAck::Rejected { reason });
            }
            let result = result_key(&results);
            let record = UsageRecord {
                tenant: name.clone(),
                signed: *log,
            };
            // Journal first, acknowledge after: `dispatch` commits
            // before the ack leaves, so it survives any crash.
            st.journal.submission(unit_id, &name, result, &record)?;
            st.units[idx].live.remove(live_at);
            if let Some(w) = st.workers.get_mut(&name) {
                w.live = w.live.saturating_sub(1);
            }
            st.units[idx].unit.submissions.push(JournalSubmission {
                worker: name,
                result,
                record,
            });
            st.try_complete(idx)?;
            Ok(FleetAck::Accepted)
        }
    }
}

/// Checks a completed submission's signed log: authority + AE
/// measurement + log binding (via the workload provider), then the
/// binding of the log to *this* assignment (session id) and *this*
/// unit (its instrumented module's hash).
fn verify_submission(
    st: &State,
    module_hash: &Digest,
    session_id: u64,
    log: &SignedLog,
) -> Result<(), String> {
    st.dep
        .workload_provider()
        .verify_log(log)
        .map_err(|e| e.to_string())?;
    if log.log.session_id != session_id {
        return Err(format!(
            "log session {} does not match assignment {session_id}",
            log.log.session_id
        ));
    }
    if log.log.module_hash != *module_hash {
        return Err("log covers a different module".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let hits: Vec<bool> = (0..1000).map(|i| check_sampled(i, 7, 0.05)).collect();
        let again: Vec<bool> = (0..1000).map(|i| check_sampled(i, 7, 0.05)).collect();
        assert_eq!(hits, again);
        let n = hits.iter().filter(|h| **h).count();
        assert!((10..=120).contains(&n), "5% of 1000 sampled {n} times");
        assert!((0..1000).all(|i| !check_sampled(i, 7, 0.0)));
        assert!((0..1000).all(|i| check_sampled(i, 7, 1.0)));
    }

    #[test]
    fn fleet_config_defaults_are_sane() {
        let c = FleetConfig::default();
        assert!(c.redundancy > 0.0 && c.redundancy < 1.0);
        assert!(c.deadline_growth >= 2);
        assert!(c.probation_checks >= 1);
    }

    // A campaign driven through `dispatch` by one in-process node, with
    // no sockets or threads: every unit needs exactly one execution and
    // is granted in creation order.

    const SEED: u64 = 0xacc7ee;

    fn campaign_config(tag: &str) -> FleetConfig {
        let state_dir = std::env::temp_dir().join(format!(
            "acctee-fleet-coordinator-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        FleetConfig {
            seed: SEED,
            state_dir,
            redundancy: 0.0,
            probation_checks: 0,
            ..FleetConfig::default()
        }
    }

    fn specs() -> Vec<UnitSpec> {
        UnitSpec::campaign(6, crate::WorkloadKind::SubsetSum, 6, 7000)
    }

    fn state(c: &Coordinator) -> MutexGuard<'_, State> {
        c.shared.state.lock().expect("no test thread panicked")
    }

    /// Which units hold an instrumented module, in creation order.
    fn holding(c: &Coordinator) -> Vec<bool> {
        state(c)
            .units
            .iter()
            .map(|u| u.artifact.is_some())
            .collect()
    }

    /// An attested worker node joined through `dispatch`.
    struct Node {
        dep: Deployment,
        hello: Option<(String, [u8; 32])>,
        id: u64,
    }

    impl Node {
        fn join(c: &Coordinator, name: &str) -> Node {
            let dep = Deployment::new(SEED);
            let mut hello = None;
            let hi = Request::FleetHello {
                worker: name.into(),
            };
            let Response::FleetChallenge { nonce } = dispatch(&c.shared, &mut hello, hi) else {
                panic!("no challenge");
            };
            let ae = dep.infrastructure().accounting_enclave();
            let join = Request::FleetJoin {
                worker: name.into(),
                quote: ae.attest_channel(&nonce).unwrap(),
            };
            let Response::FleetWelcome { worker_id } = dispatch(&c.shared, &mut hello, join) else {
                panic!("join refused");
            };
            Node {
                dep,
                hello,
                id: worker_id,
            }
        }

        fn submit(
            &mut self,
            c: &Coordinator,
            unit_id: u64,
            session_id: u64,
            log: SignedLog,
            results: Vec<acctee_interp::Value>,
        ) -> FleetAck {
            let req = Request::FleetSubmit {
                worker_id: self.id,
                unit_id,
                session_id,
                submission: FleetSubmission::Completed {
                    results,
                    log: Box::new(log),
                },
            };
            match dispatch(&c.shared, &mut self.hello, req) {
                Response::FleetAckOk { ack } => ack,
                other => panic!("submit answered {other:?}"),
            }
        }

        /// Pulls, executes and submits `n` units one at a time; each
        /// must be accepted and drop its artifact on completion.
        fn work(&mut self, c: &Coordinator, n: usize) {
            for _ in 0..n {
                let pull = Request::FleetPull {
                    worker_id: self.id,
                    capacity: 1,
                };
                let Response::FleetAssign { units, .. } =
                    dispatch(&c.shared, &mut self.hello, pull)
                else {
                    panic!("pull refused");
                };
                let [unit] = units.as_slice() else {
                    panic!("granted {} units", units.len());
                };
                let infra = self.dep.infrastructure();
                let loaded = infra.load(&unit.module, &unit.evidence).unwrap();
                let (out, _) = infra
                    .execute_billed(&loaded, &unit.func, &[], b"", unit.session_id)
                    .unwrap();
                let idx = state(c).index[&unit.unit_id];
                assert!(state(c).units[idx].artifact.is_some());
                let ack = self.submit(c, unit.unit_id, unit.session_id, out.log, out.results);
                assert_eq!(ack, FleetAck::Accepted);
                let st = state(c);
                assert!(st.units[idx].unit.done.is_some());
                assert!(
                    st.units[idx].artifact.is_none(),
                    "a completed unit kept its module"
                );
            }
        }
    }

    #[test]
    fn a_resumed_half_done_campaign_instruments_only_its_open_units() {
        let config = campaign_config("half");
        let specs = specs();
        let c = Coordinator::open("127.0.0.1:0", config.clone(), &specs).unwrap();
        assert!(holding(&c).iter().all(|&held| held));
        Node::join(&c, "node-a").work(&c, 3);
        assert_eq!(holding(&c), [false, false, false, true, true, true]);
        drop(c);

        let c = Coordinator::open("127.0.0.1:0", config.clone(), &[]).unwrap();
        assert_eq!(holding(&c), [false, false, false, true, true, true]);
        Node::join(&c, "node-a").work(&c, 3);
        assert!(state(&c).campaign_done());
        assert!(holding(&c).iter().all(|&held| !held));
        drop(c);

        let (_, replay) = Journal::open(&config.state_dir).unwrap();
        assert_eq!(replay.duplicate_done_dropped, 0);
        for (unit, spec) in replay.units.iter().zip(&specs) {
            let credited: Vec<_> = credited(&unit.submissions, unit.done.as_deref()).collect();
            assert_eq!(credited.len(), 1, "unit {}", spec.id);
            assert_eq!(
                credited[0].result,
                spec.expected_result(),
                "unit {}",
                spec.id
            );
        }
        std::fs::remove_dir_all(&config.state_dir).unwrap();
    }

    #[test]
    fn a_reopened_finished_campaign_holds_no_module_and_acks_late_submits_stale() {
        let config = campaign_config("finished");
        let c = Coordinator::open("127.0.0.1:0", config.clone(), &specs()).unwrap();
        Node::join(&c, "node-a").work(&c, specs().len());
        let first = state(&c).units[0].unit.submissions[0].clone();
        drop(c);

        let c = Coordinator::open("127.0.0.1:0", config.clone(), &[]).unwrap();
        assert!(state(&c).campaign_done());
        assert!(holding(&c).iter().all(|&held| !held));
        // A replayed submission for a done unit has no live assignment
        // to match: it is acked stale before anything reads the
        // (dropped) module.
        let mut node = Node::join(&c, "node-a");
        let session = first.record.signed.log.session_id;
        let results = vec![acctee_interp::Value::I64(first.result)];
        let ack = node.submit(&c, specs()[0].id, session, first.record.signed, results);
        assert_eq!(ack, FleetAck::Stale);
        drop(c);
        std::fs::remove_dir_all(&config.state_dir).unwrap();
    }
}
