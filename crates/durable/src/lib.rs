//! Durable control plane for AccTEE serving.
//!
//! Three pieces, one state directory:
//!
//! * [`wal`] — a write-ahead log of canonical-encoded signed usage
//!   records (append + configurable fsync, segment rotation and
//!   compaction) on [`framed`], the CRC-framed, torn-tail-tolerant file
//!   format it shares with the deploy log and the fleet coordinator's
//!   journal;
//! * [`registry`] — the deployment registry and tenant state, sealed
//!   with the accounting enclave's key: an append-only deploy log of one
//!   sealed frame per deployment, and a snapshot checkpointing the
//!   counters and rollups under a monotonic nonce schedule, so a restart
//!   rehydrates deployments and resumes id allocation past every
//!   pre-crash high-water mark;
//! * [`billing`] — an aggregator folding verified logs into per-tenant
//!   metering rollups and signed settlement statements, carrying the
//!   sub-MiB integral remainders exactly.
//!
//! [`Durable`] ties them together behind one lock with a simple
//! contract: a usage record is appended (and, under
//! [`FsyncPolicy::Always`], fsynced) *before* the response leaves the
//! server, so every acknowledged request is recoverable — a server
//! answering a batch of requests stages each record
//! ([`Durable::stage_usage`]) and commits them with one fsync
//! ([`Durable::commit`]) before the batch's responses leave; a deployment
//! is appended and fsynced to the deploy log before its id is
//! acknowledged, under every policy; session ids are covered by a
//! sealed lease extended ahead of use, so no pre-crash id is ever
//! re-issued; and on open the aggregator is rebuilt from a full WAL
//! replay — exactly-once per session id — then cross-checked against
//! the sealed rollups, so a log that lost acknowledged records is
//! refused rather than silently under-billed.

pub mod billing;
pub mod framed;
pub mod record;
pub mod registry;
pub mod wal;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use acctee::codec::CodecError;
use acctee::{AccountingEnclave, Invoice, PricingModel, SignedLog};
use acctee_instrument::Level;

use framed::Damaged;
use registry::DeployLog;

pub use billing::{Aggregator, SettlementStatement, SignedSettlement, TenantRollup};
pub use record::{decode_record, encode_record, UsageRecord};
pub use registry::{DeployRecord, RegistryState, SnapshotStore, DEPLOY_LOG_FILE};
pub use wal::{FsyncPolicy, Wal, WalCommits, WalReplay};

/// Errors from the durable control plane.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(String),
    /// On-disk state is damaged in a way replay must not paper over
    /// (acknowledged records missing, CRC failures outside the torn
    /// tail, rollups the log cannot reproduce).
    Corrupt(String),
    /// A canonical encoding failed to decode.
    Decode(String),
    /// A snapshot sealed by a different enclave: the state directory
    /// belongs to another deployment seed.
    ForeignSnapshot(String),
    /// A usage record for this session id is already in the log.
    DuplicateSession(u64),
    /// A deployment with this id is already in the deploy log.
    DuplicateDeploy(u64),
    /// Quoting or quote verification failed.
    Attestation(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "i/o error: {e}"),
            DurableError::Corrupt(e) => write!(f, "durable state corrupt: {e}"),
            DurableError::Decode(e) => write!(f, "decode error: {e}"),
            DurableError::ForeignSnapshot(e) => write!(f, "foreign snapshot: {e}"),
            DurableError::DuplicateSession(id) => {
                write!(f, "usage record for session {id} already logged")
            }
            DurableError::DuplicateDeploy(id) => write!(f, "deployment {id} already logged"),
            DurableError::Attestation(e) => write!(f, "attestation error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Io(e.to_string())
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> DurableError {
        DurableError::Decode(e.to_string())
    }
}

impl From<Damaged> for DurableError {
    fn from(e: Damaged) -> DurableError {
        DurableError::Corrupt(e.0)
    }
}

/// Rotate WAL segments past this size.
const SEGMENT_BYTES: u64 = 4 << 20;
/// Seal a registry snapshot every this many appended records (lease
/// extensions snapshot immediately regardless).
const CHECKPOINT_EVERY: u32 = 256;
/// How far past the last sealed lease new session ids may run; the
/// lease is re-sealed before allocation crosses it.
const SESSION_LEASE: u64 = 4096;

/// Tunables for [`Durable::open`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// When appended usage records reach disk.
    pub fsync: FsyncPolicy,
}

/// What [`Durable::open`] recovered from the state directory.
#[derive(Debug)]
pub struct Recovery {
    /// Unique usage records replayed from the WAL.
    pub records_replayed: usize,
    /// Duplicate frames dropped during replay.
    pub duplicates_dropped: usize,
    /// Bytes of torn tail discarded from the final segment.
    pub torn_bytes_discarded: u64,
    /// Bytes of torn tail discarded from the deploy log.
    pub deploy_torn_bytes_discarded: u64,
    /// Deployments rehydrated from the deploy log and the sealed
    /// snapshot, by deploy id.
    pub deployments: Vec<DeployRecord>,
    /// First deploy id safe to hand out.
    pub next_deploy: u64,
    /// First session id safe to hand out (past the sealed lease *and*
    /// the WAL's high-water mark).
    pub next_session: u64,
    /// Whether a sealed snapshot was restored.
    pub snapshot_restored: bool,
}

struct Inner {
    wal: Wal,
    snapshots: SnapshotStore,
    agg: Aggregator,
    deploys: DeployLog,
    next_deploy: u64,
    session_lease: u64,
    appends_since_checkpoint: u32,
}

/// The durable control plane: one state directory, one lock.
pub struct Durable {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Durable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durable")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Durable {
    /// Opens (or initialises) the state directory: loads the newest
    /// sealed snapshot, replays the WAL, rebuilds the billing
    /// aggregator from the replayed records — exactly-once per session
    /// id — cross-checks it against the sealed rollups, and reads the
    /// deployments back from the deploy log (plus, in a directory that
    /// predates the log, the snapshot, whose deployments it moves onto
    /// the log). A torn deploy-log tail costs one extra checkpoint,
    /// sealed before the tail is cut (see [`registry`]).
    ///
    /// The aggregator is always rebuilt from the *full* WAL rather
    /// than folded forward from the snapshot: concurrent workers
    /// append out of session-id order, so "fold records above the
    /// sealed watermark" would skip a slow worker's record that landed
    /// after the seal with an id below it. Full replay has no such
    /// hole, and the sealed rollups instead serve as a floor the
    /// rebuild must dominate — the checkpoint fsyncs the WAL before
    /// sealing, so anything the rollups cover is durable, and a
    /// rebuild that falls short proves acknowledged records vanished.
    ///
    /// # Errors
    ///
    /// [`DurableError::ForeignSnapshot`] for a state directory sealed
    /// under a different seed; [`DurableError::Corrupt`] when the log
    /// cannot reproduce the sealed rollups or a sealed segment is
    /// damaged; I/O errors.
    pub fn open(
        dir: &Path,
        opts: DurableOptions,
        ae: &AccountingEnclave,
        pricing: PricingModel,
    ) -> Result<(Durable, Recovery), DurableError> {
        std::fs::create_dir_all(dir)?;
        let mut snapshots = SnapshotStore::open(dir)?;
        let snapshot = snapshots.load(ae)?;
        let (mut wal, replay) = Wal::open(dir, opts.fsync, SEGMENT_BYTES)?;

        let mut agg = Aggregator::new(pricing);
        for rec in &replay.records {
            agg.fold(&rec.tenant, &rec.signed.log);
        }

        let (sealed, mut next_deploy, session_lease, snapshot_restored) = match snapshot {
            Some(s) => {
                check_rollups(&s.rollups, agg.rollups())?;
                (s.deployments, s.next_deploy, s.session_lease, true)
            }
            None => (Vec::new(), 1, 0, false),
        };
        let next_session = session_lease.max(wal.max_session() + 1);

        let scan = DeployLog::scan(dir, ae)?;
        let logged: HashSet<u64> = scan.records.iter().map(|d| d.deploy_id).collect();
        if let Some(max) = logged.iter().max() {
            next_deploy = next_deploy.max(max + 1);
        }
        // Deployments only a snapshot holds: the directory predates the
        // deploy log, or a previous open died migrating them.
        let unlogged: Vec<DeployRecord> = sealed
            .into_iter()
            .filter(|d| !logged.contains(&d.deploy_id))
            .collect();
        let deploy_torn_bytes_discarded = scan.torn_bytes();
        if deploy_torn_bytes_discarded > 0 {
            // The torn frame's nonce reached the disk, and its id will be
            // handed out again: seal a checkpoint *before* cutting it, so
            // every later frame is sealed under a fresh epoch even if
            // this open dies mid-way. It keeps the unlogged deployments.
            seal_checkpoint(
                &mut wal,
                &mut snapshots,
                ae,
                RegistryState {
                    next_deploy,
                    session_lease: next_session,
                    wal_watermark: agg.max_folded(),
                    deployments: unlogged.clone(),
                    rollups: agg.rollups().clone(),
                },
            )?;
        }
        let mut deploys = DeployLog::resume(dir, &scan)?;
        // Migrate before any checkpoint (all of which seal no
        // deployments) can drop them.
        for d in &unlogged {
            deploys.append(ae, snapshots.last_seq(), d)?;
        }
        let mut deployments = scan.records;
        deployments.extend(unlogged);
        deployments.sort_by_key(|d| d.deploy_id);

        let recovery = Recovery {
            records_replayed: replay.records.len(),
            duplicates_dropped: replay.duplicates_dropped,
            torn_bytes_discarded: replay.torn_bytes_discarded,
            deploy_torn_bytes_discarded,
            deployments,
            next_deploy,
            next_session,
            snapshot_restored,
        };
        let durable = Durable {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                wal,
                snapshots,
                agg,
                deploys,
                next_deploy,
                // The lease must cover everything we are about to hand
                // out; it is re-sealed lazily by ensure_lease.
                session_lease: next_session,
                appends_since_checkpoint: 0,
            }),
        };
        Ok((durable, recovery))
    }

    /// The state directory this plane persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Durable state is guarded by Results everywhere; a panic
        // while holding the lock leaves no torn in-memory state worth
        // preserving, so recover the guard rather than poisoning every
        // later request.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Guarantees `session_id` is covered by the sealed session lease,
    /// re-sealing an extended lease before allocation gets within a
    /// quarter-lease of the boundary. Call after allocating an id and
    /// before executing: once this returns, a restart can never
    /// re-issue the id, even if the request dies before logging.
    ///
    /// # Errors
    ///
    /// I/O errors from sealing the extended lease.
    pub fn ensure_lease(
        &self,
        session_id: u64,
        ae: &AccountingEnclave,
    ) -> Result<(), DurableError> {
        let mut inner = self.lock();
        if session_id + SESSION_LEASE / 4 < inner.session_lease {
            return Ok(());
        }
        inner.session_lease = session_id + SESSION_LEASE;
        self.checkpoint_locked(&mut inner, ae)
    }

    /// Appends one accounted request to the WAL (fsyncing per policy)
    /// and folds it into the billing rollups: [`Durable::stage_usage`]
    /// then [`Durable::commit`]. Call *before* responding to the
    /// client: when this returns under [`FsyncPolicy::Always`], the
    /// record survives `kill -9`.
    ///
    /// # Errors
    ///
    /// [`DurableError::DuplicateSession`] if the session was already
    /// logged; I/O errors.
    pub fn append_usage(
        &self,
        tenant: &str,
        signed: &SignedLog,
        ae: &AccountingEnclave,
    ) -> Result<Invoice, DurableError> {
        let mut inner = self.lock();
        let invoice = self.stage_locked(&mut inner, tenant, signed, ae)?;
        inner.wal.commit()?;
        Ok(invoice)
    }

    /// Appends one accounted request to the WAL and folds it into the
    /// billing rollups, without the [`FsyncPolicy::Always`] fsync: the
    /// record is durable once a later [`Durable::commit`] returns, and
    /// the response must not leave before that.
    ///
    /// # Errors
    ///
    /// [`DurableError::DuplicateSession`] if the session was already
    /// logged; I/O errors.
    pub fn stage_usage(
        &self,
        tenant: &str,
        signed: &SignedLog,
        ae: &AccountingEnclave,
    ) -> Result<Invoice, DurableError> {
        let mut inner = self.lock();
        self.stage_locked(&mut inner, tenant, signed, ae)
    }

    /// Under [`FsyncPolicy::Always`], makes every staged record durable
    /// with one fsync — none when another commit or a checkpoint already
    /// covered them. The other policies leave the tail to their own
    /// schedule.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync.
    pub fn commit(&self) -> Result<(), DurableError> {
        self.lock().wal.commit()
    }

    fn stage_locked(
        &self,
        inner: &mut Inner,
        tenant: &str,
        signed: &SignedLog,
        ae: &AccountingEnclave,
    ) -> Result<Invoice, DurableError> {
        inner.wal.append(&UsageRecord {
            tenant: tenant.to_string(),
            signed: signed.clone(),
        })?;
        let invoice = inner.agg.fold(tenant, &signed.log);
        inner.appends_since_checkpoint += 1;
        if inner.appends_since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint_locked(inner, ae)?;
        }
        Ok(invoice)
    }

    /// The WAL fsyncs that made usage records durable since open, and
    /// the records they covered.
    pub fn wal_commits(&self) -> WalCommits {
        self.lock().wal.commits()
    }

    /// Persists a deployment (and advances the deploy high-water mark)
    /// as one sealed frame on the deploy log, fsynced under every
    /// [`FsyncPolicy`], so it is rehydrated on restart. Costs one seal
    /// of this module, however many are deployed.
    ///
    /// # Errors
    ///
    /// [`DurableError::DuplicateDeploy`] if the id is already logged;
    /// I/O errors.
    pub fn record_deploy(
        &self,
        deploy_id: u64,
        level: Level,
        module: Vec<u8>,
        ae: &AccountingEnclave,
    ) -> Result<(), DurableError> {
        let mut inner = self.lock();
        let epoch = inner.snapshots.last_seq();
        let rec = DeployRecord {
            deploy_id,
            level,
            module,
        };
        inner.deploys.append(ae, epoch, &rec)?;
        inner.next_deploy = inner.next_deploy.max(deploy_id + 1);
        Ok(())
    }

    /// Fetches a signed log back from the WAL by session id. Commits
    /// first, so a record staged by a batch still being served is never
    /// handed out before it is durable.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors reading the stored frame.
    pub fn lookup(&self, session_id: u64) -> Result<Option<SignedLog>, DurableError> {
        let mut inner = self.lock();
        inner.wal.commit()?;
        Ok(inner.wal.get(session_id)?.map(|r| r.signed))
    }

    /// Forces a checkpoint: fsyncs the WAL, then seals a registry
    /// snapshot covering it (counters and rollups; deployments live in
    /// the deploy log).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn checkpoint(&self, ae: &AccountingEnclave) -> Result<(), DurableError> {
        let mut inner = self.lock();
        self.checkpoint_locked(&mut inner, ae)
    }

    fn checkpoint_locked(
        &self,
        inner: &mut Inner,
        ae: &AccountingEnclave,
    ) -> Result<(), DurableError> {
        let state = RegistryState {
            next_deploy: inner.next_deploy,
            session_lease: inner.session_lease,
            wal_watermark: inner.agg.max_folded(),
            deployments: Vec::new(),
            rollups: inner.agg.rollups().clone(),
        };
        seal_checkpoint(&mut inner.wal, &mut inner.snapshots, ae, state)?;
        inner.appends_since_checkpoint = 0;
        Ok(())
    }

    /// Merges sealed WAL segments, dropping duplicated frames; every
    /// unique record is preserved. Returns segment files removed.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors while rewriting.
    pub fn compact(&self) -> Result<usize, DurableError> {
        let mut inner = self.lock();
        inner.wal.compact()
    }

    /// Signed settlement statements for every tenant with usage, in
    /// tenant order.
    ///
    /// # Errors
    ///
    /// [`DurableError::Attestation`] if quoting fails.
    pub fn settlements(
        &self,
        ae: &AccountingEnclave,
    ) -> Result<Vec<SignedSettlement>, DurableError> {
        let inner = self.lock();
        inner
            .agg
            .statements()
            .into_iter()
            .map(|s| SignedSettlement::sign(s, ae))
            .collect()
    }

    /// Current per-tenant rollups (cloned).
    pub fn rollups(&self) -> BTreeMap<String, TenantRollup> {
        self.lock().agg.rollups().clone()
    }

    /// Every unique record, re-read from disk in log order.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn read_all_records(&self) -> Result<Vec<UsageRecord>, DurableError> {
        self.lock().wal.read_all()
    }
}

/// Seals `state` as the next snapshot once the WAL it covers is durable.
fn seal_checkpoint(
    wal: &mut Wal,
    snapshots: &mut SnapshotStore,
    ae: &AccountingEnclave,
    state: RegistryState,
) -> Result<(), DurableError> {
    // Order matters: the WAL must be durable *before* rollups covering
    // it are sealed, so the sealed state never claims a record the disk
    // does not hold (the restore cross-check depends on exactly this).
    wal.sync()?;
    snapshots.save(ae, &state)
}

/// Restore-time integrity check: the rollups rebuilt from WAL replay
/// must dominate the sealed ones (the seal only ever covers durable,
/// fsynced records, so falling short means acknowledged usage
/// vanished from the log).
fn check_rollups(
    sealed: &BTreeMap<String, TenantRollup>,
    rebuilt: &BTreeMap<String, TenantRollup>,
) -> Result<(), DurableError> {
    for (tenant, s) in sealed {
        let r = rebuilt.get(tenant).cloned().unwrap_or_default();
        if r.requests < s.requests
            || r.total_nano() < s.total_nano()
            || r.memory_integral < s.memory_integral
            || r.integral_remainder < s.integral_remainder
        {
            return Err(DurableError::Corrupt(format!(
                "write-ahead log is missing accounted records for tenant \
                 {tenant}: sealed rollup covers {} requests / {} nano-credits, \
                 replay reproduced {} / {}",
                s.requests,
                s.total_nano(),
                r.requests,
                r.total_nano()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::{Deployment, ResourceUsageLog};
    use acctee_sgx::crypto::sha256;
    use acctee_sgx::{Measurement, Quote};

    fn signed(session: u64) -> SignedLog {
        SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: 100 + session,
                peak_memory_bytes: 65_536,
                memory_integral: (u128::from(session) << 18) + 3,
                io_bytes_in: 4,
                io_bytes_out: 2,
                module_hash: sha256(b"m"),
                session_id: session,
            },
            quote: Quote {
                mrenclave: Measurement(sha256(b"ae")),
                report_data: [1u8; 64],
                platform: "ae-host".into(),
                signature: sha256(b"sig"),
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = tmpdir("reopen");
        let dep = Deployment::new(0xd0);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        {
            let (d, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            assert_eq!(rec.records_replayed, 0);
            assert!(!rec.snapshot_restored);
            d.record_deploy(1, Level::LoopBased, b"mod".to_vec(), ae)
                .unwrap();
            for s in 1..=5 {
                d.ensure_lease(s, ae).unwrap();
                d.append_usage("acme", &signed(s), ae).unwrap();
            }
            d.checkpoint(ae).unwrap();
        }
        let (d, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        assert_eq!(rec.records_replayed, 5);
        assert!(rec.snapshot_restored);
        assert_eq!(rec.deployments.len(), 1);
        assert_eq!(rec.next_deploy, 2);
        // The sealed lease dominates the WAL high-water mark.
        assert!(rec.next_session > 5);
        assert_eq!(d.rollups()["acme"].requests, 5);
        assert_eq!(d.lookup(3).unwrap().unwrap(), signed(3));
        assert!(d.lookup(99).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_never_reissues_after_unlogged_sessions() {
        // Sessions that die before logging still burn their ids: the
        // lease covers them, so a restart starts past the lease even
        // though the WAL never saw them.
        let dir = tmpdir("lease");
        let dep = Deployment::new(0xd1);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let lease_extent;
        {
            lease_extent = SESSION_LEASE;
            let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            // Allocate (and lease) ids 1..=3 but never log them.
            for s in 1..=3 {
                d.ensure_lease(s, ae).unwrap();
            }
        }
        let (_, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        // Restart resumes past the sealed lease, not at 1.
        assert!(rec.next_session >= lease_extent, "{}", rec.next_session);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_acknowledged_records_are_detected() {
        let dir = tmpdir("missing");
        let dep = Deployment::new(0xd2);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        {
            let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            for s in 1..=4 {
                d.append_usage("acme", &signed(s), ae).unwrap();
            }
            d.checkpoint(ae).unwrap();
        }
        // Delete the WAL wholesale: the sealed rollups now claim
        // usage the log cannot reproduce.
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            if entry.file_name().to_string_lossy().ends_with(".log") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        assert!(matches!(
            Durable::open(&dir, DurableOptions::default(), ae, pricing),
            Err(DurableError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settlements_match_replayed_invoices() {
        let dir = tmpdir("settle");
        let dep = Deployment::new(0xd3);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        let mut expected = 0u128;
        for s in 1..=7 {
            let tenant = if s % 2 == 0 { "even" } else { "odd" };
            expected += d.append_usage(tenant, &signed(s), ae).unwrap().total();
        }
        let settlements = d.settlements(ae).unwrap();
        assert_eq!(settlements.len(), 2);
        let total: u128 = settlements.iter().map(|s| s.statement.total_nano()).sum();
        assert_eq!(total, expected);
        for s in &settlements {
            s.verify(&dep.authority, ae.measurement())
                .expect("settlement verifies");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_usage_is_durable_when_it_returns() {
        let dir = tmpdir("append-durable");
        let dep = Deployment::new(0xd4);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        for s in 1..=3 {
            d.append_usage("acme", &signed(s), ae).unwrap();
            let covered = WalCommits {
                commits: s,
                records: s,
            };
            assert_eq!(d.wal_commits(), covered, "record {s} fsynced on return");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_never_hands_out_an_uncommitted_record() {
        let dir = tmpdir("lookup-commits");
        let dep = Deployment::new(0xd5);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        d.stage_usage("acme", &signed(1), ae).unwrap();
        assert_eq!(d.lookup(1).unwrap(), Some(signed(1)));
        let committed = WalCommits {
            commits: 1,
            records: 1,
        };
        assert_eq!(d.wal_commits(), committed, "the lookup committed first");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_syncs_staged_records_before_sealing() {
        let dir = tmpdir("staged-checkpoint");
        let image = tmpdir("staged-checkpoint-image");
        let dep = Deployment::new(0xd6);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        for s in 1..=3 {
            d.stage_usage("acme", &signed(s), ae).unwrap();
        }
        d.checkpoint(ae).unwrap();
        let synced = WalCommits {
            commits: 1,
            records: 3,
        };
        assert_eq!(d.wal_commits(), synced, "the seal waited for the WAL");
        d.commit().unwrap();
        assert_eq!(d.wal_commits(), synced, "nothing left to commit");
        copy_dir(&dir, &image);
        let (d2, rec) = Durable::open(&image, DurableOptions::default(), ae, pricing).unwrap();
        assert!(rec.snapshot_restored);
        assert_eq!(rec.records_replayed, 3);
        assert_eq!(d2.rollups()["acme"].requests, 3);
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&image).unwrap();
    }

    fn module(deploy_id: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (deploy_id as usize * 31 + i) as u8)
            .collect()
    }

    fn deploy(deploy_id: u64, len: usize) -> DeployRecord {
        DeployRecord {
            deploy_id,
            level: Level::FlowBased,
            module: module(deploy_id, len),
        }
    }

    /// The frame a deployment of a `len`-byte module adds to the log:
    /// frame header, nonce, `(id, level, module)`, tag.
    fn deploy_frame_len(len: usize) -> usize {
        framed::FRAME_HEADER + registry::NONCE_LEN + 8 + 1 + 4 + len + registry::TAG_LEN
    }

    /// The nonce of every intact frame in `dir`'s deploy log.
    fn logged_nonces(dir: &Path) -> Vec<Vec<u8>> {
        let mut nonces = Vec::new();
        framed::replay::<DurableError>(&dir.join(DEPLOY_LOG_FILE), registry::DEPLOY_LOG, |_, p| {
            nonces.push(p[..registry::NONCE_LEN].to_vec());
            Ok(())
        })
        .unwrap();
        nonces
    }

    fn copy_dir(src: &Path, dst: &Path) {
        let _ = std::fs::remove_dir_all(dst);
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap().filter_map(|e| e.ok()) {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// A state directory whose deploy log holds deploys 1..=3 after a
    /// checkpoint, plus the full log bytes and where frame 3 starts.
    fn three_deploys(
        tag: &str,
        ae: &AccountingEnclave,
        pricing: PricingModel,
    ) -> (PathBuf, Vec<u8>, usize) {
        let dir = tmpdir(tag);
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        d.record_deploy(1, Level::Naive, module(1, 10), ae).unwrap();
        d.checkpoint(ae).unwrap();
        for id in 2..=3 {
            let rec = deploy(id, 20);
            d.record_deploy(id, rec.level, rec.module, ae).unwrap();
        }
        drop(d);
        let full = std::fs::read(dir.join(DEPLOY_LOG_FILE)).unwrap();
        let last = full.len() - deploy_frame_len(20);
        (dir, full, last)
    }

    #[test]
    fn a_torn_deploy_frame_is_cut_at_every_offset() {
        let dep = Deployment::new(0xd5);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (pristine, full, last) = three_deploys("torn-deploy", ae, pricing);
        let dir = tmpdir("torn-deploy-cut");
        let acked = vec![
            DeployRecord {
                deploy_id: 1,
                level: Level::Naive,
                module: module(1, 10),
            },
            deploy(2, 20),
        ];
        for cut in last..full.len() {
            copy_dir(&pristine, &dir);
            std::fs::write(dir.join(DEPLOY_LOG_FILE), &full[..cut]).unwrap();
            let (_, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            assert_eq!(rec.deployments, acked, "cut at {cut}");
            assert_eq!(rec.next_deploy, 3, "cut at {cut}");
            assert_eq!(rec.deploy_torn_bytes_discarded, (cut - last) as u64);
            assert_eq!(
                std::fs::read(dir.join(DEPLOY_LOG_FILE)).unwrap(),
                full[..last],
                "cut at {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&pristine).unwrap();
    }

    #[test]
    fn a_reissued_deploy_id_never_reuses_a_torn_frames_nonce() {
        let dep = Deployment::new(0xd6);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (pristine, full, last) = three_deploys("nonce", ae, pricing);
        let torn_nonce = full[last + framed::FRAME_HEADER..][..registry::NONCE_LEN].to_vec();
        let dir = tmpdir("nonce-cut");
        for cut in last + 1..full.len() {
            copy_dir(&pristine, &dir);
            std::fs::write(dir.join(DEPLOY_LOG_FILE), &full[..cut]).unwrap();
            let (d, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            assert_eq!(rec.next_deploy, 3);
            // Id 3 is handed out again, with other bytes.
            d.record_deploy(3, Level::LoopBased, module(9, 20), ae)
                .unwrap();
            drop(d);
            let mut nonces = logged_nonces(&dir);
            assert_eq!(nonces.len(), 3);
            nonces.push(torn_nonce.clone());
            let distinct: HashSet<&Vec<u8>> = nonces.iter().collect();
            assert_eq!(distinct.len(), nonces.len(), "cut at {cut}");
            let (_, rec) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
            assert_eq!(rec.deployments[2].module, module(9, 20));
            assert_eq!(rec.deploy_torn_bytes_discarded, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&pristine).unwrap();
    }

    #[test]
    fn a_deploy_appends_one_frame_and_seals_no_snapshot() {
        let dir = tmpdir("flat");
        let dep = Deployment::new(0xd7);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        d.checkpoint(ae).unwrap();
        let snapshots = || -> BTreeMap<String, Vec<u8>> {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("registry-"))
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read(e.path()).unwrap())
                })
                .collect()
        };
        let log_len = || std::fs::metadata(dir.join(DEPLOY_LOG_FILE)).unwrap().len() as usize;
        let sealed = snapshots();
        assert_eq!(sealed.len(), 1);
        // Grow the registry; every deploy of a same-sized module adds
        // the same bytes, and no deploy touches a snapshot.
        for id in 1..=24 {
            let len = if id % 2 == 0 { 700 } else { 90 };
            let before = log_len();
            d.record_deploy(id, Level::LoopBased, module(id, len), ae)
                .unwrap();
            assert_eq!(log_len() - before, deploy_frame_len(len), "deploy {id}");
            assert_eq!(snapshots(), sealed, "deploy {id}");
        }
        assert!(matches!(
            d.record_deploy(5, Level::LoopBased, module(5, 90), ae),
            Err(DurableError::DuplicateDeploy(5))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_append_is_refused_at_the_facade() {
        let dir = tmpdir("dup");
        let dep = Deployment::new(0xd4);
        let ae = dep.infrastructure().accounting_enclave();
        let pricing = dep.infrastructure().pricing;
        let (d, _) = Durable::open(&dir, DurableOptions::default(), ae, pricing).unwrap();
        d.append_usage("acme", &signed(1), ae).unwrap();
        assert!(matches!(
            d.append_usage("acme", &signed(1), ae),
            Err(DurableError::DuplicateSession(1))
        ));
        // The refused append folded nothing.
        assert_eq!(d.rollups()["acme"].requests, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
