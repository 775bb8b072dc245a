//! Sealed deployment registry: the control-plane state that must
//! survive a crash, sealed with the accounting enclave's key. It lives
//! in two files of different shape.
//!
//! **The deploy log** (`deploys.log`, a [`crate::framed`] log with
//! magic `ADPL`) holds deployed module bytes, so workloads come back
//! without a re-deploy. Each deployment is one frame whose payload is
//! nonce ‖ ciphertext ‖ tag, the ciphertext sealing the canonical
//! `(deploy_id, level, module)` encoding. A deploy appends and fsyncs
//! one frame, under every fsync policy, before it is acknowledged, so
//! its cost is one seal of its own module however many are deployed.
//!
//! **The snapshot** (`registry-NNNNNNNN.seal`, one sealed blob) is a
//! checkpoint of what replaying the WAL cannot recover on its own: the
//! deploy-id high-water mark, the **session lease** (an upper bound on
//! every session id ever handed out, so restart never re-issues one —
//! even ids burned by requests that failed before logging), and the
//! billing rollups as an integrity cross-check against the replayed
//! log. Checkpoints seal no deployments; only a snapshot written before
//! the deploy log existed carries them, and opening such a directory
//! moves them onto the log.
//!
//! Sealing is a stream cipher, so **nonce reuse is catastrophic**. Each
//! snapshot file carries a monotonic sequence number and its nonce is
//! derived from that sequence alone; the store burns a sequence number
//! the moment a temp file exists on disk (a crashed save still consumed
//! its nonce). A deploy frame's nonce is derived from its deploy id and
//! the **epoch**, the snapshot sequence high-water mark when it was
//! appended. Ids are unique among intact frames, and the one frame that
//! can reach the disk without surviving replay is a torn tail, whose id
//! is handed out again; so a reopen that finds a torn tail seals a
//! checkpoint *before* cutting it, and every later frame is sealed
//! under a fresh epoch. The two nonce schedules hash distinct domain
//! strings, so a snapshot and a frame never share a nonce either.
//!
//! Saves are atomic: write `registry-NNNNNNNN.seal.tmp`, fsync,
//! rename into place, fsync the directory. The previous snapshot is
//! kept as a fallback until the next save. A snapshot or deploy frame
//! that fails to unseal was sealed by a *different* enclave (wrong seed
//! / foreign state directory) and is refused with a clean
//! [`DurableError::ForeignSnapshot`], never a panic.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use acctee::codec::{CodecError, Dec, Enc};
use acctee::AccountingEnclave;
use acctee_instrument::Level;
use acctee_sgx::crypto::sha256;
use acctee_sgx::seal::Sealed;

use crate::billing::TenantRollup;
use crate::framed::{self, sync_dir, FramedLog, HEADER_LEN};
use crate::record::MAX_FIELD;
use crate::DurableError;

/// Snapshot container and state version.
const SNAPSHOT_VERSION: u16 = 1;
/// Header opening every snapshot file: the framed logs' magic +
/// version convention, though a snapshot is one sealed blob, not a log.
const SNAPSHOT_HEADER: [u8; HEADER_LEN] = framed::header(*b"ASNP", SNAPSHOT_VERSION);
/// Upper bound on a deployed module (matches the wire protocol's
/// tolerance for module uploads).
const MAX_MODULE: u32 = 64 << 20;
/// The deploy log's file name in a state directory.
pub const DEPLOY_LOG_FILE: &str = "deploys.log";
/// Header opening the deploy log.
pub(crate) const DEPLOY_LOG: [u8; HEADER_LEN] = framed::header(*b"ADPL", 1);
/// Bytes of nonce and of tag around a deploy frame's ciphertext.
pub(crate) const NONCE_LEN: usize = 16;
pub(crate) const TAG_LEN: usize = 32;

/// One deployment as persisted: enough to re-instrument and reload
/// the workload after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployRecord {
    /// The id handed to the client at deploy time.
    pub deploy_id: u64,
    /// Instrumentation level the module was deployed with.
    pub level: Level,
    /// Original (uninstrumented) module bytes.
    pub module: Vec<u8>,
}

impl DeployRecord {
    /// The canonical encoding: an element of the snapshot's deployment
    /// list, and the plaintext of a deploy-log frame.
    fn put(&self, e: &mut Enc) {
        e.u64(self.deploy_id);
        e.u8(self.level.tag());
        e.bytes(&self.module);
    }

    fn take(d: &mut Dec) -> Result<DeployRecord, CodecError> {
        let (deploy_id, level, len) = (d.u64()?, d.level()?, d.u32()?);
        // Module bytes exceed the generic field bound.
        if len > MAX_MODULE {
            return Err(CodecError::FieldTooLong(len));
        }
        let module = d.take(len as usize)?.to_vec();
        Ok(DeployRecord {
            deploy_id,
            level,
            module,
        })
    }
}

/// The control-plane state inside a snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistryState {
    /// Next deploy id to hand out.
    pub next_deploy: u64,
    /// Strict upper bound on every session id handed out so far;
    /// restart resumes from here (or past the WAL's high-water mark,
    /// whichever is greater).
    pub session_lease: u64,
    /// Highest session id folded into `rollups` at seal time. Only
    /// records the WAL held *durably* at the preceding fsync are ever
    /// covered, so on restore the replayed rollups must dominate
    /// these.
    pub wal_watermark: u64,
    /// Deployments, by deploy id.
    pub deployments: Vec<DeployRecord>,
    /// Billing rollups at seal time (integrity cross-check).
    pub rollups: BTreeMap<String, TenantRollup>,
}

impl RegistryState {
    /// Serialises to the canonical plaintext that gets sealed.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u16(SNAPSHOT_VERSION);
        e.u64(self.next_deploy);
        e.u64(self.session_lease);
        e.u64(self.wal_watermark);
        e.list(&self.deployments, |e, d| d.put(e));
        e.u32(self.rollups.len() as u32);
        for (tenant, rollup) in &self.rollups {
            e.bytes(tenant.as_bytes());
            rollup.encode(&mut e);
        }
        e.0
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<RegistryState, DurableError> {
        let mut d = Dec::with_field_limit(buf, MAX_FIELD);
        let version = d.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(DurableError::Decode(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let next_deploy = d.u64()?;
        let session_lease = d.u64()?;
        let wal_watermark = d.u64()?;
        // id + level + module length
        let deployments = d.list(13, DeployRecord::take)?;
        // tenant name length + a rollup's 2 u64s and 7 u128s
        let rollups = d.list(4 + 128, |d| Ok((d.string()?, TenantRollup::decode(d)?)))?;
        // Canonical order: the encoder writes each tenant once, ascending.
        if rollups.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(DurableError::Decode("rollups out of order".into()));
        }
        d.finish()?;
        Ok(RegistryState {
            next_deploy,
            session_lease,
            wal_watermark,
            deployments,
            rollups: rollups.into_iter().collect(),
        })
    }
}

/// `sha256(domain ‖ each word, little-endian)[..16]`: a sealing nonce.
fn derive_nonce(domain: &[u8], words: &[u64]) -> [u8; NONCE_LEN] {
    let mut payload = domain.to_vec();
    for w in words {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    let digest = sha256(&payload);
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&digest[..NONCE_LEN]);
    nonce
}

/// Derives the sealing nonce for snapshot sequence `seq`: unique per
/// sequence, and sequences are never reused (see [`SnapshotStore`]).
fn snapshot_nonce(seq: u64) -> [u8; NONCE_LEN] {
    derive_nonce(b"acctee-registry-nonce-v1", &[seq])
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("registry-{seq:08}.seal"))
}

fn parse_snapshot_seq(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("registry-")?;
    let stem = stem
        .strip_suffix(".seal.tmp")
        .or_else(|| stem.strip_suffix(".seal"))?;
    stem.parse().ok()
}

/// Manages the sealed snapshot files in a state directory.
pub struct SnapshotStore {
    dir: PathBuf,
    /// Highest sequence number ever observed on disk — counting temp
    /// files from crashed saves, whose nonces are burned.
    last_seq: u64,
}

impl SnapshotStore {
    /// Opens the store, scanning for the sequence high-water mark and
    /// sweeping temp files from crashed saves (their sequence numbers
    /// stay burned so their nonces are never reused).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn open(dir: &Path) -> Result<SnapshotStore, DurableError> {
        std::fs::create_dir_all(dir)?;
        let mut last_seq = 0u64;
        let mut tmps = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(seq) = parse_snapshot_seq(&name) {
                last_seq = last_seq.max(seq);
                if name.ends_with(".tmp") {
                    tmps.push(entry.path());
                }
            }
        }
        for tmp in tmps {
            let _ = std::fs::remove_file(tmp);
        }
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            last_seq,
        })
    }

    /// Loads the newest snapshot, if any.
    ///
    /// # Errors
    ///
    /// [`DurableError::ForeignSnapshot`] when the newest snapshot was
    /// sealed by a different enclave (wrong seed for this state
    /// directory); [`DurableError::Corrupt`] on a malformed container;
    /// I/O errors.
    pub fn load(&self, ae: &AccountingEnclave) -> Result<Option<RegistryState>, DurableError> {
        let mut seqs: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.ends_with(".seal") {
                    parse_snapshot_seq(&name)
                } else {
                    None
                }
            })
            .collect();
        seqs.sort_unstable();
        let Some(&seq) = seqs.last() else {
            return Ok(None);
        };
        let path = snapshot_path(&self.dir, seq);
        let bytes = std::fs::read(&path)?;
        let mut d = Dec::new(&bytes);
        if d.take(HEADER_LEN)? != SNAPSHOT_HEADER {
            return Err(DurableError::Corrupt(format!(
                "{}: bad snapshot container",
                path.display()
            )));
        }
        let nonce = d.array()?;
        let ciphertext = d.bytes()?.to_vec();
        let tag = d.array()?;
        d.finish()
            .map_err(|_| DurableError::Corrupt(format!("{}: trailing bytes", path.display())))?;
        if nonce != snapshot_nonce(seq) {
            return Err(DurableError::Corrupt(format!(
                "{}: nonce does not match its sequence number",
                path.display()
            )));
        }
        let sealed = acctee_sgx::seal::Sealed {
            nonce,
            ciphertext,
            tag,
        };
        let Some(plain) = ae.unseal_state(&sealed) else {
            return Err(DurableError::ForeignSnapshot(format!(
                "{}: sealed by a different enclave — this state directory \
                 belongs to another deployment seed",
                path.display()
            )));
        };
        Ok(Some(RegistryState::decode(&plain)?))
    }

    /// Seals and atomically persists `state` as the next snapshot,
    /// pruning all but the immediate predecessor.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn save(
        &mut self,
        ae: &AccountingEnclave,
        state: &RegistryState,
    ) -> Result<(), DurableError> {
        // Burn the sequence number *before* sealing: if the save
        // crashes after the temp file exists, open() will still see
        // the sequence and never reuse its nonce.
        self.last_seq += 1;
        let seq = self.last_seq;
        let sealed = ae.seal_state(snapshot_nonce(seq), &state.encode());
        let mut e = Enc::default();
        e.raw(&SNAPSHOT_HEADER);
        e.raw(&sealed.nonce);
        e.bytes(&sealed.ciphertext);
        e.raw(&sealed.tag);

        let final_path = snapshot_path(&self.dir, seq);
        let tmp_path = self.dir.join(format!("registry-{seq:08}.seal.tmp"));
        let mut f = File::create(&tmp_path)?;
        f.write_all(&e.0)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir);

        // Keep seq and its predecessor; prune older snapshots.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(s) = parse_snapshot_seq(&name) {
                    if name.ends_with(".seal") && s + 1 < seq {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// Highest sequence number observed or written.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

/// Derives the sealing nonce of the deploy-log frame for `deploy_id`
/// appended in `epoch` (the snapshot sequence high-water mark at the
/// time). Unique per frame: ids are unique within an epoch, and a
/// reopen that cuts a torn frame first burns a fresh epoch, so the
/// torn frame's id, handed out again, is sealed under a new nonce.
fn deploy_nonce(epoch: u64, deploy_id: u64) -> [u8; NONCE_LEN] {
    derive_nonce(b"acctee-deploy-nonce-v1", &[epoch, deploy_id])
}

/// Unseals one deploy-log frame payload: nonce ‖ ciphertext ‖ tag.
fn open_deploy_frame(
    ae: &AccountingEnclave,
    path: &Path,
    payload: &[u8],
) -> Result<DeployRecord, DurableError> {
    if payload.len() < NONCE_LEN + TAG_LEN {
        return Err(DurableError::Corrupt(format!(
            "{}: deploy frame shorter than its seal",
            path.display()
        )));
    }
    let (nonce, rest) = payload.split_at(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
    let sealed = Sealed {
        nonce: nonce.try_into().expect("nonce length"),
        ciphertext: ciphertext.to_vec(),
        tag: tag.try_into().expect("tag length"),
    };
    let Some(plain) = ae.unseal_state(&sealed) else {
        return Err(DurableError::ForeignSnapshot(format!(
            "{}: deployment sealed by a different enclave — this state \
             directory belongs to another deployment seed",
            path.display()
        )));
    };
    let mut d = Dec::with_field_limit(&plain, MAX_FIELD);
    let rec = DeployRecord::take(&mut d)?;
    d.finish()?;
    Ok(rec)
}

/// What [`DeployLog::scan`] found, before anything is cut.
pub(crate) struct DeployScan {
    /// Intact deployments in log order, the first frame of each id.
    pub(crate) records: Vec<DeployRecord>,
    /// File length and where its intact frames end; `None` when the
    /// file does not exist yet.
    extent: Option<(usize, usize)>,
}

impl DeployScan {
    /// Bytes past the intact frames: the torn tail a resume cuts.
    pub(crate) fn torn_bytes(&self) -> u64 {
        self.extent.map_or(0, |(len, end)| (len - end) as u64)
    }
}

/// The deploy log: one sealed frame per deployment, appended and
/// fsynced before the deploy is acknowledged.
pub(crate) struct DeployLog {
    log: FramedLog,
    /// Every deploy id with a frame in the file.
    ids: HashSet<u64>,
}

impl DeployLog {
    /// Reads and unseals every intact frame of `dir`'s deploy log
    /// without writing anything.
    ///
    /// # Errors
    ///
    /// [`DurableError::ForeignSnapshot`] for a frame sealed by another
    /// enclave; [`DurableError::Corrupt`] for a foreign header or a
    /// frame that cannot be a seal; I/O errors.
    pub(crate) fn scan(dir: &Path, ae: &AccountingEnclave) -> Result<DeployScan, DurableError> {
        let path = dir.join(DEPLOY_LOG_FILE);
        if !path.exists() {
            return Ok(DeployScan {
                records: Vec::new(),
                extent: None,
            });
        }
        let mut records = Vec::new();
        let mut ids = HashSet::new();
        let extent = framed::replay(&path, DEPLOY_LOG, |_, payload| {
            let rec = open_deploy_frame(ae, &path, payload)?;
            if ids.insert(rec.deploy_id) {
                records.push(rec);
            }
            Ok::<_, DurableError>(())
        })?;
        Ok(DeployScan {
            records,
            extent: Some(extent),
        })
    }

    /// Opens the log `scan` read for appending, creating it when
    /// absent and cutting its torn tail otherwise.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub(crate) fn resume(dir: &Path, scan: &DeployScan) -> Result<DeployLog, DurableError> {
        let path = dir.join(DEPLOY_LOG_FILE);
        let log = match scan.extent {
            Some((len, end)) => FramedLog::resume(&path, DEPLOY_LOG, len, end)?.0,
            None => FramedLog::create(&path, DEPLOY_LOG)?,
        };
        let ids = scan.records.iter().map(|d| d.deploy_id).collect();
        Ok(DeployLog { log, ids })
    }

    /// Seals `rec` under `epoch` — the snapshot sequence high-water
    /// mark — appends it as one frame and fsyncs it.
    ///
    /// # Errors
    ///
    /// [`DurableError::DuplicateDeploy`] for an id already logged (its
    /// nonce is spent); I/O errors, after which the log refuses every
    /// append until it is reopened.
    pub(crate) fn append(
        &mut self,
        ae: &AccountingEnclave,
        epoch: u64,
        rec: &DeployRecord,
    ) -> Result<(), DurableError> {
        if self.ids.contains(&rec.deploy_id) {
            return Err(DurableError::DuplicateDeploy(rec.deploy_id));
        }
        let mut plain = Enc::default();
        rec.put(&mut plain);
        let sealed = ae.seal_state(deploy_nonce(epoch, rec.deploy_id), &plain.0);
        self.log.append(&framed::frame(|e| {
            e.raw(&sealed.nonce);
            e.raw(&sealed.ciphertext);
            e.raw(&sealed.tag);
        }))?;
        self.log.sync()?;
        self.ids.insert(rec.deploy_id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::Deployment;

    fn state() -> RegistryState {
        let mut rollups = BTreeMap::new();
        rollups.insert(
            "acme".to_string(),
            TenantRollup {
                requests: 3,
                weighted_instructions: 1 << 40,
                peak_memory_max: 65_536,
                memory_integral: (1 << 50) + 9,
                io_bytes: 123,
                compute_nano: 4,
                memory_nano: 5,
                io_nano: 6,
                integral_remainder: 7,
            },
        );
        RegistryState {
            next_deploy: 4,
            session_lease: 4096,
            wal_watermark: 17,
            deployments: vec![DeployRecord {
                deploy_id: 1,
                level: Level::LoopBased,
                module: b"\0asm fake module".to_vec(),
            }],
            rollups,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-reg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_codec_round_trips() {
        let s = state();
        assert_eq!(RegistryState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn every_level_round_trips() {
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let mut s = state();
            s.deployments[0].level = level;
            assert_eq!(RegistryState::decode(&s.encode()).unwrap(), s);
        }
        let mut bytes = state().encode();
        // version, three u64s, the deployment count, then its id.
        let level_at = 2 + 3 * 8 + 4 + 8;
        bytes[level_at] = 9;
        assert!(RegistryState::decode(&bytes).is_err());
    }

    #[test]
    fn state_decoding_is_total() {
        let mut s = state();
        s.rollups.insert("zeta".into(), TenantRollup::default());
        acctee::codec::check_total(&s.encode(), RegistryState::decode, RegistryState::encode);
    }

    #[test]
    fn save_load_round_trips_through_sealing() {
        let dir = tmpdir("roundtrip");
        let dep = Deployment::new(0x5ea1);
        let ae = dep.infrastructure().accounting_enclave();
        let mut store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load(ae).unwrap().is_none());
        store.save(ae, &state()).unwrap();
        let back = store.load(ae).unwrap().expect("snapshot present");
        assert_eq!(back, state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_snapshot_wins_and_older_are_pruned() {
        let dir = tmpdir("newest");
        let dep = Deployment::new(0x5ea1);
        let ae = dep.infrastructure().accounting_enclave();
        let mut store = SnapshotStore::open(&dir).unwrap();
        for lease in [100u64, 200, 300, 400] {
            store
                .save(
                    ae,
                    &RegistryState {
                        session_lease: lease,
                        ..RegistryState::default()
                    },
                )
                .unwrap();
        }
        let back = store.load(ae).unwrap().unwrap();
        assert_eq!(back.session_lease, 400);
        // Only the newest and its predecessor remain.
        let remaining: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(remaining.len(), 2, "{remaining:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_save_burns_its_nonce() {
        let dir = tmpdir("burned");
        let dep = Deployment::new(0x5ea1);
        let ae = dep.infrastructure().accounting_enclave();
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.save(ae, &state()).unwrap();
        }
        // Simulate a crash mid-save: a temp file for sequence 2 exists
        // but was never renamed.
        std::fs::write(dir.join("registry-00000002.seal.tmp"), b"garbage").unwrap();
        let mut store = SnapshotStore::open(&dir).unwrap();
        // The temp file is swept, but its sequence number stays
        // burned: the next save uses sequence 3, never reusing the
        // nonce that sealed the crashed attempt.
        assert_eq!(store.last_seq(), 2);
        store.save(ae, &state()).unwrap();
        assert!(snapshot_path(&dir, 3).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_snapshot_is_refused_cleanly() {
        let dir = tmpdir("foreign");
        let dep = Deployment::new(0x5ea1);
        let ae = dep.infrastructure().accounting_enclave();
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(ae, &state()).unwrap();
        // A different seed derives a different sealing key.
        let other = Deployment::new(0xf0e1);
        let other_ae = other.infrastructure().accounting_enclave();
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(matches!(
            store.load(other_ae),
            Err(DurableError::ForeignSnapshot(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_nonces_are_distinct_per_sequence() {
        let mut seen = std::collections::HashSet::new();
        for seq in 0..1000 {
            assert!(seen.insert(snapshot_nonce(seq)));
        }
    }
}
