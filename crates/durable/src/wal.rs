//! Write-ahead log for signed usage records, on the framed log file
//! of [`crate::framed`] (frame format and torn-tail rule there).
//!
//! On-disk layout: a directory of segment files `wal-NNNNNNNN.log`
//! (monotonic sequence numbers, `AWAL` magic), each frame payload one
//! canonical [`UsageRecord`]. Appends go to the highest-numbered
//! segment; once it exceeds the configured size a new segment is
//! started (rotation). Only the final segment is appended to, so only
//! its tail can be torn; a bad frame in any earlier segment is
//! acknowledged data lost, and replay refuses with
//! [`DurableError::Corrupt`] rather than billing from a log known to be
//! incomplete. A **duplicate session id** (e.g. a frame doubled by a
//! crashed compaction) is dropped exactly-once: the first copy wins,
//! later copies are counted in [`WalReplay::duplicates_dropped`] and
//! never re-indexed or re-folded.
//!
//! Compaction rewrites all sealed (non-active) segments into one
//! segment containing each unique record once — it reclaims the space
//! of duplicated frames and merges rotation leftovers, but never drops
//! a unique record, so a full replay after compaction recovers exactly
//! the same accounting state.
//!
//! Durability is governed by [`FsyncPolicy`]. Under `Always` an append
//! is durable once [`Wal::commit`] returns, and the caller commits
//! before acknowledging (an acknowledged request survives `kill -9`);
//! one commit covers every record appended before it, so a batch of
//! appends shares one fsync (group commit). `Never` trades a tail-loss
//! window for throughput and ignores `commit` — a checkpoint still
//! fsyncs before sealing, so sealed rollups never claim a record the
//! disk does not hold.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::framed::{self, sync_dir, FramedLog, HEADER_LEN};
use crate::record::{decode_record, put_record, UsageRecord};
use crate::DurableError;

/// Segment file header.
const SEGMENT: [u8; HEADER_LEN] = framed::header(*b"AWAL", 1);
/// Bytes of segment header.
const SEGMENT_HEADER: u64 = HEADER_LEN as u64;

/// When to fsync appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync every append before acknowledging it (no acknowledged
    /// record is ever lost to a crash); appends acknowledged together
    /// share one fsync ([`Wal::commit`]).
    #[default]
    Always,
    /// Never fsync on append (checkpoints still fsync).
    Never,
}

impl FsyncPolicy {
    /// Parses a `--fsync` flag value: `always` or `never`/`none`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" | "none" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    /// Stable display name.
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

// ----------------------------------------------------------- segments

/// Where a record's frame lives (for point lookups from disk).
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg: u64,
    /// Offset of the frame header within the segment file.
    offset: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------- wal

/// What replay recovered (and tolerated) from the on-disk log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Unique records, in on-disk order.
    pub records: Vec<UsageRecord>,
    /// Frames dropped because their session id was already replayed.
    pub duplicates_dropped: usize,
    /// Bytes of torn tail truncated from the final segment.
    pub torn_bytes_discarded: u64,
}

/// The WAL fsyncs that made usage records durable, and how many
/// records they covered: under group commit, fewer fsyncs than records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCommits {
    /// fsyncs that covered at least one record.
    pub commits: u64,
    /// Records those fsyncs covered.
    pub records: u64,
}

/// The append side of the write-ahead log plus its in-memory index.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    active: FramedLog,
    active_seq: u64,
    /// Sequence numbers of every segment, the active one last.
    segments: Vec<u64>,
    index: HashMap<u64, RecordLoc>,
    /// Records appended since the last sync.
    unsynced: u64,
    commits: WalCommits,
    max_session: u64,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir` and replays it.
    /// `segment_bytes` is the rotation threshold.
    ///
    /// # Errors
    ///
    /// I/O errors; [`DurableError::Corrupt`] when acknowledged data is
    /// missing (bad frame anywhere but the final segment's tail).
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<(Wal, WalReplay), DurableError> {
        std::fs::create_dir_all(dir)?;
        let mut seqs: Vec<u64> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_seq(&e.file_name().to_string_lossy()))
            .collect();
        seqs.sort_unstable();
        if seqs.is_empty() {
            seqs.push(1); // fresh logs start at segment 1
        }
        let active_seq = *seqs.last().expect("at least one segment");

        let mut replay = WalReplay::default();
        let mut index = HashMap::new();
        let mut max_session = 0;
        let mut visit = |seg: u64, offset: u64, payload: &[u8]| -> Result<(), DurableError> {
            // CRC-valid payloads must decode: a failure here means the
            // writer and reader disagree, which no amount of replay
            // can paper over.
            let rec = decode_record(payload)?;
            let session = rec.signed.log.session_id;
            match index.entry(session) {
                Entry::Vacant(slot) => {
                    slot.insert(RecordLoc { seg, offset });
                    max_session = max_session.max(session);
                    replay.records.push(rec);
                }
                Entry::Occupied(_) => replay.duplicates_dropped += 1,
            }
            Ok(())
        };
        for &seq in &seqs[..seqs.len() - 1] {
            let path = segment_path(dir, seq);
            // Only the active segment is appended to, so only it can
            // be torn: a sealed segment must replay whole.
            let (len, end) = framed::replay(&path, SEGMENT, |off, p| visit(seq, off, p))?;
            if end != len || end == 0 {
                return Err(DurableError::Corrupt(format!(
                    "{}: bad frame in a sealed segment",
                    path.display()
                )));
            }
        }
        let path = segment_path(dir, active_seq);
        let (active, torn) = FramedLog::open(&path, SEGMENT, |off, p| visit(active_seq, off, p))?;
        replay.torn_bytes_discarded = torn;

        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(SEGMENT_HEADER + framed::FRAME_HEADER as u64),
            active,
            active_seq,
            segments: seqs,
            index,
            unsynced: 0,
            commits: WalCommits::default(),
            max_session,
        };
        Ok((wal, replay))
    }

    /// Appends one record, rotating per size. Under `Always` the record
    /// is durable once [`Wal::commit`] returns.
    ///
    /// # Errors
    ///
    /// [`DurableError::DuplicateSession`] if a record with this
    /// session id is already in the log (session ids are never
    /// reissued, so a second append is always a bug); I/O errors.
    pub fn append(&mut self, rec: &UsageRecord) -> Result<(), DurableError> {
        let session = rec.signed.log.session_id;
        if self.index.contains_key(&session) {
            return Err(DurableError::DuplicateSession(session));
        }
        let frame = framed::frame(|e| put_record(e, rec));
        let size = self.active.len();
        if size > SEGMENT_HEADER && size + frame.len() as u64 > self.segment_bytes {
            self.rotate()?;
        }
        let offset = self.active.append(&frame)?;
        self.index.insert(
            session,
            RecordLoc {
                seg: self.active_seq,
                offset,
            },
        );
        self.max_session = self.max_session.max(session);
        self.unsynced += 1;
        Ok(())
    }

    /// Makes every record appended so far durable under `Always` (one
    /// fsync, or none when nothing is pending); `Never` leaves the
    /// tail to rotation and checkpoints.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync.
    pub fn commit(&mut self) -> Result<(), DurableError> {
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Seals the active segment and starts the next one.
    fn rotate(&mut self) -> Result<(), DurableError> {
        self.sync()?;
        let seq = self.active_seq + 1;
        self.active = FramedLog::create(&segment_path(&self.dir, seq), SEGMENT)?;
        self.active_seq = seq;
        self.segments.push(seq);
        Ok(())
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.active.sync()?;
        if self.unsynced > 0 {
            self.commits.commits += 1;
            self.commits.records += self.unsynced;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// The fsyncs that made records durable since open, and the records
    /// they covered.
    pub fn commits(&self) -> WalCommits {
        self.commits
    }

    /// The highest session id in the log (0 when empty).
    pub fn max_session(&self) -> u64 {
        self.max_session
    }

    /// Number of unique records indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Reads one record back from disk by session id, re-checking its
    /// CRC (the disk may have rotted since replay).
    ///
    /// # Errors
    ///
    /// I/O errors; [`DurableError::Corrupt`] when the stored frame no
    /// longer checks out.
    pub fn get(&self, session_id: u64) -> Result<Option<UsageRecord>, DurableError> {
        self.index
            .get(&session_id)
            .map(|l| self.read(*l))
            .transpose()
    }

    /// Re-reads every unique record from disk, in segment order (the
    /// offline `replay`/`settle` path).
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from [`Wal::get`].
    pub fn read_all(&self) -> Result<Vec<UsageRecord>, DurableError> {
        self.records_on_disk(|_| true)
            .map(|r| r.map(|(_, rec)| rec))
            .collect()
    }

    /// The unique records in segments `keep` selects, re-read from disk
    /// in on-disk order, with their session ids.
    fn records_on_disk(
        &self,
        keep: impl Fn(u64) -> bool,
    ) -> impl Iterator<Item = Result<(u64, UsageRecord), DurableError>> + '_ {
        let mut locs: Vec<(u64, RecordLoc)> = self
            .index
            .iter()
            .filter(|(_, l)| keep(l.seg))
            .map(|(s, l)| (*s, *l))
            .collect();
        locs.sort_by_key(|(_, l)| (l.seg, l.offset));
        locs.into_iter()
            .map(|(session, loc)| Ok((session, self.read(loc)?)))
    }

    fn read(&self, loc: RecordLoc) -> Result<UsageRecord, DurableError> {
        let payload = framed::read_frame(&segment_path(&self.dir, loc.seg), loc.offset)?;
        decode_record(&payload)
    }

    /// Compacts all sealed segments into one: each unique record is
    /// rewritten exactly once (duplicated frames and rotation slack
    /// are reclaimed), the active segment is untouched. Returns the
    /// number of segment files removed.
    ///
    /// Crash-safe: the merged segment is written to a temp file,
    /// fsynced, renamed over the lowest sealed segment, and only then
    /// are the other sealed files deleted — a crash at any point
    /// leaves every unique record present at least once, and replay's
    /// duplicate-drop makes "at least once" into exactly-once.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors while rewriting.
    pub fn compact(&mut self) -> Result<usize, DurableError> {
        if self.segments.len() <= 1 {
            return Ok(0);
        }
        let sealed = self.segments[..self.segments.len() - 1].to_vec();
        let target_seq = sealed[0];
        let tmp = self.dir.join(format!("wal-{target_seq:08}.log.tmp"));
        // A crashed compaction may have left its temp file behind.
        let _ = std::fs::remove_file(&tmp);
        let mut out = FramedLog::create(&tmp, SEGMENT)?;
        let mut new_locs = Vec::new();
        for rec in self.records_on_disk(|seg| seg != self.active_seq) {
            let (session, rec) = rec?;
            let offset = out.append(&framed::frame(|e| put_record(e, &rec)))?;
            let seg = target_seq;
            new_locs.push((session, RecordLoc { seg, offset }));
        }
        out.sync()?;
        drop(out);
        std::fs::rename(&tmp, segment_path(&self.dir, target_seq))?;
        sync_dir(&self.dir);
        let mut removed = 0;
        for &seq in &sealed[1..] {
            std::fs::remove_file(segment_path(&self.dir, seq))?;
            removed += 1;
        }
        sync_dir(&self.dir);
        for (session, loc) in new_locs {
            self.index.insert(session, loc);
        }
        self.segments = vec![target_seq, self.active_seq];
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::crc32;
    use acctee::{ResourceUsageLog, SignedLog};
    use acctee_sgx::crypto::sha256;
    use acctee_sgx::{Measurement, Quote};

    fn rec(session: u64) -> UsageRecord {
        UsageRecord {
            tenant: format!("tenant-{}", session % 3),
            signed: SignedLog {
                log: ResourceUsageLog {
                    weighted_instructions: session * 10,
                    peak_memory_bytes: 65_536,
                    memory_integral: u128::from(session) << 19,
                    io_bytes_in: 1,
                    io_bytes_out: 2,
                    module_hash: sha256(b"m"),
                    session_id: session,
                },
                quote: Quote {
                    mrenclave: Measurement(sha256(b"ae")),
                    report_data: [7u8; 64],
                    platform: "ae-host".into(),
                    signature: sha256(b"sig"),
                },
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            for s in 1..=5 {
                wal.append(&rec(s)).unwrap();
            }
        }
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.duplicates_dropped, 0);
        assert_eq!(replay.torn_bytes_discarded, 0);
        let sessions: Vec<u64> = replay
            .records
            .iter()
            .map(|r| r.signed.log.session_id)
            .collect();
        assert_eq!(sessions, vec![1, 2, 3, 4, 5]);
        assert_eq!(wal.max_session(), 5);
        assert_eq!(wal.get(3).unwrap().unwrap(), rec(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_append_is_refused() {
        let dir = tmpdir("dup-append");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        wal.append(&rec(9)).unwrap();
        assert!(matches!(
            wal.append(&rec(9)),
            Err(DurableError::DuplicateSession(9))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        // Simulate a kill -9 mid-append by cutting the final segment
        // at every byte boundary inside the last frame: replay must
        // recover the first two records and drop the torn third.
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            for s in 1..=3 {
                wal.append(&rec(s)).unwrap();
            }
        }
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let loc2_end = {
            let (wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            wal.index[&3].offset as usize
        };
        for cut in loc2_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, replay) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            assert_eq!(replay.records.len(), 2, "cut at {cut}");
            assert_eq!(replay.torn_bytes_discarded, (cut - loc2_end) as u64);
            assert_eq!(wal.max_session(), 2);
            // The tail was truncated, so appending resumes cleanly.
            drop(wal);
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            wal.append(&rec(3)).unwrap();
            assert_eq!(wal.get(3).unwrap().unwrap(), rec(3));
            std::fs::write(&path, &full).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_refused() {
        let dir = tmpdir("sealed-corrupt");
        {
            // Tiny segments force rotation: 3 records → ≥2 segments.
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 200).unwrap();
            for s in 1..=3 {
                wal.append(&rec(s)).unwrap();
            }
            assert!(wal.segment_count() >= 2);
        }
        // Flip a payload byte in the first (sealed) segment.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, FsyncPolicy::Always, 200),
            Err(DurableError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_frames_are_dropped_exactly_once_on_replay() {
        let dir = tmpdir("dup-replay");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.append(&rec(2)).unwrap();
        }
        // Double the whole frame region (as a crashed compaction
        // might): sessions 1 and 2 each appear twice on disk.
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[SEGMENT_HEADER as usize..]);
        std::fs::write(&path, &doubled).unwrap();
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.duplicates_dropped, 2);
        assert_eq!(wal.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_compaction_preserve_every_unique_record() {
        let dir = tmpdir("compact");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never, 200).unwrap();
        for s in 1..=10 {
            wal.append(&rec(s)).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        assert!(before > 2, "rotation never happened");
        let removed = wal.compact().unwrap();
        assert_eq!(removed, before - 2);
        assert_eq!(wal.segment_count(), 2);
        // Every record still readable through the rebuilt index...
        for s in 1..=10 {
            assert_eq!(wal.get(s).unwrap().unwrap(), rec(s));
        }
        // ...and still replayable from disk alone.
        drop(wal);
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Never, 200).unwrap();
        assert_eq!(replay.records.len(), 10);
        assert_eq!(wal.max_session(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn never_policy_leaves_records_to_an_explicit_sync() {
        let dir = tmpdir("never");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        for s in 1..=7 {
            wal.append(&rec(s)).unwrap();
        }
        // `commit` is a no-op under `Never`: all 7 stay pending.
        wal.commit().unwrap();
        assert_eq!(wal.unsynced, 7);
        assert_eq!(wal.commits(), WalCommits::default());
        // A sync (rotation, checkpoint) covers them in one commit.
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
        assert_eq!(
            wal.commits(),
            WalCommits {
                commits: 1,
                records: 7
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_appends_share_one_commit() {
        let dir = tmpdir("group");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
        for s in 1..=8 {
            wal.append(&rec(s)).unwrap();
        }
        assert_eq!(
            wal.commits(),
            WalCommits::default(),
            "appends alone never fsync"
        );
        wal.commit().unwrap();
        wal.commit().unwrap();
        let one = WalCommits {
            commits: 1,
            records: 8,
        };
        assert_eq!(
            wal.commits(),
            one,
            "a second commit with nothing new is free"
        );
        drop(wal);
        let (_, replay) = Wal::open(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(replay.records.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("none"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=16"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Always.name(), "always");
        assert_eq!(FsyncPolicy::Never.name(), "never");
    }
}
