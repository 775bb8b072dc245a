//! The coordinator's durable job queue: one append-only file,
//! `fleet.log`, on the framed log of `acctee_durable::framed` (magic
//! `AFLJ`; frame format and torn-tail rule are defined there). Each
//! frame payload is one campaign-changing event, `u8 kind + body`:
//!
//! | kind | event | body |
//! |------|-------|------|
//! | 1 | unit added | unit id, workload tag, count, seed, deadline-ms |
//! | 2 | check scheduled | unit id (one extra execution required) |
//! | 3 | verified submission | unit id, worker, first result, canonical [`UsageRecord`] |
//! | 4 | unit done | unit id, credited session ids |
//! | 5 | node quarantined | worker, reason |
//! | 6 | session lease | high watermark |
//!
//! Appending an event does not fsync; [`Journal::commit`] does, once
//! for everything appended since the last commit (group commit, as on
//! the usage WAL). The coordinator commits once per request, after
//! handling it and before its response leaves, and once at the end of
//! [`crate::Coordinator::open`]: no acknowledgement leaves before the
//! fsync that covers its event, so an acknowledged submission is on
//! disk by construction. A failed commit poisons the journal (the
//! framed log's rule), and every later commit is refused until the
//! journal is reopened. Duplicate submissions (same session id) and
//! duplicate unit-done frames are dropped first-wins and counted, so a
//! doubled frame can never double-credit a unit.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use acctee::codec::{Dec, Enc};
use acctee_durable::framed::{self, FramedLog, HEADER_LEN};
use acctee_durable::{decode_record, encode_record, UsageRecord};

use crate::unit::{UnitSpec, WorkloadKind};
use crate::FleetError;

/// Journal file header.
const JOURNAL: [u8; HEADER_LEN] = framed::header(*b"AFLJ", 1);

const EV_UNIT_ADDED: u8 = 1;
const EV_CHECK_SCHEDULED: u8 = 2;
const EV_SUBMISSION: u8 = 3;
const EV_UNIT_DONE: u8 = 4;
const EV_QUARANTINE: u8 = 5;
const EV_SESSION_LEASE: u8 = 6;

// ----------------------------------------------------------- replay

/// One verified, journaled submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSubmission {
    /// The node that executed it.
    pub worker: String,
    /// First returned value (what redundancy compares, alongside the
    /// signed counters inside the record).
    pub result: i64,
    /// The worker enclave's signed usage record (tenant = worker).
    pub record: UsageRecord,
}

/// A unit's replayed state.
#[derive(Debug, Clone)]
pub struct JournalUnit {
    /// The rebuildable spec.
    pub spec: UnitSpec,
    /// Per-unit execution budget (milliseconds).
    pub deadline_ms: u64,
    /// Extra executions scheduled (spot checks + tie-breaks): the unit
    /// needs `1 + checks` verified executions to complete.
    pub checks: u32,
    /// Verified submissions, in journal order.
    pub submissions: Vec<JournalSubmission>,
    /// Credited session ids once complete.
    pub done: Option<Vec<u64>>,
}

impl JournalUnit {
    /// Executions this unit requires in total.
    pub fn needed(&self) -> u32 {
        1 + self.checks
    }
}

/// Everything replay recovered (and tolerated) from the journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Units in creation order.
    pub units: Vec<JournalUnit>,
    /// Quarantined node names with reasons.
    pub quarantined: HashMap<String, String>,
    /// Session-id lease high watermark (0 when none leased).
    pub session_floor: u64,
    /// Bytes of torn tail truncated.
    pub torn_bytes_discarded: u64,
    /// Duplicate submission frames dropped (same session id).
    pub duplicate_submissions_dropped: u64,
    /// Duplicate unit-done frames dropped (first wins) — the
    /// double-credit audit: any resumption bug that completed a unit
    /// twice shows up here as a nonzero count.
    pub duplicate_done_dropped: u64,
}

impl JournalReplay {
    /// The `(worker, record)` pairs actually credited: for every
    /// completed unit, the submissions whose session ids the unit-done
    /// event names. This is the reconciliation input and the audit
    /// surface — each session id appears at most once by construction.
    pub fn credited_pairs(&self) -> Vec<(String, UsageRecord)> {
        self.units
            .iter()
            .flat_map(|u| credited(&u.submissions, u.done.as_deref()))
            .map(|sub| (sub.worker.clone(), sub.record.clone()))
            .collect()
    }
}

/// The submissions a unit's credited session ids (its unit-done event)
/// name, in that order; none while the unit is not done.
pub(crate) fn credited<'a>(
    subs: &'a [JournalSubmission],
    done: Option<&'a [u64]>,
) -> impl Iterator<Item = &'a JournalSubmission> {
    let sessions = done.unwrap_or_default().iter();
    sessions.filter_map(move |s| {
        subs.iter()
            .find(|sub| sub.record.signed.log.session_id == *s)
    })
}

// ------------------------------------------------------------ events

/// One journaled event, as one frame payload.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    UnitAdded {
        spec: UnitSpec,
        deadline_ms: u64,
    },
    CheckScheduled {
        unit: u64,
    },
    Submission {
        unit: u64,
        sub: Box<JournalSubmission>,
    },
    UnitDone {
        unit: u64,
        sessions: Vec<u64>,
    },
    Quarantine {
        worker: String,
        reason: String,
    },
    SessionLease {
        upto: u64,
    },
}

impl Event {
    fn encode(&self, e: &mut Enc) {
        match self {
            Event::UnitAdded { spec, deadline_ms } => {
                e.u8(EV_UNIT_ADDED);
                e.u64(spec.id);
                e.u8(spec.kind.tag());
                e.u32(spec.count);
                e.u64(spec.seed);
                e.u64(*deadline_ms);
            }
            Event::CheckScheduled { unit } => {
                e.u8(EV_CHECK_SCHEDULED);
                e.u64(*unit);
            }
            Event::Submission { unit, sub } => {
                e.u8(EV_SUBMISSION);
                e.u64(*unit);
                e.bytes(sub.worker.as_bytes());
                e.u64(sub.result as u64);
                e.bytes(&encode_record(&sub.record));
            }
            Event::UnitDone { unit, sessions } => {
                e.u8(EV_UNIT_DONE);
                e.u64(*unit);
                e.list(sessions, |e, s| e.u64(*s));
            }
            Event::Quarantine { worker, reason } => {
                e.u8(EV_QUARANTINE);
                e.bytes(worker.as_bytes());
                e.bytes(reason.as_bytes());
            }
            Event::SessionLease { upto } => {
                e.u8(EV_SESSION_LEASE);
                e.u64(*upto);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Event, FleetError> {
        let mut d = Dec::new(payload);
        let event = match d.u8()? {
            EV_UNIT_ADDED => {
                let id = d.u64()?;
                let tag = d.u8()?;
                let kind = WorkloadKind::from_tag(tag)
                    .ok_or_else(|| FleetError::Corrupt(format!("unknown workload tag {tag}")))?;
                Event::UnitAdded {
                    spec: UnitSpec {
                        id,
                        kind,
                        count: d.u32()?,
                        seed: d.u64()?,
                    },
                    deadline_ms: d.u64()?,
                }
            }
            EV_CHECK_SCHEDULED => Event::CheckScheduled { unit: d.u64()? },
            EV_SUBMISSION => Event::Submission {
                unit: d.u64()?,
                sub: Box::new(JournalSubmission {
                    worker: d.string()?,
                    result: d.u64()? as i64,
                    record: decode_record(d.bytes()?)
                        .map_err(|e| FleetError::Corrupt(format!("submission record: {e}")))?,
                }),
            },
            EV_UNIT_DONE => Event::UnitDone {
                unit: d.u64()?,
                sessions: d.list(8, Dec::u64)?,
            },
            EV_QUARANTINE => Event::Quarantine {
                worker: d.string()?,
                reason: d.string()?,
            },
            EV_SESSION_LEASE => Event::SessionLease { upto: d.u64()? },
            other => return Err(FleetError::Corrupt(format!("unknown event kind {other}"))),
        };
        d.finish()?;
        Ok(event)
    }
}

impl JournalReplay {
    /// Folds one replayed event in. `index` maps unit ids to `units`
    /// positions; `seen` holds every submission's session id so far.
    fn apply(
        &mut self,
        event: Event,
        index: &mut HashMap<u64, usize>,
        seen: &mut HashSet<u64>,
    ) -> Result<(), FleetError> {
        match event {
            Event::UnitAdded { spec, deadline_ms } => {
                if let Entry::Vacant(slot) = index.entry(spec.id) {
                    slot.insert(self.units.len());
                    self.units.push(JournalUnit {
                        spec,
                        deadline_ms,
                        checks: 0,
                        submissions: Vec::new(),
                        done: None,
                    });
                }
            }
            Event::CheckScheduled { unit: id } => {
                self.units[unit_at(index, id, "check")?].checks += 1;
            }
            Event::Submission { unit: id, sub } => {
                let idx = unit_at(index, id, "submission")?;
                if seen.insert(sub.record.signed.log.session_id) {
                    self.units[idx].submissions.push(*sub);
                } else {
                    self.duplicate_submissions_dropped += 1;
                }
            }
            Event::UnitDone { unit: id, sessions } => {
                let done = &mut self.units[unit_at(index, id, "done")?].done;
                if done.is_none() {
                    *done = Some(sessions);
                } else {
                    self.duplicate_done_dropped += 1;
                }
            }
            Event::Quarantine { worker, reason } => {
                self.quarantined.entry(worker).or_insert(reason);
            }
            Event::SessionLease { upto } => {
                self.session_floor = self.session_floor.max(upto);
            }
        }
        Ok(())
    }
}

fn unit_at(index: &HashMap<u64, usize>, id: u64, what: &str) -> Result<usize, FleetError> {
    let unknown = || FleetError::Corrupt(format!("{what} for unknown unit {id}"));
    index.get(&id).copied().ok_or_else(unknown)
}

// ----------------------------------------------------------- journal

/// The append side of the fleet journal.
pub struct Journal {
    log: FramedLog,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) `fleet.log` in `dir` and replays it.
    ///
    /// # Errors
    ///
    /// I/O errors; [`FleetError::Corrupt`] when acknowledged data is
    /// missing or undecodable (a bad frame anywhere but the tail).
    pub fn open(dir: &Path) -> Result<(Journal, JournalReplay), FleetError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("fleet.log");
        let mut replay = JournalReplay::default();
        let (mut index, mut seen) = (HashMap::new(), HashSet::new());
        let (log, torn) = FramedLog::open(&path, JOURNAL, |_, payload| {
            replay.apply(Event::decode(payload)?, &mut index, &mut seen)
        })?;
        replay.torn_bytes_discarded = torn;
        Ok((Journal { log, path }, replay))
    }

    /// Appends one event. It is durable, and may be acknowledged, only
    /// once a later [`Journal::commit`] returns.
    fn append(&mut self, event: &Event) -> Result<(), FleetError> {
        self.log.append(&framed::frame(|e| event.encode(e)))?;
        Ok(())
    }

    /// Fsyncs every event appended since the last commit; free when
    /// there is none.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync. They poison the journal: this and every
    /// later append or commit fails until it is reopened.
    pub fn commit(&mut self) -> Result<(), FleetError> {
        self.log.sync()?;
        Ok(())
    }

    /// Journals a new campaign unit.
    ///
    /// # Errors
    ///
    /// I/O errors from the append (as for every event below); a
    /// poisoned journal refuses.
    pub fn unit_added(&mut self, spec: &UnitSpec, deadline_ms: u64) -> Result<(), FleetError> {
        self.append(&Event::UnitAdded {
            spec: *spec,
            deadline_ms,
        })
    }

    /// Journals one extra required execution for a unit (spot-check
    /// sample, probation coverage, or mismatch tie-break).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn check_scheduled(&mut self, unit_id: u64) -> Result<(), FleetError> {
        self.append(&Event::CheckScheduled { unit: unit_id })
    }

    /// Journals a verified submission (commit *before* acking).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn submission(
        &mut self,
        unit_id: u64,
        worker: &str,
        result: i64,
        record: &UsageRecord,
    ) -> Result<(), FleetError> {
        self.append(&Event::Submission {
            unit: unit_id,
            sub: Box::new(JournalSubmission {
                worker: worker.to_string(),
                result,
                record: record.clone(),
            }),
        })
    }

    /// Journals a unit's completion with its credited session ids.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn unit_done(&mut self, unit_id: u64, sessions: &[u64]) -> Result<(), FleetError> {
        self.append(&Event::UnitDone {
            unit: unit_id,
            sessions: sessions.to_vec(),
        })
    }

    /// Journals a node quarantine.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn quarantine(&mut self, worker: &str, reason: &str) -> Result<(), FleetError> {
        self.append(&Event::Quarantine {
            worker: worker.to_string(),
            reason: reason.to_string(),
        })
    }

    /// Journals a session-id lease high watermark: ids below `upto`
    /// may be handed out without further journaling, so a restarted
    /// coordinator (resuming from the watermark) never re-issues one.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn session_lease(&mut self, upto: u64) -> Result<(), FleetError> {
        self.append(&Event::SessionLease { upto })
    }

    /// The journal file path (tests cut its tail to simulate crashes).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::{ResourceUsageLog, SignedLog};
    use acctee_durable::framed::{crc32, FRAME_HEADER, HEADER_LEN as FILE_HEADER};
    use acctee_sgx::crypto::sha256;
    use acctee_sgx::{Measurement, Quote};

    fn rec(session: u64) -> UsageRecord {
        UsageRecord {
            tenant: "node-a".into(),
            signed: SignedLog {
                log: ResourceUsageLog {
                    weighted_instructions: session * 7,
                    peak_memory_bytes: 65_536,
                    memory_integral: u128::from(session) << 10,
                    io_bytes_in: 0,
                    io_bytes_out: 0,
                    module_hash: sha256(b"m"),
                    session_id: session,
                },
                quote: Quote {
                    mrenclave: Measurement(sha256(b"ae")),
                    report_data: [9u8; 64],
                    platform: "ae-host".into(),
                    signature: sha256(b"sig"),
                },
            },
        }
    }

    fn spec(id: u64) -> UnitSpec {
        UnitSpec {
            id,
            kind: WorkloadKind::SubsetSum,
            count: 6,
            seed: 40 + id,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-fleet-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn events_replay_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut j, fresh) = Journal::open(&dir).unwrap();
            assert!(fresh.units.is_empty());
            j.unit_added(&spec(0), 500).unwrap();
            j.unit_added(&spec(1), 500).unwrap();
            j.check_scheduled(1).unwrap();
            j.submission(0, "node-a", 42, &rec(10)).unwrap();
            j.unit_done(0, &[10]).unwrap();
            j.quarantine("node-b", "counter mismatch").unwrap();
            j.session_lease(1024).unwrap();
            j.commit().unwrap();
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.units.len(), 2);
        assert_eq!(replay.units[0].spec, spec(0));
        assert_eq!(replay.units[0].needed(), 1);
        assert_eq!(replay.units[0].done, Some(vec![10]));
        assert_eq!(replay.units[0].submissions.len(), 1);
        assert_eq!(replay.units[0].submissions[0].record, rec(10));
        assert_eq!(replay.units[1].needed(), 2);
        assert_eq!(replay.units[1].done, None);
        assert_eq!(
            replay.quarantined.get("node-b").map(String::as_str),
            Some("counter mismatch")
        );
        assert_eq!(replay.session_floor, 1024);
        assert_eq!(replay.torn_bytes_discarded, 0);
        let pairs = replay.credited_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, "node-a");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let dir = tmpdir("torn");
        let path = {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.unit_added(&spec(0), 500).unwrap();
            j.submission(0, "node-a", 1, &rec(5)).unwrap();
            j.path().to_path_buf()
        };
        let full = std::fs::read(&path).unwrap();
        // Find where the submission frame starts: after header +
        // unit-added frame.
        let unit_frame_len = {
            let len = u32::from_le_bytes(full[FILE_HEADER..FILE_HEADER + 4].try_into().unwrap());
            FRAME_HEADER + len as usize
        };
        let sub_start = FILE_HEADER + unit_frame_len;
        for cut in sub_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut j, replay) = Journal::open(&dir).unwrap();
            assert_eq!(replay.units.len(), 1, "cut at {cut}");
            assert!(replay.units[0].submissions.is_empty(), "cut at {cut}");
            assert_eq!(replay.torn_bytes_discarded, (cut - sub_start) as u64);
            // Appending resumes cleanly from the truncated tail.
            j.submission(0, "node-a", 1, &rec(5)).unwrap();
            j.commit().unwrap();
            drop(j);
            let (_, replay) = Journal::open(&dir).unwrap();
            assert_eq!(replay.units[0].submissions.len(), 1);
            std::fs::write(&path, &full).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doubled_frames_never_double_credit() {
        let dir = tmpdir("double");
        let path = {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.unit_added(&spec(0), 500).unwrap();
            j.submission(0, "node-a", 1, &rec(5)).unwrap();
            j.unit_done(0, &[5]).unwrap();
            j.path().to_path_buf()
        };
        // Double the submission + done frames, as a crashed rewrite
        // might: replay must keep exactly one of each.
        let full = std::fs::read(&path).unwrap();
        let unit_frame_len = {
            let len = u32::from_le_bytes(full[FILE_HEADER..FILE_HEADER + 4].try_into().unwrap());
            FRAME_HEADER + len as usize
        };
        let mut doubled = full.clone();
        doubled.extend_from_slice(&full[FILE_HEADER + unit_frame_len..]);
        std::fs::write(&path, &doubled).unwrap();
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.units[0].submissions.len(), 1);
        assert_eq!(replay.units[0].done, Some(vec![5]));
        assert_eq!(replay.duplicate_submissions_dropped, 1);
        assert_eq!(replay.duplicate_done_dropped, 1);
        assert_eq!(replay.credited_pairs().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_is_refused() {
        let dir = tmpdir("header");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.unit_added(&spec(0), 500).unwrap();
        }
        let path = dir.join("fleet.log");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Journal::open(&dir), Err(FleetError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn a_header_cut_at_every_byte_is_torn_and_appends_resume() {
        // A crash between creating fleet.log and fsyncing its header
        // leaves 0..6 bytes: that is a torn write, not corruption.
        let dir = tmpdir("torn-header");
        let path = {
            let (j, _) = Journal::open(&dir).unwrap();
            j.path().to_path_buf()
        };
        let header = std::fs::read(&path).unwrap();
        assert_eq!(header.len(), FILE_HEADER);
        for cut in 0..FILE_HEADER {
            std::fs::write(&path, &header[..cut]).unwrap();
            let (mut j, replay) = Journal::open(&dir).unwrap();
            assert!(replay.units.is_empty(), "cut at {cut}");
            assert_eq!(replay.torn_bytes_discarded, cut as u64);
            j.unit_added(&spec(0), 500).unwrap();
            drop(j);
            let (_, replay) = Journal::open(&dir).unwrap();
            assert_eq!(replay.units.len(), 1, "cut at {cut}");
            assert_eq!(replay.torn_bytes_discarded, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_event_payload_decodes_totally() {
        let events = [
            Event::UnitAdded {
                spec: spec(3),
                deadline_ms: 500,
            },
            Event::CheckScheduled { unit: 3 },
            Event::Submission {
                unit: 3,
                sub: Box::new(JournalSubmission {
                    worker: "node-a".into(),
                    result: -5,
                    record: rec(8),
                }),
            },
            Event::UnitDone {
                unit: 3,
                sessions: vec![8, 9],
            },
            Event::Quarantine {
                worker: "node-b".into(),
                reason: "flip".into(),
            },
            Event::SessionLease { upto: 1 << 40 },
        ];
        let encode = |ev: &Event| {
            let mut e = Enc::default();
            ev.encode(&mut e);
            e.0
        };
        for ev in &events {
            let bytes = encode(ev);
            assert_eq!(&Event::decode(&bytes).unwrap(), ev);
            acctee::codec::check_total(&bytes, Event::decode, encode);
        }
    }
}
