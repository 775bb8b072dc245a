//! The framed log file under the usage WAL ([`crate::wal`]), the deploy
//! log ([`crate::registry`]) and the fleet coordinator's journal: a
//! 6-byte [`header`], then frames of `u32 len | u32 crc32(payload) |
//! payload`. Replay stops at the first short, oversized or CRC-failing
//! frame; in the file being appended to, that is a torn tail (or, short
//! of a full header, a torn create) and is cut off. A foreign header is
//! [`Damaged`]. A failed write or fsync poisons the open log, and a
//! sync with nothing new since the last one is free (see
//! [`FramedLog`]). DESIGN.md §15 gives the whole rule.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use acctee::codec::Enc;

use crate::DurableError;

/// Bytes of file header (magic + version).
pub const HEADER_LEN: usize = 6;
/// Bytes of frame header (length + CRC).
pub const FRAME_HEADER: usize = 8;
/// Upper bound on a frame payload; anything larger is corruption.
const MAX_FRAME: u32 = 16 << 20;

/// A framed file's header: its owner's magic, then a `u16` version.
pub const fn header(magic: [u8; 4], version: u16) -> [u8; HEADER_LEN] {
    let v = version.to_le_bytes();
    [magic[0], magic[1], magic[2], magic[3], v[0], v[1]]
}

/// Framed bytes that cannot be a torn write: acknowledged history is
/// damaged or the file is not this log's.
#[derive(Debug)]
pub struct Damaged(pub String);

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven; the same
/// checksum `gzip` and `zlib` frame with.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// One frame around the payload `write` encodes, built in a single
/// buffer: the payload is written in place after room for the frame
/// header, which is filled in last.
pub fn frame(write: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc(vec![0; FRAME_HEADER]);
    write(&mut e);
    let mut buf = e.0;
    let payload = &buf[FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// The intact payload of the frame at `pos`, if one is there.
fn frame_at(bytes: &[u8], pos: usize) -> Option<&[u8]> {
    let head = bytes.get(pos..pos + FRAME_HEADER)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return None;
    }
    let start = pos + FRAME_HEADER;
    let payload = bytes.get(start..start + len as usize)?;
    (crc32(payload) == crc).then_some(payload)
}

/// The frame scanner: hands each intact frame of `path` to `visit`
/// with its offset. Returns the file's length and where its intact
/// frames end (0 when the file is cut inside its header).
///
/// # Errors
///
/// I/O errors, [`Damaged`], and whatever `visit` returns.
pub(crate) fn replay<E>(
    path: &Path,
    header: [u8; HEADER_LEN],
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<(usize, usize), E>
where
    E: From<std::io::Error> + From<Damaged>,
{
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Ok((bytes.len(), 0));
    }
    if bytes[..HEADER_LEN] != header {
        return Err(Damaged(format!("{}: bad header", path.display())).into());
    }
    let mut pos = HEADER_LEN;
    while let Some(payload) = frame_at(&bytes, pos) {
        visit(pos as u64, payload)?;
        pos += FRAME_HEADER + payload.len();
    }
    Ok((bytes.len(), pos))
}

/// Reads back the frame at `offset` of `path`, re-checking its CRC
/// (the disk may have rotted since replay).
///
/// # Errors
///
/// I/O errors; [`DurableError::Corrupt`] when the frame no longer
/// checks out.
pub(crate) fn read_frame(path: &Path, offset: u64) -> Result<Vec<u8>, DurableError> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut frame = vec![0u8; FRAME_HEADER];
    f.read_exact(&mut frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    if len <= MAX_FRAME {
        frame.resize(FRAME_HEADER + len as usize, 0);
        f.read_exact(&mut frame[FRAME_HEADER..])?;
        if let Some(payload) = frame_at(&frame, 0) {
            return Ok(payload.to_vec());
        }
    }
    Err(DurableError::Corrupt(format!(
        "{}: frame at offset {offset} fails its check",
        path.display()
    )))
}

/// Best-effort directory fsync so creates and renames are durable on
/// filesystems that need it.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A framed file open for appending.
///
/// A failed write or fsync **poisons** the log: every later
/// [`FramedLog::append`] and [`FramedLog::sync`] is refused until the
/// file is reopened. A partial `write_all` leaves the file cursor past
/// bytes no frame accounts for, so a later frame would land behind
/// garbage and replay would cut it as torn tail, acknowledged or not;
/// and a retried fsync may report success for pages the kernel already
/// dropped. Reopening replays the file and cuts whatever the failure
/// left behind.
///
/// The log remembers how far it has synced: a [`FramedLog::sync`] with
/// no frame appended since the last one returns without an fsync. That
/// is what lets several callers that each need their frames durable
/// share one fsync (group commit, DESIGN.md §15).
#[derive(Debug)]
pub struct FramedLog {
    file: File,
    len: u64,
    /// Length this handle has fsynced (0 when unknown, after a reopen
    /// that cut nothing).
    synced: u64,
    poisoned: bool,
}

impl FramedLog {
    /// Creates a file holding only `header`, then fsyncs it and its
    /// directory.
    ///
    /// # Errors
    ///
    /// I/O errors, including an already existing file.
    pub(crate) fn create(path: &Path, header: [u8; HEADER_LEN]) -> std::io::Result<FramedLog> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        file.write_all(&header)?;
        file.sync_all()?;
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
        Ok(FramedLog {
            file,
            len: HEADER_LEN as u64,
            synced: HEADER_LEN as u64,
            poisoned: false,
        })
    }

    /// Opens `path` for appending — creating it when absent — after
    /// replaying its intact frames through `visit`. A torn tail is cut
    /// off (a torn header rewritten) and fsynced; returns the bytes cut.
    ///
    /// # Errors
    ///
    /// I/O errors, [`Damaged`] for a full header other than `header`,
    /// and whatever `visit` returns.
    pub fn open<E>(
        path: &Path,
        header: [u8; HEADER_LEN],
        visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
    ) -> Result<(FramedLog, u64), E>
    where
        E: From<std::io::Error> + From<Damaged>,
    {
        if !path.exists() {
            return Ok((FramedLog::create(path, header)?, 0));
        }
        let (len, end) = replay(path, header, visit)?;
        Ok(FramedLog::resume(path, header, len, end)?)
    }

    /// Opens the existing `path` for appending after [`replay`] found
    /// its intact frames ending at `end` of `len` bytes: the torn tail
    /// is cut off (a torn header rewritten) and fsynced. Returns the
    /// bytes cut.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub(crate) fn resume(
        path: &Path,
        header: [u8; HEADER_LEN],
        len: usize,
        end: usize,
    ) -> std::io::Result<(FramedLog, u64)> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        let len_after = end.max(HEADER_LEN) as u64;
        // An uncut file may hold frames a crashed writer never synced.
        let mut synced = 0;
        if end < len || end == 0 {
            file.set_len(end as u64)?;
            if end == 0 {
                file.write_all(&header)?;
            }
            file.sync_all()?;
            synced = len_after;
        }
        file.seek(SeekFrom::End(0))?;
        let log = FramedLog {
            file,
            len: len_after,
            synced,
            poisoned: false,
        };
        Ok((log, (len - end) as u64))
    }

    /// Appends one frame built by [`frame`] with a single write; returns
    /// its offset. Durable only after [`FramedLog::sync`].
    ///
    /// # Errors
    ///
    /// I/O errors, which poison the log; a poisoned log refuses.
    pub fn append(&mut self, frame: &[u8]) -> std::io::Result<u64> {
        self.check_poison()?;
        let written = self.file.write_all(frame);
        self.poisoned = written.is_err();
        written?;
        let offset = self.len;
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Forces everything appended so far to disk; free when nothing
    /// was appended since the last sync.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync, which poison the log; a poisoned log
    /// refuses.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.check_poison()?;
        if self.synced == self.len {
            return Ok(());
        }
        let synced = self.file.sync_data();
        self.poisoned = synced.is_err();
        synced?;
        self.synced = self.len;
        Ok(())
    }

    fn check_poison(&self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "log poisoned by an earlier failed write or fsync; reopen it to recover",
            ));
        }
        Ok(())
    }

    /// The file's length: header plus every frame.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const TEST: [u8; HEADER_LEN] = header(*b"TEST", 3);

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-framed-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    fn payloads(path: &Path) -> (Vec<Vec<u8>>, u64) {
        let mut seen = Vec::new();
        let (_, torn) = FramedLog::open::<DurableError>(path, TEST, |_, p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        (seen, torn)
    }

    #[test]
    fn frames_round_trip_and_read_back_at_their_offsets() {
        let path = tmpfile("roundtrip");
        let (mut log, torn) = FramedLog::open::<DurableError>(&path, TEST, |_, _| Ok(())).unwrap();
        assert_eq!((torn, log.len()), (0, HEADER_LEN as u64));
        let a = log.append(&frame(|e| e.raw(b"first"))).unwrap();
        let b = log.append(&frame(|e| e.u64(7))).unwrap();
        log.sync().unwrap();
        assert_eq!(a, HEADER_LEN as u64);
        assert_eq!(b, a + (FRAME_HEADER + 5) as u64);
        drop(log);
        let (seen, torn) = payloads(&path);
        assert_eq!(seen, vec![b"first".to_vec(), 7u64.to_le_bytes().to_vec()]);
        assert_eq!(torn, 0);
        let back = read_frame(&path, a).unwrap();
        assert_eq!(back, b"first");
        assert!(read_frame(&path, a + 1).is_err());
    }

    #[test]
    fn a_file_cut_inside_its_header_is_torn_not_damaged() {
        let path = tmpfile("torn-header");
        for cut in 0..HEADER_LEN {
            std::fs::write(&path, &TEST[..cut]).unwrap();
            let (seen, torn) = payloads(&path);
            assert!(seen.is_empty());
            assert_eq!(torn, cut as u64, "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), TEST);
        }
        let mut wrong = TEST;
        wrong[5] ^= 1;
        std::fs::write(&path, wrong).unwrap();
        assert!(matches!(
            FramedLog::open::<DurableError>(&path, TEST, |_, _| Ok(())),
            Err(DurableError::Corrupt(_))
        ));
    }

    #[test]
    fn a_failed_append_poisons_the_log() {
        let path = tmpfile("poison");
        let (mut log, _) = FramedLog::open::<DurableError>(&path, TEST, |_, _| Ok(())).unwrap();
        log.append(&frame(|e| e.raw(b"acknowledged"))).unwrap();
        log.sync().unwrap();
        let len = log.len();
        drop(log);
        // A handle that cannot write: the first append fails in the
        // kernel, and every later append and sync is refused before
        // touching the file.
        let mut log = FramedLog {
            file: File::open(&path).unwrap(),
            len,
            synced: len,
            poisoned: false,
        };
        let failed = log.append(&frame(|e| e.raw(b"lost"))).unwrap_err();
        assert!(!failed.to_string().contains("poisoned"), "{failed}");
        for _ in 0..2 {
            let refused = log.append(&frame(|e| e.raw(b"later"))).unwrap_err();
            assert!(refused.to_string().contains("poisoned"), "{refused}");
            let refused = log.sync().unwrap_err();
            assert!(refused.to_string().contains("poisoned"), "{refused}");
        }
        assert_eq!(log.len(), len);
        drop(log);
        let (seen, torn) = payloads(&path);
        assert_eq!((seen, torn), (vec![b"acknowledged".to_vec()], 0));
    }

    #[cfg(unix)]
    #[test]
    fn a_sync_with_nothing_new_is_free() {
        use std::os::fd::OwnedFd;
        use std::os::unix::net::UnixStream;
        // A socket takes writes but refuses fsync (EINVAL), so a sync
        // that succeeds on it never reached the kernel.
        let (socket, _peer) = UnixStream::pair().unwrap();
        let mut log = FramedLog {
            file: File::from(OwnedFd::from(socket)),
            len: HEADER_LEN as u64,
            synced: HEADER_LEN as u64,
            poisoned: false,
        };
        log.sync().expect("a clean log does not fsync");
        log.sync().expect("nor does it the second time");
        log.append(&frame(|e| e.raw(b"pending"))).unwrap();
        assert!(log.sync().is_err(), "a pending frame does fsync");
    }

    #[test]
    fn replay_reports_where_the_intact_frames_end() {
        let path = tmpfile("replay");
        let (mut log, _) = FramedLog::open::<DurableError>(&path, TEST, |_, _| Ok(())).unwrap();
        log.append(&frame(|e| e.raw(b"payload"))).unwrap();
        drop(log);
        let full = std::fs::read(&path).unwrap();
        let replay = |p: &Path| replay::<DurableError>(p, TEST, |_, _| Ok(())).unwrap();
        assert_eq!(replay(&path), (full.len(), full.len()));
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        assert_eq!(replay(&path), (full.len() - 1, HEADER_LEN));
        std::fs::write(&path, &full[..3]).unwrap();
        assert_eq!(replay(&path), (3, 0));
    }
}
