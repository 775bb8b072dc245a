//! Linear memory: a bounds-checked, growable byte array, committed
//! lazily.
//!
//! A memory has a *logical size* — what `memory.size`, `memory.grow`,
//! the bounds check and every accounting figure see — and a
//! *committed prefix*: the bytes actually zero-filled in the backing
//! vector. The vector reserves capacity for the whole logical size up
//! front (fallibly), but its length is only the committed prefix, so a
//! fresh instance costs what it touches, not what it declares. Bytes
//! past the prefix are zero by definition (wasm memory starts zeroed
//! and nothing has written them), so a read there returns zeros
//! without committing; a write commits up to the next page boundary,
//! inside the reserved capacity — no reallocation, no copy.

use crate::trap::Trap;
use acctee_wasm::PAGE_SIZE;

/// A WebAssembly linear memory instance.
///
/// Not `Clone`: a derived clone would copy the committed prefix but
/// drop the reservation behind it.
#[derive(Debug)]
pub struct Memory {
    /// The committed prefix (`len`), with capacity for `size`.
    bytes: Vec<u8>,
    /// Logical size in bytes, a whole number of pages.
    size: usize,
    max_pages: u32,
}

impl Memory {
    /// Creates a memory with `min` initial pages and an optional
    /// maximum (defaults to the 4 GiB architectural limit). Nothing is
    /// committed yet; a failed reservation of the initial pages is a
    /// trap, never an abort.
    pub fn new(min_pages: u32, max_pages: Option<u32>) -> Result<Memory, Trap> {
        let mut m = Memory {
            bytes: Vec::new(),
            size: 0,
            max_pages: max_pages.unwrap_or(65536).min(65536),
        };
        if !m.reserve(min_pages) {
            return Err(Trap::Host(format!(
                "cannot reserve {min_pages} pages of linear memory"
            )));
        }
        Ok(m)
    }

    /// Current logical size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.size / PAGE_SIZE) as u32
    }

    /// Current logical size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size
    }

    /// Bytes actually committed (zero-filled), a prefix of the logical
    /// size.
    pub fn committed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Grows by `delta` pages. Returns the previous size in pages, or
    /// -1 if the growth would exceed the maximum or the reservation
    /// fails.
    pub fn grow(&mut self, delta: u32) -> i32 {
        let old = self.size_pages();
        match old.checked_add(delta) {
            Some(new) if new <= self.max_pages && self.reserve(new) => old as i32,
            _ => -1,
        }
    }

    /// Sets the logical size to `pages`, reserving capacity for it
    /// fallibly (an allocation failure must not abort the host).
    /// Returns false, changing nothing, if the reservation fails.
    fn reserve(&mut self, pages: u32) -> bool {
        let Some(size) = (pages as usize).checked_mul(PAGE_SIZE) else {
            return false;
        };
        if self
            .bytes
            .try_reserve_exact(size - self.bytes.len())
            .is_err()
        {
            return false;
        }
        self.size = size;
        true
    }

    /// Bounds check against the logical size.
    fn check(&self, addr: u64, len: u32) -> Result<usize, Trap> {
        let end = addr
            .checked_add(u64::from(len))
            .ok_or(Trap::MemoryOutOfBounds { addr, len })?;
        if end > self.size as u64 {
            return Err(Trap::MemoryOutOfBounds { addr, len });
        }
        Ok(addr as usize)
    }

    /// The fast path of every access: `Some(addr)` iff the range lies
    /// wholly inside the committed prefix.
    #[inline]
    fn committed(&self, addr: u64, len: usize) -> Option<usize> {
        let end = addr.checked_add(len as u64)?;
        (end <= self.bytes.len() as u64).then_some(addr as usize)
    }

    /// Commits the prefix through `end`, rounded up to a page boundary.
    /// `end` must lie within the logical size, so the zero-fill stays
    /// inside the reserved capacity.
    pub(crate) fn commit_to(&mut self, end: u64) {
        if end > self.bytes.len() as u64 {
            let to = (end as usize).next_multiple_of(PAGE_SIZE).min(self.size);
            self.bytes.resize(to, 0);
        }
    }

    /// Copies the committed part of `[a, a + out.len())` into `out`,
    /// leaving the rest of `out` as it is: uncommitted bytes are zero.
    fn copy_committed(&self, a: usize, out: &mut [u8]) {
        let head = self.bytes.get(a..).unwrap_or_default();
        let n = head.len().min(out.len());
        out[..n].copy_from_slice(&head[..n]);
    }

    /// Slow path of a read whose range is not wholly committed: traps
    /// past the logical size, else reads the committed head into the
    /// zeroed `out`.
    #[cold]
    #[inline(never)]
    fn read_cold(&self, addr: u64, out: &mut [u8]) -> Result<(), Trap> {
        let a = self.check(addr, out.len() as u32)?;
        self.copy_committed(a, out);
        Ok(())
    }

    /// Slow path of a write whose range is not wholly committed: traps
    /// past the logical size, else commits through the range's end.
    #[cold]
    #[inline(never)]
    fn write_cold(&mut self, addr: u64, len: u32) -> Result<usize, Trap> {
        let a = self.check(addr, len)?;
        if len == 0 {
            // An empty range commits nothing (and any index slices it).
            return Ok(0);
        }
        self.commit_to(addr + u64::from(len));
        Ok(a)
    }

    /// Reads `N` bytes at `addr`.
    #[inline]
    pub fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], Trap> {
        let mut out = [0u8; N];
        match self.committed(addr, N) {
            Some(a) => out.copy_from_slice(&self.bytes[a..a + N]),
            None => self.read_cold(addr, &mut out)?,
        }
        Ok(out)
    }

    /// Writes `N` bytes at `addr`.
    #[inline]
    pub fn write<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), Trap> {
        let a = match self.committed(addr, N) {
            Some(a) => a,
            None => self.write_cold(addr, N as u32)?,
        };
        self.bytes[a..a + N].copy_from_slice(&data);
        Ok(())
    }

    /// Reads `N` bytes at an address the caller has already proven in
    /// bounds *and committed* (the register tier's hoisted loop guard,
    /// see `crate::regalloc`, commits the extent it proved). No trap
    /// plumbing: the slice index is the defence-in-depth backstop — a
    /// panic here means the range proof itself is wrong, which the
    /// adversarial suite exists to rule out.
    #[inline(always)]
    pub(crate) fn read_in_bounds<const N: usize>(&self, addr: u64) -> [u8; N] {
        let a = addr as usize;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[a..a + N]);
        out
    }

    /// Writes `N` bytes at a proven-in-bounds, committed address (see
    /// [`Memory::read_in_bounds`]).
    #[inline(always)]
    pub(crate) fn write_in_bounds<const N: usize>(&mut self, addr: u64, data: [u8; N]) {
        let a = addr as usize;
        self.bytes[a..a + N].copy_from_slice(&data);
    }

    /// Mutably borrows a byte range, committing it first.
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: u32) -> Result<&mut [u8], Trap> {
        let a = match self.committed(addr, len as usize) {
            Some(a) => a,
            None => self.write_cold(addr, len)?,
        };
        Ok(&mut self.bytes[a..a + len as usize])
    }

    /// Copies `data` into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Trap> {
        self.slice_mut(addr, data.len() as u32)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes at `addr` into a fresh vector (see
    /// [`Memory::read_append`]).
    #[cfg(test)]
    pub(crate) fn read_bytes(&self, addr: u64, len: u32) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        self.read_append(addr, len, &mut out)?;
        Ok(out)
    }

    /// Appends the `len` bytes at `addr` to `out`, checking the range
    /// before `out` grows. Uncommitted bytes read as zero and stay
    /// uncommitted.
    pub fn read_append(&self, addr: u64, len: u32, out: &mut Vec<u8>) -> Result<(), Trap> {
        let a = self.check(addr, len)?;
        let start = out.len();
        out.resize(start + len as usize, 0);
        self.copy_committed(a, &mut out[start..]);
        Ok(())
    }

    /// Convenience typed accessors used by host functions and tests.
    pub fn read_i32(&self, addr: u64) -> Result<i32, Trap> {
        Ok(i32::from_le_bytes(self.read::<4>(addr)?))
    }
    /// Writes a little-endian `i32`.
    pub fn write_i32(&mut self, addr: u64, v: i32) -> Result<(), Trap> {
        self.write(addr, v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Imports, Instance};
    use acctee_wasm::builder::ModuleBuilder;

    const PAGE: u64 = PAGE_SIZE as u64;

    fn mem(min: u32, max: Option<u32>) -> Memory {
        Memory::new(min, max).expect("small memories reserve")
    }

    #[test]
    fn grow_respects_max() {
        let mut m = mem(1, Some(2));
        assert_eq!(m.size_pages(), 1);
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_pages(), 2);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = mem(1, None);
        assert!(m.write_i32(PAGE - 4, 7).is_ok());
        assert_eq!(m.read_i32(PAGE - 4).unwrap(), 7);
        assert!(m.read_i32(PAGE - 3).is_err());
        assert!(m.read_i32(u64::MAX - 1).is_err());
    }

    #[test]
    fn new_pages_are_zeroed() {
        let mut m = mem(0, None);
        assert_eq!(m.grow(1), 0);
        assert_eq!(m.read::<8>(0).unwrap(), [0; 8]);
    }

    #[test]
    fn byte_helpers_round_trip() {
        let mut m = mem(1, None);
        m.write_bytes(10, b"hello").unwrap();
        assert_eq!(m.read_bytes(10, 5).unwrap(), b"hello");
        m.write(64, 2.75f64.to_le_bytes()).unwrap();
        assert_eq!(f64::from_le_bytes(m.read::<8>(64).unwrap()), 2.75);
    }

    #[test]
    fn read_append_checks_the_range_before_growing_its_buffer() {
        let mut m = mem(2, None);
        m.write_bytes(PAGE - 2, b"ab").unwrap();
        let mut out = b"head:".to_vec();
        m.read_append(PAGE - 2, 4, &mut out).unwrap();
        assert_eq!(out, b"head:ab\0\0", "uncommitted bytes append as zero");
        assert_eq!(m.committed_bytes(), PAGE_SIZE);
        let err = m.read_append(PAGE, u32::MAX, &mut out).unwrap_err();
        assert_eq!(
            err,
            Trap::MemoryOutOfBounds {
                addr: PAGE,
                len: u32::MAX
            }
        );
        assert_eq!(out, b"head:ab\0\0", "a trapping read appends nothing");
    }

    #[test]
    fn untouched_bytes_read_zero_without_committing() {
        let m = mem(64, None);
        assert_eq!(m.size_bytes(), 64 * PAGE_SIZE);
        assert_eq!(m.committed_bytes(), 0);
        for addr in [0, 1, PAGE - 1, 17 * PAGE + 3, 64 * PAGE - 8] {
            assert_eq!(m.read::<8>(addr).unwrap(), [0; 8]);
        }
        assert_eq!(m.read::<1>(64 * PAGE - 1).unwrap(), [0]);
        assert_eq!(m.read_bytes(PAGE - 5, 4096).unwrap(), vec![0; 4096]);
        assert_eq!(m.committed_bytes(), 0, "reads never commit");
    }

    #[test]
    fn writes_commit_whole_pages_up_to_their_end() {
        let mut m = mem(64, None);
        m.write::<1>(0, [9]).unwrap();
        assert_eq!(m.committed_bytes(), PAGE_SIZE);
        // A write straddling a page boundary commits the page its end
        // lands in, and everything below it.
        m.write_i32(3 * PAGE - 2, -1).unwrap();
        assert_eq!(m.committed_bytes(), 4 * PAGE_SIZE);
        assert_eq!(m.read::<1>(0).unwrap(), [9], "commit keeps old bytes");
        assert_eq!(m.read_i32(3 * PAGE - 2).unwrap(), -1);
        // Writes inside the prefix commit nothing more; an empty write
        // at the very top commits nothing at all.
        m.write_i32(PAGE, 1).unwrap();
        m.write_bytes(64 * PAGE, &[]).unwrap();
        assert_eq!(m.committed_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn read_straddling_the_committed_end_zero_fills_the_tail() {
        let mut m = mem(2, None);
        m.write_bytes(PAGE - 2, &[0xab, 0xcd]).unwrap();
        assert_eq!(m.committed_bytes(), PAGE_SIZE);
        assert_eq!(m.read::<4>(PAGE - 2).unwrap(), [0xab, 0xcd, 0, 0]);
        assert_eq!(m.read_bytes(PAGE - 1, 3).unwrap(), vec![0xcd, 0, 0]);
        assert_eq!(m.committed_bytes(), PAGE_SIZE);
    }

    #[test]
    fn grown_pages_read_and_write() {
        let mut m = mem(1, Some(4));
        m.write_i32(0, 5).unwrap();
        assert_eq!(m.grow(2), 1);
        assert_eq!(m.size_bytes(), 3 * PAGE_SIZE);
        assert_eq!(m.committed_bytes(), PAGE_SIZE, "grow commits nothing");
        assert_eq!(m.read::<8>(3 * PAGE - 8).unwrap(), [0; 8]);
        m.write(3 * PAGE - 8, 1.5f64.to_le_bytes()).unwrap();
        assert_eq!(f64::from_le_bytes(m.read::<8>(3 * PAGE - 8).unwrap()), 1.5);
        assert_eq!(m.read_i32(0).unwrap(), 5);
        assert_eq!(m.committed_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn access_just_past_the_logical_size_traps_unchanged() {
        let mut m = mem(2, None);
        let end = 2 * PAGE;
        let oob = |addr, len| Trap::MemoryOutOfBounds { addr, len };
        // Uncommitted memory: the trap is the logical-size trap.
        assert_eq!(m.read_i32(end - 3).unwrap_err(), oob(end - 3, 4));
        assert_eq!(m.write_i32(end - 3, 1).unwrap_err(), oob(end - 3, 4));
        assert_eq!(m.read_bytes(end, 1).unwrap_err(), oob(end, 1));
        assert_eq!(
            m.write_bytes(end - 1, &[1, 2]).unwrap_err(),
            oob(end - 1, 2)
        );
        assert_eq!(m.committed_bytes(), 0, "a trapping write commits nothing");
        // Fully committed memory traps identically.
        m.write_i32(end - 4, 1).unwrap();
        assert_eq!(m.committed_bytes(), 2 * PAGE_SIZE);
        assert_eq!(m.read_i32(end - 3).unwrap_err(), oob(end - 3, 4));
        assert_eq!(m.write_i32(end - 3, 1).unwrap_err(), oob(end - 3, 4));
        assert_eq!(m.read::<8>(u64::MAX - 1).unwrap_err(), oob(u64::MAX - 1, 8));
    }

    #[test]
    fn data_segment_near_the_top_commits_through_it() {
        let mut b = ModuleBuilder::new();
        b.memory(16, None);
        b.data(16 * PAGE as u32 - 3, b"top");
        let m = b.build();
        let inst = Instance::new(&m, Imports::new()).unwrap();
        let mem = inst.memory().unwrap();
        assert_eq!(mem.read_bytes(16 * PAGE - 3, 3).unwrap(), b"top");
        assert_eq!(mem.read_bytes(0, 8).unwrap(), vec![0; 8]);
        assert_eq!(mem.committed_bytes(), 16 * PAGE_SIZE);
    }

    #[test]
    fn maximal_memory_instantiates_lazily_or_traps() {
        // 65536 pages = 4 GiB. The reservation may succeed (nothing is
        // committed) or fail (a trap); it must never abort the host.
        let mut b = ModuleBuilder::new();
        b.memory(65536, None);
        let m = b.build();
        match Instance::new(&m, Imports::new()) {
            Ok(mut inst) => {
                let mem = inst.memory_mut().unwrap();
                assert_eq!(mem.size_pages(), 65536);
                assert_eq!(mem.committed_bytes(), 0);
                mem.write::<1>(0, [1]).unwrap();
                assert_eq!(mem.committed_bytes(), PAGE_SIZE);
            }
            Err(t) => assert!(matches!(t, Trap::Host(_)), "unexpected {t:?}"),
        }
    }
}
