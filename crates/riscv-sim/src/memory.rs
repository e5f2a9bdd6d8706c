//! Sparse, page-granular physical memory.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::CpuError;

pub(crate) const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Source of code epochs. Every value is handed out once per process, so
/// an epoch names one state of the code pages of one [`Memory`] instance:
/// a fresh memory or a clone never shares the epoch of another.
static NEXT_CODE_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_code_epoch() -> u64 {
    // Relaxed: only uniqueness matters; the counter publishes no other data.
    NEXT_CODE_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// One mapped 4 KiB page.
#[derive(Debug, Clone)]
struct Page {
    bytes: Box<[u8; PAGE_SIZE as usize]>,
    /// Fetched from since its last write, so a core may hold instructions
    /// decoded from it.
    code: bool,
}

impl Page {
    fn zeroed() -> Page {
        Page {
            bytes: Box::new([0; PAGE_SIZE as usize]),
            code: false,
        }
    }
}

/// Page index that no address maps to (indices have at most 52 bits).
const NO_PAGE: u64 = u64::MAX;

/// Byte-addressable sparse memory backed by 4 KiB pages.
///
/// Reads of unmapped pages are an error (the guest touched memory the
/// program never initialized or reserved); writes allocate pages on demand.
/// Every access looks its page up once; an access that straddles a page
/// boundary looks up each page it touches. A lookup of the page the
/// previous successful lookup found is a compare against a one-entry memo
/// instead of a map search. Pages are never unmapped, so a memoized page
/// stays valid; a lookup that fails leaves the memo as it was.
///
/// A page becomes a *code page* when the core fetches an instruction from
/// it. Any write that touches a code page — a guest store, an accelerator
/// write through the RoCC memory port, a harness write — moves the memory
/// to a new code epoch. Cores keep their decoded instructions only while
/// the epoch they were decoded under is current. Epochs are unique across instances and clones, so replacing
/// a core's memory wholesale invalidates them too.
///
/// # Example
///
/// ```
/// use riscv_sim::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x8000_0000, 0xDEAD_BEEF_0BAD_F00D).unwrap();
/// assert_eq!(mem.read_u64(0x8000_0000).unwrap(), 0xDEAD_BEEF_0BAD_F00D);
/// assert_eq!(mem.read_u32(0x8000_0004).unwrap(), 0xDEAD_BEEF);
/// ```
#[derive(Debug)]
pub struct Memory {
    /// The mapped pages, in the order they were mapped.
    pages: Vec<Page>,
    /// Page index to position in `pages`.
    index: BTreeMap<u64, usize>,
    /// The last page index looked up successfully and its position.
    memo: Cell<(u64, usize)>,
    code_epoch: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: BTreeMap::new(),
            memo: Cell::new((NO_PAGE, 0)),
            code_epoch: fresh_code_epoch(),
        }
    }
}

impl Clone for Memory {
    /// Copies the contents; the clone starts a code epoch and a memo of its
    /// own.
    fn clone(&self) -> Self {
        Memory {
            pages: self.pages.clone(),
            index: self.index.clone(),
            ..Memory::default()
        }
    }
}

impl Memory {
    /// An empty memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of mapped pages (for footprint diagnostics).
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// The current code epoch (see the type-level documentation).
    pub(crate) fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// The position in `pages` of the page with index `index`, if mapped.
    #[inline]
    fn find(&self, index: u64) -> Option<usize> {
        let (memo_index, memo_at) = self.memo.get();
        if memo_index == index {
            Some(memo_at)
        } else {
            self.search(index)
        }
    }

    /// [`Memory::find`] past the memo: a map lookup, memoized if it finds
    /// the page. Out of line, so `find` stays small enough to inline into
    /// every access.
    #[inline(never)]
    fn search(&self, index: u64) -> Option<usize> {
        let at = *self.index.get(&index)?;
        self.memo.set((index, at));
        Some(at)
    }

    /// Maps a zeroed page with index `index`; returns its position.
    #[cold]
    fn map(&mut self, index: u64) -> usize {
        self.pages.push(Page::zeroed());
        self.index.insert(index, self.pages.len() - 1);
        self.pages.len() - 1
    }

    /// The page with index `index`, if mapped.
    #[inline]
    fn page(&self, index: u64) -> Option<&Page> {
        self.find(index).map(|at| &self.pages[at])
    }

    /// Fetches the instruction word at the 4-byte-aligned `pc` and marks
    /// its page as a code page. Maps nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::FetchFault`] if the page is unmapped.
    pub(crate) fn fetch_u32(&mut self, pc: u64) -> Result<u32, CpuError> {
        debug_assert!(pc.is_multiple_of(4), "fetch from misaligned pc {pc:#x}");
        let at = self
            .find(pc >> PAGE_SHIFT)
            .ok_or(CpuError::FetchFault(pc))?;
        let page = &mut self.pages[at];
        page.code = true;
        let offset = (pc & (PAGE_SIZE - 1)) as usize;
        let mut word = [0; 4];
        word.copy_from_slice(&page.bytes[offset..offset + 4]);
        Ok(u32::from_le_bytes(word))
    }

    /// The page with index `index`, mapping it on demand. A write through
    /// the returned bytes ends the page's code status and the code epoch.
    fn page_for_write(&mut self, index: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let at = match self.find(index) {
            Some(at) => at,
            None => self.map(index),
        };
        let page = &mut self.pages[at];
        if page.code {
            page.code = false;
            self.code_epoch = fresh_code_epoch();
        }
        &mut page.bytes
    }

    /// Fills `out` from the bytes starting at `addr`, one page lookup per
    /// page touched. Out of line: only bulk reads and reads that straddle
    /// a page boundary come here.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] carrying the first unmapped
    /// byte's address.
    #[inline(never)]
    fn read_into(&self, addr: u64, out: &mut [u8]) -> Result<(), CpuError> {
        let mut done = 0;
        while done < out.len() {
            let at = addr.wrapping_add(done as u64);
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let len = (out.len() - done).min(PAGE_SIZE as usize - offset);
            let page = self
                .page(at >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(at))?;
            out[done..done + len].copy_from_slice(&page.bytes[offset..offset + len]);
            done += len;
        }
        Ok(())
    }

    /// Copies `bytes` to `addr`, one page lookup per page touched. Out of
    /// line: only bulk writes and writes that straddle a page boundary
    /// come here.
    #[inline(never)]
    fn write_from(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let at = addr.wrapping_add(done as u64);
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let len = (bytes.len() - done).min(PAGE_SIZE as usize - offset);
            self.page_for_write(at >> PAGE_SHIFT)[offset..offset + len]
                .copy_from_slice(&bytes[done..done + len]);
            done += len;
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] if the page was never written.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, CpuError> {
        Ok(self.read_le::<1>(addr)?[0])
    }

    /// Writes one byte, mapping the page on demand.
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for symmetry and future protection
    /// bits.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), CpuError> {
        self.write_le(addr, [value]);
        Ok(())
    }

    /// Reads `N` little-endian bytes: a fixed-size copy when they lie in
    /// one page, else page by page.
    #[inline]
    fn read_le<const N: usize>(&self, addr: u64) -> Result<[u8; N], CpuError> {
        let mut out = [0u8; N];
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + N <= PAGE_SIZE as usize {
            let page = self
                .page(addr >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(addr))?;
            out.copy_from_slice(&page.bytes[offset..offset + N]);
        } else {
            self.read_into(addr, &mut out)?;
        }
        Ok(out)
    }

    /// Writes `N` little-endian bytes: a fixed-size copy when they lie in
    /// one page, else page by page.
    #[inline]
    fn write_le<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + N <= PAGE_SIZE as usize {
            self.page_for_write(addr >> PAGE_SHIFT)[offset..offset + N].copy_from_slice(&bytes);
        } else {
            self.write_from(addr, &bytes);
        }
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> Result<u16, CpuError> {
        Ok(u16::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> Result<u32, CpuError> {
        Ok(u32::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, CpuError> {
        Ok(u64::from_le_bytes(self.read_le(addr)?))
    }

    /// Writes a little-endian u16.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline]
    pub fn write_u16(&mut self, addr: u64, value: u16) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian u32.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn load_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CpuError> {
        self.write_from(addr, bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, CpuError> {
        // `len` may come straight from a guest register, so the buffer
        // grows page by page and is never sized from `len` up front: a
        // bogus length faults at the first unmapped byte instead of
        // exhausting host memory.
        let mut out = Vec::with_capacity(len.min(PAGE_SIZE as usize));
        while out.len() < len {
            let at = addr.wrapping_add(out.len() as u64);
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let chunk = (len - out.len()).min(PAGE_SIZE as usize - offset);
            let page = self
                .page(at >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(at))?;
            out.extend_from_slice(&page.bytes[offset..offset + chunk]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 0xAB).unwrap();
        m.write_u16(0x1002, 0x1234).unwrap();
        m.write_u32(0x1004, 0xDEAD_BEEF).unwrap();
        m.write_u64(0x1008, u64::MAX).unwrap();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xAB);
        assert_eq!(m.read_u16(0x1002).unwrap(), 0x1234);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(0x1008).unwrap(), u64::MAX);
    }

    #[test]
    fn unmapped_read_fails() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x42), Err(CpuError::UnmappedAddress(0x42)));
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1FFC; // straddles a 4 KiB boundary for u64
        m.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn bulk_load() {
        let mut m = Memory::new();
        m.load_bytes(0x2000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(0x2000, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bulk_load_spanning_pages_round_trips() {
        let mut m = Memory::new();
        let bytes: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        m.load_bytes(0x1F00, &bytes).unwrap(); // 0x1F00..0x4228
        assert_eq!(m.mapped_pages(), 4);
        assert_eq!(m.read_bytes(0x1F00, bytes.len()).unwrap(), bytes);
        assert_eq!(m.read_u8(0x1F00 + 8999).unwrap(), bytes[8999]);
    }

    #[test]
    fn in_page_reads_report_the_unmapped_address() {
        let mut m = Memory::new();
        assert_eq!(m.read_u16(0x1006), Err(CpuError::UnmappedAddress(0x1006)));
        assert_eq!(m.read_u32(0x1004), Err(CpuError::UnmappedAddress(0x1004)));
        assert_eq!(m.read_u64(0x1008), Err(CpuError::UnmappedAddress(0x1008)));
        assert_eq!(
            m.read_bytes(0x1010, 3),
            Err(CpuError::UnmappedAddress(0x1010))
        );
        m.write_u8(0x1000, 1).unwrap();
        assert_eq!(m.read_u64(0x3008), Err(CpuError::UnmappedAddress(0x3008)));
    }

    #[test]
    fn straddling_reads_report_the_first_unmapped_byte() {
        // Only page 0x1000 is mapped: the fault is at the next page's base.
        let mut m = Memory::new();
        m.write_u8(0x1000, 1).unwrap();
        assert_eq!(m.read_u16(0x1FFF), Err(CpuError::UnmappedAddress(0x2000)));
        assert_eq!(m.read_u32(0x1FFE), Err(CpuError::UnmappedAddress(0x2000)));
        assert_eq!(m.read_u64(0x1FFC), Err(CpuError::UnmappedAddress(0x2000)));
        assert_eq!(
            m.read_bytes(0x1FF0, 64),
            Err(CpuError::UnmappedAddress(0x2000))
        );
        // Only page 0x2000 is mapped: the access's own first byte faults.
        let mut m = Memory::new();
        m.write_u8(0x2000, 1).unwrap();
        assert_eq!(m.read_u64(0x1FFC), Err(CpuError::UnmappedAddress(0x1FFC)));
        assert_eq!(m.read_u16(0x1FFF), Err(CpuError::UnmappedAddress(0x1FFF)));
    }

    #[test]
    fn oversized_bulk_reads_fault_without_allocating_the_length() {
        // A garbage length (e.g. a guest's `write(buf, -1)`) must fault at
        // the first unmapped byte, not size a host buffer from the length.
        let mut m = Memory::new();
        m.write_u8(0x1000, 1).unwrap();
        assert_eq!(
            m.read_bytes(0x1000, usize::MAX),
            Err(CpuError::UnmappedAddress(0x2000))
        );
        assert_eq!(
            m.read_bytes(0x1800, usize::MAX / 2),
            Err(CpuError::UnmappedAddress(0x2000))
        );
        assert_eq!(m.read_bytes(0x1000, 0), Ok(Vec::new()));
        assert_eq!(m.read_bytes(0x9000, 0), Ok(Vec::new()));
    }

    #[test]
    fn fetch_miss_reports_a_fetch_fault() {
        let mut m = Memory::new();
        assert_eq!(m.fetch_u32(0x1000), Err(CpuError::FetchFault(0x1000)));
        m.write_u32(0x1004, 0x0000_0013).unwrap();
        assert_eq!(m.fetch_u32(0x1004), Ok(0x0000_0013));
        assert_eq!(m.fetch_u32(0x2000), Err(CpuError::FetchFault(0x2000)));
    }

    #[test]
    fn fetching_maps_nothing_and_leaves_the_contents_unchanged() {
        let mut m = Memory::new();
        m.write_u32(0x3000, 0x0000_0013).unwrap();
        m.write_u64(0x1008, 0x1122_3344_5566_7788).unwrap();
        let contents = |m: &Memory| {
            [0x1000, 0x3000].map(|base| m.read_bytes(base, PAGE_SIZE as usize).unwrap())
        };
        let before = contents(&m);
        m.fetch_u32(0x3000).unwrap();
        m.fetch_u32(0x1004).unwrap();
        let _ = m.fetch_u32(0x2000);
        assert_eq!(m.mapped_pages(), 2);
        assert_eq!(contents(&m), before);
        assert_eq!(m.read_u8(0x2000), Err(CpuError::UnmappedAddress(0x2000)));
    }

    #[test]
    fn writes_to_fetched_pages_start_a_new_code_epoch() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0x0000_0013).unwrap();
        m.write_u64(0x5000, 7).unwrap();
        let epoch = m.code_epoch();
        m.fetch_u32(0x1000).unwrap();
        assert_eq!(m.code_epoch(), epoch, "fetching alone keeps the epoch");
        m.write_u64(0x5000, 8).unwrap();
        assert_eq!(m.code_epoch(), epoch, "data pages never move the epoch");
        m.write_u8(0x1FFF, 1).unwrap();
        let patched = m.code_epoch();
        assert_ne!(patched, epoch, "any byte of a fetched page moves the epoch");
        m.write_u8(0x1FFE, 1).unwrap();
        assert_eq!(m.code_epoch(), patched, "until it is fetched from again");
        m.fetch_u32(0x1000).unwrap();
        // A write straddling into the fetched page counts as well.
        m.write_u64(0xFFC, 0).unwrap();
        assert_ne!(m.code_epoch(), patched);
    }

    #[test]
    fn a_failed_lookup_is_not_memoized() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 1).unwrap();
        assert_eq!(m.read_u64(0x1000), Ok(1));
        assert_eq!(m.read_u64(0x5000), Err(CpuError::UnmappedAddress(0x5000)));
        m.write_u64(0x5008, 2).unwrap();
        assert_eq!(m.read_u64(0x5008), Ok(2));
        assert_eq!(m.read_u64(0x1000), Ok(1));
        // The same through the fetch path.
        assert_eq!(m.fetch_u32(0x7000), Err(CpuError::FetchFault(0x7000)));
        m.write_u32(0x7000, 0x13).unwrap();
        assert_eq!(m.fetch_u32(0x7000), Ok(0x13));
    }

    #[test]
    fn a_clone_keeps_a_memo_of_its_own() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 1).unwrap();
        m.write_u64(0x2000, 2).unwrap();
        let mut c = m.clone();
        // Each memoizes a different page, then maps one the other lacks.
        assert_eq!(c.read_u64(0x1000), Ok(1));
        assert_eq!(m.read_u64(0x2000), Ok(2));
        c.write_u64(0x3000, 3).unwrap();
        m.write_u64(0x4000, 4).unwrap();
        c.write_u64(0x1000, 10).unwrap();
        m.write_u64(0x2000, 20).unwrap();
        assert_eq!([0x1000, 0x2000].map(|a| m.read_u64(a)), [Ok(1), Ok(20)]);
        assert_eq!([0x1000, 0x2000].map(|a| c.read_u64(a)), [Ok(10), Ok(2)]);
        assert_eq!(m.read_u64(0x3000), Err(CpuError::UnmappedAddress(0x3000)));
        assert_eq!(c.read_u64(0x4000), Err(CpuError::UnmappedAddress(0x4000)));
        assert_eq!((m.read_u64(0x4000), c.read_u64(0x3000)), (Ok(4), Ok(3)));
    }

    #[test]
    fn a_store_through_the_memo_to_a_code_page_moves_the_epoch() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0x13).unwrap();
        m.fetch_u32(0x1000).unwrap();
        // The fetch memoized the page; the store below finds it there.
        let epoch = m.code_epoch();
        assert_eq!(m.read_u32(0x1000), Ok(0x13));
        assert_eq!(m.code_epoch(), epoch, "reads keep the epoch");
        m.write_u32(0x1004, 0x13).unwrap();
        assert_ne!(m.code_epoch(), epoch);
    }

    #[test]
    fn code_epochs_are_unique_across_instances_and_clones() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0x0000_0013).unwrap();
        let other = Memory::new();
        assert_ne!(m.code_epoch(), other.code_epoch());
        let copy = m.clone();
        assert_ne!(m.code_epoch(), copy.code_epoch());
        assert_eq!(copy.read_u32(0x1000), m.read_u32(0x1000));
    }
}
