//! Sparse, page-granular physical memory and the instructions decoded
//! from it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;

use riscv_isa::instr::{Instr, OperandFacts};
use riscv_isa::Op;

use crate::CpuError;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Instruction slots in one 4 KiB page.
const SLOTS_PER_PAGE: usize = 1 << (PAGE_SHIFT - 2);

/// One decoded instruction: the flat op the core executes and
/// retirements report, its operand facts, and the length of the block
/// that starts at it.
///
/// Thirty-two bytes, aligned to 32 so that no slot straddles two cache
/// lines: unaligned, every other slot did, which cost runs that step fresh
/// cores, such as lockstep's, about 7%.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
pub(crate) struct Slot {
    pub(crate) op: Op,
    pub(crate) facts: OperandFacts,
    /// Ops from this one to the end of its block, this one included.
    pub(crate) block: u16,
}

/// Where an instruction sits in a block: see [`Memory::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Falls through to the next word within its block.
    Inner,
    /// Ends its block: a jump, a branch or a RoCC command.
    Last,
    /// A block of its own: a CSR access, `ecall`, `ebreak` or `mret`.
    Alone,
}

fn role(op: &Op) -> Role {
    use Op::*;
    match op {
        Jal { .. } | Jalr { .. } | Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. }
        | Bltu { .. } | Bgeu { .. } | Custom(_) => Role::Last,
        Csrrw { .. } | Csrrs { .. } | Csrrc { .. } | Csrrwi { .. } | Csrrsi { .. }
        | Csrrci { .. } | Ecall | Ebreak | Mret => Role::Alone,
        _ => Role::Inner,
    }
}

/// One page's decoded instructions, filled lazily block by block.
type DecodedSlots = [Option<Slot>; SLOTS_PER_PAGE];

/// One mapped 4 KiB page.
#[derive(Debug, Clone)]
struct Page {
    bytes: Box<[u8; PAGE_SIZE as usize]>,
    /// Instructions decoded from `bytes` since its last write; allocated
    /// by the first successful decode.
    decoded: Option<Box<DecodedSlots>>,
}

/// Page index that no address maps to (indices have at most 52 bits).
const NO_PAGE: u64 = u64::MAX;

/// Byte-addressable sparse memory backed by 4 KiB pages.
///
/// Reads of unmapped pages are an error (the guest touched memory the
/// program never initialized or reserved); writes map pages on demand, up
/// to [`Memory::MAX_PAGES`]. A write that would map one more fails with
/// [`CpuError::MemoryLimit`] and changes nothing, so under every harness a
/// runaway store loop stops at 16 MiB; only mapping a page checks this.
///
/// Every access looks its page up once; an access that straddles a page
/// boundary looks up each page it touches. A lookup of the page the
/// previous successful lookup found is a compare against a one-entry memo
/// instead of a map search. Pages are never unmapped, so a memoized page
/// stays valid; a lookup that fails leaves the memo as it was.
///
/// Each page also holds the instructions decoded from it, one slot per
/// word, filled a block at a time when the core first fetches from that
/// block. Any write to a page — a guest store, an accelerator write
/// through the RoCC memory port, a harness write — drops that page's
/// decoded slots and no other page's, so patched code always executes as
/// written. Fetches keep a memo of their own, so they and data accesses do
/// not evict each other. A clone carries its decoded slots with its bytes,
/// and replacing a core's memory wholesale replaces them together.
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
#[derive(Debug, Clone)]
pub struct Memory {
    /// The mapped pages, in the order they were mapped.
    pages: Vec<Page>,
    /// Page index to position in `pages`.
    index: BTreeMap<u64, usize>,
    /// The last page index looked up successfully and its position.
    memo: Cell<(u64, usize)>,
    /// The index and position of the page the last fetch came from.
    fetch_at: (u64, usize),
    /// That page's decoded slots, taken out of it until a fetch from
    /// another page puts them back.
    fetch_slots: Option<Box<DecodedSlots>>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: BTreeMap::new(),
            memo: Cell::new((NO_PAGE, 0)),
            fetch_at: (NO_PAGE, 0),
            fetch_slots: None,
        }
    }
}

/// Splits the `len` bytes at `addr` at page boundaries: for each piece, in
/// address order, its address, its byte range within its page and its
/// range within the `len` bytes.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let n = (len - done).min(PAGE_SIZE as usize - offset);
            done += n;
            (at, offset..offset + n, done - n..done)
        })
    })
}

impl Memory {
    /// The most 4 KiB pages a memory maps: 16 MiB of guest memory.
    pub const MAX_PAGES: usize = 4096;

    /// An empty memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// The mapped pages in address order, each as its base address and its
    /// bytes, for harnesses that compare or digest whole memories.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.index
            .iter()
            .map(|(&index, &at)| (index << PAGE_SHIFT, &self.pages[at].bytes[..]))
    }

    /// The position in `pages` of the page with index `index`, if mapped.
    ///
    /// This and the accessors below are `#[inline(always)]`: the executor
    /// is compiled into each timing model's crate, and with `#[inline]` the
    /// compiler kept the page lookup of loads out of line in some of them.
    #[inline(always)]
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

    /// Maps a zeroed page for a write to `addr`; returns its position, or
    /// [`CpuError::MemoryLimit`] if [`Memory::MAX_PAGES`] pages are mapped.
    #[cold]
    fn map(&mut self, addr: u64) -> Result<usize, CpuError> {
        if self.pages.len() == Self::MAX_PAGES {
            return Err(CpuError::MemoryLimit(addr));
        }
        self.pages.push(Page {
            bytes: Box::new([0; PAGE_SIZE as usize]),
            decoded: None,
        });
        self.index.insert(addr >> PAGE_SHIFT, self.pages.len() - 1);
        Ok(self.pages.len() - 1)
    }

    /// The page with index `index`, if mapped.
    #[inline(always)]
    fn page(&self, index: u64) -> Option<&Page> {
        self.find(index).map(|at| &self.pages[at])
    }

    /// The decoded instruction at the 4-byte-aligned `pc`: a slot read
    /// while `pc` stays on the page of the last fetch and its slot is
    /// filled, else a second read once [`Memory::decode`] has filled it.
    ///
    /// A slot's `block` counts the ops from it to the end of its block, a
    /// straight run of words on one page that the core may execute
    /// without fetching again: it ends after the first jump, branch or
    /// RoCC command, before the first word that does not decode, and at
    /// the page end. A CSR access, `ecall`, `ebreak` or `mret` is a block
    /// of its own, so a timing model has charged everything before it when
    /// it reads the cycle count. The length depends only on the page's
    /// bytes, which is why a write drops the page's slots together.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::FetchFault`] if the page is unmapped and
    /// [`CpuError::Decode`] if the word is not an instruction.
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u64) -> Result<Slot, CpuError> {
        debug_assert!(pc.is_multiple_of(4), "fetch from misaligned pc {pc:#x}");
        loop {
            if self.fetch_at.0 == pc >> PAGE_SHIFT {
                if let Some(slots) = &self.fetch_slots {
                    if let Some(hit) = slots[(pc as usize >> 2) % SLOTS_PER_PAGE] {
                        return Ok(hit);
                    }
                }
            }
            self.decode(pc)?;
        }
    }

    /// The slot at `pc` within the block the last [`Memory::fetch`]
    /// started, or `None` once a write has dropped that page's slots.
    #[inline]
    pub(crate) fn next_in_block(&self, pc: u64) -> Option<Slot> {
        debug_assert_eq!(self.fetch_at.0, pc >> PAGE_SHIFT, "block left its page");
        self.fetch_slots.as_ref()?[(pc as usize >> 2) % SLOTS_PER_PAGE]
    }

    /// [`Memory::fetch`] past the slot read: makes `pc`'s page the fetch
    /// page, putting the previous one's slots back into it, then decodes
    /// the block at `pc` if its slot is empty. Maps nothing, and allocates
    /// a page's slots only once an instruction on it has decoded, so
    /// fetches that fault allocate nothing. It does not touch the data
    /// memo.
    ///
    /// Out of line: inlined, the new slot array is built in `step`'s stack
    /// frame, which every step then probes page by page.
    #[cold]
    #[inline(never)]
    fn decode(&mut self, pc: u64) -> Result<(), CpuError> {
        let index = pc >> PAGE_SHIFT;
        if self.fetch_at.0 != index {
            let at = *self.index.get(&index).ok_or(CpuError::FetchFault(pc))?;
            if let Some(slots) = self.fetch_slots.take() {
                self.pages[self.fetch_at.1].decoded = Some(slots);
            }
            self.fetch_slots = self.pages[at].decoded.take();
            self.fetch_at = (index, at);
        }
        let first = (pc as usize >> 2) % SLOTS_PER_PAGE;
        if self
            .fetch_slots
            .as_ref()
            .is_some_and(|slots| slots[first].is_some())
        {
            return Ok(());
        }
        let bytes = &self.pages[self.fetch_at.1].bytes;
        let decode = |slot: usize| {
            let mut word = [0; 4];
            word.copy_from_slice(&bytes[4 * slot..4 * slot + 4]);
            Instr::decode(u32::from_le_bytes(word))
        };
        let filled = |instr: Instr| Slot {
            op: Op::from(instr),
            facts: instr.operand_facts(),
            block: 0,
        };
        let slot = filled(decode(first).map_err(CpuError::Decode)?);
        let slots = self
            .fetch_slots
            .get_or_insert_with(|| Box::new([None; SLOTS_PER_PAGE]));
        slots[first] = Some(slot);
        // Decode on to the block's end, or to a decoded slot whose block
        // this one's joins.
        let mut end = first + 1;
        if role(&slot.op) == Role::Inner {
            while end < SLOTS_PER_PAGE {
                if let Some(slot) = slots[end] {
                    if role(&slot.op) != Role::Alone {
                        end += usize::from(slot.block);
                    }
                    break;
                }
                let Ok(instr) = decode(end) else { break };
                let slot = filled(instr);
                let role = role(&slot.op);
                if role == Role::Alone {
                    break;
                }
                slots[end] = Some(slot);
                end += 1;
                if role == Role::Last {
                    break;
                }
            }
        }
        for (slot, block) in slots[first..end].iter_mut().zip((1..=end - first).rev()) {
            if let Some(slot) = slot {
                slot.block = block as u16;
            }
        }
        Ok(())
    }

    /// The page holding `addr`, mapping it on demand (see [`Memory::map`]).
    /// Drops the page's decoded slots, since the caller writes through the
    /// bytes.
    #[inline(always)]
    fn page_for_write(&mut self, addr: u64) -> Result<&mut [u8; PAGE_SIZE as usize], CpuError> {
        let index = addr >> PAGE_SHIFT;
        let at = match self.find(index) {
            Some(at) => at,
            None => self.map(addr)?,
        };
        if index == self.fetch_at.0 || self.pages[at].decoded.is_some() {
            self.drop_decoded(index, at);
        }
        Ok(&mut self.pages[at].bytes)
    }

    /// Drops the decoded slots of page `index` at position `at`, whether
    /// they are in the page or held as the fetch page's. Out of line, so
    /// that stores to data pages stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn drop_decoded(&mut self, index: u64, at: usize) {
        if index == self.fetch_at.0 {
            self.fetch_slots = None;
        }
        self.pages[at].decoded = None;
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
        for (at, in_page, in_out) in pieces(addr, out.len()) {
            let page = self
                .page(at >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(at))?;
            out[in_out].copy_from_slice(&page.bytes[in_page]);
        }
        Ok(())
    }

    /// Copies `bytes` to `addr` page by page, once a first lookup of each
    /// page has shown that the pages to map fit the bound; else fails at
    /// the first byte whose page would pass it. Out of line: only bulk
    /// writes and writes that straddle a page boundary come here.
    #[inline(never)]
    fn write_from(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CpuError> {
        let free = Self::MAX_PAGES - self.pages.len();
        if let Some((at, ..)) = pieces(addr, bytes.len())
            .filter(|(at, ..)| self.find(at >> PAGE_SHIFT).is_none())
            .nth(free)
        {
            return Err(CpuError::MemoryLimit(at));
        }
        for (at, in_page, in_bytes) in pieces(addr, bytes.len()) {
            self.page_for_write(at)?[in_page].copy_from_slice(&bytes[in_bytes]);
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] if the page was never written.
    #[inline(always)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, CpuError> {
        Ok(self.read_le::<1>(addr)?[0])
    }

    /// Writes one byte, mapping the page on demand.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::MemoryLimit`] if the write would map a page past
    /// [`Memory::MAX_PAGES`]; it then changes nothing.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), CpuError> {
        self.write_le(addr, [value])
    }

    /// Reads `N` little-endian bytes: a fixed-size copy when they lie in
    /// one page, else page by page.
    #[inline(always)]
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
    #[inline(always)]
    fn write_le<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), CpuError> {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + N <= PAGE_SIZE as usize {
            self.page_for_write(addr)?[offset..offset + N].copy_from_slice(&bytes);
            Ok(())
        } else {
            self.write_from(addr, &bytes)
        }
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline(always)]
    pub fn read_u16(&self, addr: u64) -> Result<u16, CpuError> {
        Ok(u16::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline(always)]
    pub fn read_u32(&self, addr: u64) -> Result<u32, CpuError> {
        Ok(u32::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    #[inline(always)]
    pub fn read_u64(&self, addr: u64) -> Result<u64, CpuError> {
        Ok(u64::from_le_bytes(self.read_le(addr)?))
    }

    /// Writes a little-endian u16.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline(always)]
    pub fn write_u16(&mut self, addr: u64, value: u16) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes())
    }

    /// Writes a little-endian u32.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes())
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    #[inline(always)]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), CpuError> {
        self.write_le(addr, value.to_le_bytes())
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`]: if the bytes would need more pages than
    /// the bound leaves, none of them is written.
    pub fn load_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CpuError> {
        self.write_from(addr, bytes)
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
        for (at, in_page, _) in pieces(addr, len) {
            let page = self
                .page(at >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(at))?;
            out.extend_from_slice(&page.bytes[in_page]);
        }
        Ok(out)
    }
}

#[cfg(test)]
impl Memory {
    /// Indices of the pages holding decoded slots, ascending.
    pub(crate) fn decoded_pages(&self) -> Vec<u64> {
        self.index
            .iter()
            .filter(|&(&index, &at)| {
                self.pages[at].decoded.is_some()
                    || (index == self.fetch_at.0 && self.fetch_slots.is_some())
            })
            .map(|(&index, _)| index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::OpImmOp;
    use riscv_isa::Reg;

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
        assert_eq!(m.pages().count(), 2);
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
        assert_eq!(m.pages().count(), 4);
        assert_eq!(m.read_bytes(0x1F00, bytes.len()).unwrap(), bytes);
        assert_eq!(m.read_u8(0x1F00 + 8999).unwrap(), bytes[8999]);
    }

    #[test]
    fn a_write_past_the_page_bound_changes_nothing() {
        let mut m = Memory::new();
        for page in 0..Memory::MAX_PAGES as u64 {
            m.write_u8(page << PAGE_SHIFT, page as u8).unwrap();
        }
        let last = (Memory::MAX_PAGES as u64 - 1) << PAGE_SHIFT;
        let contents = |m: &Memory| {
            m.pages()
                .map(|(base, bytes)| (base, bytes.to_vec()))
                .collect::<Vec<_>>()
        };
        let full = contents(&m);
        // A new page, a store straddling a mapped page and an unmapped
        // one, and a bulk write past the bound: each fails whole.
        let next = last + PAGE_SIZE;
        assert_eq!(m.write_u64(next, 1), Err(CpuError::MemoryLimit(next)));
        assert_eq!(m.write_u64(next - 4, 1), Err(CpuError::MemoryLimit(next)));
        assert_eq!(
            m.load_bytes(last, &[7; 2 * PAGE_SIZE as usize]),
            Err(CpuError::MemoryLimit(next))
        );
        assert_eq!(contents(&m), full);
        // Mapped pages still take writes.
        m.write_u64(last + 8, 2).unwrap();
        assert_eq!(m.read_u64(last + 8), Ok(2));
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

    /// The instruction [`Memory::fetch`] decodes at `pc`.
    fn fetched(m: &mut Memory, pc: u64) -> Result<Instr, CpuError> {
        m.fetch(pc).map(|slot| Instr::from(slot.op))
    }

    /// `addi a0, a0, imm`.
    fn bump_a0(imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm,
        }
    }

    fn word(instr: Instr) -> u32 {
        instr.encode().unwrap()
    }

    #[test]
    fn fetch_miss_reports_a_fetch_fault() {
        let mut m = Memory::new();
        assert_eq!(fetched(&mut m, 0x1000), Err(CpuError::FetchFault(0x1000)));
        m.write_u32(0x1004, word(Instr::NOP)).unwrap();
        assert_eq!(fetched(&mut m, 0x1004), Ok(Instr::NOP));
        assert_eq!(fetched(&mut m, 0x2000), Err(CpuError::FetchFault(0x2000)));
        assert_eq!(m.decoded_pages(), [0x1]);
    }

    #[test]
    fn fetching_maps_nothing_and_leaves_the_contents_unchanged() {
        let mut m = Memory::new();
        m.write_u32(0x3000, word(Instr::NOP)).unwrap();
        m.write_u32(0x1004, word(Instr::NOP)).unwrap();
        m.write_u64(0x1008, 0x1122_3344_5566_7788).unwrap();
        let contents = |m: &Memory| {
            [0x1000, 0x3000].map(|base| m.read_bytes(base, PAGE_SIZE as usize).unwrap())
        };
        let before = contents(&m);
        fetched(&mut m, 0x3000).unwrap();
        fetched(&mut m, 0x1004).unwrap();
        let _ = fetched(&mut m, 0x2000);
        assert_eq!(m.pages().count(), 2);
        assert_eq!(contents(&m), before);
        assert_eq!(m.read_u8(0x2000), Err(CpuError::UnmappedAddress(0x2000)));
    }

    #[test]
    fn a_write_drops_only_the_written_pages_decoded_slots() {
        let mut m = Memory::new();
        m.write_u32(0x1000, word(bump_a0(1))).unwrap();
        m.write_u32(0x2000, word(bump_a0(2))).unwrap();
        m.write_u64(0x5000, 7).unwrap();
        assert_eq!(fetched(&mut m, 0x1000), Ok(bump_a0(1)));
        assert_eq!(fetched(&mut m, 0x2000), Ok(bump_a0(2)));
        assert_eq!(m.decoded_pages(), [0x1, 0x2]);
        m.write_u64(0x5000, 8).unwrap();
        assert_eq!(
            m.decoded_pages(),
            [0x1, 0x2],
            "a data-page write drops nothing"
        );
        // The top byte of `addi`'s word holds imm[11:4]: 1 becomes 17.
        m.write_u8(0x1003, 0x01).unwrap();
        assert_eq!(m.decoded_pages(), [0x2], "only the written page's slots go");
        assert_eq!(fetched(&mut m, 0x1000), Ok(bump_a0(17)));
        // A write to the page fetched from last drops its slots as well.
        m.write_u32(0x1000, word(bump_a0(5))).unwrap();
        assert_eq!(m.decoded_pages(), [0x2]);
        assert_eq!(fetched(&mut m, 0x1000), Ok(bump_a0(5)));
        // A clone carries the decoded slots; each then patches on its own.
        let mut c = m.clone();
        assert_eq!(c.decoded_pages(), [0x1, 0x2]);
        c.write_u32(0x2000, word(bump_a0(9))).unwrap();
        assert_eq!(fetched(&mut c, 0x2000), Ok(bump_a0(9)));
        assert_eq!(fetched(&mut m, 0x2000), Ok(bump_a0(2)));
        // A write straddling two pages drops both.
        m.write_u64(0x1FFC, 0).unwrap();
        assert_eq!(m.decoded_pages(), []);
    }

    #[test]
    fn a_slot_fills_one_aligned_half_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 32);
        assert_eq!(std::mem::align_of::<Slot>(), 32);
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
        assert_eq!(fetched(&mut m, 0x7000), Err(CpuError::FetchFault(0x7000)));
        m.write_u32(0x7000, word(Instr::NOP)).unwrap();
        assert_eq!(fetched(&mut m, 0x7000), Ok(Instr::NOP));
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
}
