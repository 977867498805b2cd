//! Device DRAM, page-granular ownership (the ASID model behind MPS-style
//! memory protection), and the driver-level allocator.
//!
//! DRAM is stored sparsely in 64 KiB pages so a simulated 16 GB device does
//! not consume 16 GB of host memory. All driver allocations are rounded to
//! whole pages, matching the large allocation granularity of the real CUDA
//! driver and making page-granular ASID tagging sound.

use crate::cache::LINE_SIZE;
use crate::fault::{window::DEVICE_BASE, Fault};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of one DRAM page (allocation and ownership granularity).
pub const PAGE_SIZE: u64 = 64 * 1024;

/// ASID value meaning "no owner" (unallocated page).
pub const NO_OWNER: u32 = 0;

/// Sparse device DRAM with page ownership.
#[derive(Debug)]
pub struct Dram {
    capacity: u64,
    pages: Vec<Option<Box<[u8]>>>,
    owner: Vec<u32>,
}

impl Dram {
    /// Create a DRAM of the given capacity (rounded down to whole pages).
    pub fn new(capacity: u64) -> Self {
        let npages = (capacity / PAGE_SIZE) as usize;
        Dram {
            capacity: npages as u64 * PAGE_SIZE,
            pages: (0..npages).map(|_| None).collect(),
            owner: vec![NO_OWNER; npages],
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Translate a device virtual address to a DRAM offset.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] when the address is below
    /// [`DEVICE_BASE`] or beyond the end of DRAM.
    pub fn offset_of(&self, addr: u64) -> Result<u64, Fault> {
        if addr < DEVICE_BASE || addr - DEVICE_BASE >= self.capacity {
            return Err(Fault::Unmapped { addr });
        }
        Ok(addr - DEVICE_BASE)
    }

    /// The owning ASID of the page containing `addr` ([`NO_OWNER`] if the
    /// page is unallocated).
    pub fn owner_of(&self, addr: u64) -> Result<u32, Fault> {
        let off = self.offset_of(addr)?;
        Ok(self.owner[(off / PAGE_SIZE) as usize])
    }

    /// Tag the pages of `[offset, offset+len)` with an owner.
    pub fn set_owner(&mut self, offset: u64, len: u64, asid: u32) {
        let first = (offset / PAGE_SIZE) as usize;
        let last = (offset + len).div_ceil(PAGE_SIZE) as usize;
        for p in first..last.min(self.owner.len()) {
            self.owner[p] = asid;
        }
    }

    fn page_mut(&mut self, idx: usize) -> &mut [u8] {
        if self.pages[idx].is_none() {
            self.pages[idx] = Some(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        }
        self.pages[idx].as_mut().expect("just populated")
    }

    /// The DRAM offset of `[addr, addr + len)`, once the whole range is
    /// known to lie in DRAM (a `len` that wraps the address space does not).
    fn range_offset(&self, addr: u64, len: u64) -> Result<u64, Fault> {
        let off = self.offset_of(addr)?;
        match off.checked_add(len) {
            Some(end) if end <= self.capacity => Ok(off),
            _ => Err(Fault::Unmapped {
                addr: addr.wrapping_add(len),
            }),
        }
    }

    /// The page and in-page offset of a `size`-byte scalar at `addr`, when
    /// it lies inside one page of DRAM.
    #[inline(always)]
    fn scalar_slot(&self, addr: u64, size: usize) -> Option<(usize, usize)> {
        let off = addr.checked_sub(DEVICE_BASE)?;
        let in_page = (off % PAGE_SIZE) as usize;
        // Capacity is whole pages, so a scalar in one page ends inside it.
        (off < self.capacity && in_page + size <= PAGE_SIZE as usize)
            .then_some(((off / PAGE_SIZE) as usize, in_page))
    }

    /// Read bytes at a device virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if the range exceeds DRAM.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let off = self.range_offset(addr, buf.len() as u64)?;
        let mut pos = 0usize;
        while pos < buf.len() {
            let cur = off + pos as u64;
            let page = (cur / PAGE_SIZE) as usize;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = (buf.len() - pos).min(PAGE_SIZE as usize - in_page);
            match &self.pages[page] {
                Some(p) => buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
        Ok(())
    }

    /// Append the `len` bytes at a device virtual address to `out`: one
    /// copy into the caller's buffer, with no zero-filled staging first.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if the range exceeds DRAM; `out` is
    /// then left as it was.
    pub fn read_append(&self, addr: u64, len: u64, out: &mut Vec<u8>) -> Result<(), Fault> {
        let off = self.range_offset(addr, len)?;
        let end = off + len;
        out.reserve(len as usize);
        let mut cur = off;
        while cur < end {
            let page = (cur / PAGE_SIZE) as usize;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((end - cur) as usize).min(PAGE_SIZE as usize - in_page);
            match &self.pages[page] {
                Some(p) => out.extend_from_slice(&p[in_page..in_page + n]),
                None => out.resize(out.len() + n, 0),
            }
            cur += n as u64;
        }
        Ok(())
    }

    /// Write bytes at a device virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if the range exceeds DRAM.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), Fault> {
        let off = self.range_offset(addr, data.len() as u64)?;
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off + pos as u64;
            let page = (cur / PAGE_SIZE) as usize;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = (data.len() - pos).min(PAGE_SIZE as usize - in_page);
            self.page_mut(page)[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Fill a device range with a byte value (cudaMemset).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if the range exceeds DRAM.
    pub fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), Fault> {
        let off = self.range_offset(addr, len)?;
        let mut pos = 0u64;
        while pos < len {
            let cur = off + pos;
            let page = (cur / PAGE_SIZE) as usize;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((len - pos) as usize).min(PAGE_SIZE as usize - in_page);
            self.page_mut(page)[in_page..in_page + n].fill(byte);
            pos += n as u64;
        }
        Ok(())
    }

    /// Read a little-endian scalar of up to 8 bytes; returns the zero-
    /// extended bit image.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if out of range.
    pub fn read_scalar(&self, addr: u64, size: usize) -> Result<u64, Fault> {
        debug_assert!(size <= 8);
        let mut buf = [0u8; 8];
        match self.scalar_slot(addr, size) {
            Some((page, at)) => {
                if let Some(p) = &self.pages[page] {
                    buf[..size].copy_from_slice(&p[at..at + size]);
                }
            }
            None => self.read(addr, &mut buf[..size])?,
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// The fault [`write_scalar`](Self::write_scalar) would raise, without
    /// writing.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if out of range.
    pub(crate) fn check_scalar(&self, addr: u64, size: usize) -> Result<(), Fault> {
        match self.scalar_slot(addr, size) {
            Some(_) => Ok(()),
            None => self.range_offset(addr, size as u64).map(drop),
        }
    }

    /// Write the low `size` bytes of a little-endian scalar.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if out of range.
    pub fn write_scalar(&mut self, addr: u64, size: usize, bits: u64) -> Result<(), Fault> {
        debug_assert!(size <= 8);
        let bytes = bits.to_le_bytes();
        match self.scalar_slot(addr, size) {
            Some((page, at)) => {
                self.page_mut(page)[at..at + size].copy_from_slice(&bytes[..size]);
                Ok(())
            }
            None => self.write(addr, &bytes[..size]),
        }
    }

    /// Copy `len` bytes from `src` to `dst` (cudaMemcpy device to device),
    /// as if through a buffer, so overlapping ranges copy the source as it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if either range exceeds DRAM, the source
    /// checked first; nothing is allocated or written before both pass.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Fault> {
        self.range_offset(src, len)?;
        self.range_offset(dst, len)?;
        let mut buf = vec![0u8; len as usize];
        self.read(src, &mut buf)?;
        self.write(dst, &buf)
    }

    /// Number of resident (touched) pages — used by memory-footprint
    /// reporting.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// Hashes a cache-line number: one multiply, folded so that lines a power
/// of two apart spread over the low bits a table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// Bytes of cache lines: per line number, a mask with bit `i` set for
/// byte `i` of the line.
pub(crate) type LineBytes = HashMap<u64, u128, BuildHasherDefault<LineHasher>>;

/// The global memory traffic of a block that runs beside others: its
/// writes, held back from DRAM until its turn (per cache line, the bytes
/// written last and which they are), and which bytes it read from DRAM
/// rather than from its own writes. Capacity is retained from block to
/// block.
#[derive(Debug, Default)]
pub(crate) struct AccessLog {
    /// Line number → index in `lines`.
    index: HashMap<u64, u32, BuildHasherDefault<LineHasher>>,
    lines: Vec<LoggedLine>,
    reads: LineBytes,
}

#[derive(Debug, Clone, Copy)]
struct LoggedLine {
    line: u64,
    /// Which bytes of `bytes` were written.
    mask: u128,
    bytes: [u8; LINE_SIZE as usize],
}

/// The mask of `size` bytes at `addr` within its line.
fn byte_mask(addr: u64, size: usize) -> u128 {
    ((1u128 << size) - 1) << (addr % LINE_SIZE)
}

impl AccessLog {
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.lines.clear();
        self.reads.clear();
    }

    /// A naturally aligned scalar of up to 8 bytes as this block sees it:
    /// `dram`'s bytes under the block's own writes. The bytes `dram`
    /// supplied are noted as read.
    #[inline]
    pub(crate) fn read(&mut self, dram: &Dram, addr: u64, size: usize) -> Result<u64, Fault> {
        let bits = dram.read_scalar(addr, size)?;
        let line = addr / LINE_SIZE;
        let want = byte_mask(addr, size);
        let own = match self.index.get(&line) {
            Some(&i) => &self.lines[i as usize],
            None => {
                *self.reads.entry(line).or_default() |= want;
                return Ok(bits);
            }
        };
        if want & !own.mask != 0 {
            *self.reads.entry(line).or_default() |= want & !own.mask;
        }
        let at = (addr % LINE_SIZE) as usize;
        let mut bytes = bits.to_le_bytes();
        for (k, b) in bytes[..size].iter_mut().enumerate() {
            if own.mask >> (at + k) & 1 == 1 {
                *b = own.bytes[at + k];
            }
        }
        Ok(u64::from_le_bytes(bytes))
    }

    /// Log the low `size` bytes of `bits` at `addr` (naturally aligned,
    /// at most 8 bytes, already checked to lie in DRAM).
    pub(crate) fn write(&mut self, addr: u64, size: usize, bits: u64) {
        debug_assert!(size <= 8 && addr.is_multiple_of(size as u64));
        let (line, at) = (addr / LINE_SIZE, (addr % LINE_SIZE) as usize);
        let lines = &mut self.lines;
        let i = *self.index.entry(line).or_insert_with(|| {
            lines.push(LoggedLine {
                line,
                mask: 0,
                bytes: [0; LINE_SIZE as usize],
            });
            (lines.len() - 1) as u32
        });
        let l = &mut lines[i as usize];
        l.bytes[at..at + size].copy_from_slice(&bits.to_le_bytes()[..size]);
        l.mask |= byte_mask(addr, size);
    }

    /// The lines the block wrote or the lines it read from DRAM, whichever
    /// are more.
    pub(crate) fn lines(&self) -> usize {
        self.lines.len().max(self.reads.len())
    }

    /// Whether the block read from DRAM a byte of `written`.
    pub(crate) fn read_any(&self, written: &LineBytes) -> bool {
        let (small, large) = if self.reads.len() <= written.len() {
            (&self.reads, written)
        } else {
            (written, &self.reads)
        };
        small
            .iter()
            .any(|(line, mask)| large.get(line).is_some_and(|m| m & mask != 0))
    }

    /// Add the bytes the block wrote to `written`.
    pub(crate) fn note_writes(&self, written: &mut LineBytes) {
        for l in &self.lines {
            *written.entry(l.line).or_default() |= l.mask;
        }
    }

    /// Write every logged byte to `dram`, one run of written bytes at a
    /// time.
    pub(crate) fn apply(&self, dram: &mut Dram) {
        for l in &self.lines {
            let mut mask = l.mask;
            while mask != 0 {
                let start = mask.trailing_zeros();
                let len = (mask >> start).trailing_ones();
                let (at, end) = (start as usize, (start + len) as usize);
                dram.write(l.line * LINE_SIZE + start as u64, &l.bytes[at..end])
                    .expect("a logged write was checked against DRAM when it was made");
                mask &= u128::MAX.checked_shl(start + len).unwrap_or(0);
            }
        }
    }

    /// Bytes of storage held between blocks.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        (self.index.capacity() + 2 * self.reads.capacity()) * 16
            + self.lines.capacity() * std::mem::size_of::<LoggedLine>()
    }
}

/// A first-fit free-list allocator over device memory: the CUDA-driver
/// analogue behind `cudaMalloc`. Guardian's partition allocator sits *above*
/// this (it reserves all memory once and sub-allocates; see the `guardian`
/// crate).
#[derive(Debug)]
pub struct DriverAllocator {
    /// Free extents as (offset, len), sorted by offset, coalesced.
    free: Vec<(u64, u64)>,
    /// Live allocations: offset → (len, asid).
    allocs: std::collections::HashMap<u64, (u64, u32)>,
    capacity: u64,
}

impl DriverAllocator {
    /// Manage `[0, capacity)` (device offsets, not VAs).
    pub fn new(capacity: u64) -> Self {
        DriverAllocator {
            free: vec![(0, capacity)],
            allocs: std::collections::HashMap::new(),
            capacity,
        }
    }

    /// Allocate `bytes` (rounded up to whole pages) for `asid`.
    ///
    /// Returns the device offset, or `None` when fragmented/full.
    pub fn alloc(&mut self, bytes: u64, asid: u32) -> Option<u64> {
        let len = bytes.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pos = self.free.iter().position(|&(_, flen)| flen >= len)?;
        let (foff, flen) = self.free[pos];
        if flen == len {
            self.free.remove(pos);
        } else {
            self.free[pos] = (foff + len, flen - len);
        }
        self.allocs.insert(foff, (len, asid));
        Some(foff)
    }

    /// Allocate at a specific alignment (power of two, ≥ page size). Used
    /// by Guardian's manager to reserve its power-of-two aligned pool.
    pub fn alloc_aligned(&mut self, bytes: u64, align: u64, asid: u32) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        let len = bytes.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pos = self.free.iter().position(|&(foff, flen)| {
            let aligned = foff.next_multiple_of(align);
            aligned + len <= foff + flen
        })?;
        let (foff, flen) = self.free[pos];
        let aligned = foff.next_multiple_of(align);
        // Split: [foff, aligned) stays free, allocate [aligned, aligned+len),
        // tail stays free.
        self.free.remove(pos);
        if aligned > foff {
            self.free.insert(pos, (foff, aligned - foff));
        }
        let tail_off = aligned + len;
        let tail_len = foff + flen - tail_off;
        if tail_len > 0 {
            let insert_at = self
                .free
                .iter()
                .position(|&(o, _)| o > tail_off)
                .unwrap_or(self.free.len());
            self.free.insert(insert_at, (tail_off, tail_len));
        }
        self.allocs.insert(aligned, (len, asid));
        Some(aligned)
    }

    /// Release an allocation by its offset.
    ///
    /// Returns the freed length, or `None` for an unknown offset.
    pub fn free(&mut self, offset: u64) -> Option<u64> {
        let (len, _) = self.allocs.remove(&offset)?;
        // Insert sorted and coalesce with neighbours.
        let pos = self
            .free
            .iter()
            .position(|&(o, _)| o > offset)
            .unwrap_or(self.free.len());
        self.free.insert(pos, (offset, len));
        // Coalesce around `pos`.
        if pos + 1 < self.free.len() {
            let (o, l) = self.free[pos];
            let (no, nl) = self.free[pos + 1];
            if o + l == no {
                self.free[pos] = (o, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (po, pl) = self.free[pos - 1];
            let (o, l) = self.free[pos];
            if po + pl == o {
                self.free[pos - 1] = (po, pl + l);
                self.free.remove(pos);
            }
        }
        Some(len)
    }

    /// Length and owner of the allocation at `offset`.
    pub fn lookup(&self, offset: u64) -> Option<(u64, u32)> {
        self.allocs.get(&offset).copied()
    }

    /// Total bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.allocs.values().map(|(l, _)| l).sum()
    }

    /// Total bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::window::DEVICE_BASE;

    #[test]
    fn read_write_round_trip() {
        let mut d = Dram::new(4 * PAGE_SIZE);
        let addr = DEVICE_BASE + 100;
        d.write(addr, b"hello world").unwrap();
        let mut buf = [0u8; 11];
        d.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn read_append_matches_read_across_pages() {
        let mut d = Dram::new(4 * PAGE_SIZE);
        let addr = DEVICE_BASE + PAGE_SIZE - 3;
        d.write(addr, &[1, 2, 3, 4, 5]).unwrap();
        // Spans a written page, the page it spills into, and an
        // untouched page that reads as zeros.
        let len = PAGE_SIZE + 8;
        let mut want = vec![0u8; len as usize];
        d.read(addr, &mut want).unwrap();
        let mut got = vec![0xEE];
        d.read_append(addr, len, &mut got).unwrap();
        assert_eq!(got[0], 0xEE);
        assert_eq!(&got[1..], &want[..]);
        // Out of range (or overflowing) appends nothing.
        assert!(d.read_append(addr, 4 * PAGE_SIZE, &mut got).is_err());
        assert!(d.read_append(addr, u64::MAX, &mut got).is_err());
        assert_eq!(got.len(), 1 + len as usize);
    }

    #[test]
    fn page_crossing_access() {
        let mut d = Dram::new(4 * PAGE_SIZE);
        let addr = DEVICE_BASE + PAGE_SIZE - 4;
        d.write_scalar(addr, 8, 0xDEADBEEF_CAFEBABE).unwrap();
        assert_eq!(d.read_scalar(addr, 8).unwrap(), 0xDEADBEEF_CAFEBABE);
        assert_eq!(d.resident_pages(), 2);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let d = Dram::new(PAGE_SIZE);
        assert_eq!(d.read_scalar(DEVICE_BASE + 16, 8).unwrap(), 0);
        assert_eq!(d.resident_pages(), 0);
    }

    #[test]
    fn out_of_range_faults() {
        let mut d = Dram::new(PAGE_SIZE);
        assert!(matches!(
            d.read_scalar(DEVICE_BASE + PAGE_SIZE, 4),
            Err(Fault::Unmapped { .. })
        ));
        assert!(d.write(DEVICE_BASE - 8, &[0u8; 4]).is_err());
        // Range straddling the end also faults.
        assert!(d.write(DEVICE_BASE + PAGE_SIZE - 2, &[0u8; 4]).is_err());
    }

    #[test]
    fn memset_fills() {
        let mut d = Dram::new(2 * PAGE_SIZE);
        d.fill(DEVICE_BASE + 10, 0xAB, PAGE_SIZE).unwrap();
        assert_eq!(d.read_scalar(DEVICE_BASE + 10, 1).unwrap(), 0xAB);
        assert_eq!(
            d.read_scalar(DEVICE_BASE + 10 + PAGE_SIZE - 1, 1).unwrap(),
            0xAB
        );
        assert_eq!(d.read_scalar(DEVICE_BASE + 10 + PAGE_SIZE, 1).unwrap(), 0);
    }

    #[test]
    fn ranges_that_wrap_or_overrun_fault_without_touching_a_page() {
        let mut d = Dram::new(PAGE_SIZE);
        let at = DEVICE_BASE + 64;
        for len in [u64::MAX - 4096, u64::MAX, PAGE_SIZE, 1 << 40] {
            let fault = Err(Fault::Unmapped {
                addr: at.wrapping_add(len),
            });
            assert_eq!(d.fill(at, 7, len), fault, "fill {len:#x}");
            let from = Err(Fault::Unmapped {
                addr: (at + 64).wrapping_add(len),
            });
            assert_eq!(d.copy(at, at + 64, len), from, "copy from {len:#x}");
            // A source in range does not license the destination.
            let len = len.min(PAGE_SIZE);
            let to = Err(Fault::Unmapped {
                addr: at + 64 + len,
            });
            assert_eq!(d.copy(at + 64, DEVICE_BASE, len), to, "copy to");
        }
        assert_eq!(d.resident_pages(), 0);
        // In range, an overlapping copy moves the source as it was.
        d.write(at, &[1, 2, 3, 4]).unwrap();
        d.copy(at + 1, at, 4).unwrap();
        assert_eq!(d.read_scalar(at, 8).unwrap(), 0x04_0302_0101);
    }

    #[test]
    fn scalar_fast_path_agrees_with_the_range_path() {
        let mut d = Dram::new(2 * PAGE_SIZE);
        let end = DEVICE_BASE + 2 * PAGE_SIZE;
        let addrs = [
            DEVICE_BASE - 4,
            DEVICE_BASE,
            DEVICE_BASE + PAGE_SIZE - 8,
            DEVICE_BASE + PAGE_SIZE - 3,
            end - 8,
            end - 3,
            end,
            u64::MAX - 2,
        ];
        for (i, addr) in addrs.into_iter().enumerate() {
            for size in [1, 2, 4, 8] {
                let bits = 0x0102_0304_0506_0708u64.wrapping_mul(i as u64 + 1);
                let wrote = d.write_scalar(addr, size, bits);
                let mut want = [0u8; 8];
                let read = d.read(addr, &mut want[..size]);
                assert_eq!(wrote, read, "{addr:#x}/{size}");
                assert_eq!(
                    d.read_scalar(addr, size),
                    read.map(|()| u64::from_le_bytes(want)),
                    "{addr:#x}/{size}"
                );
            }
        }
    }

    #[test]
    fn ownership_tagging() {
        let mut d = Dram::new(8 * PAGE_SIZE);
        d.set_owner(2 * PAGE_SIZE, 2 * PAGE_SIZE, 7);
        assert_eq!(d.owner_of(DEVICE_BASE + 2 * PAGE_SIZE).unwrap(), 7);
        assert_eq!(d.owner_of(DEVICE_BASE + 3 * PAGE_SIZE).unwrap(), 7);
        assert_eq!(d.owner_of(DEVICE_BASE + 4 * PAGE_SIZE).unwrap(), NO_OWNER);
        assert_eq!(d.owner_of(DEVICE_BASE).unwrap(), NO_OWNER);
    }

    #[test]
    fn allocator_first_fit_and_free() {
        let mut a = DriverAllocator::new(10 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE, 1).unwrap();
        let y = a.alloc(2 * PAGE_SIZE, 1).unwrap();
        let z = a.alloc(PAGE_SIZE, 2).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, PAGE_SIZE);
        assert_eq!(z, 3 * PAGE_SIZE);
        assert_eq!(a.used_bytes(), 4 * PAGE_SIZE);
        // Free middle, reallocate same size reuses the hole.
        a.free(y).unwrap();
        let y2 = a.alloc(2 * PAGE_SIZE, 3).unwrap();
        assert_eq!(y2, PAGE_SIZE);
    }

    #[test]
    fn allocator_rounds_to_pages() {
        let mut a = DriverAllocator::new(10 * PAGE_SIZE);
        let x = a.alloc(1, 1).unwrap();
        assert_eq!(a.lookup(x).unwrap().0, PAGE_SIZE);
    }

    #[test]
    fn allocator_coalesces_on_free() {
        let mut a = DriverAllocator::new(4 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE, 1).unwrap();
        let y = a.alloc(PAGE_SIZE, 1).unwrap();
        let z = a.alloc(PAGE_SIZE, 1).unwrap();
        let w = a.alloc(PAGE_SIZE, 1).unwrap();
        a.free(y).unwrap();
        a.free(w).unwrap();
        a.free(z).unwrap();
        a.free(x).unwrap();
        // Everything coalesced back: a full-size allocation succeeds.
        assert!(a.alloc(4 * PAGE_SIZE, 1).is_some());
    }

    #[test]
    fn aligned_allocation() {
        let mut a = DriverAllocator::new(64 * PAGE_SIZE);
        let _pad = a.alloc(PAGE_SIZE, 1).unwrap();
        let big = a.alloc_aligned(16 * PAGE_SIZE, 16 * PAGE_SIZE, 2).unwrap();
        assert_eq!(big % (16 * PAGE_SIZE), 0);
        // The gap before the aligned block is still allocatable.
        let gap = a.alloc(PAGE_SIZE, 1).unwrap();
        assert!(gap < big);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = DriverAllocator::new(2 * PAGE_SIZE);
        assert!(a.alloc(PAGE_SIZE, 1).is_some());
        assert!(a.alloc(PAGE_SIZE, 1).is_some());
        assert!(a.alloc(PAGE_SIZE, 1).is_none());
    }

    #[test]
    fn double_free_returns_none() {
        let mut a = DriverAllocator::new(4 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE, 1).unwrap();
        assert!(a.free(x).is_some());
        assert!(a.free(x).is_none());
    }
}
