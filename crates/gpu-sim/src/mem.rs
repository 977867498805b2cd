//! Device DRAM, page-granular ownership (the ASID model behind MPS-style
//! memory protection), and the driver-level allocator.
//!
//! DRAM is stored sparsely in 64 KiB pages so a simulated 16 GB device does
//! not consume 16 GB of host memory. All driver allocations are rounded to
//! whole pages, matching the large allocation granularity of the real CUDA
//! driver and making page-granular ASID tagging sound.

use crate::fault::{window::DEVICE_BASE, Fault};

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

    /// Read bytes at a device virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if the range exceeds DRAM.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let off = self.offset_of(addr)?;
        if off + buf.len() as u64 > self.capacity {
            return Err(Fault::Unmapped {
                addr: addr + buf.len() as u64,
            });
        }
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
        let off = self.offset_of(addr)?;
        let end = off
            .checked_add(len)
            .filter(|&end| end <= self.capacity)
            .ok_or(Fault::Unmapped {
                addr: addr.wrapping_add(len),
            })?;
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
        let off = self.offset_of(addr)?;
        if off + data.len() as u64 > self.capacity {
            return Err(Fault::Unmapped {
                addr: addr + data.len() as u64,
            });
        }
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
        let off = self.offset_of(addr)?;
        if off + len > self.capacity {
            return Err(Fault::Unmapped { addr: addr + len });
        }
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
        self.read(addr, &mut buf[..size])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Write the low `size` bytes of a little-endian scalar.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] if out of range.
    pub fn write_scalar(&mut self, addr: u64, size: usize, bits: u64) -> Result<(), Fault> {
        debug_assert!(size <= 8);
        let bytes = bits.to_le_bytes();
        self.write(addr, &bytes[..size])
    }

    /// Number of resident (touched) pages — used by memory-footprint
    /// reporting.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
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
