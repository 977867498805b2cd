//! Guardian's GPU memory partitioning (§4.2.1, §4.4).
//!
//! The grdManager reserves (nearly) all GPU memory once, then carves it
//! into **contiguous, power-of-two sized, power-of-two aligned** partitions
//! — one per tenant. The power-of-two discipline is what makes bitwise
//! address fencing possible (`mask = size - 1`), and contiguity is what
//! lets the bounds live in two registers instead of per-allocation
//! metadata (the paper's "lightweight bounds checking" design point).
//!
//! A buddy allocator manages partitions; a first-fit region allocator
//! serves `cudaMalloc`/`cudaFree` *inside* each partition (PyTorch and
//! TensorFlow use power-of-two caching allocators by default, §4.4, so
//! power-of-two partition sizing matches framework behaviour).

use std::collections::HashMap;
use std::fmt;

/// Minimum partition size (1 MiB).
pub const MIN_PARTITION: u64 = 1 << 20;

/// The widest access a kernel can make (a 128-bit vector). Every fencing
/// mode confines an access by its *first* byte and the device faults a
/// misaligned one, so the whole access stays inside a partition exactly
/// when the partition's base and size are multiples of this.
pub const MAX_ACCESS_WIDTH: u64 = 16;

/// Allocation granularity inside a partition (256 B, CUDA's `cudaMalloc`
/// alignment).
pub const SUBALLOC_ALIGN: u64 = 256;

/// A tenant's memory partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Absolute device base address (aligned to `size`).
    pub base: u64,
    /// Power-of-two size in bytes.
    pub size: u64,
}

impl Partition {
    /// The bitwise-fencing mask (`size - 1`, §4.3).
    pub fn mask(&self) -> u64 {
        self.size - 1
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether `[addr, addr+len)` lies entirely inside the partition
    /// (overflow-safe).
    pub fn contains_range(&self, addr: u64, len: u64) -> bool {
        if addr < self.base {
            return false;
        }
        let off = addr - self.base;
        off <= self.size && self.size - off >= len
    }
}

/// Errors from the partition allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No free partition of the requested size.
    OutOfPartitions,
    /// The partition's internal heap is exhausted.
    PartitionFull,
    /// Free of an unknown pointer.
    InvalidFree,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfPartitions => f.write_str("no free partition of requested size"),
            AllocError::PartitionFull => f.write_str("partition heap exhausted"),
            AllocError::InvalidFree => f.write_str("invalid free"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Buddy allocator over the reserved pool.
#[derive(Debug)]
pub struct PartitionAllocator {
    pool_base: u64,
    pool_size: u64,
    min_order: u32,
    /// `free[o]` holds free block offsets of size `MIN_PARTITION << o`.
    free: Vec<Vec<u64>>,
    allocated: HashMap<u64, u32>, // offset -> order
}

impl PartitionAllocator {
    /// Manage a pool at `pool_base` of `pool_size` bytes. Both must be
    /// powers of two and `pool_base` must be aligned to `pool_size` so
    /// every buddy block is aligned to its own size (the fencing
    /// precondition).
    ///
    /// # Panics
    ///
    /// Panics if the alignment preconditions are violated.
    pub fn new(pool_base: u64, pool_size: u64) -> Self {
        assert!(pool_size.is_power_of_two(), "pool size must be 2^k");
        assert!(pool_size >= MIN_PARTITION, "pool smaller than a partition");
        assert_eq!(
            pool_base % pool_size,
            0,
            "pool base must be aligned to pool size"
        );
        let max_order = (pool_size / MIN_PARTITION).ilog2();
        let mut free = vec![Vec::new(); (max_order + 1) as usize];
        free[max_order as usize].push(0);
        PartitionAllocator {
            pool_base,
            pool_size,
            min_order: 0,
            free,
            allocated: HashMap::new(),
        }
    }

    /// Buddy order for a request, or `u32::MAX` for sizes beyond any
    /// pool (2^63 bytes and up have no power-of-two rounding in u64).
    /// The sentinel exceeds every real order, so `alloc` reports
    /// `OutOfPartitions` and `can_alloc` says no — a hostile
    /// `Connect { mem_requirement: u64::MAX }` must not panic the
    /// control plane.
    fn order_of(&self, bytes: u64) -> u32 {
        match bytes.max(MIN_PARTITION).checked_next_power_of_two() {
            Some(size) => (size / MIN_PARTITION).ilog2(),
            None => u32::MAX,
        }
    }

    /// Allocate a partition of at least `bytes` (rounded up to a power of
    /// two).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfPartitions`] when the pool cannot satisfy it.
    pub fn alloc(&mut self, bytes: u64) -> Result<Partition, AllocError> {
        let want = self.order_of(bytes);
        if want as usize >= self.free.len() {
            return Err(AllocError::OutOfPartitions);
        }
        // Find the smallest order >= want with a free block.
        let mut have = None;
        for o in want..self.free.len() as u32 {
            if !self.free[o as usize].is_empty() {
                have = Some(o);
                break;
            }
        }
        let mut o = have.ok_or(AllocError::OutOfPartitions)?;
        let off = self.free[o as usize].pop().expect("non-empty");
        // Split down to the wanted order.
        while o > want {
            o -= 1;
            let half = MIN_PARTITION << o;
            self.free[o as usize].push(off + half);
        }
        self.allocated.insert(off, want);
        let part = Partition {
            base: self.pool_base + off,
            size: MIN_PARTITION << want,
        };
        assert!(
            part.base.is_multiple_of(MAX_ACCESS_WIDTH)
                && part.size.is_multiple_of(MAX_ACCESS_WIDTH),
            "partition bounds must be multiples of the widest access"
        );
        Ok(part)
    }

    /// Release a partition by its base address, coalescing buddies.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] for unknown bases.
    pub fn free(&mut self, base: u64) -> Result<(), AllocError> {
        let off = base
            .checked_sub(self.pool_base)
            .ok_or(AllocError::InvalidFree)?;
        let mut order = self.allocated.remove(&off).ok_or(AllocError::InvalidFree)?;
        let mut off = off;
        // Coalesce with the buddy while it is free.
        loop {
            if (order as usize) + 1 >= self.free.len() {
                break;
            }
            let size = MIN_PARTITION << order;
            let buddy = off ^ size;
            if let Some(pos) = self.free[order as usize].iter().position(|&b| b == buddy) {
                self.free[order as usize].swap_remove(pos);
                off = off.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order as usize].push(off);
        let _ = self.min_order;
        Ok(())
    }

    /// Whether a partition of at least `bytes` could be allocated right
    /// now, without allocating it. This is the placement layer's
    /// fit-probe: a byte count alone cannot answer it, because buddy
    /// fragmentation can strand capacity.
    pub fn can_alloc(&self, bytes: u64) -> bool {
        let want = self.order_of(bytes);
        (want as usize) < self.free.len()
            && self.free[want as usize..].iter().any(|f| !f.is_empty())
    }

    /// Number of live partitions.
    pub fn live_partitions(&self) -> usize {
        self.allocated.len()
    }

    /// Bytes currently held by partitions.
    pub fn used_bytes(&self) -> u64 {
        self.allocated.values().map(|&o| MIN_PARTITION << o).sum()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u64 {
        self.pool_size
    }
}

/// First-fit heap inside one partition: serves the tenant's
/// `cudaMalloc`/`cudaFree` calls from its contiguous block (§4.2.1).
#[derive(Debug)]
pub struct RegionAllocator {
    partition: Partition,
    free: Vec<(u64, u64)>, // (addr, len), sorted, coalesced
    live: HashMap<u64, u64>,
}

impl RegionAllocator {
    /// Manage a partition's interior.
    pub fn new(partition: Partition) -> Self {
        RegionAllocator {
            partition,
            free: vec![(partition.base, partition.size)],
            live: HashMap::new(),
        }
    }

    /// The partition being managed.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Allocate `bytes` (256-byte aligned) inside the partition.
    ///
    /// # Errors
    ///
    /// [`AllocError::PartitionFull`].
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, AllocError> {
        let len = bytes.max(1).next_multiple_of(SUBALLOC_ALIGN);
        let pos = self
            .free
            .iter()
            .position(|&(_, flen)| flen >= len)
            .ok_or(AllocError::PartitionFull)?;
        let (addr, flen) = self.free[pos];
        if flen == len {
            self.free.remove(pos);
        } else {
            self.free[pos] = (addr + len, flen - len);
        }
        self.live.insert(addr, len);
        Ok(addr)
    }

    /// Release an allocation.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`].
    pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
        let len = self.live.remove(&addr).ok_or(AllocError::InvalidFree)?;
        let pos = self
            .free
            .iter()
            .position(|&(a, _)| a > addr)
            .unwrap_or(self.free.len());
        self.free.insert(pos, (addr, len));
        // Coalesce right then left.
        if pos + 1 < self.free.len() {
            let (a, l) = self.free[pos];
            let (na, nl) = self.free[pos + 1];
            if a + l == na {
                self.free[pos] = (a, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (pa, pl) = self.free[pos - 1];
            let (a, l) = self.free[pos];
            if pa + pl == a {
                self.free[pos - 1] = (pa, pl + l);
                self.free.remove(pos);
            }
        }
        Ok(())
    }

    /// Every live allocation as `(addr, len)`, sorted by address — the
    /// copy list for partition migration.
    pub fn live_allocations(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.live.iter().map(|(&a, &l)| (a, l)).collect();
        v.sort_unstable();
        v
    }

    /// Re-anchor the heap to an equally-sized partition at `new_base`,
    /// preserving every allocation's offset (so a migrated tenant's
    /// pointers translate by a single delta). The internal free list and
    /// live map are shifted wholesale; nothing is allocated or freed.
    ///
    /// # Panics
    ///
    /// Panics if the new partition's size differs — migration is defined
    /// as a same-size move (partitions are power-of-two; resize is a
    /// different operation).
    pub fn rebase(&mut self, new: Partition) {
        assert_eq!(
            new.size, self.partition.size,
            "rebase requires an equally-sized partition"
        );
        let old_base = self.partition.base;
        let shift = |addr: u64| addr - old_base + new.base;
        self.free = self.free.iter().map(|&(a, l)| (shift(a), l)).collect();
        self.live = self.live.iter().map(|(&a, &l)| (shift(a), l)).collect();
        self.partition = new;
    }

    /// Whether an address belongs to a live allocation of this heap.
    pub fn owns(&self, addr: u64) -> bool {
        self.live.iter().any(|(&a, &l)| addr >= a && addr < a + l)
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.live.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL_BASE: u64 = 1 << 40; // aligned to any pool size we use

    #[test]
    fn partitions_are_power_of_two_and_aligned() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 64 * MIN_PARTITION);
        for req in [1u64, MIN_PARTITION, MIN_PARTITION + 1, 3 * MIN_PARTITION] {
            let p = pa.alloc(req).unwrap();
            assert!(p.size.is_power_of_two());
            assert!(p.size >= req);
            assert_eq!(p.base % p.size, 0, "partition must be self-aligned");
        }
    }

    #[test]
    fn mask_matches_paper_arithmetic() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 64 * MIN_PARTITION);
        let p = pa.alloc(16 * MIN_PARTITION).unwrap();
        assert_eq!(p.mask(), p.size - 1);
        // (addr & mask) | base is identity inside the partition.
        let addr = p.base + 12345;
        assert_eq!((addr & p.mask()) | p.base, addr);
    }

    #[test]
    fn buddy_coalescing_restores_full_pool() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 16 * MIN_PARTITION);
        let a = pa.alloc(MIN_PARTITION).unwrap();
        let b = pa.alloc(2 * MIN_PARTITION).unwrap();
        let c = pa.alloc(4 * MIN_PARTITION).unwrap();
        pa.free(b.base).unwrap();
        pa.free(a.base).unwrap();
        pa.free(c.base).unwrap();
        assert_eq!(pa.live_partitions(), 0);
        // Full-pool allocation succeeds again after coalescing.
        let full = pa.alloc(16 * MIN_PARTITION).unwrap();
        assert_eq!(full.base, POOL_BASE);
    }

    #[test]
    fn exhaustion_and_double_free() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 4 * MIN_PARTITION);
        let a = pa.alloc(2 * MIN_PARTITION).unwrap();
        let _b = pa.alloc(2 * MIN_PARTITION).unwrap();
        assert_eq!(pa.alloc(MIN_PARTITION), Err(AllocError::OutOfPartitions));
        pa.free(a.base).unwrap();
        assert_eq!(pa.free(a.base), Err(AllocError::InvalidFree));
    }

    #[test]
    fn distinct_partitions_never_overlap() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 64 * MIN_PARTITION);
        let mut parts = Vec::new();
        for req in [1, 2, 4, 1, 8, 2, 1].map(|m| m * MIN_PARTITION) {
            parts.push(pa.alloc(req).unwrap());
        }
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                assert!(
                    p.end() <= q.base || q.end() <= p.base,
                    "{p:?} overlaps {q:?}"
                );
            }
        }
    }

    #[test]
    fn region_allocator_serves_and_checks_ownership() {
        let p = Partition {
            base: POOL_BASE,
            size: MIN_PARTITION,
        };
        let mut ra = RegionAllocator::new(p);
        let a = ra.alloc(1000).unwrap();
        let b = ra.alloc(50_000).unwrap();
        assert!(p.contains_range(a, 1000));
        assert!(p.contains_range(b, 50_000));
        assert!(ra.owns(a));
        assert!(ra.owns(b + 100));
        assert!(!ra.owns(p.base + p.size - 1));
        ra.free(a).unwrap();
        assert!(!ra.owns(a));
        assert_eq!(ra.free(a), Err(AllocError::InvalidFree));
    }

    #[test]
    fn region_allocator_exhausts_and_recovers() {
        let p = Partition {
            base: POOL_BASE,
            size: MIN_PARTITION,
        };
        let mut ra = RegionAllocator::new(p);
        let a = ra.alloc(MIN_PARTITION / 2).unwrap();
        let _b = ra.alloc(MIN_PARTITION / 2).unwrap();
        assert_eq!(ra.alloc(256), Err(AllocError::PartitionFull));
        ra.free(a).unwrap();
        assert!(ra.alloc(MIN_PARTITION / 4).is_ok());
    }

    #[test]
    fn absurd_request_sizes_fail_without_panic() {
        // Wire-reachable: Connect { mem_requirement } is attacker
        // controlled, and 2^63+ has no power-of-two rounding in u64 —
        // the probe and the alloc must both say no, not unwind the
        // control plane.
        let mut pa = PartitionAllocator::new(POOL_BASE, 4 * MIN_PARTITION);
        for bytes in [u64::MAX, (1 << 63) + 1, 1 << 63] {
            assert!(!pa.can_alloc(bytes));
            assert_eq!(pa.alloc(bytes), Err(AllocError::OutOfPartitions));
        }
        // The pool is still fully serviceable afterwards.
        assert!(pa.alloc(4 * MIN_PARTITION).is_ok());
    }

    #[test]
    fn can_alloc_agrees_with_alloc() {
        let mut pa = PartitionAllocator::new(POOL_BASE, 4 * MIN_PARTITION);
        assert!(pa.can_alloc(4 * MIN_PARTITION));
        let a = pa.alloc(2 * MIN_PARTITION).unwrap();
        let _b = pa.alloc(MIN_PARTITION).unwrap();
        let _c = pa.alloc(MIN_PARTITION).unwrap();
        // Full: the probe says no without mutating.
        assert!(!pa.can_alloc(MIN_PARTITION));
        pa.free(a.base).unwrap();
        assert!(pa.can_alloc(2 * MIN_PARTITION));
        // Fragmentation-aware: 2 MiB free as one buddy block fits 2 MiB...
        assert!(pa.alloc(2 * MIN_PARTITION).is_ok());
        // ...but now nothing does.
        assert!(!pa.can_alloc(1));
    }

    #[test]
    fn rebase_preserves_offsets_and_serviceability() {
        let old = Partition {
            base: POOL_BASE,
            size: MIN_PARTITION,
        };
        let mut ra = RegionAllocator::new(old);
        let a = ra.alloc(1000).unwrap();
        let b = ra.alloc(4096).unwrap();
        ra.free(a).unwrap();
        let new = Partition {
            base: POOL_BASE + 64 * MIN_PARTITION,
            size: MIN_PARTITION,
        };
        ra.rebase(new);
        assert_eq!(ra.partition(), new);
        // Offsets preserved: b moved by exactly the base delta.
        let live = ra.live_allocations();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0 - new.base, b - old.base);
        // Old addresses are dead, new ones work.
        assert!(ra.free(b).is_err());
        ra.free(b - old.base + new.base).unwrap();
        assert_eq!(ra.used_bytes(), 0);
        // Free list coalesced correctly in the new frame: full partition
        // serviceable again.
        assert_eq!(ra.alloc(new.size).unwrap(), new.base);
    }

    #[test]
    fn contains_range_rejects_overflow() {
        let p = Partition {
            base: u64::MAX - MIN_PARTITION + 1,
            size: MIN_PARTITION,
        };
        assert!(!p.contains_range(u64::MAX - 10, 100));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const POOL_BASE: u64 = 1 << 40;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Alloc/free round-trips: live partitions never overlap, stay
        /// inside the pool, are self-aligned, and freeing everything then
        /// coalescing restores the full pool capacity.
        #[test]
        fn buddy_round_trip_restores_capacity(
            ops in proptest::collection::vec((0u8..3, 0usize..16, 0u64..7), 1..80),
        ) {
            let pool = 32 * MIN_PARTITION;
            let mut pa = PartitionAllocator::new(POOL_BASE, pool);
            let mut live: Vec<Partition> = Vec::new();
            for (op, idx, size_log) in ops {
                if op < 2 {
                    // Sizes from 1 MiB to 64 MiB, beyond-pool included to
                    // exercise the error path.
                    if let Ok(p) = pa.alloc(MIN_PARTITION << size_log) {
                        prop_assert!(p.base >= POOL_BASE);
                        prop_assert!(p.end() <= POOL_BASE + pool);
                        prop_assert_eq!(p.base % p.size, 0);
                        for q in &live {
                            prop_assert!(
                                p.end() <= q.base || q.end() <= p.base,
                                "{:?} overlaps {:?}", p, q
                            );
                        }
                        live.push(p);
                    }
                } else if !live.is_empty() {
                    let p = live.swap_remove(idx % live.len());
                    prop_assert!(pa.free(p.base).is_ok());
                }
                let expected: u64 = live.iter().map(|p| p.size).sum();
                prop_assert_eq!(pa.used_bytes(), expected);
                prop_assert_eq!(pa.live_partitions(), live.len());
            }
            for p in live.drain(..) {
                prop_assert!(pa.free(p.base).is_ok());
            }
            // Coalescing must have rebuilt the single maximal block.
            let full = pa.alloc(pool).unwrap();
            prop_assert_eq!(full.base, POOL_BASE);
            prop_assert_eq!(full.size, pool);
        }

        /// Double-free and foreign-pointer frees are always rejected and
        /// leave the allocator able to serve the remaining capacity.
        #[test]
        fn buddy_rejects_bad_frees(junk in any::<u64>()) {
            let mut pa = PartitionAllocator::new(POOL_BASE, 8 * MIN_PARTITION);
            let p = pa.alloc(MIN_PARTITION).unwrap();
            prop_assert!(pa.free(p.base).is_ok());
            prop_assert_eq!(pa.free(p.base), Err(AllocError::InvalidFree));
            if junk != p.base {
                prop_assert!(pa.free(junk).is_err());
            }
            let full = pa.alloc(8 * MIN_PARTITION).unwrap();
            prop_assert_eq!(full.size, 8 * MIN_PARTITION);
        }

        /// Region heap round-trips: allocations are aligned, disjoint,
        /// in-partition; freeing everything coalesces back to one block
        /// able to serve the whole partition again.
        #[test]
        fn region_round_trip_restores_capacity(
            sizes in proptest::collection::vec(1u64..200_000, 1..40),
        ) {
            let part = Partition { base: POOL_BASE, size: 4 * MIN_PARTITION };
            let mut ra = RegionAllocator::new(part);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for s in sizes {
                if let Ok(a) = ra.alloc(s) {
                    prop_assert_eq!(a % SUBALLOC_ALIGN, 0);
                    prop_assert!(part.contains_range(a, s));
                    let len = s.max(1).next_multiple_of(SUBALLOC_ALIGN);
                    for &(b, bl) in &live {
                        prop_assert!(a + len <= b || b + bl <= a, "overlap");
                    }
                    live.push((a, len));
                }
            }
            // Free in a size-skewed order to stress both coalescing arms.
            live.sort_by_key(|&(a, l)| (l, a));
            for (a, _) in live.drain(..) {
                prop_assert!(ra.free(a).is_ok());
            }
            prop_assert_eq!(ra.used_bytes(), 0);
            let whole = ra.alloc(part.size).unwrap();
            prop_assert_eq!(whole, part.base);
        }

        /// `contains_range` is the single bounds gate for host transfers,
        /// so it must agree with checked arithmetic for *any* `(addr,
        /// len)` a hostile peer can put in a frame: acceptance implies
        /// `addr + len` does not overflow and the whole span is inside
        /// the partition — no wrap-around ever sneaks a range through.
        #[test]
        fn contains_range_never_accepts_a_wrapping_span(
            base in any::<u64>(),
            size_log in 0u32..48,
            addr in any::<u64>(),
            len in any::<u64>(),
        ) {
            let size = 1u64 << size_log;
            prop_assume!(base.checked_add(size).is_some());
            let p = Partition { base, size };
            if p.contains_range(addr, len) {
                let end = addr.checked_add(len);
                prop_assert!(end.is_some(), "accepted span wraps u64");
                prop_assert!(addr >= p.base && end.unwrap() <= p.end());
            } else {
                // Completeness: every genuinely in-bounds span is accepted.
                let inside = addr >= p.base
                    && addr.checked_add(len).is_some_and(|e| e <= p.end());
                prop_assert!(!inside, "rejected an in-bounds span");
            }
        }
    }
}
