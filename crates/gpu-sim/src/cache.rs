//! Set-associative cache model for load latency accounting.
//!
//! The simulator charges each global load the latency of the level that
//! hits (paper Figure 5 / §7.4: L1 28 cycles, L2 193 cycles, global
//! 220–350 cycles). Contents are not stored — only tags — because the
//! functional state lives in [`crate::mem::Dram`]; the cache purely decides
//! *how long* an access takes and gathers the hit-rate statistics that the
//! paper reports (lenet: 37 % L1, 72 % L2).

use serde::{Deserialize, Serialize};

/// Cache line size in bytes (128 B sectors, as on NVIDIA hardware).
pub const LINE_SIZE: u64 = 128;

/// One set-associative tag array with LRU replacement.
///
/// Set `s` owns ways `s * ways ..` of the flat `tags`/`lru` arrays, of which
/// the first `valid[s]` are filled, in fill order.
#[derive(Debug, Clone)]
pub struct TagArray {
    tags: Vec<u64>,
    /// Tick of each way's last use.
    lru: Vec<u64>,
    valid: Vec<u8>,
    ways: usize,
    nsets: u64,
    /// `log2(nsets)` when the set count is a power of two.
    set_shift: Option<u32>,
    tick: u64,
}

impl TagArray {
    /// Build a tag array of `capacity` bytes with the given associativity.
    pub fn new(capacity: u64, ways: usize) -> Self {
        assert!((1..=u8::MAX as usize).contains(&ways), "1 to 255 ways");
        let lines = (capacity / LINE_SIZE).max(1) as usize;
        let nsets = (lines / ways).max(1);
        TagArray {
            tags: vec![0; nsets * ways],
            lru: vec![0; nsets * ways],
            valid: vec![0; nsets],
            ways,
            nsets: nsets as u64,
            set_shift: nsets.is_power_of_two().then_some(nsets.trailing_zeros()),
            tick: 0,
        }
    }

    /// Probe (and fill on miss). Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / LINE_SIZE;
        let (set, tag) = match self.set_shift {
            Some(shift) => ((line & (self.nsets - 1)) as usize, line >> shift),
            None => ((line % self.nsets) as usize, line / self.nsets),
        };
        let first = set * self.ways;
        let tags = &mut self.tags[first..first + self.ways];
        let lru = &mut self.lru[first..first + self.ways];
        let filled = self.valid[set] as usize;
        if let Some(way) = tags[..filled].iter().position(|&t| t == tag) {
            lru[way] = self.tick;
            return true;
        }
        let way = if filled < self.ways {
            self.valid[set] += 1;
            filled
        } else {
            (0..self.ways).min_by_key(|&w| lru[w]).expect("ways >= 1")
        };
        tags[way] = tag;
        lru[way] = self.tick;
        false
    }

    /// Drop all entries (context switch / kernel boundary invalidation).
    pub fn invalidate(&mut self) {
        self.valid.fill(0);
    }

    /// Whether `other` has the same sets and ways (hits and misses of two
    /// empty arrays of one shape agree access for access).
    fn same_shape(&self, other: &TagArray) -> bool {
        (self.nsets, self.ways) == (other.nsets, other.ways)
    }
}

/// One line, direct-mapped: a placeholder until a real shape is known.
impl Default for TagArray {
    fn default() -> Self {
        TagArray::new(LINE_SIZE, 1)
    }
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the per-SM L1.
    L1,
    /// Served by the device L2.
    L2,
    /// Served by DRAM.
    Global,
}

/// Running hit-rate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that hit in L2).
    pub l2_hits: u64,
}

impl CacheStats {
    /// L1 hit rate in [0, 1].
    pub fn l1_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// Cumulative L2 hit rate: fraction of accesses served at L2 *or
    /// better* (the paper quotes "L1 37 %, L2 72 %" cumulatively).
    pub fn l2_cumulative_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / self.accesses as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
    }
}

/// Two-level cache hierarchy: one L1 (per executing SM slice) in front of a
/// shared L2.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: TagArray,
    l2: TagArray,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Build from capacities (bytes). L1 is 4-way, L2 is 16-way.
    pub fn new(l1_bytes: u64, l2_bytes: u64) -> Self {
        CacheHierarchy {
            l1: TagArray::new(l1_bytes, 4),
            l2: TagArray::new(l2_bytes, 16),
            stats: CacheStats::default(),
        }
    }

    /// Probe both levels for a load at `addr`, filling on miss.
    pub fn load(&mut self, addr: u64) -> HitLevel {
        self.stats.accesses += 1;
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            HitLevel::L1
        } else {
            self.load_past_l1(addr)
        }
    }

    /// The L2 half of a load that missed its L1 — this hierarchy's, or the
    /// private one of a block run beside others.
    pub(crate) fn load_past_l1(&mut self, addr: u64) -> HitLevel {
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            HitLevel::L2
        } else {
            HitLevel::Global
        }
    }

    /// Count `accesses` loads a block probed against a private L1, of
    /// which `l1_hits` hit it; its misses come through
    /// [`load_past_l1`](Self::load_past_l1).
    pub(crate) fn count_block_l1(&mut self, accesses: u64, l1_hits: u64) {
        self.stats.accesses += accesses;
        self.stats.l1_hits += l1_hits;
    }

    /// Make `l1` an empty L1 of this hierarchy's shape, reallocating only
    /// if its shape differs: a block run beside others starts on it as it
    /// would on [`new_block`](Self::new_block)'s.
    pub(crate) fn fresh_l1(&self, l1: &mut TagArray) {
        if !l1.same_shape(&self.l1) {
            *l1 = self.l1.clone();
        }
        l1.invalidate();
    }

    /// Account a store: allocate in L2 only (write-through, no-allocate L1,
    /// matching NVIDIA's default global-store policy).
    pub fn store(&mut self, addr: u64) {
        self.l2.access(addr);
    }

    /// Invalidate the L1 (new block scheduled onto the SM).
    pub fn new_block(&mut self) {
        self.l1.invalidate();
    }

    /// Invalidate everything (context switch: the paper notes the TLB and
    /// caches are invalidated on switch, §2.2).
    pub fn invalidate_all(&mut self) {
        self.l1.invalidate();
        self.l2.invalidate();
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_l1() {
        let mut c = CacheHierarchy::new(16 * 1024, 128 * 1024);
        assert_eq!(c.load(0x1000), HitLevel::Global);
        assert_eq!(c.load(0x1000), HitLevel::L1);
        assert_eq!(c.load(0x1040), HitLevel::L1); // same 128B line
        assert_eq!(c.load(0x1080), HitLevel::Global); // next line
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        // L1 = 4 lines total (512 B, 4-way = 1 set); access 5 distinct
        // lines, then re-access the first: L1 miss, L2 hit.
        let mut c = CacheHierarchy::new(512, 1024 * 1024);
        for i in 0..5u64 {
            c.load(i * LINE_SIZE);
        }
        assert_eq!(c.load(0), HitLevel::L2);
    }

    #[test]
    fn streaming_misses_everywhere() {
        let mut c = CacheHierarchy::new(16 * 1024, 64 * 1024);
        let mut global = 0;
        for i in 0..10_000u64 {
            if c.load(i * LINE_SIZE) == HitLevel::Global {
                global += 1;
            }
        }
        // Pure streaming: almost everything misses.
        assert!(global > 9_900);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = CacheHierarchy::new(16 * 1024, 128 * 1024);
        c.load(0);
        c.load(0);
        c.load(0);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.l1_hits, 2);
        assert!(s.l1_rate() > 0.6);
    }

    #[test]
    fn invalidation_clears_hits() {
        let mut c = CacheHierarchy::new(16 * 1024, 128 * 1024);
        c.load(0x2000);
        c.invalidate_all();
        assert_eq!(c.load(0x2000), HitLevel::Global);
    }

    #[test]
    fn new_block_clears_only_l1() {
        let mut c = CacheHierarchy::new(16 * 1024, 128 * 1024);
        c.load(0x3000);
        c.new_block();
        assert_eq!(c.load(0x3000), HitLevel::L2);
    }

    #[test]
    fn cumulative_l2_rate() {
        let mut s = CacheStats {
            accesses: 100,
            l1_hits: 37,
            l2_hits: 35,
        };
        assert!((s.l1_rate() - 0.37).abs() < 1e-9);
        assert!((s.l2_cumulative_rate() - 0.72).abs() < 1e-9);
        let other = CacheStats {
            accesses: 100,
            l1_hits: 63,
            l2_hits: 0,
        };
        s.merge(&other);
        assert_eq!(s.accesses, 200);
        assert_eq!(s.l1_hits, 100);
    }

    /// The tag array as it was before it went flat: one `Vec` of
    /// `(tag, last_use)` per set. The reference [`TagArray`] is held to.
    struct ReferenceTags {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        tick: u64,
    }

    impl ReferenceTags {
        fn new(capacity: u64, ways: usize) -> Self {
            let lines = (capacity / LINE_SIZE).max(1) as usize;
            let nsets = (lines / ways).max(1);
            ReferenceTags {
                sets: vec![Vec::with_capacity(ways); nsets],
                ways,
                tick: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line = addr / LINE_SIZE;
            let set_idx = (line as usize) % self.sets.len();
            let tag = line / self.sets.len() as u64;
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|(t, _)| *t == tag) {
                way.1 = self.tick;
                return true;
            }
            if set.len() < self.ways {
                set.push((tag, self.tick));
            } else {
                let victim = set.iter_mut().min_by_key(|(_, lru)| *lru).unwrap();
                *victim = (tag, self.tick);
            }
            false
        }

        fn invalidate(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }
    }

    /// Drive the L1/L2 pair of each GPU model, flat and reference, through
    /// `ops` (`(op, slot)` per mille: invalidate all, new block, store or
    /// load at one of `2^span_log` addresses `2^stride_log` apart from
    /// `base`); every probe must agree. Invalidations are rare so that sets
    /// fill, and large strides pile the addresses into a few sets, so that
    /// LRU eviction is exercised.
    fn tags_match_reference(span_log: u32, stride_log: u32, base: u64, ops: &[(u16, u64)]) {
        use crate::spec::{rtx_3080ti, rtx_a4000, test_gpu};
        for spec in [test_gpu(), rtx_a4000(), rtx_3080ti()] {
            let (l1, l2) = (spec.l1_bytes, spec.l2_bytes);
            let mut flat = [TagArray::new(l1, 4), TagArray::new(l2, 16)];
            let mut reference = [ReferenceTags::new(l1, 4), ReferenceTags::new(l2, 16)];
            for (i, &(op, slot)) in ops.iter().enumerate() {
                let addr = base.wrapping_add((slot % (1 << span_log)) << stride_log);
                let levels: &[usize] = match op {
                    0 => {
                        flat.iter_mut().for_each(TagArray::invalidate);
                        reference.iter_mut().for_each(ReferenceTags::invalidate);
                        continue;
                    }
                    1..=4 => {
                        flat[0].invalidate();
                        reference[0].invalidate();
                        continue;
                    }
                    5..=299 => &[1],
                    _ => &[0, 1],
                };
                for &level in levels {
                    let hit = reference[level].access(addr);
                    assert_eq!(flat[level].access(addr), hit, "{}: op {i}", spec.name);
                    if hit {
                        break; // a load that hits L1 does not probe L2
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn flat_tags_match_the_reference_lru(
            span_log in 1u32..13,
            stride_log in 5u32..24,
            base in proptest::prelude::any::<u64>(),
            ops in proptest::collection::vec((0u16..1000, proptest::prelude::any::<u64>()), 1..3000),
        ) {
            tags_match_reference(span_log, stride_log, base, &ops);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]

        #[test]
        #[ignore = "nightly budget"]
        fn tags_equiv_nightly(
            span_log in 1u32..16,
            stride_log in 5u32..26,
            base in proptest::prelude::any::<u64>(),
            ops in proptest::collection::vec((0u16..1000, proptest::prelude::any::<u64>()), 1..20_000),
        ) {
            tags_match_reference(span_log, stride_log, base, &ops);
        }
    }
}
