//! Seeded input generation. Everything a workload feeds the system is a
//! pure function of `--seed`; `guardiand` only ever sees the calls made
//! from it.

/// SplitMix64: tiny, fast, and good enough to shuffle ops and fill
/// payloads. Not the repository's `rand` shim on purpose — the op
/// sequence must not change when that shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The `memcpy_mix` transfer sizes and how many of each 100 ops use them.
pub const MIX_SIZES: [(usize, usize); 4] =
    [(4 << 10, 60), (64 << 10, 25), (1 << 20, 12), (4 << 20, 3)];

/// Bytes of seeded payload every `memcpy_mix` op slices its data from.
pub const POOL_BYTES: usize = 8 << 20;

/// One `memcpy_mix` op: `malloc(size)`, H2D of `pool[offset..offset+size]`,
/// D2H, compare, free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixOp {
    pub size: usize,
    pub offset: usize,
}

/// `hundreds * 100` ops. The multiset of sizes is fixed (exactly the
/// [`MIX_SIZES`] shares) and only the order and the payload offsets come
/// from the seed, so every seed moves the same number of bytes and the
/// run-to-run spread is not a spread of inputs.
pub fn mix_ops(seed: u64, hundreds: usize) -> Vec<MixOp> {
    let mut rng = Rng::new(seed ^ 0x6d69_785f_6f70); // "mix_op"
    let mut sizes: Vec<usize> = MIX_SIZES
        .iter()
        .flat_map(|&(size, per_100)| std::iter::repeat_n(size, per_100 * hundreds))
        .collect();
    rng.shuffle(&mut sizes);
    sizes
        .into_iter()
        .map(|size| MixOp {
            size,
            // 8-byte aligned so payload slices never straddle a word the
            // generator wrote in two halves.
            offset: (rng.below((POOL_BYTES - size) as u64 / 8 + 1) * 8) as usize,
        })
        .collect()
}

/// The seeded payload pool of `memcpy_mix`.
pub fn payload_pool(seed: u64) -> Vec<u8> {
    Rng::new(seed ^ 0x706f_6f6c).bytes(POOL_BYTES) // "pool"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_payloads() {
        assert_eq!(mix_ops(7, 3), mix_ops(7, 3));
        assert_eq!(payload_pool(7), payload_pool(7));
        assert_ne!(mix_ops(7, 3), mix_ops(8, 3));
        assert_ne!(payload_pool(7)[..64], payload_pool(8)[..64]);
    }

    #[test]
    fn every_seed_moves_the_same_bytes() {
        let total = |seed| mix_ops(seed, 2).iter().map(|op| op.size).sum::<usize>();
        assert_eq!(total(1), total(2));
        let ops = mix_ops(1, 2);
        assert_eq!(ops.len(), 200);
        for &(size, per_100) in &MIX_SIZES {
            assert_eq!(ops.iter().filter(|op| op.size == size).count(), 2 * per_100);
        }
        assert!(ops
            .iter()
            .all(|op| op.offset + op.size <= POOL_BYTES && op.offset % 8 == 0));
    }
}
