//! Output verification. It runs on every arm of every run; there is no
//! flag that skips it.
//!
//! After a job the harness reads back every buffer the application left
//! allocated and hashes it ([`Fingerprint`]); the Guardian arm must
//! reproduce the native arm's fingerprint — and, for training, the loss
//! values bit for bit. The storm and the copy mix check their own data
//! with [`check_fill`] and plain byte comparison.

use crate::surface::{CudaApi, CudaResult, DevicePtr};

/// FNV-1a over `bytes`.
pub fn hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one tenant's job left behind: per live buffer, in allocation
/// order, its size and content hash, plus any values the job reported
/// (loss bits). Pointers are left out — the arms use different address
/// spaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub buffers: Vec<(u64, u64)>,
    pub reported: Vec<u32>,
}

impl Fingerprint {
    /// Read back and hash `live` (pointer, bytes) through `api`.
    ///
    /// # Errors
    ///
    /// Any failing read-back.
    pub fn take(
        api: &mut dyn CudaApi,
        live: &[(DevicePtr, u64)],
        reported: Vec<u32>,
    ) -> CudaResult<Self> {
        let mut buffers = Vec::with_capacity(live.len());
        for &(ptr, bytes) in live {
            buffers.push((bytes, hash(&api.cuda_memcpy_d2h(ptr, bytes)?)));
        }
        Ok(Fingerprint { buffers, reported })
    }

    /// Checks a comparison against `reference` makes: one per buffer and
    /// per reported value, on whichever side has more.
    pub fn checks(&self, reference: &Fingerprint) -> u64 {
        (self.buffers.len().max(reference.buffers.len())
            + self.reported.len().max(reference.reported.len())) as u64
    }

    /// How many of those checks fail.
    pub fn mismatches(&self, reference: &Fingerprint) -> u64 {
        fn differing<T: PartialEq>(a: &[T], b: &[T]) -> usize {
            let common = a.iter().zip(b).filter(|(x, y)| x != y).count();
            common + a.len().abs_diff(b.len())
        }
        (differing(&self.buffers, &reference.buffers)
            + differing(&self.reported, &reference.reported)) as u64
    }
}

/// Whether `bytes` is what `fill(out, n)` leaves: `out[i] == i`.
pub fn check_fill(bytes: &[u8], n: u32) -> bool {
    bytes.len() == 4 * n as usize
        && bytes
            .chunks_exact(4)
            .zip(0u32..)
            .all(|(w, i)| w == i.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::NativeHost;

    #[test]
    fn a_corrupted_buffer_fails_verification() {
        let host = NativeHost::new(false);
        let mut api = host.runtime().unwrap();
        let a = api.cuda_malloc(4096).unwrap();
        let b = api.cuda_malloc(256).unwrap();
        api.cuda_memcpy_h2d(a, &[1u8; 4096]).unwrap();
        api.cuda_memcpy_h2d(b, &[2u8; 256]).unwrap();
        let live = [(a, 4096), (b, 256)];
        let good = Fingerprint::take(&mut api, &live, vec![0x3f80_0000]).unwrap();
        assert_eq!(good.mismatches(&good), 0);
        assert_eq!(good.checks(&good), 3);

        // One flipped byte in one buffer.
        api.cuda_memcpy_h2d(b + 17, &[3u8]).unwrap();
        let bad = Fingerprint::take(&mut api, &live, vec![0x3f80_0000]).unwrap();
        assert_eq!(bad.mismatches(&good), 1);

        // A different loss, and a buffer that went missing.
        let worse = Fingerprint::take(&mut api, &live[..1], vec![0x3f80_0001]).unwrap();
        assert_eq!(worse.mismatches(&good), 2);
        assert_eq!(worse.checks(&good), 3);
    }

    #[test]
    fn fill_check_rejects_wrong_length_and_wrong_words() {
        let good: Vec<u8> = (0u32..64).flat_map(u32::to_le_bytes).collect();
        assert!(check_fill(&good, 64));
        assert!(!check_fill(&good, 63));
        let mut bad = good.clone();
        bad[4 * 9] ^= 1;
        assert!(!check_fill(&bad, 64));
    }
}
