//! CRC32C (Castagnoli) — the one checksum every integrity check uses.
//!
//! Burst-buffer chunks are digested with it at seal, on a verifying KV
//! server `Set`, on every tiered read, on flusher read-back and by the
//! scrubber; the Lustre write ack carries it over the committed extent.
//!
//! On x86_64 CPUs with SSE4.2, [`Crc32c::update`] runs the `crc32`
//! instruction over 8-byte words and then the tail bytes, selected at run
//! time with `is_x86_feature_detected!`. Everywhere else it falls back to
//! table-driven slice-by-8, which the tests also use as the reference: both
//! paths produce bit-identical digests, so the choice never shows in any
//! simulated output.
//!
//! The module lives in `simkit` because that is the one crate the KV store,
//! the burst-buffer core and Lustre all depend on. It is pure: no [`Sim`],
//! no virtual time. A digest costs host time only.
//!
//! [`Sim`]: crate::Sim

/// The Castagnoli generator polynomial, reflected.
const POLY: u32 = 0x82f6_3b78;

/// 8 × 256 lookup tables for slice-by-8.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Fold `data` into the raw CRC register `crc` with slice-by-8.
fn update_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Fold `data` into the raw CRC register `crc` with the SSE4.2 `crc32`
/// instruction. Callers must have detected `sse4.2` at run time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(crc);
    for w in &mut words {
        let w: [u8; 8] = w.try_into().expect("chunks_exact yields 8-byte words");
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w));
    }
    // the 64-bit form leaves the 32-bit register zero-extended
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Incremental CRC32C state for digesting discontiguous input.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Fresh digest state.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Fold `data` into the digest, with the `crc32` instruction when the
    /// CPU has SSE4.2 and slice-by-8 otherwise.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `update_sse42` only needs the sse4.2 target feature,
            // which `is_x86_feature_detected!` confirmed on this CPU.
            self.state = unsafe { update_sse42(self.state, data) };
            return;
        }
        self.state = update_slice8(self.state, data);
    }

    /// Finish and return the digest.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// CRC32C of a single buffer.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

/// CRC32C of the logical concatenation `a || b` without concatenating.
pub fn crc32c_pair(a: &[u8], b: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(a);
    c.update(b);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A raw-register update function: one CRC32C path.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// `Crc32c::update` as a kernel: whichever path it selects here.
    fn dispatch(crc: u32, data: &[u8]) -> u32 {
        let mut c = Crc32c { state: crc };
        c.update(data);
        c.state
    }

    /// Every kernel this CPU can run, by name: the dispatching entry point
    /// and slice-by-8 always, the hardware path when the CPU has SSE4.2.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut k: Vec<(&'static str, Kernel)> =
            vec![("dispatch", dispatch), ("slice8", update_slice8)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            fn hw(crc: u32, data: &[u8]) -> u32 {
                // SAFETY: `kernels` lists this only after
                // `is_x86_feature_detected!("sse4.2")` returned true.
                unsafe { update_sse42(crc, data) }
            }
            k.push(("sse4.2", hw));
        }
        k
    }

    fn digest(kernel: Kernel, data: &[u8]) -> u32 {
        !kernel(!0, data)
    }

    /// Deterministic pseudo-random bytes (SplitMix64 stream from `seed`).
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 appendix B.4 test vectors, through every kernel
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (b"123456789", 0xe306_9283),
        ];
        for (data, want) in vectors {
            for (name, kernel) in kernels() {
                assert_eq!(digest(kernel, data), want, "{name} on {data:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernels_agree_across_lengths_offsets_and_splits(
            len in 0usize..70_000,
            start in 0usize..8,
            seed in any::<u64>(),
            cuts in collection::vec(0usize..70_000, 0..5),
        ) {
            let buf = bytes(seed, start + len);
            let data = &buf[start..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let reference = digest(update_slice8, data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest(kernel, data), reference, "{} whole", name);
                // the same bytes fed through several updates split at `cuts`
                let mut crc = !0;
                let mut at = 0;
                for &cut in cuts.iter().chain([len].iter()) {
                    crc = kernel(crc, &data[at..cut]);
                    at = cut;
                }
                prop_assert_eq!(!crc, reference, "{} split at {:?}", name, cuts);
            }
        }
    }

    #[test]
    fn pair_equals_concatenation() {
        let a = b"chunk-key:f1:0";
        let b: Vec<u8> = (0..10_000).map(|i| (i * 31 % 251) as u8).collect();
        let mut whole = a.to_vec();
        whole.extend_from_slice(&b);
        assert_eq!(crc32c_pair(a, &b), crc32c(&whole));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data: Vec<u8> = (0..4096).map(|i| (i % 255) as u8).collect();
        let clean = crc32c(&data);
        for at in [0usize, 1, 7, 8, 9, 4095] {
            data[at] ^= 0x10;
            assert_ne!(crc32c(&data), clean, "flip at {at} undetected");
            data[at] ^= 0x10;
        }
        assert_eq!(crc32c(&data), clean);
    }

    #[test]
    fn key_coverage_distinguishes_keys() {
        let data = vec![42u8; 1024];
        assert_ne!(crc32c_pair(b"f1:0", &data), crc32c_pair(b"f1:1", &data));
    }
}
