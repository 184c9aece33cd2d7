//! Digest of a pass's simulated outputs: FNV-1a over every virtual metric,
//! every latency sample and the registry snapshot. Host times never enter
//! it, so a host-only change must leave it unchanged.

/// 64-bit FNV-1a, stable across platforms and toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a number in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a labelled list of numbers in.
    pub fn series(&mut self, label: &str, values: &[u64]) {
        self.bytes(label.as_bytes());
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_and_order_sensitivity() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut x = Digest::default();
        x.series("s", &[1, 2]);
        let mut y = Digest::default();
        y.series("s", &[2, 1]);
        assert_ne!(x.finish(), y.finish());
    }
}
