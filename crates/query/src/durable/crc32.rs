//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) for section checksums.
//!
//! A dependency like `crc32fast` is unavailable offline and would be
//! overkill anyway: segment verification is a cold open-path cost, so the
//! classic byte-at-a-time table implementation (reflected polynomial
//! `0xEDB88320`) is plenty. The table is built at first use.

use std::sync::OnceLock;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLYNOMIAL: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in (0u32..).zip(table.iter_mut()) {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// Streaming CRC-32 hasher; feed bytes with [`Hasher::update`], read the
/// digest with [`Hasher::finalize`].
#[derive(Debug, Clone)]
pub(super) struct Hasher {
    state: u32,
}

impl Hasher {
    /// Start a fresh checksum.
    pub(super) fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Absorb a chunk of bytes.
    pub(super) fn update(&mut self, bytes: &[u8]) {
        let table = table();
        for &byte in bytes {
            // lint: allow(lossy-cast): masked to 8 bits, so u32 -> usize is exact
            let index = ((self.state ^ u32::from(byte)) & 0xFF) as usize;
            // bounds: index is masked to 0..256 and the table has 256 entries.
            self.state = (self.state >> 8) ^ table[index];
        }
    }

    /// The final checksum of everything absorbed so far.
    pub(super) fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub(super) fn checksum(bytes: &[u8]) -> u32 {
    let mut hasher = Hasher::new();
    hasher.update(bytes);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"flexemd-store/v1 segment payload";
        let mut hasher = Hasher::new();
        for chunk in data.chunks(7) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), checksum(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let clean = checksum(&data);
        for i in 0..64 {
            data[i] ^= 1 << (i % 8);
            assert_ne!(checksum(&data), clean, "flip at byte {i} undetected");
            data[i] ^= 1 << (i % 8);
        }
    }
}
