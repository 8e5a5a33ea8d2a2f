//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) for section and WAL
//! frame checksums.
//!
//! One kernel serves every checksum of the durable layer: segment
//! verification on every open (the whole of a sealed segment), WAL
//! replay, and every WAL append. It is slicing-by-8 over the reflected
//! polynomial `0xEDB88320` — zlib's scheme, so every digest equals the
//! classic byte-at-a-time table's — which folds eight input bytes per
//! step through eight 256-entry tables instead of one byte per step
//! through one. The tables are built at first use.

use std::sync::OnceLock;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// The eight slicing tables. `tables()[0]` is the classic byte table,
/// and `tables()[k][n]` is the CRC register after byte `n` is followed
/// by `k` zero bytes, so one lookup per table advances the register by
/// eight bytes at once.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        let mut byte_table = [0u32; 256];
        for (n, entry) in (0u32..).zip(byte_table.iter_mut()) {
            let mut crc = n;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut previous = byte_table;
        for table in &mut tables {
            *table = previous;
            for entry in &mut previous {
                let [low, ..] = entry.to_le_bytes();
                *entry = (*entry >> 8) ^ lookup(&byte_table, low);
            }
        }
        tables
    })
}

/// `table[index]`, the one indexing site of the kernel.
#[inline(always)]
fn lookup(table: &[u32; 256], index: u8) -> u32 {
    // bounds: a u8 is below 256, the length of every table.
    table[usize::from(index)]
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

    /// Absorb a chunk of bytes: eight at a time, then the tail one at a
    /// time.
    pub(super) fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
        let (words, tail) = bytes.as_chunks::<8>();
        let mut crc = self.state;
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
            // The register meets the first four bytes; the last four
            // are looked up on their own, off the register's critical path.
            let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            let ahead = (lookup(t3, b4) ^ lookup(t2, b5)) ^ (lookup(t1, b6) ^ lookup(t0, b7));
            crc = (lookup(t7, x0) ^ lookup(t6, x1)) ^ (lookup(t5, x2) ^ lookup(t4, x3)) ^ ahead;
        }
        for &byte in tail {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ lookup(t0, low ^ byte);
        }
        self.state = crc;
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

    /// The byte-at-a-time table CRC-32 the sliced kernel must equal: its
    /// own table, built bit by bit, and one lookup per byte.
    fn reference(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (n, entry) in (0u32..).zip(table.iter_mut()) {
            let mut crc = n;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut state = 0xFFFF_FFFFu32;
        for &byte in bytes {
            let [low, ..] = state.to_le_bytes();
            state = (state >> 8) ^ table[usize::from(low ^ byte)];
        }
        state ^ 0xFFFF_FFFF
    }

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
        // Unaligned lengths put flipped bytes in the byte-wise tail too.
        let lengths = (1..=17).chain([63, 64, 65]);
        for len in lengths {
            let mut data = vec![0u8; len];
            let clean = checksum(&data);
            for i in 0..len {
                data[i] ^= 1 << (i % 8);
                assert_ne!(
                    checksum(&data),
                    clean,
                    "flip at byte {i} of {len} undetected"
                );
                data[i] ^= 1 << (i % 8);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Every length 0..=2048 at every start offset 0..8 of random
        /// bytes, so each tail length meets each alignment.
        #[test]
        fn sliced_equals_reference_at_every_length_and_alignment(
            data in proptest::collection::vec(0u8..=255, 2048 + 8),
        ) {
            for start in 0..8 {
                for len in 0..=2048 {
                    let bytes = &data[start..start + len];
                    proptest::prop_assert_eq!(checksum(bytes), reference(bytes));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any split of a stream into `update` calls gives the reference
        /// digest of the whole.
        #[test]
        fn split_updates_equal_the_reference(
            data in proptest::collection::vec(0u8..=255, 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut hasher = Hasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(hasher.finalize(), reference(&data));
        }
    }
}
