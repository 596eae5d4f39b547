//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) for the
//! checkpoint trailer.
//!
//! The checkpoint format needs a detector, not a cryptographic digest: a
//! torn write, a truncated file or a flipped bit must be *noticed*, and
//! the workspace builds offline with no hashing crates. The kernel is
//! slicing-by-8: eight 256-entry tables fold eight input bytes per step
//! (table `k` advances a byte's contribution through `k` further zero
//! bytes), with the standard byte-at-a-time table update for the tail.
//! Init and final XOR are `0xFFFF_FFFF`, bit-compatible with `cksum -o3`,
//! zlib and `zip`: `crc32_ieee(b"123456789") == 0xCBF4_3926`. The
//! byte-at-a-time loop survives in the tests as the oracle the sliced
//! kernel is checked against.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The IEEE CRC-32 of `bytes`.
pub fn crc32_ieee(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: one table lookup per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `splitmix64`, for reproducible test buffers.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| splitmix64(state) as u8).collect()
    }

    #[test]
    fn matches_the_published_check_value() {
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b""), 0);
    }

    #[test]
    fn sliced_kernel_matches_the_bytewise_oracle() {
        // Every length across the 8-byte step and its tail, at every
        // alignment of the slice start.
        let mut state = 0x5eed;
        let buffer = random_bytes(&mut state, 8 + 80);
        for start in 0..8 {
            for len in 0..=80 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32_ieee(bytes),
                    bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // Random buffers up to 64 KB, including the exact upper bound.
        for round in 0..48 {
            let len = match round {
                0 => 64 * 1024,
                _ => (splitmix64(&mut state) % (64 * 1024 + 1)) as usize,
            };
            let bytes = random_bytes(&mut state, len);
            assert_eq!(crc32_ieee(&bytes), bytewise(&bytes), "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"hi-opt explore checkpoint v2\nend\n".to_vec();
        let crc = crc32_ieee(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32_ieee(&flipped), crc, "flip at {byte}:{bit}");
            }
        }
    }
}
