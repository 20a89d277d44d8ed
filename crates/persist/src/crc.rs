//! CRC-32 (IEEE 802.3 polynomial, the `zlib`/`gzip` checksum).
//!
//! Both persisted formats — snapshot sections and WAL frames — carry a
//! CRC-32 over their payload so damaged bytes are detected before any
//! decoding happens. Opening a store checksums the whole multi-megabyte
//! snapshot, so the checksum is a kernel of the SIMD layer
//! ([`subdex_stats::kernels::crc32`]): a carry-less-multiply fold on AVX2
//! hosts, slicing-by-eight tables otherwise, on the process-wide
//! [`kernels::active`] path. Both paths give the same value, so a file
//! written on one path opens on the other.

use subdex_stats::kernels;

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    kernels::crc32(kernels::active(), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bit-at-a-time shift register, one input byte per step,
    /// that both kernel paths must match.
    fn crc32_simple(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"subdex"), crc32(b"subdex"));
    }

    #[test]
    fn sliced_matches_byte_at_a_time_at_every_length() {
        // Cover every remainder length and multi-block inputs, on every
        // kernel path the host runs.
        let data: Vec<u8> = (0u16..1024).map(|i| (i * 31 % 251) as u8).collect();
        for path in kernels::KernelPath::available() {
            for len in 0..data.len() {
                let want = crc32_simple(&data[..len]);
                assert_eq!(kernels::crc32(path, &data[..len]), want, "{path} len {len}");
            }
        }
        assert_eq!(crc32(&data), crc32_simple(&data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x40;
        assert_ne!(crc32(&a), crc32(&b));
    }
}
