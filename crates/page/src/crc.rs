//! CRC-32 (IEEE 802.3 reflected polynomial) for page frames and catalogs.
//!
//! This is the same polynomial used by zlib/gzip/ethernet, chosen for its
//! well-understood burst-error detection: any single bit flip, any two flips
//! within a page, and any burst up to 32 bits are guaranteed to change the
//! checksum.
//!
//! Every page read and write checksums a whole page, so [`crc32`] picks its
//! implementation at run time:
//!
//! * on x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs of at least 64 bytes go
//!   through a carry-less-multiply folding kernel (Intel, *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*, 2009;
//!   the same constants as zlib's `crc32_simd`);
//! * shorter inputs, such as the 28 checksummed bytes of a frame header, and
//!   every other CPU use a byte-at-a-time table loop, with the table built at
//!   compile time. The table loop is also the reference the tests hold the
//!   kernel to.
//!
//! Both compute the same function, so the choice never changes a byte on
//! disk.

const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = make_table();

/// CRC-32 of `data` (init `!0`, final xor `!0` — the standard "CRC-32"
/// every external tool computes, so page files can be cross-checked with
/// e.g. `python -c "import zlib; ..."`).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(data) {
        return crc;
    }
    table_crc32(data)
}

/// The table loop's CRC-32 of `data`: the portable path and the reference.
fn table_crc32(data: &[u8]) -> u32 {
    !table_update(!0, data)
}

/// Advances the CRC register `c` (pre-inverted, as inside [`crc32`]) over
/// `data`, one byte at a time.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The PCLMULQDQ folding kernel for x86-64.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use super::table_update;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_setzero_si128, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// Shortest input the kernel takes: one block of four 16-byte lanes.
    const BLOCK: usize = 64;

    /// CRC-32 of `data` through the kernel, or `None` when `data` is
    /// shorter than one block or the CPU lacks PCLMULQDQ or SSE4.1.
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if data.len() < BLOCK
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: both target features `fold` enables were detected on this
        // CPU just above.
        Some(!unsafe { fold(!0, data) })
    }

    /// One unaligned 16-byte load (SSE2, part of the x86-64 baseline).
    #[inline]
    fn load(lane: &[u8]) -> __m128i {
        assert!(lane.len() >= 16, "a lane is 16 bytes");
        // SAFETY: the assert above leaves 16 readable bytes at `lane`, and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Folds the 128-bit accumulator `x` forward by the distance `k` encodes
    /// and adds the next lane `y` (addition is xor in GF(2)).
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn fold16(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    }

    /// Advances the pre-inverted CRC register `crc` over `data`.
    ///
    /// Four accumulators fold 64-byte blocks, are folded into one, which then
    /// folds the remaining 16-byte lanes; the 128-bit remainder is reduced to
    /// 64 bits, then to 32 by Barrett reduction. Bytes past the last whole
    /// lane go through the table loop.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1. Any `data` is accepted.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        // x^(4·128±32) and x^(128±32) mod P, bit-reflected, for folding by
        // 64 and by 16 bytes; x^64 mod P for the 64-bit step; P and its
        // Barrett quotient μ = x^64 / P.
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
        let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);

        let mut blocks = data.chunks_exact(BLOCK);
        let Some(first) = blocks.next() else {
            return table_update(crc, data);
        };
        let mut x = [_mm_setzero_si128(); 4];
        for (acc, lane) in x.iter_mut().zip(first.chunks_exact(16)) {
            *acc = load(lane);
        }
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        for block in &mut blocks {
            for (acc, lane) in x.iter_mut().zip(block.chunks_exact(16)) {
                *acc = fold16(*acc, k1k2, load(lane));
            }
        }

        let mut x1 = fold16(x[0], k3k4, x[1]);
        x1 = fold16(x1, k3k4, x[2]);
        x1 = fold16(x1, k3k4, x[3]);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            x1 = fold16(x1, k3k4, load(lane));
        }

        // 128 → 64 bits.
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5);
        x1 = _mm_xor_si128(x1, x2);

        // Barrett reduction, 64 → 32 bits.
        let mut x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
        x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), poly);
        x1 = _mm_xor_si128(x1, x2);

        table_update(_mm_extract_epi32::<1>(x1) as u32, lanes.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A deterministic, non-repeating byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32, then two inputs long enough
        // for the folding kernel, through the dispatcher and the table loop.
        for f in [crc32, table_crc32] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(f(&[0u8; 4096]), 0xC71C_0011);
            assert_eq!(f(&[0xFFu8; 64]), 0x0F61_87BA);
        }
    }

    #[test]
    fn dispatch_matches_table_at_every_length_and_offset() {
        // Every length across the 16- and 64-byte boundaries up to a full
        // page plus header, at every start offset within a lane, so the
        // kernel sees unaligned loads and every tail length.
        let buf = pattern(4200 + 16);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert!(clmul::crc32(&buf[..64]).is_some(), "kernel not selected");
        }
        for start in 0..16 {
            for len in 0..=4200 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), table_crc32(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut page = pattern(4096);
        let reference = crc32(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&page), reference, "flip of bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn zero_extension_changes_crc() {
        // Truncation/extension by zero bytes must not be silent.
        assert_ne!(crc32(&[1, 2, 3]), crc32(&[1, 2, 3, 0]));
        let page = pattern(4096);
        let mut longer = page.clone();
        longer.push(0);
        assert_ne!(crc32(&page), crc32(&longer));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

        #[test]
        fn dispatch_matches_table_on_random_pages(
            page in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 4096)
        ) {
            prop_assert_eq!(crc32(&page), table_crc32(&page));
        }
    }
}
