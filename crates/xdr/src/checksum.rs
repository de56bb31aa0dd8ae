//! CRC-32 (IEEE 802.3 polynomial), hand-rolled. Appended to every
//! marshaled payload so corrupted frames are rejected at the protocol
//! layer instead of producing garbage matrices.
//!
//! The CRC pass sits directly on the wire hot path: it runs once per
//! frame over the whole payload — incrementally during encode on the send
//! side, as a verification scan on the receive side — and again over
//! every solve-cache entry at insert and at serve. Two kernels compute
//! the same value:
//!
//! * **Carry-less-multiply folding** (x86-64 with PCLMULQDQ and SSE4.1,
//!   inputs of 64 bytes or more): four 128-bit accumulators
//!   fold 64 input bytes per iteration, then fold into one, and a Barrett
//!   reduction brings the 128-bit remainder down to the 32-bit CRC — the
//!   scheme of Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ" for the bit-reflected polynomial, with its published
//!   constants. The CPU is asked on every call (std caches the answer),
//!   and the call into the kernel after that check is one of the
//!   workspace's two places the compiler cannot prove sound (see
//!   [`update`]; the other is the byte-order loops' dispatch, `be64`).
//! * **Slicing-by-8** everywhere else — short inputs, the < 16-byte tail
//!   the folding kernel leaves, and hosts without the instructions: eight
//!   const-evaluated 256-entry tables fold 8 input bytes per iteration.

/// Inputs shorter than this take the table path: the folding kernel
/// needs four 16-byte lanes to start.
const FOLD_MIN: usize = 64;

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320,
/// generated at compile time. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k]` advances a byte through `k` additional zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of a byte slice (standard IEEE init/final xor).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental form: feed chunks through `update` starting from
/// `0xFFFF_FFFF`, then xor with `0xFFFF_FFFF` at the end. Chunk
/// boundaries do not affect the result, so callers may split the input
/// arbitrarily (the frame writer feeds it one encoded field at a time).
pub fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::update` needs only PCLMULQDQ and SSE4.1, the two
        // features this CPU was just found to have.
        return unsafe { clmul::update(state, data) };
    }
    update_table(state, data)
}

/// The slicing-by-8 kernel: any length, any host.
fn update_table(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        // Fold the running CRC into the first word, then look all eight
        // bytes up in parallel tables — one iteration per 8 input bytes.
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply folding kernel. Every constant is a power of
/// `x` modulo the polynomial, bit-reflected and shifted left by one, as
/// published for the reflected IEEE polynomial (the Linux and Chromium
/// kernels use the same values).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32) mod P: fold a lane 512 bits ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: fold a lane 128 bits ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and μ = ⌊x^64 / P⌋, for the Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// [`super::update`] over `data` of at least `FOLD_MIN` bytes (a
    /// shorter slice panics). Callable only once the CPU is known to have
    /// PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let mut acc = [load(&lanes[0]), load(&lanes[1]), load(&lanes[2]), load(&lanes[3])];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let far = _mm_set_epi64x(K2, K1);
        let mut blocks = lanes[4..].chunks_exact(4);
        for block in blocks.by_ref() {
            for (a, lane) in acc.iter_mut().zip(block) {
                *a = fold(*a, load(lane), far);
            }
        }
        let near = _mm_set_epi64x(K4, K3);
        let mut x = acc[0];
        for &a in &acc[1..] {
            x = fold(x, a, near);
        }
        for lane in blocks.remainder() {
            x = fold(x, load(lane), near);
        }
        super::update_table(reduce(x, near), tail)
    }

    /// One 16-byte lane, first byte in the low bits (the reflected order).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(lane: &[u8; 16]) -> __m128i {
        let (halves, _) = lane.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    }

    /// Carry `a` forward by the distance `k` encodes and add `b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// 128-bit remainder → 64 → 32 bits: two folds, then Barrett.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, near: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, near), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

/// Streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn write(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Varied, non-periodic bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(167) ^ (i >> 5) ^ 0xA5) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough for the folding kernel: 1 KiB of zeros and of 0xFF.
        assert_eq!(crc32(&[0u8; 1024]), 0xEFB5_AF2E);
        assert_eq!(crc32(&[0xFFu8; 1024]), 0xB83A_FFF4);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut acc = Crc32::new();
        for chunk in data.chunks(7) {
            acc.write(chunk);
        }
        assert_eq!(acc.finish(), crc32(data));
    }

    #[test]
    fn sliced_path_matches_byte_at_a_time() {
        // Cross-check the 8-byte hot loop against the scalar reference on
        // every length 0..64 (exercising all remainder sizes and
        // alignments), with varied content.
        fn reference(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            crc ^ 0xFFFF_FFFF
        }
        let data = pattern(64);
        for len in 0..=data.len() {
            assert_eq!(update_table(!0, &data[..len]) ^ !0, reference(&data[..len]), "len={len}");
        }
    }

    /// Whichever kernel `update` picks on this host agrees with the table
    /// path on every length up to 1 KiB — each fold-by-4 count, each
    /// fold-by-1 remainder and each tail — from 16 start offsets, so every
    /// alignment of the 16-byte loads is covered.
    #[test]
    fn dispatched_path_matches_table_path() {
        let data = pattern(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                let state = 0x9E37_79B9 ^ len as u32;
                assert_eq!(update(state, slice), update_table(state, slice), "{offset}+{len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x55u8; 64];
        let before = crc32(&data);
        data[31] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    /// Chunk boundaries never matter, on either side of the fast
    /// path's threshold.
    #[test]
    fn split_updates_compose() {
        netsolve_core::rng::cases("split_updates_compose", 64, |rng| {
            let data: Vec<u8> = (0..rng.range(0..400)).map(|_| rng.next_u64() as u8).collect();
            let cuts = if rng.chance(0.5) { 0..400 } else { FOLD_MIN - 8..FOLD_MIN + 8 };
            let cut = rng.range(cuts);
            let state = rng.next_u64() as u32;
            let (a, b) = data.split_at(cut.min(data.len()));
            assert_eq!(update(update(state, a), b), update(state, &data));
            assert_eq!(update(state, &data), update_table(state, &data));
        });
    }
}
