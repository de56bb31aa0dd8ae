//! CRC-32 (IEEE 802.3 polynomial), hand-rolled. Appended to every
//! marshaled payload so corrupted frames are rejected at the protocol
//! layer instead of producing garbage matrices.
//!
//! The CRC pass sits directly on the wire hot path: it runs once per
//! frame over the whole payload — incrementally during encode on the send
//! side, as a verification scan on the receive side — and again over
//! every solve-cache entry at insert and at serve. Three instances compute
//! the same value:
//!
//! * **512-bit carry-less-multiply folding** (x86-64 with VPCLMULQDQ and
//!   AVX-512F, inputs of 256 bytes or more): four 512-bit accumulators
//!   fold 256 input bytes per iteration, 2048 bits ahead. They then fold
//!   into one 512 bits apart, and that one's four 128-bit lanes into one
//!   128 bits apart, which the 128-bit kernel's reduction finishes.
//! * **128-bit carry-less-multiply folding** (x86-64 with PCLMULQDQ and
//!   SSE4.1, inputs of 64 bytes or more): four 128-bit accumulators
//!   fold 64 input bytes per iteration, then fold into one, and a Barrett
//!   reduction brings the 128-bit remainder down to the 32-bit CRC — the
//!   scheme of Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ" for the bit-reflected polynomial, with its published
//!   constants.
//! * **Slicing-by-8** everywhere else — short inputs, the < 16-byte tail
//!   the folding kernels leave, and hosts without the instructions: eight
//!   const-evaluated 256-entry tables fold 8 input bytes per iteration.
//!
//! The CPU is asked on every call (std caches the answer), and the call
//! into a folding kernel after that check is what the compiler cannot
//! prove sound (see [`update`]); the byte-order loops' dispatch (`be64`)
//! has the same shape.

/// Inputs shorter than this take the table path: the 128-bit folding
/// kernel needs four 16-byte lanes to start.
const FOLD_MIN: usize = 64;

/// Inputs shorter than this take the 128-bit fold: the 512-bit kernel
/// needs four 64-byte accumulators to start.
const WIDE_MIN: usize = 256;

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
    {
        if data.len() >= WIDE_MIN
            && is_x86_feature_detected!("vpclmulqdq")
            && is_x86_feature_detected!("avx512f")
        {
            // SAFETY: `clmul::update_wide` needs only VPCLMULQDQ and
            // AVX-512F, the two features this CPU was just found to have.
            return unsafe { clmul::update_wide(state, data) };
        }
        if data.len() >= FOLD_MIN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `clmul::update` needs only PCLMULQDQ and SSE4.1, the
            // two features this CPU was just found to have.
            return unsafe { clmul::update(state, data) };
        }
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

/// The carry-less-multiply folding kernels. Every folding constant is a
/// power of `x` modulo the polynomial, bit-reflected and shifted left by
/// one, as published for the reflected IEEE polynomial (the Linux and
/// Chromium kernels use the same values); [`xpow_mod`] derives each one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(2048+32) and x^(2048−32) mod P: fold a 512-bit lane 2048 bits
    /// ahead.
    pub(super) const K_WIDE_LO: i64 = xpow_mod(2048 + 32);
    pub(super) const K_WIDE_HI: i64 = xpow_mod(2048 - 32);
    /// x^(4·128+32) and x^(4·128−32) mod P: fold a lane 512 bits ahead.
    pub(super) const K1: i64 = xpow_mod(4 * 128 + 32);
    pub(super) const K2: i64 = xpow_mod(4 * 128 - 32);
    /// x^(128+32) and x^(128−32) mod P: fold a lane 128 bits ahead.
    pub(super) const K3: i64 = xpow_mod(128 + 32);
    pub(super) const K4: i64 = xpow_mod(128 - 32);
    /// x^64 mod P: the 96 → 64-bit step.
    pub(super) const K5: i64 = xpow_mod(64);
    /// P itself and μ = ⌊x^64 / P⌋, for the Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// x^`exp` mod P in the folding kernels' form: the 32-bit remainder
    /// bit-reflected, then shifted left by one.
    pub(super) const fn xpow_mod(exp: u32) -> i64 {
        let mut rem: u32 = 1;
        let mut i = 0;
        while i < exp {
            let carry = rem & 0x8000_0000 != 0;
            rem <<= 1;
            if carry {
                rem ^= 0x04C1_1DB7;
            }
            i += 1;
        }
        (rem.reverse_bits() as i64) << 1
    }

    /// [`super::update`] over `data` of at least `WIDE_MIN` bytes (a
    /// shorter slice panics). Callable only once the CPU is known to have
    /// VPCLMULQDQ and AVX-512F.
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    pub(super) fn update_wide(state: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<64>();
        let mut acc = [
            load_wide(&lanes[0]),
            load_wide(&lanes[1]),
            load_wide(&lanes[2]),
            load_wide(&lanes[3]),
        ];
        acc[0] = _mm512_xor_si512(acc[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)));
        let far = _mm512_broadcast_i32x4(_mm_set_epi64x(K_WIDE_HI, K_WIDE_LO));
        let mut blocks = lanes[4..].chunks_exact(4);
        for block in blocks.by_ref() {
            for (a, lane) in acc.iter_mut().zip(block) {
                *a = fold_wide(*a, load_wide(lane), far);
            }
        }
        let near = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut x = acc[0];
        for &a in &acc[1..] {
            x = fold_wide(x, a, near);
        }
        for lane in blocks.remainder() {
            x = fold_wide(x, load_wide(lane), near);
        }
        let near = _mm_set_epi64x(K4, K3);
        let mut y = _mm512_extracti32x4_epi32::<0>(x);
        y = fold(y, _mm512_extracti32x4_epi32::<1>(x), near);
        y = fold(y, _mm512_extracti32x4_epi32::<2>(x), near);
        y = fold(y, _mm512_extracti32x4_epi32::<3>(x), near);
        let (lanes, tail) = tail.as_chunks::<16>();
        for lane in lanes {
            y = fold(y, load(lane), near);
        }
        super::update_table(reduce(y, near), tail)
    }

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

    /// Four 16-byte lanes, first byte in the low bits (the reflected
    /// order). Built from eight words in memory order, which LLVM turns
    /// into one 64-byte load; `_mm512_set_epi64` over the same words, or
    /// 128-bit lanes inserted one by one, became shuffle chains that cost
    /// the fold 35–65 % of its rate.
    #[target_feature(enable = "avx512f")]
    fn load_wide(lanes: &[u8; 64]) -> __m512i {
        let (q, _) = lanes.as_chunks::<8>();
        let [a, b, c, d, e, f, g, h] = std::array::from_fn(|i| i64::from_le_bytes(q[i]));
        _mm512_setr_epi64(a, b, c, d, e, f, g, h)
    }

    /// One 16-byte lane, first byte in the low bits (the reflected order).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(lane: &[u8; 16]) -> __m128i {
        let (halves, _) = lane.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    }

    /// [`fold`] on each of the four 128-bit lanes side by side.
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    fn fold_wide(a: __m512i, b: __m512i, k: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(a, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(a, k);
        // 0x96: the three-way exclusive or.
        _mm512_ternarylogic_epi64::<0x96>(b, lo, hi)
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
        // Long enough for every folding kernel: 1 KiB of zeros and of 0xFF.
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

    /// One instance of [`update`], called directly: its name, the shortest
    /// input it takes, and the kernel.
    type Instance = (&'static str, usize, unsafe fn(u32, &[u8]) -> u32);

    /// Each instance this CPU can run, whichever one dispatch picks.
    fn instances() -> Vec<Instance> {
        let mut out: Vec<Instance> = vec![("table", 0, update_table)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
                out.push(("clmul128", FOLD_MIN, clmul::update));
            }
            if is_x86_feature_detected!("vpclmulqdq") && is_x86_feature_detected!("avx512f") {
                out.push(("clmul512", WIDE_MIN, clmul::update_wide));
            }
        }
        out
    }

    /// Every instance this CPU can run, and the dispatch, agree with the
    /// byte-at-a-time CRC on every length it takes up to 2 KiB — each
    /// fold-by-4 count, each single-lane remainder and each tail — from 16
    /// start offsets, so every alignment of the loads is covered.
    #[test]
    fn every_instance_matches_byte_at_a_time() {
        let instances = instances();
        let data = pattern(2048 + 16);
        for offset in 0..16 {
            // `want` is the byte-at-a-time state after the first `len`
            // bytes of the slice, advanced one byte per length.
            let start = 0x9E37_79B9 ^ offset as u32;
            let mut want = start;
            for len in 0..=2048 {
                let slice = &data[offset..offset + len];
                if let Some(&b) = slice.last() {
                    want = (want >> 8) ^ TABLES[0][((want ^ b as u32) & 0xFF) as usize];
                }
                assert_eq!(update(start, slice), want, "dispatch {offset}+{len}");
                for &(name, min, instance) in instances.iter().filter(|i| len >= i.1) {
                    // SAFETY: `instances` lists only the kernels whose
                    // features this CPU has, and `len` is at least `min`.
                    let got = unsafe { instance(start, slice) };
                    assert_eq!(got, want, "{name} (from {min} bytes) {offset}+{len}");
                }
            }
        }
    }

    /// The folding constants, derived from the polynomial, are the
    /// published ones.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        use clmul::*;
        assert_eq!(
            [K1, K2, K3, K4, K5],
            [0x1_5444_2bd4, 0x1_c6e4_1596, 0x1_7519_97d0, 0x0_ccaa_009e, 0x1_63cd_6124]
        );
        assert_eq!([K_WIDE_LO, K_WIDE_HI], [0x1_1542_778a, 0x1_322d_1430]);
        assert_eq!(xpow_mod(0), 1 << 32, "x^0 = 1, reflected to bit 31, shifted to 32");
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x55u8; 64];
        let before = crc32(&data);
        data[31] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    /// Chunk boundaries never matter, on either side of either folding
    /// kernel's threshold.
    #[test]
    fn split_updates_compose() {
        netsolve_core::rng::cases("split_updates_compose", 96, |rng| {
            let data: Vec<u8> = (0..rng.range(0..2048)).map(|_| rng.next_u64() as u8).collect();
            let cuts = match rng.range(0..3) {
                0 => 0..2048,
                1 => FOLD_MIN - 8..FOLD_MIN + 8,
                _ => WIDE_MIN - 8..WIDE_MIN + 8,
            };
            let cuts = [rng.range(cuts.clone()), rng.range(cuts)];
            let (cut, next) = (cuts[0].min(cuts[1]), cuts[0].max(cuts[1]));
            let state = rng.next_u64() as u32;
            let (a, rest) = data.split_at(cut.min(data.len()));
            let (b, c) = rest.split_at((next - cut).min(rest.len()));
            assert_eq!(update(update(update(state, a), b), c), update(state, &data));
            assert_eq!(update(state, &data), update_table(state, &data));
        });
    }
}
