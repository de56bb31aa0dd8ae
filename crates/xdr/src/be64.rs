//! The bulk byte-order loops: runs of 8-byte words between host order and
//! the wire's big-endian order, one loop per direction. Each is one safe
//! loop compiled twice — as is, for the x86-64 baseline (SSE2 has no byte
//! shuffle, so the swap is scalar), and under
//! `#[target_feature(enable = "ssse3")]`, where LLVM turns the same loop
//! into `pshufb` over 16 bytes at a time. The CPU is asked on every call
//! (std caches the answer), as [`crate::checksum::update`] does, and the
//! call after that check is this module's only `unsafe`.

/// An 8-byte value the wire carries as one big-endian word.
pub(crate) trait Word: Copy + Default {
    /// The word's bits.
    fn to_word(self) -> u64;
    /// The value whose bits are `word`.
    fn from_word(word: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> u64 {
        word
    }
}

/// Bit for bit: NaN payloads, signed zeros and subnormals cross unchanged.
impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(word: u64) -> f64 {
        f64::from_bits(word)
    }
}

/// `dst` = `src`'s words, big-endian, 8 bytes each; `dst` is
/// `8 * src.len()` bytes long.
pub(crate) fn encode<T: Word>(dst: &mut [u8], src: &[T]) {
    debug_assert_eq!(dst.len(), 8 * src.len());
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("ssse3") {
        // SAFETY: `encode_ssse3` needs only SSSE3, which this CPU was just
        // found to have.
        return unsafe { encode_ssse3(dst, src) };
    }
    encode_portable(dst, src)
}

/// `dst` = the big-endian words of `src`; `src` is `8 * dst.len()` bytes
/// long.
pub(crate) fn decode<T: Word>(dst: &mut [T], src: &[u8]) {
    debug_assert_eq!(src.len(), 8 * dst.len());
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("ssse3") {
        // SAFETY: `decode_ssse3` needs only SSSE3, which this CPU was just
        // found to have.
        return unsafe { decode_ssse3(dst, src) };
    }
    decode_portable(dst, src)
}

#[inline(always)]
fn encode_portable<T: Word>(dst: &mut [u8], src: &[T]) {
    for (d, &x) in dst.as_chunks_mut::<8>().0.iter_mut().zip(src) {
        *d = x.to_word().to_be_bytes();
    }
}

#[inline(always)]
fn decode_portable<T: Word>(dst: &mut [T], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.as_chunks::<8>().0) {
        *d = T::from_word(u64::from_be_bytes(*s));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
fn encode_ssse3<T: Word>(dst: &mut [u8], src: &[T]) {
    encode_portable(dst, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
fn decode_ssse3<T: Word>(dst: &mut [T], src: &[u8]) {
    decode_portable(dst, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words that look like nothing in particular, plus every special
    /// `f64`: NaN payloads (quiet and signalling, both signs), ±0.0,
    /// subnormals, ±infinity.
    fn words(n: usize) -> Vec<u64> {
        let specials = [
            f64::NAN.to_bits(),
            0x7FF0_0000_0000_0001, // signalling NaN
            0xFFF8_0000_DEAD_BEEF, // negative NaN with a payload
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            f64::MIN_POSITIVE.to_bits() - 1, // largest subnormal
            1,                               // smallest subnormal
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
        ];
        (0..n as u64)
            .map(|i| match specials.get(i as usize % 23) {
                Some(&s) => s,
                None => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 17),
            })
            .collect()
    }

    /// Whichever loop the dispatch picks on this host agrees with the
    /// portable loop, both ways and for both word types, on every length up
    /// to 1024 words, with the byte side at 8 offsets and the word side at
    /// two (so every 16-byte alignment of each side is met).
    #[test]
    fn dispatched_loops_match_the_portable_loops() {
        let all = words(1024 + 2);
        let floats: Vec<f64> = all.iter().map(|&w| f64::from_bits(w)).collect();
        let mut bytes = vec![0u8; 8 * 1024 + 8];
        let mut reference = vec![0u8; 8 * 1024];
        for len in 0..=1024 {
            for offset in 0..8 {
                let (words, floats) = (&all[offset % 2..][..len], &floats[offset % 2..][..len]);
                let out = &mut bytes[offset..offset + 8 * len];
                let reference = &mut reference[..8 * len];

                encode_portable(reference, words);
                encode(out, words);
                assert_eq!(out, reference, "u64 encode {len}+{offset}");
                let mut back = vec![0u64; len];
                decode(&mut back, out);
                assert_eq!(back, words, "u64 decode {len}+{offset}");

                encode_portable(reference, floats);
                encode(out, floats);
                assert_eq!(out, reference, "f64 encode {len}+{offset}");
                let (mut back, mut want) = (vec![0.0f64; len], vec![0.0f64; len]);
                decode(&mut back, out);
                decode_portable(&mut want, out);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&back), bits(&want), "f64 decode {len}+{offset}");
                assert_eq!(bits(&back), bits(floats), "f64 round trip {len}+{offset}");
            }
        }
    }
}
