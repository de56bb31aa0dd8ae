//! The bulk byte-order loops: runs of 8-byte words between host order and
//! the wire's big-endian order, one loop per direction. Each is one safe
//! loop compiled three times — as is, for the x86-64 baseline (SSE2 has no
//! byte shuffle, so the swap is scalar); under
//! `#[target_feature(enable = "ssse3")]`, where LLVM turns the same loop
//! into `pshufb` over 16 bytes at a time; and under
//! `#[target_feature(enable = "avx512bw")]`, where it becomes `vpshufb`
//! over 64. The decode loop appends to its vector with `Vec::extend`, so
//! the elements are written once, with no zero-fill before them. The CPU
//! is asked on every call (std caches the answer), as
//! [`crate::checksum::update`] does, and the call after that check is this
//! module's only `unsafe`.

/// An 8-byte value the wire carries as one big-endian word.
pub(crate) trait Word: Copy {
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
    {
        if is_x86_feature_detected!("avx512bw") {
            // SAFETY: `encode_avx512bw` needs only AVX-512BW, which this
            // CPU was just found to have.
            return unsafe { encode_avx512bw(dst, src) };
        }
        if is_x86_feature_detected!("ssse3") {
            // SAFETY: `encode_ssse3` needs only SSSE3, which this CPU was
            // just found to have.
            return unsafe { encode_ssse3(dst, src) };
        }
    }
    encode_portable(dst, src)
}

/// Appends the big-endian words of `src` to `out`; `src.len()` is a
/// multiple of 8.
pub(crate) fn decode<T: Word>(out: &mut Vec<T>, src: &[u8]) {
    debug_assert_eq!(src.len() % 8, 0);
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") {
            // SAFETY: `decode_avx512bw` needs only AVX-512BW, which this
            // CPU was just found to have.
            return unsafe { decode_avx512bw(out, src) };
        }
        if is_x86_feature_detected!("ssse3") {
            // SAFETY: `decode_ssse3` needs only SSSE3, which this CPU was
            // just found to have.
            return unsafe { decode_ssse3(out, src) };
        }
    }
    decode_portable(out, src)
}

#[inline(always)]
fn encode_portable<T: Word>(dst: &mut [u8], src: &[T]) {
    for (d, &x) in dst.as_chunks_mut::<8>().0.iter_mut().zip(src) {
        *d = x.to_word().to_be_bytes();
    }
}

#[inline(always)]
fn decode_portable<T: Word>(out: &mut Vec<T>, src: &[u8]) {
    out.extend(src.as_chunks::<8>().0.iter().map(|s| T::from_word(u64::from_be_bytes(*s))));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
fn encode_ssse3<T: Word>(dst: &mut [u8], src: &[T]) {
    encode_portable(dst, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
fn decode_ssse3<T: Word>(out: &mut Vec<T>, src: &[u8]) {
    decode_portable(out, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
fn encode_avx512bw<T: Word>(dst: &mut [u8], src: &[T]) {
    encode_portable(dst, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
fn decode_avx512bw<T: Word>(out: &mut Vec<T>, src: &[u8]) {
    decode_portable(out, src)
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

    /// One instance of each loop, called directly.
    type Instances<T> = (&'static str, unsafe fn(&mut [u8], &[T]), unsafe fn(&mut Vec<T>, &[u8]));

    /// The portable loops, each instance this CPU can run whichever one
    /// dispatch picks, and the dispatch itself.
    fn instances<T: Word>() -> Vec<Instances<T>> {
        let mut out: Vec<Instances<T>> =
            vec![("portable", encode_portable, decode_portable), ("dispatch", encode, decode)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("ssse3") {
                out.push(("ssse3", encode_ssse3, decode_ssse3));
            }
            if is_x86_feature_detected!("avx512bw") {
                out.push(("avx512bw", encode_avx512bw, decode_avx512bw));
            }
        }
        out
    }

    /// Every instance this CPU can run agrees with the portable loop, both
    /// ways, for `words` as `T`: every length up to 256 words (2 KiB), the
    /// byte side at 16 offsets and the word side at two, so each vector
    /// loop's head and tail run at every length and both alignments of a
    /// word. Decode appends behind a word already in the vector, and
    /// round-trips to `words`.
    fn check_instances<T: Word>(words: &[T], bits: fn(&[T]) -> Vec<u64>) {
        let mut bytes = vec![0u8; 8 * 256 + 16];
        let mut reference = vec![0u8; 8 * 256];
        for (name, encode, decode) in instances::<T>() {
            for len in 0..=256 {
                for offset in 0..16 {
                    let words = &words[offset % 2..][..len];
                    let out = &mut bytes[offset..offset + 8 * len];
                    let reference = &mut reference[..8 * len];
                    encode_portable(reference, words);
                    // SAFETY: `instances` lists only the loops whose
                    // feature this CPU has.
                    unsafe { encode(out, words) };
                    assert_eq!(out, reference, "{name} encode {len}+{offset}");
                    let ahead = T::from_word(0x0123_4567_89AB_CDEF);
                    let (mut back, mut want) = (vec![ahead], vec![ahead]);
                    // SAFETY: as above.
                    unsafe { decode(&mut back, out) };
                    decode_portable(&mut want, out);
                    assert_eq!(bits(&back), bits(&want), "{name} decode {len}+{offset}");
                    assert_eq!(bits(&back[1..]), bits(words), "{name} round trip {len}+{offset}");
                }
            }
        }
    }

    #[test]
    fn every_instance_matches_the_portable_loops() {
        let all = words(256 + 2);
        check_instances(&all, <[u64]>::to_vec);
        let floats: Vec<f64> = all.iter().map(|&w| f64::from_bits(w)).collect();
        check_instances(&floats, |xs| xs.iter().map(|x| x.to_bits()).collect());
    }
}
