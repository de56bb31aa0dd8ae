//! # netsolve-xdr
//!
//! Hand-written XDR-style wire marshaling for netsolve-rs.
//!
//! The 1996 NetSolve system had no serialization framework to lean on — its
//! client, agent and server exchanged Sun-XDR-flavoured byte streams that
//! the authors marshaled by hand. This crate reproduces that layer from
//! scratch (per the reproduction's constraint that no serde touches the
//! wire):
//!
//! * [`codec`] — big-endian, 4-byte-aligned primitives with bounds-checked,
//!   allocation-limited decoding;
//! * [`object`] — tagged encoding of [`netsolve_core::DataObject`] values
//!   (scalars, vectors, dense and sparse matrices, strings);
//! * [`checksum`] — hand-rolled CRC-32 used by the framing layer in
//!   `netsolve-proto` to reject corrupted frames.

#![warn(missing_docs)]

mod be64;
pub mod checksum;
pub mod codec;
pub mod object;

pub use checksum::{crc32, Crc32};
pub use codec::{decode_list, Decoder, Encoder, DEFAULT_MAX_ITEM_BYTES, STREAM_INIT_ALLOC};
pub use object::{decode_object, decode_objects, encode_object, encode_objects, from_bytes, to_bytes};

#[cfg(test)]
mod properties {
    use netsolve_core::data::DataObject;
    use netsolve_core::matrix::Matrix;
    use netsolve_core::rng::{cases, Rng64};
    use netsolve_core::sparse::CsrMatrix;

    /// A double from the whole bit space, its rare classes drawn often: one
    /// time in eight each a subnormal (or ±0), a NaN with any payload, ±inf.
    fn any_f64(rng: &mut Rng64) -> f64 {
        const EXP: u64 = 0x7FF0_0000_0000_0000;
        let bits = rng.next_u64();
        f64::from_bits(match rng.below(8) {
            0 => bits & !EXP,
            1 => bits | EXP | 1,
            2 => (bits & (1 << 63)) | EXP,
            _ => bits,
        })
    }

    fn arb_object(rng: &mut Rng64) -> DataObject {
        match rng.below(6) {
            0 => DataObject::Int(rng.next_u64() as i64),
            // Use bit-pattern doubles so NaN payloads are covered too.
            1 => DataObject::Double(f64::from_bits(rng.next_u64())),
            2 => DataObject::Vector((0..rng.range(0..64)).map(|_| any_f64(rng)).collect()),
            3 => {
                let (r, c) = (rng.range(1..8), rng.range(1..8));
                let data = (0..r * c).map(|_| any_f64(rng)).collect();
                DataObject::Matrix(Matrix::from_col_major(r, c, data).unwrap())
            }
            4 => DataObject::Sparse(CsrMatrix::laplacian_2d(rng.range(2..6), rng.range(2..6))),
            _ => DataObject::Text(rng.string(" -~", 0..=80)),
        }
    }

    fn arb_objects(rng: &mut Rng64, count: std::ops::Range<usize>) -> Vec<DataObject> {
        (0..rng.range(count)).map(|_| arb_object(rng)).collect()
    }

    /// `a` is `b` with every double the same bits: NaN payloads included,
    /// which `==` cannot compare.
    fn same_bits(a: &DataObject, b: &DataObject) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (DataObject::Double(x), DataObject::Double(y)) => x.to_bits() == y.to_bits(),
            (DataObject::Vector(x), DataObject::Vector(y)) => bits(x) == bits(y),
            (DataObject::Matrix(x), DataObject::Matrix(y)) => {
                (x.rows(), x.cols()) == (y.rows(), y.cols())
                    && bits(x.as_slice()) == bits(y.as_slice())
            }
            _ => a == b,
        }
    }

    #[test]
    fn object_roundtrip() {
        cases("object_roundtrip", 64, |rng| {
            let obj = arb_object(rng);
            let back = crate::from_bytes(&crate::to_bytes(std::slice::from_ref(&obj))).unwrap();
            assert_eq!(back.len(), 1);
            assert!(same_bits(&back[0], &obj), "{:?} came back as {:?}", obj, back[0]);
        });
    }

    #[test]
    fn object_list_roundtrip() {
        // Bit for bit, and decode then re-encode is byte-identical
        // (canonical encoding).
        cases("object_list_roundtrip", 64, |rng| {
            let objs = arb_objects(rng, 0..8);
            let bytes = crate::to_bytes(&objs);
            let back = crate::from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), objs.len());
            assert!(back.iter().zip(&objs).all(|(a, b)| same_bits(a, b)));
            assert_eq!(bytes, crate::to_bytes(&back));
        });
    }

    #[test]
    fn random_bytes_never_panic() {
        // Decoding arbitrary garbage must fail cleanly, never panic or
        // over-allocate.
        cases("random_bytes_never_panic", 64, |rng| {
            let data: Vec<u8> = (0..rng.range(0..512)).map(|_| rng.next_u64() as u8).collect();
            let _ = crate::from_bytes(&data);
        });
    }

    #[test]
    fn truncated_valid_payload_errors() {
        cases("truncated_valid_payload_errors", 64, |rng| {
            let bytes = crate::to_bytes(&arb_objects(rng, 1..4));
            let cut = rng.range(1..bytes.len());
            assert!(crate::from_bytes(&bytes[..bytes.len() - cut]).is_err());
        });
    }

    #[test]
    fn primitive_u64_roundtrip() {
        cases("primitive_u64_roundtrip", 64, |rng| {
            let v = rng.next_u64();
            let mut e = crate::Encoder::new();
            e.put_u64(v);
            let bytes = e.into_bytes();
            let mut d = crate::Decoder::new(&bytes);
            assert_eq!(d.get_u64().unwrap(), v);
        });
    }

    #[test]
    fn string_roundtrip() {
        cases("string_roundtrip", 64, |rng| {
            let s = rng.string(" -~£é÷ßλжᚠ‰→中日🙂", 0..=200);
            let mut e = crate::Encoder::new();
            e.put_string(&s);
            let bytes = e.into_bytes();
            let mut d = crate::Decoder::new(&bytes);
            assert_eq!(d.get_string().unwrap(), s);
            d.finish().unwrap();
        });
    }

    #[test]
    fn crc_detects_flips() {
        cases("crc_detects_flips", 64, |rng| {
            let data: Vec<u8> = (0..rng.range(1..256)).map(|_| rng.next_u64() as u8).collect();
            let mut mutated = data.clone();
            let idx = rng.below(mutated.len());
            mutated[idx] ^= 1 << rng.below(8);
            assert_ne!(crate::crc32(&data), crate::crc32(&mutated));
        });
    }
}
