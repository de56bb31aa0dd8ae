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
mod proptests {
    use netsolve_core::data::DataObject;
    use netsolve_core::matrix::Matrix;
    use netsolve_core::sparse::CsrMatrix;
    use proptest::prelude::*;

    fn arb_object() -> impl Strategy<Value = DataObject> {
        prop_oneof![
            any::<i64>().prop_map(DataObject::Int),
            // Use bit-pattern doubles so NaN payloads are covered too.
            any::<u64>().prop_map(|bits| DataObject::Double(f64::from_bits(bits))),
            prop::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..64)
                .prop_map(DataObject::Vector),
            (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
                prop::collection::vec(-1e6..1e6f64, r * c)
                    .prop_map(move |data| {
                        DataObject::Matrix(Matrix::from_col_major(r, c, data).unwrap())
                    })
            }),
            (2usize..6, 2usize..6).prop_map(|(nx, ny)| {
                DataObject::Sparse(CsrMatrix::laplacian_2d(nx, ny))
            }),
            "[ -~]{0,80}".prop_map(DataObject::Text),
        ]
    }

    proptest! {
        #[test]
        fn object_roundtrip(obj in arb_object()) {
            let bytes = crate::to_bytes(std::slice::from_ref(&obj));
            let back = crate::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.len(), 1);
            // Compare via bit patterns for doubles (NaN != NaN).
            match (&back[0], &obj) {
                (DataObject::Double(a), DataObject::Double(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                (a, b) => prop_assert_eq!(a, b),
            }
        }

        #[test]
        fn object_list_roundtrip(objs in prop::collection::vec(arb_object(), 0..8)) {
            // NaN-tolerant list check: decode then re-encode must be
            // byte-identical (canonical encoding).
            let bytes = crate::to_bytes(&objs);
            let back = crate::from_bytes(&bytes).unwrap();
            let bytes2 = crate::to_bytes(&back);
            prop_assert_eq!(bytes, bytes2);
        }

        #[test]
        fn random_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..512)) {
            // Decoding arbitrary garbage must fail cleanly, never panic or
            // over-allocate.
            let _ = crate::from_bytes(&data);
        }

        #[test]
        fn truncated_valid_payload_errors(objs in prop::collection::vec(arb_object(), 1..4),
                                          cut in 1usize..32) {
            let bytes = crate::to_bytes(&objs);
            if cut < bytes.len() {
                let truncated = &bytes[..bytes.len() - cut];
                prop_assert!(crate::from_bytes(truncated).is_err());
            }
        }

        #[test]
        fn primitive_u64_roundtrip(v in any::<u64>()) {
            let mut e = crate::Encoder::new();
            e.put_u64(v);
            let bytes = e.into_bytes();
            let mut d = crate::Decoder::new(&bytes);
            prop_assert_eq!(d.get_u64().unwrap(), v);
        }

        #[test]
        fn string_roundtrip(s in "\\PC{0,200}") {
            let mut e = crate::Encoder::new();
            e.put_string(&s);
            let bytes = e.into_bytes();
            let mut d = crate::Decoder::new(&bytes);
            prop_assert_eq!(d.get_string().unwrap(), s);
            d.finish().unwrap();
        }

        #[test]
        fn crc_detects_flips(data in prop::collection::vec(any::<u8>(), 1..256),
                             byte in any::<prop::sample::Index>(),
                             bit in 0u8..8) {
            let mut mutated = data.clone();
            let idx = byte.index(mutated.len());
            mutated[idx] ^= 1 << bit;
            prop_assert_ne!(crate::crc32(&data), crate::crc32(&mutated));
        }
    }
}
