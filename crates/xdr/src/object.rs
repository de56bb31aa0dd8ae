//! Marshaling of [`DataObject`]s — the payload of every NetSolve request
//! and reply — on top of the primitive XDR codec.
//!
//! Wire shape of one object: a 4-byte kind tag, then the kind-specific
//! payload. A list of objects is a `u32` count followed by the objects.

use netsolve_core::data::{DataObject, ObjectKind};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;
use netsolve_core::sparse::CsrMatrix;

use crate::codec::{decode_list, Decoder, Encoder};

/// Encode one data object.
pub fn encode_object(e: &mut Encoder<'_>, obj: &DataObject) {
    e.put_u32(obj.kind().tag() as u32);
    match obj {
        DataObject::Int(v) => e.put_i64(*v),
        DataObject::Double(v) => e.put_f64(*v),
        DataObject::Vector(v) => e.put_f64_array(v),
        DataObject::Matrix(m) => {
            e.put_u32(m.rows() as u32);
            e.put_u32(m.cols() as u32);
            e.put_f64_array(m.as_slice());
        }
        DataObject::Sparse(s) => {
            let (row_ptr, col_idx, values) = s.parts();
            e.put_u32(s.rows() as u32);
            e.put_u32(s.cols() as u32);
            let rp: Vec<u64> = row_ptr.iter().map(|&x| x as u64).collect();
            let ci: Vec<u64> = col_idx.iter().map(|&x| x as u64).collect();
            e.put_u64_array(&rp);
            e.put_u64_array(&ci);
            e.put_f64_array(values);
        }
        DataObject::Text(t) => e.put_string(t),
    }
}

/// Decode one data object.
pub fn decode_object(d: &mut Decoder<'_>) -> Result<DataObject> {
    let tag = d.get_u32()?;
    let kind = ObjectKind::from_tag(
        u8::try_from(tag)
            .map_err(|_| NetSolveError::Protocol(format!("kind tag {tag} out of range")))?,
    )?;
    Ok(match kind {
        ObjectKind::IntScalar => DataObject::Int(d.get_i64()?),
        ObjectKind::DoubleScalar => DataObject::Double(d.get_f64()?),
        ObjectKind::Vector => DataObject::Vector(d.get_f64_array()?),
        ObjectKind::Matrix => {
            let rows = d.get_u32()? as usize;
            let cols = d.get_u32()? as usize;
            let data = d.get_f64_array()?;
            DataObject::Matrix(
                Matrix::from_col_major(rows, cols, data)
                    .map_err(|e| NetSolveError::Protocol(e.to_string()))?,
            )
        }
        ObjectKind::SparseMatrix => {
            let rows = d.get_u32()? as usize;
            let cols = d.get_u32()? as usize;
            let rp: Vec<usize> = d.get_u64_array()?.into_iter().map(|x| x as usize).collect();
            let ci: Vec<usize> = d.get_u64_array()?.into_iter().map(|x| x as usize).collect();
            let values = d.get_f64_array()?;
            DataObject::Sparse(
                CsrMatrix::from_parts(rows, cols, rp, ci, values)
                    .map_err(|e| NetSolveError::Protocol(e.to_string()))?,
            )
        }
        ObjectKind::Text => DataObject::Text(d.get_string()?),
    })
}

/// Encode a list of objects (u32 count + objects).
pub fn encode_objects(e: &mut Encoder<'_>, objs: &[DataObject]) {
    e.put_u32(objs.len() as u32);
    for obj in objs {
        encode_object(e, obj);
    }
}

/// Decode a list of objects. Each object needs at least its 4-byte tag
/// on the wire, which is the bound [`decode_list`] holds the count to.
pub fn decode_objects(d: &mut Decoder<'_>) -> Result<Vec<DataObject>> {
    decode_list(d, 4, "object", decode_object)
}

/// Convenience: marshal a whole object list to bytes.
pub fn to_bytes(objs: &[DataObject]) -> Vec<u8> {
    // Reserve based on payload size to avoid re-allocation on big matrices.
    let hint: u64 = objs.iter().map(|o| o.wire_bytes() + 16).sum();
    let mut e = Encoder::with_capacity(hint as usize);
    encode_objects(&mut e, objs);
    e.into_bytes()
}

/// Convenience: unmarshal a whole object list, requiring full consumption.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<DataObject>> {
    let mut d = Decoder::new(bytes);
    let objs = decode_objects(&mut d)?;
    d.finish()?;
    Ok(objs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::rng::Rng64;

    fn sample_objects() -> Vec<DataObject> {
        let mut rng = Rng64::new(99);
        vec![
            DataObject::Int(-7),
            DataObject::Double(2.5e-300),
            DataObject::Vector(vec![1.0, -2.0, f64::MAX]),
            DataObject::Matrix(Matrix::random(5, 3, &mut rng)),
            DataObject::Sparse(CsrMatrix::laplacian_2d(4, 4)),
            DataObject::Text("solve Ax=b".into()),
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for obj in sample_objects() {
            let bytes = to_bytes(std::slice::from_ref(&obj));
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0], obj);
        }
    }

    #[test]
    fn object_list_roundtrips() {
        let objs = sample_objects();
        let bytes = to_bytes(&objs);
        assert_eq!(from_bytes(&bytes).unwrap(), objs);
    }

    #[test]
    fn empty_list_roundtrips() {
        let bytes = to_bytes(&[]);
        assert_eq!(bytes.len(), 4);
        assert!(from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut e = Encoder::new();
        e.put_u32(1); // one object
        e.put_u32(250); // bogus tag
        assert!(from_bytes(&e.into_bytes()).is_err());
    }

    #[test]
    fn impossible_count_rejected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        assert!(from_bytes(&e.into_bytes()).is_err());
    }

    #[test]
    fn truncated_matrix_rejected() {
        let bytes = to_bytes(&[DataObject::Matrix(Matrix::zeros(8, 8))]);
        assert!(from_bytes(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn corrupt_sparse_structure_rejected() {
        // Encode a sparse matrix, then corrupt a row_ptr entry to break
        // monotonicity; the decoder must refuse, not build a bad CSR.
        let s = CsrMatrix::laplacian_2d(3, 3);
        let bytes = to_bytes(&[DataObject::Sparse(s)]);
        // layout: count(4) tag(4) rows(4) cols(4) rp_len(4) rp[0](8) rp[1](8)...
        let mut bad = bytes.clone();
        let rp1_offset = 4 + 4 + 4 + 4 + 4 + 8;
        // make row_ptr[1] enormous
        bad[rp1_offset..rp1_offset + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(from_bytes(&bad).is_err());
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = to_bytes(&[DataObject::Vector(vec![0.0; 10])]);
        let big = to_bytes(&[DataObject::Vector(vec![0.0; 1000])]);
        assert!(big.len() > small.len());
        assert_eq!(big.len() - small.len(), (1000 - 10) * 8);
    }
}
