//! Binary encoding of feature vectors for on-disk tuples.
//!
//! The scratch table `H(id, f, eps)` stores the feature vector inline with
//! each tuple (Section 3.2), so the storage crate needs a compact,
//! position-independent encoding. Layout (little-endian):
//!
//! ```text
//! dense :  0x01 | len: u32 | len × f32
//! sparse:  0x02 | dim: u32 | nnz: u32 | nnz × u32 (idx) | nnz × f32 (val)
//! ```

use crate::vector::FeatureVec;
use crate::vref::FeatureVecRef;

const TAG_DENSE: u8 = 0x01;
const TAG_SPARSE: u8 = 0x02;

/// Exact encoded size in bytes of `f` (header + payload).
pub fn encoded_len(f: &FeatureVec) -> usize {
    match f {
        FeatureVec::Dense(c) => 1 + 4 + 4 * c.len(),
        FeatureVec::Sparse { idx, .. } => 1 + 4 + 4 + 8 * idx.len(),
    }
}

/// Appends the encoding of `f` to `out`.
pub fn encode_fvec(f: &FeatureVec, out: &mut Vec<u8>) {
    match f {
        FeatureVec::Dense(c) => {
            out.push(TAG_DENSE);
            out.extend_from_slice(&(c.len() as u32).to_le_bytes());
            for &v in c.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        FeatureVec::Sparse { dim, idx, val } => {
            out.push(TAG_SPARSE);
            out.extend_from_slice(&dim.to_le_bytes());
            out.extend_from_slice(&(idx.len() as u32).to_le_bytes());
            for &i in idx.iter() {
                out.extend_from_slice(&i.to_le_bytes());
            }
            for &v in val.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Decodes one feature vector from the front of `buf`, advancing it.
///
/// Returns `None` on malformed or truncated input (a corrupted page must not
/// crash the engine; callers surface a storage error instead). This is
/// [`decode_fvec_ref`] plus one bulk copy per payload — there is one
/// decoder, so one acceptance set.
pub fn decode_fvec(buf: &mut &[u8]) -> Option<FeatureVec> {
    decode_fvec_ref(buf).map(|r| r.to_owned())
}

/// Decodes one feature vector from the front of `buf` **without copying**,
/// advancing the slice past the encoding. The returned [`FeatureVecRef`]
/// borrows the payload bytes directly (the zero-copy scan path).
///
/// Truncated payloads, unknown tags, non-increasing or out-of-dimension
/// sparse indices all return `None` (property-tested in
/// `tests/properties.rs`).
pub fn decode_fvec_ref<'a>(buf: &mut &'a [u8]) -> Option<FeatureVecRef<'a>> {
    let b = *buf;
    match *b.first()? {
        TAG_DENSE => {
            if b.len() < 5 {
                return None;
            }
            let len = u32::from_le_bytes(b[1..5].try_into().expect("4 bytes")) as usize;
            let need = 4 * len;
            if b.len() - 5 < need {
                return None;
            }
            let raw = &b[5..5 + need];
            *buf = &b[5 + need..];
            Some(FeatureVecRef::Dense { raw })
        }
        TAG_SPARSE => {
            if b.len() < 9 {
                return None;
            }
            let dim = u32::from_le_bytes(b[1..5].try_into().expect("4 bytes"));
            let nnz = u32::from_le_bytes(b[5..9].try_into().expect("4 bytes")) as usize;
            let need = 8 * nnz;
            if b.len() - 9 < need {
                return None;
            }
            let idx_raw = &b[9..9 + 4 * nnz];
            let val_raw = &b[9 + 4 * nnz..9 + need];
            // Indices must be strictly increasing and in range; reject
            // anything else rather than build an invariant-violating vector.
            let mut prev: Option<u32> = None;
            for chunk in idx_raw.chunks_exact(4) {
                let i = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                if i >= dim || prev.is_some_and(|p| p >= i) {
                    return None;
                }
                prev = Some(i);
            }
            *buf = &b[9 + need..];
            Some(FeatureVecRef::Sparse { dim, idx_raw, val_raw })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &FeatureVec) {
        let mut buf = Vec::new();
        encode_fvec(f, &mut buf);
        assert_eq!(buf.len(), encoded_len(f));
        let mut slice = &buf[..];
        let back = decode_fvec(&mut slice).expect("decode");
        assert_eq!(&back, f);
        assert!(slice.is_empty(), "decoder must consume exactly the encoding");
    }

    /// `bytes` is not a valid encoding (one decoder: the owned one delegates).
    fn rejected(bytes: &[u8]) {
        let mut b = bytes;
        assert!(decode_fvec(&mut b).is_none(), "decoder accepted {bytes:?}");
    }

    #[test]
    fn dense_round_trip() {
        round_trip(&FeatureVec::dense(vec![1.5, -2.0, 0.0, 3.25]));
        round_trip(&FeatureVec::dense(Vec::<f32>::new()));
    }

    #[test]
    fn sparse_round_trip() {
        round_trip(&FeatureVec::sparse(1000, vec![(3, 1.0), (999, -0.5)]));
        round_trip(&FeatureVec::zeros(42));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        encode_fvec(&FeatureVec::dense(vec![1.0, 2.0]), &mut buf);
        for cut in 0..buf.len() {
            rejected(&buf[..cut]);
        }
        let mut sparse = Vec::new();
        encode_fvec(&FeatureVec::sparse(10, vec![(1, 1.0), (7, 2.0)]), &mut sparse);
        for cut in 0..sparse.len() {
            rejected(&sparse[..cut]);
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        rejected(&[0x7f, 0, 0, 0, 0]);
        rejected(&[]);
    }

    #[test]
    fn non_increasing_indices_are_rejected() {
        // hand-build a sparse encoding with idx [5, 5]
        let mut buf = vec![0x02];
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        rejected(&buf);
    }

    #[test]
    fn out_of_dim_index_is_rejected() {
        let mut buf = vec![0x02];
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes()); // idx 4 >= dim 4
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        rejected(&buf);
    }

    #[test]
    fn ref_decode_consumes_exactly_one_encoding_from_a_stream() {
        // two encodings back-to-back, as they sit inside a page record
        let a = FeatureVec::sparse(50, vec![(2, 1.0), (30, -2.0)]);
        let b = FeatureVec::dense(vec![0.5, 1.5]);
        let mut buf = Vec::new();
        encode_fvec(&a, &mut buf);
        encode_fvec(&b, &mut buf);
        let mut slice = &buf[..];
        let ra = decode_fvec_ref(&mut slice).expect("first");
        assert_eq!(ra.to_owned(), a);
        let rb = decode_fvec_ref(&mut slice).expect("second");
        assert_eq!(rb.to_owned(), b);
        assert!(slice.is_empty());
    }
}
