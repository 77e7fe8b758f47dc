//! Entities and the on-disk tuple format of the scratch table `H`.

use hazy_linalg::{decode_fvec, decode_fvec_ref, encode_fvec, encoded_len, FeatureVec, FeatureVecRef};
use hazy_learn::Label;
use hazy_storage::StorageError;

/// An entity to classify: key plus feature vector (the `In(id, f)` relation).
#[derive(Clone, Debug)]
pub struct Entity {
    /// Primary key from the view's `KEY` declaration.
    pub id: u64,
    /// Feature-function output.
    pub f: FeatureVec,
}

impl Entity {
    /// Convenience constructor.
    pub fn new(id: u64, f: FeatureVec) -> Entity {
        Entity { id, f }
    }
}

/// A decoded `H` tuple: `H(s)(id, f, eps)` plus the materialized label
/// (Section 3.2 folds `V`'s class into the same physical tuple).
#[derive(Clone, Debug)]
pub struct HTuple {
    /// Entity key.
    pub id: u64,
    /// Label under the current round's model (eager) or the stored model
    /// (lazy; recomputed at read).
    pub label: Label,
    /// Margin under the *stored* model `(w(s), b(s))` — the cluster key.
    pub eps: f64,
    /// Feature vector.
    pub f: FeatureVec,
}

/// Byte length of the fixed tuple prefix: id (8) + label (1) + eps (8).
pub const TUPLE_HEADER: usize = 17;

/// Byte offset of the label within an encoded tuple — the one byte an
/// eager relabel patches in place ([`hazy_storage::HeapFile::patch_in_place`]).
pub const TUPLE_LABEL_OFFSET: usize = 8;

/// A borrowed `H` tuple: the fixed prefix decoded, the feature vector left
/// as a zero-copy view over the record's page bytes. Scan-time
/// classification works entirely on this — the owned [`HTuple`] is only
/// materialized when a tuple is rewritten (reorganization).
#[derive(Clone, Copy, Debug)]
pub struct HTupleRef<'a> {
    /// Entity key.
    pub id: u64,
    /// Materialized label (see [`HTuple::label`]).
    pub label: Label,
    /// Margin under the stored model — the cluster key.
    pub eps: f64,
    /// Feature vector, borrowed from the encoded record.
    pub f: FeatureVecRef<'a>,
}

impl HTupleRef<'_> {
    /// Materializes an owned copy (allocates; reorganization-time only).
    pub fn to_owned(&self) -> HTuple {
        HTuple { id: self.id, label: self.label, eps: self.eps, f: self.f.to_owned() }
    }
}

/// Encodes a tuple; label updates rewrite the same number of bytes, so
/// in-place page updates always succeed.
pub fn encode_tuple(t: &HTuple, out: &mut Vec<u8>) {
    out.reserve(TUPLE_HEADER + encoded_len(&t.f));
    out.extend_from_slice(&t.id.to_le_bytes());
    out.push(t.label as u8);
    out.extend_from_slice(&t.eps.to_le_bytes());
    encode_fvec(&t.f, out);
}

/// Decodes only the fixed prefix `(id, label, eps)` — the cheap path for
/// label scans that never need the feature vector.
///
/// # Errors
/// [`StorageError::Corrupt`] on short or invalid input.
pub fn decode_tuple_header(bytes: &[u8]) -> Result<(u64, Label, f64), StorageError> {
    if bytes.len() < TUPLE_HEADER {
        return Err(StorageError::Corrupt("tuple shorter than header"));
    }
    let id = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let label = bytes[8] as i8;
    if label != 1 && label != -1 {
        return Err(StorageError::Corrupt("label byte is not ±1"));
    }
    let eps = f64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
    Ok((id, label, eps))
}

/// Decodes a full tuple.
///
/// # Errors
/// [`StorageError::Corrupt`] on malformed input.
pub fn decode_tuple(bytes: &[u8]) -> Result<HTuple, StorageError> {
    let (id, label, eps) = decode_tuple_header(bytes)?;
    let mut rest = &bytes[TUPLE_HEADER..];
    let f = decode_fvec(&mut rest).ok_or(StorageError::Corrupt("feature vector"))?;
    Ok(HTuple { id, label, eps, f })
}

/// Decodes a tuple without copying the feature payload: the returned
/// [`HTupleRef`] borrows `bytes` (same acceptance set as [`decode_tuple`]).
///
/// # Errors
/// [`StorageError::Corrupt`] on malformed input.
pub fn decode_tuple_ref(bytes: &[u8]) -> Result<HTupleRef<'_>, StorageError> {
    let (id, label, eps) = decode_tuple_header(bytes)?;
    let mut rest = &bytes[TUPLE_HEADER..];
    let f = decode_fvec_ref(&mut rest).ok_or(StorageError::Corrupt("feature vector"))?;
    Ok(HTupleRef { id, label, eps, f })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HTuple {
        HTuple {
            id: 42,
            label: -1,
            eps: -0.125,
            f: FeatureVec::sparse(100, vec![(3, 1.5), (99, -2.0)]),
        }
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let back = decode_tuple(&buf).unwrap();
        assert_eq!(back.id, t.id);
        assert_eq!(back.label, t.label);
        assert_eq!(back.eps, t.eps);
        assert_eq!(back.f, t.f);
    }

    #[test]
    fn header_decode_skips_fvec() {
        let t = sample();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let (id, label, eps) = decode_tuple_header(&buf).unwrap();
        assert_eq!((id, label, eps), (42, -1, -0.125));
    }

    #[test]
    fn label_flip_preserves_length() {
        let mut t = sample();
        let mut a = Vec::new();
        encode_tuple(&t, &mut a);
        t.label = 1;
        let mut b = Vec::new();
        encode_tuple(&t, &mut b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(decode_tuple_header(&[0u8; 5]).is_err());
        let mut buf = Vec::new();
        encode_tuple(&sample(), &mut buf);
        buf[8] = 7; // bad label byte
        assert!(decode_tuple_header(&buf).is_err());
        assert!(decode_tuple_ref(&buf).is_err());
        let mut buf2 = Vec::new();
        encode_tuple(&sample(), &mut buf2);
        buf2.truncate(20); // fvec truncated
        assert!(decode_tuple(&buf2).is_err());
        assert!(decode_tuple_ref(&buf2).is_err());
    }

    #[test]
    fn ref_decode_matches_owned_decode() {
        let t = sample();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let r = decode_tuple_ref(&buf).unwrap();
        assert_eq!(r.id, t.id);
        assert_eq!(r.label, t.label);
        assert_eq!(r.eps, t.eps);
        assert_eq!(r.to_owned().f, t.f);
    }

    #[test]
    fn label_offset_points_at_the_label_byte() {
        let t = sample();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        buf[TUPLE_LABEL_OFFSET] = 1u8; // flip -1 → +1 in place
        let back = decode_tuple(&buf).unwrap();
        assert_eq!(back.label, 1);
        assert_eq!(back.eps, t.eps);
        assert_eq!(back.f, t.f);
    }
}
