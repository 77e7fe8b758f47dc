//! Borrowed feature vectors: the zero-copy scan path.
//!
//! The scratch table `H(id, f, eps)` stores feature vectors inline with each
//! tuple, so an All-Members scan that classifies uncertain tuples decodes one
//! vector per tuple. Decoding into an owned [`FeatureVec`] allocates two
//! heap buffers per tuple — at ~760 ns per sparse-60 tuple that is ≈23× the
//! cost of the SGD step the decode feeds, inverting the paper's premise that
//! learning, not plumbing, is the expensive part. [`FeatureVecRef`] fixes
//! this: it *borrows* the encoded payload directly from the page bytes and
//! runs `dot`/`norm` kernels over the borrowed slices with bulk
//! `from_le_bytes` conversion, so scan-time classification never
//! materializes a vector.
//!
//! The [`Features`] trait abstracts over owned and borrowed vectors so the
//! model layer (`hazy-learn`) and the cost model (`hazy-core`) classify
//! either representation through one code path. Kernels on the borrowed form
//! are written to be **bit-for-bit identical** to their owned counterparts:
//! same iteration order, same accumulation widths (property-tested in
//! `tests/properties.rs`).

use crate::chunked::ChunkedVec;
use crate::norms::Norm;
use crate::vector::FeatureVec;

/// Operations every feature-vector representation supports. Implemented by
/// the owned [`FeatureVec`] and the borrowed [`FeatureVecRef`].
pub trait Features {
    /// Dimensionality `d` of the ambient space.
    fn dim(&self) -> u32;

    /// Number of stored (potentially nonzero) components.
    fn nnz(&self) -> usize;

    /// Dot product against a chunked `f64` model vector (models shorter
    /// than `dim` are implicitly zero-extended). Accumulates in index order
    /// with the operands of [`FeatureVec::dot`] on the flat vector, so the
    /// two agree bit for bit.
    fn dot(&self, w: &ChunkedVec) -> f64;

    /// `‖f‖_q` for the Hölder pair in use.
    fn norm(&self, q: Norm) -> f64;
}

impl Features for FeatureVec {
    fn dim(&self) -> u32 {
        FeatureVec::dim(self)
    }

    fn nnz(&self) -> usize {
        FeatureVec::nnz(self)
    }

    fn dot(&self, w: &ChunkedVec) -> f64 {
        match self {
            FeatureVec::Dense(c) => {
                let mut acc = 0.0f64;
                for (j, c) in c.chunks(ChunkedVec::CHUNK).enumerate() {
                    let Some(w) = w.slice(j) else { break };
                    for (&x, &wk) in c.iter().zip(w) {
                        acc += f64::from(x) * wk;
                    }
                }
                acc
            }
            FeatureVec::Sparse { idx, val, .. } => {
                sparse_dot(idx.iter().copied().zip(val.iter().copied()), w)
            }
        }
    }

    fn norm(&self, q: Norm) -> f64 {
        FeatureVec::norm(self, q)
    }
}

/// A feature vector borrowed from its on-disk encoding.
///
/// The raw slices hold little-endian scalars exactly as encoded by
/// [`encode_fvec`](crate::encode_fvec); [`decode_fvec_ref`](crate::decode_fvec_ref)
/// validates them (same acceptance set as the owned decoder), so every
/// constructed value satisfies the owned type's invariants: sparse indices
/// strictly increasing and `< dim`.
#[derive(Clone, Copy, Debug)]
pub enum FeatureVecRef<'a> {
    /// All `d` components as `d × 4` bytes of little-endian `f32`.
    Dense {
        /// Raw component bytes.
        raw: &'a [u8],
    },
    /// Nonzero components of a `dim`-dimensional vector.
    Sparse {
        /// Dimensionality `d` of the ambient space.
        dim: u32,
        /// `nnz × 4` bytes of strictly increasing little-endian `u32`.
        idx_raw: &'a [u8],
        /// `nnz × 4` bytes of little-endian `f32`, matching `idx_raw`.
        val_raw: &'a [u8],
    },
}

#[inline]
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte chunk"))
}

#[inline]
fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes(b.try_into().expect("4-byte chunk"))
}

impl<'a> FeatureVecRef<'a> {
    /// Iterates `(index, value)` over stored components in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        let it: Box<dyn Iterator<Item = (u32, f32)>> = match *self {
            FeatureVecRef::Dense { raw } => Box::new(
                raw.chunks_exact(4).enumerate().map(|(i, b)| (i as u32, le_f32(b))),
            ),
            FeatureVecRef::Sparse { idx_raw, val_raw, .. } => Box::new(
                idx_raw
                    .chunks_exact(4)
                    .zip(val_raw.chunks_exact(4))
                    .map(|(ib, vb)| (le_u32(ib), le_f32(vb))),
            ),
        };
        it
    }

    /// Materializes an owned copy (bulk chunk conversion, one allocation per
    /// payload). Only reorganization-time rewrites need this; scans don't.
    pub fn to_owned(&self) -> FeatureVec {
        match *self {
            FeatureVecRef::Dense { raw } => {
                let c: Vec<f32> = raw.chunks_exact(4).map(le_f32).collect();
                FeatureVec::Dense(c.into())
            }
            FeatureVecRef::Sparse { dim, idx_raw, val_raw } => {
                let idx: Vec<u32> = idx_raw.chunks_exact(4).map(le_u32).collect();
                let val: Vec<f32> = val_raw.chunks_exact(4).map(le_f32).collect();
                // Invariants (strictly increasing indices < dim) were
                // validated at decode time, so direct construction is sound.
                FeatureVec::Sparse { dim, idx: idx.into(), val: val.into() }
            }
        }
    }
}

/// `Σ v · w[i]` over the stored `(i, v)`, skipping indices past the model.
#[inline]
fn sparse_dot(pairs: impl Iterator<Item = (u32, f32)>, w: &ChunkedVec) -> f64 {
    let mut acc = 0.0f64;
    for (i, v) in pairs {
        if let Some(wi) = w.get(i as usize) {
            acc += f64::from(v) * wi;
        }
    }
    acc
}

impl Features for FeatureVecRef<'_> {
    fn dim(&self) -> u32 {
        match *self {
            FeatureVecRef::Dense { raw } => (raw.len() / 4) as u32,
            FeatureVecRef::Sparse { dim, .. } => dim,
        }
    }

    fn nnz(&self) -> usize {
        match *self {
            FeatureVecRef::Dense { raw } => raw.len() / 4,
            FeatureVecRef::Sparse { idx_raw, .. } => idx_raw.len() / 4,
        }
    }

    // The kernels below mirror `FeatureVec::dot` / `FeatureVec::norm`
    // operation-for-operation so borrowed and owned classification agree
    // bit-for-bit.

    fn dot(&self, w: &ChunkedVec) -> f64 {
        match *self {
            FeatureVecRef::Dense { raw } => {
                let mut acc = 0.0f64;
                for (j, c) in raw.chunks(4 * ChunkedVec::CHUNK).enumerate() {
                    let Some(w) = w.slice(j) else { break };
                    for (b, &wk) in c.chunks_exact(4).zip(w) {
                        acc += f64::from(le_f32(b)) * wk;
                    }
                }
                acc
            }
            FeatureVecRef::Sparse { idx_raw, val_raw, .. } => {
                let pairs = idx_raw.chunks_exact(4).zip(val_raw.chunks_exact(4));
                sparse_dot(pairs.map(|(ib, vb)| (le_u32(ib), le_f32(vb))), w)
            }
        }
    }

    fn norm(&self, q: Norm) -> f64 {
        let mut l1 = 0.0f64;
        let mut l2 = 0.0f64;
        let mut linf = 0.0f64;
        for (_, v) in self.iter() {
            let a = f64::from(v).abs();
            l1 += a;
            l2 += a * a;
            linf = linf.max(a);
        }
        match q {
            Norm::L1 => l1,
            Norm::L2 => l2.sqrt(),
            Norm::LInf => linf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{decode_fvec_ref, encode_fvec};

    fn ref_of(buf: &[u8]) -> FeatureVecRef<'_> {
        let mut slice = buf;
        let r = decode_fvec_ref(&mut slice).expect("decode");
        assert!(slice.is_empty());
        r
    }

    #[test]
    fn borrowed_matches_owned_on_dense() {
        let f = FeatureVec::dense(vec![1.5, -2.0, 0.0, 3.25]);
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);
        let r = ref_of(&buf);
        let w = [0.5f64, -1.0, 2.0]; // shorter than the vector on purpose
        assert_eq!(Features::dim(&r), f.dim());
        assert_eq!(Features::nnz(&r), f.nnz());
        let wc = ChunkedVec::from_vec(w.to_vec());
        assert_eq!(Features::dot(&r, &wc).to_bits(), f.dot(&w).to_bits());
        for q in [Norm::L1, Norm::L2, Norm::LInf] {
            assert_eq!(Features::norm(&r, q).to_bits(), f.norm(q).to_bits());
        }
        assert_eq!(r.to_owned(), f);
    }

    #[test]
    fn borrowed_matches_owned_on_sparse() {
        let f = FeatureVec::sparse(1000, vec![(3, 1.25), (90, -0.5), (999, 7.0)]);
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);
        let r = ref_of(&buf);
        let w: Vec<f64> = (0..100).map(|k| f64::from(k) * 0.1 - 3.0).collect();
        let wc = ChunkedVec::from_vec(w.to_vec());
        assert_eq!(Features::dot(&r, &wc).to_bits(), f.dot(&w).to_bits());
        assert_eq!(r.to_owned(), f);
        let pairs: Vec<(u32, f32)> = r.iter().collect();
        assert_eq!(pairs, f.iter().collect::<Vec<_>>());
    }

    #[test]
    fn zero_vector_round_trips() {
        let f = FeatureVec::zeros(42);
        let mut buf = Vec::new();
        encode_fvec(&f, &mut buf);
        let r = ref_of(&buf);
        assert_eq!(Features::dim(&r), 42);
        assert_eq!(Features::nnz(&r), 0);
        assert_eq!(Features::dot(&r, &ChunkedVec::from_vec(vec![1.0; 8])), 0.0);
        assert_eq!(r.to_owned(), f);
    }
}
