//! Vector primitives for the Hazy classification-view engine.
//!
//! The paper represents every entity as a feature vector `f ∈ R^d` produced by
//! a *feature function* (Section 2.1). Text corpora (DBLife, Citeseer) use
//! sparse bag-of-words vectors with thousands-to-millions of dimensions but
//! only a handful of nonzero components, while UCI-style datasets (Forest)
//! use short dense vectors. This crate provides:
//!
//! * [`FeatureVec`] — an owned dense-or-sparse `f32` feature vector,
//! * [`ScaledDense`] — a dense `f64` model vector with the scalar-scale trick
//!   used by stochastic gradient descent so ℓ2 shrinkage costs O(1), stored
//!   as a [`ChunkedVec`] of copy-on-write chunks so cloning a model copies a
//!   chunk table,
//! * [`Norm`] / [`holder_conjugate`] — the Hölder-pair machinery behind the
//!   paper's Lemma 3.1 watermark bounds,
//! * [`OrdF64`] — a totally-ordered `f64` wrapper used to cluster tuples by
//!   their margin `eps`,
//! * [`FeatureVecRef`] / [`Features`] — the borrowed, zero-copy view of an
//!   encoded vector and the trait unifying it with [`FeatureVec`], so scans
//!   classify straight off page bytes without materializing anything,
//! * binary (de)serialization of feature vectors for on-disk tuples.

mod chunked;
mod norms;
mod ordf64;
mod scaled;
mod serial;
mod vector;
mod vref;
pub mod wire;

pub use chunked::ChunkedVec;
pub use norms::{holder_conjugate, norm_of_slice, Norm, NormPair};
pub use ordf64::OrdF64;
pub use scaled::ScaledDense;
pub use serial::{decode_fvec, decode_fvec_ref, encode_fvec, encoded_len};
pub use vector::FeatureVec;
pub use vref::{FeatureVecRef, Features};
