//! Dense model vector with the scalar-scale trick.

use crate::norms::{norm_of_slice, Norm};
use crate::vector::FeatureVec;
use crate::vref::Features;

/// A dense `f64` vector stored as `w = s · v`.
///
/// Stochastic gradient descent with ℓ2 regularization shrinks the whole model
/// by `(1 − η·λ)` on every step; done naively that is O(d) per step, which on
/// Citeseer-sized vocabularies (~700k dims) dominates the sparse gradient
/// update. Keeping the scalar `s` outside the vector makes the shrink O(1)
/// while sparse additions divide by `s` once per nonzero — the trick used by
/// Bottou's SGD code that the paper builds on.
#[derive(Clone, Debug)]
pub struct ScaledDense {
    v: Vec<f64>,
    s: f64,
}

/// Below this scale the stored components grow large enough to threaten
/// precision, so the vector is re-materialized.
const RENORM_THRESHOLD: f64 = 1e-9;

impl ScaledDense {
    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        ScaledDense { v: vec![0.0; dim], s: 1.0 }
    }

    /// Wraps an existing dense vector (scale 1).
    pub fn from_vec(v: Vec<f64>) -> Self {
        ScaledDense { v, s: 1.0 }
    }

    /// Current dimensionality.
    pub fn dim(&self) -> usize {
        self.v.len()
    }

    /// Grows to at least `dim`, zero-filling new components.
    pub fn grow_to(&mut self, dim: usize) {
        if dim > self.v.len() {
            self.v.resize(dim, 0.0);
        }
    }

    /// Effective component `i` (`s · v[i]`), zero when out of range.
    pub fn get(&self, i: usize) -> f64 {
        self.v.get(i).map_or(0.0, |&x| self.s * x)
    }

    /// `w · f` where `f` is any feature-vector representation (owned or
    /// borrowed — the zero-copy scan path classifies straight off page
    /// bytes through this).
    pub fn dot<F: Features>(&self, f: &F) -> f64 {
        self.s * f.dot(&self.v)
    }

    /// Multiplies the whole vector by `c` in O(1).
    ///
    /// `c == 0` resets the vector exactly (and restores scale 1).
    pub fn scale(&mut self, c: f64) {
        if c == 0.0 {
            self.v.iter_mut().for_each(|x| *x = 0.0);
            self.s = 1.0;
            return;
        }
        self.s *= c;
        if self.s.abs() < RENORM_THRESHOLD {
            self.renormalize();
        }
    }

    /// `w += a · f` (sparse-aware: O(nnz)).
    pub fn axpy(&mut self, a: f64, f: &FeatureVec) {
        self.grow_to(f.dim() as usize);
        let inv = a / self.s;
        match f {
            FeatureVec::Dense(c) => {
                for (k, &x) in c.iter().enumerate() {
                    self.v[k] += inv * f64::from(x);
                }
            }
            FeatureVec::Sparse { idx, val, .. } => {
                for (&i, &x) in idx.iter().zip(val.iter()) {
                    self.v[i as usize] += inv * f64::from(x);
                }
            }
        }
    }

    /// Folds the scale back into the components (`s` becomes 1).
    pub fn renormalize(&mut self) {
        if self.s != 1.0 {
            let s = self.s;
            self.v.iter_mut().for_each(|x| *x *= s);
            self.s = 1.0;
        }
    }

    /// Materializes the effective vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.v.iter().map(|&x| self.s * x).collect()
    }

    /// `‖w‖_n` of the effective vector.
    pub fn norm(&self, n: Norm) -> f64 {
        self.s.abs() * norm_of_slice(&self.v, n)
    }

    /// Serializes `(s, v)` bit-exactly. The scaled representation — not the
    /// materialized vector — is what round-trips: future dot products compute
    /// `s·(v·f)`, so restoring a renormalized copy would change rounding and
    /// break bit-identical recovery.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.s.to_bits().to_le_bytes());
        crate::wire::put_f64s(out, &self.v);
    }

    /// Inverse of [`ScaledDense::save_state`]; `None` on truncated input.
    pub fn restore_state(b: &mut &[u8]) -> Option<ScaledDense> {
        let s = crate::wire::take_f64(b)?;
        let v = crate::wire::take_f64s(b)?;
        Some(ScaledDense { v, s })
    }

    /// `‖w − other‖_p` — the model-delta norm in the watermark bound.
    /// Accumulates only the requested norm, in index order (a missing
    /// component counts as zero).
    pub fn diff_norm(&self, other: &ScaledDense, p: Norm) -> f64 {
        let common = self.v.len().min(other.v.len());
        let (s, t) = (self.s, other.s);
        let diffs = self.v[..common]
            .iter()
            .zip(&other.v[..common])
            .map(|(&x, &y)| s * x - t * y)
            .chain(self.v[common..].iter().map(|&x| s * x - 0.0))
            .chain(other.v[common..].iter().map(|&y| 0.0 - t * y));
        match p {
            Norm::L1 => diffs.fold(0.0, |acc, d| acc + d.abs()),
            Norm::L2 => diffs.fold(0.0, |acc, d| acc + d * d).sqrt(),
            Norm::LInf => diffs.fold(0.0, |acc: f64, d| acc.max(d.abs())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn axpy_then_scale_matches_naive() {
        let f1 = FeatureVec::sparse(4, vec![(0, 1.0), (2, 3.0)]);
        let f2 = FeatureVec::dense(vec![0.5, -1.0, 0.0, 2.0]);
        let mut w = ScaledDense::zeros(4);
        let mut naive = [0.0f64; 4];

        // interleave scales and adds the way one SGD run would
        w.axpy(2.0, &f1);
        naive.iter_mut().zip(f1.to_dense().iter()).for_each(|(n, &x)| *n += 2.0 * f64::from(x));
        w.scale(0.9);
        naive.iter_mut().for_each(|n| *n *= 0.9);
        w.axpy(-0.5, &f2);
        naive.iter_mut().zip(f2.to_dense().iter()).for_each(|(n, &x)| *n += -0.5 * f64::from(x));
        w.scale(0.8);
        naive.iter_mut().for_each(|n| *n *= 0.8);

        for (i, &n) in naive.iter().enumerate() {
            assert!(close(w.get(i), n), "component {i}: {} vs {n}", w.get(i));
        }
    }

    #[test]
    fn scale_zero_resets_exactly() {
        let mut w = ScaledDense::from_vec(vec![1.0, 2.0]);
        w.scale(0.0);
        assert_eq!(w.to_vec(), vec![0.0, 0.0]);
        w.axpy(1.0, &FeatureVec::dense(vec![3.0, 4.0]));
        assert_eq!(w.to_vec(), vec![3.0, 4.0]);
    }

    #[test]
    fn repeated_tiny_scales_stay_finite() {
        let mut w = ScaledDense::from_vec(vec![1.0, -1.0]);
        for _ in 0..10_000 {
            w.scale(0.999);
        }
        let expected = 0.999f64.powi(10_000);
        assert!(close(w.get(0), expected));
        assert!(w.to_vec().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn axpy_grows_dimension() {
        let mut w = ScaledDense::zeros(1);
        w.axpy(1.0, &FeatureVec::sparse(10, vec![(9, 2.0)]));
        assert_eq!(w.dim(), 10);
        assert_eq!(w.get(9), 2.0);
    }

    #[test]
    fn diff_norm_handles_unequal_dims() {
        let a = ScaledDense::from_vec(vec![1.0]);
        let b = ScaledDense::from_vec(vec![1.0, -2.0]);
        assert_eq!(a.diff_norm(&b, Norm::L1), 2.0);
        assert_eq!(a.diff_norm(&b, Norm::LInf), 2.0);
        assert_eq!(b.diff_norm(&a, Norm::L2), 2.0);
    }

    #[test]
    fn dot_matches_materialized() {
        let mut w = ScaledDense::zeros(3);
        w.axpy(1.5, &FeatureVec::dense(vec![1.0, 2.0, -1.0]));
        w.scale(2.0);
        let f = FeatureVec::sparse(3, vec![(1, 4.0)]);
        assert!(close(w.dot(&f), f.dot(&w.to_vec())));
    }
}
