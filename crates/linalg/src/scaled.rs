//! Dense model vector with the scalar-scale trick, over copy-on-write
//! chunks.

use crate::chunked::ChunkedVec;
use crate::norms::{norm_of_values, Norm};
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
///
/// `v` is a [`ChunkedVec`], so a clone — one per published model round —
/// copies a chunk table, and the next SGD step copies only the chunks it
/// touches (`axpy` makes each one unique once per run of sorted indices).
/// `scale(0)` drops every chunk; `renormalize` copies every allocated chunk
/// once, amortized as the scale trick already amortizes it.
///
/// The chunk size `C` = 1 024 comes from the `crates/bench` micro rows
/// (2 vCPUs, one noisy run each; two for flat and 1 024):
///
/// | `C` | `model_clone_text64k` | `margin_sparse_text64k` | `margin_dense54` | `publish_round_text64k` |
/// |---|---|---|---|---|
/// | flat | 18.2, 18.3 µs | 37.8, 31.2 ns | 52.0, 49.2 ns | 199, 206 µs |
/// | 256 | 4.0 µs | 27.8 ns | 46.6 ns | 137 µs |
/// | 1 024 | 1.2, 1.1 µs | 52.4, 32.2 ns | 53.3, 43.5 ns | 170, 111 µs |
/// | 4 096 | 0.3 µs | 28.2 ns | 48.6 ns | 153 µs |
///
/// The text rows write 20 words drawn uniformly from 2^16: at 4 096 such a
/// step touches most of the 16 chunks and copies up to 32 KB for each,
/// while 256 quadruples the table every publish copies. A dictionary-coded
/// vocabulary (ids dense from 0) touches only the first few chunks at any
/// of these sizes.
#[derive(Clone, Debug)]
pub struct ScaledDense {
    v: ChunkedVec,
    s: f64,
}

/// Below this scale the stored components grow large enough to threaten
/// precision, so the vector is re-materialized.
const RENORM_THRESHOLD: f64 = 1e-9;

impl ScaledDense {
    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        ScaledDense { v: ChunkedVec::zeros(dim), s: 1.0 }
    }

    /// Wraps an existing dense vector (scale 1).
    pub fn from_vec(v: Vec<f64>) -> Self {
        ScaledDense { v: ChunkedVec::from_vec(v), s: 1.0 }
    }

    /// Current dimensionality.
    pub fn dim(&self) -> usize {
        self.v.len()
    }

    /// Grows to at least `dim`, zero-filling new components.
    pub fn grow_to(&mut self, dim: usize) {
        self.v.grow_to(dim);
    }

    /// Effective component `i` (`s · v[i]`), zero when out of range.
    pub fn get(&self, i: usize) -> f64 {
        self.v.get(i).map_or(0.0, |x| self.s * x)
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
            self.v.clear();
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
                for (j, c) in c.chunks(ChunkedVec::CHUNK).enumerate() {
                    for (v, &x) in self.v.chunk_mut(j).iter_mut().zip(c) {
                        *v += inv * f64::from(x);
                    }
                }
            }
            FeatureVec::Sparse { idx, val, .. } => {
                // one `make_mut` per run of indices inside a chunk
                let chunk_of = |i: u32| ChunkedVec::locate(i as usize).0;
                let mut k = 0;
                for run in idx.chunk_by(|&a, &b| chunk_of(a) == chunk_of(b)) {
                    let chunk = self.v.chunk_mut(chunk_of(run[0]));
                    for (&i, &x) in run.iter().zip(&val[k..]) {
                        chunk[ChunkedVec::locate(i as usize).1] += inv * f64::from(x);
                    }
                    k += run.len();
                }
            }
        }
    }

    /// `w[i] += a`: [`axpy`](Self::axpy) by the `i`-th unit vector, with the
    /// same arithmetic and no vector built.
    pub fn add_at(&mut self, i: usize, a: f64) {
        self.grow_to(i + 1);
        let inv = a / self.s;
        let (j, k) = ChunkedVec::locate(i);
        self.v.chunk_mut(j)[k] += inv;
    }

    /// Folds the scale back into the components (`s` becomes 1).
    pub fn renormalize(&mut self) {
        if self.s != 1.0 {
            self.v.scale_all(self.s);
            self.s = 1.0;
        }
    }

    /// Materializes the effective vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.v.iter().map(|&x| self.s * x).collect()
    }

    /// `‖w‖_n` of the effective vector.
    pub fn norm(&self, n: Norm) -> f64 {
        self.s.abs() * norm_of_values(self.v.iter(), n)
    }

    /// Serializes `(s, v)` bit-exactly. The scaled representation — not the
    /// materialized vector — is what round-trips: future dot products compute
    /// `s·(v·f)`, so restoring a renormalized copy would change rounding and
    /// break bit-identical recovery.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.s.to_bits().to_le_bytes());
        crate::wire::put_f64s(out, &self.v.to_vec());
    }

    /// Inverse of [`ScaledDense::save_state`]; `None` on truncated input.
    pub fn restore_state(b: &mut &[u8]) -> Option<ScaledDense> {
        let s = crate::wire::take_f64(b)?;
        let v = crate::wire::take_f64s(b)?;
        Some(ScaledDense { v: ChunkedVec::from_vec(v), s })
    }

    /// `‖w − other‖_p` — the model-delta norm in the watermark bound.
    /// Accumulates only the requested norm, in index order (a missing
    /// component counts as zero).
    pub fn diff_norm(&self, other: &ScaledDense, p: Norm) -> f64 {
        let (s, t) = (self.s, other.s);
        // chunk `j` of both vectors covers the same indices, so chunk by
        // chunk this visits the common prefix, then the longer one's tail
        let chunk_pairs = (0..).map_while(|j| match (self.v.slice(j), other.v.slice(j)) {
            (None, None) => None,
            (x, y) => Some((x.unwrap_or_default(), y.unwrap_or_default())),
        });
        let diffs = chunk_pairs.flat_map(|(x, y)| {
            let common = x.len().min(y.len());
            x[..common]
                .iter()
                .zip(&y[..common])
                .map(move |(&x, &y)| s * x - t * y)
                .chain(x[common..].iter().map(move |&x| s * x - 0.0))
                .chain(y[common..].iter().map(move |&y| 0.0 - t * y))
        });
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
