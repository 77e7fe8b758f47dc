//! The linear model `(w, b)` and its classification rule.

use hazy_linalg::{FeatureVec, Features, Norm, ScaledDense};

/// A class label in binary classification: `+1` or `-1`.
pub type Label = i8;

/// The paper's sign convention: `sign(x) = 1` if `x ≥ 0`, else `-1`
/// (Section 2.1 — note that zero maps to the positive class).
#[inline]
pub fn sign(x: f64) -> Label {
    if x >= 0.0 {
        1
    } else {
        -1
    }
}

/// One labeled entity `(id, f, y)` from the examples table.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingExample {
    /// Entity key (0 when the example is not tied to a stored entity).
    pub id: u64,
    /// Feature vector produced by the view's feature function.
    pub f: FeatureVec,
    /// Class label, `+1` or `-1`.
    pub y: Label,
}

impl TrainingExample {
    /// Convenience constructor.
    pub fn new(id: u64, f: FeatureVec, y: Label) -> Self {
        debug_assert!(y == 1 || y == -1, "labels are ±1");
        TrainingExample { id, f, y }
    }
}

/// A linear model `(w, b)`; an entity with features `f` is labeled
/// `sign(w·f − b)` and its *margin* is `eps = w·f − b` (the quantity `H` is
/// clustered on).
#[derive(Clone, Debug)]
pub struct LinearModel {
    /// Weight vector, kept in scaled form so SGD shrinkage is O(1).
    pub w: ScaledDense,
    /// Bias term `b` (subtracted, per the paper's convention).
    pub b: f64,
}

impl LinearModel {
    /// The zero model over a `dim`-dimensional feature space.
    pub fn zeros(dim: usize) -> Self {
        LinearModel { w: ScaledDense::zeros(dim), b: 0.0 }
    }

    /// Builds a model from a materialized weight vector and bias.
    pub fn from_parts(w: Vec<f64>, b: f64) -> Self {
        LinearModel { w: ScaledDense::from_vec(w), b }
    }

    /// The margin `eps = w·f − b`. Generic over the feature representation
    /// so the zero-copy scan path classifies borrowed page bytes
    /// ([`hazy_linalg::FeatureVecRef`]) through the same kernel as owned
    /// vectors.
    #[inline]
    pub fn margin<F: Features>(&self, f: &F) -> f64 {
        self.w.dot(f) - self.b
    }

    /// The predicted label `sign(margin)`.
    #[inline]
    pub fn predict<F: Features>(&self, f: &F) -> Label {
        sign(self.margin(f))
    }

    /// `‖w_self − w_other‖_p` plus nothing else: the model-delta norm used by
    /// the watermark bound. The bias difference is handled separately in the
    /// bound.
    pub fn delta_norm(&self, other: &LinearModel, p: Norm) -> f64 {
        self.w.diff_norm(&other.w, p)
    }

    /// Approximate resident bytes (dense `f64` weights) if unshared: the
    /// weights' chunks may be shared with clones of this model, or not
    /// allocated yet while all zero, so this is an upper bound on what the
    /// model alone keeps alive.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.w.dim() * std::mem::size_of::<f64>()
    }

    /// Serializes `(w, b)` bit-exactly (checkpoint path).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.w.save_state(out);
        out.extend_from_slice(&self.b.to_bits().to_le_bytes());
    }

    /// Inverse of [`LinearModel::save_state`]; `None` on truncated input.
    pub fn restore_state(b: &mut &[u8]) -> Option<LinearModel> {
        let w = hazy_linalg::ScaledDense::restore_state(b)?;
        let bias = hazy_linalg::wire::take_f64(b)?;
        Some(LinearModel { w, b: bias })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_convention_matches_paper() {
        assert_eq!(sign(0.0), 1, "paper: sign(x)=1 when x >= 0");
        assert_eq!(sign(1e-300), 1);
        assert_eq!(sign(-1e-300), -1);
    }

    /// Example 2.2 of the paper: w = (-1, 1), b = 0.5 labels P1..P5.
    #[test]
    fn paper_example_2_2() {
        let m = LinearModel::from_parts(vec![-1.0, 1.0], 0.5);
        let p = |x: f32, y: f32| FeatureVec::dense(vec![x, y]);
        // P1=(3,4) and P3=(1,2) are database papers; P2=(5,4), P4=(5,1),
        // P5=(2,1) are not.
        assert_eq!(m.predict(&p(3.0, 4.0)), 1, "P1");
        assert_eq!(m.predict(&p(5.0, 4.0)), -1, "P2");
        assert_eq!(m.predict(&p(1.0, 2.0)), 1, "P3");
        assert_eq!(m.predict(&p(5.0, 1.0)), -1, "P4");
        assert_eq!(m.predict(&p(2.0, 1.0)), -1, "P5");
    }

    #[test]
    fn margin_subtracts_bias() {
        let m = LinearModel::from_parts(vec![2.0], 1.0);
        let f = FeatureVec::dense(vec![3.0]);
        assert_eq!(m.margin(&f), 5.0);
    }

    #[test]
    fn delta_norm_is_symmetric() {
        let a = LinearModel::from_parts(vec![1.0, 0.0], 0.0);
        let b = LinearModel::from_parts(vec![0.0, 2.0], 3.0);
        for p in [Norm::L1, Norm::L2, Norm::LInf] {
            assert_eq!(a.delta_norm(&b, p), b.delta_norm(&a, p));
        }
        assert_eq!(a.delta_norm(&b, Norm::L1), 3.0);
    }
}
