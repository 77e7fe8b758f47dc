//! Norms and Hölder-conjugate pairs.
//!
//! Lemma 3.1 of the paper bounds how far any entity can move relative to the
//! separating hyperplane when the model changes from `w(s)` to `w(j)`:
//! `|⟨δw, f⟩| ≤ ‖δw‖_p · ‖f‖_q` for any Hölder conjugates `1/p + 1/q = 1`.
//! Hazy picks the pair for *quality* reasons (Section 3.2.2): text pipelines
//! ℓ1-normalize documents and use `(p=∞, q=1)`; dense numeric data uses
//! `(p=2, q=2)`.

/// The three norms Hazy uses (`p` or `q` side of a Hölder pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Norm {
    /// `‖x‖_1 = Σ|x_i|`
    L1,
    /// `‖x‖_2 = sqrt(Σ x_i²)`
    L2,
    /// `‖x‖_∞ = max|x_i|`
    LInf,
}

impl Norm {
    /// Stable one-byte wire tag for durable state.
    pub fn tag(self) -> u8 {
        match self {
            Norm::L1 => 1,
            Norm::L2 => 2,
            Norm::LInf => 3,
        }
    }

    /// Inverse of [`Norm::tag`].
    pub fn from_tag(t: u8) -> Option<Norm> {
        match t {
            1 => Some(Norm::L1),
            2 => Some(Norm::L2),
            3 => Some(Norm::LInf),
            _ => None,
        }
    }
}

/// Returns the Hölder conjugate of `p` (`1/p + 1/q = 1`): `L1 ↔ LInf`,
/// `L2 ↔ L2`.
pub fn holder_conjugate(p: Norm) -> Norm {
    match p {
        Norm::L1 => Norm::LInf,
        Norm::L2 => Norm::L2,
        Norm::LInf => Norm::L1,
    }
}

/// A Hölder pair `(p, q)`: model deltas are measured in `‖·‖_p`, feature
/// vectors in `‖·‖_q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NormPair {
    /// Norm applied to the model delta `w(j) − w(s)`.
    pub p: Norm,
    /// Norm applied to feature vectors (defines `M = max_t ‖f(t)‖_q`).
    pub q: Norm,
}

impl NormPair {
    /// `(p=∞, q=1)` — the paper's choice for ℓ1-normalized text.
    pub const TEXT: NormPair = NormPair { p: Norm::LInf, q: Norm::L1 };
    /// `(p=2, q=2)` — the paper's choice for ℓ2-normalized numeric data.
    pub const EUCLIDEAN: NormPair = NormPair { p: Norm::L2, q: Norm::L2 };

    /// Builds a pair from the model-side norm, deriving the conjugate.
    pub fn from_p(p: Norm) -> NormPair {
        NormPair { p, q: holder_conjugate(p) }
    }

    /// True when `(p, q)` really are Hölder conjugates.
    pub fn is_conjugate(&self) -> bool {
        holder_conjugate(self.p) == self.q
    }
}

/// `‖x‖_n` of a dense `f64` slice.
pub fn norm_of_slice(x: &[f64], n: Norm) -> f64 {
    norm_of_values(x.iter(), n)
}

/// `‖x‖_n` of components visited in index order.
pub(crate) fn norm_of_values<'a>(x: impl Iterator<Item = &'a f64>, n: Norm) -> f64 {
    match n {
        Norm::L1 => x.map(|v| v.abs()).sum(),
        Norm::L2 => x.map(|v| v * v).sum::<f64>().sqrt(),
        Norm::LInf => x.fold(0.0f64, |m, v| m.max(v.abs())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureVec;

    #[test]
    fn conjugates_are_involutive() {
        for p in [Norm::L1, Norm::L2, Norm::LInf] {
            assert_eq!(holder_conjugate(holder_conjugate(p)), p);
        }
    }

    #[test]
    fn builtin_pairs_are_conjugate() {
        assert!(NormPair::TEXT.is_conjugate());
        assert!(NormPair::EUCLIDEAN.is_conjugate());
        assert!(NormPair::from_p(Norm::L1).is_conjugate());
    }

    #[test]
    fn slice_norms() {
        let x = [3.0, -4.0, 0.0];
        assert_eq!(norm_of_slice(&x, Norm::L1), 7.0);
        assert_eq!(norm_of_slice(&x, Norm::L2), 5.0);
        assert_eq!(norm_of_slice(&x, Norm::LInf), 4.0);
        assert_eq!(norm_of_slice(&[], Norm::LInf), 0.0);
    }

    /// The inequality Lemma 3.1 rests on: `|x·y| ≤ ‖x‖_p ‖y‖_q`.
    #[test]
    fn holder_inequality_on_examples() {
        let f = FeatureVec::sparse(6, vec![(0, 1.5), (3, -2.0), (5, 0.25)]);
        let w = [0.1f64, -3.0, 2.0, 0.7, 0.0, -0.9];
        let dot = f.dot(&w).abs();
        for pair in [NormPair::TEXT, NormPair::EUCLIDEAN, NormPair::from_p(Norm::L1)] {
            let bound = norm_of_slice(&w, pair.p) * f.norm(pair.q);
            assert!(dot <= bound + 1e-9, "{pair:?}: {dot} > {bound}");
        }
    }
}
