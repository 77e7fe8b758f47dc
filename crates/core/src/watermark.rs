//! Low/high watermarks: the sufficient condition of Lemma 3.1.
//!
//! `H` is clustered on `eps = w(s)·f − b(s)` under the *stored* model from
//! the last reorganization at round `s`. When the model has moved on to round
//! `j`, Hölder's inequality bounds how far any tuple's margin can have
//! shifted:
//!
//! ```text
//! ε_high(s,j) =  M·‖w(j) − w(s)‖_p + (b(j) − b(s))
//! ε_low(s,j)  = −M·‖w(j) − w(s)‖_p + (b(j) − b(s))
//! ```
//!
//! with `M = max_t ‖f(t)‖_q` over the corpus and `(p, q)` Hölder conjugates.
//! Any tuple with `eps ≥ ε_high` is certainly positive at round `j`; any
//! tuple with `eps ≤ ε_low` certainly negative. Running extrema over rounds
//! (Eq. 2) give `lw(s,j) ≤ hw(s,j)` such that only tuples in `[lw, hw]` can
//! ever have changed label since `s` — those are the only tuples the
//! incremental step must touch.

use std::sync::Arc;

use hazy_learn::{LinearModel, StepInfo};
use hazy_linalg::{FeatureVec, Norm, NormPair};

/// How the running watermarks evolve over rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatermarkPolicy {
    /// Eq. 2: running min/max over **all** rounds since the reorganization.
    /// Monotone — the property the Skiing analysis needs (Section 3.3).
    Monotone,
    /// Appendix B.3 variant: extrema over only the last two rounds. Tighter
    /// bounds (fewer tuples touched) but non-monotone, which voids the
    /// competitive guarantee; the paper reports the practical difference is
    /// small. Correct for *eager* maintenance only, where every round's
    /// changed tuples are relabeled as soon as the model moves.
    Window2,
}

impl WatermarkPolicy {
    /// Stable one-byte wire tag for durable state.
    pub fn tag(self) -> u8 {
        match self {
            WatermarkPolicy::Monotone => 0,
            WatermarkPolicy::Window2 => 1,
        }
    }

    /// Inverse of [`WatermarkPolicy::tag`].
    pub fn from_tag(t: u8) -> Option<WatermarkPolicy> {
        match t {
            0 => Some(WatermarkPolicy::Monotone),
            1 => Some(WatermarkPolicy::Window2),
            _ => None,
        }
    }
}

/// Watermark state for one stored model.
#[derive(Clone, Debug)]
pub struct WaterMarks {
    /// The stored model `(w(s), b(s))` that `eps` values are measured under,
    /// `Arc`-shared so an epoch publisher's marks and its re-scored epochs
    /// hold one copy of it.
    stored: Arc<LinearModel>,
    pair: NormPair,
    /// `M = max ‖f‖_q` over the entities.
    m_norm: f64,
    policy: WatermarkPolicy,
    /// Running (or windowed) low/high water.
    lw: f64,
    hw: f64,
    /// Previous round's instantaneous bounds (for `Window2`).
    prev_low: f64,
    prev_high: f64,
}

impl WaterMarks {
    /// Fresh watermarks right after a reorganization at the given stored
    /// model. Both waters start at 0 relative-margin (the stored model
    /// itself): `eps ≥ 0 ⇔ positive`.
    pub fn new(
        stored: impl Into<Arc<LinearModel>>,
        pair: NormPair,
        m_norm: f64,
        policy: WatermarkPolicy,
    ) -> Self {
        debug_assert!(pair.is_conjugate(), "need a Hölder pair");
        let stored = stored.into();
        WaterMarks { stored, pair, m_norm, policy, lw: 0.0, hw: 0.0, prev_low: 0.0, prev_high: 0.0 }
    }

    /// The stored model.
    pub fn stored_model(&self) -> &LinearModel {
        &self.stored
    }

    /// `M`, the corpus feature-norm bound.
    pub fn m_norm(&self) -> f64 {
        self.m_norm
    }

    /// Raises `M` (a new entity with a larger `‖f‖_q` arrived). Safe at any
    /// time: growing `M` only widens future bounds.
    pub fn raise_m(&mut self, m: f64) {
        if m > self.m_norm {
            self.m_norm = m;
        }
    }

    /// Current low water `lw(s,i)`.
    pub fn low(&self) -> f64 {
        self.lw
    }

    /// Current high water `hw(s,i)`.
    pub fn high(&self) -> f64 {
        self.hw
    }

    /// The margin of `f` under the stored model (the tuple's `eps`).
    pub fn eps(&self, f: &FeatureVec) -> f64 {
        self.stored.margin(f)
    }

    /// Folds in the round-`j` model by computing `‖w(j) − w(s)‖_p` exactly
    /// (O(d)); see [`WaterMarks::observe_bounded`] for the O(1) path driven
    /// by a [`DeltaTracker`]. Returns the instantaneous bounds
    /// `(ε_low, ε_high)` for this round (callers usually want
    /// [`WaterMarks::low`]/[`WaterMarks::high`] afterwards).
    pub fn observe(&mut self, current: &LinearModel) -> (f64, f64) {
        let delta_w = current.delta_norm(&self.stored, self.pair.p);
        self.fold(delta_w, current.b)
    }

    /// Folds in the round-`j` model using a caller-maintained **upper
    /// bound** on `‖w(j) − w(s)‖_p` (from a [`DeltaTracker`]). Upper bounds
    /// keep Lemma 3.1 sound — they can only widen the uncertain band.
    pub fn observe_bounded(&mut self, delta_w_bound: f64, current_b: f64) -> (f64, f64) {
        self.fold(delta_w_bound, current_b)
    }

    fn fold(&mut self, delta_w: f64, current_b: f64) -> (f64, f64) {
        let delta_b = current_b - self.stored.b;
        let eps_high = self.m_norm * delta_w + delta_b;
        let eps_low = -self.m_norm * delta_w + delta_b;
        match self.policy {
            WatermarkPolicy::Monotone => {
                self.lw = self.lw.min(eps_low);
                self.hw = self.hw.max(eps_high);
            }
            WatermarkPolicy::Window2 => {
                self.lw = eps_low.min(self.prev_low);
                self.hw = eps_high.max(self.prev_high);
                self.prev_low = eps_low;
                self.prev_high = eps_high;
            }
        }
        (eps_low, eps_high)
    }

    /// Experiment hook: force the band to `[lw, hw]`. Used by the
    /// Figure 6(B) harness, which constructs models with a prescribed
    /// fraction of tuples between the waters (S1/S10/S50).
    ///
    /// # Panics
    /// Panics when `lw > hw`.
    pub fn set_band(&mut self, lw: f64, hw: f64) {
        assert!(lw <= hw, "low water above high water");
        self.lw = lw;
        self.hw = hw;
        self.prev_low = lw;
        self.prev_high = hw;
    }

    /// Serializes the complete watermark state bit-exactly (checkpoint
    /// path): stored model, Hölder pair, `M`, policy, and both the running
    /// and windowed waters.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.stored.save_state(out);
        out.push(self.pair.p.tag());
        out.push(self.pair.q.tag());
        out.push(self.policy.tag());
        for v in [self.m_norm, self.lw, self.hw, self.prev_low, self.prev_high] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Inverse of [`WaterMarks::save_state`]; `None` on malformed input.
    pub fn restore_state(b: &mut &[u8]) -> Option<WaterMarks> {
        use hazy_linalg::wire::{take_f64, take_u8};
        let stored = Arc::new(LinearModel::restore_state(b)?);
        let p = hazy_linalg::Norm::from_tag(take_u8(b)?)?;
        let q = hazy_linalg::Norm::from_tag(take_u8(b)?)?;
        let policy = WatermarkPolicy::from_tag(take_u8(b)?)?;
        let m_norm = take_f64(b)?;
        let lw = take_f64(b)?;
        let hw = take_f64(b)?;
        let prev_low = take_f64(b)?;
        let prev_high = take_f64(b)?;
        Some(WaterMarks {
            stored,
            pair: NormPair { p, q },
            m_norm,
            policy,
            lw,
            hw,
            prev_low,
            prev_high,
        })
    }

    /// Sufficient-condition test: `Some(label)` when the tuple's stored
    /// `eps` alone decides its current class, `None` when it falls in the
    /// uncertain band and must be reclassified.
    pub fn certain_label(&self, eps: f64) -> Option<i8> {
        if eps >= self.hw {
            Some(1)
        } else if eps <= self.lw {
            Some(-1)
        } else {
            None
        }
    }
}

/// Incremental upper bound on `‖w(i) − w(s)‖_p`, maintained in O(nnz) per
/// SGD step instead of the O(d) an exact norm costs (Citeseer's vocabulary
/// is ~682k dimensions — recomputing the delta norm on every update would
/// dwarf the sparse gradient step itself).
///
/// Each SGD step applies `w ← k·w + a·f` (plus possibly an ℓ1
/// soft-threshold of width τ on the touched coordinates). Unrolling from the
/// stored model `w_s`, with `K = Π k_t`:
///
/// ```text
/// w(T) = K·w_s + G   where   G = Σ_t (Π_{r>t} k_r) · a_t · f_t
/// δ    = w(T) − w_s = (K − 1)·w_s + G
/// ‖δ‖_p ≤ (1 − K)·‖w_s‖_p + ‖G‖_p   (+ τ terms)
/// ```
///
/// The tracker maintains `G` *coordinate-exactly* (a scaled dense vector,
/// O(nnz) per step, grown only as far as the highest coordinate a step has
/// touched) plus p-norm bookkeeping:
///
/// * `p ∈ {1, 2}`: the norm of `G` is updated exactly from the touched
///   coordinates' before/after values;
/// * `p = ∞`: an upper bound — scaling by `k ≤ 1` shrinks every coordinate,
///   so `ub·k` stays valid, and sparse additions only need `max` against the
///   touched coordinates' new values. Crucially, steps touching *disjoint*
///   coordinates do not accumulate, which is what keeps the watermark band
///   narrow (a scalar triangle-inequality bound would grow linearly in the
///   number of rounds and defeat the whole pruning strategy).
///
/// The result never underestimates `‖δ‖_p`, so the watermark band built
/// from it stays sound (it can only be wider than the exact band).
#[derive(Clone, Debug)]
pub struct DeltaTracker {
    /// Gradient accumulation `G`, stored as `scale · v`; coordinates past
    /// `v.len()` are zero. A dictionary-coded vocabulary hands out its ids
    /// from 0, so this stays as long as the vocabulary seen, not `d`.
    v: Vec<f64>,
    /// `G`'s dimension: `v` is serialized zero-padded to it.
    dim: usize,
    scale: f64,
    /// Valid upper bound on `‖G‖_∞`.
    linf_ub: f64,
    /// Exactly `‖G‖₂²` (modulo float rounding, inflated on read).
    l2_sq: f64,
    /// Exactly `‖G‖₁` (modulo float rounding, inflated on read).
    l1: f64,
    /// Running product `K = Π k_t`.
    k_prod: f64,
    /// Accumulated ℓ1 soft-threshold allowance.
    tau_term: f64,
    stored_norm_p: f64,
    p: Norm,
}

impl DeltaTracker {
    /// Tracker starting at the reorganization point (`δ = 0`).
    pub fn new(stored: &LinearModel, p: Norm) -> DeltaTracker {
        DeltaTracker {
            v: Vec::new(),
            dim: stored.w.dim(),
            scale: 1.0,
            linf_ub: 0.0,
            l2_sq: 0.0,
            l1: 0.0,
            k_prod: 1.0,
            tau_term: 0.0,
            stored_norm_p: stored.w.norm(p),
            p,
        }
    }

    /// Current upper bound on `‖w(i) − w(s)‖_p`.
    pub fn bound(&self) -> f64 {
        let g_norm = match self.p {
            Norm::LInf => self.linf_ub,
            Norm::L2 => self.l2_sq.max(0.0).sqrt(),
            Norm::L1 => self.l1.max(0.0),
        };
        // inflate by one part in 1e12 to absorb float rounding in the
        // incremental norm bookkeeping — the bound must never dip below the
        // true norm
        ((1.0 - self.k_prod) * self.stored_norm_p + g_norm + self.tau_term) * (1.0 + 1e-12)
    }

    /// Serializes the tracker bit-exactly (checkpoint path). The bound is a
    /// running float computation, so restoring anything but the exact bits
    /// would shift future watermark bands and break bit-identical recovery.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let pad = self.dim.saturating_sub(self.v.len());
        out.extend_from_slice(&((self.v.len() + pad) as u64).to_le_bytes());
        for x in self.v.iter().chain(std::iter::repeat_n(&0.0, pad)) {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for x in
            [self.scale, self.linf_ub, self.l2_sq, self.l1, self.k_prod, self.tau_term, self.stored_norm_p]
        {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out.push(self.p.tag());
    }

    /// Inverse of [`DeltaTracker::save_state`]; `None` on malformed input.
    pub fn restore_state(b: &mut &[u8]) -> Option<DeltaTracker> {
        use hazy_linalg::wire::{take_f64, take_f64s, take_u8};
        let v = take_f64s(b)?;
        let scale = take_f64(b)?;
        let linf_ub = take_f64(b)?;
        let l2_sq = take_f64(b)?;
        let l1 = take_f64(b)?;
        let k_prod = take_f64(b)?;
        let tau_term = take_f64(b)?;
        let stored_norm_p = take_f64(b)?;
        let p = Norm::from_tag(take_u8(b)?)?;
        let dim = v.len();
        Some(DeltaTracker { v, dim, scale, linf_ub, l2_sq, l1, k_prod, tau_term, stored_norm_p, p })
    }

    /// Folds in one SGD step applied to feature vector `f`.
    pub fn apply(&mut self, info: &StepInfo, f: &FeatureVec) {
        let k = info.shrink.clamp(0.0, 1.0);
        if k != 1.0 {
            self.scale *= k;
            self.k_prod *= k;
            self.linf_ub *= k;
            self.l2_sq *= k * k;
            self.l1 *= k;
            if self.scale < 1e-9 {
                let s = self.scale;
                self.v.iter_mut().for_each(|x| *x *= s);
                self.scale = 1.0;
            }
        }
        if info.grad_coef != 0.0 {
            let a = info.grad_coef;
            self.dim = self.dim.max(f.dim() as usize);
            if self.scale == 0.0 {
                // fully shrunk to zero: restart the accumulation
                self.v.iter_mut().for_each(|x| *x = 0.0);
                self.scale = 1.0;
            }
            for (j, x) in f.iter() {
                let j = j as usize;
                if j >= self.v.len() {
                    self.v.resize(j + 1, 0.0);
                }
                let old = self.scale * self.v[j];
                let new = old + a * f64::from(x);
                self.v[j] = new / self.scale;
                self.linf_ub = self.linf_ub.max(new.abs());
                self.l2_sq += new * new - old * old;
                self.l1 += new.abs() - old.abs();
            }
        }
        if info.l1_tau > 0.0 {
            // the soft-threshold moves each touched coordinate by ≤ τ
            let ones = match self.p {
                Norm::LInf => 1.0,
                Norm::L2 => (f.nnz() as f64).sqrt(),
                Norm::L1 => f.nnz() as f64,
            };
            self.tau_term += info.l1_tau * ones;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_learn::sign;
    use hazy_linalg::Norm;

    fn model(w: Vec<f64>, b: f64) -> LinearModel {
        LinearModel::from_parts(w, b)
    }

    #[test]
    fn waters_start_closed_at_zero() {
        let wm = WaterMarks::new(model(vec![1.0, 0.0], 0.0), NormPair::EUCLIDEAN, 1.0, WatermarkPolicy::Monotone);
        assert_eq!(wm.low(), 0.0);
        assert_eq!(wm.high(), 0.0);
        // with waters at 0, every tuple is decided by its eps sign
        assert_eq!(wm.certain_label(0.1), Some(1));
        assert_eq!(wm.certain_label(0.0), Some(1)); // sign(0) = +1 convention
        assert_eq!(wm.certain_label(-0.1), Some(-1));
    }

    #[test]
    fn bounds_match_hand_computation() {
        // stored w=(1,0), b=0; current w=(1,1), b=0.5; p=2 ⇒ ‖δw‖=1
        let mut wm = WaterMarks::new(model(vec![1.0, 0.0], 0.0), NormPair::EUCLIDEAN, 2.0, WatermarkPolicy::Monotone);
        let (lo, hi) = wm.observe(&model(vec![1.0, 1.0], 0.5));
        assert!((hi - (2.0 * 1.0 + 0.5)).abs() < 1e-12);
        assert!((lo - (-2.0 * 1.0 + 0.5)).abs() < 1e-12);
        assert!(wm.low() <= lo && wm.high() >= hi);
    }

    /// Lemma 3.1 on random-ish data: tuples outside [lw, hw] keep the label
    /// the watermark predicts, under an arbitrary sequence of model moves.
    #[test]
    fn certain_labels_are_correct() {
        let stored = model(vec![0.5, -0.25, 1.0], 0.1);
        for pair in [NormPair::EUCLIDEAN, NormPair::TEXT] {
            let entities: Vec<FeatureVec> = (0..200)
                .map(|k| {
                    FeatureVec::dense(vec![
                        ((k * 7) % 13) as f32 / 13.0 - 0.5,
                        ((k * 11) % 17) as f32 / 17.0 - 0.5,
                        ((k * 3) % 19) as f32 / 19.0 - 0.5,
                    ])
                })
                .collect();
            let m = entities.iter().map(|f| f.norm(pair.q)).fold(0.0f64, f64::max);
            let mut wm = WaterMarks::new(stored.clone(), pair, m, WatermarkPolicy::Monotone);
            for round in 0..20 {
                // drift the model a bit each round
                let drift = 0.02 * (round as f64 + 1.0);
                let current =
                    model(vec![0.5 + drift, -0.25 - drift / 2.0, 1.0 + drift / 3.0], 0.1 - drift / 4.0);
                wm.observe(&current);
                for f in &entities {
                    if let Some(l) = wm.certain_label(wm.eps(f)) {
                        assert_eq!(l, sign(current.margin(f)), "round {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn monotone_policy_never_tightens() {
        let stored = model(vec![1.0], 0.0);
        let mut wm = WaterMarks::new(stored.clone(), NormPair::EUCLIDEAN, 1.0, WatermarkPolicy::Monotone);
        let mut widest = (0.0f64, 0.0f64);
        for k in 0..10 {
            // model oscillates toward and away from the stored model
            let w = if k % 2 == 0 { 1.5 } else { 1.05 };
            wm.observe(&model(vec![w], 0.0));
            assert!(wm.low() <= widest.0 + 1e-15);
            assert!(wm.high() >= widest.1 - 1e-15);
            widest = (wm.low(), wm.high());
        }
    }

    #[test]
    fn window2_policy_can_tighten() {
        let stored = model(vec![1.0], 0.0);
        let mut wm = WaterMarks::new(stored.clone(), NormPair::EUCLIDEAN, 1.0, WatermarkPolicy::Window2);
        wm.observe(&model(vec![2.0], 0.0)); // wide: ‖δ‖=1
        let wide_hw = wm.high();
        wm.observe(&model(vec![1.01], 0.0)); // near stored
        wm.observe(&model(vec![1.01], 0.0)); // window forgets the wide round
        assert!(wm.high() < wide_hw);
    }

    /// The incremental tracker bound always dominates the exact delta norm,
    /// for both norm pairs, over a real SGD run.
    #[test]
    fn delta_tracker_upper_bounds_exact_norm() {
        use hazy_learn::{SgdConfig, SgdTrainer};
        for pair in [NormPair::EUCLIDEAN, NormPair::TEXT] {
            let mut trainer = SgdTrainer::new(SgdConfig::svm(), 8);
            // pre-train a bit so the stored model is non-trivial
            for k in 0..50u32 {
                let f = FeatureVec::sparse(8, vec![(k % 8, 0.5), ((k + 3) % 8, -0.25)]);
                trainer.step(&f, if k % 2 == 0 { 1 } else { -1 });
            }
            let stored = trainer.model().clone();
            let mut tracker = DeltaTracker::new(&stored, pair.p);
            for k in 0..200u32 {
                let f = FeatureVec::sparse(8, vec![(k % 8, 1.0), ((k * 5 + 1) % 8, -0.5)]);
                let info = trainer.step(&f, if k % 3 == 0 { 1 } else { -1 });
                tracker.apply(&info, &f);
                let exact = trainer.model().delta_norm(&stored, pair.p);
                assert!(
                    tracker.bound() + 1e-9 >= exact,
                    "{pair:?} step {k}: bound {} < exact {exact}",
                    tracker.bound()
                );
            }
        }
    }

    /// The bound is reasonably tight for unregularized steps (pure sparse
    /// additions), where the triangle inequality is the only slack.
    #[test]
    fn delta_tracker_is_tight_without_regularization() {
        use hazy_learn::{LossKind, Regularizer, SgdConfig, SgdTrainer};
        let cfg = SgdConfig {
            loss: LossKind::Hinge,
            reg: Regularizer::None,
            eta0: 0.1,
            bias_rate: 1.0,
        };
        let mut trainer = SgdTrainer::new(cfg, 4);
        let stored = trainer.model().clone();
        let mut tracker = DeltaTracker::new(&stored, Norm::LInf);
        // all steps move the same single coordinate in the same direction:
        // the triangle inequality is exact
        let f = FeatureVec::sparse(4, vec![(2, 1.0)]);
        for _ in 0..20 {
            let info = trainer.step(&f, 1);
            tracker.apply(&info, &f);
        }
        let exact = trainer.model().delta_norm(&stored, Norm::LInf);
        assert!(tracker.bound() >= exact - 1e-12);
        assert!(tracker.bound() <= exact * 1.0 + 1e-9, "bound {} exact {exact}", tracker.bound());
    }

    /// `G` is held only up to the highest coordinate a step touched, yet the
    /// tracker serializes as the dense `d`-vector it always did, and a
    /// restored (dense) copy saves the same bytes and keeps bounding bit for
    /// bit like the original.
    #[test]
    fn delta_tracker_grows_lazily_and_saves_dense() {
        use hazy_learn::{SgdConfig, SgdTrainer};
        let mut trainer = SgdTrainer::new(SgdConfig::svm(), 1000);
        let mut tracker = DeltaTracker::new(trainer.model(), Norm::L2);
        let f = FeatureVec::sparse(1000, vec![(3, 0.5), (17, -0.25)]);
        let info = trainer.step(&f, 1);
        tracker.apply(&info, &f);
        assert_eq!(tracker.v.len(), 18, "grown to the highest touched coordinate");
        let mut saved = Vec::new();
        tracker.save_state(&mut saved);
        assert_eq!(saved[..8], 1000u64.to_le_bytes(), "serialized at the model's dimension");
        let mut back = DeltaTracker::restore_state(&mut &saved[..]).unwrap();
        let mut again = Vec::new();
        back.save_state(&mut again);
        assert_eq!(again, saved);
        let g = FeatureVec::sparse(1000, vec![(17, 1.0), (900, 0.5)]);
        let info = trainer.step(&g, -1);
        tracker.apply(&info, &g);
        back.apply(&info, &g);
        assert_eq!(tracker.bound().to_bits(), back.bound().to_bits());
    }

    #[test]
    fn raise_m_only_grows() {
        let mut wm = WaterMarks::new(model(vec![1.0], 0.0), NormPair::TEXT, 1.0, WatermarkPolicy::Monotone);
        wm.raise_m(0.5);
        assert_eq!(wm.m_norm(), 1.0);
        wm.raise_m(2.0);
        assert_eq!(wm.m_norm(), 2.0);
    }

    #[test]
    fn text_pair_uses_linf_on_model_delta() {
        // p=∞: ‖δw‖_∞ = 3 even though the ℓ2 norm is larger
        let stored = model(vec![0.0, 0.0], 0.0);
        let mut wm = WaterMarks::new(stored, NormPair::TEXT, 1.0, WatermarkPolicy::Monotone);
        let (_, hi) = wm.observe(&model(vec![3.0, -3.0], 0.0));
        assert!((hi - 3.0).abs() < 1e-12, "hi {hi}");
        let _ = Norm::LInf; // silence unused import lint paths in some configs
    }
}
