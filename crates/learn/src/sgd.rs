//! Incremental stochastic gradient training (the paper's default learner).
//!
//! One call to [`SgdTrainer::step`] consumes one training example — exactly
//! the granularity at which Hazy's triggers fire. The learning-rate schedule
//! and the O(1) ℓ2-shrink via [`hazy_linalg::ScaledDense`] follow Bottou's
//! SGD code, which the paper uses for all its experiments.

use hazy_linalg::FeatureVec;

use crate::loss::{LossKind, Regularizer};
use crate::model::{LinearModel, TrainingExample};

/// Hyper-parameters for the incremental trainer.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Loss to optimize (selects SVM / logistic / ridge).
    pub loss: LossKind,
    /// Penalty term `P(w)`.
    pub reg: Regularizer,
    /// Base learning rate `η0` in `η_t = η0 / (1 + λ·η0·t)`.
    pub eta0: f64,
    /// Multiplier on the bias learning rate (text models often train the
    /// bias more gently; 1.0 is a fine default).
    pub bias_rate: f64,
}

impl SgdConfig {
    /// The paper's default: a linear SVM with mild ℓ2 regularization. The
    /// base rate suits input-normalized features (ℓ1 for text, ℓ2 dense),
    /// whose components are small. The bias trains at a reduced rate, as in
    /// Bottou's SGD code — a full-rate bias makes `b` swing by ±η per
    /// violating example, which directly widens the watermark band
    /// (`ε_high − ε_low ∋ δb`) and erodes Hazy's pruning.
    pub fn svm() -> Self {
        SgdConfig { loss: LossKind::Hinge, reg: Regularizer::L2(1e-4), eta0: 0.5, bias_rate: 0.05 }
    }

    /// Logistic regression defaults.
    pub fn logistic() -> Self {
        SgdConfig { loss: LossKind::Logistic, ..Self::svm() }
    }

    /// Ridge regression defaults.
    pub fn ridge() -> Self {
        SgdConfig { loss: LossKind::Squared, reg: Regularizer::L2(1e-3), eta0: 0.05, bias_rate: 0.1 }
    }

    /// Config for a given loss with its default hyper-parameters.
    pub fn for_loss(loss: LossKind) -> Self {
        match loss {
            LossKind::Hinge => Self::svm(),
            LossKind::Logistic => Self::logistic(),
            LossKind::Squared => Self::ridge(),
        }
    }
}

impl SgdConfig {
    /// Serializes the hyper-parameters (checkpoint path).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.push(self.loss.tag());
        out.push(self.reg.tag());
        out.extend_from_slice(&self.reg.lambda().to_bits().to_le_bytes());
        out.extend_from_slice(&self.eta0.to_bits().to_le_bytes());
        out.extend_from_slice(&self.bias_rate.to_bits().to_le_bytes());
    }

    /// Inverse of [`SgdConfig::save_state`]; `None` on malformed input.
    pub fn restore_state(b: &mut &[u8]) -> Option<SgdConfig> {
        use hazy_linalg::wire::{take_f64, take_u8};
        let loss = crate::loss::LossKind::from_tag(take_u8(b)?)?;
        let reg_tag = take_u8(b)?;
        let lambda = take_f64(b)?;
        let reg = crate::loss::Regularizer::from_tag(reg_tag, lambda)?;
        let eta0 = take_f64(b)?;
        let bias_rate = take_f64(b)?;
        Some(SgdConfig { loss, reg, eta0, bias_rate })
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self::svm()
    }
}

/// Description of one SGD step as an affine model change:
/// `w ← shrink·w + grad_coef·f`, with an optional ℓ1 soft-threshold of
/// width `l1_tau` applied to the coordinates `f` touches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepInfo {
    /// Learning rate used for this step.
    pub eta: f64,
    /// Multiplicative ℓ2 shrink applied to `w` (1.0 when unregularized).
    pub shrink: f64,
    /// Coefficient of the sparse gradient addition (0.0 when the loss had
    /// zero subgradient, e.g. a hinge-satisfied example).
    pub grad_coef: f64,
    /// ℓ1 soft-threshold width (0.0 unless ℓ1-regularized).
    pub l1_tau: f64,
}

/// Incremental trainer: owns the model and a step counter.
#[derive(Clone, Debug)]
pub struct SgdTrainer {
    cfg: SgdConfig,
    model: LinearModel,
    /// Number of examples consumed so far (drives the learning-rate decay).
    t: u64,
}

impl SgdTrainer {
    /// Fresh trainer over a `dim`-dimensional feature space.
    pub fn new(cfg: SgdConfig, dim: usize) -> Self {
        SgdTrainer { cfg, model: LinearModel::zeros(dim), t: 0 }
    }

    /// Current model (the round-`i` model `(w(i), b(i))`).
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Number of examples consumed.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Hyper-parameters in use.
    pub fn config(&self) -> &SgdConfig {
        &self.cfg
    }

    /// Learning rate for the *next* step.
    pub fn eta(&self) -> f64 {
        let lambda = self.cfg.reg.lambda();
        self.cfg.eta0 / (1.0 + lambda * self.cfg.eta0 * self.t as f64)
    }

    /// Consumes one training example; returns a [`StepInfo`] describing the
    /// affine change applied to the model (`w ← shrink·w + grad_coef·f`,
    /// plus an ℓ1 soft-threshold of width `l1_tau` on touched coordinates).
    ///
    /// This is the paper's "retrain the model" step on `Update` — it costs
    /// O(nnz) and produces the next model round `(w(i+1), b(i+1))`. The
    /// returned description lets the view layer maintain an upper bound on
    /// `‖w(i) − w(s)‖_p` incrementally, in O(nnz) instead of O(d) per round.
    pub fn step(&mut self, f: &FeatureVec, y: i8) -> StepInfo {
        let eta = self.eta();
        let z = self.model.margin(f);
        let g = self.cfg.loss.dloss(z, f64::from(y));

        let mut info = StepInfo { eta, shrink: 1.0, grad_coef: 0.0, l1_tau: 0.0 };
        match self.cfg.reg {
            Regularizer::None => {}
            Regularizer::L2(lambda) => {
                // w ← (1 − ηλ) w, O(1) via the scale trick
                let shrink = (1.0 - eta * lambda).max(0.0);
                self.model.w.scale(shrink);
                info.shrink = shrink;
            }
            Regularizer::L1(lambda) => {
                // truncated-gradient style: soft-threshold only the touched
                // coordinates (keeps the step O(nnz))
                let tau = eta * lambda;
                self.model.w.renormalize();
                let w = &mut self.model.w;
                for (i, _) in f.iter() {
                    let wi = w.get(i as usize);
                    let shrunk = if wi > tau {
                        wi - tau
                    } else if wi < -tau {
                        wi + tau
                    } else {
                        0.0
                    };
                    w.add_at(i as usize, shrunk - wi);
                }
                info.l1_tau = tau;
            }
        }

        if g != 0.0 {
            // z = w·f − b ⇒ ∂z/∂w = f, ∂z/∂b = −1
            let coef = -eta * g;
            self.model.w.axpy(coef, f);
            self.model.b -= self.cfg.bias_rate * eta * (-g);
            info.grad_coef = coef;
        }
        self.t += 1;
        info
    }

    /// Runs `epochs` passes over `data` in the given order (used for warm
    /// starts and the Figure 10 comparison).
    pub fn train_epochs(&mut self, data: &[TrainingExample], epochs: usize) {
        for _ in 0..epochs {
            for ex in data {
                self.step(&ex.f, ex.y);
            }
        }
    }

    /// Resets model and step counter (the paper retrains from scratch on
    /// deletes — footnote 2).
    pub fn reset(&mut self) {
        self.model = LinearModel::zeros(self.model.w.dim());
        self.t = 0;
    }

    /// Serializes config, model and step counter bit-exactly. A restored
    /// trainer takes the *same* future SGD steps (same learning-rate decay,
    /// same float rounding) as the original — the property crash recovery's
    /// deterministic replay rests on.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.cfg.save_state(out);
        self.model.save_state(out);
        out.extend_from_slice(&self.t.to_le_bytes());
    }

    /// Inverse of [`SgdTrainer::save_state`]; `None` on malformed input.
    pub fn restore_state(b: &mut &[u8]) -> Option<SgdTrainer> {
        let cfg = SgdConfig::restore_state(b)?;
        let model = LinearModel::restore_state(b)?;
        let t = hazy_linalg::wire::take_u64(b)?;
        Some(SgdTrainer { cfg, model, t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::model::sign;

    fn linearly_separable(n: usize) -> Vec<TrainingExample> {
        // true rule: x0 - x1 >= 0.25 ⇒ +1, generated on a grid
        let mut data = Vec::with_capacity(n);
        for k in 0..n {
            let x0 = (k % 17) as f32 / 17.0;
            let x1 = (k % 23) as f32 / 23.0;
            let y = if x0 - x1 >= 0.25 { 1 } else { -1 };
            data.push(TrainingExample::new(k as u64, FeatureVec::dense(vec![x0, x1, 1.0]), y));
        }
        data
    }

    #[test]
    fn learns_a_separable_problem() {
        let data = linearly_separable(400);
        let mut t = SgdTrainer::new(SgdConfig::svm(), 3);
        t.train_epochs(&data, 30);
        let preds: Vec<i8> = data.iter().map(|e| t.model().predict(&e.f)).collect();
        let labels: Vec<i8> = data.iter().map(|e| e.y).collect();
        let acc = accuracy(&preds, &labels);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn logistic_and_ridge_also_learn() {
        let data = linearly_separable(400);
        // Least squares is a weaker classifier on skewed data (it penalizes
        // confident correct predictions), so it gets a lower bar.
        for (cfg, floor) in [(SgdConfig::logistic(), 0.9), (SgdConfig::ridge(), 0.75)] {
            let mut t = SgdTrainer::new(cfg, 3);
            t.train_epochs(&data, 30);
            let preds: Vec<i8> = data.iter().map(|e| t.model().predict(&e.f)).collect();
            let labels: Vec<i8> = data.iter().map(|e| e.y).collect();
            let acc = accuracy(&preds, &labels);
            assert!(acc > floor, "{:?}: accuracy {acc}", cfg.loss);
        }
    }

    #[test]
    fn eta_decays_with_t() {
        let mut t = SgdTrainer::new(SgdConfig::svm(), 2);
        let e0 = t.eta();
        t.step(&FeatureVec::dense(vec![1.0, 0.0]), 1);
        t.step(&FeatureVec::dense(vec![0.0, 1.0]), -1);
        assert!(t.eta() < e0);
        assert_eq!(t.steps(), 2);
    }

    #[test]
    fn step_moves_margin_toward_label() {
        let mut t = SgdTrainer::new(SgdConfig::svm(), 2);
        let f = FeatureVec::dense(vec![1.0, 2.0]);
        let before = t.model().margin(&f);
        t.step(&f, 1);
        let after = t.model().margin(&f);
        assert!(after > before, "{before} -> {after}");
        assert_eq!(sign(after), 1);
    }

    #[test]
    fn l1_regularization_produces_sparser_models() {
        let data = linearly_separable(300);
        let dense_cfg = SgdConfig { reg: Regularizer::L2(1e-4), ..SgdConfig::svm() };
        let sparse_cfg = SgdConfig { reg: Regularizer::L1(5e-3), ..SgdConfig::svm() };
        let mut a = SgdTrainer::new(dense_cfg, 3);
        let mut b = SgdTrainer::new(sparse_cfg, 3);
        a.train_epochs(&data, 10);
        b.train_epochs(&data, 10);
        let l1_a: f64 = a.model().w.to_vec().iter().map(|x| x.abs()).sum();
        let l1_b: f64 = b.model().w.to_vec().iter().map(|x| x.abs()).sum();
        assert!(l1_b <= l1_a, "L1-regularized {l1_b} vs L2 {l1_a}");
    }

    /// The ℓ1 step as it was: an `axpy` by a freshly built one-hot sparse
    /// vector for every touched coordinate.
    fn one_hot_l1_step(tr: &mut SgdTrainer, f: &FeatureVec, y: i8) {
        let eta = tr.eta();
        let g = tr.cfg.loss.dloss(tr.model.margin(f), f64::from(y));
        let Regularizer::L1(lambda) = tr.cfg.reg else { panic!("an ℓ1 trainer") };
        let tau = eta * lambda;
        tr.model.w.renormalize();
        let w = &mut tr.model.w;
        for (i, _) in f.iter() {
            let wi = w.get(i as usize);
            let shrunk = if wi > tau {
                wi - tau
            } else if wi < -tau {
                wi + tau
            } else {
                0.0
            };
            w.axpy(shrunk - wi, &FeatureVec::sparse(i + 1, [(i, 1.0)]));
        }
        if g != 0.0 {
            tr.model.w.axpy(-eta * g, f);
            tr.model.b -= tr.cfg.bias_rate * eta * (-g);
        }
        tr.t += 1;
    }

    #[test]
    fn l1_soft_threshold_matches_the_one_hot_formulation_bitwise() {
        // dense-3 rows, then sparse rows whose indices straddle chunk
        // boundaries of a model that starts narrower than they reach
        let mut data = linearly_separable(200);
        let c = hazy_linalg::ChunkedVec::CHUNK as u32;
        data.extend((0..200u32).map(|k| {
            let pairs =
                [(k % 7, 0.5), (c - 1 - k % 3, -0.25), (c + k % 5, 1.0), (2 * c + k % 11, 0.75)];
            let y = if k.is_multiple_of(3) { 1 } else { -1 };
            TrainingExample::new(0, FeatureVec::sparse(2 * c + 11, pairs), y)
        }));
        let cfg = SgdConfig { reg: Regularizer::L1(5e-3), ..SgdConfig::svm() };
        let mut fast = SgdTrainer::new(cfg, 3);
        let mut reference = fast.clone();
        for ex in data.iter().chain(&data) {
            fast.step(&ex.f, ex.y);
            one_hot_l1_step(&mut reference, &ex.f, ex.y);
            assert_eq!(fast.model().b.to_bits(), reference.model().b.to_bits());
            let bits = |t: &SgdTrainer| -> Vec<u64> {
                t.model().w.to_vec().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&fast), bits(&reference), "step {}", fast.steps());
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fast.save_state(&mut a);
        reference.save_state(&mut b);
        assert!(a == b, "checkpoint bytes diverge");
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = SgdTrainer::new(SgdConfig::svm(), 2);
        t.step(&FeatureVec::dense(vec![1.0, 1.0]), 1);
        t.reset();
        assert_eq!(t.steps(), 0);
        assert_eq!(t.model().b, 0.0);
        assert!(t.model().w.to_vec().iter().all(|&x| x == 0.0));
    }
}
