//! The publisher's drift bound, O(nnz) per SGD step. A [`PublishedView`]
//! hands every round's SGD steps to its publisher, which folds them into a
//! [`DeltaTracker`] instead of taking the exact O(d) norm `‖w − w(s)‖_p`
//! against the model of its last re-score. Seeded scripts of model rounds,
//! inserts, retractions and reorganizations over sparse 2¹⁶-dimensional
//! text-like vectors (`NormPair::TEXT`) and dense 54-dimensional ones
//! (`NormPair::EUCLIDEAN`), under each regularizer, check after every
//! operation that
//!
//! * the tracker is live (no round fell back to the exact norm) and its
//!   bound covers the exact norm, up to the absolute `1e-9` slack
//!   `watermark.rs` grants — the "exact" value carries ≈ 1e-12 relative
//!   cancellation error of its own;
//! * every pinned answer, `top_k` margin bits included, equals from-scratch
//!   scoring of the live entities under the engine's model;
//! * a replica fed the primary's WAL through `replay_record` has published
//!   the same epoch: same LSN, same low water bit for bit, same rebases.
//!
//! One run trains on a rate schedule steep enough that the model's
//! `ScaledDense` scale falls below its threshold and renormalizes. Scripts
//! are drawn from `HAZY_CRASH_SEED`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hazy_core::{
    rank_order, Architecture, ClassifierView, DurableClassifierView, DurableView, Entity,
    EpochPublisher, Mode, ModelEpoch, OpOverheads, PublishedView, ViewBuilder,
};
use hazy_learn::{LinearModel, LossKind, Regularizer, SgdConfig, TrainingExample};
use hazy_linalg::{FeatureVec, Norm, NormPair};
use hazy_storage::{DurableStore, WalReader};
use hazy_testkit::{assert_ranked_bit_identical, seed, splitmix64};

/// One script's corpus and learner.
struct Run {
    name: &'static str,
    pair: NormPair,
    /// `Some(d)`: ℓ1-normalized sparse vectors over `d` dimensions, drawn
    /// from a 300-word vocabulary spread across the whole range; `None`:
    /// dense 54-dimensional vectors.
    sparse: Option<u32>,
    sgd: SgdConfig,
    ops: usize,
    /// The run must see the model's scale renormalize.
    renormalizes: bool,
}

const TEXT_DIM: u32 = 1 << 16;

fn runs() -> Vec<Run> {
    let svm = SgdConfig::svm();
    let regs =
        [("none", Regularizer::None), ("l2", Regularizer::L2(1e-2)), ("l1", Regularizer::L1(1e-3))];
    let mut out = Vec::new();
    for (name, reg) in regs {
        let sgd = SgdConfig { reg, ..svm };
        out.push(Run {
            name,
            pair: NormPair::TEXT,
            sparse: Some(TEXT_DIM),
            sgd,
            ops: 160,
            renormalizes: false,
        });
        out.push(Run {
            name,
            pair: NormPair::EUCLIDEAN,
            sparse: None,
            sgd,
            ops: 160,
            renormalizes: false,
        });
    }
    // η_t = η0 / (1 + λ·η0·t) with λ·η0 = 1e7: the first step's shrink
    // clamps to 0 (an exact reset), every later one is ≈ 1 − 1/t, so the
    // scale reaches 1e-9 near t = 100 and the weights are re-materialized
    out.push(Run {
        name: "l2-renormalizing",
        pair: NormPair::TEXT,
        sparse: Some(TEXT_DIM),
        sgd: SgdConfig {
            loss: LossKind::Hinge,
            reg: Regularizer::L2(0.1),
            eta0: 1e8,
            bias_rate: 1e-9,
        },
        ops: 240,
        renormalizes: true,
    });
    out
}

impl Run {
    fn vector(&self, r: &mut u64) -> FeatureVec {
        match self.sparse {
            Some(dim) => {
                let words = (0..6).map(|_| {
                    let word = (splitmix64(r) % 300) as u32;
                    (word * 218 % dim, 1.0 + (splitmix64(r) % 3) as f32)
                });
                FeatureVec::sparse(dim, words).normalized(Norm::L1)
            }
            None => FeatureVec::dense(
                (0..54).map(|_| (splitmix64(r) % 2001) as f32 / 1000.0 - 1.0).collect::<Vec<_>>(),
            ),
        }
    }

    /// A label from a fixed hidden rule, so the model actually learns.
    fn example(&self, r: &mut u64) -> TrainingExample {
        let f = self.vector(r);
        let score: f64 = f
            .iter()
            .map(|(j, x)| f64::from(x) * if j.wrapping_mul(0x9E37) % 7 < 3 { 1.0 } else { -1.0 })
            .sum();
        TrainingExample::new(0, f, if score >= 0.0 { 1 } else { -1 })
    }

    fn builder(&self) -> ViewBuilder {
        ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
            .sgd(self.sgd)
            .norm_pair(self.pair)
            .overheads(OpOverheads::free())
            .dim(self.sparse.map_or(54, |d| d as usize))
    }
}

/// The scale `s` of the model's `w = s·v`: the first word its state writes.
fn scale_of(m: &LinearModel) -> f64 {
    let mut out = Vec::new();
    m.w.save_state(&mut out);
    f64::from_le_bytes(out[..8].try_into().expect("a scale leads the weights"))
}

/// Every answer the pinned epoch serves, against one margin per live entity.
fn assert_scratch_answers(
    pin: &ModelEpoch,
    live: &BTreeMap<u64, Entity>,
    model: &LinearModel,
    absent: u64,
    ctx: &str,
) {
    let mut ranked: Vec<(u64, f64)> = live.values().map(|e| (e.id, model.margin(&e.f))).collect();
    ranked.sort_by(rank_order);
    let members: Vec<u64> =
        live.values().filter(|e| model.predict(&e.f) > 0).map(|e| e.id).collect();
    assert_eq!(pin.entity_count(), live.len() as u64, "{ctx}: entity_count");
    assert_eq!(pin.count_positive(), members.len() as u64, "{ctx}: count_positive");
    assert_eq!(pin.positive_ids(), members, "{ctx}: positive_ids");
    for e in live.values() {
        assert_eq!(pin.classify(e.id), Some(model.predict(&e.f)), "{ctx}: classify {}", e.id);
    }
    assert_eq!(pin.classify(absent), None, "{ctx}: classify of a retracted or unknown id");
    for k in [1, 5, live.len()] {
        let want = &ranked[..k.min(ranked.len())];
        assert_ranked_bit_identical(&pin.top_k(k), want, &format!("{ctx} k={k}"));
    }
}

fn drive(run: &Run, seed: u64) {
    let mut r = seed ^ 0xD81F_7B0D;
    let mut live: BTreeMap<u64, Entity> =
        (0..120).map(|id| (id, Entity::new(id, run.vector(&mut r)))).collect();
    let builder = run.builder();
    let entities: Vec<Entity> = live.values().cloned().collect();
    let inner = builder.build(entities.clone(), &[]);
    let store = Arc::new(Mutex::new(DurableStore::new(inner.clock().clone())));
    let durable = DurableView::create(inner, Arc::clone(&store), 0);
    let mut primary = PublishedView::new(Box::new(durable), run.pair, 0);
    let mut replica: PublishedView<Box<dyn DurableClassifierView + Send>> =
        PublishedView::new(builder.build(entities, &[]), run.pair, 0);
    let mut shipped = 0usize;

    let mut stored = primary.engine().model().clone();
    let (mut rebases, mut next_id, mut removed) = (0u64, 120u64, u64::MAX);
    let (mut prev_scale, mut renormalized) = (scale_of(&stored), 0u32);
    for step in 0..run.ops {
        let ctx = format!("{} {:?} seed {seed} step {step}", run.name, run.pair);
        match splitmix64(&mut r) % 20 {
            0 | 1 => {
                next_id += 1;
                let e = Entity::new(next_id, run.vector(&mut r));
                live.insert(e.id, e.clone());
                primary.insert_entity(e);
            }
            2 => {
                let id = splitmix64(&mut r) % (next_id + 1);
                assert_eq!(primary.remove_entity(id), live.remove(&id).is_some(), "{ctx}");
                removed = id;
            }
            3 => primary.reorganize(),
            _ => {
                let n = 1 + (splitmix64(&mut r) % 3) as usize;
                let batch: Vec<TrainingExample> = (0..n).map(|_| run.example(&mut r)).collect();
                primary.update_batch(&batch);
            }
        }
        let model = primary.engine().model().clone();

        // Lemma 3.1's input: the tracker's bound against the exact norm
        let p = primary.publisher();
        if p.rebases() != rebases {
            rebases = p.rebases();
            stored = model.clone();
        }
        let bound = p.drift_bound().unwrap_or_else(|| panic!("{ctx}: the tracker went stale"));
        let exact = model.delta_norm(&stored, run.pair.p);
        assert!(bound + 1e-9 >= exact, "{ctx}: bound {bound} < exact {exact}");

        let pin = primary.cell().pin();
        let absent = if live.contains_key(&removed) { next_id + 1 } else { removed };
        assert_scratch_answers(&pin, &live, &model, absent, &ctx);

        // the replica replays the same records into the same epoch
        let wal = store.lock().expect("primary store").wal.stable_bytes().to_vec();
        for rec in WalReader::new(&wal[shipped..]) {
            replica.replay_record(rec.kind, rec.payload).expect("a shipped record decodes");
        }
        shipped = wal.len();
        let copy = replica.cell().pin();
        assert_eq!(copy.lsn(), pin.lsn(), "{ctx}: replica LSN");
        assert_eq!(copy.low_water().to_bits(), pin.low_water().to_bits(), "{ctx}: replica lw");
        assert_eq!(replica.publisher().rebases(), rebases, "{ctx}: replica rebases");

        if run.renormalizes {
            let s = scale_of(&model);
            // shrinks only lower the scale; re-materializing resets it to 1
            renormalized += u32::from(s > prev_scale);
            prev_scale = s;
        }
    }
    assert!(rebases > 0, "{} {:?}: the script never re-scored", run.name, run.pair);
    if run.renormalizes {
        assert!(renormalized > 0, "{}: the model's scale never renormalized", run.name);
    }
}

#[test]
fn tracker_bounds_the_exact_drift_and_answers_stay_exact() {
    let seed = seed();
    for run in runs() {
        drive(&run, seed);
    }
}

/// A round published without its steps pays the exact norm and leaves the
/// tracker stale until the next re-score restarts it.
#[test]
fn a_round_without_steps_stales_the_tracker_until_the_next_rescore() {
    let run = &runs()[0];
    let mut r = seed();
    let entities: Vec<Entity> = (0..40).map(|id| Entity::new(id, run.vector(&mut r))).collect();
    let mut view = run.builder().build(entities.clone(), &[]);
    let mut publisher = EpochPublisher::new(entities, view.model().clone(), run.pair, 0);
    assert_eq!(publisher.drift_bound(), Some(0.0), "a fresh tracker has no drift");
    view.update(&run.example(&mut r));
    publisher.apply_update(view.model());
    assert_eq!(publisher.drift_bound(), None, "a bare round leaves the tracker stale");
    publisher.apply_reorganize();
    assert_eq!(publisher.drift_bound(), Some(0.0), "a re-score restarts the tracker");
}
