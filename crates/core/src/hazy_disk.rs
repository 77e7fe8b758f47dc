//! Hazy's on-disk architecture (Section 3.2): [`HazyView`] over the
//! clustered [`DiskStore`], plus the hooks the hybrid and the experiment
//! harness reach the on-disk structure through.

use hazy_learn::Label;

use crate::disk_store::DiskStore;
use crate::entity::HTupleRef;
use crate::hazy::HazyView;
use crate::store::{Row, Store};

/// Hazy on-disk view (`Hazy-OD`).
pub type HazyDiskView = HazyView<DiskStore>;

impl HazyDiskView {
    /// Experiment hook (Figure 6(B)): force the uncertain band.
    pub fn force_waterband(&mut self, lw: f64, hw: f64) {
        self.wm.set_band(lw, hw);
    }

    /// Physical reorganizations performed (the hybrid watches this to
    /// refresh its ε-map; a free reorganization rewrites nothing and does
    /// not count).
    pub fn reorg_epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Iterates every tuple (sorted segment then tail). The visitor sees
    /// tuples borrowed straight from the page bytes, so consumers that
    /// materialize only a small subset never pay a per-tuple allocation.
    pub fn for_each_tuple_ref(&mut self, mut f: impl FnMut(&HTupleRef)) {
        self.store.scan_all(|row| f(&row.tuple_ref()));
    }

    /// Cheapest scan of all: only the fixed `(id, label, eps)` prefix of
    /// each tuple is decoded — O(1) per tuple, skipping even the feature
    /// payload's validation. The hybrid's ε-map rebuild runs on this.
    pub fn for_each_header(&mut self, mut f: impl FnMut(u64, Label, f64)) {
        self.store.scan_all(|row| f(row.id(), row.label(), row.eps()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierView, Entity, Mode, OpOverheads, WatermarkPolicy};
    use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
    use hazy_linalg::{FeatureVec, NormPair};
    use hazy_storage::{BufferPool, CostModel, SimDisk, VirtualClock};

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![(k % 13) as f32 / 13.0 - 0.5, (k % 7) as f32 / 7.0 - 0.5]),
                )
            })
            .collect()
    }

    fn view(mode: Mode) -> HazyDiskView {
        let pool =
            BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::sata_2008())), 128);
        HazyDiskView::new(
            entities(300),
            SgdTrainer::new(SgdConfig::svm(), 2),
            pool,
            OpOverheads::free(),
            mode,
            NormPair::EUCLIDEAN,
            WatermarkPolicy::Monotone,
            1.0,
        )
    }

    fn ex(k: usize) -> TrainingExample {
        let x0 = (k % 11) as f32 / 11.0 - 0.5;
        let x1 = (k % 17) as f32 / 17.0 - 0.5;
        let y = if x0 + 0.3 * x1 >= 0.0 { 1 } else { -1 };
        TrainingExample::new(0, FeatureVec::dense(vec![x0, x1]), y)
    }

    /// The load-bearing invariant: hazy-od serves exactly what a fresh
    /// classification of every entity would, across updates, reads and
    /// reorganizations.
    #[test]
    fn matches_ground_truth_after_updates() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode);
            for k in 0..400 {
                v.update(&ex(k));
                if k % 83 == 0 {
                    v.count_positive();
                }
            }
            let model = v.model().clone();
            for e in entities(300) {
                assert_eq!(v.read_single(e.id), Some(model.predict(&e.f)), "{mode:?} id {}", e.id);
            }
            let expect = entities(300).iter().filter(|e| model.predict(&e.f) > 0).count() as u64;
            assert_eq!(v.count_positive(), expect, "{mode:?}");
            let mut ids = v.positive_ids();
            ids.sort_unstable();
            let mut want: Vec<u64> =
                entities(300).iter().filter(|e| model.predict(&e.f) > 0).map(|e| e.id).collect();
            want.sort_unstable();
            assert_eq!(ids, want, "{mode:?}");
        }
    }

    #[test]
    fn eager_examines_fewer_tuples_than_naive_would() {
        let mut v = view(Mode::Eager);
        for k in 0..200 {
            v.update(&ex(k));
        }
        let before = v.stats().tuples_examined;
        for k in 200..300 {
            v.update(&ex(k));
        }
        let touched = v.stats().tuples_examined - before;
        assert!(touched < 100 * 300 / 2, "examined {touched} tuples over 100 updates");
    }

    #[test]
    fn reorganizes_under_sustained_updates() {
        let mut v = view(Mode::Eager);
        for k in 0..1500 {
            v.update(&ex(k));
        }
        assert!(v.stats().reorgs >= 1);
    }

    #[test]
    fn inserted_entities_survive_reorganization() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode);
            for k in 0..50 {
                v.update(&ex(k));
            }
            v.insert_entity(Entity::new(7777, FeatureVec::dense(vec![0.45, -0.2])));
            v.insert_entity(Entity::new(8888, FeatureVec::dense(vec![-0.45, 0.2])));
            // push through enough updates to force at least one reorg
            for k in 50..2000 {
                v.update(&ex(k));
            }
            if mode == Mode::Lazy {
                v.count_positive(); // give lazy a chance to reorganize
            }
            let m = v.model().clone();
            assert_eq!(v.read_single(7777), Some(m.predict(&FeatureVec::dense(vec![0.45, -0.2]))));
            assert_eq!(v.read_single(8888), Some(m.predict(&FeatureVec::dense(vec![-0.45, 0.2]))));
        }
    }

    /// A reorganization with an unchanged model and no tail is free; with
    /// inserts only, it takes the merge path (no reclassification pass) and
    /// leaves the view serving exactly the right answers.
    #[test]
    fn clean_model_reorgs_are_free_or_merge() {
        let mut v = view(Mode::Eager);
        for k in 0..100 {
            v.update(&ex(k));
        }
        ClassifierView::reorganize(&mut v);
        let epoch = v.reorg_epoch();
        let before = v.clock().now_ns();
        ClassifierView::reorganize(&mut v); // nothing to fold in
        assert_eq!(v.clock().now_ns(), before, "free reorg advanced the clock");
        assert_eq!(v.reorg_epoch(), epoch, "free reorg must not invalidate the hybrid's ε-map");

        let before_reclassified = v.stats().tuples_reclassified;
        for k in 0..40u64 {
            let x = (k % 9) as f32 / 9.0 - 0.5;
            v.insert_entity(Entity::new(20_000 + k, FeatureVec::dense(vec![x, -x])));
        }
        ClassifierView::reorganize(&mut v); // merge path: folds the tail in
        assert_eq!(
            v.stats().tuples_reclassified,
            before_reclassified,
            "merge reorg must not reclassify"
        );
        let model = v.model().clone();
        for k in 0..40u64 {
            let x = (k % 9) as f32 / 9.0 - 0.5;
            let expect = model.predict(&FeatureVec::dense(vec![x, -x]));
            assert_eq!(v.read_single(20_000 + k), Some(expect));
        }
        // the clustered index still agrees with a physical scan
        let (lw, hw) = v.waterband();
        let mut by_scan = 0u64;
        v.for_each_tuple_ref(|t| {
            if t.eps >= lw && t.eps <= hw {
                by_scan += 1;
            }
        });
        assert_eq!(v.tuples_in_band(), by_scan);
    }

    #[test]
    fn band_count_matches_scan() {
        let mut v = view(Mode::Eager);
        for k in 0..300 {
            v.update(&ex(k));
        }
        let (lw, hw) = v.waterband();
        let mut by_scan = 0u64;
        v.for_each_tuple_ref(|t| {
            if t.eps >= lw && t.eps <= hw {
                by_scan += 1;
            }
        });
        assert_eq!(v.tuples_in_band(), by_scan);
    }

    #[test]
    fn missing_id_is_none() {
        let mut v = view(Mode::Lazy);
        assert_eq!(v.read_single(424_242), None);
    }

    #[test]
    fn forced_band_controls_certainty() {
        let mut v = view(Mode::Lazy);
        for k in 0..100 {
            v.update(&ex(k));
        }
        v.force_waterband(f64::NEG_INFINITY, f64::INFINITY);
        // nothing is certain: every read must classify, but results stay
        // correct
        let m = v.model().clone();
        for e in entities(300).iter().step_by(29) {
            assert_eq!(v.read_single(e.id), Some(m.predict(&e.f)));
        }
    }
}
