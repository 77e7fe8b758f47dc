//! The naive on-disk architecture: [`NaiveView`] over an unclustered
//! [`DiskStore`] — `V` is a heap file of `(id, label, eps, f)` tuples with
//! a hash index on `id`.

use crate::disk_store::DiskStore;
use crate::naive::NaiveView;

/// Naive on-disk view.
pub type NaiveDiskView = NaiveView<DiskStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierView, Entity, Mode, OpOverheads};
    use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
    use hazy_linalg::FeatureVec;
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

    fn view(mode: Mode, pool_pages: usize) -> NaiveDiskView {
        let pool = BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::sata_2008())), pool_pages);
        NaiveDiskView::new(entities(300), SgdTrainer::new(SgdConfig::svm(), 2), pool, OpOverheads::free(), mode)
    }

    fn ex(k: usize) -> TrainingExample {
        let x0 = (k % 11) as f32 / 11.0 - 0.5;
        let x1 = (k % 17) as f32 / 17.0 - 0.5;
        let y = if x0 + 0.3 * x1 >= 0.0 { 1 } else { -1 };
        TrainingExample::new(0, FeatureVec::dense(vec![x0, x1]), y)
    }

    #[test]
    fn labels_match_model_after_updates() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode, 64);
            for k in 0..60 {
                v.update(&ex(k));
            }
            let model = v.model().clone();
            for e in entities(300) {
                assert_eq!(v.read_single(e.id), Some(model.predict(&e.f)), "{mode:?}");
            }
            let expect = entities(300).iter().filter(|e| model.predict(&e.f) > 0).count() as u64;
            assert_eq!(v.count_positive(), expect);
            assert_eq!(v.positive_ids().len() as u64, expect);
        }
    }

    #[test]
    fn survives_a_tiny_buffer_pool() {
        let mut v = view(Mode::Eager, 4);
        for k in 0..20 {
            v.update(&ex(k));
        }
        let model = v.model().clone();
        for e in entities(300).iter().step_by(17) {
            assert_eq!(v.read_single(e.id), Some(model.predict(&e.f)));
        }
    }

    #[test]
    fn eager_update_scans_whole_heap() {
        let mut v = view(Mode::Eager, 64);
        v.update(&ex(0));
        assert_eq!(v.stats().tuples_reclassified, 300);
    }

    #[test]
    fn lazy_update_touches_nothing() {
        let mut v = view(Mode::Lazy, 64);
        v.update(&ex(0));
        assert_eq!(v.stats().tuples_reclassified, 0);
        assert_eq!(v.stats().tuples_examined, 0);
    }

    #[test]
    fn inserted_entity_readable() {
        let mut v = view(Mode::Eager, 64);
        v.update(&ex(3));
        v.insert_entity(Entity::new(5555, FeatureVec::dense(vec![0.3, 0.1])));
        let expect = v.model().predict(&FeatureVec::dense(vec![0.3, 0.1]));
        assert_eq!(v.read_single(5555), Some(expect));
    }

    #[test]
    fn missing_id_is_none() {
        let mut v = view(Mode::Lazy, 64);
        assert_eq!(v.read_single(123_456), None);
    }
}
