//! The naive main-memory architecture (baseline): [`NaiveView`] over the
//! in-memory [`MemStore`].

use crate::mem_store::MemStore;
use crate::naive::NaiveView;

/// Naive in-memory view.
pub type NaiveMemView = NaiveView<MemStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierView, Entity, Mode, OpOverheads};
    use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
    use hazy_linalg::FeatureVec;
    use hazy_storage::{CostModel, VirtualClock};

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![(k % 7) as f32 / 7.0 - 0.4, (k % 5) as f32 / 5.0 - 0.3]),
                )
            })
            .collect()
    }

    fn view(mode: Mode) -> NaiveMemView {
        NaiveMemView::new(
            entities(100),
            SgdTrainer::new(SgdConfig::svm(), 2),
            VirtualClock::new(CostModel::free()),
            OpOverheads::free(),
            mode,
        )
    }

    fn ex(x0: f32, x1: f32, y: i8) -> TrainingExample {
        TrainingExample::new(0, FeatureVec::dense(vec![x0, x1]), y)
    }

    #[test]
    fn eager_and_lazy_agree_on_labels() {
        let mut eager = view(Mode::Eager);
        let mut lazy = view(Mode::Lazy);
        for k in 0..50 {
            let e = ex(0.3 + (k % 3) as f32 * 0.1, -0.2, if k % 2 == 0 { 1 } else { -1 });
            eager.update(&e);
            lazy.update(&e);
        }
        for id in 0..100u64 {
            assert_eq!(eager.read_single(id), lazy.read_single(id), "id {id}");
        }
        assert_eq!(eager.count_positive(), lazy.count_positive());
        assert_eq!(eager.positive_ids(), lazy.positive_ids());
    }

    #[test]
    fn eager_update_touches_every_entity() {
        let mut v = view(Mode::Eager);
        v.update(&ex(0.5, 0.5, 1));
        assert_eq!(v.stats().tuples_reclassified, 100);
        let mut l = view(Mode::Lazy);
        l.update(&ex(0.5, 0.5, 1));
        assert_eq!(l.stats().tuples_reclassified, 0);
    }

    #[test]
    fn missing_id_reads_none() {
        let mut v = view(Mode::Eager);
        assert_eq!(v.read_single(10_000), None);
    }

    #[test]
    fn inserted_entity_is_classified_and_readable() {
        let mut v = view(Mode::Eager);
        v.update(&ex(1.0, 0.0, 1));
        v.insert_entity(Entity::new(777, FeatureVec::dense(vec![1.0, 0.0])));
        assert_eq!(v.read_single(777), Some(1));
    }

    #[test]
    fn counts_match_reads(){
        let mut v = view(Mode::Eager);
        for k in 0..30 {
            v.update(&ex((k % 4) as f32 * 0.2 - 0.3, 0.4, if k % 3 == 0 { -1 } else { 1 }));
        }
        let count = v.count_positive();
        let by_read = (0..100u64).filter(|&id| v.read_single(id) == Some(1)).count() as u64;
        assert_eq!(count, by_read);
    }
}
