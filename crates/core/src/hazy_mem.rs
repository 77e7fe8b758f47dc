//! Hazy's main-memory architecture (Section 3.5.1): the same
//! clustering-plus-Skiing machinery as the on-disk design — [`HazyView`] —
//! over the in-memory [`MemStore`].

use crate::hazy::HazyView;
use crate::mem_store::MemStore;

/// Hazy main-memory view (`Hazy-MM`).
pub type HazyMemView = HazyView<MemStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{tuple_le, Store};
    use crate::{ClassifierView, Entity, Mode, OpOverheads, WatermarkPolicy};
    use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
    use hazy_linalg::{FeatureVec, NormPair};
    use hazy_storage::{CostModel, VirtualClock};

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![
                        (k % 13) as f32 / 13.0 - 0.5,
                        (k % 7) as f32 / 7.0 - 0.5,
                    ]),
                )
            })
            .collect()
    }

    fn view(mode: Mode) -> HazyMemView {
        HazyMemView::new(
            entities(200),
            SgdTrainer::new(SgdConfig::svm(), 2),
            VirtualClock::new(CostModel::sata_2008()),
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

    /// The load-bearing invariant: under any update stream, hazy-mm serves
    /// exactly the labels a from-scratch classification would.
    #[test]
    fn matches_ground_truth_after_updates() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode);
            for k in 0..500 {
                v.update(&ex(k));
                if k % 97 == 0 {
                    // interleave reads so lazy waste accounting runs too
                    v.count_positive();
                }
            }
            let model = v.model().clone();
            for e in entities(200) {
                let expect = model.predict(&e.f);
                assert_eq!(v.read_single(e.id), Some(expect), "{mode:?} id {}", e.id);
            }
            let expect_count =
                entities(200).iter().filter(|e| model.predict(&e.f) > 0).count() as u64;
            assert_eq!(v.count_positive(), expect_count, "{mode:?}");
        }
    }

    #[test]
    fn eager_touches_fewer_tuples_than_naive() {
        let mut v = view(Mode::Eager);
        // warm up so the model stops swinging wildly
        for k in 0..300 {
            v.update(&ex(k));
        }
        let before = v.stats().tuples_reclassified;
        for k in 300..400 {
            v.update(&ex(k));
        }
        let touched = v.stats().tuples_reclassified - before;
        // naive eager would touch 100 × 200 = 20_000 tuples
        assert!(touched < 10_000, "hazy touched {touched}");
    }

    #[test]
    fn reorganizations_happen_and_reset_waste() {
        let mut v = view(Mode::Eager);
        for k in 0..2000 {
            v.update(&ex(k));
        }
        assert!(v.stats().reorgs >= 1, "no reorganizations in 2000 updates");
    }

    #[test]
    fn lazy_update_does_no_maintenance() {
        let mut v = view(Mode::Lazy);
        let before = v.stats().tuples_reclassified;
        for k in 0..100 {
            v.update(&ex(k));
        }
        assert_eq!(v.stats().tuples_reclassified, before);
    }

    #[test]
    fn lazy_scan_prunes_below_low_water() {
        let mut v = view(Mode::Lazy);
        for k in 0..50 {
            v.update(&ex(k));
        }
        let before = v.stats().tuples_examined;
        v.count_positive();
        let examined = v.stats().tuples_examined - before;
        assert!(examined <= 200, "examined {examined}");
        // after a reorganization the scan only reads positives (+ the band)
        let positives = v.count_positive();
        assert!(positives <= examined);
    }

    #[test]
    fn inserted_entities_are_visible_everywhere() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode);
            for k in 0..100 {
                v.update(&ex(k));
            }
            v.insert_entity(Entity::new(9999, FeatureVec::dense(vec![0.4, 0.4])));
            let expect = v.model().predict(&FeatureVec::dense(vec![0.4, 0.4]));
            assert_eq!(v.read_single(9999), Some(expect), "{mode:?}");
            let ids = v.positive_ids();
            assert_eq!(ids.contains(&9999), expect > 0, "{mode:?}");
            // keep updating across a reorg; the entity must stay correct
            for k in 100..1500 {
                v.update(&ex(k));
            }
            let expect = v.model().predict(&FeatureVec::dense(vec![0.4, 0.4]));
            assert_eq!(v.read_single(9999), Some(expect), "{mode:?} post-reorg");
        }
    }

    /// Satellite fix for this PR: a reorganization with an unchanged model
    /// and no unsorted tail must not charge anything — previously it paid a
    /// full `charge_sort(n)` plus a reclassification pass for nothing.
    #[test]
    fn reorg_is_free_when_there_is_nothing_to_fold_in() {
        let mut v = view(Mode::Eager);
        for k in 0..100 {
            v.update(&ex(k));
        }
        ClassifierView::reorganize(&mut v); // folds the current model in
        let before = v.clock().now_ns();
        ClassifierView::reorganize(&mut v); // no model change, no tail
        assert_eq!(v.clock().now_ns(), before, "free reorg advanced the clock");
    }

    /// Inserts between reorganizations take the merge path: the clock is
    /// charged O(t log t + n), far below the full O(n log n) resort, and
    /// the structure stays exactly sorted.
    #[test]
    fn insert_only_reorg_merges_instead_of_resorting() {
        let mut v = view(Mode::Eager);
        for k in 0..100 {
            v.update(&ex(k));
        }
        ClassifierView::reorganize(&mut v);
        for k in 0..50u64 {
            let x = (k % 9) as f32 / 9.0 - 0.5;
            v.insert_entity(Entity::new(10_000 + k, FeatureVec::dense(vec![x, -x])));
        }
        let n = v.entity_count();
        let before = v.clock().now_ns();
        ClassifierView::reorganize(&mut v);
        let charged = v.clock().now_ns() - before;
        // full resort would charge at least n·log2(n) cpu ops (plus a
        // reclassification of every tuple); the merge path must come in
        // well under that
        let full_sort_ns = {
            let logn = 64 - n.leading_zeros() as u64;
            n * logn * v.clock().model().cpu_op_ns
        };
        assert!(charged < full_sort_ns, "merge path charged {charged} ≥ full sort {full_sort_ns}");
        let mut data = Vec::new();
        v.store.scan_all(|t| data.push(t.clone()));
        assert!(
            data.windows(2).all(|w| tuple_le(&w[0], &w[1])),
            "merge left the run unsorted"
        );
        assert!(!v.store.has_tail());
        // every entity still reads correctly through the rebuilt idmap
        let model = v.model().clone();
        for k in 0..50u64 {
            let x = (k % 9) as f32 / 9.0 - 0.5;
            let expect = model.predict(&FeatureVec::dense(vec![x, -x]));
            assert_eq!(v.read_single(10_000 + k), Some(expect));
        }
    }

    #[test]
    fn band_count_is_consistent_with_range() {
        let mut v = view(Mode::Eager);
        for k in 0..200 {
            v.update(&ex(k));
        }
        let (lw, hw) = v.waterband();
        let by_filter = (0..200u64)
            .filter_map(|id| {
                let eps = v.store.get(id)?.eps;
                (eps >= lw && eps <= hw).then_some(())
            })
            .count() as u64;
        assert_eq!(v.tuples_in_band(), by_filter);
    }
}
