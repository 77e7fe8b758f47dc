//! Property test: under *arbitrary* interleavings of updates, entity
//! inserts, single reads and All-Members queries, every architecture ×
//! mode serves exactly the answers of the naive in-memory reference.
//!
//! This is the strongest correctness statement the engine can make — the
//! incremental machinery (watermarks, Skiing reorganizations, clustered
//! storage, ε-maps) must be observationally invisible.

use hazy_core::{Architecture, Entity, Mode, WatermarkPolicy};
use hazy_learn::TrainingExample;
use hazy_testkit::{builder, grid_entities, grid_feature, BoxedView};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Train on a point with the given grid coordinates and label.
    Update(u8, u8, bool),
    /// Insert a fresh entity at the given grid coordinates.
    InsertEntity(u8, u8),
    /// Read one entity by (index modulo population).
    ReadSingle(u16),
    /// Count the positive class.
    Count,
    /// List the positive class.
    Members,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, y)| Op::Update(a, b, y)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::InsertEntity(a, b)),
        3 => any::<u16>().prop_map(Op::ReadSingle),
        1 => Just(Op::Count),
        1 => Just(Op::Members),
    ]
}

fn build(arch: Architecture, mode: Mode, policy: WatermarkPolicy) -> BoxedView {
    builder(arch, mode).watermark_policy(policy).build(grid_entities(60), &[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_views_are_observationally_equivalent(
        ops in prop::collection::vec(arb_op(), 1..120),
        alpha_kind in 0usize..3,
    ) {
        let _ = alpha_kind;
        let mut reference = build(Architecture::NaiveMem, Mode::Eager, WatermarkPolicy::Monotone);
        let mut candidates: Vec<BoxedView> = vec![
            build(Architecture::HazyMem, Mode::Eager, WatermarkPolicy::Monotone),
            build(Architecture::HazyMem, Mode::Lazy, WatermarkPolicy::Monotone),
            build(Architecture::HazyMem, Mode::Eager, WatermarkPolicy::Window2),
            build(Architecture::HazyDisk, Mode::Eager, WatermarkPolicy::Monotone),
            build(Architecture::HazyDisk, Mode::Lazy, WatermarkPolicy::Monotone),
            build(Architecture::Hybrid, Mode::Eager, WatermarkPolicy::Monotone),
            build(Architecture::Hybrid, Mode::Lazy, WatermarkPolicy::Monotone),
            build(Architecture::NaiveDisk, Mode::Lazy, WatermarkPolicy::Monotone),
        ];
        let mut population: Vec<u64> = (0..60).collect();
        let mut next_id = 1000u64;

        for op in &ops {
            match *op {
                Op::Update(a, b, pos) => {
                    let ex = TrainingExample::new(0, grid_feature(a, b), if pos { 1 } else { -1 });
                    reference.update(&ex);
                    for v in candidates.iter_mut() {
                        v.update(&ex);
                    }
                }
                Op::InsertEntity(a, b) => {
                    let e = Entity::new(next_id, grid_feature(a, b));
                    next_id += 1;
                    population.push(e.id);
                    reference.insert_entity(e.clone());
                    for v in candidates.iter_mut() {
                        v.insert_entity(e.clone());
                    }
                }
                Op::ReadSingle(raw) => {
                    let id = population[raw as usize % population.len()];
                    let expect = reference.read_single(id);
                    for v in candidates.iter_mut() {
                        prop_assert_eq!(
                            v.read_single(id), expect,
                            "{} diverges on read({})", v.describe(), id
                        );
                    }
                }
                Op::Count => {
                    let expect = reference.count_positive();
                    for v in candidates.iter_mut() {
                        prop_assert_eq!(
                            v.count_positive(), expect,
                            "{} diverges on count", v.describe()
                        );
                    }
                }
                Op::Members => {
                    let mut expect = reference.positive_ids();
                    expect.sort_unstable();
                    for v in candidates.iter_mut() {
                        let mut got = v.positive_ids();
                        got.sort_unstable();
                        prop_assert_eq!(
                            &got, &expect,
                            "{} diverges on members", v.describe()
                        );
                    }
                }
            }
        }
        // final sweep: every entity agrees everywhere
        for &id in population.iter().step_by(7) {
            let expect = reference.read_single(id);
            for v in candidates.iter_mut() {
                prop_assert_eq!(v.read_single(id), expect, "{} final sweep", v.describe());
            }
        }
    }
}
