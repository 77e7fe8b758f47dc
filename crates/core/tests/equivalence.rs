//! Cross-architecture equivalence: all five architectures, eager and lazy,
//! must serve **identical answers** for every operation under the same
//! update stream — they differ only in cost. This is the correctness
//! backbone of the whole reproduction: Hazy's claim is performance, never a
//! different answer.

use hazy_core::{Architecture, DurableClassifierView, Entity, Mode, OpOverheads, ViewBuilder};
use hazy_datagen::{DatasetSpec, ExampleStream};

fn build_all(spec: &hazy_datagen::DatasetSpec, warm: usize) -> Vec<Box<dyn DurableClassifierView + Send>> {
    let ds = spec.generate();
    let entities: Vec<Entity> = ds.entities.iter().map(|e| Entity::new(e.id, e.f.clone())).collect();
    let warm_examples = ExampleStream::new(spec, 99).take_vec(warm);
    let mut views = Vec::new();
    for arch in Architecture::all() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let v = ViewBuilder::new(arch, mode)
                .norm_pair(spec.norm_pair())
                .dim(spec.dim)
                .build(entities.clone(), &warm_examples);
            views.push(v);
        }
    }
    views
}

#[test]
fn all_architectures_serve_identical_answers() {
    let spec = DatasetSpec::dblife().scaled(0.008);
    let mut views = build_all(&spec, 500);
    let n = spec.n_entities as u64;
    let mut stream = ExampleStream::new(&spec, 7);

    for round in 0..120 {
        let ex = stream.next_example();
        for v in views.iter_mut() {
            v.update(&ex);
        }
        if round % 30 == 7 {
            let counts: Vec<u64> = views.iter_mut().map(|v| v.count_positive()).collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "round {round}: count divergence: {:?}",
                views.iter().map(|v| v.describe()).zip(counts.iter()).collect::<Vec<_>>()
            );
        }
    }

    // single-entity reads agree everywhere
    for id in (0..n).step_by(37) {
        let labels: Vec<Option<i8>> = views.iter_mut().map(|v| v.read_single(id)).collect();
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "id {id}: label divergence {labels:?}"
        );
        assert!(labels[0].is_some(), "id {id} missing");
    }

    // full member lists agree
    let mut lists: Vec<Vec<u64>> = views
        .iter_mut()
        .map(|v| {
            let mut ids = v.positive_ids();
            ids.sort_unstable();
            ids
        })
        .collect();
    let first = lists.remove(0);
    for (v, l) in views.iter().skip(1).zip(lists.iter()) {
        assert_eq!(&first, l, "{} diverges on positive_ids", v.describe());
    }

    // ranked reads agree bit-for-bit: same ids, same margins, same order
    let mut ranked: Vec<Vec<(u64, f64)>> = views.iter_mut().map(|v| v.top_k(25)).collect();
    let first = ranked.remove(0);
    assert_eq!(first.len(), 25);
    assert!(
        first.windows(2).all(|w| hazy_core::rank_order(&w[0], &w[1]) != std::cmp::Ordering::Greater),
        "top_k not in rank order: {first:?}"
    );
    for (v, r) in views.iter().skip(1).zip(ranked.iter()) {
        assert_eq!(&first, r, "{} diverges on top_k", v.describe());
    }
}

#[test]
fn entity_inserts_are_equivalent_across_architectures() {
    let spec = DatasetSpec::forest().scaled(0.001);
    let mut views = build_all(&spec, 300);
    let mut stream = ExampleStream::new(&spec, 13);

    // interleave updates and entity inserts
    let mut extra = ExampleStream::new(&spec, 21);
    for round in 0..60 {
        let ex = stream.next_example();
        for v in views.iter_mut() {
            v.update(&ex);
        }
        if round % 10 == 3 {
            let e = extra.next_example();
            let ent = Entity::new(e.id, e.f.clone());
            for v in views.iter_mut() {
                v.insert_entity(ent.clone());
            }
            let labels: Vec<Option<i8>> = views.iter_mut().map(|v| v.read_single(e.id)).collect();
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "inserted {}: {labels:?}", e.id);
        }
    }
    let counts: Vec<u64> = views.iter_mut().map(|v| v.count_positive()).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "final counts {counts:?}");
}

/// This PR's tentpole invariant: batched updates (`update_batch`) and
/// explicitly triggered incremental reorganizations (`reorganize`) are pure
/// performance features — interleaved with inserts and reads in any order,
/// all five architectures in both modes still serve identical labels,
/// counts and member lists, and those answers equal a from-scratch
/// classification under the final model.
#[test]
fn update_batches_and_incremental_reorgs_preserve_equivalence() {
    let spec = DatasetSpec::dblife().scaled(0.006);
    let mut views = build_all(&spec, 400);
    let n = spec.n_entities as u64;
    let mut stream = ExampleStream::new(&spec, 17);
    let mut extra = ExampleStream::new(&spec, 29);

    for round in 0..16 {
        // batch sizes vary so maintenance bands of different widths are hit
        let batch = stream.take_vec(1 + (round % 7));
        for v in views.iter_mut() {
            v.update_batch(&batch);
        }
        if round % 3 == 1 {
            // entity inserts grow the unsorted tail between reorgs
            let e = extra.next_example();
            let ent = Entity::new(e.id, e.f.clone());
            for v in views.iter_mut() {
                v.insert_entity(ent.clone());
            }
        }
        if round % 4 == 2 {
            // force the incremental reorganization paths (merge the tail
            // in; free when there is nothing to do)
            for v in views.iter_mut() {
                v.reorganize();
            }
        }
        if round % 5 == 3 {
            let counts: Vec<u64> = views.iter_mut().map(|v| v.count_positive()).collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "round {round}: count divergence: {:?}",
                views.iter().map(|v| v.describe()).zip(counts.iter()).collect::<Vec<_>>()
            );
        }
    }

    // a second reorganize right after the first exercises the free path on
    // every architecture that has one
    for v in views.iter_mut() {
        v.reorganize();
        v.reorganize();
    }

    for id in (0..n).step_by(23) {
        let labels: Vec<Option<i8>> = views.iter_mut().map(|v| v.read_single(id)).collect();
        assert!(labels.windows(2).all(|w| w[0] == w[1]), "id {id}: label divergence {labels:?}");
    }
    let mut lists: Vec<Vec<u64>> = views
        .iter_mut()
        .map(|v| {
            let mut ids = v.positive_ids();
            ids.sort_unstable();
            ids
        })
        .collect();
    let first = lists.remove(0);
    for (v, l) in views.iter().skip(1).zip(lists.iter()) {
        assert_eq!(&first, l, "{} diverges on positive_ids after batches", v.describe());
    }
}

/// `update_batch` must be *observationally identical* to the same examples
/// applied one at a time: same final model, same labels everywhere.
#[test]
fn batched_updates_match_sequential_updates() {
    let spec = DatasetSpec::forest().scaled(0.001);
    let ds = spec.generate();
    let entities: Vec<Entity> =
        ds.entities.iter().map(|e| Entity::new(e.id, e.f.clone())).collect();
    let warm = ExampleStream::new(&spec, 99).take_vec(200);
    let examples = ExampleStream::new(&spec, 41).take_vec(90);

    for arch in Architecture::all() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let builder = ViewBuilder::new(arch, mode).norm_pair(spec.norm_pair()).dim(spec.dim);
            let mut sequential = builder.build(entities.clone(), &warm);
            let mut batched = builder.build(entities.clone(), &warm);
            for ex in &examples {
                sequential.update(ex);
            }
            for chunk in examples.chunks(13) {
                batched.update_batch(chunk);
            }
            assert_eq!(
                sequential.count_positive(),
                batched.count_positive(),
                "{arch:?}/{mode:?} counts diverge"
            );
            for e in entities.iter().step_by(11) {
                assert_eq!(
                    sequential.read_single(e.id),
                    batched.read_single(e.id),
                    "{arch:?}/{mode:?} id {}",
                    e.id
                );
            }
        }
    }
}

#[test]
fn hazy_is_cheaper_than_naive_in_virtual_time() {
    let spec = DatasetSpec::dblife().scaled(0.01);
    let ds = spec.generate();
    let entities: Vec<Entity> =
        ds.entities.iter().map(|e| Entity::new(e.id, e.f.clone())).collect();
    let warm = ExampleStream::new(&spec, 99).take_vec(12_000);

    let mut costs = Vec::new();
    for arch in [Architecture::NaiveMem, Architecture::HazyMem] {
        // free per-statement overheads: this test isolates the algorithmic
        // cost difference (benches measure end-to-end rates separately)
        let mut v = ViewBuilder::new(arch, Mode::Eager)
            .norm_pair(spec.norm_pair())
            .overheads(OpOverheads::free())
            .dim(spec.dim)
            .build(entities.clone(), &warm);
        let mut stream = ExampleStream::new(&spec, 3);
        let t0 = v.clock().now_ns();
        for _ in 0..300 {
            v.update(&stream.next_example());
        }
        costs.push(v.clock().now_ns() - t0);
    }
    let (naive, hazy) = (costs[0], costs[1]);
    assert!(
        hazy * 3 < naive,
        "hazy-mm ({hazy} ns) should be well under naive-mm ({naive} ns) on eager updates"
    );
}

#[test]
fn lazy_hazy_scans_cheaper_than_lazy_naive() {
    let spec = DatasetSpec::dblife().scaled(0.01);
    let ds = spec.generate();
    let entities: Vec<Entity> =
        ds.entities.iter().map(|e| Entity::new(e.id, e.f.clone())).collect();
    let warm = ExampleStream::new(&spec, 99).take_vec(4000);

    let mut costs = Vec::new();
    for arch in [Architecture::NaiveMem, Architecture::HazyMem] {
        let mut v = ViewBuilder::new(arch, Mode::Lazy)
            .norm_pair(spec.norm_pair())
            .overheads(OpOverheads::free())
            .dim(spec.dim)
            .build(entities.clone(), &warm);
        let mut stream = ExampleStream::new(&spec, 3);
        // a few updates, then repeated All-Members queries (the paper's
        // lazy bottleneck)
        for _ in 0..20 {
            v.update(&stream.next_example());
        }
        let t0 = v.clock().now_ns();
        for _ in 0..20 {
            v.count_positive();
        }
        costs.push(v.clock().now_ns() - t0);
    }
    let (naive, hazy) = (costs[0], costs[1]);
    assert!(hazy < naive, "lazy hazy scan ({hazy} ns) vs naive ({naive} ns)");
}

/// Inserting an id the view already holds **replaces** the entity (set
/// semantics): engine, pinned epoch and a from-scratch view over the
/// replaced population agree. Replaced here: an entity of the ε-sorted
/// run, the two entities nearest the decision boundary (features swapped,
/// so both labels flip) and one still in the unsorted tail — then again
/// after a reorganization.
#[test]
fn inserting_a_live_id_replaces_the_entity() {
    use hazy_core::{ClassifierView, PublishedView};
    use hazy_learn::{LinearModel, TrainingExample};
    use hazy_linalg::NormPair;
    use hazy_testkit::{builder, grid_entities, grid_feature, splitmix64};

    // a learnable concept (the sign of the first coordinate), so the
    // population keeps both labels
    fn examples(r: &mut u64) -> Vec<TrainingExample> {
        let mut byte = || (splitmix64(r) % 256) as u8;
        (0..24)
            .map(|_| {
                let a = byte();
                TrainingExample::new(0, grid_feature(a, byte()), if a >= 128 { 1 } else { -1 })
            })
            .collect()
    }
    fn nearest(model: &LinearModel, population: &[Entity], positive: bool) -> Entity {
        let margin = |e: &&Entity| model.margin(&e.f).abs();
        population
            .iter()
            .filter(|e| (model.margin(&e.f) > 0.0) == positive)
            .min_by(|x, y| margin(x).total_cmp(&margin(y)))
            .expect("both labels present")
            .clone()
    }
    let bits = |ranked: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
        ranked.into_iter().map(|(id, m)| (id, m.to_bits())).collect()
    };

    for arch in Architecture::all() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let b = builder(arch, mode);
            let mut population = grid_entities(48);
            let mut view =
                PublishedView::new(b.build(population.clone(), &[]), NormPair::EUCLIDEAN, 0);
            let cell = view.cell().clone();
            let mut r = 0x0011_FE1D;
            let mut trained = examples(&mut r);
            view.update_batch(&trained);
            view.reorganize();
            population.push(Entity::new(100, grid_feature(3, 250)));
            view.insert_entity(population[48].clone());

            for round in 0..2 {
                let model = view.engine().model().clone();
                let (p, n) = (nearest(&model, &population, true), nearest(&model, &population, false));
                for e in [
                    Entity::new(p.id, n.f),
                    Entity::new(n.id, p.f),
                    Entity::new(7, grid_feature(250, 9)),
                    Entity::new(100, grid_feature(128, 17 + round)),
                ] {
                    view.insert_entity(e.clone());
                    let id = e.id;
                    *population.iter_mut().find(|x| x.id == id).expect("live id") = e;
                }
                let batch = examples(&mut r);
                view.update_batch(&batch);
                trained.extend(batch);

                let mut scratch = b.build(population.clone(), &[]);
                for batch in trained.chunks(24) {
                    scratch.update_batch(batch);
                }
                let ids: Vec<u64> = population.iter().map(|e| e.id).collect();
                let mut members = scratch.positive_ids();
                members.sort_unstable();
                let want = (
                    scratch.entity_count(),
                    scratch.count_positive(),
                    members,
                    bits(scratch.top_k(9)),
                    ids.iter().map(|&id| scratch.read_single(id)).collect::<Vec<_>>(),
                );
                let pin = cell.pin();
                let pinned = (
                    pin.entity_count(),
                    pin.count_positive(),
                    pin.positive_ids(),
                    bits(pin.top_k(9)),
                    ids.iter().map(|&id| pin.classify(id)).collect::<Vec<_>>(),
                );
                let ctx = format!("{}/{}/round {round}", arch.name(), mode.name());
                assert_eq!(pinned, want, "{ctx}: pinned epoch vs from-scratch");
                let mut members = view.positive_ids();
                members.sort_unstable();
                let engine = (
                    view.engine().entity_count(),
                    view.count_positive(),
                    members,
                    bits(view.top_k(9)),
                    ids.iter().map(|&id| view.read_single(id)).collect::<Vec<_>>(),
                );
                assert_eq!(engine, want, "{ctx}: engine vs from-scratch");
                view.reorganize();
            }
        }
    }

    // the hybrid's boundary buffer holds feature vectors: with every tuple
    // uncertain and buffered each read is a buffer hit, and none may serve
    // the vector that was replaced
    let population = grid_entities(48);
    let mut hybrid = builder(Architecture::Hybrid, Mode::Eager)
        .build_hybrid(population.clone(), &examples(&mut 0x0011_FE1D));
    hybrid.set_uncertain_fraction(1.0);
    hybrid.set_buffer_frac(1.0);
    let model = hybrid.model().clone();
    let (p, n) = (nearest(&model, &population, true), nearest(&model, &population, false));
    hybrid.insert_entity(Entity::new(p.id, n.f.clone()));
    assert_eq!(hybrid.read_single(p.id), Some(model.predict(&n.f)), "hybrid: stale buffer entry");
}
