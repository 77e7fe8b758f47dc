//! Criterion microbenches for the hot kernels under every experiment:
//! dot products, model clones and margins, SGD steps, watermark bookkeeping, the Skiing decision,
//! tuple codec, B+-tree and buffer-pool paths, reorganization sorts, and
//! the epoch publisher's model round, its re-score, a pinned ranked read and
//! a published SGD round on a text-sized model.
//! These measure *wall* time of the real code (no simulated costs).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hazy_bench::common::{entities_of, warm_examples};
use hazy_core::{
    decode_tuple, decode_tuple_ref, encode_tuple, merge_sorted_tail, Architecture, Entity,
    EpochPublisher, HTuple, Mode, PublishedView, Skiing, ViewBuilder,
};
use hazy_datagen::{DatasetSpec, ExampleStream};
use hazy_learn::{LinearModel, SgdConfig, SgdTrainer, TrainingExample};
use hazy_linalg::{ChunkedVec, FeatureVec, Features, Norm, NormPair, OrdF64};
use hazy_storage::{BTree, BufferPool, CostModel, HashIndex, SimDisk, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sparse_vec(rng: &mut StdRng, dim: u32, nnz: usize) -> FeatureVec {
    FeatureVec::sparse(dim, (0..nnz).map(|_| (rng.gen_range(0..dim), rng.gen_range(-1.0..1.0))))
}

fn bench_linalg(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let dense = FeatureVec::dense((0..54).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<_>>());
    let sparse = sparse_vec(&mut rng, 50_000, 60);
    let w: Vec<f64> = (0..50_000).map(|_| rng.gen_range(-1.0..1.0)).collect();

    // a trained model over the SQL path's 2^16-word vocabulary (every chunk
    // written) and a forest-shaped dense-54 one
    const TEXT_DIM: u32 = 1 << 16;
    let text = |rng: &mut StdRng| sparse_vec(rng, TEXT_DIM, 20).normalized(Norm::L1);
    let mut trainer = SgdTrainer::new(SgdConfig::svm(), TEXT_DIM as usize);
    for _ in 0..2_000 {
        let f = text(&mut rng);
        trainer.step(&f, if rng.gen_bool(0.5) { 1 } else { -1 });
    }
    let text_model = trainer.model().clone();
    let doc = text(&mut rng);
    let dense_model = LinearModel::from_parts(w[..54].to_vec(), 0.1);

    let mut g = c.benchmark_group("linalg");
    g.bench_function("dot_dense54", |b| b.iter(|| black_box(dense.dot(&w[..54]))));
    g.bench_function("dot_sparse60", |b| b.iter(|| black_box(sparse.dot(&w))));
    g.bench_function("norm_l1_sparse", |b| b.iter(|| black_box(sparse.norm(Norm::L1))));
    g.bench_function("sortable_key", |b| b.iter(|| black_box(OrdF64(0.125).sortable_key())));
    // what a published model round copies, and the margins reads compute
    g.bench_function("model_clone_text64k", |b| b.iter(|| black_box(text_model.clone())));
    g.bench_function("margin_sparse_text64k", |b| b.iter(|| black_box(text_model.margin(&doc))));
    g.bench_function("margin_dense54", |b| b.iter(|| black_box(dense_model.margin(&dense))));
    g.finish();
}

fn bench_sgd(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let examples: Vec<(FeatureVec, i8)> = (0..256)
        .map(|_| (sparse_vec(&mut rng, 50_000, 8), if rng.gen_bool(0.5) { 1 } else { -1 }))
        .collect();
    let mut g = c.benchmark_group("sgd");
    g.bench_function("step_sparse8_dim50k", |b| {
        let mut t = SgdTrainer::new(SgdConfig::svm(), 50_000);
        let mut i = 0;
        b.iter(|| {
            let (f, y) = &examples[i % examples.len()];
            i += 1;
            black_box(t.step(f, *y))
        })
    });
    g.finish();
}

fn bench_watermark(c: &mut Criterion) {
    use hazy_core::{WaterMarks, WatermarkPolicy};
    let stored = LinearModel::from_parts(vec![0.1; 1000], 0.05);
    let mut g = c.benchmark_group("watermark");
    g.bench_function("observe_bounded", |b| {
        let mut wm = WaterMarks::new(stored.clone(), NormPair::TEXT, 1.0, WatermarkPolicy::Monotone);
        let mut d = 0.0f64;
        b.iter(|| {
            d += 1e-6;
            black_box(wm.observe_bounded(d, 0.05))
        })
    });
    g.bench_function("skiing_decision", |b| {
        let mut sk = Skiing::new(1.0, 1e9);
        b.iter(|| {
            sk.add_cost(1.0);
            black_box(sk.should_reorganize())
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let t = HTuple { id: 42, label: 1, eps: 0.5, f: sparse_vec(&mut rng, 50_000, 60) };
    let mut buf = Vec::new();
    encode_tuple(&t, &mut buf);
    let mut g = c.benchmark_group("tuple_codec");
    g.bench_function("encode_sparse60", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            encode_tuple(black_box(&t), &mut out);
            black_box(out)
        })
    });
    g.bench_function("decode_sparse60", |b| b.iter(|| black_box(decode_tuple(&buf).unwrap())));
    // the zero-copy scan path: borrow the tuple straight from the encoded
    // bytes, no allocation at all
    g.bench_function("decode_sparse60_ref", |b| {
        b.iter(|| black_box(decode_tuple_ref(&buf).unwrap().f.nnz()))
    });
    // decode + classify, the way an All-Members scan visits an uncertain
    // tuple: owned (old path) vs borrowed (new path)
    let mut rng2 = StdRng::seed_from_u64(5);
    let w = ChunkedVec::from_vec((0..50_000).map(|_| rng2.gen_range(-1.0..1.0)).collect());
    g.bench_function("scan_classify_owned", |b| {
        b.iter(|| {
            let t = decode_tuple(&buf).unwrap();
            black_box(Features::dot(&t.f, &w))
        })
    });
    g.bench_function("scan_classify_ref", |b| {
        b.iter(|| {
            let t = decode_tuple_ref(&buf).unwrap();
            black_box(Features::dot(&t.f, &w))
        })
    });
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    g.bench_function("btree_get_100k", |b| {
        let mut pool = BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 4096);
        let entries: Vec<((u64, u64), u64)> = (0..100_000u64).map(|k| ((k, 0), k)).collect();
        let tree = BTree::bulk_load(&mut pool, &entries);
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(tree.get(&mut pool, (k, 0)))
        })
    });
    g.bench_function("btree_insert", |b| {
        let mut pool = BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 4096);
        let mut tree = BTree::new(&mut pool);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            tree.insert(&mut pool, (k, 0), k).unwrap();
        })
    });
    g.bench_function("hash_index_get", |b| {
        let mut pool = BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 4096);
        let mut idx = HashIndex::with_capacity(&mut pool, 100_000);
        for k in 0..100_000u64 {
            idx.insert(&mut pool, k, !k).unwrap();
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(idx.get(&mut pool, k))
        })
    });
    g.bench_function("pool_hit", |b| {
        let mut pool = BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::free())), 8);
        let pid = pool.allocate();
        b.iter(|| pool.with_page(pid, |p| black_box(p[0])))
    });
    g.finish();
}

fn bench_reorg_sort(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let eps: Vec<f64> = (0..100_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut g = c.benchmark_group("reorg");
    g.bench_function("sort_100k_eps", |b| {
        b.iter(|| {
            let mut v = eps.clone();
            v.sort_unstable_by(|a, b| b.total_cmp(a));
            black_box(v.len())
        })
    });
    // The incremental reorganization scenario: a 100k-entry ε-sorted run
    // plus a 1k unsorted tail of inserts (1%). The old code resorted all
    // 101k; the new code sorts the tail and merges.
    let mut sorted: Vec<f64> = (0..100_000).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    let split = sorted.len();
    let mut run = sorted;
    run.extend((0..1_000).map(|_| rng.gen_range(-1.0f64..1.0)));
    g.bench_function("merge_100k_tail1k", |b| {
        b.iter(|| {
            let mut v = run.clone();
            v[split..].sort_unstable_by(|a, b| b.total_cmp(a));
            merge_sorted_tail(&mut v, split, |a, b| b.total_cmp(a) != std::cmp::Ordering::Greater);
            black_box(v.len())
        })
    });
    g.bench_function("resort_100k_tail1k", |b| {
        b.iter(|| {
            let mut v = run.clone();
            v.sort_unstable_by(|a, b| b.total_cmp(a));
            black_box(v.len())
        })
    });
    g.finish();
}

/// The epoch publisher on one `tcp_mixed` shard's worth of the forest
/// corpus (14.5 K dense-54 entities) under a 1 000-round SGD drift from a
/// warm model.
fn bench_epoch(c: &mut Criterion) {
    let spec = DatasetSpec::forest().scaled(0.025);
    let entities = entities_of(&spec.generate());
    let mut trainer = SgdTrainer::new(SgdConfig::svm(), spec.dim);
    for ex in warm_examples(&spec, 6_000) {
        trainer.step(&ex.f, ex.y);
    }
    let warm = trainer.model().clone();
    let drift: Vec<LinearModel> = ExampleStream::new(&spec, 7)
        .take_vec(1_000)
        .iter()
        .map(|ex| {
            trainer.step(&ex.f, ex.y);
            trainer.model().clone()
        })
        .collect();
    let fresh = || EpochPublisher::new(entities.clone(), warm.clone(), spec.norm_pair(), 0);

    let mut g = c.benchmark_group("epoch");
    // one published model round: band walk or, when Skiing says so, a
    // re-score; a fresh publisher every 1 000 rounds (≈ 2 % of the time)
    g.bench_function("epoch_apply_update_drift", |b| {
        let (mut p, mut i) = (fresh(), 0);
        b.iter(|| {
            if i == drift.len() {
                (p, i) = (fresh(), 0);
            }
            p.apply_update(&drift[i]);
            i += 1;
        })
    });
    // one forced re-score of the shared population, its `eps` order ten
    // rounds stale (the walk of that ten-round jump included)
    g.bench_function("epoch_rescore", |b| {
        let (mut p, mut i) = (fresh(), 0);
        b.iter(|| {
            i = (i + 10) % drift.len();
            p.apply_update(&drift[i]);
            p.apply_reorganize();
        })
    });
    // a pinned bound-pruned `top_k(10)`: after the whole drift (the band
    // as wide as the last Skiing re-score let it grow), then right after
    // a re-score (zero band)
    let mut drifted = fresh();
    drift.iter().for_each(|m| drifted.apply_update(m));
    let cell = drifted.handle();
    g.bench_function("epoch_top_k10_drift", |b| {
        let pin = cell.pin();
        b.iter(|| black_box(pin.top_k(10)))
    });
    drifted.apply_reorganize();
    g.bench_function("epoch_top_k10_rescored", |b| {
        let pin = cell.pin();
        b.iter(|| black_box(pin.top_k(10)))
    });

    // one published one-example round on the SQL path's shape: an eager
    // HazyMem view over 2 000 ℓ1-normalized 65 536-dim sparse entities —
    // the engine's SGD step and band walk, then the publisher's O(nnz)
    // drift bound, band walk, model copy and publish
    const TEXT_DIM: u32 = 1 << 16;
    let mut rng = StdRng::seed_from_u64(6);
    let text = |rng: &mut StdRng| sparse_vec(rng, TEXT_DIM, 20).normalized(Norm::L1);
    let docs: Vec<Entity> = (0..2_000).map(|id| Entity::new(id, text(&mut rng))).collect();
    let feedback: Vec<TrainingExample> = (0..256)
        .map(|_| TrainingExample::new(0, text(&mut rng), if rng.gen_bool(0.5) { 1 } else { -1 }))
        .collect();
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
        .norm_pair(NormPair::TEXT)
        .dim(TEXT_DIM as usize);
    g.bench_function("publish_round_text64k", |b| {
        let mut view = PublishedView::new(builder.build(docs.clone(), &[]), NormPair::TEXT, 0);
        let mut i = 0;
        b.iter(|| {
            view.update(&feedback[i % feedback.len()]);
            i += 1;
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_linalg, bench_sgd, bench_watermark, bench_codec, bench_storage, bench_reorg_sort,
        bench_epoch
}
criterion_main!(benches);
