//! Crash-injection differential suite for a **durable derived view**: a
//! random script of base-table inserts / deletes / updates flows through a
//! filter→join→project dataflow into a WAL-logged classifier engine. We
//! capture a crash image at **every WAL record boundary**, recover, and
//! diff the recovered view against an oracle that executed only the
//! durable prefix of the engine-op stream.
//!
//! This extends the PR 4 crash harness (`crates/core/tests/crash_recovery`)
//! to the dataflow world: here the logged stream contains *retractions*
//! (`DELETE FROM` a base table, or the retract half of an `UPDATE`,
//! propagated through the join), so recovery must replay entity removals
//! idempotently and land bit-identical to the prefix oracle.
//!
//! The crash seed comes from `HAZY_CRASH_SEED` so CI can run a
//! deterministic seed matrix.

use std::collections::BTreeMap;

use hazy_core::{Architecture, ClassifierView, Entity, Mode, ViewBuilder};
use hazy_flow::{Dataflow, Delta, NodeId, RowAction, ViewSink};
use hazy_learn::TrainingExample;
use hazy_linalg::FeatureVec;
use hazy_testkit::{
    assert_answers_match, assert_models_bit_identical, assert_stats_match, boundaries, build_plain,
    durable_run, recover, restorer, seed, Op, PrefixOracle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Row = Vec<f64>;

const BASE_OPS: usize = 70;
const CKPT_INTERVAL: u64 = 16;
const JK_SPACE: i64 = 6;
/// Ranked-read depth of the differential probe.
const TOP_K: usize = 5;

/// Lowers a sink action to its WAL-record-sized engine ops (an arriving
/// labeled row is two records: the entity insert, then the training step).
fn lower(action: &RowAction<Row>) -> Vec<Op> {
    match action {
        RowAction::Insert { id, row } => {
            let f = FeatureVec::dense([row[1] as f32, row[2] as f32]);
            let mut ops = vec![Op::Insert(Entity::new(*id, f.clone()))];
            if row[3] != 0.0 {
                let y = if row[3] > 0.0 { 1 } else { -1 };
                ops.push(Op::Update(vec![TrainingExample::new(*id, f, y)]));
            }
            ops
        }
        RowAction::Remove { id } => vec![Op::Remove(*id)],
    }
}

/// The same filter→join→project pipeline the equivalence suite uses:
/// `A = [id, jk, x]` (filtered on `x ≥ 0`) joined against `B = [key, y,
/// label]`, projected to `[id, x, y, label]`.
fn pipeline() -> (Dataflow<Row>, NodeId, NodeId, NodeId) {
    let mut graph: Dataflow<Row> = Dataflow::new();
    let src_a = graph.source();
    let src_b = graph.source();
    let fa = graph.filter(src_a, |r: &Row| r[2] >= 0.0);
    let joined = graph.join(
        fa,
        src_b,
        |r: &Row| Some(r[1] as i64),
        |r: &Row| Some(r[0] as i64),
        |l: &Row, r: &Row| {
            let mut out = l.clone();
            out.extend(r.iter().cloned());
            out
        },
    );
    let proj = graph.map(joined, |r: &Row| vec![r[0], r[2], r[4], r[5]]);
    let sink = graph.sink(&[proj]);
    (graph, src_a, src_b, sink)
}

/// Runs the random base-op script through the pipeline once and returns
/// the flat engine-op stream plus every id that ever appeared.
fn engine_op_stream(seed: u64) -> (Vec<Op>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut graph, src_a, src_b, sink) = pipeline();
    let mut entity_sink = ViewSink::new(|r: &Row| r[0] as u64);
    let mut a: BTreeMap<i64, Row> = BTreeMap::new();
    let mut b: BTreeMap<i64, Row> = BTreeMap::new();
    let mut next_id = 1i64;
    let mut ops = Vec::new();
    let mut ids = Vec::new();
    for _ in 0..BASE_OPS {
        let (side, deltas) = loop {
            match rng.gen_range(0..9) {
                0..=2 => {
                    let id = next_id;
                    next_id += 1;
                    let row = vec![
                        id as f64,
                        rng.gen_range(0..JK_SPACE) as f64,
                        rng.gen_range(-1.0..1.0),
                    ];
                    a.insert(id, row.clone());
                    ids.push(id as u64);
                    break (0, vec![Delta::insert(row)]);
                }
                3 if !a.is_empty() => {
                    let id = *pick(&mut rng, &a);
                    let old = a.remove(&id).unwrap();
                    break (0, vec![Delta::retract(old)]);
                }
                4 if !a.is_empty() => {
                    let id = *pick(&mut rng, &a);
                    let old = a[&id].clone();
                    let mut new = old.clone();
                    new[2] = rng.gen_range(-1.0..1.0);
                    if rng.gen_bool(0.5) {
                        new[1] = rng.gen_range(0..JK_SPACE) as f64;
                    }
                    a.insert(id, new.clone());
                    break (0, vec![Delta::retract(old), Delta::insert(new)]);
                }
                5..=6 if (b.len() as i64) < JK_SPACE => {
                    let key = (0..JK_SPACE).find(|k| !b.contains_key(k)).unwrap();
                    let row = vec![
                        key as f64,
                        rng.gen_range(-1.0..1.0),
                        [-1.0, 0.0, 1.0][rng.gen_range(0..3)],
                    ];
                    b.insert(key, row.clone());
                    break (1, vec![Delta::insert(row)]);
                }
                7 if !b.is_empty() => {
                    let key = *pick(&mut rng, &b);
                    let old = b.remove(&key).unwrap();
                    break (1, vec![Delta::retract(old)]);
                }
                8 if !b.is_empty() => {
                    let key = *pick(&mut rng, &b);
                    let old = b[&key].clone();
                    let mut new = old.clone();
                    new[1] = rng.gen_range(-1.0..1.0);
                    b.insert(key, new.clone());
                    break (1, vec![Delta::retract(old), Delta::insert(new)]);
                }
                _ => {}
            }
        };
        graph.ingest(if side == 0 { src_a } else { src_b }, deltas);
        for (_, d) in graph.drain(sink) {
            if let Some(action) = entity_sink.absorb(&d) {
                ops.extend(lower(&action));
            }
        }
    }
    (ops, ids)
}

/// The kit's configuration over the pipeline's 2-dimensional rows.
fn builder(arch: Architecture, mode: Mode) -> ViewBuilder {
    hazy_testkit::builder(arch, mode).dim(2)
}

fn pick<'m>(rng: &mut StdRng, m: &'m BTreeMap<i64, Row>) -> &'m i64 {
    m.keys().nth(rng.gen_range(0..m.len())).unwrap()
}

fn run_config(arch: Architecture, mode: Mode, shards: usize) {
    let seed = seed();
    let (ops, ids) = engine_op_stream(seed);
    assert!(
        ops.iter().any(|o| matches!(o, Op::Remove(_))),
        "script must exercise retractions (seed {seed})"
    );
    let b = builder(arch, mode);
    // the derived view starts empty: every entity arrives through the join
    let build = || build_plain(&b, shards, Vec::new());
    let ctx_base = format!("{}/{}/shards={shards}/seed={seed}", arch.name(), mode.name());

    let images = durable_run(build(), CKPT_INTERVAL, &ops);
    // `clean` for exact stats/model, `probe` additionally serving the
    // differential reads
    let mut clean = PrefixOracle::new(&ops, build());
    let mut probe = PrefixOracle::new(&ops, build());

    for (boundary, image, durable_ops) in boundaries(&images) {
        assert_eq!(durable_ops, boundary, "{ctx_base}: one WAL record per engine op");
        clean.advance_to(durable_ops);
        probe.advance_to(durable_ops);
        let ctx = format!("{ctx_base}@{boundary}");
        let mut recovered = recover(&b, image, CKPT_INTERVAL, restorer(shards), &ctx);
        assert_stats_match(&recovered.stats(), &clean.view.stats(), shards, &ctx);
        assert_models_bit_identical(recovered.model(), clean.view.model(), &ctx);
        if boundary % 5 == 0 || boundary == images.len() - 1 {
            assert_answers_match(&mut recovered, probe.view.as_mut(), &ids, TOP_K, &ctx);
        } else {
            assert_eq!(
                recovered.entity_count(),
                probe.view.entity_count(),
                "{ctx}: entity_count"
            );
        }
    }
    assert_eq!(clean.applied(), ops.len(), "{ctx_base}: stream fully replayed");
}

macro_rules! crash_matrix {
    ($($name:ident => ($arch:expr, $mode:expr, $shards:expr);)*) => {
        $(
            #[test]
            fn $name() {
                run_config($arch, $mode, $shards);
            }
        )*
    };
}

crash_matrix! {
    derived_hazy_mem_eager_unsharded => (Architecture::HazyMem, Mode::Eager, 1);
    derived_naive_mem_lazy_unsharded => (Architecture::NaiveMem, Mode::Lazy, 1);
    derived_hybrid_lazy_unsharded => (Architecture::Hybrid, Mode::Lazy, 1);
    derived_hazy_disk_eager_unsharded => (Architecture::HazyDisk, Mode::Eager, 1);
    derived_hazy_mem_eager_sharded => (Architecture::HazyMem, Mode::Eager, 3);
}
