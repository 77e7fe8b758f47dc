//! Crash-injection differential suite: for every architecture × lazy/eager
//! mode × shard count, run a long random operation script against a durable
//! view, simulate a crash at **every WAL record boundary**, recover, and
//! diff the recovered view against an oracle that executed only the durable
//! prefix of the script.
//!
//! The oracle is a plain (non-durable) view of the identical configuration,
//! advanced incrementally as the crash boundary walks forward — so the
//! whole suite replays the script exactly once per oracle, not once per
//! boundary. Two oracles are kept:
//!
//! * a **clean** oracle that sees only script operations — its
//!   [`ViewStats`] must equal the recovered view's *exactly* (recovery is
//!   bit-identical, down to the Skiing accumulator and reorganization
//!   counts), and
//! * a **probe** oracle that additionally serves the differential reads —
//!   its classify / scan_positive / top_k answers must equal the recovered
//!   view's at every boundary.
//!
//! Sharded configurations assert answers and model bits but not exact
//! stats: shards share one virtual clock, and the fan-out's thread
//! interleaving makes per-shard waste attribution (a cost *measurement*,
//! not an answer) host-dependent.
//!
//! The crash seed is taken from `HAZY_CRASH_SEED` so CI can run a
//! deterministic seed matrix.

use hazy_core::{Architecture, ClassifierView, CoreRestorer, DurableView, Mode};
use hazy_linalg::NormPair;
use hazy_storage::WalReader;
use hazy_testkit::{
    apply, assert_answers_match, assert_models_bit_identical, assert_ranked_bit_identical,
    assert_stats_match, boundaries, build_plain, builder, check_minimized, durable, durable_run,
    recover, restorer, script, seed, Op, PrefixOracle, Shape,
};

/// Auto-checkpoint interval (every boundary replays at most this many ops).
const CKPT_INTERVAL: u64 = 48;
/// Ranked-read depth of the differential probe.
const TOP_K: usize = 7;

const SHAPE: Shape = Shape::CRASH_520;

/// One matrix cell. On a diff the script is delta-debugged under the same
/// walk first, so the failure names the few ops that matter (printed as a
/// pasteable `vec![Op::…]`), not a 520-op script and a seed.
fn run_config(arch: Architecture, mode: Mode, shards: usize) {
    let (ops, population) = script(seed(), &SHAPE);
    check_minimized(&ops, |ops| crash_walk(arch, mode, shards, ops, &population));
}

fn crash_walk(arch: Architecture, mode: Mode, shards: usize, ops: &[Op], population: &[u64]) {
    let b = builder(arch, mode);
    let build = || build_plain(&b, shards, SHAPE.base_entities());
    let ctx_base = format!("{}/{}/shards={shards}/seed={}", arch.name(), mode.name(), seed());

    let images = durable_run(build(), CKPT_INTERVAL, ops);
    let mut clean = PrefixOracle::new(ops, build());
    let mut probe = PrefixOracle::new(ops, build());

    for (boundary, image, durable_ops) in boundaries(&images) {
        // the durable prefix: exactly the ops whose WAL records survived
        assert_eq!(
            durable_ops, boundary,
            "{ctx_base}: boundary {boundary} should have {boundary} durable records"
        );
        clean.advance_to(durable_ops);
        probe.advance_to(durable_ops);
        let ctx = format!("{ctx_base}@{boundary}");
        let mut recovered = recover(&b, image, CKPT_INTERVAL, restorer(shards), &ctx);
        // stats first (before the differential reads mutate them)
        assert_stats_match(&recovered.stats(), &clean.view.stats(), shards, &ctx);
        assert_models_bit_identical(recovered.model(), clean.view.model(), &ctx);
        // probe only a sample of boundaries exhaustively — every boundary
        // still recovers + checks stats/model above; full answer sweeps at
        // every 7th boundary (and the last) keep the suite fast
        if boundary % 7 == 0 || boundary == images.len() - 1 {
            assert_answers_match(&mut recovered, probe.view.as_mut(), population, TOP_K, &ctx);
        } else {
            assert_eq!(
                recovered.count_positive(),
                probe.view.count_positive(),
                "{ctx}: count_positive"
            );
        }
    }
    assert_eq!(clean.applied(), ops.len(), "{ctx_base}: script fully replayed");
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
    naive_mem_eager_unsharded => (Architecture::NaiveMem, Mode::Eager, 1);
    naive_mem_lazy_unsharded => (Architecture::NaiveMem, Mode::Lazy, 1);
    naive_mem_eager_sharded => (Architecture::NaiveMem, Mode::Eager, 3);
    naive_mem_lazy_sharded => (Architecture::NaiveMem, Mode::Lazy, 3);
    hazy_mem_eager_unsharded => (Architecture::HazyMem, Mode::Eager, 1);
    hazy_mem_lazy_unsharded => (Architecture::HazyMem, Mode::Lazy, 1);
    hazy_mem_eager_sharded => (Architecture::HazyMem, Mode::Eager, 3);
    hazy_mem_lazy_sharded => (Architecture::HazyMem, Mode::Lazy, 3);
    naive_disk_eager_unsharded => (Architecture::NaiveDisk, Mode::Eager, 1);
    naive_disk_lazy_unsharded => (Architecture::NaiveDisk, Mode::Lazy, 1);
    naive_disk_eager_sharded => (Architecture::NaiveDisk, Mode::Eager, 3);
    naive_disk_lazy_sharded => (Architecture::NaiveDisk, Mode::Lazy, 3);
    hazy_disk_eager_unsharded => (Architecture::HazyDisk, Mode::Eager, 1);
    hazy_disk_lazy_unsharded => (Architecture::HazyDisk, Mode::Lazy, 1);
    hazy_disk_eager_sharded => (Architecture::HazyDisk, Mode::Eager, 3);
    hazy_disk_lazy_sharded => (Architecture::HazyDisk, Mode::Lazy, 3);
    hybrid_eager_unsharded => (Architecture::Hybrid, Mode::Eager, 1);
    hybrid_lazy_unsharded => (Architecture::Hybrid, Mode::Lazy, 1);
    hybrid_eager_sharded => (Architecture::Hybrid, Mode::Eager, 3);
    hybrid_lazy_sharded => (Architecture::Hybrid, Mode::Lazy, 3);
}

/// A torn WAL tail (power loss mid-fsync) recovers to exactly the durable
/// prefix — the CRC rejects the half-record.
#[test]
fn torn_wal_tail_recovers_to_prefix() {
    let b = builder(Architecture::HazyMem, Mode::Eager);
    let (ops, population) = script(seed(), &SHAPE);
    let mut dv = durable(build_plain(&b, 1, SHAPE.base_entities()), CKPT_INTERVAL);
    dv.store().lock().unwrap().wal.arm_crash(hazy_storage::CrashPoint::TornAfterRecords(90));
    for op in &ops {
        apply(&mut dv, op);
    }
    let image = dv.durable_image();
    assert_eq!(WalReader::new(image.wal_bytes()).count(), 90, "torn record must not parse");
    let mut recovered = recover(&b, &image, CKPT_INTERVAL, &CoreRestorer, "torn tail");
    let mut oracle = PrefixOracle::new(&ops, build_plain(&b, 1, SHAPE.base_entities()));
    oracle.advance_to(90);
    assert_eq!(recovered.stats(), oracle.view.stats());
    assert_models_bit_identical(recovered.model(), oracle.view.model(), "torn tail");
    assert_answers_match(&mut recovered, oracle.view.as_mut(), &population, TOP_K, "torn tail");
}

/// A crash mid-checkpoint leaves the previous checkpoint authoritative and
/// the view recovers through the longer WAL replay — no half-written
/// checkpoint is ever observable.
#[test]
fn torn_checkpoint_recovers_through_previous_slot() {
    let b = builder(Architecture::Hybrid, Mode::Lazy);
    let (ops, population) = script(seed(), &SHAPE);
    // manual checkpointing only
    let mut dv = durable(build_plain(&b, 1, SHAPE.base_entities()), 0);
    for op in &ops[..200] {
        apply(&mut dv, op);
    }
    dv.checkpoint();
    for op in &ops[200..300] {
        apply(&mut dv, op);
    }
    dv.store().lock().unwrap().checkpoints.arm_torn_write();
    dv.checkpoint(); // torn — never lands
    for op in &ops[300..320] {
        apply(&mut dv, op);
    }
    let ctx = "torn checkpoint";
    let mut recovered = recover(&b, &dv.durable_image(), 0, &CoreRestorer, ctx);
    let mut oracle = PrefixOracle::new(&ops, build_plain(&b, 1, SHAPE.base_entities()));
    oracle.advance_to(320);
    assert_eq!(recovered.stats(), oracle.view.stats());
    assert_answers_match(&mut recovered, oracle.view.as_mut(), &population, TOP_K, ctx);
}

/// PR 8, epochs × durability: readers hold epoch pins across a crash at
/// **every WAL record boundary** while a publisher mirrors the durable
/// write stream. For each boundary the recovered view republishes epoch 0
/// from scratch (`published == 1`, `reclaimed == 0` — recovery never
/// resurrects an epoch, because epoch state is deliberately excluded from
/// checkpoints and the WAL), and the *recovered* snapshot must answer
/// bit-identically to the pin that was taken live at that same LSN — the
/// held pins from the pre-crash run are the oracle. The live cell's
/// retired chain then drains completely once the pins drop, proving no
/// recovery ever freed (or double-freed) an epoch it did not own.
#[test]
fn epoch_pins_survive_crash_at_every_wal_boundary() {
    use hazy_core::EpochPublisher;

    let b = builder(Architecture::HazyMem, Mode::Eager);
    let (ops, _population) = script(seed(), &SHAPE);
    let mut dv = durable(build_plain(&b, 1, SHAPE.base_entities()), CKPT_INTERVAL);

    let (entities, model) = dv.snapshot_state().expect("durable views snapshot");
    let mut publisher = EpochPublisher::new(entities, model, NormPair::EUCLIDEAN, 0);
    let cell = publisher.handle();

    let mut images = vec![dv.durable_image()];
    let mut pins = Vec::new();
    let mut pinned_at = Vec::new();
    pins.push(cell.pin());
    pinned_at.push(0u64);
    for (i, op) in ops.iter().enumerate() {
        apply(&mut dv, op);
        match op {
            Op::Update(_) => {
                let m = dv.model().clone();
                publisher.apply_update(&m);
            }
            Op::Insert(e) => publisher.apply_insert(e.clone()),
            Op::Reorg => publisher.apply_reorganize(),
            // reads advance the logical LSN without changing answers
            Op::Read(_) | Op::Count | Op::Members | Op::TopK(_) => publisher.apply_noop(),
            Op::Remove(_) | Op::SetArch(..) => unreachable!("not in this suite's mix"),
        }
        images.push(dv.durable_image());
        if (i + 1).is_multiple_of(13) {
            // a reader pins here and holds across every later write,
            // checkpoint, crash and recovery below
            pins.push(cell.pin());
            pinned_at.push((i + 1) as u64);
        }
    }
    assert_eq!(publisher.lsn(), ops.len() as u64, "one publication per logical statement");

    // crash at every boundary that has a held pin: the recovered view's
    // fresh epoch must agree with the live pin taken at that LSN
    for (pin, &lsn) in pins.iter().zip(pinned_at.iter()) {
        let image = &images[lsn as usize];
        let mut recovered =
            recover(&b, image, CKPT_INTERVAL, &CoreRestorer, &format!("boundary {lsn}"));
        let (entities, model) = recovered.snapshot_state().expect("recovered view snapshots");
        let fresh = EpochPublisher::new(entities, model, NormPair::EUCLIDEAN, lsn);
        let fcell = fresh.handle();
        let es = fcell.stats();
        assert_eq!(es.published, 1, "boundary {lsn}: recovery must not resurrect epochs");
        assert_eq!(es.reclaimed, 0, "boundary {lsn}: recovery must not reclaim epochs");
        let fpin = fcell.pin();
        assert_eq!(fpin.lsn(), pin.lsn(), "boundary {lsn}: LSN");
        assert_eq!(fpin.count_positive(), pin.count_positive(), "boundary {lsn}: count");
        assert_eq!(fpin.positive_ids(), pin.positive_ids(), "boundary {lsn}: members");
        let ctx = format!("boundary {lsn}");
        assert_ranked_bit_identical(&fpin.top_k(TOP_K), &pin.top_k(TOP_K), &ctx);
        assert_models_bit_identical(fpin.model(), pin.model(), &ctx);
    }

    // durable ViewStats never carry epoch counters: a recovered view's
    // ephemeral counters restart from its own fresh publications
    let recovered: DurableView =
        recover(&b, images.last().unwrap(), CKPT_INTERVAL, &CoreRestorer, "final image");
    assert_eq!(recovered.stats().epochs_published, 0, "epoch counters must not be durable");
    assert_eq!(recovered.stats().epoch_pins, 0, "pin counters must not be durable");

    // and the live cell drains exactly once the pins drop
    drop(pins);
    let es = cell.stats();
    assert_eq!(es.retired_live, 0, "retired chain drained after pins dropped");
    assert_eq!(es.reclaimed + 1, es.published, "exactly the current epoch survives");
}
