//! Crash-injection differential suite for **live migrations** — the
//! migration extension of `hazy-core`'s `crash_recovery.rs` archetype.
//!
//! A random operation script with explicit `SET ARCH` statements (and, in
//! one configuration, a live advisor ordering its own migrations) runs
//! against a durable adaptive view; a crash image is captured at **every
//! WAL record boundary**, including the boundaries immediately before and
//! after each migration redo record — the only boundaries that exist
//! "inside" a migration, because a migration is logged as a single logical
//! redo record and applied atomically in memory. Recovery from every image
//! must land in **exactly one of {source architecture, target
//! architecture}** — source when the record is not yet durable, target
//! when it is — with bit-identical stats and model, and correct answers.
//!
//! Advisor-ordered migrations have no record of their own: the advisor is
//! a deterministic function of the logged operation stream, so replay
//! re-makes the same decisions. The differential against an uncrashed
//! oracle proves exactly that.
//!
//! The crash seed comes from `HAZY_CRASH_SEED` (CI runs a seed matrix).

use hazy_core::{Architecture, ClassifierView, Mode, ViewBuilder};
use hazy_testkit::{
    apply, assert_answers_match, assert_models_bit_identical, boundaries, builder, durable,
    durable_run, recover, script, seed, Mix, Op, PrefixOracle, Shape,
};
use hazy_tune::{AdaptiveView, AdvisorConfig, TuneRestorer};

const SCRIPT_OPS: usize = 220;
const CKPT_INTERVAL: u64 = 32;
/// Ranked-read depth of the differential probe.
const TOP_K: usize = 5;

/// A script with two explicit migrations: src→dst at one third, dst→src at
/// two thirds, so crash boundaries bracket records of both directions.
fn shape(src: (Architecture, Mode), dst: (Architecture, Mode)) -> Shape {
    Shape {
        salt: 0x0C4A_5147_0000_0001,
        corpus: 0x00E1_7A22,
        ops: SCRIPT_OPS,
        population: 48,
        first_fresh_id: 20_000,
        mix: Mix { update: 45, insert: 8, remove: 0, read: 27, count: 8, members: 7, top_k: 5 },
        top_k_mod: 7,
        pinned: vec![
            (SCRIPT_OPS / 3, Op::SetArch(dst.0, dst.1)),
            (2 * SCRIPT_OPS / 3, Op::SetArch(src.0, src.1)),
        ],
    }
}

fn adaptive(b: &ViewBuilder, shape: &Shape, cfg: AdvisorConfig) -> Box<AdaptiveView> {
    Box::new(AdaptiveView::build(b, cfg, shape.base_entities(), &[]))
}

/// The full differential walk for one (source, target, advisor) config.
fn run_config(src: (Architecture, Mode), dst: (Architecture, Mode), cfg: AdvisorConfig) {
    let seed = seed();
    let shape = shape(src, dst);
    let (ops, population) = script(seed, &shape);
    // answers are swept on every third id
    let sample: Vec<u64> = population.iter().copied().step_by(3).collect();
    let b = builder(src.0, src.1);
    let ctx_base = format!(
        "{}/{}→{}/{}/auto={}/seed={seed}",
        src.0.name(),
        src.1.name(),
        dst.0.name(),
        dst.1.name(),
        cfg.window > 0
    );

    let images = durable_run(adaptive(&b, &shape, cfg), CKPT_INTERVAL, &ops);
    let mut clean = PrefixOracle::new(&ops, adaptive(&b, &shape, cfg));
    let mut probe = PrefixOracle::new(&ops, adaptive(&b, &shape, cfg));
    let valid = [
        format!("durable adaptive {} ({})", src.0.name(), src.1.name()),
        format!("durable adaptive {} ({})", dst.0.name(), dst.1.name()),
    ];

    for (boundary, image, durable_ops) in boundaries(&images) {
        assert_eq!(durable_ops, boundary, "{ctx_base}: one WAL record per op");
        clean.advance_to(durable_ops);
        probe.advance_to(durable_ops);
        let ctx = format!("{ctx_base}@{boundary}");
        let mut recovered = recover(&b, image, CKPT_INTERVAL, &TuneRestorer, &ctx);
        // 1. the acceptance property: recovery lands in exactly one of
        //    {source arch, target arch} — and, stronger, in precisely the
        //    configuration the uncrashed oracle is in at this boundary
        let desc = recovered.describe();
        if cfg.window == 0 {
            assert!(
                valid.contains(&desc),
                "{ctx}: recovered into {desc:?}, not source or target"
            );
        }
        assert_eq!(desc, format!("durable {}", clean.view.describe()), "{ctx}: architecture");
        // 2. bit-identical control state
        assert_eq!(recovered.stats(), clean.view.stats(), "{ctx}: ViewStats diverged");
        assert_models_bit_identical(recovered.model(), clean.view.model(), &ctx);
        // 3. answers (full sweep on a sample of boundaries, always at the
        //    boundaries adjacent to the two migration records)
        let near_migration = (boundary as i64 - (SCRIPT_OPS as i64 / 3 + 1)).abs() <= 1
            || (boundary as i64 - (2 * SCRIPT_OPS as i64 / 3 + 1)).abs() <= 1;
        if near_migration || boundary % 13 == 0 || boundary == images.len() - 1 {
            assert_answers_match(&mut recovered, probe.view.as_mut(), &sample, TOP_K, &ctx);
        }
    }
    assert_eq!(clean.applied(), ops.len(), "{ctx_base}: script fully replayed");
}

macro_rules! migration_crash_matrix {
    ($($name:ident => ($src:expr, $dst:expr);)*) => {
        $(
            #[test]
            fn $name() {
                run_config($src, $dst, AdvisorConfig::manual());
            }
        )*
    };
}

use Architecture::{HazyDisk, HazyMem, Hybrid, NaiveDisk, NaiveMem};

migration_crash_matrix! {
    mem_to_disk_eager => ((HazyMem, Mode::Eager), (HazyDisk, Mode::Eager));
    disk_to_mem_lazy => ((HazyDisk, Mode::Lazy), (HazyMem, Mode::Lazy));
    naive_to_hazy_cross_mode => ((NaiveMem, Mode::Eager), (HazyMem, Mode::Lazy));
    hazy_to_naive_disk => ((HazyMem, Mode::Eager), (NaiveDisk, Mode::Eager));
    hybrid_round_trip_lazy => ((Hybrid, Mode::Lazy), (HazyMem, Mode::Lazy));
    disk_to_hybrid_eager => ((NaiveDisk, Mode::Eager), (Hybrid, Mode::Eager));
}

/// With the advisor live, migrations happen at rounds the test does not
/// choose — and recovery must still replay them identically (the advisor
/// is deterministic over the logged stream).
#[test]
fn advisor_ordered_migrations_recover_deterministically() {
    run_config(
        (HazyMem, Mode::Eager),
        (NaiveMem, Mode::Lazy),
        AdvisorConfig { window: 16, switch_factor: 0.5, min_dwell: 1 },
    )
}

/// A lost WAL tail that swallows the migration record recovers to the
/// source architecture and can immediately migrate again.
#[test]
fn lost_migration_record_recovers_to_source_and_can_retry() {
    let b = builder(HazyMem, Mode::Eager);
    let shape = shape((HazyMem, Mode::Eager), (NaiveDisk, Mode::Lazy));
    let (ops, population) = script(seed(), &shape);
    let sample: Vec<u64> = population.iter().copied().step_by(3).collect();
    let mut dv = durable(adaptive(&b, &shape, AdvisorConfig::manual()), CKPT_INTERVAL);
    let migrate_at = SCRIPT_OPS / 3; // the SetArch op's position
    // everything after the record preceding the migration is lost
    dv.store()
        .lock()
        .unwrap()
        .wal
        .arm_crash(hazy_storage::CrashPoint::AfterRecords(migrate_at as u64));
    for op in &ops {
        apply(&mut dv, op);
    }
    let mut recovered =
        recover(&b, &dv.durable_image(), CKPT_INTERVAL, &TuneRestorer, "lost migration record");
    assert_eq!(
        recovered.describe(),
        "durable adaptive hazy-mm (eager)",
        "swallowed migration record ⇒ source architecture"
    );
    assert_eq!(recovered.stats().migrations, 0);
    // the migration can simply be re-issued — and this time it sticks
    assert!(recovered.set_architecture(NaiveDisk, Mode::Lazy));
    assert_eq!(recovered.describe(), "durable adaptive naive-od (lazy)");
    let mut oracle = PrefixOracle::new(&ops, adaptive(&b, &shape, AdvisorConfig::manual()));
    oracle.advance_to(migrate_at);
    assert!(oracle.view.set_architecture(NaiveDisk, Mode::Lazy));
    assert_answers_match(&mut recovered, oracle.view.as_mut(), &sample, TOP_K, "post-retry");
}
