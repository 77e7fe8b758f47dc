//! Migration equivalence: migrating an adaptive view at an arbitrary point
//! of a random operation script must be **observationally invisible**. For
//! every source→target architecture pair (all 25, eager and lazy), the
//! migrated view's `classify` / `scan_positive` / `top_k` answers and its
//! model bits must match a never-migrated oracle of the *target*
//! architecture fed the exact same operations from the start.
//!
//! Why this is the right oracle: classification answers are a pure function
//! of (entities, model), and the model is a pure function of the example
//! stream — migration carries the trainer bit-exactly and rebuilds only
//! physical layout, so a correct migration leaves no trace the oracle could
//! disagree with.

use hazy_core::{Architecture, ClassifierView, Mode};
use hazy_testkit::{
    apply, assert_answers_match, assert_models_bit_identical, builder, script, seed, Mix, Shape,
};
use hazy_tune::{AdaptiveView, AdvisorConfig};

const SCRIPT_OPS: usize = 160;

const SHAPE: Shape = Shape {
    salt: 0x00AD_0A57_0000_0001,
    corpus: 0x7E57_0001,
    ops: SCRIPT_OPS,
    population: 60,
    first_fresh_id: 10_000,
    mix: Mix { update: 45, insert: 8, remove: 0, read: 25, count: 8, members: 7, top_k: 5 },
    top_k_mod: 9,
    pinned: Vec::new(),
};

fn adaptive(arch: Architecture, mode: Mode, cfg: AdvisorConfig) -> AdaptiveView {
    AdaptiveView::build(&builder(arch, mode), cfg, SHAPE.base_entities(), &[])
}

fn assert_same_answers(
    migrated: &mut dyn ClassifierView,
    oracle: &mut dyn ClassifierView,
    population: &[u64],
    ctx: &str,
) {
    // model bits first: the strongest claim (no retraining, no drift)
    assert_models_bit_identical(migrated.model(), oracle.model(), ctx);
    assert_answers_match(migrated, oracle, population, 9, ctx);
}

fn run_pair(src: Architecture, dst: Architecture, mode: Mode) {
    let seed = seed();
    let (ops, population) = script(seed, &SHAPE);
    // migration point: somewhere strictly inside the script, seed-dependent
    let p = 20 + (seed as usize * 37) % (SCRIPT_OPS - 40);
    let ctx = format!("{}→{}/{}/seed={seed}@{p}", src.name(), dst.name(), mode.name());

    // the subject: an adaptive view starting as `src`, manual advisor (the
    // test controls the single migration; advisor-chosen migrations get
    // their own coverage in `advisor_migrations_preserve_answers`)
    let mut adaptive = adaptive(src, mode, AdvisorConfig::manual());
    // the oracle: a never-migrated plain view of the *target* architecture
    let mut oracle = builder(dst, mode).build(SHAPE.base_entities(), &[]);

    for op in &ops[..p] {
        apply(&mut adaptive, op);
        apply(oracle.as_mut(), op);
    }
    assert!(adaptive.set_architecture(dst, mode), "{ctx}: migration refused");
    assert_eq!(adaptive.architecture(), dst, "{ctx}: architecture after migration");
    assert_same_answers(&mut adaptive, oracle.as_mut(), &population, &format!("{ctx}/at-switch"));
    for op in &ops[p..] {
        apply(&mut adaptive, op);
        apply(oracle.as_mut(), op);
    }
    assert_same_answers(&mut adaptive, oracle.as_mut(), &population, &format!("{ctx}/end"));
    if src != dst {
        assert_eq!(adaptive.stats().migrations, 1, "{ctx}: exactly one migration");
        assert_eq!(adaptive.migration_log().len(), 1, "{ctx}: one logged event");
        assert!(!adaptive.migration_log()[0].auto, "{ctx}: manual event");
    }
}

macro_rules! pair_matrix {
    ($($name:ident => ($src:expr, $dst:expr);)*) => {
        $(
            mod $name {
                use super::*;
                #[test]
                fn eager() {
                    run_pair($src, $dst, Mode::Eager);
                }
                #[test]
                fn lazy() {
                    run_pair($src, $dst, Mode::Lazy);
                }
            }
        )*
    };
}

use Architecture::{HazyDisk, HazyMem, Hybrid, NaiveDisk, NaiveMem};

pair_matrix! {
    naive_mem_to_naive_mem => (NaiveMem, NaiveMem);
    naive_mem_to_hazy_mem => (NaiveMem, HazyMem);
    naive_mem_to_naive_disk => (NaiveMem, NaiveDisk);
    naive_mem_to_hazy_disk => (NaiveMem, HazyDisk);
    naive_mem_to_hybrid => (NaiveMem, Hybrid);
    hazy_mem_to_naive_mem => (HazyMem, NaiveMem);
    hazy_mem_to_hazy_mem => (HazyMem, HazyMem);
    hazy_mem_to_naive_disk => (HazyMem, NaiveDisk);
    hazy_mem_to_hazy_disk => (HazyMem, HazyDisk);
    hazy_mem_to_hybrid => (HazyMem, Hybrid);
    naive_disk_to_naive_mem => (NaiveDisk, NaiveMem);
    naive_disk_to_hazy_mem => (NaiveDisk, HazyMem);
    naive_disk_to_naive_disk => (NaiveDisk, NaiveDisk);
    naive_disk_to_hazy_disk => (NaiveDisk, HazyDisk);
    naive_disk_to_hybrid => (NaiveDisk, Hybrid);
    hazy_disk_to_naive_mem => (HazyDisk, NaiveMem);
    hazy_disk_to_hazy_mem => (HazyDisk, HazyMem);
    hazy_disk_to_naive_disk => (HazyDisk, NaiveDisk);
    hazy_disk_to_hazy_disk => (HazyDisk, HazyDisk);
    hazy_disk_to_hybrid => (HazyDisk, Hybrid);
    hybrid_to_naive_mem => (Hybrid, NaiveMem);
    hybrid_to_hazy_mem => (Hybrid, HazyMem);
    hybrid_to_naive_disk => (Hybrid, NaiveDisk);
    hybrid_to_hazy_disk => (Hybrid, HazyDisk);
    hybrid_to_hybrid => (Hybrid, Hybrid);
}

/// A cross-mode migration (eager→lazy and lazy→eager) is equally
/// invisible: the oracle runs the target mode from the start.
#[test]
fn cross_mode_migrations_match_target_mode_oracle() {
    for (src_mode, dst_mode) in [(Mode::Eager, Mode::Lazy), (Mode::Lazy, Mode::Eager)] {
        let (ops, population) = script(seed(), &SHAPE);
        let p = SCRIPT_OPS / 2;
        let mut adaptive = adaptive(HazyMem, src_mode, AdvisorConfig::manual());
        let mut oracle = builder(HazyDisk, dst_mode).build(SHAPE.base_entities(), &[]);
        for op in &ops[..p] {
            apply(&mut adaptive, op);
            apply(oracle.as_mut(), op);
        }
        assert!(adaptive.set_architecture(HazyDisk, dst_mode));
        for op in &ops[p..] {
            apply(&mut adaptive, op);
            apply(oracle.as_mut(), op);
        }
        let ctx = format!("{:?}→{:?}", src_mode, dst_mode);
        assert_same_answers(&mut adaptive, oracle.as_mut(), &population, &ctx);
    }
}

/// Lifetime counters survive a hazy → naive → hazy round trip: the naive
/// stop has no Skiing controller to carry, but the reorganization history
/// must not be erased by the second hop.
#[test]
fn reorg_history_survives_a_naive_stopover() {
    let (ops, _) = script(seed(), &SHAPE);
    let mut adaptive = adaptive(HazyMem, Mode::Eager, AdvisorConfig::manual());
    for op in &ops {
        apply(&mut adaptive, op);
    }
    let before = adaptive.stats();
    assert!(before.reorgs > 0, "script must have reorganized at least once");
    assert!(adaptive.set_architecture(NaiveMem, Mode::Eager));
    assert_eq!(adaptive.stats().reorgs, before.reorgs, "naive hop keeps the count");
    assert!(adaptive.set_architecture(HazyDisk, Mode::Eager));
    // the second hop's rebuild is itself one reorganization of the new
    // layout, on top of the carried lifetime history
    assert_eq!(adaptive.stats().reorgs, before.reorgs + 1, "history survives the return");
    assert_eq!(adaptive.stats().migrations, 2);
}

/// With the advisor live (auto migrations at its own chosen rounds), the
/// served answers still always match a ground-truth oracle — wrong answers
/// during or after *any* migration would surface here.
#[test]
fn advisor_migrations_preserve_answers() {
    let (ops, population) = script(seed(), &SHAPE);
    let cfg = AdvisorConfig { window: 16, switch_factor: 0.5, min_dwell: 1 };
    let mut adaptive = adaptive(HazyMem, Mode::Eager, cfg);
    // oracle of the *starting* configuration: answers are architecture-
    // independent, so it stays valid no matter where the advisor goes
    let mut oracle = builder(HazyMem, Mode::Eager).build(SHAPE.base_entities(), &[]);
    for (i, op) in ops.iter().enumerate() {
        apply(&mut adaptive, op);
        apply(oracle.as_mut(), op);
        if i % 40 == 0 {
            assert_eq!(
                adaptive.count_positive(),
                oracle.count_positive(),
                "count at op {i} (arch {:?})",
                adaptive.architecture()
            );
            oracle.reorganize();
            adaptive.reorganize();
        }
    }
    assert_same_answers(&mut adaptive, oracle.as_mut(), &population, "advisor-live");
    for e in adaptive.migration_log() {
        assert!(e.auto, "only advisor migrations ran");
        assert!(e.pause_ns > 0, "migration pause is charged to the clock");
    }
}
