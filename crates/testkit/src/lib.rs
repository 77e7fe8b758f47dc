//! Dev-only differential test kit (`publish = false`, never a normal
//! dependency of a product crate): the pieces every "bit-equal to a
//! from-scratch oracle" suite needs, each defined once.
//!
//! * this module — the seeded RNG, the `HAZY_CRASH_SEED` reader and the
//!   corpora (features, the configured [`ViewBuilder`], plain deployments);
//! * [`script`](mod@script) — one superset [`Op`], one [`apply`], one
//!   table-driven [`script()`] whose per-suite differences are a [`Shape`];
//! * [`oracle`] — bit-exact comparisons, [`OracleState`] + [`probe`], and
//!   the incrementally advanced [`PrefixOracle`];
//! * [`crash`] — [`durable_run`] (a crash image after every WAL record) and
//!   the [`boundaries`] walk over those images;
//! * [`minimize`](mod@minimize) — [`check_minimized`]: a failing script is
//!   delta-debugged to the few ops that matter before the suite panics.
//!
//! A suite keeps only what is its own: its `Shape`, its deployment under
//! test and its assertions (see ARCHITECTURE.md, "How the guarantee is
//! tested").

pub mod crash;
pub mod minimize;
pub mod oracle;
pub mod script;

pub use crash::{boundaries, durable, durable_run, recover};
pub use minimize::{check_minimized, literal, minimize};
pub use oracle::{
    assert_answers_match, assert_models_bit_identical, assert_ranked_bit_identical,
    assert_stats_match, probe, OracleState, PrefixOracle,
};
pub use script::{apply, script, Mix, Op, Shape};

use hazy_core::{
    Architecture, CoreRestorer, DurableClassifierView, Entity, Mode, OpOverheads, ViewBuilder,
    ViewRestorer,
};
use hazy_linalg::{FeatureVec, NormPair};
use hazy_serve::{ServeRestorer, ShardedView};

/// The boxed engine type every builder in the workspace hands out.
pub type BoxedView = Box<dyn DurableClassifierView + Send>;

/// SplitMix64: the one RNG behind scripts, corpora and step schedulers, so
/// a failing seed replays identically on every host.
pub fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed CI's matrices set through `HAZY_CRASH_SEED` (default 1).
pub fn seed() -> u64 {
    std::env::var("HAZY_CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// A 3-dimensional feature: byte coordinates mapped onto a 256-step grid
/// in `[-0.5, 0.5]²`, plus a constant bias coordinate.
pub fn grid_feature(a: u8, b: u8) -> FeatureVec {
    FeatureVec::dense(vec![f32::from(a) / 255.0 - 0.5, f32::from(b) / 255.0 - 0.5, 1.0])
}

/// A [`grid_feature`] drawn from the stream `r`.
pub fn feature(r: &mut u64) -> FeatureVec {
    grid_feature((splitmix64(r) % 256) as u8, (splitmix64(r) % 256) as u8)
}

/// Entities `0..n` on a fixed lattice of the grid — the corpus of the
/// proptest suites, whose randomness is the operation stream instead.
pub fn grid_entities(n: usize) -> Vec<Entity> {
    (0..n)
        .map(|k| Entity::new(k as u64, grid_feature((k * 37 % 256) as u8, (k * 91 % 256) as u8)))
        .collect()
}

/// The configuration every suite runs under: Euclidean Hölder pair, free
/// per-statement overheads (costs come from maintenance alone), `dim` 3 to
/// match [`grid_feature`].
pub fn builder(arch: Architecture, mode: Mode) -> ViewBuilder {
    ViewBuilder::new(arch, mode)
        .norm_pair(NormPair::EUCLIDEAN)
        .overheads(OpOverheads::free())
        .dim(3)
}

/// A plain (non-durable) deployment: one view, or `shards` of them behind a
/// [`ShardedView`].
pub fn build_plain(b: &ViewBuilder, shards: usize, entities: Vec<Entity>) -> BoxedView {
    if shards <= 1 {
        b.build(entities, &[])
    } else {
        Box::new(ShardedView::build(b, shards, entities, &[]))
    }
}

/// The restorer that recovers what [`build_plain`] built.
pub fn restorer(shards: usize) -> &'static dyn ViewRestorer {
    if shards <= 1 {
        &CoreRestorer
    } else {
        &ServeRestorer
    }
}
