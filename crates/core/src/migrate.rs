//! Live migration between architectures: per-architecture state extraction
//! and rebuilding, the data-plane half of `hazy-tune`'s online advisor.
//!
//! The paper's experiments (Section 4) show that *no architecture wins
//! everywhere*: eager vs. lazy and main-memory vs. on-disk each dominate
//! under different read/update mixes. A deployment whose workload shifts
//! therefore wants to **switch** architectures online. This module makes the
//! switch a first-class, lossless operation:
//!
//! * [`ClassifierView::export_migration`] — each architecture knows how to
//!   pull its *logical* state out of its physical layout: the entity
//!   population (ids + feature vectors), the trainer (bit-exact, so the
//!   model stream continues unchanged), the Skiing accumulator, and the
//!   lifetime operation counters. The extraction pass is charged to the
//!   virtual clock (a disk-resident view really does pay a sequential scan
//!   to evacuate itself).
//! * [`ViewBuilder::build_migrated`] — rebuilds any target architecture ×
//!   mode from an extracted [`MigrationState`]. The build *is* the target's
//!   initial organization: every tuple is re-keyed and (eager) relabeled
//!   under the carried model, so watermarks collapse to the tight band
//!   around the stored model — the correct post-reorganization watermark
//!   state — and the freshly measured organization cost becomes the new
//!   layout's `S`. The carried Skiing accumulator, counters, and trainer
//!   are then adopted via [`ClassifierView::adopt_migration_carry`].
//!
//! What deliberately does **not** carry over is physical state: page
//! images, index directories, buffer residency, clustering order. Migration
//! is precisely the operation that replaces those.
//!
//! [`ClassifierView::export_migration`]: crate::ClassifierView::export_migration
//! [`ClassifierView::adopt_migration_carry`]: crate::ClassifierView::adopt_migration_carry
//! [`ViewBuilder::build_migrated`]: crate::ViewBuilder::build_migrated

use hazy_learn::SgdTrainer;

use crate::entity::Entity;
use crate::skiing::Skiing;
use crate::stats::ViewStats;

/// The complete logical state extracted from a view for a live migration.
///
/// Everything needed to rebuild the view under a different architecture
/// with **zero retraining and zero wrong answers**: the served answers of
/// the rebuilt view are a pure function of `entities` × the trainer's
/// model, both carried bit-exactly.
#[derive(Clone, Debug)]
pub struct MigrationState {
    /// The entity population: base rows plus every dynamic insert, with
    /// their feature vectors (decoded exactly as stored).
    pub entities: Vec<Entity>,
    /// The trainer, bit-exact — the model `(w, b)`, learning-rate schedule
    /// position, and step count all continue unchanged.
    pub trainer: SgdTrainer,
    /// The carried controller/counter state (see [`MigrationCarry`]).
    pub carry: MigrationCarry,
}

/// The control-plane state a freshly built target view adopts after a
/// migration: the source's Skiing controller (if it had one) and its
/// lifetime operation counters.
#[derive(Clone, Debug)]
pub struct MigrationCarry {
    /// The source's Skiing controller. `None` when the source was a naive
    /// architecture (no reorganization strategy to carry); a hazy target
    /// then starts its controller fresh from the rebuild's measured `S`.
    pub skiing: Option<Skiing>,
    /// The source's lifetime [`ViewStats`] — counters keep accumulating
    /// across the switch, and [`ViewStats::migrations`] is incremented by
    /// the adopting view.
    pub stats: ViewStats,
}
