//! Where the tuples live: the physical half of an architecture.
//!
//! The paper describes one maintenance algorithm and then says the
//! main-memory design is "the same machinery" over an in-memory structure
//! (Section 3.5.1). This module is that seam. A [`Store`] holds the tuples
//! of `H(id, f, eps)` + label in some physical format and charges the
//! virtual clock for what *its* format costs — page pins, index probes,
//! the binary search of a sorted vector. It makes no decision the paper
//! makes: when to reorganize, which tuples a model round can have flipped,
//! what a lazy read may skip — those belong to the strategies
//! ([`HazyView`](crate::hazy::HazyView), [`NaiveView`](crate::naive::NaiveView)),
//! which are written once over any store.
//!
//! Two implementations: [`MemStore`](crate::mem_store::MemStore) (an
//! ε-sorted `Vec` plus id map) and [`DiskStore`](crate::disk_store::DiskStore)
//! (clustered heap + B+-tree + hash index over the buffer pool). The store
//! is always a generic parameter, never a trait object, so every visitor
//! below is monomorphized over the store's own row type — the on-disk path
//! classifies straight off pinned page bytes.

use std::cmp::Ordering;

use hazy_learn::{sign, Label, LinearModel};
use hazy_storage::VirtualClock;

use crate::entity::{Entity, HTuple};
use crate::stats::ViewStats;
use crate::view::Architecture;

/// One stored tuple as a visitor sees it: the fixed `(id, label, eps)`
/// prefix, plus classification off whatever representation the store keeps
/// the feature vector in.
pub trait Row {
    /// Entity key.
    fn id(&self) -> u64;
    /// Materialized label.
    fn label(&self) -> Label;
    /// Margin under the stored model — the cluster key.
    fn eps(&self) -> f64;
    /// Margin under `model`, charged to `clock` as one classification.
    fn margin(&self, model: &LinearModel, clock: &VirtualClock) -> f64;
    /// Label under `model`, charged to `clock` as one classification.
    fn predict(&self, model: &LinearModel, clock: &VirtualClock) -> Label {
        sign(self.margin(model, clock))
    }
}

/// The clustering order: eps descending, ids breaking ties.
pub(crate) fn tuple_cmp(a: &HTuple, b: &HTuple) -> Ordering {
    b.eps.total_cmp(&a.eps).then(a.id.cmp(&b.id))
}

/// `a` may precede `b` under [`tuple_cmp`] (the merge predicate).
pub(crate) fn tuple_le(a: &HTuple, b: &HTuple) -> bool {
    tuple_cmp(a, b) != Ordering::Greater
}

/// Eager maintenance of one visited tuple, shared by both strategies:
/// reclassify under `model`, count it, and report the new label when it
/// flipped (the store patches it in place).
pub(crate) fn relabel<R: Row>(
    row: &R,
    model: &LinearModel,
    clock: &VirtualClock,
    stats: &mut ViewStats,
) -> Option<Label> {
    let l = row.predict(model, clock);
    stats.tuples_reclassified += 1;
    stats.tuples_examined += 1;
    (l != row.label()).then(|| {
        stats.labels_changed += 1;
        l
    })
}

/// A physical home for the tuples of one view. Every method charges the
/// clock for its own physical work and for nothing else.
///
/// A store is either **clustered** (the Hazy strategy: an ε-sorted run
/// followed by an unsorted tail of entities appended since the last
/// [`rewrite`](Store::rewrite)) or not (the naive strategy: insertion
/// order, id lookup only). The clustered-only methods say so.
pub trait Store: Sized {
    /// What the store is built over: the clock (main memory) or the buffer
    /// pool (disk).
    type Medium;
    /// How visitors see one tuple.
    type Row<'a>: Row
    where
        Self: 'a;
    /// Position of a located tuple.
    type Loc: Copy;

    /// The architecture the naive strategy over this store is.
    const NAIVE: Architecture;
    /// The architecture the Hazy strategy over this store is.
    const HAZY: Architecture;

    /// The clock a store over `medium` will charge.
    fn clock_of(medium: &Self::Medium) -> &VirtualClock;

    /// Loads the initial population. Unclustered: indexed by id, ready to
    /// serve. Clustered: staged as one unsorted tail — the strategy's
    /// initial organization rewrites it.
    fn load(
        medium: Self::Medium,
        tuples: impl ExactSizeIterator<Item = HTuple>,
        clustered: bool,
    ) -> Self;

    /// The clock this store charges.
    fn clock(&self) -> &VirtualClock;

    /// Live tuples.
    fn len(&self) -> u64;

    /// Appends one tuple (to the tail, when clustered) and indexes it; the
    /// tuple of a live id is replaced. A fresh id pays no probe for that:
    /// the collision is reported by the index insert every append makes.
    fn append(&mut self, t: HTuple);

    /// Removes entity `id`; `false` when unknown.
    fn delete(&mut self, id: u64) -> bool;

    /// Finds entity `id`.
    fn locate(&mut self, id: u64) -> Option<Self::Loc>;

    /// Reads the tuple at `loc` through `f` (on disk: one page pin).
    fn with_row<R>(&mut self, loc: Self::Loc, f: impl FnOnce(&Self::Row<'_>) -> R) -> Option<R>;

    /// Visits every tuple in physical order.
    fn scan_all(&mut self, visit: impl FnMut(&Self::Row<'_>));

    /// Visits every tuple in physical order, patching in the label the
    /// visitor returns (the naive eager relabel).
    fn relabel_all(&mut self, visit: impl FnMut(&Self::Row<'_>) -> Option<Label>);

    /// Copies the population out (migration, epoch snapshots).
    fn evacuate(&mut self) -> Vec<Entity>;

    /// Bytes of entity data resident in memory.
    fn footprint(&self) -> usize;

    /// Serializes the physical image (checkpoint path; a pure read).
    fn save_image(&self, out: &mut Vec<u8>);

    /// Inverse of [`save_image`](Store::save_image); `None` on malformed
    /// input.
    fn restore_image(b: &mut &[u8], clock: VirtualClock, clustered: bool) -> Option<Self>;

    /// Clustered: tuples were appended since the last rewrite.
    fn has_tail(&self) -> bool;

    /// Clustered: visits the sorted run in descending `eps` order down to
    /// `lw` (everything below is certainly negative), then the whole tail.
    fn scan_members(&mut self, lw: f64, visit: impl FnMut(&Self::Row<'_>));

    /// Clustered: visits the tuples with `eps ∈ [lw, hw]` — sorted run and
    /// tail — patching in the label the visitor returns.
    fn band_walk(&mut self, lw: f64, hw: f64, visit: impl FnMut(&Self::Row<'_>) -> Option<Label>);

    /// Clustered: how many tuples have `eps ∈ [lw, hw]` (experiment hook).
    fn band_len(&mut self, lw: f64, hw: f64) -> u64;

    /// Clustered: hands every tuple out in physical order, together with
    /// the length of the sorted run they start with.
    fn take_all(&mut self) -> (Vec<HTuple>, usize);

    /// Clustered: replaces the contents with `tuples`, which the caller
    /// has put in clustering order, and rebuilds the indexes.
    fn rewrite(&mut self, tuples: Vec<HTuple>);
}
