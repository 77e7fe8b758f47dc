//! Durability for classification views: logical WAL + whole-view
//! checkpoints + crash recovery.
//!
//! The paper's core claim is that a classification view living *inside* an
//! RDBMS inherits the database's machinery — and nothing is more database
//! than surviving a crash. This module gives every architecture that
//! inheritance:
//!
//! * **The [`Durable`] trait** — implemented by all five architectures (and
//!   `hazy-serve`'s `ShardedView`): serialize the *complete* view state —
//!   simulated-disk page image, heap/slotted and index directories, buffer
//!   pool frame table, model, watermarks, Skiing accumulator, pending tail
//!   markers, operation counters — bit-exactly, such that
//!   [`ViewBuilder::restore_unsharded`] yields a view indistinguishable
//!   from the serialized one.
//! * **The [`DurableView`] wrapper** — write-ahead logs every operation as
//!   a *logical redo record* (the command-logging design: because a
//!   classification view is a deterministic state machine over its
//!   operation stream — the very purity the paper exploits when it calls
//!   main memory "safe" — replaying the log reproduces the state
//!   bit-for-bit), fsyncs at each statement boundary (charged to the
//!   [`VirtualClock`]), and checkpoints the whole view every N operations
//!   into double-buffered slots.
//!
//!   Reads are logged too, which looks odd until you remember that in this
//!   engine *reads do maintenance*: a lazy All-Members scan may trigger the
//!   postponed Skiing reorganization, and every lazy read folds watermark
//!   state. A recovered view must reproduce those side effects to land in
//!   the same physical state (same future reorganization rounds, same
//!   counters) as a view that never crashed.
//! * **[`DurableView::recover`]** — loads the newest valid checkpoint
//!   (torn checkpoint writes fail their CRC and fall back to the previous
//!   slot), replays the WAL suffix through the normal execution paths, and
//!   charges the whole replay to the virtual clock. The recovered view
//!   serves the same `classify` / `scan` / `top_k` answers *and* the same
//!   [`ViewStats`](crate::ViewStats) as one that executed the durable
//!   prefix without crashing — enforced at every WAL record boundary by
//!   `tests/crash_recovery.rs`.

use std::sync::{Arc, Mutex};

use hazy_learn::{StepInfo, TrainingExample};
use hazy_linalg::{decode_fvec, encode_fvec, wire};
use hazy_storage::{
    charge_bulk_read, DurableImage, DurableStore, StorageError, VirtualClock, WalEnd, WalReader,
};

use crate::entity::Entity;
use crate::view::{ClassifierView, ViewBuilder};

/// A view whose complete state can be serialized for checkpointing.
///
/// The contract is *bit-identity*: restoring the serialized bytes (via
/// [`ViewBuilder::restore_unsharded`] or a sharded restorer) must yield a
/// view that serves identical answers, identical statistics, and — because
/// every cost-relevant structure (buffer pool residency, disk free lists,
/// access cursors, Skiing floats) round-trips exactly — makes identical
/// future maintenance decisions.
///
/// `save_state` takes `&self` on purpose: checkpointing must be a pure
/// observation. Flushing caches or folding watermarks here would make the
/// checkpointed deployment diverge from an identical deployment that never
/// checkpointed.
pub trait Durable {
    /// Appends the complete serialized state (tag byte first) to `out`.
    fn save_state(&self, out: &mut Vec<u8>);
}

/// Object-safe union of [`ClassifierView`] and [`Durable`] — the boxed
/// engine type [`ViewBuilder::build`] hands out.
pub trait DurableClassifierView: ClassifierView + Durable {}

impl<T: ClassifierView + Durable> DurableClassifierView for T {}

/// Checkpoint-blob tag identifying a sharded view. Core's restorer rejects
/// it; `hazy-serve` layers a restorer that recognizes it and restores the
/// shards (each an ordinary architecture blob) around it.
pub const SHARDED_VIEW_TAG: u8 = 16;

/// Architecture tags leading every checkpoint blob.
pub(crate) mod tag {
    /// Naive main-memory view.
    pub const NAIVE_MEM: u8 = 1;
    /// Hazy main-memory view.
    pub const HAZY_MEM: u8 = 2;
    /// Naive on-disk view.
    pub const NAIVE_DISK: u8 = 3;
    /// Hazy on-disk view.
    pub const HAZY_DISK: u8 = 4;
    /// Hybrid view.
    pub const HYBRID: u8 = 5;
}

/// WAL record kinds logged by [`DurableView`].
mod rec {
    /// `Update` statement: a batch of training examples.
    pub const UPDATE: u8 = 1;
    /// A new entity arrives (type-(1) dynamic data).
    pub const INSERT: u8 = 2;
    /// Forced reorganization (`VACUUM`-style maintenance statement).
    pub const REORG: u8 = 3;
    /// `Single Entity` read (logged because lazy reads do maintenance).
    pub const READ: u8 = 4;
    /// `All Members` count.
    pub const COUNT: u8 = 5;
    /// `All Members` id listing.
    pub const MEMBERS: u8 = 6;
    /// Ranked read.
    pub const TOPK: u8 = 7;
    /// Live migration to another architecture × mode (an explicit
    /// `ALTER ... SET ARCH`, logged as one **logical redo record**: replay
    /// re-runs the whole extraction + rebuild deterministically, so a crash
    /// can only ever land *before* the record — source architecture — or
    /// *after* it — target architecture, never in between). Advisor-chosen
    /// migrations need no record of their own: the advisor is a
    /// deterministic function of the logged operation stream, so replaying
    /// the stream re-makes the same decisions at the same rounds.
    pub const MIGRATE: u8 = 8;
    /// Entity retraction (a base-table `DELETE`, or the retract half of an
    /// `UPDATE`, propagated through a dataflow graph). Replay is idempotent
    /// because removing an absent id is a no-op.
    pub const REMOVE: u8 = 9;
}

pub(crate) fn put_example(out: &mut Vec<u8>, ex: &TrainingExample) {
    out.extend_from_slice(&ex.id.to_le_bytes());
    out.push(ex.y as u8);
    encode_fvec(&ex.f, out);
}

pub(crate) fn take_example(b: &mut &[u8]) -> Option<TrainingExample> {
    let id = wire::take_u64(b)?;
    let y = wire::take_u8(b)? as i8;
    if y != 1 && y != -1 {
        return None;
    }
    let f = decode_fvec(b)?;
    Some(TrainingExample { id, f, y })
}

pub(crate) fn put_entity(out: &mut Vec<u8>, e: &Entity) {
    out.extend_from_slice(&e.id.to_le_bytes());
    encode_fvec(&e.f, out);
}

pub(crate) fn take_entity(b: &mut &[u8]) -> Option<Entity> {
    let id = wire::take_u64(b)?;
    let f = decode_fvec(b)?;
    Some(Entity { id, f })
}

/// Reconstructs a boxed view from a checkpoint blob. `hazy-core`'s
/// [`CoreRestorer`] handles the five unsharded architectures; `hazy-serve`
/// layers a restorer on top that additionally recognizes sharded blobs.
pub trait ViewRestorer: Sync {
    /// Restores a view from `bytes` (tag byte first), charging to `clock`.
    /// `None` on unknown tags or malformed input.
    fn restore(
        &self,
        builder: &ViewBuilder,
        bytes: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<Box<dyn DurableClassifierView + Send>>;
}

/// Restorer for the five unsharded architectures.
pub struct CoreRestorer;

impl ViewRestorer for CoreRestorer {
    fn restore(
        &self,
        builder: &ViewBuilder,
        bytes: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<Box<dyn DurableClassifierView + Send>> {
        builder.restore_unsharded(bytes, clock)
    }
}

/// What a replayed record did to the view's answers — what a
/// [`PublishedView`](crate::PublishedView) folds into its epoch stream
/// after the engine has applied the record.
pub(crate) enum Replayed {
    /// A model round: the batch and the SGD step each example took.
    Update(Vec<TrainingExample>, Vec<StepInfo>),
    /// This entity arrived.
    Insert(Entity),
    /// This id was retracted (or was already absent).
    Remove(u64),
    /// The view reclustered.
    Reorganize,
    /// A logged read or a migration: no answer moved.
    Unchanged,
}

/// Applies one logged redo record to a view — the replay path shared by
/// crash recovery and log-shipping replication (`hazy-repl` feeds shipped
/// WAL frames through [`PublishedView::replay_record`](crate::PublishedView)
/// to keep replicas marching in lock-step with the primary). Output of read
/// operations is discarded: their *side effects* (lazy maintenance,
/// watermark folding) are the point.
///
/// Returns `None` on an unknown record kind or an undecodable payload.
pub(crate) fn apply_record(
    view: &mut (dyn DurableClassifierView + Send),
    kind: u8,
    payload: &[u8],
) -> Option<Replayed> {
    let mut b = payload;
    Some(match kind {
        rec::UPDATE => {
            // an example is at least id(8) + label(1) + a dense fvec header(5)
            let n = wire::take_count_u32(&mut b, 14)?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(take_example(&mut b)?);
            }
            let mut steps = Vec::with_capacity(n);
            view.update_batch_steps(&batch, &mut steps);
            Replayed::Update(batch, steps)
        }
        rec::INSERT => {
            let e = take_entity(&mut b)?;
            view.insert_entity(e.clone());
            Replayed::Insert(e)
        }
        rec::REMOVE => {
            let id = wire::take_u64(&mut b)?;
            let _ = view.remove_entity(id);
            Replayed::Remove(id)
        }
        rec::REORG => {
            view.reorganize();
            Replayed::Reorganize
        }
        rec::READ => {
            let _ = view.read_single(wire::take_u64(&mut b)?);
            Replayed::Unchanged
        }
        rec::COUNT => {
            let _ = view.count_positive();
            Replayed::Unchanged
        }
        rec::MEMBERS => {
            let _ = view.positive_ids();
            Replayed::Unchanged
        }
        rec::TOPK => {
            // a depth, not a count: no read allocates by it
            let _ = view.top_k(usize::try_from(wire::take_u64(&mut b)?).ok()?);
            Replayed::Unchanged
        }
        rec::MIGRATE => {
            let arch = crate::view::Architecture::from_tag(wire::take_u8(&mut b)?)?;
            let mode = crate::view::Mode::from_tag(wire::take_u8(&mut b)?)?;
            // the result is deliberately ignored: replaying a MIGRATE
            // against a non-adaptive view is a (deterministic) no-op, the
            // same answer the record's original execution got
            let _ = view.set_architecture(arch, mode);
            Replayed::Unchanged
        }
        _ => return None,
    })
}

/// What [`DurableView::recover_with_info`] learned while recovering: how
/// much log it replayed and *why* the log ended where it did. The
/// distinction matters operationally — a [`WalEnd::CleanEof`] is a crash at
/// a frame boundary (nothing lost), a [`WalEnd::TornFrame`] is a crash
/// mid-write (the in-flight record was never acknowledged), and a
/// [`WalEnd::CrcMismatch`] is bit rot or a corrupted shipment and deserves
/// an alarm even though recovery proceeds with the valid prefix either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// WAL records replayed on top of the restored checkpoint.
    pub replayed: u64,
    /// Why the stable log ended (how its tail was truncated at open).
    pub wal_end: WalEnd,
}

/// A write-ahead-logged, checkpointed classification view.
///
/// Wraps any [`DurableClassifierView`] (one of the five architectures or a
/// whole `ShardedView`) and interposes on every operation: encode a logical
/// redo record, append + fsync it to the WAL (the fsync charges the virtual
/// clock), apply the operation to the inner view, and auto-checkpoint every
/// `interval` operations. The WAL-before-apply order is the classic
/// protocol: an operation is acknowledged once durable, so a crash between
/// fsync and apply is repaired by replay.
pub struct DurableView {
    inner: Box<dyn DurableClassifierView + Send>,
    store: Arc<Mutex<DurableStore>>,
    interval: u64,
    ops_since_ckpt: u64,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for DurableView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableView")
            .field("inner", &self.inner.describe())
            .field("interval", &self.interval)
            .field("ops_since_ckpt", &self.ops_since_ckpt)
            .finish()
    }
}

impl DurableView {
    /// Wraps a freshly built view and writes the genesis checkpoint (a
    /// store must always hold at least one checkpoint for recovery to have
    /// a floor to replay from).
    pub fn create(
        inner: Box<dyn DurableClassifierView + Send>,
        store: Arc<Mutex<DurableStore>>,
        interval: u64,
    ) -> DurableView {
        let mut dv = DurableView { inner, store, interval, ops_since_ckpt: 0, scratch: Vec::new() };
        dv.checkpoint();
        dv
    }

    /// Writes a checkpoint now: the inner view's complete state plus the
    /// current WAL position, committed atomically to the inactive slot.
    /// Also the rdbms `CHECKPOINT CLASSIFICATION VIEW` entry point.
    pub fn checkpoint(&mut self) {
        let store = self.store.lock().expect("durable store lock");
        if store.wal.crashed() {
            // simulated power loss already fired: nothing reaches stable
            // media anymore — a checkpoint of post-crash in-memory state
            // would let recovery see operations the log never made durable
            return;
        }
        let wal_offset = store.wal.stable_len();
        drop(store);
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.inner.clock().now_ns().to_le_bytes());
        self.inner.save_state(&mut payload);
        let mut store = self.store.lock().expect("durable store lock");
        store.checkpoints.write(wal_offset, &payload);
        self.ops_since_ckpt = 0;
    }

    /// Recovers a view from its durable store: restore the newest valid
    /// checkpoint, replay the WAL suffix through the normal execution
    /// paths, and charge checkpoint load + log scan + replayed operations
    /// to the virtual clock (a fresh clock from `builder`, advanced to the
    /// checkpoint's saved virtual time first).
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when no valid checkpoint exists or a
    /// durable record fails to decode.
    pub fn recover(
        builder: &ViewBuilder,
        store: Arc<Mutex<DurableStore>>,
        interval: u64,
        restorer: &dyn ViewRestorer,
    ) -> Result<DurableView, StorageError> {
        DurableView::recover_with_info(builder, store, interval, restorer).map(|(dv, _)| dv)
    }

    /// [`DurableView::recover`] plus a [`RecoveryInfo`] reporting how many
    /// records replayed and why the stable log ended (clean frame boundary,
    /// torn tail, or CRC mismatch).
    ///
    /// # Errors
    /// See [`DurableView::recover`].
    pub fn recover_with_info(
        builder: &ViewBuilder,
        store: Arc<Mutex<DurableStore>>,
        interval: u64,
        restorer: &dyn ViewRestorer,
    ) -> Result<(DurableView, RecoveryInfo), StorageError> {
        let clock = builder.new_clock();
        let (inner, replayed, wal_end) = {
            let mut guard = store.lock().expect("durable store lock");
            guard.set_clock(clock.clone());
            let ckpt = guard
                .checkpoints
                .latest()
                .ok_or(StorageError::Corrupt("no valid checkpoint to recover from"))?;
            charge_bulk_read(&clock, ckpt.payload.len());
            let mut b = ckpt.payload;
            let saved_ns =
                wire::take_u64(&mut b).ok_or(StorageError::Corrupt("checkpoint header"))?;
            clock.charge_ns(saved_ns);
            let mut inner = restorer
                .restore(builder, &mut b, clock.clone())
                .ok_or(StorageError::Corrupt("checkpoint view state"))?;
            let stable = guard.wal.stable_bytes();
            let wal_offset = ckpt.wal_offset as usize;
            if wal_offset > stable.len() {
                return Err(StorageError::Corrupt("checkpoint points past the stable log"));
            }
            let tail = &stable[wal_offset..];
            charge_bulk_read(&clock, tail.len());
            let mut replayed = 0u64;
            for record in WalReader::new(tail) {
                apply_record(inner.as_mut(), record.kind, record.payload)
                    .ok_or(StorageError::Corrupt("undecodable WAL record"))?;
                replayed += 1;
            }
            (inner, replayed, guard.wal.truncation())
        };
        let dv =
            DurableView { inner, store, interval, ops_since_ckpt: replayed, scratch: Vec::new() };
        Ok((dv, RecoveryInfo { replayed, wal_end }))
    }

    /// Recovers from a crash image (what the fault-injection harness holds
    /// after simulated power loss): rebuilds a store — truncating any torn
    /// WAL tail — and runs normal recovery on it.
    ///
    /// # Errors
    /// See [`DurableView::recover`].
    pub fn recover_image(
        builder: &ViewBuilder,
        image: &DurableImage,
        interval: u64,
        restorer: &dyn ViewRestorer,
    ) -> Result<DurableView, StorageError> {
        let store = DurableStore::from_image(image, builder.new_clock());
        DurableView::recover(builder, Arc::new(Mutex::new(store)), interval, restorer)
    }

    /// Snapshots the store's stable content — exactly what would survive a
    /// crash right now.
    pub fn durable_image(&self) -> DurableImage {
        self.store.lock().expect("durable store lock").image()
    }

    /// The shared durable store (rdbms keeps it registered in its
    /// [`SimFs`](hazy_storage::SimFs) so a later session can reopen it).
    pub fn store(&self) -> Arc<Mutex<DurableStore>> {
        Arc::clone(&self.store)
    }

    /// Unwraps the inner view, discarding the logging shell. `hazy-repl`
    /// uses this to turn a recovery over a replica's store into the
    /// replica's live serving view: local reads on a replica must *not* be
    /// logged (its store has to stay a pure replay of the shipped prefix,
    /// or promotion would diverge from the durable-prefix oracle).
    pub fn into_inner(self) -> Box<dyn DurableClassifierView + Send> {
        self.inner
    }

    /// Records in the durable WAL prefix (crash-boundary bookkeeping).
    pub fn stable_records(&self) -> u64 {
        self.store.lock().expect("durable store lock").wal.stable_records()
    }

    /// Operations logged since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_ckpt
    }

    fn log(&mut self, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        fill(&mut self.scratch);
        let mut store = self.store.lock().expect("durable store lock");
        store.wal.append(kind, &self.scratch);
        store.wal.sync();
    }

    fn after_op(&mut self) {
        self.ops_since_ckpt += 1;
        if self.interval > 0 && self.ops_since_ckpt >= self.interval {
            self.checkpoint();
        }
    }
}

impl Durable for DurableView {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }
}

impl ClassifierView for DurableView {
    fn describe(&self) -> String {
        format!("durable {}", self.inner.describe())
    }

    fn mode(&self) -> crate::view::Mode {
        self.inner.mode()
    }

    fn update(&mut self, ex: &TrainingExample) {
        self.update_batch(std::slice::from_ref(ex));
    }

    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        if batch.is_empty() {
            return;
        }
        self.log(rec::UPDATE, |out| {
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for ex in batch {
                put_example(out, ex);
            }
        });
        self.inner.update_batch_steps(batch, steps);
        self.after_op();
    }

    fn reorganize(&mut self) {
        self.log(rec::REORG, |_| {});
        self.inner.reorganize();
        self.after_op();
    }

    fn read_single(&mut self, id: u64) -> Option<hazy_learn::Label> {
        self.log(rec::READ, |out| out.extend_from_slice(&id.to_le_bytes()));
        let r = self.inner.read_single(id);
        self.after_op();
        r
    }

    fn entity_count(&self) -> u64 {
        self.inner.entity_count()
    }

    fn count_positive(&mut self) -> u64 {
        self.log(rec::COUNT, |_| {});
        let r = self.inner.count_positive();
        self.after_op();
        r
    }

    fn positive_ids(&mut self) -> Vec<u64> {
        self.log(rec::MEMBERS, |_| {});
        let r = self.inner.positive_ids();
        self.after_op();
        r
    }

    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        self.log(rec::TOPK, |out| out.extend_from_slice(&(k as u64).to_le_bytes()));
        let r = self.inner.top_k(k);
        self.after_op();
        r
    }

    fn insert_entity(&mut self, e: Entity) {
        self.log(rec::INSERT, |out| put_entity(out, &e));
        self.inner.insert_entity(e);
        self.after_op();
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        self.log(rec::REMOVE, |out| out.extend_from_slice(&id.to_le_bytes()));
        let r = self.inner.remove_entity(id);
        self.after_op();
        r
    }

    fn set_architecture(&mut self, arch: crate::view::Architecture, mode: crate::view::Mode) -> bool {
        // apply first, log only on success: a *rejected* ALTER (the inner
        // view is not adaptive) must leave no durable record behind — a
        // later recovery over the same store must not replay a migration
        // the caller was told failed. For an accepted migration the
        // apply-then-log order is equivalent to the classic protocol in a
        // crash-wipes-memory model: only the durable prefix defines the
        // recovered state, so losing the record merely un-acknowledges
        // the migration (recovery lands in the source architecture), and
        // a durable record deterministically replays it (target).
        let r = self.inner.set_architecture(arch, mode);
        if r {
            self.log(rec::MIGRATE, |out| {
                out.push(arch.tag());
                out.push(mode.tag());
            });
            self.after_op();
        }
        r
    }

    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, hazy_learn::LinearModel)> {
        // not a logged operation: a snapshot copies state out without
        // changing any answer, so replay determinism is unaffected — and
        // epochs must never be resurrected by recovery
        self.inner.snapshot_state()
    }

    fn model(&self) -> &hazy_learn::LinearModel {
        self.inner.model()
    }

    fn stats(&self) -> crate::stats::ViewStats {
        self.inner.stats()
    }

    fn memory(&self) -> crate::stats::MemoryFootprint {
        self.inner.memory()
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{Architecture, Mode};
    use hazy_linalg::FeatureVec;
    use hazy_storage::CrashPoint;

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![(k % 13) as f32 / 13.0 - 0.5, (k % 7) as f32 / 7.0 - 0.5]),
                )
            })
            .collect()
    }

    fn ex(k: usize) -> TrainingExample {
        let x0 = (k % 11) as f32 / 11.0 - 0.5;
        let x1 = (k % 17) as f32 / 17.0 - 0.5;
        TrainingExample::new(0, FeatureVec::dense(vec![x0, x1]), if x0 + 0.3 * x1 >= 0.0 { 1 } else { -1 })
    }

    fn durable_view(arch: Architecture, mode: Mode, interval: u64) -> (ViewBuilder, DurableView) {
        let builder = ViewBuilder::new(arch, mode).dim(2);
        let inner = builder.build(entities(60), &[]);
        let clock = inner.clock().clone();
        let store = Arc::new(Mutex::new(DurableStore::new(clock)));
        (builder.clone(), DurableView::create(inner, store, interval))
    }

    /// A shipped or logged `UPDATE` claiming `u32::MAX` examples with none
    /// behind it is an undecodable record, not a 4-billion-slot allocation
    /// that aborts the process before any decode error can surface.
    #[test]
    fn forged_update_count_is_undecodable() {
        let mut view =
            ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2).build(entities(8), &[]);
        let before = view.model().clone();
        for forged in [u32::MAX, 1] {
            let got = apply_record(view.as_mut(), rec::UPDATE, &forged.to_le_bytes());
            assert!(got.is_none(), "a count of {forged} over an empty tail decoded");
        }
        let moved = view.model().b.to_bits() != before.b.to_bits();
        assert!(!moved, "a rejected record moved the model");
    }

    #[test]
    fn recover_after_clean_run_matches_answers_and_stats() {
        for arch in Architecture::all() {
            let (builder, mut dv) = durable_view(arch, Mode::Eager, 16);
            for k in 0..50 {
                dv.update(&ex(k));
                if k % 9 == 0 {
                    dv.count_positive();
                }
            }
            let expect_stats = dv.stats();
            let expect_count = {
                // count via a throwaway recovered copy so the live view's
                // stats stay frozen for the comparison below
                let mut probe =
                    DurableView::recover_image(&builder, &dv.durable_image(), 16, &CoreRestorer)
                        .unwrap();
                assert_eq!(probe.stats(), expect_stats, "{arch:?}");
                probe.count_positive()
            };
            let mut recovered =
                DurableView::recover_image(&builder, &dv.durable_image(), 16, &CoreRestorer)
                    .unwrap();
            assert_eq!(recovered.count_positive(), expect_count, "{arch:?}");
            assert_eq!(recovered.model().b.to_bits(), dv.model().b.to_bits(), "{arch:?}");
        }
    }

    #[test]
    fn lost_unsynced_tail_recovers_to_the_durable_prefix() {
        let (builder, mut dv) = durable_view(Architecture::HazyMem, Mode::Lazy, 0);
        for k in 0..10 {
            dv.update(&ex(k));
        }
        // arm power loss: everything after the 10 durable records vanishes
        dv.store().lock().unwrap().wal.arm_crash(CrashPoint::AfterRecords(10));
        for k in 10..20 {
            dv.update(&ex(k));
        }
        let recovered =
            DurableView::recover_image(&builder, &dv.durable_image(), 0, &CoreRestorer).unwrap();
        assert_eq!(recovered.stats().updates, 10, "only the durable prefix replays");
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_slot() {
        let (builder, mut dv) = durable_view(Architecture::NaiveMem, Mode::Eager, 0);
        for k in 0..5 {
            dv.update(&ex(k));
        }
        dv.checkpoint();
        for k in 5..8 {
            dv.update(&ex(k));
        }
        dv.store().lock().unwrap().checkpoints.arm_torn_write();
        dv.checkpoint(); // torn: never lands
        let recovered =
            DurableView::recover_image(&builder, &dv.durable_image(), 0, &CoreRestorer).unwrap();
        // the good checkpoint has 5 updates; the WAL replays the other 3
        assert_eq!(recovered.stats().updates, 8);
    }

    #[test]
    fn recovery_replay_is_charged_to_the_clock() {
        let (builder, mut dv) = durable_view(Architecture::HazyDisk, Mode::Eager, 0);
        for k in 0..30 {
            dv.update(&ex(k));
        }
        // checkpoint at the very end: recovery then replays nothing, so the
        // recovered clock must exceed the checkpoint's saved virtual time by
        // exactly the recovery overhead (checkpoint load + log scan)
        dv.checkpoint();
        let at_ckpt = dv.clock().now_ns();
        let no_replay =
            DurableView::recover_image(&builder, &dv.durable_image(), 0, &CoreRestorer).unwrap();
        assert!(
            no_replay.clock().now_ns() > at_ckpt,
            "loading the checkpoint must cost virtual time"
        );
        // a recovery that does replay 30 ops costs strictly more than one
        // that replays none (the replayed operations charge their own work)
        let image_before_final_ckpt = {
            let (builder2, mut dv2) = durable_view(Architecture::HazyDisk, Mode::Eager, 0);
            for k in 0..30 {
                dv2.update(&ex(k));
            }
            let img = dv2.durable_image();
            let with_replay =
                DurableView::recover_image(&builder2, &img, 0, &CoreRestorer).unwrap();
            assert_eq!(with_replay.stats().updates, 30);
            with_replay.clock().now_ns()
        };
        assert!(image_before_final_ckpt > 0);
    }

    /// A rejected `SET ARCH` (the inner view is not adaptive) must leave
    /// no durable record: recovery over the same store must never replay
    /// a migration the caller was told failed.
    #[test]
    fn rejected_migration_leaves_no_wal_record() {
        let (_b, mut dv) = durable_view(Architecture::NaiveMem, Mode::Eager, 0);
        dv.update(&ex(0));
        let before = dv.stable_records();
        assert!(!dv.set_architecture(Architecture::HazyMem, Mode::Lazy));
        assert_eq!(dv.stable_records(), before, "rejected ALTER wrote a record");
    }

    #[test]
    fn recover_without_checkpoint_is_a_structured_error() {
        let builder = ViewBuilder::new(Architecture::NaiveMem, Mode::Eager).dim(2);
        let store = Arc::new(Mutex::new(DurableStore::new(builder.new_clock())));
        let err = DurableView::recover(&builder, store, 0, &CoreRestorer).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }
}
