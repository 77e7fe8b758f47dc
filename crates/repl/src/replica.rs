//! The receiving end of log shipping: a continuously replaying replica.

use std::sync::{Arc, Mutex};

use hazy_core::{
    ClassifierView, Durable, DurableClassifierView, DurableView, EpochCell, PublishedView,
    RecoveryInfo, ViewBuilder, ViewRestorer, ViewStats,
};
use hazy_learn::{Label, LinearModel};
use hazy_storage::{
    DurableStore, IngestReport, StorageError, VirtualClock, WalReader,
};

/// A read replica of a durable classification view.
///
/// Structure mirrors the primary's durability protocol, inverted:
///
/// * its **durable store** holds the primary's bootstrap snapshot as a
///   checkpoint at WAL offset zero, plus every shipped frame ingested
///   *verbatim* (primary LSNs and CRCs preserved) — so the store is, by
///   construction, a pure durable-prefix image of the primary;
/// * its **live view** is that store recovered once at bootstrap and then
///   rolled forward record-by-record as shipments land, through the same
///   redo dispatcher crash recovery uses
///   ([`PublishedView::replay_record`]) — which also advances the
///   replica's epoch stream by one LSN per record, so
///   `epoch().current_lsn() == next_lsn()` always.
///
/// Local reads are served from the live view and are **not** logged.
/// Lazy-mode reads still do maintenance (that is the engine's design), so
/// the live view's physical state may drift from the primary's — but the
/// *model* never moves on a read, so answers at equal LSN agree, and the
/// store stays a pure replay. That purity is what makes
/// [`promote`](ReplicaView::promote) bit-exact: promotion simply runs crash
/// recovery over the replica's own store.
pub struct ReplicaView {
    builder: ViewBuilder,
    restorer: &'static dyn ViewRestorer,
    store: Arc<Mutex<DurableStore>>,
    live: PublishedView<Box<dyn DurableClassifierView + Send>>,
    /// Bytes of the replica's stable WAL already applied to `live`.
    live_offset: usize,
    /// First LSN this replica was ever shipped (the primary's position at
    /// snapshot time). Conceptually this lives in the shipper's
    /// replication-slot record on the primary side; the replica carries a
    /// copy so a crash of a not-yet-shipped replica (empty local WAL, which
    /// cannot remember its own base) re-aligns correctly.
    base_lsn: u64,
    crashes: u64,
}

impl std::fmt::Debug for ReplicaView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaView")
            .field("live", &self.live.engine().describe())
            .field("next_lsn", &self.next_lsn())
            .field("crashes", &self.crashes)
            .finish()
    }
}

impl ReplicaView {
    /// Bootstraps a replica from a live primary: snapshot the primary's
    /// complete state (exactly what a checkpoint would write) together with
    /// its WAL position, seed a fresh replica-local store with that
    /// snapshot as the checkpoint at offset zero, and recover from it.
    ///
    /// The snapshot is consistent without quiescing anything because the
    /// primary logs-then-applies one operation at a time: between
    /// operations, its in-memory state *is* the state of its durable
    /// prefix.
    ///
    /// # Errors
    /// Propagates [`StorageError::Corrupt`] if the snapshot fails to
    /// restore (which would indicate a checkpoint-format bug, not bad
    /// luck).
    pub fn bootstrap(
        builder: &ViewBuilder,
        primary: &DurableView,
        restorer: &'static dyn ViewRestorer,
    ) -> Result<ReplicaView, StorageError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&primary.clock().now_ns().to_le_bytes());
        primary.save_state(&mut payload);
        let base_lsn = primary.store().lock().expect("primary store lock").wal.next_lsn();
        let mut store = DurableStore::new(builder.new_clock());
        store.checkpoints.write(0, &payload);
        store.wal.set_next_lsn(base_lsn);
        ReplicaView::open(builder.clone(), Arc::new(Mutex::new(store)), restorer, base_lsn)
            .map(|(replica, _)| replica)
    }

    /// Recovers a live view from `store` (bootstrap and crash-restart share
    /// this path — a replica *is* recovery that never stops).
    fn open(
        builder: ViewBuilder,
        store: Arc<Mutex<DurableStore>>,
        restorer: &'static dyn ViewRestorer,
        base_lsn: u64,
    ) -> Result<(ReplicaView, RecoveryInfo), StorageError> {
        let (recovered, info) =
            DurableView::recover_with_info(&builder, Arc::clone(&store), 0, restorer)?;
        let (live_offset, next_lsn) = {
            let guard = store.lock().expect("replica store lock");
            (guard.wal.stable_len() as usize, guard.wal.next_lsn())
        };
        // the epoch stream starts at the applied LSN and ticks once per
        // replayed record from here on
        let live =
            PublishedView::new(recovered.into_inner(), builder.configured_norm_pair(), next_lsn);
        let replica =
            ReplicaView { builder, restorer, store, live, live_offset, base_lsn, crashes: 0 };
        Ok((replica, info))
    }

    /// Ingests one shipment of raw WAL frames: frames land durably in the
    /// replica's own log first (duplicates absorbed, gaps rejected, torn
    /// tails truncated — see [`hazy_storage::Wal::ingest_frames`]), then
    /// every newly durable record is replayed into the live view.
    ///
    /// # Errors
    /// An armed store fault (`EIO`/`ENOSPC`) surfaces *before* any byte
    /// lands — the shipment is retryable. [`StorageError::Corrupt`] means a
    /// durable record failed to decode, which no retry fixes.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<IngestReport, StorageError> {
        let guard = &mut *self.store.lock().expect("replica store lock");
        let report = guard.wal.ingest_frames(bytes)?;
        if report.applied > 0 {
            let stable = guard.wal.stable_bytes();
            for rec in WalReader::new(&stable[self.live_offset..]) {
                self.live
                    .replay_record(rec.kind, rec.payload)
                    .ok_or(StorageError::Corrupt("undecodable shipped record"))?;
            }
            self.live_offset = stable.len();
        }
        Ok(report)
    }

    /// Simulates a replica process crash and restart: the live view (and
    /// any in-memory replay progress) is discarded, and the replica is
    /// rebuilt by recovering from the stable content of its own store —
    /// the same path a real restart would take.
    ///
    /// # Errors
    /// See [`DurableView::recover`].
    pub fn crash_and_restart(&mut self) -> Result<RecoveryInfo, StorageError> {
        let image = self.store.lock().expect("replica store lock").image();
        let mut store = DurableStore::from_image(&image, self.builder.new_clock());
        if store.wal.next_lsn() < self.base_lsn {
            // an empty log reopens at LSN zero; re-align to the slot record
            store.wal.set_next_lsn(self.base_lsn);
        }
        let crashes = self.crashes + 1;
        let (replica, info) = ReplicaView::open(
            self.builder.clone(),
            Arc::new(Mutex::new(store)),
            self.restorer,
            self.base_lsn,
        )?;
        *self = ReplicaView { crashes, ..replica };
        Ok(info)
    }

    /// Promotes this replica to a primary: run full crash recovery over the
    /// replica's own durable store (checkpoint + every shipped frame) and
    /// wrap the result in a logging [`DurableView`] with auto-checkpoint
    /// `interval`. Because the store is a pure replay of the shipped
    /// durable prefix, the promoted view is bit-identical — model bits,
    /// answers, statistics — to a view that executed that prefix and never
    /// crashed.
    ///
    /// # Errors
    /// See [`DurableView::recover`].
    pub fn promote(self, interval: u64) -> Result<(DurableView, RecoveryInfo), StorageError> {
        DurableView::recover_with_info(&self.builder, self.store, interval, self.restorer)
    }

    /// Arms a finite device fault on the replica store's ingest path (the
    /// chaos harness's `EIO`/`ENOSPC` injection point).
    pub fn arm_store_fault(&mut self, err: StorageError, times: u32) {
        self.store.lock().expect("replica store lock").wal.arm_ingest_fault(err, times);
    }

    /// LSN of the next frame this replica expects (applied LSNs are
    /// everything below it).
    pub fn next_lsn(&self) -> u64 {
        self.store.lock().expect("replica store lock").wal.next_lsn()
    }

    /// Shipped records applied durably so far.
    pub fn applied_records(&self) -> u64 {
        self.store.lock().expect("replica store lock").wal.stable_records()
    }

    /// Times this replica has crashed and restarted.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// The replica's epoch cell — the snapshot-read framing of what a
    /// replica *is*: a caught-up replica serving at its applied LSN is a
    /// pinned remote epoch of the primary. The current epoch is stamped
    /// with [`next_lsn`](ReplicaView::next_lsn), the same number the
    /// replication group's staleness bound (`max_lag`) is measured in —
    /// one LSN scale covers both routing health and snapshot staleness.
    ///
    /// One cell for the replica's process lifetime, advanced in place by
    /// every replayed record. Pins taken from it stay bit-frozen across
    /// further ingests and even
    /// [`crash_and_restart`](ReplicaView::crash_and_restart): a restart
    /// publishes a fresh cell from recovered state instead of resurrecting
    /// epochs, and the old cell is `Arc`-shared, so a held pin outlives
    /// the live view it snapshotted.
    pub fn epoch(&self) -> Arc<EpochCell> {
        Arc::clone(self.live.cell())
    }

    /// Serves a single-entity classification at the replica's applied LSN
    /// (not logged — see the type-level docs for why that matters).
    pub fn read_single(&mut self, id: u64) -> Option<Label> {
        self.live.read_single(id)
    }

    /// Serves an All-Members count at the replica's applied LSN.
    pub fn count_positive(&mut self) -> u64 {
        self.live.count_positive()
    }

    /// Serves an All-Members id listing at the replica's applied LSN.
    pub fn positive_ids(&mut self) -> Vec<u64> {
        self.live.positive_ids()
    }

    /// Serves a ranked read at the replica's applied LSN.
    pub fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        self.live.top_k(k)
    }

    /// The live view's model (moves only when shipped records replay).
    pub fn model(&self) -> &LinearModel {
        self.live.engine().model()
    }

    /// The live view's operation statistics.
    pub fn stats(&self) -> ViewStats {
        self.live.engine().stats()
    }

    /// Entities currently in the live view.
    pub fn entity_count(&self) -> u64 {
        self.live.engine().entity_count()
    }

    /// The replica's virtual clock (ingest, replay and backoff all charge
    /// here).
    pub fn clock(&self) -> &VirtualClock {
        self.live.engine().clock()
    }

    /// Human-readable description of the live view.
    pub fn describe(&self) -> String {
        format!("replica of {}", self.live.engine().describe())
    }
}
