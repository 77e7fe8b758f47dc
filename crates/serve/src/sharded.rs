//! The sharded view: hash-partitioned shards with epoch snapshot reads and
//! a reader/writer handle split.
//!
//! Since PR 8 the read path never touches a shard lock. Every write to a
//! shard publishes an immutable [`hazy_core::ModelEpoch`] into the shard's
//! [`EpochCell`]; readers pin the current epoch (an `Arc` clone under the
//! cell's read guard) and answer `classify` / `count_positive` /
//! `scan_positive` / `top_k` entirely against it. The shard mutexes that
//! used to be writer-priority reader/writer locks shrink to
//! **writer–writer** coordination: the single logical writer against
//! control-plane walks (stats, checkpoints, migration fan-outs). The
//! worst-case read stall during a full reorganization drops from "the
//! whole maintenance round" to one pointer swap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hazy_core::{
    Architecture, ClassifierView, CoreRestorer, Durable, DurableClassifierView, Entity, EpochCell,
    EpochPin, EpochStats, MemoryFootprint, Mode, PublishedView, ViewBuilder, ViewRestorer,
    ViewStats, SHARDED_VIEW_TAG,
};
use hazy_learn::{Label, LinearModel, StepInfo, TrainingExample};
use hazy_linalg::{wire, NormPair};
use hazy_storage::{DurableStore, VirtualClock};

use crate::kway;

/// Global serving-plane metrics: snapshot read counts and write rounds,
/// aggregated across every sharded view in the process.
///
/// `snapshot_reads` (and the per-shard `serve_shard<i>_reads_total`
/// counters) are *derived* from each shard's epoch-cell pin count — the
/// accounting the pin path already pays for — by [`Shard::sync_reads`],
/// so the read paths carry **zero** added instrumentation atomics. Syncs run at the serving plane's cold
/// moments: write rounds, fan-out reads, stats, and shard drop; serving
/// loops (the front's read lane) sync once per drained batch. One pin is
/// one read — a fan-out query (count/scan/top-k) counts once per shard
/// it pins, and the front's batched lane counts once per shard group.
struct ServeObs {
    snapshot_reads: &'static hazy_obs::Counter,
    write_rounds: &'static hazy_obs::Counter,
}

fn serve_obs() -> &'static ServeObs {
    static OBS: std::sync::OnceLock<ServeObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ServeObs {
        snapshot_reads: hazy_obs::counter("serve_snapshot_reads_total"),
        write_rounds: hazy_obs::counter("serve_write_rounds_total"),
    })
}

/// The per-shard load counter `serve_shard<i>_reads_total`. Shard counts
/// are small and shard indices are stable across views, so views sharing
/// an index share the counter (the operator reads relative balance).
fn shard_read_counter(i: usize) -> &'static hazy_obs::Counter {
    hazy_obs::counter(&format!("serve_shard{i}_reads_total"))
}


/// One shard: a complete classification view over its slice of the
/// entities, in lockstep with the epoch stream readers actually consume.
///
/// The view mutex is **writer–writer only**: readers answer from pinned
/// epochs and never acquire it, so the only contenders are the single
/// logical writer and control-plane fan-outs (stats, checkpoint,
/// migration).
struct Shard {
    view: Mutex<PublishedView<Box<dyn DurableClassifierView + Send>>>,
    /// Per-shard load counter (`serve_shard<i>_reads_total`), fed by
    /// [`Shard::sync_reads`] — never bumped on the read path itself.
    obs_reads: &'static hazy_obs::Counter,
    /// High-water mark of the epoch cell's pin total already folded into
    /// the read counters.
    reads_synced: AtomicU64,
    /// The publication point readers pin (`view`'s cell, held beside the
    /// mutex so the read path never takes it) — shared out (`Arc`) so
    /// handles and replica layers can hold it beyond the shard's borrow.
    epochs: Arc<EpochCell>,
}

impl Shard {
    /// Wraps a freshly built (or restored) engine, publishing its current
    /// answer state as epoch 0.
    fn new(view: Box<dyn DurableClassifierView + Send>, pair: NormPair, index: usize) -> Shard {
        let view = PublishedView::new(view, pair, 0);
        let epochs = Arc::clone(view.cell());
        Shard {
            view: Mutex::new(view),
            obs_reads: shard_read_counter(index),
            reads_synced: AtomicU64::new(0),
            epochs,
        }
    }

    /// Folds pins taken since the last sync into the per-shard and
    /// serving-plane read counters. The pin path is the hot path; this is
    /// its deferred ledger — called from write rounds, fan-out reads,
    /// stats, and drop (see [`ServeObs`]). `fetch_max` keeps concurrent
    /// syncs from double-crediting.
    fn sync_reads(&self) {
        let total = self.epochs.pin_total();
        let prev = self.reads_synced.fetch_max(total, Ordering::Relaxed);
        let delta = total.saturating_sub(prev);
        if delta > 0 {
            self.obs_reads.add(delta);
            serve_obs().snapshot_reads.add(delta);
        }
    }

    /// Poison recovery on the shard lock: a writer that panics mid-round
    /// poisons the mutex, but panics are only ever observed *between*
    /// maintenance rounds — every engine's `update_batch`/`read_*` leaves
    /// its state consistent at return, and a torn round is re-driven by the
    /// caller, not salvaged from the guard. Propagating the poison instead
    /// would convert one failed write into a permanently unservable shard
    /// (every later read, checkpoint, and migration panicking on `lock`),
    /// which is exactly the outage the front end's panic-free serve paths
    /// exist to prevent.
    fn lock_view(&self) -> MutexGuard<'_, PublishedView<Box<dyn DurableClassifierView + Send>>> {
        self.view.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // credit reads a read-only lifetime accumulated before the epoch
        // cell (and its pin ledger) goes away
        self.sync_reads();
    }
}

/// One step of splitmix64: golden-ratio increment plus the avalanche
/// finalizer — the hash behind [`shard_of`].
fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard an entity id lives on: splitmix64 over the id,
/// reduced modulo the shard count. The avalanche step spreads the dense,
/// sequential ids real entity tables have; the function is pure, so routers
/// and shards never disagree about placement.
pub fn shard_of(id: u64, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (splitmix64(id) % n_shards as u64) as usize
}

/// The heaviest shard's hit count in a placement histogram — the quantity
/// skew checks and balance assertions compare against the mean. Total on
/// an empty histogram (zero shards, or a window with no operations) is
/// zero load, so the answer is `0`, not a panic.
pub fn max_shard_load(hits: &[u64]) -> u64 {
    hits.iter().copied().max().unwrap_or(0)
}

/// A classification view partitioned across `N` shards, serving reads
/// from per-shard epoch snapshots (see the crate docs for the
/// data-partitioned / model-replicated design and its equivalence
/// guarantee).
///
/// Read methods take `&self` and are **never blocked by a maintenance
/// round**: each pins its shard's current epoch and answers against that
/// immutable snapshot, so neither reorganizations nor live migrations
/// hold readers up; at most a reader waits out one pointer swap. Writes
/// require either the `&mut self` [`ClassifierView`] implementation — how
/// the RDBMS layer drives a sharded view through its unchanged execution
/// paths — or the unique, `&mut`-method [`WriteHandle`] from
/// [`into_handles`](ShardedView::into_handles): both admit exactly one
/// in-flight writer by type, which the replicated-model design requires
/// (concurrent broadcast writers would apply SGD steps to different shards
/// in different orders and silently diverge the shard models).
pub struct ShardedView {
    shards: Vec<Shard>,
    clock: VirtualClock,
    /// Clone of the replicated model, refreshed by the `&mut` trait-side
    /// mutations so [`ClassifierView::model`] can hand out a reference.
    /// `&self`-world writers (the handles) cannot touch
    /// it — they observe the live model via
    /// [`model_snapshot`](ShardedView::model_snapshot) instead.
    model_cache: LinearModel,
}

impl ShardedView {
    /// Partitions `entities` by [`shard_of`] and builds one view per shard
    /// with `builder`'s configuration, all charging one shared virtual
    /// clock. Every shard is warm-started with the same `warm` examples, so
    /// the replicated models start identical.
    ///
    /// If the builder has no explicit dimensionality, the global maximum
    /// over `entities` is pinned before partitioning — per-shard inference
    /// would let shards disagree on model dimension.
    ///
    /// # Panics
    /// Panics when `n_shards` is 0.
    pub fn build(
        builder: &ViewBuilder,
        n_shards: usize,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
    ) -> ShardedView {
        ShardedView::build_with(builder, n_shards, entities, warm, |b, part, warm, clock| {
            b.build_with_clock(part, warm, clock)
        })
    }

    /// Like [`build`](ShardedView::build), but each shard's engine comes
    /// from `make_shard` instead of the builder's plain construction path —
    /// the hook `hazy-tune` uses to wrap every shard in an `AdaptiveView`,
    /// so shards observe their own workloads and **migrate independently**
    /// behind their shard locks (readers don't notice: they stay on pinned
    /// epochs, and a migration preserves every answer bit-for-bit).
    ///
    /// # Panics
    /// Panics when `n_shards` is 0.
    pub fn build_with<F>(
        builder: &ViewBuilder,
        n_shards: usize,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
        make_shard: F,
    ) -> ShardedView
    where
        F: Fn(
            &ViewBuilder,
            Vec<Entity>,
            &[TrainingExample],
            VirtualClock,
        ) -> Box<dyn DurableClassifierView + Send>,
    {
        assert!(n_shards > 0, "a sharded view needs at least one shard");
        // register the serving-plane counters up front so scrape surfaces
        // list them (at zero) before the first deferred sync runs
        let _ = serve_obs();
        let mut builder = builder.clone();
        if builder.configured_dim() == 0 {
            let dim = entities.iter().map(|e| e.f.dim() as usize).max().unwrap_or(0);
            builder = builder.dim(dim);
        }
        let mut parts: Vec<Vec<Entity>> = (0..n_shards).map(|_| Vec::new()).collect();
        for e in entities {
            parts[shard_of(e.id, n_shards)].push(e);
        }
        let clock = builder.new_clock();
        let pair = builder.configured_norm_pair();
        let shards: Vec<Shard> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| Shard::new(make_shard(&builder, part, warm, clock.clone()), pair, i))
            .collect();
        let model_cache = shards[0].lock_view().engine().model().clone();
        ShardedView { shards, clock, model_cache }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Splits the view into a cloneable [`ReadHandle`] and the unique
    /// [`WriteHandle`] — the single-writer discipline of the crate docs,
    /// enforced by type: `WriteHandle` is not `Clone`, so there is exactly
    /// one writer unless the caller deliberately builds a second view.
    pub fn into_handles(self) -> (ReadHandle, WriteHandle) {
        let shared = Arc::new(self);
        (ReadHandle { view: Arc::clone(&shared) }, WriteHandle { view: shared })
    }

    /// Runs `op` against every shard on its own scoped thread and returns
    /// the results in shard order — the **control-plane** fan-out (stats,
    /// memory), which still goes through the shard locks. The data-plane
    /// read methods below do not use it; they pin epochs instead.
    ///
    /// On a host without parallelism (or with a single shard) the fan-out
    /// degenerates to a sequential walk in the calling thread: spawning
    /// per-query worker threads that can only timeshare one core costs
    /// more than it returns, and the answers are identical either way.
    fn fan_out<T, F>(&self, op: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&(dyn DurableClassifierView + Send)) -> T + Sync,
    {
        static HOST_PARALLEL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let parallel = self.shards.len() > 1
            && *HOST_PARALLEL.get_or_init(|| {
                std::thread::available_parallelism().map(|n| n.get() > 1).unwrap_or(false)
            });
        if !parallel {
            return self.shards.iter().map(|shard| op(shard.lock_view().engine())).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    let op = &op;
                    s.spawn(move || op(shard.lock_view().engine()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    // ---- pinned-epoch read API (the ReadHandle surface) ---------------------------

    /// `Single Entity` read: the label of entity `id`, answered from its
    /// home shard's pinned epoch. Never waits on a maintenance round, and
    /// carries **zero** instrumentation atomics — the read counters are
    /// derived later from the pin count this call already pays for (see
    /// [`Self::sync_obs`]).
    pub fn classify(&self, id: u64) -> Option<Label> {
        self.shards[shard_of(id, self.shards.len())].epochs.pin().classify(id)
    }

    /// `All Members` count: per-shard pinned-epoch counts, summed. Each
    /// shard's contribution is prefix-consistent at that shard's pinned
    /// LSN (the same per-shard consistency the lock-based walk had —
    /// neither takes a global barrier across shards).
    pub fn count_positive(&self) -> u64 {
        let n = self.shards.iter().map(|s| s.epochs.pin().count_positive()).sum();
        self.sync_obs();
        n
    }

    /// `All Members` listing: per-shard pinned-epoch listings (already
    /// ascending) k-way merged into globally ascending id order.
    pub fn scan_positive(&self) -> Vec<u64> {
        let ids =
            kway::merge_ascending(self.shards.iter().map(|s| s.epochs.pin().positive_ids()).collect());
        self.sync_obs();
        ids
    }

    /// Ranked read: each shard's pinned-epoch top `k` under
    /// [`hazy_core::rank_order`], k-way merged — identical to the
    /// unsharded [`ClassifierView::top_k`] answer.
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let ranked =
            kway::merge_ranked(self.shards.iter().map(|s| s.epochs.pin().top_k(k)).collect(), k);
        self.sync_obs();
        ranked
    }

    /// Pins shard `s`'s current epoch — the building block for multi-read
    /// consistency (hold the pin, issue several reads against one frozen
    /// state) and for replica layers that serve at a fixed LSN.
    pub fn pin_shard(&self, s: usize) -> EpochPin<'_> {
        self.shards[s].epochs.pin()
    }

    /// Folds every shard's pin-derived read counts into the registry
    /// (each shard's `sync_reads`). Cheap — one relaxed load and `fetch_max`
    /// per shard — and called automatically by write rounds, fan-out
    /// reads, stats, and drop; serving loops that batch single-entity
    /// reads (the front's read lane) call it once per drained batch to
    /// bound how stale a metrics scrape can be.
    pub fn sync_obs(&self) {
        for s in &self.shards {
            s.sync_reads();
        }
    }

    /// The shared epoch cell of shard `s` (outlives `&self` borrows —
    /// what long-lived reader loops hold).
    pub fn shard_epochs(&self, s: usize) -> Arc<EpochCell> {
        Arc::clone(&self.shards[s].epochs)
    }

    /// Per-shard epoch lifecycle counters, in shard order.
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        self.shards
            .iter()
            .map(|s| {
                s.sync_reads();
                s.epochs.stats()
            })
            .collect()
    }

    /// Sums the per-shard operation counters. `updates` and `all_members`
    /// are taken from shard 0 instead of summed: update rounds are
    /// replicated to every shard and fan-out queries visit every shard, so
    /// summing would multiply the *logical* operation count by the shard
    /// count. The ephemeral epoch counters come from the epoch cells, not
    /// the engines.
    pub fn stats(&self) -> ViewStats {
        let per_shard = self.fan_out(|v| v.stats());
        let mut agg = ViewStats::default();
        for (i, s) in per_shard.iter().enumerate() {
            if i == 0 {
                agg.updates = s.updates;
                agg.all_members = s.all_members;
            }
            agg.single_reads += s.single_reads;
            agg.tuples_reclassified += s.tuples_reclassified;
            agg.tuples_examined += s.tuples_examined;
            agg.labels_changed += s.labels_changed;
            agg.reorgs += s.reorgs;
            agg.last_reorg_ns = agg.last_reorg_ns.max(s.last_reorg_ns);
            agg.eps_map_prunes += s.eps_map_prunes;
            agg.buffer_hits += s.buffer_hits;
            agg.disk_reads += s.disk_reads;
            // migrations are genuinely per-shard events (each shard's
            // advisor decides on its own traffic), so the sum is the
            // deployment's true migration count
            agg.migrations += s.migrations;
        }
        for s in &self.shards {
            s.sync_reads();
            let es = s.epochs.stats();
            agg.epochs_published += es.published;
            agg.epoch_pins += es.pins;
        }
        agg
    }

    /// Sums the per-shard memory footprints (plus one replicated model per
    /// shard — replication is a real memory cost and is reported as one).
    pub fn memory(&self) -> MemoryFootprint {
        let per_shard = self.fan_out(|v| v.memory());
        let mut agg = MemoryFootprint::default();
        for m in per_shard {
            agg.entities_bytes += m.entities_bytes;
            agg.eps_map_bytes += m.eps_map_bytes;
            agg.buffer_bytes += m.buffer_bytes;
            agg.model_bytes += m.model_bytes;
        }
        agg
    }

    /// A clone of the live replicated model, read off shard 0's pinned
    /// epoch — never blocked by a maintenance round, like every other read.
    pub fn model_snapshot(&self) -> LinearModel {
        self.shards[0].epochs.pin().model().clone()
    }

    // ---- write API (the WriteHandle surface) -------------------------------------
    //
    // pub(crate) on purpose: externally, writes go through either the
    // `&mut self` ClassifierView methods or the unique `&mut`-method
    // WriteHandle, so the type system admits exactly one in-flight writer.
    // Two concurrent broadcast writers would interleave their shard walks
    // and apply SGD steps to different shards in different orders, silently
    // diverging the replicated models.
    //
    // Each per-shard step is one `PublishedView` write verb under the
    // shard lock: the engine mutates, the same logical operation folds
    // into the shard's epoch stream, and one pointer swap later
    // readers see the new state. Readers on the other N−1 shards never
    // notice; readers on *this* shard keep their pinned epochs and fresh
    // pins see the pre-swap epoch until the swap lands.

    /// Applies one training example to every shard, one shard at a time.
    pub(crate) fn broadcast_update(&self, ex: &TrainingExample) {
        self.broadcast_update_batch(std::slice::from_ref(ex), &mut Vec::new());
    }

    /// Applies a batch round to every shard, one shard at a time (each
    /// shard runs its single batched maintenance round, then publishes one
    /// epoch for the statement). The model is replicated, so every shard
    /// takes the same SGD steps: shard 0's are appended to `steps`.
    pub(crate) fn broadcast_update_batch(
        &self,
        batch: &[TrainingExample],
        steps: &mut Vec<StepInfo>,
    ) {
        if batch.is_empty() {
            return;
        }
        serve_obs().write_rounds.inc();
        let mut others = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let out = if i == 0 { &mut *steps } else { &mut others };
            shard.lock_view().update_batch_steps(batch, out);
            others.clear();
            shard.sync_reads();
        }
    }

    /// Routes a new entity to its home shard, classifies it there, and
    /// publishes it.
    pub(crate) fn route_insert_entity(&self, e: Entity) {
        self.shards[shard_of(e.id, self.shards.len())].lock_view().insert_entity(e);
    }

    /// Routes a retraction to the entity's home shard (the only shard that
    /// can hold it, since [`shard_of`] is pure).
    pub(crate) fn route_remove_entity(&self, id: u64) -> bool {
        self.shards[shard_of(id, self.shards.len())].lock_view().remove_entity(id)
    }

    /// Reorganizes shard by shard — the `VACUUM`-style maintenance entry
    /// point. Readers are entirely unaffected: the reorganization runs
    /// under the shard lock they never take, and the epoch rebase publishes
    /// with the same single pointer swap as any other write.
    pub(crate) fn broadcast_reorganize(&self) {
        for shard in &self.shards {
            shard.lock_view().reorganize();
        }
    }

    pub(crate) fn refresh_model_cache(&mut self) {
        self.model_cache = self.model_snapshot();
    }

    /// Inverse of the [`Durable`] serialization (tag byte already
    /// consumed): restores every shard — each an ordinary architecture
    /// checkpoint blob — around one shared clock, exactly the
    /// data-partitioned / model-replicated layout `build` produces. Each
    /// restored shard publishes its recovered answer state as a **fresh**
    /// epoch 0: epochs are process-lifetime, never persisted, so recovery
    /// cannot resurrect (or double-free) pre-crash epochs.
    pub fn restore_state(
        builder: &ViewBuilder,
        b: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<ShardedView> {
        ShardedView::restore_state_with(builder, b, clock, &CoreRestorer)
    }

    /// Like [`restore_state`](ShardedView::restore_state), but each shard
    /// blob is decoded by `shard_restorer` instead of the core
    /// architecture dispatcher — the hook that lets `hazy-tune` recover
    /// sharded views whose shards are adaptive wrappers.
    pub fn restore_state_with(
        builder: &ViewBuilder,
        b: &mut &[u8],
        clock: VirtualClock,
        shard_restorer: &dyn ViewRestorer,
    ) -> Option<ShardedView> {
        // a shard is at least its u64 blob length
        let n = wire::take_count_u32(b, 8)?;
        if n == 0 {
            return None;
        }
        let pair = builder.configured_norm_pair();
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let len = wire::take_count(b, 1)?;
            let mut blob = wire::take_bytes(b, len)?;
            let view = shard_restorer.restore(builder, &mut blob, clock.clone())?;
            if !blob.is_empty() {
                return None;
            }
            shards.push(Shard::new(view, pair, i));
        }
        let model_cache = shards[0].lock_view().engine().model().clone();
        Some(ShardedView { shards, clock, model_cache })
    }

    /// Recovers a sharded view from the newest valid checkpoint in `store`
    /// (the serving-tier counterpart of `DurableView` recovery for
    /// checkpoint-only durability — the coordinated snapshots
    /// [`WriteHandle::checkpoint_into`] writes).
    pub fn recover_checkpoint(
        builder: &ViewBuilder,
        store: &std::sync::Mutex<DurableStore>,
    ) -> Option<ShardedView> {
        let guard = store.lock().unwrap_or_else(|e| e.into_inner());
        let ckpt = guard.checkpoints.latest()?;
        let clock = builder.new_clock();
        hazy_storage::charge_bulk_read(&clock, ckpt.payload.len());
        let mut b = ckpt.payload;
        let saved_ns = wire::take_u64(&mut b)?;
        clock.charge_ns(saved_ns);
        if wire::take_u8(&mut b)? != SHARDED_VIEW_TAG {
            return None;
        }
        ShardedView::restore_state(builder, &mut b, clock)
    }
}

impl Durable for ShardedView {
    /// Coordinated per-shard serialization: shards are photographed one at
    /// a time under their shard locks. Concurrent readers are untouched —
    /// they answer from pinned epochs and never contend with the
    /// checkpoint walk. The single writer is the caller, so the shard
    /// models are mutually consistent across the walk. Epoch state is
    /// deliberately **not** serialized: epochs are process-lifetime, and
    /// restore publishes a fresh epoch 0 from the recovered engines.
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(SHARDED_VIEW_TAG);
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        let mut blob = Vec::new();
        for shard in &self.shards {
            blob.clear();
            shard.lock_view().engine().save_state(&mut blob);
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
        }
    }
}

/// Restorer that recognizes sharded checkpoint blobs and delegates
/// everything else to [`CoreRestorer`] — pass this wherever recovery might
/// meet a view built with `SHARDS n`.
pub struct ServeRestorer;

impl ViewRestorer for ServeRestorer {
    fn restore(
        &self,
        builder: &ViewBuilder,
        bytes: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<Box<dyn DurableClassifierView + Send>> {
        if bytes.first() == Some(&SHARDED_VIEW_TAG) {
            wire::take_u8(bytes)?;
            return Some(Box::new(ShardedView::restore_state(builder, bytes, clock)?));
        }
        CoreRestorer.restore(builder, bytes, clock)
    }
}

impl ClassifierView for ShardedView {
    fn describe(&self) -> String {
        let shard0 = self.shards[0].lock_view().engine().describe();
        format!("sharded×{} over {shard0}", self.shards.len())
    }

    fn mode(&self) -> Mode {
        // read live from shard 0: adaptive shards can change mode at any
        // round, so a build-time cache would go stale
        self.shards[0].lock_view().engine().mode()
    }

    fn update(&mut self, ex: &TrainingExample) {
        self.broadcast_update(ex);
        self.refresh_model_cache();
    }

    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        self.broadcast_update_batch(batch, steps);
        self.refresh_model_cache();
    }

    fn reorganize(&mut self) {
        self.broadcast_reorganize();
    }

    fn read_single(&mut self, id: u64) -> Option<Label> {
        self.classify(id)
    }

    fn entity_count(&self) -> u64 {
        self.shards.iter().map(|s| s.epochs.pin().entity_count()).sum()
    }

    fn count_positive(&mut self) -> u64 {
        ShardedView::count_positive(self)
    }

    fn positive_ids(&mut self) -> Vec<u64> {
        self.scan_positive()
    }

    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        ShardedView::top_k(self, k)
    }

    fn insert_entity(&mut self, e: Entity) {
        self.route_insert_entity(e);
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        self.route_remove_entity(id)
    }

    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        // concatenation of the per-shard snapshots; the model is
        // replicated, so any shard's copy is the deployment's model
        let mut all = Vec::new();
        let mut model = None;
        for shard in &self.shards {
            let (mut ents, m) = shard.lock_view().snapshot_state()?;
            all.append(&mut ents);
            model.get_or_insert(m);
        }
        model.map(|m| (all, m))
    }

    fn set_architecture(&mut self, arch: Architecture, mode: Mode) -> bool {
        // an explicit ALTER retargets the whole deployment: every shard
        // migrates behind its shard lock, one at a time. Readers are
        // oblivious — a migration preserves every answer bit-for-bit.
        let mut all = true;
        for shard in &self.shards {
            all &= shard.lock_view().set_architecture(arch, mode);
        }
        all
    }

    fn model(&self) -> &LinearModel {
        &self.model_cache
    }

    fn stats(&self) -> ViewStats {
        ShardedView::stats(self)
    }

    fn memory(&self) -> MemoryFootprint {
        ShardedView::memory(self)
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }
}

/// The read side of [`ShardedView::into_handles`]: clone one per reader
/// thread. The query methods are never blocked by a maintenance round —
/// they pin per-shard epochs and never take the writer's shard locks
/// (`stats` is control-plane and still walks them).
#[derive(Clone)]
pub struct ReadHandle {
    view: Arc<ShardedView>,
}

impl ReadHandle {
    /// See [`ShardedView::classify`].
    pub fn classify(&self, id: u64) -> Option<Label> {
        self.view.classify(id)
    }

    /// See [`ShardedView::count_positive`].
    pub fn count_positive(&self) -> u64 {
        self.view.count_positive()
    }

    /// See [`ShardedView::scan_positive`].
    pub fn scan_positive(&self) -> Vec<u64> {
        self.view.scan_positive()
    }

    /// See [`ShardedView::top_k`].
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        self.view.top_k(k)
    }

    /// See [`ShardedView::pin_shard`].
    pub fn pin_shard(&self, s: usize) -> EpochPin<'_> {
        self.view.pin_shard(s)
    }

    /// See [`ShardedView::sync_obs`].
    pub fn sync_obs(&self) {
        self.view.sync_obs();
    }

    /// See [`ShardedView::shard_epochs`].
    pub fn shard_epochs(&self, s: usize) -> Arc<EpochCell> {
        self.view.shard_epochs(s)
    }

    /// See [`ShardedView::epoch_stats`].
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        self.view.epoch_stats()
    }

    /// See [`ShardedView::stats`].
    pub fn stats(&self) -> ViewStats {
        self.view.stats()
    }

    /// See [`ShardedView::n_shards`].
    pub fn n_shards(&self) -> usize {
        self.view.n_shards()
    }

    /// See [`ShardedView::model_snapshot`].
    pub fn model_snapshot(&self) -> LinearModel {
        self.view.model_snapshot()
    }
}

/// The write side of [`ShardedView::into_handles`]: deliberately not
/// `Clone`, and every method takes `&mut self` — so the type system admits
/// exactly one in-flight writer. Two concurrent broadcast writers would
/// interleave their shard walks and apply SGD steps to different shards in
/// different orders, silently diverging the replicated models.
pub struct WriteHandle {
    view: Arc<ShardedView>,
}

impl WriteHandle {
    /// Applies one training example to every shard, one shard at a time —
    /// reads proceed everywhere throughout (they answer from pinned
    /// epochs).
    pub fn update(&mut self, ex: &TrainingExample) {
        self.view.broadcast_update(ex);
    }

    /// Applies a batch round to every shard, one shard at a time (each
    /// shard runs its single batched maintenance round).
    pub fn update_batch(&mut self, batch: &[TrainingExample]) {
        self.view.broadcast_update_batch(batch, &mut Vec::new());
    }

    /// Routes a new entity to its home shard and classifies it there.
    pub fn insert_entity(&mut self, e: Entity) {
        self.view.route_insert_entity(e);
    }

    /// Routes a retraction to the entity's home shard; `true` when the
    /// entity existed there.
    pub fn remove_entity(&mut self, id: u64) -> bool {
        self.view.route_remove_entity(id)
    }

    /// Per-shard reorganization, entirely off the read path: readers keep
    /// answering from epochs while each shard reclusters; the rebase lands
    /// as one pointer swap.
    pub fn reorganize(&mut self) {
        self.view.broadcast_reorganize();
    }

    /// See [`ShardedView::model_snapshot`].
    pub fn model_snapshot(&self) -> LinearModel {
        self.view.model_snapshot()
    }

    /// Coordinated checkpoint behind the writer: serializes every shard —
    /// one shard lock at a time; readers are untouched — and commits the
    /// snapshot atomically to `store`'s inactive slot. A crash (or
    /// concurrent recovery read) mid-write can only ever observe the
    /// *previous* complete checkpoint; half-written frames fail their CRC.
    /// Restore with [`ShardedView::recover_checkpoint`].
    pub fn checkpoint_into(&mut self, store: &std::sync::Mutex<DurableStore>) -> u64 {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.view.clock.now_ns().to_le_bytes());
        self.view.save_state(&mut payload);
        let mut guard = store.lock().unwrap_or_else(|e| e.into_inner());
        let wal_offset = guard.wal.stable_len();
        guard.checkpoints.write(wal_offset, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // the whole point of the crate: shards are shareable across threads
    const _: () = {
        const fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<ShardedView>();
        assert_sync_send::<ReadHandle>();
        assert_sync_send::<WriteHandle>();
    };

    /// A checkpoint claiming `u32::MAX` shards, or a shard blob longer than
    /// the image, is undecodable rather than a huge allocation.
    #[test]
    fn forged_shard_counts_are_undecodable() {
        let builder = ViewBuilder::new(hazy_core::Architecture::HazyMem, hazy_core::Mode::Eager);
        let restore =
            |b: &[u8]| ShardedView::restore_state(&builder, &mut &b[..], builder.new_clock());
        assert!(restore(&u32::MAX.to_le_bytes()).is_none());
        let mut b = 1u32.to_le_bytes().to_vec();
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(restore(&b).is_none());
    }

    #[test]
    fn shard_of_is_stable_and_covers_all_shards() {
        for n in [1usize, 2, 3, 8, 17] {
            let mut hit = vec![0u64; n];
            for id in 0..1000u64 {
                let s = shard_of(id, n);
                assert_eq!(s, shard_of(id, n), "unstable for id {id}");
                hit[s] += 1;
            }
            assert!(
                hit.iter().all(|&c| c > 0),
                "{n} shards: some shard got no entities: {hit:?}"
            );
            // splitmix spreads dense ids roughly evenly (loose 3× bound)
            let max = max_shard_load(&hit);
            assert!(max as usize * n <= 3 * 1000, "{n} shards skewed: {hit:?}");
        }
    }

    #[test]
    fn max_shard_load_of_nothing_is_zero() {
        // zero shards / zero ops: no load, not a panic
        assert_eq!(max_shard_load(&[]), 0);
        assert_eq!(max_shard_load(&[0]), 0);
        assert_eq!(max_shard_load(&[3, 9, 1]), 9);
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        for id in 0..100u64 {
            assert_eq!(shard_of(id, 1), 0);
        }
    }

    /// Regression: a writer that panics while holding a shard lock used to
    /// poison it, and every later read/checkpoint/migration panicked via
    /// `.expect("shard lock poisoned")` — one failed write turned into a
    /// permanently unservable shard. The locks now recover the guard.
    #[test]
    fn reads_and_writes_survive_a_writer_panicking_mid_round() {
        use hazy_linalg::FeatureVec;

        let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
        let entities: Vec<Entity> =
            (0..64).map(|id| Entity::new(id, FeatureVec::dense(vec![1.0, id as f32]))).collect();
        let warm = [TrainingExample::new(0, FeatureVec::dense(vec![1.0, 0.5]), 1)];
        let view = ShardedView::build(&builder, 4, entities, &warm);
        let before: Vec<Option<Label>> = (0..64).map(|id| view.classify(id)).collect();

        // a "writer" panics while holding every shard's view lock —
        // exactly what a torn broadcast round leaves behind
        std::thread::scope(|s| {
            for shard in &view.shards {
                let h = s.spawn(|| {
                    let _g = shard.lock_view();
                    panic!("writer dies mid-round");
                });
                assert!(h.join().is_err(), "the writer thread must have panicked");
            }
        });

        // pinned-epoch reads still answer, bit-for-bit
        let after: Vec<Option<Label>> = (0..64).map(|id| view.classify(id)).collect();
        assert_eq!(before, after, "reads changed across a writer panic");
        assert!(view.count_positive() <= 64);

        // and lock-taking paths — stats, further writes — recover too
        let _ = view.stats();
        let mut view = view;
        view.update(&TrainingExample::new(1, FeatureVec::dense(vec![1.0, 1.0]), -1));
        let _ = view.classify(1);
    }
}
