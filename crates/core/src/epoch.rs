//! Epoch-based snapshot reads: immutable [`ModelEpoch`]s published by the
//! single writer, pinned by any number of readers, reclaimed when drained.
//!
//! The writer-priority shard locks of the serving layer stall every reader
//! of a shard for the length of a maintenance round — the read path the
//! paper's incremental maintenance exists to serve is blocked by that very
//! maintenance. This module removes readers from the lock protocol
//! entirely:
//!
//! * [`ModelEpoch`] — an immutable answer state: the model bits, the
//!   entity population frozen at the last rebase (an [`Arc`]-shared base
//!   clustered on `eps` under the frozen model), and a **compact
//!   label-patch overlay** recording everything that changed since — label
//!   flips found inside the watermark band, dynamic inserts, retractions.
//!   Every read (`classify`, `count_positive`, `positive_ids`, `top_k`)
//!   is answered entirely from one epoch, bit-identically to the live
//!   architectures (all of which serve pure functions of
//!   *population × model* — the observational equivalence the core test
//!   suites enforce).
//! * [`EpochPublisher`] — the writer-side maintenance of that overlay.
//!   After a model round it re-scores **only** the tuples whose frozen
//!   `eps` falls inside the running watermark band (Lemma 3.1: nothing
//!   outside the band can have flipped), exactly the paper's pruning
//!   argument applied to snapshot publication; when the overlay outgrows
//!   its budget the base is rebased — the epoch analog of a
//!   reorganization.
//! * [`EpochCell`] — the publication point: an atomic pointer swap makes
//!   a new epoch current, so the worst-case read stall during a full
//!   reorganization is the cost of one pointer load. Stale epochs are
//!   reclaimed by a hand-rolled pin-count scheme in the spirit of
//!   crossbeam-epoch (the build vendors its dependencies, so no external
//!   epoch GC is available): readers announce themselves through an
//!   `entering` counter, pin the current node, and the writer frees a
//!   retired node only after observing `entering == 0` *and then*
//!   `pins == 0` — at which point no present or future reader can hold it.
//!
//! * [`PublishedView`] — an engine and its publisher as one value: the
//!   only way product code publishes. Its write verbs apply an operation
//!   to the engine and fold the same operation into the epoch stream, so
//!   the serving shards, the SQL catalog and the replicas all get "engine
//!   and epochs in lockstep, one LSN tick per operation" by construction.
//!
//! Readers never take a lock shared with the writer; writers keep
//! synchronizing with each other (and with control-plane fan-outs) on the
//! shard mutexes, which is why the serving layer's locks shrink to
//! writer–writer only.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hazy_learn::{Label, LinearModel, TrainingExample};
use hazy_linalg::NormPair;

use crate::durable::{apply_record, DurableClassifierView, DurableView, Replayed};
use crate::entity::Entity;
use crate::view::{select_top_k, Architecture, ClassifierView, Mode};
use crate::watermark::{WaterMarks, WatermarkPolicy};

/// Global epoch-lifecycle metrics: every [`EpochCell`] in the process
/// (one per shard per view) reports into the same counters, giving an
/// operator aggregate GC pressure at a glance.
///
/// `pins` is *derived*, not recorded on the hot path: the pin protocol
/// already maintains a per-cell `pin_count` for [`EpochStats`], and
/// [`EpochCell::sync_pins`] folds its delta into the registry at
/// publish/collect, stats, and drop. A pinned read therefore costs
/// exactly what it cost before instrumentation existed.
struct EpochObs {
    pins: &'static hazy_obs::Counter,
    published: &'static hazy_obs::Counter,
    reclaimed: &'static hazy_obs::Counter,
    rebases: &'static hazy_obs::Counter,
    retired_live: &'static hazy_obs::Gauge,
}

fn epoch_obs() -> &'static EpochObs {
    static OBS: std::sync::OnceLock<EpochObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| EpochObs {
        pins: hazy_obs::counter("core_epoch_pins_total"),
        published: hazy_obs::counter("core_epoch_published_total"),
        reclaimed: hazy_obs::counter("core_epoch_reclaimed_total"),
        rebases: hazy_obs::counter("core_epoch_rebases_total"),
        retired_live: hazy_obs::gauge("core_epoch_retired_live"),
    })
}


/// The immutable population frozen at the last rebase: entities in
/// ascending-id order with their `eps` (margin under the frozen model) and
/// labels, plus an eps-sorted permutation for watermark-band range scans.
/// Shared by every epoch published since the rebase via [`Arc`].
struct EpochBase {
    /// Entities in ascending id order (ids unique).
    entities: Vec<Entity>,
    /// `eps[i]` = margin of `entities[i]` under the frozen model.
    eps: Vec<f64>,
    /// `labels[i]` = label of `entities[i]` under the frozen model.
    labels: Vec<Label>,
    /// Indices of `entities` sorted by ascending `eps` — the clustering
    /// order a hazy architecture keeps physically, kept here logically so
    /// the publisher can walk exactly the watermark band.
    by_eps: Vec<u32>,
}

impl EpochBase {
    /// Builds a base from an id-sorted population under `model`. Returns
    /// the base, its positive count, and `M = max ‖f‖_q` for the marks.
    fn build(entities: Vec<Entity>, model: &LinearModel, pair: NormPair) -> (EpochBase, u64, f64) {
        let n = entities.len();
        debug_assert!(entities.windows(2).all(|w| w[0].id < w[1].id), "base must be id-sorted");
        let mut eps = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut positive = 0u64;
        let mut m_norm = 0.0f64;
        for e in &entities {
            let m = model.margin(&e.f);
            let l = model.predict(&e.f);
            positive += u64::from(l > 0);
            m_norm = m_norm.max(e.f.norm(pair.q));
            eps.push(m);
            labels.push(l);
        }
        let mut by_eps: Vec<u32> = (0..n as u32).collect();
        by_eps.sort_unstable_by(|&a, &b| {
            eps[a as usize].total_cmp(&eps[b as usize]).then(a.cmp(&b))
        });
        (EpochBase { entities, eps, labels, by_eps }, positive, m_norm)
    }

    /// Binary search by entity id.
    fn idx_of(&self, id: u64) -> Option<usize> {
        self.entities.binary_search_by_key(&id, |e| e.id).ok()
    }
}

/// One immutable snapshot of a classification view's answers, published at
/// a logical sequence number. All read methods take `&self` and always
/// return the answers as of [`lsn`](ModelEpoch::lsn) — bit-identical to
/// what any live architecture would have served at that point, no matter
/// what the writer has done since.
pub struct ModelEpoch {
    lsn: u64,
    model: LinearModel,
    base: Arc<EpochBase>,
    /// Label patches for base entities that flipped since the rebase
    /// (base index → current label). Compact: only band members can
    /// appear.
    flips: HashMap<u32, Label>,
    /// Entities inserted since the rebase, with their current labels.
    /// `Arc`-shared so publishing an epoch never copies feature payloads.
    added: BTreeMap<u64, (Arc<Entity>, Label)>,
    /// Base ids retracted since the rebase.
    removed: HashSet<u64>,
    positive: u64,
}

impl ModelEpoch {
    /// The logical sequence number this snapshot is consistent at: the
    /// number of write-side operations the publisher had applied when the
    /// epoch was published.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The model bits at this epoch.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Number of entities alive at this epoch.
    pub fn entity_count(&self) -> u64 {
        (self.base.entities.len() - self.removed.len() + self.added.len()) as u64
    }

    /// `Single Entity` read against the snapshot.
    pub fn classify(&self, id: u64) -> Option<Label> {
        if let Some((_, l)) = self.added.get(&id) {
            return Some(*l);
        }
        if self.removed.contains(&id) {
            return None;
        }
        let i = self.base.idx_of(id)?;
        Some(self.flips.get(&(i as u32)).copied().unwrap_or(self.base.labels[i]))
    }

    /// `All Members` count against the snapshot (maintained incrementally
    /// by the publisher — O(1) here).
    pub fn count_positive(&self) -> u64 {
        self.positive
    }

    /// `All Members` listing in ascending id order.
    pub fn positive_ids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut add = self.added.iter().peekable();
        for (i, e) in self.base.entities.iter().enumerate() {
            while let Some((&aid, (_, al))) = add.peek() {
                if aid >= e.id {
                    break;
                }
                if *al > 0 {
                    out.push(aid);
                }
                add.next();
            }
            if self.removed.contains(&e.id) {
                continue;
            }
            if self.flips.get(&(i as u32)).copied().unwrap_or(self.base.labels[i]) > 0 {
                out.push(e.id);
            }
        }
        for (&aid, (_, al)) in add {
            if *al > 0 {
                out.push(aid);
            }
        }
        out
    }

    /// Ranked read under the epoch's model: margin descending, ids
    /// ascending on ties — the same selection under
    /// [`rank_order`](crate::rank_order) the engines run, so merged
    /// per-shard epoch answers equal the unsharded listing bit for bit.
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut scored = Vec::with_capacity(self.entity_count() as usize);
        for e in &self.base.entities {
            if self.removed.contains(&e.id) {
                continue;
            }
            scored.push((e.id, self.model.margin(&e.f)));
        }
        for (&id, (e, _)) in &self.added {
            scored.push((id, self.model.margin(&e.f)));
        }
        select_top_k(scored, k)
    }

    /// Number of overlay entries (label patches + inserts + retractions) —
    /// how far this epoch has drifted from its frozen base.
    pub fn overlay_len(&self) -> usize {
        self.flips.len() + self.added.len() + self.removed.len()
    }
}

/// Counters describing one [`EpochCell`]'s lifecycle, snapshotted from its
/// atomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs published (including the initial one).
    pub published: u64,
    /// Retired epochs whose storage has been reclaimed.
    pub reclaimed: u64,
    /// Reader pins taken over the cell's lifetime.
    pub pins: u64,
    /// Retired epochs still awaiting reclamation (pinned, or a reader was
    /// mid-pin at the last collection attempt).
    pub retired_live: u64,
}

/// A published epoch plus its pin count; heap-allocated and reclaimed by
/// the cell's collector.
struct EpochNode {
    pins: AtomicU64,
    epoch: ModelEpoch,
}

/// The publication point readers and the writer share: an atomic pointer
/// to the current [`ModelEpoch`], plus the retired list the hand-rolled
/// epoch GC drains.
///
/// Readers call [`pin`](EpochCell::pin) — three atomic operations, no
/// locks, never blocked by a writer mid-reorganization. The writer calls
/// [`publish`](EpochCell::publish) — one pointer swap — and reclaims
/// drained epochs opportunistically.
///
/// # Reclamation safety
///
/// A retired node is freed only after the collector observes
/// `entering == 0` and *then* `pins == 0` (both sequentially consistent,
/// under the retired-list lock). Any reader that could still pin the node
/// must have loaded the pointer before it was retired, hence inside its
/// `entering` window; `entering == 0` proves every such window closed, so
/// the pin count can no longer rise — `pins == 0` after that point means
/// no reader holds or will ever hold the node.
pub struct EpochCell {
    current: AtomicPtr<EpochNode>,
    /// Readers inside the load-then-pin window. While non-zero, nothing
    /// retired can be proven unreachable, so collection is deferred.
    entering: AtomicU64,
    /// Retired nodes awaiting a drained pin count. Also serializes
    /// publishers and collectors against each other (writer–writer only —
    /// readers never touch it).
    retired: Mutex<Vec<*mut EpochNode>>,
    published: AtomicU64,
    reclaimed: AtomicU64,
    pin_count: AtomicU64,
    /// High-water mark of `pin_count` already folded into the global
    /// `core_epoch_pins_total` counter (see [`EpochCell::sync_pins`]).
    pins_synced: AtomicU64,
}

// The raw node pointers are managed exclusively by the cell's publish /
// collect / drop protocol; the payloads they point at are `Send + Sync`.
unsafe impl Send for EpochCell {}
unsafe impl Sync for EpochCell {}

impl EpochCell {
    fn new(initial: ModelEpoch) -> EpochCell {
        // register the lifecycle metrics up front so scrape surfaces list
        // them (at zero) before the first cold-path sync runs
        let _ = epoch_obs();
        let node = Box::into_raw(Box::new(EpochNode { pins: AtomicU64::new(0), epoch: initial }));
        EpochCell {
            current: AtomicPtr::new(node),
            entering: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            published: AtomicU64::new(1),
            reclaimed: AtomicU64::new(0),
            pin_count: AtomicU64::new(0),
            pins_synced: AtomicU64::new(0),
        }
    }

    /// Pins the current epoch: the returned guard keeps that epoch alive
    /// (and bit-frozen) until dropped, no matter how many epochs the
    /// writer publishes meanwhile. Lock-free and wait-free modulo the
    /// guarantee that the writer swaps pointers rather than blocking.
    pub fn pin(&self) -> EpochPin<'_> {
        self.entering.fetch_add(1, Ordering::SeqCst);
        let node = self.current.load(Ordering::SeqCst);
        // Safety: `node` cannot have been freed — the collector frees a
        // node only after observing `entering == 0`, and our window opened
        // before the load above.
        unsafe { (*node).pins.fetch_add(1, Ordering::SeqCst) };
        self.entering.fetch_sub(1, Ordering::SeqCst);
        // `pin_count` is the only accounting this path pays — the global
        // `core_epoch_pins_total` counter is derived from it lazily by
        // `sync_pins`, so instrumentation adds zero atomics per read.
        self.pin_count.fetch_add(1, Ordering::Relaxed);
        EpochPin { cell: self, node }
    }

    /// Publishes `epoch` as current (one pointer swap — the only moment a
    /// reader's view of the world advances) and opportunistically reclaims
    /// drained predecessors. Writer-side; concurrent publishers serialize
    /// on the retired-list lock.
    pub fn publish(&self, epoch: ModelEpoch) {
        let lsn = epoch.lsn;
        let node = Box::into_raw(Box::new(EpochNode { pins: AtomicU64::new(0), epoch }));
        let mut retired = self.retired.lock().expect("epoch retired-list lock");
        let old = self.current.swap(node, Ordering::SeqCst);
        retired.push(old);
        self.published.fetch_add(1, Ordering::Relaxed);
        epoch_obs().published.inc();
        hazy_obs::emit(hazy_obs::EventKind::EpochPublish, lsn, 0, 0);
        self.collect_locked(&mut retired);
    }

    /// Attempts to reclaim drained retired epochs right now. Called
    /// automatically by [`publish`](EpochCell::publish); exposed so tests
    /// and long-idle writers can drain deterministically.
    pub fn try_collect(&self) {
        let mut retired = self.retired.lock().expect("epoch retired-list lock");
        self.collect_locked(&mut retired);
    }

    fn collect_locked(&self, retired: &mut Vec<*mut EpochNode>) {
        // A reader between its pointer load and pin increment could still
        // pin any retired node; defer until no reader is in that window.
        if self.entering.load(Ordering::SeqCst) != 0 {
            return;
        }
        let before = retired.len();
        retired.retain(|&node| {
            // Safety: retired nodes are owned by this list; `entering == 0`
            // was observed after retirement, so a zero pin count is final.
            let pinned = unsafe { (*node).pins.load(Ordering::SeqCst) } > 0;
            if !pinned {
                drop(unsafe { Box::from_raw(node) });
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
            }
            pinned
        });
        let freed = (before - retired.len()) as u64;
        if freed > 0 {
            epoch_obs().reclaimed.add(freed);
            hazy_obs::emit(hazy_obs::EventKind::EpochReclaim, freed, retired.len() as u64, 0);
        }
        epoch_obs().retired_live.set(retired.len() as f64);
        self.sync_pins();
    }

    /// The cumulative pin count as one relaxed load — the derivation
    /// source layered read metrics (e.g. the serving tier's per-shard
    /// read counters) sync from, so the read hot path itself carries no
    /// instrumentation atomics.
    pub fn pin_total(&self) -> u64 {
        self.pin_count.load(Ordering::Relaxed)
    }

    /// Folds pins taken since the last sync into the global
    /// `core_epoch_pins_total` counter. The pin path already maintains
    /// `pin_count` for [`EpochStats`], so the registry copy is pure
    /// derivation, refreshed here at the protocol's cold moments —
    /// publish/collect, [`stats`](EpochCell::stats), and drop. The
    /// `fetch_max` high-water mark makes concurrent syncs credit each
    /// pin exactly once.
    fn sync_pins(&self) {
        let total = self.pin_count.load(Ordering::Relaxed);
        let prev = self.pins_synced.fetch_max(total, Ordering::Relaxed);
        let delta = total.saturating_sub(prev);
        if delta > 0 {
            epoch_obs().pins.add(delta);
        }
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> EpochStats {
        self.sync_pins();
        EpochStats {
            published: self.published.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            pins: self.pin_count.load(Ordering::Relaxed),
            retired_live: self.retired.lock().expect("epoch retired-list lock").len() as u64,
        }
    }

    /// The LSN of the currently published epoch.
    pub fn current_lsn(&self) -> u64 {
        self.pin().lsn()
    }
}

impl Drop for EpochCell {
    fn drop(&mut self) {
        // the last chance to credit pins a read-only lifetime accumulated
        self.sync_pins();
        // `&mut self` proves no pins are outstanding (every `EpochPin`
        // borrows the cell), so everything can be freed unconditionally.
        let retired = self.retired.get_mut().expect("epoch retired-list lock");
        for node in retired.drain(..) {
            drop(unsafe { Box::from_raw(node) });
        }
        let current = self.current.load(Ordering::SeqCst);
        if !current.is_null() {
            self.current.store(ptr::null_mut(), Ordering::SeqCst);
            drop(unsafe { Box::from_raw(current) });
        }
    }
}

/// A pinned epoch: dereferences to the [`ModelEpoch`] that was current at
/// pin time and keeps it alive until dropped.
pub struct EpochPin<'a> {
    cell: &'a EpochCell,
    node: *mut EpochNode,
}

impl Deref for EpochPin<'_> {
    type Target = ModelEpoch;

    fn deref(&self) -> &ModelEpoch {
        // Safety: the pin count taken in `pin` keeps the node allocated.
        unsafe { &(*self.node).epoch }
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        // Safety: the node outlives the pin (its count is still raised).
        unsafe { (*self.node).pins.fetch_sub(1, Ordering::SeqCst) };
        let _ = self.cell;
    }
}

/// How many overlay entries the publisher tolerates before rebasing
/// relative to the base population (¼ of it, floored at this constant).
const REBASE_FLOOR: usize = 64;

/// The writer-side half of snapshot reads: owns the mutable overlay state,
/// folds every logical write into it (using the watermark band to touch
/// only tuples that can have flipped), and publishes an immutable
/// [`ModelEpoch`] into its [`EpochCell`] after each operation.
///
/// Exactly one publisher exists per cell; it is driven by whoever already
/// holds the single-writer role (a [`PublishedView`]'s write verbs in
/// product code, a test harness's writer actor), so its methods take
/// `&mut self` and need no internal synchronization beyond the cell's
/// publication protocol.
pub struct EpochPublisher {
    cell: Arc<EpochCell>,
    base: Arc<EpochBase>,
    /// Running watermark band over the base's frozen model. Always
    /// [`WatermarkPolicy::Monotone`]: the band must only grow, so a tuple
    /// that flipped stays inside it and keeps being re-scored until the
    /// next rebase.
    marks: WaterMarks,
    pair: NormPair,
    flips: HashMap<u32, Label>,
    added: BTreeMap<u64, (Arc<Entity>, Label)>,
    removed: HashSet<u64>,
    model: LinearModel,
    positive: u64,
    lsn: u64,
    rebases: u64,
}

impl EpochPublisher {
    /// Builds the initial base from `entities` under `model` and publishes
    /// epoch `start_lsn`. Entities need not be sorted; ids must be unique.
    pub fn new(
        mut entities: Vec<Entity>,
        model: LinearModel,
        pair: NormPair,
        start_lsn: u64,
    ) -> EpochPublisher {
        entities.sort_unstable_by_key(|e| e.id);
        let (base, positive, m_norm) = EpochBase::build(entities, &model, pair);
        let base = Arc::new(base);
        let marks = WaterMarks::new(model.clone(), pair, m_norm, WatermarkPolicy::Monotone);
        EpochPublisher {
            cell: Arc::new(EpochCell::new(ModelEpoch {
                lsn: start_lsn,
                model: model.clone(),
                base: Arc::clone(&base),
                flips: HashMap::new(),
                added: BTreeMap::new(),
                removed: HashSet::new(),
                positive,
            })),
            base,
            marks,
            pair,
            flips: HashMap::new(),
            added: BTreeMap::new(),
            removed: HashSet::new(),
            model,
            positive,
            lsn: start_lsn,
            rebases: 0,
        }
    }

    /// The shared publication cell readers pin.
    pub fn handle(&self) -> Arc<EpochCell> {
        Arc::clone(&self.cell)
    }

    /// The LSN of the most recently published epoch.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// How many times the overlay has been folded into a fresh base.
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// Folds in a model round: the view applied one update statement (one
    /// or more SGD steps) and now serves `model`. Grows the watermark band
    /// and re-scores exactly the base tuples inside it plus the dynamic
    /// inserts — everything else provably kept its label (Lemma 3.1).
    pub fn apply_update(&mut self, model: &LinearModel) {
        self.model = model.clone();
        self.marks.observe(model);
        let (lw, hw) = (self.marks.low(), self.marks.high());
        // the band in eps order: tuples with lw < eps < hw
        let lo = self.base.by_eps.partition_point(|&i| self.base.eps[i as usize] <= lw);
        let hi = self.base.by_eps.partition_point(|&i| self.base.eps[i as usize] < hw);
        for k in lo..hi {
            let i = self.base.by_eps[k];
            let e = &self.base.entities[i as usize];
            if self.removed.contains(&e.id) {
                continue;
            }
            let old = self.flips.get(&i).copied().unwrap_or(self.base.labels[i as usize]);
            let new = self.model.predict(&e.f);
            if new != old {
                if new > 0 {
                    self.positive += 1;
                } else {
                    self.positive -= 1;
                }
                if new == self.base.labels[i as usize] {
                    self.flips.remove(&i);
                } else {
                    self.flips.insert(i, new);
                }
            }
        }
        let mut delta = 0i64;
        for (e, l) in self.added.values_mut() {
            let new = self.model.predict(&e.f);
            if new != *l {
                delta += if new > 0 { 1 } else { -1 };
                *l = new;
            }
        }
        self.positive = (self.positive as i64 + delta) as u64;
        self.step();
    }

    /// Folds in a dynamic insert, classified under the current model. An
    /// id that is already live is replaced (retract + insert), matching
    /// the dataflow layer's set semantics.
    pub fn apply_insert(&mut self, e: Entity) {
        let label = self.model.predict(&e.f);
        if let Some((_, old)) = self.added.remove(&e.id) {
            self.positive -= u64::from(old > 0);
        } else if let Some(i) = self.base.idx_of(e.id) {
            if self.removed.insert(e.id) {
                let old = self.flips.get(&(i as u32)).copied().unwrap_or(self.base.labels[i]);
                self.positive -= u64::from(old > 0);
            }
        }
        self.positive += u64::from(label > 0);
        self.added.insert(e.id, (Arc::new(e), label));
        self.step();
    }

    /// Folds in a retraction; `true` when the entity was live. A miss
    /// still advances the LSN and publishes — the logical operation
    /// happened, it just had nothing to retract (idempotent replay).
    pub fn apply_remove(&mut self, id: u64) -> bool {
        let hit = if let Some((_, l)) = self.added.remove(&id) {
            self.positive -= u64::from(l > 0);
            true
        } else if let Some(i) = self.base.idx_of(id) {
            if self.removed.insert(id) {
                let old = self.flips.get(&(i as u32)).copied().unwrap_or(self.base.labels[i]);
                self.positive -= u64::from(old > 0);
                true
            } else {
                false
            }
        } else {
            false
        };
        self.step();
        hit
    }

    /// Folds in a reorganization: the view reclustered, so the epoch base
    /// rebases too — the overlay collapses into a fresh base frozen at the
    /// current model (band back to zero width).
    pub fn apply_reorganize(&mut self) {
        self.rebase();
        self.lsn += 1;
        self.publish_now();
    }

    /// Advances the LSN and republishes without changing any answer — for
    /// logical operations that cannot move labels (reads driving lazy
    /// maintenance, architecture migrations, checkpoints) so the epoch
    /// stream stays in lockstep with the operation stream.
    pub fn apply_noop(&mut self) {
        self.lsn += 1;
        self.publish_now();
    }

    fn step(&mut self) {
        if self.flips.len() + self.added.len() + self.removed.len()
            > REBASE_FLOOR.max(self.base.entities.len() / 4)
        {
            self.rebase();
        }
        self.lsn += 1;
        self.publish_now();
    }

    fn rebase(&mut self) {
        let mut live = Vec::with_capacity(
            self.base.entities.len() - self.removed.len() + self.added.len(),
        );
        let mut add = self.added.iter().peekable();
        for e in &self.base.entities {
            while let Some((&aid, (ae, _))) = add.peek() {
                if aid >= e.id {
                    break;
                }
                live.push(Entity::clone(ae));
                add.next();
            }
            if !self.removed.contains(&e.id) {
                live.push(e.clone());
            }
        }
        for (_, (ae, _)) in add {
            live.push(Entity::clone(ae));
        }
        let (base, positive, m_norm) = EpochBase::build(live, &self.model, self.pair);
        self.base = Arc::new(base);
        self.marks =
            WaterMarks::new(self.model.clone(), self.pair, m_norm, WatermarkPolicy::Monotone);
        self.flips.clear();
        self.added.clear();
        self.removed.clear();
        self.positive = positive;
        self.rebases += 1;
        epoch_obs().rebases.inc();
        hazy_obs::emit(hazy_obs::EventKind::EpochRebase, self.lsn, 0, 0);
    }

    fn publish_now(&self) {
        self.cell.publish(ModelEpoch {
            lsn: self.lsn,
            model: self.model.clone(),
            base: Arc::clone(&self.base),
            flips: self.flips.clone(),
            added: self.added.clone(),
            removed: self.removed.clone(),
            positive: self.positive,
        });
    }
}

/// An engine paired with its [`EpochPublisher`]: the one place that knows
/// when and how an engine write becomes a readable epoch.
///
/// Built once from the engine's [`ClassifierView::snapshot_state`]; from
/// then on every write verb forwards to the engine and folds the same
/// operation into the publisher, so the engine and the epoch stream are in
/// lockstep by construction — the LSN readers see ticks exactly once per
/// engine operation. There is deliberately no `engine_mut`: the only
/// `&mut` routes to the engine are the verbs below and the read forwards,
/// which may drive lazy maintenance but cannot move an answer.
///
/// `E` is any owning pointer to an engine (a boxed
/// [`DurableClassifierView`], a `Box<DurableView>`). Callers that share
/// the pair put it behind their writer lock and hand the
/// [`cell`](Self::cell) to readers.
pub struct PublishedView<E> {
    engine: E,
    publisher: EpochPublisher,
}

impl<E> PublishedView<E>
where
    E: DerefMut,
    E::Target: ClassifierView,
{
    /// Publishes `engine`'s current answer state as epoch `start_lsn`.
    /// `pair` must be the view's real Hölder pair — it sizes the
    /// watermark band every later [`update`](Self::update) re-scores.
    ///
    /// # Panics
    /// Panics when the engine has no snapshot path (every architecture
    /// and every wrapper in the workspace has one).
    pub fn new(mut engine: E, pair: NormPair, start_lsn: u64) -> PublishedView<E> {
        let (entities, model) =
            engine.snapshot_state().expect("engine has no snapshot path for epoch publication");
        PublishedView { engine, publisher: EpochPublisher::new(entities, model, pair, start_lsn) }
    }

    /// The publication cell readers pin (clone it to outlive the borrow).
    pub fn cell(&self) -> &Arc<EpochCell> {
        &self.publisher.cell
    }

    /// Shared access to the engine: statistics, model, clock, checkpoint
    /// serialization — nothing that can move an answer.
    pub fn engine(&self) -> &E::Target {
        &self.engine
    }

    /// Unwraps the engine; the epoch stream ends here (pins already taken
    /// stay valid through their own `Arc` of the cell).
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// [`ClassifierView::update`], published.
    pub fn update(&mut self, ex: &TrainingExample) {
        self.update_batch(std::slice::from_ref(ex));
    }

    /// [`ClassifierView::update_batch`], published as one epoch for the
    /// statement. An empty batch is not an operation.
    pub fn update_batch(&mut self, batch: &[TrainingExample]) {
        if batch.is_empty() {
            return;
        }
        self.engine.update_batch(batch);
        self.publisher.apply_update(self.engine.model());
    }

    /// [`ClassifierView::insert_entity`], published.
    pub fn insert_entity(&mut self, e: Entity) {
        self.engine.insert_entity(e.clone());
        self.publisher.apply_insert(e);
    }

    /// [`ClassifierView::remove_entity`], published (a miss still ticks —
    /// the logical operation happened).
    pub fn remove_entity(&mut self, id: u64) -> bool {
        let hit = self.engine.remove_entity(id);
        self.publisher.apply_remove(id);
        hit
    }

    /// [`ClassifierView::reorganize`]; the epoch base rebases with it.
    pub fn reorganize(&mut self) {
        self.engine.reorganize();
        self.publisher.apply_reorganize();
    }

    /// [`ClassifierView::set_architecture`]. A migration preserves every
    /// answer bit for bit, so an accepted one only ticks the LSN; a
    /// rejected one is not an operation.
    pub fn set_architecture(&mut self, arch: Architecture, mode: Mode) -> bool {
        let ok = self.engine.set_architecture(arch, mode);
        if ok {
            self.publisher.apply_noop();
        }
        ok
    }

    /// Engine-direct [`ClassifierView::read_single`] (may drive lazy
    /// maintenance; never ticks — a read cannot move an answer).
    pub fn read_single(&mut self, id: u64) -> Option<Label> {
        self.engine.read_single(id)
    }

    /// Engine-direct [`ClassifierView::count_positive`].
    pub fn count_positive(&mut self) -> u64 {
        self.engine.count_positive()
    }

    /// Engine-direct [`ClassifierView::positive_ids`].
    pub fn positive_ids(&mut self) -> Vec<u64> {
        self.engine.positive_ids()
    }

    /// Engine-direct [`ClassifierView::top_k`].
    pub fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        self.engine.top_k(k)
    }

    /// Engine-direct [`ClassifierView::snapshot_state`] — for wrappers
    /// whose own `snapshot_state` concatenates their parts'.
    pub fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        self.engine.snapshot_state()
    }
}

impl PublishedView<Box<dyn DurableClassifierView + Send>> {
    /// Applies one logged redo record — the replay path crash recovery
    /// uses, here fed with shipped WAL frames — and advances the epoch
    /// stream by exactly one LSN, whatever the record was: write records
    /// fold into the overlay; logged reads and migrations run against the
    /// engine for their maintenance side effects and tick as no-ops.
    /// `None` on an undecodable record (nothing is published).
    pub fn replay_record(&mut self, kind: u8, payload: &[u8]) -> Option<()> {
        match apply_record(self.engine.as_mut(), kind, payload)? {
            Replayed::Update => self.publisher.apply_update(self.engine.model()),
            Replayed::Insert(e) => self.publisher.apply_insert(e),
            Replayed::Remove(id) => {
                self.publisher.apply_remove(id);
            }
            Replayed::Reorganize => self.publisher.apply_reorganize(),
            Replayed::Unchanged => self.publisher.apply_noop(),
        }
        Some(())
    }
}

impl PublishedView<Box<DurableView>> {
    /// [`DurableView::checkpoint`] — needs `&mut` on the wrapper but
    /// serializes the engine only, so no epoch is published.
    pub fn checkpoint(&mut self) {
        self.engine.checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_linalg::FeatureVec;

    const _: () = {
        const fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<EpochCell>();
        assert_sync_send::<ModelEpoch>();
    };

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![(k % 7) as f32 / 7.0 - 0.4, (k % 5) as f32 / 5.0 - 0.3]),
                )
            })
            .collect()
    }

    fn model(w: Vec<f64>, b: f64) -> LinearModel {
        LinearModel::from_parts(w, b)
    }

    #[test]
    fn initial_epoch_answers_match_direct_scoring() {
        let es = entities(40);
        let m = model(vec![1.0, -0.5], 0.1);
        let p = EpochPublisher::new(es.clone(), m.clone(), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        let pin = cell.pin();
        assert_eq!(pin.lsn(), 0);
        assert_eq!(pin.entity_count(), 40);
        let want: Vec<u64> = es.iter().filter(|e| m.predict(&e.f) > 0).map(|e| e.id).collect();
        assert_eq!(pin.positive_ids(), want);
        assert_eq!(pin.count_positive(), want.len() as u64);
        for e in &es {
            assert_eq!(pin.classify(e.id), Some(m.predict(&e.f)));
        }
        assert_eq!(pin.classify(999), None);
    }

    #[test]
    fn pinned_epoch_is_immutable_while_writer_advances() {
        let es = entities(30);
        let m0 = model(vec![0.4, 0.4], 0.0);
        let mut p = EpochPublisher::new(es, m0, NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        let pin = cell.pin();
        let before = (pin.count_positive(), pin.positive_ids(), pin.top_k(5));
        // writer moves the model far enough to flip labels, inserts, removes
        p.apply_update(&model(vec![-2.0, -2.0], -1.0));
        p.apply_insert(Entity::new(500, FeatureVec::dense(vec![1.0, 1.0])));
        p.apply_remove(3);
        p.apply_reorganize();
        assert_eq!(pin.count_positive(), before.0, "pinned count changed");
        assert_eq!(pin.positive_ids(), before.1, "pinned listing changed");
        assert_eq!(pin.top_k(5), before.2, "pinned ranking changed");
        // a fresh pin sees the new world
        let now = cell.pin();
        assert_eq!(now.lsn(), 4);
        assert_eq!(now.classify(3), None);
        assert_eq!(now.classify(500), Some(-1));
    }

    #[test]
    fn overlay_updates_track_full_rescoring() {
        let es = entities(60);
        let mut p =
            EpochPublisher::new(es.clone(), model(vec![0.3, -0.2], 0.0), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        let mut live: Vec<Entity> = es;
        let steps: Vec<LinearModel> = (0..12)
            .map(|k| {
                let t = k as f64 * 0.15;
                model(vec![0.3 - t, -0.2 + t / 2.0], 0.05 * t)
            })
            .collect();
        for (k, cur) in steps.into_iter().enumerate() {
            p.apply_update(&cur);
            if k % 3 == 0 {
                let e = Entity::new(
                    1000 + k as u64,
                    FeatureVec::dense(vec![k as f32 / 12.0 - 0.5, 0.2]),
                );
                live.push(e.clone());
                p.apply_insert(e);
            }
            if k == 7 {
                live.retain(|e| e.id != 11);
                p.apply_remove(11);
            }
            let pin = cell.pin();
            let mut want: Vec<u64> =
                live.iter().filter(|e| cur.predict(&e.f) > 0).map(|e| e.id).collect();
            want.sort_unstable();
            assert_eq!(pin.positive_ids(), want, "step {k}");
            assert_eq!(pin.count_positive(), want.len() as u64, "step {k}");
            for e in &live {
                assert_eq!(pin.classify(e.id), Some(cur.predict(&e.f)), "step {k} id {}", e.id);
            }
        }
    }

    #[test]
    fn reclamation_waits_for_pin_drain() {
        let mut p =
            EpochPublisher::new(entities(5), model(vec![1.0, 0.0], 0.0), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        let pin = cell.pin();
        let pinned_lsn = pin.lsn();
        for _ in 0..10 {
            p.apply_noop();
        }
        cell.try_collect();
        let s = cell.stats();
        assert!(s.retired_live >= 1, "pinned epoch was drained from the retired list: {s:?}");
        assert_eq!(pin.lsn(), pinned_lsn, "pinned epoch mutated under publication");
        drop(pin);
        cell.try_collect();
        let s = cell.stats();
        assert_eq!(s.retired_live, 0, "drained epoch not reclaimed: {s:?}");
        // everything retired is reclaimed; only the current epoch lives
        assert_eq!(s.published, s.reclaimed + 1, "{s:?}");
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut p =
            EpochPublisher::new(entities(10), model(vec![1.0, 1.0], -0.1), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        assert!(p.apply_remove(4));
        assert_eq!(cell.pin().classify(4), None);
        assert!(!p.apply_remove(4), "double remove must miss");
        p.apply_insert(Entity::new(4, FeatureVec::dense(vec![5.0, 5.0])));
        assert_eq!(cell.pin().classify(4), Some(1));
        let ids = cell.pin().positive_ids();
        assert_eq!(ids.iter().filter(|&&i| i == 4).count(), 1, "duplicate id in listing: {ids:?}");
    }

    #[test]
    fn rebase_preserves_answers() {
        let mut p =
            EpochPublisher::new(entities(16), model(vec![0.2, 0.2], 0.0), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        // enough inserts to blow the overlay budget and force a rebase
        for k in 0..(REBASE_FLOOR as u64 + 20) {
            p.apply_insert(Entity::new(
                2_000 + k,
                FeatureVec::dense(vec![(k % 9) as f32 / 9.0 - 0.5, 0.1]),
            ));
        }
        assert!(p.rebases() > 0, "overlay never rebased");
        let pre = cell.pin();
        let (count, ids) = (pre.count_positive(), pre.positive_ids());
        p.apply_reorganize();
        let pin = cell.pin();
        assert_eq!(pin.entity_count(), 16 + REBASE_FLOOR as u64 + 20);
        assert_eq!(pin.count_positive(), count);
        assert_eq!(pin.positive_ids(), ids);
        assert_eq!(pin.overlay_len(), 0, "explicit rebase should empty the overlay");
    }
}
