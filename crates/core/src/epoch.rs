//! Epoch-based snapshot reads: immutable [`ModelEpoch`]s published by the
//! single writer, pinned by any number of readers, reclaimed when drained.
//!
//! The writer-priority shard locks of the serving layer stall every reader
//! of a shard for the length of a maintenance round — the read path the
//! paper's incremental maintenance exists to serve is blocked by that very
//! maintenance. This module removes readers from the lock protocol
//! entirely:
//!
//! * [`ModelEpoch`] — an immutable answer state in three [`Arc`]-shared
//!   layers: the model bits; a **population** (the id-sorted entities,
//!   feature payloads and all, rebuilt only when inserts and retractions
//!   pile up); a **scoring** of that population under a frozen model
//!   (`eps`, labels, the `eps`-sorted permutation — 13 bytes an entity);
//!   and a **compact overlay** recording everything that changed since —
//!   label flips found inside the watermark band, dynamic inserts,
//!   retractions. Every read (`classify`, `count_positive`,
//!   `positive_ids`, `top_k`) is answered entirely from one epoch,
//!   bit-identically to the live architectures (all of which serve pure
//!   functions of *population × model* — the observational equivalence
//!   the core test suites enforce).
//!
//!   Ranked reads prune by the same lemma. Each epoch carries the
//!   publisher's low water `lw` (0 right after a re-score), which bounds
//!   every population tuple's current margin by `eps − lw`. `top_k(k)`
//!   scores the overlay's inserts exactly, then walks the `eps` order from
//!   the top, scoring each tuple exactly. It stops at the first tuple whose
//!   bound lies below the k-th kept margin by more than a `1e-9` relative
//!   slack (room for the rounding of two dot products). That costs
//!   O(k + |inserts| + tuples within a band-width of the k-th margin)
//!   margins, not one per entity. The `core_epoch_topk_total` and
//!   `core_epoch_topk_scored_total` counters show the ratio.
//! * [`EpochPublisher`] — the writer-side maintenance of that overlay,
//!   run by the paper's own strategy. After a model round it re-scores
//!   **only** the tuples whose frozen `eps` falls inside the running
//!   watermark band (Lemma 3.1: nothing outside the band can have
//!   flipped). The band only widens, so each walk's cost is charged — in
//!   deterministic operation counts, never wall time — to a [`Skiing`]
//!   controller, and once the accumulated waste reaches `α·S` the round
//!   re-scores the shared population under the current model instead
//!   (§3.2.1; Lemma 3.2 bounds the total at `1 + σ + α` times the best
//!   schedule): band back to zero width, no feature payload copied. The
//!   band's width needs only an upper bound on the drift `‖w − w(s)‖_p`,
//!   and the publisher keeps one the way the engines do: a
//!   [`DeltaTracker`] fed each SGD step the engine reports, O(nnz) a step,
//!   reset at every re-score. The exact O(d) norm is left for rounds that
//!   arrive without their steps (a bare
//!   [`apply_update`](EpochPublisher::apply_update)); the
//!   `core_epoch_exact_drift_total` counter counts them.
//! * [`EpochCell`] — the publication point: an `RwLock<Arc<_>>` whose
//!   write guard is held only to swap in an epoch the writer has already
//!   built, so the worst-case read stall during a full reorganization is
//!   one pointer swap. A pin is an `Arc` clone under the read guard, and
//!   reclamation is the `Arc`'s: an epoch is freed by whoever drops its
//!   last reference — the writer at publish, or the last reader to unpin
//!   it.
//!
//! * [`PublishedView`] — an engine and its publisher as one value: the
//!   only way product code publishes. Its write verbs apply an operation
//!   to the engine and fold the same operation into the epoch stream, so
//!   the serving shards, the SQL catalog and the replicas all get "engine
//!   and epochs in lockstep, one LSN tick per operation" by construction.
//!
//! Readers never wait for a maintenance round — the one lock they share
//! with the writer guards a pointer swap; writers keep synchronizing with
//! each other (and with control-plane fan-outs) on the shard mutexes,
//! which is why the serving layer's locks shrink to writer–writer only.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use hazy_learn::{sign, Label, LinearModel, StepInfo, TrainingExample};
use hazy_linalg::NormPair;
use hazy_storage::sort_ops;

use crate::cost::classify_cost;
use crate::durable::{apply_record, DurableClassifierView, DurableView, Replayed};
use crate::entity::Entity;
use crate::skiing::Skiing;
use crate::view::{bounded_top_k, Architecture, ClassifierView, Mode};
use crate::watermark::{DeltaTracker, WaterMarks, WatermarkPolicy};

/// Global epoch-lifecycle metrics: every [`EpochCell`] in the process
/// (one per shard per view) reports into the same counters, giving an
/// operator aggregate GC pressure at a glance.
///
/// `pins` is *derived*, not recorded on the hot path: the pin path
/// already maintains a per-cell `pin_count` for [`EpochStats`], and
/// `Ledger::sync_pins` folds its delta into the registry whenever an
/// epoch is reclaimed (which includes the cell's drop) and at
/// [`EpochCell::stats`]. A pinned read therefore costs exactly what it
/// cost before instrumentation existed.
struct EpochObs {
    pins: &'static hazy_obs::Counter,
    published: &'static hazy_obs::Counter,
    reclaimed: &'static hazy_obs::Counter,
    rebases: &'static hazy_obs::Counter,
    /// Tuples inside the `[lw, hw]` band at the last model round (Lemma 3.1).
    band_tuples: &'static hazy_obs::Gauge,
    /// Skiing's accumulated waste `a` and re-score cost `S`, in charged ops.
    skiing_waste: &'static hazy_obs::Gauge,
    skiing_s: &'static hazy_obs::Gauge,
    /// Ranked reads served from epochs, and the tuples they margin-scored
    /// (bumped once per read): the ratio is the bound pruning's reach.
    topk: &'static hazy_obs::Counter,
    topk_scored: &'static hazy_obs::Counter,
    /// Model rounds that bounded the drift with the exact O(d) norm instead
    /// of the O(nnz) [`DeltaTracker`] — zero on every product write path.
    exact_drift: &'static hazy_obs::Counter,
}

fn epoch_obs() -> &'static EpochObs {
    static OBS: std::sync::OnceLock<EpochObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| EpochObs {
        pins: hazy_obs::counter("core_epoch_pins_total"),
        published: hazy_obs::counter("core_epoch_published_total"),
        reclaimed: hazy_obs::counter("core_epoch_reclaimed_total"),
        rebases: hazy_obs::counter("core_epoch_rebases_total"),
        band_tuples: hazy_obs::gauge("core_epoch_band_tuples"),
        skiing_waste: hazy_obs::gauge("core_epoch_skiing_waste"),
        skiing_s: hazy_obs::gauge("core_epoch_skiing_s"),
        topk: hazy_obs::counter("core_epoch_topk_total"),
        topk_scored: hazy_obs::counter("core_epoch_topk_scored_total"),
        exact_drift: hazy_obs::counter("core_epoch_exact_drift_total"),
    })
}

/// The entities a run of epochs shares, in ascending id order (ids unique).
/// Holds every feature payload, so it is rebuilt only when inserts and
/// retractions outgrow the overlay — never because the model moved.
struct Population {
    entities: Vec<Entity>,
}

impl Population {
    /// Binary search by entity id.
    fn idx_of(&self, id: u64) -> Option<usize> {
        self.entities.binary_search_by_key(&id, |e| e.id).ok()
    }
}

/// A [`Population`] scored under the model frozen at the last re-score:
/// what a model round invalidates, and all a Skiing rebase rebuilds.
struct Scoring {
    /// `eps[i]` = margin of entity `i` under the frozen model.
    eps: Vec<f64>,
    /// `labels[i]` = `sign(eps[i])`.
    labels: Vec<Label>,
    /// Entity indices sorted by ascending `eps` — the clustering order a
    /// hazy architecture keeps physically, kept here logically so the
    /// publisher can walk exactly the watermark band.
    by_eps: Vec<u32>,
}

impl Scoring {
    /// Scores `pop` under `model` with one margin per entity and sorts
    /// `by_eps` — any permutation of the population's indices; the previous
    /// scoring's is nearly sorted already, which the run-adaptive stable
    /// sort exploits — by the new `eps`. Returns the scoring and its
    /// charged cost `S = Σ classify_cost + n·log₂n` (the sort as
    /// `VirtualClock::charge_sort` counts it).
    fn build(pop: &Population, model: &LinearModel, mut by_eps: Vec<u32>) -> (Scoring, u64) {
        let n = pop.entities.len();
        debug_assert_eq!(by_eps.len(), n, "by_eps must permute the population");
        let mut eps = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut ops = sort_ops(n as u64);
        for e in &pop.entities {
            let m = model.margin(&e.f);
            ops += classify_cost(&e.f);
            eps.push(m);
            labels.push(sign(m));
        }
        by_eps.sort_by(|&a, &b| eps[a as usize].total_cmp(&eps[b as usize]).then(a.cmp(&b)));
        (Scoring { eps, labels, by_eps }, ops)
    }
}

/// One immutable snapshot of a classification view's answers, published at
/// a logical sequence number. All read methods take `&self` and always
/// return the answers as of [`lsn`](ModelEpoch::lsn) — bit-identical to
/// what any live architecture would have served at that point, no matter
/// what the writer has done since.
pub struct ModelEpoch {
    lsn: u64,
    model: Arc<LinearModel>,
    pop: Arc<Population>,
    scoring: Arc<Scoring>,
    /// Label patches for population entities that flipped since the last
    /// re-score (index → current label). Compact: only band members can
    /// appear.
    flips: HashMap<u32, Label>,
    /// Entities inserted since the population was built, with their
    /// current labels. `Arc`-shared so publishing an epoch never copies
    /// feature payloads.
    added: BTreeMap<u64, (Arc<Entity>, Label)>,
    /// Population ids retracted since the population was built.
    removed: HashSet<u64>,
    positive: u64,
    /// The publisher's low water at publish: every population tuple's
    /// margin under `model` is at most `eps − lw` (Lemma 3.1). Zero right
    /// after a re-score, when `scoring` was built under `model` itself.
    lw: f64,
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
        (self.pop.entities.len() - self.removed.len() + self.added.len()) as u64
    }

    /// `Single Entity` read against the snapshot.
    pub fn classify(&self, id: u64) -> Option<Label> {
        if let Some((_, l)) = self.added.get(&id) {
            return Some(*l);
        }
        if self.removed.contains(&id) {
            return None;
        }
        let i = self.pop.idx_of(id)?;
        Some(self.flips.get(&(i as u32)).copied().unwrap_or(self.scoring.labels[i]))
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
        for (i, e) in self.pop.entities.iter().enumerate() {
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
            if self.flips.get(&(i as u32)).copied().unwrap_or(self.scoring.labels[i]) > 0 {
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
    /// ascending on ties — the same order under
    /// [`rank_order`](crate::rank_order) the engines' full scans select
    /// by, so merged per-shard epoch answers equal the unsharded listing bit
    /// for bit.
    ///
    /// Bound-pruned (Lemma 3.1): a population tuple stored at `eps` has a
    /// current margin of at most `eps − lw`. The overlay's inserts are
    /// scored exactly, then the population is walked down its `eps` order
    /// (retractions skipped), each tuple scored exactly, until the first
    /// whose bound lies below the k-th margin kept so far by more than a
    /// `1e-9` relative slack — no later tuple can rank. The cost is
    /// O(k + |added| + tuples within a band-width of the k-th margin)
    /// margins instead of one per entity, with buffers bounded by
    /// `min(k, entity_count)`: right after a re-score (`lw = 0`) about `k`,
    /// and at worst — a band as wide as the margin spread — the whole
    /// population, as before.
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let (pop, scoring, model) = (&*self.pop, &*self.scoring, &*self.model);
        let skip_removed = !self.removed.is_empty();
        let walk = scoring
            .by_eps
            .iter()
            .rev()
            .map(|&i| i as usize)
            .filter(|&i| !(skip_removed && self.removed.contains(&pop.entities[i].id)))
            .map(|i| (scoring.eps[i] - self.lw, i));
        let (ranked, scored) = bounded_top_k(
            self.added.iter().map(|(&id, (e, _))| (id, model.margin(&e.f))),
            walk,
            |i| (pop.entities[i].id, model.margin(&pop.entities[i].f)),
            k,
            self.entity_count() as usize,
        );
        let obs = epoch_obs();
        obs.topk.inc();
        obs.topk_scored.add(scored);
        ranked
    }

    /// The publisher's low water at publish (Lemma 3.1): every population
    /// tuple's margin under [`model`](Self::model) is at most its frozen
    /// `eps` minus this. Zero right after a re-score.
    pub fn low_water(&self) -> f64 {
        self.lw
    }

    /// Number of overlay entries (label patches + inserts + retractions) —
    /// how far this epoch has drifted from its frozen population and
    /// scoring.
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
    /// Superseded epochs whose storage has been reclaimed.
    pub reclaimed: u64,
    /// Reader pins taken over the cell's lifetime.
    pub pins: u64,
    /// Superseded epochs a pin still holds: `published − reclaimed − 1`.
    pub retired_live: u64,
}

/// The counters a cell and every epoch it published share, so that an
/// epoch's own `Drop` can report its reclamation — whichever thread drops
/// its last reference.
#[derive(Default)]
struct Ledger {
    published: AtomicU64,
    reclaimed: AtomicU64,
    pin_count: AtomicU64,
    /// High-water mark of `pin_count` already folded into the global
    /// `core_epoch_pins_total` counter (see [`Ledger::sync_pins`]).
    pins_synced: AtomicU64,
}

impl Ledger {
    /// Folds pins taken since the last sync into the global
    /// `core_epoch_pins_total` counter. The pin path already maintains
    /// `pin_count` for [`EpochStats`], so the registry copy is pure
    /// derivation, refreshed at cold moments — every reclamation (the
    /// cell's drop included) and [`EpochCell::stats`]. The `fetch_max`
    /// high-water mark makes concurrent syncs credit each pin exactly once.
    fn sync_pins(&self) {
        let total = self.pin_count.load(Ordering::Relaxed);
        let prev = self.pins_synced.fetch_max(total, Ordering::Relaxed);
        let delta = total.saturating_sub(prev);
        if delta > 0 {
            epoch_obs().pins.add(delta);
        }
    }
}

/// A published epoch, freed when its last `Arc` drops: the cell's, at the
/// publish that supersedes it, or a reader's, at unpin.
struct EpochNode {
    ledger: Arc<Ledger>,
    epoch: ModelEpoch,
}

impl Drop for EpochNode {
    fn drop(&mut self) {
        // Release pairs with the Acquire load in `EpochCell::stats`: the
        // publish that superseded this node was counted before its swap,
        // so a `stats` call that sees this reclaim sees that publish too
        self.ledger.reclaimed.fetch_add(1, Ordering::Release);
        epoch_obs().reclaimed.inc();
        self.ledger.sync_pins();
    }
}

/// The publication point readers and the writer share: the current
/// [`ModelEpoch`] behind an `RwLock<Arc<_>>`.
///
/// Readers call [`pin`](EpochCell::pin) — an `Arc` clone under the read
/// guard. The writer calls [`publish`](EpochCell::publish), which builds
/// the new epoch's `Arc` first and holds the write guard only to swap it
/// in, so a reader never waits on a maintenance round — at most on one
/// pointer swap.
///
/// # Reclamation
///
/// Reclamation is the `Arc` reference count: the cell holds one reference
/// to the current epoch and every pin one more, so an epoch is freed by
/// whoever drops its last reference — the writer right after the swap
/// (outside the guard), or the last reader to unpin it. A poisoned lock is
/// recovered rather than propagated: the only write under the guard is a
/// whole-`Arc` swap, which cannot be left half done.
pub struct EpochCell {
    current: RwLock<Arc<EpochNode>>,
    ledger: Arc<Ledger>,
}

impl EpochCell {
    fn new(initial: ModelEpoch) -> EpochCell {
        // register the lifecycle metrics up front so scrape surfaces list
        // them (at zero) before the first cold-path sync runs
        let _ = epoch_obs();
        let ledger = Arc::new(Ledger { published: AtomicU64::new(1), ..Ledger::default() });
        let node = EpochNode { ledger: Arc::clone(&ledger), epoch: initial };
        EpochCell { current: RwLock::new(Arc::new(node)), ledger }
    }

    /// Pins the current epoch: the returned guard keeps that epoch alive
    /// (and bit-frozen) until dropped, no matter how many epochs the
    /// writer publishes meanwhile. The read guard is held for one `Arc`
    /// clone, and a writer holds the write guard for one pointer swap.
    pub fn pin(&self) -> EpochPin<'_> {
        let node = Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner));
        // `pin_count` is the only accounting this path pays — the global
        // `core_epoch_pins_total` counter is derived from it lazily by
        // `sync_pins`, so instrumentation adds zero atomics per read.
        self.ledger.pin_count.fetch_add(1, Ordering::Relaxed);
        EpochPin { node, _cell: PhantomData }
    }

    /// Publishes `epoch` as current (one pointer swap — the only moment a
    /// reader's view of the world advances). The superseded epoch is freed
    /// here unless a pin still holds it. Writer-side; concurrent
    /// publishers serialize on the write guard.
    pub fn publish(&self, epoch: ModelEpoch) {
        let lsn = epoch.lsn;
        let node = Arc::new(EpochNode { ledger: Arc::clone(&self.ledger), epoch });
        // counted before the swap, so no superseded epoch can be reclaimed
        // before the publish that superseded it is counted
        self.ledger.published.fetch_add(1, Ordering::Relaxed);
        let old = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            node,
        );
        // the guard was released at the end of the statement above, so
        // freeing `old` holds up no reader
        drop(old);
        epoch_obs().published.inc();
        hazy_obs::emit(hazy_obs::EventKind::EpochPublish, lsn, 0, 0);
    }

    /// The cumulative pin count as one relaxed load — the derivation
    /// source layered read metrics (e.g. the serving tier's per-shard
    /// read counters) sync from, so the read hot path itself carries no
    /// instrumentation atomics.
    pub fn pin_total(&self) -> u64 {
        self.ledger.pin_count.load(Ordering::Relaxed)
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> EpochStats {
        let ledger = &self.ledger;
        ledger.sync_pins();
        // Acquire pairs with `EpochNode::drop`'s Release: every reclaim
        // read here brings the publish that superseded it, so
        // `published > reclaimed` and the subtraction cannot wrap
        let reclaimed = ledger.reclaimed.load(Ordering::Acquire);
        let published = ledger.published.load(Ordering::Relaxed);
        EpochStats {
            published,
            reclaimed,
            pins: ledger.pin_count.load(Ordering::Relaxed),
            retired_live: published - reclaimed - 1,
        }
    }

    /// The LSN of the currently published epoch.
    pub fn current_lsn(&self) -> u64 {
        self.pin().lsn()
    }
}

/// A pinned epoch: dereferences to the [`ModelEpoch`] that was current at
/// pin time and keeps it alive until dropped. The lifetime ties the pin
/// to the cell it was taken from.
pub struct EpochPin<'a> {
    node: Arc<EpochNode>,
    _cell: PhantomData<&'a EpochCell>,
}

impl Deref for EpochPin<'_> {
    type Target = ModelEpoch;

    fn deref(&self) -> &ModelEpoch {
        &self.node.epoch
    }
}

/// How many inserts and retractions the publisher tolerates before
/// folding them into a fresh population (¼ of it, floored at this
/// constant).
const REBASE_FLOOR: usize = 64;

/// The writer-side half of snapshot reads: owns the mutable overlay state,
/// folds every logical write into it (using the watermark band to touch
/// only tuples that can have flipped), and publishes an immutable
/// [`ModelEpoch`] into its [`EpochCell`] after each operation.
///
/// Two rules bound the overlay, each the one that witnesses its cost:
///
/// * **model drift** widens the band every walk re-scores and grows the
///   flip patches every publish copies. [`Skiing`] (α = 1) accumulates
///   that cost and, at `α·S`, spends `S` on re-scoring the population
///   under the current model (`rebase(false)`). Costs are operation counts
///   in the engine's own model ([`classify_cost`] per re-scored tuple,
///   `n·log₂n` for the sort, one per flip patch copied) on a ledger
///   of the publisher's own — never wall time, never the engine's
///   `VirtualClock` — so the rebase points of a script repeat exactly;
/// * **population change** (`added`, `removed`) is not something a
///   re-score shrinks, so it is never charged to Skiing; when it outgrows
///   `max(64, n/4)` the population itself is rebuilt and re-scored
///   (`rebase(true)`).
///
/// Exactly one publisher exists per cell; it is driven by whoever already
/// holds the single-writer role (a [`PublishedView`]'s write verbs in
/// product code, a test harness's writer actor), so its methods take
/// `&mut self` and need no internal synchronization beyond the cell's
/// publication protocol.
pub struct EpochPublisher {
    cell: Arc<EpochCell>,
    pop: Arc<Population>,
    scoring: Arc<Scoring>,
    /// Running watermark band over the scoring's frozen model (the `Arc`
    /// the re-scored epoch holds); also carries `M = max ‖f‖_q`, raised by
    /// inserts. Always [`WatermarkPolicy::Monotone`]: the band must only
    /// grow, so a tuple that flipped stays inside it and keeps being
    /// re-scored until the next re-score.
    marks: WaterMarks,
    /// Upper bound on the model's drift since the last re-score, folded
    /// from the engine's SGD steps in O(nnz) each. `None` once a round
    /// arrived without its steps — a bare [`apply_update`](Self::apply_update),
    /// or an engine that reported fewer steps than examples — until the
    /// next re-score restarts it; such rounds pay the exact O(d) norm.
    tracker: Option<DeltaTracker>,
    pair: NormPair,
    skiing: Skiing,
    /// Tuples inside the band at the last walk.
    band_tuples: u64,
    /// Current label of every population entity (`scoring.labels` patched
    /// with `flips`): the walk compares against this dense copy, so the
    /// hashed `flips` map — the patch set epochs publish — is touched only
    /// on an actual flip.
    labels_now: Vec<Label>,
    flips: HashMap<u32, Label>,
    added: BTreeMap<u64, (Arc<Entity>, Label)>,
    removed: HashSet<u64>,
    /// One chunk table per model round, shared with every epoch published
    /// under that model; the weight chunks the round's steps left untouched
    /// are shared with the engine, the marks and the earlier epochs too.
    model: Arc<LinearModel>,
    positive: u64,
    lsn: u64,
}

impl EpochPublisher {
    /// Scores `entities` under `model` and publishes epoch `start_lsn`.
    /// Entities need not be sorted; ids must be unique.
    pub fn new(
        mut entities: Vec<Entity>,
        model: LinearModel,
        pair: NormPair,
        start_lsn: u64,
    ) -> EpochPublisher {
        entities.sort_unstable_by_key(|e| e.id);
        debug_assert!(entities.windows(2).all(|w| w[0].id < w[1].id), "entity ids must be unique");
        let m_norm = entities.iter().map(|e| e.f.norm(pair.q)).fold(0.0f64, f64::max);
        let pop = Arc::new(Population { entities });
        let order = (0..pop.entities.len() as u32).collect();
        let (scoring, s) = Scoring::build(&pop, &model, order);
        let positive = scoring.labels.iter().filter(|&&l| l > 0).count() as u64;
        let model = Arc::new(model);
        let marks = WaterMarks::new(Arc::clone(&model), pair, m_norm, WatermarkPolicy::Monotone);
        let tracker = Some(DeltaTracker::new(&model, pair.p));
        let scoring = Arc::new(scoring);
        EpochPublisher {
            cell: Arc::new(EpochCell::new(ModelEpoch {
                lsn: start_lsn,
                model: Arc::clone(&model),
                pop: Arc::clone(&pop),
                scoring: Arc::clone(&scoring),
                flips: HashMap::new(),
                added: BTreeMap::new(),
                removed: HashSet::new(),
                positive,
                lw: 0.0,
            })),
            labels_now: scoring.labels.clone(),
            pop,
            scoring,
            marks,
            tracker,
            pair,
            skiing: Skiing::new(1.0, s as f64),
            band_tuples: 0,
            flips: HashMap::new(),
            added: BTreeMap::new(),
            removed: HashSet::new(),
            model,
            positive,
            lsn: start_lsn,
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

    /// How many times the publisher has re-scored: Skiing's rebases, the
    /// population rebuilds and the explicit reorganizations together.
    pub fn rebases(&self) -> u64 {
        self.skiing.reorgs()
    }

    /// The Skiing controller: accumulated waste, the charged cost `S` of
    /// the last re-score, and how many it has ordered (ablation tests).
    pub fn skiing(&self) -> &Skiing {
        &self.skiing
    }

    /// The [`DeltaTracker`]'s bound on `‖w − w(s)‖_p` against the model of
    /// the last re-score, or `None` while a round without its steps has
    /// left the tracker stale.
    pub fn drift_bound(&self) -> Option<f64> {
        self.tracker.as_ref().map(DeltaTracker::bound)
    }

    /// Folds in a model round: the view applied one update statement (one
    /// or more SGD steps) and now serves `model`. Figure 7's rule: when
    /// the accumulated waste has reached `α·S` the round re-scores the
    /// population; otherwise it grows the watermark band and re-scores
    /// exactly the tuples inside it plus the dynamic inserts — everything
    /// else provably kept its label (Lemma 3.1).
    ///
    /// Without the round's SGD steps the band is sized by the exact O(d)
    /// norm `‖w − w(s)‖_p`; [`PublishedView`] passes the steps instead.
    pub fn apply_update(&mut self, model: &LinearModel) {
        self.model_round(model, None);
    }

    /// [`apply_update`](Self::apply_update), with the `(example, step)`
    /// pairs of the round when the engine reported them.
    fn model_round(
        &mut self,
        model: &LinearModel,
        steps: Option<(&[TrainingExample], &[StepInfo])>,
    ) {
        self.lsn += 1;
        self.model = Arc::new(model.clone());
        // an empty population has a = 0 = S, and nothing to re-score
        if !self.pop.entities.is_empty() && self.skiing.should_reorganize() {
            self.rebase(false);
        } else {
            self.observe_drift(steps);
            self.band_walk();
        }
        let obs = epoch_obs();
        obs.band_tuples.set(self.band_tuples as f64);
        obs.skiing_waste.set(self.skiing.accumulated());
        obs.skiing_s.set(self.skiing.reorg_cost());
        self.step();
    }

    /// Widens the marks by the round's drift. With every step since the
    /// last re-score in hand the tracker's bound serves, O(nnz) a step;
    /// otherwise the exact O(d) norm does, and the tracker stays stale until
    /// the next re-score. Either bound is sound (Lemma 3.1), and every tuple
    /// in the band is re-scored exactly, so answers do not depend on which.
    fn observe_drift(&mut self, steps: Option<(&[TrainingExample], &[StepInfo])>) {
        match (&mut self.tracker, steps) {
            (Some(tracker), Some((batch, steps))) if steps.len() == batch.len() => {
                for (info, ex) in steps.iter().zip(batch) {
                    tracker.apply(info, &ex.f);
                }
                self.marks.observe_bounded(tracker.bound(), self.model.b);
            }
            _ => {
                self.tracker = None;
                self.marks.observe(&self.model);
                epoch_obs().exact_drift.inc();
            }
        }
    }

    /// The incremental step. Charged to Skiing: the band tuples it
    /// re-scores plus the flip patches publishing its result copies — the
    /// two costs a re-score resets to zero.
    fn band_walk(&mut self) {
        let (lw, hw) = (self.marks.low(), self.marks.high());
        let (pop, scoring, model) = (&*self.pop, &*self.scoring, &*self.model);
        // the band in eps order: tuples with lw < eps < hw. `hi` is sought
        // past `lo`: a zero-width band (lw == hw) over a tuple at exactly
        // that eps would otherwise put `hi` before `lo`
        let lo = scoring.by_eps.partition_point(|&i| scoring.eps[i as usize] <= lw);
        let hi = lo + scoring.by_eps[lo..].partition_point(|&i| scoring.eps[i as usize] < hw);
        self.band_tuples = (hi - lo) as u64;
        let skip_removed = !self.removed.is_empty();
        let mut ops = 0u64;
        for &i in &scoring.by_eps[lo..hi] {
            let e = &pop.entities[i as usize];
            if skip_removed && self.removed.contains(&e.id) {
                continue;
            }
            ops += classify_cost(&e.f);
            let new = model.predict(&e.f);
            if new != self.labels_now[i as usize] {
                self.labels_now[i as usize] = new;
                // a flip to ±1 moves the positive count by ±1
                self.positive = self.positive.wrapping_add_signed(new.into());
                if new == scoring.labels[i as usize] {
                    self.flips.remove(&i);
                } else {
                    self.flips.insert(i, new);
                }
            }
        }
        ops += self.flips.len() as u64;
        self.skiing.add_cost(ops as f64);
        self.rescore_added();
    }

    /// Re-labels the dynamic inserts under the current model (no frozen
    /// `eps` to prune by). Not charged to Skiing: a re-score sheds neither
    /// this work nor the copy of `added`/`removed` a publish makes — only
    /// a population rebuild does, and that has its own rule.
    fn rescore_added(&mut self) {
        for (e, l) in self.added.values_mut() {
            let new = self.model.predict(&e.f);
            if new != *l {
                self.positive = self.positive.wrapping_add_signed(new.into());
                *l = new;
            }
        }
    }

    /// Folds in a dynamic insert, classified under the current model. An
    /// id that is already live is replaced (retract + insert), matching
    /// the dataflow layer's set semantics.
    pub fn apply_insert(&mut self, e: Entity) {
        self.lsn += 1;
        let label = self.model.predict(&e.f);
        if let Some((_, old)) = self.added.remove(&e.id) {
            self.positive -= u64::from(old > 0);
        } else {
            self.retract_from_population(e.id);
        }
        self.positive += u64::from(label > 0);
        // the next population holds this entity, so M must cover it
        self.marks.raise_m(e.f.norm(self.pair.q));
        self.added.insert(e.id, (Arc::new(e), label));
        self.step();
    }

    /// Folds in a retraction; `true` when the entity was live. A miss
    /// still advances the LSN and publishes — the logical operation
    /// happened, it just had nothing to retract (idempotent replay).
    pub fn apply_remove(&mut self, id: u64) -> bool {
        self.lsn += 1;
        let hit = if let Some((_, l)) = self.added.remove(&id) {
            self.positive -= u64::from(l > 0);
            true
        } else {
            self.retract_from_population(id)
        };
        self.step();
        hit
    }

    /// Marks population entity `id` retracted; `true` when it was live.
    fn retract_from_population(&mut self, id: u64) -> bool {
        match self.pop.idx_of(id) {
            Some(i) if self.removed.insert(id) => {
                self.positive -= u64::from(self.labels_now[i] > 0);
                true
            }
            _ => false,
        }
    }

    /// Folds in a reorganization: the view reclustered, so the epochs
    /// rebase too — the whole overlay collapses into a fresh population
    /// scored under the current model (band back to zero width).
    pub fn apply_reorganize(&mut self) {
        self.lsn += 1;
        self.rebase(!(self.added.is_empty() && self.removed.is_empty()));
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

    /// Ends a write verb: rebuilds the population when inserts and
    /// retractions have outgrown the overlay, then publishes.
    fn step(&mut self) {
        if self.added.len() + self.removed.len() > REBASE_FLOOR.max(self.pop.entities.len() / 4) {
            self.rebase(true);
        }
        self.publish_now();
    }

    /// The reorganization Skiing pays `S` for: scores the population under
    /// the current model — one margin per entity, the sort started from
    /// the previous `eps` order — and resets flips, band, marks and drift
    /// tracker. With `fold_population` the inserts and retractions are
    /// merged into a fresh population first (the one step that copies
    /// feature payloads); without it they stay in the overlay and the
    /// population `Arc` is shared on.
    fn rebase(&mut self, fold_population: bool) {
        let order = if fold_population {
            self.fold_population();
            (0..self.pop.entities.len() as u32).collect()
        } else {
            self.rescore_added();
            self.scoring.by_eps.clone()
        };
        let (scoring, s) = Scoring::build(&self.pop, &self.model, order);
        self.labels_now.clone_from(&scoring.labels);
        self.scoring = Arc::new(scoring);
        self.flips.clear();
        let retracted = self.removed.iter().filter(|&&id| {
            let i = self.pop.idx_of(id).expect("a retracted id is a population id");
            self.labels_now[i] > 0
        });
        self.positive = (self.labels_now.iter().filter(|&&l| l > 0).count() - retracted.count()
            + self.added.values().filter(|(_, l)| *l > 0).count()) as u64;
        self.marks = WaterMarks::new(
            Arc::clone(&self.model),
            self.pair,
            self.marks.m_norm(),
            WatermarkPolicy::Monotone,
        );
        self.tracker = Some(DeltaTracker::new(&self.model, self.pair.p));
        self.skiing.reorganized(s as f64);
        epoch_obs().rebases.inc();
        hazy_obs::emit(hazy_obs::EventKind::EpochRebase, self.lsn, self.band_tuples, s);
        self.band_tuples = 0;
    }

    /// Merges `added` and `removed` into a fresh id-sorted population.
    /// Entity indices change, so only [`rebase`](Self::rebase) calls this.
    fn fold_population(&mut self) {
        let mut live = Vec::with_capacity(
            self.pop.entities.len() - self.removed.len() + self.added.len(),
        );
        let mut add = self.added.iter().peekable();
        for e in &self.pop.entities {
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
        self.pop = Arc::new(Population { entities: live });
        self.added.clear();
        self.removed.clear();
    }

    fn publish_now(&self) {
        self.cell.publish(ModelEpoch {
            lsn: self.lsn,
            model: Arc::clone(&self.model),
            pop: Arc::clone(&self.pop),
            scoring: Arc::clone(&self.scoring),
            flips: self.flips.clone(),
            added: self.added.clone(),
            removed: self.removed.clone(),
            positive: self.positive,
            // Monotone marks, widened by every round's drift and reset with
            // every re-score: a sound bound for `scoring` under `model`
            lw: self.marks.low(),
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

    /// The publisher: its LSN, rebase count, Skiing ledger and drift bound.
    pub fn publisher(&self) -> &EpochPublisher {
        &self.publisher
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
        self.update_batch_steps(batch, &mut Vec::new());
    }

    /// [`ClassifierView::update_batch_steps`], published: the steps the
    /// engine appends to `steps` also bound the round's drift for the
    /// publisher, so the round costs it O(nnz), not an O(d) norm.
    pub fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        if batch.is_empty() {
            return;
        }
        let from = steps.len();
        self.engine.update_batch_steps(batch, steps);
        self.publisher.model_round(self.engine.model(), Some((batch, &steps[from..])));
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
            Replayed::Update(batch, steps) => {
                self.publisher.model_round(self.engine.model(), Some((&batch, &steps)));
            }
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
        let s = cell.stats();
        assert!(s.retired_live >= 1, "pinned epoch was drained from the retired list: {s:?}");
        assert_eq!(pin.lsn(), pinned_lsn, "pinned epoch mutated under publication");
        drop(pin);
        let s = cell.stats();
        assert_eq!(s.retired_live, 0, "drained epoch not reclaimed: {s:?}");
        // everything retired is reclaimed; only the current epoch lives
        assert_eq!(s.published, s.reclaimed + 1, "{s:?}");
    }

    /// The last reader to unpin a superseded epoch frees it, with no later
    /// publish. Meanwhile a poller never sees more reclaims than
    /// superseded epochs: `published` is counted before the swap.
    #[test]
    fn last_unpin_reclaims_without_another_publish() {
        const N: u64 = 50;
        let mut p =
            EpochPublisher::new(entities(20), model(vec![1.0, 0.0], 0.0), NormPair::EUCLIDEAN, 0);
        let handle = p.handle();
        let cell: &EpochCell = &handle;
        let stop = &std::sync::atomic::AtomicBool::new(false);
        let (polling_tx, polling_rx) = std::sync::mpsc::channel();
        let mut polling_tx = Some(polling_tx);
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        // nothing asserts inside the scope until the poller is told to stop,
        // and each thread owns the sender the writer waits on, so a failure
        // cannot leave the scope waiting forever
        let (held, reader, after, poller) = std::thread::scope(|s| {
            let poller = s.spawn(move || loop {
                let es = cell.stats();
                assert!(es.published > es.reclaimed, "reclaimed ran ahead: {es:?}");
                if let Some(tx) = polling_tx.take() {
                    let _ = tx.send(());
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
            let reader = s.spawn(move || {
                let pin = cell.pin();
                let _ = pinned_tx.send(());
                let _ = release_rx.recv();
                assert_eq!(pin.lsn(), 0, "pinned epoch mutated under publication");
            });
            // publish only once the poller is polling and the reader pinned
            let _ = polling_rx.recv();
            let _ = pinned_rx.recv();
            for _ in 0..N {
                p.apply_noop();
            }
            let held = cell.stats();
            let _ = release_tx.send(());
            let reader = reader.join();
            let after = cell.stats();
            stop.store(true, Ordering::Relaxed);
            (held, reader, after, poller.join())
        });
        reader.expect("reader");
        poller.expect("poller");
        assert_eq!(held.retired_live, 1, "only the pinned epoch outlives its publish: {held:?}");
        assert_eq!(after.published, N + 1);
        assert_eq!(after.reclaimed, after.published - 1, "the unpin freed its epoch: {after:?}");
    }

    /// A round that moves nothing leaves a zero-width band (`lw == hw ==
    /// 0`); tuples frozen at exactly `eps == 0` must not cross the walk's
    /// bounds.
    #[test]
    fn zero_width_band_over_zero_margins() {
        let zero = LinearModel::zeros(2);
        let mut p = EpochPublisher::new(entities(4), zero.clone(), NormPair::EUCLIDEAN, 0);
        p.apply_update(&zero);
        let cell = p.handle();
        let pin = cell.pin();
        assert_eq!(pin.lsn(), 1);
        for e in entities(4) {
            assert_eq!(pin.classify(e.id), Some(zero.predict(&e.f)));
        }
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

    /// A Skiing rebase re-scores the population every epoch already
    /// shares; only a population change rebuilds it.
    #[test]
    fn skiing_rebase_shares_the_population() {
        let es = entities(200);
        let mut p =
            EpochPublisher::new(es.clone(), model(vec![0.3, -0.2], 0.0), NormPair::EUCLIDEAN, 0);
        let cell = p.handle();
        p.apply_insert(Entity::new(900, FeatureVec::dense(vec![0.2, -0.1])));
        p.apply_remove(5);
        let before = cell.pin();
        let mut cur = model(vec![0.3, -0.2], 0.0);
        for k in 1..=40 {
            let t = f64::from(k) * 0.05;
            cur = model(vec![0.3 - t, -0.2 + t], 0.02 * t);
            p.apply_update(&cur);
        }
        assert!(p.skiing().reorgs() >= 2, "drift never reached α·S: {:?}", p.skiing());
        let after = cell.pin();
        assert!(Arc::ptr_eq(&before.pop, &after.pop), "a Skiing rebase copied the population");
        assert!(!Arc::ptr_eq(&before.scoring, &after.scoring));
        assert_eq!((after.added.len(), after.removed.len()), (1, 1), "overlay must survive");
        assert_eq!(after.classify(5), None);
        for e in es.iter().filter(|e| e.id != 5) {
            assert_eq!(after.classify(e.id), Some(cur.predict(&e.f)), "id {}", e.id);
        }
        // an explicit reorganization folds the overlay into a new population
        p.apply_reorganize();
        let folded = cell.pin();
        assert!(!Arc::ptr_eq(&after.pop, &folded.pop));
        assert_eq!(folded.overlay_len(), 0);
        assert_eq!(folded.positive_ids(), after.positive_ids());
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
