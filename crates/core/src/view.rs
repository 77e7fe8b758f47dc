//! The common interface over all five architectures, and a builder.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hazy_learn::{Label, LinearModel, SgdConfig, SgdTrainer, StepInfo, TrainingExample};
use hazy_linalg::NormPair;
use hazy_storage::{BufferPool, CostModel, SimDisk, SimFs, VirtualClock, PAGE_SIZE};

use crate::cost::OpOverheads;
use crate::durable::{tag, CoreRestorer, DurableClassifierView, DurableView};
use crate::entity::Entity;
use crate::hazy_disk::HazyDiskView;
use crate::hazy_mem::HazyMemView;
use crate::hybrid::{HybridConfig, HybridView};
use crate::naive_disk::NaiveDiskView;
use crate::naive_mem::NaiveMemView;
use crate::stats::{MemoryFootprint, ViewStats};
use crate::store::{Row, Store};
use crate::watermark::WatermarkPolicy;

/// Eager (labels materialized on update) vs lazy (labels computed on read)
/// — Section 2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Maintain `V` after every update.
    Eager,
    /// Apply updates only in response to reads.
    Lazy,
}

impl Mode {
    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Eager => "eager",
            Mode::Lazy => "lazy",
        }
    }

    /// Stable one-byte wire tag for durable state.
    pub fn tag(self) -> u8 {
        match self {
            Mode::Eager => 0,
            Mode::Lazy => 1,
        }
    }

    /// Inverse of [`Mode::tag`].
    pub fn from_tag(t: u8) -> Option<Mode> {
        match t {
            0 => Some(Mode::Eager),
            1 => Some(Mode::Lazy),
            _ => None,
        }
    }
}

/// The five physical designs of Sections 2.2 / 3.5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Architecture {
    /// Materialized view in a heap file; full rescan per update.
    NaiveDisk,
    /// `H` clustered on eps with B+-tree + Skiing, on disk.
    HazyDisk,
    /// Naive strategy over an in-memory vector.
    NaiveMem,
    /// Hazy strategy over an in-memory sorted vector.
    HazyMem,
    /// On-disk Hazy plus in-memory ε-map and boundary buffer.
    Hybrid,
}

impl Architecture {
    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::NaiveDisk => "naive-od",
            Architecture::HazyDisk => "hazy-od",
            Architecture::NaiveMem => "naive-mm",
            Architecture::HazyMem => "hazy-mm",
            Architecture::Hybrid => "hybrid",
        }
    }

    /// Stable one-byte wire tag for durable state and WAL migration
    /// records. The values coincide with the checkpoint-blob architecture
    /// tags, so a blob's leading byte and an `ALTER ... SET ARCH` redo
    /// record speak the same dialect.
    pub fn tag(self) -> u8 {
        match self {
            Architecture::NaiveMem => 1,
            Architecture::HazyMem => 2,
            Architecture::NaiveDisk => 3,
            Architecture::HazyDisk => 4,
            Architecture::Hybrid => 5,
        }
    }

    /// Inverse of [`Architecture::tag`].
    pub fn from_tag(t: u8) -> Option<Architecture> {
        match t {
            1 => Some(Architecture::NaiveMem),
            2 => Some(Architecture::HazyMem),
            3 => Some(Architecture::NaiveDisk),
            4 => Some(Architecture::HazyDisk),
            5 => Some(Architecture::Hybrid),
            _ => None,
        }
    }

    /// All architectures, in the order the paper's tables list them.
    pub fn all() -> [Architecture; 5] {
        [
            Architecture::NaiveDisk,
            Architecture::HazyDisk,
            Architecture::Hybrid,
            Architecture::NaiveMem,
            Architecture::HazyMem,
        ]
    }
}

/// The total order of ranked reads: margin descending, ids ascending on
/// ties. Shared by every [`ClassifierView::top_k`] implementation and by
/// the cross-shard merge in `hazy-serve`, so a sharded deployment's merged
/// answer is bit-identical to the unsharded one.
pub fn rank_order(a: &(u64, f64), b: &(u64, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Keeps the best `k` of `scored` under [`rank_order`] and sorts them:
/// O(n) selection plus an O(k log k) sort. Every ranked read — the engines'
/// (through [`take_top_k`]) and a pinned epoch's — selects here, so they
/// agree bit for bit by construction.
pub(crate) fn select_top_k(mut scored: Vec<(u64, f64)>, k: usize) -> Vec<(u64, f64)> {
    if k == 0 {
        return Vec::new();
    }
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, rank_order);
        scored.truncate(k);
    }
    scored.sort_unstable_by(rank_order);
    scored
}

/// Relative slack of [`bounded_top_k`]'s stop rule. A bound and an exact
/// margin are both rounded dot products (≈ d·2⁻⁵³ relative error each), so a
/// bare `bound < kth` could drop a tuple whose computed margin ties the k-th
/// to the last ulp; stopping only `1e-9 · max(1, |bound|, |kth|)` below it
/// leaves several orders of magnitude of headroom at any realistic `d`.
const TOP_K_SLACK: f64 = 1e-9;

/// A kept candidate of [`bounded_top_k`], ordered by [`rank_order`]: the
/// heap's maximum is the worst-ranked of the `k` kept so far.
struct Kept((u64, f64));

impl PartialEq for Kept {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Kept {}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0, &other.0)
    }
}

/// The threshold walk of a bound-pruned ranked read. `exact` are candidates
/// already scored exactly; `walk` yields `(upper bound, key)` in
/// non-increasing bound order, and `score(key)` is that candidate's exact
/// `(id, margin)`. The best `k` under [`rank_order`] are kept in a heap of at
/// most `min(k, live)` entries (`live` bounds the candidate count), and the
/// walk stops at the first key whose bound lies more than [`TOP_K_SLACK`]
/// below the k-th kept margin — every later bound is lower still, so nothing
/// after it can rank. The kept set is then ordered by [`select_top_k`], so
/// the answer is bit-identical to a full scan. Returns the answer and the
/// number of candidates scored.
pub(crate) fn bounded_top_k<T>(
    exact: impl IntoIterator<Item = (u64, f64)>,
    walk: impl IntoIterator<Item = (f64, T)>,
    mut score: impl FnMut(T) -> (u64, f64),
    k: usize,
    live: usize,
) -> (Vec<(u64, f64)>, u64) {
    if k == 0 {
        return (Vec::new(), 0);
    }
    let mut kept = BinaryHeap::with_capacity(k.min(live));
    let keep = |kept: &mut BinaryHeap<Kept>, c: (u64, f64)| {
        if kept.len() < k {
            kept.push(Kept(c));
        } else if let Some(mut worst) = kept.peek_mut() {
            if rank_order(&c, &worst.0) == Ordering::Less {
                *worst = Kept(c);
            }
        }
    };
    let mut scored = 0u64;
    for c in exact {
        scored += 1;
        keep(&mut kept, c);
    }
    for (bound, key) in walk {
        if let Some(&Kept((_, kth))) = kept.peek().filter(|_| kept.len() == k) {
            if bound < kth - TOP_K_SLACK * bound.abs().max(kth.abs()).max(1.0) {
                break;
            }
        }
        scored += 1;
        keep(&mut kept, score(key));
    }
    let kept = kept.into_vec().into_iter().map(|c| c.0).collect();
    (select_top_k(kept, k), scored)
}

/// [`select_top_k`], charged to `clock` as what it is.
pub(crate) fn take_top_k(
    scored: Vec<(u64, f64)>,
    k: usize,
    clock: &VirtualClock,
) -> Vec<(u64, f64)> {
    if k > 0 {
        if k < scored.len() {
            clock.charge_cpu_ops(scored.len() as u64);
        }
        clock.charge_sort(k.min(scored.len()) as u64);
    }
    select_top_k(scored, k)
}

/// The ranked read every strategy answers the same way: one pass over the
/// whole store scoring each tuple under the current `model` (off the store's
/// own representation), then [`take_top_k`].
pub(crate) fn ranked_scan<S: Store>(
    store: &mut S,
    model: &LinearModel,
    clock: &VirtualClock,
    stats: &mut ViewStats,
    k: usize,
) -> Vec<(u64, f64)> {
    let mut scored = Vec::with_capacity(store.len() as usize);
    store.scan_all(|row| scored.push((row.id(), row.margin(model, clock))));
    stats.tuples_examined += scored.len() as u64;
    take_top_k(scored, k, clock)
}

/// A maintained classification view. All methods take `&mut self`: even
/// reads may move internal state (lazy waste accounting, buffer-pool
/// faults, Skiing-triggered reorganizations).
///
/// Every implementation is `Send` (enforced on the boxes [`ViewBuilder`]
/// hands out), so views can be moved into worker threads — the basis of the
/// sharded serving layer in `hazy-serve`.
pub trait ClassifierView {
    /// Table label, e.g. `"hazy-od (eager)"`.
    fn describe(&self) -> String;

    /// Eager or lazy.
    fn mode(&self) -> Mode;

    /// `Update`: insert one training example; the model advances one round
    /// and (eager) `V` is maintained.
    fn update(&mut self, ex: &TrainingExample);

    /// Batched `Update`: insert a run of training examples arriving as one
    /// statement (the `INSERT ... SELECT` pattern of a bulk example load).
    ///
    /// Equivalent to calling [`update`](ClassifierView::update) once per
    /// example — the model takes the same SGD steps in the same order, and
    /// every subsequent read serves the same answers. Architectures amortize
    /// per-statement maintenance in
    /// [`update_batch_steps`](ClassifierView::update_batch_steps), which this
    /// runs: the watermark band after `k` rounds covers every label that any
    /// of the `k` intermediate models could have flipped, so eager
    /// maintenance runs **once** over the accumulated band instead of `k`
    /// times — on disk, that is one round of page pins instead of `k`.
    fn update_batch(&mut self, batch: &[TrainingExample]) {
        self.update_batch_steps(batch, &mut Vec::new());
    }

    /// [`update_batch`](ClassifierView::update_batch), appending the
    /// [`StepInfo`] of each example's SGD step to `steps`, in batch order.
    /// An epoch publisher folds them into a
    /// [`DeltaTracker`](crate::DeltaTracker), which bounds the model's drift
    /// in O(nnz) per step instead of an O(d) norm per round. Every
    /// architecture and wrapper reports all its steps (and overrides this,
    /// not `update_batch`); the default runs
    /// [`update`](ClassifierView::update) per example and reports none, so a
    /// publisher over it falls back to the exact norm.
    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        let _ = steps;
        for ex in batch {
            self.update(ex);
        }
    }

    /// Forces a reorganization right now (`VACUUM`-style maintenance entry
    /// point): recluster `H` on the current model and fold the unsorted
    /// tail into the ε-sorted run. Architectures without physical
    /// organization treat this as a no-op. Hazy architectures make it cheap
    /// when there is little to do — free when the model has not advanced
    /// and no tail exists, one sort-tail-and-merge pass when only inserts
    /// arrived since the last reorganization.
    fn reorganize(&mut self) {}

    /// `Single Entity` read: the label of entity `id`, or `None` if absent.
    fn read_single(&mut self, id: u64) -> Option<Label>;

    /// Number of entities the view currently holds (base rows + dynamic
    /// inserts). The engine is the authority — after a crash recovery the
    /// durable state, not any external bookkeeping, says what exists.
    fn entity_count(&self) -> u64;

    /// `All Members` query: how many entities currently carry label +1
    /// (the paper's repeated query in Section 4.1.2).
    fn count_positive(&mut self) -> u64;

    /// `All Members` returning the ids themselves.
    fn positive_ids(&mut self) -> Vec<u64>;

    /// Ranked read: the `k` entities with the greatest margin `w·f − b`
    /// under the **current** model, sorted by margin descending with ties
    /// broken by ascending id (the total order of [`rank_order`]). This is
    /// the "most confidently positive" listing a serving tier paginates —
    /// e.g. the top database papers in the paper's portal application
    /// (Section 1). Every architecture answers with a single scan that
    /// scores each entity and keeps the best `k`; the deterministic tie
    /// order is what lets a sharded deployment merge per-shard answers into
    /// exactly the unsharded list.
    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)>;

    /// Type-(1) dynamic data: a brand-new entity arrives and is classified
    /// under the current model. Ids are a key: inserting one the view
    /// already holds **replaces** that entity (retract + insert, the
    /// dataflow layer's set semantics).
    fn insert_entity(&mut self, e: Entity);

    /// Retracts entity `id` from the view: the inverse of
    /// [`insert_entity`](ClassifierView::insert_entity), driven by a base
    /// table `DELETE` (or the retract half of an `UPDATE`) propagated
    /// through a dataflow graph. The model is untouched — training examples
    /// are append-only, only the entity population shrinks. Returns `true`
    /// when the entity existed and was removed, `false` when the id was
    /// unknown (a retraction of an absent entity is a no-op, which makes
    /// WAL replay of removals idempotent).
    fn remove_entity(&mut self, id: u64) -> bool {
        let _ = id;
        false
    }

    /// The current model `(w(i), b(i))`.
    fn model(&self) -> &LinearModel;

    /// Operation counters.
    fn stats(&self) -> ViewStats;

    /// Resident-memory accounting (Figure 6(A)).
    fn memory(&self) -> MemoryFootprint;

    /// The virtual clock all costs are charged to.
    fn clock(&self) -> &VirtualClock;

    /// Extracts the complete **logical** state of the view for a live
    /// migration (see [`MigrationState`](crate::MigrationState)): entities,
    /// trainer, Skiing controller, counters. The extraction pass is charged
    /// to the clock (a disk view pays a sequential scan to evacuate
    /// itself). Returns `None` for views with no extraction path (wrappers
    /// delegate; a sharded view migrates shard-by-shard instead).
    ///
    /// The view is conceptually consumed: callers discard it and rebuild
    /// via [`ViewBuilder::build_migrated`].
    fn export_migration(&mut self) -> Option<crate::MigrationState> {
        None
    }

    /// Adopts carried control-plane state after a migration rebuild: the
    /// lifetime counters continue (with
    /// [`migrations`](crate::ViewStats::migrations) incremented) and, for
    /// hazy architectures, the Skiing accumulator carries over while the
    /// rebuild's freshly measured `S` is kept. Called exactly once, by
    /// [`ViewBuilder::build_migrated`], immediately after construction.
    fn adopt_migration_carry(&mut self, carry: &crate::MigrationCarry) {
        let _ = carry;
    }

    /// Extracts a point-in-time copy of the view's **answer state** — the
    /// entity population and the current model — for publishing an epoch
    /// snapshot (see [`PublishedView::new`](crate::PublishedView::new)).
    /// Every read a view serves is a pure function of exactly this pair
    /// (the observational-equivalence property the cross-architecture
    /// suites enforce), so an epoch built from it answers bit-identically
    /// to the live view at this instant.
    ///
    /// Unlike [`export_migration`](ClassifierView::export_migration) the
    /// view is **not** consumed — trainer, Skiing state and counters stay
    /// put. The copy pass is charged to the clock; `&mut self` because a
    /// disk view faults its pages through the buffer pool to evacuate
    /// itself. Returns `None` for wrappers with no single flat population
    /// (a sharded view snapshots shard-by-shard instead).
    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        None
    }

    /// Requests a live migration to `arch` × `mode`. Only adaptive wrappers
    /// (and the layers above them: durable logging, sharded fan-out)
    /// support this; plain architecture views return `false` — they *are*
    /// their architecture.
    fn set_architecture(&mut self, arch: Architecture, mode: Mode) -> bool {
        let _ = (arch, mode);
        false
    }
}

/// Builds any architecture × mode over a set of entities, with shared
/// configuration. One builder = one virtual clock = one comparable cost
/// universe.
#[derive(Clone, Debug)]
pub struct ViewBuilder {
    arch: Architecture,
    mode: Mode,
    sgd: SgdConfig,
    pair: NormPair,
    policy: WatermarkPolicy,
    alpha: f64,
    overheads: OpOverheads,
    cost_model: CostModel,
    /// Buffer-pool capacity as a fraction of the data's pages (on-disk
    /// architectures). Stands in for shared_buffers + OS cache.
    pool_frac: f64,
    hybrid: HybridConfig,
    dim: usize,
    /// When set, [`build`](ViewBuilder::build) produces a [`DurableView`]
    /// backed by this simulated file system path (recovering from it when a
    /// checkpoint already exists).
    durable: Option<(SimFs, String)>,
    /// Auto-checkpoint every this many logged operations (0 = manual only).
    ckpt_interval: u64,
}

impl ViewBuilder {
    /// Defaults: SVM via SGD, α = 1 (the paper's setting for all
    /// experiments), monotone watermarks, 2008-SATA cost model, pool sized
    /// to 95% of the data (a mostly-cached working set, like the paper's).
    pub fn new(arch: Architecture, mode: Mode) -> ViewBuilder {
        ViewBuilder {
            arch,
            mode,
            sgd: SgdConfig::svm(),
            pair: NormPair::TEXT,
            policy: WatermarkPolicy::Monotone,
            alpha: 1.0,
            overheads: OpOverheads::pg_2008(),
            cost_model: CostModel::sata_2008(),
            // The paper's machine keeps nearly all of FC/DB (and most of CS)
            // in shared buffers + OS cache; 95% residency reproduces its
            // on-disk read rates.
            pool_frac: 0.95,
            hybrid: HybridConfig::default(),
            dim: 0,
            durable: None,
            ckpt_interval: 256,
        }
    }

    /// Sets the SGD configuration (loss selects SVM/logistic/ridge).
    pub fn sgd(mut self, cfg: SgdConfig) -> Self {
        self.sgd = cfg;
        self
    }

    /// Sets the Hölder pair (`NormPair::TEXT` or `NormPair::EUCLIDEAN`).
    pub fn norm_pair(mut self, pair: NormPair) -> Self {
        self.pair = pair;
        self
    }

    /// Sets the watermark policy.
    pub fn watermark_policy(mut self, policy: WatermarkPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets Skiing's α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets per-operation overheads.
    pub fn overheads(mut self, o: OpOverheads) -> Self {
        self.overheads = o;
        self
    }

    /// Sets the storage cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Sets buffer-pool capacity as a fraction of the data's pages.
    pub fn pool_frac(mut self, f: f64) -> Self {
        self.pool_frac = f.max(0.0);
        self
    }

    /// Sets hybrid-architecture parameters.
    pub fn hybrid_config(mut self, h: HybridConfig) -> Self {
        self.hybrid = h;
        self
    }

    /// Sets the feature-space dimensionality (otherwise inferred from the
    /// entities).
    pub fn dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Makes the built view durable: operations are write-ahead logged to
    /// the store at `path_sim` inside `fs`, and [`build`](ViewBuilder::build)
    /// **recovers** from that store instead of building fresh when it
    /// already holds a valid checkpoint — the reopen-database flow.
    pub fn durable(mut self, fs: &SimFs, path_sim: &str) -> Self {
        self.durable = Some((fs.clone(), path_sim.to_string()));
        self
    }

    /// Sets the automatic checkpoint interval in logged operations for
    /// durable builds (0 disables auto-checkpointing; default 256).
    pub fn checkpoint_interval(mut self, ops: u64) -> Self {
        self.ckpt_interval = ops;
        self
    }

    /// The configured dimensionality; 0 means "infer from the entities at
    /// build time". A sharded build must pin this globally **before**
    /// partitioning — per-shard inference would give shards models of
    /// different dimension.
    pub fn configured_dim(&self) -> usize {
        self.dim
    }

    /// The architecture this builder constructs.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// The maintenance mode this builder constructs.
    pub fn build_mode(&self) -> Mode {
        self.mode
    }

    /// The configured buffer-pool residency fraction (the advisor's cost
    /// models use it to predict on-disk miss rates).
    pub fn configured_pool_frac(&self) -> f64 {
        self.pool_frac
    }

    /// The configured per-statement overheads.
    pub fn configured_overheads(&self) -> OpOverheads {
        self.overheads
    }

    /// The configured Hölder pair (epoch publishers built over this
    /// builder's views must measure feature norms under the same `q`).
    pub fn configured_norm_pair(&self) -> NormPair {
        self.pair
    }

    /// Builds the view over `entities`, optionally warm-starting the model
    /// with `warm` training examples **before** the initial organization
    /// (equivalent to having processed them as updates, without paying for
    /// thousands of naive maintenance rounds during setup — the experiments
    /// in Section 4.1.1 all start from a 12k-example warm model).
    ///
    /// When [`durable`](ViewBuilder::durable) is configured, the result is a
    /// [`DurableView`]: if the store already holds a valid checkpoint the
    /// view is **recovered** from checkpoint + WAL (ignoring `entities` and
    /// `warm` — the durable state is authoritative); otherwise it is built
    /// fresh and a genesis checkpoint is written.
    pub fn build(
        &self,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
    ) -> Box<dyn DurableClassifierView + Send> {
        let Some((fs, path)) = self.durable.clone() else {
            return self.build_with_clock(entities, warm, self.new_clock());
        };
        if fs.has_checkpoint(&path) {
            let store = fs.open(&path, self.new_clock());
            let dv = DurableView::recover(self, store, self.ckpt_interval, &CoreRestorer)
                .expect("durable store holds a checkpoint but recovery failed");
            return Box::new(dv);
        }
        let inner = self.build_with_clock(entities, warm, self.new_clock());
        let store = fs.open(&path, inner.clock().clone());
        Box::new(DurableView::create(inner, store, self.ckpt_interval))
    }

    /// A fresh virtual clock under this builder's cost model. Pass clones of
    /// one clock to several [`build_with_clock`](ViewBuilder::build_with_clock)
    /// calls to keep their views in a single cost universe (what the sharded
    /// serving layer does for its shards).
    pub fn new_clock(&self) -> VirtualClock {
        VirtualClock::new(self.cost_model)
    }

    /// Like [`build`](ViewBuilder::build), but charges all costs to the
    /// caller's `clock` instead of a fresh one — the hook that lets many
    /// views (e.g. the shards of one logical view) share a cost universe.
    /// Always builds raw (never applies the [`durable`](ViewBuilder::durable)
    /// wrapping — shards of a durable sharded view are logged and
    /// checkpointed by the coordinator, not individually).
    pub fn build_with_clock(
        &self,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
        clock: VirtualClock,
    ) -> Box<dyn DurableClassifierView + Send> {
        let trainer = self.warm_trainer(&entities, warm);
        self.assemble(self.arch, self.mode, entities, trainer, clock)
    }

    /// A trainer of the configured (or, when unset, inferred) dimension,
    /// warm-started by `warm`.
    fn warm_trainer(&self, entities: &[Entity], warm: &[TrainingExample]) -> SgdTrainer {
        let dim = if self.dim > 0 {
            self.dim
        } else {
            entities.iter().map(|e| e.f.dim() as usize).max().unwrap_or(0)
        };
        let mut trainer = SgdTrainer::new(self.sgd, dim);
        for ex in warm {
            trainer.step(&ex.f, ex.y);
        }
        trainer
    }

    /// Rebuilds a view under `arch` × `mode` from the logical state a
    /// source view exported via
    /// [`ClassifierView::export_migration`] — the second half of a live
    /// migration. The construction is the target's initial organization
    /// (every tuple re-keyed and relabeled under the carried model, charged
    /// to `clock`), after which the carried Skiing accumulator and lifetime
    /// counters are adopted. The returned view serves **exactly** the same
    /// answers as the source did at extraction time: both are pure
    /// functions of the carried entities × the carried model.
    pub fn build_migrated(
        &self,
        arch: Architecture,
        mode: Mode,
        state: crate::MigrationState,
        clock: VirtualClock,
    ) -> Box<dyn DurableClassifierView + Send> {
        let crate::MigrationState { entities, trainer, carry } = state;
        let mut view = self.assemble(arch, mode, entities, trainer, clock);
        view.adopt_migration_carry(&carry);
        view
    }

    /// Shared constructor dispatch: a concrete architecture × mode over a
    /// ready-made trainer (warm-started or carried from a migration).
    fn assemble(
        &self,
        arch: Architecture,
        mode: Mode,
        entities: Vec<Entity>,
        trainer: SgdTrainer,
        clock: VirtualClock,
    ) -> Box<dyn DurableClassifierView + Send> {
        match arch {
            Architecture::NaiveMem => {
                Box::new(NaiveMemView::new(entities, trainer, clock, self.overheads, mode))
            }
            Architecture::HazyMem => Box::new(HazyMemView::new(
                entities,
                trainer,
                clock,
                self.overheads,
                mode,
                self.pair,
                self.policy,
                self.alpha,
            )),
            Architecture::NaiveDisk => {
                let pool = self.make_pool(&entities, clock);
                Box::new(NaiveDiskView::new(entities, trainer, pool, self.overheads, mode))
            }
            Architecture::HazyDisk => {
                let pool = self.make_pool(&entities, clock);
                Box::new(HazyDiskView::new(
                    entities,
                    trainer,
                    pool,
                    self.overheads,
                    mode,
                    self.pair,
                    self.policy,
                    self.alpha,
                ))
            }
            Architecture::Hybrid => {
                let pool = self.make_pool(&entities, clock);
                Box::new(HybridView::new(
                    entities,
                    trainer,
                    pool,
                    self.overheads,
                    mode,
                    self.pair,
                    self.policy,
                    self.alpha,
                    self.hybrid,
                ))
            }
        }
    }

    /// Builds a concrete [`HybridView`] (rather than a trait object) so
    /// experiment code can reach its hooks (`set_uncertain_fraction`,
    /// `set_buffer_frac`). Ignores the builder's `arch`.
    pub fn build_hybrid(&self, entities: Vec<Entity>, warm: &[TrainingExample]) -> HybridView {
        let trainer = self.warm_trainer(&entities, warm);
        let clock = VirtualClock::new(self.cost_model);
        let pool = self.make_pool(&entities, clock);
        HybridView::new(
            entities,
            trainer,
            pool,
            self.overheads,
            self.mode,
            self.pair,
            self.policy,
            self.alpha,
            self.hybrid,
        )
    }

    /// Builds a concrete [`HazyMemView`] so experiment code can reach its
    /// hooks (`waterband`, `tuples_in_band`, `skiing`). Ignores the
    /// builder's `arch`.
    pub fn build_hazy_mem(&self, entities: Vec<Entity>, warm: &[TrainingExample]) -> HazyMemView {
        let trainer = self.warm_trainer(&entities, warm);
        let clock = VirtualClock::new(self.cost_model);
        HazyMemView::new(
            entities,
            trainer,
            clock,
            self.overheads,
            self.mode,
            self.pair,
            self.policy,
            self.alpha,
        )
    }

    /// Restores an unsharded view from a checkpoint blob written by its
    /// [`Durable::save_state`](crate::Durable::save_state), dispatching on
    /// the architecture tag. The builder contributes only non-stateful
    /// configuration (per-operation overheads); everything behavioral —
    /// trainer, watermarks, Skiing state, disk image — comes from the blob,
    /// so the restored view is bit-identical to the serialized one.
    ///
    /// Returns `None` on unknown tags or malformed input (a torn checkpoint
    /// must fail loudly, not build a half-view).
    pub fn restore_unsharded(
        &self,
        bytes: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<Box<dyn DurableClassifierView + Send>> {
        match hazy_linalg::wire::take_u8(bytes)? {
            tag::NAIVE_MEM => {
                Some(Box::new(NaiveMemView::restore_state(bytes, clock, self.overheads)?))
            }
            tag::HAZY_MEM => {
                Some(Box::new(HazyMemView::restore_state(bytes, clock, self.overheads)?))
            }
            tag::NAIVE_DISK => {
                Some(Box::new(NaiveDiskView::restore_state(bytes, clock, self.overheads)?))
            }
            tag::HAZY_DISK => {
                Some(Box::new(HazyDiskView::restore_state(bytes, clock, self.overheads)?))
            }
            tag::HYBRID => {
                Some(Box::new(HybridView::restore_state(bytes, clock, self.overheads)?))
            }
            _ => None,
        }
    }

    fn make_pool(&self, entities: &[Entity], clock: VirtualClock) -> BufferPool {
        let bytes: usize = entities
            .iter()
            .map(|e| crate::entity::TUPLE_HEADER + hazy_linalg::encoded_len(&e.f) + 4)
            .sum();
        // heap + clustered index + hash index ≈ 1.4× the raw tuple bytes
        let est_pages = (bytes * 14 / 10) / PAGE_SIZE + 8;
        let cap = ((est_pages as f64 * self.pool_frac) as usize).max(64);
        BufferPool::new(SimDisk::new(clock), cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tuples whose bound equals the k-th margin can still tie it and win
    /// on id, so the walk passes them; one strictly below by more than the
    /// slack ends it, and nothing after it is scored.
    #[test]
    fn bounded_walk_passes_ties_and_stops_below_the_kth() {
        let walk =
            [(0.5, (9, 0.5)), (0.5, (3, 0.5)), (0.5, (5, 0.4)), (0.2, (1, 0.2)), (0.1, (0, 0.1))];
        let (got, scored) = bounded_top_k([(7, 0.45)], walk, |c| c, 2, 6);
        assert_eq!(got, vec![(3, 0.5), (9, 0.5)]);
        assert_eq!(scored, 4, "the inserted tuple and the three bounded at 0.5");
        let (all, scored) = bounded_top_k([(7, 0.45)], walk, |c| c, usize::MAX, 6);
        assert_eq!((all.len(), scored), (6, 6), "k past the population scores everything");
        assert_eq!(bounded_top_k([(7, 0.45)], walk, |c| c, 0, 6), (Vec::new(), 0));
    }
}
