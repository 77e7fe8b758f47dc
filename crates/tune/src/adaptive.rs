//! The [`AdaptiveView`] wrapper: any architecture × mode behind a stable
//! [`ClassifierView`] facade, with the advisor watching every operation and
//! **live migration** replacing the engine underneath when the workload
//! says so.

use hazy_core::{
    Architecture, ClassifierView, Durable, DurableClassifierView, Entity, MemoryFootprint,
    Mode, ViewBuilder, ViewStats,
};
use hazy_learn::{Label, LinearModel, StepInfo, TrainingExample};
use hazy_linalg::wire;
use hazy_storage::VirtualClock;

use crate::advisor::{Advisor, AdvisorConfig, MigrationEvent, OpKind, WindowCtx};

/// Global migration metrics: count and virtual-pause distribution across
/// every adaptive view in the process.
struct TuneObs {
    migrations: &'static hazy_obs::Counter,
    pause_ns: &'static hazy_obs::Histogram,
}

fn tune_obs() -> &'static TuneObs {
    static OBS: std::sync::OnceLock<TuneObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| TuneObs {
        migrations: hazy_obs::counter("tune_migrations_total"),
        pause_ns: hazy_obs::histogram("tune_migration_pause_ns"),
    })
}


/// Checkpoint-blob tag identifying an adaptive view (the architecture tags
/// 1–5 and the sharded tag 16 stay below it).
pub const ADAPTIVE_VIEW_TAG: u8 = 17;

/// CPU operations charged per observed statement (the advisor's counter
/// arithmetic) and per window-close decision — the advisor is not free,
/// and the virtual clock should say so.
const OBSERVE_CPU_OPS: u64 = 4;
const DECIDE_CPU_OPS: u64 = 64;

/// A classification view that re-decides its own architecture online.
///
/// Wraps one of the five architectures (any mode) and interposes on every
/// operation: run it, measure its virtual cost, feed the advisor. When the
/// advisor's ski-rental rule fires — or an explicit
/// [`set_architecture`](ClassifierView::set_architecture) arrives — the
/// view performs a **live migration**: the current engine exports its
/// logical state (entities, trainer, Skiing accumulator, counters), a new
/// engine of the target architecture × mode is built from it on the *same*
/// virtual clock, and serving resumes. The model never retrains, answers
/// never change, and the whole pause is the extraction + rebuild cost —
/// observable per event in [`migration_log`](AdaptiveView::migration_log).
pub struct AdaptiveView {
    inner: Box<dyn DurableClassifierView + Send>,
    arch: Architecture,
    mode: Mode,
    /// Construction template for rebuilds (cost model, overheads, norms,
    /// watermark policy — everything but the architecture/mode, which the
    /// migration target supplies).
    template: ViewBuilder,
    advisor: Advisor,
    /// Stats snapshot at the last window close (window deltas feed the
    /// advisor's feature fitting).
    last_stats: ViewStats,
    events: Vec<MigrationEvent>,
    last_migration_ns: u64,
}

fn stats_delta(now: ViewStats, then: ViewStats) -> ViewStats {
    ViewStats {
        updates: now.updates.saturating_sub(then.updates),
        single_reads: now.single_reads.saturating_sub(then.single_reads),
        all_members: now.all_members.saturating_sub(then.all_members),
        tuples_reclassified: now.tuples_reclassified.saturating_sub(then.tuples_reclassified),
        tuples_examined: now.tuples_examined.saturating_sub(then.tuples_examined),
        labels_changed: now.labels_changed.saturating_sub(then.labels_changed),
        reorgs: now.reorgs.saturating_sub(then.reorgs),
        // deliberately absolute: the advisor wants the latest measured S,
        // not a difference of measurements
        last_reorg_ns: now.last_reorg_ns,
        eps_map_prunes: now.eps_map_prunes.saturating_sub(then.eps_map_prunes),
        buffer_hits: now.buffer_hits.saturating_sub(then.buffer_hits),
        disk_reads: now.disk_reads.saturating_sub(then.disk_reads),
        migrations: now.migrations.saturating_sub(then.migrations),
        epochs_published: now.epochs_published.saturating_sub(then.epochs_published),
        epoch_pins: now.epoch_pins.saturating_sub(then.epoch_pins),
    }
}

fn mean_nnz<'a>(fs: impl Iterator<Item = &'a hazy_linalg::FeatureVec>) -> Option<f64> {
    let (mut sum, mut count) = (0usize, 0usize);
    for f in fs {
        sum += f.nnz();
        count += 1;
    }
    (count > 0).then(|| sum as f64 / count as f64)
}

impl AdaptiveView {
    /// Builds an adaptive view whose initial engine is the builder's
    /// architecture × mode. The builder's durability setting is ignored —
    /// durability wraps *outside* (`DurableView<AdaptiveView>`), so
    /// migrations land in the WAL like every other operation.
    pub fn build(
        builder: &ViewBuilder,
        cfg: AdvisorConfig,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
    ) -> AdaptiveView {
        let clock = builder.new_clock();
        AdaptiveView::build_with_clock(builder, cfg, entities, warm, clock)
    }

    /// Like [`build`](AdaptiveView::build), charging all costs to the
    /// caller's clock — the shard-construction hook
    /// [`build_sharded_adaptive`](crate::build_sharded_adaptive) uses so
    /// every adaptive shard lives in one cost universe.
    pub fn build_with_clock(
        builder: &ViewBuilder,
        cfg: AdvisorConfig,
        entities: Vec<Entity>,
        warm: &[TrainingExample],
        clock: VirtualClock,
    ) -> AdaptiveView {
        let nnz_hint = mean_nnz(entities.iter().map(|e| &e.f)).unwrap_or(8.0);
        let inner = builder.build_with_clock(entities, warm, clock);
        let last_stats = inner.stats();
        AdaptiveView {
            inner,
            arch: builder.architecture(),
            mode: builder.build_mode(),
            template: builder.clone(),
            advisor: Advisor::new(cfg, nnz_hint),
            last_stats,
            events: Vec::new(),
            last_migration_ns: 0,
        }
    }

    /// The architecture currently serving.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// Every migration performed so far, oldest first.
    pub fn migration_log(&self) -> &[MigrationEvent] {
        &self.events
    }

    /// Virtual pause of the most recent migration (0 = never migrated).
    pub fn last_migration_pause_ns(&self) -> u64 {
        self.last_migration_ns
    }

    /// The advisor (read access for instrumentation).
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// Performs a live migration to `arch` × `mode` right now. Returns
    /// `true` (a no-op when already there). `auto` marks advisor-ordered
    /// migrations in the log.
    fn migrate_to(&mut self, arch: Architecture, mode: Mode, auto: bool) -> bool {
        if arch == self.arch && mode == self.mode {
            return true;
        }
        let clock = self.inner.clock().clone();
        let t0 = clock.now_ns();
        let Some(state) = self.inner.export_migration() else {
            return false;
        };
        let from = (self.arch, self.mode);
        hazy_obs::emit(
            hazy_obs::EventKind::MigrationStart,
            u64::from(from.0.tag()),
            u64::from(arch.tag()),
            u64::from(auto),
        );
        self.inner = self.template.build_migrated(arch, mode, state, clock.clone());
        self.arch = arch;
        self.mode = mode;
        let pause_ns = clock.now_ns() - t0;
        self.last_migration_ns = pause_ns;
        tune_obs().migrations.inc();
        tune_obs().pause_ns.record(pause_ns);
        hazy_obs::emit(
            hazy_obs::EventKind::MigrationFinish,
            u64::from(from.0.tag()),
            u64::from(arch.tag()),
            pause_ns,
        );
        self.events.push(MigrationEvent {
            from,
            to: (arch, mode),
            at_ns: clock.now_ns(),
            pause_ns,
            auto,
        });
        self.advisor.migrated();
        self.last_stats = self.inner.stats();
        true
    }

    /// Observation + decision wrapper around every interposed operation.
    fn run_op<T>(
        &mut self,
        kind: OpKind,
        examples: u64,
        nnz: Option<f64>,
        op: impl FnOnce(&mut (dyn DurableClassifierView + Send)) -> T,
    ) -> T {
        let clock = self.inner.clock().clone();
        let t0 = clock.now_ns();
        let out = op(self.inner.as_mut());
        let dt = clock.now_ns() - t0;
        clock.charge_cpu_ops(OBSERVE_CPU_OPS);
        self.advisor.observe(kind, examples, nnz, dt);
        if self.advisor.window_full() {
            let stats = self.inner.stats();
            let ctx = WindowCtx {
                n: self.inner.entity_count(),
                delta: stats_delta(stats, self.last_stats),
                cost_model: *clock.model(),
                overheads: self.template.configured_overheads(),
                pool_frac: self.template.configured_pool_frac(),
                current: (self.arch, self.mode),
            };
            clock.charge_cpu_ops(DECIDE_CPU_OPS);
            let order = self.advisor.close_window(&ctx);
            self.last_stats = stats;
            if let Some((a, m)) = order {
                self.migrate_to(a, m, true);
            }
        }
        out
    }
}

impl std::fmt::Debug for AdaptiveView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveView")
            .field("inner", &self.inner.describe())
            .field("migrations", &self.events.len())
            .finish()
    }
}

impl Durable for AdaptiveView {
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(ADAPTIVE_VIEW_TAG);
        out.push(self.arch.tag());
        out.push(self.mode.tag());
        out.extend_from_slice(&self.last_migration_ns.to_le_bytes());
        self.last_stats.save_state(out);
        self.advisor.save_state(out);
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            out.push(e.from.0.tag());
            out.push(e.from.1.tag());
            out.push(e.to.0.tag());
            out.push(e.to.1.tag());
            out.extend_from_slice(&e.at_ns.to_le_bytes());
            out.extend_from_slice(&e.pause_ns.to_le_bytes());
            out.push(u8::from(e.auto));
        }
        self.inner.save_state(out);
    }
}

impl AdaptiveView {
    /// Inverse of this view's [`Durable::save_state`] (tag byte already
    /// consumed). The inner engine — always one of the five unsharded
    /// architectures — is restored through the builder's dispatcher.
    pub fn restore_state(
        builder: &ViewBuilder,
        b: &mut &[u8],
        clock: VirtualClock,
    ) -> Option<AdaptiveView> {
        let arch = Architecture::from_tag(wire::take_u8(b)?)?;
        let mode = Mode::from_tag(wire::take_u8(b)?)?;
        let last_migration_ns = wire::take_u64(b)?;
        let last_stats = ViewStats::restore_state(b)?;
        let advisor = Advisor::restore_state(b)?;
        // an event is four tags(1) + two u64 timestamps + the auto flag(1)
        let n_events = wire::take_count_u32(b, 21)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let from = (
                Architecture::from_tag(wire::take_u8(b)?)?,
                Mode::from_tag(wire::take_u8(b)?)?,
            );
            let to = (
                Architecture::from_tag(wire::take_u8(b)?)?,
                Mode::from_tag(wire::take_u8(b)?)?,
            );
            let at_ns = wire::take_u64(b)?;
            let pause_ns = wire::take_u64(b)?;
            let auto = match wire::take_u8(b)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            events.push(MigrationEvent { from, to, at_ns, pause_ns, auto });
        }
        let inner = builder.restore_unsharded(b, clock)?;
        Some(AdaptiveView {
            inner,
            arch,
            mode,
            template: builder.clone(),
            advisor,
            last_stats,
            events,
            last_migration_ns,
        })
    }
}

impl ClassifierView for AdaptiveView {
    fn describe(&self) -> String {
        format!("adaptive {}", self.inner.describe())
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn update(&mut self, ex: &TrainingExample) {
        self.update_batch(std::slice::from_ref(ex));
    }

    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        if batch.is_empty() {
            return;
        }
        let nnz = mean_nnz(batch.iter().map(|ex| &ex.f));
        self.run_op(OpKind::Update, batch.len() as u64, nnz, |v| {
            v.update_batch_steps(batch, steps)
        });
    }

    fn reorganize(&mut self) {
        self.run_op(OpKind::Reorg, 0, None, |v| v.reorganize());
    }

    fn read_single(&mut self, id: u64) -> Option<Label> {
        self.run_op(OpKind::Read, 0, None, |v| v.read_single(id))
    }

    fn entity_count(&self) -> u64 {
        self.inner.entity_count()
    }

    fn count_positive(&mut self) -> u64 {
        self.run_op(OpKind::Scan, 0, None, |v| v.count_positive())
    }

    fn positive_ids(&mut self) -> Vec<u64> {
        self.run_op(OpKind::Scan, 0, None, |v| v.positive_ids())
    }

    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        self.run_op(OpKind::TopK, 0, None, |v| v.top_k(k))
    }

    fn insert_entity(&mut self, e: Entity) {
        let nnz = Some(e.f.nnz() as f64);
        self.run_op(OpKind::Insert, 0, nnz, |v| v.insert_entity(e));
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        // a retraction touches the same structures as an arrival (hash
        // probe + heap/vec mutation), so it feeds the advisor as one
        self.run_op(OpKind::Insert, 0, None, |v| v.remove_entity(id))
    }

    fn set_architecture(&mut self, arch: Architecture, mode: Mode) -> bool {
        self.migrate_to(arch, mode, false)
    }

    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        // not advisor-observed: a snapshot is epoch plumbing, not workload
        // signal — feeding its scan cost into the fitting would bias the
        // read-cost models
        self.inner.snapshot_state()
    }

    fn model(&self) -> &LinearModel {
        self.inner.model()
    }

    fn stats(&self) -> ViewStats {
        self.inner.stats()
    }

    fn memory(&self) -> MemoryFootprint {
        self.inner.memory()
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_linalg::FeatureVec;

    /// A checkpoint whose migration log claims `u32::MAX` events with none
    /// behind it is undecodable, not a 4-billion-slot allocation.
    #[test]
    fn forged_event_count_is_undecodable() {
        let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
        let entities = (0..8u64)
            .map(|id| Entity::new(id, FeatureVec::dense(vec![id as f32 / 8.0 - 0.5, 0.25])))
            .collect();
        let v = AdaptiveView::build(&builder, AdvisorConfig::default(), entities, &[]);
        let mut b = vec![v.arch.tag(), v.mode.tag()];
        b.extend_from_slice(&v.last_migration_ns.to_le_bytes());
        v.last_stats.save_state(&mut b);
        v.advisor.save_state(&mut b);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(AdaptiveView::restore_state(&builder, &mut &b[..], builder.new_clock()).is_none());
    }
}
